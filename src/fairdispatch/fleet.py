"""Vehicle state, feasible-action enumeration, and route execution.

An action is a subset of the current batch a vehicle can absorb into its
route while honouring pickup deadlines (request arrival plus the maximum
wait), dropoff deadlines (pickup time plus direct travel plus the detour
allowance), and capacity.  Route plans are found by exhaustive search over
stop orderings, so each returned action carries the minimum added travel
time realisation of its request set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Sequence

import numpy as np

from ._records import read_records
from .demand import Request
from .errors import ConfigError, ContractError, InputError, ParseError
from .network import StreetNetwork

PICKUP = "pickup"
DROPOFF = "dropoff"


@dataclass(frozen=True)
class Stop:
    location: int
    request_id: int
    kind: str
    deadline: float


@dataclass(frozen=True)
class RideConstraints:
    max_wait: float = 300.0
    max_detour: float = 300.0
    max_bundle: int = 2

    def __post_init__(self) -> None:
        if not self.max_wait > 0:
            raise ConfigError(f"max_wait must be positive, got {self.max_wait}")
        if not (self.max_detour >= 0 and self.max_bundle >= 1):
            raise ConfigError(
                f"max_detour must be >= 0 and max_bundle >= 1, got {self.max_detour}, {self.max_bundle}"
            )


@dataclass
class VehicleState:
    """Mutable vehicle snapshot; `next_node`/`edge_progress` hold mid-edge state."""

    id: int
    location: int
    capacity: int
    route: list[Stop] = field(default_factory=list)
    onboard: set[int] = field(default_factory=set)
    next_node: int | None = None
    edge_progress: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise InputError(f"vehicle {self.id}: capacity must be >= 1")
        if len(self.onboard) > self.capacity:
            raise InputError(f"vehicle {self.id}: onboard exceeds capacity")

    def clone(self) -> "VehicleState":
        return VehicleState(
            self.id,
            self.location,
            self.capacity,
            list(self.route),
            set(self.onboard),
            self.next_node,
            self.edge_progress,
        )

    def planning_origin(self, net: StreetNetwork) -> tuple[int, float]:
        """Node the vehicle plans from, plus seconds until it gets there.

        A vehicle mid-edge is committed to finishing that edge, so plans start
        from the edge's far end after the remaining edge time.
        """
        if self.next_node is None:
            return self.location, 0.0
        return self.next_node, net.travel_time(self.location, self.next_node) - self.edge_progress


# Shared by every null action: each empty frozenset would cost 216 bytes,
# and every vehicle has a null candidate in every window.
_NO_REQUESTS: frozenset[int] = frozenset()


@dataclass(frozen=True)
class Action:
    """A request subset plus the stop sequence that realises it."""

    requests: tuple[Request, ...]
    plan: tuple[Stop, ...]
    added_delay: float

    def request_ids(self) -> frozenset[int]:
        if not self.requests:
            return _NO_REQUESTS
        return frozenset(r.id for r in self.requests)


def null_action(v: VehicleState) -> Action:
    """The always-available action: keep serving the current route."""
    return Action(requests=(), plan=tuple(v.route), added_delay=0.0)


def _route_completion(
    start: int, offset: float, now: float, stops: Sequence[Stop], net: StreetNetwork
) -> float:
    t = now + offset
    pos = start
    for stop in stops:
        t += net.travel_time(pos, stop.location)
        pos = stop.location
    return t


class _PlanSearch:
    """Exhaustive minimum-completion-time ordering of existing and new stops."""

    def __init__(
        self,
        v: VehicleState,
        new_requests: Sequence[Request],
        now: float,
        net: StreetNetwork,
        constraints: RideConstraints,
    ):
        self.net = net
        self.max_detour = constraints.max_detour
        self.capacity = v.capacity
        start, offset = v.planning_origin(net)
        self.start = start
        self.t0 = now + offset
        self.count0 = len(v.onboard)
        # token = (location, request_id, kind, deadline or None for new dropoffs)
        self.tokens: list[tuple[int, int, str, float | None]] = [
            (s.location, s.request_id, s.kind, s.deadline) for s in v.route
        ]
        self.direct: dict[int, float] = {}
        for r in new_requests:
            self.tokens.append((r.pickup, r.id, PICKUP, r.arrival + constraints.max_wait))
            self.tokens.append((r.dropoff, r.id, DROPOFF, None))
            self.direct[r.id] = net.travel_time(r.pickup, r.dropoff)
        self.pickup_index = {
            tok[1]: i for i, tok in enumerate(self.tokens) if tok[2] == PICKUP
        }
        self.n = len(self.tokens)
        self.best_time = float("inf")
        self.best_order: tuple[int, ...] | None = None

    def run(self) -> tuple[tuple[Stop, ...], float] | None:
        self._extend(self.start, self.t0, self.count0, 0, {}, [])
        if self.best_order is None:
            return None
        return self._materialise(), self.best_time

    def _extend(
        self,
        pos: int,
        t: float,
        count: int,
        placed: int,
        pickup_times: dict[int, float],
        order: list[int],
    ) -> None:
        if t >= self.best_time:
            return
        if placed == (1 << self.n) - 1:
            self.best_time = t
            self.best_order = tuple(order)
            return
        travel = self.net.travel_time
        for i, (loc, rid, kind, deadline) in enumerate(self.tokens):
            if placed & (1 << i):
                continue
            if kind == DROPOFF:
                pk = self.pickup_index.get(rid)
                if pk is not None and not placed & (1 << pk):
                    continue
                if deadline is None:
                    deadline = pickup_times[rid] + self.direct[rid] + self.max_detour
            elif count >= self.capacity:
                continue
            t2 = t + travel(pos, loc)
            if t2 > deadline:
                continue
            if not self._rest_reachable(loc, t2, placed | (1 << i)):
                continue
            if kind == PICKUP:
                pickup_times[rid] = t2
                self._extend(loc, t2, count + 1, placed | (1 << i), pickup_times, order + [i])
                del pickup_times[rid]
            else:
                self._extend(loc, t2, count - 1, placed | (1 << i), pickup_times, order + [i])

    def _rest_reachable(self, pos: int, t: float, placed: int) -> bool:
        # Every unplaced stop with a known deadline must still be reachable in
        # time from here; travel times satisfy the triangle inequality, so
        # t + direct distance lower-bounds its eventual visit time.
        travel = self.net.travel_time
        for i, (loc, _rid, _kind, deadline) in enumerate(self.tokens):
            if placed & (1 << i) or deadline is None:
                continue
            if t + travel(pos, loc) > deadline:
                return False
        return True

    def _materialise(self) -> tuple[Stop, ...]:
        stops: list[Stop] = []
        pickup_times: dict[int, float] = {}
        pos = self.start
        t = self.t0
        for i in self.best_order:
            loc, rid, kind, deadline = self.tokens[i]
            t += self.net.travel_time(pos, loc)
            pos = loc
            if kind == PICKUP:
                pickup_times[rid] = t
            if deadline is None:
                deadline = pickup_times[rid] + self.direct[rid] + self.max_detour
            stops.append(Stop(loc, rid, kind, deadline))
        return tuple(stops)


def feasible_actions(
    v: VehicleState,
    batch: Sequence[Request],
    now: float,
    net: StreetNetwork,
    constraints: RideConstraints,
) -> list[Action]:
    """All request subsets the vehicle can serve, each with its best plan.

    Bundles grow one request per layer, as in Alonso-Mora et al.'s trip
    construction.  The first layer's pool is the requests whose pickup is
    still reachable in time, each later pool the requests of the previous
    layer's bundles, and a bundle (sorted ids) is searched only when every
    bundle one request smaller is feasible; dropping stops never delays the
    rest, so none is missed.  The null action comes first, then bundles by
    size and then by request ids.
    """
    actions = [null_action(v)]
    room = min(constraints.max_bundle, v.capacity - len(v.onboard))
    if room <= 0 or not batch:
        return actions

    start, offset = v.planning_origin(net)
    base_completion = _route_completion(start, offset, now, v.route, net)
    by_id = {r.id: r for r in batch}
    pool = sorted(
        r.id
        for r in batch
        if now + offset + net.travel_time(start, r.pickup) <= r.arrival + constraints.max_wait
    )
    smaller: set[tuple[int, ...]] = {()}
    for size in range(1, room + 1):
        layer: set[tuple[int, ...]] = set()
        for ids in combinations(pool, size):
            if not smaller.issuperset(combinations(ids, size - 1)):
                continue
            requests = tuple(by_id[rid] for rid in ids)
            found = _PlanSearch(v, requests, now, net, constraints).run()
            if found is not None:
                plan, completion = found
                actions.append(Action(requests, plan, completion - base_completion))
                layer.add(ids)
        smaller = layer
        pool = sorted({rid for ids in layer for rid in ids})
    return actions


def _validate_plan(v: VehicleState, chosen: Action) -> None:
    expected_new = chosen.request_ids()
    seen_pickups: set[int] = set()
    count = len(v.onboard)
    for stop in chosen.plan:
        if stop.kind == PICKUP:
            seen_pickups.add(stop.request_id)
            count += 1
            if count > v.capacity:
                raise ContractError(f"vehicle {v.id}: plan exceeds capacity")
        elif stop.kind == DROPOFF:
            if stop.request_id not in seen_pickups and stop.request_id not in v.onboard:
                raise ContractError(
                    f"vehicle {v.id}: dropoff of {stop.request_id} precedes its pickup"
                )
            count -= 1
        else:
            raise ContractError(f"vehicle {v.id}: unknown stop kind {stop.kind!r}")
    missing = expected_new - seen_pickups
    if missing:
        raise ContractError(f"vehicle {v.id}: plan omits pickups for {sorted(missing)}")


def advance(
    v: VehicleState, chosen: Action, dt: float, net: StreetNetwork
) -> list[int]:
    """Adopt the chosen plan and travel for `dt` seconds; returns completions.

    The vehicle walks shortest paths node by node; partial progress along an
    edge is retained, so splitting an interval across calls lands the vehicle
    in the same state as one combined call.
    """
    if dt < 0:
        raise InputError(f"dt must be nonnegative, got {dt}")
    _validate_plan(v, chosen)
    v.route = list(chosen.plan)
    completed: list[int] = []
    remaining = dt

    if v.next_node is not None:
        edge_left = net.travel_time(v.location, v.next_node) - v.edge_progress
        if remaining < edge_left:
            v.edge_progress += remaining
            return completed
        remaining -= edge_left
        v.location = v.next_node
        v.next_node = None
        v.edge_progress = 0.0

    while True:
        while v.route and v.route[0].location == v.location:
            stop = v.route.pop(0)
            if stop.kind == PICKUP:
                v.onboard.add(stop.request_id)
            else:
                v.onboard.discard(stop.request_id)
                completed.append(stop.request_id)
        if not v.route or remaining <= 0:
            break
        hop = net.next_hop(v.location, v.route[0].location)
        cost = net.travel_time(v.location, hop)
        if remaining >= cost:
            v.location = hop
            remaining -= cost
        else:
            v.next_node = hop
            v.edge_progress = remaining
            remaining = 0.0
            break
    return completed


def load_fleet(path: str | Path, net: StreetNetwork) -> list[VehicleState]:
    """Parse a fleet CSV: `vehicle_id,start_location,capacity`."""
    fleet: list[VehicleState] = []
    seen: set[int] = set()
    for where, (vid, start, capacity) in read_records(path, "id,start,capacity", (int, int, int)):
        if vid in seen:
            raise ParseError(f"{where}: duplicate vehicle id {vid}")
        if start not in net:
            raise ParseError(f"{where}: unknown start location {start}")
        try:
            vehicle = VehicleState(vid, start, capacity)
        except InputError as exc:
            raise ParseError(f"{where}: {exc}") from None
        seen.add(vid)
        fleet.append(vehicle)
    fleet.sort(key=lambda veh: veh.id)
    return fleet


def random_fleet(
    size: int, capacity: int, net: StreetNetwork, seed: int
) -> list[VehicleState]:
    """Fleet with uniformly drawn start locations, reproducible by seed."""
    if size < 1:
        raise InputError(f"fleet size must be >= 1, got {size}")
    rng = np.random.default_rng(seed)
    locations = net.locations
    return [
        VehicleState(i, locations[int(rng.integers(0, len(locations)))], capacity)
        for i in range(size)
    ]
