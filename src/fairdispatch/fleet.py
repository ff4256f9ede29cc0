"""Vehicle state, feasible-action enumeration, and route execution.

An action is a subset of the current batch a vehicle can absorb into its
route while honouring pickup deadlines (request arrival plus the maximum
wait), dropoff deadlines (pickup time plus direct travel plus the detour
allowance), and capacity.  Once per window, `reachable_requests` checks
every vehicle against every request in one NumPy comparison over the
network's distance table and, in the same pass over its hits, decides each
vehicle's one-request actions; `feasible_actions` grows one vehicle's
bundles of two or more from those alone.  Route plans are found by
exhaustive search over stop orderings, reading travel times from the flat
distance table by location index, so each returned action carries the
minimum added travel time realisation of its request set.  The search keeps
the first fastest order it finds with the pickup times along it, so a plan's
new dropoff deadlines come from the search, not from a second walk of the
order.

One-request plans on an empty route (one order) or on a route of one
carried dropoff (three orders) are decided without the search, with the
search's own float expressions, prunes and tie-break, so they equal its
plans to the bit.  The search decides the one-request plans of routes of two
or more stops, and every bundle.

The null action, which keeps the route the vehicle holds, is never built:
`feasible_actions` returns only actions that serve requests, the window
scores the null action with `scoring.null_score`, and `advance(v, None, ...)`
moves the vehicle along its route with no copy and no plan check.

That search is factorial in the number of stops, so capacity and bundle
size have ceilings (MAX_CAPACITY, MAX_BUNDLE), and so does the fleet
(MAX_FLEET), since every vehicle is checked in every window.
"""

from __future__ import annotations

import math
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

# The plan search tries every order of a vehicle's stops: the stops of the
# route it holds plus two per bundled request, so its work grows factorially
# with the route's length plus bundle size.  Capacity bounds the riders on
# board at once, not the stops a route queues: routes also queue riders past
# capacity (805 of 288,000 vehicle-windows of a city-scale day under the
# exact matcher), so these ceilings bound a route of onboard dropoffs only,
# and a longer route is bounded by its deadlines alone.  With deadlines that
# prune nothing (10x10 grid, worst of five draws), a search over the onboard
# dropoffs plus a bundle took 169 ms at capacity 6 and bundle 4 (ten stops),
# 9 ms at capacity 4 and bundle 4, and 1.0 s at capacity 8 and bundle 2,
# 5.5 s at capacity 8 and bundle 4.
MAX_CAPACITY = 6
MAX_BUNDLE = 4
# Every vehicle is checked, matched and advanced in every window: at 10,000
# vehicles `random_fleet` takes 0.2 s and 4.5 MB, and one window's problem
# with no requests took 0.08 s while every vehicle was also enumerated and
# scored (0.004 s without); at 100,000 that window alone took 0.95 s.
MAX_FLEET = 10_000


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
        if not self.max_detour >= 0:
            raise ConfigError(f"max_detour must be >= 0, got {self.max_detour}")
        if not 1 <= self.max_bundle <= MAX_BUNDLE:
            raise ConfigError(f"max_bundle must be in 1..{MAX_BUNDLE}, got {self.max_bundle}")


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
        if not 1 <= self.capacity <= MAX_CAPACITY:
            raise InputError(f"vehicle {self.id}: capacity must be in 1..{MAX_CAPACITY}, got {self.capacity}")
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


@dataclass(frozen=True)
class Action:
    """A request subset plus the stop sequence that realises it."""

    requests: tuple[Request, ...]
    plan: tuple[Stop, ...]
    added_delay: float

    def request_ids(self) -> frozenset[int]:
        return frozenset(r.id for r in self.requests)


class _PlanSearch:
    """Exhaustive minimum-completion-time ordering of a route's stops and a bundle's.

    Built once per vehicle and window; `run` searches one bundle and keeps
    the first fastest order (tokens) with a copy of its pickup times, from
    which `plan` reads the new deadlines.  Tokens carry each stop's location
    index, so a step reads its travel time from the flat table at
    `row + index`.
    """

    def __init__(
        self, v: VehicleState, now: float, net: StreetNetwork, constraints: RideConstraints
    ):
        self.times = times = net.travel_table()
        self.n = n = len(net.locations)
        self.locations = net.locations
        self.index_of = net.index_of
        self.max_wait = constraints.max_wait
        self.max_detour = constraints.max_detour
        self.capacity = v.capacity
        self.onboard = len(v.onboard)
        start, offset = v.planning_origin(net)
        self.start_row = net.index_of(start) * n
        self.t0 = now + offset
        # token = (location index, request_id, kind, deadline or None for new dropoffs)
        self.route: list[tuple[int, int, str, float | None]] = [
            (net.index_of(s.location), s.request_id, s.kind, s.deadline) for s in v.route
        ]
        # When the current route, walked in order, ends: the null action's completion.
        row, self.route_end = self.start_row, self.t0
        for j, *_ in self.route:
            self.route_end += times[row + j]
            row = j * n

    def run(self, new_requests: Sequence[Request]) -> bool:
        """Search the route plus `new_requests`; True when some order meets every deadline."""
        times, n, index_of = self.times, self.n, self.index_of
        self.tokens = list(self.route)
        self.direct: dict[int, float] = {}
        for r in new_requests:
            pickup, dropoff = index_of(r.pickup), index_of(r.dropoff)
            self.tokens.append((pickup, r.id, PICKUP, r.arrival + self.max_wait))
            self.tokens.append((dropoff, r.id, DROPOFF, None))
            self.direct[r.id] = times[pickup * n + dropoff]
        self.pickup_index = {
            tok[1]: i for i, tok in enumerate(self.tokens) if tok[2] == PICKUP
        }
        self.full = (1 << len(self.tokens)) - 1
        self.best_time = float("inf")
        self.best_order: tuple[tuple[int, int, str, float | None], ...] | None = None
        self.best_pickups: dict[int, float] = {}
        self._extend(self.start_row, self.t0, self.onboard, 0, {}, [])
        return self.best_order is not None

    def action(self, bundle: tuple[Request, ...]) -> Action | None:
        """The bundle's action with its fastest plan, or None when no order meets every deadline."""
        if not self.run(bundle):
            return None
        return Action(bundle, self.plan(), self.best_time - self.route_end)

    def plan(self) -> tuple[Stop, ...]:
        """The best order's stops; a new dropoff is due `max_detour` after its direct ride."""
        due = {rid: self.best_pickups[rid] + d + self.max_detour for rid, d in self.direct.items()}
        return tuple(
            Stop(self.locations[j], rid, kind, due[rid] if deadline is None else deadline)
            for j, rid, kind, deadline in self.best_order
        )

    def _extend(
        self,
        row: int,
        t: float,
        count: int,
        placed: int,
        pickup_times: dict[int, float],
        order: list[tuple[int, int, str, float | None]],
    ) -> None:
        """Place every unplaced stop next, from the location whose table row starts at `row`."""
        if t >= self.best_time:
            return
        if placed == self.full:
            self.best_time = t
            self.best_order = tuple(order)
            self.best_pickups = dict(pickup_times)
            return
        times = self.times
        n = self.n
        tokens = self.tokens
        for i, token in enumerate(tokens):
            if placed & (1 << i):
                continue
            j, rid, kind, deadline = token
            if kind == DROPOFF:
                pk = self.pickup_index.get(rid)
                if pk is not None and not placed & (1 << pk):
                    continue
                if deadline is None:
                    deadline = pickup_times[rid] + self.direct[rid] + self.max_detour
            elif count >= self.capacity:
                continue
            t2 = t + times[row + j]
            if t2 > deadline:
                continue
            after = placed | (1 << i)
            # Every unplaced stop with a known deadline must still be reachable
            # in time from here; travel times satisfy the triangle inequality,
            # so t2 + direct distance lower-bounds its eventual visit time.
            here = j * n
            for k, (other, _rid, _kind, due) in enumerate(tokens):
                if not after & (1 << k) and due is not None and t2 + times[here + other] > due:
                    break
            else:
                if kind == PICKUP:
                    pickup_times[rid] = t2
                    self._extend(here, t2, count + 1, after, pickup_times, order + [token])
                    del pickup_times[rid]
                else:
                    self._extend(here, t2, count - 1, after, pickup_times, order + [token])


# Shared by every vehicle that reaches no request, so immutable.
_NOTHING_REACHED: tuple[Action, ...] = ()


def reachable_requests(
    vehicles: Sequence[VehicleState],
    batch: Sequence[Request],
    now: float,
    net: StreetNetwork,
    constraints: RideConstraints,
) -> list[Sequence[Action]]:
    """For each vehicle, its one-request actions, by ascending request id.

    A vehicle reaches a pickup in time when its planning origin's arrival
    time plus the travel time to the pickup is at most the request's arrival
    plus `max_wait`.  The whole fleet is checked against the whole batch in
    one NumPy comparison of that same float expression; a vehicle with no
    free seat gets no requests.  Each hit's one-request plan is decided in
    the same pass: by `_single_plan` on an empty route or one carried
    dropoff, by the plan search on longer routes.  A hit with no plan is
    dropped: no bundle holds it.  Every vehicle that reaches nothing shares
    one empty tuple.
    """
    entries: list[Sequence[Action]] = [_NOTHING_REACHED] * len(vehicles)
    seated = [k for k, v in enumerate(vehicles) if v.capacity > len(v.onboard)]
    if not batch or not seated:
        return entries
    times, n = net.travel_table(), len(net.locations)
    ordered = sorted(batch, key=lambda r: r.id)
    pickups = [net.index_of(r.pickup) for r in ordered]
    due = [r.arrival + constraints.max_wait for r in ordered]
    starts = [vehicles[k].planning_origin(net) for k in seated]
    origins = [net.index_of(start) for start, _ in starts]
    t0 = [now + offset for _, offset in starts]
    in_time = (
        np.array(t0)[:, None] + net.travel_matrix()[np.array(origins)[:, None], np.array(pickups)]
        <= np.array(due)
    )
    # Per request: itself, its pickup and dropoff indices, pickup due time,
    # direct ride and pickup stop.
    trips = []
    for r, pk, pickup_due in zip(ordered, pickups, due):
        dk = net.index_of(r.dropoff)
        pickup = Stop(r.pickup, r.id, PICKUP, pickup_due)
        trips.append((r, pk, dk, pickup_due, times[pk * n + dk], pickup))
    # Per seated vehicle: its start row, start time and carried dropoff (its
    # stop, index and arrival time), None on an empty route; or None when
    # two or more stops leave its plans to the search.
    plan_origins = []
    for k, i, start in zip(seated, origins, t0):
        route = vehicles[k].route
        if not route:
            plan_origins.append((i * n, start, None))
        elif len(route) == 1 and route[0].kind == DROPOFF:
            a = net.index_of(route[0].location)
            plan_origins.append((i * n, start, (route[0], a, start + times[i * n + a])))
        else:
            plan_origins.append(None)
    max_detour = constraints.max_detour
    # Hits come row by row, each row's in ascending request id, so one
    # vehicle's hits are consecutive and its search is built at its first.
    for row, i in zip(*(hits.tolist() for hits in np.nonzero(in_time))):
        k, origin = seated[row], plan_origins[row]
        if entries[k] is _NOTHING_REACHED:
            entries[k] = []
            if origin is None:
                search = _PlanSearch(vehicles[k], now, net, constraints)
        if origin is None:
            single = search.action((ordered[i],))
        else:
            single = _single_plan(times, n, max_detour, origin, trips[i])
        if single is not None:
            entries[k].append(single)
    return entries


def _single_plan(
    times: memoryview,
    n: int,
    max_detour: float,
    origin: tuple[int, float, tuple[Stop, int, float] | None],
    trip: tuple[Request, int, int, float, float, Stop],
) -> Action | None:
    """The action `_PlanSearch` finds for one request on a route of at most one dropoff.

    `origin` is the vehicle's start and carried dropoff, and `trip` the
    request, as `reachable_requests` tabulates them; the pickup is known to
    be reached in time.  Each order is tried in the search's order with its
    float expressions, summation order and lookahead prunes, and a later
    order wins only when it finishes strictly sooner, so plan, deadlines and
    delay are the search's to the bit.
    """
    s, t0, carried = origin
    r, pk, dk, due, direct, pickup = trip
    picked = t0 + times[s + pk]
    if carried is None:  # one order: pickup, dropoff
        done = picked + direct
        if done >= math.inf:  # the dropoff is unreachable
            return None
        return Action((r,), (pickup, Stop(r.dropoff, r.id, DROPOFF, done + max_detour)), done - t0)
    stop, a, route_end = carried
    best, plan = math.inf, None
    # (old dropoff, pickup, dropoff)
    if route_end <= stop.deadline:
        picked_late = route_end + times[a * n + pk]
        done = picked_late + direct
        if picked_late <= due and done < best:
            best, plan = done, (stop, pickup, Stop(r.dropoff, r.id, DROPOFF, done + max_detour))
    # Picking up first must leave the old dropoff reachable in time.
    dropped = picked + times[pk * n + a]
    if dropped <= stop.deadline:
        dropoff_due = picked + direct + max_detour
        # (pickup, old dropoff, dropoff)
        done = dropped + times[a * n + dk]
        if done <= dropoff_due and done < best:
            best, plan = done, (pickup, stop, Stop(r.dropoff, r.id, DROPOFF, dropoff_due))
        # (pickup, dropoff, old dropoff)
        done = picked + direct + times[dk * n + a]
        if done <= stop.deadline and done < best:
            best, plan = done, (pickup, Stop(r.dropoff, r.id, DROPOFF, dropoff_due), stop)
    if plan is None:
        return None
    return Action((r,), plan, best - route_end)


def feasible_actions(
    v: VehicleState,
    singles: Sequence[Action],
    now: float,
    net: StreetNetwork,
    constraints: RideConstraints,
) -> list[Action]:
    """Every nonempty subset of the singles' requests the vehicle can serve, with its best plan.

    `singles` is the vehicle's entry of `reachable_requests`: its decided
    one-request actions.  Bundles grow one request per layer from them, as in
    Alonso-Mora et al.'s trip construction: each pool is the requests of the
    previous layer's bundles, and a bundle (sorted ids) is searched only when
    every bundle one request smaller is feasible; dropping stops never delays
    the rest, so none is missed.  The singles come first, then bundles by
    size and then by request ids; the null action is not among them.
    """
    actions = list(singles)
    room = min(constraints.max_bundle, v.capacity - len(v.onboard))
    if room < 2 or len(singles) < 2:
        return actions
    search = _PlanSearch(v, now, net, constraints)
    by_id = {a.requests[0].id: a.requests[0] for a in singles}
    pool = list(by_id)
    smaller = {(rid,) for rid in pool}
    for size in range(2, room + 1):
        layer: set[tuple[int, ...]] = set()
        for ids in combinations(pool, size):
            if not smaller.issuperset(combinations(ids, size - 1)):
                continue
            action = search.action(tuple(by_id[rid] for rid in ids))
            if action is not None:
                actions.append(action)
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
    v: VehicleState, chosen: Action | None, dt: float, net: StreetNetwork
) -> list[int]:
    """Adopt the chosen plan and travel for `dt` seconds; returns completions.

    `chosen` None is the null action: the vehicle keeps the route it holds,
    with no check and no copy, since a checked plan stays valid while this
    function only pops stops off its front.  The vehicle walks shortest paths
    node by node; partial progress along an edge is retained, so splitting an
    interval across calls lands the vehicle in the same state as one combined
    call.
    """
    if dt < 0:
        raise InputError(f"dt must be nonnegative, got {dt}")
    if chosen is not None:
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
        if len(fleet) == MAX_FLEET:
            raise ParseError(f"{where}: fleet size exceeds the ceiling of {MAX_FLEET} vehicles")
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
    if not 1 <= size <= MAX_FLEET:
        raise InputError(f"fleet size must be in 1..{MAX_FLEET}, got {size}")
    if seed < 0:
        raise InputError(f"fleet seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    locations = net.locations
    return [
        VehicleState(i, locations[int(rng.integers(0, len(locations)))], capacity)
        for i in range(size)
    ]
