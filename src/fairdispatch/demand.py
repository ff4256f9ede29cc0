"""Passenger request streams: CSV replay and synthetic generation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._records import read_records
from .errors import ConfigError, InputError, ParseError
from .network import AreaPartition, GroupId, StreetNetwork, group_of

# Synthesis draws every active group once per step and keeps every request,
# so both are capped before any drawing starts.
MAX_DEMAND_STEPS = 1_000_000  # ceil(horizon / step)
MAX_EXPECTED_REQUESTS = 1_000_000  # sum of rates times steps


@dataclass(frozen=True)
class Request:
    id: int
    pickup: int
    dropoff: int
    arrival: float
    group: GroupId

    def __post_init__(self) -> None:
        if self.pickup == self.dropoff:
            raise InputError(f"request {self.id}: pickup equals dropoff ({self.pickup})")
        if self.arrival < 0:
            raise InputError(f"request {self.id}: negative arrival {self.arrival}")


@dataclass(frozen=True)
class DemandProfile:
    """Per-group Poisson arrival rates, in expected requests per timestep."""

    rates: dict[GroupId, float]
    horizon: float
    seed: int
    step_seconds: float = 60.0

    def __post_init__(self) -> None:
        if any(rate < 0 for rate in self.rates.values()):
            raise ConfigError("demand rates must be nonnegative")
        if self.seed < 0:
            raise ConfigError(f"demand seed must be nonnegative, got {self.seed}")
        if not self.horizon > 0:
            raise ConfigError(f"horizon must be positive, got {self.horizon}")
        if not self.step_seconds > 0:
            raise ConfigError(f"step must be positive, got {self.step_seconds}")
        steps = self.horizon / self.step_seconds
        if not steps <= MAX_DEMAND_STEPS:
            raise ConfigError(
                f"horizon {self.horizon} / step {self.step_seconds} asks for more "
                f"than {MAX_DEMAND_STEPS} demand steps"
            )
        expected = sum(self.rates.values()) * math.ceil(steps)
        if not expected <= MAX_EXPECTED_REQUESTS:
            raise ConfigError(
                f"rates sum to {expected:.4g} expected requests over the horizon, "
                f"above the ceiling of {MAX_EXPECTED_REQUESTS}"
            )


def load_requests(
    path: str | Path, partition: AreaPartition, net: StreetNetwork, horizon: float
) -> list[Request]:
    """Parse a request CSV `pickup,dropoff,arrival[,ignored]` sorted by arrival.

    Ids are assigned in file order before sorting, so replayed traces keep
    stable identities regardless of arrival-time ordering in the file.  A
    request at a location the network lacks, or arriving outside the run's
    `[0, horizon)`, is refused at its line.
    """
    out: list[Request] = []
    next_id = 0
    records = read_records(path, "pickup,dropoff,arrival", (int, int, float), optional=1)
    for where, (pickup, dropoff, arrival) in records:
        for loc in (pickup, dropoff):
            if loc not in net:
                raise ParseError(f"{where}: request {next_id}: location {loc} is not in the network")
        if not arrival < horizon:
            raise ParseError(f"{where}: request {next_id}: arrival {arrival} is not before the horizon {horizon}")
        try:
            request = Request(
                next_id, pickup, dropoff, arrival, group_of(partition, pickup, dropoff)
            )
        except InputError as exc:
            raise ParseError(f"{where}: {exc}") from None
        out.append(request)
        next_id += 1
    out.sort(key=lambda r: (r.arrival, r.id))
    return out


def _group_location_pools(
    group: GroupId, partition: AreaPartition
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    pickups = partition.locations_in(group.origin_area)
    dropoffs = partition.locations_in(group.dest_area)
    if group.origin_area == group.dest_area and len(pickups) < 2:
        raise ConfigError(f"group {tuple(group)} has no valid pickup/dropoff pair")
    if not pickups or not dropoffs:
        raise ConfigError(f"group {tuple(group)} has no valid pickup/dropoff pair")
    return pickups, dropoffs


def synth_requests(
    profile: DemandProfile, net: StreetNetwork, partition: AreaPartition
) -> list[Request]:
    """Seeded Poisson request stream; identical output for identical profiles."""
    active = [(GroupId(*g), rate) for g, rate in sorted(profile.rates.items()) if rate > 0]
    pools = {g: _group_location_pools(g, partition) for g, _ in active}
    for g in pools:
        for loc in pools[g][0] + pools[g][1]:
            if loc not in net:
                raise ConfigError(f"partition maps location {loc} absent from the network")

    rng = np.random.default_rng(profile.seed)
    step = profile.step_seconds
    drawn: list[tuple[float, int, int, GroupId]] = []
    n_steps = math.ceil(profile.horizon / step)
    for t in range(n_steps):
        start = t * step
        end = min(start + step, profile.horizon)
        scale = (end - start) / step
        for group, rate in active:
            pickups, dropoffs = pools[group]
            count = rng.poisson(rate * scale)
            for _ in range(count):
                arrival = rng.uniform(start, end)
                pickup = pickups[rng.integers(0, len(pickups))]
                if group.origin_area == group.dest_area:
                    others = [loc for loc in dropoffs if loc != pickup]
                    dropoff = others[rng.integers(0, len(others))]
                else:
                    dropoff = dropoffs[rng.integers(0, len(dropoffs))]
                # Drawn from the group's own areas, so the group is the request's.
                drawn.append((arrival, pickup, dropoff, group))

    drawn.sort(key=lambda item: item[0])
    return [
        Request(i, pickup, dropoff, arrival, group)
        for i, (arrival, pickup, dropoff, group) in enumerate(drawn)
    ]
