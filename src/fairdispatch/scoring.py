"""Per-(vehicle, action) score: value estimate, reward, fairness incentives.

The matcher maximises the sum of these scores, so everything the dispatch
policy cares about is expressed here: the plug-in value function, the
per-request rewards, and the two additive fairness incentives.  Passenger
incentives pay each request the gap between the mean service rate and its
group's rate; driver incentives scale the action reward by the driver's
income gap.  The plus variants clip at zero so well-off groups and drivers
are never penalised.

The histories do not change within a window, so both gaps are computed once
per window into a `FairnessSnapshot` (clipped there for the plus variants)
and every action's incentives are dictionary lookups into it.  The snapshot
reads each history's kept view: `rates` and `mean_rate`, `scaled` and
`mean_scaled`.  `null_score` scores every vehicle's null action, which keeps
the route the vehicle holds and serves nothing, without building an action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from ._records import read_records
from .errors import ConfigError, InputError, ParseError
from .fleet import Action, VehicleState
from .metrics import DriverHistory, PassengerHistory
from .network import AreaPartition, GroupId

VFA_KINDS = ("zero", "delay", "table")

SECONDS_PER_DAY = 86400.0


@dataclass(frozen=True)
class ScoreWeights:
    beta: float = 0.0
    delta: float = 0.0
    passenger_plus: bool = False
    driver_plus: bool = False

    def __post_init__(self) -> None:
        if not (0 <= self.beta < math.inf and 0 <= self.delta < math.inf):
            raise InputError(
                f"weights must be finite and nonnegative, got beta={self.beta} delta={self.delta}"
            )


@dataclass(frozen=True)
class ValueFunction:
    """Future-value estimator plugged into the score.

    kind "zero" ignores the future (the greedy policy), "delay" charges
    `omega` per second of added travel time, and "table" looks up the
    post-action state by (area, onboard count, time-of-day bucket); unseen
    keys are worth 0.
    """

    kind: str = "zero"
    omega: float = 1e-4
    table: dict[tuple[int, int, int], float] = field(default_factory=dict)
    bucket_seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in VFA_KINDS:
            raise ConfigError(f"unknown value function kind {self.kind!r}")
        if not self.bucket_seconds > 0:
            raise ConfigError("bucket_seconds must be positive")
        if not 0 <= self.omega < math.inf:
            raise ConfigError(f"omega must be finite and nonnegative, got {self.omega}")


def immediate_reward(a: Action, pricing: Mapping[int, float] | None = None) -> float:
    """Sum of the action's request values; each request is worth 1 by default."""
    if pricing is None:
        return float(len(a.requests))
    return float(sum(pricing.get(r.id, 1.0) for r in a.requests))


def value_estimate(
    vfa: ValueFunction,
    v: VehicleState,
    a: Action,
    now: float = 0.0,
    partition: AreaPartition | None = None,
) -> float:
    if vfa.kind == "zero":
        return 0.0
    if vfa.kind == "delay":
        return -vfa.omega * a.added_delay
    end_location = a.plan[-1].location if a.plan else v.location
    return _table_value(vfa, end_location, len(v.onboard) + len(a.requests), now, partition)


def _table_value(
    vfa: ValueFunction, location: int, onboard: int, now: float, partition: AreaPartition | None
) -> float:
    if partition is None:
        raise InputError("table value function requires an area partition")
    key = (partition.area(location), onboard, int((now % SECONDS_PER_DAY) // vfa.bucket_seconds))
    return vfa.table.get(key, 0.0)


def null_score(
    v: VehicleState, vfa: ValueFunction, now: float = 0.0, partition: AreaPartition | None = None
) -> float:
    """The score of `v`'s null action, which keeps the route `v` holds and serves nothing.

    It equals, to the bit, `total_score` at any weights and snapshot of the
    action with no requests, the held route as its plan and no added delay;
    no such action is built.  Its reward and both incentives add zeros, so
    only a table value can be nonzero, and `+ 0.0` turns a table's -0.0 into
    the 0.0 those additions make of it.
    """
    if vfa.kind != "table":
        return 0.0
    end_location = v.route[-1].location if v.route else v.location
    return _table_value(vfa, end_location, len(v.onboard), now, partition) + 0.0


def base_score(
    v: VehicleState,
    a: Action,
    vfa: ValueFunction,
    now: float = 0.0,
    partition: AreaPartition | None = None,
    pricing: Mapping[int, float] | None = None,
) -> float:
    """Value estimate plus immediate reward; the fairness-free objective."""
    return value_estimate(vfa, v, a, now, partition) + immediate_reward(a, pricing)


@dataclass(frozen=True)
class FairnessSnapshot:
    """Fairness gaps frozen at window start, one per observed group and driver.

    `group_gap[g]` is `mean_rate - rates[g]` and `driver_gap[d]` is
    `mean_scaled - scaled[d]`, each clipped at zero for its plus
    variant.  A group with no demand yet has gap 0.0, the gap between the
    mean and itself.
    """

    group_gap: Mapping[GroupId, float]
    driver_gap: Mapping[int, float]


def _clipped(gap: float, plus: bool) -> float:
    return 0.0 if plus and gap < 0 else gap


def fairness_snapshot(
    hist_p: PassengerHistory, hist_d: DriverHistory, w: ScoreWeights
) -> FairnessSnapshot:
    """Both histories' gaps for one window, clipped as `w`'s variants ask."""
    group_gap = {
        g: _clipped(hist_p.mean_rate - rate, w.passenger_plus) for g, rate in hist_p.rates.items()
    }
    driver_gap = {
        d: _clipped(hist_d.mean_scaled - scaled, w.driver_plus) for d, scaled in hist_d.scaled.items()
    }
    return FairnessSnapshot(group_gap, driver_gap)


def passenger_incentive(a: Action, snapshot: FairnessSnapshot) -> float:
    """Sum over the action's requests of the mean-vs-group service-rate gap."""
    total = 0.0
    for r in a.requests:
        total += snapshot.group_gap.get(r.group, 0.0)
    return total


def driver_incentive(
    v: VehicleState,
    a: Action,
    snapshot: FairnessSnapshot,
    pricing: Mapping[int, float] | None = None,
) -> float:
    """Income gap of the driver times the action reward.

    The per-request clipped sum and the factored form agree because the
    driver's income gap is constant within an action.
    """
    return snapshot.driver_gap[v.id] * immediate_reward(a, pricing)


def total_score(
    v: VehicleState,
    a: Action,
    vfa: ValueFunction,
    snapshot: FairnessSnapshot,
    w: ScoreWeights,
    now: float = 0.0,
    partition: AreaPartition | None = None,
    pricing: Mapping[int, float] | None = None,
) -> float:
    """Base score plus weighted fairness incentives; reduces to the base at 0/0.

    The plus variants are already applied in `snapshot`; only `w`'s weights
    are read here.
    """
    score = base_score(v, a, vfa, now, partition, pricing)
    if w.beta:
        score += w.beta * passenger_incentive(a, snapshot)
    if w.delta:
        score += w.delta * driver_incentive(v, a, snapshot, pricing)
    return score


def load_value_table(path: str | Path) -> dict[tuple[int, int, int], float]:
    """Parse a value-table CSV: `area_id,onboard_count,hour_bucket,value`."""
    table: dict[tuple[int, int, int], float] = {}
    records = read_records(path, "area,onboard,bucket,value", (int, int, int, float))
    for _, (area, onboard, bucket, value) in records:
        table[area, onboard, bucket] = value
    return table


def load_pricing(path: str | Path) -> dict[int, float]:
    """Parse a pricing CSV: `request_id,value`."""
    pricing: dict[int, float] = {}
    for where, (rid, value) in read_records(path, "request_id,value", (int, float)):
        if value < 0:
            raise ParseError(f"{where}: request values must be nonnegative")
        pricing[rid] = value
    return pricing
