"""Fairness histories and equity measures.

Passenger-side fairness tracks cumulative per-group service rates; driver-side
fairness tracks cumulative incomes scaled by the current maximum income.
Both histories are updated functionally once per assignment window and never
change, so each derives its side's values on first read and keeps them: the
window's equity report and the next window's fairness snapshot share them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from math import fsum
from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import ContractError, InputError
from .network import GroupId

if TYPE_CHECKING:
    from .demand import Request
    from .matcher import Matching


@dataclass(frozen=True)
class PassengerHistory:
    """Cumulative requested/served counts per origin-destination group."""

    requested: dict[GroupId, int]
    served: dict[GroupId, int]

    def __post_init__(self) -> None:
        for group in self.served:
            if group not in self.requested:
                raise InputError(f"group {tuple(group)} served but never requested")
        for group, n in self.requested.items():
            s = self.served.get(group, 0)
            if n < 0 or s < 0 or s > n:
                raise InputError(f"group {tuple(group)}: served {s} exceeds requested {n}")

    @classmethod
    def empty(cls) -> "PassengerHistory":
        return cls({}, {})

    @cached_property
    def rates(self) -> Mapping[GroupId, float]:
        """Service rate of each group with demand, in group order."""
        groups = sorted(g for g, n in self.requested.items() if n > 0)
        return {g: self.served.get(g, 0) / self.requested[g] for g in groups}

    @cached_property
    def mean_rate(self) -> float:
        """Group-uniform mean of the rates; 0.0 before any demand."""
        return fsum(self.rates.values()) / len(self.rates) if self.rates else 0.0

    def observed_groups(self) -> tuple[GroupId, ...]:
        return tuple(self.rates)

    def totals(self) -> tuple[int, int]:
        return sum(self.requested.values()), sum(self.served.values())


@dataclass(frozen=True)
class DriverHistory:
    """Cumulative raw income per driver."""

    incomes: dict[int, float]

    def __post_init__(self) -> None:
        for driver, income in self.incomes.items():
            if income < 0:
                raise InputError(f"driver {driver}: negative income {income}")

    @classmethod
    def zeroed(cls, driver_ids: Sequence[int]) -> "DriverHistory":
        return cls({driver: 0.0 for driver in driver_ids})

    @cached_property
    def scaled(self) -> Mapping[int, float]:
        """Each driver's income over the top one, in driver order; 0.0 while all are 0."""
        top = max(self.incomes.values(), default=0.0)
        return {d: self.incomes[d] / top if top > 0 else 0.0 for d in sorted(self.incomes)}

    @cached_property
    def mean_scaled(self) -> float:
        """Driver-uniform mean of the scaled incomes; 0.0 with no drivers."""
        return fsum(self.scaled.values()) / len(self.scaled) if self.scaled else 0.0


def update_passenger_history(
    history: PassengerHistory, batch: Sequence["Request"], matching: "Matching"
) -> PassengerHistory:
    """Count every batch request as demand and every matched one as served."""
    batch_ids = {r.id for r in batch}
    served_ids = matching.served_request_ids()
    if not served_ids <= batch_ids:
        raise ContractError(f"matching serves requests outside the batch: {sorted(served_ids - batch_ids)}")
    requested = dict(history.requested)
    served = dict(history.served)
    for request in batch:
        requested[request.group] = requested.get(request.group, 0) + 1
        if request.id in served_ids:
            served[request.group] = served.get(request.group, 0) + 1
    return PassengerHistory(requested, served)


def update_driver_history(history: DriverHistory, rewards: dict[int, float]) -> DriverHistory:
    """Accrue each vehicle's action reward to its driver."""
    incomes = dict(history.incomes)
    for driver, reward in rewards.items():
        incomes[driver] = incomes.get(driver, 0.0) + reward
    return DriverHistory(incomes)


def gini(values: Sequence[float]) -> float:
    """Mean absolute pairwise difference over twice the mean, in [0, 1].

    Computed from the sorted values so the summation order (and hence the
    float result) is independent of input permutation.
    """
    if not values:
        raise InputError("gini requires at least one value")
    if any(v < 0 for v in values):
        raise InputError("gini requires nonnegative values")
    xs = sorted(values)
    n = len(xs)
    total = fsum(xs)
    if total == 0:
        return 0.0
    weighted = fsum((2 * i - n + 1) * x for i, x in enumerate(xs))
    return weighted / (n * total)


@dataclass(frozen=True)
class EquityReport:
    f_gini: float
    min_value: float
    variance: float
    overall_service_rate: float | None


def _population_variance(values: Sequence[float]) -> float:
    mean = fsum(values) / len(values)
    return fsum((v - mean) ** 2 for v in values) / len(values)


def equity_report(history: PassengerHistory | DriverHistory) -> EquityReport:
    """Equity summary of a history: 1 - Gini, minimum, population variance.

    Driver reports use max-scaled incomes for Gini and variance but report the
    minimum on raw income; passenger reports add the overall service rate.
    An empty history's report is vacuous: before any demand, equity is perfect
    and 0/0 service counts as 1; with no drivers, the minimum income is 0.
    """
    if isinstance(history, PassengerHistory):
        values = list(history.rates.values())
        if not values:
            return EquityReport(1.0, 1.0, 0.0, 1.0)
        requested, served = history.totals()
        return EquityReport(
            f_gini=1.0 - gini(values),
            min_value=min(values),
            variance=_population_variance(values),
            overall_service_rate=served / requested,
        )
    if not history.incomes:
        return EquityReport(1.0, 0.0, 0.0, None)
    scaled = list(history.scaled.values())
    return EquityReport(
        f_gini=1.0 - gini(scaled),
        min_value=min(history.incomes.values()),
        variance=_population_variance(scaled),
        overall_service_rate=None,
    )


@dataclass(frozen=True)
class WindowMetrics:
    window_index: int
    overall_service_rate: float
    passenger_f_gini: float
    passenger_min: float
    passenger_var: float
    driver_f_gini: float
    driver_min_raw: float
    driver_var: float

    def as_row(self) -> list[str]:
        return [repr(getattr(self, name)) for name in METRICS_COLUMNS]


METRICS_COLUMNS = tuple(f.name for f in fields(WindowMetrics))
