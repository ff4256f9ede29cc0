"""Discrete-time dispatch loop, weight sweeps, and theorem micro-instances.

`step_window` does one window's work: it checks which of the requests that
arrived during the window each vehicle can reach in time, enumerates
feasible actions per vehicle from those, scores them against one fairness
snapshot frozen at window start, solves the assignment, advances every
vehicle by the window length, and updates both fairness histories once.
Every vehicle's candidate 0 is its null action, which keeps the route it
holds: `null_score` scores it with no `Action` built, and picking it skips
the plan check.  A vehicle that reaches no request has that candidate alone,
so matchers, dumps and the theorem harnesses still see every vehicle.
Requests left unmatched at the end of their window are dropped.
`run_simulation` batches the requests and steps every window in turn; the
theorem harnesses step a single window 0 and read the histories it returns.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from collections import defaultdict
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from .demand import Request
from .errors import ConfigError, ContractError, InputError, WindowSolveError
from .fleet import RideConstraints, VehicleState, advance, feasible_actions, reachable_requests
from .matcher import (
    Candidate,
    MatchProblem,
    Matching,
    async_greedy_match,
    solve_ilp,
)
from .metrics import (
    DriverHistory,
    EquityReport,
    PassengerHistory,
    WindowMetrics,
    equity_report,
    update_driver_history,
    update_passenger_history,
)
from .network import AreaPartition, GroupId, StreetNetwork, group_of, grid_partition, make_grid
from .scoring import (
    ScoreWeights,
    ValueFunction,
    base_score,
    fairness_snapshot,
    immediate_reward,
    null_score,
    total_score,
)

MATCHER_KINDS = ("ilp", "async_greedy")
MAX_WINDOWS = 1_000_000  # a run's windows, horizon / window_len

DEFAULT_WEIGHT_LADDER = (1.0, 10.0, 1e3, 1e6)


@dataclass(frozen=True)
class SimConfig:
    window_len: float = 60.0
    horizon: float = 86400.0
    max_wait: float = RideConstraints.max_wait
    max_detour: float = RideConstraints.max_detour
    max_bundle: int = RideConstraints.max_bundle
    vfa: ValueFunction = field(default_factory=ValueFunction)
    weights: ScoreWeights = field(default_factory=ScoreWeights)
    matcher: str = "ilp"
    seed: int = 0
    pricing: dict[int, float] | None = None

    def __post_init__(self) -> None:
        if self.matcher not in MATCHER_KINDS:
            raise ConfigError(f"unknown matcher {self.matcher!r}")
        for name in ("window_len", "horizon"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if not self.horizon / self.window_len <= MAX_WINDOWS:
            raise ConfigError(
                f"horizon {self.horizon} / window_len {self.window_len} asks for more "
                f"than {MAX_WINDOWS} windows"
            )
        self.constraints()
        if self.n_windows * self.window_len != self.horizon:
            raise ConfigError(
                f"window_len {self.window_len} does not divide horizon {self.horizon}"
            )

    @property
    def n_windows(self) -> int:
        return round(self.horizon / self.window_len)

    def constraints(self) -> RideConstraints:
        return RideConstraints(self.max_wait, self.max_detour, self.max_bundle)


@dataclass
class RunResult:
    total_requests: int
    total_served: int
    service_rate: float
    passenger_report: EquityReport
    driver_report: EquityReport
    window_rows: list[WindowMetrics]
    passenger_history: PassengerHistory
    driver_history: DriverHistory
    duration_seconds: float
    matchings: list[dict[int, tuple[int, ...]]] | None = None

    def to_json_dict(self) -> dict:
        return {
            "total_requests": self.total_requests,
            "total_served": self.total_served,
            "service_rate": self.service_rate,
            "windows": len(self.window_rows),
            "passenger": {
                "f_gini": self.passenger_report.f_gini,
                "min": self.passenger_report.min_value,
                "var": self.passenger_report.variance,
            },
            "driver": {
                "f_gini": self.driver_report.f_gini,
                "min_raw": self.driver_report.min_value,
                "var": self.driver_report.variance,
            },
            "duration_seconds": self.duration_seconds,
        }


def build_window_problem(
    vehicles: list[VehicleState],
    batch: list[Request],
    now: float,
    net: StreetNetwork,
    cfg: SimConfig,
    hist_p: PassengerHistory,
    hist_d: DriverHistory,
    partition: AreaPartition | None,
) -> tuple[MatchProblem, dict[int, list]]:
    """Enumerate and score candidate actions for one assignment window.

    Every vehicle's candidate 0 is its null action, scored by `null_score`
    and shared, as one tuple per score, with every vehicle of that score; a
    vehicle that reaches no request has that tuple as its candidates.
    Returns the problem and, for each vehicle that reaches a request, its
    request-serving actions: candidate `i` is action `i - 1`.
    """
    constraints = cfg.constraints()
    w = cfg.weights
    # At weights 0/0 total_score is base_score, which needs no snapshot.
    snapshot = fairness_snapshot(hist_p, hist_d, w) if w.beta or w.delta else None
    actions_by: dict[int, list] = {}
    candidates: dict[int, Sequence[Candidate]] = {}
    null_rows: dict[float, tuple[Candidate]] = {}
    reachable = reachable_requests(vehicles, batch, now, net, constraints)
    for v, singles in zip(vehicles, reachable):
        score = null_score(v, cfg.vfa, now, partition)
        null = null_rows.get(score)
        if null is None:
            null = null_rows[score] = (Candidate(frozenset(), score),)
        if not singles:
            candidates[v.id] = null
            continue
        acts = feasible_actions(v, singles, now, net, constraints)
        rows = [*null]
        for a in acts:
            if snapshot is not None:
                score = total_score(v, a, cfg.vfa, snapshot, w, now, partition, cfg.pricing)
            else:
                score = base_score(v, a, cfg.vfa, now, partition, cfg.pricing)
            rows.append(Candidate(a.request_ids(), score))
        actions_by[v.id] = acts
        candidates[v.id] = rows
    problem = MatchProblem.build(candidates, [r.id for r in batch])
    return problem, actions_by


def _solve(problem: MatchProblem, cfg: SimConfig, window_index: int) -> Matching:
    if cfg.matcher == "ilp":
        return solve_ilp(problem)
    return async_greedy_match(problem, cfg.seed + window_index)


def step_window(
    vehicles: list[VehicleState],
    hist_p: PassengerHistory,
    hist_d: DriverHistory,
    batch: list[Request],
    k: int,
    net: StreetNetwork,
    cfg: SimConfig,
    partition: AreaPartition | None,
) -> tuple[MatchProblem, Matching, PassengerHistory, DriverHistory]:
    """Window `k`, ending at `(k + 1) * window_len`, over the requests that arrived in it.

    Builds and solves the window's problem, advances every vehicle in place and
    updates both histories; returns the problem, the matching and the histories.
    A matcher's ContractError is raised again as a WindowSolveError.
    """
    problem, actions_by = build_window_problem(
        vehicles, batch, (k + 1) * cfg.window_len, net, cfg, hist_p, hist_d, partition
    )
    try:
        matching = _solve(problem, cfg, k)
    except ContractError as exc:
        raise WindowSolveError(str(exc), k, problem) from exc
    # The histories never read vehicle state, so vehicles move first.  Index 0
    # is the null action: it earns nothing and keeps the route the vehicle holds.
    rewards: dict[int, float] = {}
    moved = matching.nonzero_choices()
    for v in vehicles:
        i = moved.get(v.id)
        chosen = None if i is None else actions_by[v.id][i - 1]
        rewards[v.id] = 0.0 if chosen is None else immediate_reward(chosen, cfg.pricing)
        advance(v, chosen, cfg.window_len, net)
    hist_p = update_passenger_history(hist_p, batch, matching)
    return problem, matching, hist_p, update_driver_history(hist_d, rewards)


def run_simulation(
    cfg: SimConfig,
    net: StreetNetwork,
    partition: AreaPartition,
    requests: list[Request],
    fleet: list[VehicleState],
    record_trace: bool = False,
) -> RunResult:
    """Run the full dispatch loop; bit-reproducible for identical inputs."""
    started = time.perf_counter()
    if not all(0 <= r.arrival < cfg.horizon for r in requests):
        raise ConfigError("all request arrivals must lie within [0, horizon)")
    if any(requests[i].arrival > requests[i + 1].arrival for i in range(len(requests) - 1)):
        raise InputError("requests must be sorted by arrival time")

    vehicles = sorted((v.clone() for v in fleet), key=lambda v: v.id)
    hist_p = PassengerHistory.empty()
    hist_d = DriverHistory.zeroed([v.id for v in vehicles])

    rows: list[WindowMetrics] = []
    trace: list[dict[int, tuple[int, ...]]] | None = [] if record_trace else None
    pointer = 0

    for k in range(cfg.n_windows):
        upper = pointer
        while upper < len(requests) and requests[upper].arrival < (k + 1) * cfg.window_len:
            upper += 1
        batch, pointer = requests[pointer:upper], upper
        _, matching, hist_p, hist_d = step_window(vehicles, hist_p, hist_d, batch, k, net, cfg, partition)
        if trace is not None:
            trace.append({v: tuple(sorted(ids)) for v, ids in matching.assigned.items()})

        p_report = equity_report(hist_p)
        d_report = equity_report(hist_d)
        rows.append(
            WindowMetrics(
                window_index=k,
                overall_service_rate=p_report.overall_service_rate,
                passenger_f_gini=p_report.f_gini,
                passenger_min=p_report.min_value,
                passenger_var=p_report.variance,
                driver_f_gini=d_report.f_gini,
                driver_min_raw=d_report.min_value,
                driver_var=d_report.variance,
            )
        )

    total_requests, total_served = hist_p.totals()
    # SimConfig guarantees at least one window, so the last window's reports are set.
    return RunResult(
        total_requests=total_requests,
        total_served=total_served,
        service_rate=p_report.overall_service_rate,
        passenger_report=p_report,
        driver_report=d_report,
        window_rows=rows,
        passenger_history=hist_p,
        driver_history=hist_d,
        duration_seconds=time.perf_counter() - started,
        matchings=trace,
    )


@dataclass(frozen=True)
class SweepRow:
    beta: float
    delta: float
    passenger_plus: bool
    driver_plus: bool
    result: RunResult


# The inputs every grid point of a parallel sweep shares, set once per worker
# process by `_init_sweep_worker` so that tasks carry only their weights.
_worker_inputs: tuple | None = None


def _init_sweep_worker(*inputs) -> None:
    global _worker_inputs
    _worker_inputs = inputs


def _sweep_point(inputs: tuple, weights: ScoreWeights) -> SweepRow:
    """One grid point's run; a failed window's error names the point."""
    cfg, net, partition, requests, fleet = inputs
    try:
        result = run_simulation(replace(cfg, weights=weights), net, partition, requests, fleet)
    except WindowSolveError as exc:
        point = (
            f"beta={weights.beta} delta={weights.delta} "
            f"passenger_plus={weights.passenger_plus} driver_plus={weights.driver_plus}"
        )
        raise WindowSolveError(f"{point}: {exc}", exc.window, exc.problem) from exc
    return SweepRow(weights.beta, weights.delta, weights.passenger_plus, weights.driver_plus, result)


def _worker_sweep_point(weights: ScoreWeights) -> SweepRow:
    return _sweep_point(_worker_inputs, weights)


def sweep(
    cfg: SimConfig,
    net: StreetNetwork,
    partition: AreaPartition,
    requests: list[Request],
    fleet: list[VehicleState],
    betas: list[float],
    deltas: list[float],
    variants: list[tuple[bool, bool]],
    jobs: int = 1,
) -> list[SweepRow]:
    """One full run per (beta, delta, variant) over a shared demand realisation."""
    if not betas or not deltas or not variants:
        raise ConfigError("sweep grids must be nonempty")
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:  # each job is a process with its own copy of the travel tables
        raise ConfigError(f"jobs must lie in 1..{cpus}, got {jobs}")
    inputs = (cfg, net, partition, requests, fleet)
    grid = [  # every weight is checked before the first run
        ScoreWeights(beta, delta, pp, dp)
        for beta in sorted(betas)
        for delta in sorted(deltas)
        for pp, dp in sorted(variants)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_init_sweep_worker,
            initargs=inputs,
        ) as pool:
            return list(pool.map(_worker_sweep_point, grid))
    return [_sweep_point(inputs, point) for point in grid]


# ---------------------------------------------------------------------------
# Max-min fairness theorem harnesses
# ---------------------------------------------------------------------------
#
# Both micro-instances use single-request actions (capacity 1, bundle 1) and
# a single assignment window.  The builders randomise geometry, histories and
# request values but preserve the structural conditions that make the
# zero-weight matching min-unfair, which the check functions re-verify
# against the actual matching before sweeping the weight ladder.

_THEOREM_GRID_ROWS = 6
_THEOREM_GRID_COLS = 6
_THEOREM_EDGE_COST = 60.0


@dataclass(frozen=True)
class TheoremInstance:
    """A single-window instance and the passenger group or driver it is unfair to.

    The side its check does not examine carries a neutral history: no
    passenger demand yet, or every driver at zero income.  The seed and the
    request pricing are those of `config`.
    """

    net: StreetNetwork
    partition: AreaPartition
    requests: list[Request]
    fleet: list[VehicleState]
    passenger_history: PassengerHistory
    driver_history: DriverHistory
    worst: GroupId | int
    config: SimConfig


@dataclass(frozen=True)
class TheoremOutcome:
    unfair_at_zero: bool
    baseline_metric: float
    ladder_metrics: dict[float, float]
    improved: bool
    problem: MatchProblem  # window 0's, dumped when the check fails
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.unfair_at_zero and self.improved


def _theorem_world(seed: int) -> tuple[random.Random, StreetNetwork, AreaPartition]:
    net = make_grid(_THEOREM_GRID_ROWS, _THEOREM_GRID_COLS, _THEOREM_EDGE_COST)
    partition = grid_partition(_THEOREM_GRID_ROWS, _THEOREM_GRID_COLS, _THEOREM_GRID_ROWS, 3)
    return random.Random(seed), net, partition


def _in_reach(net: StreetNetwork, start: int, pickup: int) -> bool:
    # Within the pickup deadline margin left after the default batching window.
    return net.travel_time(start, pickup) <= SimConfig.max_wait - SimConfig.window_len


def build_passenger_min_unfair_instance(seed: int) -> TheoremInstance:
    """Single-window scenario whose zero-weight matching starves the worst group.

    One vehicle can feasibly serve either a request of the historically worst
    group or a slightly more valuable request of a well-served group; padding
    vehicles are placed out of reach of both pickups.
    """
    rng, net, partition = _theorem_world(seed)
    groups = [GroupId(o, d) for o in range(2) for d in range(2)]
    bad_group, good_group = rng.sample(groups, 2)

    for _ in range(200):
        v1_loc = rng.choice(net.locations)
        bad_pool, good_pool = (
            [loc for loc in partition.locations_in(g.origin_area) if _in_reach(net, v1_loc, loc)]
            for g in (bad_group, good_group)
        )
        if not bad_pool or not good_pool:
            continue
        pickup_bad = rng.choice(bad_pool)
        pickup_good = rng.choice(good_pool)
        padding_pool = [
            loc
            for loc in net.locations
            if not _in_reach(net, loc, pickup_bad) and not _in_reach(net, loc, pickup_good)
        ]
        if padding_pool:
            break
    else:
        raise ContractError(f"could not place a passenger theorem instance for seed {seed}")

    dropoff_bad = rng.choice(
        [loc for loc in partition.locations_in(bad_group.dest_area) if loc != pickup_bad]
    )
    dropoff_good = rng.choice(
        [loc for loc in partition.locations_in(good_group.dest_area) if loc != pickup_good]
    )
    requests = [
        Request(0, pickup_bad, dropoff_bad, rng.uniform(0.0, 40.0), bad_group),
        Request(1, pickup_good, dropoff_good, rng.uniform(0.0, 40.0), good_group),
    ]

    n_pad = rng.randint(1, 3)
    fleet = [VehicleState(0, v1_loc, capacity=1)]
    for i in range(n_pad):
        fleet.append(VehicleState(i + 1, rng.choice(padding_pool), capacity=1))

    requested_bad = rng.randint(8, 20)
    served_bad = max(0, round(requested_bad * rng.uniform(0.05, 0.25)))
    requested_good = rng.randint(8, 20)
    served_good = round(requested_good * rng.uniform(0.7, 0.95))
    requested = {bad_group: requested_bad, good_group: requested_good}
    served = {bad_group: served_bad, good_group: served_good}
    other_groups = [g for g in groups if g not in (bad_group, good_group)]
    if rng.random() < 0.5 and other_groups:
        extra = rng.choice(other_groups)
        requested[extra] = rng.randint(8, 20)
        served[extra] = round(requested[extra] * rng.uniform(0.5, 0.7))
    history = PassengerHistory(requested, served)
    others_min = min(rate for g, rate in history.rates.items() if g != bad_group)
    if others_min <= history.rates[bad_group]:
        # Rounding collapsed the gap between the worst group and the rest.
        served[bad_group] = 0
        history = PassengerHistory(requested, served)

    return TheoremInstance(
        net=net,
        partition=partition,
        requests=sorted(requests, key=lambda r: (r.arrival, r.id)),
        fleet=fleet,
        passenger_history=history,
        driver_history=DriverHistory.zeroed([v.id for v in fleet]),
        worst=bad_group,
        config=SimConfig(horizon=60.0, max_bundle=1, seed=seed, pricing={1: rng.uniform(1.05, 1.5)}),
    )


def build_driver_min_unfair_instance(seed: int) -> TheoremInstance:
    """Single-window scenario where a poor driver loses its best request.

    The below-average-income driver j can serve both requests, the rich
    driver k only the valuable one; the zero-weight optimum hands the
    valuable request to k and the cheap one to j.
    """
    rng, net, partition = _theorem_world(seed)

    for _ in range(500):
        pickup_hi = rng.choice(net.locations)
        pickup_lo = rng.choice([loc for loc in net.locations if loc != pickup_hi])
        # Locations by (reaches pickup_hi, reaches pickup_lo): j's, k's and the padding's.
        pools: dict[tuple[bool, bool], list[int]] = defaultdict(list)
        for loc in net.locations:
            pools[_in_reach(net, loc, pickup_hi), _in_reach(net, loc, pickup_lo)].append(loc)
        j_pool, k_pool, pad_pool = pools[True, True], pools[True, False], pools[False, False]
        if j_pool and k_pool:
            break
    else:
        raise ContractError(f"could not place a driver theorem instance for seed {seed}")

    dropoff_hi = rng.choice([loc for loc in net.locations if loc != pickup_hi])
    dropoff_lo = rng.choice([loc for loc in net.locations if loc != pickup_lo])
    requests = [
        Request(0, pickup_hi, dropoff_hi, rng.uniform(0.0, 40.0), group_of(partition, pickup_hi, dropoff_hi)),
        Request(1, pickup_lo, dropoff_lo, rng.uniform(0.0, 40.0), group_of(partition, pickup_lo, dropoff_lo)),
    ]
    pricing = {0: rng.uniform(1.6, 2.4)}

    fleet = [
        VehicleState(0, rng.choice(j_pool), capacity=1),
        VehicleState(1, rng.choice(k_pool), capacity=1),
    ]
    incomes = {0: rng.uniform(1.0, 4.0), 1: rng.uniform(8.0, 12.0)}
    n_pad = rng.randint(0, 2) if pad_pool else 0
    for i in range(n_pad):
        vid = 2 + i
        fleet.append(VehicleState(vid, rng.choice(pad_pool), capacity=1))
        incomes[vid] = rng.uniform(2.0, 7.0)

    return TheoremInstance(
        net=net,
        partition=partition,
        requests=sorted(requests, key=lambda r: (r.arrival, r.id)),
        fleet=fleet,
        passenger_history=PassengerHistory.empty(),
        driver_history=DriverHistory(incomes),
        worst=0,
        config=SimConfig(horizon=60.0, max_bundle=1, seed=seed, pricing=pricing),
    )


def _check_theorem(
    inst: TheoremInstance,
    ladder: tuple[float, ...],
    weights_at: Callable[[float], ScoreWeights],
    unfairness: Callable[[MatchProblem, Matching], str],
    metric: Callable[[PassengerHistory, DriverHistory], float],
) -> TheoremOutcome:
    """Step window 0 at weight 0; if `unfairness` finds nothing amiss, sweep the ladder.

    `unfairness` returns why the zero-weight matching is not min-unfair, or
    "" when it is; `metric` reads the worst-off side's value off the histories.
    """

    def window(weights: ScoreWeights) -> tuple[MatchProblem, Matching, PassengerHistory, DriverHistory]:
        vehicles = sorted((v.clone() for v in inst.fleet), key=lambda v: v.id)
        hist_p, hist_d = inst.passenger_history, inst.driver_history
        cfg = replace(inst.config, weights=weights)
        return step_window(vehicles, hist_p, hist_d, inst.requests, 0, inst.net, cfg, inst.partition)

    problem0, matching0, *histories0 = window(ScoreWeights())
    detail = unfairness(problem0, matching0)
    if detail:
        return TheoremOutcome(False, 0.0, {}, False, problem0, detail)
    baseline = metric(*histories0)
    ladder_metrics = {w: metric(*window(weights_at(w))[2:]) for w in ladder}
    improved = any(value > baseline for value in ladder_metrics.values())
    return TheoremOutcome(True, baseline, ladder_metrics, improved, problem0)


def _feasible_ids(problem: MatchProblem, v: int) -> set[int]:
    return {rid for c in problem.candidates[v] for rid in c.requests}


def check_passenger_theorem(
    inst: TheoremInstance,
    ladder: tuple[float, ...] = DEFAULT_WEIGHT_LADDER,
    plus: bool = False,
) -> TheoremOutcome:
    """Verify min-unfairness at weight 0, then look for a weight that helps."""
    hist = inst.passenger_history
    worst_requests = {r.id for r in inst.requests if r.group == inst.worst}

    def unfairness(problem0: MatchProblem, matching0: Matching) -> str:
        rates = hist.rates
        if min(rates, key=lambda g: (rates[g], g)) != inst.worst:
            return "expected group is not the minimum"
        unserved_worst = worst_requests - matching0.served_request_ids()
        # Some vehicle that could serve an unserved worst-group request serves another group.
        if not any(
            unserved_worst & _feasible_ids(problem0, v.id)
            and matching0.assigned[v.id]
            and not matching0.assigned[v.id] & worst_requests
            for v in inst.fleet
        ):
            return "zero-weight matching is not passenger-min-unfair"
        return ""

    def worst_rate(hist_p: PassengerHistory, _) -> float:
        return hist_p.rates[inst.worst]

    return _check_theorem(
        inst, ladder, lambda beta: ScoreWeights(beta=beta, passenger_plus=plus), unfairness, worst_rate
    )


def check_driver_theorem(
    inst: TheoremInstance,
    ladder: tuple[float, ...] = DEFAULT_WEIGHT_LADDER,
    plus: bool = True,
) -> TheoremOutcome:
    """Verify driver-min-unfairness at weight 0, then sweep the ladder."""
    hist = inst.driver_history
    j = inst.worst

    def reward_of(rid: int) -> float:
        return inst.config.pricing.get(rid, 1.0)

    def unfairness(problem0: MatchProblem, matching0: Matching) -> str:
        if not hist.scaled[j] < hist.mean_scaled:
            return "expected driver is not below average"
        j_feasible = sorted(_feasible_ids(problem0, j))
        if not j_feasible:
            return "driver j has no feasible request"
        best_reward = max(reward_of(rid) for rid in j_feasible)
        top = [rid for rid in j_feasible if reward_of(rid) == best_reward]
        if len(top) != 1:
            return "driver j's preferred request is ambiguous"
        r_star = top[0]
        assigned_j = matching0.assigned[j]
        if not assigned_j or assigned_j == frozenset((r_star,)):
            return "zero-weight matching is not driver-min-unfair"
        if any(
            v.id != j and hist.scaled[v.id] < hist.mean_scaled and r_star in _feasible_ids(problem0, v.id)
            for v in inst.fleet
        ):
            return "another worse-off driver can serve the preferred request"
        return ""

    def worst_scaled(_, hist_d: DriverHistory) -> float:
        return hist_d.scaled[j]

    return _check_theorem(
        inst, ladder, lambda delta: ScoreWeights(delta=delta, driver_plus=plus), unfairness, worst_scaled
    )
