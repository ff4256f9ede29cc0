from __future__ import annotations

import pickle
from collections import Counter
from dataclasses import replace

import pytest

import fairdispatch.fleet as fleet_module
import fairdispatch.sim as sim_module
from fairdispatch import matcher
from fairdispatch.demand import DemandProfile, Request, synth_requests
from fairdispatch.errors import ConfigError, ContractError, InputError, InstanceTooLargeError, WindowSolveError
from fairdispatch.fleet import DROPOFF, VehicleState, feasible_actions, random_fleet, reachable_requests
from fairdispatch.metrics import DriverHistory, PassengerHistory
from fairdispatch.network import GroupId, grid_partition, make_grid
from fairdispatch.scoring import ScoreWeights, ValueFunction
from fairdispatch.sim import (
    DEFAULT_WEIGHT_LADDER,
    SimConfig,
    build_driver_min_unfair_instance,
    build_passenger_min_unfair_instance,
    check_driver_theorem,
    check_passenger_theorem,
    run_simulation,
    step_window,
    sweep,
)


def small_cfg(**overrides):
    defaults = dict(
        window_len=60.0,
        horizon=1800.0,
        seed=5,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


def small_world(seed=3, rate=0.8, horizon=1800.0):
    net = make_grid(4, 4, 60.0)
    part = grid_partition(4, 4, 4, 2)
    profile = DemandProfile(
        {GroupId(0, 1): rate, GroupId(1, 0): rate / 2}, horizon=horizon, seed=seed
    )
    requests = synth_requests(profile, net, part)
    fleet = random_fleet(3, 2, net, seed=seed + 7)
    return net, part, requests, fleet


def test_zero_requests_vacuous_run():
    net, part, _, fleet = small_world()
    result = run_simulation(small_cfg(), net, part, [], fleet)
    assert result.service_rate == 1.0
    assert result.total_requests == 0
    assert all(v == 0.0 for v in result.driver_history.incomes.values())
    assert result.passenger_report.f_gini == 1.0
    assert len(result.window_rows) == 30


def test_single_request_adjacent_vehicle():
    net = make_grid(1, 3, 60.0)
    part = grid_partition(1, 3, 1, 3)
    requests = [Request(0, 1, 2, 10.0, GroupId(0, 0))]
    fleet = [VehicleState(0, 0, capacity=1)]
    cfg = SimConfig(window_len=60.0, horizon=300.0, seed=0)
    result = run_simulation(cfg, net, part, requests, fleet)
    assert result.service_rate == 1.0
    assert result.driver_history.incomes[0] == 1.0
    assert result.total_served == 1


def test_identical_runs_identical_results():
    net, part, requests, fleet = small_world()
    cfg = small_cfg()
    a = run_simulation(cfg, net, part, requests, fleet, record_trace=True)
    b = run_simulation(cfg, net, part, requests, fleet, record_trace=True)
    assert a.window_rows == b.window_rows
    assert a.matchings == b.matchings
    assert a.service_rate == b.service_rate


def test_zero_weight_scores_equal_total_score_on_each_window_snapshot(zero_weight_scores_checked):
    net, part, requests, fleet = small_world(seed=11)
    cfg = small_cfg(weights=ScoreWeights(0.0, 0.0))
    result = run_simulation(cfg, net, part, requests, fleet)
    assert len(zero_weight_scores_checked) == cfg.n_windows
    assert result.total_served > 0  # the histories, and so the snapshots, move


def test_request_conservation_and_income_totals():
    net, part, requests, fleet = small_world(seed=2)
    cfg = small_cfg()
    result = run_simulation(cfg, net, part, requests, fleet, record_trace=True)
    served_from_trace = sum(
        len(ids) for window in result.matchings for ids in window.values()
    )
    assert served_from_trace == result.total_served
    # per-window: batch splits into served + dropped
    for k, window in enumerate(result.matchings):
        window_batch = [r for r in requests if k * 60.0 <= r.arrival < (k + 1) * 60.0]
        served = {rid for ids in window.values() for rid in ids}
        assert served <= {r.id for r in window_batch}
    # unit request values: total driver income equals served count
    assert sum(result.driver_history.incomes.values()) == pytest.approx(result.total_served)
    requested, served = result.passenger_history.totals()
    assert requested == result.total_requests
    assert served == result.total_served


def test_history_snapshot_used_within_window():
    # a window's matching must not feed back into its own scores: with one
    # vehicle and two same-group requests in one window, both singles score
    # identically, so the pair (if feasible) or the lexicographically first
    # single wins; this is only well-defined with a frozen snapshot
    net = make_grid(1, 3, 30.0)
    part = grid_partition(1, 3, 1, 3)
    requests = [
        Request(0, 1, 2, 0.0, GroupId(0, 0)),
        Request(1, 2, 0, 0.0, GroupId(0, 0)),
    ]
    fleet = [VehicleState(0, 1, capacity=1)]
    cfg = SimConfig(window_len=60.0, horizon=60.0, max_bundle=1, seed=0,
                    weights=ScoreWeights(beta=5.0))
    result = run_simulation(cfg, net, part, requests, fleet, record_trace=True)
    assert result.matchings[0][0] == (0,)


def test_bundle_3_desk_run_keeps_the_oracle_and_conserves_requests(monkeypatch):
    """Two hours of the 6x6 desk grid at bundle 3 and capacity 3 under the
    exact matcher, with six vehicles for twice the desk demand so that
    three-request bundles win."""
    net = make_grid(6, 6, 80.0)
    part = grid_partition(6, 6, 3, 3)
    per_window = 2 * 5000.0 / 1440.0
    profile = DemandProfile(
        {GroupId(0, 3): 4 * per_window / 5, GroupId(2, 1): per_window / 5}, horizon=7200.0, seed=1
    )
    requests = synth_requests(profile, net, part)
    fleet = random_fleet(6, 3, net, seed=1001)
    cfg = SimConfig(
        window_len=60.0, horizon=7200.0, max_bundle=3, seed=1,
        weights=ScoreWeights(20.0, 20.0, passenger_plus=True, driver_plus=True),
    )
    problems, matchings = [], []
    build, solve = sim_module.build_window_problem, sim_module.solve_ilp

    def kept_build(*args):
        out = build(*args)
        problems.append(out[0])
        return out

    def kept_solve(problem):
        out = solve(problem)
        matchings.append(out)
        return out

    monkeypatch.setattr(sim_module, "build_window_problem", kept_build)
    monkeypatch.setattr(sim_module, "solve_ilp", kept_solve)
    result = run_simulation(cfg, net, part, requests, fleet, record_trace=True)

    assert any(len(ids) == 3 for window in result.matchings for ids in window.values())
    checked = 0
    for p, m in zip(problems, matchings, strict=True):
        _, reach, picks = matcher._read(p)
        for component in matcher._components(reach) + [[v] for v in picks]:
            sub = matcher.MatchProblem.build({v: p.candidates[v] for v in component}, p.batch_ids)
            try:
                oracle = matcher.brute_force_match(sub)
            except InstanceTooLargeError:
                continue
            assert oracle.chosen == {v: m.chosen[v] for v in component}
            checked += len(component) > 1
    assert checked >= 10

    seen: set[int] = set()
    for k, window in enumerate(result.matchings):
        served = [rid for ids in window.values() for rid in ids]
        batch = {r.id for r in requests if k * 60.0 <= r.arrival < (k + 1) * 60.0}
        assert set(served) <= batch and not seen & set(served)
        assert len(served) == len(set(served))
        seen |= set(served)
    assert len(seen) == result.total_served > 0
    assert sum(result.driver_history.incomes.values()) == pytest.approx(result.total_served)
    assert result.passenger_history.totals() == (len(requests), result.total_served)


def test_no_plan_search_for_one_request_on_a_short_route(monkeypatch):
    """Ten windows of a seeded 10x10 city at capacity 3 and bundle 3: a route
    of at most one dropoff never reaches the plan search with one request,
    while its bundles and longer routes' requests still do."""
    searches = Counter()
    run = fleet_module._PlanSearch.run

    def recording(search, new_requests):
        short = not search.route or (len(search.route) == 1 and search.route[0][2] == DROPOFF)
        searches[short, len(new_requests)] += 1
        return run(search, new_requests)

    monkeypatch.setattr(fleet_module._PlanSearch, "run", recording)
    net = make_grid(10, 10, 40.0)
    part = grid_partition(10, 10, 5, 5)
    profile = DemandProfile({GroupId(o, d): 2.0 for o in range(4) for d in range(4)}, horizon=600.0, seed=4)
    fleet = random_fleet(40, 3, net, seed=5)
    cfg = SimConfig(window_len=60.0, horizon=600.0, max_bundle=3, matcher="async_greedy", seed=4)
    result = run_simulation(cfg, net, part, synth_requests(profile, net, part), fleet)
    assert result.total_served > 0
    assert searches[True, 1] == 0
    assert all(searches[key] for key in [(False, 1), (True, 2), (True, 3), (False, 2)]), searches


def test_vehicles_that_reach_nothing_are_neither_enumerated_nor_scored_nor_rechecked(monkeypatch):
    """Ten windows of a seeded 10x10 city, weighted and at 0/0: only vehicles
    with two or more candidates reach `feasible_actions`, the scorer sees only
    their request-serving actions, only vehicles that leave candidate index 0
    have a plan checked, and every vehicle's null candidate is the one shared
    candidate of its null score."""
    calls = Counter()

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in [
        (sim_module, "feasible_actions"),
        (sim_module, "total_score"),
        (sim_module, "base_score"),
        (fleet_module, "_validate_plan"),
    ]:
        counting(module, name)
    problems, matchings = [], []
    build, solve = sim_module.build_window_problem, sim_module.async_greedy_match

    def kept_build(*args):
        problems.append(build(*args))
        return problems[-1]

    def kept_solve(*args):
        matchings.append(solve(*args))
        return matchings[-1]

    monkeypatch.setattr(sim_module, "build_window_problem", kept_build)
    monkeypatch.setattr(sim_module, "async_greedy_match", kept_solve)
    net = make_grid(10, 10, 40.0)
    part = grid_partition(10, 10, 5, 5)
    profile = DemandProfile({GroupId(o, d): 1.0 for o in range(4) for d in range(4)}, horizon=600.0, seed=4)
    fleet = random_fleet(40, 2, net, seed=5)
    for weights in (ScoreWeights(20.0, 20.0), ScoreWeights()):
        cfg = SimConfig(window_len=60.0, horizon=600.0, matcher="async_greedy", seed=4, weights=weights)
        run_simulation(cfg, net, part, synth_requests(profile, net, part), fleet)
    enumerated = scored = moved = null_only = 0
    for (problem, actions_by), matching in zip(problems, matchings, strict=True):
        for v, rows in problem.candidates.items():
            if len(rows) == 1:
                null_only += 1
                assert v not in actions_by and not rows[0].requests
            else:
                enumerated += 1
                scored += len(rows) - 1
                assert len(actions_by[v]) == len(rows) - 1
        shared = {id(rows) for rows in problem.candidates.values() if len(rows) == 1}
        assert len(shared) <= 1  # every null score is 0.0 under the zero value function
        nulls = {}
        for rows in problem.candidates.values():
            assert nulls.setdefault(rows[0].score, rows[0]) is rows[0] and not rows[0].requests
        assert list(nulls) == [0.0]
        moved += sum(1 for v in problem.vehicle_ids if matching.chosen[v])
    assert calls["feasible_actions"] == enumerated
    assert calls["total_score"] + calls["base_score"] == scored
    assert calls["base_score"] and calls["total_score"]
    assert calls["_validate_plan"] == moved > 0
    assert null_only > enumerated > 0


def test_stepping_the_windows_by_hand_repeats_the_run():
    net, part, requests, fleet = small_world(seed=2)
    cfg = small_cfg(weights=ScoreWeights(beta=5.0, delta=5.0))
    result = run_simulation(cfg, net, part, requests, fleet, record_trace=True)
    vehicles = sorted((v.clone() for v in fleet), key=lambda v: v.id)
    hist_p, hist_d = PassengerHistory.empty(), DriverHistory.zeroed([v.id for v in vehicles])
    for k, window in enumerate(result.matchings):
        batch = [r for r in requests if k * 60.0 <= r.arrival < (k + 1) * 60.0]
        _, matching, hist_p, hist_d = step_window(vehicles, hist_p, hist_d, batch, k, net, cfg, part)
        assert {v: tuple(sorted(ids)) for v, ids in matching.assigned.items()} == window
    assert (hist_p, hist_d) == (result.passenger_history, result.driver_history)


def test_a_failed_solve_carries_its_window_and_problem(monkeypatch):
    solved = []

    def fail_third(problem):
        if len(solved) == 2:
            raise ContractError("solver gave up")
        solved.append(problem)
        return matcher.solve_ilp(problem)

    monkeypatch.setattr(sim_module, "solve_ilp", fail_third)
    net, part, requests, fleet = small_world(seed=2)
    with pytest.raises(WindowSolveError, match="^solver gave up$") as info:
        run_simulation(small_cfg(), net, part, requests, fleet)
    assert info.value.window == 2
    assert info.value.problem.batch_ids == {r.id for r in requests if 120.0 <= r.arrival < 180.0}
    assert isinstance(info.value.__cause__, ContractError)
    # A parallel sweep's worker sends the error back pickled.
    copy = pickle.loads(pickle.dumps(info.value))
    assert (str(copy), copy.window, copy.problem) == ("solver gave up", 2, info.value.problem)


def test_run_rejects_bad_inputs():
    net, part, requests, fleet = small_world()
    with pytest.raises(ConfigError):
        SimConfig(window_len=70.0, horizon=1800.0)
    with pytest.raises(ConfigError):
        SimConfig(matcher="simplex")
    with pytest.raises(ConfigError, match=r"^max_bundle must be in 1\.\.4, got 0$"):
        SimConfig(max_bundle=0)
    with pytest.raises(ConfigError, match="^max_detour must be >= 0, got -1$"):
        SimConfig(max_detour=-1)
    late = [Request(0, 0, 1, 99999.0, GroupId(0, 0))]
    with pytest.raises(ConfigError):
        run_simulation(small_cfg(), net, part, late, fleet)
    # a NaN arrival would stop the batcher: no later request reaches a window
    nan_arrival = [Request(0, 0, 1, float("nan"), GroupId(0, 0)), Request(1, 1, 2, 30.0, GroupId(0, 0))]
    with pytest.raises(ConfigError):
        run_simulation(small_cfg(), net, part, nan_arrival, fleet)


def test_async_greedy_matcher_runs_deterministically():
    net, part, requests, fleet = small_world(seed=4)
    cfg = small_cfg(matcher="async_greedy")
    a = run_simulation(cfg, net, part, requests, fleet, record_trace=True)
    b = run_simulation(cfg, net, part, requests, fleet, record_trace=True)
    assert a.matchings == b.matchings


def test_sweep_degenerate_grid_equals_base_run():
    net, part, requests, fleet = small_world(seed=9)
    cfg = small_cfg()
    rows = sweep(cfg, net, part, requests, fleet, [0.0], [0.0], [(False, False)])
    assert len(rows) == 1
    base = run_simulation(cfg, net, part, requests, fleet)
    assert rows[0].result.window_rows == base.window_rows


def test_sweep_shares_demand_across_points():
    net, part, requests, fleet = small_world(seed=9)
    cfg = small_cfg()
    rows = sweep(
        cfg, net, part, requests, fleet,
        [0.0, 2.0], [0.0, 2.0], [(True, True)],
    )
    assert len(rows) == 4
    assert len({row.result.total_requests for row in rows}) == 1
    keys = [(row.beta, row.delta) for row in rows]
    assert keys == sorted(keys)


def test_sweep_parallel_matches_serial():
    net, part, requests, fleet = small_world(seed=9, horizon=600.0)
    cfg = small_cfg(horizon=600.0)
    serial = sweep(cfg, net, part, requests, fleet, [0.0, 1.0], [0.0], [(False, False)])
    parallel = sweep(cfg, net, part, requests, fleet, [0.0, 1.0], [0.0], [(False, False)], jobs=2)
    assert [(r.beta, r.result.window_rows) for r in serial] == [
        (r.beta, r.result.window_rows) for r in parallel
    ]


def test_sweep_tasks_carry_only_weights(monkeypatch):
    # the shared inputs reach each worker once, through the pool initializer;
    # every grid-point task is just its weights
    net, part, requests, fleet = small_world(seed=9, horizon=600.0)
    sent = {}

    class RecordingPool:
        def __init__(self, max_workers, mp_context, initializer, initargs):
            sent["initargs"] = initargs

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, tasks):
            sent["tasks"] = [(fn, task) for task in tasks]
            return iter(())

    monkeypatch.setattr(sim_module, "ProcessPoolExecutor", RecordingPool)
    betas, deltas, variants = [0.0, 1.0, 2.0], [0.0, 5.0], [(False, False), (True, True)]
    sweep(small_cfg(horizon=600.0), net, part, requests, fleet, betas, deltas, variants, jobs=2)
    assert sent["initargs"][1] is net
    assert len(sent["tasks"]) == 12
    for task in sent["tasks"]:
        assert len(pickle.dumps(task)) < 1024


@pytest.mark.parametrize("jobs", [0, -1, 5])
def test_sweep_refuses_jobs_outside_the_cpu_count(monkeypatch, jobs):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(sim_module, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(sim_module.os, "cpu_count", lambda: 4)
    net, part, requests, fleet = small_world()
    with pytest.raises(ConfigError, match=r"jobs must lie in 1\.\.4"):
        sweep(small_cfg(), net, part, requests, fleet, [0.0], [0.0], [(False, False)], jobs=jobs)


def test_sweep_refuses_a_bad_weight_before_any_run(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(sim_module, "run_simulation", no_run)
    net, part, requests, fleet = small_world()
    with pytest.raises(InputError, match="finite and nonnegative"):
        sweep(small_cfg(), net, part, requests, fleet, [0.0, float("nan")], [0.0], [(False, False)])


def test_sweep_rejects_empty_grid():
    net, part, requests, fleet = small_world()
    with pytest.raises(ConfigError):
        sweep(small_cfg(), net, part, requests, fleet, [], [0.0], [(False, False)])


# --- theorem micro-instances ---------------------------------------------


def test_passenger_instance_structure():
    for seed in range(10):
        inst = build_passenger_min_unfair_instance(seed)
        assert len(inst.fleet) >= 2
        assert len(inst.requests) >= 2
        hist = inst.passenger_history
        rates = hist.rates
        assert min(rates, key=lambda g: (rates[g], g)) == inst.worst
        # the worst group's request is feasible for some vehicle
        worst = [r for r in inst.requests if r.group == inst.worst]
        assert len(worst) == 1
        feasible_anywhere = False
        now, cons = inst.config.window_len, inst.config.constraints()
        reachable = reachable_requests(inst.fleet, inst.requests, now, inst.net, cons)
        for v, singles in zip(inst.fleet, reachable):
            actions = feasible_actions(v, singles, now, inst.net, cons)
            if any(a.request_ids() == {worst[0].id} for a in actions):
                feasible_anywhere = True
        assert feasible_anywhere


def test_passenger_theorem_check_passes():
    for seed in range(10):
        outcome = check_passenger_theorem(build_passenger_min_unfair_instance(seed))
        assert outcome.unfair_at_zero, outcome.detail
        assert outcome.improved
        assert max(outcome.ladder_metrics.values()) > outcome.baseline_metric


def test_driver_instance_structure():
    for seed in range(10):
        inst = build_driver_min_unfair_instance(seed)
        hist = inst.driver_history
        j = inst.worst
        assert hist.scaled[j] < hist.mean_scaled
        # exactly one worse-off driver can feasibly serve the preferred request
        r_star = max(inst.requests, key=lambda r: inst.config.pricing.get(r.id, 1.0))
        worse_off_servers = []
        now, cons = inst.config.window_len, inst.config.constraints()
        reachable = reachable_requests(inst.fleet, inst.requests, now, inst.net, cons)
        for v, singles in zip(inst.fleet, reachable):
            if hist.scaled[v.id] >= hist.mean_scaled:
                continue
            actions = feasible_actions(v, singles, now, inst.net, cons)
            if any(a.request_ids() == {r_star.id} for a in actions):
                worse_off_servers.append(v.id)
        assert worse_off_servers == [j]


def test_driver_theorem_check_passes():
    for seed in range(10):
        outcome = check_driver_theorem(build_driver_min_unfair_instance(seed))
        assert outcome.unfair_at_zero, outcome.detail
        assert outcome.improved


# Each precondition of the two theorem checks, broken on a seed-0 instance:
# the side, how the instance is broken, and the detail the check must report.
BROKEN_PRECONDITIONS = {
    "passenger worst group not the minimum": (
        "passenger",
        lambda inst: replace(inst, worst=next(r.group for r in inst.requests if r.group != inst.worst)),
        "expected group is not the minimum",
    ),
    "passenger worst request alone": (
        "passenger",
        lambda inst: replace(inst, requests=[r for r in inst.requests if r.group == inst.worst]),
        "zero-weight matching is not passenger-min-unfair",
    ),
    "driver incomes equal": (
        "driver",
        lambda inst: replace(inst, driver_history=DriverHistory.zeroed([v.id for v in inst.fleet])),
        "expected driver is not below average",
    ),
    "driver without requests": (
        "driver", lambda inst: replace(inst, requests=[]), "driver j has no feasible request"
    ),
    "driver requests priced alike": (
        "driver",
        lambda inst: replace(inst, config=replace(inst.config, pricing={})),
        "driver j's preferred request is ambiguous",
    ),
    "driver j alone": (
        "driver",
        lambda inst: replace(inst, fleet=inst.fleet[:1]),
        "zero-weight matching is not driver-min-unfair",
    ),
    # driver 1 reaches only the preferred request; a rich driver outside the
    # fleet keeps both 0 and 1 below the mean
    "driver 1 as poor as j": (
        "driver",
        lambda inst: replace(
            inst,
            driver_history=DriverHistory(
                {**inst.driver_history.incomes, 1: inst.driver_history.incomes[0], 99: 100.0}
            ),
        ),
        "another worse-off driver can serve the preferred request",
    ),
}


@pytest.mark.parametrize("case", sorted(BROKEN_PRECONDITIONS))
def test_theorem_check_reports_a_broken_precondition(case):
    side, breaks, detail = BROKEN_PRECONDITIONS[case]
    if side == "passenger":
        outcome = check_passenger_theorem(breaks(build_passenger_min_unfair_instance(0)))
    else:
        outcome = check_driver_theorem(breaks(build_driver_min_unfair_instance(0)))
    assert outcome.unfair_at_zero is False
    assert outcome.ladder_metrics == {}
    assert outcome.detail == detail
    assert not outcome.passed


def test_theorem_ladder_is_the_documented_one():
    assert DEFAULT_WEIGHT_LADDER == (1.0, 10.0, 1e3, 1e6)


def test_single_window_config_honours_theorem_preconditions():
    inst = build_passenger_min_unfair_instance(0)
    assert inst.config.max_bundle == 1
    assert inst.config.n_windows == 1
    assert all(v.capacity == 1 for v in inst.fleet)


def test_table_vfa_run_smoke():
    net, part, requests, fleet = small_world(seed=6, horizon=600.0)
    vfa = ValueFunction(kind="table", table={(0, 1, 0): 0.5})
    cfg = small_cfg(horizon=600.0, vfa=vfa)
    result = run_simulation(cfg, net, part, requests, fleet)
    assert 0.0 <= result.service_rate <= 1.0
