"""Acceptance suite: every criterion checked at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or on failure).
The fairness-trend criteria share one 5-seed sweep computed once per session.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace
from itertools import combinations
from statistics import mean

import pytest

from fairdispatch.cli import main
from fairdispatch.demand import DemandProfile, synth_requests
from fairdispatch.fleet import random_fleet
from fairdispatch.matcher import Candidate, MatchProblem, brute_force_match, solve_ilp
from fairdispatch.metrics import gini
from fairdispatch.network import GroupId, grid_partition, make_grid
from fairdispatch.scoring import ScoreWeights
from fairdispatch.sim import (
    SimConfig,
    build_driver_min_unfair_instance,
    build_passenger_min_unfair_instance,
    check_driver_theorem,
    check_passenger_theorem,
    run_simulation,
)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


# --- criterion 1: exact ILP oracle equivalence -----------------------------


def random_match_problem(rng: random.Random) -> MatchProblem:
    n_vehicles = rng.randint(1, 5)
    n_requests = rng.randint(0, 6)
    batch = list(range(n_requests))
    candidates = {}
    for v in range(n_vehicles):
        rows = [Candidate(frozenset(), 0.0)]
        pool = [frozenset(c) for k in (1, 2) for c in combinations(batch, k)]
        rng.shuffle(pool)
        for ids in pool[: rng.randint(0, 6)]:
            rows.append(Candidate(ids, rng.uniform(0.0, 3.0)))
        candidates[v] = rows
    return MatchProblem.build(candidates, batch)


def test_criterion_1_ilp_oracle_equivalence():
    rng = random.Random(1001)
    start = time.perf_counter()
    for _ in range(500):
        p = random_match_problem(rng)
        assert solve_ilp(p).total_score == brute_force_match(p).total_score
    elapsed = time.perf_counter() - start
    report(1, elapsed < 10.0, f"500 instances, exact score equality, {elapsed:.2f}s < 10s")


# --- criterion 2: zero-weight reduction -------------------------------------


def test_criterion_2_zero_weight_reduction(zero_weight_scores_checked):
    rng = random.Random(22)
    for trial in range(20):
        rows = rng.choice([3, 4])
        cols = rng.choice([3, 4, 5])
        net = make_grid(rows, cols, float(rng.choice([30, 60])))
        part = grid_partition(rows, cols, rows, 1)
        areas = part.num_areas
        rates = {
            GroupId(rng.randrange(areas), rng.randrange(areas)): rng.uniform(0.2, 1.0)
            for _ in range(2)
        }
        profile = DemandProfile(rates, horizon=600.0, seed=rng.randint(0, 999))
        requests = synth_requests(profile, net, part)
        fleet = random_fleet(rng.randint(2, 5), rng.choice([1, 2]), net, seed=trial)
        cfg = SimConfig(
            window_len=60.0,
            horizon=600.0,
            seed=trial,
            weights=ScoreWeights(0.0, 0.0),
        )
        run_simulation(cfg, net, part, requests, fleet)
    windows = len(zero_weight_scores_checked)
    report(
        2,
        windows == 20 * 10,
        f"20 configs, {windows} windows, {sum(zero_weight_scores_checked)} candidates: every "
        "score equals the total score on its window's snapshot at weights 0/0, plain and plus",
    )


# --- criteria 3 and 4: max-min improvement harnesses ------------------------


def test_criterion_3_passenger_theorem_harness():
    start = time.perf_counter()
    failures = []
    for seed in range(50):
        outcome = check_passenger_theorem(build_passenger_min_unfair_instance(seed))
        if not (outcome.unfair_at_zero and outcome.improved):
            failures.append((seed, outcome.detail))
    elapsed = time.perf_counter() - start
    report(
        3,
        not failures and elapsed < 30.0,
        f"50 seeds min-unfair & improved under some beta, {elapsed:.2f}s < 30s"
        + (f"; failures={failures}" if failures else ""),
    )


def test_criterion_4_driver_theorem_harness():
    start = time.perf_counter()
    failures = []
    for seed in range(50):
        outcome = check_driver_theorem(build_driver_min_unfair_instance(seed))
        if not (outcome.unfair_at_zero and outcome.improved):
            failures.append((seed, outcome.detail))
    elapsed = time.perf_counter() - start
    report(
        4,
        not failures and elapsed < 30.0,
        f"50 seeds driver-min-unfair & improved under some delta (plus variant), {elapsed:.2f}s < 30s"
        + (f"; failures={failures}" if failures else ""),
    )


# --- criteria 5, 6 and 9: desk-scale fairness-efficiency trends -------------

TREND_SEEDS = range(5)

TREND_VARIANTS = {
    "base": ScoreWeights(),
    "passenger20": ScoreWeights(beta=20.0),
    "passenger20_plus": ScoreWeights(beta=20.0, passenger_plus=True),
    "driver20": ScoreWeights(delta=20.0),
    "driver20_plus": ScoreWeights(delta=20.0, driver_plus=True),
}


def trend_scenario(seed: int):
    net = make_grid(6, 6, 80.0)
    part = grid_partition(6, 6, 3, 3)
    per_window = 5000.0 / 1440.0
    profile = DemandProfile(
        {GroupId(0, 3): 4.0 * per_window / 5.0, GroupId(2, 1): per_window / 5.0},
        horizon=86400.0,
        seed=seed,
    )
    requests = synth_requests(profile, net, part)
    fleet = random_fleet(20, 2, net, seed=seed + 1000)
    cfg = SimConfig(window_len=60.0, horizon=86400.0, seed=seed)
    return net, part, requests, fleet, cfg


@pytest.fixture(scope="module")
def trend_sweep():
    start = time.perf_counter()
    results: dict[str, list] = {name: [] for name in TREND_VARIANTS}
    for seed in TREND_SEEDS:
        net, part, requests, fleet, cfg = trend_scenario(seed)
        for name, weights in TREND_VARIANTS.items():
            run = run_simulation(replace(cfg, weights=weights), net, part, requests, fleet)
            results[name].append(run)
    return results, time.perf_counter() - start


def _mean(results, name, metric):
    return mean(metric(r) for r in results[name])


SR = lambda r: r.service_rate
P_GINI = lambda r: r.passenger_report.f_gini
P_MIN = lambda r: r.passenger_report.min_value
D_GINI = lambda r: r.driver_report.f_gini


def test_criterion_5_fairness_efficiency_trend(trend_sweep):
    results, elapsed = trend_sweep
    base_sr = _mean(results, "base", SR)
    floor = 0.95 * base_sr

    a_gini = _mean(results, "passenger20_plus", P_GINI) >= _mean(results, "base", P_GINI)
    a_min = _mean(results, "passenger20_plus", P_MIN) >= _mean(results, "base", P_MIN)
    b = _mean(results, "driver20_plus", D_GINI) >= _mean(results, "base", D_GINI)
    c_passenger = (
        _mean(results, "passenger20_plus", SR) >= floor
        and _mean(results, "passenger20_plus", P_GINI) > _mean(results, "base", P_GINI)
    )
    c_driver = (
        _mean(results, "driver20_plus", SR) >= floor
        and _mean(results, "driver20_plus", D_GINI) > _mean(results, "base", D_GINI)
    )
    ok = a_gini and a_min and b and c_passenger and c_driver and elapsed < 300.0
    report(
        5,
        ok,
        f"(a) passenger F_Gini/min up at beta=20 plus-variant: {a_gini}/{a_min}; "
        f"(b) driver F_Gini up at delta=20 plus-variant: {b}; "
        f"(c) frontier within 95% SR floor, passenger {c_passenger} driver {c_driver}; "
        f"sweep {elapsed:.0f}s < 300s",
    )


def test_criterion_6_plus_variants_dominate(trend_sweep):
    results, _ = trend_sweep
    passenger = _mean(results, "passenger20_plus", SR) >= _mean(results, "passenger20", SR)
    driver = _mean(results, "driver20_plus", SR) >= _mean(results, "driver20", SR)
    report(
        6,
        passenger and driver,
        f"5-seed mean SR at matched weight 20: passenger plus "
        f"{_mean(results, 'passenger20_plus', SR):.4f} >= plain "
        f"{_mean(results, 'passenger20', SR):.4f} is {passenger}; driver plus "
        f"{_mean(results, 'driver20_plus', SR):.4f} >= plain "
        f"{_mean(results, 'driver20', SR):.4f} is {driver}",
    )


# --- criterion 7: Gini unit values ------------------------------------------


def test_criterion_7_gini_units():
    ok_two = abs(gini([0.0, 1.0]) - 0.5) < 1e-12
    ok_spike = all(
        abs(gini([0.0] * (n - 1) + [1.0]) - (n - 1) / n) < 1e-12 for n in (2, 3, 7, 25, 100)
    )
    rng = random.Random(7)
    ok_scale = True
    for _ in range(100):
        values = [rng.uniform(0.0, 50.0) for _ in range(rng.randint(1, 30))]
        c = rng.uniform(0.01, 100.0)
        if abs(gini(values) - gini([c * v for v in values])) >= 1e-12:
            ok_scale = False
    report(
        7,
        ok_two and ok_spike and ok_scale,
        "gini({0,1})=0.5, spike=(n-1)/n, scale-invariant over 100 vectors, all to 1e-12",
    )


# --- criterion 8: byte-identical reruns --------------------------------------


def test_criterion_8_determinism(tmp_path):
    import json

    manifest = tmp_path / "m.json"
    manifest.write_text(
        json.dumps(
            {
                "window_len": 60,
                "horizon": 1800,
                "seed": 12,
                "network": {"grid": {"rows": 4, "cols": 4, "edge_cost": 60}},
                "partition": {"grid": {"rows_per_area": 2, "cols_per_area": 2}},
                "requests": {"profile": {"rates": [[0, 3, 1.0], [2, 1, 0.5]], "seed": 8}},
                "fleet": {"random": {"size": 4, "capacity": 2, "seed": 2}},
                "weights": {"beta": 2.0, "delta": 1.0, "passenger_plus": True},
            }
        )
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--manifest", str(manifest), "--out", str(out1)]) == 0
    assert main(["run", "--manifest", str(manifest), "--out", str(out2)]) == 0
    identical = (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    report(8, identical, "same manifest run twice produces byte-identical metrics CSVs")


# --- criterion 9: performance envelope ---------------------------------------


def test_criterion_9_performance_envelope(trend_sweep):
    results, _ = trend_sweep
    base = results["base"][0]
    ok = base.duration_seconds < 60.0 and base.total_requests > 4000
    report(
        9,
        ok,
        f"criterion-5 run: {base.total_requests} requests, 1440 windows, "
        f"{base.duration_seconds:.2f}s < 60s",
    )
