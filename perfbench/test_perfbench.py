"""Tests for the benchmark's own reference helpers.

Run with `PYTHONPATH=src python -m pytest perfbench` from the repository root.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from bench_checks import (
    charged,
    milp_optima,
    pairwise_gini,
    percentile,
    tie_break_problems,
)
from fairdispatch.matcher import (
    Candidate,
    Matching,
    MatchProblem,
    brute_force_match,
    solve_ilp,
)
from fairdispatch.metrics import gini

LIMIT = 1.0


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 90) == 90.0
    assert percentile(values, 100) == 100.0
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_failed_windows_are_charged_the_limit():
    # Ten failed windows that gave up after 0.2 s still count as taking 1 s.
    latencies = [0.001] * 90 + [0.2] * 10
    failed = [False] * 90 + [True] * 10
    costs = charged(latencies, failed, LIMIT)
    assert costs[-10:] == [LIMIT] * 10
    assert percentile(costs, 90) == 0.001
    assert percentile(costs, 91) == LIMIT
    # One more failure moves the 90th percentile onto the limit.
    failed[89] = True
    assert percentile(charged(latencies, failed, LIMIT), 90) == LIMIT
    # Failing sooner cannot read as faster than failing at the limit.
    slow = charged([0.001] * 90 + [5.0] * 10, [False] * 90 + [True] * 10, LIMIT)
    assert slow == costs


def random_problem(rng: random.Random) -> MatchProblem:
    n_vehicles = rng.randint(1, 5)
    batch = list(range(rng.randint(0, 6)))
    pool = [frozenset(c) for k in (1, 2) for c in combinations(batch, k)]
    candidates = {}
    for v in range(n_vehicles):
        rows = [Candidate(frozenset(), rng.choice([0.0, rng.uniform(-0.5, 0.5)]))]
        rng.shuffle(pool)
        for ids in pool[: rng.randint(0, 6)]:
            # Coarse scores make ties common.
            rows.append(Candidate(ids, rng.choice([1.0, 2.0, rng.uniform(0.0, 3.0)])))
        candidates[v] = rows
    return MatchProblem.build(candidates, batch)


def test_milp_reference_agrees_with_brute_force():
    rng = random.Random(2024)
    problems = [random_problem(rng) for _ in range(200)]
    # Solved one by one and all at once as one block-diagonal MILP.
    joint = milp_optima(problems)
    for p, (joint_best, _) in zip(problems, joint):
        [(best, chosen)] = milp_optima([p])
        oracle = brute_force_match(p)
        assert best == pytest.approx(oracle.total_score, abs=1e-6)
        assert joint_best == pytest.approx(oracle.total_score, abs=1e-6)
        assert sorted(chosen) == list(p.vehicle_ids)


def test_tie_break_check_accepts_the_oracle_and_rejects_another_optimum():
    tie = Candidate(frozenset({0}), 1.0)
    p = MatchProblem.build(
        {0: [Candidate(frozenset(), 0.0), tie], 1: [Candidate(frozenset(), 0.0), tie]}, [0]
    )
    checked, errors = tie_break_problems(p, solve_ilp(p))
    assert (checked, errors) == (1, [])
    # Vehicle 0 taking the request is just as good, but its index vector
    # (1, 0) is not the lexicographically smallest optimum (0, 1).
    other = Matching({0: 1, 1: 0}, {0: frozenset({0}), 1: frozenset()}, 1.0)
    checked, errors = tie_break_problems(p, other)
    assert checked == 1 and len(errors) == 1


def test_gini_reference_unit_values():
    assert pairwise_gini([0.0, 1.0]) == 0.5
    assert pairwise_gini([3.0, 3.0, 3.0]) == 0.0
    assert pairwise_gini([0.0, 0.0]) == 0.0
    for n in (2, 3, 7, 25):
        assert pairwise_gini([0.0] * (n - 1) + [1.0]) == pytest.approx((n - 1) / n, abs=1e-12)


def test_gini_reference_matches_the_program():
    rng = random.Random(7)
    for _ in range(100):
        values = [rng.uniform(0.0, 50.0) for _ in range(rng.randint(1, 30))]
        assert pairwise_gini(values) == pytest.approx(gini(values), abs=1e-12)
