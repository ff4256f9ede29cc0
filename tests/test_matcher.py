from __future__ import annotations

import json
import random
import re
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fairdispatch import matcher
from fairdispatch.errors import InputError, InstanceTooLargeError, ParseError
from fairdispatch.matcher import (
    Candidate,
    MatchProblem,
    async_greedy_match,
    brute_force_match,
    problem_from_json,
    problem_to_json,
    solve_ilp,
)

NULL = Candidate(frozenset(), 0.0)


def problem(cands: dict[int, list[Candidate]], requests) -> MatchProblem:
    return MatchProblem.build(cands, requests)


def two_vehicle_example() -> MatchProblem:
    # v1 serves r1 for 2.0 or r2 for 1.9; v2 serves only r1 for 1.0
    return problem(
        {
            1: [NULL, Candidate(frozenset({1}), 2.0), Candidate(frozenset({2}), 1.9)],
            2: [NULL, Candidate(frozenset({1}), 1.0)],
        },
        [1, 2],
    )


def test_all_null_forced():
    p = problem({0: [NULL], 1: [NULL]}, [])
    m = solve_ilp(p)
    assert m.total_score == 0.0
    assert m.assigned == {0: frozenset(), 1: frozenset()}


def test_single_request_two_vehicles_prefers_higher_score():
    p = problem(
        {
            1: [NULL, Candidate(frozenset({5}), 1.0)],
            2: [NULL, Candidate(frozenset({5}), 1.5)],
        },
        [5],
    )
    m = solve_ilp(p)
    assert m.total_score == 1.5
    assert m.assigned[2] == frozenset({5})
    assert m.assigned[1] == frozenset()


def test_ilp_beats_greedy_on_contended_instance():
    p = two_vehicle_example()
    m = solve_ilp(p)
    assert m.total_score == 2.9
    assert m.assigned == {1: frozenset({2}), 2: frozenset({1})}


def test_brute_force_agrees_on_worked_examples():
    for p in (
        problem({0: [NULL], 1: [NULL]}, []),
        problem(
            {
                1: [NULL, Candidate(frozenset({5}), 1.0)],
                2: [NULL, Candidate(frozenset({5}), 1.5)],
            },
            [5],
        ),
        two_vehicle_example(),
    ):
        a, b = solve_ilp(p), brute_force_match(p)
        assert a.total_score == b.total_score
        assert a.chosen == b.chosen


def test_brute_force_single_vehicle():
    p = problem({3: [NULL, Candidate(frozenset({1}), 1.0)]}, [1])
    assert brute_force_match(p).assigned[3] == frozenset({1})


def test_brute_force_never_shares_a_request():
    p = problem(
        {
            0: [NULL, Candidate(frozenset({9}), 5.0)],
            1: [NULL, Candidate(frozenset({9}), 5.0)],
        },
        [9],
    )
    m = brute_force_match(p)
    served = [v for v, ids in m.assigned.items() if ids]
    assert len(served) == 1


def test_brute_force_refuses_huge_instances():
    cands = {v: [NULL] + [Candidate(frozenset({r}), 1.0) for r in range(24)] for v in range(6)}
    with pytest.raises(InstanceTooLargeError):
        brute_force_match(problem(cands, range(24)))


def test_validation_rejects_missing_null():
    with pytest.raises(InputError, match="null"):
        solve_ilp(problem({0: [Candidate(frozenset({1}), 1.0)]}, [1]))


def test_validation_rejects_unknown_request():
    with pytest.raises(InputError, match="outside the batch"):
        solve_ilp(problem({0: [NULL, Candidate(frozenset({7}), 1.0)]}, [1]))


@pytest.mark.parametrize(
    "solve", [solve_ilp, brute_force_match, lambda p: async_greedy_match(p, 0)]
)
def test_every_matcher_refuses_a_malformed_problem_before_solving(solve):
    # a vehicle lacking its null candidate is named before its stray request
    with pytest.raises(InputError, match="vehicle 0 has no null candidate"):
        solve(problem({0: [Candidate(frozenset({7}), 1.0)]}, [1]))
    # vehicles are checked in ascending id order
    stray = {0: [NULL, Candidate(frozenset({1, 7, 8}), 1.0)], 1: [Candidate(frozenset({1}), 1.0)]}
    with pytest.raises(InputError, match=r"vehicle 0 references requests outside the batch: \[7, 8\]"):
        solve(problem(stray, [1]))
    # too large for the oracle, and malformed: the malformation is reported
    huge = {v: [NULL] + [Candidate(frozenset({r}), 1.0) for r in range(24)] for v in range(6)}
    huge[6] = [NULL, Candidate(frozenset({99}), 1.0)]
    with pytest.raises(InputError, match="outside the batch"):
        solve(problem(huge, range(24)))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "solve", [solve_ilp, brute_force_match, lambda p: async_greedy_match(p, 0)]
)
def test_every_matcher_refuses_a_non_finite_score(solve, bad):
    # under a NaN total the solver and the oracle would pick different matchings
    cands = {0: [NULL, Candidate(frozenset({1}), bad)], 1: [NULL, Candidate(frozenset({1}), 1.0)]}
    with pytest.raises(InputError, match=rf"vehicle 0 candidate 1 has a non-finite score: {bad}"):
        solve(problem(cands, [1]))
    cands = {0: [NULL], 1: [Candidate(frozenset(), bad), Candidate(frozenset({1}), 1.0)]}
    with pytest.raises(InputError, match=rf"vehicle 1 candidate 0 has a non-finite score: {bad}"):
        solve(problem(cands, [1]))
    cands = {0: [NULL, Candidate(frozenset({1}), 1.0), Candidate(frozenset({1}), bad)]}
    with pytest.raises(InputError, match=rf"vehicle 0 candidate 2 has a non-finite score: {bad}"):
        solve(problem(cands, [1]))


@pytest.mark.parametrize(
    "solve", [solve_ilp, brute_force_match, lambda p: async_greedy_match(p, 0)]
)
def test_a_shared_candidate_tuple_is_read_once_and_refused_at_its_first_vehicle(solve):
    shared = (NULL,)
    masks = matcher._masks(MatchProblem.build({v: shared for v in (4, 2, 9)}, []))
    assert masks[2] is masks[4] is masks[9] == [(0, 0.0)]
    for bad, message in [
        ((Candidate(frozenset(), float("nan")),), "vehicle 2 candidate 0 has a non-finite score"),
        ((Candidate(frozenset({1}), 1.0),), "vehicle 2 has no null candidate"),
        ((NULL, Candidate(frozenset({7}), 1.0)), r"vehicle 2 references requests outside the batch: \[7\]"),
    ]:
        with pytest.raises(InputError, match=message):
            solve(MatchProblem.build({0: (NULL,), 9: bad, 2: bad, 4: bad}, [1]))


def random_problem(rng: random.Random, tie_heavy: bool) -> MatchProblem:
    n_vehicles = rng.randint(1, 5)
    n_requests = rng.randint(0, 6)
    batch = list(range(100, 100 + n_requests))
    cands = {}
    for v in range(n_vehicles):
        rows = [NULL]
        pool = [frozenset(c) for k in (1, 2) for c in combinations(batch, k)]
        rng.shuffle(pool)
        for ids in pool[: rng.randint(0, 6)]:
            score = float(rng.randint(0, 3)) if tie_heavy else rng.uniform(0.0, 3.0)
            rows.append(Candidate(ids, score))
        cands[v] = rows
    return MatchProblem.build(cands, batch)


def test_solver_matches_oracle_on_random_instances():
    rng = random.Random(20240817)
    for i in range(400):
        p = random_problem(rng, tie_heavy=(i % 2 == 0))
        a, b = solve_ilp(p), brute_force_match(p)
        assert a.total_score == b.total_score
        assert a.chosen == b.chosen


def test_solver_matches_oracle_on_near_tied_scores():
    # many vehicles contending for few requests, scores = integer +- small
    # fuzz: the regime where bound rounding once lost a 1-ulp optimum
    rng = random.Random(777777)
    for i in range(300):
        n_vehicles = rng.randint(6, 9)
        batch = list(range(rng.randint(1, 4)))
        cands = {}
        for v in range(n_vehicles):
            rows = [NULL]
            for ids in [frozenset(c) for k in (1, 2) for c in combinations(batch, k)]:
                if rng.random() < 0.6:
                    fuzz = rng.choice([0.0, 0.0, rng.uniform(-0.3, 0.3)])
                    rows.append(Candidate(ids, float(len(ids)) + fuzz))
            cands[v] = rows
        p = MatchProblem.build(cands, batch)
        size = 1
        for v in p.vehicle_ids:
            size *= len(p.candidates[v])
        if size > 10**6:
            continue
        a, b = solve_ilp(p), brute_force_match(p)
        assert a.total_score == b.total_score, i
        assert a.chosen == b.chosen, i


dyadic = st.integers(min_value=0, max_value=192).map(lambda k: k / 64.0)


@st.composite
def dyadic_problems(draw):
    n_vehicles = draw(st.integers(1, 4))
    n_requests = draw(st.integers(0, 5))
    batch = list(range(n_requests))
    cands = {}
    for v in range(n_vehicles):
        rows = [NULL]
        pool = [frozenset(c) for k in (1, 2) for c in combinations(batch, k)]
        chosen = draw(st.lists(st.sampled_from(pool), max_size=5)) if pool else []
        for ids in chosen:
            rows.append(Candidate(ids, draw(dyadic)))
        cands[v] = rows
    return MatchProblem.build(cands, batch)


@settings(max_examples=150, deadline=None)
@given(dyadic_problems())
def test_solver_oracle_property(p):
    a, b = solve_ilp(p), brute_force_match(p)
    assert a.total_score == b.total_score
    assert a.chosen == b.chosen


@settings(max_examples=150, deadline=None)
@given(dyadic_problems(), st.integers(0, 2**16))
def test_greedy_never_beats_ilp(p, seed):
    greedy = async_greedy_match(p, seed)
    assert greedy.total_score <= solve_ilp(p).total_score


def test_greedy_single_vehicle_matches_ilp():
    p = problem({3: [NULL, Candidate(frozenset({1}), 1.0)]}, [1])
    assert async_greedy_match(p, 0).assigned == solve_ilp(p).assigned


def test_greedy_suboptimal_when_wrong_vehicle_first():
    p = two_vehicle_example()
    # find a seed whose shuffle processes vehicle 1 first
    for seed in range(50):
        order = [1, 2]
        random.Random(seed).shuffle(order)
        if order[0] == 1:
            m = async_greedy_match(p, seed)
            assert m.total_score == 2.0
            assert m.assigned[1] == frozenset({1})
            break
    else:
        pytest.fail("no seed put vehicle 1 first")


def test_greedy_deterministic():
    p = two_vehicle_example()
    assert async_greedy_match(p, 17).chosen == async_greedy_match(p, 17).chosen


def test_constant_shift_changes_score_by_constant():
    p = two_vehicle_example()
    base = solve_ilp(p)
    shift = 0.5  # dyadic, keeps float sums exact
    shifted = problem(
        {
            1: [Candidate(c.requests, c.score + shift) for c in p.candidates[1]],
            2: list(p.candidates[2]),
        },
        p.batch_ids,
    )
    m = solve_ilp(shifted)
    assert m.total_score == base.total_score + shift
    assert m.chosen == base.chosen


def test_matching_invariants_hold_structurally():
    rng = random.Random(5)
    for _ in range(100):
        p = random_problem(rng, tie_heavy=True)
        m = solve_ilp(p)
        assert set(m.chosen) == set(p.vehicle_ids)
        seen = set()
        total = 0.0
        for v in p.vehicle_ids:
            ids = m.assigned[v]
            assert not (ids & seen)
            seen |= ids
            total += p.candidates[v][m.chosen[v]].score
        assert total == m.total_score


def test_matching_maps_exactly_its_vehicles():
    m = solve_ilp(two_vehicle_example())
    assert dict(m.chosen) == {1: 2, 2: 1}
    assert list(m.assigned) == [1, 2]
    assert 0 not in m.chosen and m.assigned.get(3) is None
    with pytest.raises(KeyError):
        m.chosen[0]


def test_matching_stores_only_non_default_vehicles_and_answers_all():
    """Matchings keep only vehicles off index 0 or serving requests; the
    rest answer by default, whatever index their null candidate sits at."""
    p = problem(
        {
            5: [Candidate(frozenset({1}), 2.0), NULL],  # non-null index 0, chosen
            3: [Candidate(frozenset({1}), 1.0), Candidate(frozenset({1}), 0.5), NULL],
            1: [NULL, Candidate(frozenset({2}), -1.0)],
        },
        [1, 2],
    )
    for m in (solve_ilp(p), brute_force_match(p)):
        assert m.chosen == {1: 0, 3: 2, 5: 0}
        assert m.assigned == {1: frozenset(), 3: frozenset(), 5: frozenset({1})}
        assert list(m.chosen) == list(m.assigned) == [1, 3, 5]
        assert list(m.chosen.items()) == [(1, 0), (3, 2), (5, 0)]
        for unknown in (0, 2, 4, 6):
            with pytest.raises(KeyError):
                m.chosen[unknown]
            with pytest.raises(KeyError):
                m.assigned[unknown]


def test_matching_memory_follows_the_vehicles_served():
    """A 200-vehicle window in which two vehicles serve costs well under the
    two pointers per vehicle a dense matching would hold."""
    import tracemalloc

    cands = {v: [NULL] for v in range(200)}
    for v in (17, 140):
        cands[v] = [NULL, Candidate(frozenset({v}), 1.0)]
    p = problem(cands, [17, 140])
    kept = [None] * 100
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(100):
            kept[k] = solve_ilp(p)
        per_matching = (tracemalloc.get_traced_memory()[0] - before) / 100
    finally:
        tracemalloc.stop()
    assert kept[0].served_request_ids() == {17, 140}
    assert per_matching < 1200, per_matching


def test_problem_json_roundtrip():
    p = two_vehicle_example()
    doc = problem_to_json(p)
    parsed = json.loads(doc)
    assert {entry["id"] for entry in parsed["vehicles"]} == {1, 2}
    q = problem_from_json(doc)
    assert q == p
    assert solve_ilp(q).total_score == solve_ilp(p).total_score


@pytest.mark.parametrize(
    "text, message",
    [
        ("{not json", "Expecting property name"),
        ("[]", "missing field 'vehicles'"),
        ('{"vehicles": []}', "missing field 'requests'"),
        ('{"vehicles": [{"id": 1}], "requests": []}', r"missing field 'vehicles\[0\]\.actions'"),
        ('{"vehicles": {}, "requests": []}', "field 'vehicles': expected a list"),
        ('{"vehicles": [{"id": "1", "actions": []}], "requests": []}', "expected an integer, got '1'"),
        ('{"vehicles": [{"id": true, "actions": []}], "requests": []}', "expected an integer, got True"),
        ('{"vehicles": [], "requests": [1.5]}', "field 'requests': expected a list of integers"),
        (
            '{"vehicles": [{"id": 1, "actions": [{"requests": "12", "score": 0}]}], "requests": []}',
            r"actions\[0\]\.requests': expected a list of integers",
        ),
        (
            '{"vehicles": [{"id": 1, "actions": [{"requests": [], "score": NaN}]}], "requests": []}',
            r"actions\[0\]\.score': expected a finite number, got nan",
        ),
        (
            '{"vehicles": [{"id": 1, "actions": [{"requests": [], "score": 1e999}]}], "requests": []}',
            "expected a finite number, got inf",
        ),
        (
            '{"vehicles": [{"id": 1, "actions": []}, {"id": 1, "actions": []}], "requests": []}',
            "duplicate vehicle id 1",
        ),
    ],
)
def test_problem_from_json_refuses_a_malformed_dump(text, message):
    with pytest.raises(ParseError, match=message):
        problem_from_json(text)


def test_problem_from_json_names_the_file(tmp_path):
    path = tmp_path / "window.json"
    path.write_text('{"vehicles": [], "requests": [-1e999]}')
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: field 'requests'"):
        problem_from_json(path)
    path.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: "):
        problem_from_json(path)


FIXTURES = Path(__file__).parent / "fixtures"


def milp_optimum(p: MatchProblem) -> float:
    """Zero-gap HiGHS optimum of the whole assignment ILP, built independently of the solver."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    columns = [(v, i) for v in p.vehicle_ids for i in range(len(p.candidates[v]))]
    row = {("vehicle", v): k for k, v in enumerate(p.vehicle_ids)}
    for rid in sorted(p.batch_ids):
        row[("request", rid)] = len(row)
    a = np.zeros((len(row), len(columns)))
    for j, (v, i) in enumerate(columns):
        a[row[("vehicle", v)], j] = 1.0
        for rid in p.candidates[v][i].requests:
            a[row[("request", rid)], j] = 1.0
    lower = [1.0 if kind == "vehicle" else 0.0 for kind, _ in row]
    scores = np.array([p.candidates[v][i].score for v, i in columns])
    result = milp(
        -scores,
        constraints=LinearConstraint(a, lower, 1.0),
        integrality=np.ones(len(columns)),
        bounds=Bounds(0.0, 1.0),
        options={"mip_rel_gap": 0},
    )
    assert result.status == 0, result.message
    return -result.fun


@pytest.mark.parametrize(
    "fixture",
    [
        # contended-windows capture (city-S, capture seed 0), window 1: a 28-vehicle component
        "contended-city-S-window1.json",
        # desk day: demand seed 32003, fleet seed 33003, beta=delta=20 plus, window 3
        "desk-day32003-window3.json",
    ],
)
def test_budget_overrun_is_solved_by_highs(fixture, monkeypatch):
    p = problem_from_json(FIXTURES / fixture)
    handed_over = []
    highs = matcher._solve_with_highs

    def spy(vehicles, masks):
        handed_over.append(vehicles)
        return highs(vehicles, masks)

    monkeypatch.setattr(matcher, "_solve_with_highs", spy)
    first = solve_ilp(p)
    assert handed_over, "the exact search stayed within its budget"
    seen: set[int] = set()
    for v in p.vehicle_ids:
        ids = p.candidates[v][first.chosen[v]].requests
        assert not ids & seen
        seen |= ids
    best = milp_optimum(p)
    assert abs(first.total_score - best) <= 1e-6 * (1.0 + abs(best))
    assert solve_ilp(p).chosen == first.chosen


def test_highs_path_keeps_the_oracle_tie_break(monkeypatch):
    # with no search budget every component of two or more vehicles goes to HiGHS
    monkeypatch.setattr(matcher, "SEARCH_BUDGET", 0)
    rng = random.Random(4242)
    for i in range(200):
        p = random_problem(rng, tie_heavy=(i % 2 == 0))
        a, b = solve_ilp(p), brute_force_match(p)
        assert a.chosen == b.chosen, i
        assert a.total_score == b.total_score, i


def test_search_budget_decides_a_one_ulp_near_tie(monkeypatch):
    """The two matcher paths break a near-tie differently, as the README says.

    The fixture is the 22-vehicle component of window 3 of city-greedy's
    scenario at seed 0 under the exact matcher (75 candidates); its window
    also holds a 62-vehicle component.  Both totals below are 36.4 in exact
    arithmetic.  HiGHS treats them as tied and keeps the lexicographically
    smaller assignment; the exact search, given the budget to finish, keeps
    the one ulp higher total.  A change to SEARCH_BUDGET that moves this
    component to the other path fails here.
    """
    p = problem_from_json(FIXTURES / "city-exact-window3-component22.json")
    handed_over = []
    highs = matcher._solve_with_highs

    def spy(vehicles, masks):
        handed_over.append(vehicles)
        return highs(vehicles, masks)

    monkeypatch.setattr(matcher, "_solve_with_highs", spy)
    bounded = solve_ilp(p)
    assert handed_over == [sorted(p.vehicle_ids)]
    assert bounded.total_score.hex() == "0x1.2333333333333p+5"

    monkeypatch.setattr(matcher, "SEARCH_BUDGET", 10**12)
    exact = solve_ilp(p)
    assert len(handed_over) == 1
    assert exact.total_score.hex() == "0x1.2333333333334p+5"
    indices = [[m.chosen[v] for v in p.vehicle_ids] for m in (bounded, exact)]
    assert indices[1] > indices[0]


def test_one_vehicle_components_take_their_lowest_top_index(monkeypatch):
    """One-vehicle components are solved without the search or HiGHS, and
    still agree with the oracle under tied maxima and ties with the null."""

    def forbidden(vehicles, masks):
        raise AssertionError(f"component {vehicles} was handed to HiGHS")

    monkeypatch.setattr(matcher, "SEARCH_BUDGET", 0)
    monkeypatch.setattr(matcher, "_solve_with_highs", forbidden)
    tied = problem(
        {
            0: [NULL, Candidate(frozenset({1}), 0.0)],
            1: [Candidate(frozenset({2}), 1.0), NULL, Candidate(frozenset({3}), 2.0),
                Candidate(frozenset({2, 3}), 2.0)],
            2: [Candidate(frozenset({4}), -1.0), Candidate(frozenset(), -1.0)],
        },
        [1, 2, 3, 4],
    )
    problems = [tied]
    rng = random.Random(6060)
    for _ in range(300):
        cands, batch = {}, []
        for v in range(rng.randint(1, 6)):
            own = [10 * v + k for k in range(rng.randint(0, 3))]
            batch += own
            pool = [frozenset(c) for k in (1, 2) for c in combinations(own, k)]
            picked = rng.sample(pool, rng.randint(0, len(pool)))
            rows = [Candidate(ids, float(rng.randint(-1, 2))) for ids in picked]
            null = Candidate(frozenset(), float(rng.randint(-1, 1)))
            rows.insert(rng.randint(0, len(rows)), null)
            cands[v] = rows
        problems.append(MatchProblem.build(cands, batch))
    for i, p in enumerate(problems):
        a, b = solve_ilp(p), brute_force_match(p)
        assert a.chosen == b.chosen, i
        assert a.total_score == b.total_score, i
    assert dict(solve_ilp(tied).chosen) == {0: 0, 1: 2, 2: 0}


def test_tie_plateau_stays_in_the_exact_search(monkeypatch):
    """Twelve vehicles tied on four requests: every assignment serving all
    four totals 4.0, so only the lexicographic prune keeps the search
    within its budget."""

    def forbidden(vehicles, masks):
        raise AssertionError(f"component {vehicles} was handed to HiGHS")

    monkeypatch.setattr(matcher, "_solve_with_highs", forbidden)
    # 5**12 joint actions exceed the oracle's budget, but it only walks the
    # 18,001 that serve each request at most once
    monkeypatch.setattr(matcher, "BRUTE_FORCE_BUDGET", 5**12)
    cands = {v: [NULL] + [Candidate(frozenset({r}), 1.0) for r in range(4)] for v in range(12)}
    p = problem(cands, range(4))
    a, b = solve_ilp(p), brute_force_match(p)
    assert a.chosen == b.chosen
    assert a.total_score == b.total_score == 4.0
    assert list(a.chosen.values()) == [0] * 8 + [1, 2, 3, 4]


def test_oracle_tests_never_leave_the_exact_search(monkeypatch):
    """The oracle-equality tests check the exact search: none of their
    generated components exceeds the search budget."""
    from test_acceptance import random_match_problem

    def forbidden(vehicles, masks):
        raise AssertionError(f"component {vehicles} exceeded the search budget")

    monkeypatch.setattr(matcher, "_solve_with_highs", forbidden)
    test_solver_matches_oracle_on_random_instances()
    test_solver_matches_oracle_on_near_tied_scores()
    test_solver_oracle_property()
    rng = random.Random(1001)
    for _ in range(500):
        solve_ilp(random_match_problem(rng))
