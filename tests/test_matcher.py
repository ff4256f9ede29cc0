from __future__ import annotations

import hashlib
import json
import random
import re
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fairdispatch import matcher
from fairdispatch.errors import ContractError, InputError, InstanceTooLargeError, ParseError
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


@pytest.mark.parametrize(
    "chosen",
    [{1: 1}, {1: 1, 2: 0, 3: 0}, {1: 1, 3: 0}],
    ids=["a missing vehicle", "a stray vehicle", "a stray vehicle for a missing one"],
)
def test_a_matching_needs_one_action_per_vehicle(chosen):
    p = two_vehicle_example()
    assert matcher._finish(p, {1: 2, 2: 1}).total_score == 2.9
    with pytest.raises(ContractError, match="exactly one action per vehicle"):
        matcher._finish(p, chosen)


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
    masks, reach, picks = matcher._read(MatchProblem.build({v: shared for v in (4, 2, 9)}, []))
    assert masks[2] is masks[4] is masks[9] == [(0, 0.0)]
    assert reach == {} and picks == {2: 0, 4: 0, 9: 0}
    for bad, message in [
        ((Candidate(frozenset(), float("nan")),), "vehicle 2 candidate 0 has a non-finite score"),
        ((Candidate(frozenset({1}), 1.0),), "vehicle 2 has no null candidate"),
        ((NULL, Candidate(frozenset({7}), 1.0)), r"vehicle 2 references requests outside the batch: \[7\]"),
    ]:
        with pytest.raises(InputError, match=message):
            solve(MatchProblem.build({0: (NULL,), 9: bad, 2: bad, 4: bad}, [1]))


@pytest.mark.parametrize(
    "solve", [solve_ilp, brute_force_match, lambda p: async_greedy_match(p, 0)]
)
def test_errors_follow_vehicle_ids_past_shared_tuples(solve):
    """The first malformed vehicle in ascending id order is named, whether its
    tuple is shared or follows a shared null-only tuple; within a tuple the
    rows are checked in order."""
    nan, inf = float("nan"), float("inf")
    null_only = (Candidate(frozenset(), -1.0), Candidate(frozenset(), 0.5))
    no_null = (Candidate(frozenset({1}), 1.0),)
    nan_then_stray = (NULL, Candidate(frozenset({1}), nan), Candidate(frozenset({7}), 1.0))
    stray = (NULL, Candidate(frozenset({7, 8}), 1.0))
    cases = [
        # a malformed tuple shared by two vehicles, before another malformed vehicle
        ({0: null_only, 5: no_null, 3: no_null, 7: stray}, "vehicle 3 has no null candidate"),
        ({5: nan_then_stray, 3: nan_then_stray, 1: null_only},
         "vehicle 3 candidate 1 has a non-finite score: nan"),
        # a malformed vehicle after a shared null-only tuple
        ({0: null_only, 1: null_only, 2: stray, 3: null_only, 4: (Candidate(frozenset(), nan),)},
         "vehicle 2 references requests outside the batch: [7, 8]"),
        ({0: null_only, 2: null_only, 6: no_null, 9: null_only}, "vehicle 6 has no null candidate"),
        # a null-only tuple that is itself malformed, shared
        ({1: null_only, 6: (NULL, Candidate(frozenset(), inf)), 8: (NULL, Candidate(frozenset(), inf))},
         "vehicle 6 candidate 1 has a non-finite score: inf"),
    ]
    for cands, message in cases:
        with pytest.raises(InputError) as raised:
            solve(MatchProblem.build(cands, [1]))
        assert str(raised.value) == message


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


CLIFF_FIXTURES = ("contended-city-S-window1.json", "desk-day32003-window3.json")


def public_highs_solve(p: MatchProblem, vehicles, fixed, used, integral, nudged):
    """One `_HighsModel.solve` call posed to scipy's public linprog or milp.

    The same columns, costs, bounds and rows: request rows in order of first
    use over the component's columns, over the free vehicles' rows for the
    LP (linprog's A_ub over A_eq) and under them for the MILP.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, linprog, milp

    masks, _, _ = matcher._read(p)
    bits: list[int] = []
    for v in vehicles:
        for mask, _ in masks[v]:
            for k in range(mask.bit_length()):
                if mask >> k & 1 and 1 << k not in bits:
                    bits.append(1 << k)
    free = [v for v in vehicles if v not in fixed]
    if not free:
        return {}, {}
    columns = [(v, i) for v in free for i, (mask, _) in enumerate(masks[v]) if not mask & used]
    a_ub = np.zeros((len(bits), len(columns)))
    a_eq = np.zeros((len(free), len(columns)))
    cost = np.zeros(len(columns))
    n = len(vehicles)
    for j, (v, i) in enumerate(columns):
        mask, score = masks[v][i]
        a_eq[free.index(v), j] = 1.0
        for r, bit in enumerate(bits):
            if mask & bit:
                a_ub[r, j] = 1.0
        weight = (n - vehicles.index(v)) / n
        cost[j] = -score + matcher._LEX_NUDGE * i * weight if nudged else -score
    if integral:
        result = milp(
            cost,
            constraints=[LinearConstraint(a_eq, 1.0, 1.0), LinearConstraint(a_ub, -np.inf, 1.0)],
            integrality=np.ones(len(columns)),
            bounds=Bounds(0.0, 1.0),
            options={"mip_rel_gap": 0},
        )
    else:
        result = linprog(
            cost,
            A_ub=a_ub,
            b_ub=np.ones(len(bits)),
            A_eq=a_eq,
            b_eq=np.ones(len(free)),
            bounds=(0.0, 1.0),
            method="highs-ds",
        )
    assert result.status == 0, result.message
    chosen = None
    if np.abs(result.x - np.round(result.x)).max() <= 1e-6:
        chosen = {columns[k][0]: columns[k][1] for k in np.flatnonzero(result.x > 0.5)}
    if integral:
        return chosen, {}
    return chosen, {bit: max(0.0, -float(d)) for bit, d in zip(bits, result.ineqlin.marginals)}


def tie_heavy_component(rng: random.Random) -> MatchProblem:
    """Vehicles contending for a few requests, in bundles of up to three, at integer scores."""
    batch = list(range(rng.randint(3, 6)))
    pool = [frozenset(c) for k in (1, 2, 3) for c in combinations(batch, k)]
    cands = {
        v: [NULL] + [Candidate(ids, float(rng.randint(0, 3))) for ids in rng.sample(pool, rng.randint(1, 6))]
        for v in range(rng.randint(2, 7))
    }
    return MatchProblem.build(cands, batch)


def test_direct_highs_solves_equal_scipys_public_solvers(monkeypatch):
    """Every solve of the HiGHS path returns what linprog or milp return for
    the same problem: the same assignment, and prices equal bit for bit."""
    calls = []
    solve = matcher._HighsModel.solve

    def spy(model, fixed, used, integral, nudged=False):
        out = solve(model, fixed, used, integral, nudged)
        calls.append((model.vehicles, dict(fixed), used, integral, nudged, out))
        return out

    monkeypatch.setattr(matcher._HighsModel, "solve", spy)
    cases = [(problem_from_json(FIXTURES / name), matcher.SEARCH_BUDGET) for name in CLIFF_FIXTURES]
    rng = random.Random(3030)
    cases += [(tie_heavy_component(rng), 0) for _ in range(60)]
    kinds = set()
    for p, budget in cases:
        monkeypatch.setattr(matcher, "SEARCH_BUDGET", budget)
        calls.clear()
        solve_ilp(p)
        assert calls, "no component was handed to HiGHS"
        for vehicles, fixed, used, integral, nudged, (chosen, prices) in calls:
            want_chosen, want_prices = public_highs_solve(p, vehicles, fixed, used, integral, nudged)
            assert chosen == want_chosen
            assert {b: x.hex() for b, x in prices.items()} == {b: x.hex() for b, x in want_prices.items()}
            kinds.add((integral, nudged))
    assert kinds >= {(False, False), (False, True), (True, True)}


def test_handover_results_do_not_depend_on_solve_order(monkeypatch):
    """A window's matching depends on its problem alone: handovers solved
    forward, reversed or shuffled, between windows that need none, give the
    same matchings and totals bit for bit."""
    handed_over = []
    highs = matcher._solve_with_highs

    def spy(vehicles, masks):
        handed_over.append(vehicles)
        return highs(vehicles, masks)

    monkeypatch.setattr(matcher, "_solve_with_highs", spy)
    plateau = {v: [NULL] + [Candidate(frozenset({r}), 1.0) for r in range(4)] for v in range(12)}
    handovers = [(problem_from_json(FIXTURES / name), matcher.SEARCH_BUDGET) for name in CLIFF_FIXTURES]
    handovers.append((problem(plateau, range(4)), 0))
    rng = random.Random(5150)
    quiet = [(random_problem(rng, tie_heavy=True), matcher.SEARCH_BUDGET) for _ in range(9)]
    cases = []
    for k, handover in enumerate(handovers):
        cases += [handover, *quiet[3 * k : 3 * k + 3]]
    forward = list(range(len(cases)))
    orders = [forward, forward[::-1]]
    for seed in (1, 2):
        shuffled = forward[:]
        random.Random(seed).shuffle(shuffled)
        orders.append(shuffled)
    outcomes = []
    for order in orders:
        outcome = {}
        for k in order:
            p, budget = cases[k]
            monkeypatch.setattr(matcher, "SEARCH_BUDGET", budget)
            handed_over.clear()
            m = solve_ilp(p)
            outcome[k] = (dict(m.chosen), m.total_score.hex(), len(handed_over))
        outcomes.append(outcome)
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])
    assert [k for k, (_, _, n) in outcomes[0].items() if n] == [0, 4, 8]


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


def null_heavy_problem(rng: random.Random) -> MatchProblem:
    """Vehicles holding shared null-only tuples, equal but unshared copies of
    them (as problem_from_json builds them), fresh null-only tuples, and
    vehicles that reach requests.  Null-only tuples have one to three rows;
    scores include ties away from index 0, negatives and -0.0."""
    scores = [0.0, -0.0, -1.0, -0.25, 1.0, 1.0, 2.0]

    def null_rows() -> tuple[Candidate, ...]:
        return tuple(Candidate(frozenset(), rng.choice(scores)) for _ in range(rng.choice([1, 1, 2, 3])))

    shared = [null_rows() for _ in range(rng.randint(1, 3))]
    batch = list(range(100, 100 + rng.randint(0, 4)))
    pool = [frozenset(c) for k in (1, 2) for c in combinations(batch, k)]
    cands = {}
    for v in rng.sample(range(30), rng.randint(1, 10)):
        kind = rng.random()
        if kind < 0.45:
            cands[v] = rng.choice(shared)
        elif kind < 0.6:
            cands[v] = tuple(list(rng.choice(shared)))
        elif kind < 0.75 or not pool:
            cands[v] = null_rows()
        else:
            rows = list(null_rows())
            for ids in rng.sample(pool, rng.randint(1, min(3, len(pool)))):
                rows.insert(rng.randint(0, len(rows)), Candidate(ids, rng.choice(scores)))
            cands[v] = rows
    return MatchProblem.build(cands, batch)


def null_heavy_problems(count: int) -> list[MatchProblem]:
    rng = random.Random(3131)
    problems = []
    while len(problems) < count:
        p = null_heavy_problem(rng)
        size = 1
        for v in p.vehicle_ids:
            size *= len(p.candidates[v])
        if size <= 5000:
            problems.append(p)
    return problems


def test_null_only_vehicles_take_the_oracles_pick():
    """Vehicles whose candidates reach no request, many of them sharing one
    tuple, match the oracle beside vehicles that compete for requests."""
    problems = null_heavy_problems(400)
    shared = tied_late = several_nulls = negative_zero = 0
    for i, p in enumerate(problems):
        a, b = solve_ilp(p), brute_force_match(p)
        assert dict(a.chosen) == dict(b.chosen), i
        assert dict(a.assigned) == dict(b.assigned), i
        assert a.total_score.hex() == b.total_score.hex(), i
        tuples = Counter(id(c) for c in p.candidates.values())
        shared += any(n > 1 for n in tuples.values())
        for v in p.vehicle_ids:
            rows = [c.score for c in p.candidates[v]]
            if any(c.requests for c in p.candidates[v]):
                continue
            several_nulls += len(rows) > 1
            tied_late += rows.count(max(rows)) > 1 and rows[0] != max(rows)
            negative_zero += any(str(s) == "-0.0" for s in rows)
    assert min(shared, tied_late, several_nulls, negative_zero) >= 40


# sha256 of async_greedy_match's results over null_heavy_problems(400) at
# seeds 0-2, recorded before null-only vehicles took their pick in it.
GREEDY_DIGEST = "d7d1cf4c0b2ea55aa823174454906e1d4b951a101be72e7a6068f2955f35b435"


def test_greedy_results_are_pinned():
    results = []
    for p in null_heavy_problems(400):
        for seed in range(3):
            m = async_greedy_match(p, seed)
            results.append([sorted(m.chosen.items()), sorted((v, sorted(r)) for v, r in m.assigned.items()),
                            m.total_score.hex()])
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    assert digest == GREEDY_DIGEST


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
