"""Reference computations and output checks for the dispatch benchmark.

Everything here runs outside the timed phase.  The references are written
independently of the code they check: the assignment optimum comes from a
MILP solved by HiGHS (through `scipy.optimize.milp`), the Gini coefficient
from the pairwise-difference formula, and percentiles by nearest rank.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

from fairdispatch.matcher import MatchProblem, Matching, brute_force_match

# HiGHS stops at an absolute objective gap of 1e-6 even with a zero relative
# gap, so two optimal totals may differ by that much plus float rounding.
OPTIMUM_TOLERANCE = 1e-6

# Largest joint-assignment count handed to the brute-force oracle when
# checking the tie-break; above it a component is checked by the MILP alone.
BRUTE_FORCE_LIMIT = 5000


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def charged(latencies: Sequence[float], failed: Sequence[bool], limit: float) -> list[float]:
    """Latencies with every failed operation charged the full limit."""
    return [limit if bad else value for value, bad in zip(latencies, failed)]


def pairwise_gini(values: Sequence[float]) -> float:
    """Sum of |x_i - x_j| over all ordered pairs, over 2 n^2 times the mean."""
    n = len(values)
    total = math.fsum(values)
    if n == 0 or total == 0:
        return 0.0
    spread = math.fsum(abs(a - b) for a in values for b in values)
    return spread / (2.0 * n * total)


def milp_optima(problems: Sequence[MatchProblem]) -> list[tuple[float, dict[int, int]]]:
    """Zero-gap MILP optimum of each assignment problem, solved as one block-diagonal MILP.

    One binary per candidate; each vehicle takes exactly one candidate and
    each request is covered at most once.  The problems share no variable,
    so the joint optimum is optimal for each of them.  Returns, per problem,
    the chosen total summed in ascending vehicle order, as the matcher sums
    it, and the chosen candidate indices.
    """
    columns, scores = [], []
    eq_rows, eq_cols, le_rows, le_cols = [], [], [], []
    n_eq = n_le = 0
    for k, p in enumerate(problems):
        request_row = {rid: n_le + j for j, rid in enumerate(sorted(p.batch_ids))}
        n_le += len(request_row)
        for v in p.vehicle_ids:
            for i, c in enumerate(p.candidates[v]):
                col = len(columns)
                columns.append((k, v, i))
                scores.append(c.score)
                eq_rows.append(n_eq)
                eq_cols.append(col)
                for rid in c.requests:
                    le_rows.append(request_row[rid])
                    le_cols.append(col)
            n_eq += 1
    n = len(columns)
    constraints = [
        LinearConstraint(csr_matrix((np.ones(n), (eq_rows, eq_cols)), shape=(n_eq, n)), 1, 1)
    ]
    if n_le:
        constraints.append(
            LinearConstraint(
                csr_matrix((np.ones(len(le_rows)), (le_rows, le_cols)), shape=(n_le, n)), 0, 1
            )
        )
    result = milp(
        -np.array(scores),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
        constraints=constraints,
        options={"mip_rel_gap": 0.0},
    )
    if not result.success:
        raise RuntimeError(f"reference MILP failed: {result.message}")
    chosen: list[dict[int, int]] = [{} for _ in problems]
    for (k, v, i), x in zip(columns, result.x):
        if x > 0.5:
            chosen[k][v] = i
    out = []
    for p, picked in zip(problems, chosen):
        bad = feasibility_problem(p, picked)
        if bad:
            raise RuntimeError(f"reference MILP returned an infeasible assignment: {bad}")
        total = 0.0
        for v in p.vehicle_ids:
            total += p.candidates[v][picked[v]].score
        out.append((total, picked))
    return out


def feasibility_problem(p: MatchProblem, chosen: Mapping[int, int]) -> str | None:
    """Why `chosen` is not one candidate per vehicle with disjoint requests, or None."""
    if set(chosen) != set(p.vehicle_ids):
        return "not exactly one candidate per vehicle"
    seen: set[int] = set()
    for v in p.vehicle_ids:
        if not 0 <= chosen[v] < len(p.candidates[v]):
            return f"vehicle {v} chose a candidate index out of range"
        ids = p.candidates[v][chosen[v]].requests
        if ids & seen:
            return f"requests {sorted(ids & seen)} served twice"
        seen |= ids
    return None


def matching_problem(p: MatchProblem, m: Matching) -> str | None:
    """Why `m` is not a feasible assignment consistent with its own fields, or None."""
    bad = feasibility_problem(p, m.chosen)
    if bad:
        return bad
    for v in p.vehicle_ids:
        if m.assigned[v] != p.candidates[v][m.chosen[v]].requests:
            return f"vehicle {v}: assigned requests disagree with the chosen candidate"
    total = 0.0
    for v in p.vehicle_ids:
        total += p.candidates[v][m.chosen[v]].score
    if total != m.total_score:
        return f"total {m.total_score!r} is not the sum of chosen scores {total!r}"
    return None


def components(p: MatchProblem) -> list[list[int]]:
    """Vehicles linked, directly or transitively, by a request they could both serve."""
    parent = {v: v for v in p.vehicle_ids}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    owner: dict[int, int] = {}
    for v in p.vehicle_ids:
        for c in p.candidates[v]:
            for rid in c.requests:
                if rid in owner:
                    parent[find(v)] = find(owner[rid])
                else:
                    owner[rid] = v
    groups: dict[int, list[int]] = {}
    for v in p.vehicle_ids:
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def subproblem(p: MatchProblem, vehicles: Sequence[int]) -> MatchProblem:
    cands = {v: p.candidates[v] for v in vehicles}
    batch = {rid for v in vehicles for c in cands[v] for rid in c.requests}
    return MatchProblem.build(cands, batch)


def tie_break_problems(p: MatchProblem, m: Matching) -> tuple[int, list[str]]:
    """Compare chosen indices with the brute-force oracle on every small component.

    Returns how many components were small enough to check, and a message
    for each one whose chosen indices differ from the oracle's.
    """
    checked, errors = 0, []
    for group in components(p):
        if len(group) == 1 and len(p.candidates[group[0]]) == 1:
            continue
        size = 1
        for v in group:
            size *= len(p.candidates[v])
        if size > BRUTE_FORCE_LIMIT:
            continue
        checked += 1
        oracle = brute_force_match(subproblem(p, group))
        mine = {v: m.chosen[v] for v in group}
        if oracle.chosen != mine:
            errors.append(f"vehicles {group}: chose {mine}, oracle {oracle.chosen}")
    return checked, errors


def optimum_problems(problems: Sequence[MatchProblem], matchings: Sequence[Matching]) -> list[str | None]:
    """For each window, why its matching is infeasible or short of the MILP optimum, or None."""
    out = []
    for p, m, (best, _) in zip(problems, matchings, milp_optima(problems)):
        bad = matching_problem(p, m)
        if not bad and abs(best - m.total_score) > OPTIMUM_TOLERANCE * (1.0 + abs(best)):
            bad = f"total {m.total_score!r} differs from the MILP optimum {best!r}"
        out.append(bad)
    return out


def run_problems(result, requests: Sequence, window_len: float) -> list[str]:
    """Checks on one `run_simulation` result recorded with `record_trace=True`.

    Every served request is matched exactly once, in the window its arrival
    falls in; final incomes sum to the served count (every request is worth
    1); and both F_Gini reports match the pairwise-difference formula on the
    final histories.
    """
    errors: list[str] = []
    arrival = {r.id: r.arrival for r in requests}
    matched: set[int] = set()
    for k, window in enumerate(result.matchings):
        for vid, ids in window.items():
            for rid in ids:
                if rid in matched:
                    errors.append(f"request {rid} matched twice")
                matched.add(rid)
                if not k * window_len <= arrival[rid] < (k + 1) * window_len:
                    errors.append(f"request {rid} matched in window {k}, outside its arrival window")
    if len(matched) != result.total_served:
        errors.append(f"{len(matched)} requests matched but {result.total_served} reported served")

    income = math.fsum(result.driver_history.incomes.values())
    if income != result.total_served:
        errors.append(f"incomes sum to {income!r}, not the {result.total_served} served")

    hist_p = result.passenger_history
    rates = [hist_p.served.get(g, 0) / hist_p.requested[g] for g in hist_p.observed_groups()]
    incomes = list(result.driver_history.incomes.values())
    top = max(incomes)
    scaled = [x / top for x in incomes] if top > 0 else [0.0] * len(incomes)
    for side, values, report in (
        ("passenger", rates, result.passenger_report),
        ("driver", scaled, result.driver_report),
    ):
        expected = 1.0 - pairwise_gini(values)
        if abs(expected - report.f_gini) > 1e-9:
            errors.append(f"{side} F_Gini {report.f_gini!r} differs from {expected!r}")
    return errors
