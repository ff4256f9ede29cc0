"""Per-window assignment: exact solver, brute-force oracle, greedy baseline.

The assignment problem picks exactly one candidate action per vehicle so
that no request is served twice, maximising the summed scores.  The exact
solver decomposes the problem into components of vehicles linked by shared
requests and runs one depth-first branch-and-bound per component, over
vehicles in ascending id order, that returns the lexicographically
smallest optimal assignment (by candidate index).

Totals and the per-vehicle bound accumulate one score per vehicle in
ascending id order; floating-point addition is monotone, so that bound can
never undercut the total of any assignment beneath it, and pruning against
the incumbent (strictly below its total, or equal to it under a
lexicographically greater index prefix) is exact even under ties.  A
component of one vehicle needs no search: it takes the lowest candidate
index among its maximum scores, which is what the search returns for it.

The search of one component has a deterministic work budget
(SEARCH_BUDGET, counted in search nodes times component vehicles, never
in wall time), just above what the largest tie plateau of the tests needs,
so a component the search cannot finish wastes little before the handover.
A component that exceeds it is solved by HiGHS through scipy instead: LP
relaxations and zero-gap MILPs give the optimum, and fixing vehicles in
ascending id order rebuilds the same tie-break.  Within the budget results
are exact and lexicographic; beyond it they are optimal and tie-broken to
HiGHS's tolerance.  scipy's `optimize` is imported with this module, so
the first handover of a process does not pay for it.

A Matching stores only the vehicles that leave candidate index 0 or serve
requests, so its size follows the vehicles served, not the fleet.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left
from dataclasses import dataclass
from math import inf, isfinite
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import optimize  # linprog and milp are read through it, so patching them applies
from scipy.optimize import Bounds, LinearConstraint
from scipy.sparse import csc_array

from ._records import is_finite_number
from .errors import ContractError, InputError, InstanceTooLargeError, ParseError


@dataclass(frozen=True)
class Candidate:
    """One scorable action of one vehicle, reduced to its request-id set."""

    requests: frozenset[int]
    score: float


@dataclass(frozen=True)
class MatchProblem:
    vehicle_ids: tuple[int, ...]
    candidates: dict[int, tuple[Candidate, ...]]
    batch_ids: frozenset[int]

    @classmethod
    def build(
        cls,
        candidates: Mapping[int, Sequence[Candidate]],
        batch_ids: Iterable[int],
    ) -> "MatchProblem":
        vehicle_ids = tuple(sorted(candidates))
        frozen = {v: tuple(candidates[v]) for v in vehicle_ids}
        return cls(vehicle_ids, frozen, frozenset(batch_ids))


_NO_REQUESTS: frozenset[int] = frozenset()


class _ByVehicle(Mapping):
    """Read-only mapping from a problem's sorted vehicle ids to one value each.

    Stores only the vehicles whose value differs from `default` and answers
    every other vehicle of the shared sorted `vehicle_ids` with it: in a
    window most vehicles take their null action, so a matching costs about
    as much as the vehicles it serves, which matters to callers that keep
    the matchings of many windows.
    """

    __slots__ = ("_vehicles", "_values", "_default")

    def __init__(self, vehicles: tuple[int, ...], values: dict, default) -> None:
        self._vehicles = vehicles
        self._values = values
        self._default = default

    def __getitem__(self, v: int):
        value = self._values.get(v)  # stored values are never None
        if value is not None:
            return value
        k = bisect_left(self._vehicles, v)
        if k == len(self._vehicles) or self._vehicles[k] != v:
            raise KeyError(v)
        return self._default

    def __iter__(self):
        return iter(self._vehicles)

    def __len__(self) -> int:
        return len(self._vehicles)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


@dataclass(frozen=True, slots=True)
class Matching:
    """One chosen candidate index per vehicle; requests pairwise disjoint."""

    chosen: Mapping[int, int]
    assigned: Mapping[int, frozenset[int]]
    total_score: float

    def served_request_ids(self) -> frozenset[int]:
        return frozenset().union(*_stored(self.assigned, _NO_REQUESTS).values())

    def nonzero_choices(self) -> Mapping[int, int]:
        """Each vehicle whose chosen candidate index is not 0, with that index."""
        return _stored(self.chosen, 0)


def _stored(values: Mapping, default) -> Mapping:
    """The entries of a per-vehicle mapping that differ from `default`; a sparse one stores just these."""
    if isinstance(values, _ByVehicle):
        return values._values
    return {v: value for v, value in values.items() if value != default}


def _masks(p: MatchProblem) -> dict[int, list[tuple[int, float]]]:
    """Each vehicle's (request bitmask, score) rows; refuses a malformed problem as it reads it.

    Vehicles that share one candidate tuple share its rows, which are read
    and checked once, at the first of them.
    """
    bit = {rid: 1 << i for i, rid in enumerate(sorted(p.batch_ids))}
    out: dict[int, list[tuple[int, float]]] = {}
    rows_of: dict[int, list[tuple[int, float]]] = {}  # by id of the candidate tuple
    for v in p.vehicle_ids:
        cands = p.candidates[v]
        rows = rows_of.get(id(cands))
        if rows is not None:
            out[v] = rows
            continue
        if not any(not c.requests for c in cands):
            raise InputError(f"vehicle {v} has no null candidate")
        rows = []
        for c in cands:
            mask = 0
            try:
                for rid in c.requests:
                    mask |= bit[rid]
            except KeyError:
                stray = sorted(c.requests - p.batch_ids)
                raise InputError(f"vehicle {v} references requests outside the batch: {stray}") from None
            if not isfinite(c.score):
                # No enumerate on this hot loop: an earlier equal candidate would have raised.
                j = cands.index(c)
                raise InputError(f"vehicle {v} candidate {j} has a non-finite score: {c.score}")
            rows.append((mask, c.score))
        out[v] = rows_of[id(cands)] = rows
    return out


def _finish(p: MatchProblem, chosen: dict[int, int]) -> Matching:
    if set(chosen) != set(p.vehicle_ids):
        raise ContractError("matching must assign exactly one action per vehicle")
    indices: dict[int, int] = {}
    requests: dict[int, frozenset[int]] = {}
    seen: set[int] = set()
    total = 0.0
    for v in p.vehicle_ids:
        i = chosen[v]
        picked = p.candidates[v][i]
        if i:
            indices[v] = i
        if picked.requests:
            if picked.requests & seen:
                raise ContractError(f"request served twice: {sorted(picked.requests & seen)}")
            seen |= picked.requests
            requests[v] = picked.requests
        total += picked.score
    vehicles = p.vehicle_ids
    return Matching(
        _ByVehicle(vehicles, indices, 0), _ByVehicle(vehicles, requests, _NO_REQUESTS), total
    )


def _components(p: MatchProblem, masks: dict[int, list[tuple[int, float]]]) -> list[list[int]]:
    """Vehicles grouped by transitively shared requests; independent subproblems."""
    parent: dict[int, int] = {v: v for v in p.vehicle_ids}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    owner_of_bit: dict[int, int] = {}
    for v in p.vehicle_ids:
        combined = 0
        for mask, _ in masks[v]:
            combined |= mask
        while combined:
            bit = combined & -combined
            combined ^= bit
            if bit in owner_of_bit:
                parent[find(v)] = find(owner_of_bit[bit])
            else:
                owner_of_bit[bit] = v
    groups: dict[int, list[int]] = {}
    for v in p.vehicle_ids:
        groups.setdefault(find(v), []).append(v)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


# Work the exact search may spend on one component before HiGHS takes it
# over, counted as search nodes times component vehicles: the bound of every
# node scans the vehicles after it.  A component the search will not finish
# shows no earlier sign of it (27 contended vehicles on 4 requests run away,
# while 18 desk vehicles on 4 requests finish within 5e5), so the budget
# itself is the signal, kept small: every handover first spends all of it.
# Its floor is the twelve-vehicle tie plateau of the tests, which needs
# 1.32e5 to stay exact.  The components the search finishes peak at 6.7e4
# on desk days 0-11 of the criterion-5 scenario and at 4.2e4 on 200 windows
# captured from city-scale greedy runs.  21 desk components (13-19 vehicles
# contending for 4-12 requests) and the 10 largest contended ones (18-101
# vehicles) hand over after 10-139 ms of search; HiGHS then takes 8-58 ms
# per desk component and 9-289 ms per contended one.  For the eight desk
# components that need 1.5e5-5e5 to finish, it returns the assignment the
# exact search does (CPython 3.11, one Xeon vCPU).
SEARCH_BUDGET = 15 * 10**4


class _BudgetExceeded(Exception):
    """The exact search of one component ran past SEARCH_BUDGET."""


def _exact_component(
    vehicles: list[int], masks: dict[int, list[tuple[int, float]]]
) -> dict[int, int]:
    """Lexicographically smallest optimal assignment of one component.

    One depth-first search over the vehicles in ascending id order, trying
    each vehicle's candidates best score first.  A leaf replaces the
    incumbent when its total is larger, or equal with lexicographically
    smaller indices.  A child is pruned when its bound falls below the
    incumbent's total, or equals it under an index prefix lexicographically
    greater than the incumbent's.  Raises _BudgetExceeded once the search
    spends SEARCH_BUDGET.
    """
    desc = [
        sorted(((mask, score, i) for i, (mask, score) in enumerate(masks[v])), key=lambda row: -row[1])
        for v in vehicles
    ]
    n = len(vehicles)
    indices = [0] * n
    best = -inf
    best_indices: list[int] = []
    left = SEARCH_BUDGET

    def dive(idx: int, partial: float, used: int) -> None:
        nonlocal best, best_indices, left
        left -= n
        if left < 0:
            raise _BudgetExceeded
        if idx == n:
            # The prune below lets only a better assignment reach a leaf.
            best, best_indices = partial, indices[:]
            return
        rest = desc[idx + 1 :]
        for mask, score, i in desc[idx]:
            if mask & used:
                continue
            indices[idx] = i
            total = partial + score
            taken = used | mask
            bound = total
            for rows in rest:
                for other_mask, other_score, _ in rows:
                    if not other_mask & taken:  # the null candidate always fits
                        bound += other_score
                        break
            if bound < best or (bound == best and indices[: idx + 1] > best_indices[: idx + 1]):
                continue
            dive(idx + 1, total, taken)

    dive(0, 0.0, 0)
    return dict(zip(vehicles, best_indices))


# Relative score margin within which the HiGHS path treats a total as
# reaching the optimum; HiGHS itself stops at an absolute gap of 1e-6.
_HIGHS_TIE = 1e-9
# Cost added per candidate index to steer HiGHS toward the tie-break among
# tied optima; it exceeds HiGHS's 1e-7 optimality tolerance.  A nudged
# solution is kept only if its true total reaches the optimum.  The nudge
# does not change the result: without it the handovers of desk days 0-11 and
# of the 200 contended windows chose the same assignments.  It stays because
# it saves HiGHS time: without it a pass over the contended windows spent
# 2-3x as long in HiGHS, and city-M window 1's 92-vehicle component took
# 3-4x as long.
_LEX_NUDGE = 1e-6


def _component_total(
    vehicles: list[int], masks: dict[int, list[tuple[int, float]]], chosen: Mapping[int, int]
) -> float:
    total = 0.0
    for v in vehicles:
        total += masks[v][chosen[v]][1]
    return total


def _price_bound(
    free: Sequence[int],
    masks: dict[int, list[tuple[int, float]]],
    used: int,
    prices: Mapping[int, float],
) -> float:
    """Upper bound on what the free vehicles can score while avoiding `used`.

    Lagrangian relaxation of the serve-once rows: with a nonnegative price on
    every request, each vehicle takes its best price-adjusted candidate and
    the prices are added back.  Any nonnegative prices give a valid bound;
    the duals of an LP over the same vehicles give the tightest one.
    """
    bound = 0.0
    for bit, price in prices.items():
        if not bit & used:
            bound += price
    for v in free:
        best = -inf
        for mask, score in masks[v]:
            if mask & used:
                continue
            bits = mask
            while bits:
                bit = bits & -bits
                bits ^= bit
                score -= prices.get(bit, 0.0)
            if score > best:
                best = score
        bound += best
    return bound


class _HighsModel:
    """The assignment ILP of one component for HiGHS, built once.

    Columns are (vehicle, candidate index) pairs; rows say each vehicle
    takes one candidate and each request is served at most once.  A solve
    keeps the rows of the free vehicles and the columns that avoid the
    taken requests.
    """

    def __init__(self, vehicles: list[int], masks: dict[int, list[tuple[int, float]]]) -> None:
        self.vehicles = vehicles
        self.columns = [(v, i) for v in vehicles for i in range(len(masks[v]))]
        self.column_masks = [masks[v][i][0] for v, i in self.columns]
        self.cost = np.array([-masks[v][i][1] for v, i in self.columns])
        row_of_bit: dict[int, int] = {}
        row_of_vehicle = {v: r for r, v in enumerate(vehicles)}
        ub_rows, ub_cols = [], []
        for j, mask in enumerate(self.column_masks):
            while mask:
                bit = mask & -mask
                mask ^= bit
                ub_rows.append(row_of_bit.setdefault(bit, len(row_of_bit)))
                ub_cols.append(j)
        n = len(self.columns)
        eq_rows = [row_of_vehicle[v] for v, _ in self.columns]
        self.a_eq = csc_array((np.ones(n), (eq_rows, range(n))), shape=(len(vehicles), n))
        self.a_ub = csc_array((np.ones(len(ub_rows)), (ub_rows, ub_cols)), shape=(len(row_of_bit), n))
        self.bits = list(row_of_bit)
        # Lower vehicle ids weigh more, as they do in the tie-break.
        weight = {v: (len(vehicles) - r) / len(vehicles) for r, v in enumerate(vehicles)}
        self.nudged_cost = self.cost + np.array(
            [_LEX_NUDGE * i * weight[v] for v, i in self.columns]
        )

    def solve(
        self, fixed: Mapping[int, int], used: int, integral: bool, nudged: bool = False
    ) -> tuple[dict[int, int] | None, dict[int, float]]:
        """Best assignment of the vehicles not in `fixed` that avoids `used`.

        With `integral` false this is the LP relaxation: it returns the
        assignment when the LP optimum is integral (else None) and the LP's
        request prices.  With `integral` true it is the zero-gap MILP and
        returns its assignment and no prices.  `nudged` solves with the
        tie-steering costs, whose optimum may fall short of the true one.
        """
        free_rows = [r for r, v in enumerate(self.vehicles) if v not in fixed]
        if not free_rows:
            return {}, {}
        keep = [
            j
            for j, ((v, _), mask) in enumerate(zip(self.columns, self.column_masks))
            if v not in fixed and not mask & used
        ]
        cost = (self.nudged_cost if nudged else self.cost)[keep]
        a_eq = self.a_eq[:, keep][free_rows]
        a_ub = self.a_ub[:, keep]
        if integral:
            result = optimize.milp(
                cost,
                constraints=[LinearConstraint(a_eq, 1.0, 1.0), LinearConstraint(a_ub, -inf, 1.0)],
                integrality=np.ones(len(keep)),
                bounds=Bounds(0.0, 1.0),
                options={"mip_rel_gap": 0},
            )
        else:
            result = optimize.linprog(
                cost,
                A_ub=a_ub,
                b_ub=np.ones(len(self.bits)),
                A_eq=a_eq,
                b_eq=np.ones(len(free_rows)),
                bounds=(0.0, 1.0),
                method="highs-ds",
            )
        if result.status != 0:
            raise ContractError(
                f"HiGHS found no optimum for the component of vehicles {self.vehicles}: "
                f"{result.message}"
            )
        chosen = self._assignment(keep, result.x, len(free_rows))
        if integral:
            if chosen is None:
                raise ContractError(
                    f"HiGHS returned a non-integral MILP solution for the component of vehicles {self.vehicles}"
                )
            return chosen, {}
        prices = {
            bit: max(0.0, -float(dual)) for bit, dual in zip(self.bits, result.ineqlin.marginals)
        }
        return chosen, prices

    def _assignment(self, keep: list[int], x, n_vehicles: int) -> dict[int, int] | None:
        """The assignment a 0/1 solution encodes; None if it is fractional or infeasible."""
        if np.abs(x - np.round(x)).max() > 1e-6:
            return None
        chosen: dict[int, int] = {}
        used = 0
        for k in np.flatnonzero(x > 0.5):
            j = keep[k]
            v, i = self.columns[j]
            mask = self.column_masks[j]
            if v in chosen or mask & used:
                return None
            chosen[v] = i
            used |= mask
        return chosen if len(chosen) == n_vehicles else None


def _solve_with_highs(
    vehicles: list[int], masks: dict[int, list[tuple[int, float]]]
) -> dict[int, int]:
    """Optimal assignment of one component from HiGHS, tie-broken by fixing.

    The incumbent comes from the LP relaxation when that is integral and
    from a zero-gap MILP otherwise; S is its total.  Vehicles are then fixed
    in ascending id order, each to the lowest candidate index that still
    admits a total of at least S - tol.  A lower index than the incumbent's
    is skipped when its requests are taken, rejected when a price bound from
    the latest LP (or from an LP with the index fixed) falls below S - tol,
    and accepted when an integral solution with the index fixed reaches
    S - tol; that solution becomes the incumbent.  The solution comes from
    the nudged LP, from the nudged MILP if the LP is fractional, and from
    the exact MILP if the nudged one falls short.  The nudge makes HiGHS
    prefer the tie-break among tied optima, so that later vehicles seldom
    have to move the incumbent again.
    """
    model = _HighsModel(vehicles, masks)
    incumbent, prices = model.solve({}, 0, integral=False)
    if incumbent is None:
        incumbent, _ = model.solve({}, 0, integral=True)
    target = _component_total(vehicles, masks, incumbent)
    floor = target - _HIGHS_TIE * (1.0 + abs(target))
    fixed: dict[int, int] = {}
    used = 0
    partial = 0.0
    for pos, v in enumerate(vehicles):
        rest = vehicles[pos + 1 :]
        for i, (mask, score) in enumerate(masks[v][: incumbent[v]]):
            if mask & used:
                continue
            taken = used | mask
            if partial + score + _price_bound(rest, masks, taken, prices) < floor:
                continue
            trial_fixed = {**fixed, v: i}
            found, lp_prices = model.solve(trial_fixed, taken, integral=False, nudged=True)
            if lp_prices:
                prices = lp_prices
            if partial + score + _price_bound(rest, masks, taken, prices) < floor:
                continue
            if found is None:
                found, _ = model.solve(trial_fixed, taken, integral=True, nudged=True)
            trial = {**trial_fixed, **found}
            if _component_total(vehicles, masks, trial) < floor:
                found, _ = model.solve(trial_fixed, taken, integral=True)
                trial = {**trial_fixed, **found}
            if _component_total(vehicles, masks, trial) >= floor:
                incumbent = trial
                break
        mask, score = masks[v][incumbent[v]]
        if mask & used:
            raise ContractError(f"HiGHS incumbent lost while fixing the component of vehicles {vehicles}")
        fixed[v] = incumbent[v]
        used |= mask
        partial += score
    return fixed


def solve_ilp(p: MatchProblem) -> Matching:
    """Optimal matching with deterministic tie-breaking.

    Vehicles that share no requests form independent components and are
    solved separately.  A one-vehicle component takes the lowest candidate
    index among its maximum scores.  A larger component whose exact search
    stays within SEARCH_BUDGET gets the score-optimal assignment whose
    candidate indices are lexicographically smallest over vehicles in
    ascending id order; the search takes the vehicles in that order and
    keeps the first such assignment it proves, with no second pass.  A
    component that exceeds the budget, after tens of milliseconds of
    search, is solved by HiGHS: its assignment is optimal to HiGHS's
    tolerance, and the same tie-break holds among assignments within a
    relative 1e-9 of that optimum.
    """
    masks = _masks(p)
    chosen: dict[int, int] = {}
    for component in _components(p, masks):
        if len(component) == 1:
            v = component[0]
            scores = [score for _, score in masks[v]]
            chosen[v] = scores.index(max(scores))
            continue
        try:
            found = _exact_component(component, masks)
        except _BudgetExceeded:
            found = _solve_with_highs(component, masks)
        chosen.update(found)
    return _finish(p, chosen)


BRUTE_FORCE_BUDGET = 10**7


def brute_force_match(p: MatchProblem) -> Matching:
    """Exhaustive oracle over all feasible joint assignments.

    Applies the same tie-breaking rule as solve_ilp; refuses instances whose
    candidate-list product exceeds the enumeration budget.
    """
    masks = _masks(p)
    size = 1
    for v in p.vehicle_ids:
        size *= len(p.candidates[v])
        if size > BRUTE_FORCE_BUDGET:
            raise InstanceTooLargeError(
                f"assignment space exceeds {BRUTE_FORCE_BUDGET} joint actions"
            )
    vehicles = p.vehicle_ids
    best = -inf
    best_chosen: dict[int, int] | None = None
    chosen: dict[int, int] = {}

    def enumerate_from(idx: int, partial: float, used: int) -> None:
        nonlocal best, best_chosen
        if idx == len(vehicles):
            if partial > best:
                best = partial
                best_chosen = dict(chosen)
            return
        v = vehicles[idx]
        for i, (mask, score) in enumerate(masks[v]):
            if mask & used:
                continue
            chosen[v] = i
            enumerate_from(idx + 1, partial + score, used | mask)
        del chosen[v]

    enumerate_from(0, 0.0, 0)
    assert best_chosen is not None  # the all-null assignment is always feasible
    return _finish(p, best_chosen)


def async_greedy_match(p: MatchProblem, seed: int) -> Matching:
    """Decentralised baseline: vehicles pick greedily in seed-shuffled order."""
    masks = _masks(p)
    order = list(p.vehicle_ids)
    random.Random(seed).shuffle(order)
    used = 0
    chosen: dict[int, int] = {}
    for v in order:
        best_i = None
        best_score = -inf
        for i, (mask, score) in enumerate(masks[v]):
            if mask & used:
                continue
            if score > best_score:
                best_score = score
                best_i = i
        assert best_i is not None
        chosen[v] = best_i
        used |= masks[v][best_i][0]
    return _finish(p, chosen)


def problem_to_json(p: MatchProblem) -> str:
    """Serialise a problem for offline inspection and replay."""
    doc = {
        "requests": sorted(p.batch_ids),
        "vehicles": [
            {
                "id": v,
                "actions": [
                    {"requests": sorted(c.requests), "score": c.score}
                    for c in p.candidates[v]
                ],
            }
            for v in p.vehicle_ids
        ],
    }
    return json.dumps(doc, indent=2)


# What a problem dump's fields must hold: (description, check).  An integer is
# not a bool.
_LIST = ("a list", lambda value: isinstance(value, list))
_ID = ("an integer", lambda value: type(value) is int)
_IDS = (
    "a list of integers",
    lambda value: isinstance(value, list) and all(type(r) is int for r in value),
)
_SCORE = ("a finite number", is_finite_number)


def _dump_field(obj, field: str, expected: str, accept):
    """Dotted `field` of a parsed problem dump (its last part is the key in `obj`)."""
    key = field.rpartition(".")[2]
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"missing field '{field}'")
    if not accept(obj[key]):
        raise ValueError(f"field '{field}': expected {expected}, got {obj[key]!r}")
    return obj[key]


def problem_from_json(text: str | Path) -> MatchProblem:
    """Inverse of problem_to_json; accepts a JSON string or a file path.

    A dump that is not JSON, lacks a field, holds a wrongly typed value or a
    non-finite score, or repeats a vehicle id raises ParseError, which names
    the file when given a path.
    """
    source = str(text) if isinstance(text, Path) else "problem dump"
    try:
        doc = json.loads(text.read_text() if isinstance(text, Path) else text)
        candidates: dict[int, list[Candidate]] = {}
        for i, entry in enumerate(_dump_field(doc, "vehicles", *_LIST)):
            v = _dump_field(entry, f"vehicles[{i}].id", *_ID)
            if v in candidates:
                raise ValueError(f"duplicate vehicle id {v}")
            candidates[v] = [
                Candidate(
                    frozenset(_dump_field(action, f"vehicles[{i}].actions[{k}].requests", *_IDS)),
                    float(_dump_field(action, f"vehicles[{i}].actions[{k}].score", *_SCORE)),
                )
                for k, action in enumerate(_dump_field(entry, f"vehicles[{i}].actions", *_LIST))
            ]
        batch = _dump_field(doc, "requests", *_IDS)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError among them
        raise ParseError(f"{source}: {exc}") from None
    return MatchProblem.build(candidates, batch)
