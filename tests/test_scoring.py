from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from fairdispatch.demand import Request
from fairdispatch.errors import ConfigError, InputError, ParseError
from fairdispatch.fleet import DROPOFF, PICKUP, Action, Stop, VehicleState
from fairdispatch.metrics import DriverHistory, PassengerHistory
from fairdispatch.network import GroupId, grid_partition
from fairdispatch.scoring import (
    FairnessSnapshot,
    ScoreWeights,
    ValueFunction,
    base_score,
    driver_incentive,
    fairness_snapshot,
    immediate_reward,
    load_pricing,
    load_value_table,
    null_score,
    passenger_incentive,
    total_score,
    value_estimate,
)

from conftest import keep_route

G_LOW = GroupId(0, 0)
G_HIGH = GroupId(0, 1)

ZERO = ValueFunction(kind="zero")


def action_for(*requests: Request, added_delay: float = 0.0) -> Action:
    plan = []
    for r in requests:
        plan.append(Stop(r.pickup, r.id, PICKUP, 1e9))
        plan.append(Stop(r.dropoff, r.id, DROPOFF, 1e9))
    return Action(tuple(requests), tuple(plan), added_delay)


def req(rid: int, group: GroupId = G_LOW) -> Request:
    return Request(rid, rid, rid + 100, 0.0, group)


NULL = Action((), (), 0.0)
VEH = VehicleState(0, 0, capacity=4)
NO_DEMAND = PassengerHistory.empty()
NO_DRIVERS = DriverHistory({})


def snap(
    hist_p: PassengerHistory = NO_DEMAND, hist_d: DriverHistory = NO_DRIVERS, **weights
) -> FairnessSnapshot:
    return fairness_snapshot(hist_p, hist_d, ScoreWeights(**weights))


def test_immediate_reward_null_action():
    assert immediate_reward(NULL) == 0.0


def test_immediate_reward_unit_values():
    assert immediate_reward(action_for(req(1), req(2))) == 2.0


def test_immediate_reward_pricing_hook():
    a = action_for(req(1), req(2))
    assert immediate_reward(a, {1: 1.5, 2: 2.5}) == 4.0


def test_base_score_zero_vfa():
    assert base_score(VEH, NULL, ZERO) == 0.0
    assert base_score(VEH, action_for(req(1), req(2)), ZERO) == 2.0


def test_base_score_delay_vfa():
    vfa = ValueFunction(kind="delay", omega=0.001)
    a = action_for(req(1), added_delay=100.0)
    assert base_score(VEH, a, vfa) == pytest.approx(0.9)


def test_base_score_table_vfa():
    part = grid_partition(4, 4, 4, 2)
    vfa = ValueFunction(kind="table", table={(1, 1, 2): 0.25})
    a = action_for(Request(1, 0, 3, 0.0, GroupId(0, 1)))  # ends in area 1
    now = 2.5 * 3600
    assert base_score(VEH, a, vfa, now=now, partition=part) == pytest.approx(1.25)
    # unseen key is worth zero
    assert base_score(VEH, a, vfa, now=20 * 3600, partition=part) == pytest.approx(1.0)


def test_table_vfa_requires_partition():
    vfa = ValueFunction(kind="table", table={})
    with pytest.raises(InputError):
        base_score(VEH, action_for(req(1)), vfa)


def test_value_function_validation():
    with pytest.raises(ConfigError):
        ValueFunction(kind="neural")
    # a negative omega would reward added travel time instead of charging it
    for omega in (-5.0, -1e-300, float("inf"), float("nan")):
        with pytest.raises(ConfigError, match="omega must be finite and nonnegative"):
            ValueFunction(kind="delay", omega=omega)
    assert ValueFunction(kind="delay", omega=0.0).omega == 0.0


# rates: low 0.2, high 0.6; mean 0.4
HIST = PassengerHistory({G_LOW: 10, G_HIGH: 10}, {G_LOW: 2, G_HIGH: 6})


def test_passenger_incentive_empty_action():
    assert passenger_incentive(NULL, snap(HIST)) == 0.0


def test_passenger_incentive_worked_example():
    # mean 0.5 with group rates 0.2 and 0.6: gaps +0.3 and -0.1
    hist = PassengerHistory({G_LOW: 10, G_HIGH: 10, GroupId(1, 0): 10},
                            {G_LOW: 2, G_HIGH: 6, GroupId(1, 0): 7})
    a = action_for(req(1, G_LOW), req(2, G_HIGH))
    assert passenger_incentive(a, snap(hist)) == pytest.approx(0.2)
    assert passenger_incentive(a, snap(hist, passenger_plus=True)) == pytest.approx(0.3)


def test_passenger_incentive_plus_dominates():
    rng = random.Random(4)
    for _ in range(50):
        groups = {GroupId(0, d): rng.randint(1, 9) for d in range(4)}
        hist = PassengerHistory(
            dict(groups), {g: rng.randint(0, n) for g, n in groups.items()}
        )
        a = action_for(*(req(i, GroupId(0, rng.randrange(4))) for i in range(3)))
        plain = passenger_incentive(a, snap(hist))
        clipped = passenger_incentive(a, snap(hist, passenger_plus=True))
        assert clipped >= plain
        if all(hist.rates[r.group] <= hist.mean_rate for r in a.requests):
            assert clipped == plain


def test_passenger_incentive_unseen_group_contributes_zero():
    a = action_for(req(1, GroupId(1, 1)))
    assert passenger_incentive(a, snap(HIST)) == 0.0


def test_worst_group_maximises_single_request_incentive():
    rng = random.Random(8)
    for _ in range(30):
        groups = {GroupId(0, d): rng.randint(2, 9) for d in range(4)}
        hist = PassengerHistory(
            dict(groups), {g: rng.randint(0, n) for g, n in groups.items()}
        )
        rates = hist.rates
        worst = min(rates, key=lambda g: (rates[g], g))
        gaps = snap(hist)
        scores = {g: passenger_incentive(action_for(req(1, g)), gaps) for g in rates}
        assert scores[worst] == max(scores.values())


DRIVERS = DriverHistory({0: 2.0, 1: 8.0, 2: 10.0})
# scaled: 0.2, 0.8, 1.0; mean 2/3


def test_driver_incentive_zero_disparity():
    hist = DriverHistory({0: 5.0, 1: 5.0})
    a = action_for(req(1))
    assert driver_incentive(VehicleState(0, 0, capacity=1), a, snap(hist_d=hist)) == 0.0


def test_driver_incentive_worked_example():
    # scaled incomes {0.2, 0.8, 1.0, 0.0} with mean 0.5; action reward 2
    hist = DriverHistory({0: 2.0, 1: 8.0, 2: 10.0, 3: 0.0})
    a = action_for(req(1), req(2))
    poor = VehicleState(0, 0, capacity=4)
    rich = VehicleState(1, 0, capacity=4)
    assert driver_incentive(poor, a, snap(hist_d=hist)) == pytest.approx(0.6)
    assert driver_incentive(rich, a, snap(hist_d=hist)) == pytest.approx(-0.6)
    assert driver_incentive(rich, a, snap(hist_d=hist, driver_plus=True)) == 0.0


def test_total_score_reduces_to_base_at_zero_weights():
    hist_d = DriverHistory({0: 1.0, 1: 9.0})
    a = action_for(req(1, G_LOW), added_delay=50.0)
    vfa = ValueFunction(kind="delay", omega=2e-4)
    for v in (VehicleState(0, 0, capacity=2), VehicleState(1, 0, capacity=2)):
        got = total_score(v, a, vfa, snap(HIST, hist_d), ScoreWeights())
        assert got == base_score(v, a, vfa)


def test_total_score_composition():
    # unit reward + beta 2 * incentive 0.3 = 1.6
    hist = PassengerHistory({G_LOW: 10, G_HIGH: 10, GroupId(1, 0): 10},
                            {G_LOW: 2, G_HIGH: 6, GroupId(1, 0): 7})
    hist_d = DriverHistory.zeroed([0])
    a = action_for(req(1, G_LOW))
    got = total_score(VEH, a, ZERO, snap(hist, hist_d), ScoreWeights(beta=2.0))
    assert got == pytest.approx(1.6)


def test_total_score_null_action_is_zero():
    hist_d = DriverHistory({0: 1.0, 1: 5.0})
    w = ScoreWeights(beta=7.0, delta=11.0)
    assert total_score(VEH, NULL, ZERO, fairness_snapshot(HIST, hist_d, w), w) == 0.0


def test_total_score_affine_in_weights():
    hist_d = DriverHistory({0: 2.0, 1: 8.0})
    v = VehicleState(0, 0, capacity=4)
    a = action_for(req(1, G_LOW), req(2, G_HIGH))
    gaps = snap(HIST, hist_d)
    s0 = total_score(v, a, ZERO, gaps, ScoreWeights())
    fp = passenger_incentive(a, gaps)
    fd = driver_incentive(v, a, gaps)
    for beta in (0.5, 1.0, 4.0):
        for delta in (0.25, 2.0):
            got = total_score(v, a, ZERO, gaps, ScoreWeights(beta=beta, delta=delta))
            assert got == pytest.approx(s0 + beta * fp + delta * fd, rel=1e-12)


def test_argmax_invariance_under_value_and_beta_scaling():
    # scaling all request values and beta by the same constant preserves each
    # vehicle's preference order when the driver weight is zero
    hist = PassengerHistory({G_LOW: 8, G_HIGH: 8}, {G_LOW: 1, G_HIGH: 7})
    hist_d = DriverHistory.zeroed([0])
    v = VehicleState(0, 0, capacity=4)
    actions = [
        action_for(req(1, G_LOW)),
        action_for(req(2, G_HIGH)),
        action_for(req(1, G_LOW), req(2, G_HIGH)),
        NULL,
    ]
    gaps = snap(hist, hist_d)
    pricing = {1: 1.25, 2: 0.75}
    c = 4.0  # power of two keeps the float comparison exact
    for beta in (0.5, 2.0):
        base_scores = [
            total_score(v, a, ZERO, gaps, ScoreWeights(beta=beta), pricing=pricing)
            for a in actions
        ]
        scaled_scores = [
            total_score(
                v,
                a,
                ZERO,
                gaps,
                ScoreWeights(beta=c * beta),
                pricing={k: c * p for k, p in pricing.items()},
            )
            for a in actions
        ]
        assert base_scores.index(max(base_scores)) == scaled_scores.index(max(scaled_scores))


# --- snapshot scoring against the history-based formulas --------------------
#
# The references below recompute the fairness gaps for every action from the
# histories' raw counts and incomes alone, not from the views the snapshot
# reads, so the comparison is not the code against itself.  Snapshot scores
# must equal them exactly, not approximately: a change in the last bit of a
# score can change the exact matcher's tie-break.


def ref_passenger_incentive(a: Action, hist: PassengerHistory, plus: bool) -> float:
    rates = {g: hist.served.get(g, 0) / n for g, n in hist.requested.items() if n > 0}
    mean = math.fsum(rates.values()) / len(rates) if rates else 0.0
    total = 0.0
    for r in a.requests:
        # a group with no demand yet falls back to the mean: gap 0
        gap = mean - rates.get(r.group, mean)
        if plus and gap < 0:
            gap = 0.0
        total += gap
    return total


def ref_driver_incentive(v, a, hist: DriverHistory, plus: bool, pricing=None) -> float:
    top = max(hist.incomes.values())
    scaled = {d: income / top if top > 0 else 0.0 for d, income in hist.incomes.items()}
    gap = math.fsum(scaled.values()) / len(scaled) - scaled[v.id]
    if plus and gap < 0:
        gap = 0.0
    return gap * immediate_reward(a, pricing)


def ref_total_score(v, a, vfa, hist_p, hist_d, w, now=0.0, partition=None, pricing=None):
    score = base_score(v, a, vfa, now, partition, pricing)
    if w.beta:
        score += w.beta * ref_passenger_incentive(a, hist_p, w.passenger_plus)
    if w.delta:
        score += w.delta * ref_driver_incentive(v, a, hist_d, w.driver_plus, pricing)
    return score


GRID_PART = grid_partition(4, 4, 2, 2)
GROUPS = [GroupId(o, d) for o in range(4) for d in range(4)]


def random_passenger_history(rng: random.Random) -> PassengerHistory:
    """Random counts over some of the groups; some groups are listed with no demand."""
    requested, served = {}, {}
    for g in rng.sample(GROUPS, rng.randint(0, 10)):
        n = rng.choice([0, rng.randint(1, 40)])
        requested[g] = n
        served[g] = rng.randint(0, n)
    return PassengerHistory(requested, served)


def random_driver_history(rng: random.Random, drivers: int) -> DriverHistory:
    if rng.random() < 0.2:
        return DriverHistory.zeroed(range(drivers))
    return DriverHistory(
        {d: rng.choice([0.0, rng.uniform(0.0, 30.0), float(rng.randint(0, 9))]) for d in range(drivers)}
    )


def random_action(rng: random.Random, first_id: int) -> Action:
    requests = []
    for i in range(rng.randint(0, 3)):
        pickup, dropoff = rng.sample(range(16), 2)
        requests.append(Request(first_id + i, pickup, dropoff, 0.0, rng.choice(GROUPS)))
    return action_for(*requests, added_delay=rng.uniform(0.0, 400.0))


def random_vfa(rng: random.Random) -> ValueFunction:
    kind = rng.choice(["zero", "delay", "table"])
    if kind == "delay":
        return ValueFunction(kind="delay", omega=rng.uniform(0.0, 0.01))
    if kind == "table":
        table = {
            (rng.randrange(4), rng.randrange(4), rng.randrange(24)): rng.uniform(-2.0, 2.0)
            for _ in range(40)
        }
        return ValueFunction(kind="table", table=table)
    return ZERO


def test_snapshot_scores_equal_history_scores_exactly():
    rng = random.Random(2024)
    for case in range(400):
        drivers = rng.randint(1, 6)
        hist_p = random_passenger_history(rng)
        hist_d = random_driver_history(rng, drivers)
        w = ScoreWeights(
            beta=rng.choice([0.0, 1.0, 20.0, rng.uniform(0.0, 50.0)]),
            delta=rng.choice([0.0, 1.0, 20.0, rng.uniform(0.0, 50.0)]),
            passenger_plus=rng.random() < 0.5,
            driver_plus=rng.random() < 0.5,
        )
        gaps = fairness_snapshot(hist_p, hist_d, w)
        vfa = random_vfa(rng)
        now = rng.uniform(0.0, 86400.0)
        v = VehicleState(rng.randrange(drivers), rng.randrange(16), capacity=4)
        for k in range(5):
            a = random_action(rng, 10 * k)
            pricing = (
                {r.id: rng.uniform(0.5, 3.0) for r in a.requests if rng.random() < 0.7}
                if rng.random() < 0.5
                else None
            )
            assert passenger_incentive(a, gaps) == ref_passenger_incentive(
                a, hist_p, w.passenger_plus
            ), case
            assert driver_incentive(v, a, gaps, pricing) == ref_driver_incentive(
                v, a, hist_d, w.driver_plus, pricing
            ), case
            got = total_score(v, a, vfa, gaps, w, now, GRID_PART, pricing)
            want = ref_total_score(v, a, vfa, hist_p, hist_d, w, now, GRID_PART, pricing)
            assert got == want, case


def random_vehicle(rng: random.Random, drivers: int) -> VehicleState:
    """Idle or holding a route of up to four stops, carrying up to three riders, maybe mid-edge."""
    onboard = set(rng.sample(range(100, 110), rng.randint(0, 3)))
    route = [
        Stop(rng.randrange(16), rng.randrange(100, 110), rng.choice([PICKUP, DROPOFF]), 1e9)
        for _ in range(rng.choice([0, 0, 1, 2, 4]))
    ]
    v = VehicleState(rng.randrange(drivers), rng.randrange(16), 4, route, onboard)
    if rng.random() < 0.3:
        v.next_node, v.edge_progress = rng.randrange(16), rng.uniform(0.0, 60.0)
    return v


def random_null_vfa(rng: random.Random) -> ValueFunction:
    """`random_vfa`, or a table over every key a random vehicle holds, some at -0.0 or 0.0."""
    if rng.random() < 0.5:
        return random_vfa(rng)
    table = {
        (area, onboard, bucket): rng.choice([rng.uniform(-2.0, 2.0), -0.0, 0.0])
        for area in range(4)
        for onboard in range(4)
        for bucket in range(24)
        if rng.random() < 0.9
    }
    return ValueFunction(kind="table", table=table)


def test_null_score_equals_the_null_actions_total_score():
    """Every vehicle's null candidate is scored without building its action, to the bit."""
    rng = random.Random(26)
    seen = Counter()
    for case in range(3000):
        drivers = rng.randint(1, 6)
        hist_p = random_passenger_history(rng)
        hist_d = random_driver_history(rng, drivers)
        w = ScoreWeights(
            beta=rng.choice([0.0, 1.0, 20.0, rng.uniform(0.0, 50.0)]),
            delta=rng.choice([0.0, 1.0, 20.0, rng.uniform(0.0, 50.0)]),
            passenger_plus=rng.random() < 0.5,
            driver_plus=rng.random() < 0.5,
        )
        vfa = random_null_vfa(rng)
        now = rng.choice([0.0, 3600.0, rng.uniform(0.0, 2 * 86400.0)])
        v = random_vehicle(rng, drivers)
        pricing = {rid: rng.uniform(0.5, 3.0) for rid in range(100, 110)} if rng.random() < 0.5 else None
        null = keep_route(v)
        gaps = fairness_snapshot(hist_p, hist_d, w)
        want = total_score(v, null, vfa, gaps, w, now, GRID_PART, pricing)
        got = null_score(v, vfa, now, GRID_PART)
        assert got.hex() == want.hex(), case
        if not w.beta and not w.delta:
            assert got.hex() == base_score(v, null, vfa, now, GRID_PART, pricing).hex(), case
        seen[vfa.kind, got != 0.0] += 1
        value = value_estimate(vfa, v, null, now, GRID_PART)
        seen["-0.0 read", vfa.kind] += value == 0.0 and math.copysign(1.0, value) < 0
        seen["route", bool(v.route)] += 1
        seen["mid-edge"] += v.next_node is not None
        seen["negative driver gap"] += bool(w.delta) and gaps.driver_gap[v.id] < 0
    assert all(seen[key] for key in [("zero", False), ("delay", False), ("table", False), ("table", True)])
    assert seen["route", True] and seen["route", False] and seen["mid-edge"]
    assert seen["negative driver gap"] and seen["-0.0 read", "delay"] and seen["-0.0 read", "table"]


def test_null_score_of_a_negative_zero_table_value_is_zero():
    v = VehicleState(0, 5, 2, [Stop(3, 1, DROPOFF, 1e9)], {1})
    vfa = ValueFunction(kind="table", table={(GRID_PART.area(3), 1, 0): -0.0})
    assert null_score(v, vfa, 0.0, GRID_PART).hex() == (0.0).hex()
    assert value_estimate(vfa, v, keep_route(v), 0.0, GRID_PART).hex() == (-0.0).hex()
    with pytest.raises(InputError, match="requires an area partition"):
        null_score(v, vfa)


def test_snapshot_unseen_and_zero_demand_groups_read_zero():
    hist = PassengerHistory({G_LOW: 10, G_HIGH: 0}, {G_LOW: 2})
    gaps = snap(hist)
    assert set(gaps.group_gap) == {G_LOW}
    for g in (G_HIGH, GroupId(3, 3)):
        a = action_for(req(1, g))
        assert passenger_incentive(a, gaps) == ref_passenger_incentive(a, hist, False) == 0.0


def test_snapshot_all_zero_incomes():
    hist = DriverHistory.zeroed([0, 1, 2])
    a = action_for(req(1), req(2))
    for plus in (False, True):
        gaps = snap(hist_d=hist, driver_plus=plus)
        assert gaps.driver_gap == {0: 0.0, 1: 0.0, 2: 0.0}
        assert driver_incentive(VEH, a, gaps) == ref_driver_incentive(VEH, a, hist, plus) == 0.0


def test_weights_validation():
    for bad in (-1.0, float("nan"), float("inf")):
        for weights in ({"beta": bad}, {"delta": bad}):
            with pytest.raises(InputError, match="finite and nonnegative"):
                ScoreWeights(**weights)


def test_load_value_table_and_pricing(tmp_path):
    vt = tmp_path / "vfa.csv"
    vt.write_text("# area,onboard,bucket,value\n0,1,9,0.5\n1,0,0,-0.25\n")
    table = load_value_table(vt)
    assert table == {(0, 1, 9): 0.5, (1, 0, 0): -0.25}

    pricing_file = tmp_path / "prices.csv"
    pricing_file.write_text("3,1.5\n4,2.5\n")
    assert load_pricing(pricing_file) == {3: 1.5, 4: 2.5}

    pricing_file.write_text("3,-1.0\n")
    with pytest.raises(ParseError, match="nonnegative"):
        load_pricing(pricing_file)
