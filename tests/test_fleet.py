from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from fairdispatch.demand import Request
from fairdispatch.errors import ContractError
from fairdispatch.fleet import (
    DROPOFF,
    PICKUP,
    Action,
    RideConstraints,
    Stop,
    VehicleState,
    _PlanSearch,
    advance,
    feasible_actions,
    load_fleet,
    random_fleet,
    reachable_requests,
)
from fairdispatch.network import UNREACHABLE, GroupId, from_edges, make_grid

from conftest import keep_route

C = RideConstraints(max_wait=300.0, max_detour=300.0, max_bundle=2)


def req(rid, pickup, dropoff, arrival=0.0):
    return Request(rid, pickup, dropoff, arrival, GroupId(0, 0))


def feasible(v, batch, now, net, constraints):
    """`feasible_actions` on the vehicle's entry of `reachable_requests`, as a window builds them."""
    singles = reachable_requests([v], batch, now, net, constraints)[0]
    return feasible_actions(v, singles, now, net, constraints)


def oracle_feasible(v, batch, now, net, constraints):
    """Reference: enumerate all subsets and all stop permutations.

    Returns {request-id frozenset: best completion time}; the empty set maps
    to the completion time of the existing route, the null action's.
    """
    if v.next_node is None:
        start, offset = v.location, 0.0
    else:
        travel = net.travel_time(v.location, v.next_node)
        start, offset = v.next_node, travel - v.edge_progress
    room = min(constraints.max_bundle, v.capacity - len(v.onboard))
    by_id = {r.id: r for r in batch}

    def simulate(tokens):
        best = None
        pickup_positions = {
            tok[1]: i for i, tok in enumerate(tokens) if tok[2] == PICKUP
        }
        for perm in permutations(range(len(tokens))):
            t = now + offset
            pos = start
            count = len(v.onboard)
            pickup_t = {}
            ok = True
            placed = set()
            for idx in perm:
                loc, rid, kind, ddl = tokens[idx]
                if kind == DROPOFF and rid in pickup_positions and pickup_positions[rid] not in placed:
                    ok = False
                    break
                t += net.travel_time(pos, loc)
                pos = loc
                if kind == PICKUP:
                    count += 1
                    if count > v.capacity:
                        ok = False
                        break
                    pickup_t[rid] = t
                else:
                    count -= 1
                if ddl is None:
                    direct = net.travel_time(by_id[rid].pickup, by_id[rid].dropoff)
                    ddl = pickup_t[rid] + direct + constraints.max_detour
                if t > ddl:
                    ok = False
                    break
                placed.add(idx)
            if ok and (best is None or t < best):
                best = t
        return best

    existing = [(s.location, s.request_id, s.kind, s.deadline) for s in v.route]
    results = {frozenset(): simulate(existing)}
    for size in range(1, room + 1):
        for subset in combinations(sorted(batch, key=lambda r: r.id), size):
            tokens = list(existing)
            for r in subset:
                tokens.append((r.pickup, r.id, PICKUP, r.arrival + constraints.max_wait))
                tokens.append((r.dropoff, r.id, DROPOFF, None))
            best = simulate(tokens)
            if best is not None:
                results[frozenset(r.id for r in subset)] = best
    return results


def assert_plans_walk(v, batch, now, net, constraints, actions):
    """Each plan, walked from the vehicle's origin, gives its new dropoffs'
    deadlines exactly and completes `added_delay` after the null plan."""
    start, offset = v.planning_origin(net)

    def walk(plan):
        t, pos, pickups = now + offset, start, {}
        for stop in plan:
            t += net.travel_time(pos, stop.location)
            pos = stop.location
            if stop.kind == PICKUP:
                pickups[stop.request_id] = t
            elif stop.request_id in by_id:
                r = by_id[stop.request_id]
                direct = net.travel_time(r.pickup, r.dropoff)
                assert stop.deadline == pickups[r.id] + direct + constraints.max_detour
        return t

    by_id = {r.id: r for r in batch}
    base = walk(v.route)
    for action in actions:
        assert walk(action.plan) - base == action.added_delay


def test_empty_batch_yields_only_null(grid3):
    v = VehicleState(0, 4, capacity=2)
    # The null action is the window's candidate 0, not one of the actions.
    assert feasible(v, [], 60.0, grid3, C) == []


def test_unreachable_pickup_yields_only_null():
    net = make_grid(1, 9, 50.0)  # line; 0 -> 8 costs 400
    v = VehicleState(0, 0, capacity=1)
    batch = [req(0, 8, 7, arrival=0.0)]
    assert feasible(v, batch, 60.0, net, C) == []


def test_two_compatible_requests_on_grid(grid3):
    v = VehicleState(0, 0, capacity=2)
    batch = [req(0, 1, 2), req(1, 4, 5)]
    actions = feasible(v, batch, 60.0, grid3, C)
    assert [a.request_ids() for a in actions] == [
        frozenset({0}),
        frozenset({1}),
        frozenset({0, 1}),
    ]


def test_null_action_keeps_route(grid3):
    route = [Stop(2, 9, DROPOFF, 1e9)]
    v = VehicleState(0, 0, capacity=2, route=route, onboard={9})
    assert advance(v, None, 0.0, grid3) == []
    assert v.route is route and route == [Stop(2, 9, DROPOFF, 1e9)]


def test_matches_oracle_on_random_instances():
    rng = random.Random(17)
    sizes_seen = set()
    for trial in range(120):
        rows, cols = rng.choice([(2, 3), (2, 4), (1, 8)])
        net = make_grid(rows, cols, float(rng.choice([30, 60, 90])))
        locs = net.locations
        capacity = rng.randint(1, 3)
        v = VehicleState(0, locs[rng.randrange(len(locs))], capacity=capacity)
        if rng.random() < 0.4 and capacity >= 1:
            # an onboard passenger with a pending dropoff
            drop = locs[rng.randrange(len(locs))]
            v.onboard = {99}
            v.route = [Stop(drop, 99, DROPOFF, rng.uniform(500, 2000))]
        n = rng.randint(1, 4)
        batch = []
        for i in range(n):
            pickup, dropoff = rng.sample(locs, 2)
            batch.append(req(i, pickup, dropoff, arrival=rng.uniform(0, 50)))
        now = 60.0
        cons = RideConstraints(
            max_wait=300.0, max_detour=rng.choice([120.0, 300.0]), max_bundle=rng.choice([2, 3])
        )
        actions = feasible(v, batch, now, net, cons)
        assert_plans_walk(v, batch, now, net, cons, actions)
        got = {a.request_ids(): a for a in actions}
        expected = oracle_feasible(v, batch, now, net, cons)
        base = expected.pop(frozenset())
        assert set(got) == set(expected), f"trial {trial}"
        for ids, action in got.items():
            assert action.added_delay == pytest.approx(expected[ids] - base, abs=1e-9)
        # The tie-break's candidate indices refer to this order, after the
        # null candidate: bundles by size, then by ascending request ids.
        keys = [tuple(r.id for r in a.requests) for a in actions]
        assert () not in keys
        assert all(list(ids) == sorted(set(ids)) for ids in keys), f"trial {trial}"
        assert keys == sorted(set(keys), key=lambda ids: (len(ids), ids)), f"trial {trial}"
        sizes_seen.update(map(len, keys))
    assert sizes_seen == {1, 2, 3}


def test_matches_oracle_from_mid_edge_states():
    rng = random.Random(41)
    net = make_grid(2, 4, 60.0)
    for trial in range(25):
        v = VehicleState(0, rng.randrange(8), capacity=2)
        warmup_pickup, warmup_dropoff = rng.sample(range(8), 2)
        warmup = [req(50, warmup_pickup, warmup_dropoff)]
        actions = [keep_route(v), *feasible(v, warmup, 60.0, net, C)]
        dt = float(rng.choice([10, 30, 50, 90]))
        advance(v, actions[-1], dt, net)
        now = 60.0 + dt
        batch = []
        for i in range(2):
            pickup, dropoff = rng.sample(range(8), 2)
            batch.append(req(i, pickup, dropoff, arrival=rng.uniform(0.0, now)))
        actions = feasible(v, batch, now, net, C)
        assert_plans_walk(v, batch, now, net, C, actions)
        got = {a.request_ids(): a for a in actions}
        expected = oracle_feasible(v, batch, now, net, C)
        base = expected.pop(frozenset())
        assert set(got) == set(expected), f"trial {trial}"
        for ids, action in got.items():
            assert action.added_delay == pytest.approx(expected[ids] - base, abs=1e-9)


def test_downward_closed():
    rng = random.Random(5)
    net = make_grid(3, 3, 60.0)
    for _ in range(20):
        v = VehicleState(0, rng.randrange(9), capacity=3)
        batch = []
        for i in range(3):
            pickup, dropoff = rng.sample(range(9), 2)
            batch.append(req(i, pickup, dropoff))
        cons = RideConstraints(max_wait=300.0, max_detour=300.0, max_bundle=3)
        ids = {a.request_ids() for a in feasible(v, batch, 60.0, net, cons)}
        for s in ids:
            for k in range(1, len(s)):  # the empty set is the null candidate
                for sub in combinations(sorted(s), k):
                    assert frozenset(sub) in ids


def scalar_reachable(v, batch, now, net, constraints):
    """Reference: the per-pair pickup check, one vehicle and one request at a time."""
    if v.capacity <= len(v.onboard):
        return []
    start, offset = v.planning_origin(net)
    t0 = now + offset
    return [
        r
        for r in sorted(batch, key=lambda r: r.id)
        if t0 + net.travel_time(start, r.pickup) <= r.arrival + constraints.max_wait
    ]


def test_reachable_requests_match_the_scalar_check():
    rng = random.Random(31)
    outcomes = set()
    unreachable = long_route_hits = 0
    for trial in range(60):
        locs = rng.sample(range(-20, 60), rng.randint(3, 9))
        lonely = 100  # no edge touches it
        costs = [k / 3 for k in range(1, 13)]
        edges = [(u, w, rng.choice(costs)) for u in locs for w in locs if u != w and rng.random() < 0.4]
        net = from_edges([*locs, lonely], edges)
        now = 600.0
        cons = RideConstraints(max_wait=rng.choice([1.0, 4 / 3, 3.0]), max_detour=300.0)
        vehicles = []
        for vid in range(rng.randint(0, 6)):
            v = VehicleState(vid, rng.choice([*locs, lonely]), capacity=rng.randint(1, 3))
            roll = rng.random()
            if roll < 0.3 and edges:
                u, w, cost = rng.choice(edges)
                v.location, v.next_node = u, w
                v.edge_progress = rng.choice([0.0, cost / 3, cost / 2])
            elif roll < 0.5:
                # a rider in every seat, or two riders and a free seat on a three-seat vehicle
                v.onboard = set(range(90, 90 + rng.randint(min(2, v.capacity), v.capacity)))
                v.route = [Stop(rng.choice(locs), rid, DROPOFF, 1e9) for rid in sorted(v.onboard)]
            vehicles.append(v)
        batch = []
        for rid in rng.sample(range(40), rng.randint(0, 8)):  # ids out of arrival order
            pickup, dropoff = rng.sample([*locs, lonely], 2)
            if vehicles and rng.random() < 0.5:
                # due exactly when some vehicle would arrive: ties on the bound
                v = rng.choice(vehicles)
                start, offset = v.planning_origin(net)
                travel = net.travel_time(start, pickup)
                arrival = now + offset + travel - cons.max_wait if travel != UNREACHABLE else now
            else:
                arrival = now - rng.choice([0.0, 1.0, 5 / 3])
            batch.append(req(rid, pickup, dropoff, arrival=arrival))
        got = reachable_requests(vehicles, batch, now, net, cons)
        assert len(got) == len(vehicles)
        for v, singles in zip(vehicles, got):
            hits = scalar_reachable(v, batch, now, net, cons)
            long_route_hits += len(v.route) >= 2 and bool(hits)
            # decided on the spot: a hit with no plan is dropped
            expected = [r for r in hits if _PlanSearch(v, now, net, cons).run([r])]
            assert [a.requests for a in singles] == [(r,) for r in expected], f"trial {trial}, vehicle {v.id}"
            if v.capacity > len(v.onboard):
                outcomes.update(r in expected for r in batch)
                start = v.planning_origin(net)[0]
                unreachable += sum(net.travel_time(start, r.pickup) == UNREACHABLE for r in batch)
    assert outcomes == {True, False}
    assert unreachable > 0 and long_route_hits > 0


def test_reachable_requests_of_an_empty_window():
    net = make_grid(2, 2, 60.0)
    vehicles = [VehicleState(0, 0, capacity=2), VehicleState(1, 3, capacity=1, onboard={7})]
    assert reachable_requests(vehicles, [], 60.0, net, C) == [(), ()]
    assert reachable_requests([], [req(0, 1, 2)], 60.0, net, C) == []
    [singles, full] = reachable_requests(vehicles, [req(0, 1, 2)], 60.0, net, C)
    assert [a.requests for a in singles] == [(req(0, 1, 2),)]
    assert full == ()


def test_unreachable_dropoff_yields_no_single():
    # node 100 has no edge: its pickup side is reached, its dropoff never
    net = from_edges([0, 1, 2, 3, 100], [(u, (u + 1) % 4, 60.0) for u in range(4)])
    batch = [req(0, 1, 100), req(1, 1, 2)]
    empty = VehicleState(0, 0, capacity=2)
    carrying = VehicleState(1, 0, capacity=2, route=[Stop(3, 9, DROPOFF, 1e9)], onboard={9})
    for v in (empty, carrying):
        reachable = scalar_reachable(v, batch, 60.0, net, C)
        assert [r.id for r in reachable] == [0, 1]
        actions = feasible(v, batch, 60.0, net, C)
        assert [a.request_ids() for a in actions] == [frozenset({1})]


def test_one_stop_route_keeps_the_search_lookahead():
    # 0 -> 1 -> 2 at 2/3 a hop: d(0, 2) = 4/3, but (600 + 2/3) + 2/3 < 600 + 4/3
    # by an ulp, so (pickup 0, dropoff 1, old dropoff 2) meets the old
    # deadline while the search's lookahead, 600 + d(0, 2), misses it.
    net = from_edges([0, 1, 2], [(0, 1, 2 / 3), (1, 2, 2 / 3)])
    deadline = (600.0 + 2 / 3) + 2 / 3
    assert 600.0 + net.travel_time(0, 2) > deadline
    v = VehicleState(0, 0, capacity=2, route=[Stop(2, 9, DROPOFF, deadline)], onboard={9})
    r = req(0, 0, 1, arrival=590.0)
    assert not _PlanSearch(v, 600.0, net, C).run([r])
    assert reachable_requests([v], [r], 600.0, net, C) == [[]]  # the hit had no plan
    assert feasible(v, [r], 600.0, net, C) == []


def walk_order(v, order, now, net, constraints, r):
    """Completion time of one stop order for request `r`, or None when it misses a deadline."""
    start, offset = v.planning_origin(net)
    t, pos, picked = now + offset, start, None
    for stop in order:
        t += net.travel_time(pos, stop.location)
        pos = stop.location
        if stop.kind == PICKUP:
            picked, due = t, stop.deadline
        elif stop.request_id == r.id:
            due = picked + net.travel_time(r.pickup, r.dropoff) + constraints.max_detour
        else:
            due = stop.deadline
        if t > due:
            return None
    return t


def test_decided_singles_equal_the_plan_search():
    """Every one-request action decided in `reachable_requests` is the plan search's, to the bit.

    Costs in thirds make exact ties; deadlines and pickup due times are set
    exactly on the bounds the three orders of a one-stop route test; node 100
    has no edge, so a dropoff there is never reached.  Routes of two or more
    stops are decided by the search itself, and their hits with no plan are
    dropped like the shorter routes'.
    """
    rng = random.Random(7)
    reached = Counter()
    lonely = 100
    for trial in range(600):
        locs = rng.sample(range(20), rng.randint(2, 5))
        costs = [k / 3 for k in range(1, 10)]
        edges = [(u, w, rng.choice(costs)) for u in locs for w in locs if u != w and rng.random() < 0.7]
        net = from_edges([*locs, lonely], edges)
        now = 600.0
        cons = RideConstraints(
            max_wait=rng.choice([1 / 3, 1.0, 3.0]),
            max_detour=rng.choice([0.0, 1 / 3, 1.0, 300.0]),
            max_bundle=rng.randint(1, 3),
        )
        trips = [rng.sample([*locs, lonely] if rng.random() < 0.2 else locs, 2) for _ in range(rng.randint(1, 5))]

        def times_for(v, pickup, dropoff, carried):
            """P1, the order-2 arrival at the carried dropoff and order 3's completion."""
            start, offset = v.planning_origin(net)
            p1 = now + offset + net.travel_time(start, pickup)
            return (
                p1,
                p1 + net.travel_time(pickup, carried),
                p1 + net.travel_time(pickup, dropoff) + net.travel_time(dropoff, carried),
            )

        vehicles = []
        for vid in range(rng.randint(1, 4)):
            capacity = rng.randint(1, 3)
            v = VehicleState(vid, rng.choice(locs), capacity)
            if edges and rng.random() < 0.3:
                u, w, cost = rng.choice(edges)
                v.location, v.next_node = u, w
                v.edge_progress = rng.choice([0.0, cost / 3, cost / 2])
            stops = rng.choice([0, 1, 1, 1, 2]) if rng.random() < 0.9 else capacity
            stops = min(stops, capacity)
            rids = list(range(90, 90 + stops))
            v.onboard = set(rids)
            v.route = [Stop(rng.choice(locs), rid, DROPOFF, 1e9) for rid in rids]
            if stops == 1:
                start, offset = v.planning_origin(net)
                route_end = now + offset + net.travel_time(start, v.route[0].location)
                pickup, dropoff = rng.choice(trips)
                bounds = [route_end, route_end - 1 / 3, 1e9]
                bounds += times_for(v, pickup, dropoff, v.route[0].location)
                v.route = [Stop(v.route[0].location, 90, DROPOFF, rng.choice(bounds))]
            vehicles.append(v)
        batch = []
        for rid, (pickup, dropoff) in enumerate(trips):
            v = rng.choice(vehicles)
            due = [times_for(v, pickup, dropoff, pickup)[0], now + rng.choice([0.0, 1.0, 5 / 3])]
            if len(v.route) == 1:  # the pickup after the carried dropoff, exactly on time
                start, offset = v.planning_origin(net)
                carried = v.route[0].location
                due.append(now + offset + net.travel_time(start, carried) + net.travel_time(carried, pickup))
            due = rng.choice([d for d in due if d < UNREACHABLE])
            batch.append(req(rid, pickup, dropoff, arrival=due - cons.max_wait))

        got = reachable_requests(vehicles, batch, now, net, cons)
        for v, singles in zip(vehicles, got):
            where = f"trial {trial}, vehicle {v.id}"
            hits = scalar_reachable(v, batch, now, net, cons)
            decided = {a.requests[0].id: a for a in singles}
            assert [a.requests for a in singles] == [(r,) for r in hits if r.id in decided], where
            for r in hits:
                search = _PlanSearch(v, now, net, cons)
                if net.travel_time(r.pickup, r.dropoff) == UNREACHABLE:
                    reached["unreachable dropoff"] += 1
                if not search.run([r]):
                    assert r.id not in decided, where
                    reached["long route, no plan"] += len(v.route) >= 2
                    continue
                single, plan = decided[r.id], search.plan()
                assert single.plan == plan, where
                assert [s.deadline.hex() for s in single.plan] == [s.deadline.hex() for s in plan], where
                assert single.added_delay.hex() == (search.best_time - search.route_end).hex(), where
                if len(v.route) >= 2:
                    reached["long route"] += 1
                    continue
                if not v.route:
                    reached["empty route"] += 1
                    continue
                old = v.route[0]
                pickup = Stop(r.pickup, r.id, PICKUP, r.arrival + cons.max_wait)
                dropoff = Stop(r.dropoff, r.id, DROPOFF, None)
                orders = [(old, pickup, dropoff), (pickup, old, dropoff), (pickup, dropoff, old)]
                won = [stop.request_id for stop in single.plan].index(old.request_id)
                reached[f"order {won + 1} wins"] += 1
                best = walk_order(v, orders[won], now, net, cons, r)
                if any(walk_order(v, o, now, net, cons, r) == best for o in orders[won + 1 :]):
                    reached["tie to the earlier order"] += 1
            if len(v.route) == 1:
                old = v.route[0]
                for r in hits:
                    p1, at_old, _ = times_for(v, r.pickup, r.dropoff, old.location)
                    start, offset = v.planning_origin(net)
                    route_end = now + offset + net.travel_time(start, old.location)
                    if route_end <= old.deadline and route_end + net.travel_time(old.location, r.pickup) > (
                        r.arrival + cons.max_wait
                    ):
                        reached["pickup after the old dropoff too late"] += 1
                    if at_old > old.deadline:
                        reached["old dropoff too late after the pickup"] += 1
                    reached["old dropoff due exactly"] += route_end == old.deadline or at_old == old.deadline
    assert set(reached) == {
        "long route",
        "long route, no plan",
        "unreachable dropoff",
        "empty route",
        "order 1 wins",
        "order 2 wins",
        "order 3 wins",
        "tie to the earlier order",
        "pickup after the old dropoff too late",
        "old dropoff too late after the pickup",
        "old dropoff due exactly",
    }, reached
    assert all(reached.values()), reached


def test_advance_idle_null_is_noop(grid3):
    v = VehicleState(0, 4, capacity=1)
    completed = advance(v, keep_route(v), 60.0, grid3)
    assert completed == []
    assert (v.location, v.next_node, v.edge_progress, v.route) == (4, None, 0.0, [])


def test_advance_pickup_then_dropoff_line():
    net = make_grid(1, 3, 60.0)
    v = VehicleState(0, 0, capacity=1)
    batch = [req(7, 1, 2)]
    actions = feasible(v, batch, 60.0, net, C)
    single = next(a for a in actions if a.request_ids() == {7})
    completed = advance(v, single, 120.0, net)
    assert completed == [7]
    assert v.location == 2
    assert v.onboard == set()
    assert v.route == []


def test_advance_split_equals_combined():
    net = make_grid(1, 4, 50.0)
    batch = [req(3, 2, 3)]

    def fresh():
        return VehicleState(0, 0, capacity=1)

    v1 = fresh()
    single = next(
        a for a in feasible(v1, batch, 60.0, net, C) if a.request_ids() == {3}
    )
    done1 = advance(v1, single, 70.0, net)  # mid-edge between node 1 and 2
    assert v1.edge_progress == 20.0
    done1 += advance(v1, keep_route(v1), 60.0, net)

    v2 = fresh()
    done2 = advance(v2, single, 130.0, net)
    assert done1 == done2
    assert (v1.location, v1.next_node, v1.edge_progress) == (
        v2.location,
        v2.next_node,
        v2.edge_progress,
    )
    assert v1.onboard == v2.onboard
    assert v1.route == v2.route


def test_advance_within_the_committed_edge():
    # dt shorter than the rest of the edge: the vehicle stays on it, and on
    # integer-second edges a split interval lands exactly where one call does
    net = make_grid(1, 3, 100.0)
    batch = [req(1, 2, 1)]

    def mid_edge():
        v = VehicleState(0, 0, capacity=1)
        single = next(a for a in feasible(v, batch, 60.0, net, C) if a.request_ids() == {1})
        advance(v, single, 40.0, net)
        assert (v.location, v.next_node, v.edge_progress) == (0, 1, 40.0)
        return v

    split, whole = mid_edge(), mid_edge()
    assert advance(split, keep_route(split), 25.0, net) == []
    assert (split.location, split.next_node, split.edge_progress) == (0, 1, 65.0)
    assert advance(split, keep_route(split), 30.0, net) == []
    assert advance(whole, keep_route(whole), 55.0, net) == []
    assert (whole.location, whole.next_node, whole.edge_progress) == (0, 1, 95.0)
    assert (split.location, split.next_node, split.edge_progress) == (0, 1, 95.0)
    assert split.route == whole.route and split.onboard == whole.onboard == set()


def test_advance_conserves_requests():
    rng = random.Random(23)
    net = make_grid(3, 3, 60.0)
    for _ in range(20):
        v = VehicleState(0, rng.randrange(9), capacity=2)
        batch = []
        for i in range(2):
            pickup, dropoff = rng.sample(range(9), 2)
            batch.append(req(i, pickup, dropoff))
        actions = [keep_route(v), *feasible(v, batch, 60.0, net, C)]
        chosen = actions[rng.randrange(len(actions))]
        expected = set(chosen.request_ids())
        completed = []
        for _ in range(40):
            completed += advance(v, keep_route(v) if completed or v.route else chosen, 60.0, net)
            if not v.route and completed:
                break
        # run the chosen action first, then idle until the route drains
        assert sorted(completed) == sorted(expected)
        assert v.onboard == set()


def test_keeping_the_route_equals_advancing_the_null_action():
    """`advance(v, None, ...)` leaves the vehicle, and returns the completions,
    exactly as advancing its null action does: idle, route-holding, carrying
    and mid-edge vehicles, over intervals that end before, on and past a node."""
    rng = random.Random(26)
    net = make_grid(3, 4, 60.0)
    seen = Counter()
    for trial in range(400):
        v = VehicleState(0, rng.randrange(12), capacity=3)
        now = 0.0
        for step in range(rng.randint(0, 3)):
            now += 60.0
            batch = [
                req(10 * step + i, *rng.sample(range(12), 2), arrival=now - rng.uniform(0.0, 60.0))
                for i in range(rng.randint(0, 3))
            ]
            actions = [keep_route(v), *feasible(v, batch, now, net, C)]
            advance(v, rng.choice(actions), float(rng.choice([15, 30, 60, 90, 150])), net)
        kept, null = v.clone(), v.clone()
        dt = float(rng.choice([0, 15, 30, 60, 90, 200]))
        completed = advance(kept, None, dt, net)
        assert completed == advance(null, keep_route(null), dt, net), trial
        assert kept == null, trial
        seen["mid-edge" if v.next_node is not None else "at a node"] += 1
        seen["route" if v.route else "idle"] += 1
        seen["carrying"] += bool(v.onboard)
        seen["completes"] += bool(completed)
        seen["ends mid-edge"] += kept.next_node is not None
    cases = ["mid-edge", "at a node", "route", "idle", "carrying", "completes", "ends mid-edge"]
    assert all(seen[key] for key in cases), seen


def test_advance_rejects_invalid_plan(grid3):
    v = VehicleState(0, 0, capacity=1)
    bogus = Action(
        requests=(req(1, 1, 2),),
        plan=(Stop(2, 1, DROPOFF, 1e9),),  # dropoff with no pickup
        added_delay=0.0,
    )
    with pytest.raises(ContractError):
        advance(v, bogus, 60.0, grid3)


def test_advance_rejects_plan_omitting_a_pickup(grid3):
    v = VehicleState(0, 0, capacity=2)
    plan = (Stop(1, 1, PICKUP, 1e9), Stop(2, 1, DROPOFF, 1e9))
    bogus = Action(requests=(req(1, 1, 2), req(2, 2, 1)), plan=plan, added_delay=0.0)
    with pytest.raises(ContractError, match=r"^vehicle 0: plan omits pickups for \[2\]$"):
        advance(v, bogus, 60.0, grid3)


def test_advance_rejects_unknown_stop_kind(grid3):
    v = VehicleState(0, 0, capacity=1)
    bogus = Action(requests=(), plan=(Stop(1, 1, "detour", 1e9),), added_delay=0.0)
    with pytest.raises(ContractError, match=r"^vehicle 0: unknown stop kind 'detour'$"):
        advance(v, bogus, 60.0, grid3)


def test_advance_rejects_capacity_violation(grid3):
    v = VehicleState(0, 0, capacity=1)
    plan = (
        Stop(1, 1, PICKUP, 1e9),
        Stop(2, 2, PICKUP, 1e9),
        Stop(2, 2, DROPOFF, 1e9),
        Stop(1, 1, DROPOFF, 1e9),
    )
    bogus = Action(requests=(req(1, 1, 2), req(2, 2, 1)), plan=plan, added_delay=0.0)
    with pytest.raises(ContractError):
        advance(v, bogus, 60.0, grid3)


def test_mid_edge_replanning_uses_committed_edge():
    net = make_grid(1, 3, 100.0)
    v = VehicleState(0, 0, capacity=1)
    batch = [req(1, 2, 1, arrival=0.0)]
    single = next(
        a for a in feasible(v, batch, 60.0, net, C) if a.request_ids() == {1}
    )
    advance(v, single, 40.0, net)
    assert (v.location, v.next_node, v.edge_progress) == (0, 1, 40.0)
    start, offset = v.planning_origin(net)
    assert (start, offset) == (1, 60.0)


def test_load_fleet_and_random_fleet(tmp_path, grid3):
    path = tmp_path / "fleet.csv"
    path.write_text("# id,start,capacity\n1,4,2\n0,0,1\n")
    fleet = load_fleet(path, grid3)
    assert [v.id for v in fleet] == [0, 1]
    assert fleet[1].capacity == 2

    a = random_fleet(5, 2, grid3, seed=3)
    b = random_fleet(5, 2, grid3, seed=3)
    assert [(v.id, v.location) for v in a] == [(v.id, v.location) for v in b]
    assert all(v.location in grid3 for v in a)


def test_load_fleet_rejects_bad_rows(tmp_path, grid3):
    from fairdispatch.errors import ParseError

    path = tmp_path / "fleet.csv"
    path.write_text("0,0,1\n0,1,1\n")
    with pytest.raises(ParseError, match="duplicate"):
        load_fleet(path, grid3)
    path.write_text("0,99,1\n")
    with pytest.raises(ParseError, match="unknown start"):
        load_fleet(path, grid3)
