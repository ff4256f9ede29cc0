from __future__ import annotations

import math
import random

import pytest

from fairdispatch.errors import InputError, ParseError
from fairdispatch.network import (
    UNREACHABLE,
    AreaPartition,
    GroupId,
    from_edges,
    grid_partition,
    group_of,
    load_network,
    load_partition,
    make_grid,
)


def brute_force_shortest(locations, edges, origin, dest):
    """Oracle: minimum cost over all simple paths, by exhaustive enumeration."""
    adj = {}
    for u, v, c in edges:
        adj.setdefault(u, []).append((v, c))
    best = math.inf

    def walk(node, cost, visited):
        nonlocal best
        if node == dest:
            best = min(best, cost)
            return
        for nxt, c in adj.get(node, []):
            if nxt not in visited:
                walk(nxt, cost + c, visited | {nxt})

    walk(origin, 0.0, {origin})
    return best


def test_travel_time_identity(grid3):
    for loc in grid3.locations:
        assert grid3.travel_time(loc, loc) == 0.0


def test_grid_corner_to_corner_matches_enumeration(grid3):
    expected = brute_force_shortest(grid3.locations, grid3.edges, 0, 8)
    assert expected == 4.0
    assert grid3.travel_time(0, 8) == 4.0


def test_disconnected_pair_unreachable():
    net = from_edges([0, 1, 2, 3], [(0, 1, 5.0), (1, 0, 5.0), (2, 3, 1.0), (3, 2, 1.0)])
    assert net.travel_time(0, 2) == UNREACHABLE
    assert net.travel_time(0, 1) == 5.0


def test_unknown_location_rejected(grid3):
    with pytest.raises(InputError):
        grid3.travel_time(0, 99)


def test_make_grid_degenerate():
    net = make_grid(1, 1, 60.0)
    assert len(net.locations) == 1
    assert len(net.edges) == 0


def test_make_grid_edge_count_formula():
    net = make_grid(2, 2, 60.0)
    assert len(net.locations) == 4
    assert len(net.edges) == 8
    rows, cols = 5, 3
    net = make_grid(rows, cols, 30.0)
    assert len(net.edges) == 2 * (rows * (cols - 1) + cols * (rows - 1))


def test_make_grid_all_pairs_reachable():
    net = make_grid(3, 3, 30.0)
    for a in net.locations:
        for b in net.locations:
            assert net.travel_time(a, b) < UNREACHABLE


def test_make_grid_rejects_bad_args():
    with pytest.raises(InputError):
        make_grid(0, 3, 60.0)
    with pytest.raises(InputError):
        make_grid(3, 3, 0.0)


def test_load_network_minimal(tmp_path):
    path = tmp_path / "net.csv"
    path.write_text("# comment\n0,1,60\n1,0,60\n")
    net = load_network(path)
    assert len(net.locations) == 2
    assert len(net.edges) == 2
    assert net.travel_time(0, 1) == 60.0


def test_load_network_negative_cost_names_line(tmp_path):
    path = tmp_path / "net.csv"
    path.write_text("0,1,60\n0,1,-5\n")
    with pytest.raises(ParseError, match=":2"):
        load_network(path)


def test_load_network_empty_file_is_valid(tmp_path):
    path = tmp_path / "net.csv"
    path.write_text("")
    net = load_network(path)
    assert net.locations == ()
    assert net.edges == ()


def test_load_network_malformed_row(tmp_path):
    path = tmp_path / "net.csv"
    path.write_text("0,1\n")
    with pytest.raises(ParseError, match=":1"):
        load_network(path)


def test_dijkstra_matches_enumeration_on_random_graphs():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 9)
        locations = list(range(n))
        edges = []
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.4:
                    edges.append((u, v, float(rng.randint(1, 9))))
        net = from_edges(locations, edges)
        for _ in range(5):
            a, b = rng.randint(0, n - 1), rng.randint(0, n - 1)
            assert net.travel_time(a, b) == brute_force_shortest(
                locations, edges, a, b
            )


def test_triangle_inequality():
    rng = random.Random(3)
    net = make_grid(4, 4, 45.0)
    locs = net.locations
    for _ in range(200):
        a, b, c = (locs[rng.randrange(len(locs))] for _ in range(3))
        assert net.travel_time(a, c) <= (
            net.travel_time(a, b) + net.travel_time(b, c)
        )


def test_next_hop_walks_shortest_path(grid3):
    # following next_hop from 0 to 8 must realise the shortest distance
    pos, walked = 0, 0.0
    while pos != 8:
        nxt = grid3.next_hop(pos, 8)
        walked += grid3.travel_time(pos, nxt)
        pos = nxt
    assert walked == grid3.travel_time(0, 8)


def test_partition_basics():
    part = grid_partition(4, 4, 4, 2)
    assert part.num_areas == 2
    assert part.area(0) == 0
    assert part.area(3) == 1
    assert set(part.locations_in(0)) | set(part.locations_in(1)) == set(range(16))


def test_partition_rejects_nontiling():
    with pytest.raises(InputError):
        grid_partition(4, 4, 3, 2)


def test_group_of_direct_lookup(halves4):
    left = halves4.locations_in(0)[0]
    right = halves4.locations_in(1)[0]
    assert group_of(halves4, left, right) == GroupId(0, 1)
    assert group_of(halves4, right, right) == GroupId(1, 1)


def test_group_of_unmapped_location(halves4):
    with pytest.raises(InputError):
        group_of(halves4, 99, 0)


def test_group_count_over_all_pairs(halves4):
    groups = {
        group_of(halves4, a, b)
        for a in range(16)
        for b in range(16)
    }
    assert len(groups) == 4


def test_group_of_is_pure(halves4):
    assert group_of(halves4, 1, 14) == group_of(halves4, 1, 14)


def test_partition_validates_area_count():
    with pytest.raises(InputError):
        AreaPartition({0: 0, 1: 2}, 2)  # area 2 out of range
    with pytest.raises(InputError):
        AreaPartition({0: 0, 1: 0}, 2)  # declared 2 areas, mapped 1


def test_load_partition_roundtrip(tmp_path):
    path = tmp_path / "part.csv"
    path.write_text("# location,area\n0,0\n1,0\n2,1\n")
    part = load_partition(path)
    assert part.num_areas == 2
    assert part.area(2) == 1
    path.write_text("0,0\n0,1\n")
    with pytest.raises(ParseError, match="duplicate"):
        load_partition(path)


def test_asymmetric_costs_supported():
    net = from_edges([0, 1], [(0, 1, 10.0), (1, 0, 99.0)])
    assert net.travel_time(0, 1) == 10.0
    assert net.travel_time(1, 0) == 99.0


def test_from_edges_rejects_undeclared_endpoint():
    with pytest.raises(InputError, match="undeclared"):
        from_edges([0, 1], [(0, 2, 5.0)])
