from __future__ import annotations

import heapq
import math
from array import array
import pickle
import random

import pytest

import fairdispatch.network as network_module
from fairdispatch.errors import InputError, ParseError
from fairdispatch.network import (
    MAX_LOCATIONS,
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


def heap_all_pairs(locations, edges):
    """Oracle: a heap Dijkstra from every source, in location-index space.

    Nodes settle in (distance, index) order and a relaxation needs a strictly
    shorter distance, so each node keeps the first settled tight in-neighbour
    as its parent; the next hop is the first node after the source on that
    parent chain.
    """
    index = {loc: i for i, loc in enumerate(locations)}
    n = len(locations)
    adjacency = [[] for _ in range(n)]
    for u, v, cost in edges:
        adjacency[index[u]].append((index[v], cost))
    for neighbours in adjacency:
        neighbours.sort()

    dist = [[UNREACHABLE] * n for _ in range(n)]
    next_hop = [[-1] * n for _ in range(n)]
    for src in range(n):
        d = dist[src]
        hop = next_hop[src]
        d[src] = 0.0
        hop[src] = src
        heap = [(0.0, src)]
        while heap:
            du, u = heapq.heappop(heap)
            if du > d[u]:
                continue
            first = hop[u]
            for v, cost in adjacency[u]:
                dv = du + cost
                if dv < d[v]:
                    d[v] = dv
                    hop[v] = v if u == src else first
                    heapq.heappush(heap, (dv, v))
    return dist, next_hop


def assert_tables_match_heap(net):
    """Both flat tables equal the oracle's rows laid end to end, byte for byte."""
    dist, next_hop = heap_all_pairs(net.locations, net.edges)
    flat_dist = array("d", [d for row in dist for d in row]).tobytes()
    flat_hop = array("i", [hop for row in next_hop for hop in row]).tobytes()
    # bit-identical distances, as float.hex would compare them
    assert net._dist.tobytes() == flat_dist
    assert net._next_hop.tobytes() == flat_hop
    assert net.travel_table().tobytes() == flat_dist
    n = len(net.locations)
    assert net.travel_matrix().shape == (n, n)
    assert net.travel_matrix().tobytes() == flat_dist


def random_digraph(rng):
    """Non-contiguous ids, parallel edges, self-loops and unreachable pairs."""
    locations = rng.sample(range(-50, 200), rng.randint(1, 14))
    costs = [1.0, 2.0, 3.0, 0.1, 0.2, 0.3, 1 / 3, 2 / 3]
    edges = []
    for u in locations:
        for v in locations:
            while rng.random() < 0.3:
                edges.append((u, v, rng.choice(costs)))
    return locations, edges


@pytest.mark.parametrize(
    "rows, cost",
    [(6, 1 / 3), (6, 0.1), (10, 1 / 3), (10, 0.1), (20, 1 / 3), (20, 0.1), (40, 1 / 3)],
)
def test_grid_tables_match_heap_dijkstra(rows, cost):
    assert_tables_match_heap(make_grid(rows, rows, cost))


def test_small_tables_match_heap_dijkstra(tmp_path):
    (tmp_path / "empty.csv").write_text("")
    assert_tables_match_heap(load_network(tmp_path / "empty.csv"))
    assert_tables_match_heap(make_grid(1, 1, 60.0))
    # parallel edges (the dearer one first), self-loops, two components and
    # asymmetric costs with an equal-cost detour
    edges = [
        (10, 20, 5.0), (10, 20, 2.0), (20, 20, 1.0), (20, 30, 1.0), (10, 30, 3.0),
        (30, 10, 9.0), (40, 50, 1.0), (50, 40, 4.0), (40, 40, 0.5),
    ]
    net = from_edges([10, 20, 30, 40, 50], edges)
    assert_tables_match_heap(net)
    # 10 -> 30 direct (3) ties 10 -> 20 -> 30 (2 + 1); the parent with the
    # least (distance, id) is the source itself
    assert net.next_hop(10, 30) == 30
    assert net.travel_time(20, 40) == UNREACHABLE


def test_random_digraph_tables_match_heap_dijkstra():
    rng = random.Random(11)
    for _ in range(60):
        assert_tables_match_heap(from_edges(*random_digraph(rng)))


def test_pickled_network_answers_the_same_lookups():
    net = make_grid(6, 6, 1 / 3)
    copy = pickle.loads(pickle.dumps(net))
    for table in ("_dist", "_next_hop"):
        kept, sent = getattr(net, table), getattr(copy, table)
        assert (sent.typecode, len(sent)) == (kept.typecode, 36 * 36)
        assert sent.tobytes() == kept.tobytes()
    assert copy.travel_matrix().tobytes() == net.travel_matrix().tobytes()
    assert not copy.travel_matrix().flags.writeable
    for a in net.locations:
        for b in net.locations:
            assert copy.travel_time(a, b).hex() == net.travel_time(a, b).hex()
            assert copy.next_hop(a, b) == net.next_hop(a, b)
    assert type(copy.travel_time(0, 35)) is float and type(copy.next_hop(0, 35)) is int


def test_travel_views_refuse_writes():
    net = make_grid(3, 3, 60.0)
    matrix = net.travel_matrix()
    assert not matrix.flags.writeable
    with pytest.raises(ValueError):
        matrix[0, 1] = 0.0
    with pytest.raises(ValueError):
        matrix.flags.writeable = True
    with pytest.raises(TypeError):
        net.travel_table()[1] = 0.0
    assert net.travel_time(0, 1) == matrix[0, 1] == 60.0


def test_index_of_addresses_the_tables():
    net = from_edges([30, 10, 20], [(10, 20, 2.0), (20, 30, 1 / 3), (30, 10, 5.0)])
    n = len(net.locations)
    flat, matrix = net.travel_table(), net.travel_matrix()
    for a in net.locations:
        for b in net.locations:
            i, j = net.index_of(a), net.index_of(b)
            assert flat[i * n + j] == matrix[i, j] == net.travel_time(a, b)
    assert [net.index_of(loc) for loc in (10, 20, 30)] == [0, 1, 2]
    with pytest.raises(InputError, match="unknown location id 99"):
        net.index_of(99)


def test_oversized_networks_are_refused_before_any_dijkstra(tmp_path, monkeypatch):
    def no_dijkstra(*args, **kwargs):
        raise AssertionError("dijkstra ran")

    monkeypatch.setattr(network_module, "dijkstra", no_dijkstra)
    with pytest.raises(InputError, match="ceiling"):
        from_edges(range(MAX_LOCATIONS + 1), [])
    with pytest.raises(InputError, match="ceiling"):
        make_grid(MAX_LOCATIONS, 2, 60.0)
    with pytest.raises(InputError, match="ceiling"):
        make_grid(10**9, 10**9, 60.0)
    path = tmp_path / "net.csv"
    path.write_text("".join(f"{2 * i},{2 * i + 1},60\n" for i in range(MAX_LOCATIONS)))
    last = MAX_LOCATIONS // 2 + 1  # the line that brings the count past the ceiling
    with pytest.raises(ParseError, match=f"net.csv:{last}: .*ceiling"):
        load_network(path)


def test_vanishing_edge_cost_is_refused(tmp_path):
    # 1000 + 1e-300 == 1000: the heap's order, not (distance, id), would break its ties
    edges = [(0, 1, 1000.0), (1, 2, 1e-300), (2, 1, 1e-300)]
    with pytest.raises(InputError, match="vanishes"):
        from_edges([0, 1, 2], edges)
    path = tmp_path / "net.csv"
    path.write_text("0,1,1000\n1,2,1e-300\n")
    with pytest.raises(ParseError, match="net.csv: edge \\(1, 2\\) cost 1e-300 vanishes"):
        load_network(path)
    # the same cost beside costs of its own scale is kept
    assert from_edges([0, 1, 2], [(0, 1, 1e-300), (1, 2, 1e-300)]).travel_time(0, 2) == 2e-300


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


def test_locations_in_equals_a_scan_of_the_map():
    rng = random.Random(13)
    for trial in range(40):
        locs = rng.sample(range(-50, 200), rng.randint(1, 40))
        num_areas = rng.randint(1, len(locs))
        areas = [*range(num_areas), *(rng.randrange(num_areas) for _ in locs[num_areas:])]
        rng.shuffle(areas)
        part = AreaPartition(dict(zip(locs, areas)), num_areas)
        for area in range(num_areas):
            scan = tuple(sorted(loc for loc, a in part.area_of.items() if a == area))
            assert part.locations_in(area) == scan, f"trial {trial}, area {area}"
        assert part.locations_in(-1) == part.locations_in(num_areas) == ()


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
