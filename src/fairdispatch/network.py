"""Street graph, travel-time queries, and the geographic area partition.

The network is a directed graph of integer location ids with strictly
positive edge costs in seconds.  All-pairs shortest travel times, and the
next hop along each shortest path, are precomputed at construction time with
`scipy.sparse.csgraph.dijkstra`, a block of sources at a time, so lookups
inside the dispatch loop are plain table reads returning `float` and `int`.

Among equal-cost shortest paths the next hop is fixed by one rule.  The
parent of t on paths from s is the in-neighbour u whose edge is tight
(`d(s, u) + cost == d(s, t)`, compared as floats) with the least
`(d(s, u), u)`; the next hop from s to t is the node of t's parent chain
whose parent is s.  This is the path a heap Dijkstra finds when it settles
nodes in (distance, id) order and relaxes only on a strictly shorter
distance.  Parallel edges count at their cheapest cost; self-loops never lie
on a shortest path.

Each table is one flat array of n**2 entries, row-major by location index
(entry `i * n + j` is from index i to index j), allocated once at full size
and filled a block of rows at a time through a NumPy view.  `index_of` maps
a location id to its index, `travel_table` is the read-only flat distance
table and `travel_matrix` its read-only (n, n) NumPy view, so a caller can
check a whole fleet against a whole batch in one comparison.

The two tables take 12 bytes per ordered pair of locations (a float64 and a
C int), 12 * n**2 bytes in all, so a network above `MAX_LOCATIONS` is
refused before either is allocated.  An edge whose cost vanishes against a
finite distance it extends (`d(s, u) + cost == d(s, u)`, as with 1e-300
beside 1000) is refused too: ties through it would follow the heap's order,
not (distance, id).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import dijkstra

from ._records import read_records
from .errors import ContractError, InputError, ParseError

UNREACHABLE = math.inf
# The distance and next-hop tables take 12 bytes per ordered pair of
# locations (a float64 and a C int): 1.2 GB at this ceiling.
MAX_LOCATIONS = 10_000
_SOURCE_BLOCK = 128  # Dijkstra sources per block; bounds the per-block arrays


class GroupId(NamedTuple):
    """Passenger group: (origin area, destination area)."""

    origin_area: int
    dest_area: int


@dataclass(frozen=True)
class StreetNetwork:
    """Immutable directed graph with precomputed travel times.

    Build instances through :func:`make_grid`, :func:`load_network` or
    :func:`from_edges`; the constructor assumes already-validated input.
    """

    locations: tuple[int, ...]
    edges: tuple[tuple[int, int, float], ...]
    _index: dict[int, int] = field(repr=False)
    _dist: array = field(repr=False)  # "d", n * n entries
    _next_hop: array = field(repr=False)  # "i", n * n entries; -1 where no path

    def __contains__(self, location: int) -> bool:
        return location in self._index

    def index_of(self, location: int) -> int:
        """Row and column of `location` in the travel tables."""
        try:
            return self._index[location]
        except KeyError:
            raise InputError(f"unknown location id {location}") from None

    def travel_table(self) -> memoryview:
        """Read-only flat distance table; entry `i * n + j` is index i to index j."""
        return memoryview(self._dist).toreadonly()

    def travel_matrix(self) -> np.ndarray:
        """Read-only (n, n) NumPy view of the distance table, by location index."""
        n = len(self.locations)
        return np.frombuffer(self.travel_table(), dtype=np.float64).reshape(n, n)

    def travel_time(self, origin: int, dest: int) -> float:
        """Minimum travel seconds from origin to dest; UNREACHABLE if no path."""
        try:
            i = self._index[origin]
            j = self._index[dest]
        except KeyError as exc:
            raise InputError(f"unknown location id {exc.args[0]}") from None
        return self._dist[i * len(self.locations) + j]

    def next_hop(self, origin: int, dest: int) -> int:
        """First location after `origin` on a shortest path to `dest`."""
        try:
            i = self._index[origin]
            j = self._index[dest]
        except KeyError as exc:
            raise InputError(f"unknown location id {exc.args[0]}") from None
        hop = self._next_hop[i * len(self.locations) + j]
        if hop < 0:
            raise InputError(f"no path from {origin} to {dest}")
        return self.locations[hop]


def from_edges(
    locations: Iterable[int], edges: Iterable[tuple[int, int, float]]
) -> StreetNetwork:
    """Build a network from explicit locations and directed weighted edges."""
    locs = tuple(sorted(set(locations)))
    if len(locs) > MAX_LOCATIONS:
        raise InputError(_too_many(len(locs)))
    index = {loc: i for i, loc in enumerate(locs)}
    edge_list: list[tuple[int, int, float]] = []
    for u, v, cost in edges:
        if u not in index or v not in index:
            raise InputError(f"edge ({u}, {v}) references an undeclared location")
        if not (cost > 0 and math.isfinite(cost)):
            raise InputError(f"edge ({u}, {v}) has non-positive cost {cost}")
        edge_list.append((u, v, float(cost)))
    dist, next_hop = _all_pairs(locs, index, edge_list)
    return StreetNetwork(locs, tuple(edge_list), index, dist, next_hop)


def _too_many(count: int) -> str:
    return (
        f"{count} locations exceed the ceiling of {MAX_LOCATIONS}: "
        "the travel tables take 12 bytes per ordered pair"
    )


def _all_pairs(
    locs: tuple[int, ...],
    index: dict[int, int],
    edges: list[tuple[int, int, float]],
) -> tuple[array, array]:
    """Dijkstra from every source, a block at a time; returns the flat distance and next-hop tables."""
    n = len(locs)
    # csr_array sums parallel entries; the cheapest edge alone decides every
    # shortest path, and a self-loop never lies on one.
    cheapest: dict[tuple[int, int], float] = {}
    for u, v, cost in edges:
        pair = (index[u], index[v])
        if pair[0] != pair[1] and cost < cheapest.get(pair, math.inf):
            cheapest[pair] = cost
    graph = csr_array(
        (list(cheapest.values()), np.array(list(cheapest), dtype=np.intp).reshape(-1, 2).T),
        shape=(n, n),
    )
    # ranked[j] holds the j-th in-edge, by ascending tail, of every node that
    # has one; within a rank no two edges share a head.
    ranked: list[list[tuple[int, int, float]]] = []
    in_degree = [0] * n
    for u, v in sorted(cheapest):
        if in_degree[v] == len(ranked):
            ranked.append([])
        ranked[in_degree[v]].append((u, v, cheapest[u, v]))
        in_degree[v] += 1
    layers = []
    for rank in ranked:
        tails, heads, costs = zip(*rank)
        layers.append((np.array(tails), np.array(heads), np.array(costs)[:, None]))

    # Repeating a one-entry array allocates the table once, with no
    # temporary of its size.
    dist = array("d", [0.0]) * (n * n)
    next_hop = array("i", [0]) * (n * n)
    dist_rows = np.frombuffer(dist, dtype=np.float64).reshape(n, n)
    hop_rows = np.frombuffer(next_hop, dtype=np.intc).reshape(n, n)
    for first in range(0, n, _SOURCE_BLOCK):
        sources = np.arange(first, min(first + _SOURCE_BLOCK, n))
        d = dijkstra(graph, indices=sources)
        # Column k holds source k's distances, one row per node.
        dt = np.ascontiguousarray(d.T)
        # parent[t, k]: the in-neighbour u of t whose relaxation settled
        # dt[t, k], the least (dt[u, k], u) among tight ones; n if none.
        parent = np.full(dt.shape, n, dtype=np.intc)
        least = np.full(dt.shape, np.inf)
        for tails, heads, costs in layers:
            via = dt[tails]
            reach = via + costs
            extends = np.isfinite(via)
            if np.any(extends & (reach == via)):
                e, k = np.argwhere(extends & (reach == via))[0]
                raise InputError(
                    f"edge ({locs[tails[e]]}, {locs[heads[e]]}) cost {float(costs[e, 0])!r} "
                    f"vanishes against distance {float(via[e, k])!r}"
                )
            best = least[heads]
            tight = extends & (reach == dt[heads]) & (via < best)
            least[heads] = np.where(tight, via, best)
            parent[heads] = np.where(tight, tails[:, None], parent[heads])
        # The hop to t is the node of t's parent chain whose parent is the
        # source; point every other chained node at its parent and double.
        own = np.broadcast_to(np.arange(n, dtype=np.intc)[:, None], dt.shape)
        hop = np.where((parent < n) & (parent != sources), parent, own)
        for _ in range((n - 1).bit_length() + 1):
            up = np.take_along_axis(hop, hop, axis=0)
            if np.array_equal(up, hop):
                break
            hop = up
        else:
            raise ContractError("next-hop chains did not settle")
        dist_rows[first : first + len(sources)] = d
        hop_rows[first : first + len(sources)] = np.where(np.isfinite(d), hop.T, np.intc(-1))
    return dist, next_hop


def make_grid(rows: int, cols: int, edge_cost: float) -> StreetNetwork:
    """Bidirectional grid graph; location id of cell (r, c) is r * cols + c."""
    if rows < 1 or cols < 1:
        raise InputError(f"grid dimensions must be positive, got {rows}x{cols}")
    if rows * cols > MAX_LOCATIONS:
        raise InputError(f"grid {rows}x{cols}: {_too_many(rows * cols)}")
    if not edge_cost > 0:
        raise InputError(f"edge cost must be positive, got {edge_cost}")
    edges = []
    for r in range(rows):
        for c in range(cols):
            here = r * cols + c
            if c + 1 < cols:
                edges.append((here, here + 1, edge_cost))
                edges.append((here + 1, here, edge_cost))
            if r + 1 < rows:
                edges.append((here, here + cols, edge_cost))
                edges.append((here + cols, here, edge_cost))
    return from_edges(range(rows * cols), edges)


def load_network(path: str | Path) -> StreetNetwork:
    """Parse an edge-list CSV: `from_id,to_id,cost_seconds`, '#' comments allowed."""
    locations: set[int] = set()
    edges: list[tuple[int, int, float]] = []
    for where, (u, v, cost) in read_records(path, "from,to,cost", (int, int, float)):
        if not (cost > 0 and math.isfinite(cost)):
            raise ParseError(f"{where}: edge cost must be positive, got {cost}")
        locations.update((u, v))
        if len(locations) > MAX_LOCATIONS:
            raise ParseError(f"{where}: {_too_many(len(locations))}")
        edges.append((u, v, cost))
    try:
        return from_edges(locations, edges)
    except InputError as exc:
        raise ParseError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class AreaPartition:
    """Total map from location id to area id in [0, num_areas)."""

    area_of: dict[int, int]
    num_areas: int

    def __post_init__(self) -> None:
        seen = set(self.area_of.values())
        if seen and (min(seen) < 0 or max(seen) >= self.num_areas):
            raise InputError(f"area ids must lie in [0, {self.num_areas})")
        if len(seen) != self.num_areas:
            raise InputError(
                f"partition declares {self.num_areas} areas but maps {len(seen)}"
            )

    def area(self, location: int) -> int:
        try:
            return self.area_of[location]
        except KeyError:
            raise InputError(f"location {location} is not mapped to an area") from None

    def locations_in(self, area: int) -> tuple[int, ...]:
        """The area's locations, ascending; () for an id outside [0, num_areas)."""
        return self._members.get(area, ())

    @cached_property
    def _members(self) -> dict[int, tuple[int, ...]]:
        """Each area's sorted locations, built in one scan on first read."""
        members: dict[int, list[int]] = {}
        for loc in sorted(self.area_of):
            members.setdefault(self.area_of[loc], []).append(loc)
        return {a: tuple(locs) for a, locs in members.items()}


def group_of(partition: AreaPartition, origin: int, dest: int) -> GroupId:
    """Origin-destination group of a trip under the partition."""
    return GroupId(partition.area(origin), partition.area(dest))


def grid_partition(
    rows: int, cols: int, rows_per_area: int, cols_per_area: int
) -> AreaPartition:
    """Rectangular tiling of a `make_grid(rows, cols, ...)` network into areas."""
    if rows_per_area < 1 or cols_per_area < 1:
        raise InputError("area tile dimensions must be positive")
    if rows % rows_per_area or cols % cols_per_area:
        raise InputError(
            f"tile {rows_per_area}x{cols_per_area} does not divide grid {rows}x{cols}"
        )
    tiles_per_row = cols // cols_per_area
    area_of = {}
    for r in range(rows):
        for c in range(cols):
            area_of[r * cols + c] = (r // rows_per_area) * tiles_per_row + c // cols_per_area
    return AreaPartition(area_of, (rows // rows_per_area) * tiles_per_row)


def load_partition(path: str | Path) -> AreaPartition:
    """Parse a partition CSV: `location_id,area_id`, '#' comments allowed."""
    area_of: dict[int, int] = {}
    for where, (loc, area) in read_records(path, "location,area", (int, int)):
        if loc in area_of:
            raise ParseError(f"{where}: duplicate location {loc}")
        area_of[loc] = area
    if not area_of:
        raise ParseError(f"{path}: partition file is empty")
    try:
        return AreaPartition(area_of, max(area_of.values()) + 1)
    except InputError as exc:
        raise ParseError(f"{path}: {exc}") from None
