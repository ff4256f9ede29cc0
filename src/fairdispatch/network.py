"""Street graph, travel-time queries, and the geographic area partition.

The network is a directed graph of integer location ids with strictly
positive edge costs in seconds.  All-pairs shortest travel times (and the
next hop along each shortest path) are precomputed at construction time,
so lookups inside the dispatch loop are plain table reads.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple

from ._records import read_records
from .errors import InputError, ParseError

UNREACHABLE = math.inf


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
    _dist: list[list[float]] = field(repr=False)
    _next_hop: list[list[int]] = field(repr=False)

    def __contains__(self, location: int) -> bool:
        return location in self._index

    def travel_time(self, origin: int, dest: int) -> float:
        """Minimum travel seconds from origin to dest; UNREACHABLE if no path."""
        try:
            i = self._index[origin]
            j = self._index[dest]
        except KeyError as exc:
            raise InputError(f"unknown location id {exc.args[0]}") from None
        return self._dist[i][j]

    def next_hop(self, origin: int, dest: int) -> int:
        """First location after `origin` on a shortest path to `dest`."""
        try:
            i = self._index[origin]
            j = self._index[dest]
        except KeyError as exc:
            raise InputError(f"unknown location id {exc.args[0]}") from None
        hop = self._next_hop[i][j]
        if hop < 0:
            raise InputError(f"no path from {origin} to {dest}")
        return self.locations[hop]


def from_edges(
    locations: Iterable[int], edges: Iterable[tuple[int, int, float]]
) -> StreetNetwork:
    """Build a network from explicit locations and directed weighted edges."""
    locs = tuple(sorted(set(locations)))
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


def _all_pairs(
    locs: tuple[int, ...],
    index: dict[int, int],
    edges: list[tuple[int, int, float]],
) -> tuple[list[list[float]], list[list[int]]]:
    """Dijkstra from every source; returns dense distance and next-hop tables."""
    n = len(locs)
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n)]
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


def make_grid(rows: int, cols: int, edge_cost: float) -> StreetNetwork:
    """Bidirectional grid graph; location id of cell (r, c) is r * cols + c."""
    if rows < 1 or cols < 1:
        raise InputError(f"grid dimensions must be positive, got {rows}x{cols}")
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
        edges.append((u, v, cost))
    return from_edges(locations, edges)


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
        return tuple(sorted(loc for loc, a in self.area_of.items() if a == area))


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
    return AreaPartition(area_of, max(area_of.values()) + 1)
