"""Undirected simple graphs: edge-list ingestion and structural queries."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterator

import numpy as np


class GraphFormatError(ValueError):
    """Malformed edge-list input (bad token, self-loop, wrong arity)."""


class EmptyGraphError(ValueError):
    """Input contained no usable data lines."""


class DisconnectedGraphError(ValueError):
    """Operation requires a connected graph."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with sorted adjacency lists.

    Node ids are dense and 0-based. `original_ids[i]` keeps the label the
    node carried in the source file (identity for in-memory graphs), so
    attribute files keyed by original ids can be joined back.
    """

    node_count: int
    adjacency: tuple[tuple[int, ...], ...]
    degrees: tuple[int, ...]
    edge_count: int
    original_ids: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("graph must have at least one node")
        if not self.original_ids:
            object.__setattr__(self, "original_ids", tuple(range(self.node_count)))
        if len(self.original_ids) != self.node_count:
            raise ValueError("original_ids length mismatch")
        if 2 * self.edge_count != sum(self.degrees):
            raise ValueError("edge count inconsistent with degree sum")

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once as (i, j) with i < j."""
        for i, nbrs in enumerate(self.adjacency):
            for j in nbrs:
                if j > i:
                    yield (i, j)

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Both orientations of every edge, ordered by node, then by
        neighbor id: node src[e] has neighbor dst[e]. Built on first use
        and shared by every later caller, so both arrays are read-only."""
        src = np.repeat(np.arange(self.node_count), self.degrees)
        dst = np.fromiter(chain.from_iterable(self.adjacency), dtype=np.intp, count=len(src))
        src.flags.writeable = dst.flags.writeable = False
        return src, dst

    @cached_property
    def connected(self) -> bool:
        """Whether every node reaches every other; one BFS on first use."""
        return len(_components(self)[0]) == self.node_count


def from_edges(n: int, edges, original_ids=None) -> Graph:
    """Build a Graph from undirected edge pairs (deduplicated).

    Self-loops are rejected. Nodes 0..n-1 exist even if isolated.
    """
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise GraphFormatError(f"self-loop at node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        adj[u].add(v)
        adj[v].add(u)
    adjacency = tuple(tuple(sorted(s)) for s in adj)
    degrees = tuple(len(a) for a in adjacency)
    m = sum(degrees) // 2
    return Graph(
        node_count=n,
        adjacency=adjacency,
        degrees=degrees,
        edge_count=m,
        original_ids=tuple(original_ids) if original_ids is not None else (),
    )


def parse_edge_list(source: str | bytes) -> Graph:
    """Parse a SNAP-style edge list into a Graph.

    Lines starting with '#' are comments; data lines hold two
    whitespace-separated non-negative integers. Original ids are remapped
    densely in first-appearance order; duplicate edges (in either
    orientation) are collapsed.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8")

    index_of: dict[int, int] = {}
    labels: list[int] = []
    edges: list[tuple[int, int]] = []

    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected two tokens, got {len(parts)}")
        try:
            u_lbl, v_lbl = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-numeric token in {line!r}") from None
        if u_lbl < 0 or v_lbl < 0:
            raise GraphFormatError(f"line {lineno}: negative node id")
        if u_lbl == v_lbl:
            raise GraphFormatError(f"line {lineno}: self-loop on node {u_lbl}")
        for lbl in (u_lbl, v_lbl):
            if lbl not in index_of:
                index_of[lbl] = len(labels)
                labels.append(lbl)
        edges.append((index_of[u_lbl], index_of[v_lbl]))

    if not edges:
        raise EmptyGraphError("edge list contains no data lines")
    return from_edges(len(labels), edges, original_ids=labels)


def load_edge_list(path: str | Path) -> Graph:
    return parse_edge_list(Path(path).read_text(encoding="utf-8"))


def _components(g: Graph) -> list[list[int]]:
    seen = [False] * g.node_count
    comps: list[list[int]] = []
    for start in range(g.node_count):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in g.adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return g.connected


def largest_connected_component(g: Graph) -> Graph:
    """Induced subgraph on the largest component, nodes remapped densely.

    Ties broken towards the component containing the smallest original id;
    relative node order is preserved.
    """
    comps = _components(g)
    best = max(comps, key=lambda c: (len(c), -min(g.original_ids[i] for i in c)))
    remap = {old: new for new, old in enumerate(best)}
    edges = [
        (remap[u], remap[v])
        for u in best
        for v in g.adjacency[u]
        if u < v and v in remap
    ]
    return from_edges(len(best), edges, original_ids=[g.original_ids[i] for i in best])


def _bfs_eccentricity(g: Graph, start: int) -> int:
    dist = [-1] * g.node_count
    dist[start] = 0
    queue = deque([start])
    ecc = 0
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                ecc = max(ecc, dist[v])
                queue.append(v)
    if any(d < 0 for d in dist):
        raise DisconnectedGraphError("diameter requires a connected graph")
    return ecc


def diameter(g: Graph) -> int:
    """Max shortest-path length over all node pairs (BFS from every node)."""
    return max(_bfs_eccentricity(g, s) for s in range(g.node_count))
