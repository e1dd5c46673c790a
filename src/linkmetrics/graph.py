"""Undirected simple graphs: edge-list ingestion and structural queries."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count
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
    attribute files keyed by original ids can be joined back. Everything
    else is derived from the adjacency, and cached where that takes a pass.
    """

    adjacency: tuple[tuple[int, ...], ...]
    original_ids: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if not self.adjacency:
            raise ValueError("graph must have at least one node")
        if not self.original_ids:
            object.__setattr__(self, "original_ids", tuple(range(self.node_count)))
        if len(self.original_ids) != self.node_count:
            raise ValueError("original_ids length mismatch")

    @property
    def node_count(self) -> int:
        return len(self.adjacency)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self.adjacency))

    @cached_property
    def edge_count(self) -> int:
        return sum(self.degrees) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each undirected edge once as (i, j) with i < j, in lexicographic order."""
        return zip(*(a.tolist() for a in self.edge_arrays))

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Each undirected edge once as index arrays (i, j) with i[e] < j[e],
        in the lexicographic order of `edges()`. Built on first use and
        shared by every later caller, so both arrays are read-only."""
        src = np.repeat(np.arange(self.node_count), self.degrees)
        dst = np.fromiter(chain.from_iterable(self.adjacency), dtype=np.intp, count=len(src))
        lower = src < dst
        i, j = src[lower], dst[lower]
        i.flags.writeable = j.flags.writeable = False
        return i, j

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Each component's sorted nodes, by smallest node; searched on first use."""
        dist = [-1] * self.node_count
        return tuple(tuple(sorted(_bfs(self, s, dist))) for s in range(len(dist)) if dist[s] < 0)

    @property
    def connected(self) -> bool:
        """Whether every node reaches every other."""
        return len(self.components) == 1


def from_edges(n: int, edges, original_ids=None) -> Graph:
    """Build a Graph from undirected (u, v) pairs or an (m, 2) array, deduplicated.

    Self-loops are rejected. Nodes 0..n-1 exist even if isolated.
    """
    try:
        u, v = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    except OverflowError:  # an id past int64 is out of range
        u, v = np.asarray(edges, dtype=object).reshape(-1, 2).T
    bad = np.flatnonzero((u == v) | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n))
    if len(bad):
        a, b = edges[bad[0]]
        if a == b:
            raise GraphFormatError(f"self-loop at node {a}")
        raise ValueError(f"edge ({a},{b}) out of range for n={n}")
    # Keys src * n + dst of both orientations, sorted and deduplicated, are
    # the adjacency in CSR order. (np.unique hashes them first: 10x slower.)
    keys = np.sort(np.concatenate((u * n + v, v * n + u)))
    src, dst = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
    ends = np.cumsum(np.bincount(src, minlength=n)).tolist()
    flat = np.arange(n).astype(object)[dst].tolist()  # one int object per node, shared
    return Graph(
        adjacency=tuple(tuple(flat[a:b]) for a, b in zip([0] + ends, ends)),
        original_ids=tuple(original_ids) if original_ids is not None else (),
    )


def data_lines(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, stripped line, its whitespace-separated tokens) for
    each line of an input file that is neither blank nor a '#' comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line, line.split()


def parse_edge_list(source: str | bytes) -> Graph:
    """Parse a SNAP-style edge list into a Graph.

    Lines starting with '#' are comments; data lines hold two
    whitespace-separated non-negative integers. Original ids are remapped
    densely in first-appearance order; duplicate edges (in either
    orientation) are collapsed. Bytes are UTF-8, with or without a BOM.
    """
    if isinstance(source, bytes):
        source = source.decode("utf-8-sig")

    labels: list[int] = []  # both ends of every data line, in file order
    for lineno, line, parts in data_lines(source):
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
        labels += (u_lbl, v_lbl)

    if not labels:
        raise EmptyGraphError("edge list contains no data lines")
    index_of = dict(zip(dict.fromkeys(labels), count()))  # first-appearance order
    edges = np.fromiter(map(index_of.__getitem__, labels), dtype=np.int64, count=len(labels))
    return from_edges(len(index_of), edges, original_ids=list(index_of))


def load_edge_list(path: str | Path) -> Graph:
    return parse_edge_list(Path(path).read_text(encoding="utf-8-sig"))


def _bfs(g: Graph, start: int, dist: list[int]) -> list[int]:
    """Breadth-first search from `start` through the nodes whose dist is
    still -1: sets each reached node's dist to its hop count from start and
    returns the nodes in the order reached, so a farthest node comes last."""
    dist[start] = 0
    order = [start]
    for u in order:  # order grows as the search reaches nodes
        for v in g.adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                order.append(v)
    return order


def is_connected(g: Graph) -> bool:
    return g.connected


def largest_connected_component(g: Graph) -> Graph:
    """Induced subgraph on the largest component, nodes remapped densely;
    a connected graph is returned as it is.

    Ties broken towards the component containing the smallest original id;
    relative node order is preserved.
    """
    if g.connected:
        return g
    best = max(g.components, key=lambda c: (len(c), -min(g.original_ids[i] for i in c)))
    u, v = g.edge_arrays
    keep = np.isin(u, best)  # v shares u's component
    edges = np.searchsorted(best, np.column_stack((u[keep], v[keep])))  # best is sorted
    return from_edges(len(best), edges, original_ids=[g.original_ids[i] for i in best])


def diameter(g: Graph) -> int:
    """Max shortest-path length over all node pairs (BFS from every node)."""
    if not g.connected:
        raise DisconnectedGraphError("diameter requires a connected graph")
    ecc = 0
    for s in range(g.node_count):
        dist = [-1] * g.node_count
        ecc = max(ecc, dist[_bfs(g, s, dist)[-1]])  # the last node reached is the farthest
    return ecc
