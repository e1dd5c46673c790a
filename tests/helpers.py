"""Shared test fixtures: canned graphs and seeded random instances."""

from __future__ import annotations

from linkmetrics import cli
from linkmetrics.graph import Graph, from_edges
from linkmetrics.rng import SplitMix64


def triangle() -> Graph:
    return from_edges(3, [(0, 1), (1, 2), (0, 2)])


def path(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> Graph:
    return from_edges(n, [(0, i) for i in range(1, n)])


def complete(n: int) -> Graph:
    return from_edges(n, [(i, j) for i in range(n - 1) for j in range(i + 1, n)])


def preferential_attachment(n: int, attach: int, seed: int) -> Graph:
    """Seeded Barabasi-Albert graph: a clique on attach+1 nodes, then each
    new node links to `attach` distinct earlier nodes drawn in proportion
    to degree, so the first nodes grow into hubs."""
    rng = SplitMix64(seed)
    core = attach + 1
    edges = [(i, j) for i in range(core) for j in range(i + 1, core)]
    ends = [v for e in edges for v in e]
    for v in range(core, n):
        targets: set[int] = set()
        while len(targets) < attach:
            targets.add(ends[rng.next_uint64() % len(ends)])
        for u in sorted(targets):
            edges.append((u, v))
            ends += (u, v)
    return from_edges(n, edges)


def er_instance(seed: int, n_lo: int = 20, n_hi: int = 200, mean_degree: float = 5.0,
                attr_mean: float = 5.0) -> tuple[Graph, list[float]]:
    """Seeded connected ER graph plus positive exponential attributes."""
    rng = SplitMix64(seed)
    n = n_lo + rng.next_uint64() % (n_hi - n_lo + 1)
    p = min(1.0, mean_degree / max(n - 1, 1))
    g = cli.generate_synthetic(n, p, seed)
    y = cli.generate_attributes(g, attr_mean, seed)
    return g, y


class _EdgeCountBlocked(Graph):
    """Graph whose edge_count cannot be read (M-independence audits)."""

    @property
    def edge_count(self):
        raise AssertionError("pipeline read the global edge count")


def block_edge_count(g: Graph) -> Graph:
    blocked = object.__new__(_EdgeCountBlocked)
    # edge_count deliberately not set: reads hit the raising property
    for name in ("node_count", "adjacency", "degrees", "original_ids"):
        object.__setattr__(blocked, name, getattr(g, name))
    return blocked
