"""Shared test fixtures: canned graphs, seeded random instances, and the
plain-loop reference forms that faster code is pinned against."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from linkmetrics import cli, engine, metrics
from linkmetrics.graph import Graph, from_edges, largest_connected_component
from linkmetrics.rng import SplitMix64, derive_seed
from linkmetrics.simharness import HarnessTrace


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


def reference_neighbor_weight_sums(g: Graph, y, k: int) -> list[float]:
    """engine.neighbor_weight_sums as a per-node loop: each w_i sums
    y_j**k from 0.0 over the neighbors j in ascending id order."""
    yk = engine.node_powers(y, k)
    out = []
    for nbrs in g.adjacency:
        acc = 0.0
        for j in nbrs:
            acc += yk[j]
        out.append(acc)
    return out


def reference_min_consensus(g: Graph, x0, max_rounds: int) -> tuple[list[float], int]:
    """engine.min_consensus as a per-node loop over the closed
    neighborhoods, without its input checks."""
    x = [float(v) for v in x0]
    for r in range(max_rounds + 1):
        new = []
        for i, nbrs in enumerate(g.adjacency):
            m = x[i]
            for j in nbrs:
                if x[j] < m:
                    m = x[j]
            new.append(m)
        if new == x:
            return x, r
        x = new
    raise RuntimeError("reference min-consensus did not stabilize")


def reference_wac_run(g: Graph, x0, w, cfg=None) -> SimpleNamespace:
    """engine.wac_run with one gather per orientation and the stopping
    rule checked after every round. Returns the fields of ConsensusRun
    that it computes; it does not record a stop reason."""
    cfg = cfg or engine.ConsensusConfig()
    if len(x0) != g.node_count or len(w) != g.node_count:
        raise engine.ConfigurationError("x0/w length must equal node count")
    delta = engine.max_step_size(w, g)
    eps = engine.resolve_epsilon(cfg, delta)

    src, dst = (a.copy() for a in g.edge_arrays)
    x = np.array(x0, dtype=float)
    scale = eps / np.array(w, dtype=float)
    diff = np.empty(len(dst))
    trace = [x] if cfg.record_trace else None
    residuals: list[float] = []
    spread_tolerance = cfg.spread_tolerance
    top = float(np.abs(x).max())
    if math.isfinite(top):
        spread_tolerance = max(spread_tolerance, 16 * math.ulp(top))

    iterations = 0
    with np.errstate(over="ignore", invalid="ignore"):
        converged = float(x.max() - x.min()) <= spread_tolerance
        while not converged and iterations < cfg.max_iterations:
            x.take(dst, out=diff, mode="clip")
            diff -= x.take(src, mode="clip")
            new = x + scale * np.bincount(src, weights=diff, minlength=len(x))
            resid = float(np.fmax.reduce(np.abs(new - x), initial=0.0))
            x = new
            iterations += 1
            residuals.append(resid)
            if trace is not None:
                trace.append(x)
            if not math.isfinite(resid):
                break
            converged = (
                resid <= cfg.step_tolerance
                or float(x.max() - x.min()) <= spread_tolerance
            )

    final = x.tolist()
    value = math.nan
    if all(map(math.isfinite, final)):
        try:
            value = math.fsum(final) / len(final)
        except OverflowError:
            value = math.fsum(v / len(final) for v in final)
    return SimpleNamespace(
        final_states=final,
        iterations_used=iterations,
        converged=converged and math.isfinite(value),
        consensus_value=value,
        epsilon=eps,
        max_step_bound=delta,
        trace=trace,
        residual_trace=residuals,
    )


def reference_normalized_weight_matrix(g: Graph, w, epsilon: float) -> np.ndarray:
    """spectral.normalized_weight_matrix as a loop over the nodes and
    their larger neighbors, mirroring each upper-triangle entry."""
    n = g.node_count
    inv_sqrt = [1.0 / math.sqrt(wi) for wi in w]
    m = np.zeros((n, n))
    for i in range(n):
        m[i, i] = 1.0 - epsilon * g.degrees[i] * inv_sqrt[i] * inv_sqrt[i]
        for j in g.adjacency[i]:
            if j > i:
                m[i, j] = epsilon * inv_sqrt[i] * inv_sqrt[j]
                m[j, i] = m[i, j]
    return m


def reference_generate_synthetic(n: int, p: float, seed: int) -> Graph:
    """cli.generate_synthetic as one scalar SplitMix64.random() draw per
    pair (i, j), in lexicographic order."""
    rng = SplitMix64(derive_seed(seed, 0))
    edges = [(i, j) for i in range(n - 1) for j in range(i + 1, n) if rng.random() < p]
    return largest_connected_component(from_edges(n, edges))


def reference_run_synchronous(g: Graph, prog, inputs, max_rounds: int) -> HarnessTrace:
    """simharness.run_synchronous as a plain loop: each round builds every
    inbox and logs every delivered (sender, receiver) pair."""
    states, outgoing = [], []
    for i in range(g.node_count):
        state, msg = prog.init(i, g.degrees[i], inputs[i])
        states.append(state)
        outgoing.append(msg)
    snapshots = [list(states)]
    pairs: set[tuple[int, int]] = set()
    rounds = 0
    for _ in range(max_rounds):
        if all(prog.halted(s) for s in states):
            break
        new_states, new_outgoing = [], []
        for i in range(g.node_count):
            inbox = tuple(outgoing[j] for j in g.adjacency[i])
            for j in g.adjacency[i]:
                pairs.add((j, i))
            state, msg = prog.on_round(states[i], inbox)
            new_states.append(state)
            new_outgoing.append(msg)
        states, outgoing = new_states, new_outgoing
        rounds += 1
        snapshots.append(list(states))
    return HarnessTrace(states=snapshots, rounds_executed=rounds, message_pairs=pairs)


def reference_polynomial_terms(g: Graph, y, spec: metrics.MetricSpec, cfg=None):
    """metrics.polynomial_metric_terms with no shared stage: every term
    runs its own S(l,k) and S(k,0)."""
    terms = []
    for l, k, c in spec.terms:
        runs = (metrics._stage(g, y, l, k, cfg), metrics._stage(g, y, k, 0, cfg))
        a1, a2 = (r.consensus_value for r in runs)
        terms.append(metrics.PolyTermResult(l, k, c, a1, a2, a1 * a2 * c, runs))
    return terms
