"""Shared test fixtures: canned graphs, seeded random instances, and the
plain-loop reference forms that faster code is pinned against."""

from __future__ import annotations

import math
from collections import deque
from types import SimpleNamespace

import numpy as np

from linkmetrics import cli, engine, metrics, oracle
from linkmetrics.graph import (
    EmptyGraphError,
    Graph,
    GraphFormatError,
    from_edges,
    largest_connected_component,
)
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
    # edge_count is derived, so reads hit the raising property
    for name in ("adjacency", "original_ids"):
        object.__setattr__(blocked, name, getattr(g, name))
    return blocked


def reference_from_edges(n: int, edges, original_ids=None) -> Graph:
    """graph.from_edges as a loop that checks each pair in input order
    and collects each node's neighbors in a set."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise GraphFormatError(f"self-loop at node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        adj[u].add(v)
        adj[v].add(u)
    return Graph(
        adjacency=tuple(tuple(sorted(s)) for s in adj),
        original_ids=tuple(original_ids) if original_ids is not None else (),
    )


def reference_parse_edge_list(source) -> Graph:
    """graph.parse_edge_list as one loop over the lines that checks each
    line and numbers each new label as it first appears."""
    if isinstance(source, bytes):
        source = source.decode("utf-8-sig")
    index_of: dict[int, int] = {}
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
            index_of.setdefault(lbl, len(index_of))
        edges.append((index_of[u_lbl], index_of[v_lbl]))
    if not edges:
        raise EmptyGraphError("edge list contains no data lines")
    return reference_from_edges(len(index_of), edges, original_ids=list(index_of))


def reference_largest_connected_component(g: Graph) -> Graph:
    """graph.largest_connected_component as a BFS per component and the
    induced edges collected pair by pair through a dict remap."""
    seen = [False] * g.node_count
    comps = []
    for start in range(g.node_count):
        if seen[start]:
            continue
        comp, queue = [start], deque([start])
        seen[start] = True
        while queue:
            for v in g.adjacency[queue.popleft()]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        comps.append(sorted(comp))
    best = max(comps, key=lambda c: (len(c), -min(g.original_ids[i] for i in c)))
    remap = {old: new for new, old in enumerate(best)}
    edges = [(remap[u], remap[v]) for u in best for v in g.adjacency[u] if u < v and v in remap]
    return reference_from_edges(len(best), edges, original_ids=[g.original_ids[i] for i in best])


def reference_validate_positive(values, name: str) -> None:
    """engine.validate_positive as a loop that stops at the first value
    that is not positive and finite."""
    for i, v in enumerate(values):
        if not 0 < v < math.inf:
            raise ValueError(f"{name}[{i}] = {v} must be positive and finite")


def reference_node_powers(y, k: int) -> np.ndarray:
    """engine.node_powers as a per-node loop: v * v for k = 2, libm pow
    otherwise, stopping at the first power that is not finite."""
    out = np.empty(len(y))
    for i, v in enumerate(y):
        try:
            p = v * v if k == 2 else pow(v, k)
        except OverflowError:
            p = math.inf
        if not math.isfinite(p):
            raise ValueError(f"node {i}: attribute {v!r} to the power {k} is not finite")
        out[i] = p
    return out


def evaluate_spec(spec: metrics.MetricSpec, u: float, v: float) -> float:
    """f(u, v) = sum c * u**l * v**k over the terms of `spec`."""
    return math.fsum(c * u**l * v**k for l, k, c in spec.terms)


def reference_exact_polynomial_metric(g: Graph, y, spec: metrics.MetricSpec) -> float:
    """oracle.exact_polynomial_metric as one generator over g.edges() that
    evaluates f both ways round on each edge."""
    if g.edge_count < 1:
        raise ValueError("polynomial metric needs at least one edge")
    edges = ((i, j) for i, nbrs in enumerate(g.adjacency) for j in nbrs if j > i)
    values = (
        0.5 * (evaluate_spec(spec, y[i], y[j]) + evaluate_spec(spec, y[j], y[i])) for i, j in edges
    )
    return oracle._fsum(values) / g.edge_count


def reference_neighbor_weight_sums(g: Graph, y, k: int) -> list[float]:
    """engine.neighbor_weight_sums as a per-node loop: each w_i sums
    y_j**k from 0.0 over the neighbors j in ascending id order, after the
    same checks in the same order."""
    if k < 0:
        raise ValueError("exponent k must be >= 0")
    reference_validate_positive(y, "y")
    if any(d == 0 for d in g.degrees):
        raise engine.IsolatedNodeError("neighbor weight sum undefined for isolated node")
    yk = reference_node_powers(y, k).tolist()  # Python floats overflow to inf silently
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

    # Both orientations, ordered by node, then by neighbor id, built here
    # from the adjacency rather than shared with the engine.
    src = np.repeat(np.arange(g.node_count), g.degrees)
    dst = np.array([j for nbrs in g.adjacency for j in nbrs], dtype=np.intp)
    x = np.array(x0, dtype=float)
    scale = eps / np.array(w, dtype=float)
    diff = np.empty(len(dst))
    trace = [x] if cfg.record_trace else None
    step_tolerance, spread_tolerance = cfg.step_tolerance, cfg.spread_tolerance
    top = float(np.abs(x).max())
    if math.isfinite(top):
        size = min(1.0, top)
        step_tolerance *= size
        spread_tolerance = max(spread_tolerance * size, 16 * math.ulp(top))

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
            if trace is not None:
                trace.append(x)
            if not math.isfinite(resid):
                break
            converged = (
                resid <= step_tolerance
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
    )


def trace_residuals(trace) -> list[float]:
    """Each recorded round's largest per-node step max_i |x_i(k) - x_i(k-1)|,
    the quantity wac_run's step rule reads; like it, skips nan steps."""
    with np.errstate(over="ignore", invalid="ignore"):
        return [
            float(np.fmax.reduce(np.abs(new - old), initial=0.0))
            for old, new in zip(trace, trace[1:])
        ]


def write_trace_csv(path, trace) -> None:
    """The trace CSV of a whole recorded trace: what cli._trace_writer
    writes when handed every round at once."""
    with cli._trace_file(path) as f:
        cli._trace_writer(f, len(trace[0]))(np.array(trace, dtype=float))


def laplacian(g: Graph) -> np.ndarray:
    """Dense Laplacian L = D - A as float64."""
    lap = np.diag(np.array(g.degrees, dtype=float))
    i, j = g.edge_arrays
    lap[i, j] = lap[j, i] = -1.0
    return lap


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


def reference_run_synchronous(g: Graph, program, inputs, max_rounds: int) -> HarnessTrace:
    """simharness.run_synchronous as a plain per-node WAC loop: each round
    builds every inbox and logs every delivered (sender, receiver) pair."""
    states = [float(v) for v in inputs]
    snapshots = [states]
    pairs: set[tuple[int, int]] = set()
    for _ in range(max_rounds):
        new_states = []
        for i in range(g.node_count):
            inbox = tuple(states[j] for j in g.adjacency[i])
            for j in g.adjacency[i]:
                pairs.add((j, i))
            new_states.append(engine.wac_step_value(states[i], inbox, program[i]))
        states = new_states
        snapshots.append(states)
    return HarnessTrace(states=snapshots, rounds_executed=max_rounds, message_pairs=pairs)


def reference_polynomial_terms(g: Graph, y, spec: metrics.MetricSpec, cfg=None):
    """metrics.polynomial_metric_terms with no shared stage: every term
    runs its own S(l,k) and S(k,0)."""
    terms = []
    for l, k, c in spec.terms:
        runs = (metrics._stage(g, y, l, k, cfg), metrics._stage(g, y, k, 0, cfg))
        a1, a2 = (r.consensus_value for r in runs)
        terms.append(metrics.PolyTermResult(l, k, c, a1, a2, a1 * a2 * c, runs))
    return terms


def reference_total_variation(g: Graph, y, cfg=None) -> SimpleNamespace:
    """Total variation by the three-stage paper formula: S(2,0) from
    v * v, S(1,1) and S(1,0), combined as 2*a1 - 2*a2*a3."""
    stages = (
        ([v * v for v in y], engine.neighbor_weight_sums(g, y, 0)),
        (list(y), engine.neighbor_weight_sums(g, y, 1)),
        (list(y), engine.neighbor_weight_sums(g, y, 0)),
    )
    runs = [engine.wac_run(g, x0, w, cfg) for x0, w in stages]
    a1, a2, a3 = alphas = [r.consensus_value for r in runs]
    return SimpleNamespace(
        total_variation=2.0 * a1 - 2.0 * a2 * a3, alphas=alphas, runs=runs
    )
