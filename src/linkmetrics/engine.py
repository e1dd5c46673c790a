"""Consensus kernels: weighted-average and min-consensus iterations.

The weighted-average update is
    x_i(k+1) = x_i(k) + (eps / w_i) * sum_{j in N_i} (x_j(k) - x_i(k)),
with all updates reading round-k values (Jacobi contract). Neighbor
accumulation runs in ascending neighbor-id order. `wac_run` applies it to
all nodes at once as a NumPy column sweep that keeps that order;
`wac_step_value` is the per-node form the simulation harness runs, and
the two give bit-identical traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import graph as graphmod
from .graph import DisconnectedGraphError, Graph


class IsolatedNodeError(ValueError):
    """An operation needs every node to have at least one neighbor."""


class ConfigurationError(ValueError):
    """Invalid consensus configuration (step size, tolerances, lengths)."""


@dataclass(frozen=True)
class ConsensusConfig:
    """Step-size policy and stopping control for one consensus run.

    If `epsilon` is set it is used directly (must lie in (0, Delta) with
    Delta = min_i w_i/d_i, unless `allow_unstable_epsilon`); otherwise
    `epsilon_fraction` of Delta is used.
    """

    epsilon: float | None = None
    epsilon_fraction: float = 0.9
    step_tolerance: float = 1e-12
    spread_tolerance: float = 1e-10
    max_iterations: int = 10**6
    record_trace: bool = False
    allow_unstable_epsilon: bool = False

    def __post_init__(self):
        if not (0.0 < self.epsilon_fraction < 1.0):
            raise ConfigurationError("epsilon_fraction must lie in (0, 1)")
        if not self.step_tolerance > 0 or not self.spread_tolerance > 0:
            raise ConfigurationError("tolerances must be positive")
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")


@dataclass
class ConsensusRun:
    """Outcome of one weighted-average-consensus iteration: the weights w
    it ran with, its step size and its stability bound min_i w_i/d_i."""

    final_states: list[float]
    iterations_used: int
    converged: bool
    consensus_value: float
    epsilon: float
    max_step_bound: float
    weights: list[float]
    trace: list[list[float]] | None = None
    residual_trace: list[float] = field(default_factory=list)


def validate_positive(values: Sequence[float], name: str) -> None:
    for i, v in enumerate(values):
        if not 0 < v < math.inf:
            raise ValueError(f"{name}[{i}] = {v} must be positive and finite")


def max_step_size(w: Sequence[float], g: Graph) -> float:
    """Stability bound Delta = min_i w_i / d_i, agreed by min-consensus
    from each node's own w_i / d_i within N - 1 rounds, which bound the
    diameter; a disconnected graph raises DisconnectedGraphError."""
    if any(d == 0 for d in g.degrees):
        raise IsolatedNodeError("graph has an isolated node")
    validate_positive(w, "w")
    if len(w) != g.node_count:
        raise ConfigurationError("weight vector length mismatch")
    x0 = [wi / di for wi, di in zip(w, g.degrees)]
    states, _ = min_consensus(g, x0, max(1, g.node_count - 1))
    return states[0]


def node_powers(
    y: Sequence[float], k: int, power: Callable[[float, int], float] = pow
) -> list[float]:
    """power(y_i, k) for every node i: the y_i**k a stage takes as input.

    A power that overflows or is not finite raises ValueError naming the
    node and the exponent; one that underflows to 0.0 is kept.
    """
    out = []
    for i, v in enumerate(y):
        try:
            p = power(v, k)
        except OverflowError:
            p = math.inf
        if not math.isfinite(p):
            raise ValueError(f"node {i}: attribute {v!r} to the power {k} is not finite")
        out.append(p)
    return out


def neighbor_weight_sums(g: Graph, y: Sequence[float], k: int) -> list[float]:
    """w_i = sum over neighbors j of y_j**k, in ascending neighbor order."""
    if k < 0:
        raise ValueError("exponent k must be >= 0")
    validate_positive(y, "y")
    if any(d == 0 for d in g.degrees):
        raise IsolatedNodeError("neighbor weight sum undefined for isolated node")
    yk = node_powers(y, k)
    out = []
    for nbrs in g.adjacency:
        acc = 0.0
        for j in nbrs:
            acc += yk[j]
        out.append(acc)
    return out


def exact_consensus_target(x0: Sequence[float], w: Sequence[float]) -> float:
    """Closed-form weighted average sum(w_i x_i(0)) / sum(w_i)."""
    validate_positive(w, "w")
    return math.fsum(wi * xi for wi, xi in zip(w, x0)) / math.fsum(w)


def wac_step_value(x_i: float, neighbor_states: Sequence[float], scale: float) -> float:
    """One node update; `scale` = eps / w_i. Shared with the sim harness."""
    acc = 0.0
    for xj in neighbor_states:
        acc += xj - x_i
    return x_i + scale * acc


def resolve_epsilon(cfg: ConsensusConfig, delta: float) -> float:
    if cfg.epsilon is None:
        return cfg.epsilon_fraction * delta
    eps = cfg.epsilon
    if not (0.0 < eps < delta) and not cfg.allow_unstable_epsilon:
        raise ConfigurationError(
            f"epsilon {eps} outside stable range (0, {delta}); "
            "pass allow_unstable_epsilon to experiment beyond the bound"
        )
    if not 0 < eps < math.inf:
        raise ConfigurationError("epsilon must be positive and finite")
    return eps


def _column_sweep_layout(g: Graph):
    """Jagged-diagonal layout of the adjacency, in degree-sorted order.

    `perm` sorts the nodes by degree, descending and stable, and `pos` is
    its inverse. Column c lists, for the `counts[c]` nodes of degree > c
    (a prefix of the sorted order), the sorted position of each one's
    c-th smallest neighbor id. `nbr` holds the columns end to end, and
    `rows` the matching own positions.
    """
    deg = np.array(g.degrees)
    perm = np.argsort(-deg, kind="stable")
    pos = np.argsort(perm)
    counts = [int(np.count_nonzero(deg > c)) for c in range(deg.max())]
    nbr = np.array([pos[g.adjacency[i][c]] for c, k in enumerate(counts) for i in perm[:k]])
    rows = np.concatenate([np.arange(k) for k in counts])
    return perm, pos, counts, nbr, rows


def wac_run(
    g: Graph,
    x0: Sequence[float],
    w: Sequence[float],
    cfg: ConsensusConfig | None = None,
) -> ConsensusRun:
    """Run the weighted-average-consensus iteration to the stopping rule.

    The step bound Delta comes from `max_step_size` and the step size from
    `resolve_epsilon`. Stops when the max per-node step drops below
    `step_tolerance`, the state spread drops below `spread_tolerance`, or
    `max_iterations` is hit (converged=False). Runs that blow up to
    non-finite values abort early as unconverged, and a run whose
    consensus value is not finite never counts as converged.

    Each round sweeps the columns of `_column_sweep_layout`, so every node
    sums x_j - x_i from 0.0 in ascending neighbor-id order, as
    `wac_step_value` does: iterates are bit-identical to the per-node form.
    """
    cfg = cfg or ConsensusConfig()
    if len(x0) != g.node_count or len(w) != g.node_count:
        raise ConfigurationError("x0/w length must equal node count")
    delta = max_step_size(w, g)
    eps = resolve_epsilon(cfg, delta)

    perm, pos, counts, nbr, rows = _column_sweep_layout(g)
    # x, scale and acc are in sorted order; x[pos] is node order.
    x = np.array(x0, dtype=float)[perm]
    scale = (eps / np.array(w, dtype=float))[perm]
    acc, diff = np.empty(len(x)), np.empty(len(nbr))
    offsets = np.cumsum([0] + counts)
    columns = [(acc[:k], diff[lo:lo + k]) for k, lo in zip(counts, offsets)]
    trace: list[list[float]] | None = [x[pos].tolist()] if cfg.record_trace else None
    residuals: list[float] = []

    iterations = 0
    # Divergent runs overflow to inf and nan, then stop on the non-finite
    # residual, so the floating-point warnings carry nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        converged = float(x.max() - x.min()) <= cfg.spread_tolerance
        while not converged and iterations < cfg.max_iterations:
            # Indices are in range by construction; mode="clip" only
            # spares take() the buffered copy that mode="raise" makes.
            x.take(nbr, out=diff, mode="clip")
            diff -= x.take(rows, mode="clip")
            acc.fill(0.0)
            for acc_c, diff_c in columns:
                acc_c += diff_c
            new = x + scale * acc
            # fmax skips nan steps, as the scalar `step > resid` test does.
            resid = float(np.fmax.reduce(np.abs(new - x), initial=0.0))
            x = new
            iterations += 1
            residuals.append(resid)
            if trace is not None:
                trace.append(x[pos].tolist())
            if not math.isfinite(resid):
                break
            converged = (
                resid <= cfg.step_tolerance
                or float(x.max() - x.min()) <= cfg.spread_tolerance
            )

    final = x[pos].tolist()
    value = math.nan
    if all(map(math.isfinite, final)):
        try:
            value = math.fsum(final) / len(final)
        except OverflowError:  # the sum leaves the float range, the mean need not
            value = math.fsum(v / len(final) for v in final)
    return ConsensusRun(
        final_states=final,
        iterations_used=iterations,
        converged=converged and math.isfinite(value),
        consensus_value=value,
        epsilon=eps,
        max_step_bound=delta,
        weights=list(w),
        trace=trace,
        residual_trace=residuals,
    )


def min_consensus(
    g: Graph, x0: Sequence[float], max_rounds: int
) -> tuple[list[float], int]:
    """Iterate x_i <- min over closed neighborhood until nothing changes.

    Returns (final states, rounds that produced a change). One extra
    verification round beyond `max_rounds` is allowed for the no-change
    detection itself.
    """
    if not graphmod.is_connected(g):
        raise DisconnectedGraphError("min_consensus requires a connected graph")
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
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
    raise RuntimeError(
        f"min_consensus did not stabilize within {max_rounds} rounds; "
        "this should be impossible on a connected graph with max_rounds >= N - 1"
    )


def distributed_delta1(g: Graph, y: Sequence[float]) -> float:
    """WAC1 step bound via min-consensus over local neighbor averages."""
    return max_step_size(neighbor_weight_sums(g, y, 1), g)
