"""Consensus kernels: weighted-average and min-consensus iterations.

The weighted-average update is
    x_i(k+1) = x_i(k) + (eps / w_i) * sum_{j in N_i} (x_j(k) - x_i(k)),
with all updates reading round-k values (Jacobi contract). Neighbor
accumulation runs in ascending neighbor-id order. `wac_run` applies it to
all nodes at once, one `np.bincount` over both orientations of every
edge per round, which keeps that order; `wac_step_value` is the per-node
form the simulation harness runs, and the two give bit-identical traces.
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
    trace: list[np.ndarray] | None = None
    """With `record_trace`, one 1-D float64 row of N states per round:
    row k is x(k) and row 0 is x(0). The rows are the arrays the iteration
    computed, kept without a copy; share them, but never write to them."""
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
    src, dst = g.edge_arrays
    yk = np.array(node_powers(y, k))
    return np.bincount(src, weights=yk[dst], minlength=g.node_count).tolist()


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
    consensus value is not finite never counts as converged. The spread
    test passes at no less than 16 ulp of the largest finite |x_i(0)|, the
    finest spread that states of that size resolve.

    Each round sums x_j - x_i over the edge arrays `g.edge_arrays` with
    one weighted `np.bincount`. NumPy adds each bin's terms in index order,
    starting from 0.0, so every node sums in ascending neighbor-id order as
    `wac_step_value` does, and iterates are bit-identical to the per-node
    form. That order is how NumPy implements `bincount`, not a documented
    guarantee; the engine-versus-harness tests and the goldens pin it.
    """
    cfg = cfg or ConsensusConfig()
    if len(x0) != g.node_count or len(w) != g.node_count:
        raise ConfigurationError("x0/w length must equal node count")
    delta = max_step_size(w, g)
    eps = resolve_epsilon(cfg, delta)

    # take() and bincount() copy a read-only index array on every call, so
    # the rounds use writeable copies of the graph's shared edge arrays.
    src, dst = (a.copy() for a in g.edge_arrays)
    x = np.array(x0, dtype=float)
    scale = eps / np.array(w, dtype=float)
    diff = np.empty(len(dst))
    # Each round allocates a fresh `new`, so the trace keeps the arrays
    # themselves; an update that reused a buffer would have to copy them.
    trace: list[np.ndarray] | None = [x] if cfg.record_trace else None
    residuals: list[float] = []
    spread_tolerance = cfg.spread_tolerance
    top = float(np.abs(x).max())
    if math.isfinite(top):
        spread_tolerance = max(spread_tolerance, 16 * math.ulp(top))

    iterations = 0
    # Divergent runs overflow to inf and nan, then stop on the non-finite
    # residual, so the floating-point warnings carry nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        converged = float(x.max() - x.min()) <= spread_tolerance
        while not converged and iterations < cfg.max_iterations:
            # Indices are in range by construction; mode="clip" only
            # spares take() the buffered copy that mode="raise" makes.
            x.take(dst, out=diff, mode="clip")
            diff -= x.take(src, mode="clip")
            new = x + scale * np.bincount(src, weights=diff, minlength=len(x))
            # fmax skips nan steps, as the scalar `step > resid` test does.
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
    detection itself. States must be finite, since `np.minimum` spreads nan.
    """
    if not graphmod.is_connected(g):
        raise DisconnectedGraphError("min_consensus requires a connected graph")
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    x = np.array(x0, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("min_consensus states must be finite")
    src, dst = g.edge_arrays
    for r in range(max_rounds + 1):
        new = x.copy()
        np.minimum.at(new, src, x[dst])
        if np.array_equal(new, x):
            return x.tolist(), r
        x = new
    raise RuntimeError(
        f"min_consensus did not stabilize within {max_rounds} rounds; "
        "this should be impossible on a connected graph with max_rounds >= N - 1"
    )
