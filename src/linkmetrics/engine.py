"""Consensus kernels: weighted-average and min-consensus iterations.

The weighted-average update is
    x_i(k+1) = x_i(k) + (eps / w_i) * sum_{j in N_i} (x_j(k) - x_i(k)),
with all updates reading round-k values (Jacobi contract). Neighbor
accumulation runs in ascending neighbor-id order. `wac_run` applies it to
all nodes at once: each round gathers the states at both ends of every
undirected edge u < v once, in lexicographic order, and one `np.bincount`
adds each node's terms from its smaller-id neighbors, then its larger-id
ones, both ascending, which keeps that order. `wac_step_value` is the
per-node form the simulation harness runs, and the two give bit-identical
traces. `wac_run` decides stopping once per block of rounds and discards
the rounds a block computed past the stop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(eq=False)
class ConsensusRun:
    """Outcome of one weighted-average-consensus iteration: the weights w
    it ran with, its step size and its stability bound min_i w_i/d_i.
    Node vectors are 1-D float64 arrays, so runs compare by identity."""

    final_states: np.ndarray
    iterations_used: int
    converged: bool
    consensus_value: float
    epsilon: float
    max_step_bound: float
    weights: np.ndarray
    stop_reason: str
    """The test that ended the run: "step", "spread", "cap" (max_iterations
    reached) or "nonfinite" (a round's step was not finite)."""
    residual_trace: np.ndarray
    """Each round's largest per-node step, as float64; nothing writes it out yet."""
    trace: list[np.ndarray] | None = None
    """With `record_trace`, one 1-D float64 row of N states per round:
    row k is x(k) and row 0 is x(0). Rows after the first are views of the
    blocks the iteration computed, kept without a copy; share them, but
    never write to them."""


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
    # Both float64: an int64 divisor would be cast through ufunc buffers.
    ratios = np.asarray(w, dtype=float) / np.array(g.degrees, dtype=float)
    return min_consensus(g, ratios, max(1, g.node_count - 1))[0][0]


def node_powers(
    y: Sequence[float], k: int, power: Callable[[float, int], float] = pow
) -> np.ndarray:
    """power(y_i, k) for every node i as a float64 array: the y_i**k a stage
    takes as input. By default libm's pow, which np.power does not match.

    A power that overflows or is not finite raises ValueError naming the
    node and the exponent; one that underflows to 0.0 is kept.
    """
    out = np.empty(len(y))
    for i, v in enumerate(y):
        try:
            p = power(v, k)
        except OverflowError:
            p = math.inf
        if not math.isfinite(p):
            raise ValueError(f"node {i}: attribute {v!r} to the power {k} is not finite")
        out[i] = p
    return out


def neighbor_weight_sums(g: Graph, y: Sequence[float], k: int) -> np.ndarray:
    """w_i = sum over neighbors j of y_j**k in ascending neighbor order, as float64."""
    if k < 0:
        raise ValueError("exponent k must be >= 0")
    validate_positive(y, "y")
    if any(d == 0 for d in g.degrees):
        raise IsolatedNodeError("neighbor weight sum undefined for isolated node")
    src, dst = g.edge_arrays
    return np.bincount(src, weights=node_powers(y, k)[dst], minlength=g.node_count)


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


# Rounds per block: the stopping rule is checked once per block, for all of
# its rounds at once.
_BLOCK = 8


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
    finest spread that states of that size resolve. `stop_reason` names
    the test that ended the run; the step test wins when both pass.

    Each round gathers x at both ends of every edge u < v with one `take`,
    laid out as every v, then every u, in the edge order of `Graph.edges()`,
    so each half holds, position by position, the neighbors of the other.
    One weighted `np.bincount` over that layout adds x_u - x_v into bin v,
    then x_v - x_u into bin u, each the subtraction of the per-node form.
    NumPy adds a bin's terms in index order from 0.0, so node i adds its
    smaller-id neighbors, then its larger-id ones, both ascending: the
    order of `wac_step_value`, whose iterates these equal bit for bit. That
    order is how NumPy implements `bincount`, not a documented guarantee;
    the engine-versus-harness tests and the goldens pin it.

    Stopping is decided once per block of up to `_BLOCK` rounds, never
    past `max_iterations`, with one 2-D reduction per test. The run ends at
    the block's first round that meets the rule and the rounds after it
    are discarded, so results equal a check after every round.
    """
    cfg = cfg or ConsensusConfig()
    if len(x0) != g.node_count or len(w) != g.node_count:
        raise ConfigurationError("x0/w length must equal node count")
    delta = max_step_size(w, g)
    eps = resolve_epsilon(cfg, delta)

    x = np.array(x0, dtype=float)
    weights = np.array(w, dtype=float)
    trace: list[np.ndarray] | None = [x] if cfg.record_trace else None
    final, residuals, stop_reason = _iterate(g, x, eps / weights, cfg, trace)
    value = math.nan
    if np.isfinite(final).all():
        try:
            value = math.fsum(final) / len(final)
        except OverflowError:  # the sum leaves the float range, the mean need not
            value = math.fsum(final / len(final))
    return ConsensusRun(
        final_states=final,
        iterations_used=len(residuals),
        converged=stop_reason in ("step", "spread") and math.isfinite(value),
        consensus_value=value,
        epsilon=eps,
        max_step_bound=delta,
        weights=weights,
        stop_reason=stop_reason,
        residual_trace=residuals,
        trace=trace,
    )


def _iterate(
    g: Graph,
    x: np.ndarray,
    scale: np.ndarray,
    cfg: ConsensusConfig,
    trace: list[np.ndarray] | None,
) -> tuple[np.ndarray, np.ndarray, str]:
    """The rounds of `wac_run` from state x with per-node scale eps / w_i:
    the final state, every round's residual and the stop reason. Appends
    the rounds to `trace` unless it is None."""
    n = g.node_count
    # Built per call, and so writeable: take() and bincount() copy a
    # read-only index array, such as the graph's shared ones, on every call.
    src, dst = g.edge_arrays
    lower = src < dst
    ends = np.concatenate((dst[lower], src[lower]))
    m = len(ends) // 2
    # The rounds use 4m floats of scratch and the stopping check of a block
    # uses _BLOCK * n; they never run at once, so they share one buffer.
    scratch = np.empty(max(4 * m, _BLOCK * n))
    gathered, terms = scratch[: 2 * m], scratch[2 * m : 4 * m]
    x_v, x_u, to_v, to_u = gathered[:m], gathered[m:], terms[:m], terms[m:]
    steps = scratch[: _BLOCK * n].reshape(_BLOCK, n)
    # A recorded trace keeps views of a fresh block per block. Otherwise one
    # buffer serves every block, its row 0 a copy of the state before it.
    buffer = np.empty((_BLOCK + 1, n)) if trace is None else None
    residuals, used = np.empty(_BLOCK), 0  # doubled when full
    spread_tolerance = cfg.spread_tolerance
    top = float(np.abs(x).max())
    if math.isfinite(top):
        spread_tolerance = max(spread_tolerance, 16 * math.ulp(top))

    stop_reason = None
    # Divergent runs overflow to inf and nan, then stop on the non-finite
    # residual, so the floating-point warnings carry nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        if float(x.max() - x.min()) <= spread_tolerance:
            stop_reason = "spread"
        while stop_reason is None and used < cfg.max_iterations:
            count = min(_BLOCK, cfg.max_iterations - used)
            if buffer is None:
                rows = np.empty((count, n))
            else:
                buffer[0] = x
                x, rows = buffer[0], buffer[1 : count + 1]
            prev = x
            for row in rows:
                # Indices are in range by construction; mode="clip" only
                # spares take() the buffered copy that mode="raise" makes.
                x.take(ends, out=gathered, mode="clip")
                np.subtract(x_u, x_v, out=to_v)
                np.subtract(x_v, x_u, out=to_u)
                total = np.bincount(ends, weights=terms, minlength=n)
                np.multiply(scale, total, out=total)
                np.add(x, total, out=row)
                x = row

            step = steps[:count]
            np.subtract(rows[0], prev, out=step[0])
            np.subtract(rows[1:], rows[:-1], out=step[1:])
            # fmax skips nan steps, as the scalar `step > resid` test does.
            resids = np.fmax.reduce(np.abs(step, out=step), axis=1, initial=0.0)
            spreads = rows.max(axis=1) - rows.min(axis=1)
            for k, (resid, spread) in enumerate(zip(resids.tolist(), spreads.tolist())):
                if not math.isfinite(resid):
                    stop_reason = "nonfinite"
                elif resid <= cfg.step_tolerance:
                    stop_reason = "step"
                elif spread <= spread_tolerance:
                    stop_reason = "spread"
                else:
                    continue
                count = k + 1
                break
            if used + count > len(residuals):
                residuals = np.concatenate((residuals, np.empty_like(residuals)))
            residuals[used : used + count] = resids[:count]
            used += count
            if trace is not None:
                trace.extend(rows[:count])
            x = rows[count - 1]
    # Copies, so that the run keeps no view of the buffers.
    return x.copy(), residuals[:used].copy(), stop_reason or "cap"


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
