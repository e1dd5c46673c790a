"""Consensus kernels: weighted-average and min-consensus iterations.

The weighted-average update is
    x_i(k+1) = x_i(k) + (eps / w_i) * sum_{j in N_i} (x_j(k) - x_i(k)),
with all updates reading round-k values (Jacobi contract). Neighbor
accumulation runs in ascending neighbor-id order: every neighbor pass is
one `np.bincount` over the layout `_neighbor_layout` builds. `wac_run`
applies the update to all nodes at once, and `wac_step_value` is the
per-node form the simulation harness runs; the two give bit-identical
traces. `wac_run` decides stopping once per block of rounds, discards
the rounds a block computed past the stop and hands the rounds it keeps
to an optional row sink, block by block, as they are decided.
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
        for tol in (self.step_tolerance, self.spread_tolerance):
            if not 0 < tol < math.inf:
                raise ConfigurationError("tolerances must be positive and finite")
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
    trace: list[np.ndarray] | None = None
    """With `record_trace`, the rows `wac_run` would hand a row sink, all
    held at once: row k is x(k), a 1-D view of the engine's blocks that
    may be shared but never written to."""


RowSink = Callable[[np.ndarray], None]
"""Receives a 2-D float64 array of consecutive rounds' states, one row of
N per round: first x(0) alone, then each block's kept rounds once the
block's stop is decided, so a round discarded after the stop never
arrives. The array is fresh for each call and never written again, so a
sink may keep it but must not write to it."""


def validate_positive(values: Sequence[float], name: str) -> None:
    v = np.asarray(values, dtype=float)
    ok = (v > 0) & (v < math.inf)
    if not ok.all():
        i = ok.argmin()  # the first value that fails
        raise ValueError(f"{name}[{i}] = {values[i]} must be positive and finite")


def max_step_size(w: Sequence[float], g: Graph) -> float:
    """Stability bound Delta = min_i w_i / d_i, agreed by min-consensus
    from each node's own w_i / d_i within N - 1 rounds, which bound the
    diameter; a disconnected graph raises DisconnectedGraphError."""
    if 0 in g.degrees:
        raise IsolatedNodeError("graph has an isolated node")
    validate_positive(w, "w")
    if len(w) != g.node_count:
        raise ConfigurationError("weight vector length mismatch")
    # Both float64: an int64 divisor would be cast through ufunc buffers.
    ratios = np.asarray(w, dtype=float) / np.array(g.degrees, dtype=float)
    return min_consensus(g, ratios, max(1, g.node_count - 1))[0][0]


def node_powers(y: Sequence[float], k: int) -> np.ndarray:
    """y_i**k for every node i as a float64 array: the power a stage takes
    as input. Powers 0, 1 and 2 are ones, y and y * y (correctly rounded);
    others are libm's pow on Python floats, node by node (np.power differs).

    A power that overflows or is not finite raises ValueError naming the
    first such node and the exponent; one that underflows to 0.0 is kept.
    """
    if k in (0, 1, 2):
        out = np.array(y, dtype=float)
        with np.errstate(over="ignore"):
            out = out * out if k == 2 else out if k == 1 else np.ones(len(out))
    else:
        out = np.empty(len(y))
        for i, v in enumerate(np.asarray(y, dtype=float).tolist()):
            try:
                out[i] = pow(v, k)
            except OverflowError:
                out[i] = math.inf
    ok = np.isfinite(out)
    if not ok.all():
        i = ok.argmin()  # the first node that fails
        raise ValueError(f"node {i}: attribute {float(y[i])!r} to the power {k} is not finite")
    return out


def neighbor_weight_sums(g: Graph, y: Sequence[float], k: int) -> np.ndarray:
    """w_i = sum over neighbors j of y_j**k in ascending neighbor order, as float64."""
    if k < 0:
        raise ValueError("exponent k must be >= 0")
    validate_positive(y, "y")
    if 0 in g.degrees:
        raise IsolatedNodeError("neighbor weight sum undefined for isolated node")
    bins, partners = _neighbor_layout(g)
    return np.bincount(bins, weights=node_powers(y, k)[partners], minlength=g.node_count)


def _neighbor_layout(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Every edge (u, v) of `Graph.edge_arrays` both ways, as (bins,
    partners): every v, then every u, so node partners[e] neighbors node
    bins[e]. `np.bincount` adds a bin's terms in index order from 0.0, so
    each node adds its neighbors in ascending order; that is how NumPy
    implements it, not a documented guarantee, and the engine-versus-harness
    tests and the goldens pin it. Built per call, and so writeable: take()
    and bincount() copy a read-only index array on every call."""
    u, v = g.edge_arrays
    return np.concatenate((v, u)), np.concatenate((u, v))


def exact_consensus_target(x0: Sequence[float], w: Sequence[float]) -> float:
    """Closed-form weighted average sum(w_i x_i(0)) / sum(w_i)."""
    if len(x0) != len(w):
        raise ConfigurationError("x0 and w lengths differ")
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
    sink: RowSink | None = None,
) -> ConsensusRun:
    """Run the weighted-average-consensus iteration to the stopping rule.

    The step bound Delta comes from `max_step_size` and the step size from
    `resolve_epsilon`. Stops when the max per-node step drops below
    `step_tolerance`, the state spread drops below `spread_tolerance`, or
    `max_iterations` is hit (converged=False). Runs that blow up to
    non-finite values abort early as unconverged, and a run whose
    consensus value is not finite never counts as converged. Both
    tolerances are multiplied by min(1, max_i |x_i(0)|) when that is
    finite, so states below 1 stop at the relative precision of states of
    size 1; the spread test passes at no less than 16 ulp of max_i |x_i(0)|.
    `stop_reason` names the test that ended the run; the step test wins
    when both pass.

    Stopping is decided once per block of up to `_BLOCK` rounds, never
    past `max_iterations`, with one 2-D reduction per test. The run ends at
    the block's first round that meets the rule and the rounds after it
    are discarded, so results equal a check after every round. `sink`, if
    given, receives the rounds while the run iterates; `record_trace`
    collects them into `trace` instead, and the two do not combine.
    """
    cfg = cfg or ConsensusConfig()
    if len(x0) != g.node_count or len(w) != g.node_count:
        raise ConfigurationError("x0/w length must equal node count")
    delta = max_step_size(w, g)
    eps = resolve_epsilon(cfg, delta)

    x = np.array(x0, dtype=float)
    weights = np.array(w, dtype=float)
    trace: list[np.ndarray] | None = None
    if cfg.record_trace:
        if sink is not None:
            raise ConfigurationError("record_trace collects the rows itself; pass no sink")
        trace = []
        sink = trace.extend
    final, used, stop_reason = _iterate(g, x, eps / weights, cfg, sink)
    value = math.nan
    if np.isfinite(final).all():
        try:
            value = math.fsum(final) / len(final)
        except OverflowError:  # the sum leaves the float range, the mean need not
            value = math.fsum(final / len(final))
    return ConsensusRun(
        final_states=final,
        iterations_used=used,
        converged=stop_reason in ("step", "spread") and math.isfinite(value),
        consensus_value=value,
        epsilon=eps,
        max_step_bound=delta,
        weights=weights,
        stop_reason=stop_reason,
        trace=trace,
    )


def _iterate(
    g: Graph,
    x: np.ndarray,
    scale: np.ndarray,
    cfg: ConsensusConfig,
    sink: RowSink | None,
) -> tuple[np.ndarray, int, str]:
    """The rounds of `wac_run` from state x with per-node scale eps / w_i,
    handed to `sink` unless it is None: the final state, the number of
    rounds kept and the stop reason."""
    n = g.node_count
    ends, _ = _neighbor_layout(g)
    m = len(ends) // 2
    gathered, terms, steps = np.empty(2 * m), np.empty(2 * m), np.empty((_BLOCK, n))
    x_v, x_u, to_v, to_u = gathered[:m], gathered[m:], terms[:m], terms[m:]
    step_tolerance, spread_tolerance = cfg.step_tolerance, cfg.spread_tolerance
    top = float(np.abs(x).max())
    if math.isfinite(top):
        size = min(1.0, top)
        step_tolerance *= size
        spread_tolerance = max(spread_tolerance * size, 16 * math.ulp(top))

    if sink is not None:
        sink(x[np.newaxis])
    used, stop_reason = 0, None
    # Divergent runs overflow to inf and nan, then stop on the non-finite
    # residual, so the floating-point warnings carry nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        if float(x.max() - x.min()) <= spread_tolerance:
            stop_reason = "spread"
        while stop_reason is None and used < cfg.max_iterations:
            count = min(_BLOCK, cfg.max_iterations - used)
            # A fresh block each time, so a sink can keep its rows.
            rows = np.empty((count, n))
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
                elif resid <= step_tolerance:
                    stop_reason = "step"
                elif spread <= spread_tolerance:
                    stop_reason = "spread"
                else:
                    continue
                count = k + 1
                break
            used += count
            if sink is not None:
                sink(rows[:count])
            x = rows[count - 1]
    # A copy, so that the run keeps no view of the last block.
    return x.copy(), used, stop_reason or "cap"


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
    bins, partners = _neighbor_layout(g)
    for r in range(max_rounds + 1):
        new = x.copy()
        np.minimum.at(new, bins, x[partners])
        if np.array_equal(new, x):
            return x.tolist(), r
        x = new
    raise RuntimeError(
        f"min_consensus did not stabilize within {max_rounds} rounds; "
        "this should be impossible on a connected graph with max_rounds >= N - 1"
    )
