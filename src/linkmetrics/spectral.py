"""Convergence-rate analysis of the consensus iteration.

The iteration matrix I - eps*W^{-1}L is similar to the symmetric matrix
P = I - eps*W^{-1/2} L W^{-1/2}, whose real eigenvalues determine the
asymptotic per-iteration error contraction rho = max(|lambda_2|,
|lambda_N|). Eigenvalues come from LAPACK's symmetric solver
(`numpy.linalg.eigvalsh`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import engine
from .engine import ConsensusRun
from .graph import Graph


class NotEstimableError(RuntimeError):
    """Empirical rate undefined (error already at the numerical floor)."""


@dataclass
class SpectralReport:
    epsilon: float
    eigenvalues: list[float]
    rho: float


def normalized_weight_matrix(g: Graph, w: Sequence[float], epsilon: float) -> np.ndarray:
    """Symmetric iteration matrix I - eps*W^{-1/2} L W^{-1/2}.

    The upper triangle is computed and mirrored, so symmetry is exact.
    """
    engine.validate_positive(w, "w")
    inv = 1.0 / np.sqrt(np.asarray(w, dtype=float))
    m = np.zeros((g.node_count, g.node_count))
    np.fill_diagonal(m, 1.0 - epsilon * np.array(g.degrees) * inv * inv)
    i, j = g.edge_arrays
    m[i, j] = m[j, i] = epsilon * inv[i] * inv[j]
    return m


def convergence_factor(eigenvalues: Sequence[float]) -> float:
    """rho = max(|lambda_2|, |lambda_N|) for eigenvalues sorted descending."""
    if len(eigenvalues) < 2:
        raise ValueError("need at least two eigenvalues")
    return max(abs(eigenvalues[1]), abs(eigenvalues[-1]))


def spectral_report(g: Graph, w: Sequence[float], epsilon: float) -> SpectralReport:
    """Eigenvalues of P, sorted descending, and rho; epsilon may exceed the
    stability bound. `eigvalsh` copies P, so the peak holds two N x N arrays."""
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    eigs = np.linalg.eigvalsh(normalized_weight_matrix(g, w, epsilon))[::-1].tolist()
    return SpectralReport(epsilon=epsilon, eigenvalues=eigs, rho=convergence_factor(eigs))


def empirical_convergence_factor(run: ConsensusRun, target: Sequence[float]) -> float:
    """Per-iteration error contraction estimated from the trace tail.

    Uses the window [ceil(K/2), K]; the early half of the trace is
    discarded to let transients die out.
    """
    if run.trace is None:
        raise ValueError("run must be recorded with record_trace=True")
    k_final = run.iterations_used
    if k_final < 20:
        raise ValueError("need a trace of at least 20 iterations")
    k0 = math.ceil(k_final / 2)

    def err(k: int) -> float:
        return math.sqrt(
            math.fsum((x - t) ** 2 for x, t in zip(run.trace[k], target))
        )

    floor = 100.0 * np.finfo(float).eps * max(1.0, math.sqrt(math.fsum(t * t for t in target)))
    e0, e1 = err(k0), err(k_final)
    if e0 <= floor or e1 <= floor:
        raise NotEstimableError("error already at the numerical floor in the window")
    return (e1 / e0) ** (1.0 / (k_final - k0))
