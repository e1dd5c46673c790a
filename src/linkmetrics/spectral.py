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

    def predicted_iterations(self, target_reduction: float) -> int:
        """Iterations to shrink the error by `target_reduction` (< 1)."""
        if not (0.0 < self.rho < 1.0):
            raise ValueError("prediction requires 0 < rho < 1")
        if not (0.0 < target_reduction < 1.0):
            raise ValueError("target_reduction must lie in (0, 1)")
        return math.ceil(math.log(target_reduction) / math.log(self.rho))


def normalized_weight_matrix(g: Graph, w: Sequence[float], epsilon: float) -> np.ndarray:
    """Symmetric iteration matrix I - eps*W^{-1/2} L W^{-1/2}.

    The upper triangle is computed and mirrored, so symmetry is exact.
    """
    engine.validate_positive(w, "w")
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


def symmetric_eigenvalues(m: np.ndarray) -> list[float]:
    """All eigenvalues of a symmetric matrix, sorted descending."""
    a = np.array(m, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    scale = max(np.abs(a).max(), 1.0)
    if np.abs(a - a.T).max() > 1e-12 * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return sorted((float(v) for v in np.linalg.eigvalsh(a)), reverse=True)


def convergence_factor(eigenvalues: Sequence[float]) -> float:
    """rho = max(|lambda_2|, |lambda_N|) for eigenvalues sorted descending."""
    if len(eigenvalues) < 2:
        raise ValueError("need at least two eigenvalues")
    return max(abs(eigenvalues[1]), abs(eigenvalues[-1]))


def spectral_report(g: Graph, w: Sequence[float], epsilon: float) -> SpectralReport:
    eigs = symmetric_eigenvalues(normalized_weight_matrix(g, w, epsilon))
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
