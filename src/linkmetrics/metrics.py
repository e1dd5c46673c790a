"""Multi-stage consensus pipelines for link-based network metrics.

Total variation of a node signal over the edge set is computed with three
sequential weighted-average-consensus stages; an arbitrary sparse
polynomial of pair-wise attributes is computed term by term with two
stages each. All per-node quantities fed into a stage are strictly local
(own degree, own attribute powers, neighbor attribute sums); neither the
edge count nor any other global aggregate enters a stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import engine
from .engine import ConsensusConfig, ConsensusRun
from .graph import Graph


@dataclass(frozen=True)
class MetricSpec:
    """Sparse polynomial f(u, v) = sum c_lk * u**l * v**k."""

    terms: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        seen = set()
        for l, k, c in self.terms:
            if l < 0 or k < 0:
                raise ValueError("polynomial exponents must be >= 0")
            if not math.isfinite(c):
                raise ValueError(f"coefficient of term ({l},{k}) must be finite")
            if (l, k) in seen:
                raise ValueError(f"duplicate term ({l},{k})")
            seen.add((l, k))

    @property
    def max_degree(self) -> int:
        return max((max(l, k) for l, k, _ in self.terms), default=0)

    def evaluate(self, u: float, v: float) -> float:
        return math.fsum(c * u**l * v**k for l, k, c in self.terms)


def tv_metric_spec() -> MetricSpec:
    """Coefficients of f(u, v) = (u - v)**2."""
    return MetricSpec(terms=((2, 0, 1.0), (0, 2, 1.0), (1, 1, -2.0)))


def parse_metric_spec(text: str) -> MetricSpec:
    """Parse 'l k c' lines ('#' comments allowed) into a MetricSpec."""
    terms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"spec line {lineno}: expected 'l k c'")
        try:
            terms.append((int(parts[0]), int(parts[1]), float(parts[2])))
        except ValueError:
            raise ValueError(f"spec line {lineno}: bad token in {line!r}") from None
    return MetricSpec(terms=tuple(terms))


@dataclass
class TVResult:
    alpha1: float
    alpha2: float
    alpha3: float
    total_variation: float
    delta1: float
    runs: tuple[ConsensusRun, ConsensusRun, ConsensusRun]

    @property
    def converged(self) -> bool:
        return all(r.converged for r in self.runs)


@dataclass
class PolyTermResult:
    l: int
    k: int
    c_lk: float
    alpha_1lk: float
    alpha_2lk: float
    h_lk: float
    runs: tuple[ConsensusRun, ConsensusRun]

    @property
    def converged(self) -> bool:
        return all(r.converged for r in self.runs)


def shift_attributes(y: Sequence[float], c: float) -> list[float]:
    """Add a positive constant to every attribute (preserves positivity)."""
    if not c > 0:
        raise ValueError("shift constant must be positive")
    return [v + c for v in y]


def _stage_cfg(cfg: ConsensusConfig, bound: float) -> ConsensusConfig:
    # Explicit epsilon applies verbatim to every stage; otherwise each
    # stage takes its fraction of its own stability bound.
    if cfg.epsilon is not None:
        return cfg
    return cfg.with_epsilon(cfg.epsilon_fraction * bound)


def total_variation_pipeline(
    g: Graph, y: Sequence[float], cfg: ConsensusConfig | None = None
) -> TVResult:
    """Three-stage consensus computation of the total variation.

    Stage 1: degree weights, squared attributes. Stage 2 (WAC1): neighbor
    attribute sums as weights, attributes as states, with the step bound
    agreed by min-consensus. Stage 3 (WAC2): degree weights, attributes.
    The metric is 2*alpha1 - 2*alpha2*alpha3.
    """
    cfg = cfg or ConsensusConfig()
    engine.validate_positive(y, "y")
    degrees = [float(d) for d in g.degrees]

    run1 = engine.wac_run(g, [v * v for v in y], degrees, _stage_cfg(cfg, 1.0))
    alpha1 = run1.consensus_value

    w1 = engine.neighbor_weight_sums(g, y, 1)
    delta1 = engine.distributed_step_bound(g, w1)
    run2 = engine.wac_run(g, list(y), w1, _stage_cfg(cfg, delta1))
    alpha2 = run2.consensus_value

    run3 = engine.wac_run(g, list(y), degrees, _stage_cfg(cfg, 1.0))
    alpha3 = run3.consensus_value

    return TVResult(
        alpha1=alpha1,
        alpha2=alpha2,
        alpha3=alpha3,
        total_variation=2.0 * alpha1 - 2.0 * alpha2 * alpha3,
        delta1=delta1,
        runs=(run1, run2, run3),
    )


def polynomial_term_pipeline(
    g: Graph,
    y: Sequence[float],
    l: int,
    k: int,
    c_lk: float,
    cfg: ConsensusConfig | None = None,
) -> PolyTermResult:
    """Two-stage consensus computation of one polynomial term.

    The term value follows the edge-averaged convention
    h_lk = alpha_1lk * alpha_2lk * c_lk, i.e. the per-edge average with
    f symmetrized over the two edge endpoints.
    """
    cfg = cfg or ConsensusConfig()
    engine.validate_positive(y, "y")
    if l < 0 or k < 0:
        raise ValueError("polynomial exponents must be >= 0")
    degrees = [float(d) for d in g.degrees]

    w = engine.neighbor_weight_sums(g, y, k)
    bound = engine.distributed_step_bound(g, w)
    run1 = engine.wac_run(g, [v**l for v in y], w, _stage_cfg(cfg, bound))
    alpha1 = run1.consensus_value

    run2 = engine.wac_run(g, [v**k for v in y], degrees, _stage_cfg(cfg, 1.0))
    alpha2 = run2.consensus_value

    return PolyTermResult(
        l=l,
        k=k,
        c_lk=c_lk,
        alpha_1lk=alpha1,
        alpha_2lk=alpha2,
        h_lk=alpha1 * alpha2 * c_lk,
        runs=(run1, run2),
    )


def polynomial_metric_terms(
    g: Graph, y: Sequence[float], spec: MetricSpec, cfg: ConsensusConfig | None = None
) -> list[PolyTermResult]:
    return [polynomial_term_pipeline(g, y, l, k, c, cfg) for l, k, c in spec.terms]


def polynomial_metric(
    g: Graph, y: Sequence[float], spec: MetricSpec, cfg: ConsensusConfig | None = None
) -> float:
    """Edge-averaged polynomial link metric as the sum of term pipelines."""
    return math.fsum(t.h_lk for t in polynomial_metric_terms(g, y, spec, cfg))
