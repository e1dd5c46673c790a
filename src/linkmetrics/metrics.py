"""Multi-stage consensus pipelines for link-based network metrics.

Every stage is one weighted-average-consensus run S(l, k): node i starts
from y_i**l with weight w_i = sum over neighbors j of y_j**k (its degree
for k = 0), and `engine.wac_run` agrees the step bound min_i w_i/d_i by
min-consensus. Total variation is S(2,0), S(1,1), S(1,0); each term
(l, k) of a sparse polynomial of pair-wise attributes is S(l,k), S(k,0),
and terms that share a stage share its one run.
Every per-node stage input is strictly local (own degree, own attribute
powers, neighbor attribute sums); neither the edge count nor any other
global aggregate enters a stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

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
    runs: tuple[ConsensusRun, ConsensusRun, ConsensusRun]

    @property
    def delta1(self) -> float:
        """Step bound of stage 2 (WAC1), the one an attribute shift enlarges."""
        return self.runs[1].max_step_bound

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


def _stage(
    g: Graph, y: Sequence[float], l: int, k: int, cfg: ConsensusConfig | None,
    power: Callable[[float, int], float] = pow,
) -> ConsensusRun:
    """Stage S(l, k): states power(y_i, l), weights the neighbor sums of y_j**k."""
    w = engine.neighbor_weight_sums(g, y, k)  # validates y
    x0 = engine.node_powers(y, l, power)
    # Stable steps keep states in [min x0, max x0], so no sum exceeds d_i * max x0.
    if not math.isfinite(max(g.degrees) * float(x0.max())):
        raise ValueError(f"stage S({l},{k}): largest degree times largest y**{l} overflows")
    return engine.wac_run(g, x0, w, cfg)


def _finite(value: float, alphas: Sequence[float], name: str) -> float:
    """`value`, unless it overflows although every stage value is finite."""
    if not math.isfinite(value) and all(map(math.isfinite, alphas)):
        raise ValueError(f"{name} overflows to {value} from finite stage values")
    return value


def total_variation_pipeline(
    g: Graph, y: Sequence[float], cfg: ConsensusConfig | None = None
) -> TVResult:
    """Three-stage consensus computation of the total variation.

    Stage 1 S(2,0): squared attributes, degree weights. Stage 2 (WAC1)
    S(1,1): attributes, neighbor attribute sums as weights. Stage 3 (WAC2)
    S(1,0): attributes, degree weights. The metric is
    2*alpha1 - 2*alpha2*alpha3.
    """
    runs = (
        # v * v is correctly rounded; libm's pow(v, 2) is not always.
        _stage(g, y, 2, 0, cfg, power=lambda v, _: v * v),
        _stage(g, y, 1, 1, cfg),
        _stage(g, y, 1, 0, cfg),
    )
    a1, a2, a3 = alphas = [r.consensus_value for r in runs]
    tv = _finite(2.0 * a1 - 2.0 * a2 * a3, alphas, "total variation")
    return TVResult(a1, a2, a3, tv, runs)


def polynomial_metric_terms(
    g: Graph, y: Sequence[float], spec: MetricSpec, cfg: ConsensusConfig | None = None
) -> list[PolyTermResult]:
    """One result per term (l, k) of `spec`, from stages S(l,k) and S(k,0).

    Each distinct stage runs once, in first-use order, and every term that
    uses it gets the same ConsensusRun. The term value follows the
    edge-averaged convention h_lk = alpha_1lk * alpha_2lk * c_lk, i.e. the
    per-edge average with f symmetrized over the two edge endpoints.
    """
    runs: dict[tuple[int, int], ConsensusRun] = {}
    terms = []
    for l, k, c in spec.terms:
        for lk in ((l, k), (k, 0)):
            if lk not in runs:
                runs[lk] = _stage(g, y, *lk, cfg)
        pair = (runs[l, k], runs[k, 0])
        a1, a2 = alphas = [r.consensus_value for r in pair]
        h = _finite(a1 * a2 * c, alphas, f"term ({l},{k})")
        terms.append(PolyTermResult(l, k, c, a1, a2, h, pair))
    return terms


def polynomial_metric(
    g: Graph, y: Sequence[float], spec: MetricSpec, cfg: ConsensusConfig | None = None
) -> float:
    """Edge-averaged polynomial link metric as the sum of term pipelines."""
    return polynomial_metric_value(polynomial_metric_terms(g, y, spec, cfg))


def polynomial_metric_value(terms: Sequence[PolyTermResult]) -> float:
    """Sum of the term values h_lk; ValueError when the sum overflows."""
    try:
        return math.fsum(t.h_lk for t in terms)
    except OverflowError:
        msg = "polynomial metric overflows: its terms sum past the float range"
        raise ValueError(msg) from None
