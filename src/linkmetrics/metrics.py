"""Multi-stage consensus pipelines for link-based network metrics.

Every stage is one weighted-average-consensus run S(l, k): node i starts
from y_i**l with weight w_i = sum over neighbors j of y_j**k (its degree
for k = 0), and `engine.wac_run` agrees the step bound min_i w_i/d_i by
min-consensus. Each term (l, k) of a sparse polynomial of pair-wise
attributes is S(l,k), S(k,0), and terms that share a stage share its one
run. Total variation is the polynomial (u - v)**2, folded by the symmetry
of the edge average to 2u**2 - 2uv: S(2,0), S(0,0), S(1,1), S(1,0).
Every per-node stage input is strictly local (own degree, own attribute
powers, neighbor attribute sums); neither the edge count nor any other
global aggregate enters a stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import engine
from .engine import ConsensusConfig, ConsensusRun, RowSink
from .graph import Graph, data_rows

Sinks = Mapping[tuple[int, int], RowSink]
"""The row sink of each stage S(l, k) whose rounds are kept, by (l, k); a
stage not in the mapping keeps no rows."""


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


def tv_metric_spec() -> MetricSpec:
    """Coefficients of f(u, v) = (u - v)**2."""
    return MetricSpec(terms=((2, 0, 1.0), (0, 2, 1.0), (1, 1, -2.0)))


def parse_metric_spec(text: str) -> MetricSpec:
    """Parse 'l k c' lines ('#' comments allowed) into a MetricSpec."""
    rows = data_rows(text, "spec", (int, int, float))
    return MetricSpec(terms=tuple(tuple(term) for _, term in rows))


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


@dataclass
class PolyTermResult:
    l: int
    k: int
    c_lk: float
    alpha_1lk: float
    alpha_2lk: float
    h_lk: float
    runs: tuple[ConsensusRun, ConsensusRun]


def shift_attributes(y: Sequence[float], c: float) -> list[float]:
    """Add a positive constant to every attribute (preserves positivity)."""
    if not c > 0:
        raise ValueError("shift constant must be positive")
    return [v + c for v in y]


def _stage(
    g: Graph, y: Sequence[float], l: int, k: int, cfg: ConsensusConfig | None,
    sinks: Sinks | None = None,
) -> ConsensusRun:
    """Stage S(l, k): states y_i**l, weights the neighbor sums of y_j**k."""
    w = engine.neighbor_weight_sums(g, y, k)  # validates y
    ratios = w / g.degrees  # their minimum is the step bound Delta
    bad = ~((ratios > 0) & (ratios < math.inf))  # each y_j > 0: only an under- or overflow fails
    if bad.any():
        i = bad.argmax()
        cause = ("weight underflows to 0.0" if w[i] == 0 else
                 f"weight {float(w[i])!r} over degree {g.degrees[i]} is {float(ratios[i])!r}")
        raise ValueError(f"stage S({l},{k}): node {g.original_ids[i]}: {cause}")
    x0 = engine.node_powers(y, l, g.original_ids)
    # Stable steps keep states in [min x0, max x0], so no sum exceeds d_i * max x0.
    if not math.isfinite(max(g.degrees) * float(x0.max())):
        raise ValueError(f"stage S({l},{k}): largest degree times largest y**{l} overflows")
    return engine.wac_run(g, x0, w, cfg, sinks.get((l, k)) if sinks else None)


def _finite(value: float, alphas: Sequence[float], name: str) -> float:
    """`value`, unless it overflows although every stage value is finite."""
    if not math.isfinite(value) and all(map(math.isfinite, alphas)):
        raise ValueError(f"{name} overflows to {value} from finite stage values")
    return value


# (u - v)**2 averaged over edges, with v**2 folded into u**2 by symmetry.
FOLDED_TV = MetricSpec(terms=((2, 0, 2.0), (1, 1, -2.0)))


def stage_plan(spec: MetricSpec | None) -> list[tuple[str | None, tuple[int, int]]]:
    """The stages of `spec`, or of total variation for None, in summary.json
    order as (name, (l, k)) pairs. Term (l, k) lists S(l,k) as
    term_l_k_stage1 and S(k,0) as term_l_k_stage2. Total variation is the
    plan of FOLDED_TV named stage1, none for S(0,0), stage2 and stage3."""
    if spec is None:
        return [(name, lk) for name, (_, lk) in
                zip(("stage1", None, "stage2", "stage3"), stage_plan(FOLDED_TV))]
    return [(f"term_{l}_{k}_stage{i}", lk)
            for l, k, _ in spec.terms for i, lk in ((1, (l, k)), (2, (k, 0)))]


def total_variation_pipeline(
    g: Graph, y: Sequence[float], cfg: ConsensusConfig | None = None,
) -> TVResult:
    """Total variation as the polynomial metric 2u**2 - 2uv.

    Its runs are S(2,0), S(0,0), S(1,1) and S(1,0). S(0,0) starts at
    consensus and ends at round 0 with value exactly 1.0, so the metric
    is 2*alpha1 - 2*alpha2*alpha3, rounded once. The result keeps the
    three other stages: stage 1 S(2,0), squared attributes with degree
    weights; stage 2 (WAC1) S(1,1), attributes with neighbor attribute
    sums as weights; stage 3 (WAC2) S(1,0), attributes with degree weights.
    """
    squares, cross = terms = polynomial_metric_terms(g, y, FOLDED_TV, cfg)
    runs = (squares.runs[0], *cross.runs)  # alpha_i is the value of stage i
    return TVResult(*(run.consensus_value for run in runs), polynomial_metric_value(terms), runs)


def polynomial_metric_terms(
    g: Graph, y: Sequence[float], spec: MetricSpec, cfg: ConsensusConfig | None = None,
    sinks: Sinks | None = None,
) -> list[PolyTermResult]:
    """One result per term (l, k) of `spec`, from stages S(l,k) and S(k,0).

    Each distinct stage of `stage_plan(spec)` runs once, in the order it is
    first listed, and every term that uses it gets the same ConsensusRun.
    The term value follows the edge-averaged convention
    h_lk = alpha_1lk * alpha_2lk * c_lk, i.e. the per-edge average with f
    symmetrized over the two edge endpoints.
    `sinks`, if given, maps a distinct stage's (l, k) to its row sink.
    """
    stages = [lk for _, lk in stage_plan(spec)]  # two per term
    runs = {lk: _stage(g, y, *lk, cfg, sinks) for lk in dict.fromkeys(stages)}
    terms = []
    for (l, k, c), first, second in zip(spec.terms, stages[::2], stages[1::2]):
        pair = (runs[first], runs[second])
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
