"""Experiment runner: ingest or generate graphs and attributes, run the
consensus pipelines, optionally compare against the centralized reference
and attach a spectral report, and write traces plus a summary JSON.

Exit codes: 0 = all stages converged, 1 = input/configuration error,
2 = at least one stage failed to converge.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from . import engine, graph as graphmod, metrics, oracle, spectral
from .engine import ConsensusConfig
from .graph import Graph
from .rng import SplitMix64, derive_seed

_GRAPH_STREAM = 0
_ATTR_STREAM = 1


# ---------------------------------------------------------------------------
# synthetic inputs


def generate_synthetic(n: int, p: float, seed: int) -> Graph:
    """Seeded Erdos-Renyi G(n, p), reduced to its largest component.

    Pair (i, j) draws run in lexicographic order off the pinned SplitMix64
    stream, so identical seeds reproduce identical graphs everywhere.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not (0.0 < p <= 1.0):
        raise ValueError("p must lie in (0, 1]")
    rng = SplitMix64(derive_seed(seed, _GRAPH_STREAM))
    edges = [
        (i, j)
        for i in range(n - 1)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    if not edges:
        raise ValueError("generated graph has no edges; raise p or n")
    g = graphmod.largest_connected_component(graphmod.from_edges(n, edges))
    if g.node_count < 2:
        raise ValueError("largest component has fewer than 2 nodes")
    return g


def generate_attributes(g: Graph, mean: float, seed: int) -> list[float]:
    """I.i.d. exponential attributes from the pinned generator; all > 0."""
    if mean <= 0:
        raise ValueError("mean must be positive")
    rng = SplitMix64(derive_seed(seed, _ATTR_STREAM))
    return [rng.exponential(mean) for _ in range(g.node_count)]


def parse_attribute_file(text: str, g: Graph) -> list[float]:
    """Parse 'original_id value' lines into graph order.

    Every graph node must receive exactly one positive value.
    """
    by_label: dict[int, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"attribute line {lineno}: expected 'node value'")
        try:
            label, value = int(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(f"attribute line {lineno}: bad token in {line!r}") from None
        if label in by_label:
            raise ValueError(f"attribute line {lineno}: duplicate value for node {label}")
        by_label[label] = value

    values = []
    for idx, label in enumerate(g.original_ids):
        if label not in by_label:
            raise ValueError(f"no attribute value for node {label}")
        values.append(by_label[label])
    engine.validate_positive(values, "attribute")
    return values


# ---------------------------------------------------------------------------
# deterministic serialization


def _format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(k)}: {_to_json(v, indent + 1)}" for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, int)):
        return json.dumps(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_trace_csv(path: Path, trace: list[list[float]]) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as f:
        f.write("iteration,node_id,state\n")
        for it, states in enumerate(trace):
            for node, state in enumerate(states):
                f.write(f"{it},{node},{state!r}\n")


# ---------------------------------------------------------------------------
# experiment configuration and run


@dataclass
class ExperimentConfig:
    edges_path: str | None = None
    er_n: int | None = None
    er_p: float | None = None
    seed: int | None = None
    attrs_path: str | None = None
    exp_mean: float | None = None
    metric: str = "tv"
    spec_path: str | None = None
    eps_fraction: float = 0.9
    epsilon: float | None = None
    shift: float | None = None
    analyze: bool = False
    with_oracle: bool = False
    out_dir: str = "out"
    allow_unstable_epsilon: bool = False
    max_iterations: int = 10**6
    step_tolerance: float = 1e-12
    spread_tolerance: float = 1e-10
    write_traces: bool = True

    def validate(self) -> None:
        if (self.edges_path is None) == (self.er_n is None):
            raise ValueError("choose exactly one graph source (--edges or --er)")
        if (self.attrs_path is None) == (self.exp_mean is None):
            raise ValueError("choose exactly one attribute source (--attrs or --exp-mean)")
        if (self.er_n is not None or self.exp_mean is not None) and self.seed is None:
            raise ValueError("--seed is mandatory for synthetic sources")
        if self.metric not in ("tv", "poly"):
            raise ValueError("metric must be 'tv' or 'poly'")
        if self.metric == "poly" and self.spec_path is None:
            raise ValueError("--metric poly requires --spec PATH")
        if self.shift is not None and self.shift <= 0:
            raise ValueError("--shift must be positive")


def _consensus_config(cfg: ExperimentConfig) -> ConsensusConfig:
    return ConsensusConfig(
        epsilon=cfg.epsilon,
        epsilon_fraction=cfg.eps_fraction,
        step_tolerance=cfg.step_tolerance,
        spread_tolerance=cfg.spread_tolerance,
        max_iterations=cfg.max_iterations,
        record_trace=cfg.write_traces,
        allow_unstable_epsilon=cfg.allow_unstable_epsilon,
    )


def _stage_entry(name: str, run: engine.ConsensusRun, delta: float) -> dict:
    return {
        "stage": name,
        "epsilon": run.epsilon,
        "delta": delta,
        "iterations": run.iterations_used,
        "converged": run.converged,
        "value": run.consensus_value,
    }


def _run_tv(g: Graph, y: list[float], ccfg: ConsensusConfig, out: Path, prefix: str = ""):
    result = metrics.total_variation_pipeline(g, y, ccfg)
    stage_names = ("stage1", "stage2", "stage3")
    deltas = (1.0, result.delta1, 1.0)
    stages = [
        _stage_entry(prefix + n, r, d)
        for n, r, d in zip(stage_names, result.runs, deltas)
    ]
    if ccfg.record_trace:
        for n, r in zip(stage_names, result.runs):
            _write_trace_csv(out / f"{n}_trace.csv", r.trace)
    alphas = {"alpha1": result.alpha1, "alpha2": result.alpha2, "alpha3": result.alpha3}
    return result.total_variation, stages, alphas, result


def _run_poly(g: Graph, y: list[float], spec: metrics.MetricSpec, ccfg: ConsensusConfig, out: Path):
    terms = metrics.polynomial_metric_terms(g, y, spec, ccfg)
    stages, alphas = [], {}
    for t in terms:
        key = f"term_{t.l}_{t.k}"
        bound1 = t.runs[0].max_step_bound
        stages.append(_stage_entry(f"{key}_stage1", t.runs[0], bound1))
        stages.append(_stage_entry(f"{key}_stage2", t.runs[1], 1.0))
        alphas[key] = {"alpha1": t.alpha_1lk, "alpha2": t.alpha_2lk, "h": t.h_lk}
        if ccfg.record_trace:
            _write_trace_csv(out / f"{key}_stage1_trace.csv", t.runs[0].trace)
            _write_trace_csv(out / f"{key}_stage2_trace.csv", t.runs[1].trace)
    value = math.fsum(t.h_lk for t in terms)
    return value, stages, alphas, terms


def _spectral_summary(g: Graph, y: list[float], tv_result: metrics.TVResult) -> dict:
    degrees = [float(d) for d in g.degrees]
    w1 = engine.neighbor_weight_sums(g, y, 1)
    out = {}
    for name, w, run in (
        ("stage1", degrees, tv_result.runs[0]),
        ("stage2", w1, tv_result.runs[1]),
        ("stage3", degrees, tv_result.runs[2]),
    ):
        report = spectral.spectral_report(g, w, run.epsilon)
        out[name] = {
            "epsilon": report.epsilon,
            "lambda1": report.eigenvalues[0],
            "rho": report.rho,
        }
    return out


def run_experiment(cfg: ExperimentConfig) -> int:
    cfg.validate()

    if cfg.edges_path is not None:
        g = graphmod.largest_connected_component(
            graphmod.load_edge_list(cfg.edges_path)
        )
    else:
        g = generate_synthetic(cfg.er_n, cfg.er_p, cfg.seed)

    if cfg.attrs_path is not None:
        y = parse_attribute_file(Path(cfg.attrs_path).read_text(encoding="utf-8"), g)
    else:
        y = generate_attributes(g, cfg.exp_mean, cfg.seed)

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ccfg = _consensus_config(cfg)

    summary: dict = {"graph": {"n": g.node_count, "m": g.edge_count}}
    tv_result = None
    if cfg.metric == "tv":
        value, stages, alphas, tv_result = _run_tv(g, y, ccfg, out)
        all_converged = tv_result.converged
    else:
        spec = metrics.parse_metric_spec(Path(cfg.spec_path).read_text(encoding="utf-8"))
        value, stages, alphas, terms = _run_poly(g, y, spec, ccfg, out)
        all_converged = all(t.converged for t in terms)
    summary["stages"] = stages
    summary["alphas"] = alphas
    summary["metric_value"] = value

    if cfg.with_oracle:
        if cfg.metric == "tv":
            ref = oracle.exact_total_variation(g, y)
            a1, a2, a3 = oracle.exact_alphas(g, y)
            summary["oracle"] = {
                "metric_value": ref,
                "delta": value - ref,
                "alphas": {"alpha1": a1, "alpha2": a2, "alpha3": a3},
            }
        else:
            ref = oracle.exact_polynomial_metric(g, y, spec)
            summary["oracle"] = {"metric_value": ref, "delta": value - ref}
    else:
        summary["oracle"] = None

    if cfg.analyze and tv_result is not None:
        summary["spectral"] = _spectral_summary(g, y, tv_result)
    else:
        summary["spectral"] = None

    if cfg.shift is not None and cfg.metric == "tv":
        shifted_y = metrics.shift_attributes(y, cfg.shift)
        shifted_out = out / "shifted"
        shifted_out.mkdir(exist_ok=True)
        s_value, s_stages, s_alphas, s_result = _run_tv(g, shifted_y, ccfg, shifted_out)
        summary["shifted"] = {
            "shift": cfg.shift,
            "stages": s_stages,
            "alphas": s_alphas,
            "metric_value": s_value,
            "delta1_before": tv_result.delta1,
            "delta1_after": s_result.delta1,
        }
        all_converged = all_converged and s_result.converged

    (out / "summary.json").write_text(_to_json(summary) + "\n", encoding="utf-8")
    return 0 if all_converged else 2


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkmetrics",
        description="Compute link-based network metrics with consensus pipelines.",
    )
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--edges", metavar="PATH", help="edge-list file (SNAP format)")
    src.add_argument(
        "--er", nargs=2, metavar=("N", "P"), help="synthetic Erdos-Renyi graph"
    )
    attrs = parser.add_mutually_exclusive_group(required=True)
    attrs.add_argument("--attrs", metavar="PATH", help="attribute file (node value)")
    attrs.add_argument(
        "--exp-mean", type=float, metavar="M", help="exponential attributes, mean M"
    )
    parser.add_argument("--seed", type=int, help="seed for synthetic sources")
    parser.add_argument("--metric", choices=("tv", "poly"), default="tv")
    parser.add_argument("--spec", metavar="PATH", help="polynomial spec file (l k c lines)")
    parser.add_argument("--eps-frac", type=float, default=0.9, metavar="F")
    parser.add_argument("--epsilon", type=float, help="explicit step size for all stages")
    parser.add_argument("--shift", type=float, metavar="C", help="also run with attributes + C")
    parser.add_argument("--analyze", action="store_true", help="attach spectral report")
    parser.add_argument("--oracle", action="store_true", help="attach reference values")
    parser.add_argument("--out", default="out", metavar="DIR")
    parser.add_argument("--allow-unstable-epsilon", action="store_true")
    parser.add_argument("--max-iters", type=int, default=10**6, metavar="K")
    parser.add_argument("--tol-step", type=float, default=1e-12, metavar="X")
    parser.add_argument("--tol-spread", type=float, default=1e-10, metavar="Y")
    parser.add_argument("--no-traces", action="store_true", help="skip trace CSVs")
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    er_n = er_p = None
    if args.er is not None:
        er_n, er_p = int(args.er[0]), float(args.er[1])
    return ExperimentConfig(
        edges_path=args.edges,
        er_n=er_n,
        er_p=er_p,
        seed=args.seed,
        attrs_path=args.attrs,
        exp_mean=args.exp_mean,
        metric=args.metric,
        spec_path=args.spec,
        eps_fraction=args.eps_frac,
        epsilon=args.epsilon,
        shift=args.shift,
        analyze=args.analyze,
        with_oracle=args.oracle,
        out_dir=args.out,
        allow_unstable_epsilon=args.allow_unstable_epsilon,
        max_iterations=args.max_iters,
        step_tolerance=args.tol_step,
        spread_tolerance=args.tol_spread,
        write_traces=not args.no_traces,
    )


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_experiment(config_from_args(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
