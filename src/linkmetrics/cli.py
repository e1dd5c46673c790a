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
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import engine, graph as graphmod, metrics, oracle, spectral
from .engine import ConsensusConfig, ConsensusRun
from .graph import Graph
from .rng import SplitMix64, derive_seed

_GRAPH_STREAM = 0
_ATTR_STREAM = 1
# Draws per block in generate_synthetic, so its temporaries stay O(n).
_PAIR_BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# synthetic inputs


def generate_synthetic(n: int, p: float, seed: int) -> Graph:
    """Seeded Erdos-Renyi G(n, p), reduced to its largest component.

    Pair (i, j) draws run in lexicographic order off the pinned SplitMix64
    stream, so identical seeds reproduce identical graphs everywhere. The
    uniforms are drawn in blocks of `_PAIR_BLOCK` flat pair indices, each
    the value `SplitMix64.random` would return for that pair.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not (0.0 < p <= 1.0):
        raise ValueError("p must lie in (0, 1]")
    rng = SplitMix64(derive_seed(seed, _GRAPH_STREAM))
    rows = np.arange(n - 1)
    # Flat index of pair (i, i + 1): rows 0..i-1 hold the pairs before it.
    start = rows * (n - 1) - rows * (rows - 1) // 2
    pairs = n * (n - 1) // 2
    edges: list[tuple[int, int]] = []
    for lo in range(0, pairs, _PAIR_BLOCK):
        z = rng.uint64_block(min(_PAIR_BLOCK, pairs - lo))
        f = lo + np.flatnonzero((z >> np.uint64(11)) * (1.0 / (1 << 53)) < p)
        i = np.searchsorted(start, f, side="right") - 1
        edges += zip(i.tolist(), (f - start[i] + i + 1).tolist())
    if not edges:
        raise ValueError("generated graph has no edges; raise p or n")
    g = graphmod.largest_connected_component(graphmod.from_edges(n, edges))
    if g.node_count < 2:
        raise ValueError("largest component has fewer than 2 nodes")
    return g


def generate_attributes(g: Graph, mean: float, seed: int) -> list[float]:
    """I.i.d. exponential attributes from the pinned generator; all > 0."""
    if not 0 < mean < math.inf:
        raise ValueError("mean must be positive and finite")
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


def _write_trace_csv(path: Path, trace: Sequence[Sequence[float]]) -> None:
    """One 'iteration,node_id,state' row per node and iteration, with the
    state as repr(); each iteration is one %-substitution of a template.

    Rows may be float64 arrays or lists. Each is turned into Python floats
    first, since the repr of a NumPy 2 scalar is 'np.float64(...)'.
    """
    with path.open("w", encoding="utf-8", newline="\n") as f:
        f.write("iteration,node_id,state\n")
        template = "".join(f"@,{node},%r\n" for node in range(len(trace[0])))
        for it, states in enumerate(trace):
            f.write(template.replace("@", str(it)) % tuple(np.asarray(states).tolist()))


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
    eps_fraction: float = ConsensusConfig.epsilon_fraction
    epsilon: float | None = None
    shift: float | None = None
    analyze: bool = False
    with_oracle: bool = False
    out_dir: str = "out"
    allow_unstable_epsilon: bool = False
    max_iterations: int = ConsensusConfig.max_iterations
    step_tolerance: float = ConsensusConfig.step_tolerance
    spread_tolerance: float = ConsensusConfig.spread_tolerance
    write_traces: bool = True

    def validate(self) -> None:
        if (self.edges_path is None) == (self.er_n is None):
            raise ValueError("choose exactly one graph source (--edges or --er)")
        if (self.attrs_path is None) == (self.exp_mean is None):
            raise ValueError("choose exactly one attribute source (--attrs or --exp-mean)")
        if (self.er_n is not None or self.exp_mean is not None) != (self.seed is not None):
            raise ValueError("--seed is mandatory for synthetic sources and unused otherwise")
        if self.metric not in ("tv", "poly"):
            raise ValueError("metric must be 'tv' or 'poly'")
        if (self.metric == "poly") != (self.spec_path is not None):
            raise ValueError("--metric poly and --spec PATH go together")
        if self.shift is not None:
            # The shift study compares the WAC1 bound Delta1 of total variation.
            if self.metric != "tv":
                raise ValueError("--shift applies to --metric tv only")
            if not 0 < self.shift < math.inf:
                raise ValueError("--shift must be positive and finite")

    def consensus(self) -> ConsensusConfig:
        """The consensus settings every stage of the run shares."""
        return ConsensusConfig(
            epsilon=self.epsilon,
            epsilon_fraction=self.eps_fraction,
            step_tolerance=self.step_tolerance,
            spread_tolerance=self.spread_tolerance,
            max_iterations=self.max_iterations,
            record_trace=self.write_traces,
            allow_unstable_epsilon=self.allow_unstable_epsilon,
        )


Stages = list[tuple[str, ConsensusRun]]


def _run_metric(
    g: Graph, y: list[float], spec: metrics.MetricSpec | None, ccfg: ConsensusConfig
) -> tuple[float, dict, Stages]:
    """Run total variation (spec None) or the polynomial metric `spec`.

    Returns the metric value, its alphas and its (stage name, run) pairs.
    """
    if spec is None:
        r = metrics.total_variation_pipeline(g, y, ccfg)
        alphas = {"alpha1": r.alpha1, "alpha2": r.alpha2, "alpha3": r.alpha3}
        stages = [(f"stage{i}", run) for i, run in enumerate(r.runs, 1)]
        return r.total_variation, alphas, stages
    terms = metrics.polynomial_metric_terms(g, y, spec, ccfg)
    stages, alphas = [], {}
    for t in terms:
        key = f"term_{t.l}_{t.k}"
        alphas[key] = {"alpha1": t.alpha_1lk, "alpha2": t.alpha_2lk, "h": t.h_lk}
        stages += [(f"{key}_stage{i}", run) for i, run in enumerate(t.runs, 1)]
    return metrics.polynomial_metric_value(terms), alphas, stages


def _stage_entries(stages: Stages, out: Path) -> list[dict]:
    """summary.json entries of `stages`; each recorded trace goes to
    out/<stage>_trace.csv and is then dropped from its run, so that what
    follows does not hold it in memory. A run listed under several names
    is formatted once, under its first name, and its bytes copied to the
    others."""
    entries = []
    written: dict[int, Path] = {}  # id(run) -> its first trace CSV
    for name, run in stages:
        path = out / f"{name}_trace.csv"
        if id(run) in written:
            shutil.copyfile(written[id(run)], path)
        elif run.trace is not None:
            _write_trace_csv(path, run.trace)
            run.trace = None
            written[id(run)] = path
        entries.append({
            "stage": name,
            "epsilon": run.epsilon,
            "delta": run.max_step_bound,
            "iterations": run.iterations_used,
            "converged": run.converged,
            "value": run.consensus_value,
        })
    return entries


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
    ccfg = cfg.consensus()
    spec = None
    if cfg.metric == "poly":
        spec = metrics.parse_metric_spec(Path(cfg.spec_path).read_text(encoding="utf-8"))

    value, alphas, stages = _run_metric(g, y, spec, ccfg)
    summary: dict = {
        "graph": {"n": g.node_count, "m": g.edge_count},
        "stages": _stage_entries(stages, out),
        "alphas": alphas,
        "metric_value": value,
        "oracle": None,
        "spectral": None,
    }

    if cfg.with_oracle and spec is None:
        ref = oracle.exact_total_variation(g, y)
        a1, a2, a3 = oracle.exact_alphas(g, y)
        summary["oracle"] = {
            "metric_value": ref,
            "delta": value - ref,
            "alphas": {"alpha1": a1, "alpha2": a2, "alpha3": a3},
        }
    elif cfg.with_oracle:
        ref = oracle.exact_polynomial_metric(g, y, spec)
        summary["oracle"] = {"metric_value": ref, "delta": value - ref}

    if cfg.analyze:
        summary["spectral"] = {}
        # The report depends on (w, epsilon) alone; stages that share them share it.
        reports: dict[tuple, spectral.SpectralReport] = {}
        for name, run in stages:
            key = (run.weights.tobytes(), run.epsilon)
            if key not in reports:
                reports[key] = spectral.spectral_report(g, run.weights, run.epsilon)
            report = reports[key]
            summary["spectral"][name] = {
                "epsilon": report.epsilon,
                "lambda1": report.eigenvalues[0],
                "rho": report.rho,
            }

    if cfg.shift is not None:
        shifted_out = out / "shifted"
        shifted_out.mkdir(exist_ok=True)
        shifted_y = metrics.shift_attributes(y, cfg.shift)
        s_value, s_alphas, s_stages = _run_metric(g, shifted_y, None, ccfg)
        summary["shifted"] = {
            "shift": cfg.shift,
            "stages": _stage_entries(s_stages, shifted_out),
            "alphas": s_alphas,
            "metric_value": s_value,
            # Stage 2 (WAC1) is the one whose bound Delta1 the shift enlarges.
            "delta1_before": stages[1][1].max_step_bound,
            "delta1_after": s_stages[1][1].max_step_bound,
        }
        stages += s_stages

    (out / "summary.json").write_text(_to_json(summary) + "\n", encoding="utf-8")
    return 0 if all(run.converged for _, run in stages) else 2


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    """Each flag's dest is an ExperimentConfig field (--er N P is split by
    config_from_args); a flag left out leaves that field's default."""
    parser = argparse.ArgumentParser(
        prog="linkmetrics",
        description="Compute link-based network metrics with consensus pipelines.",
        argument_default=argparse.SUPPRESS,
    )
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument(
        "--edges", dest="edges_path", metavar="PATH", help="edge-list file (SNAP format)"
    )
    src.add_argument(
        "--er", nargs=2, metavar=("N", "P"), help="synthetic Erdos-Renyi graph"
    )
    attrs = parser.add_mutually_exclusive_group(required=True)
    attrs.add_argument(
        "--attrs", dest="attrs_path", metavar="PATH", help="attribute file (node value)"
    )
    attrs.add_argument(
        "--exp-mean", type=float, metavar="M", help="exponential attributes, mean M"
    )
    parser.add_argument("--seed", type=int, help="seed for synthetic sources")
    parser.add_argument("--metric", choices=("tv", "poly"))
    parser.add_argument(
        "--spec", dest="spec_path", metavar="PATH", help="polynomial spec file (l k c lines)"
    )
    parser.add_argument("--eps-frac", dest="eps_fraction", type=float, metavar="F")
    parser.add_argument("--epsilon", type=float, help="explicit step size for all stages")
    parser.add_argument(
        "--shift", type=float, metavar="C", help="also run with attributes + C (tv only)"
    )
    parser.add_argument("--analyze", action="store_true", help="attach spectral report")
    parser.add_argument(
        "--oracle", dest="with_oracle", action="store_true", help="attach reference values"
    )
    parser.add_argument("--out", dest="out_dir", metavar="DIR")
    parser.add_argument("--allow-unstable-epsilon", action="store_true")
    parser.add_argument("--max-iters", dest="max_iterations", type=int, metavar="K")
    parser.add_argument("--tol-step", dest="step_tolerance", type=float, metavar="X")
    parser.add_argument("--tol-spread", dest="spread_tolerance", type=float, metavar="Y")
    parser.add_argument(
        "--no-traces", dest="write_traces", action="store_false", help="skip trace CSVs"
    )
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    fields = dict(vars(args))
    if "er" in fields:
        n, p = fields.pop("er")
        fields.update(er_n=int(n), er_p=float(p))
    return ExperimentConfig(**fields)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_experiment(config_from_args(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
