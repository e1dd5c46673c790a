"""Experiment runner: ingest or generate graphs and attributes, run the
consensus pipelines, optionally compare against the centralized reference
and attach a spectral report, and write traces plus a summary JSON.

Exit codes: 0 = all stages converged, 2 = at least one stage failed to
converge, 1 = input/configuration error; configuration errors exit before
any input is read. Outputs reach --out only on exit 0 or 2; exit 1 leaves it
as it was, and a killed run may leave a .linkmetrics-* directory near it.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from . import engine, graph as graphmod, metrics, oracle, spectral
from .engine import ConsensusConfig, ConsensusRun
from .graph import Graph
from .rng import SplitMix64, check_mean, derive_seed

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
    blocks: list[np.ndarray] = []
    for lo in range(0, pairs, _PAIR_BLOCK):
        z = rng.uint64_block(min(_PAIR_BLOCK, pairs - lo))
        f = lo + np.flatnonzero((z >> np.uint64(11)) * (1.0 / (1 << 53)) < p)
        i = np.searchsorted(start, f, side="right") - 1
        blocks.append(np.column_stack((i, f - start[i] + i + 1)))
    edges = np.concatenate(blocks)
    if not len(edges):
        raise ValueError("generated graph has no edges; raise p or n")
    return graphmod.largest_connected_component(graphmod.from_edges(n, edges))


def generate_attributes(g: Graph, mean: float, seed: int) -> list[float]:
    """I.i.d. exponential attributes from the pinned generator; all > 0."""
    rng = SplitMix64(derive_seed(seed, _ATTR_STREAM))
    return rng.exponential_block(g.node_count, mean)


def parse_attribute_file(text: str, g: Graph) -> list[float]:
    """Parse 'original_id value' lines into graph order.

    Every graph node must receive exactly one positive value.
    """
    by_label: dict[int, float] = {}
    for lineno, (label, value) in graphmod.data_rows(text, "attribute", (int, float)):
        if label in by_label:
            raise ValueError(f"attribute line {lineno}: duplicate value for node {label}")
        by_label[label] = value

    values = [by_label.get(label) for label in g.original_ids]
    for label, value in zip(g.original_ids, values):
        if value is None:
            raise ValueError(f"no attribute value for node {label}")
        if not 0 < value < math.inf:
            raise ValueError(f"node {label}: attribute {value} must be positive and finite")
    return values


# ---------------------------------------------------------------------------
# trace CSVs


def _trace_writer(files: Sequence[IO[str]], n: int) -> engine.RowSink:
    """Write the trace CSV header to each of `files` and return a row sink
    that appends one 'iteration,node_id,state' row per node to each for
    every round it is handed, numbering rounds from 0, with the state as
    repr(); each round is one %-substitution of a template.

    Each block of rounds is a 2-D float64 array, turned into Python floats
    by one tolist(), since the repr of a NumPy 2 scalar is 'np.float64(...)'.
    """
    for f in files:
        f.write("iteration,node_id,state\n")
    template = "".join(f"@,{node},%r\n" for node in range(n))
    iteration = itertools.count()

    def write(rows: np.ndarray) -> None:
        for states in rows.tolist():
            text = template.replace("@", str(next(iteration))) % tuple(states)
            for f in files:
                f.write(text)

    return write


def _publish(staged: Path, out: Path) -> None:
    """Move the run's files from `staged` to the same places under `out`,
    summary.json last, once no target is a directory or under a file or dangling link."""
    paths = [*staged.rglob("*_trace.csv"), staged / "summary.json"]
    targets = [out / path.relative_to(staged) for path in paths]
    for target in targets:
        found = next(d for d in (target, *target.parents) if d.is_symlink() or d.exists())
        if found.is_dir() == (found == target):
            kind = "a directory" if found == target else "not a directory"
            raise FileExistsError(f"cannot write {target}: {found} is {kind}")
    for path, target in zip(paths, targets):
        target.parent.mkdir(parents=True, exist_ok=True)
        path.replace(target)


# ---------------------------------------------------------------------------
# experiment configuration and run


@dataclass(frozen=True)
class ExperimentConfig(ConsensusConfig):
    """The consensus settings every stage of the run shares, plus the
    run's inputs and outputs; traces stream to CSV, so none is recorded."""

    record_trace: bool = field(default=False, init=False)
    edges_path: str | None = None
    er_n: int | None = None
    er_p: float | None = None
    seed: int | None = None
    attrs_path: str | None = None
    exp_mean: float | None = None
    spec_path: str | None = None  # polynomial metric spec; None runs total variation
    shift: float | None = None
    analyze: bool = False
    with_oracle: bool = False
    out_dir: str = "out"
    write_traces: bool = True

    def __post_init__(self):
        super().__post_init__()
        if ((self.edges_path is None) == (self.er_n is None)
                or (self.er_n is None) != (self.er_p is None)):
            raise ValueError("choose exactly one graph source (--edges, or --er N P)")
        if (self.attrs_path is None) == (self.exp_mean is None):
            raise ValueError("choose exactly one attribute source (--attrs or --exp-mean)")
        if (self.er_n is not None or self.exp_mean is not None) != (self.seed is not None):
            raise ValueError("--seed is mandatory for synthetic sources and unused otherwise")
        # The shift study compares the WAC1 bound Delta1 of total variation.
        if self.shift is not None and self.spec_path is not None:
            raise ValueError("--shift applies to --metric tv only")
        if self.exp_mean is not None:
            check_mean(self.exp_mean, "--exp-mean")
        if self.shift is not None and not 0 < self.shift < math.inf:
            raise ValueError("--shift must be positive and finite")


def _run_metric(
    g: Graph, y: list[float], spec: metrics.MetricSpec | None, ccfg: ConsensusConfig,
    out: Path | None,
) -> tuple[dict, list[tuple[str, ConsensusRun]]]:
    """Run total variation (spec None) or the polynomial metric `spec`.

    Returns the metric's summary.json entries (its stages, alphas and
    value) and the (name, run) pair of each named stage of
    `metrics.stage_plan(spec)`. With `out`, each distinct run streams its
    trace while it iterates to out/<name>_trace.csv under every name that
    lists it, formatting each round once."""
    plan = metrics.stage_plan(spec)
    named = [(name, lk) for name, lk in plan if name is not None]
    with contextlib.ExitStack() as files:
        traces: dict[tuple[int, int], list[IO[str]]] = {}
        for name, lk in named if out is not None else ():
            out.mkdir(exist_ok=True)
            f = open(out / f"{name}_trace.csv", "w", encoding="utf-8", newline="\n")
            traces.setdefault(lk, []).append(files.enter_context(f))
        sinks = {lk: _trace_writer(fs, g.node_count) for lk, fs in traces.items()}
        terms = metrics.polynomial_metric_terms(g, y, spec or metrics.FOLDED_TV, ccfg, sinks)
    # The plan lists each term's two stages in the order of the term's two runs.
    runs = dict(zip((lk for _, lk in plan), (run for t in terms for run in t.runs)))
    stages = [(name, runs[lk]) for name, lk in named]
    if spec is None:  # alpha_i is the value of stage i
        alphas = {f"alpha{i}": run.consensus_value for i, (_, run) in enumerate(stages, 1)}
    else:
        alphas = {
            f"term_{t.l}_{t.k}": {"alpha1": t.alpha_1lk, "alpha2": t.alpha_2lk, "h": t.h_lk}
            for t in terms
        }
    return {
        "stages": [
            {
                "stage": name,
                "epsilon": run.epsilon,
                "delta": run.max_step_bound,
                "iterations": run.iterations_used,
                "converged": run.converged,
                "value": run.consensus_value,
            }
            for name, run in stages
        ],
        "alphas": alphas,
        "metric_value": metrics.polynomial_metric_value(terms),
    }, stages


def run_experiment(cfg: ExperimentConfig) -> int:
    spec = None
    if cfg.spec_path is not None:
        spec = metrics.parse_metric_spec(Path(cfg.spec_path).read_text(encoding="utf-8-sig"))
        if not spec.terms:  # nothing would be computed
            raise ValueError("spec has no terms")

    if cfg.edges_path is not None:
        g = graphmod.largest_connected_component(
            graphmod.load_edge_list(cfg.edges_path)
        )
    else:
        g = generate_synthetic(cfg.er_n, cfg.er_p, cfg.seed)

    if cfg.attrs_path is not None:
        y = parse_attribute_file(Path(cfg.attrs_path).read_text(encoding="utf-8-sig"), g)
    else:
        y = generate_attributes(g, cfg.exp_mean, cfg.seed)

    out = Path(cfg.out_dir)
    # Staged on the file system of --out, each file reaches it by a rename.
    near = next(d for d in (out, *out.parents) if d.is_dir())
    with tempfile.TemporaryDirectory(prefix=".linkmetrics-", dir=near) as tmp:
        staged = Path(tmp)
        traces = staged if cfg.write_traces else None
        block, stages = _run_metric(g, y, spec, cfg, traces)
        summary: dict = {
            "graph": {"n": g.node_count, "m": g.edge_count},
            **block,
            "oracle": None,
            "spectral": None,
        }

        if cfg.with_oracle:
            ref = (oracle.exact_total_variation(g, y) if spec is None
                   else oracle.exact_polynomial_metric(g, y, spec))
            summary["oracle"] = {"metric_value": ref, "delta": block["metric_value"] - ref}
            if spec is None:  # the stage targets, under the names _run_metric gave them
                exact = oracle.exact_alphas(g, y)
                summary["oracle"]["alphas"] = dict(zip(block["alphas"], exact, strict=True))

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
                    "epsilon": run.epsilon,
                    "lambda1": report.eigenvalues[0],
                    "rho": report.rho,
                }

        if cfg.shift is not None:
            shifted_y = metrics.shift_attributes(y, cfg.shift)
            s_block, s_stages = _run_metric(g, shifted_y, None, cfg, traces and traces / "shifted")
            summary["shifted"] = {
                "shift": cfg.shift,
                **s_block,
                # Stage 2 (WAC1) is the one whose bound Delta1 the shift enlarges.
                "delta1_before": stages[1][1].max_step_bound,
                "delta1_after": s_stages[1][1].max_step_bound,
            }
            stages += s_stages

        with open(staged / "summary.json", "w", encoding="utf-8", newline="\n") as f:
            f.write(json.dumps(summary, indent=2) + "\n")
        _publish(staged, out)
    return 0 if all(run.converged for _, run in stages) else 2


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    """Each flag's dest is an ExperimentConfig field (--er N P is split and
    --metric only checked by config_from_args); absent flags keep defaults."""
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
    step = parser.add_mutually_exclusive_group()  # --epsilon leaves --eps-frac unread
    step.add_argument("--eps-frac", dest="epsilon_fraction", type=float, metavar="F")
    step.add_argument("--epsilon", type=float, help="explicit step size for all stages")
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
    """The flags' config; --metric is only checked against --spec, not stored."""
    fields = dict(vars(args))
    if (fields.pop("metric", "tv") == "poly") != ("spec_path" in fields):
        raise ValueError("--metric poly and --spec PATH go together")
    if "er" in fields:
        n, p = fields.pop("er")
        try:
            fields.update(er_n=int(n), er_p=float(p))
        except ValueError:
            raise ValueError(f"--er takes an integer N and a number P, not {n!r} {p!r}") from None
    return ExperimentConfig(**fields)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage error code, 2, means "unconverged"
        return 1 if exc.code else 0  # 0 after --help
    try:
        return run_experiment(config_from_args(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
