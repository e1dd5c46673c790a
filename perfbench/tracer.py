"""Spans around the program's public functions, recorded from outside it.

`Tracer.install` replaces module attributes with wrappers that record one
span per call: name, start, end and the index of the enclosing span.
Spans stay in memory until the process writes its result. A function a
later version removes simply matches nothing, and its metrics read 0.

`layer_metrics` turns the spans of one traced run, together with the
counts in its summary.json, into the per-layer metrics. What tracing adds
to a run is its span count times `wrapper_cost_s`, the cost of one
wrapped call measured in the same process.
"""

from __future__ import annotations

import fnmatch
import functools
import statistics
import time
import types
from collections import Counter, defaultdict
from dataclasses import dataclass

# module -> attribute patterns to wrap
TRACED = {
    "cli": ("main", "generate_*", "parse_attribute_file"),
    "graph": ("load_edge_list", "largest_connected_component", "diameter", "is_connected"),
    "metrics": ("total_variation_pipeline", "polynomial_term_pipeline"),
    "engine": ("wac_run", "distributed_step_bound", "min_consensus", "neighbor_weight_sums"),
    "spectral": ("spectral_report", "normalized_weight_matrix", "symmetric_eigenvalues"),
    "oracle": ("exact_*",),
    "simharness": ("run_synchronous",),
}

# span name -> count taken from the wrapped call's return value
COUNTED = {
    "engine.min_consensus": lambda result: result[1],
    "simharness.run_synchronous": lambda result: result.rounds_executed,
}

MAX_STAGES = 6

# name -> unit; every metric is better when lower
LAYER_METRICS = {
    "engine.wac_run_s": "s",
    "engine.ns_per_edge_visit": "ns",
    "engine.wac_iterations": "count",
    "engine.edge_visits": "count",
    **{f"engine.stage{i}.s": "s" for i in range(1, MAX_STAGES + 1)},
    **{f"engine.stage{i}.iterations": "count" for i in range(1, MAX_STAGES + 1)},
    "engine.step_bound_s": "s",
    "engine.min_consensus_s": "s",
    "engine.min_consensus_rounds": "count",
    "engine.min_consensus_calls": "count",
    "engine.neighbor_weight_sums_s": "s",
    "graph.diameter_s": "s",
    "graph.diameter_calls": "count",
    "graph.is_connected_s": "s",
    "graph.is_connected_calls": "count",
    "graph.load_s": "s",
    "graph.lcc_s": "s",
    "cli.parse_attribute_file_s": "s",
    "cli.generate_synthetic_s": "s",
    "cli.generate_attributes_s": "s",
    "cli.self_s": "s",
    "metrics.self_s": "s",
    "spectral.matrix_s": "s",
    "spectral.eig_s": "s",
    "spectral.report_s": "s",
    "simharness.run_s": "s",
    "simharness.rounds": "count",
    "simharness.messages": "count",
    "simharness.ns_per_message": "ns",
    "oracle.s": "s",
    "oracle.rel_err": "ratio",
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    count: int = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr)
        count = COUNTED.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            span = Span(name, time.perf_counter(), 0.0, parent)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if count is not None:
                span.count = count(result)
            return result

        setattr(module, attr, traced)

    def install(self, package) -> None:
        """Wrap every attribute in TRACED that `package` still has."""
        for module_name, patterns in TRACED.items():
            module = getattr(package, module_name)
            for attr in sorted(vars(module)):
                if callable(getattr(module, attr)) and any(
                    fnmatch.fnmatchcase(attr, p) for p in patterns
                ):
                    self.wrap(module, attr, f"{module_name}.{attr}")


def wrapper_cost_s(calls: int = 20_000) -> float:
    """Seconds a wrapper adds to one call: the median over five repeats of
    (wrapped loop - bare loop) / calls, on a function that does nothing."""
    module = types.SimpleNamespace(f=lambda: None)
    bare = module.f
    tracer = Tracer()
    tracer.wrap(module, "f", "f")
    wrapped = module.f
    costs = []
    for _ in range(5):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            bare()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def _per_unit(seconds: float, units: int) -> float:
    return seconds * 1e9 / units if units else 0.0


def layer_metrics(
    spans: list[Span], stage_iterations: list[int], edge_count: int, rel_err: float,
    wrapper_cost: float,
) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    `stage_iterations` and `edge_count` come from summary.json, and
    `wrapper_cost` from wrapper_cost_s() in the traced process. Every name
    in LAYER_METRICS is returned; a layer the run never entered reads 0.
    """
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    counts: Counter = Counter()
    calls: Counter = Counter()
    for s, t in zip(spans, self_times(spans)):
        total[s.name] += s.end - s.start
        own[s.name] += t
        counts[s.name] += s.count
        calls[s.name] += 1

    iterations = sum(stage_iterations)
    edge_visits = iterations * 2 * edge_count
    messages = counts["simharness.run_synchronous"] * 2 * edge_count
    out = {
        "engine.wac_run_s": own["engine.wac_run"],
        "engine.ns_per_edge_visit": _per_unit(own["engine.wac_run"], edge_visits),
        "engine.wac_iterations": iterations,
        "engine.edge_visits": edge_visits,
        "engine.step_bound_s": total["engine.distributed_step_bound"],
        "engine.min_consensus_s": own["engine.min_consensus"],
        "engine.min_consensus_rounds": counts["engine.min_consensus"],
        "engine.min_consensus_calls": calls["engine.min_consensus"],
        "engine.neighbor_weight_sums_s": own["engine.neighbor_weight_sums"],
        "graph.diameter_s": own["graph.diameter"],
        "graph.diameter_calls": calls["graph.diameter"],
        "graph.is_connected_s": own["graph.is_connected"],
        "graph.is_connected_calls": calls["graph.is_connected"],
        "graph.load_s": total["graph.load_edge_list"],
        "graph.lcc_s": total["graph.largest_connected_component"],
        "cli.parse_attribute_file_s": total["cli.parse_attribute_file"],
        "cli.generate_synthetic_s": total["cli.generate_synthetic"],
        "cli.generate_attributes_s": total["cli.generate_attributes"],
        "cli.self_s": own["cli.main"],
        "metrics.self_s": own["metrics.total_variation_pipeline"]
        + own["metrics.polynomial_term_pipeline"],
        "spectral.matrix_s": own["spectral.normalized_weight_matrix"],
        "spectral.eig_s": own["spectral.symmetric_eigenvalues"],
        "spectral.report_s": total["spectral.spectral_report"],
        "simharness.run_s": total["simharness.run_synchronous"],
        "simharness.rounds": counts["simharness.run_synchronous"],
        "simharness.messages": messages,
        "simharness.ns_per_message": _per_unit(total["simharness.run_synchronous"], messages),
        "oracle.s": sum(v for k, v in total.items() if k.startswith("oracle.")),
        "oracle.rel_err": rel_err,
        "trace.overhead_s": len(spans) * wrapper_cost,
    }
    # Stage seconds are the wac_run calls in summary order; they are only
    # attributable while each stage is one call.
    stage_spans = [s for s in spans if s.name == "engine.wac_run"]
    matched = len(stage_spans) == len(stage_iterations)
    for i in range(MAX_STAGES):
        out[f"engine.stage{i + 1}.iterations"] = (
            stage_iterations[i] if i < len(stage_iterations) else 0
        )
        out[f"engine.stage{i + 1}.s"] = (
            stage_spans[i].end - stage_spans[i].start if matched and i < len(stage_spans) else 0.0
        )
    return out
