"""Smoke test of the benchmark runner, correctness gate and span accounting.

    python3 perfbench/selftest.py

Runs in a few seconds on 30-node graphs, from the root of a source
checkout, and exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import linkmetrics  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402
from tracer import LAYER_METRICS, Tracer, layer_metrics, self_times, wrapper_cost_s  # noqa: E402
from workloads import (  # noqa: E402
    ASSORTATIVITY_SPEC, WORKLOADS, Workload, base_instance, write_inputs,
)

TINY_ER = Workload(name="tiny-er", why="", graph="er", n=30, p=0.2, desk=True)
TINY_PA = Workload(name="tiny-pa", why="", graph="pa", n=30, spec=ASSORTATIVITY_SPEC)
TINY_BAD = Workload(name="tiny-bad", why="", graph="er", n=30, p=0.0)  # refused: p=0


def check(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)
    print(f"ok: {what}")


def test_span_accounting() -> None:
    fake = types.ModuleType("fake")
    fake.inner = lambda: sum(range(10_000))
    fake.outer = lambda: fake.inner() + fake.inner()
    tracer = Tracer()
    tracer.wrap(fake, "inner", "fake.inner")
    tracer.wrap(fake, "outer", "fake.outer")
    fake.outer()
    outer, a, b = tracer.spans
    check([s.parent for s in tracer.spans] == [-1, 0, 0], "child spans point at their caller")
    own = self_times(tracer.spans)
    check(
        abs(own[0] - ((outer.end - outer.start) - (a.end - a.start) - (b.end - b.start))) < 1e-12
        and own[1] == a.end - a.start,
        "self time is duration minus direct children",
    )
    cost = wrapper_cost_s(calls=2_000)
    metrics = layer_metrics(tracer.spans, [], 0, 0.0, cost)
    check(cost > 0 and metrics["trace.overhead_s"] == 3 * cost,
          "trace overhead is the span count times the cost of one wrapped call")


def test_missing_function() -> None:
    # A package whose spectral module lost symmetric_eigenvalues.
    package = types.SimpleNamespace(**{m: types.ModuleType(m) for m in
                                       ("cli", "graph", "metrics", "engine", "spectral",
                                        "oracle", "simharness")})
    package.spectral.spectral_report = lambda: None
    Tracer().install(package)
    metrics = layer_metrics([], [3, 4], 10, 1e-13, 1e-7)
    check(
        set(metrics) == set(LAYER_METRICS) and metrics["spectral.eig_s"] == 0,
        "an absent function reads 0 and every per-layer metric is present",
    )


def test_gate() -> None:
    good = {"rc": 0, "summary_sha256": "a", "rel_err": 1e-12, "graph_ok": True,
            "replay_ok": True, "pairs_ok": True}
    check(run.gate(good, "a") == [], "a good iteration passes")
    for change, what in (
        ({"rc": 2}, "exit code"),
        ({"rel_err": 1e-3}, "rel_err"),
        ({"rel_err": None}, "rel_err"),
        ({"summary_sha256": "b"}, "summary.json differs"),
        ({"graph_ok": False}, "graph size"),
        ({"replay_ok": False}, "replay"),
        ({"pairs_ok": False}, "off the edge set"),
    ):
        reasons = run.gate({**good, **change}, "a")
        check(len(reasons) == 1 and what in reasons[0], f"gate fails on {what}: {reasons}")
    check(run.gate({"error": "Traceback\nValueError: x\n"}, "a") == ["ValueError: x"],
          "a worker error fails the gate")


def test_replay_detects_tampering(work: Path) -> None:
    result = worker.iterate(TINY_ER, 3, work / "replay", None)
    check(result["rc"] == 0 and result["replay_ok"] and result["pairs_ok"],
          "harness replay matches the engine traces")
    out = work / "replay" / "out"
    summary = json.loads((out / "summary.json").read_text())
    csv = out / "stage2_trace.csv"
    lines = csv.read_text().splitlines()
    it, node, state = lines[-1].split(",")
    lines[-1] = f"{it},{node},{float(state) * (1 + 2**-52)!r}"
    csv.write_text("\n".join(lines) + "\n")
    g = linkmetrics.graph.largest_connected_component(
        linkmetrics.graph.load_edge_list(work / "replay" / "inputs" / "edges.txt"))
    y = linkmetrics.cli.parse_attribute_file(
        (work / "replay" / "inputs" / "attrs.txt").read_text(), g)
    check(worker.replay(g, y, summary["stages"], out) == (False, True),
          "a one-ulp change in a trace CSV fails the replay")


def test_runner(work: Path) -> None:
    for w in (TINY_ER, TINY_PA):
        for trace, names in ((False, run.END_TO_END), (True, LAYER_METRICS)):
            result = run.measure(w, 5, 0, trace, work / f"{w.name}-{trace}")
            check(
                result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
                and list(result["metrics"]) == list(names),
                f"{w.name} trace={int(trace)}: all iterations pass, all metrics printed",
            )
    for trace, names in ((False, run.END_TO_END), (True, LAYER_METRICS)):
        result = run.measure(TINY_BAD, 5, 0, trace, work / f"bad-{trace}")
        check(
            not result["correct"] and result["failed"] == result["attempted"] >= 2
            and list(result["metrics"]) == list(names),
            f"trace={int(trace)}: failing iterations are counted and every metric is still printed",
        )
    seeds = [write_inputs(TINY_PA, s, *base_instance(TINY_PA), work / f"in{s}")
             for s in (1, 1, 2)]
    text = [(work / f"in{s}" / "edges.txt").read_text() for s in (1, 1, 2)]
    check(seeds[0] == seeds[1] and text[0] == text[1] and text[0] != text[2],
          "inputs are a function of the seed")


def test_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(
        {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
        and {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
        and [(w["name"], w["why"]) for w in spec["workloads"]]
        == [(w.name, w.why) for w in WORKLOADS.values()],
        "BENCHMARK.json lists the metrics and workloads the runner prints",
    )


def main() -> int:
    work = ROOT / ".perfbench-work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        test_span_accounting()
        test_missing_function()
        test_gate()
        test_replay_detects_tampering(work)
        test_runner(work)
        test_benchmark_json()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
