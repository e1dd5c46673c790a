"""Layered benchmark of linkmetrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each iteration is a fresh
process (perfbench/worker.py), one at a time, with BLAS/OpenMP threads
capped at the core count. Iterations repeat the seed's inputs while
the next one fits in --seconds, and never fewer than two. Every iteration passes
through the correctness gate. With --trace 0 the end-to-end metrics come
from untraced iterations. The time they leave is filled with processes
that run set-up only, at least MIN_SETUPS, so that setup_s is a median
over many samples. With --trace 1 every iteration is traced and the
per-layer metrics are their medians.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS, Span, layer_metrics
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
REL_ERR_TOLERANCE = 1e-6  # the tolerance of test_desk_scale_run
MIN_ITERATIONS = 2
MIN_SETUPS = 8  # set-up-only processes after the untraced iterations
LIMIT_S = 170.0  # a run ends within this, whatever --seconds asks

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "rounds": "count",
    "peak_rss_mb": "MB",
    "out_mb": "MB",
}


def run_worker(w_file: Path, seed: int, directory: Path, mode: list[str], timeout: float) -> dict:
    """Run one worker process (mode: [], ["--trace"] or ["--setup-only"])
    and return its result, or the reason it has none."""
    result_path = directory / "result.json"
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload-file", str(w_file), "--seed", str(seed),
        "--dir", str(directory), "--result", str(result_path),
    ] + mode
    timeout = max(timeout, 1.0)
    directory.mkdir(parents=True)
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
        OMP_NUM_THREADS=threads,
        OPENBLAS_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"worker exceeded {timeout:.0f} s"}
    finally:
        result = result_path.read_text(encoding="utf-8") if result_path.is_file() else None
        shutil.rmtree(directory, ignore_errors=True)
    if result is not None:
        return json.loads(result)
    return {"error": f"worker exited {proc.returncode} without a result:\n{proc.stderr}"}


def median_or_0(values) -> float:
    """The median, or 0 where no iteration produced the value (the run
    then has failures and is not correct)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def gate(result: dict, reference_sha: str | None) -> list[str]:
    """Reasons the iteration fails the correctness gate; empty if it passes."""
    if "error" in result:
        return [result["error"].strip().splitlines()[-1]]
    reasons = []
    if result["rc"] != 0:
        reasons.append(f"exit code {result['rc']}")
    if "summary_sha256" not in result:
        return reasons + ["no summary.json"]
    rel_err = result["rel_err"]
    if rel_err is None or not rel_err <= REL_ERR_TOLERANCE:
        reasons.append(f"rel_err {rel_err} above {REL_ERR_TOLERANCE}")
    if result["summary_sha256"] != reference_sha:
        reasons.append("summary.json differs from the first iteration's")
    if not result["graph_ok"]:
        reasons.append("summary graph size differs from the ingested graph")
    if result.get("replay_ok") is False:
        reasons.append("harness replay differs from the trace CSVs")
    if result.get("pairs_ok") is False:
        reasons.append("harness delivered a message off the edge set")
    return reasons


def measure(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run iterations for `seconds`, gate each one and aggregate the metrics."""
    work.mkdir(parents=True, exist_ok=True)
    w_file = work / "workload.json"
    w_file.write_text(json.dumps(dataclasses.asdict(w)), encoding="utf-8")

    results: list[dict] = []
    setups: list[dict] = []  # set-up-only processes

    def repeat(runs: list[dict], name: str, mode: list[str], at_least: int) -> None:
        """Start workers one at a time while the next one fits in `seconds`."""
        longest = 0.0
        while True:
            began = time.perf_counter()
            timeout = LIMIT_S - (began - start)
            runs.append(run_worker(w_file, seed, work / f"{name}{len(runs)}", mode, timeout))
            now = time.perf_counter()
            longest = max(longest, now - began)
            if now - start + longest > (seconds if len(runs) >= at_least else LIMIT_S):
                return

    start = time.perf_counter()
    repeat(results, "iter", ["--trace"] if trace else [], MIN_ITERATIONS)
    if not trace:
        repeat(setups, "setup", ["--setup-only"], MIN_SETUPS)

    reference_sha = next((r["summary_sha256"] for r in results if "summary_sha256" in r), None)
    failed = 0
    for i, r in enumerate(results):
        reasons = gate(r, reference_sha)
        failed += bool(reasons)
        timing = f" wall_s {r['wall_s']:.4f} setup_s {r['setup_s']:.4f}" if "wall_s" in r else ""
        print(
            f"iteration {i} {'traced' if trace else 'untraced'}{timing}: "
            + ("pass" if not reasons else "FAIL: " + "; ".join(reasons)),
            file=sys.stderr,
        )
    for r in setups:
        if "setup_s" not in r:
            failed += 1
            print(f"set-up only: FAIL: {r['error'].strip().splitlines()[-1]}", file=sys.stderr)

    measured = [r for r in results if "summary_sha256" in r]
    if trace:
        layers = [
            layer_metrics([Span(*s) for s in r["spans"]], r["stage_iterations"],
                          r["edge_count"], r["rel_err"] or 0.0, r["wrapper_cost_s"])
            for r in measured
        ] or [layer_metrics([], [], 0, 0.0, 0.0)]
        values = {name: statistics.median(m[name] for m in layers) for name in LAYER_METRICS}
        units = LAYER_METRICS
    else:
        samples = {
            "wall_s": [r["wall_s"] for r in measured],
            "setup_s": [r["setup_s"] for r in results + setups if "setup_s" in r],
        }
        values = {
            "wall_s": median_or_0(samples["wall_s"]),
            "setup_s": median_or_0(samples["setup_s"]),
            "rounds": sum(measured[0]["stage_iterations"]) if measured else 0,
            "peak_rss_mb": median_or_0(r["peak_rss_mb"] for r in measured),
            "out_mb": median_or_0(r["out_mb"] for r in measured),
        }
        units = END_TO_END
        for name, xs in samples.items():
            if xs:
                print(
                    f"{name}: median {values[name]:.4f} s over {len(xs)} samples "
                    f"(min {min(xs):.4f}, max {max(xs):.4f})",
                    file=sys.stderr,
                )
    return {
        "correct": failed == 0,
        "attempted": len(results) + len(setups),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "linkmetrics" / "__init__.py").is_file():
        print(f"error: no linkmetrics source tree under {ROOT}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
