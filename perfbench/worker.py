"""One measured iteration of a workload, in a fresh process.

Set-up runs from this file's first line until the inputs are in memory:
importing linkmetrics, building the workload's instance, writing the
seed's input files and ingesting them as the CLI does. Then cli.main runs
on those files, and on a desk workload the three traced stages are
replayed through the simulation harness. The result, including the spans
of a traced iteration, is written as JSON when the iteration ends. With
--setup-only the process stops after set-up and reports only setup_s.

    python3 perfbench/worker.py --workload-file W.json --seed N --dir DIR \
        --result OUT.json [--trace | --setup-only]

The source tree must be importable (PYTHONPATH=src).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from itertools import zip_longest  # noqa: E402
from pathlib import Path  # noqa: E402

import linkmetrics  # noqa: E402
from linkmetrics import cli, engine, graph, simharness  # noqa: E402

from tracer import Tracer, wrapper_cost_s  # noqa: E402
from workloads import Workload, base_instance, write_inputs  # noqa: E402


def trace_rows(path: Path):
    """Yield the state tokens of a trace CSV, one list per iteration, as written."""
    with path.open(encoding="utf-8") as f:
        next(f)
        row: list[str] = []
        current = "0"
        for line in f:
            it, node, state = line.rstrip("\n").split(",")
            if it != current:
                yield row
                row, current = [], it
            if int(node) != len(row):
                raise ValueError(f"{path.name}: row out of order at iteration {it}")
            row.append(state)
        yield row


def replay(g, y: list[float], stages: list[dict], out: Path) -> tuple[bool, bool]:
    """Replay the three TV stages through simharness.

    Returns (every state bit-identical to the trace CSVs, every delivered
    message travelled along a graph edge). The CSVs hold repr() of each
    state, which round-trips exactly, so equal strings mean equal bits.
    """
    degrees = [float(d) for d in g.degrees]
    stage_inputs = (
        ([v * v for v in y], degrees),
        (list(y), engine.neighbor_weight_sums(g, y, 1)),
        (list(y), degrees),
    )
    edges = {(i, j) for i, nbrs in enumerate(g.adjacency) for j in nbrs}
    identical = local = len(stages) == len(stage_inputs)
    for (x0, w), stage in zip(stage_inputs, stages):
        k = stage["iterations"]
        program = simharness.make_wac_program(w, stage["epsilon"])
        run = simharness.run_synchronous(g, program, x0, max(k, 1))
        rows = trace_rows(out / f"{stage['stage']}_trace.csv")
        identical = identical and all(
            snap is not None and row is not None and [repr(v) for v in snap] == row
            for snap, row in zip_longest(run.state_values()[: k + 1], rows)
        )
        local = local and run.message_pairs <= edges
    return identical, local


def set_up(w: Workload, directory: Path, seed: int):
    """Write the seed's inputs and ingest them; return the CLI arguments,
    the graph and the attributes."""
    edges, y = base_instance(w)
    argv = write_inputs(w, seed, edges, y, directory / "inputs")
    argv += ["--out", str(directory / "out")]
    edges_path = argv[argv.index("--edges") + 1]
    attrs_path = argv[argv.index("--attrs") + 1]
    g = graph.largest_connected_component(graph.load_edge_list(edges_path))
    y_in = cli.parse_attribute_file(Path(attrs_path).read_text(encoding="utf-8"), g)
    return argv, g, y_in


def iterate(w: Workload, seed: int, directory: Path, tracer: Tracer | None) -> dict:
    if tracer is not None:
        tracer.install(linkmetrics)
    argv, g, y_in = set_up(w, directory, seed)
    setup_s = time.perf_counter() - T0

    t = time.perf_counter()
    rc = cli.main(argv)
    main_s = time.perf_counter() - t
    # ru_maxrss only grows, so this is the peak of set-up and cli.main,
    # without the replay's snapshots of every round.
    result = {"rc": rc, "setup_s": setup_s, "main_s": main_s, "replay_s": 0.0,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6}

    out = directory / "out"
    summary_path = out / "summary.json"
    if summary_path.is_file():
        raw = summary_path.read_bytes()
        summary = json.loads(raw)
        if w.desk:
            t = time.perf_counter()
            result["replay_ok"], result["pairs_ok"] = replay(g, y_in, summary["stages"], out)
            result["replay_s"] = time.perf_counter() - t
        oracle = summary["oracle"]
        result.update(
            summary_sha256=hashlib.sha256(raw).hexdigest(),
            stage_iterations=[s["iterations"] for s in summary["stages"]],
            edge_count=summary["graph"]["m"],
            graph_ok=summary["graph"] == {"n": g.node_count, "m": g.edge_count},
            rel_err=abs(oracle["delta"]) / abs(oracle["metric_value"]),
        )
    result["wall_s"] = main_s + result["replay_s"]
    result["out_mb"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) / 1e6
    if tracer is not None:
        result["spans"] = [dataclasses.astuple(s) for s in tracer.spans]
        result["wrapper_cost_s"] = wrapper_cost_s()
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload-file", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    w = Workload(**json.loads(args.workload_file.read_text(encoding="utf-8")))
    try:
        if args.setup_only:
            set_up(w, args.dir, args.seed)
            result = {"setup_s": time.perf_counter() - T0}
        else:
            result = iterate(w, args.seed, args.dir, Tracer() if args.trace else None)
    except Exception:
        result = {"error": traceback.format_exc()}
    if "rel_err" in result and not math.isfinite(result["rel_err"]):
        result["rel_err"] = None
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 1 if "error" in result else 0


if __name__ == "__main__":
    raise SystemExit(main())
