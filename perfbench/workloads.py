"""Benchmark workloads and their seeded inputs.

A workload fixes the structure of its input: the graph and the
attribute values. The run's seed draws everything that leaves the amount
of work unchanged: the sparse 8-digit node ids, the order of the edge and
attribute lines, and the orientation of each edge line. The program
numbers nodes in order of first appearance, so the seed sets the node
order it sees and with it the order of every floating-point sum. Each
seed is a different computation of the same size.

The structure is fixed because on freshly drawn instances the work itself
varies more than a regression bound can absorb. Over ER seeds 1-10 at
N=1000, p=0.005 with exponential attributes, the stiff second stage took
3,275 to 150,878 rounds. That count is set by one extreme draw, the
smallest neighbour average of the attributes. Preferential-attachment
graphs of N=2000 spread by 11% in total rounds over seeds 1-10.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

ATTR_MEAN = 5.0
PA_ATTACH = 2  # preferential attachment: edges per new node
BASE_SEED = 42  # fixes every workload's structure; the run seed relabels it
# The edge averages behind Newman's degree assortativity:
# <d_i d_j>, <d_i^2> and <d_i> over the edge set.
ASSORTATIVITY_SPEC = "# Newman assortativity edge averages\n1 1 1\n2 0 1\n1 0 1\n"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graph: str  # "er": cli.generate_synthetic; "pa": preferential attachment
    n: int
    p: float = 0.0  # ER edge probability
    spec: str = ""  # polynomial spec; empty means total variation
    # --analyze with traces on, and the traces replayed through simharness
    desk: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="er-tv",
            why="one long stiff consensus stage (ER N=1000, 20.8k rounds): the "
            "per-iteration cost of engine.wac_run dominates",
            graph="er",
            n=1000,
            p=0.005,
        ),
        Workload(
            name="snap-assort",
            why="SNAP-style heavy-tailed graph, six short stages: the all-pairs "
            "diameter BFS inside the step bound dominates",
            graph="pa",
            n=2000,
            spec=ASSORTATIVITY_SPEC,
        ),
        Workload(
            name="desk-verify",
            why="traces, spectral report and harness replay on ER N=200: the only "
            "workload that runs the spectral, simharness and trace-writing layers",
            graph="er",
            n=200,
            p=0.025,
            desk=True,
        ),
    )
}


def preferential_attachment(n: int, attach: int, rng: random.Random) -> list[tuple[int, int]]:
    """Barabasi-Albert edges: a clique on attach+1 nodes, then each new node
    links to `attach` distinct earlier nodes drawn in proportion to degree."""
    core = attach + 1
    edges = [(i, j) for i in range(core) for j in range(i + 1, core)]
    ends = [v for e in edges for v in e]
    for v in range(core, n):
        targets: set[int] = set()
        while len(targets) < attach:
            targets.add(ends[rng.randrange(len(ends))])
        for u in sorted(targets):
            edges.append((u, v))
            ends += (u, v)
    return edges


def base_instance(w: Workload) -> tuple[list[tuple[int, int]], list[float]]:
    """The workload's fixed graph (dense ids, every node on an edge) and
    attribute values."""
    from linkmetrics import cli

    if w.graph == "er":
        g = cli.generate_synthetic(w.n, w.p, BASE_SEED)
        return list(g.edges()), cli.generate_attributes(g, ATTR_MEAN, BASE_SEED)
    edges = preferential_attachment(w.n, PA_ATTACH, random.Random(f"pa:{BASE_SEED}"))
    degree = [0] * w.n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return edges, [float(d) for d in degree]


def write_inputs(
    w: Workload, seed: int, edges: list[tuple[int, int]], y: list[float], directory: Path
) -> list[str]:
    """Write the seed's relabelling of the instance as SNAP-style files and
    return the CLI arguments that read them (without --out)."""
    rng = random.Random(f"{w.name}:{seed}")
    ids = rng.sample(range(10_000_000, 100_000_000), len(y))
    lines = [
        f"{ids[u]}\t{ids[v]}" if rng.random() < 0.5 else f"{ids[v]}\t{ids[u]}"
        for u, v in edges
    ]
    rng.shuffle(lines)
    attrs = [f"{ids[i]} {v!r}" for i, v in enumerate(y)]
    rng.shuffle(attrs)

    directory.mkdir(parents=True, exist_ok=True)
    edges_path, attrs_path = directory / "edges.txt", directory / "attrs.txt"
    header = (
        f"# Undirected graph: {w.name} relabelled with seed {seed}\n"
        f"# Nodes: {len(y)} Edges: {len(edges)}\n"
        "# FromNodeId\tToNodeId\n"
    )
    edges_path.write_text(header + "\n".join(lines) + "\n", encoding="utf-8")
    attrs_path.write_text("\n".join(attrs) + "\n", encoding="utf-8")
    argv = ["--edges", str(edges_path), "--attrs", str(attrs_path), "--oracle"]
    if w.spec:
        spec_path = directory / "spec.txt"
        spec_path.write_text(w.spec, encoding="utf-8")
        argv += ["--metric", "poly", "--spec", str(spec_path)]
    argv.append("--analyze" if w.desk else "--no-traces")
    return argv
