"""Lockstep message-passing replay of weighted-average consensus.

Each node's state is a Python float and its program is its constant
scale epsilon / w_i. Every round, each node i reads the states its graph
neighbors held after the last round, by id in ascending order, and steps
by x_i + scale_i * sum_j (x_j - x_i), the per-node form of
`engine.wac_run`'s round. The traces are bit-identical to the engine's:
both sum neighbor differences in ascending neighbor-id order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import engine
from .graph import Graph


@dataclass
class HarnessTrace:
    """Per-round snapshots (index 0 = initial states) and the (sender,
    receiver) pairs of the adjacency each node reads its neighbors'
    states along: the edges a round may use, not a log of reads."""

    states: list[list[float]]
    rounds_executed: int
    message_pairs: set[tuple[int, int]]

    def state_values(self) -> list[list[float]]:
        return self.states


def make_wac_program(w: Sequence[float], epsilon: float) -> tuple[float, ...]:
    """Each node's private constant epsilon / w_i, as Python floats."""
    engine.validate_positive(w, "w")
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    return tuple(float(epsilon) / float(wi) for wi in w)


def run_synchronous(
    g: Graph, program: Sequence[float], inputs: Sequence[float], max_rounds: int
) -> HarnessTrace:
    """Run `max_rounds` lockstep rounds from `inputs`; node i scales the
    sum of its neighbor differences by program[i]."""
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    if len(inputs) != g.node_count:
        raise ValueError("inputs length must equal node count")
    if len(program) != g.node_count:
        raise ValueError("program length must equal node count")
    nodes = list(zip(range(g.node_count), g.adjacency, program))
    x = [float(v) for v in inputs]
    snapshots = [x]
    for _ in range(max_rounds):
        x_prev, x = x, []
        for i, nbrs, scale in nodes:
            x_i = x_prev[i]
            acc = 0.0
            for j in nbrs:
                acc += x_prev[j] - x_i
            x.append(x_i + scale * acc)
        snapshots.append(x)
    pairs = {(j, i) for i, nbrs in enumerate(g.adjacency) for j in nbrs}
    return HarnessTrace(states=snapshots, rounds_executed=max_rounds, message_pairs=pairs)
