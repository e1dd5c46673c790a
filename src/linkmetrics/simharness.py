"""Lockstep message-passing replay of weighted-average consensus.

Each node's state is a Python float and its program is its constant
scale epsilon / w_i. Every round, each node i reads the states its graph
neighbors held after the last round, by id in ascending order, and
steps by `engine.wac_step_value`, the per-node form of `engine.wac_run`'s
round. The traces are bit-identical to the engine's: both sum neighbor
differences in ascending neighbor-id order.
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
    step = engine.wac_step_value
    x = [float(v) for v in inputs]
    snapshots = [x]
    for _ in range(max_rounds):
        x = [step(x, i, nbrs, s_i) for i, (nbrs, s_i) in enumerate(zip(g.adjacency, program))]
        snapshots.append(x)
    pairs = {(j, i) for i, nbrs in enumerate(g.adjacency) for j in nbrs}
    return HarnessTrace(states=snapshots, rounds_executed=max_rounds, message_pairs=pairs)
