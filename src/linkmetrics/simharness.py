"""Synchronous round-based message-passing harness.

Each node is an isolated state machine that only ever sees messages from
its graph neighbors. Rounds are lockstep: all nodes emit, then all nodes
consume their neighbors' round-k messages and update. Used to show the
consensus protocols are genuinely distributed and to cross-validate the
engine (traces are bit-identical: both sum neighbor differences in
ascending neighbor-id order).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Sequence

from . import engine
from .graph import Graph

# init(node_id, degree, local_input) -> (state, first outgoing message)
InitFn = Callable[[int, int, Any], tuple[Any, Any]]
# on_round(state, messages ordered by ascending sender id) -> (state, outgoing)
RoundFn = Callable[[Any, tuple[Any, ...]], tuple[Any, Any]]
HaltFn = Callable[[Any], bool]


@dataclass(frozen=True)
class NodeProgram:
    init: InitFn
    on_round: RoundFn
    halted: HaltFn


@dataclass
class HarnessTrace:
    """Per-round snapshots (index 0 = initial states) plus a locality log."""

    states: list[list[Any]]
    rounds_executed: int
    message_pairs: set[tuple[int, int]]

    def state_values(self, extract=lambda s: s[0]) -> list[list[Any]]:
        """Project each snapshot through `extract` (default: first field)."""
        return [[extract(s) for s in snap] for snap in self.states]


def run_synchronous(
    g: Graph,
    prog: NodeProgram,
    inputs: Sequence[Any],
    max_rounds: int,
) -> HarnessTrace:
    """Run `prog` on every node of `g` for up to `max_rounds` lockstep rounds.

    Stops early once every node reports halted. Message delivery is
    restricted to graph edges; each delivered (sender, receiver) pair is
    recorded for the locality audit.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    if len(inputs) != g.node_count:
        raise ValueError("inputs length must equal node count")

    states: list[Any] = []
    outgoing: list[Any] = []
    for i in range(g.node_count):
        state, msg = prog.init(i, g.degrees[i], inputs[i])
        states.append(state)
        outgoing.append(msg)

    # inboxes[i](outgoing) is node i's inbox: its neighbors' messages as a
    # tuple, in adjacency order.
    inboxes = [_inbox_getter(nbrs) for nbrs in g.adjacency]
    snapshots = [states]
    rounds = 0
    for _ in range(max_rounds):
        if all(map(prog.halted, states)):
            break
        results = [prog.on_round(s, inbox(outgoing)) for s, inbox in zip(states, inboxes)]
        states = [state for state, _ in results]
        outgoing = [msg for _, msg in results]
        rounds += 1
        snapshots.append(states)

    # Every round delivers along the same edges: the inboxes' adjacency.
    pairs = {(j, i) for i, nbrs in enumerate(g.adjacency) for j in nbrs} if rounds else set()
    return HarnessTrace(states=snapshots, rounds_executed=rounds, message_pairs=pairs)


def _inbox_getter(nbrs: Sequence[int]) -> Callable[[list[Any]], tuple[Any, ...]]:
    """The messages of `nbrs` as a tuple; itemgetter of one index would
    return the bare message, and of none cannot be built."""
    if not nbrs:
        return lambda outgoing: ()
    if len(nbrs) == 1:
        (j,) = nbrs
        return lambda outgoing: (outgoing[j],)
    return itemgetter(*nbrs)


def make_wac_program(w: Sequence[float], epsilon: float) -> NodeProgram:
    """Weighted-average-consensus node program.

    Node state is (x, epsilon / w_i) as Python floats, so that repr() prints
    plain floats; the broadcast message is the bare state value. The update
    is engine.wac_step_value, the per-node form of engine.wac_run's round.
    """
    engine.validate_positive(w, "w")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")

    def init(node_id, degree, x0):
        state = (float(x0), epsilon / float(w[node_id]))
        return state, state[0]

    def on_round(state, msgs):
        x, scale = state
        new_x = engine.wac_step_value(x, msgs, scale)
        return (new_x, scale), new_x

    return NodeProgram(init=init, on_round=on_round, halted=lambda s: False)


def make_min_program() -> NodeProgram:
    """Min-consensus node program; state is (value, stable-last-round)."""

    def init(node_id, degree, x0):
        return (float(x0), False), float(x0)

    def on_round(state, msgs):
        value = state[0]
        new_value = value
        for m in msgs:
            if m < new_value:
                new_value = m
        return (new_value, new_value == value), new_value

    return NodeProgram(init=init, on_round=on_round, halted=lambda s: s[1])
