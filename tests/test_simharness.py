import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linkmetrics import cli
from linkmetrics.engine import ConsensusConfig, max_step_size, neighbor_weight_sums, wac_run
from linkmetrics.graph import from_edges
from linkmetrics.simharness import (
    NodeProgram,
    make_min_program,
    make_wac_program,
    run_synchronous,
)

from helpers import (
    complete,
    er_instance,
    path,
    preferential_attachment,
    reference_run_synchronous,
    star,
    triangle,
)


def directed_edge_pairs(g):
    return {(i, j) for i in range(g.node_count) for j in g.adjacency[i]}


def engine_and_harness_traces(g, y, w, rounds):
    """Engine and harness traces at 0.9 of the bound. The engine may stop
    before `rounds` once the states agree; the harness trace is cut to the
    engine's length."""
    eps = 0.9 * min(wi / di for wi, di in zip(w, g.degrees))
    cfg = ConsensusConfig(
        epsilon=eps, max_iterations=rounds, record_trace=True,
        step_tolerance=1e-300, spread_tolerance=1e-300,
    )
    run = wac_run(g, y, w, cfg)
    trace = run_synchronous(g, make_wac_program(w, eps), y, max_rounds=rounds)
    return trace.state_values()[: len(run.trace)], [r.tolist() for r in run.trace]


@st.composite
def connected_instances(draw):
    """A small connected graph with shuffled node labels, positive
    attributes and positive weights."""
    n = draw(st.integers(2, 12))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
    labels = draw(st.permutations(range(n)))
    edges = [(labels[p], labels[v]) for v, p in enumerate(parents, start=1)]
    edges += [(labels[i], labels[j]) for i, j in extra]
    positive = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)
    y = draw(st.lists(positive, min_size=n, max_size=n))
    w = draw(st.lists(positive, min_size=n, max_size=n))
    return from_edges(n, edges), y, w


class TestRunSynchronous:
    def test_wac_round_one_matches_engine(self):
        g = triangle()
        prog = make_wac_program([2.0, 2.0, 2.0], 0.5)
        trace = run_synchronous(g, prog, [1.0, 2.0, 3.0], max_rounds=1)
        assert trace.state_values()[1] == [1.75, 2.0, 2.25]

    def test_min_program_round_one(self):
        trace = run_synchronous(path(3), make_min_program(), [3.0, 1.0, 2.0], max_rounds=5)
        assert trace.state_values()[1] == [1.0, 1.0, 1.0]

    def test_all_halted_initially_leaves_only_round_zero(self):
        prog = NodeProgram(
            init=lambda i, d, x: (x, x),
            on_round=lambda s, msgs: (s, s),
            halted=lambda s: True,
        )
        trace = run_synchronous(triangle(), prog, [1.0, 2.0, 3.0], max_rounds=10)
        assert trace.rounds_executed == 0
        assert len(trace.states) == 1

    def test_snapshot_count(self):
        g = triangle()
        prog = make_wac_program([2.0] * 3, 0.5)
        trace = run_synchronous(g, prog, [1.0, 2.0, 3.0], max_rounds=7)
        assert len(trace.states) == trace.rounds_executed + 1


class TestMatchesReferenceLoop:
    """run_synchronous against the plain per-round loop of helpers."""

    @pytest.mark.parametrize(
        "g",
        [path(2), path(7), star(9), complete(6), from_edges(4, [(0, 1), (1, 2)])],
        ids=["path2", "path7", "star9", "complete6", "isolated-node"],
    )
    @pytest.mark.parametrize("max_rounds", [1, 3, 40])
    def test_wac_and_min_programs(self, g, max_rounds):
        y = [1.0 + (7 * i % 11) / 3.0 for i in range(g.node_count)]
        for prog in (make_wac_program([2.0] * g.node_count, 0.3), make_min_program()):
            fast = run_synchronous(g, prog, y, max_rounds)
            ref = reference_run_synchronous(g, prog, y, max_rounds)
            assert fast == ref

    def test_min_program_halting_early(self):
        g, y = er_instance(4, n_lo=20, n_hi=40)
        fast = run_synchronous(g, make_min_program(), y, 100)
        assert fast.rounds_executed < 100
        assert fast == reference_run_synchronous(g, make_min_program(), y, 100)

    def test_no_round_runs(self):
        prog = NodeProgram(
            init=lambda i, d, x: (x, x),
            on_round=lambda s, msgs: (s, s),
            halted=lambda s: True,
        )
        fast = run_synchronous(triangle(), prog, [1.0, 2.0, 3.0], 10)
        assert fast == reference_run_synchronous(triangle(), prog, [1.0, 2.0, 3.0], 10)
        assert fast.message_pairs == set()


class TestWacProgram:
    def test_single_edge_one_round(self):
        g = from_edges(2, [(0, 1)])
        prog = make_wac_program([1.0, 1.0], 0.5)
        trace = run_synchronous(g, prog, [0.0, 2.0], max_rounds=1)
        assert trace.state_values()[1] == [1.0, 1.0]

    def test_constant_start_never_changes(self):
        g = triangle()
        prog = make_wac_program([2.0] * 3, 0.5)
        trace = run_synchronous(g, prog, [4.0] * 3, max_rounds=20)
        assert all(snap == [(4.0, 0.25)] * 3 for snap in trace.states)

    def test_long_run_agrees_with_mean(self):
        g = triangle()
        prog = make_wac_program([2.0] * 3, 0.5)
        trace = run_synchronous(g, prog, [1.0, 2.0, 3.0], max_rounds=200)
        final = trace.state_values()[-1]
        assert all(abs(v - 2.0) <= 1e-10 for v in final)


class TestMinProgram:
    def test_star_center_min_one_effective_round(self):
        g = star(6)
        x0 = [0.5, 3.0, 4.0, 5.0, 6.0, 7.0]
        trace = run_synchronous(g, make_min_program(), x0, max_rounds=10)
        values = trace.state_values()
        assert values[1] == [0.5] * 6

    def test_uniform_start_stabilizes_immediately(self):
        trace = run_synchronous(triangle(), make_min_program(), [2.0] * 3, max_rounds=10)
        values = trace.state_values()
        assert all(v == [2.0] * 3 for v in values)
        # first round detects stability, nothing changes afterwards
        assert trace.rounds_executed <= 2

    def test_p5_end_min_within_diameter(self):
        g = path(5)
        trace = run_synchronous(g, make_min_program(), [1.0, 5.0, 4.0, 3.0, 2.0], max_rounds=10)
        values = trace.state_values()
        changed = [r for r in range(1, len(values)) if values[r] != values[r - 1]]
        assert values[-1] == [1.0] * 5
        assert (changed[-1] if changed else 0) <= 4


class TestCrossValidation:
    @pytest.mark.parametrize("seed", range(10))
    def test_trace_bit_identical_to_engine(self, seed):
        g, y = er_instance(seed, n_lo=10, n_hi=60)
        w = neighbor_weight_sums(g, y, 1)
        eps = 0.9 * min(wi / di for wi, di in zip(w, g.degrees))
        rounds = 60
        cfg = ConsensusConfig(
            epsilon=eps, max_iterations=rounds, record_trace=True,
            step_tolerance=1e-300, spread_tolerance=1e-300,
        )
        run = wac_run(g, y, w, cfg)
        trace = run_synchronous(g, make_wac_program(w, eps), y, max_rounds=rounds)
        assert trace.state_values() == [r.tolist() for r in run.trace]

    @pytest.mark.parametrize(
        "g",
        [path(2), path(7), star(9), complete(6), preferential_attachment(80, 2, 3)],
        ids=["path2", "path7", "star9", "complete6", "pa80"],
    )
    def test_trace_bit_identical_on_uneven_degrees(self, g):
        y = [1.0 + (7 * i % 11) / 3.0 for i in range(g.node_count)]
        for w in ([float(d) for d in g.degrees], neighbor_weight_sums(g, y, 1)):
            harness, engine = engine_and_harness_traces(g, y, w, rounds=40)
            assert harness == engine

    @settings(max_examples=150, deadline=None)
    @given(connected_instances())
    def test_trace_bit_identical_on_random_graphs(self, instance):
        g, y, w = instance
        harness, engine = engine_and_harness_traces(g, y, w, rounds=25)
        assert harness == engine

    def test_array_weights_give_python_float_states(self, tmp_path):
        # The trace CSV holds repr() of each state, and the repr of a NumPy
        # scalar is 'np.float64(...)'.
        g, y = er_instance(4, n_lo=10, n_hi=20)
        w = neighbor_weight_sums(g, y, 1)
        eps = 0.9 * max_step_size(w, g)
        cfg = ConsensusConfig(
            epsilon=eps, max_iterations=5, record_trace=True,
            step_tolerance=1e-300, spread_tolerance=1e-300,
        )
        run = wac_run(g, y, w, cfg)
        csv = tmp_path / "trace.csv"
        cli._write_trace_csv(csv, run.trace)
        tokens = [line.rsplit(",", 1)[1] for line in csv.read_text().splitlines()[1:]]
        trace = run_synchronous(g, make_wac_program(np.asarray(w), eps), y, max_rounds=5)
        values = [v for snap in trace.state_values() for v in snap]
        assert all(type(v) is float for v in values)
        assert [repr(v) for v in values] == tokens

    def test_locality_audit(self):
        g, y = er_instance(1, n_lo=20, n_hi=40)
        trace = run_synchronous(g, make_min_program(), y, max_rounds=30)
        assert trace.message_pairs <= directed_edge_pairs(g)

    def test_determinism(self):
        g, y = er_instance(2, n_lo=20, n_hi=40)
        w = [float(d) for d in g.degrees]
        t1 = run_synchronous(g, make_wac_program(w, 0.9), y, max_rounds=50)
        t2 = run_synchronous(g, make_wac_program(w, 0.9), y, max_rounds=50)
        assert t1.states == t2.states
