import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linkmetrics.engine import ConsensusConfig, max_step_size, neighbor_weight_sums, wac_run
from linkmetrics.graph import from_edges
from linkmetrics.simharness import make_wac_program, run_synchronous

from helpers import (
    complete,
    er_instance,
    path,
    preferential_attachment,
    reference_run_synchronous,
    star,
    triangle,
    write_trace_csv,
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


def harness_round(g, y, w, eps):
    return run_synchronous(g, make_wac_program(w, eps), y, max_rounds=1).states[1]


def engine_round(g, y, w, eps):
    cfg = ConsensusConfig(
        epsilon=eps, max_iterations=1, record_trace=True,
        step_tolerance=1e-300, spread_tolerance=1e-300,
    )
    return wac_run(g, y, w, cfg).trace[1].tolist()


LOCALITY_INSTANCES = {
    **{f"er{seed}": lambda seed=seed: er_instance(seed) for seed in range(3)},
    "pa60": lambda: (
        preferential_attachment(60, 2, 1), [1.0 + (7 * i % 11) / 3.0 for i in range(60)]
    ),
}


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
        prog = make_wac_program([2.0] * g.node_count, 0.3)
        fast = run_synchronous(g, prog, y, max_rounds)
        ref = reference_run_synchronous(g, prog, y, max_rounds)
        assert fast == ref


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
        assert all(snap == [4.0] * 3 for snap in trace.states)

    def test_long_run_agrees_with_mean(self):
        g = triangle()
        prog = make_wac_program([2.0] * 3, 0.5)
        trace = run_synchronous(g, prog, [1.0, 2.0, 3.0], max_rounds=200)
        final = trace.state_values()[-1]
        assert all(abs(v - 2.0) <= 1e-10 for v in final)


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
        write_trace_csv(csv, run.trace)
        tokens = [line.rsplit(",", 1)[1] for line in csv.read_text().splitlines()[1:]]
        trace = run_synchronous(g, make_wac_program(np.asarray(w), eps), y, max_rounds=5)
        values = [v for snap in trace.state_values() for v in snap]
        assert all(type(v) is float for v in values)
        assert [repr(v) for v in values] == tokens

    def test_locality_audit(self):
        g, y = er_instance(1, n_lo=20, n_hi=40)
        w = [float(d) for d in g.degrees]
        trace = run_synchronous(g, make_wac_program(w, 0.9), y, max_rounds=30)
        assert trace.message_pairs <= directed_edge_pairs(g)

    @pytest.mark.parametrize("one_round", [harness_round, engine_round], ids=["harness", "engine"])
    @pytest.mark.parametrize("instance", list(LOCALITY_INSTANCES))
    def test_node_reads_only_its_neighbors(self, one_round, instance):
        # message_pairs is built from the adjacency, so it cannot show what
        # a node reads; a bump at node k must move exactly k and N_k.
        g, y = LOCALITY_INSTANCES[instance]()
        w = neighbor_weight_sums(g, y, 1)
        eps = 0.9 * max_step_size(w, g)
        base = one_round(g, y, w, eps)
        for k in range(g.node_count):
            bumped = list(y)
            bumped[k] += 1e3
            after = one_round(g, bumped, w, eps)
            moved = {i for i, (a, b) in enumerate(zip(base, after)) if a != b}
            assert moved == {k, *g.adjacency[k]}

    def test_determinism(self):
        g, y = er_instance(2, n_lo=20, n_hi=40)
        w = [float(d) for d in g.degrees]
        t1 = run_synchronous(g, make_wac_program(w, 0.9), y, max_rounds=50)
        t2 = run_synchronous(g, make_wac_program(w, 0.9), y, max_rounds=50)
        assert t1.states == t2.states
