import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linkmetrics import cli, engine
from linkmetrics.engine import (
    ConfigurationError,
    ConsensusConfig,
    IsolatedNodeError,
    exact_consensus_target,
    max_step_size,
    min_consensus,
    neighbor_weight_sums,
    node_powers,
    wac_run,
)
from linkmetrics.graph import DisconnectedGraphError, diameter, from_edges
from linkmetrics.rng import SplitMix64

from helpers import (
    complete,
    cycle,
    er_instance,
    path,
    preferential_attachment,
    reference_min_consensus,
    reference_neighbor_weight_sums,
    reference_wac_run,
    star,
    triangle,
)


class TestConsensusConfig:
    @pytest.mark.parametrize("name", ["step_tolerance", "spread_tolerance"])
    def test_nan_tolerance_rejected(self, name):
        with pytest.raises(ConfigurationError):
            ConsensusConfig(**{name: math.nan})


class TestMaxStepSize:
    def test_degree_weights_give_unit_bound(self):
        g = triangle()
        assert max_step_size([float(d) for d in g.degrees], g) == 1.0

    def test_triangle_custom_weights(self):
        assert max_step_size([5.0, 4.0, 3.0], triangle()) == 1.5

    def test_p3(self):
        assert max_step_size([2.0, 4.0, 2.0], path(3)) == 2.0

    def test_isolated_node_rejected(self):
        g = from_edges(3, [(0, 1)])
        with pytest.raises(IsolatedNodeError):
            max_step_size([1.0, 1.0, 1.0], g)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            max_step_size([1.0] * 4, from_edges(4, [(0, 1), (2, 3)]))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            max_step_size([1.0, 0.0, 1.0], triangle())

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_nonfinite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            max_step_size([1.0, bad, 1.0], triangle())


class TestNeighborWeightSums:
    def test_triangle_k1(self):
        assert neighbor_weight_sums(triangle(), [1.0, 2.0, 3.0], 1).tolist() == [5.0, 4.0, 3.0]

    def test_k0_is_degrees(self):
        g = path(4)
        w = neighbor_weight_sums(g, [7.0, 1.0, 9.0, 2.0], 0)
        assert w.tolist() == list(map(float, g.degrees))

    def test_p3_k2(self):
        assert neighbor_weight_sums(path(3), [1.0, 2.0, 3.0], 2).tolist() == [4.0, 10.0, 4.0]

    def test_isolated_node_rejected(self):
        with pytest.raises(IsolatedNodeError):
            neighbor_weight_sums(from_edges(3, [(0, 1)]), [1.0, 1.0, 1.0], 1)


class TestNodePowers:
    def test_powers(self):
        assert node_powers([2.0, 3.0, 0.5], 3).tolist() == [8.0, 27.0, 0.125]

    def test_overflow_names_node_and_exponent(self):
        with pytest.raises(ValueError, match=r"node 1: .*1e\+200.* power 2\b"):
            node_powers([2.0, 1e200, 3.0], 2)

    def test_nonfinite_result_of_given_power_rejected(self):
        # v * v overflows to inf without raising.
        with pytest.raises(ValueError, match="node 0"):
            node_powers([1e200], 2, lambda v, _: v * v)

    def test_underflow_to_zero_kept(self):
        assert node_powers([1e-170, 2.0], 2).tolist() == [0.0, 4.0]

    def test_neighbor_sum_overflow_is_value_error(self):
        with pytest.raises(ValueError, match="power 2"):
            neighbor_weight_sums(triangle(), [1e200, 2.0, 3.0], 2)


class TestExactConsensusTarget:
    def test_weighted(self):
        assert exact_consensus_target([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(14.0 / 6.0)

    def test_constant_vector(self):
        assert exact_consensus_target([5.0, 5.0], [0.3, 9.0]) == 5.0

    def test_uniform_weights_arithmetic_mean(self):
        assert exact_consensus_target([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]) == 2.0


class TestWacRun:
    def test_triangle_equal_weights_reaches_mean(self):
        g = triangle()
        run = wac_run(g, [1.0, 2.0, 3.0], [2.0, 2.0, 2.0], ConsensusConfig(epsilon=0.5))
        assert run.converged
        assert run.consensus_value == pytest.approx(2.0, abs=1e-9)

    def test_single_step_states(self):
        g = triangle()
        cfg = ConsensusConfig(
            epsilon=0.5, max_iterations=1, record_trace=True,
            step_tolerance=1e-300, spread_tolerance=1e-300,
        )
        run = wac_run(g, [1.0, 2.0, 3.0], [2.0, 2.0, 2.0], cfg)
        assert run.trace[1].tolist() == [1.75, 2.0, 2.25]

    def test_trace_memory_is_float64_rows(self):
        # Stage S(1,1) of desk scale, capped. One float64 row per round
        # costs 8 N bytes; a list of Python floats costs about 4x that.
        g = cli.generate_synthetic(200, 0.025, 42)
        y = cli.generate_attributes(g, 5.0, 42)
        w = neighbor_weight_sums(g, y, 1)
        rounds = 2000
        cfg = ConsensusConfig(max_iterations=rounds, record_trace=True)
        tracemalloc.start()
        try:
            run = wac_run(g, y, w, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert run.iterations_used == rounds and not run.converged
        n = g.node_count
        assert peak <= 1.25 * 8 * n * (rounds + 1) + 256 * 1024
        assert len(run.trace) == rounds + 1
        for row in run.trace:
            assert isinstance(row, np.ndarray)
            assert row.dtype == np.float64 and row.shape == (n,)
        # A buffer reused across rounds would be the same object in every row.
        assert len({id(r) for r in run.trace}) == len(run.trace)
        assert run.trace[0].tolist() == y
        assert run.trace[-1].tolist() == run.final_states.tolist()

    def test_constant_start_is_fixed_point(self):
        run = wac_run(cycle(5), [3.0] * 5, [2.0] * 5, ConsensusConfig(epsilon=0.5))
        assert run.converged
        assert run.iterations_used == 0
        assert run.consensus_value == 3.0

    def test_epsilon_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            wac_run(triangle(), [1.0, 2.0, 3.0], [2.0] * 3, ConsensusConfig(epsilon=1.5))

    def test_unstable_epsilon_override_runs_unconverged(self):
        cfg = ConsensusConfig(
            epsilon=1.9, allow_unstable_epsilon=True, max_iterations=500
        )
        run = wac_run(cycle(6), [1.0, 9.0, 2.0, 8.0, 3.0, 7.0], [2.0] * 6, cfg)
        assert not run.converged

    @pytest.mark.parametrize("epsilon, stop", [(1.5, 1455), (2.5, 582), (10.0, 253)])
    def test_divergent_run_stops_silently_at_first_overflow(self, epsilon, stop):
        g = cli.generate_synthetic(200, 0.025, 42)
        y = cli.generate_attributes(g, 5.0, 42)
        cfg = ConsensusConfig(epsilon=epsilon, allow_unstable_epsilon=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = wac_run(g, y, [float(d) for d in g.degrees], cfg)
        assert run.iterations_used == stop
        assert not run.converged
        assert run.residual_trace[-1] == math.inf

    def test_infinite_start_reports_inf_residual(self):
        # Node 0 becomes nan (its step is nan, and skipped); node 1 becomes inf.
        cfg = ConsensusConfig(epsilon=0.5, record_trace=True)
        run = wac_run(path(3), [math.inf, 1.0, 2.0], [2.0, 2.0, 2.0], cfg)
        assert run.residual_trace == [math.inf]
        assert run.iterations_used == 1
        assert not run.converged
        assert math.isnan(run.trace[1][0]) and run.trace[1][1] == math.inf

    def test_all_infinite_start_never_converges(self):
        # Every step is nan and skipped, so the residual reads 0.0; the nan
        # consensus value must still keep the run unconverged.
        run = wac_run(path(3), [math.inf] * 3, [2.0] * 3, ConsensusConfig(epsilon=0.5))
        assert run.residual_trace == [0.0]
        assert math.isnan(run.consensus_value)
        assert not run.converged

    @pytest.mark.parametrize("epsilon", [math.inf, math.nan])
    def test_nonfinite_epsilon_rejected(self, epsilon):
        cfg = ConsensusConfig(epsilon=epsilon, allow_unstable_epsilon=True)
        with pytest.raises(ConfigurationError):
            wac_run(triangle(), [1.0, 2.0, 3.0], [2.0] * 3, cfg)

    def test_run_records_its_weights(self):
        w = [5.0, 4.0, 3.0]
        run = wac_run(triangle(), [1.0, 2.0, 3.0], w)
        assert run.weights.tolist() == w
        assert run.max_step_bound == max_step_size(w, triangle())

    def test_disconnected_rejected(self):
        g = from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            wac_run(g, [1.0] * 4, [1.0] * 4, ConsensusConfig(epsilon=0.5))

    def test_one_connectivity_check_per_run(self, monkeypatch):
        from linkmetrics import graph

        calls = []
        real = graph.is_connected
        monkeypatch.setattr(graph, "is_connected", lambda g: calls.append(g) or real(g))
        g, y = er_instance(5, n_lo=20, n_hi=20)
        wac_run(g, y, neighbor_weight_sums(g, y, 1))
        wac_run(g, y, [float(d) for d in g.degrees])
        assert len(calls) == 2

    def test_consensus_value_of_states_whose_sum_overflows(self):
        cfg = ConsensusConfig(max_iterations=5)
        run = wac_run(path(2), [1e308, 1.5e308], [1.0, 1.0], cfg)
        assert math.isfinite(run.consensus_value)
        assert min(run.final_states) <= run.consensus_value <= max(run.final_states)

    def test_default_policy_is_09_of_bound(self):
        g = triangle()
        run = wac_run(g, [1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
        assert run.epsilon == pytest.approx(0.9)
        assert run.max_step_bound == 1.0

    @pytest.mark.parametrize("seed", range(100))
    def test_convergence_to_weighted_target(self, seed):
        rng = SplitMix64(seed)
        g, _ = er_instance(seed, n_lo=5, n_hi=50, mean_degree=4.0)
        n = g.node_count
        x0 = [10.0 * rng.random() + 0.1 for _ in range(n)]
        w = [rng.random() + 0.5 for _ in range(n)]
        cfg = ConsensusConfig()
        run = wac_run(g, x0, w, cfg)
        assert run.converged
        target = exact_consensus_target(x0, w)
        assert abs(run.consensus_value - target) <= 10 * cfg.spread_tolerance

    def test_conservation_of_weighted_sum(self):
        g, y = er_instance(7, n_lo=60, n_hi=60)
        w = neighbor_weight_sums(g, y, 1)
        cfg = ConsensusConfig(
            step_tolerance=1e-300, spread_tolerance=1e-300, max_iterations=10_000
        )
        run = wac_run(g, y, w, cfg)
        before = math.fsum(wi * xi for wi, xi in zip(w, y))
        after = math.fsum(wi * xi for wi, xi in zip(w, run.final_states))
        assert abs(after - before) / abs(before) <= 1e-9

    def test_spread_at_convergence(self):
        g, y = er_instance(3, n_lo=30, n_hi=30)
        cfg = ConsensusConfig()
        run = wac_run(g, y, [float(d) for d in g.degrees], cfg)
        assert run.converged
        spread = max(run.final_states) - min(run.final_states)
        # stopping may trigger on either rule; spread stays comparable
        assert spread <= 10 * cfg.spread_tolerance


class TestMinConsensus:
    def test_p3_one_round(self):
        states, rounds = min_consensus(path(3), [3.0, 1.0, 2.0], 2)
        assert states == [1.0, 1.0, 1.0]
        assert rounds == 1

    def test_uniform_zero_rounds(self):
        states, rounds = min_consensus(triangle(), [5.0, 5.0, 5.0], 1)
        assert states == [5.0] * 3
        assert rounds == 0

    def test_p3_within_diameter(self):
        states, rounds = min_consensus(path(3), [1.0, 2.0, 3.0], 2)
        assert states == [1.0] * 3
        assert rounds <= 2

    @pytest.mark.parametrize("maker", [path, cycle, star, complete])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_exact_min_within_diameter(self, maker, n):
        g = maker(n)
        diam = diameter(g)
        for seed in range(10):
            rng = SplitMix64(seed * 1000 + n)
            x0 = [rng.random() for _ in range(n)]
            states, rounds = min_consensus(g, x0, max(diam, 1))
            assert states == [min(x0)] * n
            assert rounds <= diam


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_state_rejected(self, bad):
        # np.minimum spreads nan, where a `<` comparison would skip it.
        with pytest.raises(ValueError, match="finite"):
            min_consensus(path(3), [1.0, bad, 2.0], 2)


def _relabel(g, labels):
    return from_edges(g.node_count, [(labels[u], labels[v]) for u, v in g.edges()])


@st.composite
def shuffled_graphs(draw):
    """A connected graph on 2-40 nodes with shuffled labels: a random tree
    plus extra edges, or a preferential-attachment graph, whose hubs have
    more neighbors than a pairwise sum adds sequentially."""
    n = draw(st.integers(2, 40))
    if n > 4 and draw(st.booleans()):
        g = preferential_attachment(n, draw(st.integers(1, 3)), draw(st.integers(0, 2**32)))
    else:
        parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        extra = draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
        g = from_edges(n, list(enumerate(parents, start=1)) + extra)
    return _relabel(g, draw(st.permutations(range(n))))


def _bits(values):
    return [float(v).hex() for v in values]


class TestEdgeArrayKernels:
    """neighbor_weight_sums and min_consensus equal their per-node loops
    bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(shuffled_graphs(), st.integers(0, 3), st.data())
    def test_neighbor_weight_sums_match_reference(self, g, k, data):
        positive = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)
        y = data.draw(st.lists(positive, min_size=g.node_count, max_size=g.node_count))
        expected = reference_neighbor_weight_sums(g, y, k)
        assert _bits(neighbor_weight_sums(g, y, k)) == _bits(expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_hub_sums_match_reference(self, seed):
        rng = SplitMix64(seed)
        labels = sorted(range(40), key=lambda _: rng.next_uint64())
        g = _relabel(preferential_attachment(40, 2, seed), labels)
        assert max(g.degrees) > 8
        y = [rng.random() * 10.0 ** (rng.next_uint64() % 7 - 3) for _ in range(40)]
        for k in range(4):
            expected = reference_neighbor_weight_sums(g, y, k)
            assert _bits(neighbor_weight_sums(g, y, k)) == _bits(expected)

    @settings(max_examples=150, deadline=None)
    @given(shuffled_graphs(), st.data())
    def test_min_consensus_matches_reference(self, g, data):
        # Nonzero states: of 0.0 and -0.0, np.minimum may keep either.
        finite = st.floats(allow_nan=False, allow_infinity=False).filter(bool)
        x0 = data.draw(st.lists(finite, min_size=g.node_count, max_size=g.node_count))
        rounds = max(1, g.node_count - 1)
        states, used = min_consensus(g, x0, rounds)
        ref_states, ref_used = reference_min_consensus(g, x0, rounds)
        assert (_bits(states), used) == (_bits(ref_states), ref_used)


def _raw_bits(values):
    """The IEEE bit patterns, so that the sign of a zero or a nan counts."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _assert_same_run(run, ref):
    assert run.iterations_used == ref.iterations_used
    assert run.converged == ref.converged
    assert _raw_bits(run.final_states) == _raw_bits(ref.final_states)
    assert _raw_bits(run.residual_trace) == _raw_bits(ref.residual_trace)
    assert _raw_bits([run.consensus_value]) == _raw_bits([ref.consensus_value])
    if ref.trace is None:
        assert run.trace is None
    else:
        assert [_raw_bits(r) for r in run.trace] == [_raw_bits(r) for r in ref.trace]


_SPECIAL_STATES = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1.7e308]
)
_TOLERANCES = st.sampled_from([1e-300, 1e-12, 1e-3, 1.0, 100.0])


class TestBlockedRounds:
    """wac_run runs its rounds in blocks and checks the stopping rule once
    per block; it equals the per-round loop bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(shuffled_graphs(), st.data())
    def test_matches_per_round_reference(self, g, data):
        n = g.node_count
        x0 = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
        if data.draw(st.booleans()):
            x0[data.draw(st.integers(0, n - 1))] = data.draw(_SPECIAL_STATES)
        w = data.draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
        fraction = data.draw(st.sampled_from([None, 0.5, 1.9, 2.5]))
        epsilon = None if fraction is None else fraction * max_step_size(w, g)
        settings_ = dict(
            epsilon=epsilon,
            allow_unstable_epsilon=True,
            step_tolerance=data.draw(_TOLERANCES),
            spread_tolerance=data.draw(_TOLERANCES),
            record_trace=data.draw(st.booleans()),
        )
        # Every cap from 1 to the end of the third block.
        for cap in range(1, 3 * engine._BLOCK + 1):
            cfg = ConsensusConfig(max_iterations=cap, **settings_)
            _assert_same_run(wac_run(g, x0, w, cfg), reference_wac_run(g, x0, w, cfg))

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("rule", ["step", "spread"])
    @pytest.mark.parametrize("stop", [engine._BLOCK, engine._BLOCK + 1])
    def test_stop_on_block_boundary(self, stop, rule, record):
        # The last round of the first block, and the first of the second.
        g, y = er_instance(3, n_lo=30, n_hi=30)
        w = neighbor_weight_sums(g, y, 1)
        free = reference_wac_run(g, y, w, ConsensusConfig(
            step_tolerance=1e-300, spread_tolerance=1e-300,
            max_iterations=3 * engine._BLOCK, record_trace=True,
        ))
        if rule == "step":
            measure = free.residual_trace
        else:
            measure = [float(r.max() - r.min()) for r in free.trace[1:]]
        assert min(measure[: stop - 1]) > measure[stop - 1]
        tolerances = {f"{rule}_tolerance": measure[stop - 1]}
        cfg = ConsensusConfig(
            **{"step_tolerance": 1e-300, "spread_tolerance": 1e-300, **tolerances},
            record_trace=record,
        )
        run = wac_run(g, y, w, cfg)
        _assert_same_run(run, reference_wac_run(g, y, w, cfg))
        assert run.iterations_used == stop
        assert run.stop_reason == rule and run.converged


def _is_float64_vector(a, size):
    return isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == (size,)


class TestArrayRecords:
    """Stage inputs and run records are 1-D float64 arrays."""

    def test_run_fields(self):
        cfg = ConsensusConfig(epsilon=0.5)
        run = wac_run(cycle(6), [1.0, 9.0, 2.0, 8.0, 3.0, 7.0], [2.0] * 6, cfg)
        assert _is_float64_vector(run.final_states, 6)
        assert _is_float64_vector(run.weights, 6)
        assert _is_float64_vector(run.residual_trace, run.iterations_used)

    def test_stage_inputs(self):
        assert _is_float64_vector(neighbor_weight_sums(triangle(), [1.0, 2.0, 3.0], 1), 3)
        assert _is_float64_vector(node_powers([2.0, 3.0], 2), 2)

    def test_held_run_costs_8_bytes_a_round(self):
        # Stage S(1,1) of desk scale, untraced, runs thousands of rounds.
        g = cli.generate_synthetic(200, 0.025, 42)
        y = cli.generate_attributes(g, 5.0, 42)
        w = neighbor_weight_sums(g, y, 1)
        wac_run(g, y, w)  # builds Graph.edge_arrays
        tracemalloc.start()
        try:
            run = wac_run(g, y, w)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert run.iterations_used > 1000
        assert held <= 8 * run.iterations_used + 64 * g.node_count + 4096


class TestStopReason:
    def test_spread(self):
        cfg = ConsensusConfig(epsilon=0.5, step_tolerance=1e-300)
        run = wac_run(cycle(6), [1.0, 9.0, 2.0, 8.0, 3.0, 7.0], [2.0] * 6, cfg)
        assert run.stop_reason == "spread" and run.converged
        assert max(run.final_states) - min(run.final_states) <= cfg.spread_tolerance

    def test_spread_of_constant_start(self):
        run = wac_run(cycle(5), [3.0] * 5, [2.0] * 5, ConsensusConfig(epsilon=0.5))
        assert run.stop_reason == "spread" and run.iterations_used == 0

    def test_step(self):
        cfg = ConsensusConfig(epsilon=0.5, step_tolerance=1e-3, spread_tolerance=1e-300)
        run = wac_run(cycle(6), [1.0, 9.0, 2.0, 8.0, 3.0, 7.0], [2.0] * 6, cfg)
        assert run.stop_reason == "step" and run.converged
        assert run.residual_trace[-1] <= 1e-3 < min(run.residual_trace[:-1])

    def test_step_wins_when_both_pass(self):
        # eps = 2/3 on a triangle of weights 2 reaches the mean in one round:
        # spread 0.0 and step 3.0, both within tolerance.
        cfg = ConsensusConfig(epsilon=2 / 3, step_tolerance=10.0)
        run = wac_run(triangle(), [0.0, 3.0, 6.0], [2.0] * 3, cfg)
        assert run.final_states.tolist() == [3.0, 3.0, 3.0]
        assert run.residual_trace == [3.0]
        assert run.stop_reason == "step" and run.converged

    def test_cap(self):
        cfg = ConsensusConfig(
            epsilon=0.5, max_iterations=5, step_tolerance=1e-300, spread_tolerance=1e-300,
        )
        run = wac_run(cycle(6), [1.0, 9.0, 2.0, 8.0, 3.0, 7.0], [2.0] * 6, cfg)
        assert run.stop_reason == "cap" and not run.converged
        assert run.iterations_used == 5

    def test_nonfinite(self):
        g = cli.generate_synthetic(200, 0.025, 42)
        y = cli.generate_attributes(g, 5.0, 42)
        cfg = ConsensusConfig(epsilon=2.5, allow_unstable_epsilon=True)
        run = wac_run(g, y, [float(d) for d in g.degrees], cfg)
        assert run.stop_reason == "nonfinite" and not run.converged
        assert run.iterations_used == 582 and run.residual_trace[-1] == math.inf


def distributed_delta1(g, y):
    """WAC1's step bound: min-consensus over the neighbor attribute averages."""
    return max_step_size(neighbor_weight_sums(g, y, 1), g)


class TestDistributedDelta1:
    def test_triangle(self):
        assert distributed_delta1(triangle(), [1.0, 2.0, 3.0]) == 1.5

    def test_p3(self):
        assert distributed_delta1(path(3), [1.0, 2.0, 3.0]) == 2.0

    def test_constant_attributes(self):
        assert distributed_delta1(cycle(6), [4.0] * 6) == 4.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_central_computation_exactly(self, seed):
        g, y = er_instance(seed, n_lo=10, n_hi=60)
        central = min(
            sum(y[j] for j in g.adjacency[i]) / g.degrees[i]
            for i in range(g.node_count)
        )
        assert distributed_delta1(g, y) == central
