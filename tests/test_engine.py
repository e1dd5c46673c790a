import math
import warnings

import pytest

from linkmetrics import cli
from linkmetrics.engine import (
    ConfigurationError,
    ConsensusConfig,
    IsolatedNodeError,
    distributed_delta1,
    exact_consensus_target,
    max_step_size,
    min_consensus,
    neighbor_weight_sums,
    node_powers,
    wac_run,
)
from linkmetrics.graph import DisconnectedGraphError, diameter, from_edges
from linkmetrics.rng import SplitMix64

from helpers import complete, cycle, er_instance, path, star, triangle


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
        assert neighbor_weight_sums(triangle(), [1.0, 2.0, 3.0], 1) == [5.0, 4.0, 3.0]

    def test_k0_is_degrees(self):
        g = path(4)
        assert neighbor_weight_sums(g, [7.0, 1.0, 9.0, 2.0], 0) == list(map(float, g.degrees))

    def test_p3_k2(self):
        assert neighbor_weight_sums(path(3), [1.0, 2.0, 3.0], 2) == [4.0, 10.0, 4.0]

    def test_isolated_node_rejected(self):
        with pytest.raises(IsolatedNodeError):
            neighbor_weight_sums(from_edges(3, [(0, 1)]), [1.0, 1.0, 1.0], 1)


class TestNodePowers:
    def test_powers(self):
        assert node_powers([2.0, 3.0, 0.5], 3) == [8.0, 27.0, 0.125]

    def test_overflow_names_node_and_exponent(self):
        with pytest.raises(ValueError, match=r"node 1: .*1e\+200.* power 2\b"):
            node_powers([2.0, 1e200, 3.0], 2)

    def test_nonfinite_result_of_given_power_rejected(self):
        # v * v overflows to inf without raising.
        with pytest.raises(ValueError, match="node 0"):
            node_powers([1e200], 2, lambda v, _: v * v)

    def test_underflow_to_zero_kept(self):
        assert node_powers([1e-170, 2.0], 2) == [0.0, 4.0]

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
        assert run.trace[1] == [1.75, 2.0, 2.25]

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
        assert run.weights == w
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
