import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from linkmetrics import cli, engine, oracle, simharness, spectral
from linkmetrics.engine import (
    ConfigurationError,
    ConsensusConfig,
    exact_consensus_target,
    max_step_size,
    min_consensus,
    neighbor_weight_sums,
    node_powers,
    wac_run,
)
from linkmetrics.graph import Graph, diameter, from_edges, parse_edge_list
from linkmetrics.metrics import MetricSpec
from linkmetrics.rng import SplitMix64

from helpers import (
    complete,
    cycle,
    er_instance,
    path,
    preferential_attachment,
    reference_min_consensus,
    reference_neighbor_weight_sums,
    reference_node_powers,
    reference_validate_positive,
    reference_wac_run,
    star,
    trace_residuals,
    triangle,
)


class TestConsensusConfig:
    @pytest.mark.parametrize("name", ["step_tolerance", "spread_tolerance"])
    def test_nan_tolerance_rejected(self, name):
        with pytest.raises(ConfigurationError):
            ConsensusConfig(**{name: math.nan})

    @pytest.mark.parametrize("name", ["step_tolerance", "spread_tolerance"])
    def test_infinite_tolerance_rejected(self, name):
        # An infinite tolerance would stop every run at round 0 as converged.
        with pytest.raises(ConfigurationError, match="finite"):
            ConsensusConfig(**{name: math.inf})

    @pytest.mark.parametrize("cap, message", [
        (2.5, "must be an integer"), ("7", "must be an integer"), (None, "must be an integer"),
        (0, "must be >= 1"), (np.int64(0), "must be >= 1"),
    ])
    def test_bad_max_iterations_rejected(self, cap, message):
        with pytest.raises(ConfigurationError, match=message):
            ConsensusConfig(max_iterations=cap)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("unstable", [False, True])
    def test_bad_epsilon_rejected(self, epsilon, unstable):
        with pytest.raises(ConfigurationError, match="^epsilon must be positive and finite$"):
            ConsensusConfig(epsilon=epsilon, allow_unstable_epsilon=unstable)
        with pytest.raises(ConfigurationError, match="^epsilon must be positive and finite$"):
            cli.ExperimentConfig(edges_path="e", attrs_path="a", epsilon=epsilon)

    def test_unstable_epsilon_needs_explicit_epsilon(self):
        message = "^allow_unstable_epsilon needs an explicit epsilon$"
        with pytest.raises(ConfigurationError, match=message):
            ConsensusConfig(allow_unstable_epsilon=True)
        with pytest.raises(ConfigurationError, match=message):
            cli.ExperimentConfig(edges_path="e", attrs_path="a", allow_unstable_epsilon=True)
        assert ConsensusConfig(epsilon=5.0, allow_unstable_epsilon=True).epsilon == 5.0

    def test_numpy_integer_max_iterations_accepted(self):
        run = wac_run(triangle(), [1.0, 2.0, 3.0], [2.0] * 3,
                      ConsensusConfig(max_iterations=np.int64(3)))
        assert run.iterations_used == 3 and not run.converged


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
        with pytest.raises(ValueError, match=r"^node 2 is isolated$"):
            max_step_size([1.0, 1.0, 1.0], g)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match=r"^min_consensus requires a connected graph$"):
            max_step_size([1.0] * 4, from_edges(4, [(0, 1), (2, 3)]))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            max_step_size([1.0, 0.0, 1.0], triangle())

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_nonfinite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match=rf"^node 1: weight {bad} over degree 2 is {bad}$"):
            max_step_size([1.0, bad, 1.0], triangle())

    def test_rejected_weight_names_node_label(self):
        # Node 20 is graph index 1; the refusal names the label in the edge list.
        g = parse_edge_list("10 20\n20 30\n")
        with pytest.raises(ConfigurationError, match=r"^node 20: weight nan over degree 2 is nan$"):
            max_step_size([1.0, math.nan, 1.0], g)


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
        with pytest.raises(ValueError, match=r"^node 2 is isolated$"):
            neighbor_weight_sums(from_edges(3, [(0, 1)]), [1.0, 1.0, 1.0], 1)


class TestNodePowers:
    def test_powers(self):
        assert node_powers([2.0, 3.0, 0.5], 3).tolist() == [8.0, 27.0, 0.125]

    def test_overflow_names_node_and_exponent(self):
        # A square is v * v, which overflows to inf without raising.
        with pytest.raises(ValueError, match=r"node 1: .*1e\+200.* power 2\b"):
            node_powers([2.0, 1e200, 3.0], 2)
        # Other powers are libm's pow, which raises OverflowError.
        with pytest.raises(ValueError, match=r"node 0: .*1e\+200.* power 3\b"):
            node_powers([1e200, 2.0], 3)

    def test_nonfinite_result_of_given_power_rejected(self):
        # The square path is v * v, which overflows to inf without raising.
        with pytest.raises(ValueError, match=r"node 0: .* power 2\b"):
            node_powers([1e200], 2)

    def test_square_is_correctly_rounded(self):
        # glibc's pow(v, 2) gives 1.2921931049530018 here, one ulp off.
        v = 1.136746719789858
        assert node_powers([v], 2)[0] == v * v == 1.292193104953002

    def test_underflow_to_zero_kept(self):
        assert node_powers([1e-170, 2.0], 2).tolist() == [0.0, 4.0]

    def test_container_of_y_does_not_matter(self):
        y = [0.3, 1.136746719789858, 2.0, 7.77, 1e-40, 123.456]
        for k in range(3, 8):
            bits = node_powers(y, k).view(np.uint64).tolist()
            assert node_powers(tuple(y), k).view(np.uint64).tolist() == bits
            assert node_powers(np.array(y), k).view(np.uint64).tolist() == bits
        # NumPy's scalar power would warn; libm's pow on a float raises.
        with pytest.raises(ValueError, match=r"node 0: attribute 1e\+200 to the power 3\b"):
            node_powers(np.array([1e200, 1.0, 2.0]), 3)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_rejected(self, bad):
        # The first non-finite state is named, not a later one.
        with pytest.raises(ValueError, match=rf"^x0\[1\] = {bad} must be finite$"):
            exact_consensus_target([1.0, bad, 2.0, math.nan], [1.0, 2.0, 1.0, 1.0])


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

    @pytest.mark.parametrize("w, epsilon, message", [
        # Node 0's ratio 5e-324/2, and so Delta, rounds to 0.0.
        ([5e-324, 1.0, 1.0], None, r"^node 0: weight 5e-324 over degree 2 is 0\.0$"),
        # Delta = 5e-323/2, and 0.9 of it rounds back up to Delta.
        ([5e-323, 10.0, 10.0], None, r"^epsilon 2\.5e-323 outside stable range \(0, 2\.5e-323\)$"),
        # A stable step, but 2e-323/10 rounds to 0.0, so nodes 1 and 2 could never move.
        ([5e-323, 10.0, 10.0], 2e-323, r"^node 1: epsilon 2e-323 / 10\.0 is 0\.0$"),
    ], ids=["delta-zero", "eps-equals-delta", "eps-over-w-zero"])
    def test_step_that_cannot_move_every_node_rejected(self, w, epsilon, message):
        # Each of these ran and reported "converged" with nodes that never moved.
        with pytest.raises(ConfigurationError, match=message):
            wac_run(triangle(), [1.0, 2.0, 3.0], w, ConsensusConfig(epsilon=epsilon))

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
        assert run.stop_reason == "nonfinite"

    def test_infinite_start_reports_inf_residual(self):
        # Node 0 becomes nan (its step is nan, and skipped); node 1 becomes inf.
        cfg = ConsensusConfig(epsilon=0.5, record_trace=True)
        run = wac_run(path(3), [math.inf, 1.0, 2.0], [2.0, 2.0, 2.0], cfg)
        assert trace_residuals(run.trace) == [math.inf]
        assert run.stop_reason == "nonfinite"
        assert run.iterations_used == 1
        assert not run.converged
        assert math.isnan(run.trace[1][0]) and run.trace[1][1] == math.inf

    def test_all_infinite_start_never_converges(self):
        # Every step is nan and skipped, so the residual reads 0.0 and the
        # step rule ends the run; the nan consensus value must still keep
        # the run unconverged.
        run = wac_run(path(3), [math.inf] * 3, [2.0] * 3, ConsensusConfig(epsilon=0.5))
        assert run.stop_reason == "step" and run.iterations_used == 1
        assert math.isnan(run.consensus_value)
        assert not run.converged

    @pytest.mark.parametrize("epsilon", [math.inf, math.nan])
    def test_nonfinite_epsilon_rejected(self, epsilon):
        # The config itself rejects it, so no run can start with it.
        with pytest.raises(ConfigurationError, match="epsilon must be positive and finite"):
            ConsensusConfig(epsilon=epsilon, allow_unstable_epsilon=True)

    def test_run_records_its_weights(self):
        w = [5.0, 4.0, 3.0]
        run = wac_run(triangle(), [1.0, 2.0, 3.0], w)
        assert run.weights.tolist() == w
        assert run.max_step_bound == max_step_size(w, triangle())

    def test_disconnected_rejected(self):
        g = from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match=r"^min_consensus requires a connected graph$"):
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
    @given(shuffled_graphs())
    def test_neighbor_layout_lists_sorted_neighbors(self, g):
        i, j = g.edge_arrays
        lower = [(u, v) for u, nbrs in enumerate(g.adjacency) for v in nbrs if u < v]
        assert list(zip(i.tolist(), j.tolist())) == lower
        bins, partners = engine._neighbor_layout(g)
        for v, nbrs in enumerate(g.adjacency):
            assert partners[bins == v].tolist() == sorted(nbrs)

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


_STAGE_VALUES = st.one_of(
    st.floats(1e-3, 1e3),
    st.floats(5e-324, 1.7e308),  # subnormal to near float max: powers underflow and overflow
    st.sampled_from([0.0, -0.0, -1.5, math.nan, math.inf, -math.inf, 1e155, 1e200, 1e-170]),
)


@st.composite
def _graphs_with_values(draw):
    """A shuffled graph and one stage value per node."""
    g = draw(shuffled_graphs())
    return g, draw(st.lists(_STAGE_VALUES, min_size=g.node_count, max_size=g.node_count))


def _outcome(f, *args):
    """The raw bits of what f(*args) returns (None stays None), or the
    type and message of the ValueError it raises."""
    try:
        result = f(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return None if result is None else np.asarray(result).view(np.uint64).tolist()


class TestArrayStageInputs:
    """validate_positive, node_powers and neighbor_weight_sums equal their
    per-node loops: the same bits, or the same first error."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_STAGE_VALUES, min_size=1, max_size=12), st.integers(0, 4))
    def test_node_powers_and_checks_match_reference(self, y, k):
        assert _outcome(node_powers, y, k) == _outcome(reference_node_powers, y, k)
        assert _outcome(engine.validate_positive, y, "y") == _outcome(
            reference_validate_positive, y, "y"
        )

    @settings(max_examples=200, deadline=None)
    @given(_graphs_with_values(), st.integers(0, 4))
    @example((star(10), [1.0] + [1.7e308] * 9), 1)  # the hub's sum overflows to inf
    def test_neighbor_weight_sums_match_reference(self, graph_and_values, k):
        g, y = graph_and_values
        got = _outcome(neighbor_weight_sums, g, y, k)
        assert got == _outcome(reference_neighbor_weight_sums, g, y, k)

    def test_isolated_node_checked_after_values(self):
        g = from_edges(3, [(0, 1)])
        for y, match in (([1.0, 0.0, 1.0], r"^node 1: attribute 0\.0 must be positive and finite$"),
                         ([1.0, 1.0, 1.0], r"^node 2 is isolated$")):
            with pytest.raises(ValueError, match=match):
                neighbor_weight_sums(g, y, 1)
            with pytest.raises(ValueError, match=match):
                reference_neighbor_weight_sums(g, y, 1)


def _raw_bits(values):
    """The IEEE bit patterns, so that the sign of a zero or a nan counts."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _assert_same_run(run, ref):
    assert run.iterations_used == ref.iterations_used
    assert run.converged == ref.converged
    assert run.stop_reason == ref.stop_reason
    assert _raw_bits(run.final_states) == _raw_bits(ref.final_states)
    assert _raw_bits([run.consensus_value]) == _raw_bits([ref.consensus_value])
    if ref.trace is None:
        assert run.trace is None
    else:
        assert [_raw_bits(r) for r in run.trace] == [_raw_bits(r) for r in ref.trace]


def _run_outcome(run, g, x0, w, cfg):
    """The run, or the type of the ConfigurationError that refuses it."""
    try:
        return run(g, x0, w, cfg)
    except ConfigurationError as exc:
        return type(exc)


_SPECIAL_STATES = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1.7e308]
)
_TOLERANCES = st.sampled_from([1e-300, 1e-12, 1e-3, 1.0, 100.0])
_TINY_WEIGHTS = st.sampled_from([5e-324, 5e-323, 1e-320])


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
        if data.draw(st.booleans()):  # Delta or some eps/w_i may then round to 0.0
            w[data.draw(st.integers(0, n - 1))] = data.draw(_TINY_WEIGHTS)
        fraction = data.draw(st.sampled_from([None, 0.5, 1.9, 2.5]))
        # A ratio w_i/d_i that rounds to 0.0 refuses the bound, and so both runs.
        delta = _run_outcome(lambda g, x0, w, cfg: max_step_size(w, g), g, x0, w, None)
        epsilon = None if fraction is None or delta is ConfigurationError else fraction * delta
        assume(epsilon != 0.0)  # the config refuses an explicit zero step
        settings_ = dict(
            epsilon=epsilon,
            # The fraction policy never reads the flag, so it needs an explicit step.
            allow_unstable_epsilon=epsilon is not None,
            step_tolerance=data.draw(_TOLERANCES),
            spread_tolerance=data.draw(_TOLERANCES),
            record_trace=data.draw(st.booleans()),
        )
        # Every cap from 1 to the end of the third block.
        for cap in range(1, 3 * engine._BLOCK + 1):
            cfg = ConsensusConfig(max_iterations=cap, **settings_)
            run, ref = (_run_outcome(f, g, x0, w, cfg) for f in (wac_run, reference_wac_run))
            if isinstance(ref, type):
                assert run is ref
            else:
                _assert_same_run(run, ref)

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
            measure = trace_residuals(free.trace)
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


    @pytest.mark.parametrize("rule", ["cap", "step"])
    def test_sink_receives_kept_rounds_block_by_block(self, rule):
        # Both end 3 rounds into the third block: at the cap, or on the step
        # rule with the rest of that block computed and discarded.
        g, y = er_instance(3, n_lo=30, n_hi=30)
        w = neighbor_weight_sums(g, y, 1)
        stop = 2 * engine._BLOCK + 3
        free = dict(step_tolerance=1e-300, spread_tolerance=1e-300)
        recorded = wac_run(g, y, w, ConsensusConfig(
            max_iterations=3 * engine._BLOCK, record_trace=True, **free,
        ))
        if rule == "cap":
            cfg = ConsensusConfig(max_iterations=stop, **free)
        else:
            cfg = ConsensusConfig(
                step_tolerance=trace_residuals(recorded.trace)[stop - 1],
                spread_tolerance=1e-300,
            )
        calls = []
        run = wac_run(g, y, w, cfg, calls.append)
        assert run.iterations_used == stop and run.stop_reason == rule
        assert run.trace is None
        assert [len(rows) for rows in calls] == [1, engine._BLOCK, engine._BLOCK, 3]
        rows = [row for block in calls for row in block]
        assert [_raw_bits(r) for r in rows] == [_raw_bits(r) for r in recorded.trace[: stop + 1]]

    def test_sink_and_record_trace_rejected_together(self):
        cfg = ConsensusConfig(record_trace=True)
        with pytest.raises(ConfigurationError, match="sink"):
            wac_run(triangle(), [1.0, 2.0, 3.0], [2.0] * 3, cfg, lambda rows: None)


def _is_float64_vector(a, size):
    return isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == (size,)


class TestArrayRecords:
    """Stage inputs and run records are 1-D float64 arrays."""

    def test_run_fields(self):
        cfg = ConsensusConfig(epsilon=0.5)
        run = wac_run(cycle(6), [1.0, 9.0, 2.0, 8.0, 3.0, 7.0], [2.0] * 6, cfg)
        assert _is_float64_vector(run.final_states, 6)
        assert _is_float64_vector(run.weights, 6)

    def test_stage_inputs(self):
        assert _is_float64_vector(neighbor_weight_sums(triangle(), [1.0, 2.0, 3.0], 1), 3)
        assert _is_float64_vector(node_powers([2.0, 3.0], 2), 2)

    def test_held_run_keeps_no_per_round_record(self):
        # Stage S(1,1) of desk scale, untraced, runs thousands of rounds;
        # the run holds its final states and weights, nothing per round.
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
        assert held <= 64 * g.node_count + 4096


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
        cfg = ConsensusConfig(
            epsilon=0.5, step_tolerance=1e-3, spread_tolerance=1e-300, record_trace=True
        )
        run = wac_run(cycle(6), [1.0, 9.0, 2.0, 8.0, 3.0, 7.0], [2.0] * 6, cfg)
        assert run.stop_reason == "step" and run.converged
        residuals = trace_residuals(run.trace)
        assert residuals[-1] <= 1e-3 < min(residuals[:-1])

    def test_step_wins_when_both_pass(self):
        # eps = 2/3 on a triangle of weights 2 reaches the mean in one round:
        # spread 0.0 and step 3.0, both within tolerance.
        cfg = ConsensusConfig(epsilon=2 / 3, step_tolerance=10.0, record_trace=True)
        run = wac_run(triangle(), [0.0, 3.0, 6.0], [2.0] * 3, cfg)
        assert run.final_states.tolist() == [3.0, 3.0, 3.0]
        assert trace_residuals(run.trace) == [3.0]
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
        assert run.iterations_used == 582


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


# Argument checks that no pipeline run reaches, one call each, across the
# layers the pipeline is built from.
@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: max_step_size([1.0, 1.0], triangle()),
         ConfigurationError, "weight vector length mismatch"),
        (lambda: wac_run(triangle(), [1.0, 2.0], [2.0] * 3),
         ConfigurationError, "x0/w length must equal node count"),
        (lambda: wac_run(triangle(), [1.0] * 3, [2.0, 2.0]),
         ConfigurationError, "x0/w length must equal node count"),
        (lambda: neighbor_weight_sums(triangle(), [1.0] * 3, -1),
         ValueError, "exponent k must be >= 0"),
        (lambda: min_consensus(triangle(), [1.0] * 3, 0),
         ValueError, "max_rounds must be >= 1"),
        (lambda: oracle.exact_polynomial_metric(Graph(((),)), [1.0], MetricSpec(((1, 1, 1.0),))),
         ValueError, "polynomial metric needs at least one edge"),
        (lambda: oracle.exact_alphas(Graph(((1,), (0,), ())), [1.0] * 3),
         ValueError, "alphas undefined with isolated nodes"),
        (lambda: SplitMix64(0).exponential(0.0), ValueError, "mean must be positive and finite"),
        (lambda: SplitMix64(0).exponential(math.nan), ValueError, "mean must be positive and finite"),
        (lambda: SplitMix64(0).exponential(math.inf), ValueError, "mean must be positive and finite"),
        (lambda: simharness.run_synchronous(
            triangle(), simharness.make_wac_program([2.0] * 3, 0.5), [1.0] * 3, 0),
         ValueError, "max_rounds must be >= 1"),
        (lambda: simharness.run_synchronous(
            triangle(), simharness.make_wac_program([2.0] * 3, 0.5), [1.0] * 2, 5),
         ValueError, "inputs length must equal node count"),
        (lambda: simharness.make_wac_program([2.0] * 3, 0.0),
         ValueError, "epsilon must be positive and finite"),
        (lambda: simharness.run_synchronous(
            path(3), simharness.make_wac_program([1.0] * 5, 0.5), [1.0] * 3, 5),
         ValueError, "program length must equal node count"),
        (lambda: simharness.run_synchronous(
            path(3), simharness.make_wac_program([1.0] * 2, 0.5), [1.0] * 3, 5),
         ValueError, "program length must equal node count"),
        (lambda: simharness.make_wac_program([2.0] * 3, math.nan),
         ValueError, "epsilon must be positive and finite"),
        (lambda: simharness.make_wac_program([2.0] * 3, math.inf),
         ValueError, "epsilon must be positive and finite"),
        (lambda: exact_consensus_target([1.0, 2.0, 3.0], [1.0, 1.0]),
         ConfigurationError, "x0 and w lengths differ"),
        *[(lambda eps=eps: spectral.spectral_report(triangle(), [2.0] * 3, eps),
           ValueError, "epsilon must be positive and finite")
          for eps in (-1.0, 0.0, math.nan, math.inf)],
        (lambda: min_consensus(path(5), [5.0, 4.0, 3.0, 2.0, 1.0], 1),
         RuntimeError, "min_consensus did not stabilize within 1 rounds; "
         "this should be impossible on a connected graph with max_rounds >= N - 1"),
    ],
    ids=[
        "step-bound-w-length", "wac-x0-length", "wac-w-length", "negative-k",
        "min-consensus-rounds", "oracle-no-edges", "oracle-isolated-node",
        "exponential-mean", "exponential-mean-nan", "exponential-mean-inf", "harness-rounds",
        "harness-inputs-length", "harness-epsilon", "harness-program-long",
        "harness-program-short", "harness-epsilon-nan", "harness-epsilon-inf",
        "target-lengths", "spectral-epsilon-negative", "spectral-epsilon-zero",
        "spectral-epsilon-nan", "spectral-epsilon-inf", "min-consensus-round-limit",
    ],
)
def test_argument_errors(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert info.type is error
    assert str(info.value) == message
