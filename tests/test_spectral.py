import math

import numpy as np
import pytest

from linkmetrics.engine import ConsensusConfig, exact_consensus_target, wac_run
from linkmetrics.graph import from_edges, laplacian
from linkmetrics.rng import SplitMix64
from linkmetrics.spectral import (
    NotEstimableError,
    convergence_factor,
    empirical_convergence_factor,
    normalized_weight_matrix,
    spectral_report,
    symmetric_eigenvalues,
)

from helpers import er_instance, reference_normalized_weight_matrix, triangle


def charpoly_eigenvalues(m: np.ndarray) -> list[float]:
    """Independent route: Faddeev-LeVerrier coefficients + companion roots."""
    n = m.shape[0]
    coeffs = [1.0]
    mk = np.zeros_like(m)
    c = 1.0
    for k in range(1, n + 1):
        mk = m @ mk + c * np.eye(n)
        c = -float(np.trace(m @ mk)) / k
        coeffs.append(c)
    roots = np.roots(coeffs)
    return sorted((float(r.real) for r in roots), reverse=True)


class TestNormalizedWeightMatrix:
    def test_single_edge(self):
        g = from_edges(2, [(0, 1)])
        m = normalized_weight_matrix(g, [1.0, 1.0], 0.5)
        assert m.tolist() == [[0.5, 0.5], [0.5, 0.5]]

    def test_zero_epsilon_is_identity(self):
        m = normalized_weight_matrix(triangle(), [2.0, 3.0, 4.0], 0.0)
        assert m.tolist() == np.eye(3).tolist()

    def test_uniform_weights_reduce_to_scaled_laplacian(self):
        g = triangle()
        m = normalized_weight_matrix(g, [2.0, 2.0, 2.0], 0.7)
        expect = np.eye(3) - (0.7 / 2.0) * laplacian(g)
        assert np.abs(m - expect).max() <= 1e-15

    def test_exactly_symmetric(self):
        g, y = er_instance(3, n_lo=10, n_hi=30)
        w = [v + 0.1 for v in y]
        m = normalized_weight_matrix(g, w, 0.4)
        assert np.array_equal(m, m.T)

    @pytest.mark.parametrize("seed", range(5))
    def test_bytes_match_reference_loop(self, seed):
        g, y = er_instance(seed, n_lo=10, n_hi=60)
        for w in ([float(d) for d in g.degrees], [v + 0.1 for v in y]):
            m = normalized_weight_matrix(g, w, 0.4)
            assert m.tobytes() == reference_normalized_weight_matrix(g, w, 0.4).tobytes()

    def test_edgeless_graph(self):
        assert normalized_weight_matrix(from_edges(1, []), [2.0], 0.5).tolist() == [[1.0]]


class TestSymmetricEigenvalues:
    def test_rank_one(self):
        eigs = symmetric_eigenvalues(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert eigs == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_identity(self):
        assert symmetric_eigenvalues(np.eye(3)) == pytest.approx([1.0, 1.0, 1.0])

    def test_triangle_with_degree_weights(self):
        m = normalized_weight_matrix(triangle(), [2.0] * 3, 0.9)
        eigs = symmetric_eigenvalues(m)
        assert eigs == pytest.approx([1.0, -0.35, -0.35], abs=1e-9)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            symmetric_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("seed", range(5))
    def test_against_charpoly_roots(self, seed):
        g, y = er_instance(seed, n_lo=4, n_hi=6, mean_degree=3.0)
        w = [v + 0.2 for v in y]
        eps = 0.5 * min(wi / di for wi, di in zip(w, g.degrees))
        p_sym = normalized_weight_matrix(g, w, eps)
        # P_w = I - eps W^-1 L is similar to p_sym, so spectra agree
        p_w = np.eye(g.node_count) - eps * np.diag([1.0 / wi for wi in w]) @ laplacian(g)
        assert symmetric_eigenvalues(p_sym) == pytest.approx(
            charpoly_eigenvalues(p_w), abs=1e-6
        )


class TestConvergenceFactor:
    def test_negative_tail_dominates(self):
        assert convergence_factor([1.0, 0.5, -0.7]) == 0.7

    def test_one_step_system(self):
        assert convergence_factor([1.0, 0.0]) == 0.0

    def test_triangle_case(self):
        assert convergence_factor([1.0, -0.35, -0.35]) == 0.35

    def test_too_few_rejected(self):
        with pytest.raises(ValueError):
            convergence_factor([1.0])


class TestSpectralInvariants:
    @pytest.mark.parametrize("seed", range(30))
    def test_stability_inside_bound(self, seed):
        rng = SplitMix64(seed + 500)
        g, y = er_instance(seed + 500, n_lo=5, n_hi=15, mean_degree=3.0)
        w = [rng.random() + 0.2 for _ in range(g.node_count)]
        delta = min(wi / di for wi, di in zip(w, g.degrees))
        eps = (0.05 + 0.9 * rng.random()) * delta
        report = spectral_report(g, w, eps)
        assert report.eigenvalues[0] == pytest.approx(1.0, abs=1e-9)
        assert report.rho < 1.0

    def test_leading_eigenvector(self):
        g, y = er_instance(2, n_lo=10, n_hi=20)
        w = [v + 0.3 for v in y]
        m = normalized_weight_matrix(g, w, 0.4)
        v = np.sqrt(np.array(w))
        v /= np.linalg.norm(v)
        assert np.linalg.norm(m @ v - v) <= 1e-9

    def test_predicted_iterations_tracks_actual(self):
        for seed in range(5):
            g, y = er_instance(seed + 40, n_lo=15, n_hi=25, mean_degree=4.0)
            w = [float(d) for d in g.degrees]
            report = spectral_report(g, w, 0.3)
            assert 0.3 < report.rho < 0.99
            cfg = ConsensusConfig(
                epsilon=0.3, step_tolerance=1e-300, spread_tolerance=1e-300,
                max_iterations=4000, record_trace=True,
            )
            run = wac_run(g, y, w, cfg)
            spread0 = max(y) - min(y)
            actual = next(
                k for k, states in enumerate(run.trace)
                if max(states) - min(states) <= 1e-6 * spread0
            )
            predicted = math.ceil(math.log(1e-6) / math.log(report.rho))
            assert predicted / 2 <= actual <= predicted * 2


class TestEmpiricalConvergenceFactor:
    def _two_node_run(self, eps, iters):
        g = from_edges(2, [(0, 1)])
        cfg = ConsensusConfig(
            epsilon=eps, step_tolerance=1e-300, spread_tolerance=1e-300,
            max_iterations=iters, record_trace=True,
        )
        return wac_run(g, [0.0, 2.0], [1.0, 1.0], cfg)

    def test_two_node_rate_half(self):
        run = self._two_node_run(0.25, 40)
        rho_hat = empirical_convergence_factor(run, [1.0, 1.0])
        assert rho_hat == pytest.approx(0.5, abs=1e-9)

    def test_one_step_convergence_not_estimable(self):
        run = self._two_node_run(0.5, 40)
        with pytest.raises((NotEstimableError, ValueError)):
            empirical_convergence_factor(run, [1.0, 1.0])

    def test_requires_trace(self):
        g = from_edges(2, [(0, 1)])
        run = wac_run(g, [0.0, 2.0], [1.0, 1.0], ConsensusConfig(epsilon=0.25))
        with pytest.raises(ValueError):
            empirical_convergence_factor(run, [1.0, 1.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_analytic_rate(self, seed):
        from linkmetrics import cli

        g = cli.generate_synthetic(20, 0.3, seed + 50)
        x0 = cli.generate_attributes(g, 5.0, seed + 50)
        w = [float(d) for d in g.degrees]
        cfg = ConsensusConfig(
            epsilon=0.2, step_tolerance=1e-30, spread_tolerance=1e-11,
            max_iterations=20000, record_trace=True,
        )
        run = wac_run(g, x0, w, cfg)
        alpha = exact_consensus_target(x0, w)
        rho = spectral_report(g, w, 0.2).rho
        rho_hat = empirical_convergence_factor(run, [alpha] * g.node_count)
        assert abs(rho_hat - rho) / rho <= 0.02
