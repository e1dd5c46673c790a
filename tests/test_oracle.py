import pytest

from linkmetrics.metrics import MetricSpec, tv_metric_spec
from linkmetrics.oracle import exact_alphas, exact_polynomial_metric, exact_total_variation

from helpers import er_instance, path, triangle


class TestExactTotalVariation:
    def test_triangle(self):
        assert exact_total_variation(triangle(), [1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_p3(self):
        assert exact_total_variation(path(3), [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_constant(self):
        assert exact_total_variation(path(4), [2.0] * 4) == 0.0

    def test_edgeless_rejected(self):
        from linkmetrics.graph import from_edges

        with pytest.raises(ValueError):
            exact_total_variation(from_edges(1, []), [1.0])


class TestExactPolynomialMetric:
    def test_product(self):
        spec = MetricSpec(terms=((1, 1, 1.0),))
        got = exact_polynomial_metric(triangle(), [1.0, 2.0, 3.0], spec)
        assert got == pytest.approx(11.0 / 3.0)

    def test_tv_spec_equals_total_variation(self):
        g, y = er_instance(0)
        tv = exact_total_variation(g, y)
        poly = exact_polynomial_metric(g, y, tv_metric_spec())
        assert abs(poly - tv) / max(tv, 1e-300) <= 1e-12

    def test_constant_spec(self):
        g, y = er_instance(1)
        assert exact_polynomial_metric(g, y, MetricSpec(terms=((0, 0, 3.5),))) == pytest.approx(3.5)


class TestExactAlphas:
    def test_triangle(self):
        a1, a2, a3 = exact_alphas(triangle(), [1.0, 2.0, 3.0])
        assert (a1, a2, a3) == pytest.approx((14.0 / 3.0, 11.0 / 6.0, 2.0))

    def test_p3(self):
        assert exact_alphas(path(3), [1.0, 2.0, 3.0]) == pytest.approx((4.5, 2.0, 2.0))

    def test_constant_collapses(self):
        a1, a2, a3 = exact_alphas(path(4), [3.0] * 4)
        assert (a1, a2, a3) == pytest.approx((9.0, 3.0, 3.0))
        assert 2 * a1 - 2 * a2 * a3 == pytest.approx(0.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_aggregation_identity(self, seed):
        g, y = er_instance(seed, n_lo=10, n_hi=120)
        a1, a2, a3 = exact_alphas(g, y)
        tv = exact_total_variation(g, y)
        assert abs(2 * a1 - 2 * a2 * a3 - tv) / max(tv, 1e-300) <= 1e-12


class TestOverflow:
    """A reference sum past the float range is an input error, not an
    OverflowError out of math.fsum."""

    def _cycle_instance(self):
        from helpers import cycle

        return cycle(10), [1.0 if i % 2 == 0 else 5e153 for i in range(10)]

    def test_total_variation(self):
        g, y = self._cycle_instance()
        with pytest.raises(ValueError, match="overflows"):
            exact_total_variation(g, y)

    def test_alphas(self):
        g, y = self._cycle_instance()
        with pytest.raises(ValueError, match="overflows"):
            exact_alphas(g, y)

    def test_polynomial_metric(self):
        g, y = self._cycle_instance()
        with pytest.raises(ValueError, match="overflows"):
            exact_polynomial_metric(g, y, tv_metric_spec())

    def test_product_overflow(self):
        # Each power is finite; the product u * v overflows.
        spec = MetricSpec(terms=((1, 1, 1.0),))
        with pytest.raises(ValueError, match="overflows"):
            exact_polynomial_metric(triangle(), [1e200, 2e200, 3e200], spec)

    def test_alphas_product_overflow(self):
        # d * v * v and y_i * sum_j y_j overflow by multiplication.
        with pytest.raises(ValueError, match="overflows"):
            exact_alphas(triangle(), [1e160, 2e160, 3e160])

    def test_power_overflow(self):
        spec = MetricSpec(terms=((3, 0, 1.0),))
        with pytest.raises(ValueError, match="overflows"):
            exact_polynomial_metric(triangle(), [1e200, 2.0, 3.0], spec)
