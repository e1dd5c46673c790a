import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linkmetrics.graph import from_edges
from linkmetrics.metrics import MetricSpec, tv_metric_spec
from linkmetrics.oracle import exact_alphas, exact_polynomial_metric, exact_total_variation

from helpers import er_instance, path, reference_exact_polynomial_metric, triangle


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


class TestNonFiniteAttribute:
    """A non-finite attribute is named by its node, not reported as an
    overflow; a finite one whose square overflows still is."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "reference",
        [exact_total_variation, exact_alphas,
         lambda g, y: exact_polynomial_metric(g, y, tv_metric_spec())],
        ids=["total-variation", "alphas", "polynomial"],
    )
    def test_names_the_node(self, reference, bad):
        with pytest.raises(ValueError) as info:
            reference(triangle(), [1.0, bad, 3.0])
        assert str(info.value) == f"node 1: attribute {bad!r} is not finite"

    def test_square_overflow_keeps_its_message(self):
        with pytest.raises(ValueError) as info:
            exact_total_variation(path(2), [1.0, 1e200])
        assert str(info.value) == "reference value overflows: attributes too large"


def _outcome(f, *args):
    """The IEEE bits of what f(*args) returns, or the type and message of
    the ValueError it raises."""
    try:
        return np.float64(f(*args)).view(np.uint64).item()
    except ValueError as exc:
        return type(exc), str(exc)


def _full_mantissa(lo: int, hi: int):
    """Positive floats in [2**lo, 2**(hi+1)) with all 52 mantissa bits
    drawn, so that products round: hypothesis favors round numbers."""
    return st.builds(
        lambda m, e: math.ldexp(1.0 + m / 2**52, e), st.integers(0, 2**52 - 1), st.integers(lo, hi)
    )


@st.composite
def poly_instances(draw):
    """A graph of up to 10 nodes with at least one edge (isolated nodes
    allowed), attributes up to 1e100, so products overflow while powers
    do not, and up to 4 terms with l, k <= 3 and signed coefficients."""
    n = draw(st.integers(2, 10))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    g = from_edges(n, draw(st.lists(pairs, min_size=1, max_size=3 * n)))
    attrs = st.one_of(
        _full_mantissa(-10, 10), st.floats(1e-100, 1e100), st.sampled_from([1e60, 1e100])
    )
    y = draw(st.lists(attrs, min_size=n, max_size=n))
    lk = st.tuples(st.integers(0, 3), st.integers(0, 3))
    coefficients = st.one_of(
        _full_mantissa(-3, 3),
        _full_mantissa(-3, 3).map(lambda c: -c),
        st.sampled_from([-1.7e308, -1e300, 1e300, 1.7e308, -1.0, 0.0]),
    )
    keys = draw(st.lists(lk, max_size=4, unique=True))
    spec = MetricSpec(tuple((l, k, draw(coefficients)) for l, k in keys))
    return g, y, spec


class TestPolynomialMetricReference:
    """exact_polynomial_metric equals the per-edge loop of evaluate_spec
    bit for bit, and raises the same error when the sum overflows."""

    @settings(max_examples=300, deadline=None)
    @given(poly_instances())
    def test_matches_reference(self, instance):
        g, y, spec = instance
        got = _outcome(exact_polynomial_metric, g, y, spec)
        assert got == _outcome(reference_exact_polynomial_metric, g, y, spec)

    def test_isolated_node_takes_no_power(self):
        # Node 2 is on no edge; its cube would overflow.
        g, spec = from_edges(3, [(0, 1)]), MetricSpec(((3, 0, 1.0),))
        y = [1.0, 2.0, 1e200]
        assert exact_polynomial_metric(g, y, spec) == reference_exact_polynomial_metric(g, y, spec)

    def test_opposite_infinite_terms(self):
        # u * v**2 and -u**2 * v both overflow, to +inf and -inf: fsum's own error.
        g, spec = path(2), MetricSpec(((1, 2, 1.0), (2, 1, -1.0)))
        for oracle in (exact_polynomial_metric, reference_exact_polynomial_metric):
            with pytest.raises(ValueError, match=r"-inf \+ inf in fsum"):
                oracle(g, [1e110, 1e110], spec)

    def test_edge_sum_past_float_max(self):
        # f(u, v) + f(v, u) = 2 * 1.7e308 overflows before it is halved.
        spec = MetricSpec(((0, 0, 1.7e308),))
        for oracle in (exact_polynomial_metric, reference_exact_polynomial_metric):
            with pytest.raises(ValueError, match="overflows"):
                oracle(path(2), [1.0, 2.0], spec)
