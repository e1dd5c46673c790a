import math

import pytest

from linkmetrics import oracle
from linkmetrics.engine import ConsensusConfig
from linkmetrics.metrics import (
    MetricSpec,
    parse_metric_spec,
    polynomial_metric,
    polynomial_term_pipeline,
    shift_attributes,
    total_variation_pipeline,
    tv_metric_spec,
)

from helpers import block_edge_count, cycle, er_instance, path, triangle


class TestMetricSpec:
    def test_duplicate_term_rejected(self):
        with pytest.raises(ValueError):
            MetricSpec(terms=((1, 1, 2.0), (1, 1, 3.0)))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            MetricSpec(terms=((-1, 0, 1.0),))

    def test_max_degree(self):
        assert tv_metric_spec().max_degree == 2
        assert MetricSpec(terms=()).max_degree == 0

    def test_evaluate_tv_form(self):
        spec = tv_metric_spec()
        assert spec.evaluate(3.0, 1.0) == 4.0

    def test_parse(self):
        spec = parse_metric_spec("# f = u*v\n1 1 1.0\n")
        assert spec.terms == ((1, 1, 1.0),)

    def test_parse_bad_line(self):
        with pytest.raises(ValueError):
            parse_metric_spec("1 1\n")

    @pytest.mark.parametrize("coefficient", ["nan", "inf", "-inf"])
    def test_nonfinite_coefficient_rejected(self, coefficient):
        with pytest.raises(ValueError, match="finite"):
            parse_metric_spec(f"2 0 1.0\n1 1 {coefficient}\n")


class TestTotalVariationPipeline:
    def test_triangle_fixture(self):
        r = total_variation_pipeline(triangle(), [1.0, 2.0, 3.0])
        assert r.alpha1 == pytest.approx(14.0 / 3.0, abs=1e-9)
        assert r.alpha2 == pytest.approx(11.0 / 6.0, abs=1e-9)
        assert r.alpha3 == pytest.approx(2.0, abs=1e-9)
        assert r.total_variation == pytest.approx(2.0, abs=1e-9)
        assert r.delta1 == 1.5
        assert r.converged

    def test_p3_fixture(self):
        r = total_variation_pipeline(path(3), [1.0, 2.0, 3.0])
        assert r.alpha1 == pytest.approx(4.5, abs=1e-9)
        assert r.alpha2 == pytest.approx(2.0, abs=1e-9)
        assert r.alpha3 == pytest.approx(2.0, abs=1e-9)
        assert r.total_variation == pytest.approx(1.0, abs=1e-9)

    def test_constant_attributes_give_zero(self):
        r = total_variation_pipeline(cycle(6), [3.0] * 6)
        assert r.total_variation == pytest.approx(0.0, abs=1e-9)

    def test_nonpositive_attribute_rejected(self):
        with pytest.raises(ValueError):
            total_variation_pipeline(triangle(), [1.0, -2.0, 3.0])

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_oracle(self, seed):
        g, y = er_instance(seed)
        r = total_variation_pipeline(g, y)
        ref = oracle.exact_total_variation(g, y)
        assert abs(r.total_variation - ref) / max(ref, 1.0) <= 1e-6

    def test_nonnegative(self):
        g, y = er_instance(11)
        r = total_variation_pipeline(g, y)
        assert r.total_variation >= -1e-9

    def test_stages_never_read_edge_count(self):
        g, y = er_instance(4, n_lo=15, n_hi=30)
        blocked = block_edge_count(g)
        r = total_variation_pipeline(blocked, y)
        assert r.total_variation == pytest.approx(
            oracle.exact_total_variation(g, y), rel=1e-6
        )


class TestPolynomialTermPipeline:
    def test_triangle_cross_term(self):
        t = polynomial_term_pipeline(triangle(), [1.0, 2.0, 3.0], 1, 1, 1.0)
        assert t.alpha_1lk == pytest.approx(11.0 / 6.0, abs=1e-9)
        assert t.alpha_2lk == pytest.approx(2.0, abs=1e-9)
        assert t.h_lk == pytest.approx(11.0 / 3.0, abs=1e-9)

    def test_constant_term_is_one(self):
        g, y = er_instance(5, n_lo=10, n_hi=30)
        t = polynomial_term_pipeline(g, y, 0, 0, 1.0)
        assert t.h_lk == pytest.approx(1.0, abs=1e-8)

    def test_zero_coefficient(self):
        t = polynomial_term_pipeline(triangle(), [1.0, 2.0, 3.0], 2, 1, 0.0)
        assert t.h_lk == 0.0


class TestPolynomialMetric:
    def test_tv_coefficients_match_tv_pipeline(self):
        g, y = er_instance(6, n_lo=10, n_hi=40)
        cfg = ConsensusConfig()
        tv = total_variation_pipeline(g, y, cfg).total_variation
        poly = polynomial_metric(g, y, tv_metric_spec(), cfg)
        assert abs(poly - tv) <= 1e-9

    def test_constant_spec(self):
        g, y = er_instance(8, n_lo=10, n_hi=30)
        assert polynomial_metric(g, y, MetricSpec(terms=((0, 0, 5.0),))) == pytest.approx(
            5.0, abs=1e-8
        )

    def test_empty_spec(self):
        g, y = er_instance(9, n_lo=10, n_hi=30)
        assert polynomial_metric(g, y, MetricSpec(terms=())) == 0.0

    def test_product_metric_matches_oracle(self):
        g, y = er_instance(10, n_lo=10, n_hi=60)
        spec = MetricSpec(terms=((1, 1, 1.0),))
        got = polynomial_metric(g, y, spec)
        ref = oracle.exact_polynomial_metric(g, y, spec)
        assert abs(got - ref) / max(abs(ref), 1.0) <= 1e-6

    def test_stages_never_read_edge_count(self):
        g, y = er_instance(12, n_lo=15, n_hi=30)
        blocked = block_edge_count(g)
        got = polynomial_metric(blocked, y, tv_metric_spec())
        assert got == pytest.approx(oracle.exact_total_variation(g, y), rel=1e-6)


class TestShiftAttributes:
    def test_shift(self):
        assert shift_attributes([1.0, 2.0, 3.0], 10.0) == [11.0, 12.0, 13.0]

    def test_shift_enlarges_delta1(self):
        from linkmetrics.engine import distributed_delta1

        g = triangle()
        y = [1.0, 2.0, 3.0]
        assert distributed_delta1(g, y) == 1.5
        assert distributed_delta1(g, shift_attributes(y, 10.0)) == 11.5

    def test_zero_shift_rejected(self):
        with pytest.raises(ValueError):
            shift_attributes([1.0], 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_tv_invariant_under_shift(self, seed):
        g, y = er_instance(seed, n_lo=20, n_hi=80)
        shifted = shift_attributes(y, 10.0)
        ref = oracle.exact_total_variation(g, y)
        ref_shift = oracle.exact_total_variation(g, shifted)
        assert abs(ref - ref_shift) / max(ref, 1e-300) <= 1e-8
        tv = total_variation_pipeline(g, y).total_variation
        tv_shift = total_variation_pipeline(g, shifted).total_variation
        assert abs(tv - tv_shift) / max(ref, 1e-300) <= 1e-6
