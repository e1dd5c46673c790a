import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linkmetrics import cli, engine, oracle
from linkmetrics.engine import ConsensusConfig
from linkmetrics.graph import from_edges
from linkmetrics.metrics import (
    MetricSpec,
    parse_metric_spec,
    polynomial_metric,
    polynomial_metric_terms,
    shift_attributes,
    stage_plan,
    total_variation_pipeline,
    tv_metric_spec,
)

from helpers import (
    block_edge_count,
    cycle,
    er_instance,
    evaluate_spec,
    path,
    preferential_attachment,
    reference_polynomial_terms,
    reference_total_variation,
    triangle,
)


class TestMetricSpec:
    def test_duplicate_term_rejected(self):
        with pytest.raises(ValueError):
            MetricSpec(terms=((1, 1, 2.0), (1, 1, 3.0)))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            MetricSpec(terms=((-1, 0, 1.0),))

    def test_evaluate_tv_form(self):
        spec = tv_metric_spec()
        assert evaluate_spec(spec, 3.0, 1.0) == 4.0

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


@st.composite
def small_connected_graphs(draw, n):
    """A random spanning tree on n nodes plus up to n more edges."""
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges += draw(st.lists(st.sampled_from(pairs), max_size=n))
    return from_edges(n, edges)


class TestTotalVariationPipeline:
    def test_triangle_fixture(self):
        r = total_variation_pipeline(triangle(), [1.0, 2.0, 3.0])
        assert r.alpha1 == pytest.approx(14.0 / 3.0, abs=1e-9)
        assert r.alpha2 == pytest.approx(11.0 / 6.0, abs=1e-9)
        assert r.alpha3 == pytest.approx(2.0, abs=1e-9)
        assert r.total_variation == pytest.approx(2.0, abs=1e-9)
        assert r.delta1 == 1.5
        assert all(run.converged for run in r.runs)

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

    def test_overflowing_square_rejected(self):
        with pytest.raises(ValueError, match="node 2: .* power 2"):
            total_variation_pipeline(triangle(), [1.0, 2.0, 1e200])

    def test_stages_never_read_edge_count(self):
        g, y = er_instance(4, n_lo=15, n_hi=30)
        blocked = block_edge_count(g)
        r = total_variation_pipeline(blocked, y)
        assert r.total_variation == pytest.approx(
            oracle.exact_total_variation(g, y), rel=1e-6
        )

    def test_four_runs_with_s00_ending_at_round_0(self, monkeypatch):
        seen = []
        real = engine.wac_run
        monkeypatch.setattr(engine, "wac_run", lambda *a: seen.append(real(*a)) or seen[-1])
        g, y = er_instance(3, n_lo=20, n_hi=40)
        r = total_variation_pipeline(g, y)
        assert len(seen) == 4
        s00 = seen[1]
        assert s00.final_states.tolist() == [1.0] * g.node_count
        assert s00.iterations_used == 0 and s00.consensus_value == 1.0
        # Runs compare by identity: the result lists S(2,0), S(1,1), S(1,0).
        assert r.runs == (seen[0], seen[2], seen[3])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_bits_equal_three_stage_formula(self, data):
        n = data.draw(st.integers(2, 8))
        g = data.draw(small_connected_graphs(n))
        scale = 10.0 ** data.draw(st.integers(-6, 6))
        y = [scale * v for v in data.draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))]
        cfg = ConsensusConfig(max_iterations=2000)
        got = total_variation_pipeline(g, y, cfg)
        want = reference_total_variation(g, y, cfg)
        assert got.total_variation.hex() == want.total_variation.hex()
        assert [a.hex() for a in (got.alpha1, got.alpha2, got.alpha3)] == [
            a.hex() for a in want.alphas
        ]
        assert [r.iterations_used for r in got.runs] == [r.iterations_used for r in want.runs]


def one_term(g, y, l, k, c):
    """The pipeline of the single term (l, k) with coefficient c."""
    return polynomial_metric_terms(g, y, MetricSpec(((l, k, c),)))[0]


class TestPolynomialTermPipeline:
    def test_triangle_cross_term(self):
        t = one_term(triangle(), [1.0, 2.0, 3.0], 1, 1, 1.0)
        assert t.alpha_1lk == pytest.approx(11.0 / 6.0, abs=1e-9)
        assert t.alpha_2lk == pytest.approx(2.0, abs=1e-9)
        assert t.h_lk == pytest.approx(11.0 / 3.0, abs=1e-9)

    def test_constant_term_is_one(self):
        g, y = er_instance(5, n_lo=10, n_hi=30)
        t = one_term(g, y, 0, 0, 1.0)
        assert t.h_lk == pytest.approx(1.0, abs=1e-8)

    def test_zero_coefficient(self):
        t = one_term(triangle(), [1.0, 2.0, 3.0], 2, 1, 0.0)
        assert t.h_lk == 0.0

    @pytest.mark.parametrize("l, k", [(2, 0), (0, 2)])
    def test_overflowing_power_rejected(self, l, k):
        with pytest.raises(ValueError, match="node 0"):
            one_term(triangle(), [1e200, 2.0, 3.0], l, k, 1.0)


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


# The edge averages behind Newman's degree assortativity: terms (1,1) and
# (1,0) share S(1,0), terms (2,0) and (1,0) share S(0,0).
ASSORTATIVITY = MetricSpec(terms=((1, 1, 1.0), (2, 0, 1.0), (1, 0, 1.0)))


@st.composite
def spec_instances(draw):
    """A small connected graph, positive attributes and a spec of up to
    four distinct terms with exponents 0..3."""
    n = draw(st.integers(2, 8))
    g = draw(small_connected_graphs(n))
    y = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
    lks = draw(st.lists(exponents, min_size=1, max_size=4, unique=True))
    cs = draw(st.lists(st.floats(-5.0, 5.0), min_size=len(lks), max_size=len(lks)))
    spec = MetricSpec(terms=tuple((l, k, c) for (l, k), c in zip(lks, cs)))
    return g, y, spec


class TestSharedStages:
    """Terms that share a stage S(l, k) share its one run."""

    @pytest.mark.parametrize(
        "spec, calls", [(ASSORTATIVITY, 4), (tv_metric_spec(), 5)],
        ids=["assortativity", "tv"],
    )
    def test_one_wac_run_per_distinct_stage(self, spec, calls, monkeypatch):
        seen = []
        real = engine.wac_run
        monkeypatch.setattr(engine, "wac_run", lambda *a: seen.append(a) or real(*a))
        g, y = er_instance(3, n_lo=20, n_hi=40)
        polynomial_metric_terms(g, y, spec)
        assert len(seen) == calls

    def test_shared_stage_is_one_run(self):
        g, y = er_instance(3, n_lo=20, n_hi=40)
        uv, uu, u = polynomial_metric_terms(g, y, ASSORTATIVITY)
        assert uv.runs[1] is u.runs[0]
        assert uu.runs[1] is u.runs[1]

    @settings(max_examples=60, deadline=None)
    @given(spec_instances())
    def test_terms_equal_independent_stage_runs(self, instance):
        g, y, spec = instance
        cfg = ConsensusConfig(max_iterations=2000)
        got = polynomial_metric_terms(g, y, spec, cfg)
        want = reference_polynomial_terms(g, y, spec, cfg)
        assert len(got) == len(want)
        for t, r in zip(got, want):
            assert (t.l, t.k, t.c_lk) == (r.l, r.k, r.c_lk)
            assert (t.alpha_1lk, t.alpha_2lk, t.h_lk) == (r.alpha_1lk, r.alpha_2lk, r.h_lk)
            for a, b in zip(t.runs, r.runs):
                assert a.iterations_used == b.iterations_used
                assert a.final_states.tolist() == b.final_states.tolist()


class TestStagePlan:
    """`stage_plan` orders every metric's runs and names its outputs."""

    def test_tv_plan_names_the_runs_of_tv_result(self, monkeypatch):
        plan = stage_plan(None)
        assert plan == [("stage1", (2, 0)), (None, (0, 0)), ("stage2", (1, 1)), ("stage3", (1, 0))]
        made = []
        real = engine.wac_run
        monkeypatch.setattr(engine, "wac_run", lambda *a: made.append(real(*a)) or made[-1])
        g, y = er_instance(3, n_lo=20, n_hi=40)
        tv = total_variation_pipeline(g, y)
        runs = dict(zip(dict.fromkeys(lk for _, lk in plan), made))
        named = [runs[lk] for name, lk in plan if name is not None]
        assert len(named) == len(tv.runs) == 3
        assert all(a is b for a, b in zip(named, tv.runs))

    @settings(max_examples=30, deadline=None)
    @given(spec_instances())
    def test_plan_orders_runs_and_names_outputs(self, instance):
        g, y, spec = instance
        plan = stage_plan(spec)
        names = [name for name, _ in plan]
        assert len(set(names)) == len(names)
        calls = []
        real = engine.wac_run
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "wac_run", lambda *a: calls.append(a[1:3]) or real(*a))
            polynomial_metric_terms(g, y, spec, ConsensusConfig(max_iterations=2000))
        order = list(dict.fromkeys(lk for _, lk in plan))
        assert len(calls) == len(order)
        for (x0, w), (l, k) in zip(calls, order):
            assert x0.tolist() == engine.node_powers(y, l).tolist()
            assert list(w) == list(engine.neighbor_weight_sums(g, y, k))

        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            (d / "edges.txt").write_text("".join(f"{i} {j}\n" for i, j in g.edges()))
            (d / "attrs.txt").write_text("".join(f"{i} {v!r}\n" for i, v in enumerate(y)))
            (d / "spec.txt").write_text("".join(f"{l} {k} {c!r}\n" for l, k, c in spec.terms))
            out = d / "out"
            assert cli.main([
                "--edges", str(d / "edges.txt"), "--attrs", str(d / "attrs.txt"),
                "--metric", "poly", "--spec", str(d / "spec.txt"),
                "--max-iters", "2000", "--out", str(out),
            ]) in (0, 2)
            summary = json.loads((out / "summary.json").read_text())
            assert [s["stage"] for s in summary["stages"]] == names
            traces = sorted(p.name for p in out.glob("*_trace.csv"))
            assert traces == sorted(f"{name}_trace.csv" for name in names)


def _contract_instance(kind, seed):
    """A seeded ER or preferential-attachment graph with attributes."""
    if kind == "er":
        return er_instance(seed, n_lo=20, n_hi=60)
    g = preferential_attachment(40, 2, seed)
    return g, cli.generate_attributes(g, 5.0, seed)


CONTRACT_CASES = [("er", 2), ("er", 13), ("pa", 3), ("pa", 8)]


def _metric_runs(g, y, cfg=None):
    tv = total_variation_pipeline(g, y, cfg)
    spec = MetricSpec(terms=((1, 1, 1.0), (2, 0, 1.0), (0, 3, 0.5)))
    terms = polynomial_metric_terms(g, y, spec, cfg)
    return tv, [*tv.runs, *(run for t in terms for run in t.runs)]


class TestStepSizeContract:
    """Every stage of both metrics runs at the fraction of its own bound
    min_i w_i/d_i, or at the explicit epsilon verbatim."""

    @pytest.mark.parametrize("kind, seed", CONTRACT_CASES)
    def test_default_step_is_fraction_of_stage_bound(self, kind, seed):
        g, y = _contract_instance(kind, seed)
        tv, runs = _metric_runs(g, y)
        assert len(runs) == 9
        for run in runs:
            central = min(w / d for w, d in zip(run.weights, g.degrees))
            assert run.max_step_bound == central
            assert run.epsilon == 0.9 * run.max_step_bound
        assert tv.delta1 == tv.runs[1].max_step_bound

    @pytest.mark.parametrize("kind, seed", CONTRACT_CASES)
    def test_explicit_epsilon_applies_to_every_stage(self, kind, seed):
        g, y = _contract_instance(kind, seed)
        _, runs = _metric_runs(g, y)
        eps = 0.5 * min(run.max_step_bound for run in runs)
        _, runs = _metric_runs(g, y, ConsensusConfig(epsilon=eps))
        assert [run.epsilon for run in runs] == [eps] * len(runs)


class TestOverflowingStages:
    def test_stage_arithmetic_overflow_names_stage(self):
        # 1.3e154 squared is finite, twice it is not.
        with pytest.raises(ValueError, match=r"S\(2,0\)"):
            total_variation_pipeline(triangle(), [1.3e154, 1e-3, 2.0])

    def test_finite_alphas_overflowing_total_variation_rejected(self):
        # On a single edge the squares pass the stage check, but the term
        # 2*alpha1 overflows.
        cfg = ConsensusConfig(max_iterations=200)
        with pytest.raises(ValueError, match=r"term \(2,0\) overflows"):
            total_variation_pipeline(path(2), [1e154, 1.2e154], cfg)

    def test_finite_alphas_overflowing_term_rejected(self):
        with pytest.raises(ValueError, match=r"term \(1,1\) overflows"):
            one_term(triangle(), [1e200, 2e200, 3e200], 1, 1, 1.0)

    def test_underflowing_weight_names_stage_and_node(self):
        # (1e-200)**2 underflows to 0, so every weight of S(1,2) is 0.0. A
        # graph built in memory is labelled by its indices.
        spec = MetricSpec(terms=((1, 2, 1.0),))
        with pytest.raises(ValueError, match=r"^stage S\(1,2\): node 0: weight underflows to 0\.0$"):
            polynomial_metric(triangle(), [1e-200] * 3, spec)
        # On the path 0-1-2 only the middle node's neighbors are all tiny.
        with pytest.raises(ValueError, match=r"node 1: weight underflows"):
            polynomial_metric(path(3), [1e-200, 1.0, 1e-200], spec)

    def test_overflowing_term_sum_rejected(self):
        spec = MetricSpec(terms=((0, 0, 1.7e308), (1, 0, 1e308)))
        with pytest.raises(ValueError, match="polynomial metric overflows"):
            polynomial_metric(triangle(), [1.0, 1.0, 1.0], spec)


class TestAttributeScale:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("s", [1e-6, 1e-3, 1e3, 1e6])
    def test_tv_scales_with_square(self, s, seed):
        """TV(s * y) = s**2 * TV(y): tolerances scale with states below 1."""
        g, y = er_instance(seed, n_lo=20, n_hi=60)
        expect = s * s * total_variation_pipeline(g, y).total_variation
        got = total_variation_pipeline(g, [s * v for v in y]).total_variation
        assert abs(got - expect) <= 1e-9 * expect


class TestShiftAttributes:
    def test_shift(self):
        assert shift_attributes([1.0, 2.0, 3.0], 10.0) == [11.0, 12.0, 13.0]

    def test_shift_enlarges_delta1(self):
        def delta1(g, y):
            return engine.max_step_size(engine.neighbor_weight_sums(g, y, 1), g)

        g = triangle()
        y = [1.0, 2.0, 3.0]
        assert delta1(g, y) == 1.5
        assert delta1(g, shift_attributes(y, 10.0)) == 11.5

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

    @pytest.mark.parametrize("c", [1e-6, 1e-3, 1.0, 1e2, 1e4, 1e6])
    def test_tv_invariant_up_to_cancellation_floor(self, c):
        """TV(y + c) = TV(y) within the floor of 2*alpha1 - 2*alpha2*alpha3.

        With M = max(y) + c and u = 2**-52: S(2,0) runs on states up to
        M**2, S(1,1) and S(1,0) on states up to M, so |alpha1| <= M**2 and
        |alpha2|, |alpha3| <= M. A stage's value is the mean of its final
        states, which lies within their spread of their weighted average.
        A stage that the spread test ends has spread at most the scaled
        tolerance s(top) = max(1e-10 * min(1, top), 16 ulp(top)), the 16-ulp
        floor once top passes about 5e4; one the step test ends reports its
        own spread. The weighted average drifts from the exact target by at
        most 2u * top per round: the rounding of each update and of its
        neighbor sum. So stage r is off by e_r <= spread_r + 2 K_r u top_r
        after K_r rounds, and TV by at most 2 e_1 + 2M (e_2 + e_3), plus
        16u M**2 for rounding y_i + c (4u M**2 per squared difference), the
        three means, the product and the difference.
        """
        g, y = er_instance(0)
        shifted = total_variation_pipeline(g, shift_attributes(y, c))
        top = max(y) + c
        u = 2.0**-52
        errors = [
            max(max(1e-10 * min(1.0, t), 16 * math.ulp(t)), float(np.ptp(run.final_states)))
            + 2 * run.iterations_used * u * t
            for run, t in zip(shifted.runs, (top * top, top, top))
        ]
        bound = 2 * errors[0] + 2 * top * (errors[1] + errors[2]) + 16 * u * top * top
        assert abs(shifted.total_variation - oracle.exact_total_variation(g, y)) <= bound

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 5: the step rule ends S(1,1) above the spread tolerance",
    )
    def test_converged_stages_end_within_spread_tolerance(self):
        # Every stage's max |x(0)| is at least 19.8 here, so the default
        # spread tolerance 1e-10 applies unscaled.
        g, y = er_instance(9, n_lo=20, n_hi=60)
        shifted = total_variation_pipeline(g, shift_attributes(y, 1e-6))
        for run in shifted.runs:
            if run.converged:
                assert run.final_states.max() - run.final_states.min() <= 1e-10
