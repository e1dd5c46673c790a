import hashlib
import json
import math
from fractions import Fraction

import pytest

from linkmetrics import cli
from linkmetrics.cli import (
    ExperimentConfig,
    build_parser,
    config_from_args,
    generate_attributes,
    generate_synthetic,
    main,
    parse_attribute_file,
    run_experiment,
)
from linkmetrics.graph import is_connected

from helpers import reference_generate_synthetic

TRIANGLE_EDGES = "0 1\n1 2\n0 2\n"
TRIANGLE_ATTRS = "0 1.0\n1 2.0\n2 3.0\n"


@pytest.fixture
def triangle_files(tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text(TRIANGLE_EDGES)
    attrs = tmp_path / "attrs.txt"
    attrs.write_text(TRIANGLE_ATTRS)
    return edges, attrs


class TestGenerateSynthetic:
    def test_p_one_gives_complete_graph(self):
        g = generate_synthetic(5, 1.0, 123)
        assert g.node_count == 5
        assert g.edge_count == 10

    def test_deterministic(self):
        a = generate_synthetic(100, 0.05, 7)
        b = generate_synthetic(100, 0.05, 7)
        assert a == b

    def test_output_connected(self):
        g = generate_synthetic(100, 0.05, 7)
        assert is_connected(g)

    def test_bad_p_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(10, 0.0, 1)

    def test_p_too_small_gives_no_edges(self):
        with pytest.raises(ValueError, match="no edges"):
            generate_synthetic(10, 1e-12, 1)

    @pytest.mark.parametrize(
        "n, p, seed", [(5, 1.0, 123), (100, 0.05, 7), (200, 0.025, 42), (520, 4 / 519, 77)]
    )
    def test_equals_per_pair_reference(self, n, p, seed):
        assert generate_synthetic(n, p, seed) == reference_generate_synthetic(n, p, seed)

    def test_er_tv_instance_pinned(self):
        # The benchmark's er-tv graph; the digest was taken from the
        # per-pair generator.
        g = generate_synthetic(1000, 0.005, 42)
        assert (g.node_count, g.edge_count) == (989, 2422)
        digest = hashlib.sha256(repr(list(g.edges())).encode()).hexdigest()
        assert digest == "f752eb3ed9e76d10f4ceb2757c7fe7ae3dd63aad4daf937b6acb511fa40aacf8"


class TestGenerateAttributes:
    def test_sample_mean_near_target(self):
        g = generate_synthetic(400, 0.05, 3)
        # draw many values across several seeds for a stable mean check
        draws = []
        for seed in range(30):
            draws.extend(generate_attributes(g, 5.0, seed))
        assert abs(math.fsum(draws) / len(draws) - 5.0) <= 0.5

    def test_deterministic(self):
        g = generate_synthetic(50, 0.1, 5)
        assert generate_attributes(g, 5.0, 11) == generate_attributes(g, 5.0, 11)

    def test_all_positive(self):
        g = generate_synthetic(50, 0.1, 5)
        assert all(v > 0 for v in generate_attributes(g, 5.0, 2))

    @pytest.mark.parametrize("mean", [math.inf, math.nan])
    def test_nonfinite_mean_rejected(self, mean):
        g = generate_synthetic(50, 0.1, 5)
        with pytest.raises(ValueError, match="finite"):
            generate_attributes(g, mean, 2)


class TestParseAttributeFile:
    def test_maps_original_ids(self):
        from linkmetrics.graph import parse_edge_list

        g = parse_edge_list("10 20\n20 30")
        y = parse_attribute_file("30 3.0\n10 1.0\n20 2.0", g)
        assert y == [1.0, 2.0, 3.0]

    def test_missing_node_named(self):
        from linkmetrics.graph import parse_edge_list

        g = parse_edge_list("10 20\n20 30")
        with pytest.raises(ValueError, match="30"):
            parse_attribute_file("10 1.0\n20 2.0", g)

    def test_duplicate_rejected(self):
        from linkmetrics.graph import parse_edge_list

        g = parse_edge_list("0 1")
        with pytest.raises(ValueError):
            parse_attribute_file("0 1.0\n0 2.0\n1 1.0", g)

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_nonfinite_rejected(self, value):
        from linkmetrics.graph import parse_edge_list

        g = parse_edge_list("0 1")
        with pytest.raises(ValueError, match="finite"):
            parse_attribute_file(f"0 1.0\n1 {value}", g)


class TestWriteTraceCsv:
    def test_bytes_match_one_formatted_row_per_state(self, tmp_path):
        specials = [1.0, -0.0, 1e-300, math.inf, -math.inf, math.nan, 0.1 + 0.2, -7e22]
        trace = [[specials[(it + node) % len(specials)] for node in range(11)] for it in range(12)]
        path = tmp_path / "trace.csv"
        cli._write_trace_csv(path, trace)
        rows = "".join(
            f"{it},{node},{state!r}\n"
            for it, states in enumerate(trace)
            for node, state in enumerate(states)
        )
        assert path.read_bytes() == ("iteration,node_id,state\n" + rows).encode()


class TestRunExperiment:
    def test_triangle_tv_summary(self, triangle_files, tmp_path):
        edges, attrs = triangle_files
        out = tmp_path / "out"
        code = run_experiment(
            ExperimentConfig(
                edges_path=str(edges), attrs_path=str(attrs),
                with_oracle=True, out_dir=str(out),
            )
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["graph"] == {"n": 3, "m": 3}
        alphas = summary["alphas"]
        assert alphas["alpha1"] == pytest.approx(14.0 / 3.0, abs=1e-6)
        assert alphas["alpha2"] == pytest.approx(11.0 / 6.0, abs=1e-6)
        assert alphas["alpha3"] == pytest.approx(2.0, abs=1e-6)
        assert summary["metric_value"] == pytest.approx(2.0, abs=1e-6)
        assert abs(summary["oracle"]["delta"]) <= 1e-6
        for name in ("stage1", "stage2", "stage3"):
            assert (out / f"{name}_trace.csv").exists()
        header = (out / "stage1_trace.csv").read_text().splitlines()[0]
        assert header == "iteration,node_id,state"

    def test_missing_attribute_exits_1(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text(TRIANGLE_EDGES)
        attrs = tmp_path / "attrs.txt"
        attrs.write_text("0 1.0\n1 2.0\n")
        code = main(["--edges", str(edges), "--attrs", str(attrs), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "2" in capsys.readouterr().err

    def test_divergent_epsilon_exits_2(self, tmp_path):
        code = main([
            "--er", "8", "0.6", "--seed", "3", "--exp-mean", "5",
            "--epsilon", "1.5", "--allow-unstable-epsilon",
            "--max-iters", "200", "--no-traces",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_byte_identical_reruns(self, tmp_path):
        argv = [
            "--er", "30", "0.2", "--seed", "9", "--exp-mean", "5",
            "--oracle", "--analyze",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        for name in sorted(p.name for p in out_a.iterdir()):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_shift_run_outputs(self, triangle_files, tmp_path):
        edges, attrs = triangle_files
        out = tmp_path / "out"
        code = run_experiment(
            ExperimentConfig(
                edges_path=str(edges), attrs_path=str(attrs),
                shift=10.0, out_dir=str(out),
            )
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        shifted = summary["shifted"]
        assert shifted["delta1_before"] == pytest.approx(1.5)
        assert shifted["delta1_after"] == pytest.approx(11.5)
        assert shifted["metric_value"] == pytest.approx(2.0, abs=1e-6)
        assert (out / "shifted" / "stage2_trace.csv").exists()

    def test_poly_metric_run(self, triangle_files, tmp_path):
        edges, attrs = triangle_files
        spec = tmp_path / "spec.txt"
        spec.write_text("# f = u*v\n1 1 1.0\n")
        out = tmp_path / "out"
        code = main([
            "--edges", str(edges), "--attrs", str(attrs),
            "--metric", "poly", "--spec", str(spec),
            "--oracle", "--out", str(out),
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["metric_value"] == pytest.approx(11.0 / 3.0, abs=1e-6)
        assert abs(summary["oracle"]["delta"]) <= 1e-6
        assert (out / "term_1_1_stage1_trace.csv").exists()

    def test_spectral_summary_fields(self, triangle_files, tmp_path):
        edges, attrs = triangle_files
        out = tmp_path / "out"
        code = main([
            "--edges", str(edges), "--attrs", str(attrs),
            "--analyze", "--out", str(out),
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        for stage in ("stage1", "stage2", "stage3"):
            entry = summary["spectral"][stage]
            assert entry["lambda1"] == pytest.approx(1.0, abs=1e-9)
            assert 0.0 <= entry["rho"] < 1.0

    def test_infinite_attribute_exits_1(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text(TRIANGLE_EDGES)
        attrs = tmp_path / "attrs.txt"
        attrs.write_text("0 1.0\n1 inf\n2 3.0\n")
        out = tmp_path / "o"
        assert main(["--edges", str(edges), "--attrs", str(attrs), "--out", str(out)]) == 1
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("metric", [["--metric", "tv"], ["--metric", "poly"]])
    def test_overflowing_attribute_power_exits_1(self, tmp_path, capsys, metric):
        edges = tmp_path / "edges.txt"
        edges.write_text(TRIANGLE_EDGES)
        attrs = tmp_path / "attrs.txt"
        attrs.write_text("0 1e200\n1 2.0\n2 3.0\n")
        spec = tmp_path / "spec.txt"
        spec.write_text("0 2 1.0\n")
        out = tmp_path / "o"
        argv = ["--edges", str(edges), "--attrs", str(attrs), "--out", str(out)] + metric
        if metric[1] == "poly":
            argv += ["--spec", str(spec)]
        assert main(argv) == 1
        assert "node 0" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize(
        "edges_text, attrs_text, extra",
        [
            # 1.3e154 squared is finite, but a stage-1 neighbor sum is not.
            (TRIANGLE_EDGES, "0 1.3e154\n1 1e-3\n2 2.0\n", []),
            (TRIANGLE_EDGES, "0 1.3e154\n1 1e-3\n2 2.0\n", ["--oracle"]),
            (TRIANGLE_EDGES, "0 1.3e154\n1 1e-3\n2 2.0\n", ["poly", "1 1 1.0\n2 0 1.0\n"]),
            # The stages run; the reference edge sum leaves the float range.
            (
                "".join(f"{i} {(i + 1) % 10}\n" for i in range(10)),
                "".join(f"{i} {1.0 if i % 2 == 0 else 5e153}\n" for i in range(10)),
                ["--oracle", "--max-iters", "200"],
            ),
            # Finite, converged stages whose product overflows.
            (TRIANGLE_EDGES, "0 1e200\n1 2e200\n2 3e200\n", ["--oracle", "poly", "1 1 1.0\n"]),
            # Finite terms whose sum overflows.
            (TRIANGLE_EDGES, "0 1.0\n1 1.0\n2 1.0\n", ["poly", "0 0 1.7e308\n1 0 1e308\n"]),
        ],
        ids=["tv-stage", "tv-stage-oracle", "poly-stage", "oracle", "poly-term", "poly-sum"],
    )
    def test_overflowing_arithmetic_exits_1(self, tmp_path, capsys, edges_text, attrs_text, extra):
        edges = tmp_path / "edges.txt"
        edges.write_text(edges_text)
        attrs = tmp_path / "attrs.txt"
        attrs.write_text(attrs_text)
        out = tmp_path / "o"
        argv = ["--edges", str(edges), "--attrs", str(attrs), "--no-traces", "--out", str(out)]
        if "poly" in extra:
            spec = tmp_path / "spec.txt"
            spec.write_text(extra[-1])
            extra = extra[:-2] + ["--metric", "poly", "--spec", str(spec)]
        assert main(argv + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflows" in err
        assert not (out / "summary.json").exists()

    def test_underflowing_attribute_power_runs(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text(TRIANGLE_EDGES)
        attrs = tmp_path / "attrs.txt"
        attrs.write_text("0 1e-170\n1 2.0\n2 3.0\n")
        out = tmp_path / "o"
        argv = ["--edges", str(edges), "--attrs", str(attrs), "--no-traces", "--out", str(out)]
        assert main(argv) == 0
        assert (out / "summary.json").exists()

    def test_states_near_float_max_converge(self, tmp_path):
        # Stage 1 starts from 1.0 and 2.5e307, whose spread never gets below
        # the absolute 1e-10; the 16-ulp floor lets all three stages stop.
        edges = tmp_path / "edges.txt"
        edges.write_text("".join(f"{i} {(i + 1) % 10}\n" for i in range(10)))
        y = [1.0 if i % 2 == 0 else 5e153 for i in range(10)]
        attrs = tmp_path / "attrs.txt"
        attrs.write_text("".join(f"{i} {v!r}\n" for i, v in enumerate(y)))
        out = tmp_path / "o"
        argv = ["--edges", str(edges), "--attrs", str(attrs), "--no-traces", "--out", str(out)]
        # A cap far above the ~150 rounds each stage needs keeps a regression short.
        assert main(argv + ["--max-iters", "10000"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert all(s["converged"] and s["iterations"] < 1000 for s in summary["stages"])
        exact = sum((Fraction(y[i]) - Fraction(y[(i + 1) % 10])) ** 2 for i in range(10)) / 10
        assert summary["metric_value"] == pytest.approx(float(exact), rel=1e-12)

    def test_poly_shift_rejected(self, triangle_files, tmp_path):
        edges, attrs = triangle_files
        spec = tmp_path / "spec.txt"
        spec.write_text("1 1 1.0\n")
        code = main([
            "--edges", str(edges), "--attrs", str(attrs),
            "--metric", "poly", "--spec", str(spec),
            "--shift", "10", "--out", str(tmp_path / "o"),
        ])
        assert code == 1

    def test_spec_without_poly_rejected(self, triangle_files, tmp_path, capsys):
        edges, attrs = triangle_files
        spec = tmp_path / "spec.txt"
        spec.write_text("1 1 1.0\n")
        out = tmp_path / "o"
        code = main([
            "--edges", str(edges), "--attrs", str(attrs), "--spec", str(spec),
            "--out", str(out),
        ])
        assert code == 1
        assert "--spec" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_seed_without_synthetic_source_rejected(self, triangle_files, tmp_path, capsys):
        edges, attrs = triangle_files
        out = tmp_path / "o"
        code = main([
            "--edges", str(edges), "--attrs", str(attrs), "--seed", "3",
            "--out", str(out),
        ])
        assert code == 1
        assert "--seed" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("shift", [math.inf, math.nan, 0.0])
    def test_shift_must_be_positive_and_finite(self, shift):
        with pytest.raises(ValueError, match="--shift"):
            ExperimentConfig(edges_path="x", attrs_path="y", shift=shift).validate()

    def test_poly_analyze_reports_every_stage(self, triangle_files, tmp_path):
        edges, attrs = triangle_files
        spec = tmp_path / "spec.txt"
        spec.write_text("1 1 1.0\n2 0 1.0\n")
        out = tmp_path / "out"
        code = main([
            "--edges", str(edges), "--attrs", str(attrs),
            "--metric", "poly", "--spec", str(spec),
            "--analyze", "--out", str(out),
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        names = [s["stage"] for s in summary["stages"]]
        assert names == [
            "term_1_1_stage1", "term_1_1_stage2", "term_2_0_stage1", "term_2_0_stage2",
        ]
        assert list(summary["spectral"]) == names
        for stage in summary["stages"]:
            entry = summary["spectral"][stage["stage"]]
            assert entry["epsilon"] == stage["epsilon"]
            assert entry["lambda1"] == pytest.approx(1.0, abs=1e-9)
            assert 0.0 <= entry["rho"] < 1.0

    @pytest.mark.parametrize(
        "spec, reports",
        [(None, 2), ("1 1 1\n2 0 1\n1 0 1\n", 2)],
        ids=["tv", "assortativity"],
    )
    def test_one_spectral_report_per_weights_and_epsilon(
        self, spec, reports, triangle_files, tmp_path, monkeypatch
    ):
        # Every k = 0 stage runs with w = d and the same epsilon.
        calls = []
        real = cli.spectral.spectral_report
        monkeypatch.setattr(
            cli.spectral, "spectral_report", lambda *a: calls.append(a) or real(*a)
        )
        edges, attrs = triangle_files
        argv = ["--edges", str(edges), "--attrs", str(attrs), "--analyze"]
        if spec is not None:
            (tmp_path / "spec.txt").write_text(spec)
            argv += ["--metric", "poly", "--spec", str(tmp_path / "spec.txt")]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 0
        assert len(calls) == reports
        summary = json.loads((out / "summary.json").read_text())
        assert list(summary["spectral"]) == [s["stage"] for s in summary["stages"]]

    def test_shared_run_trace_formatted_once(self, triangle_files, tmp_path, monkeypatch):
        # Six stage entries from four distinct runs: S(1,1), S(1,0), S(2,0), S(0,0).
        calls = []
        real = cli._write_trace_csv
        monkeypatch.setattr(
            cli, "_write_trace_csv",
            lambda path, trace: calls.append(path.name) or real(path, trace),
        )
        edges, attrs = triangle_files
        spec = tmp_path / "spec.txt"
        spec.write_text("1 1 1\n2 0 1\n1 0 1\n")
        out = tmp_path / "out"
        assert main([
            "--edges", str(edges), "--attrs", str(attrs),
            "--metric", "poly", "--spec", str(spec), "--out", str(out),
        ]) == 0
        assert calls == [
            "term_1_1_stage1_trace.csv", "term_1_1_stage2_trace.csv",
            "term_2_0_stage1_trace.csv", "term_2_0_stage2_trace.csv",
        ]
        for copy, first in [
            ("term_1_0_stage1", "term_1_1_stage2"), ("term_1_0_stage2", "term_2_0_stage2"),
        ]:
            copied = (out / f"{copy}_trace.csv").read_bytes()
            assert copied == (out / f"{first}_trace.csv").read_bytes()

    def test_traces_released_once_written(self, triangle_files, tmp_path, monkeypatch):
        runs = []
        real_metric = cli._run_metric

        def run_metric(*args):
            value, alphas, stages = real_metric(*args)
            runs.extend(run for _, run in stages)
            return value, alphas, stages

        held = []
        real_report = cli.spectral.spectral_report

        def report(g, w, epsilon):
            held.append([run.trace is not None for run in runs])
            return real_report(g, w, epsilon)

        monkeypatch.setattr(cli, "_run_metric", run_metric)
        monkeypatch.setattr(cli.spectral, "spectral_report", report)
        edges, attrs = triangle_files
        out = tmp_path / "out"
        assert main([
            "--edges", str(edges), "--attrs", str(attrs), "--analyze",
            "--shift", "10", "--out", str(out),
        ]) == 0
        assert held and not any(any(h) for h in held)
        assert len(runs) == 6 and all(run.trace is None for run in runs)
        for name in ("stage2", "shifted/stage2"):
            lines = (out / f"{name}_trace.csv").read_text().splitlines()
            assert len(lines) > 3

    def test_absent_flags_keep_config_defaults(self):
        args = build_parser().parse_args(["--edges", "e.txt", "--attrs", "a.txt"])
        assert config_from_args(args) == ExperimentConfig(edges_path="e.txt", attrs_path="a.txt")

    def test_flags_map_to_config_fields(self):
        args = build_parser().parse_args([
            "--er", "30", "0.2", "--seed", "9", "--exp-mean", "5", "--metric", "poly",
            "--spec", "s.txt", "--eps-frac", "0.5", "--epsilon", "0.1", "--shift", "2",
            "--analyze", "--oracle", "--out", "d", "--allow-unstable-epsilon",
            "--max-iters", "7", "--tol-step", "1e-9", "--tol-spread", "1e-8", "--no-traces",
        ])
        assert config_from_args(args) == ExperimentConfig(
            er_n=30, er_p=0.2, seed=9, exp_mean=5.0, metric="poly", spec_path="s.txt",
            eps_fraction=0.5, epsilon=0.1, shift=2.0, analyze=True, with_oracle=True,
            out_dir="d", allow_unstable_epsilon=True, max_iterations=7,
            step_tolerance=1e-9, spread_tolerance=1e-8, write_traces=False,
        )

    def test_conflicting_sources_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(edges_path="x", er_n=5, er_p=0.5, seed=1,
                             exp_mean=5.0).validate()

    def test_synthetic_without_seed_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(er_n=5, er_p=0.5, exp_mean=5.0).validate()
