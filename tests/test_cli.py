import dataclasses
import hashlib
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from linkmetrics import cli, engine, metrics
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
from linkmetrics.engine import ConsensusConfig
from linkmetrics.graph import is_connected, parse_edge_list

from helpers import reference_generate_synthetic, write_trace_csv

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
        # SplitMix64.exponential_block checks the mean, and NaN is not > 0.
        message = "finite" if mean > 0 else "mean must be positive"
        with pytest.raises(ValueError, match=message):
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
        write_trace_csv(path, trace)
        rows = "".join(
            f"{it},{node},{state!r}\n"
            for it, states in enumerate(trace)
            for node, state in enumerate(states)
        )
        assert path.read_bytes() == ("iteration,node_id,state\n" + rows).encode()


KITE_EDGES = "0 1\n1 2\n2 3\n3 0\n0 2\n2 4\n"
KITE_ATTRS = "0 1.5\n1 2.0\n2 0.5\n3 3.0\n4 1.25\n"
# Terms (1,1) and (1,0) share S(1,0); terms (2,0) and (1,0) share S(0,0).
SHARED_SPEC = "1 1 1.0\n2 0 1.0\n1 0 1.0\n"
ER_ARGS = ["--er", "30", "0.2", "--seed", "9", "--exp-mean", "5"]


def _tree(root: Path) -> dict[str, bytes | None]:
    """Every path under `root`, relative, with a file's bytes (None for a directory)."""
    return {
        str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
        for p in root.rglob("*")
    }


class TestStreamedTraces:
    """The CLI writes each trace while its run iterates, one block of
    rounds at a time, rather than from a trace held in memory."""

    def _recorded(self, case, tmp_path):
        """CLI arguments, and the expected trace CSV path under out/ of
        every run, recorded in memory."""
        cfg = ConsensusConfig(record_trace=True)
        if case == "poly_shared":
            (tmp_path / "edges.txt").write_text(KITE_EDGES)
            (tmp_path / "attrs.txt").write_text(KITE_ATTRS)
            (tmp_path / "spec.txt").write_text(SHARED_SPEC)
            argv = [
                "--edges", str(tmp_path / "edges.txt"), "--attrs", str(tmp_path / "attrs.txt"),
                "--metric", "poly", "--spec", str(tmp_path / "spec.txt"),
            ]
            g = parse_edge_list(KITE_EDGES)
            y = parse_attribute_file(KITE_ATTRS, g)
            spec = metrics.parse_metric_spec(SHARED_SPEC)
            return argv, {
                f"term_{t.l}_{t.k}_stage{i}_trace.csv": run
                for t in metrics.polynomial_metric_terms(g, y, spec, cfg)
                for i, run in enumerate(t.runs, 1)
            }
        g = generate_synthetic(30, 0.2, 9)
        y = generate_attributes(g, 5.0, 9)
        expected = {}
        for prefix, ys in (("", y), ("shifted/", metrics.shift_attributes(y, 10.0))):
            runs = metrics.total_variation_pipeline(g, ys, cfg).runs
            expected.update({f"{prefix}stage{i}_trace.csv": run for i, run in enumerate(runs, 1)})
        return ER_ARGS + ["--shift", "10"], expected

    @pytest.mark.parametrize("case", ["poly_shared", "shift"])
    def test_streamed_equal_recorded_bytes(self, case, tmp_path):
        argv, expected = self._recorded(case, tmp_path)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 0
        written = sorted(str(p.relative_to(out)) for p in out.rglob("*.csv"))
        assert written == sorted(expected)
        assert max(run.iterations_used for run in expected.values()) > 2 * engine._BLOCK
        reference = tmp_path / "reference.csv"
        for name, run in expected.items():
            write_trace_csv(reference, run.trace)
            assert (out / name).read_bytes() == reference.read_bytes(), name

    def test_memory_does_not_grow_with_rounds(self, tmp_path):
        # Stage 2 needs 7,689 rounds here, so both caps end it. Held in
        # memory, each of its rounds would be a row of 1.6 KB.
        peaks = []
        for cap in (500, 4000):
            argv = ["--er", "200", "0.025", "--seed", "42", "--exp-mean", "5"]
            tracemalloc.start()
            try:
                code = main(argv + ["--max-iters", str(cap), "--out", str(tmp_path / str(cap))])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 2
        assert abs(peaks[1] - peaks[0]) < 2**20

    @pytest.mark.parametrize(
        "extra, opened",
        [
            # y**400 overflows in S(400,0), after S(1,1) and S(1,0) have finished.
            (["--metric", "poly", "--spec", "1 1 1\n400 0 1\n"], 4),
            # Six trace files of four distinct runs, S(1,0) and S(0,0) each
            # under two names, are open when S(400,0) overflows.
            (["--metric", "poly", "--spec", "1 1 1\n1 0 1\n400 0 1\n"], 6),
            # The unstable step size fails S(2,0) once its trace file is open.
            (["--epsilon", "100"], 3),
        ],
        ids=["finished", "shared", "partial"],
    )
    def test_failed_metric_leaves_no_trace(self, extra, opened, tmp_path, monkeypatch):
        files = []
        real = cli.metrics.polynomial_metric_terms

        def terms(*args):
            try:
                return real(*args)
            except ValueError:  # the trace files the failing metric has open
                files.extend(tmp_path.glob(".linkmetrics-*/*_trace.csv"))
                raise

        monkeypatch.setattr(cli.metrics, "polynomial_metric_terms", terms)
        if "--spec" in extra:
            (tmp_path / "spec.txt").write_text(extra[-1])
            extra = extra[:-1] + [str(tmp_path / "spec.txt")]
        out = tmp_path / "out"
        inputs = _tree(tmp_path)
        assert main(ER_ARGS + extra + ["--out", str(out)]) == 1
        assert len(files) == opened
        assert _tree(tmp_path) == inputs

    @pytest.mark.parametrize(
        "edges, big, extra",
        [
            # The metric completes; the reference value then overflows.
            ([(i, j) for i in range(12) for j in range(i + 1, 12)], 2.5e153, ["--oracle"]),
            # The metric completes; the shifted one overflows in S(2,0).
            ([(0, 1), (1, 2), (2, 3), (3, 0)], 9e153, ["--shift", "1e153"]),
        ],
        ids=["oracle", "shifted"],
    )
    def test_failure_after_metric_leaves_out_empty(self, edges, big, extra, tmp_path, capsys):
        n = max(map(max, edges)) + 1
        (tmp_path / "edges.txt").write_text("".join(f"{i} {j}\n" for i, j in edges))
        (tmp_path / "attrs.txt").write_text(
            "".join(f"{i} {1.0 if i % 2 else big!r}\n" for i in range(n))
        )
        out = tmp_path / "out"
        argv = ["--edges", str(tmp_path / "edges.txt"), "--attrs", str(tmp_path / "attrs.txt")]
        inputs = _tree(tmp_path)
        assert main(argv + extra + ["--max-iters", "2000", "--out", str(out)]) == 1
        assert "overflows" in capsys.readouterr().err
        assert _tree(tmp_path) == inputs

    @pytest.mark.parametrize("extra", [[], ["--no-traces"]], ids=["traces", "no-traces"])
    def test_stage_error_removes_every_directory_it_made(self, extra, tmp_path, capsys):
        # S(2,0) squares 1e200 and fails; with traces on, stage1's CSV is
        # staged by then. No part of a/b/out is made.
        (tmp_path / "edges.txt").write_text("100 200\n200 300\n300 100\n")
        (tmp_path / "attrs.txt").write_text("100 1.0\n200 1e200\n300 2.0\n")
        argv = ["--edges", str(tmp_path / "edges.txt"), "--attrs", str(tmp_path / "attrs.txt")]
        inputs = _tree(tmp_path)
        assert main(argv + extra + ["--out", str(tmp_path / "a" / "b" / "out")]) == 1
        assert "node 200" in capsys.readouterr().err
        assert _tree(tmp_path) == inputs

    def test_failure_keeps_what_an_existing_out_held(self, tmp_path, capsys):
        # An earlier run's traces and summary, and files of other origin, are
        # in out when the shifted metric overflows, after the first metric
        # and shifted/ have their traces; none of them changes.
        (tmp_path / "edges.txt").write_text("0 1\n1 2\n2 3\n3 0\n")
        (tmp_path / "good.txt").write_text("0 1.0\n1 2.0\n2 1.0\n3 2.0\n")
        (tmp_path / "attrs.txt").write_text("0 1.0\n1 9e153\n2 1.0\n3 9e153\n")
        out = tmp_path / "out"
        (out / "old").mkdir(parents=True)
        (out / "notes.txt").write_text("kept\n")
        edges = ["--edges", str(tmp_path / "edges.txt")]
        common = ["--shift", "1", "--max-iters", "2000", "--out", str(out)]
        assert main(edges + ["--attrs", str(tmp_path / "good.txt")] + common) == 0
        assert (out / "shifted" / "stage3_trace.csv").is_file()
        before = _tree(tmp_path)
        failing = ["--attrs", str(tmp_path / "attrs.txt"), "--shift", "1e153"]
        assert main(edges + failing + common[2:]) == 1
        assert "overflows" in capsys.readouterr().err
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("extra", [[], ["--no-traces"]], ids=["traces", "no-traces"])
    @pytest.mark.parametrize("name", ["afile", "afile/sub"])
    def test_out_under_a_file_exits_1(self, name, extra, triangle_files, tmp_path, capsys):
        edges, attrs = triangle_files
        (tmp_path / "afile").write_bytes(b"not a directory\n")
        before = _tree(tmp_path)
        argv = ["--edges", str(edges), "--attrs", str(attrs), "--shift", "1"]
        assert main(argv + extra + ["--out", str(tmp_path / name)]) == 1
        assert "error:" in capsys.readouterr().err
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize(
        "name, kind",
        [
            ("summary.json", "directory"),
            ("stage2_trace.csv", "directory"),
            ("shifted", "file"),
            ("shifted", "dangling link"),
        ],
        ids=["summary-dir", "trace-dir", "shifted-file", "shifted-link"],
    )
    def test_obstacle_in_out_is_found_before_any_file_moves(
        self, name, kind, triangle_files, tmp_path, capsys
    ):
        # A directory where a file goes, or a file or a dangling link where
        # shifted/ goes: the run exits 1 naming it, and out keeps what it
        # held, byte for byte.
        edges, attrs = triangle_files
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        if kind == "directory":
            (out / name).mkdir()
        elif kind == "file":
            (out / name).write_text("not a directory\n")
        else:
            (out / name).symlink_to(tmp_path / "missing")
        before = _tree(tmp_path)
        argv = ["--edges", str(edges), "--attrs", str(attrs), "--shift", "1", "--out", str(out)]
        assert main(argv) == 1
        message = "a directory" if kind == "directory" else "not a directory"
        assert f"{out / name} is {message}\n" in capsys.readouterr().err
        assert _tree(tmp_path) == before

    def test_relative_out_stages_beside_it(self, triangle_files, tmp_path, monkeypatch):
        # The staging directory sits in the working directory, beside out.
        monkeypatch.chdir(tmp_path)
        argv = ["--edges", "edges.txt", "--attrs", "attrs.txt", "--shift", "1", "--out", "out"]
        assert main(argv) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["attrs.txt", "edges.txt", "out"]
        traces = [f"{d}stage{i}_trace.csv" for d in ("", "shifted/") for i in (1, 2, 3)]
        assert sorted(_tree(tmp_path / "out")) == sorted(traces + ["shifted", "summary.json"])


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

    def test_diverged_stages_write_nan(self, tmp_path):
        out = tmp_path / "o"
        code = main([
            "--er", "60", "0.1", "--seed", "1", "--exp-mean", "5",
            "--epsilon", "5", "--allow-unstable-epsilon",
            "--max-iters", "2000", "--no-traces", "--out", str(out),
        ])
        assert code == 2
        summary = json.loads((out / "summary.json").read_text())
        assert [s["converged"] for s in summary["stages"]] == [False] * 3
        values = [s["value"] for s in summary["stages"]] + list(summary["alphas"].values())
        assert len(values) == 6 and all(map(math.isnan, values))
        assert math.isnan(summary["metric_value"])

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

    def test_shift_without_traces_writes_only_summary(self, triangle_files, tmp_path):
        edges, attrs = triangle_files
        out = tmp_path / "out"
        assert main([
            "--edges", str(edges), "--attrs", str(attrs), "--shift", "2",
            "--no-traces", "--out", str(out),
        ]) == 0
        assert [p.name for p in out.iterdir()] == ["summary.json"]

    def test_summary_floats_read_back_as_floats(self, triangle_files, tmp_path):
        # Integral floats such as delta = 1.0 on the triangle keep their ".0".
        edges, attrs = triangle_files
        out = tmp_path / "out"
        assert main([
            "--edges", str(edges), "--attrs", str(attrs), "--oracle", "--shift", "10",
            "--no-traces", "--out", str(out),
        ]) == 0
        text = (out / "summary.json").read_text(encoding="utf-8")
        summary = json.loads(text)
        assert text == json.dumps(summary, indent=2) + "\n"
        shifted = summary["shifted"]
        floats = [summary["metric_value"], shifted["metric_value"], shifted["shift"],
                  shifted["delta1_before"], shifted["delta1_after"]]
        for part in (summary, shifted):
            floats += [v for s in part["stages"] for v in (s["epsilon"], s["delta"], s["value"])]
            floats += list(part["alphas"].values())
        oracle = summary["oracle"]
        floats += [oracle["metric_value"], oracle["delta"], *oracle["alphas"].values()]
        assert [type(v) for v in floats] == [float] * 34

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

    def test_summary_key_order(self, triangle_files, tmp_path):
        # The goldens leave out --analyze, whose eigenvalues vary with the LAPACK build.
        edges, attrs = triangle_files
        out = tmp_path / "out"
        assert main([
            "--edges", str(edges), "--attrs", str(attrs), "--analyze", "--oracle",
            "--shift", "10", "--no-traces", "--out", str(out),
        ]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert list(summary) == [
            "graph", "stages", "alphas", "metric_value", "oracle", "spectral", "shifted",
        ]
        assert list(summary["shifted"]) == [
            "shift", "stages", "alphas", "metric_value", "delta1_before", "delta1_after",
        ]
        # Only the main metric's stages are reported, not the shifted ones.
        assert list(summary["spectral"]) == ["stage1", "stage2", "stage3"]

    def test_infinite_attribute_exits_1(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text(TRIANGLE_EDGES)
        attrs = tmp_path / "attrs.txt"
        attrs.write_text("0 1.0\n1 inf\n2 3.0\n")
        out = tmp_path / "o"
        assert main(["--edges", str(edges), "--attrs", str(attrs), "--out", str(out)]) == 1
        assert not (out / "summary.json").exists()

    def test_rejected_attribute_names_file_label(self, tmp_path, capsys):
        # Node 200 is graph index 1; the message names the label in the file.
        edges = tmp_path / "edges.txt"
        edges.write_text("100 200\n200 300\n")
        attrs = tmp_path / "attrs.txt"
        attrs.write_text("100 1.0\n200 -1\n300 2.0\n")
        out = tmp_path / "o"
        assert main(["--edges", str(edges), "--attrs", str(attrs), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: node 200: attribute -1.0 must be positive and finite\n"

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

    @pytest.mark.parametrize("spec_text", [None, "0 2 1.0\n"], ids=["tv", "poly"])
    def test_overflowing_attribute_power_names_file_label(self, tmp_path, capsys, spec_text):
        # Node 200 is graph index 1: a stage input (total variation's S(2,0))
        # or a weight (S(0,2)) names the label in the files.
        edges = tmp_path / "edges.txt"
        edges.write_text("100 200\n200 300\n300 100\n")
        attrs = tmp_path / "attrs.txt"
        attrs.write_text("100 1.0\n200 1e200\n300 2.0\n")
        out = tmp_path / "o"
        argv = ["--edges", str(edges), "--attrs", str(attrs), "--out", str(out)]
        if spec_text is not None:
            spec = tmp_path / "spec.txt"
            spec.write_text(spec_text)
            argv += ["--metric", "poly", "--spec", str(spec)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: node 200: attribute 1e+200 to the power 2 is not finite\n"
        assert not (out / "summary.json").exists()

    def test_underflowing_weight_names_stage_and_file_label(self, tmp_path, capsys):
        # (1e-200)**2 underflows to 0, so every weight of S(1,2) is 0.0; the
        # first node, graph index 0, is 100 in the files.
        edges = tmp_path / "edges.txt"
        edges.write_text("100 200\n200 300\n300 100\n")
        attrs = tmp_path / "attrs.txt"
        attrs.write_text("100 1e-200\n200 1e-200\n300 1e-200\n")
        spec = tmp_path / "spec.txt"
        spec.write_text("1 2 1\n")
        out = tmp_path / "o"
        argv = ["--edges", str(edges), "--attrs", str(attrs), "--metric", "poly",
                "--spec", str(spec), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: stage S(1,2): node 100: weight underflows to 0.0\n"
        assert not (out / "summary.json").exists()
        # Total variation's weights are degrees and sums of y, none of which underflows.
        assert main(argv[:4] + ["--no-traces", "--out", str(out)]) == 0

    @pytest.mark.parametrize("edges, attrs, spec, message", [
        # Node 100's weight is 2.3e-162**2 = 5e-324, and 5e-324/3, the step
        # bound, rounds to 0.0: the stage ran with a zero step and "converged".
        ("100 200\n100 300\n100 400\n", "100 1.0\n200 2.3e-162\n300 1e-170\n400 1e-170\n",
         "1 2 1\n", "stage S(1,2): node 100: weight 5e-324 over degree 3 is 0.0"),
        # Node 20's weight 1e308 + 1e308 overflows.
        ("10 20\n20 30\n", "10 1e308\n20 1.0\n30 1e308\n", "0 1 1\n",
         "stage S(0,1): node 20: weight inf over degree 2 is inf"),
    ], ids=["star", "path"])
    def test_weight_over_degree_outside_float_range_names_stage_and_label(
        self, tmp_path, capsys, edges, attrs, spec, message,
    ):
        paths = {}
        for name, text in (("edges", edges), ("attrs", attrs), ("spec", spec)):
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(text)
        out = tmp_path / "o"
        argv = ["--edges", str(paths["edges"]), "--attrs", str(paths["attrs"]), "--metric",
                "poly", "--spec", str(paths["spec"]), "--oracle", "--no-traces", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "summary.json").exists()

    def test_mean_too_small_for_its_draws_exits_before_the_graph(self, tmp_path, capsys,
                                                                 monkeypatch):
        # 1e-310 is subnormal: its smallest draw rounds to 0.0, so the config rejects it.
        calls = []
        monkeypatch.setattr(cli, "generate_synthetic", lambda *a: calls.append(a))
        out = tmp_path / "o"
        argv = ["--er", "60", "0.1", "--seed", "1", "--exp-mean", "1e-310", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: --exp-mean 1e-310 is so small that a draw rounds to 0.0\n"
        assert calls == []
        assert not out.exists()

    def test_mean_too_small_for_its_draws_exits_1(self, tmp_path, capsys):
        # Some draws of mean 1e-322 would round to 0.0; the error is the mean's.
        out = tmp_path / "o"
        argv = ["--er", "60", "0.1", "--seed", "1", "--exp-mean", "1e-322", "--no-traces"]
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: --exp-mean 1e-322 is so small that a draw rounds to 0.0\n"
        assert not out.exists()

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

    def test_files_with_byte_order_mark(self, tmp_path):
        # Editors on Windows save UTF-8 with a BOM; it is not part of line 1.
        texts = {"edges": "# Nodes: 3 Edges: 3\n" + TRIANGLE_EDGES, "attrs": TRIANGLE_ATTRS,
                 "spec": "1 1 1.0\n"}
        summaries = []
        for encoding in ("utf-8", "utf-8-sig"):
            paths = {}
            for name, text in texts.items():
                paths[name] = tmp_path / f"{name}-{encoding}.txt"
                paths[name].write_text(text, encoding=encoding)
            out = tmp_path / encoding
            code = main([
                "--edges", str(paths["edges"]), "--attrs", str(paths["attrs"]),
                "--metric", "poly", "--spec", str(paths["spec"]), "--oracle",
                "--no-traces", "--out", str(out),
            ])
            assert code == 0
            summaries.append((out / "summary.json").read_bytes())
        assert summaries[0] == summaries[1]

    def test_spec_without_terms_rejected(self, triangle_files, tmp_path, capsys):
        edges, attrs = triangle_files
        spec = tmp_path / "spec.txt"
        spec.write_text("# no terms\n\n")
        out = tmp_path / "o"
        code = main([
            "--edges", str(edges), "--attrs", str(attrs),
            "--metric", "poly", "--spec", str(spec), "--out", str(out),
        ])
        assert code == 1
        assert "spec has no terms" in capsys.readouterr().err
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

    def test_unstable_epsilon_without_epsilon_rejected(self, triangle_files, tmp_path, capsys):
        # --eps-frac lies in (0, 1), so the flag would change nothing.
        edges, attrs = triangle_files
        out = tmp_path / "o"
        code = main([
            "--edges", str(edges), "--attrs", str(attrs), "--eps-frac", "0.5",
            "--allow-unstable-epsilon", "--out", str(out),
        ])
        assert code == 1
        assert "allow_unstable_epsilon needs an explicit epsilon" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [["--attrs", "x"], ["--er", "5", "--exp-mean", "5"], ["--bogus"],
         ["--edges", "e.txt", "--attrs", "a.txt", "--metric", "x"]],
    )
    def test_usage_error_exits_1(self, argv, capsys):
        # argparse exits 2, the code of a stage that failed to converge.
        assert main(argv) == 1
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "attrs_text, extra, message",
        [
            ("0\n1 2.0\n2 3.0\n", [], "attribute line 1: expected 2 tokens, got 1"),
            ("0 1.0\n1 x\n2 3.0\n", [], "attribute line 2: bad token in '1 x'"),
            (TRIANGLE_ATTRS, ["--metric", "poly", "--spec", "SPEC"],
             "spec line 1: bad token in '1 1 x'"),
            (TRIANGLE_ATTRS, ["--eps-frac", "1.5"], "epsilon_fraction must lie in (0, 1)"),
            (TRIANGLE_ATTRS, ["--max-iters", "0"], "max_iterations must be >= 1"),
            (None, ["--er", "1", "0.5", "--seed", "1", "--exp-mean", "5"], "n must be >= 2"),
            (TRIANGLE_ATTRS, ["--tol-step", "nan"], "tolerances must be positive and finite"),
            (TRIANGLE_ATTRS, ["--epsilon", "nan"], "error: epsilon must be positive and finite"),
            (TRIANGLE_ATTRS, ["--epsilon", "-1"], "error: epsilon must be positive and finite"),
            # Caught before the missing edge list is read.
            (None, ["--edges", "missing.txt", "--exp-mean", "-1", "--seed", "1"],
             "--exp-mean must be positive and finite"),
            # Checked before the config is built, so before its other checks.
            (None, ["--edges", "missing.txt", "--attrs", "missing.txt", "--metric", "poly",
                    "--tol-step", "nan", "--shift", "-1"],
             "--metric poly and --spec PATH go together"),
        ],
    )
    def test_input_error_exits_1(self, attrs_text, extra, message, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("1 1 x\n")
        argv = [str(spec) if a == "SPEC" else a for a in extra]
        if attrs_text is not None:
            edges, attrs = tmp_path / "edges.txt", tmp_path / "attrs.txt"
            edges.write_text(TRIANGLE_EDGES)
            attrs.write_text(attrs_text)
            argv += ["--edges", str(edges), "--attrs", str(attrs)]
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not (out / "summary.json").exists()
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--tol-step", "--tol-spread"])
    def test_infinite_tolerance_exits_1(self, flag, tmp_path, capsys):
        # Every stage would stop at round 0 and read converged.
        out = tmp_path / "out"
        argv = ["--er", "100", "0.1", "--seed", "1", "--exp-mean", "5", "--oracle"]
        assert main(argv + [flag, "inf", "--out", str(out)]) == 1
        assert "tolerances must be positive and finite" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("shift", [math.inf, math.nan, 0.0])
    def test_shift_must_be_positive_and_finite(self, shift):
        with pytest.raises(ValueError, match="--shift"):
            ExperimentConfig(edges_path="x", attrs_path="y", shift=shift)

    @pytest.mark.parametrize("mean", [0.0, -1.0, math.nan, math.inf])
    def test_exp_mean_must_be_positive_and_finite(self, mean):
        with pytest.raises(ValueError, match="--exp-mean must be positive and finite"):
            ExperimentConfig(edges_path="x", exp_mean=mean, seed=1)

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
        real = cli._trace_writer
        monkeypatch.setattr(
            cli, "_trace_writer",
            lambda files, n: calls.append([Path(f.name).name for f in files]) or real(files, n),
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
            ["term_1_1_stage1_trace.csv"],
            ["term_1_1_stage2_trace.csv", "term_1_0_stage1_trace.csv"],
            ["term_2_0_stage1_trace.csv"],
            ["term_2_0_stage2_trace.csv", "term_1_0_stage2_trace.csv"],
        ]
        for shared, first in [
            ("term_1_0_stage1", "term_1_1_stage2"), ("term_1_0_stage2", "term_2_0_stage2"),
        ]:
            written = (out / f"{shared}_trace.csv").read_bytes()
            assert written == (out / f"{first}_trace.csv").read_bytes()

    def test_traces_released_once_written(self, triangle_files, tmp_path, monkeypatch):
        # Traces stream to their CSVs while the runs iterate; no run keeps rows.
        runs = []
        real_metric = cli._run_metric

        def run_metric(*args):
            block, stages = real_metric(*args)
            runs.extend(run for _, run in stages)
            return block, stages

        held, written = [], []
        real_report = cli.spectral.spectral_report

        def report(g, w, epsilon):
            held.append([run.trace is not None for run in runs])
            written.append(sorted(p.name for p in tmp_path.glob(".linkmetrics-*/*_trace.csv")))
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
        # The three trace CSVs of the run are written before the report starts.
        assert written[0] == [f"stage{i}_trace.csv" for i in (1, 2, 3)]
        assert len(runs) == 6 and all(run.trace is None for run in runs)
        for name in ("stage2", "shifted/stage2"):
            lines = (out / f"{name}_trace.csv").read_text().splitlines()
            assert len(lines) > 3

    def test_absent_flags_keep_config_defaults(self):
        args = build_parser().parse_args(["--edges", "e.txt", "--attrs", "a.txt"])
        cfg = config_from_args(args)
        assert cfg == ExperimentConfig(edges_path="e.txt", attrs_path="a.txt")
        # Each consensus setting keeps the one default ConsensusConfig declares.
        for f in dataclasses.fields(ConsensusConfig):
            assert getattr(cfg, f.name) == f.default

    def test_config_is_a_frozen_consensus_config(self):
        cfg = ExperimentConfig(edges_path="e.txt", attrs_path="a.txt")
        assert isinstance(cfg, ConsensusConfig)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.max_iterations = 5
        # Traces stream to CSV, so recording them is no experiment setting.
        with pytest.raises(TypeError):
            ExperimentConfig(record_trace=True)
        # The consensus settings are checked when the config is built.
        with pytest.raises(engine.ConfigurationError, match="tolerances"):
            ExperimentConfig(step_tolerance=math.nan)
        with pytest.raises(engine.ConfigurationError, match="integer"):
            ExperimentConfig(max_iterations=2.5)

    def test_flags_map_to_config_fields(self):
        # --metric is checked against --spec and not stored.
        args = build_parser().parse_args([
            "--er", "30", "0.2", "--seed", "9", "--exp-mean", "5", "--metric", "poly",
            "--spec", "s.txt", "--epsilon", "0.1",
            "--analyze", "--oracle", "--out", "d", "--allow-unstable-epsilon",
            "--max-iters", "7", "--tol-step", "1e-9", "--tol-spread", "1e-8", "--no-traces",
        ])
        assert config_from_args(args) == ExperimentConfig(
            er_n=30, er_p=0.2, seed=9, exp_mean=5.0, spec_path="s.txt",
            epsilon=0.1, analyze=True, with_oracle=True,
            out_dir="d", allow_unstable_epsilon=True, max_iterations=7,
            step_tolerance=1e-9, spread_tolerance=1e-8, write_traces=False,
        )
        # --shift is total variation's and --eps-frac excludes --epsilon,
        # so they take their own parse.
        args = build_parser().parse_args([
            "--edges", "e.txt", "--attrs", "a.txt", "--metric", "tv",
            "--eps-frac", "0.5", "--shift", "2",
        ])
        assert config_from_args(args) == ExperimentConfig(
            edges_path="e.txt", attrs_path="a.txt", epsilon_fraction=0.5, shift=2.0,
        )

    def test_spec_path_selects_the_metric(self):
        with pytest.raises(TypeError):
            ExperimentConfig(edges_path="e.txt", attrs_path="a.txt", metric="poly")
        poly = ExperimentConfig(edges_path="e.txt", attrs_path="a.txt", spec_path="s.txt")
        with pytest.raises(ValueError, match="--shift applies to --metric tv only"):
            dataclasses.replace(poly, shift=2.0)

    def test_config_run_equals_cli_run(self, triangle_files, tmp_path):
        edges, attrs = triangle_files
        spec = tmp_path / "spec.txt"
        spec.write_text(SHARED_SPEC)
        cli_out, cfg_out = tmp_path / "cli", tmp_path / "cfg"
        assert main([
            "--edges", str(edges), "--attrs", str(attrs), "--metric", "poly",
            "--spec", str(spec), "--out", str(cli_out),
        ]) == 0
        assert cli.run_experiment(ExperimentConfig(
            edges_path=str(edges), attrs_path=str(attrs), spec_path=str(spec),
            out_dir=str(cfg_out),
        )) == 0
        summary = (cfg_out / "summary.json").read_bytes()
        assert summary == (cli_out / "summary.json").read_bytes()
        assert b"term_2_0_stage2" in summary

    def test_eps_frac_with_epsilon_rejected(self, tmp_path, capsys):
        # With --epsilon, nothing would read the fraction.
        out = tmp_path / "o"
        code = main([
            "--er", "60", "0.1", "--seed", "1", "--exp-mean", "5",
            "--epsilon", "0.05", "--eps-frac", "0.5", "--out", str(out),
        ])
        assert code == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    def test_conflicting_sources_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(edges_path="x", er_n=5, er_p=0.5, seed=1,
                             exp_mean=5.0)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(attrs_path="y", exp_mean=5.0, seed=1), "exactly one attribute source"),
        ],
    )
    def test_validate_rejects(self, fields, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(edges_path="x", **fields)

    def test_synthetic_without_seed_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(er_n=5, er_p=0.5, exp_mean=5.0)
