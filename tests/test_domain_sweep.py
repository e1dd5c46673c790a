"""The CLI over the input domain, checked against the oracle.

Each example writes an edge list with sparse labels, an attribute file
and, for a polynomial, a spec file, then runs the CLI with `--oracle
--no-traces`. Its exit code must agree with what it reports:

- exit 0: every stage converged and the metric is within 1e-6 of the
  oracle's, relative to the metric;
- exit 2: some stage reports `converged: false`;
- exit 1: stderr names a node by its label, or names a line.

Graphs are the families of tests/helpers.py. Attributes run from 1e-6 to
1e6, log-uniform, so a draw is heavy-tailed at every scale, and may set
a leaf's only neighbor to 1e-6: the leaf's S(1,1) weight is then the
smallest, and the stage stiff. Some inputs carry one fault the CLI must
reject. Specs are total variation or polynomials with exponents 0-3 and
coefficients of either sign.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from linkmetrics import cli

from helpers import complete, cycle, er_instance, path, preferential_attachment, star, triangle

# Caps each stage, so that a stiff stage ends soon, unconverged, with exit 2.
_MAX_ITERS = 3000

_GRAPHS = st.one_of(
    st.just(triangle()),
    st.integers(2, 12).map(path),
    st.integers(3, 12).map(cycle),
    st.integers(3, 12).map(star),
    st.integers(3, 8).map(complete),
    st.builds(preferential_attachment, st.integers(4, 20), st.integers(1, 3),
              st.integers(0, 2**32)),
    st.integers(0, 2**16).map(lambda seed: er_instance(seed, n_lo=10, n_hi=30)[0]),
)
_ATTRIBUTES = st.floats(-6, 6).map(lambda e: 10.0**e)
_TERMS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.floats(-5, 5)),
    min_size=1, max_size=3, unique_by=lambda t: t[:2],
)
# One None (no fault) per fault, so that half the inputs are valid.
_FAULTS = st.sampled_from([None] * 4 + ["self-loop", "missing", "zero", "inf"])


@st.composite
def cases(draw):
    """(edge-list text, attribute text, spec text or None, node labels)."""
    g = draw(_GRAPHS)
    n = g.node_count
    labels = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    y = draw(st.lists(_ATTRIBUTES, min_size=n, max_size=n))
    leaves = [i for i in range(n) if g.degrees[i] == 1]
    if leaves and draw(st.booleans()):
        y[g.adjacency[draw(st.sampled_from(leaves))][0]] = 1e-6
    edges = [f"{labels[i]} {labels[j]}" for i, j in g.edges()]
    attrs = [f"{label} {v!r}" for label, v in zip(labels, y)]
    fault, node = draw(_FAULTS), draw(st.integers(0, n - 1))
    if fault == "self-loop":
        edges.append(f"{labels[node]} {labels[node]}")
    elif fault == "missing":
        del attrs[node]
    elif fault is not None:
        attrs[node] = f"{labels[node]} {0.0 if fault == 'zero' else 'inf'}"
    terms = draw(st.none() | _TERMS)
    spec = None if terms is None else "".join(f"{l} {k} {c!r}\n" for l, k, c in terms)
    return "\n".join(edges) + "\n", "\n".join(attrs) + "\n", spec, labels


def _run(edges: str, attrs: str, spec: str | None) -> tuple[int, dict | None, str]:
    """The CLI's exit code, summary.json (None if absent) and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "edges.txt").write_text(edges)
        (work / "attrs.txt").write_text(attrs)
        argv = [
            "--edges", str(work / "edges.txt"), "--attrs", str(work / "attrs.txt"),
            "--oracle", "--no-traces", "--max-iters", str(_MAX_ITERS),
            "--out", str(work / "out"),
        ]
        if spec is not None:
            (work / "spec.txt").write_text(spec)
            argv += ["--metric", "poly", "--spec", str(work / "spec.txt")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        summary = work / "out" / "summary.json"
        return code, json.loads(summary.read_text()) if summary.exists() else None, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(cases())
def test_exit_code_agrees_with_summary(case):
    edges, attrs, spec, labels = case
    code, summary, err = _run(edges, attrs, spec)
    if code == 1:
        named = {int(label) for label in re.findall(r"\bnode (\d+)", err)}
        assert named and named <= set(labels) or re.search(r"\bline \d+", err), err
        assert summary is None
        return
    assert code in (0, 2), err
    converged = [stage["converged"] for stage in summary["stages"]]
    assert all(converged) == (code == 0)


# Converged runs the oracle contradicts: (edges, attributes, spec, labels).
# Equal attributes on a triangle: total variation is 0, but the folded
# form 2*alpha1 - 2*alpha2*alpha3 keeps a rounding residual of 7.3e-12.
_CANCELLATION = ("0 1\n0 2\n1 2\n", "0 177.82794100389228\n1 177.82794100389228\n"
                 "2 177.82794100389228\n", None, [0, 1, 2])
# S(1,1) averages to 1e-6, but its tolerances scale with max |x(0)| = 1:
# it stops 2.5e-5 off, relative to the metric.
_TOLERANCE_SCALE = ("0 1\n", "0 1.0\n1 1e-06\n", "1 1 1.0\n", [0, 1])
# S(1,3) weighs nodes 0 and 2 by 1e12: their steps pass the step test
# while their states are far apart, and the metric is 8.3% low.
_STIFF_STEP = ("0 1\n1 2\n2 3\n", "0 2.0\n1 10000.0\n2 1.0\n3 1.0\n", "1 3 1.0\n",
               [0, 1, 2, 3])


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="converged runs miss the oracle: cancellation in the folded form, "
    "and stop tolerances at the scale of max |x(0)| (ROADMAP item 5)",
)
@settings(max_examples=100, deadline=None, report_multiple_bugs=False)
@example(_CANCELLATION)
@example(_TOLERANCE_SCALE)
@example(_STIFF_STEP)
@given(cases())
def test_converged_metric_matches_oracle(case):
    code, summary, _ = _run(*case[:3])
    if code == 0:
        delta, value = summary["oracle"]["delta"], summary["metric_value"]
        assert abs(delta) <= 1e-6 * abs(value), (delta, value)
