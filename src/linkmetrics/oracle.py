"""Centralized reference computations for testing and acceptance.

Everything here walks the edge set directly; no consensus iterations are
involved. Edge sums use compensated (fsum) accumulation so the reference
stays trustworthy on large graphs. Any finite real attribute is accepted;
ValueError names a non-finite one's node, or says the attributes are too
large for a reference value when a sum, or a product in it, overflows.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .graph import Graph
from .metrics import MetricSpec


def _fsum(values) -> float:
    """math.fsum, or ValueError when the sum or a product in it overflows."""
    try:
        total = math.fsum(values)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ValueError("reference value overflows: attributes too large")
    return total


def _check_finite(g: Graph, y: Sequence[float]) -> None:
    """ValueError naming the first non-finite attribute's node by its label."""
    for label, v in zip(g.original_ids, y):
        if not math.isfinite(v):
            raise ValueError(f"node {label}: attribute {float(v)!r} is not finite")


def exact_total_variation(g: Graph, y: Sequence[float]) -> float:
    """Per-edge average of squared attribute differences."""
    _check_finite(g, y)
    if g.edge_count < 1:
        raise ValueError("total variation needs at least one edge")
    return _fsum((y[i] - y[j]) ** 2 for i, j in g.edges()) / g.edge_count


def exact_polynomial_metric(g: Graph, y: Sequence[float], spec: MetricSpec) -> float:
    """Per-edge average of f symmetrized over the two edge endpoints; each
    edge's f(u, v) equals the `math.fsum` of its terms c * u**l * v**k
    bit for bit, from node powers taken once with `**` and terms
    multiplied left to right."""
    _check_finite(g, y)
    if g.edge_count < 1:
        raise ValueError("polynomial metric needs at least one edge")
    i, j = g.edge_arrays

    def edge_values():  # a generator, so that _fsum turns an overflowing ** into ValueError
        live = [v if d else 1.0 for v, d in zip(y, g.degrees)]  # no power of an isolated node
        powers = {e: np.array([v**e for v in live]) for e in {e for t in spec.terms for e in t[:2]}}
        def f(a: np.ndarray, b: np.ndarray):  # f(y_a, y_b) edge by edge: fsum of its terms
            with np.errstate(over="ignore", invalid="ignore"):  # inf and nan, as in Python
                terms = [(c * powers[l][a] * powers[k][b]).tolist() for l, k, c in spec.terms]
            return map(math.fsum, zip(*terms))

        for p, q in zip(f(i, j), f(j, i)):
            yield 0.5 * (p + q)

    return _fsum(edge_values()) / g.edge_count


def exact_alphas(g: Graph, y: Sequence[float]) -> tuple[float, float, float]:
    """Closed-form stage targets (alpha1, alpha2, alpha3) of the TV pipeline."""
    _check_finite(g, y)
    if any(d == 0 for d in g.degrees):
        raise ValueError("alphas undefined with isolated nodes")
    deg_sum = _fsum(g.degrees)
    alpha1 = _fsum(d * v * v for d, v in zip(g.degrees, y)) / deg_sum
    cross = _fsum(
        y[i] * _fsum(y[j] for j in g.adjacency[i]) for i in range(g.node_count)
    )
    weighted_attr_sum = _fsum(d * v for d, v in zip(g.degrees, y))
    alpha2 = cross / weighted_attr_sum
    alpha3 = weighted_attr_sum / deg_sum
    return alpha1, alpha2, alpha3
