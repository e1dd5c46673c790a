import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linkmetrics import cli
from linkmetrics.graph import (
    DisconnectedGraphError,
    EmptyGraphError,
    Graph,
    GraphFormatError,
    diameter,
    from_edges,
    is_connected,
    largest_connected_component,
    parse_edge_list,
)

from helpers import (
    laplacian,
    path,
    reference_from_edges,
    reference_largest_connected_component,
    reference_parse_edge_list,
    triangle,
)


class TestParseEdgeList:
    def test_path_with_comment(self):
        g = parse_edge_list("# c\n0 1\n1 2")
        assert g.node_count == 3
        assert g.edge_count == 2
        assert g.degrees == (1, 2, 1)

    def test_duplicate_edges_collapse(self):
        g = parse_edge_list("0 1\n1 0\n0 1")
        assert g.node_count == 2
        assert g.edge_count == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("0 0")

    def test_non_numeric_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("0 x")

    def test_no_data_lines(self):
        with pytest.raises(EmptyGraphError):
            parse_edge_list("# only comments\n\n")

    def test_wrong_arity_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("0 1 2")

    def test_sparse_ids_remapped_first_appearance(self):
        g = parse_edge_list("100 7\n7 42")
        assert g.original_ids == (100, 7, 42)
        assert g.adjacency == ((1,), (0, 2), (1,))

    def test_tab_separated_and_bytes(self):
        g = parse_edge_list(b"0\t1\n1\t2\n")
        assert g.edge_count == 2


class TestStoredFields:
    def test_only_adjacency_and_ids_are_stored(self):
        assert [f.name for f in dataclasses.fields(Graph)] == ["adjacency", "original_ids"]

    def test_derived_counts(self):
        g = Graph(adjacency=((1, 2), (0,), (0,)))
        assert (g.node_count, g.degrees, g.edge_count) == (3, (2, 1, 1), 2)
        assert g.original_ids == (0, 1, 2)

    def test_rejects_empty_and_mismatched_ids(self):
        with pytest.raises(ValueError, match="at least one node"):
            Graph(adjacency=())
        with pytest.raises(ValueError, match="original_ids"):
            Graph(adjacency=((1,), (0,)), original_ids=(5,))


class TestLargestConnectedComponent:
    def test_keeps_bigger_component(self):
        g = from_edges(5, [(0, 1), (1, 2), (3, 4)])
        lcc = largest_connected_component(g)
        assert lcc.node_count == 3
        assert lcc.edge_count == 2
        assert lcc.original_ids == (0, 1, 2)

    def test_connected_graph_unchanged(self):
        lcc = largest_connected_component(triangle())
        assert lcc.adjacency == triangle().adjacency

    def test_tie_breaks_to_smallest_original_id(self):
        g = from_edges(4, [(0, 1), (2, 3)])
        lcc = largest_connected_component(g)
        assert lcc.original_ids == (0, 1)

    def test_idempotent(self):
        g = from_edges(6, [(0, 1), (1, 2), (3, 4)])
        once = largest_connected_component(g)
        twice = largest_connected_component(once)
        assert once == twice


class TestConnectivityAndDiameter:
    def test_path_connected(self):
        assert is_connected(path(3))

    def test_disjoint_edges_not_connected(self):
        assert not is_connected(from_edges(4, [(0, 1), (2, 3)]))

    def test_single_node_connected(self):
        assert is_connected(from_edges(1, []))

    def test_connectivity_searched_once_per_graph(self, monkeypatch):
        from linkmetrics import graph

        calls = []
        real = graph._bfs
        monkeypatch.setattr(
            graph, "_bfs", lambda g, start, dist: calls.append((g, start)) or real(g, start, dist)
        )
        g, h = path(3), from_edges(4, [(0, 1), (2, 3)])
        assert is_connected(g) and is_connected(g)
        assert not is_connected(h) and not is_connected(h)
        largest_connected_component(h)
        # One search from each component's smallest node, on first use only.
        assert calls == [(g, 0), (h, 0), (h, 2)]

    def test_components_read_each_node_once(self):
        class CountingTuple(tuple):
            reads = 0

            def __getitem__(self, i):
                self.reads += 1
                return super().__getitem__(i)

        n = 20_000
        base = from_edges(n, [(i, i + 1) for i in range(n - 1) if i % 100 != 99])
        adjacency = CountingTuple(base.adjacency)
        g = Graph(adjacency=adjacency, original_ids=base.original_ids)
        assert not is_connected(g)
        lcc = largest_connected_component(g)
        assert (lcc.node_count, lcc.original_ids[0]) == (100, 0)
        assert adjacency.reads == n

    def test_diameter_examples(self):
        assert diameter(triangle()) == 1
        assert diameter(path(3)) == 2
        assert diameter(from_edges(1, [])) == 0

    def test_diameter_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            diameter(from_edges(4, [(0, 1), (2, 3)]))

    def test_path_diameters_against_floyd_warshall(self):
        for n in range(2, 7):
            g = path(n)
            # independent all-pairs check
            inf = float("inf")
            dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
            for i, j in g.edges():
                dist[i][j] = dist[j][i] = 1
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        if dist[i][k] + dist[k][j] < dist[i][j]:
                            dist[i][j] = dist[i][k] + dist[k][j]
            assert diameter(g) == max(max(row) for row in dist) == n - 1


class TestLaplacian:
    def test_triangle(self):
        expect = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
        assert laplacian(triangle()).tolist() == expect

    def test_single_edge(self):
        assert laplacian(from_edges(2, [(0, 1)])).tolist() == [[1, -1], [-1, 1]]

    def test_p3(self):
        expect = [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
        assert laplacian(path(3)).tolist() == expect


class TestEdgeArrays:
    def test_path_orientations(self):
        i, j = path(3).edge_arrays
        assert (i.tolist(), j.tolist()) == ([0, 1], [1, 2])

    def test_built_once_and_read_only(self):
        g = triangle()
        first = g.edge_arrays
        assert all(a is b for a, b in zip(g.edge_arrays, first))
        for a in first:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0

    def test_not_part_of_equality(self):
        g = triangle()
        g.edge_arrays
        assert g == triangle() and hash(g) == hash(triangle())


class TestStructuralInvariants:
    @pytest.mark.parametrize("seed", range(8))
    def test_parsed_graph_invariants(self, seed):
        g = cli.generate_synthetic(40, 0.1, seed)
        assert 2 * g.edge_count == sum(g.degrees)
        for i, nbrs in enumerate(g.adjacency):
            assert list(nbrs) == sorted(set(nbrs))
            assert i not in nbrs
            for j in nbrs:
                assert i in g.adjacency[j]
        row_sums = laplacian(g).sum(axis=1)
        assert np.all(row_sums == 0.0)


def _outcome(f, *args):
    """What f(*args) returns, or the type and message of what it raises."""
    try:
        return f(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


_LABELS = st.one_of(
    st.integers(0, 12),  # small ids repeat, so duplicate edges and self-loops occur
    st.integers(10**7, 10**8),
    st.integers(2**63 - 2, 2**64 + 2),  # past int64
)
_SEPARATORS = st.sampled_from([" ", "\t", "   ", " \t "])


@st.composite
def _edge_line(draw):
    u, v = draw(_LABELS), draw(_LABELS)
    pad = draw(st.sampled_from(["", " ", "\t"]))
    return f"{pad}{u}{draw(_SEPARATORS)}{v}{pad}"


_OTHER_LINES = st.sampled_from([
    "", "   ", "# comment", "  # 1 2 3", "#",  # skipped
    "7", "1 2 3", "a b", "3 x", "1.5 2", "-3 4", "5 -0", "9 9",  # malformed
    "+5 7", "1_0 3", "\u0663 4", "007 8",  # ids int() reads
])


@st.composite
def edge_list_texts(draw):
    """SNAP-style text: edge lines with a few comment, blank, malformed or
    unusual lines inserted, as str or as bytes (some with a BOM)."""
    lines = draw(st.lists(_edge_line(), max_size=30))
    for other in draw(st.lists(_OTHER_LINES, max_size=4)):
        lines.insert(draw(st.integers(0, len(lines))), other)
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines)
    encoding = draw(st.sampled_from([None, "utf-8", "utf-8-sig"]))
    return text if encoding is None else text.encode(encoding)


class TestArrayIngest:
    """from_edges, parse_edge_list and largest_connected_component equal
    the per-line and per-edge loops of tests/helpers.py: equal graphs, or
    the same exception type and message."""

    @settings(max_examples=300, deadline=None)
    @given(edge_list_texts())
    def test_parse_matches_reference(self, source):
        got = _outcome(parse_edge_list, source)
        assert got == _outcome(reference_parse_edge_list, source)
        if isinstance(got, Graph):
            assert list(got.edges()) == [
                (i, j) for i, nbrs in enumerate(got.adjacency) for j in nbrs if j > i
            ]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_from_edges_matches_reference(self, n, data):
        ends = st.integers(-2, n + 1) if data.draw(st.booleans()) else st.integers(0, n - 1)
        edges = data.draw(st.lists(st.tuples(ends, ends), max_size=3 * n))
        got = _outcome(from_edges, n, edges)
        assert got == _outcome(reference_from_edges, n, edges)
        if edges and isinstance(got, Graph):
            assert from_edges(n, np.array(edges)) == got

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 30), st.data())
    def test_lcc_matches_reference(self, n, data):
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] != e[1]
        )
        edges = data.draw(st.lists(pairs, max_size=2 * n))
        ids = data.draw(st.permutations(range(100, 100 + n)))
        g = from_edges(n, edges, original_ids=ids)
        assert largest_connected_component(g) == reference_largest_connected_component(g)

    def test_connected_graph_is_returned_as_is(self):
        g = path(4)
        assert largest_connected_component(g) is g

    def test_ids_past_int64(self):
        big = 2**64
        g = parse_edge_list(f"{big} {big + 1}\n{big + 1} 3\n")
        assert g.original_ids == (big, big + 1, 3)
        assert g.adjacency == ((1,), (0, 2), (1,))

    def test_from_edges_id_past_int64(self):
        edges = [(0, 1), (1, 2**70)]
        assert _outcome(from_edges, 3, edges) == _outcome(reference_from_edges, 3, edges)
        assert _outcome(from_edges, 3, edges)[0] is ValueError

    def test_first_malformed_line_in_file_order(self):
        # One line of each kind; each parse names the earliest.
        lines = ["0 1", "2 2", "-1 3", "x 4", "1 2 3"]
        for first in range(1, len(lines)):
            text = "\n".join(lines[:1] + lines[first:] + lines[1:first])
            with pytest.raises(GraphFormatError, match="line 2: "):
                parse_edge_list(text)
            assert _outcome(parse_edge_list, text) == _outcome(reference_parse_edge_list, text)

    def test_bom_bytes(self):
        g = parse_edge_list("\ufeff# header\n0 1\n1 2\n".encode("utf-8"))
        assert g == parse_edge_list("0 1\n1 2\n")
