import numpy as np
import pytest

from linkmetrics import cli
from linkmetrics.graph import (
    DisconnectedGraphError,
    EmptyGraphError,
    GraphFormatError,
    diameter,
    from_edges,
    is_connected,
    laplacian,
    largest_connected_component,
    parse_edge_list,
)

from helpers import path, triangle


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
        src, dst = path(3).edge_arrays
        assert (src.tolist(), dst.tolist()) == ([0, 1, 1, 2], [1, 0, 2, 1])

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
