import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphcollapse import (
    Graph,
    GraphFormatError,
    load_graph,
    parse_adjacency_matrix,
    parse_edge_list,
    to_edge_list_text,
)
from graphcollapse.factories import complete, cycle, edgeless, path

from helpers import arbitrary_graphs, gstar


class TestConstruction:
    def test_basic(self):
        g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
        assert g.n == 4
        assert g.m == 3
        assert g.vertices == (0, 1, 2, 3)
        assert g.edges == ((0, 1), (1, 2), (2, 3))

    def test_empty(self):
        g = Graph()
        assert g.n == 0
        assert g.edges == ()
        assert g.connected_components() == ()

    def test_edge_order_normalized(self):
        assert Graph(range(3), [(2, 0)]) == Graph(range(3), [(0, 2)])

    def test_duplicate_edges_collapse(self):
        g = Graph(range(3), [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(range(3), [(1, 1)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError, match="not a vertex"):
            Graph(range(3), [(0, 5)])

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Graph([-1, 0], [])


class TestAccessors:
    def test_neighbors_and_degree(self):
        g = gstar()
        assert g.neighbors(0) == (2, 3, 4, 5)
        assert g.degree(0) == 4
        assert g.degree(4) == 5
        with pytest.raises(ValueError):
            g.neighbors(6)
        with pytest.raises(ValueError):
            g.degree(-1)

    def test_has_edge_vertex(self):
        g = gstar()
        assert g.has_edge(0, 2) and g.has_edge(2, 0)
        assert not g.has_edge(0, 1)
        assert not g.has_edge(2, 3)
        assert g.has_vertex(5) and not g.has_vertex(6)
        assert not g.has_edge(0, -1) and not g.has_edge(-1, 0)
        with pytest.raises(ValueError, match="cannot delete edge"):
            g.delete_edge(0, -1)

    def test_is_complete(self):
        assert complete(4).is_complete()
        assert complete(1).is_complete()
        assert Graph().is_complete()
        assert not gstar().is_complete()

    def test_components(self):
        g = Graph(range(5), [(0, 1), (3, 4)])
        assert g.connected_components() == (
            frozenset({0, 1}),
            frozenset({2}),
            frozenset({3, 4}),
        )
        assert not g.is_connected()
        assert cycle(5).is_connected()
        sparse = Graph([2, 7, 40, 41, 90], [(40, 2), (41, 90), (90, 7)])
        assert sparse.connected_components() == (
            frozenset({2, 40}),
            frozenset({7, 41, 90}),
        )


class TestSubgraphs:
    def test_neighborhood_keeps_ids(self):
        nb = gstar().neighborhood(0)
        assert nb.vertices == (2, 3, 4, 5)
        assert nb.edges == ((2, 4), (2, 5), (3, 4), (3, 5), (4, 5))

    def test_common_neighborhood_is_four_cycle(self):
        cn = gstar().common_neighborhood(4, 5)
        assert cn.vertices == (0, 1, 2, 3)
        assert cn.edges == ((0, 2), (0, 3), (1, 2), (1, 3))

    def test_common_neighborhood_nonadjacent_allowed(self):
        cn = gstar().common_neighborhood(0, 1)
        assert cn.vertices == (2, 3, 4, 5)

    def test_common_neighborhood_same_vertex_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            gstar().common_neighborhood(2, 2)

    def test_induced(self):
        sub = gstar().induced([0, 1, 4])
        assert sub.vertices == (0, 1, 4)
        assert sub.edges == ((0, 4), (1, 4))
        with pytest.raises(ValueError):
            gstar().induced([0, 9])

    @given(arbitrary_graphs(min_n=1))
    def test_neighborhood_matches_induced_on_neighbors(self, g):
        for v in g.vertices:
            assert g.neighborhood(v) == g.induced(g.neighbors(v))


class TestTransformations:
    def test_delete_vertex(self):
        g = cycle(4).delete_vertex(0)
        assert g.vertices == (1, 2, 3)
        assert g.edges == ((1, 2), (2, 3))
        with pytest.raises(ValueError):
            g.delete_vertex(0)

    def test_delete_edge(self):
        g = cycle(4).delete_edge(0, 1)
        assert g.n == 4
        assert (0, 1) not in g.edges
        with pytest.raises(ValueError):
            g.delete_edge(0, 1)
        with pytest.raises(ValueError):
            g.delete_edge(0, 2)

    def test_glue_vertex(self):
        g = path(3).glue_vertex(7, [0, 2])
        assert g.vertices == (0, 1, 2, 7)
        assert g.has_edge(7, 0) and g.has_edge(7, 2) and not g.has_edge(7, 1)
        with pytest.raises(ValueError, match="already in use"):
            g.glue_vertex(7, [0])
        with pytest.raises(ValueError):
            g.glue_vertex(8, [99])

    def test_glue_edge(self):
        g = path(3).glue_edge(0, 2)
        assert g.has_edge(0, 2)
        with pytest.raises(ValueError, match="already present"):
            g.glue_edge(0, 1)
        with pytest.raises(ValueError, match="loops"):
            g.glue_edge(1, 1)

    @given(arbitrary_graphs(min_n=1))
    def test_delete_then_glue_vertex_roundtrip(self, g):
        v = g.vertices[0]
        nbrs = g.neighbors(v)
        assert g.delete_vertex(v).glue_vertex(v, nbrs) == g

    @given(arbitrary_graphs(min_n=2))
    def test_delete_then_glue_edge_roundtrip(self, g):
        if not g.edges:
            return
        u, v = g.edges[0]
        assert g.delete_edge(u, v).glue_edge(u, v) == g

    def test_operations_do_not_mutate(self):
        g = cycle(4)
        g.delete_vertex(0)
        g.delete_edge(0, 1)
        g.glue_vertex(9, [0])
        assert g == cycle(4)

    def test_relabeled(self):
        g = path(3).relabeled({0: 5, 1: 3, 2: 0})
        assert g.vertices == (0, 3, 5)
        assert g.edges == ((0, 3), (3, 5))
        with pytest.raises(ValueError, match="injective"):
            path(3).relabeled({0: 1, 1: 1, 2: 2})


class TestEdgeListFormat:
    def test_parse_simple(self):
        g = parse_edge_list("3 2\n0 1\n1 2\n")
        assert g == path(3)

    def test_comments_and_blanks_skipped(self):
        g = parse_edge_list("# a path\n\n3 2\n0 1\n# middle\n1 2\n")
        assert g == path(3)

    def test_vertex_count_without_edges(self):
        g = parse_edge_list("4 0\n")
        assert g == edgeless(4)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "empty input"),
            ("3\n", "expected 'n m'"),
            ("a b\n", "expected integers"),
            ("-1 0\n", "non-negative"),
            ("3 1\n", "promises 1 edges"),
            ("3 1\n0 1\n1 2\n", "promises 1 edges"),
            ("3 1\n0\n", "expected 'u v'"),
            ("3 1\nx y\n", "integer endpoints"),
            ("3 1\n1 1\n", "self-loop"),
            ("3 1\n0 7\n", "out of range"),
            ("3 2\n0 1\n1 0\n", "repeated edge"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(GraphFormatError) as exc:
            parse_edge_list(text, source="bad.txt")
        assert fragment in str(exc.value)
        assert "bad.txt" in str(exc.value)

    def test_error_carries_line_number(self):
        with pytest.raises(GraphFormatError) as exc:
            parse_edge_list("# pad\n3 1\n0 9\n", source="f.txt")
        assert exc.value.line == 3

    @given(arbitrary_graphs())
    def test_roundtrip_dense_ids(self, g):
        assert parse_edge_list(to_edge_list_text(g)) == g

    def test_remap_sparse_ids(self):
        g = gstar().delete_vertex(2)
        text = to_edge_list_text(g)
        assert "# vertex 2 was 3" in text
        back = parse_edge_list(text)
        assert back.n == g.n and back.m == g.m
        with pytest.raises(ValueError, match="remap"):
            to_edge_list_text(g, remap=False)


class TestMatrixFormat:
    def test_parse_simple(self):
        g = parse_adjacency_matrix("0 1 0\n1 0 1\n0 1 0\n")
        assert g == path(3)

    def test_commas_accepted(self):
        g = parse_adjacency_matrix("0,1\n1,0\n")
        assert g == complete(2)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "empty input"),
            ("0 1\n1 0 1\n", "expected 2 entries"),
            ("0 2\n2 0\n", "must be 0 or 1"),
            ("1 1\n1 0\n", "diagonal"),
            ("0 1\n0 0\n", "not symmetric"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(GraphFormatError) as exc:
            parse_adjacency_matrix(text)
        assert fragment in str(exc.value)


class TestLoadGraph:
    def test_auto_detect(self, tmp_path):
        e = tmp_path / "g.edges"
        e.write_text("3 3\n0 1\n1 2\n0 2\n")
        m = tmp_path / "g.matrix"
        m.write_text("0 1 1\n1 0 1\n1 1 0\n")
        assert load_graph(str(e)) == complete(3)
        assert load_graph(str(m)) == complete(3)

    def test_explicit_format(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("2 1\n0 1\n")
        assert load_graph(str(f), fmt="edgelist") == complete(2)
        with pytest.raises(GraphFormatError):
            load_graph(str(f), fmt="matrix")
        with pytest.raises(ValueError, match="unknown graph format"):
            load_graph(str(f), fmt="dot")

    def test_unparseable_reports_edge_list_error(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("what even\nis this\n")
        with pytest.raises(GraphFormatError) as exc:
            load_graph(str(f))
        assert str(f) in str(exc.value)
