"""Canonical forms must be exactly the isomorphism classes: equal for
every relabeling, distinct for non-isomorphic graphs. The reference
answer everywhere is the permutation-minimum encoding from helpers."""

from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphcollapse import (
    CanonicalForm,
    Graph,
    canonical_form,
    canonical_order,
    graph_from_canonical,
)
from graphcollapse.canon import canonical_labelling
from graphcollapse.factories import complete, complete_multipartite, cycle, edgeless, octahedron, path

from helpers import (
    _connected_labeled_masks,
    arbitrary_graphs,
    brute_automorphisms,
    brute_canonical_key,
    brute_is_isomorphic,
    gstar,
    orbits_of,
    reference_canonical_labelling,
    reference_levels,
)


def petersen() -> Graph:
    return Graph(range(10), [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def hypercube(d: int) -> Graph:
    return Graph(range(1 << d), [(v, v | 1 << b) for v in range(1 << d) for b in range(d) if not v >> b & 1])


def paley(q: int) -> Graph:
    squares = {i * i % q for i in range(1, q)}
    return Graph(range(q), [(i, j) for i, j in combinations(range(q), 2) if (j - i) % q in squares])


def rook(k: int) -> Graph:
    return Graph(range(k * k), [(a, b) for a, b in combinations(range(k * k), 2) if a // k == b // k or a % k == b % k])


def _labeled_graph(n: int, mask: int) -> Graph:
    pairs = list(combinations(range(n), 2))
    return Graph(range(n), [p for k, p in enumerate(pairs) if mask >> k & 1])


class TestInvariance:
    def test_every_relabeling_of_four_vertex_graphs(self):
        for g in (path(4), cycle(4), complete(4), Graph(range(4), [(0, 1), (1, 2), (1, 3)])):
            want = canonical_form(g)
            for pi in permutations(range(4)):
                h = g.relabeled(dict(enumerate(pi)))
                assert canonical_form(h) == want

    @given(arbitrary_graphs(min_n=1, max_n=8), st.randoms(use_true_random=False))
    def test_random_relabeling(self, g, rng):
        ids = list(range(20, 20 + g.n))
        rng.shuffle(ids)
        h = g.relabeled(dict(zip(g.vertices, ids)))
        assert canonical_form(h) == canonical_form(g)

    def test_sparse_ids_same_form(self):
        g = cycle(5)
        h = g.relabeled({0: 10, 1: 40, 2: 7, 3: 23, 4: 99})
        assert canonical_form(g) == canonical_form(h)


class TestSeparation:
    def test_path_vs_triangle(self):
        assert canonical_form(path(3)) != canonical_form(cycle(3))

    def test_small_standards(self):
        forms = {
            canonical_form(g)
            for g in (path(4), cycle(4), complete(4), edgeless(4), gstar(), octahedron())
        }
        assert len(forms) == 6

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_partition_matches_brute_partition(self, n):
        """On every connected labeled graph, the canonical form induces
        the same equivalence classes as minimizing over all n!
        relabelings."""
        by_form = {}
        by_brute = {}
        for mask in _connected_labeled_masks(n):
            g = _labeled_graph(n, mask)
            by_form.setdefault(canonical_form(g), set()).add(mask)
            by_brute.setdefault(brute_canonical_key(g), set()).add(mask)
        assert sorted(by_form.values(), key=min) == sorted(by_brute.values(), key=min)


class TestRealization:
    @given(arbitrary_graphs(min_n=1, max_n=7))
    def test_graph_from_canonical_is_isomorphic(self, g):
        back = graph_from_canonical(canonical_form(g))
        assert back.vertices == tuple(range(g.n))
        assert brute_is_isomorphic(g, back)

    @given(arbitrary_graphs(min_n=1, max_n=7))
    def test_idempotent(self, g):
        cf = canonical_form(g)
        assert canonical_form(graph_from_canonical(cf)) == cf

    @given(arbitrary_graphs(min_n=1, max_n=7))
    def test_canonical_order_realizes_form(self, g):
        order = canonical_order(g)
        assert sorted(order) == sorted(g.vertices)
        relabeled = g.relabeled({v: i for i, v in enumerate(order)})
        assert relabeled == graph_from_canonical(canonical_form(g))


class TestEncoding:
    @given(arbitrary_graphs(min_n=1, max_n=8))
    def test_hex_roundtrip(self, g):
        cf = canonical_form(g)
        assert CanonicalForm.from_hex(cf.hex()) == cf

    def test_bytes_layout(self):
        cf = canonical_form(edgeless(3))
        data = bytes(cf)
        assert int.from_bytes(data[:2], "big") == 3

    def test_from_hex_garbage(self):
        with pytest.raises(ValueError):
            CanonicalForm.from_hex("zz")
        with pytest.raises(ValueError):
            CanonicalForm.from_hex("00")

    def test_empty_graph_form(self):
        cf = canonical_form(Graph())
        assert graph_from_canonical(cf) == Graph()


class TestAutomorphisms:
    """The search's automorphisms must be automorphisms, and must generate
    the whole group: their orbits are those of all n! permutations."""

    @staticmethod
    def check(g):
        order, gens = canonical_labelling(g)
        assert order == canonical_order(g)
        edges = set(g.edges)
        for p in gens:
            assert sorted(p) == sorted(p.values()) == list(g.vertices)
            assert {tuple(sorted((p[a], p[b]))) for a, b in edges} == edges
        assert orbits_of(g.vertices, gens) == orbits_of(g.vertices, brute_automorphisms(g))

    def test_every_graph_through_six_vertices(self):
        # A graph or its complement is connected, so the connected classes
        # and their complements cover every class.
        graphs = [Graph()]
        for forms in reference_levels(6).values():
            for f in forms:
                g = graph_from_canonical(f)
                graphs.append(g)
                graphs.append(Graph(g.vertices, [e for e in combinations(g.vertices, 2) if not g.has_edge(*e)]))
        assert len({canonical_form(g) for g in graphs}) == 1 + 1 + 2 + 4 + 11 + 34 + 156
        for g in graphs:
            self.check(g)

    @given(arbitrary_graphs(min_n=0, max_n=6), st.randoms(use_true_random=False))
    def test_relabelled_onto_sparse_ids(self, g, rng):
        ids = rng.sample(range(1000), g.n)
        self.check(g.relabeled(dict(zip(g.vertices, ids))))


class TestPinnedSearch:
    """The search on position lists reaches the same orders and records
    the same generators, in the same order, as the dict-based search it
    replaced (kept in helpers)."""

    @staticmethod
    def check(g):
        order, gens = canonical_labelling(g)
        want_order, want_gens = reference_canonical_labelling(g)
        assert order == want_order
        assert [list(p.items()) for p in gens] == [list(p.items()) for p in want_gens]

    @given(arbitrary_graphs(min_n=0, max_n=10), st.randoms(use_true_random=False), st.booleans())
    def test_matches_dict_based_search(self, g, rng, sparse):
        if sparse:
            g = g.relabeled(dict(zip(g.vertices, rng.sample(range(1000), g.n))))
        order, gens = canonical_labelling(g)
        want_order, want_gens = reference_canonical_labelling(g)
        assert order == want_order
        assert [list(p.items()) for p in gens] == [list(p.items()) for p in want_gens]

    @pytest.mark.parametrize("n,steps", [(10, (1, 3)), (10, (2, 3)), (13, (1, 5))])
    def test_matches_dict_based_search_on_circulants(self, n, steps):
        # Vertex-transitive graphs where an automorphism found below a
        # node can move the node's path: a node that also pruned with
        # such automorphisms records other generators. Random graphs
        # through n=10 have too few automorphisms to show it.
        g = Graph(range(n), {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps})
        order, gens = canonical_labelling(g)
        want_order, want_gens = reference_canonical_labelling(g)
        assert order == want_order
        assert [list(p.items()) for p in gens] == [list(p.items()) for p in want_gens]

    def test_matches_dict_based_search_on_every_connected_graph_through_seven(self, census7):
        # Exhaustive, because random graphs seldom split a cell three or
        # more ways in one pass, the case where refinement must keep every
        # piece but the last as a splitter.
        for entry in census7.entries():
            self.check(entry.graph())

    @pytest.mark.parametrize(
        "g",
        [petersen(), hypercube(4), paley(13), complete_multipartite([4, 4]), rook(3)],
        ids=["petersen", "4-cube", "paley-13", "k4-4", "rook-3x3"],
    )
    def test_matches_dict_based_search_on_symmetric_graphs(self, g):
        # Vertex-transitive graphs, most of them strongly regular: no cell
        # splits at the root, and below it a refinement of the 4-cube or
        # Paley(13) splits cells in up to three or four passes in a row,
        # each against the cells the one before split.
        self.check(g)
