from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcollapse import (
    BudgetExceededError,
    clique_complex,
    collapse_via_trace,
    contractible_reduction,
    edge_extended_reduction,
    enumerate_cliques,
    is_collapsible,
    is_strong_contractible,
)
from graphcollapse.complexes import (
    COLLAPSIBLE,
    EXHAUSTED,
    NOT_COLLAPSIBLE,
    FreePair,
    SimplicialComplex,
)
from graphcollapse.contract import ReductionTrace
from graphcollapse.errors import GraphFormatError
from graphcollapse.factories import complete, cycle, octahedron, path
from graphcollapse.graphs import Graph

from helpers import (
    arbitrary_graphs,
    brute_cliques,
    brute_free_pairs,
    brute_maximal_faces,
    connected_graphs,
    g8,
    gstar,
    mixed_complexes,
    reference_collapse_search,
    replayed,
)


def _closed_downward(cx: SimplicialComplex) -> bool:
    have = set(cx.faces)
    return all(
        tuple(sub) in have
        for f in cx.faces
        for k in range(1, len(f))
        for sub in combinations(f, k)
    )


class TestCliqueComplex:
    def test_triangle(self):
        cx = clique_complex(complete(3))
        assert cx.face_count == 7
        assert cx.dim == 2
        assert cx.euler_characteristic() == 1

    def test_four_cycle(self):
        cx = clique_complex(cycle(4))
        assert cx.face_count == 8
        assert cx.dim == 1
        assert cx.euler_characteristic() == 0
        assert all(len(f) <= 2 for f in cx.faces)

    def test_gstar_tetrahedra(self):
        cx = clique_complex(gstar())
        assert sorted(cx.maximal_faces) == [
            (0, 2, 4, 5),
            (0, 3, 4, 5),
            (1, 2, 4, 5),
            (1, 3, 4, 5),
        ]
        assert cx.face_count == 35
        assert cx.euler_characteristic() == 1

    def test_octahedron_is_a_sphere(self):
        cx = clique_complex(octahedron())
        assert cx.face_count == 6 + 12 + 8
        assert cx.dim == 2
        assert cx.euler_characteristic() == 2

    @given(arbitrary_graphs(min_n=1, max_n=7))
    def test_one_skeleton_recovers_graph(self, g):
        assert clique_complex(g).one_skeleton() == g

    @given(arbitrary_graphs(min_n=1, max_n=7))
    def test_faces_are_exactly_the_cliques(self, g):
        want = sorted(
            (c for cs in brute_cliques(g).values() for c in cs),
            key=lambda f: (len(f), f),
        )
        assert list(clique_complex(g).faces) == want


class TestEnumerateCliques:
    @given(arbitrary_graphs(min_n=1, max_n=7))
    def test_matches_brute_force(self, g):
        assert enumerate_cliques(g) == brute_cliques(g)

    @given(arbitrary_graphs(min_n=1, max_n=7), st.integers(1, 4))
    def test_max_size_cap(self, g, cap):
        capped = enumerate_cliques(g, max_size=cap)
        assert capped == {s: cs for s, cs in brute_cliques(g, max_size=cap).items()}

    def test_lex_order_within_size(self):
        by_size = enumerate_cliques(complete(4))
        assert by_size[2] == sorted(by_size[2])
        assert by_size[3] == sorted(by_size[3])

    def test_budget(self):
        # complete(10) has 10 vertices, 45 edges and 120 triangles, so the
        # count reaches 10, 55 and 175 faces level by level; both readers
        # of the walk stop at the same count
        for walk in (enumerate_cliques, clique_complex):
            for budget, at in ((9, 10), (50, 55), (174, 175)):
                with pytest.raises(BudgetExceededError, match=f"face budget {budget} exceeded at {at} faces$"):
                    walk(complete(10), max_faces=budget)
        # a size cap counts only the levels up to the cap
        assert len(enumerate_cliques(complete(10), max_size=2, max_faces=55)[2]) == 45
        with pytest.raises(BudgetExceededError, match="face budget 54 exceeded at 55 faces$"):
            enumerate_cliques(complete(10), max_size=2, max_faces=54)


class TestConstruction:
    def test_from_maximal_closes_downward(self):
        cx = SimplicialComplex.from_maximal([[0, 1, 2]])
        assert cx == clique_complex(complete(3))

    def test_from_maximal_drops_dominated(self):
        assert SimplicialComplex.from_maximal([[0, 1, 2], [0, 1]]).face_count == 7

    def test_direct_constructor_validates_closure(self):
        with pytest.raises(ValueError, match="downward closed"):
            SimplicialComplex([(0,), (0, 1)])

    def test_input_faces_normalized(self):
        cx = SimplicialComplex([(0,), (1,), (1, 0), (0, 0)])
        assert cx.faces == ((0,), (1,), (0, 1))

    def test_empty_simplex_rejected(self):
        with pytest.raises(ValueError, match="empty simplex"):
            SimplicialComplex([()])
        with pytest.raises(ValueError, match="empty simplex"):
            SimplicialComplex.from_maximal([[]])

    def test_negative_vertex_ids_rejected(self):
        with pytest.raises(ValueError, match="vertex id -1 is negative"):
            SimplicialComplex([(-1,)])
        with pytest.raises(ValueError, match="vertex id -1 is negative"):
            SimplicialComplex.from_maximal([[0, -1]])
        with pytest.raises(ValueError, match="vertex id -1 is negative"):
            SimplicialComplex.from_text("0 1 -1\n")

    def test_face_order(self):
        cx = clique_complex(path(3))
        assert cx.faces == ((0,), (1,), (2,), (0, 1), (1, 2))


class TestFreePairs:
    def test_triangle_pairs_include_nonelementary(self):
        pairs = clique_complex(complete(3)).free_pairs()
        as_tuples = [(p.sigma, p.tau) for p in pairs]
        assert ((0,), (0, 1, 2)) in as_tuples
        assert ((0, 1), (0, 1, 2)) in as_tuples
        flags = {p.sigma: p.is_elementary for p in pairs}
        assert flags[(0, 1)] and not flags[(0,)]

    def test_four_cycle_has_none(self):
        assert clique_complex(cycle(4)).free_pairs() == []

    def test_point_has_none(self):
        assert clique_complex(complete(1)).free_pairs() == []

    def test_gstar_contains_example_pair(self):
        pairs = clique_complex(gstar()).free_pairs()
        assert ((0, 2, 4), (0, 2, 4, 5)) in [(p.sigma, p.tau) for p in pairs]

    def test_deterministic_order(self):
        pairs = clique_complex(gstar()).free_pairs()
        assert pairs == sorted(pairs, key=lambda p: (p.tau, p.sigma))

    @given(mixed_complexes(max_n=6))
    def test_matches_brute_force(self, cx):
        assert [(p.sigma, p.tau) for p in cx.free_pairs()] == brute_free_pairs(list(cx.faces))
        assert list(cx.maximal_faces) == brute_maximal_faces(list(cx.faces))

    @given(connected_graphs(max_n=6))
    @settings(max_examples=30)
    def test_matches_brute_force_after_collapses(self, g):
        cx = clique_complex(g)
        for _ in range(3):
            pairs = cx.free_pairs()
            if not pairs:
                break
            cx = cx.collapse(pairs[0])
            assert [(p.sigma, p.tau) for p in cx.free_pairs()] == brute_free_pairs(
                list(cx.faces)
            )


class TestCollapse:
    def test_triangle_vertex_pair_removes_interval(self):
        cx = clique_complex(complete(3))
        pair = next(p for p in cx.free_pairs() if p.sigma == (0,))
        out = cx.collapse(pair)
        assert out.faces == ((1,), (2,), (1, 2))

    @given(connected_graphs(max_n=6))
    @settings(max_examples=40)
    def test_face_count_drop_and_closure(self, g):
        cx = clique_complex(g)
        for pair in cx.free_pairs()[:4]:
            out = cx.collapse(pair)
            assert cx.face_count - out.face_count == 2 ** (len(pair.tau) - len(pair.sigma))
            assert _closed_downward(out)

    def test_not_a_free_pair_rejected(self):
        cx = clique_complex(cycle(4))
        with pytest.raises(ValueError, match="not a free pair"):
            cx.collapse(FreePair((0,), (0, 1)))

    def test_point_collapse_inapplicable(self):
        cx = clique_complex(complete(1))
        with pytest.raises(ValueError):
            cx.collapse(FreePair((0,), (0, 1)))

    def test_stale_pair_rejected(self):
        cx = clique_complex(complete(3))
        pair = next(p for p in cx.free_pairs() if p.sigma == (0, 1))
        once = cx.collapse(pair)
        with pytest.raises(ValueError):
            once.collapse(pair)


class TestIsCollapsible:
    def test_point_true_empty_witness(self):
        v = is_collapsible(clique_complex(complete(1)))
        assert v.status == COLLAPSIBLE
        assert v.collapsible is True
        assert v.witness == ()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_complete_graphs(self, n):
        v = is_collapsible(clique_complex(complete(n)))
        assert v.collapsible is True

    def test_four_cycle_false_without_search(self):
        v = is_collapsible(clique_complex(cycle(4)))
        assert v.status == NOT_COLLAPSIBLE
        assert v.collapsible is False
        assert v.nodes_expanded == 0  # settled by the Euler number alone

    def test_two_points_false(self):
        v = is_collapsible(SimplicialComplex.from_maximal([[0], [1]]))
        assert v.collapsible is False

    def test_budget_exhaustion(self):
        v = is_collapsible(clique_complex(gstar()), budget=2)
        assert v.status == EXHAUSTED
        assert v.collapsible is None

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_is_rejected(self, budget):
        with pytest.raises(ValueError, match=f"^collapse_budget must be positive, got {budget}$"):
            is_collapsible(clique_complex(gstar()), budget=budget)

    @given(connected_graphs(max_n=6))
    @settings(max_examples=30)
    def test_witness_replays_to_a_point(self, g):
        cx = clique_complex(g)
        v = is_collapsible(cx)
        if v.status != COLLAPSIBLE:
            return
        for pair in v.witness:
            assert pair.is_elementary
            cx = cx.collapse(pair)
        assert cx.face_count == 1 and cx.dim == 0

    @given(mixed_complexes(max_n=7), st.sampled_from([3, 40, 10**6]))
    @settings(max_examples=40)
    def test_search_matches_frozenset_memo_reference(self, cx, budget):
        # the reference keys dead states by their face sets; the search's
        # int keys must give the same order, verdict, witness and count
        v = is_collapsible(cx, budget=budget)
        witness = None if v.witness is None else tuple((p.sigma, p.tau) for p in v.witness)
        assert (v.status, witness, v.nodes_expanded) == reference_collapse_search(list(cx.faces), budget)

    def test_search_matches_reference_past_dead_states(self):
        # a point beside a 4-cycle with a triangle and a whisker hung on
        # it: Euler characteristic 1, so the gate passes and the search
        # must try every order of the free collapses, meeting dead states
        # again on the way
        g = Graph(range(8), [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5), (3, 5), (0, 6)])
        cx = clique_complex(g)
        v = is_collapsible(cx)
        assert (v.status, v.nodes_expanded) == (NOT_COLLAPSIBLE, 14)
        assert reference_collapse_search(list(cx.faces), 10**6) == (NOT_COLLAPSIBLE, None, 14)

    def test_long_path_without_deep_recursion(self):
        # one search node per collapsed edge, 1,199 deep
        g = path(1200)
        v = is_collapsible(clique_complex(g))
        assert (v.status, v.nodes_expanded) == (COLLAPSIBLE, 1199)
        faces = replayed(g, v.witness)
        assert len(faces) == 1 and faces.pop().bit_count() == 1


class TestCollapseViaTrace:
    def test_k4(self):
        g = complete(4)
        _, trace = contractible_reduction(g)
        pairs = collapse_via_trace(g, trace)
        assert len(pairs) == (clique_complex(g).face_count - 1) // 2
        cx = clique_complex(g)
        for pair in pairs:
            assert pair.is_elementary
            cx = cx.collapse(pair)
        assert cx.face_count == 1

    def test_gstar(self):
        g = gstar()
        _, trace = contractible_reduction(g)
        pairs = collapse_via_trace(g, trace)
        assert len(pairs) == 17
        cx = clique_complex(g)
        for pair in pairs:
            cx = cx.collapse(pair)
        assert cx.face_count == 1

    def test_partial_trace_reaches_reduced_complex(self):
        g = g8()
        reduced, trace = edge_extended_reduction(g)
        pairs = collapse_via_trace(g, trace)
        cx = clique_complex(g)
        for pair in pairs:
            cx = cx.collapse(pair)
        assert cx == clique_complex(reduced)
        assert replayed(g, pairs) == set(cx._masks)

    def test_edge_steps_change_a_later_link(self):
        # Deleting edges 0-4 and 2-3 of K5 turns the link {1, 2, 3} of
        # vertex 0 from a triangle into a path, after the first step has
        # already lifted that triangle.
        g = complete(5)
        trace = ReductionTrace.from_text("trace 3\nE 0 4\nE 2 3\nV 0\n", g)
        assert replayed(g, collapse_via_trace(g, trace)) == set(clique_complex(trace.replay(g))._masks)

    @given(connected_graphs(max_n=7))
    @settings(max_examples=40)
    def test_random_traces_replay(self, g):
        reduced, trace = contractible_reduction(g)
        pairs = collapse_via_trace(g, trace)
        cx = clique_complex(g)
        for pair in pairs:
            cx = cx.collapse(pair)
        assert cx == clique_complex(reduced)
        if is_strong_contractible(g):
            assert cx.face_count == 1

    def test_stale_trace_rejected(self):
        _, trace = contractible_reduction(complete(4))
        with pytest.raises(ValueError, match="trace step"):
            collapse_via_trace(cycle(4), trace)


class TestSerialization:
    @given(connected_graphs(max_n=7))
    def test_roundtrip(self, g):
        cx = clique_complex(g)
        assert SimplicialComplex.from_text(cx.to_text()) == cx

    def test_roundtrip_after_collapse(self):
        cx = clique_complex(gstar())
        cx = cx.collapse(cx.free_pairs()[0])
        assert SimplicialComplex.from_text(cx.to_text()) == cx

    def test_text_is_maximal_faces(self):
        assert clique_complex(complete(3)).to_text() == "0 1 2\n"

    def test_from_text_errors(self):
        with pytest.raises(ValueError):
            SimplicialComplex.from_text("0 x\n")

    @pytest.mark.parametrize(
        "text,line,message",
        [
            ("0 1\n\n# next\n0 x\n", 4, "expected integer vertex ids, got '0 x'"),
            ("0 1\n\n\n2 -1\n", 4, "vertex id -1 is negative"),
        ],
    )
    def test_from_text_errors_name_the_line(self, text, line, message):
        with pytest.raises(GraphFormatError) as err:
            SimplicialComplex.from_text(text)
        assert err.value.line == line
        assert str(err.value) == f"<complex>:{line}: {message}"


class TestEquality:
    def test_collapse_order_does_not_matter_for_equal_results(self):
        cx = clique_complex(complete(3))
        p1 = next(p for p in cx.free_pairs() if p.sigma == (0, 1))
        p2 = next(p for p in cx.free_pairs() if p.sigma == (0, 2))
        a = cx.collapse(p1)
        b = cx.collapse(p2)
        assert a != b
        assert hash(clique_complex(complete(3))) == hash(cx)

    def test_equal_complexes_equal_hash(self):
        a = SimplicialComplex.from_maximal([[0, 1], [1, 2]])
        b = clique_complex(path(3))
        assert a == b and hash(a) == hash(b)
