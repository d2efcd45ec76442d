import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

from graphcollapse import (
    Graph,
    ReductionTrace,
    clear_caches,
    contractible_reduction,
    edge_extended_reduction,
    is_strong_contractible,
    is_strong_contractible_any_order,
)
from graphcollapse import clique_complex, collapse_via_trace, graph_from_canonical
from graphcollapse.complexes import FreePair
from graphcollapse.contract import Step, _contractible, _is_cone
from graphcollapse.errors import GraphFormatError
from graphcollapse.homology import ChainVector, homology, push_cycle_sequence
from graphcollapse.factories import complete, cycle, edgeless, octahedron, path

from helpers import (
    arbitrary_graphs,
    brute_betti_gf2,
    brute_cliques,
    brute_euler,
    connected_graphs,
    g8,
    greedy_contractible,
    greedy_reduction,
    gstar,
    is_point_betti,
    reference_any_order,
    replayed,
    rp2_subdivision,
    sparse_connected_graphs,
)


class TestVerdicts:
    def test_point_accepted(self):
        assert is_strong_contractible(complete(1))

    def test_empty_rejected(self):
        assert not is_strong_contractible(Graph())

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_complete_graphs_accepted(self, n):
        assert is_strong_contractible(complete(n))

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_cycles_rejected(self, n):
        assert not is_strong_contractible(cycle(n))

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_paths_accepted(self, n):
        assert is_strong_contractible(path(n))

    def test_disconnected_rejected(self):
        assert not is_strong_contractible(edgeless(2))
        assert not is_strong_contractible(Graph(range(4), [(0, 1), (2, 3)]))

    def test_gstar_accepted(self):
        assert is_strong_contractible(gstar())

    def test_octahedron_rejected(self):
        assert is_strong_contractible(octahedron()) is False

    @given(connected_graphs(max_n=6))
    def test_verdict_is_a_clean_bool(self, g):
        assert is_strong_contractible(g) in (True, False)


class TestGreedyOrder:
    def test_k4_deletes_first_qualifying_vertex_each_round(self):
        reduced, trace = contractible_reduction(complete(4))
        assert trace.deleted_vertices == (0, 1, 2)
        assert reduced == Graph([3])

    def test_gstar_trace(self):
        reduced, trace = contractible_reduction(gstar())
        assert trace.deleted_vertices == (0, 1, 2, 3, 4)
        assert reduced.vertices == (5,)

    def test_four_cycle_is_stuck(self):
        reduced, trace = contractible_reduction(cycle(4))
        assert reduced == cycle(4)
        assert trace.steps == ()

    @given(connected_graphs(max_n=7))
    def test_accepted_iff_reduction_reaches_point(self, g):
        reduced, _ = contractible_reduction(g)
        assert is_strong_contractible(g) == (reduced.n == 1)

    @given(connected_graphs(max_n=7))
    def test_trace_replay_reproduces_reduction(self, g):
        reduced, trace = contractible_reduction(g)
        assert trace.replay(g) == reduced

    @given(connected_graphs(max_n=7))
    def test_reduction_is_deterministic(self, g):
        first = contractible_reduction(g)
        clear_caches()
        second = contractible_reduction(g)
        assert first == second

    @given(connected_graphs(max_n=6))
    def test_reduced_graph_is_induced_subgraph(self, g):
        reduced, trace = contractible_reduction(g)
        assert set(reduced.vertices) <= set(g.vertices)
        assert g.induced(reduced.vertices) == reduced

    @given(connected_graphs(max_n=6))
    def test_greedy_acceptance_implies_some_order_acceptance(self, g):
        if is_strong_contractible(g):
            assert is_strong_contractible_any_order(g)

    def test_any_order_on_a_long_path_without_deep_recursion(self):
        # one search frame per deletion, 1,199 deep
        assert is_strong_contractible_any_order(path(1200))
        with pytest.raises(RecursionError):
            reference_any_order(path(1200))

    @given(st.one_of(arbitrary_graphs(max_n=9), sparse_connected_graphs(max_n=8)))
    @example(octahedron())
    @example(rp2_subdivision())
    def test_any_order_matches_recursive_reference(self, g):
        assert is_strong_contractible_any_order(g) == reference_any_order(g)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_no_order_gap_up_to_five_vertices(self, n):
        from graphcollapse import generate_connected, graph_from_canonical

        for form in generate_connected(n)[n]:
            g = graph_from_canonical(form)
            assert is_strong_contractible(g) == is_strong_contractible_any_order(g)


def _has_point_homology(g):
    """Euler characteristic 1 and a point's GF(2) Betti numbers, by brute force."""
    faces = [c for cs in brute_cliques(g).values() for c in cs]
    return brute_euler(faces) == 1 and is_point_betti(brute_betti_gf2(g))


class TestHomologyOfAccepted:
    @given(connected_graphs(max_n=6))
    @settings(max_examples=40)
    def test_accepted_graphs_have_point_homology(self, g):
        if is_strong_contractible(g):
            betti = brute_betti_gf2(g)
            assert betti[0] == 1
            assert all(b == 0 for b in betti[1:])

    # The census's order-gap gate rests on these: a graph that some
    # deletion order takes to a point has a collapsible clique complex,
    # hence Euler characteristic 1 and zero reduced homology.

    def test_any_order_acceptance_implies_point_homology_through_seven(self, census7):
        accepted = 0
        for e in census7.entries():
            g = graph_from_canonical(e.form)
            if is_strong_contractible_any_order(g):
                accepted += 1
                assert _has_point_homology(g), e.form.hex()
        assert accepted == 496

    @given(st.one_of(arbitrary_graphs(max_n=9), connected_graphs(max_n=9)))
    def test_any_order_acceptance_implies_point_homology(self, g):
        if is_strong_contractible_any_order(g):
            assert _has_point_homology(g)


class TestEdgeExtended:
    def test_vertex_reduction_alone_is_stuck_on_g8(self):
        reduced, trace = contractible_reduction(g8())
        assert reduced == g8()
        assert trace.steps == ()

    def test_edge_pass_strips_triangle_interior(self):
        reduced, trace = edge_extended_reduction(g8())
        assert reduced.n == 8
        assert reduced.m == 9
        deleted = trace.deleted_edges
        assert deleted == ((0, 1), (0, 2), (1, 2))
        assert brute_betti_gf2(reduced)[:2] == brute_betti_gf2(g8())[:2] == (1, 2)

    def test_agrees_with_vertex_reduction_when_never_stuck(self):
        assert edge_extended_reduction(complete(5)) == contractible_reduction(complete(5))

    @given(connected_graphs(max_n=7))
    def test_edge_extended_never_larger(self, g):
        vr, _ = contractible_reduction(g)
        er, _ = edge_extended_reduction(g)
        assert (er.n, er.m) <= (vr.n, vr.m)

    @given(connected_graphs(max_n=6))
    @settings(max_examples=40)
    def test_edge_extended_preserves_betti(self, g):
        er, _ = edge_extended_reduction(g)
        a, b = brute_betti_gf2(g), brute_betti_gf2(er)
        k = max(len(a), len(b))
        assert a + (0,) * (k - len(a)) == b + (0,) * (k - len(b))

    @given(connected_graphs(max_n=7))
    def test_edge_trace_replay(self, g):
        reduced, trace = edge_extended_reduction(g)
        assert trace.replay(g) == reduced


class TestTraceFormat:
    @given(connected_graphs(max_n=7))
    def test_text_roundtrip(self, g):
        _, trace = edge_extended_reduction(g)
        assert ReductionTrace.from_text(trace.to_text(), g) == trace

    def test_from_text_without_graph_drops_links(self):
        _, trace = contractible_reduction(complete(3))
        bare = ReductionTrace.from_text(trace.to_text())
        assert bare.deleted_vertices == trace.deleted_vertices
        assert all(s.link == frozenset() for s in bare.steps)

    def test_replay_rejects_stale_trace(self):
        _, trace = contractible_reduction(complete(4))
        with pytest.raises(ValueError, match="trace step"):
            trace.replay(cycle(4))
        # Parsing takes the links from the graph it is given, so it finds
        # the stale trace's vertices and records cycle(4)'s links instead.
        parsed = ReductionTrace.from_text(trace.to_text(), cycle(4))
        assert parsed != trace and parsed.steps[0].link == frozenset({1, 3})
        with pytest.raises(ValueError, match=r"link of \[0\] is not strongly contractible"):
            push_cycle_sequence(ChainVector(0, {(0,): 1}), cycle(4), trace)

    def test_replay_rejects_edge_step_off_the_graph(self):
        missing = ReductionTrace.from_text("trace 1\nE 2 0\n")
        with pytest.raises(ValueError, match="trace step"):
            missing.replay(cycle(4))
        stale = ReductionTrace((Step((0, 1), 1 << 2),))
        with pytest.raises(ValueError, match="trace step"):
            stale.replay(cycle(4))
        assert stale.replay(complete(3)) == complete(3).delete_edge(0, 1)
        with pytest.raises(ValueError, match=r"simplex \[0, 2\] is not in the graph"):
            ReductionTrace.from_text("trace 1\nE 2 0\n", cycle(4))
        with pytest.raises(ValueError, match=r"simplex \[0, 2\] is not in the graph"):
            push_cycle_sequence(ChainVector(0, {(0,): 1}), cycle(4), missing)

    @pytest.mark.parametrize("reduce", [contractible_reduction, edge_extended_reduction])
    def test_trace_consumers_leave_the_graph_alone(self, reduce):
        for g in (g8(), gstar(), path(30)):
            before = dict(g._adj)
            reduced, trace = reduce(g)
            assert trace.replay(g) == reduced
            assert ReductionTrace.from_text(trace.to_text(), g) == trace
            push_cycle_sequence(ChainVector(0, {(g.vertices[-1],): 1}), g, trace)
            collapse_via_trace(g, trace)
            assert g._adj == before

    def test_apex_is_the_ascending_simplex(self):
        vertex, edge = Step((3,)), Step((2, 5))
        assert (vertex.kind, vertex.element) == ("vertex", 3)
        assert (edge.kind, edge.element) == ("edge", (2, 5))
        trace = ReductionTrace((vertex, edge))
        assert trace.to_text() == "trace 2\nV 3\nE 2 5\n"
        assert ReductionTrace.from_text("trace 2\nV 3\nE 5 2\n") == trace

    def test_from_text_errors(self):
        with pytest.raises(ValueError):
            ReductionTrace.from_text("not a trace\n")
        with pytest.raises(ValueError):
            ReductionTrace.from_text("trace 2\nV 0\n")
        with pytest.raises(ValueError):
            ReductionTrace.from_text("trace 1\nQ 3\n")
        for body, message in [
            ("V x", "integer vertex ids"),
            ("E 1 y", "integer vertex ids"),
            ("V -1", "negative"),
            ("E 2 -3", "negative"),
            ("E 3 3", "two distinct vertices"),
        ]:
            with pytest.raises(GraphFormatError, match=message) as err:
                ReductionTrace.from_text(f"trace 2\nV 0\n{body}\n", source="t.txt")
            assert err.value.line == 3
            assert str(err.value).startswith("t.txt:3: ")

    def test_steps_carry_links(self):
        _, trace = contractible_reduction(complete(3))
        first = trace.steps[0]
        assert first.kind == "vertex"
        assert first.element == 0
        assert first.link == frozenset({1, 2})
        assert first.mask == 0b110
        assert repr(first) == "Step((0,), link=[1, 2])"

    def test_bad_step_apex_rejected(self):
        for apex in [(), (5, 2), (3, 3), (1, 2, 3), [3], 3]:
            with pytest.raises(ValueError, match="step apex"):
                Step(apex)


class TestAgainstTranscription:
    """The memoized scan against a memo-free transcription of the rule."""

    @staticmethod
    def check(g):
        assert is_strong_contractible(g) == greedy_contractible(g)
        for reduce, edges in ((contractible_reduction, False), (edge_extended_reduction, True)):
            reduced, trace = reduce(g)
            want_reduced, want_steps = greedy_reduction(g, edges)
            assert reduced == want_reduced
            assert [(s.kind, s.element, s.link) for s in trace] == want_steps

    # After the edge step (1, 4), a verdict memoized before it would be
    # stale and change the rest of this trace.
    @example(
        Graph(
            range(8),
            [(0, 1), (0, 3), (0, 4), (0, 7), (1, 2), (1, 4), (1, 6), (1, 7), (2, 3),
             (2, 5), (2, 6), (3, 4), (3, 6), (3, 7), (4, 5), (5, 6), (5, 7)],
        )
    )
    @given(connected_graphs(max_n=8))
    @settings(max_examples=150)
    def test_dense_ids(self, g):
        self.check(g)

    @given(sparse_connected_graphs(max_n=8))
    @settings(max_examples=150)
    def test_sparse_ids(self, g):
        self.check(g)

    # Isolated vertices and several components: the scan stops at the
    # first vertex left without a neighbor, in the graph itself or in a
    # neighborhood it recurses into. In the last two examples vertex 0's
    # neighborhood loses its last edge, 1-2, or its path 1-2-3, partway
    # through the scan.
    @example(Graph(range(6), [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]))
    @example(Graph(range(4), [(1, 2), (1, 3), (2, 3)]))
    @example(Graph(range(6), [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4), (4, 5)]))
    @example(Graph(range(7), [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (2, 3), (4, 5), (5, 6)]))
    @given(arbitrary_graphs(max_n=8))
    @settings(max_examples=150)
    def test_disconnected(self, g):
        self.check(g)

    def test_rejected_vertex_is_tested_again_after_a_neighbor_goes(self):
        # 0 fails at first, its neighborhood {1, 2} being disconnected, and
        # qualifies once 1 is deleted; it must then go before 2.
        g = Graph(range(3), [(0, 1), (0, 2)])
        assert contractible_reduction(g)[1].deleted_vertices == (1, 0)
        self.check(g)

    @staticmethod
    def cone(base, apex):
        """base plus apex joined to every base vertex."""
        return Graph((*base.vertices, apex), [*base.edges, *((apex, v) for v in base.vertices)])

    def test_cone_with_apex_above_the_lowest_id(self):
        g = self.cone(Graph([0, 1, 3, 4, 5], [(0, 1), (1, 3), (3, 4), (4, 5)]), 2)
        assert is_strong_contractible(g)
        self.check(g)

    @pytest.mark.parametrize(
        "base, apex",
        [
            (Graph([0, 1, 3, 4], [(0, 1), (1, 3), (3, 4), (4, 0)]), 2),
            (cycle(5).relabeled({v: v + 1 for v in range(5)}), 0),
            (octahedron().relabeled({v: v + (v >= 3) for v in range(6)}), 3),
            (octahedron(), 6),
        ],
    )
    def test_cone_whose_apex_link_fails(self, base, apex):
        assert not is_strong_contractible(base)
        g = self.cone(base, apex)
        assert is_strong_contractible(g)
        self.check(g)

    def test_generated_cases_include_edge_steps(self):
        # An edge step followed by more steps runs the scan again on a
        # changed adjacency, where verdicts memoized before it may not hold.
        def edge_step_then_more(g):
            kinds = [s.kind for s in edge_extended_reduction(g)[1]]
            return "edge" in kinds[:-1]

        quick = settings(database=None, derandomize=True, max_examples=2000, phases=[Phase.generate])
        g = find(sparse_connected_graphs(max_n=8), edge_step_then_more, settings=quick)
        self.check(g)


class TestScanShortcuts:
    @given(arbitrary_graphs(max_n=9), st.integers(0, (1 << 9) - 1))
    @settings(max_examples=150)
    def test_is_cone_returns_the_lowest_apex(self, g, sub):
        # homology._bound joins a pushed cycle on exactly this vertex.
        adj, mask = g._adj, sub & g._vmask
        apexes = [v for v in g.vertices if mask >> v & 1 and (adj[v] | 1 << v) & mask == mask]
        assert _is_cone(adj, mask) == (1 << min(apexes) if apexes else 0)

    def test_verdict_stops_at_an_isolated_vertex(self):
        # Vertex 0 is isolated, so the answer is no before any vertex of
        # the path 2, 1, 3, 4, ..., 50 is scanned. Scanning vertex 1 would
        # memoize its neighborhood {2, 3}.
        g = Graph(range(51), [(1, 2), (1, 3), *((v, v + 1) for v in range(3, 50))])
        memo: dict[int, bool] = {}
        assert _contractible(g._adj, g._vmask, memo) is False
        assert len(memo) == 1


def trace_corpus() -> list[Graph]:
    """300 seeded graphs on at most 14 vertices with random density,
    then increasing relabellings of the first 30 onto sparse ids."""
    rng = random.Random(5)
    graphs = []
    for _ in range(300):
        n, p = rng.randint(1, 14), rng.random()
        graphs.append(Graph(range(n), [e for e in combinations(range(n), 2) if rng.random() < p]))
    for g in graphs[:30]:
        ids = sorted(rng.sample(range(10**4), g.n))
        graphs.append(g.relabeled(dict(zip(g.vertices, ids))))
    return graphs


# sha256 of every (apex, link mask) step of both reductions over
# trace_corpus(). Kernel changes to the greedy scan must keep it.
TRACE_DIGEST = "ecacb2599d470971a12787b216e2b94521725b4510d73f084c602e1d86ea5f3a"


class TestTraceDigest:
    def test_traces_are_pinned(self):
        h = hashlib.sha256()
        for g in trace_corpus():
            for reduce in (contractible_reduction, edge_extended_reduction):
                for step in reduce(g)[1]:
                    h.update(f"{step.apex} {step.mask:x};".encode())
                h.update(b"|")
        assert h.hexdigest() == TRACE_DIGEST


class TestLargeInputs:
    def test_long_path_is_reduced_without_deep_recursion(self):
        g = path(1200)
        assert is_strong_contractible(g)
        reduced, trace = contractible_reduction(g)
        assert reduced.n == 1
        assert len(trace) == 1199
        assert len(collapse_via_trace(g, trace)) == 1199
        assert trace.replay(g) == reduced
        assert ReductionTrace.from_text(trace.to_text(), g) == trace
        point = ChainVector(0, {(0,): 1})
        assert push_cycle_sequence(point, g, trace) == ChainVector(0, {reduced.vertices: 1})

    def test_long_path_collapse_replays_to_a_point(self):
        g = path(1200)
        faces = replayed(g, collapse_via_trace(g, contractible_reduction(g)[1]))
        assert len(faces) == 1 and faces.pop().bit_count() == 1

    def test_far_apart_ids(self):
        g = Graph([0, 10**7], [(0, 10**7)])
        assert g.edges == ((0, 10**7),)
        reduced, trace = contractible_reduction(g)
        assert reduced == Graph([10**7])
        assert trace.deleted_vertices == (0,)
        assert clique_complex(g).faces == ((0,), (10**7,), (0, 10**7))

    @pytest.mark.parametrize("reduce", [contractible_reduction, edge_extended_reduction])
    def test_ids_up_to_ten_million_agree_with_dense_ids(self, reduce):
        # g8 with a vertex coned over the edge (4, 5): the vertex pass
        # deletes it, and the edge pass then strips g8's K4 interior.
        # The increasing relabelling keeps the scan order, so each
        # consumer's answer is the dense graph's, relabelled; the sparse
        # trace's link masks run to millions of bits.
        dense = Graph(range(9), [*g8().edges, (4, 8), (5, 8)])
        ids = {v: 10**7 * v // 8 for v in dense.vertices}
        sparse = dense.relabeled(ids)

        def up(simplex):
            return tuple(ids[v] for v in simplex)

        reduced, trace = reduce(dense)
        sparse_reduced, sparse_trace = reduce(sparse)
        assert ("edge" in {s.kind for s in trace}) == (reduce is edge_extended_reduction)
        assert [(s.apex, s.link) for s in sparse_trace] == [(up(s.apex), frozenset(up(s.link))) for s in trace]
        for step in sparse_trace:
            assert repr(step) == f"Step({step.apex!r}, link={sorted(step.link)})"
        assert ReductionTrace.from_text(sparse_trace.to_text(), sparse) == sparse_trace
        assert sparse_trace.replay(sparse) == sparse_reduced == reduced.relabeled(ids)
        assert collapse_via_trace(sparse, sparse_trace) == tuple(
            FreePair(up(p.sigma), up(p.tau)) for p in collapse_via_trace(dense, trace)
        )
        cycles = [ChainVector(0, {(0,): 1}), *homology(dense).group(1).representatives]
        for z in cycles:
            pushed = push_cycle_sequence(z, dense, trace)
            sparse_z = ChainVector(z.dim, {up(s): c for s, c in z.items()})
            assert push_cycle_sequence(sparse_z, sparse, sparse_trace) == ChainVector(
                pushed.dim, {up(s): c for s, c in pushed.items()}
            )


class TestCaches:
    def test_clear_caches_keeps_answers(self):
        before = is_strong_contractible(gstar())
        clear_caches()
        assert is_strong_contractible(gstar()) == before
