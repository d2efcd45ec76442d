"""Chain arithmetic, boundary maps, homology groups, and induced maps."""

import random
import sys
from itertools import combinations

import pytest
from hypothesis import example, given, strategies as st

from graphcollapse.complexes import enumerate_cliques
from graphcollapse.contract import ReductionTrace, contractible_reduction, edge_extended_reduction
from graphcollapse.factories import complete, cycle, octahedron, path
from graphcollapse.graphs import Graph
from graphcollapse.homology import (
    BoundaryMatrix,
    ChainVector,
    Coefficients,
    betti_numbers,
    boundary,
    boundary_matrix,
    clique_basis,
    express_in_homology_basis,
    homology,
    induced_map,
    join_edge,
    join_vertex,
    push_cycle,
    push_cycle_edge,
    push_cycle_sequence,
    _cleared_pivots,
    split_at_edge,
    split_at_vertex,
)

from helpers import (
    arbitrary_graphs,
    brute_betti_gf2,
    brute_invariant_factors,
    brute_cliques,
    connected_graphs,
    g8,
    gf2_rank,
    gstar,
    in_integer_span,
    inclusion_rank_gf2,
    rational_rank,
    reference_cleared_pivots,
    reference_nullspace,
    reference_rref,
    rp2_subdivision,
)

GF2 = Coefficients(2)
GF3 = Coefficients(3)
ZZ = Coefficients.integers()


def chains(dim, max_vertex=6):
    """Strategy for nonzero-ish chains of a fixed dimension."""
    simplices = st.lists(
        st.integers(min_value=0, max_value=max_vertex), min_size=dim + 1,
        max_size=dim + 1, unique=True,
    ).map(lambda vs: tuple(sorted(vs)))
    return st.dictionaries(
        simplices, st.integers(min_value=-4, max_value=4), max_size=6,
    ).map(lambda terms: ChainVector(dim, terms))


# ---------------------------------------------------------------- chain vectors


class TestChainVector:
    def test_zero_coefficients_dropped(self):
        c = ChainVector(1, {(0, 1): 0, (1, 2): 3})
        assert c.items() == [((1, 2), 3)]

    def test_support_sorted(self):
        c = ChainVector(1, {(1, 2): -1, (0, 1): 1})
        assert c.support == ((0, 1), (1, 2))
        assert c.items() == [((0, 1), 1), ((1, 2), -1)]

    def test_simplices_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ChainVector(1, {(1, 0): 1})
        with pytest.raises(ValueError, match="strictly increasing"):
            ChainVector(1, {(2, 2): 1})

    def test_simplex_dimension_checked(self):
        with pytest.raises(ValueError, match="dimension"):
            ChainVector(1, {(0,): 1})

    def test_dim_minus_one_chains_exist(self):
        c = ChainVector(-1, {(): 5})
        assert c.dim == -1
        assert c.coefficient(()) == 5

    def test_addition_and_subtraction(self):
        a = ChainVector(1, {(0, 1): 1, (1, 2): 2})
        b = ChainVector(1, {(1, 2): -2, (2, 3): 1})
        assert (a + b).items() == [((0, 1), 1), ((2, 3), 1)]
        assert (a - a).is_zero

    def test_scalar_multiple(self):
        a = ChainVector(1, {(0, 1): 2})
        assert (3 * a).coefficient((0, 1)) == 6
        assert (0 * a).is_zero

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            ChainVector(1, {(0, 1): 1}) + ChainVector(2, {(0, 1, 2): 1})

    def test_equality_and_hash(self):
        a = ChainVector(1, {(0, 1): 1})
        b = ChainVector(1, {(0, 1): 1, (1, 2): 0})
        assert a == b
        assert hash(a) == hash(b)
        assert a != ChainVector(1, {(0, 1): -1})

    def test_coefficient_of_missing_simplex_is_zero(self):
        assert ChainVector(1, {(0, 1): 1}).coefficient((4, 5)) == 0

    def test_reduce_mod_two_sends_signs_to_one(self):
        c = ChainVector(1, {(0, 1): -1, (1, 2): 2, (2, 3): 3})
        assert c.reduce(GF2).items() == [((0, 1), 1), ((2, 3), 1)]

    def test_is_zero(self):
        assert ChainVector(2, {}).is_zero
        assert not ChainVector(2, {(0, 1, 2): 1}).is_zero


# -------------------------------------------------------------------- boundary


class TestBoundary:
    def test_vertex_boundary_vanishes(self):
        b = boundary(ChainVector(0, {(3,): 1}))
        assert b.dim == -1
        assert b.is_zero

    def test_edge_boundary_is_head_minus_tail(self):
        b = boundary(ChainVector(1, {(2, 5): 1}))
        assert b.items() == [((2,), -1), ((5,), 1)]

    def test_triangle_boundary_alternates(self):
        b = boundary(ChainVector(2, {(0, 1, 2): 1}))
        assert b.items() == [((0, 1), 1), ((0, 2), -1), ((1, 2), 1)]

    def test_linear_combination(self):
        b = boundary(ChainVector(1, {(0, 1): 1, (1, 2): -1}))
        assert b.items() == [((0,), -1), ((1,), 2), ((2,), -1)]

    @given(chains(1) | chains(2) | chains(3))
    def test_boundary_squared_zero_over_integers(self, c):
        assert boundary(boundary(c)).is_zero

    @given(chains(2) | chains(3))
    def test_boundary_squared_zero_mod_two(self, c):
        c2 = c.reduce(GF2)
        assert boundary(boundary(c2).reduce(GF2)).reduce(GF2).is_zero

    def test_boundary_validates_against_graph(self):
        g = Graph(range(3), [(0, 1)])
        with pytest.raises(ValueError, match="not supported on cliques"):
            boundary(ChainVector(1, {(1, 2): 1}), g)

    def test_boundary_accepts_supported_chain(self):
        g = complete(3)
        b = boundary(ChainVector(2, {(0, 1, 2): 1}), g)
        assert b.support == ((0, 1), (0, 2), (1, 2))


# ------------------------------------------------------------------ join/split


class TestJoinSplit:
    def test_join_vertex_sign_at_end(self):
        c = join_vertex(2, ChainVector(1, {(0, 1): 1}))
        assert c.items() == [((0, 1, 2), 1)]

    def test_join_vertex_sign_in_middle(self):
        c = join_vertex(1, ChainVector(1, {(0, 2): 1}))
        assert c.items() == [((0, 1, 2), -1)]

    def test_join_vertex_rejects_member(self):
        with pytest.raises(ValueError):
            join_vertex(0, ChainVector(1, {(0, 1): 1}))

    @given(chains(1) | chains(2), st.integers(min_value=0, max_value=7))
    def test_split_at_vertex_reassembles(self, c, v):
        rest, stripped = split_at_vertex(c, v)
        assert all(v not in s for s in rest.support)
        assert all(v not in s for s in stripped.support)
        assert rest + join_vertex(v, stripped) == c

    def test_split_zero_chain_at_vertex(self):
        c0 = ChainVector(0, {(3,): 4, (5,): -1})
        rest, stripped = split_at_vertex(c0, 3)
        assert rest.items() == [((5,), -1)]
        assert stripped.dim == -1 and stripped.coefficient(()) == 4

    @given(chains(1) | chains(2), st.integers(min_value=0, max_value=7))
    def test_cone_boundary_identity(self, q, v):
        # d(v * q) == q - v * dq  whenever v misses every simplex of q
        if any(v in s for s in q.support):
            q, _ = split_at_vertex(q, v)
        assert boundary(join_vertex(v, q)) == q - join_vertex(v, boundary(q))

    @given(chains(0, max_vertex=5))
    def test_cone_boundary_identity_dim_zero(self, q):
        # in degree zero the correction term is the total coefficient at v
        v = 9
        eps = sum(coeff for _, coeff in q.items())
        expected = q - ChainVector(0, {(v,): eps})
        assert boundary(join_vertex(v, q)) == expected

    def test_join_edge_sign(self):
        c = join_edge(0, 1, ChainVector(1, {(2, 3): 1}))
        assert c.items() == [((0, 1, 2, 3), 1)]

    @given(chains(2) | chains(3), st.sampled_from([(0, 1), (2, 5), (5, 2), (1, 6)]))
    def test_split_at_edge_reassembles(self, c, edge):
        u, v = edge
        rest, stripped = split_at_edge(c, u, v)
        for s in rest.support:
            assert not (u in s and v in s)
        for s in stripped.support:
            assert u not in s and v not in s
        assert rest + join_edge(u, v, stripped) == c

    def test_split_at_edge_needs_dimension_two(self):
        with pytest.raises(ValueError, match="dimension >= 2"):
            split_at_edge(ChainVector(1, {(0, 1): 1}), 0, 1)


# ------------------------------------------------------- bases and matrices


class TestCliqueBasis:
    def test_matches_brute_enumeration(self):
        g = gstar()
        for dim in range(4):
            expected = tuple(brute_cliques(g, dim + 1).get(dim + 1, []))
            assert clique_basis(g, dim) == expected

    def test_lexicographic_order(self):
        basis = clique_basis(complete(4), 1)
        assert basis == tuple(sorted(basis))

    def test_empty_when_too_high(self):
        assert clique_basis(cycle(4), 2) == ()


class TestBoundaryMatrix:
    def test_fields(self):
        bm = boundary_matrix(complete(3), 1)
        assert isinstance(bm, BoundaryMatrix)
        assert bm.dim == 1
        assert bm.domain == clique_basis(complete(3), 1)
        assert bm.codomain == clique_basis(complete(3), 0)
        assert bm.matrix.shape == (3, 3)

    def test_columns_are_simplex_boundaries(self):
        g = gstar()
        for dim in (1, 2, 3):
            bm = boundary_matrix(g, dim)
            index = {s: i for i, s in enumerate(bm.codomain)}
            for j, s in enumerate(bm.domain):
                b = boundary(ChainVector(dim, {s: 1}))
                col = [0] * len(bm.codomain)
                for face, coeff in b.items():
                    col[index[face]] = coeff
                assert bm.matrix[:, j].tolist() == col

    @given(arbitrary_graphs(max_n=6))
    def test_rank_mod_two_matches_bitmask_oracle(self, g):
        bm = boundary_matrix(g, 1)
        if not bm.domain:
            return
        index = {s: i for i, s in enumerate(bm.codomain)}
        rows = []
        for j, (u, v) in enumerate(bm.domain):
            rows.append((1 << index[(u,)]) | (1 << index[(v,)]))
        # oracle treats columns as bitmask rows of the transpose
        assert len(reference_rref(bm.matrix.tolist(), 2)[1]) == gf2_rank(rows)


# ----------------------------------------------------------------- betti/homology


class TestBetti:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (complete(1), (1,)),
            (cycle(4), (1, 1)),
            (cycle(6), (1, 1)),
            (complete(4), (1, 0, 0, 0)),
            (octahedron(), (1, 0, 1)),
            (gstar(), (1, 0, 0, 0)),
        ],
    )
    def test_known_values(self, g, expected):
        assert betti_numbers(g) == expected

    @given(arbitrary_graphs(max_n=6))
    def test_matches_brute_oracle(self, g):
        got = betti_numbers(g)
        expected = tuple(brute_betti_gf2(g, len(got) - 1))
        assert got == expected

    @given(connected_graphs(max_n=6))
    def test_field_rank_at_least_rational(self, g):
        for dim in (0, 1):
            basis = clique_basis(g, dim)
            if not basis:
                continue
            down = boundary_matrix(g, dim).matrix if dim else None
            up = boundary_matrix(g, dim + 1).matrix
            r_down = rational_rank(down.tolist()) if down is not None and down.size else 0
            r_up = rational_rank(up.tolist()) if up.size else 0
            betti_q = len(basis) - r_down - r_up
            assert betti_numbers(g, GF2, max_dim=dim)[dim] >= betti_q
            assert betti_numbers(g, GF3, max_dim=dim)[dim] >= betti_q

    @pytest.mark.parametrize("p", [2, 3])
    def test_rank_only_path_matches_representatives_path(self, p):
        # both paths are one top-down reduction with clearing; with
        # representatives it keeps relations, and a capped run reads the
        # same cycles as the uncapped one
        coeffs = Coefficients(p)
        rng = random.Random(1811)
        graphs = [rp2_subdivision(), octahedron()]
        for _ in range(25):
            n = rng.randint(5, 11)
            q = rng.uniform(0.3, 0.8)
            graphs.append(Graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < q]))
        for g in graphs:
            full = homology(g, coeffs)
            want = full.betti_vector
            if p == 2:
                assert want == tuple(brute_betti_gf2(g, len(want) - 1))
            for max_dim in (None, *range(len(want))):
                prefix = slice(None if max_dim is None else max_dim + 1)
                fast = homology(g, coeffs, max_dim=max_dim, with_representatives=False)
                assert fast.betti_vector == want[prefix]
                assert all(grp.representatives == () and grp.torsion == () for grp in fast.groups)
                assert homology(g, coeffs, max_dim=max_dim).groups == full.groups[prefix]
        assert homology(rp2_subdivision(), coeffs, with_representatives=False).betti_vector == (
            (1, 1, 1) if p == 2 else (1, 0, 0)
        )

    def test_representatives_build_no_cleared_column(self, monkeypatch):
        # with representatives, homology over a field reduces the same
        # live columns as without: no cleared clique's column is built
        module = sys.modules[homology.__module__]
        built = []
        for name in ("_boundary_columns", "_bit_columns"):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda dom, cod, real=real: built.append(len(dom)) or real(dom, cod))

        def columns(g, coeffs, with_representatives):
            built.clear()
            homology(g, coeffs, with_representatives=with_representatives)
            return sum(built)

        for coeffs in (GF2, GF3):
            assert columns(octahedron(), coeffs, True) == columns(octahedron(), coeffs, False) == 13
            assert columns(rp2_subdivision(), coeffs, True) == columns(rp2_subdivision(), coeffs, False)

    @given(arbitrary_graphs(max_n=8), st.randoms(use_true_random=False))
    @example(rp2_subdivision(), random.Random(0))
    @example(octahedron(), random.Random(1))
    def test_bitset_reduction_is_the_echelon_reduction(self, g, rng):
        # the GF(2) bit-set kernel yields the tuples the Echelon loop
        # yields, in lexicographic order and sorted by (stage, clique)
        # as barcode passes cliques, relations kept or not
        by_size = enumerate_cliques(g)
        stage = {e: rng.randrange(4) for e in g.edges}

        def entry(c):
            return max((stage[e] for e in combinations(c, 2)), default=0), c

        staged = {size: sorted(level, key=entry) for size, level in by_size.items()}
        for cliques in (by_size, staged):
            for p in (2, 3):
                for relations in (False, True):
                    got = list(_cleared_pivots(cliques, p, relations))
                    assert got == list(reference_cleared_pivots(cliques, p, relations))

    def test_mod_three_agrees_on_torsion_free_examples(self):
        for g in (cycle(5), octahedron(), gstar(), path(6)):
            assert betti_numbers(g, GF3) == betti_numbers(g, GF2)


class TestHomologyGroups:
    def test_to_text(self):
        assert homology(cycle(4)).to_text() == "H_0 1\nH_1 1\n"
        assert (
            homology(octahedron(), ZZ).to_text() == "H_0 1\nH_1 0\nH_2 1\n"
        )

    def test_group_lookup(self):
        h = homology(cycle(4))
        assert h.group(1).rank == 1
        assert h.group(5) is None
        assert h.group(-1) is None

    def test_integer_homology_torsion_free_here(self):
        for g in (cycle(4), octahedron(), gstar()):
            h = homology(g, ZZ)
            for grp in (h.group(d) for d in range(len(h.betti_vector))):
                assert grp.torsion == ()

    def test_projective_plane_has_torsion(self):
        g = rp2_subdivision()
        assert homology(g, ZZ).to_text() == "H_0 1\nH_1 0 [2]\nH_2 0\n"
        # Z/2 in H_1 shows over GF(2) in H_1 and, by universal
        # coefficients, in H_2; GF(3) does not see it
        assert betti_numbers(g, GF2) == (1, 1, 1)
        assert betti_numbers(g, GF3) == (1, 0, 0)

    @given(connected_graphs(max_n=6))
    def test_integer_ranks_match_field_when_torsion_free(self, g):
        hz = homology(g, ZZ)
        if any(h.torsion for h in (hz.group(d) for d in range(len(hz.betti_vector)))):
            return
        assert hz.betti_vector == homology(g).betti_vector

    @given(connected_graphs(max_n=6))
    def test_representatives_are_independent_cycles(self, g):
        h = homology(g)
        for dim in range(len(h.betti_vector)):
            grp = h.group(dim)
            assert len(grp.representatives) == grp.rank
            for z in grp.representatives:
                assert not z.is_zero
                if dim:
                    assert boundary(z, g).reduce(GF2).is_zero
                coords = express_in_homology_basis(
                    z, grp.representatives, g, dim, GF2
                )
                assert coords is not None

    @given(arbitrary_graphs(max_n=7), st.sampled_from([2, 3]))
    def test_representatives_are_the_reference_greedy_pick(self, g, p):
        # kernel columns of the boundary from dimension n (standard basis
        # of the reference RREF), kept in order when independent of the
        # image of the next boundary and of the earlier picks
        h = homology(g, Coefficients(p))
        for n in range(len(h.groups)):
            up = boundary_matrix(g, n + 1)
            basis = up.codomain
            if n == 0:
                kernel = [[int(i == j) for i in range(len(basis))] for j in range(len(basis))]
            else:
                kernel = reference_nullspace(boundary_matrix(g, n).matrix.tolist(), p)
            span = up.matrix.T.tolist()

            def rank(cols):
                return len(reference_rref([list(r) for r in zip(*cols)], p)[1]) if cols else 0

            want = []
            for z in kernel:
                if rank(span + [z]) > rank(span):
                    span.append(z)
                    want.append(ChainVector(n, dict(zip(basis, z))))
            assert h.group(n).representatives == tuple(want)

    def test_octahedron_fundamental_class(self):
        reps = homology(octahedron()).group(2).representatives
        assert len(reps) == 1
        assert reps[0].items() == [
            (t, 1) for t in clique_basis(octahedron(), 2)
        ]

    def test_representatives_optional(self):
        h = homology(cycle(4), with_representatives=False)
        assert h.group(1).rank == 1
        assert h.group(1).representatives == ()


# --------------------------------------------------------- pushing cycles


def _is_boundary(diff, g, coeffs):
    """diff bounds in the clique complex of g over coeffs: adding it to
    the boundary columns leaves their rank mod p unchanged, or over the
    integers it lies in their integer span."""
    basis = clique_basis(g, diff.dim)
    index = {s: i for i, s in enumerate(basis)}
    cols = [
        {index[t[:k] + t[k + 1:]]: (-1) ** k for k in range(len(t))}
        for t in clique_basis(g, diff.dim + 1)
    ]
    target = {index[s]: c for s, c in diff.reduce(coeffs).items()}
    if not target:
        return True
    dense = [[col.get(i, 0) for i in range(len(basis))] for col in cols + [target]]
    if not coeffs.is_field:
        return in_integer_span(dense[:-1], dense[-1])

    def rank(rows):
        return len(reference_rref(rows, coeffs.modulus)[1]) if rows else 0

    return rank(dense) == rank(dense[:-1])


def _fundamental_cycles(g):
    """Integer 1-cycles: each edge off a breadth-first spanning forest,
    closed through the forest, walked from its lower end."""
    parent = {}
    for root in g.vertices:
        if root in parent:
            continue
        parent[root] = None
        queue = [root]
        for u in queue:
            for w in g.neighbors(u):
                if w not in parent:
                    parent[w] = u
                    queue.append(w)

    def to_root(v):
        walk = [v]
        while parent[walk[-1]] is not None:
            walk.append(parent[walk[-1]])
        return walk

    cycles = []
    for u, v in g.edges:
        if parent[u] == v or parent[v] == u:
            continue
        up, down = to_root(v), to_root(u)
        while len(up) > 1 and len(down) > 1 and up[-2] == down[-2]:
            up.pop()
            down.pop()
        walk = [u] + up + down[-2::-1]
        terms = {}
        for a, b in zip(walk, walk[1:]):
            key = (min(a, b), max(a, b))
            terms[key] = terms.get(key, 0) + (1 if a < b else -1)
        cycles.append(ChainVector(1, terms))
    return cycles


class TestIntegerSpanOracle:
    """helpers.in_integer_span, which decides integer boundaries above,
    against hand cases and the minors oracle: a vector lies in a
    lattice exactly when adding it leaves the invariant factors alone."""

    def test_hand_cases(self):
        diag = [[2, 0], [0, 3]]
        assert in_integer_span(diag, [4, -3]) and in_integer_span(diag, [0, 0])
        assert not in_integer_span(diag, [3, 0]) and not in_integer_span(diag, [0, 1])
        # (2, 4) and (3, 6) span the multiples of (1, 2): 3 - 2 = 1
        assert in_integer_span([[2, 4], [3, 6]], [1, 2])
        assert not in_integer_span([[2, 4], [3, 6]], [1, 3])
        # in the rational span but not the integer one
        assert not in_integer_span([[2, 2]], [1, 1])
        assert in_integer_span([], [0, 0, 0]) and not in_integer_span([], [0, 1, 0])
        assert in_integer_span([[6, 0, 10], [10, 0, 15]], [2, 0, 5])

    def test_matches_the_minors_oracle(self):
        rng = random.Random(1911)
        for _ in range(400):
            m, k = rng.randint(1, 4), rng.randint(0, 4)
            cols = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(k)]
            if rng.random() < 0.5:
                target = [sum(rng.randint(-3, 3) * c[i] for c in cols) for i in range(m)]
            else:
                target = [rng.randint(-6, 6) for _ in range(m)]
            want = brute_invariant_factors(cols + [target]) == brute_invariant_factors(cols)
            assert in_integer_span(cols, target) == want


SQUARE = ChainVector(1, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): -1})


class TestPushCycle:
    @pytest.mark.parametrize("coeffs", [GF2, GF3, ZZ], ids=str)
    def test_vertex_push_rejects_bad_input(self, coeffs):
        g = cycle(4)
        with pytest.raises(ValueError):
            push_cycle(SQUARE, 9, g, coeffs)
        with pytest.raises(ValueError, match="not a cycle"):
            push_cycle(ChainVector(1, {(0, 1): 1}), 0, g, coeffs)
        with pytest.raises(ValueError, match="not strongly contractible"):
            push_cycle(SQUARE, 0, g, coeffs)

    @pytest.mark.parametrize("coeffs", [GF2, GF3, ZZ], ids=str)
    def test_edge_push_rejects_bad_input(self, coeffs):
        g = cycle(4)
        with pytest.raises(ValueError):
            push_cycle_edge(SQUARE, 0, 2, g, coeffs)
        with pytest.raises(ValueError, match="not a cycle"):
            push_cycle_edge(ChainVector(1, {(0, 1): 1}), 0, 1, g, coeffs)
        with pytest.raises(ValueError, match="not strongly contractible"):
            push_cycle_edge(SQUARE, 1, 0, g, coeffs)

    @pytest.mark.parametrize("coeffs", [GF2, GF3, ZZ], ids=str)
    def test_zero_chain_pushed_off_an_edge_is_unchanged(self, coeffs):
        # whatever the link: the edge of cycle(4) has an empty one
        z = ChainVector(0, {(0,): 1, (1,): -1, (2,): 4})
        assert push_cycle_edge(z, 0, 1, cycle(4), coeffs) == z.reduce(coeffs)
        assert push_cycle_edge(z, 1, 2, complete(3), coeffs) == z.reduce(coeffs)

    def test_filled_triangle_pushes_to_zero(self):
        z = ChainVector(1, {(0, 1): 1, (1, 2): 1, (0, 2): 1})
        assert push_cycle(z, 2, complete(3)).is_zero

    def test_detour_through_cone_point_straightens(self):
        g = Graph(range(5), [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4)])
        z = ChainVector(
            1, {(0, 4): 1, (1, 4): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1}
        )
        out = push_cycle(z, 4, g)
        assert out.items() == [
            ((0, 1), 1), ((0, 3), 1), ((1, 2), 1), ((2, 3), 1)
        ]

    @pytest.mark.parametrize("coeffs", [GF2, GF3, ZZ], ids=str)
    def test_push_properties_on_random_graphs(self, coeffs):
        # Over the integers homology has no representatives; the integer
        # 1-cycles pushed are the fundamental cycles of a spanning forest.
        rng = random.Random(4021)
        checked = 0
        while checked < 25:
            n = rng.randint(4, 7)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.55
            ]
            g = Graph(range(n), edges)
            _, trace = contractible_reduction(g)
            steps = [s for s in trace.steps if s.kind == "vertex"]
            if not steps:
                continue
            v = steps[0].element
            h = homology(g, coeffs, max_dim=1)
            if not h.betti(1):
                continue
            cycles = h.group(1).representatives if coeffs.is_field else _fundamental_cycles(g)
            for z in cycles:
                assert boundary(z).reduce(coeffs).is_zero
                out = push_cycle(z, v, g, coeffs)
                assert all(v not in s for s in out.support)
                assert out.supported_on_cliques(g.delete_vertex(v))
                assert boundary(out).reduce(coeffs).is_zero
                assert _is_boundary(z - out, g, coeffs)
            checked += 1

    @pytest.mark.parametrize("coeffs", [GF2, GF3, ZZ], ids=str)
    def test_push_through_a_path_link(self, coeffs):
        # vertex 4 is coned over the path 0-1-2-3, a strongly contractible
        # link that is not a cone, and 5 closes a hole around it
        g = Graph(range(6), [(0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4), (0, 5), (3, 5)])
        z = ChainVector(1, {(0, 4): 1, (3, 4): -1, (3, 5): 1, (0, 5): -1})
        out = push_cycle(z, 4, g, coeffs)
        want = ChainVector(1, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 5): 1, (0, 5): -1})
        assert out == want.reduce(coeffs)
        assert _is_boundary(z - out, g, coeffs)

    def test_sequence_carries_basis_to_basis(self):
        rng = random.Random(913)
        cases = [cycle(6), Graph(range(8), [(0, 1), (1, 2), (2, 3), (0, 3),
                                            (0, 4), (4, 5), (1, 5), (2, 6),
                                            (6, 7), (3, 7)])]
        while len(cases) < 10:
            n = rng.randint(5, 8)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.45
            ]
            g = Graph(range(n), edges)
            if len(betti_numbers(g)) > 1 and betti_numbers(g)[1] > 0:
                cases.append(g)
        for g in cases:
            reduced, trace = contractible_reduction(g)
            reps_up = homology(g).group(1).representatives
            reps_down = homology(reduced).group(1).representatives
            assert len(reps_up) == len(reps_down)
            if not reps_up:
                continue
            rows = []
            for z in reps_up:
                pushed = push_cycle_sequence(z, g, trace)
                coords = express_in_homology_basis(
                    pushed, reps_down, reduced, 1, GF2
                )
                assert coords is not None
                rows.append([int(x) % 2 for x in coords])
            assert len(reference_rref(rows, 2)[1]) == len(reps_up)

    @pytest.mark.parametrize("reduce", [contractible_reduction, edge_extended_reduction])
    def test_bare_trace_pushes_like_the_full_trace(self, reduce):
        # A trace parsed without a graph has no links to compare; pushing
        # along it must still give the full trace's chains.
        rng = random.Random(2207)
        graphs = [g8(), gstar(), octahedron(), cycle(6)]
        for n in rng.choices(range(5, 10), k=12):
            graphs.append(Graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]))
        for g in graphs:
            _, trace = reduce(g)
            bare = ReductionTrace.from_text(trace.to_text())
            assert all(not step.link for step in bare) and bare.to_text() == trace.to_text()
            for coeffs in (GF2, GF3):
                for grp in homology(g, coeffs).groups:
                    for z in grp.representatives:
                        full = push_cycle_sequence(z, g, trace, coeffs)
                        assert push_cycle_sequence(z, g, bare, coeffs) == full

    @pytest.mark.parametrize("coeffs", [GF2, GF3, ZZ], ids=str)
    def test_one_cycle_pushed_off_an_edge(self, coeffs):
        triangle = complete(3)
        z = ChainVector(1, {(0, 1): 1, (1, 2): 1, (0, 2): -1})
        assert push_cycle_edge(z, 0, 2, triangle, coeffs).is_zero
        # the triangle with a path 2-3-4-0 closing a hole through the edge {0, 2}
        g = Graph(range(5), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (0, 4)])
        hole = ChainVector(1, {(0, 2): 1, (2, 3): 1, (3, 4): 1, (0, 4): -1})
        out = push_cycle_edge(hole, 0, 2, g, coeffs)
        want = ChainVector(1, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1, (0, 4): -1})
        assert out == want.reduce(coeffs)

    @pytest.mark.parametrize("coeffs", [GF2, GF3], ids=str)
    def test_one_cycles_along_an_edge_trace(self, coeffs):
        g = g8()
        reduced, trace = edge_extended_reduction(g)
        assert [s.kind for s in trace.steps] == ["edge"] * 3
        reps_up = homology(g, coeffs).group(1).representatives
        assert any(z.coefficient(s.element) for z in reps_up for s in trace.steps)
        reps_down = homology(reduced, coeffs).group(1).representatives
        rows = []
        for z in reps_up:
            pushed = push_cycle_sequence(z, g, trace, coeffs)
            assert pushed.supported_on_cliques(reduced)
            coords = express_in_homology_basis(pushed, reps_down, reduced, 1, coeffs)
            assert coords is not None
            rows.append(coords.tolist())
        assert len(reference_rref(rows, coeffs.modulus)[1]) == len(reps_up) == 2


class TestExpress:
    def test_unit_vector_on_own_basis(self):
        c4 = cycle(4)
        reps = homology(c4).group(1).representatives
        coords = express_in_homology_basis(reps[0], reps, c4, 1, GF2)
        assert list(coords) == [1]

    def test_zero_for_boundaries(self):
        g = Graph(range(5), [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4)])
        reps = homology(g).group(1).representatives
        b = boundary(ChainVector(2, {(0, 1, 4): 1}), g)
        coords = express_in_homology_basis(b.reduce(GF2), reps, g, 1, GF2)
        assert list(coords) == [0]

    def test_none_for_non_cycles(self):
        c4 = cycle(4)
        reps = homology(c4).group(1).representatives
        bad = ChainVector(1, {(0, 1): 1})
        assert express_in_homology_basis(bad, reps, c4, 1, GF2) is None


# --------------------------------------------------------------- induced maps


class TestInducedMap:
    def test_identity(self):
        c4 = cycle(4)
        t = ReductionTrace(())
        im = induced_map(c4, c4, t, t, 1)
        assert im.matrix.tolist() == [[1]]
        assert im.dim == 1

    def test_filling_the_square_kills_its_class(self):
        c4 = cycle(4)
        chord = Graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        _, t0 = contractible_reduction(c4)
        _, t1 = contractible_reduction(chord)
        im = induced_map(c4, chord, t0, t1, 1)
        assert im.matrix.shape == (0, 1)

    def test_chord_preserving_the_class(self):
        c6 = cycle(6)
        chord = Graph(
            range(6),
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 2)],
        )
        _, t0 = contractible_reduction(c6)
        _, t1 = contractible_reduction(chord)
        im = induced_map(c6, chord, t0, t1, 1)
        assert im.matrix.tolist() == [[1]]

    def test_rank_matches_inclusion_oracle(self):
        rng = random.Random(2718)
        for _ in range(20):
            n = rng.randint(4, 7)
            all_pairs = [
                (i, j) for i in range(n) for j in range(i + 1, n)
            ]
            # connected host
            big_edges = set()
            order = list(range(1, n))
            rng.shuffle(order)
            seen = [0]
            for v in order:
                big_edges.add(tuple(sorted((rng.choice(seen), v))))
                seen.append(v)
            for e in all_pairs:
                if rng.random() < 0.4:
                    big_edges.add(e)
            g1 = Graph(range(n), big_edges)
            # connected spanning subgraph
            small_edges = set()
            order = list(range(1, n))
            rng.shuffle(order)
            seen = [0]
            for v in order:
                nbrs = [u for u in seen if tuple(sorted((u, v))) in big_edges]
                if not nbrs:
                    nbrs = seen
                    small_edges.add(tuple(sorted((rng.choice(seen), v))))
                else:
                    small_edges.add(tuple(sorted((rng.choice(nbrs), v))))
                seen.append(v)
            small_edges &= big_edges
            extras = [e for e in big_edges - small_edges]
            for e in extras:
                if rng.random() < 0.5:
                    small_edges.add(e)
            g0 = Graph(range(n), small_edges)
            if not all(e in g1.edges for e in g0.edges):
                continue
            _, t0 = contractible_reduction(g0)
            _, t1 = contractible_reduction(g1)
            im = induced_map(g0, g1, t0, t1, 1)
            got = len(reference_rref(im.matrix.tolist(), 2)[1]) if im.matrix.size else 0
            assert got == inclusion_rank_gf2(g0, g1, 1)

    def test_rejects_integer_coefficients(self):
        c4 = cycle(4)
        t = ReductionTrace(())
        with pytest.raises(ValueError, match="prime field"):
            induced_map(c4, c4, t, t, 1, ZZ)

    def test_requires_subgraph(self):
        t = ReductionTrace(())
        with pytest.raises(ValueError, match="missing from the host"):
            induced_map(cycle(4), complete(3), t, t, 1)


# --------------------------------------------------------------- coefficients


class TestCoefficients:
    def test_prime_moduli_only(self):
        with pytest.raises(ValueError, match="not prime"):
            Coefficients(4)
        with pytest.raises(ValueError, match="prime"):
            Coefficients(1)

    def test_flags_and_str(self):
        assert Coefficients(2).is_field
        assert Coefficients(7).is_field
        assert not ZZ.is_field
        assert str(Coefficients(2)) == "GF(2)"
        assert str(ZZ) == "Z"
        assert ZZ.modulus is None
