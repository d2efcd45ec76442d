"""Independent oracles for the test suite.

Everything here recomputes answers from first principles with the
dumbest approach that fits in the time budget: permutation-minimum
encodings for isomorphism, pure-python GF(2) elimination on bitmask
rows for ranks and Betti numbers, Gauss-Jordan elimination mod p on
lists, exhaustive coface scans for free pairs. None of it calls into
the package's own linear algebra, canonical form, or complex machinery,
so agreement is meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
from hypothesis import strategies as st

from graphcollapse import Graph


# -- isomorphism by brute force ----------------------------------------------


def _normalized_edges(g: Graph) -> tuple[int, set[tuple[int, int]]]:
    order = sorted(g.vertices)
    idx = {v: k for k, v in enumerate(order)}
    edges = {(min(idx[a], idx[b]), max(idx[a], idx[b])) for a, b in g.edges}
    return len(order), edges


def brute_canonical_key(g: Graph) -> tuple[int, int]:
    """Minimum upper-triangle encoding over every vertex permutation."""
    n, edges = _normalized_edges(g)
    pairs = list(combinations(range(n), 2))
    best = None
    for pi in permutations(range(n)):
        enc = 0
        for k, (a, b) in enumerate(pairs):
            x, y = pi[a], pi[b]
            if (min(x, y), max(x, y)) in edges:
                enc |= 1 << k
        if best is None or enc < best:
            best = enc
    return n, 0 if best is None else best


def brute_is_isomorphic(g1: Graph, g2: Graph) -> bool:
    return brute_canonical_key(g1) == brute_canonical_key(g2)


# -- connected graph counting ------------------------------------------------


def labeled_connected_count(n: int) -> int:
    """Count of connected labeled graphs on n vertices, by the standard
    recurrence that subtracts graphs split by the component of vertex 1."""

    def choose(a, b):
        out = 1
        for i in range(b):
            out = out * (a - i) // (i + 1)
        return out

    c = {0: 1}
    for k in range(1, n + 1):
        total = 2 ** choose(k, 2)
        for j in range(1, k):
            total -= choose(k - 1, j - 1) * c[j] * 2 ** choose(k - j, 2)
        c[k] = total
    return c[n]


def _connected_labeled_masks(n: int) -> list[int]:
    pairs = list(combinations(range(n), 2))
    m = len(pairs)
    out = []
    for mask in range(1 << m):
        adj = [0] * n
        mm = mask
        while mm:
            k = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            a, b = pairs[k]
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        seen = 1
        frontier = adj[0]
        while frontier & ~seen:
            new = frontier & ~seen
            seen |= new
            frontier = 0
            x = new
            while x:
                v = (x & -x).bit_length() - 1
                x &= x - 1
                frontier |= adj[v]
        if seen == (1 << n) - 1:
            out.append(mask)
    return out


def connected_count_brute(n: int) -> int:
    """Connected graphs on n vertices up to isomorphism, counted by
    enumerating all labeled graphs and deduplicating on the minimum
    encoding over all n! permutations. Feasible through n = 6."""
    if n == 1:
        return 1
    masks = _connected_labeled_masks(n)
    pairs = list(combinations(range(n), 2))
    m = len(pairs)
    pair_index = {p: k for k, p in enumerate(pairs)}
    perm_maps = []
    for pi in permutations(range(n)):
        perm_maps.append(
            [pair_index[tuple(sorted((pi[a], pi[b])))] for a, b in pairs]
        )
    arr = np.array(masks, dtype=np.int64)
    bits = ((arr[:, None] >> np.arange(m)) & 1).astype(np.int64)
    weights = (1 << np.arange(m)).astype(np.int64)
    best = None
    for pm in perm_maps:
        enc = bits[:, pm] @ weights
        best = enc if best is None else np.minimum(best, enc)
    return len(set(best.tolist()))


# -- GF(2) linear algebra on bitmask rows --------------------------------------


def gf2_rank(rows: list[int]) -> int:
    rank = 0
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
            rank += 1
    return rank


def rational_det(matrix) -> Fraction:
    """Exact determinant by fraction elimination."""
    rows = [list(map(Fraction, r)) for r in matrix]
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        pv = rows[col][col]
        det *= pv
        for r in range(col + 1, n):
            if rows[r][col] != 0:
                factor = rows[r][col] / pv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def rational_rank(matrix: list[list[Fraction]]) -> int:
    """Fraction Gaussian elimination, no numpy, no modular tricks."""
    rows = [list(map(Fraction, r)) for r in matrix]
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col] / pv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


# -- Gauss-Jordan elimination mod p on lists -----------------------------------


def reference_rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod p of a matrix with at least one row,
    and its pivot columns, by textbook Gauss-Jordan elimination on lists
    of Python ints."""
    rows = [[x % p for x in row] for row in rows]
    pivots: list[int] = []
    for c in range(len(rows[0])):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def reference_nullspace(rows: list[list[int]], p: int) -> list[list[int]]:
    """Standard kernel basis read off the reduced form: one vector per
    free column f, with 1 at f and minus the RREF entries at the pivots."""
    red, pivots = reference_rref(rows, p)
    basis = []
    for f in range(len(rows[0])):
        if f in pivots:
            continue
        vec = [0] * len(rows[0])
        vec[f] = 1
        for r, c in enumerate(pivots):
            vec[c] = -red[r][f] % p
        basis.append(vec)
    return basis


def reference_solve(rows: list[list[int]], rhs: list[int], p: int) -> list[int] | None:
    """The solution of rows x = rhs mod p with every free variable zero,
    or None."""
    ncols = len(rows[0])
    red, pivots = reference_rref([row + [b] for row, b in zip(rows, rhs)], p)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][-1]
    return x


# -- cliques and Betti numbers from scratch ------------------------------------


def brute_cliques(g: Graph, max_size: int | None = None) -> dict[int, list[tuple[int, ...]]]:
    """Every clique by testing all vertex subsets pairwise. Exponential,
    fine for the graph sizes the tests use."""
    vs = sorted(g.vertices)
    top = len(vs) if max_size is None else min(max_size, len(vs))
    out: dict[int, list[tuple[int, ...]]] = {}
    for size in range(1, top + 1):
        found = [
            c
            for c in combinations(vs, size)
            if all(g.has_edge(a, b) for a, b in combinations(c, 2))
        ]
        if not found:
            break
        out[size] = found
    return out


def brute_betti_gf2(g: Graph, max_dim: int | None = None) -> tuple[int, ...]:
    """Betti numbers of the clique complex over GF(2) straight from
    boundary-matrix ranks, with bitmask rows."""
    by_size = brute_cliques(g)
    if not by_size:
        return ()
    top_dim = max(by_size) - 1
    report = top_dim if max_dim is None else max_dim
    index = {d: {c: k for k, c in enumerate(by_size.get(d + 1, []))} for d in range(top_dim + 1)}

    def boundary_rank(d: int) -> int:
        if d < 1 or d > top_dim:
            return 0
        rows = []
        for c in by_size[d + 1]:
            row = 0
            for drop in range(d + 1):
                row |= 1 << index[d - 1][c[:drop] + c[drop + 1 :]]
            rows.append(row)
        return gf2_rank(rows)

    betti = []
    for d in range(report + 1):
        faces = len(by_size.get(d + 1, []))
        betti.append(faces - boundary_rank(d) - boundary_rank(d + 1))
    return tuple(betti)


def brute_free_pairs(faces: list[tuple[int, ...]]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Pairs (sigma, tau) where tau is the one and only maximal face
    properly containing sigma, by scanning every face against every
    other. Downward closure makes the cofaces of such a sigma exactly
    the interval [sigma, tau]."""
    face_sets = [(f, set(f)) for f in faces]
    maximal = [(f, s) for f, s in face_sets if not any(s < t for _, t in face_sets)]
    out = []
    for sigma, s_set in face_sets:
        containing = [t for t, t_set in maximal if s_set < t_set]
        if len(containing) == 1:
            out.append((sigma, containing[0]))
    return sorted(out, key=lambda p: (p[1], p[0]))


# -- persistence oracle for a single stage pair --------------------------------


def inclusion_rank_gf2(g_small: Graph, g_big: Graph, dim: int) -> int:
    """Rank of the map on dimension-dim GF(2) homology induced by an
    inclusion of graphs: dim((Z_small + B_big) / B_big), all inside the
    chain space of the big clique complex."""
    big = brute_cliques(g_big, max_size=dim + 2)
    cells = big.get(dim + 1, [])
    if not cells:
        return 0
    index = {c: k for k, c in enumerate(cells)}
    below = {c: k for k, c in enumerate(big.get(dim, []))}

    def boundary_row(c: tuple[int, ...]) -> int:
        if dim == 0:
            return 0
        row = 0
        for drop in range(dim + 1):
            row |= 1 << below[c[:drop] + c[drop + 1 :]]
        return row

    small_cells = brute_cliques(g_small, max_size=dim + 2).get(dim + 1, [])
    small_rows = [(1 << index[c], boundary_row(c)) for c in small_cells]
    # kernel of the boundary restricted to the small complex, coords in the big one
    basis: list[tuple[int, int]] = []
    z_small: list[int] = []
    for vec, row in small_rows:
        for bvec, brow in basis:
            if row > (row ^ brow):
                row ^= brow
                vec ^= bvec
        if row:
            basis.append((vec, row))
            basis.sort(key=lambda t: -t[1])
        else:
            z_small.append(vec)
    b_big = []
    for c in big.get(dim + 2, []):
        row = 0
        for drop in range(dim + 2):
            row |= 1 << index[c[:drop] + c[drop + 1 :]]
        b_big.append(row)
    return gf2_rank(z_small + b_big) - gf2_rank(b_big)


def inclusion_rank_mod_p(g_small: Graph, g_big: Graph, dim: int, p: int) -> int:
    """The same rank over GF(p), with signed boundaries and every rank
    read off `reference_rref`: dim(Z_small + B_big) - dim(B_big), as
    spans of vectors over the dim-cells of the big clique complex."""
    big = brute_cliques(g_big, max_size=dim + 2)
    cells = big.get(dim + 1, [])
    small = brute_cliques(g_small, max_size=dim + 1).get(dim + 1, [])
    if not small:
        return 0
    index = {c: k for k, c in enumerate(cells)}

    def signed_faces(c: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        return {c[:i] + c[i + 1 :]: (-1) ** i for i in range(len(c))} if len(c) > 1 else {}

    def rank(vectors: list[list[int]]) -> int:
        return len(reference_rref(vectors, p)[1]) if vectors else 0

    faces = sorted({f for c in small for f in signed_faces(c)})
    # a zero row when there are no faces: every 0-chain is a cycle
    rows = [[signed_faces(c).get(f, 0) for c in small] for f in faces] or [[0] * len(small)]
    z_small = []
    for kernel_vector in reference_nullspace(rows, p):
        vec = [0] * len(cells)
        for c, x in zip(small, kernel_vector):
            vec[index[c]] = x
        z_small.append(vec)
    b_big = [[signed_faces(t).get(c, 0) for c in cells] for t in big.get(dim + 2, [])]
    return rank(z_small + b_big) - rank(b_big)


# -- the greedy deletion rule, memo-free -----------------------------------------


def greedy_contractible(g: Graph) -> bool:
    """The greedy first-hit test as defined: no for the empty graph, yes
    for a point, otherwise delete the lowest vertex whose neighborhood
    passes and ask again; no if none passes."""
    if g.n <= 1:
        return g.n == 1
    for v in g.vertices:
        if greedy_contractible(g.neighborhood(v)):
            return greedy_contractible(g.delete_vertex(v))
    return False


def greedy_reduction(g: Graph, edges: bool = False) -> tuple[Graph, list[tuple[str, object, frozenset]]]:
    """Both reductions as defined: delete the lowest qualifying vertex and
    rescan; when none qualifies and edges is set, delete the first
    qualifying edge in lexicographic order and rescan. Returns the reduced
    graph and (kind, element, link vertices) per deletion."""
    steps = []
    while True:
        for v in g.vertices:
            link = g.neighborhood(v)
            if greedy_contractible(link):
                steps.append(("vertex", v, frozenset(link.vertices)))
                g = g.delete_vertex(v)
                break
        else:
            if not edges:
                return g, steps
            for u, v in g.edges:
                link = g.common_neighborhood(u, v)
                if greedy_contractible(link):
                    steps.append(("edge", (u, v), frozenset(link.vertices)))
                    g = g.delete_edge(u, v)
                    break
            else:
                return g, steps


# -- shared fixtures ------------------------------------------------------------


def gstar() -> Graph:
    """Six vertices, complete except for the two missing edges (0,1) and
    (2,3). Its clique complex is four tetrahedra glued around the edge
    (4,5)."""
    missing = {(0, 1), (2, 3)}
    edges = [e for e in combinations(range(6), 2) if e not in missing]
    return Graph(range(6), edges)


GSTAR_COLLAPSE_PAIRS = [
    ((0, 2, 4), (0, 2, 4, 5)),
    ((0, 4, 5), (0, 3, 4, 5)),
    ((3, 4, 5), (1, 3, 4, 5)),
    ((1, 4, 5), (1, 2, 4, 5)),
    ((4, 5), (2, 4, 5)),
]


SIX_POINT_ROWS = [
    ["0", "1.5", "2.6", "2.7", "2.7", "2.1"],
    ["1.5", "0", "1.5", "2.7", "2.7", "2.7"],
    ["2.6", "1.5", "0", "2.1", "2.7", "2.7"],
    ["2.7", "2.7", "2.1", "0", "1.5", "2.6"],
    ["2.7", "2.7", "2.7", "1.5", "0", "1.5"],
    ["2.1", "2.7", "2.7", "2.6", "1.5", "0"],
]


def g8() -> Graph:
    """Eight vertices where vertex reduction is stuck from the start but
    the edge-extended pass can still strip the K4 interior; both of the
    independent cycles survive, so Betti numbers stay (1, 2)."""
    return Graph(
        range(8),
        [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
            (0, 4), (1, 5), (2, 6), (3, 7),
            (4, 5), (6, 7),
        ],
    )


# -- hypothesis strategies ------------------------------------------------------


@st.composite
def arbitrary_graphs(draw, min_n: int = 0, max_n: int = 7):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1)) if pairs else 0
    edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
    return Graph(range(n), edges)


@st.composite
def connected_graphs(draw, min_n: int = 1, max_n: int = 7):
    n = draw(st.integers(min_n, max_n))
    edges = set()
    for v in range(1, n):
        edges.add((draw(st.integers(0, v - 1)), v))
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
            max_size=2 * n,
        )
    )
    for a, b in extra:
        if a != b and a < n and b < n:
            edges.add((min(a, b), max(a, b)))
    return Graph(range(n), edges)


@st.composite
def sparse_connected_graphs(draw, min_n: int = 1, max_n: int = 7):
    """Connected graphs relabelled onto distinct ids drawn from a wide
    range, in an order unrelated to the original one."""
    g = draw(connected_graphs(min_n, max_n))
    ids = draw(st.lists(st.integers(0, 5000), min_size=g.n, max_size=g.n, unique=True))
    return g.relabeled(dict(zip(g.vertices, ids)))
