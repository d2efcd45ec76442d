"""Independent oracles for the test suite.

Everything here recomputes answers from first principles with the
dumbest approach that fits in the time budget: permutation-minimum
encodings for isomorphism, pure-python GF(2) elimination on bitmask
rows for ranks and Betti numbers, Gauss-Jordan elimination mod p on
lists, exhaustive coface scans for free pairs. None of it calls into
the package's own linear algebra, canonical form, or complex machinery,
so agreement is meaningful. The one exception is the census reference
generation, which deduplicates with the package's canonical form; the
canon tests check that form against the permutation minimum. The
collapse replay helper applies the package's own free-pair check, to
replay long witnesses without copying the face set for every pair.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
from hypothesis import strategies as st

from graphcollapse import Graph, canonical_form, clique_complex, graph_from_canonical
from graphcollapse.complexes import _mask_of, _replay


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


# -- automorphisms and the census reference ----------------------------------


def brute_automorphisms(g: Graph) -> list[dict[int, int]]:
    """Every vertex permutation of g that maps its edges onto its edges."""
    vs = g.vertices
    edges = {frozenset(e) for e in g.edges}
    out = []
    for image in permutations(vs):
        p = dict(zip(vs, image))
        if all(frozenset((p[a], p[b])) in edges for a, b in g.edges):
            out.append(p)
    return out


def orbits_of(vertices, maps) -> set[frozenset[int]]:
    """Orbits of the group generated by the given vertex maps: the
    components of the graph joining each v to p[v]."""
    orbit_of = {v: frozenset([v]) for v in vertices}
    for p in maps:
        for v in vertices:
            merged = orbit_of[v] | orbit_of[p[v]]
            for w in merged:
                orbit_of[w] = merged
    return set(orbit_of.values())


def _reference_refine(colors: dict[int, int], nbrs: dict[int, tuple[int, ...]]) -> dict[int, int]:
    """Iterated refinement by neighbor color multisets, colors re-ranked
    by sorted signature on every pass until nothing changes."""
    while True:
        sig = {
            v: (colors[v], tuple(sorted(colors[u] for u in nbrs[v])))
            for v in colors
        }
        ranks = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        new = {v: ranks[sig[v]] for v in colors}
        if new == colors:
            return colors
        colors = new


def reference_canonical_labelling(g: Graph) -> tuple[tuple[int, ...], tuple[dict[int, int], ...]]:
    """The package's canonical search as it was written on dicts keyed by
    vertex id, kept verbatim so the list-based search can be held to the
    same orders and the same automorphism generators."""
    vs = g.vertices
    n = len(vs)
    if n <= 1:
        return vs, ()
    nbrs = {v: g.neighbors(v) for v in vs}
    adj = {v: g.adjacency_mask(v) for v in vs}

    best: list = [None, None]  # [encoding, order]
    gens: list[dict[int, int]] = []

    def encode(order: list[int]) -> int:
        enc = 0
        for i in range(n):
            row = adj[order[i]]
            for j in range(i + 1, n):
                enc = (enc << 1) | (row >> order[j] & 1)
        return enc

    def cells_of(colors: dict[int, int]) -> list[list[int]]:
        by_color: dict[int, list[int]] = {}
        for v in sorted(colors):
            by_color.setdefault(colors[v], []).append(v)
        return [by_color[c] for c in sorted(by_color)]

    def in_known_orbit(w: int, tried: list[int], fixed: tuple[int, ...]) -> bool:
        if not tried:
            return False
        fixing = [p for p in gens if all(p[x] == x for x in fixed)]
        if not fixing:
            return False
        orbit = set(tried)
        grew = True
        while grew:
            grew = False
            for p in fixing:
                for x in list(orbit):
                    y = p[x]
                    if y not in orbit:
                        orbit.add(y)
                        grew = True
        return w in orbit

    def descend(colors: dict[int, int], fixed: tuple[int, ...]) -> None:
        cells = cells_of(colors)
        target = None
        for cell in cells:
            if len(cell) > 1:
                target = cell
                break
        if target is None:
            order = [cell[0] for cell in cells]
            enc = encode(order)
            if best[0] is None or enc < best[0]:
                best[0] = enc
                best[1] = order
            elif enc == best[0] and order != best[1]:
                gens.append({best[1][i]: order[i] for i in range(n)})
            return
        tried: list[int] = []
        for w in target:
            if in_known_orbit(w, tried, fixed):
                continue
            child = {v: (c, 1) for v, c in colors.items()}
            child[w] = (colors[w], 0)
            ranks = {s: i for i, s in enumerate(sorted(set(child.values())))}
            child = {v: ranks[s] for v, s in child.items()}
            descend(_reference_refine(child, nbrs), fixed + (w,))
            tried.append(w)

    descend(_reference_refine({v: 0 for v in vs}, nbrs), ())
    return tuple(best[1]), tuple(gens)


def reference_extend_level(parent_forms) -> tuple:
    """Every connected graph one vertex larger than the given ones, which
    must be every connected graph of their size: each parent gets a new
    vertex joined to every nonempty vertex subset, the children are
    deduplicated by canonical form and sorted by bytes. This calls the
    package's canonical form, which test_canon checks against the
    permutation minimum; it is the census generation before canonical
    augmentation, kept as the reference for it."""
    seen = {}
    for form in parent_forms:
        g = graph_from_canonical(form)
        for subset in range(1, 1 << g.n):
            f = canonical_form(g.glue_vertex(g.n, [v for v in g.vertices if subset >> v & 1]))
            seen.setdefault(bytes(f), f)
    return tuple(seen[k] for k in sorted(seen))


def reference_levels(max_n: int) -> dict[int, tuple]:
    """Connected graphs by vertex count through max_n, by reference_extend_level."""
    levels = {1: (canonical_form(Graph([0])),)}
    for n in range(2, max_n + 1):
        levels[n] = reference_extend_level(levels[n - 1])
    return levels


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


def reference_collapse_search(faces: list[tuple[int, ...]], budget: int) -> tuple[str, object, int]:
    """(status, witness, nodes expanded) of the search that
    complexes.is_collapsible makes: the Euler characteristic gate, then
    depth first over elementary free pairs from brute_free_pairs, the
    highest-dimensional tau first, then lexicographic, with dead states
    memoized as frozensets of their faces."""
    if sum((-1) ** (len(f) + 1) for f in faces) != 1:
        return "not_collapsible", None, 0
    dead: set = set()
    nodes = 0
    witness: list = []

    def search(cur: frozenset) -> str:
        nonlocal nodes
        if len(cur) == 1 and len(next(iter(cur))) == 1:
            return "collapsible"
        if cur in dead:
            return "not_collapsible"
        nodes += 1
        if nodes > budget:
            return "exhausted"
        pairs = [(s, t) for s, t in brute_free_pairs(list(cur)) if len(t) == len(s) + 1]
        for sigma, tau in sorted(pairs, key=lambda p: (-len(p[1]), p[1], p[0])):
            witness.append((sigma, tau))
            status = search(cur - {sigma, tau})
            if status != "not_collapsible":
                return status
            witness.pop()
        dead.add(cur)
        return "not_collapsible"

    status = search(frozenset(faces))
    return status, tuple(witness) if status == "collapsible" else None, nodes


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


# -- collapse replay -------------------------------------------------------------


def replayed(g: Graph, pairs) -> set[int]:
    """The clique masks of g left after replaying the collapse pairs in
    place with complexes._replay, each checked to be free."""
    faces = set(clique_complex(g)._masks)
    _replay({v: g.adjacency_mask(v) for v in g.vertices}, faces, [(_mask_of(p.sigma), _mask_of(p.tau)) for p in pairs])
    return faces


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


RP2_TRIANGLES = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
]


def rp2_subdivision() -> Graph:
    """Flag complex of the barycentric subdivision of the 6-vertex real
    projective plane (the triangles above): one vertex per face, 31 in
    all, numbered by (size, vertices), and an edge per proper face
    inclusion. Its integer homology has torsion: H_1 = Z/2."""
    faces = sorted(
        {sub for t in RP2_TRIANGLES for k in (1, 2, 3) for sub in combinations(t, k)},
        key=lambda f: (len(f), f),
    )
    edges = [
        (i, j)
        for j, big in enumerate(faces)
        for i, small in enumerate(faces[:j])
        if len(small) < len(big) and set(small) <= set(big)
    ]
    return Graph(range(len(faces)), edges)


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
