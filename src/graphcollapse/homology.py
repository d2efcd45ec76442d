"""Homology of clique complexes with explicit chain-level maps.

Chains are formal sums of cliques with the usual alternating-sign
boundary. The distinguishing feature is cycle pushing: given a cycle
and an apex, a vertex or an edge whose link is strongly contractible,
it rewrites the cycle, within its homology class, so that no simplex
contains the apex; vertices and edges take the same path. Chaining
pushes along a whole reduction trace transports homology classes from
a graph to its reduced form, which is what makes maps induced by
subgraph inclusion computable on reduced complexes.

A push solves no linear system: the greedy scan that accepts a link
is read as a chain contraction of it (_bound), over a prime field and
the integers alike. The input cycle is checked once per call.

Betti numbers and torsion work over the integers; explicit homology
bases and induced-map matrices require a prime field.

Everything here computes on sparse `{index: coeff}` columns of Python
ints, except the cleared reduction over GF(2), whose columns are int
bit sets. The three results that are int64 ndarrays
(`BoundaryMatrix.matrix`, the coordinates from
`express_in_homology_basis` and `InducedMap.matrix`) are built at the
end by `exactla.dense`, which alone imports numpy; `homology()` and
cycle pushing never load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Optional, Sequence

from . import exactla
from .complexes import DEFAULT_FACE_BUDGET, Simplex, enumerate_cliques
from .contract import ReductionTrace, _contractible, _first_hit_deletions, _is_cone, _walk
from .errors import InternalInconsistencyError
from .graphs import Graph

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Coefficients",
    "ChainVector",
    "boundary",
    "join_vertex",
    "split_at_vertex",
    "join_edge",
    "split_at_edge",
    "clique_basis",
    "BoundaryMatrix",
    "boundary_matrix",
    "HomologyGroup",
    "Homology",
    "homology",
    "betti_numbers",
    "push_cycle",
    "push_cycle_edge",
    "push_cycle_sequence",
    "express_in_homology_basis",
    "InducedMap",
    "induced_map",
]


@dataclass(frozen=True)
class Coefficients:
    """Coefficient ring: a prime field GF(modulus), or the integers when
    modulus is None."""

    modulus: Optional[int] = 2

    def __post_init__(self):
        if self.modulus is not None:
            exactla.check_prime(self.modulus)

    @classmethod
    def integers(cls) -> "Coefficients":
        return cls(None)

    @classmethod
    def gf(cls, p: int) -> "Coefficients":
        return cls(p)

    @property
    def is_field(self) -> bool:
        return self.modulus is not None

    def normalize(self, x: int) -> int:
        return x % self.modulus if self.modulus is not None else x

    def __str__(self) -> str:
        return "Z" if self.modulus is None else f"GF({self.modulus})"


class ChainVector:
    """Formal integer combination of simplices of one dimension.

    Immutable. Simplices are strictly increasing vertex tuples; zero
    coefficients are dropped on construction. Dimension -1 chains exist
    (their one simplex is the empty tuple) so splitting a 0-chain at a
    vertex has somewhere to put the stripped coefficients.
    """

    __slots__ = ("_dim", "_terms")

    def __init__(self, dim: int, terms: Optional[Mapping[Simplex, int]] = None):
        if dim < -1:
            raise ValueError(f"chain dimension must be >= -1, got {dim}")
        clean = {}
        if terms:
            for simplex, coeff in terms.items():
                simplex = tuple(simplex)
                if len(simplex) != dim + 1:
                    raise ValueError(
                        f"simplex {simplex} has dimension {len(simplex) - 1}, chain has {dim}"
                    )
                if any(simplex[i] >= simplex[i + 1] for i in range(len(simplex) - 1)):
                    raise ValueError(f"simplex {simplex} is not strictly increasing")
                if coeff:
                    clean[simplex] = clean.get(simplex, 0) + int(coeff)
        object.__setattr__(self, "_dim", dim)
        object.__setattr__(self, "_terms", {s: c for s, c in clean.items() if c})

    @classmethod
    def _of(cls, dim: int, terms: Mapping[Simplex, int]) -> "ChainVector":
        # Trusted fast path: increasing tuples of dim + 1 vertices, int
        # coefficients; only the zero coefficients are dropped.
        chain = cls.__new__(cls)
        object.__setattr__(chain, "_dim", dim)
        object.__setattr__(chain, "_terms", {s: c for s, c in terms.items() if c})
        return chain

    def __setattr__(self, name, value):
        raise AttributeError("ChainVector is immutable")

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, simplex: Iterable[int]) -> int:
        return self._terms.get(tuple(simplex), 0)

    def items(self) -> list[tuple[Simplex, int]]:
        return sorted(self._terms.items())

    @property
    def support(self) -> tuple[Simplex, ...]:
        return tuple(sorted(self._terms))

    def _combine(self, other: "ChainVector", sign: int) -> "ChainVector":
        if not isinstance(other, ChainVector):
            return NotImplemented
        if other.is_zero:
            return self
        if self.is_zero:
            dim = other.dim
        elif self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        else:
            dim = self.dim
        terms = dict(self._terms)
        for s, c in other._terms.items():
            terms[s] = terms.get(s, 0) + sign * c
        return ChainVector._of(dim, terms)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return ChainVector._of(self._dim, {s: -c for s, c in self._terms.items()})

    def __rmul__(self, scalar: int):
        if not isinstance(scalar, int):
            return NotImplemented
        return ChainVector._of(self._dim, {s: scalar * c for s, c in self._terms.items()})

    def reduce(self, coeffs: Coefficients) -> "ChainVector":
        return ChainVector._of(self._dim, {s: coeffs.normalize(c) for s, c in self._terms.items()})

    def supported_on_cliques(self, g: Graph) -> bool:
        adj = g._adj
        return all(v in adj for s in self._terms for v in s) and all(
            adj[u] >> v & 1 for s in self._terms for u, v in combinations(s, 2)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChainVector):
            return NotImplemented
        if self.is_zero and other.is_zero:
            return True
        return self._dim == other._dim and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._dim if self._terms else -1, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if self.is_zero:
            return "ChainVector(0)"
        body = " + ".join(f"{c}*{s}" for s, c in self.items())
        return f"ChainVector({body})"


def boundary(chain: ChainVector, g: Optional[Graph] = None) -> ChainVector:
    """Alternating-sign boundary. With g given, every simplex in the
    chain must be a clique of g."""
    if g is not None and not chain.supported_on_cliques(g):
        raise ValueError("chain is not supported on cliques of the graph")
    if chain.dim <= 0:
        return ChainVector._of(max(chain.dim - 1, -1), {})
    terms: dict[Simplex, int] = {}
    for simplex, coeff in chain._terms.items():
        for k in range(len(simplex)):
            face = simplex[:k] + simplex[k + 1:]
            sign = 1 if k % 2 == 0 else -1
            terms[face] = terms.get(face, 0) + sign * coeff
    return ChainVector._of(chain.dim - 1, terms)


def join_vertex(v: int, chain: ChainVector) -> ChainVector:
    """Cone a chain with apex v: each simplex gains v with sign
    (-1)**(insert position), so boundary(v * q) = q - v * boundary(q)
    for q of positive dimension."""
    if chain.is_zero:
        return ChainVector._of(chain.dim + 1, {})
    terms: dict[Simplex, int] = {}
    for simplex, coeff in chain._terms.items():
        if v in simplex:
            raise ValueError(f"vertex {v} already in simplex {simplex}")
        pos = sum(1 for u in simplex if u < v)
        bigger = tuple(sorted(simplex + (v,)))
        sign = 1 if pos % 2 == 0 else -1
        terms[bigger] = terms.get(bigger, 0) + sign * coeff
    return ChainVector._of(chain.dim + 1, terms)


def _join(apex: tuple[int, ...], chain: ChainVector) -> ChainVector:
    """Cone a chain over the ascending apex vertices, innermost the
    largest: join_vertex(apex[0], join_vertex(apex[1], ...))."""
    for v in reversed(apex):
        chain = join_vertex(v, chain)
    return chain


def _split(chain: ChainVector, apex: tuple[int, ...]) -> tuple[ChainVector, ChainVector]:
    """Write chain = a + _join(apex, b) with no simplex of a containing
    the whole apex. Inverts the joins outermost first: each apex vertex,
    in ascending order, is stripped at its position in what remains, so
    the sign is (-1) to the sum of those positions."""
    a: dict[Simplex, int] = {}
    b: dict[Simplex, int] = {}
    for simplex, coeff in chain._terms.items():
        if not all(v in simplex for v in apex):
            a[simplex] = coeff
            continue
        for v in apex:
            pos = simplex.index(v)
            simplex = simplex[:pos] + simplex[pos + 1:]
            coeff = -coeff if pos % 2 else coeff
        b[simplex] = coeff
    return ChainVector._of(chain.dim, a), ChainVector._of(chain.dim - len(apex), b)


def split_at_vertex(chain: ChainVector, v: int) -> tuple[ChainVector, ChainVector]:
    """Write chain = a + join_vertex(v, b) with v absent from a."""
    return _split(chain, (v,))


def join_edge(u: int, v: int, chain: ChainVector) -> ChainVector:
    """Double cone over the edge {u, v}: join_vertex(min, join_vertex(max,
    chain)), whatever the order of u and v."""
    return _join((min(u, v), max(u, v)), chain)


def split_at_edge(chain: ChainVector, u: int, v: int) -> tuple[ChainVector, ChainVector]:
    """Write chain = a + join_edge(u, v, b) with no simplex of a
    containing both u and v."""
    if chain.dim < 2:
        raise ValueError(f"splitting at an edge needs chains of dimension >= 2, got {chain.dim}")
    return _split(chain, (min(u, v), max(u, v)))


# -- bases and boundary matrices ---------------------------------------------


def clique_basis(g: Graph, dim: int, max_faces: int = DEFAULT_FACE_BUDGET) -> tuple[Simplex, ...]:
    """Cliques of g with dim+1 vertices, lexicographically sorted."""
    if dim < 0:
        return ()
    by_size = enumerate_cliques(g, max_size=dim + 1, max_faces=max_faces)
    return tuple(by_size.get(dim + 1, ()))


@dataclass(frozen=True)
class BoundaryMatrix:
    """Matrix of the boundary map from dim-chains to (dim-1)-chains in
    the given ordered clique bases. Entries are signed integers."""

    dim: int
    domain: tuple[Simplex, ...]
    codomain: tuple[Simplex, ...]
    matrix: np.ndarray


def _boundary_columns(
    domain: Sequence[Simplex], codomain: Sequence[Simplex]
) -> list[dict[int, int]]:
    """Sparse columns {codomain index: sign} of the boundary map."""
    index = {s: i for i, s in enumerate(codomain)}
    cols = []
    for simplex in domain:
        col = {}
        for k in range(len(simplex)):
            face = simplex[:k] + simplex[k + 1:]
            i = index.get(face)
            if i is None:
                raise InternalInconsistencyError(f"face {face} of {simplex} missing from basis")
            col[i] = 1 if k % 2 == 0 else -1
        cols.append(col)
    return cols


def _bit_columns(domain: Sequence[Simplex], codomain: Sequence[Simplex]) -> Iterator[int]:
    """The boundary columns over GF(2) as ints, bit i set for each face
    at codomain index i, one at a time. The simplices have one size."""
    index = {s: i for i, s in enumerate(codomain)}
    for simplex in domain:
        col = 0
        for face in combinations(simplex, len(simplex) - 1):
            i = index.get(face)
            if i is None:
                raise InternalInconsistencyError(f"face {face} of {simplex} missing from basis")
            col |= 1 << i
        yield col


def boundary_matrix(g: Graph, dim: int, max_faces: int = DEFAULT_FACE_BUDGET) -> BoundaryMatrix:
    if dim < 1:
        raise ValueError(f"boundary matrices start at dimension 1, got {dim}")
    by_size = enumerate_cliques(g, max_size=dim + 1, max_faces=max_faces)
    domain = tuple(by_size.get(dim + 1, ()))
    codomain = tuple(by_size.get(dim, ()))
    return BoundaryMatrix(dim, domain, codomain, exactla.dense(_boundary_columns(domain, codomain), len(codomain)))


def _chain_to_column(chain: ChainVector, basis: tuple[Simplex, ...], coeffs: Coefficients) -> dict[int, int]:
    index = {s: i for i, s in enumerate(basis)}
    col = {}
    for s, c in chain._terms.items():
        if s not in index:
            raise ValueError(f"simplex {s} is outside the basis")
        col[index[s]] = coeffs.normalize(c)
    return col


def _column_to_chain(col: Mapping[int, int], dim: int, basis: tuple[Simplex, ...]) -> ChainVector:
    return ChainVector(dim, {basis[i]: c for i, c in col.items()})


# -- homology ----------------------------------------------------------------


@dataclass(frozen=True)
class HomologyGroup:
    dim: int
    rank: int
    torsion: tuple[int, ...] = ()
    representatives: tuple[ChainVector, ...] = ()


@dataclass(frozen=True)
class Homology:
    coefficients: Coefficients
    groups: tuple[HomologyGroup, ...]

    def betti(self, dim: int) -> int:
        if 0 <= dim < len(self.groups):
            return self.groups[dim].rank
        return 0

    def group(self, dim: int) -> Optional[HomologyGroup]:
        if 0 <= dim < len(self.groups):
            return self.groups[dim]
        return None

    @property
    def betti_vector(self) -> tuple[int, ...]:
        return tuple(grp.rank for grp in self.groups)

    def to_text(self) -> str:
        lines = []
        for grp in self.groups:
            line = f"H_{grp.dim} {grp.rank}"
            if grp.torsion:
                line += " [" + " ".join(str(t) for t in grp.torsion) + "]"
            lines.append(line)
        return "\n".join(lines) + "\n" if lines else ""


def homology(
    g: Graph,
    coeffs: Coefficients = Coefficients(2),
    max_dim: Optional[int] = None,
    with_representatives: bool = True,
    max_faces: int = DEFAULT_FACE_BUDGET,
) -> Homology:
    """Homology of the clique complex of g in all dimensions up to
    max_dim (default: the dimension of the complex).

    Over a field, ranks are the pivot counts of `_cleared_pivots`, and
    each group carries an explicit basis of representative cycles unless
    with_representatives is false: the relations that pass yields for
    the unpaired cliques of that dimension, each cycle with its clique
    on top. Over the integers, ranks come with torsion coefficients and
    no representatives.
    """
    if max_dim is not None and max_dim < 0:
        raise ValueError(f"max_dim must be nonnegative, got {max_dim}")
    size_cap = None if max_dim is None else max_dim + 2
    by_size = enumerate_cliques(g, max_size=size_cap, max_faces=max_faces)
    if not by_size:
        return Homology(coeffs, ())
    top = max(by_size) - 1
    hi = top if max_dim is None else min(top, max_dim)
    bases = {n: by_size.get(n + 1, []) for n in range(hi + 2)}
    with_representatives = with_representatives and coeffs.is_field
    cycles: dict[int, list[dict[int, int]]] = {n: [] for n in range(hi + 2)}
    if coeffs.is_field:
        ranks = dict.fromkeys(range(hi + 2), 0)
        for size, _, row, rel in _cleared_pivots(by_size, coeffs.modulus, with_representatives):
            if row is not None:
                ranks[size - 1] += 1
            elif rel:
                cycles[size - 1].append(rel)
    else:
        cols = {n: _boundary_columns(bases[n], bases[n - 1]) for n in range(1, hi + 2)}
        factors = {n: exactla.invariant_factors_of_columns(c) for n, c in cols.items()}
        ranks = {n: len(f) for n, f in factors.items()}
    ranks[0] = 0
    groups = []
    for n in range(hi + 1):
        betti = len(bases[n]) - ranks[n] - ranks[n + 1]
        reps = tuple(_column_to_chain(z, n, bases[n]) for z in cycles[n])
        if with_representatives and len(reps) != betti:
            raise InternalInconsistencyError(f"found {len(reps)} independent cycles, expected {betti}")
        torsion = () if coeffs.is_field else tuple(d for d in factors[n + 1] if d > 1)
        groups.append(HomologyGroup(n, betti, torsion, reps))
    return Homology(coeffs, tuple(groups))


def _cleared_pivots(
    cliques: Mapping[int, Sequence[Simplex]], p: int, relations: bool = False
) -> Iterator[tuple[int, int, Optional[int], Optional[dict[int, int]]]]:
    """Reduce the boundary columns of cliques, given by size with each
    list in column order, over GF(p), one size at a time from the
    largest down. Yields (size, index, pivot row, relation) for each
    live clique: the row is an index into the list one size smaller, or
    None when the column reduces to zero, and the relation is then the
    column's `{index: 1, ...}` if relations is set (each column is added
    under its index as tag), else {}; it is None with a pivot.

    A column's rows are cliques one vertex smaller, so no two sizes
    share a pivot and each size is reduced on its own. Clearing (the
    twist of Chen and Kerber): a clique that is the pivot row of a
    column of the size above is not live. Its column lies in the span
    of the columns before it (that reduced column is a cycle with the
    clique on top), so it is neither built nor reduced, and every other
    pivot and relation stays as it was: a live zero column's clique is
    unpaired. Vertices have zero columns.

    Over GF(2) a column is an int bit set, bit r for each face row r,
    its pivot the top bit, and a reduction step XORs in the stored
    column with that pivot (the representation of PHAT and of Ripser's
    Z/2). A relation is the set of clique indices XORed alongside: a
    second int would span every index below its own, and reading a few
    bits off it would cost its whole length each. Odd primes add
    `{row: sign}` columns to an `exactla.Echelon`. Both give the same
    tuples in the same order.
    """
    cleared: Iterable[int] = ()
    for size in sorted(cliques, reverse=True):
        live = [i for i in range(len(cliques[size])) if i not in cleared]
        if size == 1:
            yield from ((1, i, None, {i: 1} if relations else {}) for i in live)
            continue
        domain = [cliques[size][i] for i in live]
        if p != 2:
            ech = exactla.Echelon(p)
            for i, col in zip(live, _boundary_columns(domain, cliques[size - 1])):
                rel = ech.add(col, i if relations else None)
                yield size, i, None if rel is not None else ech.last_pivot, rel
            cleared = ech.pivot_rows
            continue
        # stored columns by top row, and their relations' clique indices
        pivots: dict[int, int] = {}
        rels: dict[int, set[int]] = {}
        for i, col in zip(live, _bit_columns(domain, cliques[size - 1])):
            rel = {i}
            while col:
                top = col.bit_length() - 1
                stored = pivots.get(top)
                if stored is None:
                    pivots[top] = col
                    if relations:
                        rels[top] = rel
                    yield size, i, top, None
                    break
                col ^= stored
                if relations:
                    rel ^= rels[top]
            else:
                yield size, i, None, dict.fromkeys(sorted(rel), 1) if relations else {}
        cleared = pivots


def betti_numbers(
    g: Graph, coeffs: Coefficients = Coefficients(2), max_dim: Optional[int] = None
) -> tuple[int, ...]:
    return homology(g, coeffs, max_dim=max_dim, with_representatives=False).betti_vector


# -- transporting cycles along reductions -------------------------------------


def _bound(b: ChainVector, adj: Mapping[int, int], mask: int, memo: dict[int, bool]) -> ChainVector:
    """A chain x with boundary(x) = b (mod p for a cycle mod p) on the
    cliques of the strongly contractible subgraph induced by mask, for a
    cycle b there (coefficient sum zero in dimension 0), or a multiple of
    the empty simplex. x is read off the greedy scan that accepts mask:
    - dimension -1: b's coefficient on the least vertex;
    - a cone on w: w joined to the part a of b avoiding w, since
      b = a + w * q is a cycle exactly when q = -boundary(a);
    - otherwise, at each vertex v the scan deletes, b = a + v * q with q
      a cycle of v's accepted link. With y = _bound(q) there,
      b + boundary(v * y) = a + y avoids v, and x collects -v * y. The
      cycle left on the last vertex is zero.
    memo holds greedy verdicts by vertex mask over adj.
    """
    if b.dim == -1:
        return ChainVector._of(0, {((mask & -mask).bit_length() - 1,): b.coefficient(())})
    w = _is_cone(adj, mask).bit_length() - 1
    if w >= 0:
        return join_vertex(w, _split(b, (w,))[0])
    x = ChainVector._of(b.dim + 1, {})
    for v in _first_hit_deletions(adj, mask, memo)[0]:
        mask ^= 1 << v
        a, q = _split(b, (v,))
        if not q.is_zero:
            y = _bound(q, adj, adj[v] & mask, memo)
            b = a + y
            x = x - join_vertex(v, y)
    return x


def _push(c: ChainVector, g: Graph, apexes: Iterable[tuple[int, ...]], coeffs: Coefficients) -> ChainVector:
    """Rewrite the cycle c of g's clique complex, within its homology
    class, as a cycle with no simplex containing any of the ascending
    apexes (a vertex or an edge each), deleted in turn along the trace
    walk. c is checked once, up front.

    With c = a + join(apex, b), c becomes
    c - (-1)**len(apex) * boundary(join(apex, x)) for x = _bound(b) in
    the apex's link, which must be strongly contractible unless c has
    too low a dimension to contain the apex. A step whose apex is not
    inside the vertex support of c leaves c as it is, unsplit; its link
    is still checked.
    """
    c = c.reduce(coeffs)
    if not c.supported_on_cliques(g):
        raise ValueError("cycle is not supported on cliques of the graph")
    if not boundary(c).reduce(coeffs).is_zero:
        raise ValueError("chain is not a cycle")
    adj = dict(g._adj)
    memo: dict[int, bool] = {}
    support = _vertex_support(c)
    for apex, link in _walk(adj, apexes):
        if len(apex) == 2:
            # Verdicts name induced subgraphs by vertex mask. Deleting
            # this edge changes those holding both its ends; the masks of
            # this step lie in its link and hold neither.
            memo = {}
        if c.dim < len(apex) - 1:
            continue
        if not _contractible(adj, link, memo):
            raise ValueError(f"link of {list(apex)} is not strongly contractible")
        if not all(support >> v & 1 for v in apex):
            continue
        b = _split(c, apex)[1]
        if b.is_zero:
            continue
        x = _bound(b, adj, link, memo)
        c = (c - (-1) ** len(apex) * boundary(_join(apex, x))).reduce(coeffs)
        if not _split(c, apex)[1].is_zero:
            raise InternalInconsistencyError(f"push failed to eliminate {list(apex)}")
        support = _vertex_support(c)
    return c


def _vertex_support(c: ChainVector) -> int:
    """The mask of the vertices of c's simplices."""
    support = 0
    for simplex in c._terms:
        for v in simplex:
            support |= 1 << v
    return support


def push_cycle(c: ChainVector, v: int, g: Graph, coeffs: Coefficients = Coefficients(2)) -> ChainVector:
    """Rewrite the cycle c, within its homology class in the clique
    complex of g, as a cycle avoiding vertex v. Requires the neighborhood
    of v to be strongly contractible; the result lives in the clique
    complex of g minus v."""
    return _push(c, g, [(v,)], coeffs)


def push_cycle_edge(
    c: ChainVector, u: int, v: int, g: Graph, coeffs: Coefficients = Coefficients(2)
) -> ChainVector:
    """Rewrite the cycle c, within its homology class, as a cycle whose
    simplices never contain the edge {u, v}. Requires the common
    neighborhood of u and v to be strongly contractible when c has
    dimension 1 or more; the result lives in the clique complex of g
    minus the edge."""
    return _push(c, g, [(min(u, v), max(u, v))], coeffs)


def push_cycle_sequence(
    c: ChainVector, g: Graph, trace: ReductionTrace, coeffs: Coefficients = Coefficients(2)
) -> ChainVector:
    """Push a cycle through every step of a reduction trace of g. The
    result is a cycle of the reduced graph's clique complex, homologous
    to c under the inclusion of that complex into the original one.
    Recorded links are not compared, so a trace parsed without a graph
    works too."""
    return _push(c, g, [step.apex for step in trace], coeffs)


# -- induced maps ----------------------------------------------------------


def express_in_homology_basis(
    z: ChainVector,
    reps: tuple[ChainVector, ...],
    g: Graph,
    dim: int,
    coeffs: Coefficients,
) -> Optional[np.ndarray]:
    """Coordinates of the class of z in the given homology basis of the
    clique complex of g, or None if z is not a combination of the reps
    modulo boundaries. Field coefficients only."""
    if not coeffs.is_field:
        raise ValueError("homology coordinates need field coefficients")
    coords = _coordinates(z, reps, g, dim, coeffs)
    return None if coords is None else exactla.dense([coords], len(reps)).reshape(-1)


def _coordinates(
    z: ChainVector, reps: tuple[ChainVector, ...], g: Graph, dim: int, coeffs: Coefficients
) -> Optional[dict[int, int]]:
    """express_in_homology_basis as a sparse {rep index: coeff} column."""
    by_size = enumerate_cliques(g, max_size=dim + 2)
    basis = tuple(by_size.get(dim + 1, ()))
    cols = [_chain_to_column(r, basis, coeffs) for r in reps]
    cols += _boundary_columns(by_size.get(dim + 2, ()), basis)
    sol = exactla.solve_columns(cols, _chain_to_column(z, basis, coeffs), coeffs.modulus)
    return None if sol is None else {j: c for j, c in sol.items() if j < len(reps)}


@dataclass(frozen=True)
class InducedMap:
    """Matrix of the map on homology induced by a subgraph inclusion,
    written in the representative bases of the two reduced complexes."""

    dim: int
    coefficients: Coefficients
    domain_graph: Graph
    codomain_graph: Graph
    domain_basis: tuple[ChainVector, ...]
    codomain_basis: tuple[ChainVector, ...]
    matrix: np.ndarray


def induced_map(
    g0: Graph,
    g1: Graph,
    trace0: ReductionTrace,
    trace1: ReductionTrace,
    dim: int,
    coeffs: Coefficients = Coefficients(2),
) -> InducedMap:
    """Map on dimension-dim homology induced by the inclusion of g0 into
    g1, computed between the reduced graphs of the two traces.

    Every vertex and edge of g0 must be present in g1. Field
    coefficients only: over the integers there is no canonical basis to
    write the matrix in, so this raises ValueError.
    """
    if not coeffs.is_field:
        raise ValueError(
            "induced maps are computed over a prime field; integer coefficients are not supported"
        )
    if dim < 0:
        raise ValueError(f"dimension must be nonnegative, got {dim}")
    for v in g0.vertices:
        if not g1.has_vertex(v):
            raise ValueError(f"vertex {v} of the subgraph is missing from the host graph")
    for u, v in g0.edges:
        if not g1.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) of the subgraph is missing from the host graph")
    r0 = trace0.replay(g0)
    r1 = trace1.replay(g1)
    h0 = homology(r0, coeffs, max_dim=dim)
    h1 = homology(r1, coeffs, max_dim=dim)
    reps0 = h0.group(dim).representatives if h0.group(dim) else ()
    reps1 = h1.group(dim).representatives if h1.group(dim) else ()
    cols = []
    for z in reps0:
        pushed = push_cycle_sequence(z, g1, trace1, coeffs)
        coords = _coordinates(pushed, reps1, r1, dim, coeffs)
        if coords is None:
            raise InternalInconsistencyError(
                "pushed cycle is not expressible in the reduced homology basis"
            )
        cols.append(coords)
    return InducedMap(dim, coeffs, g0, g1, reps0, reps1, exactla.dense(cols, len(reps1)))
