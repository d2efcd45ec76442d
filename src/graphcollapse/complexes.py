"""Finite simplicial complexes, clique complexes, and collapsibility.

Faces are stored as integer bitmasks over vertex ids, which makes the
free-pair test one pass of mask arithmetic: a face s is free if and only
if the union U of all faces containing s is itself a face and differs
from s, in which case (s, U) is the unique free pair at s.

Collapsibility to a point is decided by exhaustive depth-first search
over elementary collapses (the removed pair differs by one dimension),
with memoized dead states and a node budget. An Euler characteristic
gate certifies many negatives without search: elementary collapses
preserve the characteristic and a point has characteristic 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .contract import ReductionTrace, _first_hit_deletions
from .errors import BudgetExceededError, InternalInconsistencyError
from .graphs import Graph, iter_bits

__all__ = [
    "Simplex",
    "FreePair",
    "SimplicialComplex",
    "clique_complex",
    "enumerate_cliques",
    "CollapseVerdict",
    "is_collapsible",
    "collapse_via_trace",
    "DEFAULT_FACE_BUDGET",
    "DEFAULT_COLLAPSE_BUDGET",
]

Simplex = tuple  # sorted tuple of vertex ids

DEFAULT_FACE_BUDGET = 1 << 22
DEFAULT_COLLAPSE_BUDGET = 1_000_000


def _mask_of(simplex: Iterable[int]) -> int:
    mask = 0
    for v in simplex:
        mask |= 1 << v
    return mask


def _tuple_of(mask: int) -> Simplex:
    return tuple(iter_bits(mask))


@dataclass(frozen=True)
class FreePair:
    """A free pair (sigma, tau): tau is the only maximal face containing
    sigma, and sigma is a proper subset of tau."""

    sigma: Simplex
    tau: Simplex

    @property
    def is_elementary(self) -> bool:
        return len(self.tau) == len(self.sigma) + 1


class SimplicialComplex:
    """Immutable simplicial complex with the full face set stored.

    Faces are nonempty simplices; the face set is closed under taking
    nonempty subsets.
    """

    __slots__ = ("_masks", "_faces", "_maximal", "_hash")

    def __init__(self, faces: Iterable[Iterable[int]], _validate: bool = True):
        masks = frozenset(_mask_of(f) for f in faces)
        if 0 in masks:
            raise ValueError("the empty simplex is not a face")
        if _validate:
            for m in masks:
                bits = m
                while bits:
                    low = bits & -bits
                    if m != low and (m & ~low) not in masks:
                        raise ValueError(
                            f"face set is not downward closed: {_tuple_of(m)} present, "
                            f"{_tuple_of(m & ~low)} missing"
                        )
                    bits &= bits - 1
        self._masks = masks
        self._faces = None
        self._maximal = None
        self._hash = None

    @classmethod
    def from_maximal(cls, maximal: Iterable[Iterable[int]]) -> "SimplicialComplex":
        """Downward closure of the given faces."""
        masks = set()
        stack = [_mask_of(f) for f in maximal]
        for m in stack:
            if m == 0:
                raise ValueError("the empty simplex is not a face")
        while stack:
            m = stack.pop()
            if m in masks or m == 0:
                continue
            masks.add(m)
            bits = m
            while bits:
                low = bits & -bits
                sub = m & ~low
                if sub and sub not in masks:
                    stack.append(sub)
                bits &= bits - 1
        return cls._from_masks(frozenset(masks))

    @classmethod
    def _from_masks(cls, masks: frozenset) -> "SimplicialComplex":
        obj = cls.__new__(cls)
        obj._masks = masks
        obj._faces = None
        obj._maximal = None
        obj._hash = None
        return obj

    # -- accessors ---------------------------------------------------------

    @property
    def faces(self) -> tuple[Simplex, ...]:
        """All faces sorted by (dimension, lexicographic)."""
        if self._faces is None:
            self._faces = tuple(sorted((_tuple_of(m) for m in self._masks), key=lambda t: (len(t), t)))
        return self._faces

    @property
    def face_count(self) -> int:
        return len(self._masks)

    @property
    def dim(self) -> int:
        if not self._masks:
            return -1
        return max(m.bit_count() for m in self._masks) - 1

    @property
    def vertices(self) -> tuple[int, ...]:
        union = 0
        for m in self._masks:
            union |= m
        return _tuple_of(union)

    @property
    def maximal_faces(self) -> tuple[Simplex, ...]:
        if self._maximal is None:
            masks = self._masks
            maximal = [m for m in masks if not any(m != o and m & o == m for o in masks)]
            self._maximal = tuple(sorted((_tuple_of(m) for m in maximal), key=lambda t: (len(t), t)))
        return self._maximal

    def euler_characteristic(self) -> int:
        chi = 0
        for m in self._masks:
            chi += 1 if (m.bit_count() - 1) % 2 == 0 else -1
        return chi

    def has_face(self, simplex: Iterable[int]) -> bool:
        return _mask_of(simplex) in self._masks

    def one_skeleton(self) -> Graph:
        vertices = [m.bit_length() - 1 for m in self._masks if m.bit_count() == 1]
        edges = [_tuple_of(m) for m in self._masks if m.bit_count() == 2]
        return Graph(vertices, edges)

    # -- free pairs and collapses -------------------------------------------

    def _free_tau_mask(self, sigma_mask: int) -> Optional[int]:
        """Union of faces containing sigma; a free pair exists iff the
        union is a face other than sigma itself."""
        union = 0
        for m in self._masks:
            if m & sigma_mask == sigma_mask:
                union |= m
        if union != sigma_mask and union in self._masks:
            return union
        return None

    def free_pairs(self) -> list[FreePair]:
        """All free pairs, non-elementary ones included, ordered
        lexicographically by tau then sigma."""
        pairs = []
        for sm in self._masks:
            tm = self._free_tau_mask(sm)
            if tm is not None:
                pairs.append(FreePair(_tuple_of(sm), _tuple_of(tm)))
        pairs.sort(key=lambda p: (p.tau, p.sigma))
        return pairs

    def collapse(self, pair: FreePair) -> "SimplicialComplex":
        """Remove every face between sigma and tau inclusive.

        Raises ValueError unless (sigma, tau) is a free pair of this
        complex. The removal count is 2 ** (dim tau - dim sigma).
        """
        sm = _mask_of(pair.sigma)
        tm = _mask_of(pair.tau)
        if sm not in self._masks:
            raise ValueError(f"{pair.sigma} is not a face")
        if tm not in self._masks:
            raise ValueError(f"{pair.tau} is not a face")
        if self._free_tau_mask(sm) != tm:
            raise ValueError(f"({pair.sigma}, {pair.tau}) is not a free pair")
        return self._collapse_masks(sm, tm)

    def _collapse_masks(self, sm: int, tm: int) -> "SimplicialComplex":
        removed = frozenset(m for m in self._masks if m & sm == sm and tm & m == m)
        return SimplicialComplex._from_masks(self._masks - removed)

    def to_text(self) -> str:
        """One maximal face per line, ids sorted ascending."""
        return "\n".join(" ".join(str(v) for v in f) for f in self.maximal_faces) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SimplicialComplex":
        maximal = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            maximal.append(tuple(int(t) for t in line.split()))
        return cls.from_maximal(maximal)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._masks == other._masks

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._masks)
        return self._hash

    def __repr__(self) -> str:
        return f"SimplicialComplex(faces={self.face_count}, dim={self.dim})"


def enumerate_cliques(g: Graph, max_size: Optional[int] = None, max_faces: int = DEFAULT_FACE_BUDGET) -> dict[int, list[Simplex]]:
    """Cliques of g grouped by size, each list in lexicographic order.

    Expands cliques by their common neighbors above the largest member,
    so every clique is produced exactly once.
    """
    out: dict[int, list[Simplex]] = {}
    if g.n == 0 or (max_size is not None and max_size < 1):
        return out
    total = g.n
    if max_faces is not None and total > max_faces:
        raise BudgetExceededError(f"face budget {max_faces} exceeded at {total} faces")
    level = []
    out[1] = [(v,) for v in g.vertices]
    for v in g.vertices:
        cand = g.adjacency_mask(v) >> (v + 1) << (v + 1)
        level.append(((v,), cand))
    size = 1
    while level and (max_size is None or size < max_size):
        size += 1
        nxt = []
        bucket = []
        for clique, cand in level:
            bits = cand
            while bits:
                low = bits & -bits
                u = low.bit_length() - 1
                bits &= bits - 1
                bigger = clique + (u,)
                bucket.append(bigger)
                nxt.append((bigger, cand & g.adjacency_mask(u) >> (u + 1) << (u + 1)))
        if bucket:
            total += len(bucket)
            if max_faces is not None and total > max_faces:
                raise BudgetExceededError(f"face budget {max_faces} exceeded at {total} faces")
            out[size] = bucket
        level = nxt
    return out


def clique_complex(g: Graph, max_faces: int = DEFAULT_FACE_BUDGET) -> SimplicialComplex:
    """Complex whose faces are exactly the nonempty cliques of g."""
    by_size = enumerate_cliques(g, max_faces=max_faces)
    masks = frozenset(_mask_of(c) for bucket in by_size.values() for c in bucket)
    return SimplicialComplex._from_masks(masks)


# -- collapsibility ------------------------------------------------------------

COLLAPSIBLE = "collapsible"
NOT_COLLAPSIBLE = "not_collapsible"
EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class CollapseVerdict:
    status: str
    witness: Optional[tuple[FreePair, ...]]
    nodes_expanded: int

    @property
    def collapsible(self) -> Optional[bool]:
        """True / False / None for collapsible / not / budget ran out."""
        if self.status == COLLAPSIBLE:
            return True
        if self.status == NOT_COLLAPSIBLE:
            return False
        return None


def _elementary_candidates(cx: SimplicialComplex) -> list[tuple[int, int, Simplex, Simplex]]:
    cands = []
    for sm in cx._masks:
        tm = cx._free_tau_mask(sm)
        if tm is not None and tm.bit_count() == sm.bit_count() + 1:
            cands.append((sm, tm, _tuple_of(sm), _tuple_of(tm)))
    # Highest-dimensional tau first, then lexicographic.
    cands.sort(key=lambda c: (-len(c[3]), c[3], c[2]))
    return cands


def is_collapsible(cx: SimplicialComplex, budget: int = DEFAULT_COLLAPSE_BUDGET) -> CollapseVerdict:
    """Decide collapsibility to a point by elementary collapses.

    Returns collapsible with a witness sequence, not_collapsible when the
    whole search space was exhausted, or exhausted when the node budget
    ran out first. States already proven dead are memoized.
    """
    if cx.face_count == 0:
        raise ValueError("collapsibility is undefined for the empty complex")
    if cx.euler_characteristic() != 1:
        # Collapses preserve the characteristic; a point has 1. No
        # sequence exists, which is exactly what an exhausted search
        # would conclude.
        return CollapseVerdict(NOT_COLLAPSIBLE, None, 0)
    # A state is keyed by one int, a bit per face position of cx; an
    # elementary collapse removes exactly its two faces, so two bit flips
    # give the key of the state it leads to.
    position = {m: k for k, m in enumerate(cx._masks)}
    dead: set[int] = set()
    nodes = 0
    witness: list[FreePair] = []

    def search(cur: SimplicialComplex, key: int) -> str:
        nonlocal nodes
        if cur.face_count == 1 and cur.dim == 0:
            return COLLAPSIBLE
        if key in dead:
            return NOT_COLLAPSIBLE
        nodes += 1
        if nodes > budget:
            return EXHAUSTED
        for sm, tm, sigma, tau in _elementary_candidates(cur):
            witness.append(FreePair(sigma, tau))
            status = search(cur._collapse_masks(sm, tm), key ^ (1 << position[sm]) ^ (1 << position[tm]))
            if status == COLLAPSIBLE:
                return COLLAPSIBLE
            witness.pop()
            if status == EXHAUSTED:
                return EXHAUSTED
        dead.add(key)
        return NOT_COLLAPSIBLE

    status = search(cx, (1 << len(position)) - 1)
    if status == COLLAPSIBLE:
        return CollapseVerdict(COLLAPSIBLE, tuple(witness), nodes)
    return CollapseVerdict(status, None, nodes)


# -- trace-guided collapse -------------------------------------------------------


MaskPair = tuple[int, int]  # (sigma, tau) as vertex masks
Lift = Optional[tuple[tuple[MaskPair, ...], int]]


def _lift(adj: dict[int, int], mask: int, verdicts: dict[int, bool], lifted: dict[int, Lift]) -> Lift:
    """The greedy scan's collapse of the clique complex of the subgraph
    induced by mask, as elementary collapses in (sigma, tau) mask pairs,
    and the mask of the point they leave; None when the scan does not
    reach a point.

    Each vertex v the scan deletes is the apex of a cone over its link,
    adj[v] & (what is left). The link's own collapse, lifted the same way
    one level down, joins v pair by pair, and (v, v + point) then removes
    what is left of the cone. verdicts is the scan's memo and lifted
    memoizes the answer by mask; both hold only while adj is unchanged.
    """
    if mask & (mask - 1) == 0:
        return ((), mask) if mask else None
    if mask in lifted:
        return lifted[mask]
    deleted, rest = _first_hit_deletions(adj, mask, verdicts)
    result: Lift = None
    if rest & (rest - 1) == 0:
        pairs: list[MaskPair] = []
        left = mask
        for v in deleted:
            bit = 1 << v
            link_pairs, point = _lift(adj, adj[v] & left, verdicts, lifted)
            pairs.extend((s | bit, t | bit) for s, t in link_pairs)
            pairs.append((bit, bit | point))
            left ^= bit
        result = tuple(pairs), rest
    lifted[mask] = result
    return result


def _replay(adj: dict[int, int], faces: set[int], pairs: Iterable[MaskPair]) -> None:
    """Apply elementary collapses, given as (sigma, tau) mask pairs, to a
    set of clique masks of the graph with adjacency adj, in place.

    Each pair is checked to be free first: sigma and tau are faces, tau
    is sigma plus one vertex x, and no sigma + y with y != x is a face.
    Every face is a clique, so such a y is a common neighbor of sigma.
    Raises InternalInconsistencyError at the first pair that is not free.
    """
    for sm, tm in pairs:
        x = tm & ~sm
        if sm not in faces or tm not in faces or tm & sm != sm or x & (x - 1) or not x:
            raise InternalInconsistencyError(f"({_tuple_of(sm)}, {_tuple_of(tm)}) is not an elementary pair of faces")
        common = -1
        for u in iter_bits(sm):
            common &= adj[u]
        for y in iter_bits(common & ~tm):
            if sm | 1 << y in faces:
                raise InternalInconsistencyError(f"({_tuple_of(sm)}, {_tuple_of(tm)}) is not a free pair")
        faces.discard(sm)
        faces.discard(tm)


def collapse_via_trace(g: Graph, trace: ReductionTrace) -> tuple[FreePair, ...]:
    """Elementary collapse sequence taking the clique complex of g to the
    clique complex of the reduced graph, lifted step by step from the
    reduction trace.

    Works for vertex and edge deletions alike: the deleted element plays
    the role of the cone apex over its (common) neighborhood. Each step
    is checked against the graph as it stands, then the link's collapse
    is lifted from one greedy scan of the link (_lift), joined to the
    apex, and closed by (apex, apex + point). The adjacency is updated in
    place.
    """
    pairs: list[FreePair] = []
    adj = {v: g.adjacency_mask(v) for v in g.vertices}  # what is left, updated in place
    for step in trace:
        apex = step.apex
        # an apex is one vertex or one edge: keep is its (common) neighborhood
        first, last, vertex = apex[0], apex[-1], len(apex) == 1
        if first not in adj or not (vertex or adj[first] >> last & 1):
            raise ValueError(f"simplex {list(apex)} is not in the graph")
        keep = adj[first] & adj[last]
        if keep != _mask_of(step.link):
            raise ValueError(
                f"trace does not match graph: link of {apex} is {list(iter_bits(keep))}, "
                f"recorded {sorted(step.link)}"
            )
        lift = _lift(adj, keep, {}, {})
        if lift is None:
            raise ValueError(f"link of {apex} is not strongly contractible; trace is invalid")
        link_pairs, point = lift
        am = _mask_of(apex)
        for sm, tm in link_pairs:
            pairs.append(FreePair(_tuple_of(sm | am), _tuple_of(tm | am)))
        pairs.append(FreePair(apex, _tuple_of(am | point)))
        if vertex:
            del adj[first]
            for w in iter_bits(keep):
                adj[w] &= ~am
        else:
            adj[first] &= ~(1 << last)
            adj[last] &= ~(1 << first)
    return tuple(pairs)
