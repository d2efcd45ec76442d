"""Finite simplicial complexes, clique complexes, and collapsibility.

Faces are stored as integer bitmasks over vertex ids. Free pairs are
read off one private structure, the coface map up: each face s maps to
the mask of vertices y with s + y a face. Every face containing s lies
in s | up[s], by downward closure, so s is free exactly when up[s] is
nonzero and s | up[s] is a face; the pair is elementary when up[s] is
one bit, and s is maximal when up[s] is 0. Removing or restoring a face
updates only its facets' entries.

Collapsibility to a point is decided by exhaustive depth-first search
over elementary collapses (the removed pair differs by one dimension),
made and undone on one coface map, with memoized dead states and a node
budget. An Euler characteristic gate certifies many negatives without
search: elementary collapses preserve the characteristic and a point
has characteristic 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .contract import ReductionTrace, _first_hit_deletions
from .errors import BudgetExceededError, GraphFormatError, InternalInconsistencyError, check_collapse_budget
from .graphs import Graph, _content_lines, _mask_to_tuple, iter_bits

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
        if v < 0:
            raise ValueError(f"vertex id {v} is negative")
        mask |= 1 << v
    return mask


def _cofaces(masks: Iterable[int]) -> dict[int, int]:
    """The coface map (see the module docstring) of a downward-closed face set."""
    up = dict.fromkeys(masks, 0)
    for m in up:
        bits = m if m & (m - 1) else 0
        while bits:
            low = bits & -bits
            up[m ^ low] |= low
            bits ^= low
    return up


def _free_tau(up: dict[int, int], sm: int) -> int:
    """tau of the free pair at the face sigma, or 0 if sigma is not free."""
    tm = sm | up[sm]
    return tm if tm != sm and tm in up else 0


def _flip(up: dict[int, int], sm: int, tm: int) -> None:
    """Remove the elementary free pair (sigma, tau) from the coface map, or
    put it back if gone; only tau - v and sigma - v, v in sigma, change."""
    if tm in up:
        del up[tm], up[sm]
    else:
        up[sm] = tm ^ sm
        up[tm] = 0
    bits = sm
    while bits:
        low = bits & -bits
        up[tm ^ low] ^= low
        if sm != low:
            up[sm ^ low] ^= low
        bits ^= low


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

    __slots__ = ("_masks", "_faces", "_hash")

    def __init__(self, faces: Iterable[Iterable[int]]):
        masks = frozenset(_mask_of(f) for f in faces)
        if 0 in masks:
            raise ValueError("the empty simplex is not a face")
        for m in masks:
            for v in iter_bits(m):
                if m != 1 << v and m ^ 1 << v not in masks:
                    missing = _mask_to_tuple(m ^ 1 << v)
                    raise ValueError(f"face set is not downward closed: {_mask_to_tuple(m)} present, {missing} missing")
        self._masks = masks
        self._faces = None
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
        obj._hash = None
        return obj

    # -- accessors ---------------------------------------------------------

    @property
    def faces(self) -> tuple[Simplex, ...]:
        """All faces sorted by (dimension, lexicographic)."""
        if self._faces is None:
            self._faces = tuple(sorted((_mask_to_tuple(m) for m in self._masks), key=lambda t: (len(t), t)))
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
        return _mask_to_tuple(union)

    @property
    def maximal_faces(self) -> tuple[Simplex, ...]:
        maximal = [_mask_to_tuple(m) for m, y in _cofaces(self._masks).items() if not y]
        return tuple(sorted(maximal, key=lambda t: (len(t), t)))

    def euler_characteristic(self) -> int:
        chi = 0
        for m in self._masks:
            chi += 1 if (m.bit_count() - 1) % 2 == 0 else -1
        return chi

    def has_face(self, simplex: Iterable[int]) -> bool:
        return _mask_of(simplex) in self._masks

    def one_skeleton(self) -> Graph:
        vertices = [m.bit_length() - 1 for m in self._masks if m.bit_count() == 1]
        edges = [_mask_to_tuple(m) for m in self._masks if m.bit_count() == 2]
        return Graph(vertices, edges)

    # -- free pairs and collapses -------------------------------------------

    def free_pairs(self) -> list[FreePair]:
        """All free pairs, non-elementary ones included, ordered
        lexicographically by tau then sigma."""
        up = _cofaces(self._masks)
        pairs = []
        for sm in up:
            tm = _free_tau(up, sm)
            if tm:
                pairs.append(FreePair(_mask_to_tuple(sm), _mask_to_tuple(tm)))
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
        if _free_tau(_cofaces(self._masks), sm) != tm:
            raise ValueError(f"({pair.sigma}, {pair.tau}) is not a free pair")
        # the faces containing a free sigma are exactly those up to tau
        return SimplicialComplex._from_masks(frozenset(m for m in self._masks if m & sm != sm))

    def to_text(self) -> str:
        """One maximal face per line, ids sorted ascending."""
        return "\n".join(" ".join(str(v) for v in f) for f in self.maximal_faces) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SimplicialComplex":
        """Parse one face per line, vertex ids separated by whitespace;
        the complex is the downward closure of the faces."""
        maximal = []
        for lineno, line in _content_lines(text):
            try:
                face = [int(t) for t in line.split()]
            except ValueError:
                raise GraphFormatError("<complex>", lineno, f"expected integer vertex ids, got {line!r}") from None
            negative = [v for v in face if v < 0]
            if negative:
                raise GraphFormatError("<complex>", lineno, f"vertex id {negative[0]} is negative")
            maximal.append(face)
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


def _clique_levels(g: Graph, max_size: Optional[int], max_faces: Optional[int]) -> Iterator[list[tuple[Simplex, int, int]]]:
    """The cliques of g with at most max_size vertices, one level per
    size, each clique as (vertex tuple, mask, candidates) in
    lexicographic order, counted against the face budget.

    A clique is extended by its candidates, the common neighbors above
    its largest member, so every clique is produced exactly once; the
    candidates above the vertex just added are those still left in the
    bit loop.
    """
    if max_size is not None and max_size < 1:
        return
    adj = g._adj
    level = [((v,), 1 << v, adj[v] >> (v + 1) << (v + 1)) for v in g.vertices]
    total = size = 0
    while level:
        size += 1
        total += len(level)
        if max_faces is not None and total > max_faces:
            raise BudgetExceededError(f"face budget {max_faces} exceeded at {total} faces")
        yield level
        if size == max_size:
            return
        nxt = []
        for clique, m, cand in level:
            while cand:
                low = cand & -cand
                cand ^= low
                u = low.bit_length() - 1
                nxt.append((clique + (u,), m | low, cand & adj[u]))
        level = nxt


def enumerate_cliques(g: Graph, max_size: Optional[int] = None, max_faces: int = DEFAULT_FACE_BUDGET) -> dict[int, list[Simplex]]:
    """Cliques of g grouped by size, each list in lexicographic order."""
    levels = _clique_levels(g, max_size, max_faces)
    return {size: [c for c, _, _ in level] for size, level in enumerate(levels, 1)}


def clique_complex(g: Graph, max_faces: int = DEFAULT_FACE_BUDGET) -> SimplicialComplex:
    """Complex whose faces are exactly the nonempty cliques of g."""
    levels = _clique_levels(g, None, max_faces)
    return SimplicialComplex._from_masks(frozenset(m for level in levels for _, m, _ in level))


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


def is_collapsible(cx: SimplicialComplex, budget: int = DEFAULT_COLLAPSE_BUDGET) -> CollapseVerdict:
    """Decide collapsibility to a point by elementary collapses.

    Returns collapsible with a witness sequence, not_collapsible when the
    whole search space was exhausted, or exhausted when the node budget
    ran out first. States already proven dead are memoized. A budget
    below 1 raises ValueError.
    """
    check_collapse_budget(budget)
    if cx.face_count == 0:
        raise ValueError("collapsibility is undefined for the empty complex")
    if cx.euler_characteristic() != 1:
        # Collapses preserve the characteristic; a point has 1. No
        # sequence exists, which is exactly what an exhausted search
        # would conclude.
        return CollapseVerdict(NOT_COLLAPSIBLE, None, 0)
    # With faces ranked highest dimension first, then lexicographically, pairs
    # are tried in (tau rank, sigma rank) order; a state's key has a bit per rank.
    order = sorted(cx._masks, key=lambda m: (-m.bit_count(), _mask_to_tuple(m)))
    rank = {m: k for k, m in enumerate(order)}
    up = _cofaces(order)
    dead: set[int] = set()
    nodes = 0
    # An explicit stack, so a deep search cannot overflow Python's. A frame
    # is [key, the node's pairs, pairs tried]; its last try stays applied.
    frames: list[list] = []
    key = (1 << len(order)) - 1
    while True:
        if len(up) == 1:
            tried = (pairs[i - 1] for _, pairs, i in frames)
            witness = tuple(FreePair(_mask_to_tuple(order[s]), _mask_to_tuple(order[t])) for t, s in tried)
            return CollapseVerdict(COLLAPSIBLE, witness, nodes)
        if key not in dead:
            nodes += 1
            if nodes > budget:
                return CollapseVerdict(EXHAUSTED, None, nodes)
            # _free_tau's pair at sm, when elementary: up[sm] is one bit
            pairs = sorted((rank[sm | y], rank[sm]) for sm, y in up.items() if y and not y & (y - 1))
            frames.append([key, pairs, 0])
        while True:
            frame = frames[-1]
            key, pairs, i = frame
            if i:
                t, s = pairs[i - 1]
                _flip(up, order[s], order[t])
            if i < len(pairs):
                break
            dead.add(key)
            frames.pop()
            if not frames:
                return CollapseVerdict(NOT_COLLAPSIBLE, None, nodes)
        t, s = pairs[i]
        _flip(up, order[s], order[t])
        frame[2] = i + 1
        key ^= 1 << t | 1 << s


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


def _replay(faces: Iterable[int], pairs: Iterable[MaskPair]) -> dict[int, int]:
    """Apply elementary collapses, given as (sigma, tau) mask pairs, to a
    downward-closed set of face masks and return the coface map of what
    is left. Raises InternalInconsistencyError at the first pair that is
    not the free pair at its sigma, or not elementary."""
    up = _cofaces(faces)
    for sm, tm in pairs:
        if sm not in up or _free_tau(up, sm) != tm or up[sm] & (up[sm] - 1):
            raise InternalInconsistencyError(f"({_mask_to_tuple(sm)}, {_mask_to_tuple(tm)}) is not a free pair, or not elementary")
        _flip(up, sm, tm)
    return up


def collapse_via_trace(g: Graph, trace: ReductionTrace) -> tuple[FreePair, ...]:
    """Elementary collapse sequence taking the clique complex of g to the
    clique complex of the reduced graph, lifted step by step from the
    reduction trace.

    Works for vertex and edge deletions alike: the deleted element plays
    the role of the cone apex over its (common) neighborhood. The trace is
    walked and checked as replay does it; each step's link collapse is
    lifted from one greedy scan of the link (_lift) on the live masks,
    joined to the apex, and closed by (apex, apex + point).
    """
    pairs: list[FreePair] = []
    adj = dict(g._adj)
    for apex, keep in trace._checked_walk(adj):
        lift = _lift(adj, keep, {}, {})
        if lift is None:
            raise ValueError(f"link of {apex} is not strongly contractible; trace is invalid")
        link_pairs, point = lift
        am = _mask_of(apex)
        pairs.extend(FreePair(_mask_to_tuple(sm | am), _mask_to_tuple(tm | am)) for sm, tm in link_pairs)
        pairs.append(FreePair(apex, _mask_to_tuple(am | point)))
    return tuple(pairs)
