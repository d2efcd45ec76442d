"""Recursive graph contractibility tests and reduction sequences.

A graph is *strongly contractible* when it can be shrunk to a single
vertex by repeatedly deleting a vertex whose open neighborhood is itself
strongly contractible. The membership test deletes, again and again, the
lowest vertex whose neighborhood passes; it never backtracks over that
choice. An exhaustive any-order variant is provided separately so
negative answers can be certified independently of the greedy scan order.

The scan keeps a worklist rather than restarting at the lowest vertex
after each deletion: a vertex that failed is tested again only once a
neighbor of it is deleted, since nothing else changes its neighborhood.
The deletion order is the one a restarting scan gives. Cones are
accepted without a scan, as the scan would accept them; the cone test
keeps as candidates only the neighbors of each vertex it rejects. A
verdict needs no deletion order, so its scan keeps only what is left and
stops at the first vertex with no neighbor left, which the scan never
deletes: the answer is then no.

The reduction routine applies the same scan destructively: it deletes the
lowest qualifying vertex until none qualifies. The edge-extended variant
additionally deletes an edge whose common neighborhood passes the test
whenever no vertex qualifies.

Every graph one test visits is an induced subgraph of its input, since
the recursion only enters neighborhoods and vertex deletions. Within a
call, a graph is therefore named exactly by its vertex mask over the
input's adjacency, and verdicts are memoized by mask for that call only.
Nothing is shared between calls.

A trace step is the deleted simplex, its apex (v,) or (u, v), and the
int mask of the apex's link when it was deleted; the link's vertex set
is decoded only when read. Every reduction records its own steps, so
no step is shared between calls. Every trace consumer (replay, parsing
against a graph, cycle pushing in homology, collapse lifting in
complexes) reads one walk, _walk, which applies the steps in place to
one copy of the graph's adjacency masks; replay and collapse lifting
also compare each live link mask with the recorded one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .errors import GraphFormatError
from .graphs import Graph, _content_lines, _subgraph, iter_bits

__all__ = [
    "Step",
    "ReductionTrace",
    "is_strong_contractible",
    "is_strong_contractible_any_order",
    "contractible_reduction",
    "edge_extended_reduction",
    "clear_caches",
]


def clear_caches() -> None:
    """Nothing to clear: every test memoizes within one call only. Kept
    in the public API for existing callers."""


def _first_hit_deletions(adj: dict[int, int], mask: int, memo: dict[int, bool]) -> tuple[list[int], int]:
    """The greedy scan on the subgraph induced by mask.

    Deletes the lowest vertex whose neighborhood is strongly contractible
    until no vertex qualifies. Returns the deleted vertices in order and
    the mask that is left.

    The vertices still to test are kept in todo, and the lowest of them is
    tested next. A vertex leaves todo when it fails and comes back when a
    neighbor is deleted. Deleting v changes the neighborhoods of v's
    neighbors only, so every vertex outside todo has failed on the
    neighborhood it still has, and would fail again. The lowest vertex of
    todo that passes is therefore the lowest vertex that qualifies, and
    the deletions are those of a scan that restarts at the lowest vertex
    after each one.
    """
    deleted = []
    todo = mask
    while todo:
        low = todo & -todo
        todo ^= low
        v = low.bit_length() - 1
        if _contractible(adj, adj[v] & mask, memo):
            deleted.append(v)
            mask ^= low
            todo |= adj[v] & mask
    return deleted, mask


def _contractible(adj: dict[int, int], mask: int, memo: dict[int, bool]) -> bool:
    """Greedy verdict for the subgraph induced by mask: no for the empty
    graph, yes for a single vertex, otherwise whether the scan leaves one
    vertex.

    A cone, some vertex w adjacent to all the others, is accepted without
    a scan; the scan accepts it too. By induction on size: every vertex
    x != w has a neighborhood that is w alone or a smaller cone on w, so
    it passes. If the scan's first deletion is some such x, a smaller
    cone on w is left. If it is w, what is left is w's neighborhood, which
    the scan has just accepted. Either way the scan goes on to a single
    vertex.

    Otherwise the scan is _first_hit_deletions' worklist scan, keeping
    only what is left, and it stops at the first vertex with no neighbor
    left. That vertex is never deleted, its neighborhood being empty, and
    every other component keeps at least its last vertex for the same
    reason, so the scan cannot leave a single vertex unless that vertex
    is all that is left.
    """
    if mask & (mask - 1) == 0:
        return mask != 0
    verdict = memo.get(mask)
    if verdict is None:
        verdict = _is_cone(adj, mask) != 0
        if not verdict:
            rest = todo = mask
            while todo:
                low = todo & -todo
                todo ^= low
                nbrs = adj[low.bit_length() - 1] & rest
                if not nbrs:
                    break
                passes = nbrs & (nbrs - 1) == 0 or memo.get(nbrs)
                if passes is None:
                    passes = _contractible(adj, nbrs, memo)
                if passes:
                    rest ^= low
                    todo |= nbrs
            verdict = rest & (rest - 1) == 0
        memo[mask] = verdict
    return verdict


def _is_cone(adj: dict[int, int], mask: int) -> int:
    """The bit of the lowest vertex of mask adjacent to all the others,
    or 0 if there is none.

    After a candidate w fails, only w's neighbors stay candidates, since
    an apex is adjacent to w. Every apex is thus adjacent to each vertex
    tested before it and is never dropped, so the first vertex that
    passes is still the lowest apex.
    """
    cand = mask
    while cand:
        low = cand & -cand
        nbrs = adj[low.bit_length() - 1]
        if (nbrs | low) & mask == mask:
            return low
        cand &= nbrs
    return 0


def _contractible_any_order(adj: dict[int, int], mask: int, memo: dict[int, bool]) -> bool:
    """Whether some deletion order takes the subgraph induced by mask to
    a single vertex."""
    if mask & (mask - 1) == 0:
        return mask != 0
    verdict = memo.get(mask)
    if verdict is None:
        verdict = memo[mask] = any(
            _contractible_any_order(adj, adj[v] & mask, memo)
            and _contractible_any_order(adj, mask ^ (1 << v), memo)
            for v in iter_bits(mask)
        )
    return verdict


def is_strong_contractible(g: Graph) -> bool:
    """Greedy first-hit membership test.

    Empty graph: no. Single vertex: yes. Otherwise scan vertices in
    ascending id order; at the first vertex whose neighborhood passes
    recursively, the answer is the answer for the graph minus that
    vertex. The deletions run as a loop, so the recursion depth follows
    how deeply neighborhoods nest (at most the clique number), not n.
    """
    adj, mask = g._adj, g._vmask
    return _contractible(adj, mask, {})


def is_strong_contractible_any_order(g: Graph) -> bool:
    """Backtracking variant: true when *some* deletion order reaches K(1).

    Used by the census harness to certify that a greedy rejection was not
    an artifact of the fixed scan order. Each deletion is one level of
    recursion, so a graph on n vertices needs a recursion depth of about
    n; this variant is meant for small graphs.
    """
    adj, mask = g._adj, g._vmask
    return _contractible_any_order(adj, mask, {})


# -- reduction traces ----------------------------------------------------------

class Step:
    """One deletion: the deleted simplex, ascending, (v,) or (u, v) with
    u < v, and the mask of its link at deletion time, the vertices
    adjacent to every apex vertex (0 in a trace parsed without its
    graph). Deleting the apex collapses its star onto that link. A value:
    equal steps hash alike, and its fields are not to be reassigned."""

    __slots__ = ("apex", "mask")

    def __init__(self, apex: tuple[int, ...], mask: int = 0):
        if type(apex) is not tuple or not (len(apex) == 1 or len(apex) == 2 and apex[0] < apex[1]):
            raise ValueError(f"step apex must be (v,) or (u, v) with u < v, got {apex!r}")
        self.apex = apex
        self.mask = mask

    def __eq__(self, other) -> bool:
        return type(other) is Step and self.apex == other.apex and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.apex, self.mask))

    @property
    def kind(self) -> str:
        return "vertex" if len(self.apex) == 1 else "edge"

    @property
    def element(self) -> object:
        """The vertex id for a vertex step, the (u, v) pair for an edge step."""
        return self.apex[0] if len(self.apex) == 1 else self.apex

    @property
    def link(self) -> frozenset:
        """The link's vertex ids."""
        return frozenset(iter_bits(self.mask))

    def __repr__(self) -> str:
        return f"Step({self.apex!r}, link={list(iter_bits(self.mask))})"


def _apex_link(adj: dict[int, int], apex: tuple[int, ...]) -> int:
    """The link of the apex, one vertex or one edge, in the clique complex
    of the graph with adjacency masks adj: the mask of the vertices
    adjacent to every apex vertex. Raises ValueError unless the apex is a
    clique of that graph."""
    u, v = apex[0], apex[-1]
    if u not in adj or v not in adj or not (len(apex) == 1 or adj[u] >> v & 1):
        raise ValueError(f"simplex {list(apex)} is not in the graph")
    return adj[u] & adj[v]


def _walk(adj: dict[int, int], apexes: Iterable[tuple[int, ...]]) -> Iterator[tuple[tuple[int, ...], int]]:
    """Apply trace steps to adj in place, the one walk every trace
    consumer reads.

    At each apex, which must be a clique of what is left (else
    ValueError), yields the apex and its link mask, then deletes the apex
    vertex or edge, changing only the masks of the deleted element's
    neighbors. The consumer reads adj, as it stands before the deletion,
    while the walk is suspended. adj must be the caller's own copy of a
    graph's masks: graphs share theirs.
    """
    for apex in apexes:
        link = _apex_link(adj, apex)
        yield apex, link
        if len(apex) == 1:
            v = apex[0]
            for w in iter_bits(adj.pop(v)):
                adj[w] ^= 1 << v
        else:
            u, v = apex
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u


# Trace-format line tag by apex size - 1.
_TAGS = ("V", "E")


@dataclass(frozen=True)
class ReductionTrace:
    """Ordered deletion sequence recorded by a reduction."""

    steps: tuple[Step, ...] = ()

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)

    @property
    def deleted_vertices(self) -> tuple[int, ...]:
        return tuple(s.apex[0] for s in self.steps if len(s.apex) == 1)

    @property
    def deleted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(s.apex for s in self.steps if len(s.apex) == 2)

    def _checked_walk(self, adj: dict[int, int]) -> Iterator[tuple[tuple[int, ...], int]]:
        """_walk over the steps, checking each live link mask against the
        recorded one. Errors name the step."""
        i = 0
        try:
            for apex, link in _walk(adj, [step.apex for step in self.steps]):
                recorded = self.steps[i].mask
                if link != recorded:
                    raise ValueError(
                        f"link of {list(apex)} is {list(iter_bits(link))}, trace recorded {list(iter_bits(recorded))}"
                    )
                yield apex, link
                i += 1
        except ValueError as exc:
            raise ValueError(f"trace step {i}: {exc}") from None

    def replay(self, g: Graph) -> Graph:
        """Apply the deletions to g, validating each step.

        Checks that each deleted element exists and that the recorded
        link mask matches the graph at that point.
        """
        adj = dict(g._adj)
        for _ in self._checked_walk(adj):
            pass
        return Graph._from_masks(tuple(sorted(adj)), adj)

    def to_text(self) -> str:
        lines = [f"trace {len(self.steps)}"]
        for step in self.steps:
            apex = step.apex
            lines.append(" ".join([_TAGS[len(apex) - 1], *map(str, apex)]))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, g: Optional[Graph] = None, source: str = "<trace>") -> "ReductionTrace":
        """Parse the trace format. If g is given, deletions are replayed
        against it so the link masks are filled in and validated;
        otherwise every step's mask is 0."""
        lines = _content_lines(text)
        if not lines:
            raise GraphFormatError(source, 1, "empty trace, expected 'trace k' header")
        lineno, header = lines[0]
        parts = header.split()
        if len(parts) != 2 or parts[0] != "trace":
            raise GraphFormatError(source, lineno, f"expected 'trace k' header, got {header!r}")
        try:
            k = int(parts[1])
        except ValueError:
            raise GraphFormatError(source, lineno, f"expected integer count, got {parts[1]!r}") from None
        body = lines[1:]
        if len(body) != k:
            raise GraphFormatError(source, lineno, f"header promises {k} steps, found {len(body)}")
        apexes = []
        for lineno, line in body:
            tag, *ids = line.split()
            if tag not in _TAGS or _TAGS.index(tag) != len(ids) - 1:
                raise GraphFormatError(source, lineno, f"expected 'V v' or 'E u v', got {line!r}")
            try:
                apex = tuple(sorted(map(int, ids)))
            except ValueError:
                raise GraphFormatError(source, lineno, f"expected integer vertex ids, got {line!r}") from None
            if apex[0] < 0:
                raise GraphFormatError(source, lineno, f"vertex id {apex[0]} is negative")
            if len(set(apex)) < len(apex):
                raise GraphFormatError(source, lineno, f"edge step needs two distinct vertices, got {line!r}")
            apexes.append(apex)
        if g is None:
            return cls(tuple(map(Step, apexes)))
        return cls(tuple(Step(apex, link) for apex, link in _walk(dict(g._adj), apexes)))


# -- reductions ------------------------------------------------------------------


def _reduce(g: Graph, edge_extended: bool) -> tuple[Graph, ReductionTrace]:
    """Both reductions: the greedy scan on g's masks, then, for the
    edge-extended one, the first edge whose common neighborhood passes
    and the scan again, until neither deletes anything."""
    steps: list[Step] = []
    while True:
        # Verdicts are keyed by vertex mask, so they hold only until an
        # edge deletion changes the adjacency.
        memo: dict[int, bool] = {}
        adj, mask = g._adj, g._vmask
        deleted, rest = _first_hit_deletions(adj, mask, memo)
        for v in deleted:
            steps.append(Step((v,), adj[v] & mask))
            mask ^= 1 << v
        if deleted:
            g = _subgraph(adj, rest)
            adj = g._adj
        if not edge_extended:
            break
        for u, v in g.edges:
            link = adj[u] & adj[v]
            if _contractible(adj, link, memo):
                steps.append(Step((u, v), link))
                g = g.delete_edge(u, v)
                break
        else:
            break
    return g, ReductionTrace(tuple(steps))


def contractible_reduction(g: Graph) -> tuple[Graph, ReductionTrace]:
    """Delete qualifying vertices until none remains.

    Each pass scans ascending vertex ids, deletes the first vertex whose
    neighborhood is strongly contractible, and restarts. Deterministic.
    """
    return _reduce(g, False)


def edge_extended_reduction(g: Graph) -> tuple[Graph, ReductionTrace]:
    """Vertex reduction, falling back to edge deletions when stuck.

    When no vertex qualifies, edges are tried in ascending lexicographic
    order; the first edge whose common neighborhood is strongly
    contractible is deleted, after which vertex deletions are retried.
    """
    return _reduce(g, True)

