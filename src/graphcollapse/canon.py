"""Exact canonical forms for small graphs.

Two graphs get the same canonical form if and only if they are isomorphic.
No hashing shortcuts: the form is the lexicographically least adjacency
encoding over a pruned set of candidate orderings.

The search is the usual individualization-refinement scheme. Iterated
degree refinement splits the vertices into an ordered partition; while a
cell with more than one vertex remains, each of its vertices is
individualized in turn and the refinement repeated. Every leaf of that
tree yields a vertex ordering, and the minimum adjacency encoding over
all leaves is label-invariant. Automorphisms discovered from equal leaf
encodings prune sibling branches in the same orbit, which keeps highly
symmetric inputs (complete graphs, cycles) tractable.

The search runs on vertex positions (ranks of the ids), not on ids. A
partition is a list of cells in color order, each a list of positions
in ascending order, so a vertex's color is the index of its cell.
Refinement splits each cell by its members' sorted neighbor colors,
buckets the members by that signature and orders the pieces by it, and
stops as soon as a pass splits nothing. Individualizing w puts w in a
cell of its own just ahead of the rest of its cell. A vertex's new
color is the rank of its (color, signature) pair among all vertices',
which does not depend on the ids.

The automorphisms the search records generate the whole automorphism
group. Let l be the first leaf reached with the least encoding, on the
path v1, ..., vk from the root, and G_i the automorphisms fixing
v1, ..., vi. Every vertex individualized below a node keeps one
position in all leaves under it, so the automorphism taking l to a leaf
of equal encoding under sibling w of v(i+1) fixes v1, ..., vi and sends
v(i+1) to w. No sibling in the G_i-orbit of v(i+1) comes before it (its
subtree would have reached the least encoding first), and each later one
is either searched, which records such an automorphism, or pruned as the
image of an earlier one under recorded automorphisms fixing v1, ..., vi.
So the recorded automorphisms reach the whole G_i-orbit of v(i+1), and
by induction from G_k = 1 they generate G_0, the whole group.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph

__all__ = [
    "CanonicalForm",
    "canonical_form",
    "canonical_labelling",
    "canonical_order",
    "form_in_order",
    "graph_from_canonical",
]

Automorphism = dict[int, int]


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """Canonical byte encoding: 2-byte vertex count, then packed upper
    triangle adjacency bits in canonical vertex order."""

    data: bytes

    def __post_init__(self):
        data = self.data
        if len(data) < 2:
            raise ValueError("canonical form needs at least a 2-byte vertex count")
        n = self.vertex_count
        nbits = n * (n - 1) // 2
        want = 2 + (nbits + 7) // 8
        if len(data) != want:
            raise ValueError(
                f"canonical form for n={n} needs {want} bytes, got {len(data)}"
            )
        pad = -nbits % 8
        if pad and data[-1] & ((1 << pad) - 1):
            raise ValueError("nonzero padding bits in canonical form")

    @property
    def vertex_count(self) -> int:
        return int.from_bytes(self.data[:2], "big")

    def hex(self) -> str:
        return self.data.hex()

    @classmethod
    def from_hex(cls, s: str) -> "CanonicalForm":
        return cls(bytes.fromhex(s))

    def __bytes__(self) -> bytes:
        return self.data


def _upper_triangle(masks, order) -> int:
    """The upper triangle of the adjacency matrix with rows and columns
    in the given order, read row by row into one integer, first entry
    highest. masks[x] is the adjacency mask of vertex x."""
    enc = 0
    n = len(order)
    for i in range(n):
        row = masks[order[i]]
        for j in range(i + 1, n):
            enc = (enc << 1) | (row >> order[j] & 1)
    return enc


def _refine(cells: list[list[int]], nbrs: list[list[int]]) -> list[list[int]]:
    """Stable iterated refinement by neighbor color multisets, on cells
    of vertex positions in color order (the color of a vertex is the
    index of its cell). Each pass splits every cell by its members'
    sorted neighbor colors, pieces in signature order; it stops as soon
    as a pass splits nothing."""
    n = len(nbrs)
    colors = [0] * n
    while len(cells) < n:
        for c, cell in enumerate(cells):
            for i in cell:
                colors[i] = c
        split: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                split.append(cell)
                continue
            by_sig: dict[tuple[int, ...], list[int]] = {}
            for i in cell:
                by_sig.setdefault(tuple(sorted([colors[u] for u in nbrs[i]])), []).append(i)
            if len(by_sig) == 1:
                split.append(cell)
            else:
                split.extend(by_sig[s] for s in sorted(by_sig))
        if len(split) == len(cells):
            break
        cells = split
    return cells


def canonical_labelling(g: Graph) -> tuple[tuple[int, ...], tuple[Automorphism, ...]]:
    """The vertex ordering realizing the canonical form, and automorphisms
    of g (as vertex maps) that generate its automorphism group, both from
    one search."""
    vs = g.vertices
    n = len(vs)
    if n <= 1:
        return vs, ()
    ids = sorted(vs)
    pos = {v: i for i, v in enumerate(ids)}
    nbrs = [[pos[u] for u in g.neighbors(v)] for v in ids]
    adj = [sum(1 << u for u in row) for row in nbrs]

    best: list = [None, None]  # [encoding, order]
    gens: list[Automorphism] = []  # automorphisms found, by vertex id

    def in_known_orbit(w: int, tried: list[int], fixed: tuple[int, ...]) -> bool:
        if not tried:
            return False
        fixing = [p for p in gens if all(p[ids[x]] == ids[x] for x in fixed)]
        if not fixing:
            return False
        orbit = {ids[t] for t in tried}
        grew = True
        while grew:
            grew = False
            for p in fixing:
                for x in list(orbit):
                    y = p[x]
                    if y not in orbit:
                        orbit.add(y)
                        grew = True
        return ids[w] in orbit

    def descend(cells: list[list[int]], fixed: tuple[int, ...]) -> None:
        at = next((c for c, cell in enumerate(cells) if len(cell) > 1), None)
        if at is None:
            order = [cell[0] for cell in cells]
            enc = _upper_triangle(adj, order)
            if best[0] is None or enc < best[0]:
                best[0] = enc
                best[1] = order
            elif enc == best[0] and order != best[1]:
                gens.append({ids[best[1][i]]: ids[order[i]] for i in range(n)})
            return
        target = cells[at]
        tried: list[int] = []
        for w in target:
            if in_known_orbit(w, tried, fixed):
                continue
            # Split w off just ahead of its cell, then restabilize.
            rest = [i for i in target if i != w]
            descend(_refine(cells[:at] + [[w], rest] + cells[at + 1:], nbrs), fixed + (w,))
            tried.append(w)

    descend(_refine([list(range(n))], nbrs), ())
    return tuple(ids[i] for i in best[1]), tuple(gens)


def canonical_order(g: Graph) -> tuple[int, ...]:
    """Vertex ordering realizing the canonical form."""
    return canonical_labelling(g)[0]


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical form of g."""
    return form_in_order(g, canonical_order(g))


def form_in_order(g: Graph, order: tuple[int, ...]) -> CanonicalForm:
    """The byte encoding of g with its vertices taken in the given order;
    the canonical form when the order is canonical_order(g)."""
    n = len(order)
    nbits = n * (n - 1) // 2
    enc = _upper_triangle(g._adj, order)
    return CanonicalForm(n.to_bytes(2, "big") + (enc << -nbits % 8).to_bytes((nbits + 7) // 8, "big"))


def graph_from_canonical(form: CanonicalForm) -> Graph:
    """Reconstruct the representative graph on vertices 0..n-1."""
    n = form.vertex_count
    k = n * (n - 1) // 2
    enc = int.from_bytes(form.data[2:], "big") >> -k % 8
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            k -= 1
            if enc >> k & 1:
                edges.append((i, j))
    return Graph(range(n), edges)
