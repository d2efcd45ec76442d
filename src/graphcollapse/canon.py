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

One private search, `_search(adj)`, runs on adjacency masks over
positions 0..n-1 and returns the least encoding as an integer, the
order reaching it and the automorphisms found, all on positions. The
public functions take a Graph's ids to positions (ranks of the ids) and
back. The census calls `_canonical(adj)`, which turns one search's
result into the child's form, its masks in canonical order and its
generators on canonical positions. A partition is a list of cells in
color order, each a list of positions in ascending order, so a
vertex's color is the index of its cell.

The root partition buckets the vertices by degree, lower degrees
first. Refinement then runs in passes against the cells the last split
created. A pass splits every cell by its members' neighbor counts in
those cells, (adj[i] & cell mask).bit_count(), taken in color order and
packed into one integer key, pieces in descending order of key, and
stops as soon as it splits nothing. Individualizing w puts w in a cell
of its own just ahead of the rest of its cell, and the first pass below
it splits against {w}. Every step depends only on counts and colors,
not on the ids.

This gives the same ordered partitions as splitting every cell on
every pass by its members' full neighbor color multisets, lower degree
first, then more neighbors of color 0, then of color 1, and so on.
Every partition refinement returns is equitable: members of one cell
have the same number of neighbors in each cell. So after a pass,
members of a cell still have equal counts in every cell of the
partition before it, and after an individualization in every cell but
{w} and the rest of w's cell: they can differ only in their counts in
the cells just created, and comparing those in color order ranks them
as the full multisets do. The counts in the pieces of one split cell
add up to the count in that cell, the same for all members, so the
last piece is left out of the key (the rest of w's cell with it). After
the root pass every cell holds one degree, which the multisets also
compare first.

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
by induction from G_k = 1 they generate G_0, the whole group. Each tree
node keeps the recorded automorphisms that fix its path and the orbit
of its searched children under them, and takes in each automorphism
recorded below it that fixes its path as it is found, so a sibling is
pruned by one set lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .graphs import Graph, iter_bits

__all__ = [
    "CanonicalForm",
    "canonical_form",
    "canonical_labelling",
    "canonical_order",
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
    highest. masks[x] is the adjacency mask of vertex x. Each row is
    gathered in an int of its own and joined to the result once:
    shifting the growing result once per bit would cost time quadratic
    in the n(n-1)/2 bits."""
    enc = 0
    n = len(order)
    for i in range(n - 1):
        row = masks[order[i]]
        bits = 0
        for j in range(i + 1, n):
            bits = bits << 1 | row >> order[j] & 1
        enc = enc << n - 1 - i | bits
    return enc


def _refine(cells: list[list[int]], fresh: list[int], adj: list[int]) -> list[list[int]]:
    """Stable iterated refinement of an ordered partition, cells of vertex
    positions in color order, against the cells at the indices fresh
    (ascending), as the module docstring describes: each pass splits
    every cell by its members' neighbor counts in the fresh cells, pieces
    in descending order of count vector, and every piece but the last of
    each cell it split is fresh for the next pass."""
    n = len(adj)
    width = n.bit_length()
    while fresh and len(cells) < n:
        splitters = []
        for c in fresh:
            mask = 0
            for i in cells[c]:
                mask |= 1 << i
            splitters.append(mask)
        split: list[list[int]] = []
        fresh = []
        for cell in cells:
            if len(cell) == 1:
                split.append(cell)
                continue
            by_count: dict[int, list[int]] = {}
            for i in cell:
                row = adj[i]
                key = 0
                for mask in splitters:
                    key = key << width | (row & mask).bit_count()
                by_count.setdefault(key, []).append(i)
            if len(by_count) == 1:
                split.append(cell)
            else:
                for key in sorted(by_count, reverse=True):
                    fresh.append(len(split))
                    split.append(by_count[key])
                fresh.pop()
        cells = split
    return cells


def _close(orbit: set[int], frontier: list[int], maps: Sequence[Mapping[int, int] | list[int]]) -> None:
    """Add to orbit, in place, everything the maps reach from frontier;
    each map is indexed by the points it moves."""
    while frontier:
        x = frontier.pop()
        for p in maps:
            y = p[x]
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)


def _search(adj: list[int]) -> tuple[int, list[int], list[Automorphism]]:
    """The least upper-triangle encoding of the graph with adjacency
    masks adj over positions 0..n-1, the first order found that reaches
    it, and automorphisms that generate the graph's automorphism group.
    Each automorphism maps the best order known when it was found, key
    by key in that order, onto the order of a leaf of equal encoding."""
    n = len(adj)
    if n <= 1:
        return 0, list(range(n)), []
    best: list = [None, None]  # [encoding, order]
    gens: list[Automorphism] = []
    path: list[int] = []  # the vertex individualized at each depth
    # Per node on the path: the recorded automorphisms fixing the node's
    # path prefix, and the orbit of its searched children under them.
    nodes: list[tuple[list[Automorphism], set[int]]] = []

    def descend(cells: list[list[int]]) -> None:
        if len(cells) == n:
            order = [cell[0] for cell in cells]
            enc = _upper_triangle(adj, order)
            if best[0] is None or enc < best[0]:
                best[0] = enc
                best[1] = order
            elif enc == best[0] and order != best[1]:
                p = dict(zip(best[1], order))
                gens.append(p)
                for depth, (fixing, orbit) in enumerate(nodes):
                    if depth and p[path[depth - 1]] != path[depth - 1]:
                        break
                    fixing.append(p)
                    grown = [y for y in map(p.__getitem__, orbit) if y not in orbit]
                    orbit.update(grown)
                    _close(orbit, grown, fixing)
            return
        for at, target in enumerate(cells):
            if len(target) > 1:
                break
        if nodes:
            v = path[-1]
            fixing = [p for p in nodes[-1][0] if p[v] == v]
        else:
            fixing = []
        orbit: set[int] = set()
        nodes.append((fixing, orbit))
        for w in target:
            if w in orbit:
                continue
            # Split w off just ahead of its cell, then restabilize.
            rest = target[:]
            rest.remove(w)
            child = cells[:]
            child[at:at + 1] = [w], rest
            path.append(w)
            descend(_refine(child, [at], adj))
            path.pop()
            orbit.add(w)
            _close(orbit, [w], fixing)
        nodes.pop()

    by_degree: dict[int, list[int]] = {}
    for i in range(n):
        by_degree.setdefault(adj[i].bit_count(), []).append(i)
    cells = [by_degree[d] for d in sorted(by_degree)]
    descend(_refine(cells, list(range(len(cells) - 1)), adj))
    return best[0], best[1], gens


def _form(n: int, enc: int) -> CanonicalForm:
    """The form of an n-vertex graph whose upper triangle, read as by
    _upper_triangle, is enc. The bytes are valid by construction, so
    CanonicalForm's checks of outside input are skipped."""
    nbits = n * (n - 1) // 2
    form = object.__new__(CanonicalForm)
    object.__setattr__(form, "data", n.to_bytes(2, "big") + (enc << -nbits % 8).to_bytes((nbits + 7) // 8, "big"))
    return form


def _canonical(adj: list[int]) -> tuple[CanonicalForm, list[int], list[int], list[list[int]]]:
    """One search on the graph with adjacency masks adj over positions
    0..n-1: its form; the place of each position in the canonical order;
    the adjacency masks over those places, which are the masks
    _masks_from_form decodes from the form; and automorphisms generating
    the graph's automorphism group, as lists indexed by place."""
    n = len(adj)
    enc, order, gens = _search(adj)
    place = [0] * n
    for i, v in enumerate(order):
        place[v] = i
    masks = []
    for v in order:
        mask = 0
        for u in iter_bits(adj[v]):
            mask |= 1 << place[u]
        masks.append(mask)
    return _form(n, enc), place, masks, [[place[p[v]] for v in order] for p in gens]


def _position_masks(g: Graph) -> tuple[tuple[int, ...], list[int]]:
    """g's vertex ids, ascending, and its adjacency masks over their
    positions in that order."""
    ids = g.vertices
    pos = {v: i for i, v in enumerate(ids)}
    return ids, [sum(1 << pos[u] for u in iter_bits(g._adj[v])) for v in ids]


def _masks_from_form(form: CanonicalForm) -> list[int]:
    """The adjacency masks of the form's representative on 0..n-1."""
    n = form.vertex_count
    k = n * (n - 1) // 2
    enc = int.from_bytes(form.data[2:], "big") >> -k % 8
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            k -= 1
            if enc >> k & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def canonical_labelling(g: Graph) -> tuple[tuple[int, ...], tuple[Automorphism, ...]]:
    """The vertex ordering realizing the canonical form, and automorphisms
    of g (as vertex maps) that generate its automorphism group, both from
    one search."""
    ids, adj = _position_masks(g)
    _, order, gens = _search(adj)
    return (
        tuple(ids[i] for i in order),
        tuple({ids[x]: ids[y] for x, y in p.items()} for p in gens),
    )


def canonical_order(g: Graph) -> tuple[int, ...]:
    """Vertex ordering realizing the canonical form."""
    return canonical_labelling(g)[0]


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical form of g."""
    return _form(g.n, _search(_position_masks(g)[1])[0])


def graph_from_canonical(form: CanonicalForm) -> Graph:
    """Reconstruct the representative graph on vertices 0..n-1."""
    adj = _masks_from_form(form)
    return Graph._from_masks(tuple(range(len(adj))), dict(enumerate(adj)))
