"""Reference computations the benchmark checks the program against.

Nothing here imports graphcollapse. Every expected answer is computed
afresh, on every run, from the benchmark's own inputs: clique
enumeration, GF(2) ranks over int bitsets, connected components, Euler
characteristics, a memo-free transcription of the greedy deletion rule,
a decoder for the census's canonical-form bytes, and the published
counts of connected graphs.

Graphs are passed as (vertices, edges). Internally vertices are replaced
by their positions in ascending id order, so sparse ids cost nothing and
the ascending scan order of the deletion rule is preserved.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

# Connected graphs on n = 1..7 vertices up to isomorphism (OEIS A001349).
CONNECTED_GRAPH_COUNTS = (1, 1, 2, 6, 21, 112, 853)


def neighbor_masks(vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> list[int]:
    """Adjacency bitmask per vertex position (positions in ascending id order)."""
    pos = {v: i for i, v in enumerate(sorted(vertices))}
    nbr = [0] * len(pos)
    for u, v in edges:
        a, b = pos[u], pos[v]
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
    return nbr


def clique_levels(nbr: Sequence[int], max_size: Optional[int] = None) -> list[list[int]]:
    """Cliques as position bitmasks; entry k holds the cliques with k + 1
    vertices. Each clique is grown only by candidates above its highest
    member, so it is produced once."""
    level = [(1 << i, nbr[i] >> (i + 1) << (i + 1)) for i in range(len(nbr))]
    levels: list[list[int]] = []
    while level and (max_size is None or len(levels) < max_size):
        levels.append([mask for mask, _ in level])
        grown = []
        for mask, cand in level:
            while cand:
                low = cand & -cand
                cand ^= low
                grown.append((mask | low, cand & nbr[low.bit_length() - 1]))
        level = grown
    return levels


def gf2_rank(columns: Iterable[int]) -> int:
    """Rank over GF(2) of columns given as int bitsets."""
    pivots: dict[int, int] = {}
    for col in columns:
        while col:
            top = col.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = col
                break
            col ^= pivot
    return len(pivots)


def _boundary_columns(cliques: list[int], faces: list[int]) -> list[int]:
    index = {f: i for i, f in enumerate(faces)}
    cols = []
    for mask in cliques:
        col = 0
        bits = mask
        while bits:
            low = bits & -bits
            bits ^= low
            col |= 1 << index[mask ^ low]
        cols.append(col)
    return cols


def betti_gf2(vertices, edges, max_dim: Optional[int] = None) -> tuple[int, ...]:
    """GF(2) Betti numbers of the clique complex, dimensions 0 up to the
    complex's dimension (capped at max_dim), as the program lists them."""
    nbr = neighbor_masks(vertices, edges)
    levels = clique_levels(nbr, None if max_dim is None else max_dim + 2)
    if not levels:
        return ()
    top = len(levels) - 1
    if max_dim is not None:
        top = min(top, max_dim)
    ranks = [0] * (len(levels) + 1)
    for k in range(1, len(levels)):
        ranks[k] = gf2_rank(_boundary_columns(levels[k], levels[k - 1]))
    return tuple(len(levels[k]) - ranks[k] - ranks[k + 1] for k in range(top + 1))


def euler_characteristic(vertices, edges) -> int:
    levels = clique_levels(neighbor_masks(vertices, edges))
    return sum((-1) ** k * len(level) for k, level in enumerate(levels))


def component_count(vertices, edges) -> int:
    nbr = neighbor_masks(vertices, edges)
    unseen = (1 << len(nbr)) - 1
    count = 0
    while unseen:
        comp = unseen & -unseen
        frontier = comp
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = nbr[low.bit_length() - 1] & ~comp
            comp |= new
            frontier |= new
        unseen &= ~comp
        count += 1
    return count


def greedy_deletable(mask: int, nbr: Sequence[int]) -> bool:
    """The greedy deletion rule, transcribed with no memo: the empty graph
    fails, one vertex passes, otherwise the first vertex in ascending
    order whose neighborhood passes is deleted and the rest decides."""
    if mask == 0:
        return False
    if mask & (mask - 1) == 0:
        return True
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        if greedy_deletable(nbr[low.bit_length() - 1] & mask, nbr):
            return greedy_deletable(mask ^ low, nbr)
    return False


def decode_canonical_hex(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edges of a census form: two bytes of n, then the
    upper triangle of the adjacency matrix row by row, high bit first."""
    data = bytes.fromhex(text)
    n = int.from_bytes(data[:2], "big")
    bits = int.from_bytes(data[2:], "big") if len(data) > 2 else 0
    width = 8 * (len(data) - 2)
    edges = []
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            if bits >> (width - 1 - k) & 1:
                edges.append((i, j))
            k += 1
    return n, edges
