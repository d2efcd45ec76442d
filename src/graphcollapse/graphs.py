"""Finite simple undirected graphs with id-stable subgraph operations.

Vertices are non-negative integer ids. Every derived graph (neighborhood,
deletion, induced subgraph) keeps the original ids, so a vertex can be
tracked through an entire reduction sequence. Adjacency is stored as one
bitmask per vertex, indexed by raw id, which makes neighborhood
intersections cheap.

Graphs are immutable after construction: every operation returns a new
Graph and never mutates the receiver.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .errors import GraphFormatError

__all__ = [
    "Graph",
    "parse_edge_list",
    "parse_adjacency_matrix",
    "load_graph",
    "to_edge_list_text",
]


class Graph:
    """Immutable simple undirected graph over integer vertex ids.

    No loops, no multi-edges.
    """

    __slots__ = ("_vertices", "_vmask", "_adj", "_edges", "_hash")

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()):
        vs = sorted({int(v) for v in vertices})
        if vs and vs[0] < 0:
            raise ValueError(f"vertex id {vs[0]} is negative")
        vmask = 0
        for v in vs:
            vmask |= 1 << v
        adj = {v: 0 for v in vs}
        for e in edges:
            u, w = e
            u, w = int(u), int(w)
            if u == w:
                raise ValueError(f"self-loop on vertex {u}")
            if u not in adj:
                raise ValueError(f"edge endpoint {u} is not a vertex")
            if w not in adj:
                raise ValueError(f"edge endpoint {w} is not a vertex")
            adj[u] |= 1 << w
            adj[w] |= 1 << u
        self._vertices = tuple(vs)
        self._vmask = vmask
        self._adj = adj
        self._edges = None
        self._hash = None

    @classmethod
    def _from_masks(cls, vertices: tuple[int, ...], adj: dict[int, int]) -> "Graph":
        # Trusted fast path: adjacency masks already restricted and symmetric.
        g = cls.__new__(cls)
        vmask = 0
        for v in vertices:
            vmask |= 1 << v
        g._vertices = vertices
        g._vmask = vmask
        g._adj = adj
        g._edges = None
        g._hash = None
        return g

    # -- basic accessors ---------------------------------------------------

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Sorted tuple of (u, v) pairs with u < v."""
        if self._edges is None:
            self._edges = tuple(
                (v, w) for v in self._vertices for w in iter_bits(self._adj[v] >> (v + 1) << (v + 1))
            )
        return self._edges

    def has_vertex(self, v: int) -> bool:
        return bool(self._vmask >> v & 1) if v >= 0 else False

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj and bool(self._adj[u] >> v & 1)

    def adjacency_mask(self, v: int) -> int:
        return self._adj[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        if v not in self._adj:
            raise ValueError(f"vertex {v} is not in the graph")
        return _mask_to_tuple(self._adj[v])

    def degree(self, v: int) -> int:
        if v not in self._adj:
            raise ValueError(f"vertex {v} is not in the graph")
        return self._adj[v].bit_count()

    # -- subgraphs ----------------------------------------------------------

    def induced(self, subset: Iterable[int]) -> "Graph":
        """Induced subgraph on the given vertex subset, original ids kept."""
        keep = 0
        for v in subset:
            if not self.has_vertex(v):
                raise ValueError(f"vertex {v} is not in the graph")
            keep |= 1 << v
        return _subgraph(self._adj, keep)

    def neighborhood(self, v: int) -> "Graph":
        """Subgraph induced on the neighbors of v. v itself is excluded."""
        if v not in self._adj:
            raise ValueError(f"vertex {v} is not in the graph")
        return _subgraph(self._adj, self._adj[v])

    def common_neighborhood(self, u: int, v: int) -> "Graph":
        """Subgraph induced on the common neighbors of u and v.

        u and v must be distinct vertices; they need not be adjacent.
        """
        if u not in self._adj:
            raise ValueError(f"vertex {u} is not in the graph")
        if v not in self._adj:
            raise ValueError(f"vertex {v} is not in the graph")
        if u == v:
            raise ValueError(f"common neighborhood needs two distinct vertices, got {u} twice")
        return _subgraph(self._adj, self._adj[u] & self._adj[v])

    # -- elementary transformations ------------------------------------------

    def delete_vertex(self, v: int) -> "Graph":
        if v not in self._adj:
            raise ValueError(f"cannot delete vertex {v}: not in the graph")
        return _subgraph(self._adj, self._vmask & ~(1 << v))

    def delete_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise ValueError(f"cannot delete edge {{{u},{v}}}: not in the graph")
        adj = dict(self._adj)
        adj[u] = adj[u] & ~(1 << v)
        adj[v] = adj[v] & ~(1 << u)
        return Graph._from_masks(self._vertices, adj)

    def glue_vertex(self, v: int, neighbor_ids: Iterable[int]) -> "Graph":
        """Add a fresh vertex v adjacent to exactly neighbor_ids."""
        v = int(v)
        if v < 0:
            raise ValueError(f"vertex id {v} is negative")
        if self.has_vertex(v):
            raise ValueError(f"cannot glue vertex {v}: id already in use")
        nmask = 0
        for u in neighbor_ids:
            if not self.has_vertex(u):
                raise ValueError(f"glue_vertex neighbor {u} is not in the graph")
            nmask |= 1 << u
        adj = dict(self._adj)
        adj[v] = nmask
        for u in iter_bits(nmask):
            adj[u] |= 1 << v
        vs = tuple(sorted(self._vertices + (v,)))
        return Graph._from_masks(vs, adj)

    def glue_edge(self, u: int, v: int) -> "Graph":
        if u not in self._adj:
            raise ValueError(f"vertex {u} is not in the graph")
        if v not in self._adj:
            raise ValueError(f"vertex {v} is not in the graph")
        if u == v:
            raise ValueError(f"cannot glue edge {{{u},{u}}}: loops are not allowed")
        if self.has_edge(u, v):
            raise ValueError(f"cannot glue edge {{{u},{v}}}: already present")
        adj = dict(self._adj)
        adj[u] = adj[u] | (1 << v)
        adj[v] = adj[v] | (1 << u)
        return Graph._from_masks(self._vertices, adj)

    # -- global predicates ----------------------------------------------------

    def is_complete(self) -> bool:
        if self.n <= 1:
            return True
        return all(self._adj[v] == self._vmask ^ (1 << v) for v in self._vertices)

    def connected_components(self) -> tuple[frozenset[int], ...]:
        """Vertex sets of the connected components, ordered by least vertex.

        The empty graph has zero components.
        """
        return tuple(frozenset(iter_bits(c)) for c in _component_masks(self._adj, self._vmask))

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1

    def relabeled(self, mapping: Mapping[int, int]) -> "Graph":
        """Graph with every vertex v renamed to mapping[v]."""
        vs = [mapping[v] for v in self._vertices]
        if len(set(vs)) != len(vs):
            raise ValueError("relabeling is not injective")
        return Graph(vs, [(mapping[u], mapping[v]) for u, v in self.edges])

    # -- plumbing -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vertices == other._vertices and self._adj == other._adj

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._vertices, self.edges))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges)!r})"

    def __iter__(self) -> Iterator[int]:
        return iter(self._vertices)


def iter_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, ascending.

    Takes the lowest set bit each time, so the cost follows the number of
    set bits, not the highest vertex id.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_to_tuple(mask: int) -> tuple[int, ...]:
    return tuple(iter_bits(mask))


def _component_masks(adj: Mapping[int, int], keep: int) -> list[int]:
    """The vertex masks of the connected components of the subgraph that
    the adjacency masks adj induce on the vertex mask keep, ordered by
    least vertex."""
    comps = []
    while keep:
        comp = frontier = keep & -keep
        while frontier:
            reach = 0
            for u in iter_bits(frontier):
                reach |= adj[u]
            frontier = reach & keep & ~comp
            comp |= frontier
        comps.append(comp)
        keep ^= comp
    return comps


def _subgraph(adj: Mapping[int, int], keep: int) -> Graph:
    """The subgraph induced on the vertex mask keep over the adjacency
    masks adj, original ids kept. adj is read, never changed."""
    vs = _mask_to_tuple(keep)
    return Graph._from_masks(vs, {v: adj[v] & keep for v in vs})


# -- file formats -------------------------------------------------------------
#
# Edge list:          first line "n m", then m lines "u v" with 0-based ids.
# Adjacency matrix:   n lines of n entries, each 0 or 1.


def _content_lines(text: str) -> list[tuple[int, str]]:
    """The stripped lines of text that carry content, each with its
    1-based line number in text; blank lines and lines starting with "#"
    are skipped. Every text format of the package is read through this,
    so all share the rule and their errors name the file's own lines."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((i, line))
    return out


def parse_edge_list(text: str, source: str = "<edge-list>") -> Graph:
    """Parse the "n m" edge list format.

    Vertices are implicitly 0..n-1. Rejects loops, repeated edges, ids out
    of range, and header/body disagreement.
    """
    lines = _content_lines(text)
    if not lines:
        raise GraphFormatError(source, 1, "empty input, expected 'n m' header")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise GraphFormatError(source, lineno, f"expected 'n m' header, got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphFormatError(source, lineno, f"expected integers in header, got {header!r}") from None
    if n < 0 or m < 0:
        raise GraphFormatError(source, lineno, "n and m must be non-negative")
    body = lines[1:]
    if len(body) != m:
        raise GraphFormatError(source, lineno, f"header promises {m} edges, found {len(body)} edge lines")
    seen = set()
    edges = []
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(source, lineno, f"expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(source, lineno, f"expected integer endpoints, got {line!r}") from None
        if u == v:
            raise GraphFormatError(source, lineno, f"self-loop on vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(source, lineno, f"edge ({u}, {v}) out of range for n={n}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphFormatError(source, lineno, f"repeated edge ({key[0]}, {key[1]})")
        seen.add(key)
        edges.append(key)
    return Graph(range(n), edges)


def parse_adjacency_matrix(text: str, source: str = "<matrix>") -> Graph:
    """Parse a 0/1 adjacency matrix. Rejects asymmetry and diagonal ones."""
    lines = _content_lines(text)
    if not lines:
        raise GraphFormatError(source, 1, "empty input, expected adjacency rows")
    n = len(lines)
    rows = []
    for lineno, line in lines:
        parts = line.replace(",", " ").split()
        if len(parts) != n:
            raise GraphFormatError(source, lineno, f"expected {n} entries per row, got {len(parts)}")
        row = []
        for tok in parts:
            if tok not in ("0", "1"):
                raise GraphFormatError(source, lineno, f"matrix entries must be 0 or 1, got {tok!r}")
            row.append(int(tok))
        rows.append((lineno, row))
    edges = []
    for i, (lineno, row) in enumerate(rows):
        if row[i] != 0:
            raise GraphFormatError(source, lineno, f"diagonal entry ({i}, {i}) must be 0")
        for j in range(n):
            if row[j] != rows[j][1][i]:
                raise GraphFormatError(source, lineno, f"matrix is not symmetric at ({i}, {j})")
            if j > i and row[j]:
                edges.append((i, j))
    return Graph(range(n), edges)


def load_graph(path: str, fmt: str = "auto") -> Graph:
    """Load a graph file in either supported format.

    fmt is "edgelist", "matrix", or "auto". Auto tries the edge list
    format first and falls back to the matrix format.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "edgelist":
        return parse_edge_list(text, source=path)
    if fmt == "matrix":
        return parse_adjacency_matrix(text, source=path)
    if fmt != "auto":
        raise ValueError(f"unknown graph format {fmt!r}")
    try:
        return parse_edge_list(text, source=path)
    except GraphFormatError as edge_err:
        try:
            return parse_adjacency_matrix(text, source=path)
        except GraphFormatError:
            raise edge_err from None


def to_edge_list_text(g: Graph, remap: bool = True) -> str:
    """Render a graph in the edge list format.

    The format requires ids 0..n-1, so sparse ids are compacted by
    default; the mapping is recorded in comment lines.
    """
    vs = g.vertices
    dense = vs == tuple(range(g.n))
    lines = []
    if not dense and remap:
        pos = {v: i for i, v in enumerate(vs)}
        for v in vs:
            lines.append(f"# vertex {pos[v]} was {v}")
        edges = sorted((pos[u], pos[v]) for u, v in g.edges)
    elif not dense:
        raise ValueError("edge list format needs vertex ids 0..n-1; pass remap=True")
    else:
        edges = list(g.edges)
    lines.append(f"{g.n} {len(edges)}")
    for u, v in edges:
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"
