"""Vietoris-Rips filtrations and their barcodes, with exact arithmetic.

Scale parameters are exact: integer keys over a common denominator
inside, Fractions at the API. A cloud built from coordinates uses
squared Euclidean distances as its pair keys (exact, no square roots);
a cloud built from an explicit dissimilarity matrix uses the entries as
given. Filtration stages are the distinct pair keys with 0 always
included, or explicit thresholds; a filtration is an edge list, each
edge with its entry stage, and builds its stage graphs only on demand.

A dissimilarity matrix stores every pair's key. A cloud of points keeps
its scaled integer coordinates and builds the all-pairs key rows only
when every key is needed: for default thresholds or `distinct_keys`.
Explicit thresholds before that find only the pairs within the last
one, on a grid whose cells are isqrt(cut) + 1 wide for the last integer
cut-off, comparing points in neighbouring cells only (the distance threshold of Ripser,
Bauer 2021), or over all pairs when walking the 3^d neighbour offsets
of every cell would cost more. Either way the edge list is the same,
in the same order.

A barcode is a column reduction of a collapsed filtration: an edge is
dropped from every stage from its entry on when its common neighborhood
is strongly contractible at each of them (the edge collapse of
Boissonnat and Pritam, with cones widened to strongly contractible
neighborhoods), which leaves the persistence module unchanged over any
field. Most such neighborhoods are cones on one vertex at every stage,
and that is checked before any stage is swept. The reduction is the
rank-only one with clearing of `homology._cleared_pivots`, the one
reduction behind homology over a field, which reads representatives
off the same pass when it keeps relations. Over GF(2), the default,
its columns are int bit sets reduced by XOR; odd primes use
`exactla.Echelon`. `reduce_filtration` runs one public reduction per
stage graph and returns each stage's reduced graph and trace, whose
steps are apexes with link masks; no step is shared between stages
and nothing is cached. The oracle for cross-checking barcodes is the
textbook column reduction of the full filtered boundary matrix, in its
own bitmask loop with no collapse and no clearing: each edge's stage
is found once, a clique's is the largest of its pairs' (`stage_of_key`
is monotone), and each face size is reduced against the rows of the
size below.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain, combinations, product
from operator import add, mul
from typing import Iterable, Iterator, Optional, Sequence, Union

from .complexes import DEFAULT_FACE_BUDGET, enumerate_cliques
from .contract import ReductionTrace, _contractible, contractible_reduction, edge_extended_reduction
from .errors import GraphFormatError
from .graphs import Graph, _content_lines, iter_bits
from .homology import Coefficients, _cleared_pivots

__all__ = [
    "PointCloud",
    "parse_points",
    "parse_distance_matrix",
    "Filtration",
    "vr_filtration",
    "ReducedStage",
    "reduce_filtration",
    "persistent_betti",
    "Interval",
    "Barcode",
    "barcode",
    "format_barcode_csv",
    "parse_barcode_csv",
    "oracle_persistence",
]

Scalar = Union[int, float, str, Fraction]

_ZERO = Fraction(0)


def _to_fraction(value: Scalar, context: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"{context}: cannot interpret {value!r} as an exact number") from exc


class PointCloud:
    """Finite metric data given by exact pairwise dissimilarities.

    Two constructors: from_points squares Euclidean distances so the
    keys stay rational (the filtration scale is then a squared
    distance); from_distance_matrix takes the entries at face value.
    Each pair's key is an integer numerator over one common
    denominator: the square of the lcm of the coordinates' denominators
    for from_points (1 when every coordinate is an int), the lcm of the
    entries' denominators for from_distance_matrix. pair_key and
    distinct_keys return Fractions, one shared Fraction per distinct key.

    A distance-matrix cloud stores every pair's key. A cloud of points
    stores its scaled integer coordinates and builds the all-pairs rows
    only on first need: distinct_keys, default thresholds, or any other
    read of `_rows`. Before that, explicit thresholds ask it only for the
    pairs within the last one (`_pairs_within`), found on a grid and
    kept, so pair_key reads those keys back and computes any other pair's
    key from the coordinates.
    """

    __slots__ = ("_n", "_den", "_points", "_built_rows", "_near", "_near_cut", "_fractions")

    def __init__(
        self,
        n: int,
        den: int,
        rows: Optional[list[list[int]]] = None,
        points: Optional[list[tuple[int, ...]]] = None,
    ):
        self._n = n
        self._den = den
        self._points = points  # scaled integer coordinates, None for a distance matrix
        self._built_rows = rows
        self._near: Sequence[dict[int, int]] = ()  # near[i][j]: key of (i, j), i < j, within _near_cut
        self._near_cut = -1
        self._fractions: dict[int, Fraction] = {}

    @classmethod
    def from_points(cls, points: Sequence[Sequence[Scalar]]) -> "PointCloud":
        if not points:
            raise ValueError("need at least one point")
        if all(type(x) is int for p in points for x in p):
            scale = 1
            scaled = [tuple(p) for p in points]
        else:
            coords = [
                [_to_fraction(x, f"point {i}") for x in p] for i, p in enumerate(points)
            ]
            # Integer arithmetic on the coordinates scaled by the lcm of their
            # denominators; the squared distances are then over its square.
            scale = math.lcm(*(x.denominator for p in coords for x in p))
            scaled = [tuple(x.numerator * (scale // x.denominator) for x in p) for p in coords]
        d = len(scaled[0])
        for i, p in enumerate(scaled):
            if len(p) != d:
                raise ValueError(f"point {i} has {len(p)} coordinates, expected {d}")
        return cls(len(scaled), scale * scale, points=scaled)

    @classmethod
    def from_distance_matrix(cls, rows: Sequence[Sequence[Scalar]]) -> "PointCloud":
        n = len(rows)
        if n == 0:
            raise ValueError("need at least one point")
        mat = [[_to_fraction(x, f"row {i}") for x in r] for i, r in enumerate(rows)]
        for i, r in enumerate(mat):
            if len(r) != n:
                raise ValueError(f"row {i} has {len(r)} entries, expected {n}")
        fault = _distance_fault(mat)
        if fault is not None:
            raise ValueError(fault[1])
        den = math.lcm(*(x.denominator for r in mat for x in r))
        keys = [[x.numerator * (den // x.denominator) for x in r[i + 1:]] for i, r in enumerate(mat)]
        return cls(n, den, rows=keys)

    @property
    def n(self) -> int:
        return self._n

    @property
    def squared(self) -> bool:
        return self._points is not None

    @property
    def _rows(self) -> list[list[int]]:
        """rows[i][j - i - 1] is the numerator of pair (i, j), i < j;
        for points, built on first read, which frees the near pairs."""
        rows = self._built_rows
        if rows is None:
            pts = self._points
            # |p - q|^2 = |p|^2 + |q|^2 - 2 p.q: one C-level dot product per pair
            norms = [sum(map(mul, p, p)) for p in pts]
            rows = self._built_rows = [
                [s + norms[j] - 2 * sum(map(mul, p, pts[j])) for j in range(i + 1, len(pts))]
                for i, (p, s) in enumerate(zip(pts, norms))
            ]
            self._near, self._near_cut = (), -1
        return rows

    def _pairs_within(self, cut: int) -> list[Iterable[tuple[int, int]]]:
        """Per point i, the pairs (j, key) with i < j in ascending j, for
        at least every pair whose key is at most cut: off the rows when
        they are built, else off the near pairs, found again only when cut
        exceeds the cut they were found for."""
        rows = self._built_rows
        if rows is not None:
            return [enumerate(row, i + 1) for i, row in enumerate(rows)]
        if cut > self._near_cut:
            self._near, self._near_cut = _near_pairs(self._points, cut), cut
        return [row.items() for row in self._near]

    def _fraction(self, key: int) -> Fraction:
        f = self._fractions.get(key)
        if f is None:
            f = self._fractions[key] = Fraction(key, self._den)
        return f

    def pair_key(self, i: int, j: int) -> Fraction:
        if i > j:
            i, j = j, i
        if i < 0:
            raise IndexError(f"no point {i}")
        if j >= self._n:
            raise IndexError(f"no point {j}")
        if i == j:
            return _ZERO
        rows = self._built_rows
        if rows is not None:
            key = rows[i][j - i - 1]
        else:
            try:
                key = self._near[i][j]
            except LookupError:
                key = sum([(a - b) * (a - b) for a, b in zip(self._points[i], self._points[j])])
        # a cached zero is falsy and takes the slow path, which returns it
        return self._fractions.get(key) or self._fraction(key)

    def distinct_keys(self) -> tuple[Fraction, ...]:
        return tuple(map(self._fraction, sorted(set().union(*self._rows))))


def _near_pairs(points: list[tuple[int, ...]], cut: int) -> list[dict[int, int]]:
    """Per point i, the later points j whose squared distance from it is
    at most cut, in ascending order, mapped to that distance.

    The points are bucketed into cells of side isqrt(cut) + 1: a pair
    within cut differs by at most isqrt(cut) on each axis, so its points
    lie in the same or neighbouring cells. Each point is compared with
    the later points of its cell's 3^d neighbourhood, merged once per
    cell. When the cells times 3^d reach the n(n-1)/2 pairs, walking the
    offsets would cost more than comparing every pair, which is done
    instead.
    """
    n, d = len(points), len(points[0])
    norms = [sum(map(mul, p, p)) for p in points]

    def within(i: int, later: Iterable[int]) -> dict[int, int]:
        p, s = points[i], norms[i]
        # |p - q|^2 = |p|^2 + |q|^2 - 2 p.q, as for the rows
        return {j: k for j in later if (k := s + norms[j] - 2 * sum(map(mul, p, points[j]))) <= cut}

    side = math.isqrt(cut) + 1
    cells: dict[tuple[int, ...], list[int]] = {}
    for i, p in enumerate(points):
        cells.setdefault(tuple([x // side for x in p]), []).append(i)
    if len(cells) * 3**d >= n * (n - 1) // 2:
        return [within(i, range(i + 1, n)) for i in range(n)]
    offsets = list(product((-1, 0, 1), repeat=d))
    near: list = [None] * n
    for cell, members in cells.items():
        around = sorted(chain.from_iterable(cells.get(tuple(map(add, cell, o)), ()) for o in offsets))
        for i in members:
            near[i] = within(i, around[bisect.bisect_right(around, i):])
    return near


def _distance_fault(mat: list[list[Fraction]]) -> Optional[tuple[int, str]]:
    """The first entry that keeps the square matrix mat from being a
    dissimilarity matrix, as the row it is read from and the reason, or
    None. Asymmetry at (i, j), i < j, shows only once row j is read."""
    for i, row in enumerate(mat):
        if row[i] != 0:
            return i, f"diagonal entry ({i}, {i}) is {row[i]}, expected 0"
        for j in range(i + 1, len(mat)):
            if row[j] != mat[j][i]:
                return j, f"matrix not symmetric at ({i}, {j})"
            if row[j] < 0:
                return i, f"negative entry at ({i}, {j})"
    return None


def _fraction_rows(text: str, source: str, what: str) -> Iterator[tuple[int, list[Fraction]]]:
    """The numbered content lines of text as rows of exact Fractions,
    entries separated by commas or whitespace; a token that is no
    number is a bad `what`."""
    for lineno, line in _content_lines(text):
        row = []
        for tok in line.replace(",", " ").split():
            try:
                row.append(Fraction(tok))
            except (ValueError, ZeroDivisionError):
                raise GraphFormatError(source, lineno, f"bad {what} {tok!r}")
        yield lineno, row


def parse_points(text: str, source: str = "<points>") -> PointCloud:
    """One point per line, coordinates separated by commas or whitespace.
    Decimal strings are read exactly (1.5 becomes 3/2)."""
    pts = []
    dim = None
    for lineno, coords in _fraction_rows(text, source, "coordinate"):
        if dim is None:
            dim = len(coords)
        elif len(coords) != dim:
            raise GraphFormatError(
                source, lineno, f"point has {len(coords)} coordinates, expected {dim}"
            )
        pts.append(coords)
    if not pts:
        raise GraphFormatError(source, 1, "no points found")
    return PointCloud.from_points(pts)


def parse_distance_matrix(text: str, source: str = "<matrix>") -> PointCloud:
    """Square symmetric matrix, one row per line, entries separated by
    commas or whitespace, zero diagonal."""
    rows = list(_fraction_rows(text, source, "entry"))
    if not rows:
        raise GraphFormatError(source, 1, "no matrix rows found")
    n = len(rows)
    for lineno, row in rows:
        if len(row) != n:
            raise GraphFormatError(source, lineno, f"row has {len(row)} entries, expected {n}")
    mat = [row for _, row in rows]
    try:
        return PointCloud.from_distance_matrix(mat)
    except ValueError:
        i, reason = _distance_fault(mat)
        raise GraphFormatError(source, rows[i][0], reason) from None


# -- filtrations --------------------------------------------------------------


@dataclass(frozen=True)
class Filtration:
    """Nested stage graphs on a fixed vertex set, one per threshold, kept
    as an edge list: entry maps each edge (i, j), i < j, of the final
    stage to the first stage that contains it. The stage graphs are
    built on first access to `graphs` and cached; `barcode` reads only
    entry and never builds them."""

    cloud: PointCloud
    thresholds: tuple[Fraction, ...]
    entry: dict[tuple[int, int], int] = field(hash=False)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def stage_count(self) -> int:
        return len(self.thresholds)

    @property
    def graphs(self) -> tuple[Graph, ...]:
        """One graph per stage, built from entry on first access and cached."""
        graphs = self._cache.get("graphs")
        if graphs is None:
            entering: list[list[tuple[int, int]]] = [[] for _ in self.thresholds]
            for pair, stage in self.entry.items():
                entering[stage].append(pair)
            vertices = tuple(range(self.cloud.n))
            adj = dict.fromkeys(vertices, 0)
            graphs = []
            for edges in entering:
                for u, v in edges:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                graphs.append(Graph._from_masks(vertices, dict(adj)))
            graphs = self._cache["graphs"] = tuple(graphs)
        return graphs

    def stage_of_key(self, key: Fraction) -> int:
        """Index of the first stage whose threshold reaches the key."""
        idx = bisect.bisect_left(self.thresholds, key)
        if idx == len(self.thresholds):
            raise ValueError(f"key {key} exceeds every threshold")
        return idx


def _checked_thresholds(thresholds: Iterable[Scalar]) -> tuple[Fraction, ...]:
    """Explicit thresholds as Fractions, checked nonempty, nonnegative and
    strictly increasing, with 0 prepended when absent."""
    given = [_to_fraction(t, "threshold") for t in thresholds]
    if not given:
        raise ValueError("threshold list is empty")
    for a, b in zip(given, given[1:]):
        if a >= b:
            raise ValueError(f"thresholds not strictly increasing: {a} then {b}")
    if given[0] < 0:
        raise ValueError(f"negative threshold {given[0]}")
    if given[0] != 0:
        given = [_ZERO] + given
    return tuple(given)


def vr_filtration(
    cloud: PointCloud, thresholds: Optional[Iterable[Scalar]] = None
) -> Filtration:
    """Vietoris-Rips filtration of the cloud.

    Default thresholds are 0 plus every distinct pair key, so stages
    change one distance class at a time, and a pair's stage is the rank
    of its key in the one sorted list of distinct keys. Explicit
    thresholds must be strictly increasing; 0 is prepended when absent.
    A pair with integer key k over the cloud's denominator d is within
    threshold t exactly when k <= floor(t * d), so pairs are bucketed by
    bisecting those integer cut-offs. Only the pairs within the last
    cut-off are read: a cloud of points whose rows are not built finds
    them on a grid.
    """
    if thresholds is None:
        cuts = sorted(set().union(*cloud._rows, (0,)))
        ts = tuple(map(cloud._fraction, cuts))
        stage_of = dict(zip(cuts, range(len(cuts)))).__getitem__
    else:
        ts = _checked_thresholds(thresholds)
        cuts = [t.numerator * cloud._den // t.denominator for t in ts]
        stage_of = partial(bisect.bisect_left, cuts)
    last = cuts[-1]
    entry = {(i, j): stage_of(k) for i, row in enumerate(cloud._pairs_within(last)) for j, k in row if k <= last}
    return Filtration(cloud, ts, entry)


@dataclass(frozen=True)
class ReducedStage:
    index: int
    threshold: Fraction
    graph: Graph
    reduced: Graph
    trace: ReductionTrace


def reduce_filtration(filt: Filtration, edge_extended: bool = False) -> tuple[ReducedStage, ...]:
    """Each stage graph's `contractible_reduction`, or with edge_extended
    its `edge_extended_reduction`, with its trace; `barcode` does not
    need this. Each stage is reduced on its own, and nothing is cached."""
    reduce = edge_extended_reduction if edge_extended else contractible_reduction
    return tuple(
        ReducedStage(i, t, g, *reduce(g)) for i, (t, g) in enumerate(zip(filt.thresholds, filt.graphs))
    )


# -- barcodes -----------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """Half-open persistence interval in stage indices; death None means
    the class survives to the last stage."""

    dim: int
    birth_index: int
    death_index: Optional[int]
    birth: Fraction
    death: Optional[Fraction]

    @property
    def essential(self) -> bool:
        return self.death_index is None


def _interval_sort_key(iv: Interval):
    return (
        iv.dim,
        iv.birth_index,
        iv.death_index if iv.death_index is not None else 1 << 60,
    )


@dataclass(frozen=True)
class Barcode:
    max_dim: int
    thresholds: tuple[Fraction, ...]
    intervals: tuple[Interval, ...]

    def in_dim(self, dim: int) -> tuple[Interval, ...]:
        return tuple(iv for iv in self.intervals if iv.dim == dim)

    def to_csv(self) -> str:
        return format_barcode_csv(self)


def _link_stays_contractible(
    adj: dict[int, int], kept: dict[int, dict[int, int]], u: int, v: int, s: int
) -> bool:
    """Whether the common neighborhood of the edge (u, v), entering at
    stage s, is strongly contractible at every stage from s on, in the
    filtration left so far. adj maps each vertex to the mask of its
    neighbors there, and kept maps each vertex to its neighbors through
    edges already visited and kept, with their entry stages. Edges are
    visited latest entry first, so every other edge has entered by s.

    The link therefore changes after s only where a kept edge brings in
    one of its vertices or edges: a vertex w joins at max(entry(u, w),
    entry(v, w), s), an edge (w, x) at max(e, join[w], join[x]). The
    link at s is read off the masks, less those later vertices and
    edges. One sweep buckets the events by stage, applies each stage's
    events to one adjacency and vertex mask in place, and tests the link
    after each stage, s first.

    The sweep is skipped when some link vertex w is an apex at every
    stage: w joins at s, is adjacent to every other link vertex, and
    each of its kept edges to a link vertex x enters no later than x
    joins. Each stage's link is then a cone on w, which `_contractible`
    accepts.
    """
    link = adj[u] & adj[v]
    join: dict[int, int] = {}  # link vertices that join after s -> their stage
    for w, e in (*kept[u].items(), *kept[v].items()):
        if e > join.get(w, s) and link >> w & 1:
            join[w] = e
    # Any apex is adjacent to every vertex tested before it, so each test
    # narrows the candidates to the tested vertex's neighbors; the lowest
    # and the highest candidate are taken in turn.
    cand = link
    high = False
    while cand:
        w = (cand if high else cand & -cand).bit_length() - 1
        high = not high
        if (adj[w] | 1 << w) & link == link and w not in join:
            for x, e in kept[w].items():
                if e > join.get(x, s) and link >> x & 1:
                    break
            else:
                return True
        cand &= adj[w]
    joined = {s: link}  # stage -> mask of the link vertices that join then
    for w, t in join.items():
        joined[s] ^= 1 << w
        joined[t] = joined.get(t, 0) | 1 << w
    linked: dict[int, list[tuple[int, int]]] = {}  # stage -> kept link edges that enter then
    cur = {}
    for w in iter_bits(link):
        later = 0
        for x, e in kept[w].items():
            later |= 1 << x
            if x < w and link >> x & 1:
                linked.setdefault(max(e, join.get(w, s), join.get(x, s)), []).append((w, x))
        cur[w] = adj[w] & ~later
    mask = 0
    for j in sorted(joined.keys() | linked.keys()):
        mask |= joined.get(j, 0)
        for w, x in linked.get(j, ()):
            cur[w] |= 1 << x
            cur[x] |= 1 << w
        if not _contractible(cur, mask, {}):
            return False
    return True


def _collapsed_stages(filt: Filtration) -> dict[tuple[int, int], int]:
    """Entry stages of the final graph's edges that survive the collapse,
    visiting edges latest entry first and testing each in the filtration
    left so far; every vertex enters at stage 0. Cached on the
    filtration, for every dimension and field."""
    stages = filt._cache.get("collapsed")
    if stages is None:
        stages = dict(filt.entry)
        adj = dict.fromkeys(range(filt.cloud.n), 0)
        kept: dict[int, dict[int, int]] = {v: {} for v in adj}
        for u, v in stages:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        for s, (u, v) in sorted(zip(stages.values(), stages), reverse=True):
            if _link_stays_contractible(adj, kept, u, v, s):
                del stages[u, v]
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
            else:
                kept[u][v] = kept[v][u] = s
        filt._cache["collapsed"] = stages
    return stages


def barcode(
    filt: Filtration, max_dim: int = 1, coeffs: Coefficients = Coefficients(2)
) -> Barcode:
    """Stage-indexed barcode, by column reduction of the collapsed
    filtration with clearing.

    The cliques of the collapsed final graph with at most max_dim + 2
    vertices enter at the stage of their latest edge. Each size, sorted
    by (stage, clique) as in the oracle's order, goes through the
    rank-only kernel `homology._cleared_pivots`, which gives the
    oracle's pairs. A column with a pivot kills the class born at that
    row, and pairs within one stage are invisible at stage granularity
    and are dropped. Any other live column of a reported size starts an
    essential interval.
    """
    if max_dim < 0:
        raise ValueError(f"max_dim must be nonnegative, got {max_dim}")
    if not coeffs.is_field:
        raise ValueError("persistence needs field coefficients")
    stages = _collapsed_stages(filt)
    by_size = enumerate_cliques(Graph(range(filt.cloud.n), stages), max_size=max_dim + 2)
    cliques, born = {}, {}
    for size, level in by_size.items():
        keyed = sorted((max((stages[e] for e in combinations(c, 2)), default=0), c) for c in level)
        born[size] = [stage for stage, _ in keyed]
        cliques[size] = [c for _, c in keyed]
    ts = filt.thresholds
    intervals: list[Interval] = []
    for size, i, row, _ in _cleared_pivots(cliques, coeffs.modulus):
        stage = born[size][i]
        if row is not None:
            birth = born[size - 1][row]
            if birth < stage:
                intervals.append(Interval(size - 2, birth, stage, ts[birth], ts[stage]))
        elif size <= max_dim + 1:
            intervals.append(Interval(size - 1, stage, None, ts[stage], None))
    intervals.sort(key=_interval_sort_key)
    return Barcode(max_dim, ts, tuple(intervals))


def persistent_betti(
    filt: Filtration, i: int, j: int, dim: int, coeffs: Coefficients = Coefficients(2)
) -> int:
    """Rank of the map on dimension-dim homology from stage i to stage
    j, both inclusive: the number of bars alive at both."""
    m = filt.stage_count
    if not (0 <= i <= j < m):
        raise ValueError(f"need 0 <= i <= j < {m}, got i={i}, j={j}")
    return sum(
        1
        for iv in barcode(filt, dim, coeffs).in_dim(dim)
        if iv.birth_index <= i and (iv.death_index is None or iv.death_index > j)
    )


CSV_HEADER = "dim,birth_index,death_index,birth_eps,death_eps"


def format_barcode_csv(bc: Barcode) -> str:
    lines = [CSV_HEADER]
    for iv in bc.intervals:
        di = -1 if iv.death_index is None else iv.death_index
        de = "inf" if iv.death is None else str(iv.death)
        lines.append(f"{iv.dim},{iv.birth_index},{di},{iv.birth},{de}")
    return "\n".join(lines) + "\n"


def parse_barcode_csv(text: str, source: str = "<csv>") -> tuple[Interval, ...]:
    lines = _content_lines(text)
    if not lines or lines[0][1] != CSV_HEADER:
        raise GraphFormatError(source, lines[0][0] if lines else 1, f"expected header {CSV_HEADER!r}")
    out = []
    for lineno, line in lines[1:]:
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 5:
            raise GraphFormatError(source, lineno, f"expected 5 fields, got {len(parts)}")
        try:
            dim = int(parts[0])
            bi = int(parts[1])
            di = int(parts[2])
            birth = Fraction(parts[3])
            death = None if parts[4] == "inf" else Fraction(parts[4])
        except (ValueError, ZeroDivisionError) as exc:
            raise GraphFormatError(source, lineno, f"bad field: {exc}")
        if di == -1 and death is not None:
            raise GraphFormatError(source, lineno, "death_index -1 requires death_eps inf")
        if di != -1 and death is None:
            raise GraphFormatError(source, lineno, "death_eps inf requires death_index -1")
        out.append(Interval(dim, bi, None if di == -1 else di, birth, death))
    return tuple(out)


# -- independent oracle -------------------------------------------------------


def oracle_persistence(
    filt: Filtration,
    max_dim: int = 1,
    coeffs: Coefficients = Coefficients(2),
    max_faces: int = DEFAULT_FACE_BUDGET,
) -> Barcode:
    """Barcode by direct reduction of the full filtered boundary matrix,
    with no collapse and no clearing. GF(2) only; columns are int bitmasks.

    The filtered complex is every clique of the final stage graph with
    at most max_dim + 2 vertices, each entering at the first stage whose
    threshold reaches its largest pair key. Vertices enter at stage 0,
    and each edge's stage is found once from the cloud's key. As
    `stage_of_key` is monotone, a clique's stage is the largest of its
    pairs', hence of its facets' from three vertices on. A column of size
    s has its rows among the cliques of size s - 1, and the (stage, size,
    clique) order restricted to one size is (stage, clique), so each size
    is reduced alone against the rows of the size below, which gives the
    pairs of the whole matrix. Pairs within one stage are invisible at
    stage granularity and are dropped.
    """
    if coeffs.modulus != 2:
        raise ValueError("the matrix-reduction oracle only supports GF(2)")
    if max_dim < 0:
        raise ValueError(f"max_dim must be nonnegative, got {max_dim}")
    n = filt.cloud.n
    by_size = enumerate_cliques(Graph(range(n), filt.entry), max_size=max_dim + 2, max_faces=max_faces)
    ts = filt.thresholds
    intervals = []
    born = [0] * n  # row of the size below -> its clique's stage; vertex v is row v
    unpaired = list(range(n))  # rows of the size below whose columns reduced to zero
    for size in range(2, max_dim + 3):
        if size == 2:
            edges = by_size.get(2, ())
            keyed = [(filt.stage_of_key(filt.cloud.pair_key(u, v)), (u, v), 1 << u | 1 << v) for u, v in edges]
        else:
            keyed = []
            for c in by_size.get(size, ()):
                rows = [row_of[c[:drop] + c[drop + 1:]] for drop in range(size)]
                keyed.append((max(map(born.__getitem__, rows)), c, sum(map((1).__lshift__, rows))))
        keyed.sort()
        owner: dict[int, int] = {}  # low row -> the reduced column ending there
        zero = []
        for k, (stage, _, col) in enumerate(keyed):
            while col:
                low = col.bit_length() - 1
                other = owner.get(low)
                if other is None:
                    break
                col ^= other
            if col:
                owner[low] = col
                if born[low] < stage:
                    intervals.append(Interval(size - 2, born[low], stage, ts[born[low]], ts[stage]))
            else:
                zero.append(k)
        for row in unpaired:
            if row not in owner:
                intervals.append(Interval(size - 2, born[row], None, ts[born[row]], None))
        row_of = {c: k for k, (_, c, _) in enumerate(keyed)}
        born = [stage for stage, _, _ in keyed]
        unpaired = zero
    intervals.sort(key=_interval_sort_key)
    return Barcode(max_dim, ts, tuple(intervals))
