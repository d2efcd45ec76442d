"""Exact linear algebra over prime fields and over the integers.

Prime-field elimination runs in one sparse kernel, `Echelon`, on
`{row: coeff}` columns of Python ints, with one exception: over GF(2)
the clearing kernel `homology._cleared_pivots` keeps each column as an
int bit set and reduces it by XOR, and only its odd primes run here.
Columns added with a tag carry the relation each reduced vector
satisfies, from which solutions (`solve_columns`), kernel bases and
homology representatives over odd primes are read. Columns added
without one keep only the vector and its pivot row: the clearing kernel
over odd primes, for Betti numbers without representatives and
barcodes, reads nothing else. `check_prime` caps the modulus below
2**31, which bounds its trial division at about 46,000 divisors.
Integer invariant factors come from the same `{row: coeff}` columns:
sparse elimination splits off every ±1 pivot it can find, each a unit
factor, and Smith normal form runs only on the block the unit pivots
leave, which is empty on most boundary matrices. That Smith normal form
is plain row/column reduction on lists of Python ints with
smallest-magnitude pivoting, and keeps only the diagonal.
"""

from __future__ import annotations

from typing import Hashable, KeysView, Mapping, Optional

__all__ = [
    "check_prime",
    "Echelon",
    "solve_columns",
    "invariant_factors_of_columns",
]

MAX_MODULUS = 1 << 31


def check_prime(p: int) -> None:
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"modulus must be a prime >= 2, got {p!r}")
    if p >= MAX_MODULUS:
        raise ValueError(f"modulus {p} too large (must be < 2**31)")
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise ValueError(f"modulus {p} is not prime (divisible by {d})")
        d += 1


class Echelon:
    """Span over GF(p) of the sparse `{row: coeff}` columns added so far.

    Every prime-field elimination runs here except the clearing kernel
    over GF(2), `homology._cleared_pivots`, whose columns are int bit
    sets.

    Each stored vector is keyed by its highest row, where its coefficient
    is 1; `pivot_rows` reads those keys and `last_pivot` is the row of
    the latest one. A column added under a tag also carries the
    combination `{tag: coeff}` of added columns its vector equals, so a
    dependent one yields its relation. A column added without a tag
    stores its vector alone, which is all a rank or a pivot pairing
    reads. One Echelon tracks relations for all of its columns or for
    none: mixing the two raises ValueError, so no relation is ever read
    off a vector whose combination was not kept. The columns given to
    the constructor are added under tags 0, 1, ...; `relations` holds,
    in order, the relations of those that depend on earlier ones, which
    is the standard kernel basis. The modulus is trusted to be prime:
    callers check it where it enters.
    """

    def __init__(self, p: int, cols=()):
        self.p = p
        self._pivots: dict[int, tuple[dict[int, int], dict[Hashable, int]]] = {}
        self._tagged: Optional[bool] = None
        self.last_pivot: Optional[int] = None
        self.relations = [rel for j, col in enumerate(cols) if (rel := self.add(col, j)) is not None]

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def pivot_rows(self) -> KeysView[int]:
        """The rows of the stored vectors, a live read-only view."""
        return self._pivots.keys()

    def add(self, col: Mapping[int, int], tag: Optional[Hashable] = None) -> Optional[dict[Hashable, int]]:
        """Add a column, under a new tag or none. Returns None if it
        enlarges the span. Otherwise a tagged column returns its relation
        `{tag: 1, ...}`, the one zero combination of it and earlier
        columns that enlarged the span, and an untagged one returns {}."""
        tagged = tag is not None
        if self._tagged is None:
            self._tagged = tagged
        elif self._tagged is not tagged:
            raise ValueError("an Echelon tracks relations for all of its columns or for none")
        p = self.p
        vec = {r: c % p for r, c in col.items() if c % p}
        # an untagged column's combination stays empty, as do those it
        # reduces against
        combo: dict[Hashable, int] = {tag: 1} if tagged else {}
        while vec:
            top = max(vec)
            if top not in self._pivots:
                inv = pow(vec[top], -1, p)
                self._pivots[top] = (
                    {r: c * inv % p for r, c in vec.items()},
                    {t: c * inv % p for t, c in combo.items()},
                )
                self.last_pivot = top
                return None
            f = p - vec[top]
            for target, source in zip((vec, combo), self._pivots[top]):
                for k, c in source.items():
                    v = (target.get(k, 0) + f * c) % p
                    if v:
                        target[k] = v
                    else:
                        del target[k]
        return combo


def solve_columns(cols, rhs: Mapping[int, int], p: int) -> Optional[dict[int, int]]:
    """Sparse x with sum(x[j] * cols[j]) = rhs mod p and nonzero only on
    columns independent of the ones before them, or None."""
    rel = Echelon(p, cols).add(rhs, -1)
    return None if rel is None else {j: p - c for j, c in rel.items() if j != -1}


# -- integer Smith normal form ---------------------------------------------


def _smith(s: list[list[int]], cols: int) -> list[list[int]]:
    """Reduce the matrix with the given rows of Python ints and cols
    columns, in place, to its Smith normal form: diagonal, with
    nonnegative entries s[0][0] | s[1][1] | ... Returns s."""
    rows = len(s)

    def row_sub(i: int, j: int, q: int) -> None:
        # row i -= q * row j
        si, sj = s[i], s[j]
        for k in range(cols):
            si[k] -= q * sj[k]

    def col_sub(i: int, j: int, q: int) -> None:
        # col i -= q * col j
        for rrow in s:
            rrow[i] -= q * rrow[j]

    t = 0
    while t < min(rows, cols):
        # smallest-magnitude nonzero entry of the trailing block
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = s[i][j]
                if v != 0 and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
        if best is None:
            break
        while True:
            _, bi, bj = best
            if bi != t:
                s[t], s[bi] = s[bi], s[t]
            if bj != t:
                for rrow in s:
                    rrow[t], rrow[bj] = rrow[bj], rrow[t]
            if s[t][t] < 0:
                s[t] = [-x for x in s[t]]
            pivot = s[t][t]
            for i in range(t + 1, rows):
                if s[i][t]:
                    row_sub(i, t, s[i][t] // pivot)
            for j in range(t + 1, cols):
                if s[t][j]:
                    col_sub(j, t, s[t][j] // pivot)
            # floor-division remainders are in [0, pivot); any survivor
            # is a strictly smaller pivot candidate
            best = None
            for i in range(t + 1, rows):
                if s[i][t]:
                    best = (abs(s[i][t]), i, t)
                    break
            if best is None:
                for j in range(t + 1, cols):
                    if s[t][j]:
                        best = (abs(s[t][j]), t, j)
                        break
            if best is not None:
                continue
            # divisibility: the pivot must divide the whole trailing block
            viol = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if s[i][j] % pivot:
                        viol = i
                        break
                if viol is not None:
                    break
            if viol is None:
                break
            row_sub(t, viol, -1)
            best = (abs(pivot), t, t)
        t += 1
    return s


def invariant_factors_of_columns(cols) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form of the integer matrix with the
    given sparse `{row: coeff}` columns, in divisibility order.

    Sweeps the columns in index order, again until a sweep finds no unit
    entry. A column holding a unit pivots at its unit row with the
    fewest entries (the lowest such row on a tie): column operations
    clear that row from every other column, which leaves the pivot's row
    and column a `[±1]` block of its own. Every step is unimodular, so
    the matrix is `[±1] ⊕ ... ⊕ M'`, and only the remainder `M'` goes
    through Smith normal form. A row -> columns index makes clearing a
    row touch only the columns in it. The columns given are not changed.
    """
    work: list[Optional[dict[int, int]]] = [{r: int(c) for r, c in col.items() if c} for col in cols]
    rows: dict[int, set[int]] = {}
    for j, col in enumerate(work):
        for r in col:
            rows.setdefault(r, set()).add(j)
    units = 0
    swept = False
    while not swept:
        swept = True
        for j, col in enumerate(work):
            if not col:
                continue
            best = min(((len(rows[r]), r) for r, c in col.items() if c in (1, -1)), default=None)
            if best is None:
                continue
            i = best[1]
            sign = col.pop(i)
            for k in rows.pop(i):
                if k == j:
                    continue
                other = work[k]
                f = other.pop(i) * sign
                # col_k -= a_ik * a_ij * col_j, row i already cleared
                for r, c in col.items():
                    v = other.get(r, 0) - f * c
                    if v:
                        if r not in other:
                            rows[r].add(k)
                        other[r] = v
                    else:
                        del other[r]
                        rows[r].discard(k)
            for r in col:
                rows[r].discard(j)
            work[j] = None
            units += 1
            swept = False
    rest = [col for col in work if col]
    if not rest:
        return (1,) * units
    live = sorted({r for col in rest for r in col})
    s = _smith([[col.get(r, 0) for col in rest] for r in live], len(rest))
    return (1,) * units + tuple(s[t][t] for t in range(min(len(live), len(rest))) if s[t][t])

