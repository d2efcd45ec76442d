import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcollapse import exactla
from graphcollapse.homology import Coefficients

from helpers import (
    brute_invariant_factors,
    gf2_rank,
    rational_rank,
    reference_nullspace,
    reference_rref,
    reference_solve,
)

PRIMES = st.sampled_from([2, 3, 5, 7, 2**31 - 1])


def int_matrices(max_dim=5, lo=-9, hi=9):
    shapes = st.tuples(st.integers(1, max_dim), st.integers(1, max_dim))
    return shapes.flatmap(
        lambda s: st.lists(
            st.lists(st.integers(lo, hi), min_size=s[1], max_size=s[1]),
            min_size=s[0],
            max_size=s[0],
        ).map(lambda rows: np.array(rows, dtype=np.int64))
    )


def columns(rows):
    """The sparse `{row: coeff}` columns of the matrix with these rows."""
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(len(rows[0]))]


class TestPrimes:
    def test_accepts_primes(self):
        for p in (2, 3, 5, 7, 11, 101):
            exactla.check_prime(p)

    @pytest.mark.parametrize("p", [-2, 0, 1, 4, 6, 9, 100])
    def test_rejects_nonprimes(self, p):
        with pytest.raises(ValueError):
            exactla.check_prime(p)


class TestRref:
    @given(int_matrices())
    def test_rank_mod_2_matches_bitmask_elimination(self, a):
        rows = [int("".join(str(x % 2) for x in row), 2) for row in a]
        assert exactla.Echelon(2, columns(a.tolist())).rank == gf2_rank(rows)

    @given(int_matrices(), st.sampled_from([2, 3, 5, 7]))
    def test_rank_at_least_rational_rank(self, a, p):
        # ranks can only drop when reducing mod p
        assert exactla.Echelon(p, columns(a.tolist())).rank <= rational_rank(a.tolist()) <= min(a.shape)


class TestSolveModP:
    @given(int_matrices(), st.sampled_from([2, 3, 5, 7]), st.data())
    def test_roundtrip(self, a, p, data):
        x = np.array(
            data.draw(
                st.lists(st.integers(0, p - 1), min_size=a.shape[1], max_size=a.shape[1])
            ),
            dtype=np.int64,
        )
        b = (a @ x) % p
        got = exactla.solve_columns(columns(a.tolist()), dict(enumerate(b.tolist())), p)
        assert got is not None
        assert ((a @ exactla.dense([got], a.shape[1]).reshape(-1) - b) % p == 0).all()

    def test_unsolvable(self):
        assert exactla.solve_columns([{0: 1, 1: 1}], {1: 1}, 3) is None

    @given(int_matrices(), st.sampled_from([2, 3, 5]))
    def test_nullspace(self, a, p):
        ech = exactla.Echelon(p, columns(a.tolist()))
        ns = exactla.dense(ech.relations, a.shape[1])
        assert ns.shape[1] == a.shape[1] - ech.rank
        if ns.shape[1]:
            assert ((a @ ns) % p == 0).all()
            assert exactla.Echelon(p, columns(ns.tolist())).rank == ns.shape[1]


class TestAgainstReferenceElimination:
    """`Echelon` and `solve_columns` must return exactly what
    Gauss-Jordan elimination reads off: the pivot count, the
    free-variables-zero solution and the standard kernel basis, column
    for column."""

    @given(int_matrices(max_dim=6), PRIMES)
    def test_rank(self, a, p):
        assert exactla.Echelon(p, columns(a.tolist())).rank == len(reference_rref(a.tolist(), p)[1])

    @given(int_matrices(max_dim=6), PRIMES, st.data())
    def test_solve(self, a, p, data):
        if data.draw(st.booleans()):
            x = data.draw(st.lists(st.integers(-3, 3), min_size=a.shape[1], max_size=a.shape[1]))
            b = (a @ np.array(x, dtype=np.int64)).tolist()
        else:
            b = data.draw(st.lists(st.integers(-9, 9), min_size=a.shape[0], max_size=a.shape[0]))
        got = exactla.solve_columns(columns(a.tolist()), dict(enumerate(b)), p)
        want = reference_solve(a.tolist(), b, p)
        if want is None:
            assert got is None
        else:
            x = exactla.dense([got], a.shape[1]).reshape(-1)
            assert x.dtype == np.int64
            assert x.tolist() == want

    @given(int_matrices(max_dim=6), PRIMES)
    def test_nullspace(self, a, p):
        got = exactla.dense(exactla.Echelon(p, columns(a.tolist())).relations, a.shape[1])
        want = reference_nullspace(a.tolist(), p)
        assert got.shape == (a.shape[1], len(want))
        assert got.T.tolist() == want

    def test_modulus_checked(self):
        # the modulus is checked where it enters, in the coefficient ring
        for p in (4, 2**31, 1):
            with pytest.raises(ValueError, match="modulus"):
                Coefficients(p)


class TestEchelon:
    def test_relation_of_dependent_column(self):
        ech = exactla.Echelon(5)
        assert ech.add({0: 1, 1: 2}, "a") is None
        assert ech.add({1: 1}, "b") is None
        # 3a + 4b = (3, 6 + 4) = (3, 0) mod 5, so c - 3a - 4b = 0
        assert ech.add({0: 3}, "c") == {"c": 1, "a": 2, "b": 1}
        assert ech.add({}, "d") == {"d": 1}
        assert ech.rank == 2

    def test_last_pivot_is_the_row_stored(self):
        ech = exactla.Echelon(3)
        assert ech.last_pivot is None
        assert ech.add({0: 1, 2: 1}, "a") is None
        assert ech.last_pivot == 2
        # reduced by the vector at row 2, the column stores row 1
        assert ech.add({1: 2, 2: 1}, "b") is None
        assert ech.last_pivot == 1
        # a dependent column stores nothing
        assert ech.add({0: 1, 1: 2, 2: 2}, "c") is not None
        assert ech.last_pivot == 1

    @given(int_matrices(max_dim=6), st.sampled_from([2, 3, 5]))
    def test_untagged_columns_enlarge_the_span_as_tagged_ones_do(self, a, p):
        tagged, untagged = exactla.Echelon(p), exactla.Echelon(p)
        for j, col in enumerate(columns(a.tolist())):
            rel = tagged.add(col, j)
            assert (untagged.add(col) is None) == (rel is None)
            assert untagged.last_pivot == tagged.last_pivot
        assert untagged.rank == tagged.rank
        assert set(untagged.pivot_rows) == set(tagged.pivot_rows)

    def test_untagged_dependent_column_returns_an_empty_relation(self):
        ech = exactla.Echelon(3)
        assert ech.add({0: 1, 1: 1}) is None
        assert ech.add({0: 2, 1: 2}) == {}
        assert ech.rank == 1
        assert list(ech.pivot_rows) == [1]
        assert not hasattr(ech.pivot_rows, "add")

    def test_tagged_and_untagged_columns_do_not_mix(self):
        untagged = exactla.Echelon(2)
        untagged.add({0: 1})
        with pytest.raises(ValueError, match="all of its columns or for none"):
            untagged.add({0: 1}, "a")
        tagged = exactla.Echelon(2, [{0: 1}])
        with pytest.raises(ValueError, match="all of its columns or for none"):
            tagged.add({1: 1})
        # a refused column leaves the span as it was
        assert untagged.rank == tagged.rank == 1
        assert tagged.add({0: 1}, "b") == {"b": 1, 0: 1}


class TestSmith:
    def test_known_invariant_factors(self):
        factors = exactla.invariant_factors_of_columns
        assert factors(columns([[2, 0], [0, 3]])) == (1, 6)
        assert factors(columns([[2, 4], [6, 8]])) == (2, 4)
        assert factors(columns([[0, 0, 0], [0, 0, 0]])) == ()
        assert factors(columns([[6]])) == (6,)

    @given(int_matrices(max_dim=4))
    @settings(max_examples=50)
    def test_factor_count_is_rational_rank(self, a):
        factors = exactla.invariant_factors_of_columns(columns(a.tolist()))
        assert factors == brute_invariant_factors(a.tolist())
        assert len(factors) == rational_rank(a.tolist())


BIG = st.integers(2**63, 2**70) | st.integers(-(2**70), -(2**63) - 1)
WITH_UNITS = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, -3, 6]) | BIG
NO_UNITS = st.sampled_from([0, 0, 2, -2, 3, -3, 4, -6, 9]) | BIG


@st.composite
def object_matrices(draw, entries, max_dim=6):
    """Lists of rows of Python ints, some rows and columns all zero."""
    rows, cols = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=rows - 1))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=cols - 1))
    return [
        [0 if i in zero_rows or j in zero_cols else draw(entries) for j in range(cols)]
        for i in range(rows)
    ]


class TestInvariantFactors:
    """Unit elimination in front of the Smith form gives the Smith
    form's diagonal, which the oracle reads off the gcds of the minors."""

    @given(object_matrices(WITH_UNITS))
    @settings(max_examples=100)
    def test_matches_smith_diagonal(self, a):
        assert exactla.invariant_factors_of_columns(columns(a)) == brute_invariant_factors(a)

    @given(object_matrices(NO_UNITS))
    @settings(max_examples=100)
    def test_matches_smith_diagonal_without_unit_entries(self, a):
        # no pivot is a unit, so the whole matrix is the remainder
        assert exactla.invariant_factors_of_columns(columns(a)) == brute_invariant_factors(a)

    @given(object_matrices(WITH_UNITS))
    def test_columns_are_left_unchanged(self, a):
        cols = columns(a)
        copy = [dict(col) for col in cols]
        assert exactla.invariant_factors_of_columns(cols) == brute_invariant_factors(a)
        assert cols == copy

    def test_unit_pivots_leave_torsion_to_the_remainder(self):
        # [[1, 1], [1, -1]] has determinant -2: one unit pivot, remainder [2]
        assert exactla.invariant_factors_of_columns([{0: 1, 1: 1}, {0: 1, 1: -1}]) == (1, 2)
        assert exactla.invariant_factors_of_columns([{}, {3: 2 ** 80}]) == (2 ** 80,)
        assert exactla.invariant_factors_of_columns([]) == ()
