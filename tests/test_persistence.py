"""Point clouds, distance filtrations, reduced stages, and barcodes."""

import os
import random
from collections import Counter
from fractions import Fraction

import pytest

from graphcollapse import exactla
from graphcollapse.errors import GraphFormatError
from graphcollapse.homology import Coefficients
from graphcollapse.persistence import (
    Barcode,
    Interval,
    PointCloud,
    barcode,
    format_barcode_csv,
    oracle_persistence,
    parse_barcode_csv,
    parse_distance_matrix,
    parse_points,
    persistent_betti,
    reduce_filtration,
    vr_filtration,
)

from helpers import SIX_POINT_ROWS, brute_betti_gf2, inclusion_rank_gf2

GF2 = Coefficients(2)


def random_cloud(rng, max_points=8):
    n = rng.randint(3, max_points)
    pts = set()
    while len(pts) < n:
        pts.add((rng.randint(0, 9), rng.randint(0, 9)))
    return PointCloud.from_points(sorted(pts))


# ----------------------------------------------------------------- point clouds


class TestPointCloud:
    def test_from_points_squares_distances(self):
        pc = PointCloud.from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert pc.n == 4
        assert pc.squared
        assert pc.distinct_keys() == (Fraction(1), Fraction(2))
        assert pc.pair_key(0, 1) == 1
        assert pc.pair_key(0, 2) == 2

    def test_decimal_coordinates_stay_exact(self):
        pc = parse_points("0.1 0.2\n0.4 0.6\n")
        assert pc.pair_key(0, 1) == Fraction(1, 4)
        same = PointCloud.from_points(
            [(Fraction(1, 10), Fraction(1, 5)), (Fraction(2, 5), Fraction(3, 5))]
        )
        assert same.pair_key(0, 1) == Fraction(1, 4)

    def test_from_distance_matrix_keeps_raw_distances(self):
        pc = PointCloud.from_distance_matrix(
            [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        )
        assert not pc.squared
        assert pc.distinct_keys() == (Fraction(1), Fraction(2))

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="at least one point"):
            PointCloud.from_points([])
        with pytest.raises(ValueError, match="expected 2"):
            PointCloud.from_points([(0, 0), (1,)])
        with pytest.raises(ValueError, match="diagonal"):
            PointCloud.from_distance_matrix([[0, 1], [1, 1]])
        with pytest.raises(ValueError, match="not symmetric"):
            PointCloud.from_distance_matrix([[0, 1], [2, 0]])


class TestParsers:
    def test_points_with_commas_and_comments(self):
        pc = parse_points("0 0\n1.5,0\n# comment\n0, 2\n")
        assert pc.n == 3
        assert pc.pair_key(0, 1) == Fraction(9, 4)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "no points found"),
            ("x y\n", "bad coordinate 'x'"),
            ("0 0\n1 2 3\n", "expected 2"),
        ],
    )
    def test_point_errors(self, text, fragment):
        with pytest.raises(GraphFormatError, match=fragment):
            parse_points(text)

    def test_matrix_happy_path(self):
        pc = parse_distance_matrix("0 1 2\n1 0 1\n2 1 0\n")
        assert pc.n == 3
        assert not pc.squared

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "no matrix rows"),
            ("0 1\n1 1\n", "diagonal entry"),
            ("0 1\n2 0\n", "not symmetric"),
            ("0 -1\n-1 0\n", "negative entry"),
            ("0 1\n", "expected 1"),
            ("zz\n", "bad entry"),
        ],
    )
    def test_matrix_errors(self, text, fragment):
        with pytest.raises(GraphFormatError, match=fragment):
            parse_distance_matrix(text)

    def test_error_carries_source_and_line(self):
        with pytest.raises(GraphFormatError, match="pts.txt:2"):
            parse_points("0 0\nbad bad\n", source="pts.txt")


# ------------------------------------------------------------------ filtration


class TestVrFiltration:
    def test_default_thresholds_are_distinct_keys_with_zero(self):
        pc = PointCloud.from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
        filt = vr_filtration(pc)
        assert filt.thresholds == (Fraction(0), Fraction(1), Fraction(2))
        assert [g.m for g in filt.graphs] == [0, 4, 6]
        assert filt.stage_count == 3

    def test_stages_are_nested(self):
        rng = random.Random(77)
        pc = random_cloud(rng)
        filt = vr_filtration(pc)
        for lo, hi in zip(filt.graphs, filt.graphs[1:]):
            assert set(lo.edges) <= set(hi.edges)
        assert filt.graphs[-1].is_complete()

    def test_explicit_thresholds_get_zero_prepended(self):
        pc = PointCloud.from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
        filt = vr_filtration(pc, [1])
        assert filt.thresholds == (Fraction(0), Fraction(1))
        same = vr_filtration(pc, [0, 1, 5])
        assert same.thresholds == (Fraction(0), Fraction(1), Fraction(5))
        assert [g.m for g in same.graphs] == [0, 4, 6]

    def test_threshold_validation(self):
        pc = PointCloud.from_points([(0, 0), (1, 0)])
        with pytest.raises(ValueError, match="strictly increasing"):
            vr_filtration(pc, [1, 1])
        with pytest.raises(ValueError, match="negative threshold"):
            vr_filtration(pc, [-1])

    def test_stage_of_key(self):
        pc = PointCloud.from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
        filt = vr_filtration(pc)
        assert filt.stage_of_key(Fraction(1)) == 1
        assert filt.stage_of_key(Fraction(3, 2)) == 2
        assert filt.stage_of_key(Fraction(0)) == 0


# -------------------------------------------------------------- tiny barcodes


class TestSmallBarcodes:
    def test_single_point(self):
        bc = barcode(vr_filtration(PointCloud.from_points([(3, 4)])))
        assert bc.intervals == (
            Interval(0, 0, None, Fraction(0), None),
        )

    def test_two_points(self):
        bc = barcode(vr_filtration(PointCloud.from_points([(0, 0), (3, 0)])))
        assert bc.intervals == (
            Interval(0, 0, 1, Fraction(0), Fraction(9)),
            Interval(0, 0, None, Fraction(0), None),
        )

    def test_unit_square(self):
        pc = PointCloud.from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
        bc = barcode(vr_filtration(pc))
        finite_h0 = Interval(0, 0, 1, Fraction(0), Fraction(1))
        assert Counter(bc.intervals) == Counter(
            [finite_h0] * 3
            + [Interval(0, 0, None, Fraction(0), None)]
            + [Interval(1, 1, 2, Fraction(1), Fraction(2))]
        )
        assert len(bc.in_dim(0)) == 4
        assert len(bc.in_dim(1)) == 1


# ---------------------------------------------------------------- reduction


class TestReduceFiltration:
    def test_stages_preserve_stage_homology(self):
        rng = random.Random(505)
        for _ in range(5):
            filt = vr_filtration(random_cloud(rng))
            for stage in reduce_filtration(filt):
                want = brute_betti_gf2(stage.graph, 2)
                got = brute_betti_gf2(stage.reduced, 2)
                assert got == want
                assert stage.trace.replay(stage.graph) == stage.reduced

    def test_edge_extended_stages_preserve_stage_homology(self):
        rng = random.Random(506)
        filt = vr_filtration(random_cloud(rng))
        for stage in reduce_filtration(filt, edge_extended=True):
            assert brute_betti_gf2(stage.reduced, 2) == brute_betti_gf2(
                stage.graph, 2
            )

    def test_result_is_cached(self):
        filt = vr_filtration(PointCloud.from_points([(0, 0), (1, 0), (0, 1)]))
        assert reduce_filtration(filt) is reduce_filtration(filt)

    def test_jobs_above_cpu_count_rejected(self):
        # Three stages: too few for a pool at any jobs value.
        filt = vr_filtration(PointCloud.from_points([(0, 0), (1, 0), (0, 1)]))
        assert filt.stage_count == 3
        with pytest.raises(ValueError, match="CPU count"):
            reduce_filtration(filt, jobs=(os.cpu_count() or 1) + 1)

    def test_parallel_jobs_agree_with_serial(self):
        rng = random.Random(99)
        pts = sorted(
            {(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(12)}
        )
        serial = reduce_filtration(vr_filtration(PointCloud.from_points(pts)))
        parallel = reduce_filtration(
            vr_filtration(PointCloud.from_points(pts)), jobs=2
        )
        assert serial == parallel


# --------------------------------------------------------- persistent ranks


class TestPersistentBetti:
    def test_matches_inclusion_rank_oracle(self):
        rng = random.Random(1203)
        for _ in range(6):
            filt = vr_filtration(random_cloud(rng, max_points=7))
            m = filt.stage_count
            for dim in (0, 1):
                for i in range(m):
                    for j in range(i, m):
                        assert persistent_betti(filt, i, j, dim) == (
                            inclusion_rank_gf2(
                                filt.graphs[i], filt.graphs[j], dim
                            )
                        )

    def test_diagonal_is_stage_betti(self):
        rng = random.Random(41)
        filt = vr_filtration(random_cloud(rng))
        for i, g in enumerate(filt.graphs):
            betti = brute_betti_gf2(g, 1)
            assert persistent_betti(filt, i, i, 0) == betti[0]
            assert persistent_betti(filt, i, i, 1) == betti[1]

    def test_rank_monotonicity(self):
        rng = random.Random(88)
        filt = vr_filtration(random_cloud(rng))
        m = filt.stage_count
        for dim in (0, 1):
            r = {
                (i, j): persistent_betti(filt, i, j, dim)
                for i in range(m)
                for j in range(i, m)
            }
            for i in range(m):
                for j in range(i + 1, m):
                    assert r[i, j] <= r[i, j - 1]
                    assert r[i, j] <= r[i + 1, j]

    def test_bounds_checked(self):
        filt = vr_filtration(PointCloud.from_points([(0, 0), (1, 0)]))
        with pytest.raises(ValueError, match="need 0 <= i <= j"):
            persistent_betti(filt, 1, 0, 0)
        with pytest.raises(ValueError, match="need 0 <= i <= j"):
            persistent_betti(filt, 0, 5, 0)


# ------------------------------------------------------------------- barcodes


class TestBarcode:
    def test_interval_census_matches_stage_homology(self):
        rng = random.Random(3111)
        for _ in range(4):
            filt = vr_filtration(random_cloud(rng))
            bc = barcode(filt)
            for s, g in enumerate(filt.graphs):
                betti = brute_betti_gf2(g, 1)
                for dim in (0, 1):
                    alive = sum(
                        1
                        for iv in bc.in_dim(dim)
                        if iv.birth_index <= s
                        and (iv.death_index is None or iv.death_index > s)
                    )
                    assert alive == betti[dim]

    def test_matches_matrix_reduction_oracle(self):
        rng = random.Random(777)
        for _ in range(5):
            filt = vr_filtration(random_cloud(rng))
            assert barcode(filt) == oracle_persistence(filt)

    def test_six_point_matrix_example(self):
        pc = parse_distance_matrix(
            "\n".join(" ".join(row) for row in SIX_POINT_ROWS)
        )
        filt = vr_filtration(pc)
        bc = barcode(filt)
        assert bc == oracle_persistence(filt)
        h1 = [iv for iv in bc.in_dim(1) if iv.death_index is not None]
        assert len(h1) == 1
        assert (h1[0].birth_index, h1[0].death_index) == (2, 4)

    def test_large_prime_checks_the_modulus_once(self, monkeypatch):
        rng = random.Random(4)
        pts = sorted({(rng.randint(0, 20), rng.randint(0, 20)) for _ in range(10)})
        coeffs = Coefficients(2**31 - 1)
        calls = []
        real = exactla.check_prime
        monkeypatch.setattr(exactla, "check_prime", lambda p: calls.append(p) or real(p))
        bc = barcode(vr_filtration(PointCloud.from_points(pts)), max_dim=1, coeffs=coeffs)
        assert calls == []
        monkeypatch.undo()
        assert bc == barcode(vr_filtration(PointCloud.from_points(pts)), max_dim=1, coeffs=Coefficients(101))

    def test_oracle_rejects_integer_coefficients(self):
        filt = vr_filtration(PointCloud.from_points([(0, 0), (1, 0)]))
        with pytest.raises(ValueError, match="GF\\(2\\)"):
            oracle_persistence(filt, coeffs=Coefficients.integers())

    def test_interval_eps_values_follow_thresholds(self):
        rng = random.Random(4)
        filt = vr_filtration(random_cloud(rng))
        for iv in barcode(filt).intervals:
            assert iv.birth == filt.thresholds[iv.birth_index]
            if iv.death_index is None:
                assert iv.death is None
            else:
                assert iv.death == filt.thresholds[iv.death_index]


# ------------------------------------------------------------------------ csv


class TestBarcodeCsv:
    def test_roundtrip(self):
        pc = PointCloud.from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
        bc = barcode(vr_filtration(pc))
        text = format_barcode_csv(bc)
        assert text.splitlines()[0] == (
            "dim,birth_index,death_index,birth_eps,death_eps"
        )
        assert parse_barcode_csv(text) == bc.intervals
        assert bc.to_csv() == text

    def test_essential_rows_use_minus_one_and_inf(self):
        bc = barcode(vr_filtration(PointCloud.from_points([(3, 4)])))
        assert "0,0,-1,0,inf" in format_barcode_csv(bc)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("nope\n", "expected header"),
            ("dim,birth_index,death_index,birth_eps,death_eps\n0,0\n",
             "expected 5 fields"),
            ("dim,birth_index,death_index,birth_eps,death_eps\n0,0,-1,0,5\n",
             "requires death_eps inf"),
        ],
    )
    def test_malformed(self, text, fragment):
        with pytest.raises(GraphFormatError, match=fragment):
            parse_barcode_csv(text)
