"""Point clouds, distance filtrations, reduced stages, and barcodes."""

import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphcollapse import exactla, persistence
from graphcollapse.contract import contractible_reduction, edge_extended_reduction, is_strong_contractible
from graphcollapse.errors import GraphFormatError
from graphcollapse.graphs import Graph
from graphcollapse.homology import Coefficients
from graphcollapse.persistence import (
    _collapsed_stages,
    _link_stays_contractible,
    CSV_HEADER,
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

from helpers import (
    SIX_POINT_ROWS,
    brute_betti_gf2,
    brute_vr_entry,
    exact_squared_distances,
    greedy_contractible,
    inclusion_rank_gf2,
    inclusion_rank_mod_p,
    reference_oracle_persistence,
)

GF2 = Coefficients(2)
GF3 = Coefficients(3)


def random_cloud(rng, max_points=8):
    n = rng.randint(3, max_points)
    pts = set()
    while len(pts) < n:
        pts.add((rng.randint(0, 9), rng.randint(0, 9)))
    return PointCloud.from_points(sorted(pts))


def sphere_cloud(rng, n, radius=20):
    """n distinct integer points rounded from uniform points on a sphere."""
    pts = set()
    while len(pts) < n:
        x, y, z = (rng.gauss(0, 1) for _ in range(3))
        s = radius / math.sqrt(x * x + y * y + z * z)
        pts.add((round(x * s), round(y * s), round(z * s)))
    return sorted(pts)


# ----------------------------------------------------------------- point clouds


class TestPointCloud:
    def test_from_points_squares_distances(self):
        pc = PointCloud.from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert pc.n == 4
        assert pc.squared
        assert pc.distinct_keys() == (Fraction(1), Fraction(2))
        assert pc.pair_key(0, 1) == 1
        assert pc.pair_key(0, 2) == pc.pair_key(2, 0) == 2
        for i, j in ((-1, 2), (0, 4), (4, 1), (4, 4), (-1, -1)):
            with pytest.raises(IndexError, match="no point"):
                pc.pair_key(i, j)

    def test_decimal_coordinates_stay_exact(self):
        pc = parse_points("0.1 0.2\n0.4 0.6\n")
        assert pc.pair_key(0, 1) == Fraction(1, 4)
        same = PointCloud.from_points(
            [(Fraction(1, 10), Fraction(1, 5)), (Fraction(2, 5), Fraction(3, 5))]
        )
        assert same.pair_key(0, 1) == Fraction(1, 4)

    @given(
        st.integers(0, 3).flatmap(
            lambda d: st.lists(
                st.tuples(*[
                    st.one_of(
                        st.integers(-10**6, 10**6),
                        st.fractions(max_denominator=10**4),
                        st.floats(allow_nan=False, allow_infinity=False),
                    )
                ] * d),
                min_size=1,
                max_size=6,
            )
        )
    )
    def test_from_points_keys_equal_fraction_formula(self, pts):
        pc = PointCloud.from_points(pts)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                key = pc.pair_key(i, j)
                assert isinstance(key, Fraction)
                assert key == sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(pts[i], pts[j]))

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

    def test_conversion_errors_come_before_length_errors(self):
        with pytest.raises(ValueError, match="point 2: cannot interpret 'x'"):
            PointCloud.from_points([(0, 0), (1,), (2, "x")])
        with pytest.raises(ValueError, match="point 1 has 1 coordinates, expected 2"):
            PointCloud.from_points([(0, 0), (1,), (Fraction(1, 2), 3)])
        with pytest.raises(ValueError, match="point 1 has 3 coordinates, expected 2"):
            PointCloud.from_points([(0, 0), (1, 2, 3)])


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
            # each names the line of the row it is read from: asymmetry
            # at (1, 2) shows once row 2 is read
            ("# m\n\n0 1 2\n1 0 3\n2 4 0\n", "<matrix>:5: matrix not symmetric at \\(1, 2\\)"),
            ("0 1 2\n1 0 3\n\n# last row\n2 4 0\n", "<matrix>:5: matrix not symmetric"),
            ("0 1\n\n# row 1\n1 2\n", "<matrix>:4: diagonal entry \\(1, 1\\) is 2"),
            ("0 1 1\n\n# row 1\n1 0 -1\n1 -1 0\n", "<matrix>:4: negative entry at \\(1, 2\\)"),
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

    def test_stages_match_all_pairs_definition(self):
        rng = random.Random(2024)
        coordinates = (
            lambda side: rng.randint(0, side),
            lambda side: Fraction(rng.randint(0, side), rng.randint(1, 6)),
            lambda side: rng.uniform(0, side),
            lambda side: rng.choice((rng.randint(0, side), Fraction(rng.randint(0, side), 3), rng.uniform(0, 1))),
        )
        clouds = []
        for k in range(16):
            # a small side gives duplicate points and tied distances
            side = 3 if k % 2 else 9
            draw = coordinates[k // 2 % len(coordinates)]
            clouds.append(PointCloud.from_points([(draw(side), draw(side)) for _ in range(rng.randint(2, 12))]))
        for _ in range(6):
            n = rng.randint(2, 9)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = rng.choice((1, 2, Fraction(3, 2), Fraction(5, 3), "0.7", 2.25))
            clouds.append(PointCloud.from_distance_matrix(rows))
        for pc in clouds:
            keys = pc.distinct_keys()
            off_grid = sorted({keys[0] / 3, keys[len(keys) // 2], keys[-1] + 1, Fraction(5, 3), 0.1})
            for ts in (None, [0, 1, 5, 9], [2, 13, 40, 200], [0.1, Fraction(5, 3), 7.25], off_grid):
                filt = vr_filtration(pc, ts)
                pairs = [(i, j) for i in range(pc.n) for j in range(i + 1, pc.n)]
                # pairs beyond the last threshold have no entry stage
                assert filt.entry == {
                    e: filt.stage_of_key(pc.pair_key(*e)) for e in pairs if pc.pair_key(*e) <= filt.thresholds[-1]
                }
                for t, g in zip(filt.thresholds, filt.graphs):
                    assert g == Graph(range(pc.n), [e for e in pairs if pc.pair_key(*e) <= t])

    def test_barcode_builds_no_stage_graph(self):
        cloud = uniform_cloud(random.Random(3131), 30)
        filt = vr_filtration(cloud)
        bc = barcode(filt, max_dim=2)
        assert "graphs" not in filt._cache
        for t, g in zip(filt.thresholds, filt.graphs):
            edges = [(i, j) for i in range(cloud.n) for j in range(i + 1, cloud.n) if cloud.pair_key(i, j) <= t]
            assert g == Graph(range(cloud.n), edges)
        assert oracle_persistence(filt, max_dim=2) == bc

    def test_oracle_builds_no_stage_graph(self):
        filt = vr_filtration(uniform_cloud(random.Random(3132), 30))
        reference = oracle_persistence(filt, max_dim=2)
        assert "graphs" not in filt._cache
        assert reference == barcode(filt, max_dim=2)

    def test_stage_of_key(self):
        pc = PointCloud.from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
        filt = vr_filtration(pc)
        assert filt.stage_of_key(Fraction(1)) == 1
        assert filt.stage_of_key(Fraction(3, 2)) == 2
        assert filt.stage_of_key(Fraction(0)) == 0


def drawn_points(rng, d, n, kind, side):
    """n points in [-side, side]^d with int, Fraction or float coordinates,
    a tenth of them repeats of others, in random order."""
    draw = {
        "int": lambda: rng.randint(-side, side),
        "fraction": lambda: Fraction(rng.randint(-6 * side, 6 * side), rng.choice((1, 2, 3, 6))),
        "float": lambda: rng.uniform(-side, side),
    }[kind]
    pts = [tuple(draw() for _ in range(d)) for _ in range(n - n // 10)]
    pts += rng.sample(pts, n // 10)
    rng.shuffle(pts)
    return pts


def assert_entry_is_brute(filt, distances):
    """entry has the brute-force stages, inserted in (i, j) order."""
    assert list(filt.entry.items()) == list(brute_vr_entry(distances, filt.thresholds).items())


class TestThresholdGrid:
    """Explicit thresholds on a cloud of points find the pairs within the
    last one on a grid, with the entry of the all-pairs definition."""

    @pytest.mark.parametrize(
        "d,n,kind,side",
        [(1, 1000, "int", 400), (2, 400, "fraction", 30), (2, 300, "int", 50), (3, 300, "float", 20), (8, 125, "int", 3)],
    )
    def test_entry_equals_all_pairs(self, d, n, kind, side):
        rng = random.Random(d * 1000 + n)
        pts = drawn_points(rng, d, n, kind, side)
        distances = exact_squared_distances(pts)
        # keys of the pairs at about mean degrees 1, 3 and 6, so pairs sit
        # at each cut, and one threshold between two keys; ranked by float,
        # which is far quicker to sort than Fractions
        ranked = [key for _, key in sorted(distances, key=lambda pk: float(pk[1]))]
        ts = sorted({ranked[n * deg // 2] for deg in (1, 3, 6)} | {(ranked[n] + ranked[n + 1]) / 2})
        pc = PointCloud.from_points(pts)
        filt = vr_filtration(pc, ts)
        assert_entry_is_brute(filt, distances)
        assert pc._built_rows is None
        keys = dict(distances)
        assert all(pc.pair_key(*e) == keys[e] for e in filt.entry)
        for i, j in rng.sample(list(keys), 200):
            assert pc.pair_key(j, i) == keys[i, j]
        assert pc._built_rows is None

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("den", [1, 3])
    def test_pairs_isqrt_cut_apart_on_cell_boundaries(self, d, den):
        r = 7  # cut r^2 or r^2 + r: cells of side r + 1, pairs r apart on either side of their edges
        s = r + 1
        axis = sorted({m * s + o for m in range(-3, 4) for o in (-1, 0, r - 1)})
        rest = {1: [()], 2: [(0,), (r - 1,), (-1,)], 3: [(0, 0), (-1, r - 1), (r - 1, -1)]}[d]
        pts = [tuple(Fraction(x, den) for x in (a, *b)) for a in axis for b in rest]
        distances = exact_squared_distances(pts)
        assert any(key == Fraction(r * r, den * den) for _, key in distances)
        for ts in ([Fraction(r * r, den * den)], [Fraction(r * r - 1, den * den), Fraction(r * r + r, den * den)]):
            filt = vr_filtration(PointCloud.from_points(pts), ts)
            assert_entry_is_brute(filt, distances)
            assert barcode(filt, max_dim=1) == oracle_persistence(filt, max_dim=1)

    def test_threshold_zero_and_beyond_the_diameter(self):
        pts = drawn_points(random.Random(4242), 2, 200, "fraction", 4)
        distances = exact_squared_distances(pts)
        top = max(key for _, key in distances)
        for ts in ([0], [top], [top / 2, top + 1]):
            filt = vr_filtration(PointCloud.from_points(pts), ts)
            assert_entry_is_brute(filt, distances)
            # repeated points enter at 0; every pair enters by the diameter
            want = len(distances) if ts[-1] >= top else sum(key == 0 for _, key in distances)
            assert want > 0 and len(filt.entry) == want

    def test_call_orders_agree(self):
        """Thresholds before any other read use the grid, distinct_keys()
        first builds the rows: entry and pair_key agree either way."""
        pts = drawn_points(random.Random(4343), 2, 300, "int", 100)
        distances = exact_squared_distances(pts)
        keys = [key for _, key in distances]
        # integer keys this small sort exactly as floats, and far quicker
        ranked = sorted(keys, key=float)
        distinct = tuple(dict.fromkeys(ranked))
        small, large = [ranked[100], ranked[300]], [ranked[100], ranked[900]]
        # a smaller cut reuses the pairs found for a larger one, a larger cut finds them again
        lists = (small, large, small, large + [ranked[1500]])
        expected = [list(brute_vr_entry(distances, ts).items()) for ts in lists]
        for distinct_first in (False, True):
            pc = PointCloud.from_points(pts)
            if distinct_first:
                assert pc.distinct_keys() == distinct
            for ts, want in zip(lists, expected):
                assert list(vr_filtration(pc, ts).entry.items()) == want
            assert [pc.pair_key(*e) for e, _ in distances] == keys
            assert pc.distinct_keys() == distinct
            for ts, want in zip(lists, expected):
                assert list(vr_filtration(pc, ts).entry.items()) == want

    def test_thresholds_store_no_all_pairs(self):
        rng = random.Random(4444)
        n, side = 3000, 10_000
        pts = [(rng.randrange(side), rng.randrange(side)) for _ in range(n)]
        top = 10 * side * side // (3 * n)  # mean degree about 10
        tracemalloc.start()
        try:
            filt = vr_filtration(PointCloud.from_points(pts), [top // 4, top])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 10 * n // 2 <= len(filt.entry) <= 12 * n // 2
        # all-pairs rows hold n(n-1)/2 list slots of 8 bytes, not counting their ints
        assert peak < n * (n - 1) // 2 * 8 // 4


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

    def test_stages_equal_each_stage_graphs_own_reduction(self):
        rng = random.Random(507)
        filts = [vr_filtration(random_cloud(rng, max_points=10)) for _ in range(4)]
        filts += [vr_filtration(pc, ts) for pc in tied_clouds()[::4] for ts in (None, [1, 2], [0, 1, 2, 5])]
        filts.append(vr_filtration(PointCloud.from_distance_matrix(SIX_POINT_ROWS)))
        filts.append(vr_filtration(PointCloud.from_distance_matrix(LATE_LINK_EDGE_ROWS), [1, 2]))
        cloud = uniform_cloud(rng, 30)
        filts.append(vr_filtration(cloud, degree_thresholds(cloud, (2, 4, 6))))
        for filt in filts:
            n = filt.cloud.n
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for edge_extended, reduce in ((False, contractible_reduction), (True, edge_extended_reduction)):
                stages = reduce_filtration(filt, edge_extended)
                assert [stage.index for stage in stages] == list(range(filt.stage_count))
                for stage, t in zip(stages, filt.thresholds):
                    g = Graph(range(n), [e for e in pairs if filt.cloud.pair_key(*e) <= t])
                    reduced, trace = reduce(g)
                    assert stage.threshold == t
                    assert stage.graph == g
                    assert stage.reduced == reduced
                    assert [(step.apex, step.link) for step in stage.trace] == [
                        (step.apex, step.link) for step in trace
                    ]



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

    def test_gf3_matches_reference_elimination(self):
        rng = random.Random(3303)
        for _ in range(4):
            filt = vr_filtration(random_cloud(rng, max_points=7))
            m = filt.stage_count
            for dim in (0, 1):
                for i in range(m):
                    for j in range(i, m):
                        assert persistent_betti(filt, i, j, dim, GF3) == (
                            inclusion_rank_mod_p(filt.graphs[i], filt.graphs[j], dim, 3)
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

    def test_matches_oracle_up_to_dimension_three_on_3d_clouds(self):
        # each size is reduced alone, largest first, and skips the
        # cliques the size above already paired: with max_dim 3 the
        # columns of sizes 4 and 3 are cleared, so the dimension-2 bars
        # of the octahedron and of the seeded sphere clouds go through
        # a cleared reduction
        octahedron = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
        rng = random.Random(2018)
        clouds = [octahedron] + [sphere_cloud(rng, rng.randint(10, 14)) for _ in range(6)]
        bars = []
        for pts in clouds:
            filt = vr_filtration(PointCloud.from_points(pts))
            for max_dim in range(4):
                assert barcode(filt, max_dim) == oracle_persistence(filt, max_dim)
            bars.append(len([iv for iv in barcode(filt, 3).in_dim(2) if not iv.essential]))
        assert bars[0] == 1
        assert sum(1 for b in bars[1:] if b) >= 2

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
        with pytest.raises(ValueError, match="field coefficients"):
            barcode(filt, coeffs=Coefficients.integers())

    def test_interval_eps_values_follow_thresholds(self):
        rng = random.Random(4)
        filt = vr_filtration(random_cloud(rng))
        for iv in barcode(filt).intervals:
            assert iv.birth == filt.thresholds[iv.birth_index]
            if iv.death_index is None:
                assert iv.death is None
            else:
                assert iv.death == filt.thresholds[iv.death_index]


def oracle_corpus():
    """Filtrations on which the oracle must equal its reference: seeded
    planar and 3-D clouds, fractional keys and thresholds, pairs beyond
    the last threshold, ties, one point, and no edges."""
    rng = random.Random(2719)
    filts = [vr_filtration(random_cloud(rng, max_points=12)) for _ in range(6)]
    filts += [vr_filtration(PointCloud.from_points(sphere_cloud(rng, rng.randint(8, 12)))) for _ in range(3)]
    n = 8
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = Fraction(rng.randint(1, 40), rng.randint(1, 6))
    matrix = PointCloud.from_distance_matrix(rows)
    filts += [vr_filtration(matrix), vr_filtration(matrix, [Fraction(5, 2), Fraction(17, 3)])]
    pts = [(Fraction(rng.randint(0, 30), 4), Fraction(rng.randint(0, 30), 3)) for _ in range(10)]
    keys = [k for k in PointCloud.from_points(pts).distinct_keys() if k]
    key = keys[len(keys) // 2]  # pairs lie beyond it
    filts.append(vr_filtration(PointCloud.from_points(pts), [key / 3, key * 2 / 3, key]))
    cloud = uniform_cloud(rng, 30)
    filts.append(vr_filtration(cloud, degree_thresholds(cloud, (2, 4, 6))))
    filts += [vr_filtration(pc, ts) for pc in tied_clouds()[:12] for ts in (None, [1, 2])]
    filts += [vr_filtration(PointCloud.from_points([(3, 4)]), ts) for ts in (None, [1])]
    filts.append(vr_filtration(PointCloud.from_points([(0, 0), (5, 0), (0, 5), (5, 5)]), [Fraction(1, 2)]))
    return filts


class TestOracle:
    def test_equals_reference_oracle(self):
        filts = oracle_corpus()
        assert not filts[-1].entry
        for filt in filts:
            for max_dim in range(4):
                assert oracle_persistence(filt, max_dim) == reference_oracle_persistence(filt, max_dim)

    def test_shares_no_collapse_and_finds_each_edge_stage_once(self, monkeypatch):
        cloud = uniform_cloud(random.Random(31), 24)
        filts = [vr_filtration(cloud), vr_filtration(cloud, degree_thresholds(cloud, (3, 6)))]
        wants = [reference_oracle_persistence(filt, 2) for filt in filts]

        def forbidden(*args):
            raise AssertionError("the oracle ran the collapse or the cleared reduction")

        monkeypatch.setattr(persistence, "_cleared_pivots", forbidden)
        monkeypatch.setattr(persistence, "_collapsed_stages", forbidden)
        real = persistence.Filtration.stage_of_key
        keys = []
        monkeypatch.setattr(persistence.Filtration, "stage_of_key", lambda self, key: keys.append(key) or real(self, key))
        for filt, want in zip(filts, wants):
            keys.clear()
            assert oracle_persistence(filt, 2) == want
            assert Counter(keys) == Counter(cloud.pair_key(*e) for e in filt.entry)


# ------------------------------------------------------------------ collapse


def replay_collapse(filt, contractible=greedy_contractible):
    """The collapse of the filtration recomputed from the definitions: the
    final graph's edges, latest entry first and then in descending order,
    each dropped when its common neighborhood passes the test (by default
    the memo-free greedy test) at every stage from its entry on, in the
    filtration left so far. The stage graph changes only at stages where
    an edge still left enters, so the edge's entry stage and those later
    stages are the ones tested. Returns the surviving edges' entry stages."""
    final = filt.graphs[-1]
    left = {e: filt.stage_of_key(filt.cloud.pair_key(*e)) for e in final.edges}
    for e in sorted(left, key=lambda e: (left[e], e), reverse=True):
        s = left[e]
        g = Graph(final.vertices, [f for f, t in left.items() if t <= s])
        later: dict[int, list] = {}
        for f, t in left.items():
            if t > s:
                later.setdefault(t, []).append(f)
        passes = contractible(g.common_neighborhood(*e))
        for t in sorted(later):
            if not passes:
                break
            for f in later[t]:
                g = g.glue_edge(*f)
            passes = contractible(g.common_neighborhood(*e))
        if passes:
            del left[e]
    return left


def uniform_cloud(rng, n, side=10_000):
    pts = set()
    while len(pts) < n:
        pts.add((rng.randrange(side), rng.randrange(side)))
    return PointCloud.from_points(sorted(pts))


def degree_thresholds(cloud, degrees):
    """Thresholds at which the stage graph has the given mean degrees."""
    ranked = sorted(cloud.pair_key(i, j) for i in range(cloud.n) for j in range(i + 1, cloud.n))
    return sorted({ranked[cloud.n * deg // 2 - 1] for deg in degrees})


def tied_clouds():
    """Clouds with duplicate points, and dissimilarity matrices with many
    tied entries."""
    rng = random.Random(6060)
    clouds = [
        PointCloud.from_points([(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(4, 12))])
        for _ in range(8)
    ]
    clouds.append(PointCloud.from_points([(0, 0)] * 3 + [(1, 0), (1, 0), (0, 1)]))
    clouds.append(PointCloud.from_distance_matrix([[0 if i == j else 1 for j in range(6)] for i in range(6)]))
    for _ in range(30):
        n = rng.randint(5, 9)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.choice((1, 1, 2, 2, 3))
        clouds.append(PointCloud.from_distance_matrix(rows))
    return clouds


# Random search found this matrix: at thresholds (1, 2), an edge's common
# neighborhood stays strongly contractible while its vertices join but not
# once an edge between two of them enters, so that stage must be tested.
LATE_LINK_EDGE_ROWS = [
    [0, 3, 2, 3, 2, 3, 2, 2, 2],
    [3, 0, 1, 3, 2, 1, 1, 2, 1],
    [2, 1, 0, 1, 2, 1, 1, 2, 2],
    [3, 3, 1, 0, 1, 1, 1, 3, 1],
    [2, 2, 2, 1, 0, 1, 1, 1, 2],
    [3, 1, 1, 1, 1, 0, 1, 2, 1],
    [2, 1, 1, 1, 1, 1, 0, 2, 3],
    [2, 2, 2, 3, 1, 2, 2, 0, 1],
    [2, 1, 2, 1, 2, 1, 3, 1, 0],
]


# Random search found these matrices, every distance a stage. In the
# first, the edge (3, 4) enters at stage 1 and vertex 1 is an apex of its
# link at every stage: vertex 6 joins the link at stage 2, the stage at
# which the kept edge (1, 6) enters. In the other two, a link vertex
# adjacent to every other one is no apex: in the second, one of its kept
# edges to a link vertex enters after that vertex joins; in the third, it
# joins the link after the edge enters.
APEX_EDGE_WITH_JOIN_ROWS = [
    [0, 3, 1, 1, 3, 2, 1],
    [3, 0, 3, 1, 1, 1, 2],
    [1, 3, 0, 1, 2, 1, 2],
    [1, 1, 1, 0, 1, 3, 1],
    [3, 1, 2, 1, 0, 2, 2],
    [2, 1, 1, 3, 2, 0, 1],
    [1, 2, 2, 1, 2, 1, 0],
]
APEX_EDGE_AFTER_JOIN_ROWS = [
    [0, 1, 3, 3, 3, 1],
    [1, 0, 4, 3, 1, 1],
    [3, 4, 0, 3, 1, 1],
    [3, 3, 3, 0, 1, 4],
    [3, 1, 1, 1, 0, 1],
    [1, 1, 1, 4, 1, 0],
]
APEX_JOINS_LATE_ROWS = [
    [0, 1, 3, 1, 4, 4],
    [1, 0, 4, 4, 2, 1],
    [3, 4, 0, 4, 1, 4],
    [1, 4, 4, 0, 4, 1],
    [4, 2, 1, 4, 0, 4],
    [4, 1, 4, 1, 4, 0],
]


class TestCollapse:
    def test_dropped_edges_replay_with_memo_free_deletion_test(self):
        rng = random.Random(8128)
        filts = [vr_filtration(random_cloud(rng, max_points=10)) for _ in range(6)]
        filts += [vr_filtration(pc, ts) for pc in tied_clouds() for ts in (None, [1, 2])]
        filts.append(vr_filtration(PointCloud.from_distance_matrix(LATE_LINK_EDGE_ROWS), [1, 2]))
        cloud = uniform_cloud(rng, 30)
        filts.append(vr_filtration(cloud, degree_thresholds(cloud, (2, 4, 6))))
        # every distance a stage: near-complete links, many of them cones
        filts.append(vr_filtration(uniform_cloud(rng, 16)))
        dropped = 0
        for filt in filts:
            survivors = _collapsed_stages(filt)
            assert survivors == replay_collapse(filt)
            dropped += filt.graphs[-1].m - len(survivors)
        assert dropped > 0

    def test_apex_check_matches_replay(self):
        for rows in (APEX_EDGE_WITH_JOIN_ROWS, APEX_EDGE_AFTER_JOIN_ROWS, APEX_JOINS_LATE_ROWS):
            filt = vr_filtration(PointCloud.from_distance_matrix(rows))
            assert _collapsed_stages(filt) == replay_collapse(filt)
        # near-complete links at every stage; the package's greedy test,
        # which checks cones first, keeps the replay fast
        filt = vr_filtration(uniform_cloud(random.Random(60), 60))
        survivors = _collapsed_stages(filt)
        assert survivors == replay_collapse(filt, is_strong_contractible)
        assert len(survivors) < filt.graphs[-1].m

    def test_apex_check_needs_every_kept_edge_by_its_join(self, monkeypatch):
        # The edge (0, 1) enters at stage 1 with common neighbors 2 and 3;
        # 3 joins its link at stage 2 through the kept edge (0, 3), and
        # the kept edge (2, 3) enters at the stage given.
        adj = {0: 0b1110, 1: 0b1101, 2: 0b1011, 3: 0b0111}

        def kept(e23):
            return {0: {3: 2}, 1: {}, 2: {3: e23}, 3: {0: 2, 2: e23}}

        def no_sweep(*args):
            raise AssertionError("the sweep ran although 2 is an apex at every stage")

        # with 3: the link is a cone on 2 at every stage
        with monkeypatch.context() as m:
            m.setattr(persistence, "_contractible", no_sweep)
            assert _link_stays_contractible(adj, kept(2), 0, 1, 1)
        # a stage after 3: at stage 2 the link is two points
        assert not _link_stays_contractible(adj, kept(3), 0, 1, 1)

    def test_cached_across_dimensions_and_fields(self):
        filt = vr_filtration(random_cloud(random.Random(12)))
        survivors = _collapsed_stages(filt)
        barcode(filt, max_dim=2, coeffs=GF3)
        assert _collapsed_stages(filt) is survivors

    @pytest.mark.parametrize("n", [50, 100, 200])
    def test_large_clouds_at_explicit_thresholds_match_oracle(self, n):
        rng = random.Random(4400 + n)
        cloud = uniform_cloud(rng, n)
        filt = vr_filtration(cloud, degree_thresholds(cloud, (1, 2, 3, 4, 6, 8)))
        assert barcode(filt, max_dim=2) == oracle_persistence(filt, max_dim=2)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_full_filtrations_match_oracle(self, seed):
        filt = vr_filtration(uniform_cloud(random.Random(seed), 40))
        assert filt.stage_count == 781
        assert barcode(filt, max_dim=2) == oracle_persistence(filt, max_dim=2)

    def test_large_full_filtration_matches_oracle(self):
        filt = vr_filtration(uniform_cloud(random.Random(5), 80))
        assert filt.stage_count == 3161
        assert barcode(filt, max_dim=1) == oracle_persistence(filt, max_dim=1)

    def test_ties_and_duplicates_match_oracle(self):
        for pc in tied_clouds():
            for ts in (None, [1, 2], [0, 1, 2, 5]):
                filt = vr_filtration(pc, ts)
                assert barcode(filt, max_dim=2) == oracle_persistence(filt, max_dim=2)
        filt = vr_filtration(PointCloud.from_distance_matrix(LATE_LINK_EDGE_ROWS), [1, 2])
        assert barcode(filt, max_dim=2) == oracle_persistence(filt, max_dim=2)


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
            ("\n\nnope\n", "<csv>:3: expected header"),
            ("dim,birth_index,death_index,birth_eps,death_eps\n0,0\n",
             "expected 5 fields"),
            ("dim,birth_index,death_index,birth_eps,death_eps\n0,0,-1,0,5\n",
             "requires death_eps inf"),
            ("dim,birth_index,death_index,birth_eps,death_eps\n\n\n0,0,1,0,x\n",
             "<csv>:4: bad field"),
        ],
    )
    def test_malformed(self, text, fragment):
        with pytest.raises(GraphFormatError, match=fragment):
            parse_barcode_csv(text)

    def test_comment_lines_are_skipped(self):
        text = "# a barcode\n" + CSV_HEADER + "\n# dimension 0\n0,0,-1,0,inf\n"
        assert parse_barcode_csv(text) == (Interval(0, 0, None, Fraction(0), None),)
