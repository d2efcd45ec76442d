"""Top-level acceptance checks.

Each test here is one headline guarantee, run at full scale with its own
stopwatch. One pass/fail line per criterion under pytest -v.
"""

import random
import time

from graphcollapse.canon import graph_from_canonical
from graphcollapse.census import KNOWN_CONNECTED_COUNTS, check_conjecture
from graphcollapse.complexes import FreePair, clique_complex, collapse_via_trace
from graphcollapse.contract import (
    contractible_reduction,
    edge_extended_reduction,
    is_strong_contractible,
)
from graphcollapse.graphs import Graph
from graphcollapse.homology import ChainVector, Coefficients, boundary, boundary_matrix, clique_basis
from graphcollapse.persistence import (
    PointCloud,
    barcode,
    oracle_persistence,
    parse_distance_matrix,
    vr_filtration,
)

from helpers import (
    GSTAR_COLLAPSE_PAIRS,
    SIX_POINT_ROWS,
    brute_betti_gf2,
    connected_count_brute,
    gstar,
)
from graphcollapse.factories import octahedron


def random_connected_graph(rng, lo=4, hi=10, d_lo=0.3, d_hi=0.7):
    while True:
        n = rng.randint(lo, hi)
        p = rng.uniform(d_lo, d_hi)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
        g = Graph(range(n), edges)
        if len(g.connected_components()) == 1:
            return g


def test_criterion_1_deletion_test_implies_collapsible(census7):
    started = time.monotonic()
    checked = positives = exceptions = 0
    for entry in census7.entries():
        checked += 1
        g = graph_from_canonical(entry.form)
        strong = is_strong_contractible(g)
        assert strong == entry.in_strong
        if not strong:
            continue
        positives += 1
        reduced, trace = contractible_reduction(g)
        cx = clique_complex(g)
        for pair in collapse_via_trace(g, trace):
            cx = cx.collapse(pair)
        if not (reduced.n == 1 and cx.face_count == 1):
            exceptions += 1
    elapsed = time.monotonic() - started
    assert checked == 996
    assert exceptions == 0
    assert elapsed < 600
    print(
        f"ACCEPTANCE 1: PASS - {checked} graphs through n=7, "
        f"{positives} positives all collapsed along their traces, "
        f"0 exceptions, {elapsed:.1f}s (< 600s)"
    )


def test_criterion_2_no_collapsible_without_deletion_test(census7):
    undecided = [e for e in census7.entries() if e.collapsible is None]
    stray = [
        e
        for e in census7.entries()
        if e.collapsible is True and not e.in_strong
    ]
    for e in stray:
        # a survey surprise is reported, not turned into a failure
        print(
            f"FINDING: collapsible but fails the deletion test: "
            f"n={e.vertex_count} form={e.form.to_hex()}"
        )
    assert not undecided
    report = check_conjecture(census7)
    assert report.holds == (not stray)
    print(
        f"ACCEPTANCE 2: PASS - bucket (collapsible, test-negative) has "
        f"{len(stray)} entries through n=7, 0 undecided"
    )


def test_criterion_3_reductions_preserve_betti_numbers():
    started = time.monotonic()
    rng = random.Random(903011)
    for _ in range(500):
        g = random_connected_graph(rng)
        want = brute_betti_gf2(g, 9)
        vertex_reduced, _ = contractible_reduction(g)
        edge_reduced, _ = edge_extended_reduction(g)
        assert brute_betti_gf2(vertex_reduced, 9) == want
        assert brute_betti_gf2(edge_reduced, 9) == want
    elapsed = time.monotonic() - started
    assert elapsed < 300
    print(
        f"ACCEPTANCE 3: PASS - 500 seeded connected graphs (n <= 10, "
        f"density 0.3-0.7), both reductions match direct boundary-rank "
        f"Betti numbers exactly, {elapsed:.1f}s (< 300s)"
    )


def test_criterion_4_barcodes_match_matrix_reduction_oracle():
    started = time.monotonic()
    rng = random.Random(441202)
    for _ in range(50):
        count = rng.randint(3, 12)
        pts = set()
        while len(pts) < count:
            pts.add((rng.randint(0, 20), rng.randint(0, 20)))
        filt = vr_filtration(PointCloud.from_points(sorted(pts)))
        assert barcode(filt, max_dim=2) == oracle_persistence(filt, max_dim=2)
    elapsed = time.monotonic() - started
    assert elapsed < 300
    print(
        f"ACCEPTANCE 4: PASS - 50 seeded planar clouds (<= 12 points), "
        f"reduced-stage barcodes equal the direct reduction oracle in "
        f"dimensions 0, 1, 2, {elapsed:.1f}s (< 300s)"
    )


def test_criterion_5_worked_example_collapse_and_pockets():
    g = gstar()
    cx = clique_complex(g)
    for sigma, tau in GSTAR_COLLAPSE_PAIRS[:4]:
        cx = cx.collapse(FreePair(sigma, tau))
    # before the last pair both endpoints of (4, 5) are still joined
    pocket = cx.one_skeleton().common_neighborhood(4, 5)
    assert not is_strong_contractible(pocket)
    sigma, tau = GSTAR_COLLAPSE_PAIRS[4]
    cx = cx.collapse(FreePair(sigma, tau))
    skeleton = cx.one_skeleton()
    assert skeleton == octahedron()
    assert not is_strong_contractible(skeleton)
    print(
        "ACCEPTANCE 5: PASS - all five listed collapses apply in order; "
        "the final skeleton and the shared-neighbor pocket both fail "
        "the deletion test"
    )


def test_criterion_6_six_point_stage_betti_and_barcode():
    pc = parse_distance_matrix(
        "\n".join(" ".join(row) for row in SIX_POINT_ROWS)
    )
    filt = vr_filtration(pc)
    assert filt.stage_count == 5
    h0 = []
    h1 = []
    for g in filt.graphs:
        betti = brute_betti_gf2(g, 1)
        h0.append(betti[0])
        h1.append(betti[1])
    assert h0 == [6, 2, 1, 1, 1]
    assert h1 == [0, 0, 1, 1, 0]
    bc = barcode(filt)
    finite_h1 = [iv for iv in bc.in_dim(1) if iv.death_index is not None]
    assert len(finite_h1) == 1
    assert (finite_h1[0].birth_index, finite_h1[0].death_index) == (2, 4)
    assert not [iv for iv in bc.in_dim(1) if iv.death_index is None]
    print(
        "ACCEPTANCE 6: PASS - six-point cloud walks H0 6,2,1,1,1 and "
        "H1 0,0,1,1,0 with a single finite degree-1 bar over stages 2..4"
    )


def _product(a, b):
    """The product of two matrices given as sequences of rows."""
    return [[sum(x * y for x, y in zip(row, col, strict=True)) for col in zip(*b)] for row in a]


def _mod2(a):
    return [[x % 2 for x in row] for row in a]


def test_criterion_7_boundary_composition_vanishes():
    started = time.monotonic()
    rng = random.Random(770529)
    graphs = dims_checked = 0
    for _ in range(1000):
        n = rng.randint(1, 8)
        p = rng.uniform(0.1, 0.9)
        g = Graph(
            range(n),
            [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < p
            ],
        )
        graphs += 1
        edges = clique_basis(g, 1)
        if edges:
            total = ChainVector(1, {e: 1 for e in edges})
            assert boundary(boundary(total, g)).is_zero
            dims_checked += 1
        dim = 2
        prev = boundary_matrix(g, 1).matrix if edges else None
        while prev is not None and clique_basis(g, dim):
            cur = boundary_matrix(g, dim).matrix
            assert not any(map(any, _product(prev, cur)))
            assert not any(x % 2 for row in _product(_mod2(prev), _mod2(cur)) for x in row)
            prev = cur
            dims_checked += 1
            dim += 1
    elapsed = time.monotonic() - started
    assert graphs == 1000
    print(
        f"ACCEPTANCE 7: PASS - boundary-of-boundary vanishes over Z and "
        f"GF(2) in every populated dimension of 1000 seeded graphs "
        f"({dims_checked} compositions), {elapsed:.1f}s"
    )


def test_criterion_8_connected_graph_counts(census7):
    counts = census7.counts()
    assert [counts[n] for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]
    for n in range(1, 7):
        assert counts[n] == connected_count_brute(n)
    assert counts[7] == KNOWN_CONNECTED_COUNTS[7]
    print(
        "ACCEPTANCE 8: PASS - catalogue sizes 1,1,2,6,21,112,853 match "
        "brute-force relabeling through n=6 and the published value at n=7"
    )
