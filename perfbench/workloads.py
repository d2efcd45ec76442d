"""The benchmark's workloads: seeded inputs, one round of timed operations
per workload, and the checks on what the round returned.

A workload builds its inputs from the seed alone. A round runs every
operation once, in a fixed order; each operation is timed on its own and
adds to one named end-to-end metric. The program receives only the
generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import oracles

DEFAULT_SEED = 441202
MAX_DIM = 2


@dataclass(frozen=True)
class Op:
    metric: str  # the end-to-end metric this operation's time adds to
    key: object  # which input of the corpus
    run: Callable[[dict], object]  # takes the round's shared state


# -- planar clouds -----------------------------------------------------------


def planar_clouds(rng: random.Random, sizes: Optional[list[int]] = None) -> list[list[tuple[int, int]]]:
    """The generator of acceptance criterion 4: 50 clouds, each a size
    drawn from 3..12, then that many distinct lattice points in [0, 20]^2,
    sorted. With sizes given, each size is still drawn (so the stream
    stays aligned) but replaced."""
    clouds = []
    for k in range(50):
        size = rng.randint(3, 12)
        if sizes is not None:
            size = sizes[k]
        pts: set[tuple[int, int]] = set()
        while len(pts) < size:
            pts.add((rng.randint(0, 20), rng.randint(0, 20)))
        clouds.append(sorted(pts))
    return clouds


def squared_distances(pts) -> dict[tuple[int, int], int]:
    return {
        (i, j): (pts[i][0] - pts[j][0]) ** 2 + (pts[i][1] - pts[j][1]) ** 2
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
    }


class VrWorkload:
    """Barcodes of Vietoris-Rips filtrations of planar clouds, dimensions
    0 to 2, by the reduced path and by the direct matrix-reduction oracle."""

    metrics = {"vr_barcode_s": "main", "vr_oracle_s": "reference"}
    unscaled: frozenset = frozenset()

    def __init__(self, clouds, thresholds):
        self.clouds = clouds
        self.thresholds = thresholds  # per cloud: explicit thresholds, or None

    def operations(self, gc) -> list[Op]:
        ops = []
        for i, (pts, ts) in enumerate(zip(self.clouds, self.thresholds)):
            def barcode_path(state, i=i, pts=pts, ts=ts):
                filt = gc.vr_filtration(gc.PointCloud.from_points(pts), ts)
                gc.reduce_filtration(filt)
                state[i] = filt
                return gc.barcode(filt, max_dim=MAX_DIM)

            def oracle(state, i=i):
                return gc.oracle_persistence(state[i], max_dim=MAX_DIM)

            ops.append(Op("vr_barcode_s", i, barcode_path))
            ops.append(Op("vr_oracle_s", i, oracle))
        return ops

    def check(self, results: dict) -> list[str]:
        errors = []
        for i, (pts, ts) in enumerate(zip(self.clouds, self.thresholds)):
            bc = results.get(("vr_barcode_s", i))
            ref = results.get(("vr_oracle_s", i))
            if bc is None or ref is None:
                continue
            if bc != ref:
                errors.append(f"cloud {i}: barcode differs from oracle_persistence")
            d2 = squared_distances(pts)
            if ts is None:
                stages = [0] + sorted(set(d2.values()) - {0})
            else:
                stages = ([] if ts[0] == 0 else [0]) + list(ts)
            if list(bc.thresholds) != [Fraction(t) for t in stages]:
                errors.append(f"cloud {i}: stage thresholds differ from the cloud's distances")
                continue
            for s, t in enumerate(stages):
                edges = [pair for pair, d in d2.items() if d <= t]
                betti = oracles.betti_gf2(range(len(pts)), edges, MAX_DIM)
                betti = betti + (0,) * (MAX_DIM + 1 - len(betti))
                alive = [0] * (MAX_DIM + 1)
                for iv in bc.intervals:
                    if iv.birth_index <= s and (iv.death_index is None or s < iv.death_index):
                        alive[iv.dim] += 1
                if tuple(alive) != betti:
                    errors.append(f"cloud {i} stage {s}: {alive} intervals alive, Betti numbers {betti}")
        return errors


def vr_acceptance(seed: int) -> VrWorkload:
    # Cloud sizes are those of the criterion 4 corpus for every seed; the
    # seed moves the points. Drawn sizes would add seed-to-seed spread that
    # the runs could not tell from a change in the program.
    sizes = [len(c) for c in planar_clouds(random.Random(DEFAULT_SEED))]
    clouds = planar_clouds(random.Random(seed), sizes)
    return VrWorkload(clouds, [None] * len(clouds))


# Grid shapes of the clouds: one stratified point per cell (see stratified_points).
THRESHOLD_GRIDS = ((8, 10), (10, 10))
THRESHOLD_SIDE = 10_000
# Mean degree of the stage graph at each of the 8 explicit thresholds.
THRESHOLD_DEGREES = (1, 2, 3, 4, 5, 6, 7, 8)


def vr_thresholds(seed: int) -> VrWorkload:
    rng = random.Random(seed)
    clouds, thresholds = [], []
    for rows, cols in THRESHOLD_GRIDS:
        pts = stratified_points(rng, rows, cols, THRESHOLD_SIDE)
        n = len(pts)
        ranked = sorted(squared_distances(pts).values())
        # Each threshold admits a fixed number of edges, so stage sizes do
        # not drift with the seed.
        ts = sorted({ranked[n * deg // 2 - 1] for deg in THRESHOLD_DEGREES})
        clouds.append(pts)
        thresholds.append(ts)
    return VrWorkload(clouds, thresholds)


# -- random geometric graphs ---------------------------------------------------

RGG_SIDE = 1_000_000
# (grid rows, grid columns, mean degree). The direct path runs on these.
RGG_DIRECT = ((5, 8, 8), (5, 8, 8), (6, 10, 9), (8, 10, 9))
# The reduced path only: the direct path would not finish within a run.
# Their copies with sparse ids are the sparse-id corpus.
RGG_LARGE = ((10, 12, 6), (10, 16, 6), (10, 20, 6))
# Integer homology runs on the direct-corpus graphs with at most this many vertices.
RGG_INTEGER_MAX_N = 40
SPARSE_STRIDE = 8


def stratified_points(rng: random.Random, rows: int, cols: int, side: int) -> list[tuple[int, int]]:
    """One uniform random point in each cell of a rows x cols grid over
    the square, numbered row by row. Even local density keeps costs that
    grow steeply with neighborhood size from swinging with the seed, as
    they do for independent uniform points."""
    w, h = side // cols, side // rows
    return [(c * w + rng.randrange(w), r * h + rng.randrange(h)) for r in range(rows) for c in range(cols)]


def geometric_graph(rng: random.Random, rows: int, cols: int, mean_degree: int) -> tuple[list[int], list[tuple[int, int]]]:
    """A random geometric graph on stratified points: the shortest pairs,
    as many as give the mean degree. A fixed edge count keeps the clique
    counts, and so the boundary matrices' sizes, within a few percent
    across seeds."""
    pts = stratified_points(rng, rows, cols, RGG_SIDE)
    d2 = squared_distances(pts)
    pairs = sorted(d2, key=lambda p: (d2[p], p))
    return list(range(len(pts))), sorted(pairs[: len(pts) * mean_degree // 2])


def _trim(betti) -> tuple[int, ...]:
    """Betti vector without trailing zeros: a reduced graph's complex can
    have lower dimension than the original's."""
    betti = tuple(betti)
    while betti and betti[-1] == 0:
        betti = betti[:-1]
    return betti


class RggWorkload:
    """Homology of random geometric graphs' clique complexes: direct, after
    contractible_reduction, over the integers, and with sparse ids."""

    metrics = {
        "homology_direct_s": "reference",
        "homology_integers_s": "reference",
        "homology_reduced_s": "main",
        "reduce_sparse_ids_s": "main",
        "homology_edge_reduced_s": None,
    }
    # Dense numpy elimination does not slow with the pure-Python
    # calibration kernel: over ten runs its spread was 0.25 scaled and
    # 0.17 unscaled, so its times are reported as measured.
    unscaled = frozenset({"homology_direct_s"})

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.direct = [geometric_graph(rng, *shape) for shape in RGG_DIRECT]
        self.large = [geometric_graph(rng, *shape) for shape in RGG_LARGE]
        self.sparse = [
            ([SPARSE_STRIDE * v for v in vs], [(SPARSE_STRIDE * u, SPARSE_STRIDE * v) for u, v in es])
            for vs, es in self.large
        ]

    def operations(self, gc) -> list[Op]:
        gf2 = gc.Coefficients(2)

        def direct(vs, es):
            return lambda state: gc.homology(gc.Graph(vs, es), gf2, with_representatives=False).betti_vector

        def reduced(vs, es, reducer):
            def run(state):
                # Looked up per call, so a traced run sees the wrapper.
                small, _ = getattr(gc, reducer)(gc.Graph(vs, es))
                return gc.homology(small, gf2, with_representatives=False).betti_vector
            return run

        def integers(vs, es):
            def run(state):
                h = gc.homology(gc.Graph(vs, es), gc.Coefficients(None))
                return h.betti_vector, tuple(grp.torsion for grp in h.groups)
            return run

        ops = []
        for i, (vs, es) in enumerate(self.direct):
            ops.append(Op("homology_direct_s", ("direct", i), direct(vs, es)))
            if len(vs) <= RGG_INTEGER_MAX_N:
                ops.append(Op("homology_integers_s", ("direct", i), integers(vs, es)))
        for key, (vs, es) in self.graphs():
            ops.append(Op("homology_reduced_s", key, reduced(vs, es, "contractible_reduction")))
        for i, (vs, es) in enumerate(self.direct):
            ops.append(Op("homology_edge_reduced_s", ("direct", i), reduced(vs, es, "edge_extended_reduction")))
        for j, (vs, es) in enumerate(self.sparse):
            ops.append(Op("reduce_sparse_ids_s", ("large", j), reduced(vs, es, "contractible_reduction")))
        return ops

    def graphs(self):
        return [(("direct", i), g) for i, g in enumerate(self.direct)] + [
            (("large", j), g) for j, g in enumerate(self.large)
        ]

    def check(self, results: dict) -> list[str]:
        errors = []
        for key, (vs, es) in self.graphs():
            want = _trim(oracles.betti_gf2(vs, es))
            chi = oracles.euler_characteristic(vs, es)
            for metric in ("homology_direct_s", "homology_reduced_s", "homology_edge_reduced_s", "reduce_sparse_ids_s"):
                got = results.get((metric, key))
                if got is None:
                    continue
                if _trim(got) != want:
                    errors.append(f"{key}: {metric} path gives Betti numbers {got}, bitset rank {want}")
                if sum((-1) ** k * b for k, b in enumerate(got)) != chi:
                    errors.append(f"{key}: {metric} Betti numbers {got} miss Euler characteristic {chi}")
                if not got or got[0] != oracles.component_count(vs, es):
                    errors.append(f"{key}: {metric} b0 of {got} is not the component count")
            got_z = results.get(("homology_integers_s", key))
            if got_z is not None:
                ranks, _ = got_z
                if sum((-1) ** k * r for k, r in enumerate(ranks)) != chi:
                    errors.append(f"{key}: integer ranks {ranks} miss Euler characteristic {chi}")
        return errors


# -- census --------------------------------------------------------------------

CENSUS_MAX_N = 7


class CensusWorkload:
    """Every connected graph through CENSUS_MAX_N vertices, classified,
    with the conjecture report and the deletion-order gap. The inputs do
    not depend on the seed."""

    metrics = {"census_s": "main", "census_order_gap_s": "reference"}
    unscaled: frozenset = frozenset()

    def __init__(self, seed: int):
        self.max_n = CENSUS_MAX_N

    def operations(self, gc) -> list[Op]:
        def census(state):
            built = gc.build_census(gc.CensusConfig(max_n=self.max_n, jobs=1))
            state["census"] = built
            return built, gc.check_conjecture(built)

        def order_gap(state):
            return gc.deletion_order_gap(state["census"])

        return [Op("census_s", 0, census), Op("census_order_gap_s", 0, order_gap)]

    def check(self, results: dict) -> list[str]:
        errors = []
        got = results.get(("census_s", 0))
        if got is None:
            return errors
        built, report = got
        counts = tuple(len(built.levels.get(n, ())) for n in range(1, self.max_n + 1))
        if counts != oracles.CONNECTED_GRAPH_COUNTS[: self.max_n]:
            errors.append(f"census level counts {counts}, published {oracles.CONNECTED_GRAPH_COUNTS}")
        violations = positives = 0
        for n in sorted(built.levels):
            forms = [e.form.hex() for e in built.levels[n]]
            if len(set(forms)) != len(forms):
                errors.append(f"census level {n}: repeated canonical forms")
            for entry in built.levels[n]:
                size, edges = oracles.decode_canonical_hex(entry.form.hex())
                vs = range(size)
                if size != n or oracles.component_count(vs, edges) != 1:
                    errors.append(f"census level {n}: {entry.form.hex()} is not a connected {n}-vertex graph")
                    continue
                nbr = oracles.neighbor_masks(vs, edges)
                if entry.in_strong != oracles.greedy_deletable((1 << size) - 1, nbr):
                    errors.append(f"census {entry.form.hex()}: deletion-test flag {entry.in_strong} disagrees with the memo-free rule")
                if entry.in_strong:
                    positives += 1
                    if entry.collapsible is not True:
                        violations += 1
                        errors.append(f"census {entry.form.hex()}: positive but not collapsible")
                if oracles.euler_characteristic(vs, edges) != 1 and entry.collapsible is not False:
                    errors.append(f"census {entry.form.hex()}: Euler characteristic != 1 but not flagged non-collapsible")
        if report.total != sum(counts) or report.strong_total != positives or len(report.violations) != violations:
            errors.append("check_conjecture report disagrees with the census entries")
        gap = results.get(("census_order_gap_s", 0))
        if gap is not None:
            flagged = {e.form.hex() for e in built.entries() if e.in_strong}
            if any(h in flagged for h in gap):
                errors.append("deletion_order_gap lists a graph the greedy test accepts")
        return errors


WORKLOADS = {
    "vr_acceptance": vr_acceptance,
    "vr_thresholds": vr_thresholds,
    "rgg_homology": RggWorkload,
    "census": CensusWorkload,
}


def warm_up(gc) -> None:
    """One small pass through every traced layer, outside any timed
    section: first calls pay for lazy set-up, and in a traced run no
    layer reads zero on a workload that does not otherwise reach it."""
    gc.clear_caches()
    cloud = gc.PointCloud.from_points([(0, 0), (2, 0), (0, 2), (2, 2), (1, 3), (3, 1)])
    filt = gc.vr_filtration(cloud)
    gc.reduce_filtration(filt)
    if gc.barcode(filt, max_dim=MAX_DIM) != gc.oracle_persistence(filt, max_dim=MAX_DIM):
        raise RuntimeError("warm-up barcode differs from the oracle")
    gc.vr_filtration(cloud, [4, 8])
    hexagon = gc.Graph(range(7), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 2), (6, 3), (6, 4)])
    gc.homology(hexagon)
    gc.homology(hexagon, gc.Coefficients(None))
    reduced, trace = gc.contractible_reduction(hexagon)
    gc.collapse_via_trace(hexagon, trace)
    gc.edge_extended_reduction(hexagon)
    gc.contractible_reduction(gc.Graph([SPARSE_STRIDE * v for v in hexagon.vertices],
                                       [(SPARSE_STRIDE * u, SPARSE_STRIDE * v) for u, v in hexagon.edges]))
    gc.is_collapsible(gc.clique_complex(hexagon.induced([0, 1, 2, 3])))
    census = gc.build_census(gc.CensusConfig(max_n=4, jobs=1))
    gc.check_conjecture(census)
    gc.deletion_order_gap(census)
    gc.clear_caches()
