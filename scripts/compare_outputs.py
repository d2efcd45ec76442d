#!/usr/bin/env python3
"""Print one deterministic JSON document of graphcollapse's observable
outputs on seeded inputs, for checking that a change to the internals
leaves them byte-identical:

    PYTHONPATH=src python3 scripts/compare_outputs.py > after.json

Run it the same way in a checkout of the parent commit and diff the two
files. It covers prime-field elimination (ranks, free-variables-zero
solutions, kernel bases), integer invariant factors, homology over
GF(2), GF(3) and the integers with representatives, pushed cycles with
the coordinates of their classes in the reduced graph's homology basis
(over GF(2) and GF(3) for integer pushes), induced-map matrices, both reductions' traces with their collapse
pairs, the barcodes of the 50 acceptance clouds and both reductions of
each of their stage graphs (trace, each step's link and the reduced
graph's edges), the barcodes of two seeded 40-point clouds with every
distance a stage, the squared-distance keys of seeded integer, rational and
float point clouds, the keys of seeded dissimilarity matrices with
mixed denominators, the stage edge sets of seeded clouds and matrices
under explicit fractional and float thresholds together with
`graphcollapse vr` stdout and exit code on the same inputs, the text of
every census level through n=7 and the sha256 of level 8's, the integer homology of a clique
complex with torsion (a subdivided projective plane) from the library
and the `homology --integers` command, and the canonical orders and
automorphism generators of the seeded graphs and of five
vertex-transitive ones (Petersen, the 4-cube, Paley(13), K4,4, the 3x3
rook's graph), on their own ids and relabelled onto sparse ones, and the collapse search's verdict, witness
and node count on seeded random graphs at three budgets, with the free
pairs and maximal faces of seeded complexes given by random maximal
faces. Its trace_walks section gives, for every seeded graph and both
reductions, what each trace consumer (replay, parsing against the
graph, cycle pushing, collapse lifting) returns or raises on the
graph's own trace and on the next graph's, and the errors of malformed
trace texts. Its text_formats section gives what each text reader
(edge list, adjacency matrix, trace, census level, points, distance
matrix, barcode CSV, complex) returns or raises on fixed valid and
malformed texts with blank lines, comment lines and bad rows after
blank lines, and what Census.load makes of a level file whose name and
header disagree. Its rank_only section gives the Betti numbers of
homology without representatives (the reduction with clearing that
gives the representatives, keeping no relations) over GF(2) and GF(3)
on the seeded graphs and on two seeded random geometric graphs of
60-80 vertices, and the barcodes at max_dim 3 of seeded 3-D clouds. Its
long_relations section gives the GF(2) representative cycles of those
two large graphs and of their contractible reductions, each read off a
relation that the reduction builds by summing columns. Its threshold_grid
section gives the entry lists, in insertion order, and the barcodes of
seeded 1-, 2- and 3-D clouds cut at explicit thresholds before any
other read of the cloud, with rational coordinates, repeated points and
pairs on the grid's cell boundaries. It uses only the standard library
and long-standing public API, and runs in well under a minute.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations
from typing import Optional

from graphcollapse import exactla
from graphcollapse.canon import canonical_labelling
from graphcollapse.census import Census, CensusConfig, build_census, format_level, parse_level
from graphcollapse.cli import main as cli_main
from graphcollapse.complexes import SimplicialComplex, clique_complex, collapse_via_trace, is_collapsible
from graphcollapse.contract import ReductionTrace, contractible_reduction, edge_extended_reduction
from graphcollapse.graphs import Graph, parse_adjacency_matrix, parse_edge_list, to_edge_list_text
from graphcollapse.homology import (
    ChainVector,
    Coefficients,
    boundary,
    clique_basis,
    express_in_homology_basis,
    homology,
    induced_map,
    push_cycle_sequence,
)
from graphcollapse.persistence import (
    PointCloud,
    barcode,
    parse_barcode_csv,
    parse_distance_matrix,
    parse_points,
    reduce_filtration,
    vr_filtration,
)

PRIMES = (2, 3, 5, 7, 2**31 - 1)
FIELDS = (Coefficients(2), Coefficients(3))
REDUCTIONS = (("vertex", contractible_reduction), ("edge", edge_extended_reduction))


def chain(c: ChainVector) -> list:
    return [[list(s), coeff] for s, coeff in c.items()]


def linear_algebra(rng: random.Random) -> list:
    out = []
    for _ in range(150):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        p = rng.choice(PRIMES)
        if rng.random() < 0.5:
            y = [rng.randint(-3, 3) for _ in range(cols)]
            b = [sum(c * yj for c, yj in zip(row, y)) for row in a]
        else:
            b = [rng.randint(-9, 9) for _ in range(rows)]
        sparse = [{i: row[j] for i, row in enumerate(a) if row[j]} for j in range(cols)]
        ech = exactla.Echelon(p, sparse)
        x = exactla.solve_columns(sparse, dict(enumerate(b)), p)
        out.append({
            "p": p,
            "a": a,
            "b": b,
            "rank": ech.rank,
            "solve": None if x is None else [x.get(j, 0) for j in range(cols)],
            "nullspace": [[rel.get(j, 0) for rel in ech.relations] for j in range(cols)],
            "invariant_factors": list(exactla.invariant_factors_of_columns(sparse)),
        })
    return out


def random_graph(rng: random.Random) -> Graph:
    n = rng.randint(4, 11)
    p = rng.uniform(0.3, 0.7)
    return Graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def geometric_graph(rng: random.Random, n: Optional[int] = None, r2: Optional[float] = None) -> Graph:
    """Random geometric graph on uniform points in the unit square, edges
    below the squared radius r2; n and r2 are drawn when not given."""
    n = rng.randint(12, 24) if n is None else n
    pts = [(rng.random(), rng.random()) for _ in range(n)]
    r2 = rng.uniform(0.08, 0.15) if r2 is None else r2
    return Graph(range(n), [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (pts[i][0] - pts[j][0]) ** 2 + (pts[i][1] - pts[j][1]) ** 2 < r2
    ])


def homology_class(z: ChainVector, reduced: Graph, coeffs: Coefficients):
    """Coordinates of the class of the cycle z, reduced over coeffs, in the
    representative basis of the reduced graph's homology, so a class is
    compared even where the pushed chain differs."""
    grp = homology(reduced, coeffs, max_dim=z.dim).group(z.dim)
    reps = grp.representatives if grp else ()
    return express_in_homology_basis(z.reduce(coeffs), reps, reduced, z.dim, coeffs)


def integer_cycle(g: Graph, dim: int, rng: random.Random):
    """A signed sum of boundaries of (dim+1)-cliques: an integer
    dim-cycle, or None if g has no such cliques."""
    cofaces = clique_basis(g, dim + 1)
    if not cofaces:
        return None
    picked = rng.sample(cofaces, min(3, len(cofaces)))
    return boundary(ChainVector(dim + 1, {t: rng.choice((-2, -1, 1, 3)) for t in picked}))


def graph_outputs(g: Graph, rng: random.Random) -> dict:
    out = {"edges": [list(e) for e in g.edges], "integers": homology(g, Coefficients.integers()).to_text()}
    traces, reduced_graphs = {}, {}
    for name, reduce in REDUCTIONS:
        reduced, trace = reduce(g)
        traces[name], reduced_graphs[name] = trace, reduced
        out[name] = {
            "trace": trace.to_text(),
            "reduced": [list(e) for e in reduced.edges],
            "collapse": [[list(fp.sigma), list(fp.tau)] for fp in collapse_via_trace(g, trace)],
        }
    for coeffs in FIELDS:
        h = homology(g, coeffs)
        field = out[str(coeffs)] = {"text": h.to_text(), "groups": []}
        for grp in h.groups:
            pushed, classes = {}, {}
            for name, trace in traces.items():
                cycles = [push_cycle_sequence(z, g, trace, coeffs) for z in grp.representatives]
                pushed[name] = [chain(c) for c in cycles]
                classes[name] = [homology_class(c, reduced_graphs[name], coeffs) for c in cycles]
            field["groups"].append({
                "reps": [chain(z) for z in grp.representatives],
                "pushed": pushed,
                "pushed_classes": classes,
            })
    out["integer_pushes"] = pushes = []
    for dim in (1, 2):
        z = integer_cycle(g, dim, rng)
        if z is None:
            continue
        for name, trace in traces.items():
            c = push_cycle_sequence(z, g, trace, Coefficients.integers())
            classes = [homology_class(c, reduced_graphs[name], coeffs) for coeffs in FIELDS]
            pushes.append([dim, name, chain(c), classes])
    # an induced map from a spanning subgraph missing a few edges
    kept = [e for e in g.edges if rng.random() < 0.8]
    g0 = Graph(g.vertices, kept)
    trace0 = contractible_reduction(g0)[1]
    maps = []
    for coeffs in FIELDS:
        for dim in (0, 1, 2):
            m = induced_map(g0, g, trace0, traces["vertex"], dim, coeffs)
            maps.append({
                "coeffs": str(coeffs),
                "dim": dim,
                "domain": [chain(c) for c in m.domain_basis],
                "codomain": [chain(c) for c in m.codomain_basis],
                "matrix": m.matrix,
            })
    out["induced"] = {"subgraph_edges": [list(e) for e in kept], "maps": maps}
    return out


def outcome(call) -> list:
    """["ok", result] or [exception type name, message]."""
    try:
        return ["ok", call()]
    except Exception as exc:
        return [type(exc).__name__, str(exc)]


MALFORMED_TRACES = (
    "trace 1\nV x\n",
    "trace 1\nE 1 y\n",
    "trace 1\nV -1\n",
    "trace 2\nV 0\nE 3 3\n",
    "trace 1\nE 0 1 2\n",
    "trace one\n",
)


def trace_walks(graphs: list) -> dict:
    """Every trace consumer on each seeded graph's own trace and on the
    next graph's, for both reductions, and malformed trace texts parsed
    with and without a graph."""
    out = []
    for k, g in enumerate(graphs):
        other = graphs[(k + 1) % len(graphs)]
        point = ChainVector(0, {(g.vertices[0],): 1})
        entry = {}
        for name, reduce in REDUCTIONS:
            trace = reduce(g)[1]
            stale = reduce(other)[1]
            entry[name] = {
                "replay": [list(e) for e in trace.replay(g).edges],
                "text_roundtrip": ReductionTrace.from_text(trace.to_text(), g) == trace,
                "stale": {
                    "replay": outcome(lambda: [list(e) for e in stale.replay(g).edges]),
                    "from_text": outcome(
                        lambda: [sorted(s.link) for s in ReductionTrace.from_text(stale.to_text(), g)]
                    ),
                    "push": outcome(lambda: chain(push_cycle_sequence(point, g, stale))),
                    "collapse": outcome(lambda: len(collapse_via_trace(g, stale))),
                },
            }
        out.append(entry)
    malformed = [
        [outcome(lambda: ReductionTrace.from_text(text, h).to_text()) for h in (None, graphs[0])]
        for text in MALFORMED_TRACES
    ]
    return {"graphs": out, "malformed": malformed}


def graph_result(g: Graph) -> list:
    return [list(g.vertices), [list(e) for e in g.edges]]


def cloud_result(pc: PointCloud) -> list:
    return [pc.n, [str(pc.pair_key(i, j)) for i in range(pc.n) for j in range(i + 1, pc.n)]]


def intervals_result(intervals) -> list:
    return [
        [iv.dim, iv.birth_index, iv.death_index, str(iv.birth), None if iv.death is None else str(iv.death)]
        for iv in intervals
    ]


CSV_HEAD = "dim,birth_index,death_index,birth_eps,death_eps\n"

TEXT_FORMATS = (
    ("edge_list", parse_edge_list, graph_result, (
        "3 2\n0 1\n1 2\n",
        "# a path\n\n3 2\n\n0 1\n   # between edges\n1 2\n\n",
        "",
        "# nothing but comments\n\n",
        "\n\n3\n",
        "3 2\n0 1\n\n\n1 x\n",
        "3 2\n0 1\n\n# one edge short\n",
        "3 1\n\n0 5\n",
    )),
    ("adjacency_matrix", parse_adjacency_matrix, graph_result, (
        "0 1\n1 0\n",
        "# two vertices\n\n0,1\n\n1,0\n",
        "\n# none\n",
        "0 1\n\n\n1 2\n",
        "0 1 0\n1 0\n0 0 0\n",
        "0 1\n\n0 0\n",
    )),
    ("trace", ReductionTrace.from_text, ReductionTrace.to_text, (
        "trace 2\nV 0\nE 1 2\n",
        "# steps\n\ntrace 2\n\nV 0\n# the edge\nE 2 1\n\n",
        "\n# empty\n",
        "trace 2\nV 0\n\n\nE 1 y\n",
        "\n\ntrace 3\nV 0\n",
    )),
    ("census_level", parse_level, lambda r: format_level(*r), (
        "census 3 2\n000360 1 1\n0003e0 0 0\n",
        "# level 3\n\ncensus 3 2\n\n000360 1 1\n# triangle\n0003e0 0 ?\n",
        "# empty\n\n",
        "census 3 2\n000360 1 1\n\n\n0003e0 0 x\n",
        "\n\ncensus 3\n",
        "census 3 1\n\n\n0003e0 1 1\n000360 1 1\n",
    )),
    ("points", parse_points, cloud_result, (
        "0 0\n1 0\n0 1.5\n",
        "# a triangle\n\n0,0\n\n1, 0\n  # last\n0 3/2\n",
        "\n# no points\n",
        "0 0\n1 0\n\n\n0 x\n",
        "0 0\n\n\n1 0 0\n",
        "0 0\n1/0 1\n",
    )),
    ("distance_matrix", parse_distance_matrix, cloud_result, (
        "0 1\n1 0\n",
        "# two points\n\n0, 2.5\n\n2.5, 0\n",
        "\n# no rows\n",
        "0 1\n\n\n1 x\n",
        "0 1 2\n\n\n1 0\n2 0 0\n",
        "\n\n0 1\n2 0\n",
    )),
    ("barcode_csv", parse_barcode_csv, intervals_result, (
        CSV_HEAD + "0,0,1,0,3/2\n0,0,-1,0,inf\n",
        CSV_HEAD + "\n0,0,1,0,3/2\n\n0,0,-1,0,inf\n\n",
        "",
        "nope\n",
        "\n\nnope\n",
        "\n\n" + CSV_HEAD + "0,0,-1,0,inf\n",
        CSV_HEAD + "\n\n0,0,1,0,x\n",
        CSV_HEAD + "0,0,1,0,3/2\n\n\n0,0\n",
        CSV_HEAD + "\n\n0,0,-1,0,5\n",
        "# a comment\n" + CSV_HEAD + "0,0,-1,0,inf\n",
        CSV_HEAD + "# a comment\n0,0,-1,0,inf\n",
    )),
    ("complex", SimplicialComplex.from_text, SimplicialComplex.to_text, (
        "0 1 2\n2 3\n",
        "# a triangle and an edge\n\n0 1 2\n\n  # then\n3 2\n",
        "",
        "0 1\n\n\n0 x\n",
        "0 1\n\n\n0 -1\n",
    )),
)


def mislabelled_level() -> list:
    """Census.load on a directory whose census_n5.txt holds level 3."""
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "census_n5.txt"), "w") as fh:
            fh.write("census 3 2\n000360 1 1\n0003e0 0 0\n")
        result = outcome(lambda: sorted(Census.load(tmp).counts().items()))
    if result[0] != "ok":
        result[1] = result[1].replace(tmp, "<dir>")
    return result


def text_formats() -> dict:
    """Each text reader's result or error on fixed valid and malformed
    texts, with its default source name."""
    out = {
        name: [[text, outcome(lambda: show(read(text)))] for text in texts]
        for name, read, show, texts in TEXT_FORMATS
    }
    out["census_load_mislabelled"] = mislabelled_level()
    return out


def acceptance_clouds() -> list:
    """The 50 seeded acceptance clouds of 3-12 integer points."""
    rng = random.Random(441202)
    clouds = []
    for _ in range(50):
        count = rng.randint(3, 12)
        pts = set()
        while len(pts) < count:
            pts.add((rng.randint(0, 20), rng.randint(0, 20)))
        clouds.append(sorted(pts))
    return clouds


def barcodes() -> list:
    out = []
    for k, pts in enumerate(acceptance_clouds()):
        filt = vr_filtration(PointCloud.from_points(pts))
        entry = {"points": pts, "gf2": barcode(filt, max_dim=2).to_csv()}
        if k < 10:
            entry["gf3"] = barcode(filt, max_dim=1, coeffs=Coefficients(3)).to_csv()
        out.append(entry)
    return out


def stage_traces() -> list:
    """Both reductions of every stage graph of the acceptance clouds,
    every distance a stage: each stage's trace, the link of each step
    (which the trace text omits) and the reduced graph's edges."""
    out = []
    for pts in acceptance_clouds():
        filt = vr_filtration(PointCloud.from_points(pts))
        out.append({
            name: [
                {
                    "trace": stage.trace.to_text(),
                    "links": [sorted(step.link) for step in stage.trace],
                    "reduced": [list(e) for e in stage.reduced.edges],
                }
                for stage in reduce_filtration(filt, edge_extended)
            ]
            for name, edge_extended in (("vertex", False), ("edge", True))
        })
    return out


def full_barcodes() -> list:
    """Barcodes of two seeded 40-point clouds with every distance a stage."""
    out = []
    for seed in (4040, 4041):
        rng = random.Random(seed)
        pts = set()
        while len(pts) < 40:
            pts.add((rng.randrange(10_000), rng.randrange(10_000)))
        filt = vr_filtration(PointCloud.from_points(sorted(pts)))
        out.append({"seed": seed, "gf2": barcode(filt, max_dim=2).to_csv()})
    return out


def sphere_cloud(rng: random.Random, n: int, radius: int = 20) -> list:
    """n distinct integer points rounded from uniform points on a sphere."""
    pts = set()
    while len(pts) < n:
        x, y, z = (rng.gauss(0, 1) for _ in range(3))
        s = radius / math.sqrt(x * x + y * y + z * z)
        pts.add((round(x * s), round(y * s), round(z * s)))
    return sorted(pts)


def large_geometric_graphs(rng: random.Random) -> list:
    """Two random geometric graphs of 60-80 vertices, about 12 neighbours
    each."""
    large = []
    for _ in range(2):
        n = rng.randint(60, 80)
        large.append(geometric_graph(rng, n, 12 / (math.pi * n)))
    return large


def rank_only(graphs: list) -> dict:
    """Betti vectors from homology without representatives over GF(2) and
    GF(3), on the seeded graphs and on two seeded random geometric graphs
    of 60-80 vertices, and the GF(2) and GF(3) barcodes at max_dim 3 of
    seeded 3-D clouds: integer points on a sphere, which carry
    dimension-2 bars, and in a cube."""
    rng = random.Random(7077)
    large = large_geometric_graphs(rng)
    betti = [
        {str(coeffs): list(homology(g, coeffs, with_representatives=False).betti_vector) for coeffs in FIELDS}
        for g in graphs + large
    ]
    clouds = [sphere_cloud(rng, rng.randint(10, 16)) for _ in range(6)]
    clouds += [sorted({tuple(rng.randint(0, 9) for _ in range(3)) for _ in range(12)}) for _ in range(4)]
    bars = []
    for pts in clouds:
        filt = vr_filtration(PointCloud.from_points(pts))
        bars.append({"points": pts, **{str(c): barcode(filt, 3, c).to_csv() for c in FIELDS}})
    return {"large_edges": [[list(e) for e in g.edges] for g in large], "betti": betti, "barcodes": bars}


def long_relations() -> list:
    """GF(2) representatives, per dimension, of rank_only's two large
    geometric graphs and of what contractible_reduction leaves of each:
    each cycle is a relation the reduction builds by summing columns."""
    out = []
    for g in large_geometric_graphs(random.Random(7077)):
        for h in (g, contractible_reduction(g)[0]):
            out.append([[chain(z) for z in grp.representatives] for grp in homology(h, Coefficients(2)).groups])
    return out


def cloud_keys() -> list:
    rng = random.Random(7071)
    coordinates = {
        "integer": lambda: rng.randint(-50, 50),
        "rational": lambda: Fraction(rng.randint(-50, 50), rng.randint(1, 12)),
        "float": lambda: rng.uniform(-5, 5),
        "mixed": lambda: rng.choice((rng.randint(-50, 50), Fraction(rng.randint(-50, 50), 7), rng.random())),
    }
    out = []
    for kind, draw in coordinates.items():
        for _ in range(5):
            d = rng.randint(1, 3)
            pts = [tuple(draw() for _ in range(d)) for _ in range(rng.randint(2, 12))]
            pc = PointCloud.from_points(pts)
            out.append({
                "kind": kind,
                "points": [[str(Fraction(x)) for x in p] for p in pts],
                "keys": [str(pc.pair_key(i, j)) for i in range(pc.n) for j in range(i + 1, pc.n)],
                "distinct": [str(k) for k in pc.distinct_keys()],
            })
    return out


def mixed_entry(rng: random.Random):
    return rng.choice((
        rng.randint(0, 20),
        Fraction(rng.randint(0, 60), rng.randint(1, 12)),
        rng.uniform(0, 5),
        f"{rng.randint(0, 9)}.{rng.randint(0, 99):02d}",
    ))


def random_matrix(rng: random.Random) -> list:
    n = rng.randint(2, 10)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = Fraction(mixed_entry(rng))
    return rows


def matrix_keys() -> list:
    rng = random.Random(7072)
    out = []
    for _ in range(20):
        rows = random_matrix(rng)
        pc = PointCloud.from_distance_matrix(rows)
        out.append({
            "rows": [[str(x) for x in r] for r in rows],
            "keys": [str(pc.pair_key(i, j)) for i in range(pc.n) for j in range(i + 1, pc.n)],
            "distinct": [str(k) for k in pc.distinct_keys()],
        })
    return out


def run_vr(args: list) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli_main(args)
    return {"args": args[3:], "rc": rc, "stdout": buf.getvalue()}


def explicit_filtrations() -> list:
    """Stage edge sets under thresholds drawn as fractions and floats, some
    equal to a key and one sometimes above every key, and the `vr`
    command's output on the same cloud and thresholds."""
    rng = random.Random(7073)
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(24):
            if k % 3 == 2:
                rows = random_matrix(rng)
                pc = PointCloud.from_distance_matrix(rows)
                source = ["--matrix", "\n".join(" ".join(str(x) for x in r) for r in rows)]
            else:
                pts = [tuple(Fraction(mixed_entry(rng)) for _ in range(2)) for _ in range(rng.randint(2, 12))]
                pc = PointCloud.from_points(pts)
                source = ["--points", "\n".join(" ".join(str(x) for x in p) for p in pts)]
            keys = pc.distinct_keys()
            top = keys[-1]
            drawn = {Fraction(rng.randint(0, 36), 36) * top for _ in range(3)}
            drawn |= {rng.uniform(0, float(top)) for _ in range(2)}
            drawn.add(rng.choice(keys))
            if rng.random() < 0.5:
                drawn.add(top + Fraction(1, 3))
            ts = sorted(drawn)
            filt = vr_filtration(pc, ts)
            path = os.path.join(tmp, f"cloud{k}.txt")
            with open(path, "w") as fh:
                fh.write(source[1] + "\n")
            text = ",".join(str(Fraction(t)) for t in ts)
            out.append({
                "source": source,
                "thresholds": [str(t) for t in filt.thresholds],
                "stages": [[list(e) for e in g.edges] for g in filt.graphs],
                "vr": [
                    run_vr(["vr", source[0], path, "--thresholds", text]),
                    run_vr(["vr", source[0], path, "--thresholds", text, "--max-dim", "2", "--oracle"]),
                ],
            })
    return out


def threshold_grid() -> list:
    """Entry lists, in insertion order, and GF(2) barcodes of seeded 1-,
    2- and 3-D clouds cut at explicit thresholds before any other read of
    the cloud: integer and rational coordinates, negative ones, repeated
    points, and points r apart along an axis on either side of the
    multiples of r + 1, cut at r^2."""
    rng = random.Random(7074)
    out = []
    for d in (1, 2, 3):
        for kind in ("integer", "rational", "boundary"):
            den = rng.choice((2, 3, 6)) if kind != "integer" else 1
            if kind == "boundary":
                r = rng.randint(3, 9)
                axis = [m * (r + 1) + o for m in range(-2, 3) for o in (-1, 0, r - 1)]
                # half the coordinates at 0, so many pairs differ along one axis only
                pts = [tuple(Fraction(rng.choice((0, rng.choice(axis))), den) for _ in range(d)) for _ in range(40)]
                ts = [Fraction(r * r - 1, den * den), Fraction(r * r, den * den)]
            else:
                pts = [tuple(Fraction(rng.randint(-40, 40), den) for _ in range(d)) for _ in range(rng.randint(30, 50))]
                pts += rng.sample(pts, 5)
                rng.shuffle(pts)
                ranked = sorted(
                    sum((a - b) ** 2 for a, b in zip(p, q)) for k, p in enumerate(pts) for q in pts[k + 1:]
                )
                ts = sorted({ranked[len(pts) * deg // 2] for deg in (2, 4, 6)})
            filt = vr_filtration(PointCloud.from_points(pts), ts)
            out.append({
                "points": [[str(x) for x in p] for p in pts],
                "thresholds": [str(t) for t in filt.thresholds],
                "entry": [[i, j, stage] for (i, j), stage in filt.entry.items()],
                "gf2": barcode(filt, max_dim=2).to_csv(),
            })
    return out


def symmetric_graphs() -> list:
    """The Petersen graph, the 4-cube, Paley(13), K4,4 and the 3x3 rook's
    graph: vertex-transitive, so no cell splits at the canonical
    search's root, and below it refinement runs pass after pass."""
    squares = {i * i % 13 for i in range(1, 13)}
    return [
        Graph(range(10), [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
              + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]),
        Graph(range(16), [(v, v | 1 << b) for v in range(16) for b in range(4) if not v >> b & 1]),
        Graph(range(13), [(i, j) for i, j in combinations(range(13), 2) if (j - i) % 13 in squares]),
        Graph(range(8), [(i, j) for i in range(4) for j in range(4, 8)]),
        Graph(range(9), [(a, b) for a, b in combinations(range(9), 2) if a // 3 == b // 3 or a % 3 == b % 3]),
    ]


def canonical_labellings(graphs: list) -> list:
    rng = random.Random(7074)
    out = []
    for g in graphs:
        sparse = g.relabeled(dict(zip(g.vertices, rng.sample(range(10_000), g.n))))
        for h in (g, sparse):
            order, gens = canonical_labelling(h)
            out.append({
                "vertices": list(h.vertices),
                "order": list(order),
                "generators": [[list(item) for item in p.items()] for p in gens],
            })
    return out


RP2_TRIANGLES = (
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
)


def projective_plane() -> dict:
    """Integer homology, Z/2 torsion included, of the flag complex of the
    barycentric subdivision of the 6-vertex real projective plane (one
    vertex per face, an edge per proper face inclusion), from the library
    and from `graphcollapse homology --integers`."""
    faces = sorted(
        {sub for t in RP2_TRIANGLES for k in (1, 2, 3) for sub in combinations(t, k)},
        key=lambda f: (len(f), f),
    )
    g = Graph(range(len(faces)), [
        (i, j)
        for j, big in enumerate(faces)
        for i, small in enumerate(faces[:j])
        if len(small) < len(big) and set(small) <= set(big)
    ])
    buf = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rp2.txt")
        with open(path, "w") as fh:
            fh.write(to_edge_list_text(g))
        with redirect_stdout(buf):
            rc = cli_main(["homology", "--integers", path])
    return {
        "integers": homology(g, Coefficients.integers()).to_text(),
        "cli": {"rc": rc, "stdout": buf.getvalue()},
    }


def collapse_search() -> dict:
    """is_collapsible's (status, witness, nodes) on 200 seeded random
    graphs at budgets 50, 500 and 3,000, and free_pairs() and
    maximal_faces of 100 seeded from_maximal complexes."""
    rng = random.Random(2016)
    searches = []
    for _ in range(200):
        cx = clique_complex(random_graph(rng))
        for budget in (50, 500, 3000):
            v = is_collapsible(cx, budget=budget)
            witness = None if v.witness is None else [(p.sigma, p.tau) for p in v.witness]
            searches.append((v.status, witness, v.nodes_expanded))
    complexes = []
    for _ in range(100):
        n = rng.randint(1, 8)
        facets = [rng.sample(range(n), rng.randint(1, min(n, 4))) for _ in range(rng.randint(1, 7))]
        cx = SimplicialComplex.from_maximal(facets)
        complexes.append({
            "free_pairs": [(p.sigma, p.tau) for p in cx.free_pairs()],
            "maximal_faces": cx.maximal_faces,
        })
    return {"searches": searches, "complexes": complexes}


def census_levels() -> tuple[dict, str]:
    """The text of every census level through n=7, and the sha256 of the
    text of level 8, from one build."""
    census = build_census(CensusConfig(max_n=8, jobs=1))
    texts = {n: format_level(n, entries) for n, entries in census.levels.items()}
    return {n: texts[n] for n in range(1, 8)}, hashlib.sha256(texts[8].encode()).hexdigest()


def main() -> None:
    rng = random.Random(20181)
    graphs = [random_graph(rng) for _ in range(40)] + [geometric_graph(rng) for _ in range(20)]
    census, census8 = census_levels()
    doc = {
        "linear_algebra": linear_algebra(rng),
        "graphs": [graph_outputs(g, rng) for g in graphs],
        "barcodes": barcodes(),
        "stage_traces": stage_traces(),
        "full_barcodes": full_barcodes(),
        "cloud_keys": cloud_keys(),
        "matrix_keys": matrix_keys(),
        "explicit_filtrations": explicit_filtrations(),
        "threshold_grid": threshold_grid(),
        "census": census,
        "census8": census8,
        "projective_plane": projective_plane(),
        "canonical_labellings": canonical_labellings(graphs + symmetric_graphs()),
        "collapse_search": collapse_search(),
        "trace_walks": trace_walks(graphs),
        "text_formats": text_formats(),
        "rank_only": rank_only(graphs),
        "long_relations": long_relations(),
    }
    json.dump(doc, sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
