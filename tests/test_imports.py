"""The package runs without numpy, and loads the process pool only
where it is used.

The command test runs a fresh interpreter with numpy blocked, because
this suite's own process has long since imported numpy and the process
pool.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from graphcollapse.contract import ReductionTrace
from graphcollapse.factories import cycle, octahedron
from graphcollapse.graphs import to_edge_list_text
from graphcollapse.homology import boundary_matrix, induced_map

from helpers import gstar, rp2_subdivision

SRC = str(Path(__file__).resolve().parents[1] / "src")

COMMANDS_SCRIPT = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout

sys.modules["numpy"] = None

import graphcollapse
from graphcollapse import cli
from graphcollapse.contract import ReductionTrace
from graphcollapse.factories import cycle
from graphcollapse.homology import Coefficients, boundary_matrix, express_in_homology_basis, homology, induced_map

runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    runs.append([rc, out.getvalue()])
c4 = cycle(4)
t = ReductionTrace(())
reps = homology(c4).group(1).representatives
results = [
    boundary_matrix(c4, 1).matrix,
    express_in_homology_basis(reps[0], reps, c4, 1, Coefficients(2)),
    induced_map(c4, c4, t, t, 1).matrix,
]
print(json.dumps({
    "runs": runs,
    "results": [repr(r) for r in results],
    "pool_loaded": "concurrent.futures" in sys.modules,
}))
"""

# C4's edges (0,1) (0,3) (1,2) (2,3) onto its vertices 0..3
C4_BOUNDARY = ((-1, -1, 0, 0), (1, 0, -1, 0), (0, 0, 1, -1), (0, 1, 0, 1))


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_commands_load_neither_numpy_nor_the_process_pool(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text(to_edge_list_text(gstar()))
    octa = tmp_path / "octa.txt"
    octa.write_text(to_edge_list_text(octahedron()))
    rp2 = tmp_path / "rp2.txt"
    rp2.write_text(to_edge_list_text(rp2_subdivision()))
    points = tmp_path / "pts.txt"
    points.write_text("0 0\n1 0\n1 1\n0 1\n2 3\n")
    witness = tmp_path / "witness.txt"
    argvs = [
        ["check", str(graph), "--with-collapse"],
        ["reduce", str(graph), "--edges"],
        ["homology", str(octa), "--mod", "3"],
        ["vr", "--points", str(points), "--oracle", "--max-dim", "2"],
        ["census", "--max-n", "5"],
        ["homology", str(rp2), "--integers"],
        ["collapse", str(graph), "--witness", str(witness)],
    ]
    result = _run(COMMANDS_SCRIPT, json.dumps(argvs))
    assert [rc for rc, _ in result["runs"]] == [0] * len(argvs)
    assert "oracle: MATCH" in result["runs"][3][1]
    assert "n 5 21" in result["runs"][4][1]
    assert "H_1 0 [2]" in result["runs"][5][1]
    assert result["runs"][6][1] == "collapsible: yes\n"
    assert "0 2 4 < 0 2 4 5" in witness.read_text()
    assert result["results"] == [repr(C4_BOUNDARY), repr((1,)), repr(((1,),))]
    assert not result["pool_loaded"]


def test_matrix_results_are_tuples_of_int_rows():
    c4 = cycle(4)
    t = ReductionTrace(())
    results = {
        "boundary": boundary_matrix(c4, 1).matrix,
        "induced": induced_map(c4, c4, t, t, 1).matrix,
        # 4 vertices and no triangles: shape (4, 0)
        "no columns": boundary_matrix(c4, 2).matrix,
        # C4's class dies in a filled square: shape (0, 1)
        "no rows": induced_map(c4, c4.glue_edge(0, 2), t, t, 1).matrix,
    }
    assert results == {
        "boundary": C4_BOUNDARY,
        "induced": ((1,),),
        "no columns": ((), (), (), ()),
        "no rows": (),
    }
    for m in results.values():
        assert type(m) is tuple
        assert all(type(row) is tuple and all(type(x) is int for x in row) for row in m)
