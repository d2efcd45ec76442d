"""numpy and the process pool are loaded only where they are used.

Each test runs a fresh interpreter, because this suite's own process
has long since imported numpy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from graphcollapse.factories import octahedron
from graphcollapse.graphs import to_edge_list_text

from helpers import gstar, rp2_subdivision

SRC = str(Path(__file__).resolve().parents[1] / "src")

COMMANDS_SCRIPT = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout

import graphcollapse
from graphcollapse import cli

runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    runs.append([rc, out.getvalue()])
loaded = sorted(m for m in ("numpy", "concurrent.futures") if m in sys.modules)
print(json.dumps({"runs": runs, "loaded": loaded}))
"""

ARRAYS_SCRIPT = """
import json
import numpy as np

from graphcollapse.contract import ReductionTrace
from graphcollapse.factories import cycle
from graphcollapse.homology import boundary_matrix, induced_map

c4 = cycle(4)
t = ReductionTrace(())
arrays = {
    "boundary": boundary_matrix(c4, 1).matrix,
    "induced": induced_map(c4, c4, t, t, 1).matrix,
}
print(json.dumps({
    k: [isinstance(a, np.ndarray) and a.dtype == np.int64, list(a.shape), a.tolist()]
    for k, a in arrays.items()
}))
"""


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
    argvs = [
        ["check", str(graph), "--with-collapse"],
        ["reduce", str(graph), "--edges"],
        ["homology", str(octa), "--mod", "3"],
        ["vr", "--points", str(points), "--oracle", "--max-dim", "2"],
        ["census", "--max-n", "5"],
        ["homology", str(rp2), "--integers"],
    ]
    result = _run(COMMANDS_SCRIPT, json.dumps(argvs))
    assert [rc for rc, _ in result["runs"]] == [0] * len(argvs)
    assert "oracle: MATCH" in result["runs"][3][1]
    assert "n 5 21" in result["runs"][4][1]
    assert "H_1 0 [2]" in result["runs"][5][1]
    assert result["loaded"] == []


def test_array_results_are_still_int64_ndarrays():
    result = _run(ARRAYS_SCRIPT)
    assert result == {
        # edges (0,1) (0,3) (1,2) (2,3) onto vertices 0..3
        "boundary": [True, [4, 4], [[-1, -1, 0, 0], [1, 0, -1, 0], [0, 0, 1, -1], [0, 1, 0, 1]]],
        "induced": [True, [1, 1], [[1]]],
    }
