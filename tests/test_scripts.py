"""The scripts under scripts/ run against the library as it stands."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMPARE_SECTIONS = {
    "linear_algebra", "graphs", "barcodes", "stage_traces", "full_barcodes", "cloud_keys",
    "matrix_keys", "explicit_filtrations", "census", "census8", "projective_plane",
    "canonical_labellings", "collapse_search", "trace_walks", "text_formats", "rank_only",
    "long_relations", "threshold_grid",
}

# sha256 of compare_outputs.py's stdout, the same under any PYTHONHASHSEED.
# A change that alters an observable output on purpose updates this digest
# and names the change in CHANGES.md.
COMPARE_DIGEST = "6175b05934a3e9cd5d335108b46c106ef1fce2506fed2fbe24c9a26c2cc5210b"


# Runs the script given as its first argument with numpy blocked, so an
# import of numpy by the script or the package fails.
WITHOUT_NUMPY = """
import runpy, sys
sys.modules["numpy"] = None
sys.argv = sys.argv[1:]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


def run_script(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-c", WITHOUT_NUMPY, str(ROOT / "scripts" / name)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_vr_pipeline_demo_agrees_with_the_oracle():
    proc = run_script("vr_pipeline_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert "direct matrix reduction agrees" in proc.stdout


def test_compare_outputs_prints_every_section():
    proc = run_script("compare_outputs.py")
    assert proc.returncode == 0, proc.stderr
    assert COMPARE_SECTIONS <= set(json.loads(proc.stdout))
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == COMPARE_DIGEST
