#!/usr/bin/env python3
"""Seeded benchmark of graphcollapse, timed end to end and per layer.

One workload in this process:

    python3 perfbench/run.py --workload vr_acceptance --seed 441202 --seconds 28 --trace 0

Every workload, each in a fresh process, with a table of every metric:

    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
src/. A run builds its inputs from the seed and sets up (import, inputs
and a warm-up pass), then repeats whole rounds of the workload's
operations while the next round fits in --seconds (at least two rounds).
Each operation is timed alone, after clear_caches(), so it starts cold
as a CLI invocation would, and its time is scaled by a calibration
kernel timed right before and after it (see Runner). A metric sums, over
the corpus, each operation's fastest scaled time in the run. Outputs are
checked against the benchmark's own computations, and the last line of
stdout is one JSON object with the verdict and the metrics.

With --trace 1, untraced and traced rounds alternate, and the run
reports per-layer metrics instead (see tracer.py).
"""

from __future__ import annotations

import argparse
import gc as garbage
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import oracles
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench_out"

MIN_ROUNDS = 2
SETUP_REPEATS = 5
DEFAULT_SECONDS = 28
# Fastest time of calibration_kernel() on the reference machine (2-core
# Xeon KVM guest at 2.1 GHz, Python 3.11.7); see Runner.
REFERENCE_KERNEL_S = 0.002
# Kernel runs before and after each operation; the fastest one counts.
KERNEL_RUNS = 5


def load_program():
    if not (SRC / "graphcollapse" / "__init__.py").is_file():
        print(f"error: no graphcollapse source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import graphcollapse

    return graphcollapse


def src_lines() -> int:
    """Non-blank lines of the Python sources under src/."""
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for line in fh if line.strip())
    return total


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibration_kernel():
    """A fixed job of the benchmark's own code, no program code: GF(2)
    Betti numbers of one fixed 60-vertex graph, about 2 ms."""
    vertices, edges = workloads.geometric_graph(random.Random(0), 6, 10, 9)
    return lambda: oracles.betti_gf2(vertices, edges)


def time_kernel(kernel, times: int) -> float:
    """Fastest of `times` runs of the kernel, in seconds, with the garbage
    collector off so the program's heap does not bill it."""
    best = float("inf")
    garbage.disable()
    try:
        for _ in range(times):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
    finally:
        garbage.enable()
    return best


class Runner:
    """Runs rounds of one workload's operations and keeps every sample.

    In a measured round the calibration kernel runs before the first
    operation and after each one. Each operation's time is also kept
    scaled to the reference machine's speed, as REFERENCE_KERNEL_S over
    the kernel's time right before and after it.

    The host is shared: for tens of seconds at a time it runs this
    process up to 1.7 times slower, so whole runs can land in a slow
    spell. The kernel slows with pure-Python work, so scaled times of
    such work mostly do not.
    """

    def __init__(self, gc, ops, kernel):
        self.gc = gc
        self.ops = ops
        self.kernel = kernel
        self.samples: dict[tuple, list[float]] = defaultdict(list)
        self.scaled: dict[tuple, list[float]] = defaultdict(list)
        self.results: dict[tuple, object] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rounds = 0

    def round(self, calibrate: bool = True) -> float:
        gc = self.gc
        clear = getattr(gc, "clear_caches", None)
        state: dict = {}
        clock = time.perf_counter
        began = clock()
        before = time_kernel(self.kernel, KERNEL_RUNS) if calibrate else None
        for op in self.ops:
            key = (op.metric, op.key)
            if clear is not None:
                clear()
            self.attempted += 1
            start = clock()
            try:
                result = op.run(state)
            except Exception:  # one failed operation is counted; the run goes on
                self.failed += 1
                if self.rounds == 0:
                    print(f"operation {key} failed:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            elapsed = clock() - start
            self.samples[key].append(elapsed)
            if calibrate:
                after = time_kernel(self.kernel, KERNEL_RUNS)
                self.scaled[key].append(elapsed * REFERENCE_KERNEL_S / min(before, after))
                before = after
            if self.rounds == 0:
                self.results[key] = result
            elif result != self.results.get(key, result):
                self.problems.append(f"{key}: round {self.rounds + 1} result differs from round 1")
        self.rounds += 1
        return clock() - began

    def metric(self, name: str, scaled: bool) -> float:
        """Sum over the corpus of each operation's fastest time."""
        samples = self.scaled if scaled else self.samples
        return sum(min(s) for (metric, _), s in samples.items() if metric == name)


def run_workload(args) -> int:
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    began = time.perf_counter()
    gc = load_program()
    import_s = time.perf_counter() - began
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](args.seed)
        ops = workload.operations(gc)
        workloads.warm_up(gc)
        setups.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setups)

    runner = Runner(gc, ops, calibration_kernel())
    layer = None
    if args.trace:
        from tracer import Tracer

        # Untraced and traced rounds alternate until the time is spent; the
        # overhead compares each side's fastest round. Layer metrics come
        # from the warm-up pass and the first traced round.
        tracer = Tracer(gc)
        untraced, traced = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start + untraced[-1] + traced[-1] <= args.seconds:
            untraced.append(runner.round(calibrate=False))
            # A wrapper adds one frame per traced call; keep the headroom
            # the untraced program has.
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(2 * limit)
            tracer.install()
            try:
                if not traced:
                    workloads.warm_up(gc)
                    first_span = tracer.mark()
                traced.append(runner.round(calibrate=False))
            finally:
                tracer.uninstall()
                sys.setrecursionlimit(limit)
            if len(traced) == 1:
                layer = tracer.layer_metrics()
                layer["trace.layer_share"] = (100.0 * tracer.coverage(first_span) / traced[0], "%")
                tracer.write(SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.npz",
                             {"workload": args.workload, "seed": args.seed, "traced_round_s": traced[0]})
                tracer.reset()
        layer["trace.overhead_s"] = (min(traced) - min(untraced), "s")
        layer["src.lines"] = (src_lines(), "lines")
    else:
        start = time.perf_counter()
        while True:
            last = runner.round()
            if runner.rounds >= MIN_ROUNDS and time.perf_counter() - start + last > args.seconds:
                break

    problems = runner.problems + workload.check(runner.results)
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    # Traced runs keep no scaled samples; their timings print unscaled.
    scaled = layer is None
    named = {name: runner.metric(name, scaled and name not in workload.unscaled) for name in workload.metrics}
    roles = {
        role: sum(named[name] for name, r in workload.metrics.items() if r == role)
        for role in ("main", "reference")
    }
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"workload {args.workload} seed {args.seed} rounds {runner.rounds} "
          f"operations {runner.attempted} src.lines {src_lines()} git {git_revision()}")
    print(f"metric setup_s {setup_s:.6f} s")
    print(f"metric peak_rss_mb {peak_rss_mb:.3f} MB")
    for name, value in named.items():
        print(f"metric {name} {value:.6f} s")
        print(f"unscaled {name} {runner.metric(name, scaled=False):.6f} s")
    if layer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "main_s": {"value": roles["main"], "unit": "s"},
            "reference_s": {"value": roles["reference"], "unit": "s"},
        }
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
        for name, (value, unit) in layer.items():
            print(f"layer {name} {value} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    status = 0
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        verdict = json.loads(lines[-1])
        if not verdict["correct"] or verdict["failed"]:
            status = 1
        rows.append((name, "correct", str(verdict["correct"]), ""))
        rows.append((name, "attempted", str(verdict["attempted"]), "ops"))
        rows.append((name, "failed", str(verdict["failed"]), "ops"))
        for metric in ("main_s", "reference_s"):
            if metric in verdict["metrics"]:
                rows.append((name, metric, f"{verdict['metrics'][metric]['value']:.6f}", "s"))
        for line in lines[:-1]:
            parts = line.split()
            if len(parts) == 4 and parts[0] in ("metric", "layer"):
                rows.append((name, *parts[1:]))
    width = max(len(r[1]) for r in rows) if rows else 0
    for name, metric, value, unit in rows:
        print(f"{name:<14} {metric:<{width}} {value:>14} {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=441202)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
