"""Benchmark for qcomb: cold-cache verification runs, timed end to end and
per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qcomb checkout.  The loop is closed, with one client
and no threads: each repetition runs in a fresh child interpreter
(perfbench/child.py), so every engine and oracle cache starts cold, as it
does for every ``qcomb`` invocation.

``--trace 0`` measures the end-to-end metrics.  It spawns ten set-up-only
children, then repeats the workload for about ``--seconds`` seconds (and at
least three times).  The seed and the repetition's index permute the
order of the operations; the operations themselves never change.  Every
repetition's CLI stdout is checked against its pinned sha256 digest; the
first repetition also runs the semantic gate.

The times it reports (``run_s``, ``setup_s``, and so ``items_per_s``) are
wall times scaled to a nominal host speed by a calibration kernel timed
around and during them (see calibrate.py), because a shared host's own speed
changes by more than the regressions the benchmark must catch.  The
provenance gives the wall times as measured too.

``--trace 1`` gives the per-layer metrics: one untraced repetition, then two
traced ones whose counts must agree exactly.  ``trace.overhead_s`` is the
traced minus the untraced run time.

The last line of stdout is the result object; the line before it holds the
provenance (Python version, nproc, load average, commit, seed, and the sample
count and quartiles of each end-to-end metric).  Both are also written to
perfbench/out/, next to the spans of the traced repetitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).with_name("child.py")
OUT = Path(__file__).with_name("out")
SETUP_SAMPLES = 10     # set-up-only children, after one discarded warm-up
MIN_REPS = 3
DEADLINE_S = 165.0     # the whole run must end within 180 s


def _spawn(spec: dict, deadline: float) -> tuple[dict | None, str | None]:
    """Run one child; returns (its result, None) or (None, the problem)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None, "no time left before the deadline"
    env = dict(os.environ, PYTHONHASHSEED="0")
    calib_s = calibrate.measure()
    spawn_ns = time.monotonic_ns()
    spec = {**spec, "calib_s": calib_s, "spawn_ns": spawn_ns}
    argv = [sys.executable, str(CHILD), json.dumps(spec)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return None, "child timed out"
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"child exited with code {proc.returncode}"
    try:
        return json.loads(lines[-1]), None
    except json.JSONDecodeError:
        return None, "child printed no result"


def _summary(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"n": len(values), "q1": q1, "median": med, "q3": q3}


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.decode().strip() or None


class Run:
    """Tallies the repetitions of one benchmark run."""

    def __init__(self, ops: int):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.failed_ops: set[str] = set()
        self.problems: list[str] = []

    def add(self, result: dict | None, problem: str | None) -> dict | None:
        self.attempted += self.ops
        if result is None:
            self.failed += self.ops
            self.failed_ops.add("*")
            self.problems.append(problem)
            return None
        self.failed += len(result["failed"])
        self.failed_ops.update(result["failed"])
        self.problems.extend(result["errors"])
        return result

    def fail_ratio(self) -> float:
        """Distinct failed operations over distinct operations, add-one
        smoothed so that a clean run reads 1 / (ops + 1), never 0."""
        failed = self.ops if "*" in self.failed_ops else len(self.failed_ops)
        return (failed + 1) / (self.ops + 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full",
                        help="tiny runs the same paths in well under a second")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qcomb" / "cli.py").is_file():
        print(f"error: no qcomb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from qcomb import classical

    started = time.monotonic()
    deadline = started + DEADLINE_S
    load_start = os.getloadavg()
    pins = workloads.load_pins()
    run = Run(workloads.operation_count(args.workload, args.scale, pins, classical))
    spec = {"workload": args.workload, "scale": args.scale,
            "mode": "rep", "gate": False, "trace": False}

    def rep(index: int, **changes) -> dict | None:
        # each repetition permutes the operations its own way, so a run's
        # median averages over several orders; the seed fixes them all
        order = f"{args.seed}:{index}"
        return run.add(*_spawn({**spec, "order": order, **changes}, deadline))

    if args.trace:
        base = rep(0, gate=True)
        traced = [rep(0, trace=True), rep(0, trace=True)]
        if base is None or None in traced:
            print("error: a repetition produced no result: "
                  + "; ".join(p for p in run.problems if p), file=sys.stderr)
            return 1
        first, second = traced[0]["layers"], traced[1]["layers"]
        timed = {k for k in first if tracer.unit(k) == "s"}
        counts_match = all(first[k] == second[k] for k in first if k not in timed)
        if not counts_match:
            run.problems.append("per-layer counts differ between the two traced runs")
        layers = {k: statistics.median([first[k], second[k]]) if k in timed
                  else first[k] for k in first}
        layers["trace.overhead_s"] = (
            statistics.median([t["run_s"] for t in traced]) - base["run_s"])
        metrics = {k: {"value": v, "unit": tracer.unit(k)} for k, v in layers.items()}
        samples = {"run_s": _summary([base["run_s"]]),
                   "traced_run_s": _summary([t["run_s"] for t in traced]),
                   "run_wall_s": _summary([base["run_wall_s"]]),
                   "traced_run_wall_s": _summary([t["run_wall_s"] for t in traced])}
        correct = run.failed == 0 and counts_match
    else:
        setups, setup_walls = [], []
        for i in range(SETUP_SAMPLES + 1):
            result, problem = _spawn({**spec, "mode": "setup"}, deadline)
            if result is None:
                print(f"error: set-up failed: {problem}", file=sys.stderr)
                return 1
            if i:
                setups.append(result["setup_s"])
                setup_walls.append(result["setup_wall_s"])
        reps = []
        t0 = time.monotonic()
        attempts, rep_wall = 0, 0.0
        # start another repetition while it would end less than half of
        # itself past the mark, so a run measures about --seconds
        while attempts < MIN_REPS or time.monotonic() - t0 + rep_wall / 2 < args.seconds:
            rep_start = time.monotonic()
            result = rep(attempts, gate=attempts == 0)
            attempts += 1
            if result is not None:
                reps.append(result)
                setups.append(result["setup_s"])
                setup_walls.append(result["setup_wall_s"])
            now = time.monotonic()
            rep_wall = now - rep_start
            if now + rep_wall > deadline:
                break
        if not reps:
            print("error: no repetition produced a result: "
                  + "; ".join(p for p in run.problems if p), file=sys.stderr)
            return 1
        samples = {
            "run_s": _summary([r["run_s"] for r in reps]),
            "items_per_s": _summary([r["items"] / r["run_s"] for r in reps]),
            "peak_rss_mb": _summary([r["peak_rss_mb"] for r in reps]),
            "setup_s": _summary(setups),
            "run_wall_s": _summary([r["run_wall_s"] for r in reps]),
            "setup_wall_s": _summary(setup_walls),
            "calib_s": _summary([r["calib_s"] for r in reps]),
        }
        metrics = {
            "run_s": {"value": samples["run_s"]["median"], "unit": "s"},
            "items_per_s": {"value": samples["items_per_s"]["median"], "unit": "1/s"},
            "peak_rss_mb": {"value": samples["peak_rss_mb"]["median"], "unit": "MB"},
            "setup_s": {"value": samples["setup_s"]["median"], "unit": "s"},
            "fail_ratio": {"value": run.fail_ratio(), "unit": "ratio"},
        }
        correct = run.failed == 0

    for problem in run.problems[:10]:
        print(f"failure: {problem}", file=sys.stderr)
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "commit": _commit(), "wall_s": time.monotonic() - started,
        "samples": samples,
    }
    result = {"correct": correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"provenance": provenance, "result": result},
                                   indent=1) + "\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
