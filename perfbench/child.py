"""One cold-cache repetition of a workload, in a fresh interpreter.

Started by run.py as ``python3 perfbench/child.py SPEC`` where SPEC is a JSON
object with the keys ``workload``, ``scale``, ``order``, ``mode`` ("setup" or
"rep"), ``gate``, ``trace``, ``spawn_ns`` (the parent's
``time.monotonic_ns()`` just before it spawned this process) and ``calib_s``
(the calibration kernel's time in the parent just before that).  A gated or
traced repetition keeps every stdout for the semantic gate; the others only
check digests.  A traced repetition writes its spans to
perfbench/out/spans-<workload>.bin.

Set-up is everything until the first call could be made: interpreter start,
``import qcomb.cli`` (which builds the identity registry) and
``build_parser()``.  Only the workload's calls are timed, by calibrate.py's
ScaledTimer, so every time is reported both scaled to the nominal host speed
and as measured (``*_wall_s``).  Digests, the
semantic gate and, in a traced repetition, the span reduction all run after
the timed region and after peak memory has been read.  The last line of
stdout is one JSON object for the parent.
"""

# Only modules the interpreter has loaded anyway come before set-up is timed;
# the harness imports the rest after it.
import contextlib
import io
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _setup():
    sys.path.insert(0, SRC)
    import qcomb.bijection  # noqa: F401  (used by bijection-roundtrip)
    import qcomb.cli
    qcomb.cli.build_parser()
    return qcomb


def _run_calls(cli, calls, keep: bool):
    """Run the calls; returns (exit code, stdout sha256, stdout bytes, stdout
    or None) per call.  Unless ``keep``, each stdout is dropped once hashed,
    as a consumer reading the stream would, so it does not build up in memory."""
    import hashlib  # main() imports it before the timed region
    outputs = []
    for call in calls:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(call.argv))
        except (Exception, SystemExit) as exc:  # SystemExit: argparse refused argv
            rc = f"raised {exc!r}"
        text = buf.getvalue()
        data = text.encode()
        outputs.append((rc, hashlib.sha256(data).hexdigest(), len(data),
                        text if keep else None))
    return outputs


def _run_bijection(qcomb, plan):
    """Split, join and weigh every pair; the comparisons wait for the gate."""
    structures, bijection, stats = qcomb.structures, qcomb.bijection, qcomb.stats
    results = []
    for size, splits in plan:
        lams = list(structures.enum_extended_lah(size, None))
        for m in splits:
            for idx, lam in enumerate(lams):
                try:
                    parts = bijection.split_lah(lam, m, size - m)
                    back = bijection.join_lah(parts.sigma, parts.sigma_labels,
                                              parts.tau, m, size - m)
                    result = (back, stats.weight(lam),
                              stats.weight(parts.sigma) * stats.weight(parts.tau))
                except Exception as exc:  # counted as a failed pair
                    result = exc
                results.append((f"{size}:{m}:{idx}", lam, result))
    return results


def judge_pairs(results, expected: dict[str, int]):
    """Check every split/join pair; returns (items, failed keys, errors)."""
    from collections import Counter
    items, failed, errors = 0, [], []
    pairs = Counter()
    for key, lam, result in results:
        pairs[key.rsplit(":", 1)[0]] += 1
        if isinstance(result, Exception):
            problem = f"raised {result!r}"
        elif result[0] != lam:
            problem = "join(split(x)) != x"
        elif result[1] != result[2]:
            problem = "weight is not multiplicative"
        else:
            items += 1
            continue
        failed.append(key)
        errors.append(f"pair {key}: {problem}")
    if dict(pairs) != expected:
        failed.append("pair-count")
        errors.append(f"pairs per size:split {dict(pairs)}, expected {expected}")
    return items, failed, errors


def judge_calls(calls, outputs, pins: dict, classical):
    """Check every CLI call's exit code and pinned stdout digest, and the
    semantic gate of each call whose stdout was kept; returns (items, failed
    keys, errors, the harness's per-layer counts)."""
    import re

    import workloads
    items, failed, errors = 0, [], []
    counts = {"cli.stdout_bytes": 0, "identities.cells": 0}
    for call, (rc, digest, size, stdout) in zip(calls, outputs):
        counts["cli.stdout_bytes"] += size
        if stdout is None:
            problem = None if rc == 0 else f"exit code {rc!r}"
        else:
            problem = workloads.check_call(call, rc, stdout, classical, pins)
            if call.argv[0] == "verify":
                counts["identities.cells"] += sum(
                    int(c) for c in re.findall(r"\bcells=(\d+)", stdout))
        if problem is None and digest != pins["digests"].get(call.key):
            problem = "stdout digest differs from the pinned one"
        if problem is None:
            items += call.items
        else:
            failed.append(call.key)
            errors.append(f"{call.key}: {problem}")
    return items, failed, errors, counts


def main() -> int:
    spec_text = sys.argv[1]
    qcomb = _setup()
    ready_ns = time.monotonic_ns()

    import hashlib  # noqa: F401  (for _run_calls, kept out of the timed region)
    import json
    import resource
    import statistics
    from pathlib import Path

    import calibrate
    import tracer as tracing
    import workloads

    spec = json.loads(spec_text)
    setup_wall_s = (ready_ns - spec["spawn_ns"]) / 1e9
    timer = calibrate.ScaledTimer(None if spec["trace"] else calibrate.INTERVAL_S)
    # scaled by the kernel's time in the parent just before the spawn and
    # here just after set-up
    setup_s = (setup_wall_s * calibrate.NOMINAL_S * 2
               / (spec["calib_s"] + timer.calib[0]))
    if not qcomb.__file__.startswith(SRC + os.sep):
        print(f"error: imported qcomb from {qcomb.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    if spec["mode"] == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    workload, scale, order = spec["workload"], spec["scale"], spec["order"]
    pins = workloads.load_pins()
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracer.install([qcomb.polyring, qcomb.classical, qcomb.structures,
                        qcomb.stats, qcomb.families, qcomb.oracles,
                        qcomb.bijection, qcomb.identities, qcomb.cli, qcomb])

    if workload == "bijection-roundtrip":
        plan = workloads.bijection_plan(scale, order)
        with timer:
            results = _run_bijection(qcomb, plan)
    else:
        calls = workloads.ordered_calls(workload, scale, pins, order)
        with timer:
            outputs = _run_calls(qcomb.cli, calls, spec["gate"] or spec["trace"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    # -- correctness gate, outside the timed region --------------------------
    if workload == "bijection-roundtrip":
        expected = workloads.bijection_pairs_expected(scale, qcomb.classical)
        items, failed, errors = judge_pairs(results, expected)
        harness_counts = {"bijection.pairs": len(results)}
    else:
        items, failed, errors, harness_counts = judge_calls(
            calls, outputs, pins, qcomb.classical)

    result = {"setup_s": setup_s, "setup_wall_s": setup_wall_s,
              "run_s": timer.scaled_s(), "run_wall_s": timer.wall_s(),
              "calib_s": statistics.median(timer.calib), "peak_rss_mb": peak_rss_mb,
              "items": items, "failed": failed, "errors": errors[:5]}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(harness_counts)
        out_dir = Path(ROOT, "perfbench", "out")
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{workload}.bin")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
