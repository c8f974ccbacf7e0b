"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

Each workload runs end to end at tiny scale, untraced and traced; the gate
is fed corrupted outputs and must count them as failed; BENCHMARK.json must
name exactly the metrics the benchmark prints.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import child
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def qcomb():
    sys.path.insert(0, str(ROOT / "src"))
    import qcomb.bijection
    import qcomb.cli
    return qcomb


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_passes_and_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0.1",
                  "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    provenance = json.loads(proc.stdout.strip().splitlines()[-2])["provenance"]
    assert provenance["seed"] == 7 and provenance["nproc"] >= 1


def test_corrupted_cli_output_counts_as_failed(qcomb):
    pins = workloads.load_pins()
    calls = workloads.calls("engine-tables", "tiny", pins)
    outputs = child._run_calls(qcomb.cli, calls, keep=True)
    items, failed, _errors, _counts = child.judge_calls(calls, outputs, pins,
                                                        qcomb.classical)
    assert failed == [] and items == sum(c.items for c in calls)

    # one coefficient of one row changed: the JSON stays well formed
    bad = next(i for i, c in enumerate(calls) if "stirling2_q" in c.argv)
    rc, _digest, _size, stdout = outputs[bad]
    corrupted = stdout.replace('"2"', '"3"', 1)
    assert corrupted != stdout
    outputs[bad] = (rc, "0" * 64, len(corrupted), corrupted)
    items, failed, errors, _counts = child.judge_calls(calls, outputs, pins,
                                                       qcomb.classical)
    assert failed == [calls[bad].key]
    assert "classical count" in errors[0]
    assert items == sum(c.items for c in calls) - calls[bad].items

    # without the kept stdout, the digest alone catches it
    outputs[bad] = (rc, "0" * 64, len(corrupted), None)
    _items, failed, errors, _counts = child.judge_calls(calls, outputs, pins,
                                                        qcomb.classical)
    assert failed == [calls[bad].key] and "digest" in errors[0]


def test_gate_rejects_wrong_reports_and_exit_codes(qcomb):
    pins = workloads.load_pins()
    verify = workloads.Call(("verify", "--identity", "I-SPIVEY"), 66)
    good = "PASS I-SPIVEY      cells=66 m=0..10 n=0..10\n"
    assert workloads.check_call(verify, 0, good, qcomb.classical, pins) is None
    shrunk = good.replace("cells=66", "cells=65")
    assert "expected cells=66" in workloads.check_call(verify, 0, shrunk,
                                                       qcomb.classical, pins)
    diff = workloads.Call(("oracle-diff", "--family", "lah_q", "--n", "0..3"), 10)
    report = "0 mismatching cell(s) over 4 (n, r) cell(s) of lah_q\n"
    assert workloads.check_call(diff, 0, report, qcomb.classical, pins) is None
    assert workloads.check_call(diff, 1, report, qcomb.classical, pins)


def test_broken_round_trip_counts_as_failed(qcomb):
    plan = workloads.bijection_plan("tiny", "0:0")
    expected = workloads.bijection_pairs_expected("tiny", qcomb.classical)
    results = child._run_bijection(qcomb, plan)
    items, failed, _errors = child.judge_pairs(results, expected)
    assert failed == [] and items == sum(expected.values())

    key, lam, (back, w_lam, w_prod) = results[-1]
    other = results[0][1]
    results[-1] = (key, lam, (other, w_lam, w_prod))
    results[0] = (results[0][0], other, RuntimeError("split failed"))
    items, failed, errors = child.judge_pairs(results, expected)
    assert failed == [results[0][0], key]
    assert items == sum(expected.values()) - 2
    assert "raised" in errors[0] and "join(split(x)) != x" in errors[1]


def test_scaled_time_divides_out_the_kernel_time_around_each_piece():
    with calibrate.ScaledTimer(interval=0.001) as timer:
        for _ in range(300_000):   # bytecode, so the timer can cut it
            pass
    assert len(timer.pieces) > 1 and len(timer.calib) == len(timer.pieces) + 1

    n = calibrate.NOMINAL_S
    timer.pieces = [(1.0, n, n), (2.0, n, n / 2), (1.0, n / 2, n / 2)]
    # the host grew twice as fast during the second piece
    assert timer.wall_s() == 4.0
    assert timer.scaled_s() == pytest.approx(1.0 + 2.0 * 2 / 1.5 + 2.0)


def test_benchmark_json_names_what_the_benchmark_measures():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == \
        ["run_s", "items_per_s", "peak_rss_mb", "setup_s", "fail_ratio"]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == \
        tracer.metric_names() + ["trace.overhead_s"]
    assert all(m["unit"] == tracer.unit(m["name"]) for m in BENCHMARK["per_layer"])


def test_pins_cover_the_default_identity_grids():
    pins = workloads.load_pins()
    assert len(pins["identity_cells"]) == 34
    assert sum(pins["identity_cells"].values()) == 11_638
    for workload in workloads.WORKLOADS[:3]:
        for scale in workloads.SCALES:
            assert all(c.key in pins["digests"]
                       for c in workloads.calls(workload, scale, pins))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "oracle-sweep", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
