"""Every full-scale CLI call of the benchmark's three CLI workloads against
the sha256 of its stdout pinned in perfbench/pins.json, so a change to any
output fails here and not only when the benchmark runs.  The pins are only
read; perfbench/pin.py regenerates them."""

import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from qcomb import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # the module's dataclass looks itself up by name while it is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _workloads()
PINS = workloads.load_pins()


@pytest.mark.parametrize("workload", workloads.WORKLOADS[:3])
def test_full_scale_stdout_matches_its_pin(workload):
    calls = workloads.calls(workload, "full", PINS)
    assert calls
    changed = []
    for call in calls:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(call.argv))
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        if rc != 0 or digest != PINS["digests"][call.key]:
            changed.append((call.key, rc))
    assert changed == []
