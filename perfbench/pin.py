"""Regenerate perfbench/pins.json from the current program.

    python3 perfbench/pin.py

pins.json holds the cell count of every registered identity on its default
grid and the sha256 of the stdout of every CLI call the benchmark makes, at
both scales.  The benchmark counts a call whose stdout differs from its pin
as failed, so CLI output stays byte-identical across changes.  Regenerate
only when an output is meant to change; every output must first pass the
semantic gate, or nothing is written.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def _run(cli, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from qcomb import classical, cli, identities

    cells = {}
    for name in identities.identity_names():
        rc, out = _run(cli, ("verify", "--identity", name))
        found = re.search(r"\bcells=(\d+)", out)
        if rc != 0 or not out.startswith("PASS") or not found:
            print(f"error: {name} does not pass: {out!r}", file=sys.stderr)
            return 1
        cells[name] = int(found.group(1))
    pins = {"identity_cells": cells, "digests": {}}
    for workload in workloads.WORKLOADS[:3]:
        for scale in workloads.SCALES:
            for call in workloads.calls(workload, scale, pins):
                rc, out = _run(cli, call.argv)
                problem = workloads.check_call(call, rc, out, classical, pins)
                if problem is not None:
                    print(f"error: {call.key}: {problem}", file=sys.stderr)
                    return 1
                pins["digests"][call.key] = hashlib.sha256(out.encode()).hexdigest()
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"{len(cells)} identities, {sum(cells.values())} cells; "
          f"{len(pins['digests'])} digests written to {workloads.PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
