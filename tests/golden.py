"""Regenerate tests/golden.json from the current program.

    PYTHONPATH=src python3 tests/golden.py

golden.json holds the sha256 of (exit code, stdout, stderr) of every CLI
call below, run in-process through ``qcomb.cli.main`` with every engine and
oracle cache cleared first and no cap in the environment.
tests/test_golden.py only reads it, so a change to any of these outputs
fails there.  Regenerate only when an output is meant to change, and name
each changed digest and its reason with the change.

argparse words its own refusals, and the wording differs between Python
versions, so for the calls in ``REFUSALS`` the digest takes the fixed text
"one error line" in place of a stderr that is one line starting "error: ".
Calls whose outcome depends on the machine's memory are left out.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

_TABLES = ("stirling2_q", "stirling1_q", "lah_q", "bell_q", "hsu_shiue",
           "gen_bell")
_DIFFS = ("stirling2_q", "stirling1_q", "lah_q", "bell_q", "ext_lah")
_TAKES_R = ("stirling2_q", "stirling1_q", "lah_q", "bell_q")

RANGE_RUNS = (
    ("verify", "--identity", "I-SPIVEY", "--m", "0..3", "--n", "0..3"),
    ("verify", "--identity", "I-SPIVEY", "--m", "4", "--n", "2..5",
     "--format", "json"),
    ("verify", "--identity", "I-SPIVEY", "--m", "11..12", "--n", "0..2"),
    ("verify", "--identity", "I-SPIVEY", "--r", "0..1"),
    ("verify", "--identity", "I-MEZO-1", "--m", "0..2", "--n", "0..2",
     "--r", "4..5"),
    ("verify", "--identity", "I-MEZO-1", "--m", "0..12", "--format", "json"),
    ("verify", "--identity", "I-MEZO-1", "--k", "1"),
    ("verify", "--identity", "I-BIN-5", "--m", "0..4", "--n", "0..4"),
    ("verify", "--identity", "I-BIN-6", "--n", "21..25", "--format", "json"),
    ("verify", "--identity", "I-BIN-6", "--n", "3"),
    ("verify", "--identity", "I-BIN-7", "--m", "1..3", "--n", "1..3",
     "--format", "json"),
    ("verify", "--identity", "I-BIN-7", "--m", "0", "--n", "2"),
    ("verify", "--identity", "I-BIN-9", "--n", "0..30"),
    ("verify", "--identity", "I-BIN-9", "--n", "5", "--format", "json"),
    ("verify", "--identity", "I-LAH-CF", "--n", "21..24"),
    ("verify", "--identity", "I-LAH-CF", "--n", "0"),
    ("verify", "--identity", "I-P2E1", "--m", "5..8", "--n", "0..2",
     "--r", "0..1"),
    ("verify", "--identity", "I-T4E2", "--m", "0..2", "--n", "8",
     "--format", "json"),
    ("verify", "--identity", "I-P1E2", "--r", "3"),
    ("verify", "--all", "--n", "0..2"),
)

ERROR_AND_EDGE_RUNS = (
    ("table", "--family", "nope", "--n", "0..2"),
    ("oracle-diff", "--family", "wat", "--n", "0..3"),
    ("verify", "--identity", "NO-SUCH"),
    ("verify",),
    ("table", "--family", "hsu_shiue", "--n", "2", "--r", "1"),
    ("table", "--family", "gen_bell", "--n", "2", "--k", "1"),
    ("table", "--family", "bell_q", "--n", "2", "--k", "0..1"),
    ("oracle-diff", "--family", "bell_q", "--n", "2", "--k", "1"),
    ("oracle-diff", "--family", "ext_lah", "--n", "0..3", "--r", "1"),
    ("oracle-diff", "--family", "stirling2_q", "--n", "1500", "--k", "2"),
    ("oracle-diff", "--family", "lah_q", "--n", "11", "--k", "11"),
    ("--cell-cap", "10", "oracle-diff", "--family", "lah_q", "--n", "0..5"),
    ("--cell-cap", "abc", "oracle-diff", "--family", "lah_q", "--n", "0..3"),
    ("oracle-diff", "--family", "lah_q", "--n", "0..3", "--cell-cap", "-1"),
    ("table", "--family", "lah_q", "--n", "40", "--k", "3", "--format", "csv"),
    ("table", "--family", "bell_q", "--n", "0..3", "--r", "2..4",
     "--format", "csv"),
    ("table", "--family", "stirling1_q", "--n", "3..5", "--k", "7"),
    ("table", "--family", "hsu_shiue", "--n", "2", "--k", "1", "--format", "csv"),
)

REFUSALS = (
    (),
    ("table", "--family", "bell_q", "--n", "5..2"),
    ("verify", "--identity", "I-BIN-5", "--m", "3..2"),
    ("oracle-diff", "--family", "lah_q", "--n", "x"),
    ("table", "--family", "bell_q", "--n", "2", "--jobs", "2"),
    ("verify", "--all", "--jobs", "2"),
    ("table", "--n", "2"),
    ("table", "--family", "bell_q", "--n", "2", "--format", "xml"),
)


def calls(identity_names: list[str]) -> list[tuple[str, ...]]:
    """Every pinned call except the refusals, in a fixed order."""
    out = [("verify", "--identity", name, "--format", fmt)
           for name in identity_names for fmt in ("text", "json")]
    out += [("verify", "--all", "--format", fmt) for fmt in ("text", "json")]
    for family in _TABLES:
        r = ("--r", "0..2") if family in _TAKES_R else ()
        out += [("table", "--family", family, "--n", "0..6", *r, "--format", fmt)
                for fmt in ("json", "csv", "text")]
    for family in _DIFFS:
        r = ("--r", "0..1") if family in _TAKES_R else ()
        out += [("oracle-diff", "--family", family, "--n", "0..6", *r,
                 "--format", fmt) for fmt in ("text", "json")]
        out.append(("oracle-diff", "--family", family, "--n", "0..5", *r,
                    "--k", "1..2"))
    return out + list(RANGE_RUNS) + list(ERROR_AND_EDGE_RUNS)


def outcome(argv: tuple[str, ...]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process call, every cache
    cleared first."""
    from qcomb import cli, families, identities
    families.clear_caches()
    identities._otable.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def digest(argv: tuple[str, ...], refused: bool = False) -> str:
    code, out, err = outcome(argv)
    if refused and err.startswith("error: ") and err.count("\n") == 1 \
            and err.endswith("\n"):
        err = "one error line"
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()


def digests() -> dict[str, dict[str, str]]:
    """The golden document of the current program: call key -> digest."""
    from qcomb import identities
    return {
        "calls": {" ".join(argv): digest(argv)
                  for argv in calls(identities.identity_names())},
        "refusals": {" ".join(argv): digest(argv, refused=True)
                     for argv in REFUSALS},
    }


def main() -> int:
    from qcomb import structures
    os.environ.pop(structures.CELL_CAP_ENV, None)
    golden = digests()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"{sum(map(len, golden.values()))} digests written to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())
