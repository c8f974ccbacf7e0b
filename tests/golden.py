"""Regenerate tests/golden.json and tests/golden_faults.json from the
current program.

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

golden_faults.json holds the sha256 of ``check(name).to_json()`` for each
planted fault of ``MUTANTS`` and each identity of ``CALLS`` that calls the
faulty engine, and for the ``q_binomial`` fault and each of
``Q_BINOMIAL_CALLERS``, the engine caches cleared before each check.
tests/test_engine_route.py runs these faults and compares each report's
digest as it goes.
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
FAULTS_PATH = Path(__file__).with_name("golden_faults.json")

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


# identity -> the engines it calls on its default grid
CALLS = {
    "I-PE1": {"stirling2_q"},
    "I-P1E1": {"stirling2_q"},
    "I-P1E2": {"stirling2_q", "bell_q"},
    "I-BIN-5": {"stirling2_q"},
    "I-BIN-6": {"stirling2_q"},
    "I-BIN-7": {"stirling2_q"},
    "I-BIN-8": {"stirling2_q"},
    "I-BIN-9": {"stirling2_q"},
    "I-LAH-CF": {"lah_q"},
    "I-LAH-R": {"lah_q"},
    "I-P2E1": {"lah_q"},
    "I-P2E2": {"lah_q"},
    "I-T3E1": {"stirling1_q"},
    "I-CQ-SUM": {"stirling1_q"},
    "I-CQ-SYM": {"stirling1_q"},
    "I-T4E1": {"stirling2_q"},
    "I-T4E2": {"lah_q"},
    "I-T4E3": {"stirling1_q"},
    "I-T4C1": {"stirling1_q"},
    "I-GENREC": {"hsu_shiue"},
    "I-GENL1": {"hsu_shiue"},
    "I-T5E1": {"hsu_shiue"},
    "I-T5E2": {"hsu_shiue", "gen_bell"},
}

# the identities that call polyring.q_binomial on their default grids
Q_BINOMIAL_CALLERS = {"I-LAH-CF", "I-P2E1", "I-P2E2", "I-QBIN", "I-T3E1",
                      "I-T3E2", "I-T4E2", "I-T4E3", "I-T4C1"}

# one-cell faults: (engine, the arguments whose value gains 1)
MUTANTS = ([(family, (3, 2, r)) for family in ("stirling2_q", "lah_q",
                                               "stirling1_q")
            for r in range(3)]
           + [("bell_q", (4, r)) for r in range(3)]
           + [("hsu_shiue", (3, 2)), ("gen_bell", (3,))])
# the arguments at which the planted q_binomial gains 1
Q_BINOMIAL_AT = (4, 2)


def mutant(real, at):
    """``real`` with 1 added to its value at the arguments ``at``."""
    def fn(*args):
        value = real(*args)
        return value + 1 if args == at else value
    return fn


def fault_key(fault: str, at: tuple, name: str) -> str:
    """The golden_faults.json key of identity ``name`` under one fault."""
    return f"{fault}{at} {name}"


def report_digest(name: str):
    """(report, the sha256 of its JSON) of ``check(name)``, the engine
    caches cleared first."""
    from qcomb import families, identities
    families.clear_caches()
    report = identities.check(name)
    return report, hashlib.sha256(report.to_json().encode()).hexdigest()


def fault_digests() -> dict[str, str]:
    """Fault key -> report digest, each fault planted in turn."""
    from qcomb import families, polyring
    runs = [(families, family, at,
             [name for name, engines in CALLS.items() if family in engines])
            for family, at in MUTANTS]
    runs.append((polyring, "q_binomial", Q_BINOMIAL_AT,
                 sorted(Q_BINOMIAL_CALLERS)))
    out = {}
    for module, attr, at, names in runs:
        real = getattr(module, attr)
        setattr(module, attr, mutant(real, at))
        try:
            for name in names:
                out[fault_key(attr, at, name)] = report_digest(name)[1]
        finally:
            setattr(module, attr, real)
    return out


def main() -> int:
    from qcomb import structures
    os.environ.pop(structures.CELL_CAP_ENV, None)
    golden = digests()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"{sum(map(len, golden.values()))} digests written to {GOLDEN_PATH}")
    faults = fault_digests()
    FAULTS_PATH.write_text(json.dumps(faults, indent=1) + "\n")
    print(f"{len(faults)} digests written to {FAULTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())
