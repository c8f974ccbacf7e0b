"""The benchmark's four workloads and the correctness gate for their outputs.

A workload is a list of operations.  For the three CLI workloads an
operation is one ``qcomb.cli.main(argv)`` call with stdout captured; for
``bijection-roundtrip`` it is one split/join pair.  An order key, made from
the benchmark's seed and the repetition's index, only permutes the operations
inside a repetition: the set of operations and every call's stdout are the
same for every key.  No call passes ``--jobs``.

``scale="full"`` is what the benchmark measures; ``scale="tiny"`` runs the
same code paths in well under a second, for the benchmark's own tests.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("oracle-sweep", "identity-registry", "engine-tables",
             "bijection-roundtrip")
SCALES = ("full", "tiny")
PINS_PATH = Path(__file__).with_name("pins.json")


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the number of work items it completes."""
    argv: tuple[str, ...]
    items: int

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _span(text: str) -> range:
    lo, _, hi = text.partition("..")
    return range(int(lo), int(hi or lo) + 1)


# oracle-sweep: (family, n range, r range); ext_lah takes no --r.
_ORACLE_GRID = {
    "full": (("stirling2_q", "0..8", "0..2"), ("stirling1_q", "0..7", "0..1"),
             ("lah_q", "0..6", "0..1"), ("bell_q", "0..8", "0..2"),
             ("ext_lah", "0..6", None)),
    "tiny": (("stirling2_q", "0..3", "0..1"), ("stirling1_q", "0..3", "0..1"),
             ("lah_q", "0..3", "0..1"), ("bell_q", "0..3", "0..1"),
             ("ext_lah", "0..3", None)),
}

# engine-tables: (family, n range, r range); the MPoly families take no --r.
_TABLE_GRID = {
    "full": (("stirling2_q", "0..30", "0..2"), ("stirling1_q", "0..12", "0..2"),
             ("lah_q", "0..12", "0..2"), ("bell_q", "0..30", "0..2"),
             ("hsu_shiue", "0..22", None), ("gen_bell", "0..22", None)),
    "tiny": (("stirling2_q", "0..4", "0..1"), ("stirling1_q", "0..4", "0..1"),
             ("lah_q", "0..4", "0..1"), ("bell_q", "0..4", "0..1"),
             ("hsu_shiue", "0..4", None), ("gen_bell", "0..4", None)),
}

# identity-registry at tiny scale: a few cheap identities, default grids.
_TINY_IDENTITIES = ("I-SPIVEY", "I-CQ-REC", "I-GENREC")

# bijection-roundtrip: (size N, splits m of N = m + (N - m)).  Size 6 has
# 13,327 structures, so only its balanced split is run.
_BIJECTION_GRID = {
    "full": tuple((size, tuple(range(1, size))) for size in range(2, 6))
    + ((6, (3,)),),
    "tiny": ((2, (1,)), (3, (1, 2))),
}


def _oracle_calls(scale: str) -> list[Call]:
    calls = []
    for family, n_text, r_text in _ORACLE_GRID[scale]:
        rs = _span(r_text) if r_text else range(1)
        if family == "bell_q":
            items = len(_span(n_text)) * len(rs)
        else:
            items = sum(n + 1 for n in _span(n_text)) * len(rs)
        argv = ("oracle-diff", "--family", family, "--n", n_text)
        calls.append(Call(argv + (("--r", r_text) if r_text else ()), items))
    return calls


def _table_calls(scale: str) -> list[Call]:
    """One call per family and r, so that no single JSON document dominates
    the peak memory whatever the order."""
    calls = []
    for family, n_text, r_text in _TABLE_GRID[scale]:
        argv = ("table", "--format", "json", "--family", family, "--n", n_text)
        ns = _span(n_text)
        items = len(ns) if family in ("bell_q", "gen_bell") else sum(n + 1 for n in ns)
        if r_text is None:
            calls.append(Call(argv, items))
        else:
            calls.extend(Call(argv + ("--r", str(r)), items) for r in _span(r_text))
    return calls


def _identity_calls(scale: str, pins: dict) -> list[Call]:
    cells = pins["identity_cells"]
    names = list(cells) if scale == "full" else _TINY_IDENTITIES
    return [Call(("verify", "--identity", name), cells[name]) for name in names]


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def calls(workload: str, scale: str, pins: dict) -> list[Call]:
    """The CLI calls of one workload, in their canonical order."""
    if workload == "oracle-sweep":
        return _oracle_calls(scale)
    if workload == "identity-registry":
        return _identity_calls(scale, pins)
    if workload == "engine-tables":
        return _table_calls(scale)
    raise ValueError(f"{workload} is not a CLI workload")


def ordered_calls(workload: str, scale: str, pins: dict, order: str) -> list[Call]:
    out = calls(workload, scale, pins)
    random.Random(order).shuffle(out)
    return out


def bijection_plan(scale: str, order: str) -> list[tuple[int, tuple[int, ...]]]:
    """(size, splits) blocks of bijection-roundtrip, permuted by ``order``."""
    rng = random.Random(order)
    plan = [(size, list(splits)) for size, splits in _BIJECTION_GRID[scale]]
    rng.shuffle(plan)
    for _size, splits in plan:
        rng.shuffle(splits)
    return [(size, tuple(splits)) for size, splits in plan]


def bijection_pairs_expected(scale: str, classical) -> dict[str, int]:
    """Pairs per 'N:m' block: every extended Lah distribution of [N], counted
    by the classical triangle, once per split."""
    out = {}
    for size, splits in _BIJECTION_GRID[scale]:
        total = sum(classical.ext_lah_count(size, k) for k in range(size + 1))
        for m in splits:
            out[f"{size}:{m}"] = total
    return out


def operation_count(workload: str, scale: str, pins: dict, classical) -> int:
    if workload == "bijection-roundtrip":
        return sum(bijection_pairs_expected(scale, classical).values())
    return len(calls(workload, scale, pins))


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def _qpoly_at_one(value: dict) -> int:
    if value.get("type") != "qpoly":
        raise ValueError(f"expected a qpoly value, got {value.get('type')!r}")
    return sum(int(c) for c in value["coeffs"])


def _mpoly_at(value: dict, point: tuple[int, int, int, int]) -> int:
    if value.get("type") != "mpoly":
        raise ValueError(f"expected an mpoly value, got {value.get('type')!r}")
    total = 0
    for term in value["terms"]:
        prod = int(term["coeff"])
        for v, e in zip(point, term["exps"]):
            prod *= v ** e
        total += prod
    return total


def _check_table(call: Call, stdout: str, classical) -> str | None:
    rows = json.loads(stdout)
    family = call.argv[call.argv.index("--family") + 1]
    if len(rows) != call.items:
        return f"{len(rows)} rows, expected {call.items}"
    stirling2 = (0, 1, 0, 1)   # (alpha, beta, r, x) reducing to Stirling2
    lah = (1, 1, 0, 1)         # ... and to Lah
    for row in rows:
        if row["family"] != family:
            return f"row of family {row['family']!r}"
        n, k, r, value = row["n"], row["k"], row["r"], row["value"]
        if family == "stirling2_q":
            ok = _qpoly_at_one(value) == classical.stirling2_r(n, k, r)
        elif family == "stirling1_q":
            ok = _qpoly_at_one(value) == classical.stirling1_r(n, k, r)
        elif family == "lah_q":
            ok = _qpoly_at_one(value) == classical.lah_r(n, k, r)
        elif family == "bell_q":
            ok = _qpoly_at_one(value) == classical.bell_r(n, r)
        elif family == "hsu_shiue":
            ok = (_mpoly_at(value, stirling2) == classical.stirling2(n, k)
                  and _mpoly_at(value, lah) == classical.lah(n, k))
        else:
            ok = (_mpoly_at(value, stirling2) == classical.bell(n)
                  and _mpoly_at(value, lah) == sum(classical.lah(n, j)
                                                   for j in range(n + 1)))
        if not ok:
            return f"row {family}(n={n}, k={k}, r={r}) disagrees with the classical count at q=1"
    return None


def check_call(call: Call, rc, stdout: str, classical, pins: dict) -> str | None:
    """Semantic check of one CLI call's outcome; None when it passes."""
    if rc != 0:
        return f"exit code {rc!r}"
    cmd = call.argv[0]
    if cmd == "oracle-diff":
        family = call.argv[call.argv.index("--family") + 1]
        n_cells = len(_span(call.argv[call.argv.index("--n") + 1]))
        if "--r" in call.argv:
            n_cells *= len(_span(call.argv[call.argv.index("--r") + 1]))
        want = f"0 mismatching cell(s) over {n_cells} (n, r) cell(s) of {family}\n"
        return None if stdout == want else f"unexpected report {stdout[-200:]!r}"
    if cmd == "verify":
        name = call.argv[2]
        fields = stdout.split()
        if len(stdout.splitlines()) != 1 or fields[:2] != ["PASS", name]:
            return f"unexpected report {stdout[:200]!r}"
        want = f"cells={pins['identity_cells'][name]}"
        return None if fields[2] == want else f"{fields[2]}, expected {want}"
    try:
        return _check_table(call, stdout, classical)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed table output: {exc!r}"
