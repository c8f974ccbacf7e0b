"""Command-line front end: family tables, identity verification, oracle diffs.

Exit codes: 0 success / no check failed (a skipped identity is no failure),
1 a verification found a counterexample, 2 usage or capacity error, which
``main`` alone reports, or a stdout closed by its reader, which prints
nothing.  All results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import structures
from .families import FAMILIES, PARAMS, table_rows
from .identities import (REGISTRY, check, identity_names, oracle_diff,
                         table_json)
from .oracles import ORACLE_FOR_ENGINE
from .polyring import MPoly, QPoly
from .structures import CellCapError

# oracle-diff family -> its engine; hsu_shiue goes by its oracle's name
_DIFF_ENGINE = {"ext_lah" if e == "hsu_shiue" else e: e for e in ORACLE_FOR_ENGINE}
DIFF_FAMILIES = tuple(_DIFF_ENGINE)


def parse_range(text: str) -> tuple[int, int]:
    """Inclusive range 'a..b' or a single value 'a'."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if lo < 0 or hi < lo:
        raise ValueError(f"invalid range {text!r}")
    return lo, hi


def _value_csv(v: QPoly | MPoly) -> str:
    if isinstance(v, QPoly):
        return ";".join(v.to_json())
    return str(v)


def _reject_unused_flags(args, params: tuple[str, ...]) -> None:
    for name in ("k", "r"):
        if name not in params and getattr(args, name) is not None:
            raise ValueError(f"{args.family} takes no --{name}")


def _emit_table(args) -> int:
    if args.family not in FAMILIES:
        raise ValueError(f"unknown family {args.family!r}; choose from {FAMILIES}")
    _reject_unused_flags(args, PARAMS[args.family])
    n_range = range(args.n[0], args.n[1] + 1)
    k_range = range(args.k[0], args.k[1] + 1) if args.k else None
    r_range = range(args.r[0], args.r[1] + 1) if args.r else None
    rows = list(table_rows(args.family, n_range, k_range, r_range))
    # the whole table is rendered before the first write, so a value that
    # cannot be converted leaves stdout empty
    if args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["family", "n", "k", "r", "value"])
        for row in rows:
            writer.writerow([row.family, row.n,
                             "" if row.k is None else row.k,
                             "" if row.r is None else row.r,
                             _value_csv(row.value)])
        text = out.getvalue()
    elif args.format == "json":
        text = table_json(rows) + "\n"
    else:
        lines = []
        for row in rows:
            params = [f"n={row.n}"]
            if row.k is not None:
                params.append(f"k={row.k}")
            if row.r is not None:
                params.append(f"r={row.r}")
            lines.append(f"{row.family}({', '.join(params)}) = {row.value}\n")
        text = "".join(lines)
    # in buffer-sized pieces: CPython's buffered writer returns a short count
    # without raising when the reader of a pipe leaves during one large write
    for i in range(0, len(text), io.DEFAULT_BUFFER_SIZE):
        sys.stdout.write(text[i:i + io.DEFAULT_BUFFER_SIZE])
    return 0


def _run_verify(args) -> int:
    overrides = {}
    for name in ("m", "n", "k", "r"):
        rng = getattr(args, name)
        if rng is not None:
            overrides[name] = tuple(rng)
    if args.all:
        names = identity_names()
        if overrides:
            raise ValueError("range overrides apply to a single --identity")
    else:
        if not args.identity:
            raise ValueError("provide --identity NAME or --all")
        if args.identity not in REGISTRY:
            raise ValueError(f"unknown identity {args.identity!r}")
        names = [args.identity]

    reports = []
    for name in names:
        reports.append(check(name, overrides or None))
    if args.format == "json":
        json.dump([r.to_json_obj() for r in reports], sys.stdout,
                  indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for r in reports:
            print(r.summary_line())
    return 1 if any(r.status == "fail" for r in reports) else 0


def _diff_cells(args) -> list[tuple[int, int]]:
    n_lo, n_hi = args.n
    r_lo, r_hi = args.r if args.r else (0, 0)
    return [(n, r) for n in range(n_lo, n_hi + 1) for r in range(r_lo, r_hi + 1)]


def _run_oracle_diff(args) -> int:
    if args.family not in DIFF_FAMILIES:
        raise ValueError(
            f"unknown family {args.family!r}; choose from {DIFF_FAMILIES}")
    if args.family == "ext_lah" and args.r and args.r != (0, 0):
        raise ValueError("ext_lah oracle requires r = 0")
    engine_family = _DIFF_ENGINE[args.family]
    # every family takes the oracle's restriction r
    _reject_unused_flags(args, ("r", *PARAMS[engine_family]))
    cells = _diff_cells(args)
    mismatches = [m for n, r in cells
                  for m in oracle_diff(engine_family, n, r, args.k)]
    if args.format == "json":
        json.dump(mismatches, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for m in mismatches:
            print(f"MISMATCH {args.family} {m['params']}: "
                  f"engine={m['engine']} oracle={m['oracle']}")
        print(f"{len(mismatches)} mismatching cell(s) over {len(cells)} "
              f"(n, r) cell(s) of {args.family}")
    return 0 if not mismatches else 1


def _range_arg(text: str) -> tuple[int, int]:
    try:
        return parse_range(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcomb",
        description="Exact q-analogue tables and identity verification.")
    cap_help = ("max structures per enumeration cell "
                f"(overrides ${structures.CELL_CAP_ENV}; "
                f"default {structures.DEFAULT_CELL_CAP})")
    parser.add_argument("--cell-cap", default=None, help=cap_help)
    # accepted after the subcommand too; SUPPRESS keeps the global value
    cap = argparse.ArgumentParser(add_help=False)
    cap.add_argument("--cell-cap", default=argparse.SUPPRESS, help=cap_help)
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", parents=[cap], help="emit one family table")
    p_table.add_argument("--family", required=True,
                         help=f"one of {', '.join(FAMILIES)}")
    p_table.add_argument("--n", type=_range_arg, required=True,
                         help="inclusive range a..b or single value")
    p_table.add_argument("--k", type=_range_arg, default=None,
                         help="defaults to 0..n per row")
    p_table.add_argument("--r", type=_range_arg, default=None,
                         help="defaults to 0")
    p_table.add_argument("--format", choices=("json", "csv", "text"),
                         default="text")

    p_verify = sub.add_parser("verify", parents=[cap], help="run identity checks")
    p_verify.add_argument("--identity", default=None,
                          help="registered identity name")
    p_verify.add_argument("--all", action="store_true",
                          help="run every registered identity")
    for name in ("m", "n", "k", "r"):
        p_verify.add_argument(f"--{name}", type=_range_arg, default=None)
    p_verify.add_argument("--format", choices=("json", "text"), default="text")

    p_diff = sub.add_parser("oracle-diff", parents=[cap],
                            help="compare an engine against its enumeration oracle")
    p_diff.add_argument("--family", required=True,
                        help=f"one of {', '.join(DIFF_FAMILIES)}")
    p_diff.add_argument("--n", type=_range_arg, required=True)
    p_diff.add_argument("--k", type=_range_arg, default=None)
    p_diff.add_argument("--r", type=_range_arg, default=None)
    p_diff.add_argument("--format", choices=("json", "text"), default="text")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.cell_cap is not None:
            structures.set_default_cap(
                structures.parse_cap(args.cell_cap, "--cell-cap"))
        if args.command == "table":
            code = _emit_table(args)
        elif args.command == "verify":
            code = _run_verify(args)
        else:
            code = _run_oracle_diff(args)
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
        return code
    except (CellCapError, ValueError, MemoryError, OverflowError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: send the flush at shutdown to the null device
        # so that it prints nothing either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    finally:
        structures.set_default_cap(None)


if __name__ == "__main__":
    sys.exit(main())
