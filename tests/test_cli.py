import ast
import csv
import inspect
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qcomb
from qcomb import cli, families
from qcomb.cli import main, parse_range
from qcomb.families import TableRow
from qcomb.identities import serialize_value, table_json
from qcomb.polyring import MPoly, QPoly


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseRange:
    def test_forms(self):
        assert parse_range("3") == (3, 3)
        assert parse_range("0..5") == (0, 5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_range("5..2")
        with pytest.raises(ValueError):
            parse_range("-1..2")


class TestTable:
    def test_csv_row_count(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--family", "stirling2_q",
                               "--n", "0..5", "--r", "0", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["family", "n", "k", "r", "value"]
        assert len(rows) - 1 == 21
        by_key = {(r[1], r[2], r[3]): r[4] for r in rows[1:]}
        assert by_key[("3", "2", "0")] == "0;2;1"

    def test_json_hsu_shiue(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--family", "hsu_shiue",
                               "--n", "0..3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        row = next(r for r in data if r["n"] == 2 and r["k"] == 1)
        value = MPoly.from_json(row["value"]["terms"])
        assert value == MPoly({(1, 0, 0, 0): 1, (0, 1, 0, 0): 1,
                               (0, 0, 1, 0): 2})

    def test_json_round_trips_qpoly(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--family", "lah_q",
                               "--n", "0..4", "--format", "json")
        assert code == 0
        from qcomb.families import lah_q
        for row in json.loads(out):
            value = QPoly.from_json(row["value"]["coeffs"])
            assert value == lah_q(row["n"], row["k"], row["r"])

    def test_text_bell(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--family", "bell_q",
                               "--n", "4", "--r", "0", "--format", "text")
        assert code == 0
        poly = out.split("=", 1)[1].strip()
        coeffs = {}
        # crude reparse of the printed polynomial to check the q=1 value
        for part in poly.split(" + "):
            c, _, mon = part.partition("*")
            coeffs[part] = int(c) if mon else 1
        assert sum(coeffs.values()) == 15

    def test_unknown_family(self, capsys):
        code, _, err = run_cli(capsys, "table", "--family", "nope", "--n", "0..2")
        assert code == 2
        assert "unknown family" in err

    def test_large_n(self, capsys):
        code, out, err = run_cli(capsys, "table", "--family", "stirling2_q",
                                 "--n", "1500", "--k", "2")
        assert code == 0
        assert out.startswith("stirling2_q(n=1500, k=2, r=0) = ")
        assert out.count("\n") == 1 and err == ""

    @pytest.mark.parametrize("family, r, message", [
        # [r]^1 asks for a list of 10^18 coefficients, 8 * 10^18 bytes that
        # no 64-bit address space can map: MemoryError, no memory touched
        ("stirling2_q", "1000000000000000000", "out of memory"),
        # a length past the index range: OverflowError
        ("stirling2_q", "10000000000000000000",
         "cannot fit 'int' into an index-sized integer"),
        ("lah_q", "10000000000000000000",
         "cannot fit 'int' into an index-sized integer"),
    ])
    def test_huge_r_is_one_error_line(self, capsys, family, r, message):
        code, out, err = run_cli(capsys, "table", "--family", family,
                                 "--n", "1", "--k", "0", "--r", r)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ("table", "--family", "hsu_shiue", "--n", "2", "--r", "1"),
        ("table", "--family", "hsu_shiue", "--n", "2", "--r", "0"),
        ("table", "--family", "gen_bell", "--n", "2", "--r", "1"),
        ("table", "--family", "gen_bell", "--n", "2", "--k", "1"),
        ("table", "--family", "bell_q", "--n", "2", "--k", "0..1"),
        ("oracle-diff", "--family", "bell_q", "--n", "2", "--k", "1"),
    ])
    def test_flag_the_family_does_not_take(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        flag = argv[-2]
        assert code == 2
        assert out == ""
        assert err == f"error: {argv[2]} takes no {flag}\n"


@pytest.mark.parametrize("family", families.FAMILIES)
def test_table_refuses_every_flag_params_omits(capsys, family):
    for flag in ("k", "r"):
        code, _, err = run_cli(capsys, "table", "--family", family, "--n", "1",
                               f"--{flag}", "0")
        refused = flag not in families.PARAMS[family]
        assert (code, err) == ((2, f"error: {family} takes no --{flag}\n")
                               if refused else (0, ""))


@pytest.mark.parametrize("family", cli.DIFF_FAMILIES)
def test_oracle_diff_takes_r_and_the_engines_k(capsys, family):
    engine = "hsu_shiue" if family == "ext_lah" else family
    code, _, err = run_cli(capsys, "oracle-diff", "--family", family,
                           "--n", "1", "--r", "0")
    assert (code, err) == (0, "")
    code, _, err = run_cli(capsys, "oracle-diff", "--family", family,
                           "--n", "1", "--k", "0")
    assert (code, err) == ((0, "") if "k" in families.PARAMS[engine]
                           else (2, f"error: {family} takes no --k\n"))


def reference_table_json(rows) -> str:
    """The reference table_json is checked against: a dict per row, then
    json.dump with indent=2 and sort_keys."""
    out = io.StringIO()
    json.dump([{"family": row.family, "n": row.n, "k": row.k, "r": row.r,
                "provenance": row.provenance,
                "value": serialize_value(row.value)} for row in rows],
              out, indent=2, sort_keys=True)
    return out.getvalue()


# coefficients up to 4,001 digits, under the interpreter's 4,300-digit limit
coeffs = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                   st.integers(-10 ** 4000, 10 ** 4000))
qpolys = st.lists(st.one_of(st.just(0), coeffs), max_size=8).map(QPoly)
mpolys = st.dictionaries(
    st.tuples(*[st.integers(0, 30)] * 4), st.one_of(st.just(0), coeffs),
    max_size=6).map(MPoly)
random_rows = st.builds(
    TableRow, st.one_of(st.sampled_from(families.FAMILIES), st.text()),
    st.integers(0, 10 ** 9), st.none() | st.integers(0, 10 ** 9),
    st.none() | st.integers(0, 10 ** 9), st.one_of(qpolys, mpolys),
    st.one_of(st.sampled_from(["recurrence", "closed-form"]), st.text()))


@settings(max_examples=200, deadline=None)
@given(st.lists(random_rows, max_size=4))
def test_table_json_matches_json_dump(table):
    assert table_json(table) == reference_table_json(table)


def test_table_json_edge_values():
    table = [TableRow("stirling2_q", 1, 0, 0, QPoly(), "recurrence"),
             TableRow("gen_bell", 0, None, None, MPoly(), "recurrence"),
             TableRow("hsu_shiue", 2, 1, None,
                      MPoly({(1, 0, 0, 0): -3, (0, 0, 2, 1): 10 ** 4000}),
                      "recurrence"),
             TableRow("lah_q", 3, 2, 0, QPoly([-1, 0, 10 ** 4000]),
                      "closed-form")]
    assert table_json(table) == reference_table_json(table)
    assert table_json([]) == reference_table_json([]) == "[]"


@pytest.mark.parametrize("family", families.FAMILIES)
def test_table_json_is_byte_identical_for_every_family(capsys, family):
    argv = ["table", "--family", family, "--n", "0..5", "--format", "json"]
    r_range = None
    if "r" in families.PARAMS[family]:
        argv += ["--r", "0..2"]
        r_range = range(3)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    want = families.table_rows(family, range(6), r_range=r_range)
    assert out == reference_table_json(want) + "\n"


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_table_is_all_or_nothing(capsys, monkeypatch, fmt):
    # the second row's coefficient has more digits than str() converts
    def table_rows(family, *ranges):
        yield TableRow(family, 0, 0, 0, QPoly([1]), "recurrence")
        yield TableRow(family, 1, 0, 0, QPoly([10 ** 5000]), "recurrence")

    monkeypatch.setattr(cli, "table_rows", table_rows)
    code, out, err = run_cli(capsys, "table", "--family", "stirling2_q",
                             "--n", "0..1", "--format", fmt)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: Exceeds the limit")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_closed_pipe_is_no_traceback(fmt):
    # about 100 kB, more than a pipe holds, so the writer meets the close
    src = str(Path(qcomb.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-m", "qcomb.cli", "table", "--family", "bell_q",
         "--n", "0..30", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == ""


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_lines() -> list[str]:
    """The qcomb lines of the sh block in the README's CLI section."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("qcomb ")]


def test_readme_has_cli_examples():
    assert len(readme_cli_lines()) >= 9


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_example_exits_0(capsys, line):
    code, out, err = run_cli(capsys, *shlex.split(line)[1:])
    assert (code, err) == (0, "")
    assert out


class TestVerify:
    def test_single_identity(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--identity", "I-SPIVEY",
                               "--m", "0..6", "--n", "0..6")
        assert code == 0
        assert out.startswith("PASS I-SPIVEY")

    def test_ranges_widen_the_default_window(self, capsys):
        # m+n defaults to 0..10, which would clip every cell of m = 11..12
        code, out, _ = run_cli(capsys, "verify", "--identity", "I-SPIVEY",
                               "--m", "11..12", "--n", "0..2")
        assert code == 0
        assert out == "PASS I-SPIVEY     cells=6 m=11..12 m+n=11..14 n=0..2\n"

    def test_unknown_identity(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--identity", "NO-SUCH")
        assert code == 2
        assert "unknown identity" in err

    def test_skipped_identity_exits_0(self, capsys):
        # an empty grid checks no cell, so nothing failed
        code, out, err = run_cli(capsys, "verify", "--identity", "I-LAH-CF",
                                 "--n", "0")
        assert code == 0
        assert out == "SKIPPED I-LAH-CF     cells=0 n=0..0\n"
        assert err == ""

    def test_missing_selector(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2

    def test_default_grids_is_gone(self):
        # every identity runs on its default grid unless a range flag is given
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--all", "--default-grids"])
        assert exc.value.code == 2

    def test_all_passes_one_line_per_identity(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--all")
        assert code == 0
        lines = out.strip().splitlines()
        from qcomb.identities import identity_names
        assert len(lines) == len(identity_names())
        assert all(line.startswith("PASS") for line in lines)

    def test_output_deterministic(self, capsys):
        args = ("table", "--family", "hsu_shiue", "--n", "0..4",
                "--format", "json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_json_report_schema(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--identity", "I-BIN-6",
                               "--n", "0..6", "--format", "json")
        assert code == 0
        reports = json.loads(out)
        assert reports[0]["identity"] == "I-BIN-6"
        assert reports[0]["status"] == "pass"
        assert reports[0]["grid"] == {"n": "0..6"}
        assert reports[0]["cells_checked"] == 28

    def test_several_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--identity", "I-CQ-SYM",
                               "--n", "0..6")
        assert code == 0

    @pytest.mark.parametrize("command", [
        ("verify", "--identity", "I-CQ-SYM"),
        ("oracle-diff", "--family", "lah_q", "--n", "0..2"),
    ])
    def test_jobs_is_not_an_option(self, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--jobs", "2"])
        assert exc.value.code == 2

    def test_counterexample_exit_code(self, capsys):
        from qcomb.identities import REGISTRY, IdentityDef, _grid
        REGISTRY["I-BROKEN"] = IdentityDef(
            "I-BROKEN", "deliberately wrong", {"n": (0, 2)},
            lambda rng: _grid(rng, k="n"), lambda cell: (0, 1))
        try:
            code, out, _ = run_cli(capsys, "verify", "--identity", "I-BROKEN")
            assert code == 1
            assert out.startswith("FAIL I-BROKEN")
            code, out, _ = run_cli(capsys, "verify", "--identity", "I-BROKEN",
                                   "--format", "json")
            assert code == 1
            report = json.loads(out)[0]
            assert report["status"] == "fail"
            assert report["counterexample"]["lhs"] == {"type": "int",
                                                       "value": "0"}
        finally:
            del REGISTRY["I-BROKEN"]


class TestOracleDiff:
    def test_lah_empty_diff(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-diff", "--family", "lah_q",
                               "--n", "0..5")
        assert code == 0
        assert "0 mismatching cell(s)" in out

    def test_ext_lah_empty_diff(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-diff", "--family", "ext_lah",
                               "--n", "0..5")
        assert code == 0

    def test_restricted_partitions(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-diff", "--family", "stirling2_q",
                               "--n", "0..3", "--r", "1")
        assert code == 0

    def test_ext_lah_rejects_r(self, capsys):
        code, _, err = run_cli(capsys, "oracle-diff", "--family", "ext_lah",
                               "--n", "0..3", "--r", "1")
        assert code == 2

    def test_unknown_family(self, capsys):
        code, _, err = run_cli(capsys, "oracle-diff", "--family", "wat",
                               "--n", "0..3")
        assert code == 2

    def test_k_enumerates_only_that_k(self, capsys):
        # the whole cell holds 824073141 structures, k = 11 holds one
        code, out, err = run_cli(capsys, "oracle-diff", "--family", "lah_q",
                                 "--n", "11", "--k", "11")
        assert code == 0
        assert out == "0 mismatching cell(s) over 1 (n, r) cell(s) of lah_q\n"
        assert err == ""

    @pytest.mark.parametrize("k", ["2", "1..3", "0..3", "0..5"])
    def test_k_range_planted_mismatch(self, capsys, monkeypatch, k):
        # one pass for a range covering 0..n, one pass per k otherwise
        real = families.lah_q
        monkeypatch.setattr(families, "lah_q", lambda *a: real(*a) * 2
                            if a == (3, 2, 0) else real(*a))
        code, out, _ = run_cli(capsys, "oracle-diff", "--family", "lah_q",
                               "--n", "3", "--k", k, "--format", "json")
        assert code == 1
        assert json.loads(out) == [{
            "params": {"n": 3, "k": 2, "r": 0},
            "engine": serialize_value(real(3, 2, 0) * 2),
            "oracle": serialize_value(real(3, 2, 0))}]

    def test_deep_cell_is_a_result(self, capsys):
        # one structure, 1100 elements deep in the insertion tree
        code, out, err = run_cli(capsys, "oracle-diff", "--family",
                                 "stirling2_q", "--n", "1100", "--k", "1")
        assert code == 0
        assert out == ("0 mismatching cell(s) over 1 (n, r) cell(s) "
                       "of stirling2_q\n")
        assert err == ""

    def test_large_k_cell_is_a_cap_error(self, capsys):
        code, out, err = run_cli(capsys, "oracle-diff", "--family",
                                 "stirling2_q", "--n", "1500", "--k", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: enumeration cell ('partitions', 1500, 2, 0)")
        assert err.endswith("above the cap 10000000\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("family, engine, planted, params, extra", [
        ("lah_q", "lah_q", (3, 2, 0), {"n": 3, "k": 2, "r": 0}, ()),
        ("bell_q", "bell_q", (3, 1), {"n": 3, "r": 1}, ("--r", "0..1")),
        ("ext_lah", "hsu_shiue", (3, 2), {"n": 3, "k": 2, "r": 0}, ()),
    ])
    def test_planted_mismatch(self, capsys, monkeypatch, family, engine,
                              planted, params, extra):
        # n stays <= 3 so that no memoized engine value above the planted
        # cell is computed from the wrong one
        real = getattr(families, engine)
        monkeypatch.setattr(
            families, engine,
            lambda *a: real(*a) * 2 if a == planted else real(*a))
        want = {"params": params, "engine": serialize_value(real(*planted) * 2),
                "oracle": serialize_value(real(*planted))}
        argv = ("oracle-diff", "--family", family, "--n", "0..3") + extra
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        lines = [line for line in out.splitlines() if "MISMATCH" in line]
        assert lines == [f"MISMATCH {family} {params}: "
                         f"engine={want['engine']} oracle={want['oracle']}"]
        assert out.endswith("1 mismatching cell(s) over "
                            f"{4 * (len(extra) or 1)} (n, r) cell(s) of {family}\n")
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 1
        assert json.loads(out) == [want]


class TestCellCap:
    def test_capacity_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "--cell-cap", "10", "oracle-diff",
                               "--family", "stirling2_q", "--n", "0..6")
        assert code == 2
        assert "above the cap" in err

    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("QCOMB_MAX_ENUM", "10")
        code, _, err = run_cli(capsys, "oracle-diff", "--family",
                               "stirling2_q", "--n", "0..6")
        assert code == 2

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QCOMB_MAX_ENUM", "10")
        code, out, _ = run_cli(capsys, "--cell-cap", "1000000", "oracle-diff",
                               "--family", "stirling2_q", "--n", "0..6")
        assert code == 0

    def test_flag_accepted_after_subcommand(self, capsys, monkeypatch):
        monkeypatch.setenv("QCOMB_MAX_ENUM", "10")
        code, _, _ = run_cli(capsys, "oracle-diff", "--cell-cap", "1000000",
                             "--family", "stirling2_q", "--n", "0..6")
        assert code == 0

    @pytest.mark.parametrize("value", ["-1", "abc", "2.5"])
    def test_bad_flag_value(self, capsys, value):
        code, out, err = run_cli(capsys, f"--cell-cap={value}", "oracle-diff",
                                 "--family", "stirling2_q", "--n", "0..3")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "--cell-cap" in err

    @pytest.mark.parametrize("value", ["-5", "abc"])
    def test_bad_env_value(self, capsys, monkeypatch, value):
        monkeypatch.setenv("QCOMB_MAX_ENUM", value)
        code, out, err = run_cli(capsys, "oracle-diff", "--family", "lah_q",
                                 "--n", "0..3")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "QCOMB_MAX_ENUM" in err

    def test_zero_cap_is_a_cap(self, capsys):
        code, _, err = run_cli(capsys, "--cell-cap", "0", "oracle-diff",
                               "--family", "lah_q", "--n", "0")
        assert code == 2
        assert "above the cap 0" in err


def test_main_is_the_only_error_exit():
    """Every other function raises; main alone writes the one error line to
    stderr and returns 2."""
    for fn in ast.walk(ast.parse(inspect.getsource(cli))):
        if isinstance(fn, ast.FunctionDef) and fn.name != "main":
            for node in ast.walk(fn):
                assert not (isinstance(node, ast.Attribute)
                            and node.attr == "stderr"), fn.name
                assert not (isinstance(node, ast.Return)
                            and isinstance(node.value, ast.Constant)
                            and node.value.value == 2), fn.name
