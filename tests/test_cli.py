import ast
import csv
import inspect
import io
import json
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qcomb
from qcomb import cli, families, identities, oracles, structures
from qcomb.cli import main, parse_range
from qcomb.families import TableRow
from qcomb.identities import serialize_value, table_json
from qcomb.oracles import oracle_table
from qcomb.polyring import MPoly, QPoly


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_SRC = str(Path(qcomb.__file__).resolve().parents[1])

# a small child runs the call in a child of its own and writes that one's
# peak RSS to stderr: ru_maxrss keeps the peak of the process image that an
# exec replaced, so a call started from the test process reads its size
_PEAK = ("import resource, subprocess, sys\n"
         "code = subprocess.call([sys.executable, '-m', 'qcomb.cli', "
         "*sys.argv[1:]])\n"
         "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, "
         "file=sys.stderr)\nsys.exit(code)")


@pytest.mark.parametrize("argv, bound_mb", [
    # a diagonal cell of monomials q^C(j,2): 6.3 s at 775 MB when every
    # value kept its leading zeros
    ("oracle-diff --family stirling2_q --n 800 --k 800", 100),
    # the q-Lah corner q^(r(r-1)) on both routes: 506 MB the same way
    ("oracle-diff --family lah_q --n 0 --r 4000", 50),
])
def test_big_cells_peak_under_their_bounds(argv, bound_mb):
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK, *argv.split()], capture_output=True,
        env={**os.environ, "PYTHONPATH": _SRC}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().startswith("0 mismatching cell(s)")
    unit = 1 if sys.platform == "darwin" else 1024  # bytes there, KB here
    peak_mb = int(proc.stderr.split()[-1]) * unit / 2**20
    assert peak_mb < bound_mb


class TestParseRange:
    def test_forms(self):
        assert parse_range("3") == (3, 3)
        assert parse_range("0..5") == (0, 5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_range("5..2")
        with pytest.raises(ValueError):
            parse_range("-1..2")
        assert parse_range(f"0..{sys.maxsize - 1}") == (0, sys.maxsize - 1)
        with pytest.raises(ValueError, match="is above"):
            parse_range(f"0..{sys.maxsize}")


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
        value = MPoly({tuple(t["exps"]): int(t["coeff"])
                       for t in row["value"]["terms"]})
        assert value == MPoly({(1, 0, 0, 0): 1, (0, 1, 0, 0): 1,
                               (0, 0, 1, 0): 2})

    def test_json_round_trips_qpoly(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--family", "lah_q",
                               "--n", "0..4", "--format", "json")
        assert code == 0
        from qcomb.families import lah_q
        for row in json.loads(out):
            value = QPoly(map(int, row["value"]["coeffs"]))
            assert value == lah_q(row["n"], row["k"], row["r"])

    def test_csv_writes_an_mpoly_in_its_printed_form(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--family", "hsu_shiue",
                               "--n", "2", "--k", "1", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == "hsu_shiue,2,1,,alpha + beta + 2*r"

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
        # a bound past the length of any sequence: refused by parse_range
        *(pytest.param(family, "10000000000000000000",
                       f"argument --r: range bound 10000000000000000000 is "
                       f"above {sys.maxsize - 1}", id=f"{family}-10**19")
          for family in ("stirling2_q", "lah_q")),
    ])
    def test_huge_r_is_one_error_line(self, capsys, family, r, message):
        code, out, err = run_cli(capsys, "table", "--family", family,
                                 "--n", "1", "--k", "0", "--r", r)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("flag, argv", [
        ("--m", "verify --identity I-SPIVEY --m 0..99999999999999999999 --n 0"),
        ("--n", "table --family bell_q --n 99999999999999999999"),
        ("--k", "table --family stirling2_q --n 5 --k 0..99999999999999999999"),
    ], ids=["m", "n", "k"])
    def test_huge_range_bound_is_one_error_line(self, flag, argv):
        # these ran on without end, or failed naming no flag; each runs in a
        # child under a timeout, so a request that runs on fails the test
        src = str(Path(qcomb.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "qcomb.cli", *argv.split()],
            capture_output=True, env={**os.environ, "PYTHONPATH": src},
            timeout=30)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.decode() == (
            f"error: argument {flag}: range bound 99999999999999999999 is "
            f"above {sys.maxsize - 1}\n")

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


# the modules that start-up adds to those the interpreter loaded before it;
# argparse's own imports differ between Python versions
_START_UP = ("import sys\n"
             "before = set(sys.modules)\n"
             "import qcomb.bijection, qcomb.cli\n"
             "qcomb.cli.build_parser()\n"
             "print(*sorted(set(sys.modules) - before))")


def test_start_up_imports_neither_dataclasses_nor_csv():
    # dataclasses pulls in inspect, ast, dis and tokenize: 6 ms of a start
    proc = subprocess.run(
        [sys.executable, "-c", _START_UP], capture_output=True, check=True,
        env={**os.environ, "PYTHONPATH": _SRC}, timeout=60)
    loaded = set(proc.stdout.decode().split())
    assert "qcomb.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "csv"}


@pytest.mark.parametrize("family, n", [("stirling2_q", "0..4"),
                                       ("hsu_shiue", "0..3")])
def test_csv_table_is_the_same_from_a_fresh_process(capsys, family, n):
    # csv is imported by the csv branch alone
    argv = ("table", "--family", family, "--n", n, "--format", "csv")
    proc = subprocess.run(
        [sys.executable, "-m", "qcomb.cli", *argv], capture_output=True,
        env={**os.environ, "PYTHONPATH": _SRC}, timeout=60)
    fresh = (proc.returncode, proc.stdout.decode(), proc.stderr.decode())
    assert fresh == run_cli(capsys, *argv)
    assert fresh[1].startswith("family,n,k,r,value\r\n")


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


def test_readme_library_example_gives_its_stated_values():
    """The README's Python block runs verbatim; each expression statement
    is evaluated in turn, and the values its comments state are checked."""
    section = README.read_text(encoding="utf-8").split(
        "\n## Library example\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    values = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values.append(eval(code, scope))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), scope)
    s2, _lah, hs, from_oracle, status = values
    assert str(s2) == "2*q + q^2"
    assert str(hs) == "alpha + beta + 2*r"
    assert from_oracle == s2
    assert status == "pass"

    star: dict = {}
    exec("from qcomb import *", star)
    assert set(qcomb.__all__) <= star.keys()
    assert all(star[name] is getattr(qcomb, name) for name in qcomb.__all__)


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

    def test_all_refuses_range_overrides(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--all", "--n", "0..2")
        assert code == 2
        assert out == ""
        assert err == "error: range overrides apply to a single --identity\n"

    def test_all_refuses_identity(self, capsys):
        assert run_cli(capsys, "verify", "--all", "--identity", "I-BIN-6") == (
            2, "", "error: --all runs every identity and takes no --identity\n")

    def test_missing_selector(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2

    def test_default_grids_is_gone(self, capsys):
        # every identity runs on its default grid unless a range flag is given
        assert run_cli(capsys, "verify", "--all", "--default-grids") == (
            2, "", "error: unrecognized arguments: --default-grids\n")

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
    def test_jobs_is_not_an_option(self, capsys, command):
        assert run_cli(capsys, *command, "--jobs", "2") == (
            2, "", "error: unrecognized arguments: --jobs 2\n")

    def test_counterexample_exit_code(self, capsys):
        from qcomb.identities import REGISTRY, IdentityDef, _grid
        REGISTRY["I-BROKEN"] = IdentityDef(
            "I-BROKEN", "deliberately wrong", {"n": (0, 2)},
            lambda rng: _grid(rng, k="n"), lambda n, k: (0, 1))
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

    def test_partial_k_range_is_clipped_to_n(self, capsys):
        # no structure lies above n: listing every k of this range ran out
        # of memory; the child's address space is limited, so a listing
        # fails this test instead of exhausting the machine
        argv = ("oracle-diff", "--family", "stirling2_q", "--n", "3")
        limit = 512 * 2**20
        proc = subprocess.run(
            [sys.executable, "-m", "qcomb.cli", *argv, "--k", "1..99999999999"],
            capture_output=True, env={**os.environ, "PYTHONPATH": _SRC},
            timeout=30, preexec_fn=lambda: resource.setrlimit(
                resource.RLIMIT_AS, (limit, limit)))
        want = run_cli(capsys, *argv, "--k", "1..3")
        assert (proc.returncode, proc.stdout.decode(),
                proc.stderr.decode()) == want == (
            0, "0 mismatching cell(s) over 1 (n, r) cell(s) of stirling2_q\n",
            "")

    def test_large_cell_is_sized_in_bounded_memory(self):
        # filling the whole classical triangle to size this cell peaked at
        # 856 MB; the child's address space is limited, as above
        limit = 512 * 2**20
        proc = subprocess.run(
            [sys.executable, "-m", "qcomb.cli", "oracle-diff", "--family",
             "lah_q", "--n", "1500"],
            capture_output=True, env={**os.environ, "PYTHONPATH": _SRC},
            timeout=60, preexec_fn=lambda: resource.setrlimit(
                resource.RLIMIT_AS, (limit, limit)))
        # the Lah distributions of [n], by their own recurrence (A000262)
        count = [1, 1]
        for n in range(2, 1501):
            count.append((2 * n - 1) * count[-1] - (n - 1) * (n - 2) * count[-2])
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (
            2, "", f"error: enumeration cell ('lah', 1500, None, 0) holds "
                   f"{count[1500]} structures, above the cap 10000000\n")

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

    @pytest.mark.parametrize("k", [(), ("--k", "0..3")], ids=["all", "0..3"])
    def test_range_lists_mismatches_in_n_r_k_order(self, capsys, monkeypatch,
                                                   k):
        # one walk per r folds every n, and the output keeps the per-cell
        # order: n, then r, then k
        real = families.stirling2_q
        monkeypatch.setattr(families, "stirling2_q", lambda *a: real(*a) * 2)
        want = [m for n in range(4) for r in range(3)
                for m in identities.oracle_diff("stirling2_q", [n], [r])]
        assert len(want) == 27
        code, out, _ = run_cli(capsys, "oracle-diff", "--family",
                               "stirling2_q", "--n", "0..3", "--r", "0..2",
                               *k, "--format", "json")
        assert (code, json.loads(out)) == (1, want)


    def test_whole_cells_of_a_partial_k_share_one_walk_per_r(
            self, capsys, monkeypatch):
        # k 0..2 covers the cells n = 0..2 whole: they are folded from one
        # oracle_rows walk per r, and each k of n = 3..5 is enumerated on
        # its own by oracle; no cell is walked whole by oracle_table
        real_rows, real_oracle = identities.oracle_rows, oracles.oracle
        rows, ks, tables = [], [], []

        def spy_rows(*args):
            rows.append(args)
            return real_rows(*args)

        def spy_oracle(family, n, k, r=0):
            ks.append(k)
            return real_oracle(family, n, k, r)

        monkeypatch.setattr(identities, "oracle_rows", spy_rows)
        monkeypatch.setattr(identities, "oracle", spy_oracle)
        monkeypatch.setattr(identities, "oracle_table",
                            lambda *args: tables.append(args))
        monkeypatch.setattr(oracles, "oracle_table",
                            lambda *args: tables.append(args))
        code, out, _ = run_cli(capsys, "oracle-diff", "--family", "stirling2_q",
                               "--n", "0..5", "--r", "0..1", "--k", "0..2")
        assert (code, out) == (0, "0 mismatching cell(s) over 12 (n, r) "
                                  "cell(s) of stirling2_q\n")
        assert rows == [("partitions", 2, 0), ("partitions", 2, 1)]
        assert ks == [0, 1, 2] * 6
        assert tables == []


def spy_on_slots(monkeypatch, family: str) -> list[int]:
    """Count the slot lists that the policy of family builds: the list it
    returns gets the length of each."""
    real = structures._SLOTS[family]
    built = []

    def spy(*args):
        out = real(*args)
        built.append(len(out))
        return out

    monkeypatch.setitem(structures._SLOTS, family, spy)
    monkeypatch.setattr(structures, real.__name__, spy)
    return built


@pytest.mark.parametrize("family, oracle_family", [
    ("stirling2_q", "partitions"), ("bell_q", "partitions"),
    ("stirling1_q", "perms"), ("lah_q", "lah")])
def test_an_n_range_walks_only_its_deepest_cell_once_per_r(
        capsys, monkeypatch, family, oracle_family):
    # each n of 0..5 had a walk of its own, repeating those of the smaller n
    built = spy_on_slots(monkeypatch, oracle_family)
    for r in range(3):
        oracle_table(oracle_family, 5, r)
    deepest = list(built)
    built.clear()
    code, out, _ = run_cli(capsys, "oracle-diff", "--family", family,
                           "--n", "0..5", "--r", "0..2")
    assert code == 0 and out.startswith("0 mismatching cell(s) over 18 ")
    assert built == deepest and deepest


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

    @pytest.mark.parametrize("argv", [
        ("table", "--family", "bell_q", "--n", "2"),
        ("verify", "--identity", "I-SPIVEY")], ids=["table", "verify"])
    def test_bad_env_value_fails_a_call_that_enumerates_nothing(
            self, capsys, monkeypatch, argv):
        # the variable was read only when an enumeration started, so these
        # calls exited 0; the flag still takes precedence
        monkeypatch.setenv("QCOMB_MAX_ENUM", "abc")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "QCOMB_MAX_ENUM" in err
        assert run_cli(capsys, "--cell-cap", "5", *argv)[0] == 0

    def test_wide_oracle_diff_fails_at_its_first_refused_cell(self):
        # the (n, r) cells are walked, not listed first: listing these 10^11
        # ran out of memory; the child's address space is limited, so a
        # listing fails this test instead of exhausting the machine
        argv = ("--cell-cap", "0", "oracle-diff", "--family", "stirling2_q",
                "--n", "0..99999999999", "--k", "1")
        limit = 512 * 2**20
        proc = subprocess.run(
            [sys.executable, "-m", "qcomb.cli", *argv], capture_output=True,
            env={**os.environ, "PYTHONPATH": _SRC}, timeout=30,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (limit, limit)))
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.decode() == (
            "error: enumeration cell ('partitions', 1, 1, 0) holds 1 "
            "structures, above the cap 0\n")

    # B(13) = B_1(12) = 27644437 and S(17, 3) = 21457825: in (n, r) order,
    # the first refused cell; with --k 0..3 the cells n <= 3 are held whole
    # and the others one k at a time
    @pytest.mark.parametrize("r, cell", [((), "13, None, 0"),
                                         (("--r", "0..1"), "12, None, 1"),
                                         (("--k", "0..3"), "17, 3, 0")])
    def test_wide_range_is_refused_before_any_walk(self, capsys,
                                                   monkeypatch, r, cell):
        # every cell is held to the cap first: the first of these walked
        # n = 0..12 (4.2 million structures at n = 12, 3 s) before it
        # refused n = 13
        monkeypatch.delenv(structures.CELL_CAP_ENV, raising=False)
        built = spy_on_slots(monkeypatch, "partitions")
        code, out, err = run_cli(capsys, "oracle-diff", "--family",
                                 "stirling2_q", "--n", "0..99999999999", *r)
        holds = 21457825 if cell == "17, 3, 0" else 27644437
        assert (code, out) == (2, "")
        assert err == (f"error: enumeration cell ('partitions', {cell}) "
                       f"holds {holds} structures, above the cap 10000000\n")
        assert built == []

    def test_estimate_past_the_string_limit_names_the_cell_and_cap(
            self, capsys, monkeypatch):
        # the estimate, r^(300) rising for r = 10^15, has 4,501 digits: its
        # decimal string raised the interpreter's own error instead
        monkeypatch.delenv(structures.CELL_CAP_ENV, raising=False)
        code, out, err = run_cli(capsys, "oracle-diff", "--family",
                                 "stirling1_q", "--n", "300", "--r",
                                 "1000000000000000")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith("error: enumeration cell ('perms', 300, None, "
                              "1000000000000000) holds ")
        assert err.endswith(" structures, above the cap 10000000\n")
        if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 4501:
            assert " holds at least 10^4500 structures" in err

    def test_zero_cap_is_a_cap(self, capsys):
        code, _, err = run_cli(capsys, "--cell-cap", "0", "oracle-diff",
                               "--family", "lah_q", "--n", "0")
        assert code == 2
        assert "above the cap 0" in err

    def test_a_kept_oracle_table_is_held_to_the_cap(self, capsys):
        # I-PE1 keeps its oracle tables between calls: capped after an
        # uncapped call, it exited 0, and 2 in a fresh process
        argv = ("verify", "--identity", "I-PE1", "--cell-cap", "1")
        assert run_cli(capsys, "verify", "--identity", "I-PE1")[0] == 0
        warm = run_cli(capsys, *argv)
        cold = subprocess.run(
            [sys.executable, "-m", "qcomb.cli", *argv], capture_output=True,
            env={**os.environ, "PYTHONPATH": _SRC}, timeout=60)
        assert warm == (cold.returncode, cold.stdout.decode(),
                        cold.stderr.decode())
        assert warm[0] == 2 and "above the cap 1" in warm[2]

    # lah_q(3, k) for k = 0..3 holds 13 structures: above 5, below 10**6
    @pytest.mark.parametrize("flag, want", [((), 2),
                                            (("--cell-cap", "1000000"), 0)])
    def test_main_puts_back_the_cap_it_found(self, capsys, cell_cap, flag,
                                             want):
        cell_cap(5)
        code, _, err = run_cli(capsys, *flag, "oracle-diff", "--family",
                               "lah_q", "--n", "3")
        assert code == want
        assert ("above the cap 5" in err) == (want == 2)
        assert structures.effective_cap() == 5


def test_main_is_the_only_error_exit():
    """Every other function raises or returns its rendered output; main alone
    writes stdout, writes the one error line to stderr and returns 2."""
    for fn in ast.walk(ast.parse(inspect.getsource(cli))):
        if isinstance(fn, ast.FunctionDef) and fn.name != "main":
            for node in ast.walk(fn):
                assert not (isinstance(node, ast.Attribute)
                            and node.attr in ("stdout", "stderr")), fn.name
                assert not (isinstance(node, ast.Return)
                            and isinstance(node.value, ast.Constant)
                            and node.value.value == 2), fn.name
                if isinstance(node, ast.Call):
                    called = ast.unparse(node.func)
                    assert called not in ("print", "json.dump"), fn.name


@pytest.mark.parametrize("target, exc, argv, err", [
    ("check", RuntimeError("boom"), ("verify", "--identity", "I-SPIVEY"),
     "error: boom\n"),
    ("table_rows", KeyError("x"), ("table", "--family", "bell_q", "--n", "2"),
     "error: 'x'\n"),
    # an empty message names the exception; only MemoryError is out of memory
    ("oracle_diff", ZeroDivisionError(),
     ("oracle-diff", "--family", "lah_q", "--n", "2"),
     "error: ZeroDivisionError\n"),
], ids=["check", "table_rows", "oracle_diff"])
def test_any_internal_failure_is_one_error_line(capsys, monkeypatch, target,
                                                exc, argv, err):
    def fail(*args):
        raise exc

    monkeypatch.setattr(cli, target, fail)
    assert run_cli(capsys, *argv) == (2, "", err)


@pytest.mark.parametrize("argv, first", [
    (("table", "--family", "bell_q", "--n", "5..2"),
     "error: argument --n: invalid range '5..2'\n"),
    (("table", "--family", "bell_q", "--n", "2", "--no-such"),
     "error: unrecognized arguments: --no-such\n"),
    (("table", "--n", "2"),
     "error: the following arguments are required: --family\n"),
    (("verify", "--all", "--format", "xml"),
     "error: argument --format: invalid choice: 'xml'"),
], ids=["bad-range", "unknown-option", "missing-family", "bad-choice"])
def test_argparse_refusal_is_one_error_line(capsys, argv, first):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(first) and err.count("\n") == 1
    assert err.endswith("\n")


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qcomb")


def test_one_parser_serves_every_call_as_a_fresh_one_would(capsys,
                                                           monkeypatch):
    # a refusal, a call under --cell-cap 10 and a plain call, in turn, on
    # the one parser: the cap of the second must not reach the third
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.delenv(structures.CELL_CAP_ENV, raising=False)
    env = {**os.environ,
           "PYTHONPATH": str(Path(qcomb.__file__).resolve().parents[1])}
    calls = [(("table", "--family", "bell_q", "--n", "5..2"), 2),
             (("--cell-cap", "10", "oracle-diff", "--family", "lah_q",
               "--n", "0..5"), 2),
             (("oracle-diff", "--family", "lah_q", "--n", "0..5"), 0)]
    for argv, code in calls:
        alone = subprocess.run([sys.executable, "-m", "qcomb.cli", *argv],
                               capture_output=True, env=env, timeout=60)
        assert run_cli(capsys, *argv) == (code, alone.stdout.decode(),
                                          alone.stderr.decode())
        assert alone.returncode == code
    assert cli.build_parser.cache_info().currsize == 1
