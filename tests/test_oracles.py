import ast
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import qcomb
from qcomb import classical, oracles
from qcomb import structures
from qcomb.oracles import (ORACLE_FAMILIES, ORACLE_FOR_ENGINE, ZERO, oracle,
                           oracle_rows, oracle_table)
from qcomb.polyring import MPoly, QPoly
from qcomb.stats import ext_stats, stat_inv_c, stat_inv_rho, stat_w
from qcomb.structures import (CellCapError, check_cell, enum_cycle_perms,
                              enum_extended_lah, enum_lah, enum_partitions)
from reference import r_distinct, true_block_count


class TestOracleExamples:
    def test_partitions_cell(self):
        assert oracle("partitions", 3, 2, 0) == QPoly([0, 2, 1])

    def test_ext_lah_cell(self):
        assert oracle("ext_lah", 2, 1, 0) == MPoly(
            {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 2})

    def test_lah_counts_at_one(self):
        for n in range(7):
            for k in range(n + 1):
                assert oracle("lah", n, k, 0).eval_int(1) == \
                    classical.lah(n, k)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            oracle("nope", 1, 1, 0)

    def test_ext_lah_rejects_restriction(self):
        with pytest.raises(ValueError):
            oracle("ext_lah", 2, 1, 1)

    def test_empty_cell_is_zero(self):
        assert oracle("partitions", 2, 5, 0) == QPoly()
        assert oracle("ext_lah", 2, 5, 0) == MPoly()

    def test_capacity_error_propagates(self, cell_cap):
        cell_cap(10)
        with pytest.raises(CellCapError):
            oracle("perms", 9, 3, 0)


class TestOracleTables:
    def test_table_matches_cells(self):
        table = oracle_table("perms", 4, 1)
        for k in range(5):
            assert table.get(k, QPoly()) == oracle("perms", 4, k, 1)

    def test_registry(self):
        # the first engine each oracle certifies, read off the one mapping
        first = {}
        for engine, oracle_family in ORACLE_FOR_ENGINE.items():
            first.setdefault(oracle_family, engine)
        assert first["partitions"] == "stirling2_q"
        assert set(first) == {"partitions", "perms", "lah", "ext_lah"}

    def test_one_mapping_both_ways(self):
        # every oracle certifies some engine, and every engine has an oracle
        assert ORACLE_FOR_ENGINE["bell_q"] == "partitions"
        assert set(ORACLE_FOR_ENGINE.values()) == set(ORACLE_FAMILIES)
        engines = {}
        for engine, oracle_family in ORACLE_FOR_ENGINE.items():
            engines.setdefault(oracle_family, []).append(engine)
        assert engines == {"partitions": ["stirling2_q", "bell_q"],
                           "perms": ["stirling1_q"], "lah": ["lah_q"],
                           "ext_lah": ["hsu_shiue"]}


def reference_table(family, n, r=0, only_k=None):
    """The slow path the fold replaced: build every structure and apply the
    direct statistic from qcomb.stats."""
    buckets = {}
    if family == "ext_lah":
        for lam in enum_extended_lah(n, only_k):
            st_ = ext_stats(lam)
            buckets.setdefault(true_block_count(lam), Counter())[
                (st_.nrec, st_.rec_star, st_.circ, 0)] += 1
        return {kk: MPoly(dict(c)) for kk, c in buckets.items()}
    offset = r * (r - 1) // 2
    enum, stat = {
        "partitions": (enum_partitions, lambda s: stat_w(s) - offset),
        "perms": (enum_cycle_perms, stat_inv_c),
        "lah": (enum_lah, stat_inv_rho),
    }[family]
    for s in enum(n, only_k, r):
        groups = s.cycles if family == "perms" else s.blocks
        buckets.setdefault(len(groups) - r, Counter())[stat(s)] += 1
    return {kk: QPoly([c[v] for v in range(max(c) + 1)])
            for kk, c in buckets.items()}


@pytest.mark.parametrize("family, enum, stat", [
    ("partitions", enum_partitions, stat_w),
    ("perms", enum_cycle_perms, stat_inv_c),
    ("lah", enum_lah, stat_inv_rho)])
def test_restricted_cells_are_filtered_unrestricted_cells(family, enum, stat):
    # a reference that never starts from the prefix: the r = 0 stream of
    # [n+r] filtered by the restriction, and its direct statistics, less the
    # C(r, 2) that 1..r add to stat_w
    for r in range(5):
        shift = r * (r - 1) // 2 if family == "partitions" else 0
        for n in range(8 - r):
            expected = {}
            for k in range(n + 1):
                kept = [s for s in enum(n + r, k + r, 0) if r_distinct(s, r)]
                assert list(enum(n, k, r)) == kept, (family, n, k, r)
                c = Counter(stat(s) - shift for s in kept)
                if c:
                    expected[k] = QPoly([c[v] for v in range(max(c) + 1)])
            assert oracle_table(family, n, r) == expected, (family, n, r)


CLASSICAL = {"partitions": classical.stirling2_r, "perms": classical.stirling1_r,
             "lah": classical.lah_r,
             "ext_lah": lambda n, k, r: classical.ext_lah_count(n, k)}


def leaf_total(value):
    if isinstance(value, QPoly):
        return value.eval_int(1)
    return sum(value.terms.values())


class TestFoldAgainstDirectStatistics:
    @pytest.mark.parametrize("family", ["partitions", "perms", "lah", "ext_lah"])
    def test_every_small_cell(self, family):
        for r in range(1 if family == "ext_lah" else 3):
            for n in range(8 - r):
                table = oracle_table(family, n, r)
                assert table == reference_table(family, n, r), (family, n, r)
                for k in range(n + 1):
                    assert leaf_total(table.get(k, QPoly())) == \
                        CLASSICAL[family](n, k, r), (family, n, k, r)
                for k in range(-1, n + 2) if n + r <= 5 else ():
                    want = reference_table(family, n, r, only_k=k)
                    assert set(want) <= {k} and oracle(family, n, k, r) == \
                        want.get(k, ZERO[family]), (family, n, k, r)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["partitions", "perms", "lah", "ext_lah"]),
           st.integers(0, 7), st.integers(-1, 8), st.integers(0, 2))
    def test_random_cell(self, family, n, k, r):
        if family == "ext_lah":
            r = 0
        want = reference_table(family, n, r, only_k=k)
        assert set(want) <= {k}
        assert oracle(family, n, k, r) == want.get(k, ZERO[family])


def cell_size(family, n, r):
    return sum(CLASSICAL[family](n, k, r) for k in range(n + 1))


class TestOracleRows:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["partitions", "perms", "lah", "ext_lah"]),
           st.integers(0, 7), st.integers(0, 3))
    def test_every_row_is_the_table_of_its_cell(self, family, n, r):
        # the per-cell walk is the reference; the largest q-Lah cells (up to
        # 4 million structures at (7, 3)) would take seconds an example
        if family == "ext_lah":
            r = 0
        assume(cell_size(family, n, r) <= 200_000)
        rows = oracle_rows(family, n, r)
        assert len(rows) == n + 1
        for j, row in enumerate(rows):
            assert row == oracle_table(family, j, r), (family, n, r, j)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            oracle_rows("nope", 1)

    def test_ext_lah_rejects_restriction(self):
        with pytest.raises(ValueError):
            oracle_rows("ext_lah", 2, 1)

    def test_the_first_cell_over_the_cap_is_refused(self, cell_cap):
        # perms(4, r=0) holds 24 structures, perms(3, r=0) 6
        cell_cap(23)
        with pytest.raises(CellCapError) as exc:
            oracle_rows("perms", 5)
        assert exc.value.cell == ("perms", 4, None, 0)
        cell_cap(24)
        assert oracle_rows("perms", 4)[3] == oracle_table("perms", 3)
        # refused at n = 11 (11! structures), not sized at n = 10^11
        cell_cap(10_000_000)
        with pytest.raises(CellCapError) as exc:
            oracle_rows("perms", 10 ** 11)
        assert exc.value.cell == ("perms", 11, None, 0)


class TestOneCellCheck:
    """oracle, oracle_table and oracle_rows read through structures.check_cell
    alone: one k is folded from its pruned walk, and every read is refused
    as its cell is refused, before any slot policy is built."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_one_k_is_that_entry_of_the_table(self, data):
        family = data.draw(st.sampled_from(ORACLE_FAMILIES))
        n = data.draw(st.integers(0, 6))
        r = 0 if family == "ext_lah" else data.draw(st.integers(0, 2))
        k = data.draw(st.integers(-1, n + 1))
        want = oracle_table(family, n, r).get(k, ZERO[family])
        got = oracle(family, n, k, r)
        assert type(got) is type(want) and got == want, (family, n, k, r)

    @pytest.mark.parametrize("family, n, r, message, first", [
        ("nope", 3, 0, "unknown oracle family 'nope'", 0),
        ("partitions", -1, 0, "enum_partitions requires n, r >= 0, got (-1, 0)",
         -1),
        ("lah", 2, -1, "enum_lah requires n, r >= 0, got (2, -1)", 0),
        ("ext_lah", 2, 1, "ext_lah oracle requires r = 0", 0),
        ("perms", 5, 0, "enumeration cell ('perms', 5, None, 0) holds 120 "
         "structures, above the cap 23", 4),
    ], ids=["unknown-family", "negative-n", "negative-r", "ext_lah-r1",
            "over-cap"])
    def test_every_read_raises_what_its_cell_check_raises(
            self, monkeypatch, cell_cap, family, n, r, message, first):
        # first: the n of the first cell that oracle_rows(family, n, r) refuses
        cell_cap(23)
        built = []

        def spy(policy):
            def spied(*args):
                built.append(args)
                return policy(*args)
            return spied

        for name, policy in structures._SLOTS.items():
            monkeypatch.setitem(structures._SLOTS, name, spy(policy))
        monkeypatch.setattr(oracles, "_ext_lah_slots",
                            spy(oracles._ext_lah_slots))

        def refusal(call, *args):
            with pytest.raises((ValueError, CellCapError)) as exc:
                call(*args)
            assert "\n" not in str(exc.value)
            return type(exc.value), str(exc.value)

        whole = refusal(check_cell, family, n, None, r)
        assert whole[1] == message
        assert refusal(oracle_table, family, n, r) == whole
        assert refusal(oracle, family, n, 1, r) == \
            refusal(check_cell, family, n, 1, r)
        assert refusal(oracle_rows, family, n, r) == \
            refusal(check_cell, family, first, None, r)
        assert built == []


ORACLE_SIDE = ("structures", "stats", "oracles", "classical")


@pytest.mark.parametrize("module", ORACLE_SIDE)
def test_oracle_side_imports_no_engine_code(module):
    """Engines and oracles share no computation code: the oracle side never
    imports families or identities."""
    path = Path(qcomb.__file__).parent / f"{module}.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    leaves = {name.rsplit(".", 1)[-1] for name in imported}
    assert not leaves & {"families", "identities"}, (module, sorted(imported))


def test_oracles_build_no_structure():
    """Every oracle folds: oracles.py imports no structure class and no
    enumerator from structures.py."""
    path = Path(qcomb.__file__).parent / "oracles.py"
    imported = {alias.name for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "structures"
                for alias in node.names}
    assert imported, "the oracles walk the insertion tree of structures.py"
    for name in imported:
        obj = getattr(structures, name)
        assert not name.startswith("enum_"), name
        assert not (isinstance(obj, type) and issubclass(obj, tuple)), name


@pytest.mark.parametrize("module", ["families", "classical", "structures"])
def test_triangles_do_not_recurse(module):
    """The triangles are filled iteratively: no function calls itself by
    name, so no cell size can overflow the stack."""
    path = Path(qcomb.__file__).parent / f"{module}.py"
    for fn in ast.walk(ast.parse(path.read_text())):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            called = {node.func.id for node in ast.walk(fn)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)}
            assert fn.name not in called, (module, fn.name)
