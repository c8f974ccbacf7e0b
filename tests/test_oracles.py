import ast
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qcomb
from qcomb import classical
from qcomb import structures
from qcomb.oracles import (ORACLE_FAMILIES, ORACLE_FOR_ENGINE, oracle,
                           oracle_table)
from qcomb.polyring import MPoly, QPoly, poly_eval_int
from qcomb.stats import ext_stats, stat_inv_c, stat_inv_rho, stat_w
from qcomb.structures import (CellCapError, enum_cycle_perms,
                              enum_extended_lah, enum_lah, enum_partitions)


class TestOracleExamples:
    def test_partitions_cell(self):
        assert oracle("partitions", 3, 2, 0) == QPoly([0, 2, 1])

    def test_ext_lah_cell(self):
        assert oracle("ext_lah", 2, 1, 0) == MPoly(
            {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 2})

    def test_lah_counts_at_one(self):
        for n in range(7):
            for k in range(n + 1):
                assert poly_eval_int(oracle("lah", n, k, 0), 1) == \
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
            buckets.setdefault(lam.true_block_count(), Counter())[
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


CLASSICAL = {"partitions": classical.stirling2_r, "perms": classical.stirling1_r,
             "lah": classical.lah_r,
             "ext_lah": lambda n, k, r: classical.ext_lah_count(n, k)}


def leaf_total(value):
    if isinstance(value, QPoly):
        return poly_eval_int(value, 1)
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
                    assert oracle_table(family, n, r, only_k=k) == \
                        reference_table(family, n, r, only_k=k), (family, n, k, r)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["partitions", "perms", "lah", "ext_lah"]),
           st.integers(0, 7), st.integers(-1, 8), st.integers(0, 2))
    def test_random_cell(self, family, n, k, r):
        if family == "ext_lah":
            r = 0
        assert oracle_table(family, n, r, only_k=k) == \
            reference_table(family, n, r, only_k=k)


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
