import hashlib
import math
from itertools import combinations

import pytest

from qcomb import classical
from qcomb.structures import (CellCapError, CyclePerm, ExtLahDist, LahDist,
                              SetPartition, StructureError, check_r_distinct,
                              effective_cap, enum_cycle_perms,
                              enum_extended_lah, enum_lah, enum_partitions,
                              set_default_cap, special_elements)


class TestValidators:
    def test_set_partition(self):
        SetPartition(3, ((1, 3), (2,))).validate()
        with pytest.raises(StructureError):
            SetPartition(3, ((2,), (1, 3))).validate()  # minima out of order
        with pytest.raises(StructureError):
            SetPartition(3, ((1, 2),)).validate()  # misses 3
        with pytest.raises(StructureError):
            SetPartition(2, ((2, 1),)).validate()  # not increasing

    def test_cycle_perm(self):
        CyclePerm(3, ((1, 3), (2,))).validate()
        with pytest.raises(StructureError):
            CyclePerm(2, ((2, 1),)).validate()  # min not first

    def test_lah_dist(self):
        LahDist(3, ((3, 1), (2,))).validate()
        with pytest.raises(StructureError):
            LahDist(3, ((2,), (3, 1))).validate()

    def test_ext_lah(self):
        base = LahDist(2, ((1, 2),))
        ExtLahDist(base, frozenset({2})).validate()
        with pytest.raises(StructureError):
            # 2 starts its block, so it cannot be special
            ExtLahDist(LahDist(3, ((2, 1), (3,))), frozenset({2})).validate()
        with pytest.raises(StructureError):
            # circled 1 must start its block
            ExtLahDist(LahDist(2, ((2, 1),)), frozenset({1})).validate()

    @pytest.mark.parametrize("base", [
        LahDist(1, ((0, 1),)), LahDist(2, ((1, 2, 3),)), LahDist(2, ((1, -1, 2),)),
        LahDist(2, ((1, 2), (4,))), LahDist(2, ((1, 2, 0),))])
    def test_elements_outside_the_ground_set(self, base):
        # 1..n all present, plus an element outside [n]
        with pytest.raises(StructureError):
            base.validate()
        with pytest.raises(StructureError):
            ExtLahDist(base, frozenset()).validate()
        with pytest.raises(StructureError):
            special_elements(base)

    @pytest.mark.parametrize("groups", [
        ((1.0,),), (("a",),), ((1, "a"),), ((1, 2.0),), ((1,), (None,))])
    def test_elements_that_are_not_integers(self, groups):
        n = len([e for g in groups for e in g])
        for structure in (SetPartition(n, groups), CyclePerm(n, groups),
                          LahDist(n, groups), ExtLahDist(LahDist(n, groups),
                                                         frozenset())):
            with pytest.raises(StructureError):
                structure.validate()
        with pytest.raises(StructureError):
            special_elements(LahDist(n, groups))

    def test_text_forms(self):
        pi = SetPartition(3, ((1, 3), (2,)))
        assert pi.text() == "1,3/2"
        lam = ExtLahDist(
            LahDist(7, ((1, 3, 2), (4, 5, 7), (6,))), frozenset({1, 2, 5}))
        assert lam.text() == "(1),3,(2)/4,(5),7/6"


class TestSpecialElements:
    def test_single_natural_block(self):
        for n in range(1, 7):
            delta = LahDist(n, (tuple(range(1, n + 1)),))
            assert special_elements(delta) == frozenset(range(1, n + 1))

    def test_fifteen_element_example(self):
        delta = LahDist(15, ((1, 3, 2), (4, 5, 7), (13, 6, 8, 9),
                             (12, 11, 10, 14, 15)))
        assert special_elements(delta) == frozenset({1, 2, 5, 8, 9, 14, 15})

    def test_block_minimum_excluded(self):
        delta = LahDist(3, ((2, 1), (3,)))
        assert special_elements(delta) == frozenset({1})

    def test_empty(self):
        assert special_elements(LahDist(0, ())) == frozenset()


class TestCounts:
    def test_partitions_examples(self):
        assert sum(1 for _ in enum_partitions(3, 2, 0)) == 3
        members = list(enum_partitions(1, 1, 1))
        assert members == [SetPartition(2, ((1,), (2,)))]
        assert sum(1 for _ in enum_partitions(4, None, 0)) == 15

    def test_cycle_perm_examples(self):
        assert sum(1 for _ in enum_cycle_perms(3, 2, 0)) == 3
        assert sum(1 for _ in enum_cycle_perms(4, None, 0)) == 24
        assert sum(1 for _ in enum_cycle_perms(2, 1, 1)) == 3

    def test_lah_examples(self):
        assert sum(1 for _ in enum_lah(3, 2, 0)) == 6
        assert list(enum_lah(1, 1, 0)) == [LahDist(1, ((1,),))]
        texts = {d.text() for d in enum_lah(2, 1, 0)}
        assert texts == {"1,2", "2,1"}

    def test_extended_lah_examples(self):
        for n in range(8):
            assert sum(1 for _ in enum_extended_lah(n, 0)) == math.factorial(n)
        assert {lam.text() for lam in enum_extended_lah(2, 1)} == \
            {"1,2", "2,1", "1,(2)", "(1)/2"}
        assert list(enum_extended_lah(0, 0)) == [
            ExtLahDist(LahDist(0, ()), frozenset())]

    def test_counts_match_classical_triangles(self):
        for n in range(8):
            for k in range(n + 1):
                assert sum(1 for _ in enum_partitions(n, k, 0)) == \
                    classical.stirling2(n, k)
                assert sum(1 for _ in enum_cycle_perms(n, k, 0)) == \
                    classical.stirling1(n, k)
                lah_count = sum(1 for _ in enum_lah(n, k, 0))
                assert lah_count == classical.lah(n, k)
                if k >= 1:
                    closed = math.comb(n - 1, k - 1) * math.factorial(n) \
                        // math.factorial(k)
                    assert lah_count == closed

    def test_impossible_cells_empty(self):
        assert list(enum_partitions(3, 5, 0)) == []
        assert list(enum_partitions(3, -1, 0)) == []
        assert list(enum_lah(2, 0, 0)) == []
        assert list(enum_cycle_perms(0, 0, 0)) == [CyclePerm(0, ())]


class TestRestrictedValidity:
    def test_every_member_valid_and_restricted(self):
        for n in range(7):
            for r in range(3):
                for k in range(n + 1):
                    for pi in enum_partitions(n, k, r):
                        pi.validate()
                        assert check_r_distinct(pi, r)
                        assert len(pi.blocks) == k + r
                    for pm in enum_cycle_perms(n, k, r):
                        pm.validate()
                        assert check_r_distinct(pm, r)
                    for d in enum_lah(n, k, r):
                        d.validate()
                        assert check_r_distinct(d, r)

    def test_restricted_counts_match_classical(self):
        for n in range(6):
            for r in range(3):
                for k in range(n + 1):
                    assert sum(1 for _ in enum_partitions(n, k, r)) == \
                        classical.stirling2_r(n, k, r)
                    assert sum(1 for _ in enum_cycle_perms(n, k, r)) == \
                        classical.stirling1_r(n, k, r)
                    assert sum(1 for _ in enum_lah(n, k, r)) == \
                        classical.lah_r(n, k, r)


class TestNoDuplicates:
    def test_streams_unique(self):
        for n in range(6):
            for r in range(3):
                for family in (enum_partitions, enum_cycle_perms, enum_lah):
                    seen = [s.text() for s in family(n, None, r)]
                    assert len(seen) == len(set(seen))
        for n in range(6):
            seen = [s.text() for s in enum_extended_lah(n, None)]
            assert len(seen) == len(set(seen))


def _filter_based_extended_lah(n):
    """Independent generator: every Lah distribution, every valid circling."""
    for kk in range(n + 1):
        for delta in enum_lah(n, kk, 0):
            spec = sorted(special_elements(delta))
            for size in range(len(spec) + 1):
                for chosen in combinations(spec, size):
                    circ = frozenset(chosen)
                    if 1 in circ:
                        block1 = next(b for b in delta.blocks if 1 in b)
                        if block1[0] != 1:
                            continue
                    yield ExtLahDist(delta, circ)


class TestExtendedLahAgainstFilterGenerator:
    def test_set_equality_by_true_block_count(self):
        for n in range(7):
            insertion = {}
            for lam in enum_extended_lah(n, None):
                insertion.setdefault(lam.true_block_count(), set()).add(lam)
            filtered = {}
            for lam in _filter_based_extended_lah(n):
                lam.validate()
                filtered.setdefault(lam.true_block_count(), set()).add(lam)
            assert insertion == filtered, f"n={n}"

    def test_counts_match_classical(self):
        for n in range(8):
            for k in range(n + 1):
                assert sum(1 for _ in enum_extended_lah(n, k)) == \
                    classical.ext_lah_count(n, k)


class TestCellCap:
    def test_cap_raises_with_estimate(self, cell_cap):
        cell_cap(100)
        with pytest.raises(CellCapError) as exc:
            list(enum_partitions(8, None, 0))
        assert exc.value.estimate == classical.bell(8)
        assert exc.value.cap == 100

    def test_env_and_override_precedence(self, monkeypatch):
        monkeypatch.setenv("QCOMB_MAX_ENUM", "123")
        assert effective_cap() == 123
        set_default_cap(50)
        try:
            assert effective_cap() == 50
        finally:
            set_default_cap(None)
        assert effective_cap() == 123

    def test_under_cap_enumerates(self, cell_cap):
        cell_cap(15)
        assert sum(1 for _ in enum_partitions(4, None, 0)) == 15

    def test_cap_raised_before_any_structure(self, cell_cap):
        cell_cap(100)
        cells = [(enum_partitions(8, None, 0), ("partitions", 8, None, 0)),
                 (enum_cycle_perms(5, 2, 1), ("perms", 5, 2, 1)),
                 (enum_lah(5, None, 2), ("lah", 5, None, 2)),
                 (enum_extended_lah(5, 2), ("ext_lah", 5, 2, None))]
        for stream, cell in cells:
            with pytest.raises(CellCapError) as exc:
                next(stream)
            assert exc.value.cell == cell

    def test_deep_cell_enumerates(self):
        # one structure, 1500 elements deep in the insertion tree
        assert next(enum_partitions(1500, 1)) == SetPartition(
            1500, (tuple(range(1, 1501)),))

    def test_negative_arguments_rejected(self):
        for enum in (enum_partitions, enum_cycle_perms, enum_lah):
            with pytest.raises(ValueError):
                next(enum(-1, None, 0))
            with pytest.raises(ValueError):
                next(enum(2, None, -1))
        with pytest.raises(ValueError):
            next(enum_extended_lah(-1, None))

    def test_negative_cap_rejected_before_any_structure(self, monkeypatch,
                                                        cell_cap):
        monkeypatch.setenv("QCOMB_MAX_ENUM", "123")
        for bad in (-1, -3):
            with pytest.raises(ValueError, match="cap must be"):
                cell_cap(bad)
        assert effective_cap() == 123       # nothing was installed
        assert sum(1 for _ in enum_partitions(1, None)) == 1

    @pytest.mark.parametrize("value", ["-5", "abc", "1.5", ""])
    def test_bad_env_cap_names_the_variable(self, monkeypatch, value):
        monkeypatch.setenv("QCOMB_MAX_ENUM", value)
        with pytest.raises(ValueError, match="QCOMB_MAX_ENUM"):
            effective_cap()


def _stream_digest(cells):
    h = hashlib.sha256()
    for label, stream in cells:
        h.update(f"{label}:".encode())
        for s in stream:
            h.update(s.text().encode() + b"\n")
    return h.hexdigest()


class TestOutputOrder:
    """sha256 of the text() streams, pinned from the four separate
    recursions that the insertion tree replaced: same structures, same
    order."""

    PINNED = {
        "enum_partitions":
            "9a014588cf3fd52d88904f1e14f1f95b1d4178c492beee445c2c2dc0bc0c0153",
        "enum_cycle_perms":
            "9f04f339c04c4989c9ab51a635e32057dd6bfd357522c7c0b4fa490994a1acca",
        "enum_lah":
            "d907f0edf92dfe1d5372f66792fb91152103433e83c76101b6fe4837b6ef97d0",
        "enum_extended_lah":
            "805e3cd4be1497f2619e6ed8fdba4e2aac72c25326f572401115130bc825f310",
    }

    @pytest.mark.parametrize("enum", [enum_partitions, enum_cycle_perms, enum_lah])
    def test_restricted_families(self, enum):
        cells = [(f"{n},{r}", enum(n, None, r))
                 for r in range(3) for n in range(7 - r)]
        assert _stream_digest(cells) == self.PINNED[enum.__name__]

    def test_extended_lah(self):
        cells = [(f"{n}", enum_extended_lah(n, None)) for n in range(7)]
        assert _stream_digest(cells) == self.PINNED["enum_extended_lah"]
