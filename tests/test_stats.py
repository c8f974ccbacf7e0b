import random

from hypothesis import given, strategies as st

from qcomb.polyring import MPoly
from qcomb.stats import (ExtStats, ext_stats, inversions, stat_inv_c,
                         stat_inv_rho, stat_w, weight)
from qcomb.structures import (_SLOTS, CyclePerm, ExtLahDist, LahDist,
                              SetPartition, _leaves, enum_extended_lah_tracked,
                              enum_lah)
from reference import true_block_count

LAM15 = ExtLahDist(
    LahDist(15, ((1, 3, 2), (4, 5, 7), (13, 6, 8, 9), (12, 11, 10, 14, 15))),
    frozenset({1, 2, 5, 9, 15}))


class TestInversions:
    def test_sorted_word(self):
        assert inversions([1, 2, 3, 4]) == 0
        assert inversions([]) == 0
        assert inversions([7]) == 0

    def test_digit_word_examples(self):
        assert inversions([int(c) for c in "7680325014"]) == 30
        assert inversions([int(c) for c in "1342576"]) == 3

    @given(st.lists(st.integers(0, 9), max_size=20))
    def test_matches_quadratic_count(self, w):
        direct = sum(1 for i in range(len(w)) for j in range(i + 1, len(w))
                     if w[i] > w[j])
        assert inversions(w) == direct


class TestStatW:
    def test_examples(self):
        assert stat_w(SetPartition(3, ((1, 2, 3),))) == 0
        assert stat_w(SetPartition(3, ((1, 2), (3,)))) == 1
        assert stat_w(SetPartition(3, ((1,), (2, 3)))) == 2


class TestInvRho:
    def test_three_block_example(self):
        delta = LahDist(8, ((1, 4), (3, 2, 5), (7, 6, 8)))
        assert stat_inv_rho(delta) == 30

    def test_single_block(self):
        assert stat_inv_rho(LahDist(4, ((1, 2, 3, 4),))) == 0
        assert stat_inv_rho(LahDist(2, ((2, 1),))) == 1

    def test_invariant_under_canonicalization(self):
        rng = random.Random(7)
        for delta in enum_lah(5, None, 0):
            blocks = list(delta.blocks)
            rng.shuffle(blocks)
            restored = LahDist(delta.n, tuple(sorted(blocks, key=min)))
            assert restored == delta
            assert stat_inv_rho(restored) == stat_inv_rho(delta)


class TestInvC:
    def test_identity_perm(self):
        assert stat_inv_c(CyclePerm(3, ((1,), (2,), (3,)))) == 0

    def test_seven_element_example(self):
        pi = CyclePerm(7, ((1, 3, 4), (2,), (5, 7, 6)))
        assert stat_inv_c(pi) == 3

    def test_two_cycle(self):
        assert stat_inv_c(CyclePerm(2, ((1, 2),))) == 0

    def test_invariant_under_canonicalization(self):
        rng = random.Random(11)
        from qcomb.structures import enum_cycle_perms
        for pi in enum_cycle_perms(5, None, 0):
            cycles = list(pi.cycles)
            rng.shuffle(cycles)
            restored = CyclePerm(pi.n, tuple(sorted(cycles, key=lambda c: c[0])))
            assert restored == pi
            assert stat_inv_c(restored) == stat_inv_c(pi)


class TestExtStats:
    def test_fifteen_element_example(self):
        assert ext_stats(LAM15) == ExtStats(4, 3, 5)
        assert weight(LAM15) == MPoly.from_monomial(4, 3, 5)

    def test_increasing_blocks_no_circles(self):
        lam = ExtLahDist(LahDist(5, ((1, 2), (3, 4, 5))), frozenset())
        n, k = 5, 2
        st_ = ext_stats(lam)
        assert st_ == ExtStats(n - k, 0, 0)

    def test_circled_one_block(self):
        lam = ExtLahDist(LahDist(2, ((1, 2),)), frozenset({1}))
        assert ext_stats(lam) == ExtStats(1, 0, 1)

    def test_weight_examples(self):
        assert weight(ExtLahDist(LahDist(1, ((1,),)), frozenset())) == \
            MPoly.from_int(1)
        assert weight(ExtLahDist(LahDist(2, ((1, 2),)), frozenset({2}))) == \
            MPoly.from_monomial(e_r=1)

    def test_element_accounting(self):
        # every element lands in exactly one of the four statistic classes
        for n in range(7):
            for lam, _ in enum_extended_lah_tracked(n, None):
                s = ext_stats(lam)
                assert s.nrec + s.rec_star + s.circ + true_block_count(lam) \
                    == lam.n


class TestIncrementalAgainstDirect:
    def test_tracked_stats_match_recomputation(self):
        for n in range(8):
            for lam, inc in enum_extended_lah_tracked(n, None):
                assert ExtStats(*inc) == ext_stats(lam), lam.text()

    def test_slot_increments_match_direct_statistics(self):
        # the oracles see only each cell's distribution of the statistic;
        # this pins the statistic the insertion tree folds at every leaf,
        # which counts the free elements r+1..n+r after the prefix
        direct = {"partitions": (SetPartition, stat_w),
                  "perms": (CyclePerm, stat_inv_c),
                  "lah": (LahDist, stat_inv_rho)}
        for family, (cls, stat) in direct.items():
            for r in range(3):
                prefix = cls(r, tuple((j,) for j in range(1, r + 1)))
                for n in range(7 - r):
                    for groups, folded in _leaves(family, n, None, r,
                                                  _SLOTS[family]):
                        s = cls(n + r, tuple(map(tuple, groups)))
                        assert stat(prefix) + folded == stat(s), \
                            (family, r, s.text())


class TestRecordLowIndependence:
    def test_removing_circled_preserves_record_lows(self):
        def record_low_set(block, skip):
            lows, mn = [], None
            for e in block:
                if e in skip:
                    continue
                if mn is None or e < mn:
                    lows.append(e)
                    mn = e
            return lows

        for n in range(7):
            for lam, _ in enum_extended_lah_tracked(n, None):
                one_circled = 1 in lam.circled
                for b in lam.base.blocks:
                    if one_circled and b[0] == 1:
                        continue
                    with_circled = record_low_set(b, skip=())
                    without = record_low_set(b, skip=lam.circled)
                    kept = [e for e in with_circled if e not in lam.circled]
                    assert kept == without


class TestPartitionWeightSums:
    def test_nonnegative_and_classical_at_one(self):
        from qcomb import classical
        from qcomb.oracles import oracle_table
        from qcomb.polyring import QPoly
        for n in range(9):
            table = oracle_table("partitions", n, 0)
            for k in range(n + 1):
                p = table.get(k, QPoly())
                assert all(c >= 0 for c in p.coeffs)
                assert p.eval_int(1) == classical.stirling2(n, k)
