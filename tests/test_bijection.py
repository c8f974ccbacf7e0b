import pytest

from qcomb.bijection import join_lah, split_lah
from qcomb.families import hsu_shiue
from qcomb.stats import ext_stats, weight
from qcomb.structures import (ExtLahDist, LahDist, StructureError,
                              enum_extended_lah)


class TestSplitBasics:
    def test_empty_overlap_case(self):
        # no elements of H in the first blocks, no circled H elements there:
        # tau is exactly the trailing blocks, sigma the leading ones
        lam = ExtLahDist(LahDist(4, ((1, 2), (3,), (4,))), frozenset())
        parts = split_lah(lam, 2, 2)
        assert parts.j == 1
        assert parts.i == 2
        assert parts.sigma.base.blocks == ((1, 2),)
        assert parts.tau.base.blocks == ((1,), (2,))
        assert join_lah(parts.sigma, parts.sigma_labels, parts.tau, 2, 2) == lam

    def test_circled_suffix_moves_to_tau(self):
        lam = ExtLahDist(LahDist(4, ((1, 2, 3, 4),)), frozenset({3, 4}))
        parts = split_lah(lam, 2, 2)
        # circled 3 starts tau's first (non-true) block
        assert parts.i == 2
        assert parts.tau.base.blocks == ((1, 2),)
        assert parts.tau.circled == frozenset({1, 2})
        assert parts.tau.true_block_count() == 0
        assert join_lah(parts.sigma, parts.sigma_labels, parts.tau, 2, 2) == lam

    def test_tau_empty(self):
        lam = ExtLahDist(LahDist(3, ((1, 2, 3),)), frozenset())
        parts = split_lah(lam, 2, 1)
        assert parts.tau.n == 0
        assert join_lah(parts.sigma, parts.sigma_labels, parts.tau, 2, 1) == lam

    def test_malformed_inputs(self):
        lam = ExtLahDist(LahDist(3, ((1, 2, 3),)), frozenset())
        with pytest.raises(ValueError):
            split_lah(lam, 0, 3)
        with pytest.raises(ValueError):
            split_lah(lam, 2, 2)  # size mismatch
        bad = ExtLahDist(LahDist(3, ((2, 1), (3,))), frozenset({2}))
        with pytest.raises(ValueError):
            split_lah(bad, 1, 2)

    def test_join_rejects_inconsistent_pairs(self):
        lam = ExtLahDist(LahDist(4, ((1, 2), (3,), (4,))), frozenset())
        parts = split_lah(lam, 2, 2)
        with pytest.raises(ValueError):
            join_lah(parts.sigma, parts.sigma_labels[:-1], parts.tau, 2, 2)
        with pytest.raises(ValueError):
            join_lah(parts.sigma, parts.sigma_labels, parts.tau, 3, 2)

    def test_join_validates_its_output(self):
        # both inputs are valid, but the join circles 3 in 1,(3)/2, where 2
        # does not precede 3: only the check of the output rejects it, so
        # join_lah cannot validate its inputs alone
        sigma = ExtLahDist(LahDist(2, ((1, 2),)), frozenset({2})).validate()
        tau = ExtLahDist(LahDist(1, ((1,),)), frozenset()).validate()
        with pytest.raises(StructureError,
                           match="^circled element 3 is not special$"):
            join_lah(sigma, (1, 3), tau, 1, 2)


    def test_join_rejects_labels_out_of_order(self):
        # with labels (3, 1) the join would be 3,1/2: a valid structure that
        # splits back to sigma = 2,1 with labels (1, 3), not to these inputs
        sigma = ExtLahDist(LahDist(2, ((1, 2),)), frozenset())
        tau = ExtLahDist(LahDist(1, ((1,),)), frozenset())
        with pytest.raises(ValueError, match="sigma_labels"):
            join_lah(sigma, (3, 1), tau, 1, 2)
        for labels in ((1, 1), (0, 1), (1, 4)):
            with pytest.raises(ValueError):
                join_lah(sigma, labels, tau, 1, 2)
        assert join_lah(sigma, (1, 3), tau, 1, 2).text() == "1,3/2"


class TestValidateCalls:
    def test_every_validation_is_kept(self, monkeypatch):
        # the enumerator validates each structure it yields once; split_lah
        # validates its input and both parts, join_lah both parts and its
        # output
        calls = []
        checked = ExtLahDist.validate

        def counting(self):
            calls.append(self)
            return checked(self)

        monkeypatch.setattr(ExtLahDist, "validate", counting)
        lams = list(enum_extended_lah(4, None))
        assert len(calls) == len(lams) == 209
        for m in range(1, 4):
            for lam in lams:
                del calls[:]
                parts = split_lah(lam, m, 4 - m)
                assert len(calls) == 3
                assert calls[0] is lam
                del calls[:]
                back = join_lah(parts.sigma, parts.sigma_labels, parts.tau, m, 4 - m)
                assert len(calls) == 3
                assert calls[-1] is back


class TestRoundTrip:
    def test_round_trip_and_weight_multiplicativity(self):
        for total in range(2, 6):
            for m in range(1, total):
                n = total - m
                for lam in enum_extended_lah(total, None):
                    parts = split_lah(lam, m, n)
                    back = join_lah(parts.sigma, parts.sigma_labels,
                                    parts.tau, m, n)
                    assert back == lam
                    # statistics add across the split
                    s_st = ext_stats(parts.sigma)
                    t_st = ext_stats(parts.tau)
                    l_st = ext_stats(lam)
                    assert (s_st.nrec + t_st.nrec, s_st.rec_star + t_st.rec_star,
                            s_st.circ + t_st.circ) == tuple(l_st)
                    assert weight(parts.sigma) * weight(parts.tau) == weight(lam)
                    # true blocks of tau stay true after joining
                    assert parts.tau.true_block_count() == \
                        lam.true_block_count() - parts.j

    def test_split_classes_partition_the_family(self):
        # every lambda lands in exactly one (i, j) class, so class sizes sum up
        for total in (3, 4, 5):
            for m in range(1, total):
                n = total - m
                by_class: dict[tuple[int, int, int], int] = {}
                whole: dict[int, int] = {}
                for lam in enum_extended_lah(total, None):
                    k = lam.true_block_count()
                    whole[k] = whole.get(k, 0) + 1
                    parts = split_lah(lam, m, n)
                    key = (k, parts.i, parts.j)
                    by_class[key] = by_class.get(key, 0) + 1
                for k, count in whole.items():
                    assert sum(v for (kk, _, _), v in by_class.items()
                               if kk == k) == count

    def test_pair_counts_at_unit_weights(self):
        # the number of valid (sigma, tau) pairs over all (i, j), read off
        # the two-part product formula at alpha = beta = r = 1, equals the
        # family size
        from qcomb import classical
        from qcomb.polyring import binom

        def units(n, k):
            return hsu_shiue(n, k).substitute(alpha=1, beta=1, r=1).constant()

        for total in range(2, 7):
            for m in range(1, total):
                n = total - m
                for k in range(total + 1):
                    pairs = 0
                    for i in range(n + 1):
                        for j in range(m + 1):
                            prod = 1
                            for ell in range(n - i):
                                prod *= (m + ell) + j
                            pairs += binom(n, i) * units(m, j) \
                                * units(i, k - j) * prod
                    assert pairs == classical.ext_lah_count(total, k)
