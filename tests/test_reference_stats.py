"""The one-pass extended-Lah statistics against the code they replaced.

ref_record_lows and ref_ext_stats below are the earlier ext_stats, which
built the uncircled sublist of each block and scanned its record lows; they
stay here as the reference.  weight, which looks its monomial up in a
bounded table, is checked against ``reference.weight``, which built each
one with MPoly.from_monomial, and from_monomial against the constructor it
calls.
"""

from typing import Sequence

import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from qcomb.polyring import MPoly
from qcomb.stats import ExtStats, ext_stats, weight
from qcomb.structures import ExtLahDist, LahDist, enum_extended_lah


def ref_record_lows(seq: Sequence[int]) -> list[int]:
    out = []
    mn = None
    for e in seq:
        if mn is None or e < mn:
            out.append(e)
            mn = e
    return out


def ref_ext_stats(lam: ExtLahDist) -> ExtStats:
    nrec = rec_star = 0
    one_circled = 1 in lam.circled
    for b in lam.base.blocks:
        unc = [e for e in b if e not in lam.circled]
        if one_circled and b[0] == 1:
            # sentinel scan must agree with the stated override
            lows = ref_record_lows([1] + unc)
            if lows != [1]:
                raise AssertionError(
                    f"sentinel scan of circled-1 block disagrees: {lows}")
            nrec += len(unc)
            continue
        if not unc:
            continue
        lows = ref_record_lows(unc)
        mn = min(unc)
        rec_star += sum(1 for e in lows if e != mn)
        nrec += len(unc) - len(lows)
    return ExtStats(nrec, rec_star, len(lam.circled))


def ref_weight(lam: ExtLahDist) -> MPoly:
    st_ = ref_ext_stats(lam)
    return MPoly({(st_.nrec, st_.rec_star, st_.circ, 0): 1})


def test_statistics_match_the_reference_for_n_up_to_7():
    count = 0
    for n in range(8):
        for lam in enum_extended_lah(n, None):
            assert ext_stats(lam) == ref_ext_stats(lam), lam.text()
            assert weight(lam) == ref_weight(lam), lam.text()
            assert weight(lam) == reference.weight(lam), lam.text()
            count += 1
    assert count == 146048


def _outcome(stats, lam):
    try:
        return stats(lam)
    except AssertionError:
        return AssertionError


@st.composite
def circled_one_structures(draw):
    """An extended Lah distribution whose first block starts with a circled
    1, with any subset of the other elements circled; sometimes an uncircled
    element below 1 is put into some block, which makes it invalid."""
    n = draw(st.integers(1, 7))
    word = [1] + draw(st.permutations(range(2, n + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    blocks = [list(word[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
    circled = {1} | draw(st.sets(st.integers(2, n))) if n > 1 else {1}
    if draw(st.booleans()):
        target = blocks[draw(st.integers(0, len(blocks) - 1))]
        target.insert(draw(st.integers(1, len(target))), draw(st.integers(-2, 0)))
    return ExtLahDist(LahDist(n, tuple(map(tuple, blocks))), frozenset(circled))


@settings(max_examples=400, deadline=None)
@given(circled_one_structures())
@example(ExtLahDist(LahDist(3, ((1, 2, 0, 3),)), frozenset({1})))
def test_circled_one_blocks_and_the_sentinel_match_the_reference(lam):
    expected = _outcome(ref_ext_stats, lam)
    assert _outcome(ext_stats, lam) == expected
    if expected is AssertionError:
        with pytest.raises(AssertionError, match="sentinel"):
            weight(lam)
    else:
        assert weight(lam) == ref_weight(lam)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.integers(-2, 6)] * 4), st.integers(-3, 3))
@example((1, 2, 0, 3), 0)
@example((0, -1, 0, 0), 1)
def test_from_monomial_matches_the_constructor(exps, coeff):
    if min(exps) < 0:
        with pytest.raises(ValueError, match="negative exponent"):
            MPoly.from_monomial(*exps, coeff=coeff)
        return
    got = MPoly.from_monomial(*exps, coeff=coeff)
    want = MPoly({exps: coeff})
    assert got == want
    assert got.terms == want.terms
    assert got.is_zero() == (coeff == 0)
