"""The faster paths of the family tables against the bodies they replaced.

gen_bell builds its row in one pass from the terms of hsu_shiue, QPoly
addition aligns two bodies by their valuations, and MPoly.sorted_terms sorts on
(-degree, exponents), descending.  tests/reference.py keeps the earlier
bodies: the sum of hsu_shiue(n, k) * x^k, the schoolbook addition loop and
the sort on (degree, negated exponents).
"""

import pytest
from hypothesis import example, given, strategies as st

import reference
from qcomb import families
from qcomb.polyring import MPoly, Q_ZERO, QPoly

exps = st.tuples(*(st.integers(0, 2) for _ in range(4)))
mpolys = st.dictionaries(exps, st.integers(-3, 3), max_size=6).map(MPoly)
coeff_lists = st.lists(st.integers(-3, 3), max_size=8)


@pytest.mark.parametrize("n", range(23))
def test_gen_bell_matches_the_sum_of_products(n):
    value = families.gen_bell(n)
    assert value == reference.gen_bell(n)
    assert value.sorted_terms() == reference.gen_bell(n).sorted_terms()


def _gen_bell_over(planted, n):
    """(gen_bell(n), the reference sum) with hsu_shiue planted as a table."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(families, "hsu_shiue", lambda m, k: planted[m, k])
        families.gen_bell.cache_clear()
        try:
            return families.gen_bell(n), reference.gen_bell(n)
        finally:
            families.gen_bell.cache_clear()


@st.composite
def planted_rows(draw):
    """n and a table of hsu_shiue values whose terms carry x, so the
    supports of different k meet."""
    n = draw(st.integers(0, 4))
    return n, {(n, k): draw(mpolys) for k in range(n + 1)}


@given(planted_rows())
def test_gen_bell_reads_a_planted_hsu_shiue_as_the_sum_did(row):
    n, planted = row
    value, expected = _gen_bell_over(planted, n)
    assert value == expected
    assert value.terms == expected.terms      # no zero coefficient kept


def test_gen_bell_drops_the_terms_that_a_planted_row_cancels():
    planted = {(1, 0): MPoly({(0, 0, 0, 1): 1, (1, 0, 0, 0): 1}),
               (1, 1): MPoly({(0, 0, 0, 0): -1})}
    value, expected = _gen_bell_over(planted, 1)
    assert value.terms == expected.terms == {(1, 0, 0, 0): 1}


@st.composite
def addends(draw):
    """Two coefficient lists of any lengths; about half the time the second
    cancels a prefix of the first, or all of it."""
    a = draw(coeff_lists)
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(a)))
        return a, [-c for c in a[:cut]] + draw(coeff_lists) * (cut < len(a))
    return a, draw(coeff_lists)


@given(addends())
@example(([1, 2, 3], [-1, -2, -3]))
@example(([0, 0, 5], [1]))
@example(([], [4, 0, -1]))
def test_qpoly_sum_matches_the_schoolbook_loop(lists):
    p, s = map(QPoly, lists)
    expected = reference.qpoly_add(p, s)
    for value in (p + s, s + p):
        assert value.coeffs == expected.coeffs
    assert (p + s - s).coeffs == p.coeffs
    assert (p + -p).coeffs == Q_ZERO.coeffs == ()


@given(coeff_lists, st.integers(-3, 3))
def test_qpoly_plus_an_int_matches_the_schoolbook_loop(coeffs, c):
    p = QPoly(coeffs)
    expected = reference.qpoly_add(p, QPoly.from_int(c))
    assert (p + c).coeffs == (c + p).coeffs == expected.coeffs


@given(st.dictionaries(exps, st.integers(-5, 5).filter(bool), max_size=12))
@example({(1, 0, 0, 0): 1, (0, 1, 0, 0): -1, (0, 0, 1, 0): 2,
          (0, 0, 0, 1): -2, (0, 0, 0, 0): 3})
@example({(2, 0, 0, 0): -1, (1, 1, 0, 0): 1, (0, 0, 1, 1): -1,
          (0, 2, 0, 0): 4, (1, 0, 0, 1): 5})
def test_sorted_terms_matches_the_generator_key(terms):
    # the examples tie every term's degree, with negative coefficients
    p = MPoly(terms)
    assert p.sorted_terms() == reference.sorted_terms(p)
