"""QPoly with a valuation against the dense operations it replaced.

A QPoly keeps q^val times a body with no zero at either end; the dense
operations in tests/reference.py work on the padded coefficient tuples from
q^0 that ``coeffs`` reads.  Every operator must give the dense result, in
normal form, for mixed valuations, leading and total cancellation, ints and
zero.  binom_gen's math.comb form is checked against its falling product.
"""

import pytest
from hypothesis import example, given, strategies as st

import reference
from qcomb.polyring import (ExactDivisionError, Q, Q_ZERO, QPoly, binom_gen,
                            div_q_integer, q_integer, times_q_integer)

small = st.integers(-3, 3)
# leading zeros give the value a valuation; inner zeros stay in the body
qpolys = st.builds(lambda val, cs: QPoly([0] * val + cs), st.integers(0, 6),
                   st.lists(small, max_size=6))


def assert_normal(p):
    """The stored form: no zero at either end of the body, and zero is the
    empty body at valuation 0; coeffs pads the body with val zeros."""
    if p.body:
        assert p.body[0] and p.body[-1]
    else:
        assert p.val == 0
    assert p.coeffs == (0,) * p.val + p.body
    assert p.degree == len(p.coeffs) - 1


@st.composite
def cancelling_pairs(draw):
    """(p, s) where s cancels the lowest terms of p, or all of them, about
    half the time, and is any value otherwise."""
    p = draw(qpolys)
    if not draw(st.booleans()):
        return p, draw(qpolys)
    cut = draw(st.integers(0, len(p.coeffs)))
    rest = draw(st.lists(small, max_size=4)) if cut < len(p.coeffs) else []
    return p, QPoly([-c for c in p.coeffs[:cut]] + rest)


@given(cancelling_pairs())
@example((Q + Q ** 2, Q))                 # (q + q^2) - q: a leading cancellation
@example((Q ** 3 + 2 * Q ** 5, -Q ** 3))
@example((Q ** 2 - Q ** 4, Q ** 4 - Q ** 2))  # to zero
@example((QPoly([0, 0, 1, 1]), QPoly([0, 0, 0, 0, 0, 0, 7])))  # apart
def test_sum_is_the_dense_sum(pair):
    p, s = pair
    want = reference.dense_add(p.coeffs, s.coeffs)
    for value in (p + s, s + p, p - (-s)):
        assert value.coeffs == want
        assert_normal(value)
    assert (p - s).coeffs == reference.dense_add(p.coeffs, (-s).coeffs)
    assert_normal(p - s)
    assert ((p - p).val, (p - p).body) == (0, ())


@given(qpolys, small)
def test_sum_with_an_int_is_the_dense_sum(p, c):
    want = reference.dense_add(p.coeffs, (c,))
    for value in (p + c, c + p, p - (-c)):
        assert value.coeffs == want
        assert_normal(value)


@given(qpolys, qpolys)
def test_product_is_the_dense_product(p, s):
    want = reference.dense_mul(p.coeffs, s.coeffs)
    for value in (p * s, s * p):
        assert value.coeffs == want
        assert_normal(value)
    if p and s:
        assert (p * s).val == p.val + s.val


@given(qpolys, small)
def test_product_by_an_int_and_negation(p, c):
    want = reference.dense_mul(p.coeffs, (c,))
    for value in (p * c, c * p):
        assert value.coeffs == want
        assert_normal(value)
    assert (-p).coeffs == reference.dense_mul(p.coeffs, (-1,))
    assert_normal(-p)


@given(qpolys, st.integers(0, 8))
def test_shift_adds_to_the_valuation_and_shares_the_body(p, k):
    value = p.shift(k)
    assert value.coeffs == reference.dense_shift(p.coeffs, k)
    assert_normal(value)
    assert value.body is p.body
    if p:
        assert value.val == p.val + k
        with pytest.raises(ValueError):
            p.shift(-1)


@pytest.mark.parametrize("k", [-5, 0, 3, 10 ** 6])
def test_shift_of_zero_is_zero(k):
    assert Q_ZERO.shift(k) is Q_ZERO
    assert QPoly([0, 0, 0]).shift(k) == 0


@given(qpolys, st.integers(-3, 3))
@example(QPoly([0, 0, 3, -1]), 0)
@example(QPoly([0, 0, 0, 2, 5]), -1)
@example(QPoly([0, 1]), -1)
def test_eval_int_is_the_dense_evaluation(p, t):
    assert p.eval_int(t) == reference.dense_eval(p.coeffs, t)


@given(qpolys, st.integers(0, 6))
def test_times_q_integer_keeps_the_valuation(p, n):
    value = times_q_integer(p, n)
    assert value.coeffs == reference.dense_mul(p.coeffs, q_integer(n).coeffs)
    assert_normal(value)
    if value:
        assert value.val == p.val


@given(qpolys, st.integers(1, 5))
@example(QPoly([0, 0, 1, 2, 2, 1]), 3)    # q^2 [2][3] / [3]
@example(QPoly([0, 0, 0, 1, 1, 1]), 2)    # q^3 [3] / [2]: a remainder
def test_div_q_integer_is_the_dense_quotient(p, n):
    try:
        want = reference.dense_div_q_integer(p.coeffs, n)
    except ExactDivisionError:
        with pytest.raises(ExactDivisionError):
            div_q_integer(p, n)
        return
    value = div_q_integer(p, n)
    assert value.coeffs == want
    assert_normal(value)
    if value:
        assert value.val == p.val


@given(small, st.integers(0, 4))
def test_ints_equal_and_hash_as_their_constants(c, v):
    const = QPoly([c])
    assert const == c and c == const
    assert hash(const) == hash(c)
    raised = Q ** (v + 1) * c             # c q^(v+1): no int, unless zero
    assert (raised == c) is (c == 0)
    assert (raised == 0) is (c == 0)


@given(qpolys, st.integers(0, 4))
def test_a_shift_equals_and_hashes_as_the_padded_value(p, k):
    x, y = p.shift(k), QPoly([0] * k + list(p.coeffs))
    assert x == y and hash(x) == hash(y)
    assert (x.val, x.body) == (y.val, y.body)


@given(qpolys)
def test_printed_forms_read_the_padded_coefficients(p):
    assert p.to_json() == [str(c) for c in p.coeffs]
    assert repr(p) == f"QPoly({list(p.coeffs)})"
    assert str(p) == reference.dense_str(p.coeffs)


@given(st.integers(-60, 60), st.integers(-3, 60))
@example(-1, 0)
@example(-1, 2)
@example(3, 5)
@example(0, 0)
def test_binom_gen_is_the_falling_product(a, b):
    assert binom_gen(a, b) == reference.binom_gen(a, b)
