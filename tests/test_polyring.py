import json
import operator
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from qcomb.polyring import (ALPHA, BETA, ExactDivisionError, MPoly, Q, Q_ONE,
                            Q_ZERO, QPoly, R, X, binom, binom_gen,
                            div_q_integer, elementary_symmetric, q_binomial,
                            q_integer, q_rising, rising_int, shifted_factorial,
                            times_q_integer, times_q_rising)
from reference import evaluate, q_rising as schoolbook_q_rising


def exact_div(p, d):
    """Schoolbook division of QPoly p by d; a nonzero remainder is a hard
    error.  The reference for div_q_integer and the q-binomial caches."""
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return Q_ZERO
    rem = list(p.coeffs)
    dd, dv = len(rem) - 1, d.degree
    if dd < dv:
        raise ExactDivisionError("degree of divisor exceeds dividend")
    lead = d.coeffs[-1]
    quot = [0] * (dd - dv + 1)
    for i in range(dd - dv, -1, -1):
        c = rem[i + dv]
        if c == 0:
            continue
        if c % lead != 0:
            raise ExactDivisionError("leading coefficient does not divide")
        f = c // lead
        quot[i] = f
        for j, oc in enumerate(d.coeffs):
            rem[i + j] -= f * oc
    if any(rem):
        raise ExactDivisionError("nonzero remainder in exact division")
    return QPoly(quot)


qpolys = st.lists(st.integers(-3, 3), max_size=4).map(QPoly)
exps = st.tuples(*(st.integers(0, 2) for _ in range(4)))
mpolys = st.dictionaries(exps, st.integers(-3, 3), max_size=4).map(MPoly)


class TestQPolyBasics:
    def test_trailing_zeros_stripped(self):
        assert QPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert QPoly([0, 0]).coeffs == ()
        assert QPoly().is_zero()

    def test_degree(self):
        assert QPoly().degree == -1
        assert QPoly([5]).degree == 0
        assert QPoly([0, 0, 3]).degree == 2

    def test_arithmetic(self):
        p = QPoly([1, 1, 1])
        assert p * QPoly([1, 1]) == QPoly([1, 2, 2, 1])
        assert p - p == Q_ZERO
        assert p + 1 == QPoly([2, 1, 1])
        assert 2 * p == QPoly([2, 2, 2])
        assert Q ** 3 == QPoly([0, 0, 0, 1])
        assert Q_ZERO ** 0 == Q_ONE

    def test_shift(self):
        assert QPoly([1, 1]).shift(2) == QPoly([0, 0, 1, 1])
        assert Q_ZERO.shift(3) == Q_ZERO
        # q^k * 0 = 0 for every k, negative ones included
        assert Q_ZERO.shift(-3) == Q_ZERO
        with pytest.raises(ValueError):
            QPoly([1, 2]).shift(-1)

    def test_product_by_int_zero(self):
        p = QPoly([1, -2, 3])
        for product in (p * 0, 0 * p, Q_ZERO * 5):
            assert product == Q_ZERO
            assert not product

    def test_exact_div(self):
        num = QPoly([1, 1]) * QPoly([1, 0, 1])
        assert exact_div(num, QPoly([1, 1])) == QPoly([1, 0, 1])
        with pytest.raises(ExactDivisionError):
            exact_div(QPoly([1, 1, 1]), QPoly([1, 1]))
        with pytest.raises(ZeroDivisionError):
            exact_div(Q_ONE, Q_ZERO)

    def test_json_round_trip(self):
        p = QPoly([0, -2, 10 ** 30])
        assert QPoly(map(int, json.loads(json.dumps(p.to_json())))) == p
        assert p.to_json() == ["0", "-2", str(10 ** 30)]

    def test_str(self):
        assert str(Q_ZERO) == "0"
        assert str(QPoly([1, 0, 2])) == "1 + 2*q^2"


class TestQPrimitives:
    def test_q_integer(self):
        assert q_integer(0) == Q_ZERO
        assert q_integer(1) == Q_ONE
        assert q_integer(3) == QPoly([1, 1, 1])
        with pytest.raises(ValueError):
            q_integer(-1)

    def test_q_factorial(self):
        # [n]! is the q-rising factorial of 1 with n factors
        assert q_rising(1, 0) == Q_ONE
        assert q_rising(1, 2) == QPoly([1, 1])
        assert q_rising(1, 3) == QPoly([1, 2, 2, 1])
        with pytest.raises(ValueError):
            q_rising(1, -2)

    def test_q_binomial(self):
        for n in (-3, 0, 4, 7):
            assert q_binomial(n, 0) == Q_ONE
        assert q_binomial(4, 2) == QPoly([1, 1, 2, 1, 1])
        assert q_binomial(2, 3) == Q_ZERO
        assert q_binomial(3, -1) == Q_ZERO
        assert q_binomial(-2, 1) == Q_ZERO

    def test_q_binomial_nonneg_and_value_at_one(self):
        for n in range(13):
            for k in range(n + 1):
                p = q_binomial(n, k)
                assert all(c >= 0 for c in p.coeffs)
                assert p.eval_int(1) == binom(n, k)

    def test_q_binomial_counts_word_inversions(self):
        # distribution of inversions over binary words with k zeros
        from qcomb.stats import inversions
        for n in range(9):
            for k in range(n + 1):
                counts = {}
                for ones in combinations(range(n), n - k):
                    word = [1 if i in ones else 0 for i in range(n)]
                    v = inversions(word)
                    counts[v] = counts.get(v, 0) + 1
                gf = QPoly([counts.get(i, 0) for i in range(max(counts) + 1)])
                assert gf == q_binomial(n, k), (n, k)

    @given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=12).map(QPoly),
           st.integers(0, 15))
    def test_times_q_integer_is_schoolbook_product(self, p, n):
        assert times_q_integer(p, n).coeffs == (p * q_integer(n)).coeffs

    def test_times_q_integer_edges(self):
        assert times_q_integer(Q_ZERO, 5) == Q_ZERO
        assert times_q_integer(QPoly([3, -1]), 0) == Q_ZERO
        assert times_q_integer(QPoly([3, -1]), 1) == QPoly([3, -1])
        with pytest.raises(ValueError):
            times_q_integer(Q_ONE, -1)

    @given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=12).map(QPoly),
           st.integers(1, 15))
    def test_div_q_integer_undoes_times_q_integer(self, p, n):
        prod = times_q_integer(p, n)
        assert div_q_integer(prod, n).coeffs == p.coeffs
        assert div_q_integer(prod, n).coeffs == exact_div(prod, q_integer(n)).coeffs

    @given(st.lists(st.integers(-3, 3), max_size=8).map(QPoly),
           st.integers(1, 6))
    def test_div_q_integer_agrees_with_exact_div(self, p, n):
        try:
            want = exact_div(p, q_integer(n))
        except ExactDivisionError:
            with pytest.raises(ExactDivisionError):
                div_q_integer(p, n)
        else:
            assert div_q_integer(p, n).coeffs == want.coeffs

    def test_div_q_integer_edges(self):
        assert div_q_integer(Q_ZERO, 3) == Q_ZERO
        assert div_q_integer(QPoly([3, -1]), 1) == QPoly([3, -1])
        assert div_q_integer(QPoly([1, 2, 2, 1]), 3) == QPoly([1, 1])
        for p, n in ((QPoly([1, 1, 1]), 2), (Q_ONE, 2), (QPoly([1, 1]), 3),
                     (QPoly([1, 1, 1, 1]), 3)):
            with pytest.raises(ExactDivisionError):
                div_q_integer(p, n)
        with pytest.raises(ZeroDivisionError):
            div_q_integer(Q_ONE, 0)
        with pytest.raises(ValueError):
            div_q_integer(Q_ONE, -1)

    def test_q_binomial_builds_in_linear_steps(self, monkeypatch):
        # a cold q_binomial multiplies and divides only by q-integers
        calls = []

        def counted(name):
            real = getattr(QPoly, name)

            def method(*args):
                calls.append(name)
                return real(*args)
            return method
        for name in ("__mul__", "__rmul__"):
            monkeypatch.setattr(QPoly, name, counted(name))
        q_binomial.cache_clear()
        value = q_binomial(40, 20)
        assert calls == []
        assert value.eval_int(1) == binom(40, 20)
        assert value.degree == 20 * 20

    def test_q_binomial_cache_is_factorial_ratio(self):
        # schoolbook q-factorials, kept apart from times_q_integer
        fact = [Q_ONE]
        for i in range(1, 31):
            fact.append(fact[-1] * q_integer(i))
        want = {(n, k): exact_div(fact[n], fact[k] * fact[n - k])
                if 0 <= k <= n else Q_ZERO
                for n in range(31) for k in range(-1, n + 2)}
        want.update({(n, k): Q_ONE if k == 0 else Q_ZERO
                     for n in range(-3, 0) for k in (-1, 0, 1)})

        assert q_binomial.cache_info().maxsize == 1024
        q_binomial.cache_clear()
        for _ in range(2):  # cold, then from the cache
            for (n, k), value in want.items():
                assert q_binomial(n, k).coeffs == value.coeffs, (n, k)
        assert q_binomial.cache_info().hits >= len(want)

    def test_q_rising(self):
        assert q_rising(5, 0) == Q_ONE
        assert q_rising(0, 1) == Q_ZERO
        assert q_rising(2, 2) == QPoly([1, 2, 2, 1])
        with pytest.raises(ValueError):
            q_rising(1, -1)

    @settings(deadline=None)
    @given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=12).map(QPoly),
           st.integers(0, 12), st.integers(0, 8))
    @example(Q_ZERO, 3, 4)
    @example(QPoly([2, -1, 5]), 0, 3)
    @example(QPoly([2, -1, 5]), 4, 0)
    def test_times_q_rising_is_schoolbook_product(self, p, a, m):
        assert (times_q_rising(p, a, m).coeffs
                == (p * schoolbook_q_rising(a, m)).coeffs)
        assert q_rising(a, m).coeffs == schoolbook_q_rising(a, m).coeffs

    def test_times_q_rising_edges(self):
        assert times_q_rising(Q_ZERO, 2, 3) == Q_ZERO
        assert times_q_rising(QPoly([3, -1]), 0, 2) == Q_ZERO
        assert times_q_rising(QPoly([3, -1]), 5, 0) == QPoly([3, -1])
        for a, m in ((-1, 2), (2, -1), (-1, 0)):
            with pytest.raises(ValueError):
                times_q_rising(Q_ONE, a, m)
            with pytest.raises(ValueError):
                q_rising(a, m)

    def test_q_rising_factorial_ratio(self):
        for n in range(1, 8):
            for m in range(5):
                ratio = exact_div(q_rising(1, n + m - 1), q_rising(1, n - 1))
                assert q_rising(n, m) == ratio

    def test_eval_int(self):
        assert QPoly([1, 1, 1]).eval_int(-1) == 1
        assert QPoly([3, -2, 7]).eval_int(1) == 8
        assert q_integer(4).eval_int(-1) == 0
        assert q_integer(5).eval_int(-1) == 1

    def test_rising_int(self):
        assert rising_int(7, 0) == 1
        assert rising_int(1, 5) == 120
        assert rising_int(2, 3) == 24
        assert rising_int(-2, 2) == 2
        with pytest.raises(ValueError):
            rising_int(1, -1)

    def test_binom_conventions(self):
        assert binom(5, 2) == 10
        assert binom(3, 5) == 0
        assert binom(-1, 0) == 0
        assert binom_gen(-1, 0) == 1
        assert binom_gen(-1, 2) == 1
        assert binom_gen(4, 2) == 6
        assert binom_gen(3, 5) == 0
        assert binom_gen(3, -1) == 0

    def test_desk_scale_exactness(self):
        # inversion distribution over all permutations of 40 symbols:
        # degree 780, coefficient sum exactly 40!
        import math
        p = q_rising(1, 40)
        assert p.degree == 40 * 39 // 2
        assert p.eval_int(1) == math.factorial(40)
        assert rising_int(1, 100) == math.factorial(100)

    def test_elementary_symmetric(self):
        items = [q_integer(i) for i in (1, 2, 3)]
        assert elementary_symmetric(0, items) == Q_ONE
        e1 = items[0] + items[1] + items[2]
        assert elementary_symmetric(1, items) == e1
        assert elementary_symmetric(3, items) == items[0] * items[1] * items[2]
        assert elementary_symmetric(4, items) == Q_ZERO


class TestMPoly:
    def test_from_monomial(self):
        assert MPoly.from_monomial() == MPoly.from_int(1)
        assert ALPHA * BETA + ALPHA * BETA == 2 * ALPHA * BETA
        with pytest.raises(ValueError):
            MPoly.from_monomial(e_alpha=-1)

    def test_zero_terms_dropped(self):
        assert (ALPHA - ALPHA).is_zero()
        assert MPoly({(1, 0, 0, 0): 0}) == MPoly()

    def test_evaluate_rational(self):
        p = shifted_factorial(2, X - R, BETA)
        a, b, r, x = Fraction(2, 3), Fraction(-1, 2), Fraction(5), Fraction(7, 4)
        direct = (x - r) * (x - r - b)
        assert evaluate(p, a, b, r, x) == direct

    def test_canonical_order_and_json(self):
        p = 2 * R + ALPHA + BETA + ALPHA * BETA
        exps_order = [e for e, _ in p.sorted_terms()]
        assert exps_order == [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                              (1, 1, 0, 0)]
        assert MPoly({tuple(t["exps"]): int(t["coeff"])
                      for t in json.loads(json.dumps(p.to_json()))}) == p

    def test_str(self):
        assert str(MPoly()) == "0"
        assert str(ALPHA + BETA + 2 * R) == "alpha + beta + 2*r"


class TestMPolyMonomialsAndProducts:
    def test_from_monomial_with_coefficient_zero_is_zero(self):
        p = MPoly.from_monomial(e_alpha=2, e_r=1, coeff=0)
        assert p.is_zero() and p.terms == {} and p == MPoly()

    def test_from_monomial_keeps_its_negative_exponent_error(self):
        with pytest.raises(ValueError) as err:
            MPoly.from_monomial(1, -2, 0, 3, coeff=0)
        assert str(err.value) == "negative exponent in monomial (1, -2, 0, 3)"

    def test_from_monomial_calls_share_no_terms(self):
        for coeff in (0, 1):
            a = MPoly.from_monomial(e_beta=1, coeff=coeff)
            b = MPoly.from_monomial(e_beta=1, coeff=coeff)
            assert a.terms is not b.terms
            a.terms[(9, 9, 9, 9)] = 1
            assert (9, 9, 9, 9) not in b.terms

    def test_cancelled_cross_terms_vanish_from_products(self):
        # a monomial times two terms, and two terms times two terms whose
        # cross terms cancel and must vanish from the term map
        for a, b, want in [
                (ALPHA, ALPHA - BETA, {(2, 0, 0, 0): 1, (1, 1, 0, 0): -1}),
                (ALPHA + BETA, ALPHA - BETA, {(2, 0, 0, 0): 1, (0, 2, 0, 0): -1}),
                (ALPHA + 1, ALPHA - 1, {(2, 0, 0, 0): 1, (0, 0, 0, 0): -1}),
                (R - X, R + X, {(0, 0, 2, 0): 1, (0, 0, 0, 2): -1})]:
            assert (a * b).terms == want
            assert (b * a).terms == want


class TestShiftedFactorial:
    def test_empty_product(self):
        assert shifted_factorial(0, X, BETA) == MPoly.from_int(1)

    def test_single_factor(self):
        assert shifted_factorial(1, X, -ALPHA) == X

    def test_negative_length_is_an_error(self):
        with pytest.raises(ValueError):
            shifted_factorial(-1, X, ALPHA)

    def test_expansion_matches_pointwise_product(self):
        p = shifted_factorial(3, X - R, BETA)
        pts = [(Fraction(1, 2), Fraction(2, 3), Fraction(-3), Fraction(5, 7)),
               (Fraction(0), Fraction(1), Fraction(1, 5), Fraction(4))]
        for a, b, r, x in pts:
            direct = (x - r) * (x - r - b) * (x - r - 2 * b)
            assert evaluate(p, a, b, r, x) == direct


class TestRingAxioms:
    sample_qpolys = [QPoly(c) for c in
                     [(), (1,), (-3,), (0, 1), (2, -1), (1, 1, 1), (-2, 0, 3),
                      (1, -1, 2, -2), (3, 0, 0, 1)]]
    sample_mpolys = [MPoly(), MPoly.from_int(2), ALPHA, BETA - R, X * X,
                     ALPHA * BETA - 3, 2 * R + X, ALPHA + BETA + R + X]

    def test_qpoly_axioms_exhaustive_sample(self):
        s = self.sample_qpolys
        for a in s:
            for b in s:
                assert a + b == b + a
                assert a * b == b * a
                for c in s:
                    assert (a + b) + c == a + (b + c)
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c

    def test_mpoly_axioms_exhaustive_sample(self):
        s = self.sample_mpolys
        for a in s:
            for b in s:
                assert a + b == b + a
                assert a * b == b * a
                for c in s:
                    assert (a + b) + c == a + (b + c)
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c

    @given(qpolys, qpolys, qpolys)
    def test_qpoly_axioms_random(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(mpolys, mpolys, mpolys)
    def test_mpoly_axioms_random(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(qpolys, st.integers(-5, 5))
    def test_eval_is_ring_hom(self, p, t):
        q = QPoly([2, -1, 3])
        assert (p * q).eval_int(t) == p.eval_int(t) * q.eval_int(t)
        assert (p + q).eval_int(t) == p.eval_int(t) + q.eval_int(t)


def _raw(p):
    """The stored contents of a value, compared without its own __eq__."""
    return p.coeffs if isinstance(p, QPoly) else p.terms


# carrier strategy, its constant of an int, and an equal value built another
# way (MPoly: the same terms in reverse insertion order)
CARRIERS = [
    pytest.param(qpolys, lambda c: QPoly([c]),
                 lambda p: QPoly(list(p.coeffs) + [0, 0]), id="QPoly"),
    pytest.param(mpolys, MPoly.from_int,
                 lambda p: MPoly(dict(reversed(p.terms.items()))), id="MPoly"),
]


@pytest.mark.parametrize("polys, const, rebuild", CARRIERS)
class TestSharedRingPlumbing:
    """Subtraction, powers, equality, truth and hashing are written once for
    both carriers; each is checked against the carrier's own +, *, unary -
    and is_zero, the reference they are built on."""

    @given(data=st.data())
    def test_subtraction(self, polys, const, rebuild, data):
        a, b = data.draw(polys), data.draw(polys)
        c = data.draw(st.integers(-5, 5))
        assert _raw(a - b) == _raw(a + (-1) * b)
        assert _raw(a - c) == _raw(a + const(-c))
        assert _raw(c - a) == _raw(const(c) + (-1) * a)
        assert type(a - b) is type(a - c) is type(c - a) is type(a)

    @given(data=st.data())
    def test_power_is_repeated_product(self, polys, const, rebuild, data):
        a = data.draw(polys)
        product = const(1)
        for e in range(7):
            assert _raw(a ** e) == _raw(product)
            product = product * a
        with pytest.raises(ValueError):
            a ** -1

    @given(data=st.data())
    def test_equality_with_int(self, polys, const, rebuild, data):
        a = data.draw(st.one_of(polys, st.integers(-3, 3).map(const)))
        c = data.draw(st.integers(-3, 3))
        is_c = _raw(a) == _raw(const(c))
        assert (a == c) is is_c
        assert (c == a) is is_c
        assert (a != c) is (not is_c)

    @given(data=st.data())
    def test_truth_is_nonzero(self, polys, const, rebuild, data):
        a = data.draw(polys)
        assert bool(a) == (not a.is_zero())

    @given(data=st.data())
    def test_equal_values_hash_equal(self, polys, const, rebuild, data):
        a = data.draw(polys)
        c = data.draw(st.integers(-5, 5))
        for x, y in ((a, rebuild(a)), (a, a + 0), (a, a * 1), (const(c), c)):
            assert x == y
            assert hash(x) == hash(y)
        assert {c: "value"}.get(const(c)) == "value"
        assert len({const(c), c}) == 1


@pytest.mark.parametrize("cls, base", [(QPoly, QPoly([1, -2, 1])),
                                       (MPoly, ALPHA + BETA - 2)],
                         ids=["QPoly", "MPoly"])
def test_power_multiplication_count(monkeypatch, cls, base):
    """b ** e makes bit_length(e) - 1 squarings and popcount(e) - 1 other
    products, and none of them by ONE."""
    operands = []
    mul = cls.__mul__

    def counting_mul(a, b):
        operands.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(cls, "__mul__", counting_mul)
    for e in range(10):
        operands.clear()
        base ** e
        want = max(e.bit_length() - 1, 0) + max(bin(e).count("1") - 1, 0)
        assert len(operands) == want, e
        assert all(cls.ONE not in pair for pair in operands), e


# a carrier beside an operand that is neither an int nor its own type
FOREIGN = [
    pytest.param(QPoly([1, 2]), 0.5, id="QPoly-float"),
    pytest.param(QPoly([1, 2]), Fraction(1, 2), id="QPoly-Fraction"),
    pytest.param(QPoly([1, 2]), X, id="QPoly-MPoly"),
    pytest.param(X, 2.5, id="MPoly-float"),
    pytest.param(X, Fraction(1, 2), id="MPoly-Fraction"),
    pytest.param(X, QPoly([1, 2]), id="MPoly-QPoly"),
]


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
@pytest.mark.parametrize("poly, foreign", FOREIGN)
def test_foreign_operand_is_type_error(poly, foreign, op):
    with pytest.raises(TypeError):
        op(poly, foreign)
    with pytest.raises(TypeError):
        op(foreign, poly)


@given(qpolys, mpolys)
def test_qpoly_never_equals_mpoly(a, m):
    assert a != m and m != a
    assert not (a == m or m == a)


def test_constants_of_the_two_carriers_differ():
    for c in (0, 1, -2):
        assert QPoly([c]) != MPoly.from_int(c)


# str() of each carrier, pinned before the two methods shared one helper
STR_PIN = [
    (QPoly(), "0"), (QPoly([0, 0]), "0"), (QPoly([7]), "7"),
    (QPoly([-7]), "-7"), (QPoly([0, 1]), "q"), (QPoly([0, -1]), "-q"),
    (QPoly([1, 1, 1]), "1 + q + q^2"), (QPoly([-1, 0, -1]), "-1 - q^2"),
    (QPoly([0, 2, 0, -3]), "2*q - 3*q^3"),
    (QPoly([5, -1, 1, -12, 0, 1]), "5 - q + q^2 - 12*q^3 + q^5"),
    (MPoly(), "0"), (MPoly({(0, 0, 0, 0): 0}), "0"),
    (MPoly({(0, 0, 0, 0): 3}), "3"), (MPoly({(0, 0, 0, 0): -3}), "-3"),
    (ALPHA, "alpha"), (-BETA, "-beta"), (ALPHA * BETA * R * X, "alpha*beta*r*x"),
    (X - 1, "-1 + x"), (1 - X, "1 - x"),
    (2 * R * X - 3 * ALPHA ** 2 + ALPHA - BETA ** 3 * X,
     "alpha - 3*alpha^2 + 2*r*x - beta^3*x"),
    ((ALPHA + BETA - R) ** 2 - 4,
     "-4 + alpha^2 + 2*alpha*beta - 2*alpha*r + beta^2 - 2*beta*r + r^2"),
]


def test_str_pinned():
    assert [str(v) for v, _ in STR_PIN] == [s for _, s in STR_PIN]
