"""The pruned two-part sum against the body it replaced.

reference_two_part below is the earlier identities._two_part, which built
every term weight(i, j) * left(j) * right(i, j), zero or not; it stays here
as the reference.  The pruned body must give the same value, of the same
carrier type, and the same reports and counterexamples.
"""

import pytest
from hypothesis import example, given, strategies as st

from qcomb import families, identities
from qcomb.identities import _two_part, check, serialize_value
from qcomb.polyring import M_ZERO, MPoly, Q_ONE, Q_ZERO, QPoly, binom_gen


def reference_two_part(n, js, weight, left, right, zero):
    lefts = [(j, left(j)) for j in js]
    return sum((weight(i, j) * value * right(i, j)
                for i in range(n + 1) for j, value in lefts), zero)


exps = st.tuples(*(st.integers(0, 2) for _ in range(4)))
CARRIERS = {
    "int": (st.integers(-5, 5), 0),
    "qpoly": (st.lists(st.integers(-3, 3), max_size=3).map(QPoly), Q_ZERO),
    "mpoly": (st.dictionaries(exps, st.integers(-3, 3), max_size=3).map(MPoly),
              M_ZERO),
}


@st.composite
def sums(draw):
    """A two-part sum over tables of factors, about half of them zero."""
    values, zero = CARRIERS[draw(st.sampled_from(sorted(CARRIERS)))]
    factor = st.one_of(st.just(zero), values)
    n = draw(st.integers(0, 3))
    lo = draw(st.integers(0, 2))
    js = range(lo, lo + draw(st.integers(0, 4)))
    cells = [(i, j) for i in range(n + 1) for j in js]
    left = {j: draw(factor) for j in js}
    right = {c: draw(factor) for c in cells}
    weight = {c: draw(values) for c in cells}
    return n, js, weight, left, right, zero


def _call(body, n, js, weight, left, right, zero, calls=None):
    def w(i, j):
        if calls is not None:
            calls.append((i, j))
        return weight[i, j]
    return body(n, js, w, left.__getitem__, lambda i, j: right[i, j], zero)


@given(sums())
@example((2, range(0, 2), {(i, j): 1 for i in range(3) for j in range(2)},
          {0: 0, 1: 0}, {(i, j): 1 for i in range(3) for j in range(2)}, 0))
@example((1, range(1, 3), {(i, j): Q_ONE for i in range(2) for j in (1, 2)},
          {1: Q_ONE, 2: QPoly([0, 1])},
          {(i, j): Q_ZERO for i in range(2) for j in (1, 2)}, Q_ZERO))
@example((0, range(0, 0), {}, {}, {}, M_ZERO))
def test_pruned_sum_matches_reference(case):
    got = _call(_two_part, *case)
    want = _call(reference_two_part, *case)
    assert type(got) is type(want)
    assert serialize_value(got) == serialize_value(want)


@given(sums())
def test_weight_only_where_both_factors_are_nonzero(case):
    n, js, weight, left, right, zero = case
    calls = []
    _call(_two_part, *case, calls=calls)
    assert calls == [(i, j) for j in js for i in range(n + 1)
                     if left[j] and right[i, j]]


@pytest.mark.parametrize("name, overrides", [
    ("I-BIN-1", {"m": (1, 5), "n": (1, 5)}),
    ("I-P1E1", {"m": (0, 4), "n": (0, 4), "m+n": (0, 4)}),
    ("I-T5E1", {"m": (0, 3), "n": (0, 3), "m+n": (0, 3)}),
])
def test_registry_weights_skip_vanishing_terms(monkeypatch, name, overrides):
    # every weight the registry builds has both factors nonzero, and the
    # terms skipped are the zero ones the reference would have built
    built, nonzero, terms = [], [], []

    def counting(n, js, weight, left, right, zero):
        def checked(i, j):
            assert left(j) and right(i, j), (i, j)
            built.append((i, j))
            return weight(i, j)
        terms.append((n + 1) * len(js))
        nonzero.append(sum(1 for i in range(n + 1) for j in js
                           if left(j) and right(i, j)))
        return _two_part(n, js, checked, left, right, zero)

    monkeypatch.setattr(identities, "_two_part", counting)
    assert check(name, overrides).status == "pass"
    assert len(built) == sum(nonzero) < sum(terms)


def _bump_lah(real, at):
    # lah_q with one cell replaced: a zero (k > n) made one, or a value
    # made zero
    def lah_q(n, k, r=0):
        if (n, k, r) != at:
            return real(n, k, r)
        return Q_ZERO if real(n, k, r) else Q_ONE
    return lah_q


def _bump_binom_gen(real, at):
    def binom_gen(a, b):
        if (a, b) != at:
            return real(a, b)
        return 0 if real(a, b) else 1
    return binom_gen


@pytest.mark.parametrize("name, engine, patch", [
    ("I-P2E1", "lah_q", _bump_lah(families.lah_q, (2, 3, 0))),
    ("I-P2E1", "lah_q", _bump_lah(families.lah_q, (1, 1, 0))),
    ("I-BIN-3", "binom_gen", _bump_binom_gen(binom_gen, (0, -1))),
    ("I-BIN-3", "binom_gen", _bump_binom_gen(binom_gen, (1, 1))),
])
def test_counterexample_matches_reference(monkeypatch, name, engine, patch):
    # an engine is planted where every identity finds it, a helper where
    # the identities import it
    module = families if engine in families.FAMILIES else identities
    monkeypatch.setattr(module, engine, patch)
    got = check(name)
    monkeypatch.setattr(identities, "_two_part", reference_two_part)
    want = check(name)
    assert got.status == want.status == "fail"
    assert got.cells_checked == want.cells_checked
    for field in ("params", "lhs", "rhs"):
        assert got.counterexample[field] == want.counterexample[field]
    assert got.to_json() == want.to_json()
