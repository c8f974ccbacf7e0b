"""The iterative triangle kernels of families.py and classical.py against the
recursive definitions they replaced, and the restricted q-engines, which
fill one triangle per r, against the term-by-term shift sums that once
computed them; both are kept here as the reference."""

import json
import math
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qcomb
from qcomb import classical
from qcomb.families import (hsu_shiue, lah_q, stirling1_q, stirling2_q,
                            stirling_neg1)
from qcomb.polyring import (ALPHA, BETA, M_ZERO, MPoly, Q_ONE, Q_ZERO, R,
                            binom, q_binomial, q_integer)
from reference import q_rising as schoolbook_q_rising

# ---------------------------------------------------------------------------
# the recursive definitions, as they were in the engines
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def ref_stirling2_q(n, k):
    if k < 0 or k > n:
        return Q_ZERO
    if n == 0 or k == 0:
        return Q_ONE if n == k else Q_ZERO
    return (ref_stirling2_q(n - 1, k - 1).shift(k - 1)
            + q_integer(k) * ref_stirling2_q(n - 1, k))


@lru_cache(maxsize=None)
def ref_lah_q(n, k):
    if k < 0 or k > n:
        return Q_ZERO
    if n == 0 or k == 0:
        return Q_ONE if n == k else Q_ZERO
    return (ref_lah_q(n - 1, k - 1).shift(n + k - 2)
            + q_integer(n + k - 1) * ref_lah_q(n - 1, k))


@lru_cache(maxsize=None)
def ref_stirling1_q(n, k):
    if k < 0 or k > n:
        return Q_ZERO
    if n == 0 or k == 0:
        return Q_ONE if n == k else Q_ZERO
    return (ref_stirling1_q(n - 1, k - 1)
            + q_integer(n - 1) * ref_stirling1_q(n - 1, k))


@lru_cache(maxsize=None)
def ref_hsu_shiue(n, k):
    if k < 0 or k > n:
        return M_ZERO
    if n == 0:
        return MPoly.from_int(1)
    return (ref_hsu_shiue(n - 1, k - 1)
            + (ALPHA * (n - 1) + BETA * k + R) * ref_hsu_shiue(n - 1, k))


@lru_cache(maxsize=None)
def ref_stirling2(n, k):
    if n < 0 or k < 0 or k > n:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    return ref_stirling2(n - 1, k - 1) + k * ref_stirling2(n - 1, k)


@lru_cache(maxsize=None)
def ref_stirling1(n, k):
    if n < 0 or k < 0 or k > n:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    return ref_stirling1(n - 1, k - 1) + (n - 1) * ref_stirling1(n - 1, k)


@lru_cache(maxsize=None)
def ref_lah(n, k):
    if n < 0 or k < 0 or k > n:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    return ref_lah(n - 1, k - 1) + (n + k - 1) * ref_lah(n - 1, k)


@lru_cache(maxsize=None)
def ref_stirling2_r(n, k, r):
    if n < 0 or k < 0 or k > n:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    return ref_stirling2_r(n - 1, k - 1, r) + (k + r) * ref_stirling2_r(n - 1, k, r)


@lru_cache(maxsize=None)
def ref_stirling1_r(n, k, r):
    if n < 0 or k < 0 or k > n:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    return (ref_stirling1_r(n - 1, k - 1, r)
            + (n + r - 1) * ref_stirling1_r(n - 1, k, r))


@lru_cache(maxsize=None)
def ref_lah_r(n, k, r):
    if n < 0 or k < 0 or k > n:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    return ref_lah_r(n - 1, k - 1, r) + (n + k + 2 * r - 1) * ref_lah_r(n - 1, k, r)


@lru_cache(maxsize=None)
def ref_ext_lah_count(n, k):
    if n < 0 or k < 0 or k > n:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    return ref_ext_lah_count(n - 1, k - 1) + (n + k) * ref_ext_lah_count(n - 1, k)


# triangle -> (kernel-backed function, reference), both taking (n, k, r);
# the triangles without a restriction ignore r
TRIANGLES = {
    "stirling2_q": (lambda n, k, r: stirling2_q(n, k),
                    lambda n, k, r: ref_stirling2_q(n, k)),
    "lah_q": (lambda n, k, r: lah_q(n, k), lambda n, k, r: ref_lah_q(n, k)),
    "stirling1_q": (lambda n, k, r: stirling1_q(n, k),
                    lambda n, k, r: ref_stirling1_q(n, k)),
    "hsu_shiue": (lambda n, k, r: hsu_shiue(n, k),
                  lambda n, k, r: ref_hsu_shiue(n, k)),
    "stirling2": (lambda n, k, r: classical.stirling2(n, k),
                  lambda n, k, r: ref_stirling2(n, k)),
    "stirling1": (lambda n, k, r: classical.stirling1_r(n, k, 0),
                  lambda n, k, r: ref_stirling1(n, k)),
    "lah": (lambda n, k, r: classical.lah(n, k), lambda n, k, r: ref_lah(n, k)),
    "stirling2_r": (classical.stirling2_r, ref_stirling2_r),
    "stirling1_r": (classical.stirling1_r, ref_stirling1_r),
    "lah_r": (classical.lah_r, ref_lah_r),
    "ext_lah_count": (lambda n, k, r: classical.ext_lah_count(n, k),
                      lambda n, k, r: ref_ext_lah_count(n, k)),
}
RESTRICTED = ("stirling2_r", "stirling1_r", "lah_r")


# ---------------------------------------------------------------------------
# the r > 0 shift sums, term by term, as they were in the engines
# ---------------------------------------------------------------------------


ref_q_rising = lru_cache(maxsize=None)(schoolbook_q_rising)


def ref_shift_stirling2_q(n, k, r):
    if k < 0 or k > n:
        return Q_ZERO
    rq = q_integer(r)
    total = Q_ZERO
    for i in range(k, n + 1):
        term = ref_stirling2_q(i, k) * binom(n, i) * rq ** (n - i)
        total = total + term.shift(i * r)
    return total


def ref_shift_lah_q(n, k, r):
    if k < 0 or k > n:
        return Q_ZERO
    total = Q_ZERO
    for i in range(k, n + 1):
        term = ref_q_rising(2 * r, n - i) * q_binomial(n, i) * ref_lah_q(i, k)
        total = total + term.shift(r * (2 * i + r - 1))
    return total


def ref_shift_stirling1_q(n, k, r):
    if k < 0 or k > n:
        return Q_ZERO
    total = Q_ZERO
    for i in range(k, n + 1):
        total = total + (ref_q_rising(r, n - i) * q_binomial(n, i)
                         * ref_stirling1_q(i, k))
    return total


SHIFT_SUMS = {
    "stirling2_q": (stirling2_q, ref_shift_stirling2_q),
    "lah_q": (lah_q, ref_shift_lah_q),
    "stirling1_q": (stirling1_q, ref_shift_stirling1_q),
}


@pytest.mark.parametrize("name", SHIFT_SUMS)
def test_shift_sums_every_cell_up_to_20(name):
    fn, ref = SHIFT_SUMS[name]
    for r in range(4):
        for n in range(21):
            for k in range(-1, n + 2):
                assert fn(n, k, r) == ref(n, k, r), (name, n, k, r)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(SHIFT_SUMS)), st.integers(0, 26),
       st.integers(-1, 27), st.integers(0, 6))
def test_shift_sums_random_cell(name, n, k, r):
    fn, ref = SHIFT_SUMS[name]
    assert fn(n, k, r) == ref(n, k, r), (name, n, k, r)


@pytest.mark.parametrize("name", TRIANGLES)
def test_every_cell_up_to_25(name):
    fn, ref = TRIANGLES[name]
    for r in range(4) if name in RESTRICTED else (0,):
        for n in range(26):
            for k in range(-1, n + 2):
                assert fn(n, k, r) == ref(n, k, r), (name, n, k, r)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(TRIANGLES)), st.integers(0, 30),
       st.integers(-1, 31), st.integers(0, 3))
def test_random_cell(name, n, k, r):
    fn, ref = TRIANGLES[name]
    assert fn(n, k, r) == ref(n, k, r), (name, n, k, r)


def test_cells_out_of_order():
    """A cold kernel asked for a cell at r = 2, then at r = 0, then at r = 2
    for a lower column further down and for new columns further down, then
    at r = 1, extends every column of every r correctly; the restricted
    q-engines are compared with the shift sums."""
    order = [(9, 4, 2), (12, 2, 0), (12, 2, 2), (13, 7, 2), (10, 5, 1)]
    script = (
        "import json\n"
        "from qcomb import classical\n"
        "from qcomb.families import hsu_shiue, lah_q, stirling1_q, stirling2_q\n"
        f"order = {order!r}\n"
        "out = {}\n"
        "for name, fn in [('stirling2_q', stirling2_q), ('lah_q', lah_q),\n"
        "                 ('stirling1_q', stirling1_q)]:\n"
        "    out[name] = [fn(n, k, r).to_json() for n, k, r in order]\n"
        "out['hsu_shiue'] = [hsu_shiue(n, k).to_json() for n, k, r in order]\n"
        "for name in ('stirling2_r', 'stirling1_r', 'lah_r'):\n"
        "    out[name] = [getattr(classical, name)(n, k, r) for n, k, r in order]\n"
        "out['ext_lah_count'] = [classical.ext_lah_count(n, k)\n"
        "                        for n, k, r in order]\n"
        "print(json.dumps(out))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(qcomb.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True, env=env)
    got = json.loads(proc.stdout)
    for name, values in got.items():
        ref = SHIFT_SUMS[name][1] if name in SHIFT_SUMS else TRIANGLES[name][1]
        want = [ref(n, k, r) for n, k, r in order]
        if name in SHIFT_SUMS or name == "hsu_shiue":
            want = [v.to_json() for v in want]
        assert values == want, name


class TestLargeN:
    """Sizes that overflowed the stack of the recursive definitions."""

    def test_stirling2_q(self):
        value = stirling2_q(1200, 3)
        assert value.eval_int(1) == classical.stirling2(1200, 3)
        assert value.eval_int(-1) == stirling_neg1("plain", 1200, 3)

    def test_restricted_stirling2(self):
        # sum over i of binom(n, i) * S(i, 2) * 1^(n-i), S(i, 2) = 2^(i-1) - 1
        assert classical.stirling2_r(1500, 2, 1) == (3 ** 1500 + 1) // 2 - 2 ** 1500

    def test_ext_lah_count(self):
        # the Lah triangle at r = 1/2: binom(n, k) * n! / k!
        assert classical.ext_lah_count(3000, 4) == \
            math.comb(3000, 4) * math.factorial(3000) // math.factorial(4)
