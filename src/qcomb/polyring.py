"""Exact polynomial arithmetic underlying all q-analogues.

Two carrier types:

  QPoly  -- dense univariate polynomial in q with arbitrary-precision integer
            coefficients.  Every q-number (q-integers, q-factorials,
            q-binomials, q-Stirling/Bell/Lah values) is a QPoly.
  MPoly  -- sparse polynomial in the four weight variables (alpha, beta, r, x)
            with integer coefficients, used for generalized Stirling numbers
            and generalized Bell polynomials.

All arithmetic is exact: Python ints carry the coefficients, so there is no
overflow and no rounding.  Values are immutable after construction and safe
to share between threads.  A constant of either carrier equals the int it
stands for and hashes like it.  Each carrier writes its JSON form
(``to_json``); nothing in the package reads that form back.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
from operator import sub
from typing import Iterable, Sequence


class ExactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


class _Poly:
    """Ring plumbing shared by QPoly and MPoly.

    A subclass defines the hot operators (+, *, unary -, is_zero) itself and
    supplies ``ONE``, ``_coerce`` (its value of an int or of itself, and
    NotImplemented for any other operand) and ``_data()`` (the canonical
    contents that decide equality).  Only ints and the carrier's own type
    mix with a carrier; anything else is a TypeError, never an inexact or
    nested polynomial.
    """

    __slots__ = ()

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else other + (-self)

    def __pow__(self, n: int):
        """Binary powering: bit_length(n) - 1 squarings and popcount(n) - 1
        other products, none of them by ONE."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return self.ONE
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __eq__(self, other: object) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._data() == other._data()

    def __bool__(self) -> bool:
        return not self.is_zero()


def _signed_sum(terms: Iterable[tuple[int, str]]) -> str:
    """Join (coefficient, monomial) pairs, the constant's monomial being "",
    as 'c*m + m - m - c', and the empty sum as '0'."""
    parts = []
    for c, mono in terms:
        if not mono:
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{c}*{mono}")
    return " + ".join(parts).replace("+ -", "- ") or "0"


# ---------------------------------------------------------------------------
# univariate polynomials in q
# ---------------------------------------------------------------------------

class QPoly(_Poly):
    """Polynomial in q, stored as an ascending coefficient tuple.

    The zero polynomial is the empty tuple; otherwise the trailing
    coefficient is nonzero, so equality of values is equality of tuples.

    >>> QPoly([1, 1, 1]) * QPoly([1, 1])
    QPoly([1, 2, 2, 1])
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    # -- ring operations ----------------------------------------------------

    @staticmethod
    def _coerce(value: "QPoly | int") -> "QPoly":
        if isinstance(value, QPoly):
            return value
        if isinstance(value, int):
            return QPoly((value,))
        return NotImplemented

    def _data(self) -> tuple[int, ...]:
        return self.coeffs

    def __add__(self, other: "QPoly | int") -> "QPoly":
        if not isinstance(other, QPoly):
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly([-c for c in self.coeffs])

    def __mul__(self, other: "QPoly | int") -> "QPoly":
        if isinstance(other, int):
            return QPoly([other * c for c in self.coeffs])
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Q_ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return QPoly(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "QPoly":
        """Multiply by q**k; zero for the zero polynomial, whatever k is."""
        if self.is_zero():
            return Q_ZERO
        if k < 0:
            raise ValueError("negative shift")
        return QPoly((0,) * k + self.coeffs)

    # -- evaluation and serialization ----------------------------------------

    def eval_int(self, t: int) -> int:
        """Exact evaluation at an integer point (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def to_json(self) -> list[str]:
        """Ascending coefficient array of decimal strings."""
        return [str(c) for c in self.coeffs]

    # -- dunder plumbing ------------------------------------------------------

    def __hash__(self) -> int:
        if len(self.coeffs) < 2:             # a constant, hashed like its int
            return hash(sum(self.coeffs))
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"QPoly({list(self.coeffs)})"

    def __str__(self) -> str:
        return _signed_sum((c, "" if i == 0 else "q" if i == 1 else f"q^{i}")
                           for i, c in enumerate(self.coeffs) if c)


Q_ZERO = QPoly()
Q_ONE = QPoly.ONE = QPoly((1,))
Q = QPoly((0, 1))


# ---------------------------------------------------------------------------
# q-combinatorial primitives
# ---------------------------------------------------------------------------

def q_integer(n: int) -> QPoly:
    """The q-integer 1 + q + ... + q**(n-1); zero for n = 0."""
    if n < 0:
        raise ValueError(f"q_integer requires n >= 0, got {n}")
    return QPoly((1,) * n)


def times_q_integer(p: QPoly, n: int) -> QPoly:
    """p * q_integer(n) in O(deg p + n) additions.

    Coefficient j of the product is the sum of the coefficients j-n+1..j of
    p, read off one running (prefix) sum instead of a schoolbook product.
    """
    if n < 0:
        raise ValueError(f"times_q_integer requires n >= 0, got {n}")
    if not n or not p.coeffs:
        return Q_ZERO
    prefix = list(accumulate(p.coeffs, initial=0))
    pad = [prefix[-1]] * (n - 1)
    return QPoly(map(sub, prefix[1:] + pad, [0] * (n - 1) + prefix[:-1]))


def div_q_integer(p: QPoly, n: int) -> QPoly:
    """p / q_integer(n) in O(deg p + n) additions; ExactDivisionError unless
    the division is exact.

    [n] = (1 - q^n) / (1 - q), so p is multiplied by 1 - q (one pass of
    differences d) and divided by 1 - q^n: the quotient's coefficients
    follow s_j = d_j + s_(j-n), and the division is exact iff the last n
    of them vanish.
    """
    if n < 0:
        raise ValueError(f"div_q_integer requires n >= 0, got {n}")
    if not n:
        raise ZeroDivisionError("division by the zero polynomial")
    c = p.coeffs
    if not c:
        return Q_ZERO
    d = list(map(sub, c + (0,), (0,) + c))
    for j in range(n, len(d)):
        d[j] += d[j - n]
    cut = len(d) - n
    if cut < 1 or any(d[cut:]):
        raise ExactDivisionError(
            f"nonzero remainder in division by q_integer({n})")
    return QPoly(d[:cut])


@lru_cache(maxsize=1024)
def q_binomial(n: int, k: int) -> QPoly:
    """Gaussian binomial coefficient.

    Total on integer pairs: 1 whenever k = 0 (any n), the q-factorial ratio
    [n]! / ([k]! [n-k]!) for 0 <= k <= n, and 0 otherwise.  It is built as
    the product of [n-i+1] / [i] over i = 1..min(k, n-k), one
    times_q_integer and one div_q_integer per step, each linear in the
    degree; every partial product is the Gaussian binomial (n, i), so each
    division is exact.  The 1024 most recently used values are kept: its
    callers, families.lah_q_closed_form (I-LAH-CF) and the sums of
    I-P2E1/2, I-QBIN, I-T3E1/2, I-T4E2/3 and I-T4C1, ask for a few hundred
    (n, k) pairs over and over.  Each of them looks it up here, as
    ``polyring.q_binomial``, when it runs.
    """
    if k == 0:
        return Q_ONE
    if k < 0 or n < 0 or k > n:
        return Q_ZERO
    p = Q_ONE
    for i in range(1, min(k, n - k) + 1):
        p = div_q_integer(times_q_integer(p, n - i + 1), i)
    return p


def times_q_rising(p: QPoly, a: int, m: int) -> QPoly:
    """p * q_rising(a, m) in m times_q_integer steps, each linear in the
    degree, instead of a schoolbook product."""
    if a < 0 or m < 0:
        raise ValueError(
            f"a q-rising factorial requires a, m >= 0, got ({a}, {m})")
    for i in range(a, a + m):
        p = times_q_integer(p, i)
    return p


def q_rising(n: int, m: int) -> QPoly:
    """q-rising factorial: product of the q-integers n, n+1, ..., n+m-1."""
    return times_q_rising(Q_ONE, n, m)


def elementary_symmetric(j: int, items: Sequence[QPoly]) -> QPoly:
    """The j-th elementary symmetric polynomial of the given values."""
    if j < 0 or j > len(items):
        return Q_ZERO
    # e[t] holds the t-th elementary symmetric value of the prefix seen so far
    e = [Q_ONE] + [Q_ZERO] * j
    for it in items:
        for t in range(j, 0, -1):
            e[t] = e[t] + e[t - 1] * it
    return e[j]


# ---------------------------------------------------------------------------
# integer helpers shared by the number engines and identity checks
# ---------------------------------------------------------------------------

def rising_int(a: int, b: int) -> int:
    """Rising factorial a(a+1)...(a+b-1); one for b = 0."""
    if b < 0:
        raise ValueError(f"rising_int requires b >= 0, got {b}")
    out = 1
    for i in range(b):
        out *= a + i
    return out


def binom(n: int, k: int) -> int:
    """Binomial coefficient, zero outside 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def binom_gen(a: int, b: int) -> int:
    """Generalized binomial: falling product over b!, any integer a.

    Zero for b < 0; binom_gen(a, 0) == 1 for every a, including negatives.
    Matches the convention under which closed forms for q = -1
    specializations stay valid at their support boundaries.
    """
    if b < 0:
        return 0
    num = 1
    for t in range(b):
        num *= a - t
    return num // math.factorial(b)


# ---------------------------------------------------------------------------
# sparse polynomials in (alpha, beta, r, x)
# ---------------------------------------------------------------------------

VAR_NAMES = ("alpha", "beta", "r", "x")
_EXP0 = (0, 0, 0, 0)


class MPoly(_Poly):
    """Sparse polynomial in (alpha, beta, r, x) over the integers.

    Terms map exponent 4-tuples to nonzero coefficients; two values are
    equal iff their term maps are identical.  Canonical term order for
    serialization is graded lexicographic on the fixed variable tuple.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int, int, int], int] | None = None):
        if terms is None:
            self.terms = {}
        else:
            self.terms = {e: c for e, c in terms.items() if c != 0}

    @classmethod
    def from_int(cls, value: int) -> "MPoly":
        return cls({_EXP0: value})

    @classmethod
    def from_monomial(cls, e_alpha: int = 0, e_beta: int = 0, e_r: int = 0,
                      e_x: int = 0, coeff: int = 1) -> "MPoly":
        exps = (e_alpha, e_beta, e_r, e_x)
        if min(exps) < 0:
            raise ValueError(f"negative exponent in monomial {exps}")
        return cls({exps: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    # -- ring operations ----------------------------------------------------

    @staticmethod
    def _coerce(value: "MPoly | int") -> "MPoly":
        if isinstance(value, MPoly):
            return value
        if isinstance(value, int):
            return MPoly.from_int(value)
        return NotImplemented

    def _data(self) -> dict[tuple[int, int, int, int], int]:
        return self.terms

    def __add__(self, other: "MPoly | int") -> "MPoly":
        if not isinstance(other, MPoly):
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly({e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "MPoly | int") -> "MPoly":
        if isinstance(other, int):
            return MPoly({e: other * c for e, c in self.terms.items()})
        if not isinstance(other, MPoly):
            return NotImplemented
        out: dict[tuple[int, int, int, int], int] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2], ea[3] + eb[3])
                out[e] = out.get(e, 0) + ca * cb
        return MPoly(out)

    __rmul__ = __mul__

    # -- canonical order and serialization ------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, int, int, int], int]]:
        """Terms in graded-lexicographic order on (alpha, beta, r, x):
        degree first, then alpha before beta before r before x."""
        return sorted(self.terms.items(),
                      key=lambda kv: (sum(kv[0]), tuple(-e for e in kv[0])))

    def to_json(self) -> list[dict]:
        return [{"exps": list(e), "coeff": str(c)} for e, c in self.sorted_terms()]

    # -- dunder plumbing ------------------------------------------------------

    def __hash__(self) -> int:
        if self.terms.keys() <= {_EXP0}:     # a constant, hashed like its int
            return hash(self.terms.get(_EXP0, 0))
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"MPoly({self.terms!r})"

    def __str__(self) -> str:
        return _signed_sum(
            (c, "*".join(name if e == 1 else f"{name}^{e}"
                         for name, e in zip(VAR_NAMES, exps) if e > 0))
            for exps, c in self.sorted_terms())


M_ZERO = MPoly()
M_ONE = MPoly.ONE = MPoly({_EXP0: 1})
ALPHA = MPoly.from_monomial(e_alpha=1)
BETA = MPoly.from_monomial(e_beta=1)
R = MPoly.from_monomial(e_r=1)
X = MPoly.from_monomial(e_x=1)


def shifted_factorial(k: int, base: MPoly, step: MPoly) -> MPoly:
    """Generalized falling factorial: product of (base - i*step), i < k.

    With base x and step -alpha this is x(x+alpha)...(x+(k-1)alpha); with
    base x-r and step beta it is (x-r)(x-r-beta)...; one for k = 0.
    """
    if k < 0:
        raise ValueError(f"shifted_factorial requires k >= 0, got {k}")
    p = M_ONE
    for i in range(k):
        p = p * (base - step * i)
    return p
