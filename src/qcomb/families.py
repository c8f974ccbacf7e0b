"""Engines for the q-number families and the generalized Stirling numbers.

Every engine returns an exact QPoly or MPoly and is memoized on its
parameters; clear_caches() drops every kept value.  Each triangle is filled
iteratively by one kernel, one set of columns per r, from a two-term
recurrence in n for every r >= 0 alike; the shift sums that I-T4E1..3 state
are checked against them, not used to compute them, and the enumeration
oracles validate every triangle independently.

Values are zero outside the support 0 <= k <= n; negative n or r is an
argument error.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

from . import polyring
from .polyring import (ALPHA, BETA, M_ZERO, MPoly, Q_ONE, Q_ZERO, QPoly, R, X,
                       binom_gen, times_q_integer, times_q_rising)


def _check_nr(name: str, n: int, r: int) -> None:
    if n < 0 or r < 0:
        raise ValueError(f"{name} requires n, r >= 0, got n={n}, r={r}")


def _row_sum(fn, n: int, r: int) -> QPoly:
    """fn(n, 0, r) + ... + fn(n, n, r): the total weight of row n."""
    return sum((fn(n, k, r) for k in range(n + 1)), Q_ZERO)


def _triangle(zero, one, step):
    """T(n, k, r) of the triangle T(0, 0, r) = one(r), zero outside
    0 <= k <= n, and T(n, k, r) = step(n, k, r, T(n-1, k-1, r), T(n-1, k, r)).
    Columns 0..k are filled downward to row n and kept, one set per r, in
    ``cell.columns``; nothing recurses.  The engine's lru_cache in front
    answers a repeated cell, so the kernel looks nothing up before filling."""
    columns: dict[int, list[list]] = {}

    def cell(n: int, k: int, r: int):
        if k < 0 or k > n:
            return zero
        cols = columns.setdefault(r, [])
        for j in range(k + 1):
            if j == len(cols):
                cols.append([zero] * j if j else [one(r)])
            col = cols[j]
            for m in range(len(col), n + 1):
                left = cols[j - 1][m - 1] if j else zero
                col.append(step(m, j, r, left, col[m - 1]))
        return cols[k][n]
    cell.columns = columns
    return cell


# ---------------------------------------------------------------------------
# q-Stirling numbers of the second kind and q-Bell numbers
# ---------------------------------------------------------------------------

# element n+r joins one of the k+r blocks or opens block k+r (stat_w)
_stirling2_q_base = _triangle(Q_ZERO, lambda r: Q_ONE, lambda n, k, r, left, up:
                              left.shift(k + r - 1) + times_q_integer(up, k + r))


@lru_cache(maxsize=None)
def stirling2_q(n: int, k: int, r: int = 0) -> QPoly:
    """Block-weight generating polynomial over restricted partitions:
    T(n, k, r) = q^(k+r-1) * T(n-1, k-1, r) + [k+r] * T(n-1, k, r) with
    T(0, 0, r) = 1, so the restricted blocks' fixed r-choose-2 contribution
    is dropped.
    """
    _check_nr("stirling2_q", n, r)
    return _stirling2_q_base(n, k, r)


@lru_cache(maxsize=None)
def bell_q(n: int, r: int = 0) -> QPoly:
    """Sum of stirling2_q(n, k, r) over all k."""
    _check_nr("bell_q", n, r)
    return _row_sum(stirling2_q, n, r)


# ---------------------------------------------------------------------------
# q-Lah numbers
# ---------------------------------------------------------------------------

# element n+r opens a block, passing all n+k+2r-2 letters and separators
# of the word (stat_inv_rho), or takes one of the n+k+2r-1 places in the
# k+r blocks; the r restricted elements alone have statistic r(r-1)
_lah_q_base = _triangle(
    Q_ZERO, lambda r: Q_ONE.shift(r * (r - 1)), lambda n, k, r, left, up:
    left.shift(n + k + 2 * r - 2) + times_q_integer(up, n + k + 2 * r - 1))


def lah_q_closed_form(n: int, k: int) -> QPoly:
    """q^(k(k-1)) * (n_q!/k_q!) * qbinom(n-1, k-1), valid for 1 <= k <= n;
    zero for k > n, as lah_q is."""
    if k > n:
        return Q_ZERO
    return times_q_rising(polyring.q_binomial(n - 1, k - 1), k + 1,
                          n - k).shift(k * (k - 1))


@lru_cache(maxsize=None)
def lah_q(n: int, k: int, r: int = 0) -> QPoly:
    """Inversion generating polynomial over restricted Lah distributions:
    T(n, k, r) = q^(n+k+2r-2) * T(n-1, k-1, r) + [n+k+2r-1] * T(n-1, k, r)
    with T(0, 0, r) = q^(r(r-1)).  I-LAH-CF checks r = 0 against
    lah_q_closed_form.
    """
    _check_nr("lah_q", n, r)
    return _lah_q_base(n, k, r)


# ---------------------------------------------------------------------------
# q-Stirling numbers of the first kind
# ---------------------------------------------------------------------------

# element n+r opens a cycle or follows one of the n+r-1 others (stat_inv_c)
_stirling1_q_base = _triangle(Q_ZERO, lambda r: Q_ONE, lambda n, k, r, left, up:
                              left + times_q_integer(up, n + r - 1))


@lru_cache(maxsize=None)
def stirling1_q(n: int, k: int, r: int = 0) -> QPoly:
    """Cycle-inversion generating polynomial over restricted permutations:
    T(n, k, r) = T(n-1, k-1, r) + [n+r-1] * T(n-1, k, r) with
    T(0, 0, r) = 1.
    """
    _check_nr("stirling1_q", n, r)
    return _stirling1_q_base(n, k, r)


# ---------------------------------------------------------------------------
# closed forms at q = -1
# ---------------------------------------------------------------------------

def stirling_neg1(variant: str, n: int, k: int) -> int:
    """Closed forms for stirling2_q at q = -1; zero outside 0 <= k <= n.

    variant "plain" covers r = 0 (and every even r); variant "r1" covers
    r = 1 (and every odd r).
    """
    if variant not in ("plain", "r1"):
        raise ValueError(f"unknown variant {variant!r}")
    if not 0 <= k <= n:
        return 0
    if variant == "plain":
        return (-1) ** (k * (k - 1) // 2) * binom_gen(n - k // 2 - 1, n - k)
    return (-1) ** (k * (k + 1) // 2) * binom_gen(n - (k + 1) // 2, k // 2)


# ---------------------------------------------------------------------------
# generalized Stirling numbers and generalized Bell polynomials
# ---------------------------------------------------------------------------

# hsu_shiue's r is a variable of its polynomials: one set of columns, r = 0
_hsu_shiue_base = _triangle(M_ZERO, lambda r: MPoly.from_int(1),
                            lambda n, k, r, left, up:
                            left + (ALPHA * (n - 1) + BETA * k + R) * up)


@lru_cache(maxsize=None)
def hsu_shiue(n: int, k: int) -> MPoly:
    """Connection constants between the two shifted factorial bases, as
    polynomials in (alpha, beta, r)."""
    if n < 0:
        raise ValueError(f"hsu_shiue requires n >= 0, got {n}")
    return _hsu_shiue_base(n, k, 0)


@lru_cache(maxsize=None)
def gen_bell(n: int) -> MPoly:
    """Generalized Bell polynomial: sum of hsu_shiue(n, k) * x^k."""
    if n < 0:
        raise ValueError(f"gen_bell requires n >= 0, got {n}")
    total = M_ZERO
    for k in range(n + 1):
        total = total + hsu_shiue(n, k) * X ** k
    return total


# every kept value: the six engine caches, the q-binomial cache and the
# kernel columns; held here, not looked up by name, so a
# re-bound module attribute cannot hide one of them
_CACHES = (stirling2_q, bell_q, lah_q, stirling1_q, hsu_shiue, gen_bell,
           polyring.q_binomial)
_KERNELS = (_stirling2_q_base, _lah_q_base, _stirling1_q_base, _hsu_shiue_base)


def clear_caches() -> None:
    """Drop every value the engines keep; later calls recompute them."""
    for fn in _CACHES:
        fn.cache_clear()
    for kernel in _KERNELS:
        kernel.columns.clear()


# ---------------------------------------------------------------------------
# uniform table surface for the CLI
# ---------------------------------------------------------------------------

class TableRow(NamedTuple):
    family: str
    n: int
    k: int | None
    r: int | None
    value: QPoly | MPoly
    provenance: str


# family -> the parameters its engine takes after n, in table order
# (hsu_shiue's r is a variable of its polynomials, not a parameter)
PARAMS = {"stirling2_q": ("k", "r"), "stirling1_q": ("k", "r"),
          "lah_q": ("k", "r"), "bell_q": ("r",), "hsu_shiue": ("k",),
          "gen_bell": ()}
FAMILIES = tuple(PARAMS)


def engine(family: str) -> Callable:
    """The engine function of a family, looked up by name on each call, so
    that the tables, oracle-diff and every identity see a rebound engine."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return globals()[family]


def table_rows(family: str, n_range: range, k_range: range | None = None,
               r_range: range | None = None) -> Iterator[TableRow]:
    """Rows of one family table over inclusive parameter ranges; k defaults
    to 0..n and r to 0 where the family takes them."""
    fn, names = engine(family), PARAMS[family]
    rs = (range(1) if r_range is None else r_range) if "r" in names else (None,)
    for n in n_range:
        ks = ((range(n + 1) if k_range is None else k_range) if "k" in names
              else (None,))
        for k in ks:
            for r in rs:
                # the label names the closed form that I-LAH-CF
                # certifies equal to the recurrence lah_q computes
                prov = ("closed-form" if family == "lah_q" and r == 0
                        and 1 <= k <= n else "recurrence")
                args = (v for v in (k, r) if v is not None)
                yield TableRow(family, n, k, r, fn(n, *args), prov)
