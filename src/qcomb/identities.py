"""Registry of exact identity checks over parameter grids.

Every entry pins one identity between number families as an exact equality
of integers, QPoly or MPoly values and checks it cell by cell over an
inclusive parameter grid.  Every body looks up ``families.<engine>`` when
its cell runs, as the tables and oracle-diff do, so one rebinding of an
engine there reaches every identity, table and diff that calls it.  The
engines fill stirling2_q, lah_q and stirling1_q for every r by one
recurrence in n, so the shift sums of I-T4E1..3 are independent of them;
only their cells with m = 0 (108 of 360 each) reduce to X = X.  I-PE1
checks the restricted values against the partition oracle, I-LAH-R against
the classical Lah counts, and oracle-diff against every enumeration oracle.

``_two_part`` is the two-part product formula of Spivey and Mezo, F(m+n, k) =
sum_i sum_j C(n, i) w(i, j) F(m, j) G(i, k-j).  I-SPIVEY, I-MEZO-1/2, I-P1E2,
I-P2E2, I-T4C1, I-T5E2 and the rows of ``_BIN_ROWS`` (I-BIN-1..4) call it; so
does ``_product``, its refined form on one triangle G = F and the only body of
that form: I-P1E1, I-P2E1 and I-T3E1 on the q-triangles, I-BIN-5/7 at q = -1
and I-T5E1 (summed over k in I-T5E2) on the Hsu-Shiue numbers.  I-T4E1..3 are
the rows of ``_T4_ROWS`` on one shift sum, I-T3E2 reads its factors from
``_t3_weight`` (I-T3E1's), and ``_oracle_rec`` checks I-CQ-REC and
I-GENL1-REC, an enumerated cell against its two-term recurrence.  Most terms
of these sums vanish (87 to 89% on the I-BIN grids), and ``_two_part`` skips
every term with a zero factor before it builds the weight; for each j it sums
over i first and multiplies by left(j), the m-part, once.  Every q-rising
product takes ``times_q_rising``, and every q-binomial is looked up as
``polyring.q_binomial`` when its cell runs.  Each entry declares its grid in
``@_identity``; its body takes that grid's parameters by name (m, n, k, r,
route), and only ``check`` handles a cell as a dict.

Reports are deterministic: cells are generated in a fixed order and the
first mismatching cell is serialized in full.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator

from . import classical as cl, families, polyring
from .families import (PARAMS, TableRow, _row_sum, engine, lah_q_closed_form,
                       stirling_neg1)
from .oracles import ORACLE_FOR_ENGINE, ZERO, oracle, oracle_table
from .polyring import (ALPHA, BETA, M_ZERO, MPoly, Q_ONE, Q_ZERO, QPoly, R,
                       X, binom, binom_gen, elementary_symmetric, q_integer,
                       rising_int, shifted_factorial, times_q_integer,
                       times_q_rising)
from .stats import ext_stats
from .structures import enum_extended_lah_tracked

Ranges = dict[str, tuple[int, int]]


def indicator_pair(i: int, j: int, n: int) -> tuple[int, int]:
    """Parity indicators (a, b) weighting the q = -1 double sums."""
    a = (1 if j % 2 == 1 else 0) + (1 if j % 2 == 0 and i == n else 0)
    b = (1 if j % 2 == 0 else 0) + (1 if j % 2 == 1 and i == n else 0)
    return a, b


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    identity: str
    grid: dict[str, str]
    cells_checked: int
    status: str  # pass | fail | skipped
    counterexample: dict | None = None
    notes: tuple[str, ...] = ()

    def to_json_obj(self) -> dict:
        obj = {
            "identity": self.identity,
            "grid": self.grid,
            "cells_checked": self.cells_checked,
            "status": self.status,
        }
        if self.counterexample is not None:
            obj["counterexample"] = self.counterexample
        if self.notes:
            obj["notes"] = list(self.notes)
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    def summary_line(self) -> str:
        grid = " ".join(f"{k}={v}" for k, v in sorted(self.grid.items()))
        line = (f"{self.status.upper():4s} {self.identity:12s} "
                f"cells={self.cells_checked} {grid}")
        if self.counterexample is not None:
            line += f" first-counterexample={self.counterexample['params']}"
        return line


def serialize_value(v) -> dict:
    if isinstance(v, QPoly):
        return {"type": "qpoly", "coeffs": v.to_json()}
    if isinstance(v, MPoly):
        return {"type": "mpoly", "terms": v.to_json()}
    return {"type": "int", "value": str(v)}


# table_json lays out a table exactly as json.dumps([row dicts with
# serialize_value values], indent=2, sort_keys=True) would, but from format
# strings: with indent, json takes its pure-Python encoder.  Decimal
# coefficients need no escaping; the free-text fields take the C encoder.
_encode = json.JSONEncoder().encode
_ROW = ('  {\n    "family": %s,\n    "k": %s,\n    "n": %d,\n'
        '    "provenance": %s,\n    "r": %s,\n'
        '    "value": {\n      %s\n    }\n  }')
_QPOLY = '"coeffs": [\n        "%s"\n      ],\n      "type": "qpoly"'
_MPOLY = '"terms": [%s\n      ],\n      "type": "mpoly"'
_TERM = ('\n        {\n          "coeff": "%d",\n          "exps": [\n'
         '            %d,\n            %d,\n            %d,\n            %d\n'
         '          ]\n        }')
_EMPTY = {QPoly: '"coeffs": [],\n      "type": "qpoly"',
          MPoly: '"terms": [],\n      "type": "mpoly"'}


def _json_value(v: QPoly | MPoly) -> str:
    if not v:
        return _EMPTY[type(v)]
    if isinstance(v, QPoly):
        return _QPOLY % '",\n        "'.join(map(str, v.coeffs))
    return _MPOLY % ",".join([_TERM % (c, *e) for e, c in v.sorted_terms()])


def table_json(rows: Iterable[TableRow]) -> str:
    """The JSON document of table rows (no trailing newline), built in full
    before it is returned, so a value that cannot be converted writes
    nothing."""
    body = ",\n".join([
        _ROW % (_encode(row.family), "null" if row.k is None else row.k, row.n,
                _encode(row.provenance), "null" if row.r is None else row.r,
                _json_value(row.value))
        for row in rows])
    return f"[\n{body}\n]" if body else "[]"


# ---------------------------------------------------------------------------
# registry plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityDef:
    name: str
    summary: str
    defaults: Ranges
    cells: Callable[[Ranges], Iterator[dict]]
    evaluate: Callable[..., tuple]
    notes: tuple[str, ...] = ()
    # extra counterexample fields for a failing cell
    diagnose: Callable[..., dict] | None = None


REGISTRY: dict[str, IdentityDef] = {}


def identity_names() -> list[str]:
    return list(REGISTRY)


@lru_cache(maxsize=128)
def _otable(family: str, n: int, r: int):
    return oracle_table(family, n, r)


def _ocell(family: str, n: int, k: int, r: int = 0):
    return _otable(family, n, r).get(k, ZERO[family])


def _oracle_rec(family: str, weight):
    """Enumerated T(n, k) against T(n-1, k-1) + weight(n, k) * T(n-1, k)."""
    return lambda n, k: (_ocell(family, n, k), _ocell(family, n - 1, k - 1)
                         + weight(n, k) * _ocell(family, n - 1, k))


def _first_tracked_mismatch(n: int, k: int) -> dict:
    """Counterexample field naming the first extended Lah structure whose
    incremental statistics disagree with the direct computation, if any."""
    for lam, inc in enum_extended_lah_tracked(n, k):
        if tuple(ext_stats(lam)) != inc:
            return {"stat_mismatch_structure": lam.text()}
    return {}


def check(identity: str, overrides: Ranges | None = None) -> IdentityReport:
    """Run one registered identity over its grid and report the outcome."""
    if identity not in REGISTRY:
        raise ValueError(f"unknown identity {identity!r}")
    entry = REGISTRY[identity]
    ranges = dict(entry.defaults)
    overrides = overrides or {}
    for name, rng in overrides.items():
        if name not in ranges:
            raise ValueError(
                f"identity {identity} has no parameter {name!r}")
        ranges[name] = rng
    # the default window must not clip the m and n asked for
    if "m+n" in ranges and "m+n" not in overrides and (
            "m" in overrides or "n" in overrides):
        (m_lo, m_hi), (n_lo, n_hi) = ranges["m"], ranges["n"]
        ranges["m+n"] = (m_lo + n_lo, m_hi + n_hi)
    grid = {name: f"{lo}..{hi}" for name, (lo, hi) in ranges.items()}
    checked = 0
    for checked, cell in enumerate(entry.cells(ranges), 1):
        lhs, rhs = entry.evaluate(**cell)
        if lhs != rhs:
            counter = {
                "params": dict(sorted(cell.items())),
                "lhs": serialize_value(lhs),
                "rhs": serialize_value(rhs),
            }
            if entry.diagnose is not None:
                counter.update(entry.diagnose(**cell))
            return IdentityReport(entry.name, grid, checked, "fail",
                                  counterexample=counter, notes=entry.notes)
    return IdentityReport(entry.name, grid, checked, "pass" if checked else "skipped",
                          notes=entry.notes)


def oracle_diff(family: str, n: int, r: int = 0,
                k_range: tuple[int, int] | None = None) -> list[dict]:
    """Engine-versus-oracle mismatches of one (family, n, r) cell, in k order.

    ``family`` is an engine family with an oracle (``ORACLE_FOR_ENGINE``);
    ``r`` is the oracle's restriction and the engine's r, if it takes one.
    ``k_range`` is inclusive and defaults to 0..n; a family without k
    (bell_q) is one cell, the sum over every k, and ignores it.  A range
    that covers 0..n is enumerated in one pass; otherwise each requested k
    is enumerated, and held to the cap, on its own.  Each mismatch is
    ``{"params", "engine", "oracle"}`` with serialized values.
    """
    oracle_family, fn, names = ORACLE_FOR_ENGINE[family], engine(family), PARAMS[family]
    lo, hi = k_range if k_range is not None and "k" in names else (0, n)
    if lo == 0 and hi >= n:
        table = oracle_table(oracle_family, n, r)
    else:
        table = {k: oracle(oracle_family, n, k, r) for k in range(lo, hi + 1)}
    zero = ZERO[oracle_family]
    cells = ([{"n": n, "k": k, "r": r} for k in range(lo, hi + 1)]
             if "k" in names else [{"n": n, "r": r}])
    mismatches = []
    for params in cells:
        want = fn(n, *(params[name] for name in names))
        got = (table.get(params["k"], zero) if "k" in params
               else sum(table.values(), zero))
        if want != got:
            mismatches.append({"params": params, "engine": serialize_value(want),
                               "oracle": serialize_value(got)})
    return mismatches


# ---------------------------------------------------------------------------
# the grid, the shared bodies and the registration decorator
# ---------------------------------------------------------------------------

def _lazy_product(spans: list[range]) -> Iterator[tuple[int, ...]]:
    """The tuples of ``itertools.product(*spans)``, in its order, reading
    each range as it goes instead of copying every range first."""
    if not spans:
        yield ()
        return
    *outer, last = spans
    for head in _lazy_product(outer):
        yield from map(head.__add__, zip(last))


def _grid(ranges: Ranges, k: str | None = None, k_min: int = 0,
          n_min: int = 0, routes: tuple[str, ...] = ()) -> Iterator[dict]:
    """Product of the ranged parameters in their declared order, clipped by
    the m+n window and by n_min; k ("n" or "m+n") then runs over k_min..k
    and the routes run innermost."""
    names = [name for name in ranges if name != "m+n"]
    window = ranges.get("m+n")
    spans = [range(lo, hi + 1) for lo, hi in (ranges[name] for name in names)]
    if not all(spans):
        return
    for values in _lazy_product(spans):
        cell = dict(zip(names, values))
        if window and not window[0] <= cell["m"] + cell["n"] <= window[1]:
            continue
        if cell["n"] < n_min:
            continue
        cells = [cell] if k is None else [
            {**cell, "k": j}
            for j in range(k_min, sum(cell[name] for name in k.split("+")) + 1)]
        for c in cells:
            yield from [{**c, "route": route} for route in routes] or [c]


def _two_part(n: int, js: range, weight, left, right, zero):
    """Sum of weight(i, j) * left(j) * right(i, j) over i = 0..n and j in js.

    This is the two-part product formula F(m+n, k) = sum_i sum_j C(n, i)
    w(i, j) F(m, j) G(i, k-j): left is the m-part, right is the i-part and
    weight carries the binomial and the weight.  For each j the sum over i
    of weight(i, j) * right(i, j) is taken first and multiplied by left(j)
    once.  A term with a zero factor is exactly zero, so it is skipped: j
    drops out where left(j) is zero, and weight(i, j) is called only where
    right(i, j) is nonzero too.  An all-zero sum is ``zero`` itself.
    """
    total = zero
    for j in js:
        value = left(j)
        if not value:
            continue
        inner = zero
        for i in range(n + 1):
            other = right(i, j)
            if other:
                inner = inner + weight(i, j) * other
        if inner:
            total = total + inner * value
    return total


def _product(triangle, weight, zero=Q_ZERO):
    """The refined two-part product formula of one triangle F = triangle(),
    taken when the cell runs: F(m+n, k, r) = sum_i sum_j weight(m, n, r)(i, j)
    * F(m, j, r) * F(i, k-j, 0)."""
    def evaluate(m, n, r, k):
        fn = triangle()
        return fn(m + n, k, r), _two_part(
            n, range(m + 1), weight(m, n, r), lambda j: fn(m, j, r),
            lambda i, j: fn(i, k - j, 0), zero)
    return evaluate


def _identity(name: str, summary: str, defaults: Ranges,
              notes: tuple[str, ...] = (),
              diagnose: Callable[..., dict] | None = None, **grid):
    """Register the decorated evaluate function as identity ``name``; its
    cells are ``_grid`` with the keyword arguments ``grid``, and evaluate
    and diagnose take each cell's parameters by name."""
    def register(evaluate):
        REGISTRY[name] = IdentityDef(name, summary, defaults,
                                     partial(_grid, **grid), evaluate, notes,
                                     diagnose)
        return evaluate
    return register


_MN10 = {"m": (0, 10), "n": (0, 10), "m+n": (0, 10)}
_MN10R = {**_MN10, "r": (0, 3)}
_MN8R = {"m": (0, 8), "n": (0, 8), "m+n": (0, 8), "r": (0, 2)}
_MN7 = {"m": (0, 7), "n": (0, 7), "m+n": (0, 7)}
_MN7R = {**_MN7, "r": (0, 2)}


# ---------------------------------------------------------------------------
# identity definitions, in source order of the families they involve
# ---------------------------------------------------------------------------

def _mezo1(m, n, r):
    rhs = _two_part(n, range(m + 1),
                    lambda i, j: (j + r) ** (n - i) * binom(n, i),
                    lambda j: cl.stirling2_r(m, j, r), lambda i, j: cl.bell(i),
                    0)
    return cl.bell_r(m + n, r), rhs


# Spivey's sum is Mezo's at r = 0
_identity("I-SPIVEY", "classical Bell number double sum", _MN10)(
    lambda m, n: _mezo1(m, n, 0))
_identity("I-MEZO-1", "restricted Bell number double sum", _MN10R)(_mezo1)


@_identity("I-MEZO-2",
           "rising factorial double sum over restricted cycle counts", _MN10R)
def _mezo2(m, n, r):
    rhs = _two_part(n, range(m + 1),
                    lambda i, j: rising_int(m, n - i) * binom(n, i),
                    lambda j: cl.stirling1_r(m, j, r),
                    lambda i, j: rising_int(r + 1, i), 0)
    return rising_int(r + 1, m + n), rhs


@_identity("I-PE1",
           "restriction shift for partition weights, against enumeration",
           {"n": (0, 8), "r": (0, 2)}, k="n")
def _pe1(n, r, k):
    return _ocell("partitions", n, k, r), families.stirling2_q(n, k, r)


def _p1_weight(m: int, n: int, r: int):
    return lambda i, j: (q_integer(j + r) ** (n - i)
                         * binom(n, i)).shift(i * (j + r))


_identity("I-P1E1", "two-part product formula for restricted partition weights",
          _MN8R, k="m+n")(_product(partial(engine, "stirling2_q"), _p1_weight))


@_identity("I-P1E2", "two-part product formula for restricted Bell weights",
           _MN8R)
def _p1e2(m, n, r):
    rhs = _two_part(n, range(m + 1), _p1_weight(m, n, r),
                    lambda j: families.stirling2_q(m, j, r),
                    lambda i, j: families.bell_q(i, 0), Q_ZERO)
    return families.bell_q(m + n, r), rhs


# I-BIN-1..4 read binom(m+n-k-a, k-b) = sum_i sum_j ind(i, j)
# * (-1)^((i+s)(j+t)) * C(n, i) * binom_gen(m - (j+c)//2 - d, m-j)
# * binom_gen(i - k + (j+e)//2 - f, i - 2k + j + g), where ind is the
# a (0) or b (1) parity indicator.  Each row holds the name, the summary,
# (a, b), the indicator, (s, t), (c, d) and (e, f, g).
_BIN_ROWS = [
    ("I-BIN-1", "binomial identity from the even-restriction evaluation",
     (1, 1), 0, (1, 0), (0, 1), (1, 1, 0)),
    ("I-BIN-2", "companion binomial identity, odd target index",
     (0, 1), 0, (0, 0), (0, 1), (0, 0, 1)),
    ("I-BIN-3", "binomial identity from the odd-restriction evaluation",
     (0, 0), 1, (0, 1), (1, 0), (1, 1, 0)),
    ("I-BIN-4", "companion binomial identity, odd target index",
     (0, 1), 1, (1, 1), (1, 0), (0, 0, 1)),
]
_BIN_NOTE = ("binomials inside the sums follow the generalized convention "
             "(value 1 at lower index 0 for any upper index), matching the "
             "closed forms they substitute; the left side is an ordinary "
             "binomial, zero outside its support",)


def _bin_identity(lhs, ind, sign, left, right):
    (a, b), (s, t), (c, d), (e, f, g) = lhs, sign, left, right

    def evaluate(m, n, k):
        rhs = _two_part(
            n, range(m + 1),
            lambda i, j: (indicator_pair(i, j, n)[ind]
                          * (-1) ** ((i + s) * (j + t)) * binom(n, i)),
            lambda j: binom_gen(m - (j + c) // 2 - d, m - j),
            lambda i, j: binom_gen(i - k + (j + e) // 2 - f,
                                   i - 2 * k + j + g), 0)
        return binom(m + n - k - a, k - b), rhs
    return evaluate


for _name, _summary, *_row in _BIN_ROWS:
    _identity(_name, _summary, {"m": (1, 10), "n": (1, 10)}, _BIN_NOTE,
              k="m+n", k_min=1)(_bin_identity(*_row))


def _sneg(n: int, k: int, r: int = 0) -> int:
    return families.stirling2_q(n, k, r).eval_int(-1)


# I-BIN-5 and I-BIN-7 are the q = -1 two-part sums at r = 0 and r = 1, and
# I-BIN-6 and I-BIN-9 the closed forms of the same two rows
_bin_sum = _product(lambda: _sneg, lambda m, n, r: lambda i, j: (
    indicator_pair(i, j, n)[r] * (-1) ** (i * (j + r)) * binom(n, i)), 0)


def _bin_closed(r: int, variant: str):
    return lambda n, k: (_sneg(n, k, r), stirling_neg1(variant, n, k))


_identity("I-BIN-5", "q = -1 specialization of the two-part partition formula",
          _MN10, k="m+n")(lambda m, n, k: _bin_sum(m, n, 0, k))
_identity("I-BIN-6", "closed form for partition weights at q = -1",
          {"n": (0, 20)}, k="n")(_bin_closed(0, "plain"))
_identity("I-BIN-7", "q = -1 specialization with one restricted element",
          _MN10, k="m+n",
          notes=("includes the binomial factor over the free elements, "
                 "which the usual statement drops; without it the identity "
                 "fails already at m=0, n=2, k=1",))(
    lambda m, n, k: _bin_sum(m, n, 1, k))


@_identity("I-BIN-8", "alternating-sum form of the restricted q = -1 values",
           {"n": (0, 12)}, k="n")
def _bin8(n, k):
    rhs = sum((-1) ** i * binom(n, i) * stirling_neg1("plain", i, k)
              for i in range(k, n + 1))
    return _sneg(n, k, 1), rhs


_identity("I-BIN-9", "closed form for restricted partition weights at q = -1",
          {"n": (0, 20)}, k="n")(_bin_closed(1, "r1"))


@_identity("I-LAH-CF", "product closed form versus the two-term recurrence",
           {"n": (1, 20)}, k="n", k_min=1)
def _lah_cf(n, k):
    return lah_q_closed_form(n, k), families.lah_q(n, k, 0)


@_identity("I-LAH-R", "restriction shift for ordered-block counts at q = 1",
           {"n": (0, 8), "r": (0, 3)}, k="n")
def _lah_r(n, r, k):
    lhs = families.lah_q(n, k, r).eval_int(1)
    rhs = sum(rising_int(2 * r, i) * binom(n, i) * cl.lah(n - i, k)
              for i in range(n + 1))
    return lhs, rhs


def _p2_weight(m: int, n: int, r: int):
    def weight(i, j):
        base = j + m + 2 * r
        return times_q_rising(polyring.q_binomial(n, i), base,
                              n - i).shift(i * base)
    return weight


_identity("I-P2E1",
          "two-part product formula for restricted ordered-block weights",
          _MN7R, k="m+n")(_product(partial(engine, "lah_q"), _p2_weight))


@_identity("I-P2E2", "summed form of the ordered-block product formula",
           _MN7R, routes=("bound=m", "bound=m+n"),
           notes=("the inner summation bound is read as m (terms beyond m "
                  "vanish since the restricted values are zero there) and "
                  "the aggregate value at size i as the sum over all block "
                  "counts; the check runs both bounds m and m+n and they "
                  "must agree",))
def _p2e2(m, n, r, route):
    bound = m if route == "bound=m" else m + n
    totals = [_row_sum(families.lah_q, i, 0) for i in range(n + 1)]
    rhs = _two_part(n, range(bound + 1), _p2_weight(m, n, r),
                    lambda j: families.lah_q(m, j, r), lambda i, j: totals[i],
                    Q_ZERO)
    return _row_sum(families.lah_q, m + n, r), rhs


@_identity("I-QBIN", "Gaussian binomial identity from the ordered-block formula",
           {"m": (0, 6), "n": (0, 6), "k": (0, 6)},
           notes=("individual terms carry negative powers of q; both sides "
                  "are lifted by a common power before comparing",))
def _qbin_corollary(m, n, k):
    terms = [(i, j, i * (j + m + 1) - 2 * j * (k - j + 1))
             for i in range(1, n + 1) for j in range(1, k + 1)]
    lift = max(0, -min(e for _, _, e in terms)) if terms else 0
    qb = polyring.q_binomial
    lhs = (qb(m + n, k) * qb(m + n + 1, n)
           - qb(m, k) * qb(k + m + n + 1, n)).shift(lift)
    rhs = Q_ZERO
    for i, j, e in terms:
        term = (qb(m, j - 1) * qb(k + 1, j)
                * qb(i - 1, k - j) * qb(m + n + j - i, n - i))
        rhs = rhs + term.shift(lift + e)
    return lhs, rhs


_identity("I-CQ-REC", "cycle-weight recurrence, against enumeration",
          {"n": (1, 7)}, k="n", n_min=1)(
    _oracle_rec("perms", lambda n, k: q_integer(n - 1)))


def _t3_weight(m: int, n: int, r: int):
    facs = [times_q_rising(polyring.q_binomial(n, i), m + r, n - i)
            for i in range(n + 1)]
    return lambda i, j: facs[i]


_identity("I-T3E1", "two-part product formula for restricted cycle weights",
          _MN7R, k="m+n")(_product(partial(engine, "stirling1_q"), _t3_weight))


def _one_plus_qints(lo: int, count: int) -> QPoly:
    """The product of 1 + [ell] over ell = lo..lo+count-1, each factor
    taken as p + p * [ell] in one linear step."""
    p = Q_ONE
    for ell in range(lo, lo + count):
        p = p + times_q_integer(p, ell)
    return p


@_identity("I-T3E2", "summed form of the cycle product formula", _MN7R)
def _t3e2(m, n, r):
    weight = _t3_weight(m, n, r)
    rhs = sum((weight(i, 0) * _one_plus_qints(0, i) for i in range(n + 1)), Q_ZERO)
    return _one_plus_qints(m + r, n), rhs


@_identity("I-CQ-SUM", "total cycle weight as a product",
           {"n": (0, 8), "r": (0, 3)})
def _cq_sum(n, r):
    return _row_sum(families.stirling1_q, n, r), _one_plus_qints(r, n)


@_identity("I-CQ-SYM", "cycle weights as elementary symmetric polynomials",
           {"n": (0, 10)}, k="n")
def _cq_sym(n, k):
    lhs = families.stirling1_q(n, k, 0)
    rhs = elementary_symmetric(n - k, [q_integer(i) for i in range(1, n)])
    return lhs, rhs


# I-T4E1..3 read engine(n, k, m+r) = sum_i factor(m, n-i) * binomial(n, i)
# * engine(i, k, r) * q^shift(m, r, n, i), over i = k..n, since engine(i, k, r)
# vanishes for i < k; a row's factor takes the polynomial it multiplies, and
# its binomial is named in polyring.  I-T4E1 is stated for the
# block-position statistic with the restricted blocks' fixed contribution
# included; engine values drop that r-choose-2 constant, so both sides are
# lifted by q^lift, the last column (zero in the other two rows).
_T4_ROWS = [
    ("I-T4E1", "restriction-composition shift for partition weights",
     ("the partition-weight identity holds for the statistic that includes "
      "the restricted blocks' fixed r-choose-2 contribution; both sides are "
      "lifted accordingly before comparing engine values",),
     "stirling2_q", lambda p, m, e: q_integer(m) ** e * p, "binom",
     lambda m, r, n, i: m * (i + r) + m * (m - 1) // 2,
     lambda x: x * (x - 1) // 2),
    ("I-T4E2", "restriction-composition shift for ordered-block weights",
     (), "lah_q", lambda p, m, e: times_q_rising(p, 2 * m, e), "q_binomial",
     lambda m, r, n, i: m * (2 * i + 2 * r + m - 1), lambda x: 0),
    ("I-T4E3", "restriction-composition shift for cycle weights",
     (), "stirling1_q", lambda p, m, e: times_q_rising(p, m, e), "q_binomial",
     lambda m, r, n, i: r * (n - i), lambda x: 0),
]


def _t4_identity(family, factor, binomial, shift, lift):
    def evaluate(m, n, r, k):
        fn, binom_fn = engine(family), getattr(polyring, binomial)
        terms = (factor(binom_fn(n, i) * fn(i, k, r).shift(lift(r)), m,
                        n - i).shift(shift(m, r, n, i))
                 for i in range(k, n + 1))
        return fn(n, k, m + r).shift(lift(m + r)), sum(terms, Q_ZERO)
    return evaluate


for _name, _summary, _notes, *_row in _T4_ROWS:
    _identity(_name, _summary, _MN7R, _notes, k="n")(_t4_identity(*_row))


@_identity("I-T4C1", "summed form of the cycle restriction-composition shift",
           _MN7R)
def _t4c1(m, n, r):
    facs = [times_q_rising(polyring.q_binomial(n, i), m,
                           n - i).shift(r * (n - i)) for i in range(n + 1)]
    inners = [_one_plus_qints(r, i) for i in range(n + 1)]
    rhs = _two_part(n, range(m + 1), lambda i, j: facs[i],
                    lambda j: families.stirling1_q(m, j, r),
                    lambda i, j: inners[i], Q_ZERO)
    return _one_plus_qints(r, m + n), rhs


@_identity("I-GENREC", "connection constants between shifted factorial bases",
           {"n": (0, 8)})
def _genrec(n):
    rhs = sum((families.hsu_shiue(n, k) * shifted_factorial(k, X - R, BETA)
               for k in range(n + 1)), M_ZERO)
    return shifted_factorial(n, X, -ALPHA), rhs


@_identity("I-GENL1", "generalized Stirling numbers as weighted sums",
           {"n": (0, 7)}, diagnose=_first_tracked_mismatch, k="n")
def _genl1(n, k):
    return families.hsu_shiue(n, k), _ocell("ext_lah", n, k)


_identity("I-GENL1-REC", "weighted-sum recurrence, against enumeration",
          {"n": (1, 6)}, diagnose=_first_tracked_mismatch, k="n", n_min=1)(
    _oracle_rec("ext_lah", lambda n, k: ALPHA * (n - 1) + BETA * k + R))


def _t5_weight(m: int, n: int, r: int):
    return lambda i, j: (binom(n, i) * shifted_factorial(
        n - i, ALPHA * m + BETA * j, -ALPHA))


# hsu_shiue's r is a variable of its polynomials, so F(n, k, r) ignores r
_t5e1 = _product(lambda: lambda n, k, r: families.hsu_shiue(n, k), _t5_weight,
                 M_ZERO)
_identity("I-T5E1", "two-part product formula for generalized Stirling numbers",
          _MN7, k="m+n")(lambda m, n, k: _t5e1(m, n, 0, k))


@_identity("I-T5E2", "generalized Bell polynomial product formula", _MN7,
           routes=("direct", "sum-over-k"),
           notes=("verified twice: directly with the block-count marker and "
                  "by summing the refined formula over all block counts",))
def _t5e2(m, n, route):
    if route == "direct":
        rhs = _two_part(n, range(m + 1), _t5_weight(m, n, 0),
                        lambda j: X ** j * families.hsu_shiue(m, j),
                        lambda i, j: families.gen_bell(i), M_ZERO)
    else:  # sum the refined formula over the block-count marker
        rhs = sum((X ** k * _t5e1(m, n, 0, k)[1] for k in range(m + n + 1)),
                  M_ZERO)
    return families.gen_bell(m + n), rhs
