"""Registry of exact identity checks over parameter grids.

Every entry pins one identity between number families as an exact equality
of integers, QPoly or MPoly values and checks it cell by cell over an
inclusive parameter grid.  Not every cell is an independent check: the
engines compute stirling2_q(n, k, m), lah_q(n, k, m) and stirling1_q(n, k, m)
by the shift sums that I-T4E1, I-T4E2 and I-T4E3 state, so their r = 0 cells
(120 of the 360 default cells of each) restate the engine term for term, and
their cells with m = 0 and r > 0 (72 more) reduce to X = X.  Checks whose
other side no engine computes certify the shift formulas: I-PE1 against the
partition oracle, I-LAH-R against the classical Lah counts, and oracle-diff
(acceptance criterion 1) against every enumeration oracle.

Reports are deterministic: cells are generated in a fixed order and the
first mismatching cell is serialized in full.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Iterator, NamedTuple

from . import classical as cl
from .families import (bell_q, engine, gen_bell, hsu_shiue, lah_q,
                       lah_q_closed_form, stirling1_q, stirling2_q,
                       stirling_neg1)
from .oracles import ORACLE_FOR_ENGINE, oracle_table
from .polyring import (ALPHA, BETA, M_ZERO, MPoly, Q_ONE, Q_ZERO, QPoly, R,
                       X, binom, binom_gen, elementary_symmetric,
                       poly_eval_int, q_binomial, q_integer, q_rising,
                       rising_int, shifted_factorial)
from .stats import ext_stats
from .structures import enum_extended_lah_tracked

Ranges = dict[str, tuple[int, int]]


class IndicatorPair(NamedTuple):
    a: int
    b: int


def indicator_pair(i: int, j: int, n: int) -> IndicatorPair:
    """Parity indicators weighting the q = -1 double sums."""
    a = (1 if j % 2 == 1 else 0) + (1 if j % 2 == 0 and i == n else 0)
    b = (1 if j % 2 == 0 else 0) + (1 if j % 2 == 1 and i == n else 0)
    return IndicatorPair(a, b)


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
        line = f"{self.status.upper():4s} {self.identity:12s} cells={self.cells_checked} {grid}"
        if self.counterexample is not None:
            line += f" first-counterexample={self.counterexample['params']}"
        return line


def serialize_value(v) -> dict:
    if isinstance(v, QPoly):
        return {"type": "qpoly", "coeffs": v.to_json()}
    if isinstance(v, MPoly):
        return {"type": "mpoly", "terms": v.to_json()}
    return {"type": "int", "value": str(v)}


# ---------------------------------------------------------------------------
# registry plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityDef:
    name: str
    summary: str
    defaults: Ranges
    cells: Callable[[Ranges], Iterator[dict]]
    evaluate: Callable[[dict], tuple]
    notes: tuple[str, ...] = ()


REGISTRY: dict[str, IdentityDef] = {}


def _register(name: str, summary: str, defaults: Ranges, cells, evaluate,
              notes: tuple[str, ...] = ()) -> None:
    REGISTRY[name] = IdentityDef(name, summary, defaults, cells, evaluate, notes)


def identity_names() -> list[str]:
    return list(REGISTRY)


@lru_cache(maxsize=128)
def _otable(family: str, n: int, r: int):
    return oracle_table(family, n, r)


def _ocell(family: str, n: int, k: int, r: int = 0):
    zero = M_ZERO if family == "ext_lah" else Q_ZERO
    return _otable(family, n, r).get(k, zero)


def _span(ranges: Ranges, name: str) -> range:
    lo, hi = ranges[name]
    return range(lo, hi + 1)


def _first_tracked_mismatch(n: int, k: int):
    """First extended Lah structure whose incremental statistics disagree
    with the direct computation, if any."""
    for lam, inc in enum_extended_lah_tracked(n, k):
        if tuple(ext_stats(lam)) != inc:
            return lam
    return None


def check(identity: str, overrides: Ranges | None = None) -> IdentityReport:
    """Run one registered identity over its grid and report the outcome."""
    if identity not in REGISTRY:
        raise KeyError(f"unknown identity {identity!r}")
    entry = REGISTRY[identity]
    ranges = dict(entry.defaults)
    if overrides:
        for name, rng in overrides.items():
            if name not in ranges:
                raise ValueError(
                    f"identity {identity} has no parameter {name!r}")
            ranges[name] = rng
    grid = {name: f"{lo}..{hi}" for name, (lo, hi) in ranges.items()}
    cells = list(entry.cells(ranges))
    if not cells:
        return IdentityReport(identity, grid, 0, "skipped", notes=entry.notes)
    for checked, cell in enumerate(cells, 1):
        lhs, rhs = entry.evaluate(cell)
        if lhs != rhs:
            counter = {
                "params": dict(sorted(cell.items())),
                "lhs": serialize_value(lhs),
                "rhs": serialize_value(rhs),
            }
            if entry.name in ("I-GENL1", "I-GENL1-REC"):
                bad = _first_tracked_mismatch(cell["n"], cell.get("k", 0))
                if bad is not None:
                    counter["stat_mismatch_structure"] = bad.text()
            return IdentityReport(entry.name, grid, checked, "fail",
                                  counterexample=counter, notes=entry.notes)
    return IdentityReport(entry.name, grid, checked, "pass", notes=entry.notes)


def check_all(overrides: Ranges | None = None,
              names: list[str] | None = None) -> list[IdentityReport]:
    return [check(name, overrides) for name in (names or identity_names())]


def oracle_diff(family: str, n: int, r: int = 0,
                k_range: tuple[int, int] | None = None) -> list[dict]:
    """Engine-versus-oracle mismatches of one (family, n, r) cell, in k order.

    ``family`` is an engine family with an oracle (``ORACLE_FOR_ENGINE``);
    ``k_range`` is inclusive and defaults to 0..n (bell_q has no k).  A range
    that covers 0..n is enumerated in one pass; otherwise each requested k
    is enumerated, and held to the cap, on its own.  Each mismatch is
    ``{"params", "engine", "oracle"}`` with serialized values.
    """
    oracle_family, fn = ORACLE_FOR_ENGINE[family], engine(family)
    if family == "bell_q":
        table = oracle_table(oracle_family, n, r)
        cells = [({"n": n, "r": r}, fn(n, r), sum(table.values(), Q_ZERO))]
    else:
        zero = M_ZERO if family == "hsu_shiue" else Q_ZERO
        lo, hi = (0, n) if k_range is None else k_range
        ks = range(lo, hi + 1)
        if lo == 0 and hi >= n:
            table = oracle_table(oracle_family, n, r)
        else:
            table = {kk: v for k in ks for kk, v
                     in oracle_table(oracle_family, n, r, only_k=k).items()}
        cells = [({"n": n, "k": k, "r": r},
                  fn(n, k) if family == "hsu_shiue" else fn(n, k, r),
                  table.get(k, zero)) for k in ks]
    return [{"params": params, "engine": serialize_value(want),
             "oracle": serialize_value(got)}
            for params, want, got in cells if want != got]


# ---------------------------------------------------------------------------
# grid generators
# ---------------------------------------------------------------------------

def _grid(ranges: Ranges, k: str | None = None, k_min: int = 0,
          n_min: int = 0, routes: tuple[str, ...] = ()) -> Iterator[dict]:
    """Product of the ranged parameters in their declared order, clipped by
    the m+n window and by n_min; k ("n" or "m+n") then runs over k_min..k
    and the routes run innermost."""
    names = [name for name in ranges if name != "m+n"]
    window = ranges.get("m+n")
    for values in product(*(_span(ranges, name) for name in names)):
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


# ---------------------------------------------------------------------------
# identity definitions, in source order of the families they involve
# ---------------------------------------------------------------------------

def _spivey(cell):
    m, n = cell["m"], cell["n"]
    lhs = cl.bell(m + n)
    rhs = sum(j ** (n - i) * binom(n, i) * cl.stirling2(m, j) * cl.bell(i)
              for i in range(n + 1) for j in range(m + 1))
    return lhs, rhs


_register(
    "I-SPIVEY", "classical Bell number double sum",
    {"m": (0, 10), "n": (0, 10), "m+n": (0, 10)},
    _grid, _spivey)


def _mezo1(cell):
    m, n, r = cell["m"], cell["n"], cell["r"]
    lhs = cl.bell_r(m + n, r)
    rhs = sum((j + r) ** (n - i) * binom(n, i) * cl.stirling2_r(m, j, r) * cl.bell(i)
              for i in range(n + 1) for j in range(m + 1))
    return lhs, rhs


_register(
    "I-MEZO-1", "restricted Bell number double sum",
    {"m": (0, 10), "n": (0, 10), "m+n": (0, 10), "r": (0, 3)},
    _grid, _mezo1)


def _mezo2(cell):
    m, n, r = cell["m"], cell["n"], cell["r"]
    lhs = rising_int(r + 1, m + n)
    rhs = sum(rising_int(m, n - i) * binom(n, i) * cl.stirling1_r(m, j, r)
              * rising_int(r + 1, i)
              for i in range(n + 1) for j in range(m + 1))
    return lhs, rhs


_register(
    "I-MEZO-2", "rising factorial double sum over restricted cycle counts",
    {"m": (0, 10), "n": (0, 10), "m+n": (0, 10), "r": (0, 3)},
    _grid, _mezo2)


def _pe1(cell):
    n, k, r = cell["n"], cell["k"], cell["r"]
    return _ocell("partitions", n, k, r), stirling2_q(n, k, r)


_register(
    "I-PE1", "restriction shift for partition weights, against enumeration",
    {"n": (0, 8), "r": (0, 2)},
    lambda rng: _grid(rng, k="n"), _pe1)


def _p1e1(cell):
    m, n, r, k = cell["m"], cell["n"], cell["r"], cell["k"]
    lhs = stirling2_q(m + n, k, r)
    rhs = Q_ZERO
    for i in range(n + 1):
        for j in range(m + 1):
            term = (q_integer(j + r) ** (n - i) * binom(n, i)
                    * stirling2_q(m, j, r) * stirling2_q(i, k - j, 0))
            rhs = rhs + term.shift(i * (j + r))
    return lhs, rhs


_register(
    "I-P1E1", "two-part product formula for restricted partition weights",
    {"m": (0, 8), "n": (0, 8), "m+n": (0, 8), "r": (0, 2)},
    lambda rng: _grid(rng, k="m+n"), _p1e1)


def _p1e2(cell):
    m, n, r = cell["m"], cell["n"], cell["r"]
    lhs = bell_q(m + n, r)
    rhs = Q_ZERO
    for i in range(n + 1):
        for j in range(m + 1):
            term = (q_integer(j + r) ** (n - i) * binom(n, i)
                    * stirling2_q(m, j, r) * bell_q(i, 0))
            rhs = rhs + term.shift(i * (j + r))
    return lhs, rhs


_register(
    "I-P1E2", "two-part product formula for restricted Bell weights",
    {"m": (0, 8), "n": (0, 8), "m+n": (0, 8), "r": (0, 2)},
    _grid, _p1e2)


def _bin1(cell):
    m, n, k = cell["m"], cell["n"], cell["k"]
    lhs = binom(m + n - k - 1, k - 1)
    rhs = 0
    for i in range(n + 1):
        for j in range(m + 1):
            a = indicator_pair(i, j, n).a
            rhs += (a * (-1) ** ((i + 1) * j) * binom(n, i)
                    * binom_gen(m - j // 2 - 1, m - j)
                    * binom_gen(i - k + (j + 1) // 2 - 1, i - 2 * k + j))
    return lhs, rhs


def _bin2(cell):
    m, n, k = cell["m"], cell["n"], cell["k"]
    lhs = binom(m + n - k, k - 1)
    rhs = 0
    for i in range(n + 1):
        for j in range(m + 1):
            a = indicator_pair(i, j, n).a
            rhs += (a * (-1) ** (i * j) * binom(n, i)
                    * binom_gen(m - j // 2 - 1, m - j)
                    * binom_gen(i - k + j // 2, i - 2 * k + j + 1))
    return lhs, rhs


def _bin3(cell):
    m, n, k = cell["m"], cell["n"], cell["k"]
    lhs = binom(m + n - k, k)
    rhs = 0
    for i in range(n + 1):
        for j in range(m + 1):
            b = indicator_pair(i, j, n).b
            rhs += (b * (-1) ** (i * (j + 1)) * binom(n, i)
                    * binom_gen(m - (j + 1) // 2, m - j)
                    * binom_gen(i - k + (j + 1) // 2 - 1, i - 2 * k + j))
    return lhs, rhs


def _bin4(cell):
    m, n, k = cell["m"], cell["n"], cell["k"]
    lhs = binom(m + n - k, k - 1)
    rhs = 0
    for i in range(n + 1):
        for j in range(m + 1):
            b = indicator_pair(i, j, n).b
            rhs += (b * (-1) ** ((i + 1) * (j + 1)) * binom(n, i)
                    * binom_gen(m - (j + 1) // 2, m - j)
                    * binom_gen(i - k + j // 2, i - 2 * k + j + 1))
    return lhs, rhs


_BIN_NOTE = ("binomials inside the sums follow the generalized convention "
             "(value 1 at lower index 0 for any upper index), matching the "
             "closed forms they substitute; the left side is an ordinary "
             "binomial, zero outside its support",)
for _nm, _fn, _sm in [
        ("I-BIN-1", _bin1, "binomial identity from the even-restriction evaluation"),
        ("I-BIN-2", _bin2, "companion binomial identity, odd target index"),
        ("I-BIN-3", _bin3, "binomial identity from the odd-restriction evaluation"),
        ("I-BIN-4", _bin4, "companion binomial identity, odd target index")]:
    _register(_nm, _sm, {"m": (1, 10), "n": (1, 10)},
              lambda rng: _grid(rng, k="m+n", k_min=1), _fn,
              notes=_BIN_NOTE)


def _sneg(n: int, k: int, r: int = 0) -> int:
    return poly_eval_int(stirling2_q(n, k, r), -1)


def _bin5(cell):
    m, n, k = cell["m"], cell["n"], cell["k"]
    lhs = _sneg(m + n, k)
    rhs = sum(indicator_pair(i, j, n).a * (-1) ** (i * j) * binom(n, i)
              * _sneg(m, j) * _sneg(i, k - j)
              for i in range(n + 1) for j in range(m + 1))
    return lhs, rhs


_register(
    "I-BIN-5", "q = -1 specialization of the two-part partition formula",
    {"m": (0, 10), "n": (0, 10), "m+n": (0, 10)},
    lambda rng: _grid(rng, k="m+n"), _bin5)


def _bin6(cell):
    n, k = cell["n"], cell["k"]
    return _sneg(n, k), stirling_neg1("plain", n, k)


_register("I-BIN-6", "closed form for partition weights at q = -1",
          {"n": (0, 20)}, lambda rng: _grid(rng, k="n"), _bin6)


def _bin7(cell):
    m, n, k = cell["m"], cell["n"], cell["k"]
    lhs = _sneg(m + n, k, 1)
    rhs = sum(indicator_pair(i, j, n).b * (-1) ** (i * (j + 1)) * binom(n, i)
              * _sneg(m, j, 1) * _sneg(i, k - j)
              for i in range(n + 1) for j in range(m + 1))
    return lhs, rhs


_register(
    "I-BIN-7", "q = -1 specialization with one restricted element",
    {"m": (0, 10), "n": (0, 10), "m+n": (0, 10)},
    lambda rng: _grid(rng, k="m+n"), _bin7,
    notes=("includes the binomial factor over the free elements, which the "
           "usual statement drops; without it the identity fails already "
           "at m=0, n=2, k=1",))


def _bin8(cell):
    n, k = cell["n"], cell["k"]
    lhs = _sneg(n, k, 1)
    rhs = sum((-1) ** (i + k * (k - 1) // 2) * binom(n, i)
              * binom_gen(i - k // 2 - 1, i - k)
              for i in range(k, n + 1))
    return lhs, rhs


_register("I-BIN-8", "alternating-sum form of the restricted q = -1 values",
          {"n": (0, 12)}, lambda rng: _grid(rng, k="n"), _bin8)


def _bin9(cell):
    n, k = cell["n"], cell["k"]
    return _sneg(n, k, 1), stirling_neg1("r1", n, k)


_register("I-BIN-9", "closed form for restricted partition weights at q = -1",
          {"n": (0, 20)}, lambda rng: _grid(rng, k="n"), _bin9)


def _lah_cf(cell):
    n, k = cell["n"], cell["k"]
    return lah_q_closed_form(n, k), lah_q(n, k, 0)


_register("I-LAH-CF", "product closed form versus the two-term recurrence",
          {"n": (1, 20)},
          lambda rng: _grid(rng, k="n", k_min=1, n_min=1), _lah_cf)


def _lah_r(cell):
    n, k, r = cell["n"], cell["k"], cell["r"]
    lhs = poly_eval_int(lah_q(n, k, r), 1)
    rhs = sum(rising_int(2 * r, i) * binom(n, i) * cl.lah(n - i, k)
              for i in range(n + 1))
    return lhs, rhs


_register("I-LAH-R", "restriction shift for ordered-block counts at q = 1",
          {"n": (0, 8), "r": (0, 3)},
          lambda rng: _grid(rng, k="n"), _lah_r)


def _p2_factor(i: int, j: int, m: int, r: int, n: int) -> QPoly:
    base = j + m + 2 * r
    return (q_rising(base, n - i) * q_binomial(n, i)).shift(i * base)


def _p2e1(cell):
    m, n, r, k = cell["m"], cell["n"], cell["r"], cell["k"]
    lhs = lah_q(m + n, k, r)
    rhs = Q_ZERO
    for i in range(n + 1):
        for j in range(k + 1):
            rhs = rhs + (_p2_factor(i, j, m, r, n) * lah_q(m, j, r)
                         * lah_q(i, k - j, 0))
    return lhs, rhs


_register(
    "I-P2E1", "two-part product formula for restricted ordered-block weights",
    {"m": (0, 7), "n": (0, 7), "m+n": (0, 7), "r": (0, 2)},
    lambda rng: _grid(rng, k="m+n"), _p2e1)


def _lah_q_total(n: int, r: int) -> QPoly:
    total = Q_ZERO
    for k in range(n + 1):
        total = total + lah_q(n, k, r)
    return total


def _p2e2(cell):
    m, n, r = cell["m"], cell["n"], cell["r"]
    bound = m if cell["route"] == "bound=m" else m + n
    lhs = _lah_q_total(m + n, r)
    rhs = Q_ZERO
    for i in range(n + 1):
        for j in range(bound + 1):
            rhs = rhs + (_p2_factor(i, j, m, r, n) * lah_q(m, j, r)
                         * _lah_q_total(i, 0))
    return lhs, rhs


_register(
    "I-P2E2", "summed form of the ordered-block product formula",
    {"m": (0, 7), "n": (0, 7), "m+n": (0, 7), "r": (0, 2)},
    lambda rng: _grid(rng, routes=("bound=m", "bound=m+n")), _p2e2,
    notes=("the inner summation bound is read as m (terms beyond m vanish "
           "since the restricted values are zero there) and the aggregate "
           "value at size i as the sum over all block counts; the check "
           "runs both bounds m and m+n and they must agree",))


def _qbin_corollary(cell):
    m, n, k = cell["m"], cell["n"], cell["k"]
    exps = [i * (j + m + 1) - 2 * j * (k - j + 1)
            for i in range(1, n + 1) for j in range(1, k + 1)]
    lift = max(0, -min(exps)) if exps else 0
    lhs = (q_binomial(m + n, k) * q_binomial(m + n + 1, n)
           - q_binomial(m, k) * q_binomial(k + m + n + 1, n)).shift(lift)
    rhs = Q_ZERO
    for i in range(1, n + 1):
        for j in range(1, k + 1):
            e = i * (j + m + 1) - 2 * j * (k - j + 1)
            term = (q_binomial(m, j - 1) * q_binomial(k + 1, j)
                    * q_binomial(i - 1, k - j) * q_binomial(m + n + j - i, n - i))
            rhs = rhs + term.shift(lift + e)
    return lhs, rhs


_register(
    "I-QBIN", "Gaussian binomial identity from the ordered-block formula",
    {"m": (0, 6), "n": (0, 6), "k": (0, 6)}, _grid, _qbin_corollary,
    notes=("individual terms carry negative powers of q; both sides are "
           "lifted by a common power before comparing",))


def _cq_rec(cell):
    n, k = cell["n"], cell["k"]
    lhs = _ocell("perms", n, k)
    rhs = _ocell("perms", n - 1, k - 1) + q_integer(n - 1) * _ocell("perms", n - 1, k)
    return lhs, rhs


_register("I-CQ-REC", "cycle-weight recurrence, against enumeration",
          {"n": (1, 7)}, lambda rng: _grid(rng, k="n", n_min=1), _cq_rec)


def _t3e1(cell):
    m, n, r, k = cell["m"], cell["n"], cell["r"], cell["k"]
    lhs = stirling1_q(m + n, k, r)
    rhs = Q_ZERO
    for i in range(n + 1):
        fac = q_rising(m + r, n - i) * q_binomial(n, i)
        for j in range(m + 1):
            rhs = rhs + fac * stirling1_q(m, j, r) * stirling1_q(i, k - j, 0)
    return lhs, rhs


_register(
    "I-T3E1", "two-part product formula for restricted cycle weights",
    {"m": (0, 7), "n": (0, 7), "m+n": (0, 7), "r": (0, 2)},
    lambda rng: _grid(rng, k="m+n"), _t3e1)


def _one_plus_qints(lo: int, count: int) -> QPoly:
    p = Q_ONE
    for ell in range(lo, lo + count):
        p = p * (Q_ONE + q_integer(ell))
    return p


def _t3e2(cell):
    m, n, r = cell["m"], cell["n"], cell["r"]
    lhs = _one_plus_qints(m + r, n)
    rhs = Q_ZERO
    for i in range(n + 1):
        rhs = rhs + (q_rising(m + r, n - i) * q_binomial(n, i)
                     * _one_plus_qints(0, i))
    return lhs, rhs


_register(
    "I-T3E2", "summed form of the cycle product formula",
    {"m": (0, 7), "n": (0, 7), "m+n": (0, 7), "r": (0, 2)},
    _grid, _t3e2)


def _cq_sum(cell):
    n, r = cell["n"], cell["r"]
    lhs = Q_ZERO
    for k in range(n + 1):
        lhs = lhs + stirling1_q(n, k, r)
    return lhs, _one_plus_qints(r, n)


_register("I-CQ-SUM", "total cycle weight as a product",
          {"n": (0, 8), "r": (0, 3)}, _grid, _cq_sum)


def _cq_sym(cell):
    n, k = cell["n"], cell["k"]
    lhs = stirling1_q(n, k, 0)
    rhs = elementary_symmetric(n - k, [q_integer(i) for i in range(1, n)])
    return lhs, rhs


_register("I-CQ-SYM", "cycle weights as elementary symmetric polynomials",
          {"n": (0, 10)}, lambda rng: _grid(rng, k="n"), _cq_sym)


def _t4e1(cell):
    # stated for the block-position statistic with the restricted blocks'
    # fixed contribution included; engine values drop that r-choose-2
    # constant, so both sides are lifted by the matching power of q
    m, n, r, k = cell["m"], cell["n"], cell["r"], cell["k"]
    lhs = stirling2_q(n, k, m + r).shift((m + r) * (m + r - 1) // 2)
    mq = q_integer(m)
    rhs = Q_ZERO
    for i in range(n + 1):
        term = (mq ** (n - i) * binom(n, i)
                * stirling2_q(i, k, r).shift(r * (r - 1) // 2))
        rhs = rhs + term.shift(m * (i + r) + m * (m - 1) // 2)
    return lhs, rhs


def _t4e2(cell):
    m, n, r, k = cell["m"], cell["n"], cell["r"], cell["k"]
    lhs = lah_q(n, k, m + r)
    rhs = Q_ZERO
    for i in range(n + 1):
        term = q_rising(2 * m, n - i) * q_binomial(n, i) * lah_q(i, k, r)
        rhs = rhs + term.shift(m * (2 * i + 2 * r + m - 1))
    return lhs, rhs


def _t4e3(cell):
    m, n, r, k = cell["m"], cell["n"], cell["r"], cell["k"]
    lhs = stirling1_q(n, k, m + r)
    rhs = Q_ZERO
    for i in range(n + 1):
        term = q_rising(m, n - i) * q_binomial(n, i) * stirling1_q(i, k, r)
        rhs = rhs + term.shift(r * (n - i))
    return lhs, rhs


_T4E1_NOTE = ("the partition-weight identity holds for the statistic that "
              "includes the restricted blocks' fixed r-choose-2 "
              "contribution; both sides are lifted accordingly before "
              "comparing engine values",)
for _nm, _fn, _sm, _nt in [
        ("I-T4E1", _t4e1, "restriction-composition shift for partition weights",
         _T4E1_NOTE),
        ("I-T4E2", _t4e2, "restriction-composition shift for ordered-block weights",
         ()),
        ("I-T4E3", _t4e3, "restriction-composition shift for cycle weights",
         ())]:
    _register(_nm, _sm,
              {"m": (0, 7), "n": (0, 7), "m+n": (0, 7), "r": (0, 2)},
              lambda rng: _grid(rng, k="n"), _fn,
              notes=_nt)


def _t4c1(cell):
    m, n, r = cell["m"], cell["n"], cell["r"]
    lhs = _one_plus_qints(r, m + n)
    rhs = Q_ZERO
    for i in range(n + 1):
        fac = (q_rising(m, n - i) * q_binomial(n, i)).shift(r * (n - i))
        inner = _one_plus_qints(r, i)
        for j in range(m + 1):
            rhs = rhs + fac * stirling1_q(m, j, r) * inner
    return lhs, rhs


_register(
    "I-T4C1", "summed form of the cycle restriction-composition shift",
    {"m": (0, 7), "n": (0, 7), "m+n": (0, 7), "r": (0, 2)},
    _grid, _t4c1)


def _genrec(cell):
    n = cell["n"]
    lhs = shifted_factorial(n, X, -ALPHA)
    rhs = M_ZERO
    for k in range(n + 1):
        rhs = rhs + hsu_shiue(n, k) * shifted_factorial(k, X - R, BETA)
    return lhs, rhs


_register("I-GENREC", "connection constants between shifted factorial bases",
          {"n": (0, 8)}, _grid, _genrec)


def _genl1(cell):
    n, k = cell["n"], cell["k"]
    return hsu_shiue(n, k), _ocell("ext_lah", n, k)


_register("I-GENL1", "generalized Stirling numbers as weighted sums",
          {"n": (0, 7)}, lambda rng: _grid(rng, k="n"), _genl1)


def _genl1_rec(cell):
    n, k = cell["n"], cell["k"]
    lhs = _ocell("ext_lah", n, k)
    rhs = (_ocell("ext_lah", n - 1, k - 1)
           + (ALPHA * (n - 1) + BETA * k + R) * _ocell("ext_lah", n - 1, k))
    return lhs, rhs


_register("I-GENL1-REC", "weighted-sum recurrence, against enumeration",
          {"n": (1, 6)}, lambda rng: _grid(rng, k="n", n_min=1), _genl1_rec)


def _t5e1_rhs(m: int, n: int, k: int) -> MPoly:
    rhs = M_ZERO
    for i in range(n + 1):
        for j in range(m + 1):
            rhs = rhs + (binom(n, i) * hsu_shiue(m, j) * hsu_shiue(i, k - j)
                         * shifted_factorial(n - i, ALPHA * m + BETA * j, -ALPHA))
    return rhs


def _t5e1(cell):
    m, n, k = cell["m"], cell["n"], cell["k"]
    return hsu_shiue(m + n, k), _t5e1_rhs(m, n, k)


_register(
    "I-T5E1", "two-part product formula for generalized Stirling numbers",
    {"m": (0, 7), "n": (0, 7), "m+n": (0, 7)},
    lambda rng: _grid(rng, k="m+n"), _t5e1)


def _t5e2(cell):
    m, n = cell["m"], cell["n"]
    lhs = gen_bell(m + n)
    if cell["route"] == "direct":
        rhs = M_ZERO
        for i in range(n + 1):
            for j in range(m + 1):
                rhs = rhs + (binom(n, i) * X ** j * hsu_shiue(m, j)
                             * gen_bell(i)
                             * shifted_factorial(n - i, ALPHA * m + BETA * j, -ALPHA))
    else:  # sum the refined formula over the block-count marker
        rhs = M_ZERO
        for k in range(m + n + 1):
            rhs = rhs + X ** k * _t5e1_rhs(m, n, k)
    return lhs, rhs


_register(
    "I-T5E2", "generalized Bell polynomial product formula",
    {"m": (0, 7), "n": (0, 7), "m+n": (0, 7)},
    lambda rng: _grid(rng, routes=("direct", "sum-over-k")), _t5e2,
    notes=("verified twice: directly with the block-count marker and by "
           "summing the refined formula over all block counts",))
