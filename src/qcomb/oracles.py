"""Brute-force statistic-sum oracles.

Each oracle visits every structure of one family's insertion tree and sums
q to the power of the statistic (the weight monomial, for extended Lah
distributions).  All four fold the statistic in as each element is
inserted: a leaf adds one to its coefficient count, and no structure is
built.  stats.py computes the same statistics directly, and the tests
compare the two.  Nothing here touches the closed forms or recurrences in
families.py, so an oracle/engine match is a genuine two-route check.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import partial

from .polyring import M_ZERO, MPoly, Q_ZERO, QPoly
from .structures import (_SLOTS, _cell, _ext_lah_slots, _insertion_tree,
                         _unpack)

# engine family -> oracle family that certifies it
ORACLE_FOR_ENGINE = {"stirling2_q": "partitions", "stirling1_q": "perms",
                     "lah_q": "lah", "bell_q": "partitions",
                     "hsu_shiue": "ext_lah"}


def _qpoly(offset: int, c: Counter) -> QPoly:
    """Sum of count * q**(v - offset) over the buckets v, built from the
    least bucket up: no slot is kept for the powers below it."""
    low = min(c)
    return QPoly([c[v] for v in range(low, max(c) + 1)]).shift(low - offset)


def _weights(base: int, c: Counter) -> MPoly:
    return MPoly({(*_unpack(v, base), 0): count for v, count in c.items()})


# family -> the slot policy of one (n, r) cell and the value of one bucket
# of its folded statistics.  The walk counts the free elements only; the
# restricted q-Lah polynomials also count the r(r-1) inversions of the
# prefix, so its fold starts that many exponents below zero.
_FOLDS = {
    "partitions": lambda n, r: (_SLOTS["partitions"], partial(_qpoly, 0)),
    "perms": lambda n, r: (_SLOTS["perms"], partial(_qpoly, 0)),
    "lah": lambda n, r: (_SLOTS["lah"], partial(_qpoly, -r * (r - 1))),
    "ext_lah": lambda n, r: (_ext_lah_slots(n + 1), partial(_weights, n + 1)),
}
ORACLE_FAMILIES = tuple(_FOLDS)

# family -> the value of a cell that holds no structure
ZERO = {"partitions": Q_ZERO, "perms": Q_ZERO, "lah": Q_ZERO, "ext_lah": M_ZERO}


def oracle(family: str, n: int, k: int, r: int = 0) -> QPoly | MPoly:
    """Exact statistic sum over one enumeration cell."""
    return oracle_table(family, n, r, only_k=k).get(k, ZERO[family])


def oracle_table(family: str, n: int, r: int = 0,
                 only_k: int | None = None) -> dict[int, QPoly | MPoly]:
    """Statistic sums for every k of one (family, n, r) cell in a single
    enumeration pass; restrict to one k with only_k."""
    if family not in ORACLE_FAMILIES:
        raise ValueError(f"unknown oracle family {family!r}")
    groups = _cell(family, n, only_k, r)
    if groups is None:
        return {}
    slots, value = _FOLDS[family](n, r)
    counts: defaultdict[int, Counter] = defaultdict(Counter)
    if n == 0:
        counts[0][0] = 1                 # the prefix alone
    else:
        for stat, key, last in _insertion_tree(n, only_k, slots, groups):
            folds = counts[key], counts[key + 1]
            for _i, _pos, _label, inc, opens in last:
                folds[opens][stat + inc] += 1
    return {kk: value(c) for kk, c in counts.items() if c}
