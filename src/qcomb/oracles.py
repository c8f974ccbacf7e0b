"""Brute-force statistic-sum oracles.

Each oracle visits every structure of one family's insertion tree and sums
q to the power of the statistic (the weight monomial, for extended Lah
distributions), folded in as each element is inserted: a leaf adds one to
its coefficient count, and no structure is built.  ``oracle_table`` folds
the leaves of one cell, ``oracle`` those of one k, from the walk pruned to
it, and ``oracle_rows`` every depth of one walk: the cells 0..n of one r.
Each holds its cells to the cap first, with ``structures.check_cell``.
stats.py computes the same statistics directly for the tests; nothing here
touches families.py, so an oracle/engine match is a genuine two-route check.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import partial

from .polyring import M_ZERO, MPoly, Q_ZERO, QPoly
from .structures import _SLOTS, _ext_lah_slots, _insertion_tree, _unpack, check_cell

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
# prefix, so its fold starts that many exponents below zero.  The ext_lah
# statistic packs with base n+1 at every depth of the walk: each element
# adds to nrec or to rec_star, so neither passes n.
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
    """Exact statistic sum over one enumeration cell, held to the cap and
    folded from the one walk of the cell pruned to k."""
    groups = check_cell(family, n, k, r)
    table = {} if groups is None else _fold(family, n, r, k, groups, n)[0]
    return table.get(k, ZERO[family])


def oracle_table(family: str, n: int, r: int = 0) -> dict[int, QPoly | MPoly]:
    """The statistic sums of every k of one cell, from the last depth of its walk."""
    return _fold(family, n, r, None, check_cell(family, n, None, r), n)[0]


def oracle_rows(family: str, n: int, r: int = 0) -> list[dict[int, QPoly | MPoly]]:
    """The oracle tables of the cells (0, r), ..., (n, r), all k each, from
    the one walk of the cell (n, r): the insertion tree is prefix-closed, so
    its nodes of depth d are the structures of the cell (d, r), and each
    depth is folded as the walk passes it.  Entry j equals
    oracle_table(family, j, r).  Each cell is held to the cap, in order of
    n, before the walk, so a refusal names the first that is too large."""
    for j in range(n):
        check_cell(family, j, None, r)
    return _fold(family, n, r, None, check_cell(family, n, None, r), 0)


def _fold(family: str, n: int, r: int, only_k: int | None,
          groups: list[list[int]], low: int) -> list[dict[int, QPoly | MPoly]]:
    """The tables of the cells (low, r), ..., (n, r), folded from the walk of
    the cell (n, only_k, r), which starts from groups: the leaves of the cell
    (d+1, r) are the children of the nodes of depth d."""
    slots, value = _FOLDS[family](n, r)
    rows = [defaultdict(Counter) for _ in range(low, n + 1)]
    if low == 0:
        rows[0][0][0] = 1                # the prefix alone
    if n:
        for depth, stat, key, children in _insertion_tree(n, only_k, slots,
                                                          groups):
            if depth < low - 1:
                continue
            counts = rows[depth + 1 - low]
            folds = counts[key], counts[key + 1]
            for _i, _pos, _label, inc, opens in children:
                folds[opens][stat + inc] += 1
    return [{kk: value(c) for kk, c in counts.items() if c} for counts in rows]
