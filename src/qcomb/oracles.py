"""Brute-force statistic-sum oracles.

Each oracle visits every structure of one family's insertion tree and sums
q to the power of the statistic (the weight monomial, for extended Lah
distributions), folded in as each element is inserted, and builds no
structure: the walk moves over group shapes, and a leaf adds one at one
int, its node's base stat * (n + 2) + key plus its slot's fold code
inc * (n + 2) + opens, in a flat count per depth that is split into k and
the statistic once, at the end (``_split``).  ``oracle_table`` folds
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
from .structures import _SLOTS, _ext_lah_slots, _unpack, _walk, check_cell

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
    in_range = check_cell(family, n, k, r) is not None
    return (_fold(family, n, r, k, n)[0] if in_range else {}).get(k, ZERO[family])


def oracle_table(family: str, n: int, r: int = 0) -> dict[int, QPoly | MPoly]:
    """The statistic sums of every k of one cell, from the last depth of its walk."""
    check_cell(family, n, None, r)
    return _fold(family, n, r, None, n)[0]


def oracle_rows(family: str, n: int, r: int = 0) -> list[dict[int, QPoly | MPoly]]:
    """The oracle tables of the cells (0, r), ..., (n, r), all k each, from
    the one walk of the cell (n, r): the insertion tree is prefix-closed, so
    its nodes of depth d are the structures of the cell (d, r), and each
    depth is folded as the walk passes it.  Entry j equals
    oracle_table(family, j, r).  Each cell is held to the cap, in order of
    n, before the walk, so a refusal names the first that is too large."""
    for j in range(n):
        check_cell(family, j, None, r)
    check_cell(family, n, None, r)
    return _fold(family, n, r, None, 0)


def _fold(family: str, n: int, r: int, only_k: int | None,
          low: int) -> list[dict[int, QPoly | MPoly]]:
    """The tables of the cells (low, r), ..., (n, r), folded from the walk of
    the cell (n, only_k, r): the leaves of the cell (d+1, r) are the children
    of the nodes of depth d, and each adds one at its node's base + its fold
    code in the flat count of its depth, the last depth's in the walk."""
    slots, value = _FOLDS[family](n, r)
    rows = [Counter() for _ in range(low, n + 1)]
    if low == 0:
        rows[0][0] = 1                   # the prefix alone
    if n:
        for depth, base, _slot, _slots, codes in _walk(n, only_k, slots, r,
                                                        rows[-1]):
            if depth >= low - 1:
                rows[depth + 1 - low].update(map(base.__add__, codes))
    return [_split(row, n + 2, value) for row in rows]


def _split(row: Counter, width: int, value) -> dict[int, QPoly | MPoly]:
    """The table of one depth from its flat count: an index stat * width +
    key splits into the statistic and the number of counted groups.

    An extended Lah leaf of n = 2 (width 4) whose node has one true block
    and rec_star 1 (stat 3: its statistic packs in base n + 1 = 3), placed
    right after an element (inc 1, opens 0), counts at 3 * 4 + 1 + 1 * 4 + 0:

    >>> _split(Counter({3 * 4 + 1 + 1 * 4 + 0: 1}), 4, partial(_weights, 3))
    {1: MPoly({(1, 1, 0, 0): 1})}
    """
    cells = defaultdict(Counter)
    for index, count in row.items():
        stat, key = divmod(index, width)
        cells[key][stat] = count
    return {key: value(c) for key, c in cells.items()}
