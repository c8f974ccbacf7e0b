"""Brute-force statistic-sum oracles.

Each oracle visits every structure of one family's insertion tree and sums
q to the power of the statistic (the weight monomial, for extended Lah
distributions).  The statistic is folded in as each element is inserted:
a leaf adds one to its coefficient count, and only extended Lah
distributions are built, to be validated.  stats.py computes the same
statistics directly, and the tests compare the two.  Nothing here touches
the closed forms or recurrences in families.py, so an oracle/engine match
is a genuine two-route check.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from .polyring import MPoly, QPoly
from .structures import (_SLOTS, _cell, _insertion_tree,
                         enum_extended_lah_tracked)

ORACLE_FAMILIES = ("partitions", "perms", "lah", "ext_lah")

# engine family -> oracle family that certifies it
ORACLE_FOR_ENGINE = {"stirling2_q": "partitions", "stirling1_q": "perms",
                     "lah_q": "lah", "bell_q": "partitions",
                     "hsu_shiue": "ext_lah"}

# oracle family -> the first engine family it certifies
ENGINE_FOR_ORACLE = {oracle_family: engine for engine, oracle_family
                     in reversed(ORACLE_FOR_ENGINE.items())}


def oracle(family: str, n: int, k: int, r: int = 0,
           cap: int | None = None) -> QPoly | MPoly:
    """Exact statistic sum over one enumeration cell."""
    table = oracle_table(family, n, r, cap=cap, only_k=k)
    zero = MPoly() if family == "ext_lah" else QPoly()
    return table.get(k, zero)


def oracle_table(family: str, n: int, r: int = 0, cap: int | None = None,
                 only_k: int | None = None) -> dict[int, QPoly | MPoly]:
    """Statistic sums for every k of one (family, n, r) cell in a single
    enumeration pass; restrict to one k with only_k."""
    if family not in ORACLE_FAMILIES:
        raise ValueError(f"unknown oracle family {family!r}")
    if family == "ext_lah":
        if r != 0:
            raise ValueError("ext_lah oracle requires r = 0")
        buckets: defaultdict[int, Counter] = defaultdict(Counter)
        for lam, stats in enum_extended_lah_tracked(n, only_k, cap=cap):
            buckets[lam.true_block_count()][(*stats, 0)] += 1
        return {kk: MPoly(dict(c)) for kk, c in buckets.items()}

    if not _cell(family, n, only_k, r, cap):
        return {}
    if n + r == 0:
        return {0: QPoly([1])}
    # 1..r always open the first r blocks, a fixed r-choose-2 of the
    # block-position statistic; the restricted family's polynomials count
    # the free elements only, so that constant is dropped
    offset = r * (r - 1) // 2 if family == "partitions" else 0
    counts: defaultdict[int, Counter] = defaultdict(Counter)
    groups: list[list[int]] = []
    for stat, key, last in _insertion_tree(n + r, only_k, r, _SLOTS[family], groups):
        g = len(groups)
        stay, grow = counts[key], counts[key + 1]
        for i, _pos, _label, inc in last:
            (grow if i == g else stay)[stat + inc] += 1
    return {kk: QPoly([c[v] for v in range(offset, max(c) + 1)])
            for kk, c in counts.items() if c}
