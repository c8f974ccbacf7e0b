"""Statistics on partitions, cycle permutations and Lah distributions.

Each statistic is computed directly from the structure definition; the
extended-Lah statistics take one pass over each block.  The oracles do not
call these: they fold the same statistics in as the insertion tree places
each element.  These direct computations are the reference that the tests
compare the fold against.  All functions are pure.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from functools import lru_cache
from typing import NamedTuple, Sequence

from .polyring import MPoly
from .structures import CyclePerm, ExtLahDist, LahDist, SetPartition


class ExtStats(NamedTuple):
    nrec: int
    rec_star: int
    circ: int


def inversions(word: Sequence[int]) -> int:
    """Number of pairs i < j with word[i] > word[j].

    Counts by binary insertion into a sorted prefix: O(L log L)
    comparisons, with the insertions running at C speed.
    """
    seen: list[int] = []
    count = 0
    for x in word:
        count += len(seen) - bisect_right(seen, x)
        insort(seen, x)
    return count


def stat_w(pi: SetPartition) -> int:
    """Block-position weight: sum of (i-1)*|B_i| over blocks in canonical order."""
    return sum(i * len(b) for i, b in enumerate(pi.blocks))


def stat_inv_rho(delta: LahDist) -> int:
    """Inversions of the block words re-ordered by decreasing minimum and
    joined by 0 separators."""
    word: list[int] = []
    # canonical storage is by increasing minimum, so reversal suffices
    for b in reversed(delta.blocks):
        if word:
            word.append(0)
        word.extend(b)
    return inversions(word)


def stat_inv_c(pi: CyclePerm) -> int:
    """Inversions of the standard-cycle-form word with dividers erased."""
    word: list[int] = []
    for c in pi.cycles:
        word.extend(c)
    return inversions(word)


def ext_stats(lam: ExtLahDist) -> ExtStats:
    """Record-low statistics of an extended Lah distribution, in one pass
    over each block.

    Within each true block only the uncircled elements are scanned: the
    first is a record low and the sublist minimum so far, each later new
    minimum counts in rec_star, and every other element in nrec.  The block
    holding circled 1 contributes all of its uncircled elements to nrec and
    nothing to rec_star; this is cross-checked against a scan with a
    sentinel 1 at the front of that block, which no uncircled element may
    undercut.
    """
    nrec = rec_star = 0
    circled = lam.circled
    one_circled = 1 in circled
    for b in lam.base.blocks:
        if one_circled and b[0] == 1:
            for e in b:
                if e not in circled:
                    if e < 1:
                        raise AssertionError(
                            f"sentinel scan of circled-1 block disagrees: {e} < 1")
                    nrec += 1
            continue
        mn = None
        for e in b:
            if e in circled:
                continue
            if mn is None:
                mn = e
            elif e < mn:
                mn = e
                rec_star += 1
            else:
                nrec += 1
    return ExtStats(nrec, rec_star, len(circled))


@lru_cache(maxsize=1024)
def _monomial(nrec: int, rec_star: int, circ: int) -> MPoly:
    """The monomial alpha^nrec * beta^rec_star * r^circ, shared by every
    structure with these counts; the counts are never negative."""
    return MPoly({(nrec, rec_star, circ, 0): 1})


def weight(lam: ExtLahDist) -> MPoly:
    """Weight monomial alpha^nrec * beta^rec_star * r^circ, looked up in a
    bounded table of the most recently used monomials.

    >>> lam = ExtLahDist(LahDist(5, ((1, 2, 5), (4, 3))), frozenset({2}))
    >>> print(weight(lam.validate()))
    alpha*beta*r
    """
    return _monomial(*ext_stats(lam))
