"""Statistics on partitions, cycle permutations and Lah distributions.

Each statistic is computed directly from the structure definition.  The
oracles do not call these: they fold the same statistics in as the insertion
tree places each element.  These direct computations are the reference that
the tests compare the fold against.  All functions are pure.
"""

from __future__ import annotations

from bisect import bisect_right, insort
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


def _record_lows(seq: Sequence[int]) -> list[int]:
    out = []
    mn: int | None = None
    for e in seq:
        if mn is None or e < mn:
            out.append(e)
            mn = e
    return out


def ext_stats(lam: ExtLahDist) -> ExtStats:
    """Record-low statistics of an extended Lah distribution.

    Within each true block only the uncircled sublist is scanned: rec_star
    counts record lows that are not the sublist minimum, nrec the uncircled
    elements that are not record lows.  The block holding circled 1
    contributes all of its uncircled elements to nrec and nothing to
    rec_star; this is cross-checked against a scan with a sentinel 1 at the
    front of that sublist.
    """
    nrec = rec_star = 0
    one_circled = 1 in lam.circled
    for b in lam.base.blocks:
        unc = [e for e in b if e not in lam.circled]
        if one_circled and b[0] == 1:
            # sentinel scan must agree with the stated override
            lows = _record_lows([1] + unc)
            if lows != [1]:
                raise AssertionError(
                    f"sentinel scan of circled-1 block disagrees: {lows}")
            nrec += len(unc)
            continue
        if not unc:
            continue
        lows = _record_lows(unc)
        mn = min(unc)
        rec_star += sum(1 for e in lows if e != mn)
        nrec += len(unc) - len(lows)
    return ExtStats(nrec, rec_star, len(lam.circled))


def weight(lam: ExtLahDist) -> MPoly:
    """Weight monomial alpha^nrec * beta^rec_star * r^circ."""
    st = ext_stats(lam)
    return MPoly.from_monomial(e_alpha=st.nrec, e_beta=st.rec_star, e_r=st.circ)
