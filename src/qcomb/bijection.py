"""Split/join bijection behind the two-part product formula for generalized
Stirling numbers.

An extended Lah distribution on [m+n] decomposes into a pair (sigma, tau):
sigma keeps the elements of [m] together with the uncircled elements of
H = [m+1, m+n] that sit in blocks meeting [m] to the left of any circled
H-element there; tau takes everything else, relabeled order-preservingly to
an initial segment.  When the right-most block meeting [m] contains circled
H-elements, the suffix starting at the smallest of them becomes tau's first
(non-true) block.  The map preserves all three weight statistics additively
and is inverted by join_lah.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import NamedTuple

from .structures import ExtLahDist, LahDist


class SplitParts(NamedTuple):
    i: int
    j: int
    sigma: ExtLahDist
    sigma_labels: tuple[int, ...]
    tau: ExtLahDist


def split_lah(lam: ExtLahDist, m: int, n: int) -> SplitParts:
    """Split lam on [m+n] into (i, j, sigma, tau).

    sigma is returned relabeled to an initial segment together with its
    original labels (ascending), which carry the placement data join_lah
    needs; tau is relabeled to [i].
    """
    if m < 1 or n < 1:
        raise ValueError(f"split_lah requires m, n >= 1, got ({m}, {n})")
    if lam.n != m + n:
        raise ValueError(f"structure size {lam.n} is not m+n = {m + n}")
    lam.validate()

    # the validated blocks come in order of their minima, so the blocks
    # meeting [m] are a prefix of them
    blocks, circled = lam.base.blocks, lam.circled
    p = 0
    for b in blocks:
        if min(b) > m:
            break
        p += 1
    j = p - (1 if 1 in circled else 0)

    # circled H-elements inside the prefix can only sit in its last block,
    # as a suffix starting at the smallest of them
    sigma_blocks, tau_blocks = blocks[:p], blocks[p:]
    last = blocks[p - 1]
    for cut, e in enumerate(last):
        if e > m and e in circled:
            sigma_blocks = sigma_blocks[:-1] + (last[:cut],)
            tau_blocks = (last[cut:],) + tau_blocks
            break

    s, i = sum(map(len, sigma_blocks)), sum(map(len, tau_blocks))
    if s + i != m + n:
        raise ValueError("split lost elements; malformed input structure")

    # one table relabels both parts: each element goes to exactly one
    sigma_elems = sorted(chain.from_iterable(sigma_blocks))
    label = [0] * (m + n + 1)
    for t, e in enumerate(sigma_elems, 1):
        label[e] = t
    for t, e in enumerate(sorted(chain.from_iterable(tau_blocks)), 1):
        label[e] = t
    relabel = label.__getitem__
    # [m] lies in sigma and sorts first there, so its labels stay as they are
    sigma = ExtLahDist(
        LahDist(s, tuple(tuple(map(relabel, b)) for b in sigma_blocks)),
        frozenset(e for e in circled if e <= m)).validate()
    tau = ExtLahDist(
        LahDist(i, tuple(tuple(map(relabel, b)) for b in tau_blocks)),
        frozenset(relabel(e) for e in circled if e > m)).validate()
    return SplitParts(i, j, sigma, tuple(sigma_elems), tau)


def join_lah(sigma: ExtLahDist, sigma_labels: tuple[int, ...],
             tau: ExtLahDist, m: int, n: int) -> ExtLahDist:
    """Reassemble the structure on [m+n] from a split pair; inverse of
    split_lah."""
    if m < 1 or n < 1:
        raise ValueError(f"join_lah requires m, n >= 1, got ({m}, {n})")
    if len(sigma_labels) != sigma.n:
        raise ValueError("sigma_labels length does not match sigma")
    if sigma.n + tau.n != m + n:
        raise ValueError("sigma and tau sizes do not add up to m+n")
    sigma.validate()
    tau.validate()

    # free[e] says whether e in [m+n] is still free for tau
    free = bytearray(b"\x01") * (m + n + 1)
    free[0] = 0
    prev = 0
    bad = "sigma_labels must increase strictly within [m+n]"
    try:
        for e in sigma_labels:
            if not prev < e <= m + n:
                raise ValueError(bad)
            free[e] = 0
            prev = e
    except TypeError:                    # a label that is not an int
        raise ValueError(bad) from None
    if any(free[1:m + 1]):
        raise ValueError("sigma must contain all of [m]")

    sig = (0,) + tuple(sigma_labels)
    rest = (0,) + tuple(compress(range(m + n + 1), free))   # tau.n of them
    blocks = [tuple(map(sig.__getitem__, b)) for b in sigma.base.blocks]
    tau_blocks = [tuple(map(rest.__getitem__, b)) for b in tau.base.blocks]
    if tau_blocks and 1 in tau.circled:
        # tau's first block is not true: it continues sigma's last block
        blocks[-1] += tau_blocks.pop(0)
    blocks += tau_blocks
    circled = frozenset(map(sig.__getitem__, sigma.circled)).union(
        map(rest.__getitem__, tau.circled))

    return ExtLahDist(LahDist(m + n, tuple(blocks)), circled).validate()
