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

from typing import NamedTuple

from .structures import ExtLahDist, LahDist


class SplitParts(NamedTuple):
    i: int
    j: int
    sigma: ExtLahDist
    sigma_labels: tuple[int, ...]
    tau: ExtLahDist


def _relabel(blocks: tuple[tuple[int, ...], ...], circled: frozenset[int],
             mapping: dict[int, int], n: int) -> ExtLahDist:
    base = LahDist(n, tuple(tuple(mapping[e] for e in b) for b in blocks))
    return ExtLahDist(base, frozenset(mapping[e] for e in circled))


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

    prefix = [b for b in lam.base.blocks if min(b) <= m]
    hblocks = [b for b in lam.base.blocks if min(b) > m]
    j = len(prefix) - (1 if 1 in lam.circled else 0)

    # circled H-elements inside the prefix can only sit in its last block,
    # as a suffix starting at the smallest of them
    sigma_blocks = [list(b) for b in prefix]
    tau_blocks: list[tuple[int, ...]] = []
    last = sigma_blocks[-1]
    cut = next((p for p, e in enumerate(last)
                if e > m and e in lam.circled), None)
    if cut is not None:
        tau_blocks.append(tuple(last[cut:]))
        del last[cut:]
    tau_blocks.extend(hblocks)

    sigma_elems = sorted(e for b in sigma_blocks for e in b)
    tau_elems = sorted(e for b in tau_blocks for e in b)
    i = len(tau_elems)
    if i + len(sigma_elems) != m + n:
        raise ValueError("split lost elements; malformed input structure")

    sig_map = {e: t + 1 for t, e in enumerate(sigma_elems)}
    sigma = _relabel(tuple(tuple(b) for b in sigma_blocks),
                     frozenset(e for e in lam.circled if e <= m),
                     sig_map, len(sigma_elems)).validate()
    tau_map = {e: t + 1 for t, e in enumerate(tau_elems)}
    tau = _relabel(tuple(tau_blocks),
                   frozenset(e for e in lam.circled if e in tau_map),
                   tau_map, i).validate()
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

    ground = set(range(1, m + n + 1))
    used = set(sigma_labels)
    if sorted(used) != list(sigma_labels) or not used <= ground:
        raise ValueError("sigma_labels must increase strictly within [m+n]")
    if not set(range(1, m + 1)) <= used:
        raise ValueError("sigma must contain all of [m]")
    rest = sorted(ground - used)                         # tau.n of them

    sig_map = {t + 1: e for t, e in enumerate(sigma_labels)}
    tau_map = {t + 1: e for t, e in enumerate(rest)}
    blocks = [list(sig_map[e] for e in b) for b in sigma.base.blocks]
    circled = set(sig_map[e] for e in sigma.circled)
    circled.update(tau_map[e] for e in tau.circled)

    tau_relabeled = [tuple(tau_map[e] for e in b) for b in tau.base.blocks]
    if tau_relabeled and 1 in tau.circled:
        # tau's first block is not true: it continues sigma's last block
        blocks[-1].extend(tau_relabeled[0])
        tau_relabeled = tau_relabeled[1:]
    blocks.extend(list(b) for b in tau_relabeled)

    lam = ExtLahDist(LahDist(m + n, tuple(tuple(b) for b in blocks)),
                     frozenset(circled))
    return lam.validate()
