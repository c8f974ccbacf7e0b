"""Canonical combinatorial structures and their one insertion tree.

Four families: set partitions, permutations in standard cycle form, Lah
distributions (ordered blocks), and extended Lah distributions (Lah
distributions with circled special elements).  Blocks and cycles are always
stored ordered by increasing minimum, which one shared validator checks;
each cycle starts with its minimum.

Every family grows on one insertion tree: element t goes into each legal
slot of each structure on [t-1], so each structure is one leaf, reached in a
deterministic order.  Each slot also says what t adds to the family's
statistic; the enumerators build and validate the leaves, and all four
oracles only count them.  The r-restricted variants make each of 1..r open
its own block or cycle.
"""

from __future__ import annotations

import os
from typing import Iterator, NamedTuple

from . import classical

DEFAULT_CELL_CAP = 10_000_000
CELL_CAP_ENV = "QCOMB_MAX_ENUM"


class StructureError(ValueError):
    """A structure violates its representation invariants."""


class CellCapError(RuntimeError):
    """An enumeration cell would exceed the configured structure cap."""

    def __init__(self, cell: tuple, estimate: int, cap: int):
        self.cell = cell
        self.estimate = estimate
        self.cap = cap
        super().__init__(
            f"enumeration cell {cell} holds {estimate} structures, above the cap {cap}")


_cap_override: int | None = None


def set_default_cap(cap: int | None) -> None:
    """Install a process-wide cap, taking precedence over the environment;
    None removes it."""
    global _cap_override
    if cap is not None and not (isinstance(cap, int) and cap >= 0):
        raise ValueError(f"cap must be a non-negative integer or None, got {cap!r}")
    _cap_override = cap


def parse_cap(text: str, source: str) -> int:
    """A cap read from ``source`` (a flag or a variable): an integer >= 0."""
    if not text.strip().isdecimal():
        raise ValueError(f"{source} must be a non-negative integer, got {text!r}")
    return int(text)


def effective_cap() -> int:
    """Resolve the enumeration cap: the installed override, then the
    environment, then the built-in default."""
    if _cap_override is not None:
        return _cap_override
    env = os.environ.get(CELL_CAP_ENV)
    if env is not None:
        return parse_cap(env, CELL_CAP_ENV)
    return DEFAULT_CELL_CAP


# ---------------------------------------------------------------------------
# structure types
# ---------------------------------------------------------------------------

def _valid(structure, in_group=None, rule: str = ""):
    """Check and return a structure (n, groups): nonempty groups (blocks or
    cycles) that cover [n] exactly once, ordered by increasing minimum, each
    obeying the family's own in_group rule, if any, which rule describes."""
    _scan(structure)
    if in_group is not None:
        for g in structure[1]:
            if not in_group(g):
                raise StructureError(f"group {g} {rule}")
    return structure


def _text(groups: tuple[tuple[int, ...], ...], circled=frozenset()) -> str:
    return "/".join(",".join(f"({e})" if e in circled else str(e) for e in g)
                    for g in groups)


class SetPartition(NamedTuple):
    n: int
    blocks: tuple[tuple[int, ...], ...]

    def validate(self) -> "SetPartition":
        return _valid(self, lambda b: list(b) == sorted(b), "is not increasing")

    def text(self) -> str:
        return _text(self.blocks)


class CyclePerm(NamedTuple):
    n: int
    cycles: tuple[tuple[int, ...], ...]

    def validate(self) -> "CyclePerm":
        return _valid(self, lambda c: c[0] == min(c), "does not start with its minimum")

    def text(self) -> str:
        return _text(self.cycles)


class LahDist(NamedTuple):
    n: int
    blocks: tuple[tuple[int, ...], ...]

    def validate(self) -> "LahDist":
        return _valid(self)                              # any order inside

    def text(self) -> str:
        return _text(self.blocks)


class ExtLahDist(NamedTuple):
    base: LahDist
    circled: frozenset[int]

    @property
    def n(self) -> int:
        return self.base.n

    def true_block_count(self) -> int:
        return len(self.base.blocks) - (1 if 1 in self.circled else 0)

    def validate(self) -> "ExtLahDist":
        special, starts = _scan(self.base)
        for e in self.circled:
            if e not in special:
                raise StructureError(f"circled element {e} is not special")
            if (e in starts) != (e == 1):        # 1 lies in blocks[0]
                raise StructureError(f"circled element {e} starts a block" if e > 1
                                     else "circled 1 does not start its block")
        return self

    def text(self) -> str:
        return _text(self.base.blocks, self.circled)


def _scan(structure) -> tuple[frozenset[int], set[int]]:
    """Check that the groups of a structure (n, groups) are nonempty, cover
    [n] exactly once and come in order of increasing minimum, in one
    left-to-right scan, and return what the scan finds when the groups are
    read as the blocks of a Lah distribution: its special elements and its
    block starts."""
    n, blocks = structure
    if n < 0:
        raise StructureError(f"negative size {n}")
    seen = bytearray(n + 2)              # seen[n + 1] stays 0 and stops low
    special = []
    starts = set()
    low = 1                              # the least element not yet seen
    last = 0                             # the minimum of the previous block
    try:
        for b in blocks:
            if not b:
                raise StructureError("empty group")
            mn = b[0]                    # the minimum of the block so far
            starts.add(mn)
            for e in b:
                if not 0 < e <= n or seen[e]:
                    raise StructureError(
                        "groups do not cover the ground set exactly once")
                seen[e] = 1
                if e < mn:
                    mn = e
                if e == low:
                    # all smaller elements came first, so the later ones of
                    # this block are larger: e is its minimum iff e == mn
                    if e == 1 or e != mn:
                        special.append(e)
                    while seen[low]:
                        low += 1
            if mn < last:
                raise StructureError("groups not ordered by increasing minimum")
            last = mn
    except TypeError as exc:             # say, an element that is not an int
        raise StructureError(f"malformed groups: {exc}") from exc
    if low <= n:
        raise StructureError("groups do not cover the ground set exactly once")
    return frozenset(special), starts


def special_elements(delta: LahDist) -> frozenset[int]:
    """Elements eligible for circling: 1, plus every element that is not a
    block minimum and is preceded by all smaller elements in the
    left-to-right scan of the blocks.  delta must be valid: an invalid one
    raises StructureError."""
    return _scan(delta)[0]


# ---------------------------------------------------------------------------
# the insertion tree
# ---------------------------------------------------------------------------
# A structure on [t] is a structure on [t-1] with t placed in one slot, so
# each structure is the leaf of exactly one insertion path.  A slot policy
# lists the slots of t on the current groups (blocks or cycles, as lists of
# labels) in output order, as (i, pos, label, inc): label goes to position
# pos of group i, where i == len(groups) opens a new group, and the family's
# statistic grows by inc.  The label is t, or -t for a circled t.

def _partition_slots(t: int, groups: list[list[int]]) -> list[tuple]:
    # stat_w: t in block i (counted from 0) adds i
    g = len(groups)
    return [(i, len(b), t, i) for i, b in enumerate(groups)] + [(g, 0, t, g)]


def _cycle_slots(t: int, groups: list[list[int]]) -> list[tuple]:
    # stat_inv_c: t, the running maximum, placed before p letters of the
    # joined word adds p
    slots = []
    rest = t - 1                         # letters from cycle i on
    for i, c in enumerate(groups):
        slots += [(i, pos, t, rest - pos) for pos in range(1, len(c) + 1)]
        rest -= len(c)
    return slots + [(len(groups), 0, t, 0)]


def _lah_slots(t: int, groups: list[list[int]]) -> list[tuple]:
    # stat_inv_rho: the same rule on the word of the blocks in reverse order
    # with 0 separators, where a new block comes first
    slots = []
    behind = 0                           # letters of the word after block i
    for i, b in enumerate(groups):
        slots += [(i, pos, t, behind + len(b) - pos) for pos in range(len(b) + 1)]
        behind += len(b) + 1
    return slots + [(len(groups), 0, t, behind)]


def _ext_lah_slots(base: int):
    """Slot policy of extended Lah distributions; the statistic packs
    nrec + base * rec_star + base**2 * circ."""
    def slots(t: int, groups: list[list[int]]) -> list[tuple]:
        out = [(len(groups), 0, t, 0)]                       # a new true block
        for i, b in enumerate(groups):                       # right after an element
            out += [(i, pos, t, 1) for pos in range(1, len(b) + 1)]
        out += [(i, 0, t, base) for i, b in enumerate(groups)
                if b[0] != -1]                               # in front of a true block
        if t == 1:                                           # circled 1 opens a block
            out.append((0, 0, -1, base * base))              # that is not true
        elif groups:                                         # circled, at the very end
            out.append((len(groups) - 1, len(groups[-1]), -t, base * base))
        return out
    return slots


def _unpack(stat: int, base: int) -> tuple[int, int, int]:
    """(nrec, rec_star, circ) from a statistic packed by _ext_lah_slots(base)."""
    return stat % base, stat // base % base, stat // (base * base)


_SLOTS = {"partitions": _partition_slots, "perms": _cycle_slots,
          "lah": _lah_slots}

# family -> (its enumerator, the classical size of one (n, k, r) cell)
_CELLS = {
    "partitions": ("enum_partitions", classical.stirling2_r),
    "perms": ("enum_cycle_perms", classical.stirling1_r),
    "lah": ("enum_lah", classical.lah_r),
    "ext_lah": ("enum_extended_lah", lambda n, k, r: classical.ext_lah_count(n, k)),
}


def _cell(family: str, n: int, k: int | None, r: int) -> bool:
    """Check one cell's arguments and its size against the cap; False when k
    is out of range."""
    name, count = _CELLS[family]
    if n < 0 or r < 0:
        raise ValueError(f"{name} requires n, r >= 0, got ({n}, {r})")
    if family == "ext_lah" and r:
        raise ValueError("ext_lah oracle requires r = 0")
    if k is not None and not 0 <= k <= n:
        return False
    ks = range(n + 1) if k is None else (k,)
    estimate, cap = sum(count(n, kk, r) for kk in ks), effective_cap()
    if estimate > cap:
        raise CellCapError((family, n, k, None if family == "ext_lah" else r),
                           estimate, cap)
    return True


def _place(groups: list[list[int]], i: int, pos: int, label: int) -> None:
    if i == len(groups):
        groups.append([label])
    else:
        groups[i].insert(pos, label)


def _unplace(groups: list[list[int]], i: int, pos: int) -> None:
    if len(groups[i]) == 1:              # the label opened group i
        groups.pop()
    else:
        del groups[i][pos]


def _insertion_tree(size: int, k: int | None, r: int, slots,
                    groups: list[list[int]]) -> Iterator[tuple[int, int, list]]:
    """Walk the insertion tree of one cell of [size], size >= 1, depth first
    on an explicit stack, so no cell size can overflow the Python stack.

    ``groups`` starts empty and holds the current prefix.  At each node with
    1..size-1 placed, yields (stat, key, last): the statistic so far, the
    number of groups k counts (all but those of 1..r, which each open their
    own, and a block opened by a circled 1), and the slots of element size
    that end in the cell, one leaf each.
    """
    def node_slots(t: int, key: int) -> list[tuple]:
        out = slots(t, groups)
        g = len(groups)
        if t <= r:
            out = [s for s in out if s[0] == g]
        if k is not None:
            # t and each later element open at most one counted group
            out = [s for s in out
                   if 0 <= k - key - (s[0] == g and s[2] > 0) <= size - t]
        return out

    if size == 1:
        yield 0, -r, node_slots(1, -r)
        return
    # frames[t-1] places element t: the slots it has left, the key and
    # statistic before it, and the slot it occupies (None before the first)
    frames = [[iter(node_slots(1, -r)), -r, 0, None]]
    while frames:
        frame = frames[-1]
        slots_left, key, stat, taken = frame
        if taken is not None:
            _unplace(groups, taken[0], taken[1])
        slot = frame[3] = next(slots_left, None)
        if slot is None:
            frames.pop()
            continue
        i, pos, label, inc = slot
        grown = key + (i == len(groups) and label > 0)
        _place(groups, i, pos, label)
        if len(frames) + 1 == size:
            yield stat + inc, grown, node_slots(size, grown)
        else:
            frames.append([iter(node_slots(len(frames) + 1, grown)), grown,
                           stat + inc, None])


def _leaves(family: str, n: int, k: int | None, r: int,
            slots) -> Iterator[tuple[list[list[int]], int]]:
    """Check one cell, then yield (groups, stat) for each structure in it:
    its blocks or cycles, valid until the next leaf, and its statistic."""
    if not _cell(family, n, k, r):
        return
    groups: list[list[int]] = []
    if n + r == 0:
        yield groups, 0
        return
    for stat, _key, last in _insertion_tree(n + r, k, r, slots, groups):
        for i, pos, label, inc in last:
            _place(groups, i, pos, label)
            yield groups, stat + inc
            _unplace(groups, i, pos)


# ---------------------------------------------------------------------------
# enumerators
# ---------------------------------------------------------------------------

def enum_partitions(n: int, k: int | None, r: int = 0) -> Iterator[SetPartition]:
    """Partitions of [n+r] into k+r blocks with 1..r in distinct blocks.

    k=None streams all block counts.  The stream is empty for impossible
    (n, k, r) combinations.
    """
    for groups, _ in _leaves("partitions", n, k, r, _partition_slots):
        yield SetPartition(n + r, tuple(map(tuple, groups)))


def enum_cycle_perms(n: int, k: int | None, r: int = 0) -> Iterator[CyclePerm]:
    """Permutations of [n+r] with k+r cycles, 1..r in distinct cycles."""
    for groups, _ in _leaves("perms", n, k, r, _cycle_slots):
        yield CyclePerm(n + r, tuple(map(tuple, groups)))


def enum_lah(n: int, k: int | None, r: int = 0) -> Iterator[LahDist]:
    """Lah distributions of [n+r] into k+r ordered blocks, 1..r distinct."""
    for groups, _ in _leaves("lah", n, k, r, _lah_slots):
        yield LahDist(n + r, tuple(map(tuple, groups)))


def enum_extended_lah_tracked(
        n: int, k: int | None) -> Iterator[tuple[ExtLahDist, tuple[int, int, int]]]:
    """Extended Lah distributions with incrementally tracked statistics:
    yields (structure, (nrec, rec_star, circ)), each structure validated
    against the circling rules."""
    for groups, stat in _leaves("ext_lah", n, k, 0, _ext_lah_slots(n + 1)):
        lam = ExtLahDist(LahDist(n, tuple(tuple(map(abs, b)) for b in groups)),
                         frozenset(-e for b in groups for e in b if e < 0))
        yield lam.validate(), _unpack(stat, n + 1)


def enum_extended_lah(n: int, k: int | None) -> Iterator[ExtLahDist]:
    """Extended Lah distributions of [n] with exactly k true blocks."""
    for lam, _stats in enum_extended_lah_tracked(n, k):
        yield lam


def check_r_distinct(structure: SetPartition | CyclePerm | LahDist, r: int) -> bool:
    """True iff elements 1..r occupy pairwise distinct blocks/cycles."""
    return all(sum(e <= r for e in g) <= 1 for g in structure[1])
