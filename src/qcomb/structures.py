"""Canonical combinatorial structures and their one insertion tree.

Four families: set partitions, permutations in standard cycle form, Lah
distributions (ordered blocks), and extended Lah distributions (Lah
distributions with circled special elements).  Blocks and cycles are always
stored ordered by increasing minimum, which one shared validator checks;
each cycle starts with its minimum.

Every family grows on one insertion tree from the restricted prefix [[1],
..., [r]]: element t goes into each legal slot of each structure on [t-1],
so each structure is one leaf, reached in a deterministic order.  Each slot
also says what t adds to the family's statistic and whether it opens a group
that k counts; the enumerators build the leaves, and all four oracles only
count them.  The tree is prefix-closed: each node of depth d is a structure
of the cell (d, r), so one walk of the cell (n, r) passes every smaller
one.  A slot list depends only on the shape of the groups, so each walk
builds it once per shape, in a memo bounded by ``MEMO_SLOTS`` slots that
dies with the walk; every node is still visited and every leaf still
counted one by one.  Each walk follows ``check_cell``, the one check of a
cell's arguments and its size against the cap.  Only the extended Lah
enumerators validate what they yield; the tests validate the other three,
and the r-restriction and true blocks, with helpers in ``tests/reference.py``.
"""

from __future__ import annotations

import math
import os
from typing import Iterator, NamedTuple

from . import classical

DEFAULT_CELL_CAP = 10_000_000
CELL_CAP_ENV = "QCOMB_MAX_ENUM"


class StructureError(ValueError):
    """A structure violates its representation invariants."""


class CellCapError(RuntimeError):
    """An enumeration cell would exceed the configured structure cap.

    An estimate too long for ``str`` (Python's limit on integer string
    conversion) is given as the power of ten below it:

    >>> error = CellCapError(("perms", 9, None, 0), 10 ** 5000 + 1, 7)
    >>> str(error).split(" holds ")[1]
    'at least 10^5000 structures, above the cap 7'
    """

    def __init__(self, cell: tuple, estimate: int, cap: int):
        self.cell = cell
        self.estimate = estimate
        self.cap = cap
        try:
            size = str(estimate)
        except ValueError:
            size = f"at least 10^{_log10_floor(estimate)}"
        super().__init__(
            f"enumeration cell {cell} holds {size} structures, above the cap {cap}")


def _log10_floor(x: int) -> int:
    """The exponent e with 10**e <= x < 10**(e+1), for an int x >= 1,
    found with no conversion of x to a string."""
    e = int(math.log10(x))               # off by one near a power of ten
    while 10 ** e > x:
        e -= 1
    while 10 ** (e + 1) <= x:
        e += 1
    return e


_cap_override: int | None = None


def set_default_cap(cap: int | None) -> None:
    """Install a process-wide cap, taking precedence over the environment;
    None removes it."""
    global _cap_override
    if cap is not None and (isinstance(cap, bool)
                            or not (isinstance(cap, int) and cap >= 0)):
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

    def validate(self) -> "ExtLahDist":
        """Check the base distribution and, in the same scan, the circling
        rules: each circled element is special, and a circled 1 starts its
        block.  The first illegal circled element, in the order the set
        iterates, names the error.

        >>> ExtLahDist(LahDist(3, ((1, 3), (2,))), frozenset({3})).validate()
        Traceback (most recent call last):
          ...
        qcomb.structures.StructureError: circled element 3 is not special
        """
        special, legal = _scan(self.base, self.circled)
        if legal < len(self.circled):
            for e in self.circled:
                if e not in special:
                    raise StructureError(f"circled element {e} is not special")
                if e == 1 and self.base.blocks[0][0] != 1:
                    raise StructureError("circled 1 does not start its block")
        return self

    def text(self) -> str:
        return _text(self.base.blocks, self.circled)


def _scan(structure, circled=frozenset()) -> tuple[list[int], int]:
    """Check that the groups of a structure (n, groups) are nonempty, cover
    [n] exactly once and come in order of increasing minimum, in one
    left-to-right scan.  Read the groups as the blocks of a Lah
    distribution: return its special elements, in increasing order, and how
    many of the elements ``circled`` the same scan finds legally circled
    (special, and 1 only at the start of its block, which is blocks[0])."""
    n, blocks = structure
    if n < 0:
        raise StructureError(f"negative size {n}")
    seen = bytearray(n + 2)              # seen[n + 1] stays 0 and stops low
    special = []
    legal = 0
    low = 1                              # the least element not yet seen
    last = 0                             # the minimum of the previous block
    try:
        for b in blocks:
            if not b:
                raise StructureError("empty group")
            mn = b[0]                    # the minimum of the block so far
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
                        if e in circled and (e > 1 or b[0] == 1):
                            legal += 1
                    while seen[low]:
                        low += 1
            if mn < last:
                raise StructureError("groups not ordered by increasing minimum")
            last = mn
    except TypeError as exc:             # say, an element that is not an int
        raise StructureError(f"malformed groups: {exc}") from exc
    if low <= n:
        raise StructureError("groups do not cover the ground set exactly once")
    return special, legal


def special_elements(delta: LahDist) -> frozenset[int]:
    """Elements eligible for circling: 1, plus every element that is not a
    block minimum and is preceded by all smaller elements in the
    left-to-right scan of the blocks.  delta must be valid: an invalid one
    raises StructureError."""
    return frozenset(_scan(delta)[0])


# ---------------------------------------------------------------------------
# the insertion tree
# ---------------------------------------------------------------------------
# A structure on [t] is a structure on [t-1] with t placed in one slot, so
# each structure is the leaf of exactly one insertion path.  A slot policy
# lists the slots of t on the current groups (blocks or cycles, as lists of
# labels) in output order, as (i, pos, label, inc, opens): label goes to
# position pos of group i, where i == len(groups) opens a new group, the
# family's statistic grows by inc, and opens is 1 when the slot opens a group
# that k counts.  The label is t, or -t for a circled t.  A policy reads the
# groups only through their lengths and whether group 0 starts with a
# circled 1 (label -1), and t is one more than the number of labels placed:
# groups of the same shape, whatever their labels, get equal slot lists.

def _partition_slots(t: int, groups: list[list[int]]) -> list[tuple]:
    # stat_w: t in block i (counted from 0) adds i
    g = len(groups)
    out = [(i, len(b), t, i, 0) for i, b in enumerate(groups)]
    out.append((g, 0, t, g, 1))
    return out


def _cycle_slots(t: int, groups: list[list[int]]) -> list[tuple]:
    # stat_inv_c: t, the running maximum, placed before p letters of the
    # joined word adds p
    slots = []
    rest = t - 1                         # letters from cycle i on
    for i, c in enumerate(groups):
        slots += [(i, pos, t, rest - pos, 0) for pos in range(1, len(c) + 1)]
        rest -= len(c)
    slots.append((len(groups), 0, t, 0, 1))
    return slots


def _lah_slots(t: int, groups: list[list[int]]) -> list[tuple]:
    # stat_inv_rho: the same rule on the word of the blocks in reverse order
    # with 0 separators, where a new block comes first, so it passes all
    # t - 1 letters and len(groups) separators
    slots = []
    behind = 0                           # letters of the word after block i
    for i, b in enumerate(groups):
        slots += [(i, pos, t, behind + len(b) - pos, 0) for pos in range(len(b) + 1)]
        behind += len(b) + 1
    slots.append((len(groups), 0, t, t - 1 + len(groups), 1))
    return slots


def _ext_lah_slots(base: int):
    """Slot policy of extended Lah distributions; the statistic packs
    nrec + base * rec_star + base**2 * circ."""
    def slots(t: int, groups: list[list[int]]) -> list[tuple]:
        out = [(len(groups), 0, t, 0, 1)]                    # a new true block
        for i, b in enumerate(groups):                       # right after an element
            out += [(i, pos, t, 1, 0) for pos in range(1, len(b) + 1)]
        out += [(i, 0, t, base, 0) for i, b in enumerate(groups)
                if b[0] != -1]                               # in front of a true block
        if t == 1:                                           # circled 1 opens a block
            out.append((0, 0, -1, base * base, 0))           # that is not true
        elif groups:                                         # circled, at the very end
            out.append((len(groups) - 1, len(groups[-1]), -t, base * base, 0))
        return out
    return slots


def _unpack(stat: int, base: int) -> tuple[int, int, int]:
    """(nrec, rec_star, circ) from a statistic packed by _ext_lah_slots(base)."""
    return stat % base, stat // base % base, stat // (base * base)


_SLOTS = {"partitions": _partition_slots, "perms": _cycle_slots,
          "lah": _lah_slots}

# family -> (its enumerator, the classical triangle that sizes its cells)
_CELLS = {
    "partitions": ("enum_partitions", classical.stirling2_r),
    "perms": ("enum_cycle_perms", classical.stirling1_r),
    "lah": ("enum_lah", classical.lah_r),
    "ext_lah": ("enum_extended_lah", classical._ext_lah),   # at r = 0
}


# the most slots one walk's memo of slot lists holds
MEMO_SLOTS = 1 << 15


def _shape_memo(slots) -> tuple:
    """The slot policy ``slots`` behind a memo for one walk, and the memo.

    The memo maps a shape key, the group lengths after a flag for a circled
    1 at the front of group 0, to the policy's slot list as a tuple, whose
    slots are interned for the walk.  Once a new list would take it past
    MEMO_SLOTS slots, it is full, and each later call goes to the policy.
    """
    memo: dict[tuple, tuple] = {}
    pool: dict[tuple, tuple] = {}
    room = MEMO_SLOTS

    def shape_slots(t: int, groups: list[list[int]]):
        nonlocal room
        if room < 0:
            return slots(t, groups)
        key = (groups[0][0] == -1 if groups else False, *map(len, groups))
        out = memo.get(key)
        if out is None:
            out = slots(t, groups)
            room -= len(out)
            if room >= 0:
                out = memo[key] = tuple(map(pool.setdefault, out, out))
        return out

    return shape_slots, memo


def check_cell(family: str, n: int, k: int | None, r: int) -> list[list[int]] | None:
    """Check one cell's arguments, then its size against the cap, sized with
    no k by one walked row of its classical triangle; return the prefix
    [[1], ..., [r]] that its walk starts from, or None when k is out of range.

    >>> check_cell("partitions", 3, None, 2), check_cell("perms", 3, 4, 0)
    ([[1], [2]], None)
    >>> check_cell("trees", 3, None, 0)
    Traceback (most recent call last):
    ValueError: unknown oracle family 'trees'
    """
    if family not in _CELLS:
        raise ValueError(f"unknown oracle family {family!r}")
    name, count = _CELLS[family]
    if n < 0 or r < 0:
        raise ValueError(f"{name} requires n, r >= 0, got ({n}, {r})")
    if family == "ext_lah" and r:
        raise ValueError("ext_lah oracle requires r = 0")
    if k is not None and not 0 <= k <= n:
        return None
    estimate = sum(count.row(n, r)) if k is None else count(n, k, r)
    cap = effective_cap()
    if estimate > cap:
        raise CellCapError((family, n, k, None if family == "ext_lah" else r),
                           estimate, cap)
    return [[j] for j in range(1, r + 1)]


def _insertion_tree(n: int, k: int | None, slots,
                    groups: list[list[int]]) -> Iterator[tuple[int, int, int, list]]:
    """Walk the insertion tree of one cell of n >= 1 free elements, depth
    first on an explicit stack, so no cell size can overflow the Python stack.

    ``groups`` starts as the prefix [[1], ..., [r]], the restricted elements
    each in a group of its own that neither k nor the statistic counts, and
    holds the current structure.  The walk places r+1..r+n.  It yields every
    node with r+1..r+d placed, for d = 0..n-1, in preorder, as (d, stat, key,
    children): the statistic so far, the number of groups k counts, and the
    slots of element r+d+1, which the walk builds anyway to go on.  The tree
    is prefix-closed: with no k, the nodes of depth d are the structures of
    the cell (d, r), and their children the leaves of the cell (d+1, r).  At
    depth n-1 the children end in the cell (n, k, r), one leaf each, and the
    walk does not descend into them.  The nodes of one shape share their
    slot list through the walk's memo (``_shape_memo``), a tuple that the
    consumers only read; k filters a copy of it.
    """
    r = len(groups)
    size = r + n
    last = n - 1
    slots, _memo = _shape_memo(slots)

    def fits(children: list[tuple], t: int, key: int) -> list[tuple]:
        # t and each later element open at most one counted group
        return [s for s in children if 0 <= k - key - s[4] <= size - t]

    children = slots(r + 1, groups)
    if k is not None:
        children = fits(children, r + 1, 0)
    yield 0, 0, 0, children
    # frames[d] places element r+1+d: the slots it has left, the key and
    # statistic before it, and the slot it occupies (None before the first)
    frames = [[iter(children), 0, 0, None]] if last else []
    while frames:
        frame = frames[-1]
        slots_left, key, stat, taken = frame
        if taken is not None:
            i = taken[0]
            if len(groups[i]) == 1:      # the label opened group i
                groups.pop()
            else:
                del groups[i][taken[1]]
        slot = frame[3] = next(slots_left, None)
        if slot is None:
            frames.pop()
            continue
        i, pos, label, inc, opens = slot
        if i == len(groups):
            groups.append([label])
        else:
            groups[i].insert(pos, label)
        depth = len(frames)
        key += opens
        stat += inc
        children = slots(r + depth + 1, groups)
        if k is not None:
            children = fits(children, r + depth + 1, key)
        yield depth, stat, key, children
        if depth < last:
            frames.append([iter(children), key, stat, None])


def _leaves(family: str, n: int, k: int | None, r: int,
            slots) -> Iterator[tuple[list[list[int]], int]]:
    """Check one cell, then yield (groups, stat) for each structure in it:
    its blocks or cycles, valid until the next leaf, and the statistic of
    its free elements."""
    groups = check_cell(family, n, k, r)
    if groups is None:
        return
    if n == 0:
        yield groups, 0                  # the prefix alone
        return
    last = n - 1
    for depth, stat, _key, children in _insertion_tree(n, k, slots, groups):
        if depth != last:
            continue
        for i, pos, label, inc, _opens in children:
            if i == len(groups):         # the label opens group i
                groups.append([label])
                yield groups, stat + inc
                groups.pop()
            else:
                groups[i].insert(pos, label)
                yield groups, stat + inc
                del groups[i][pos]


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
