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
that k counts.  The tree is prefix-closed: each node of depth d is a
structure of the cell (d, r), so one walk of the cell (n, r) passes every
smaller one.  A slot list depends only on the shape of the groups (their
lengths, and whether group 0 starts with a circled 1), so the one walk moves
over shapes, and a table that dies with the walk keeps each shape once, as
an entry of its slots, their fold codes and its child entries, up to
``MEMO_SLOTS`` slots and shape cells; every node is still visited and
every leaf still counted one by one.  The oracles fold the codes and touch
no label; the enumerators place the labels along the walk's path and build
the leaves.  Each walk follows ``check_cell``, the one check of a cell's
arguments and its size against the cap.  Only the extended Lah enumerators
validate what they yield; the tests validate the other three, and the
r-restriction and true blocks, with helpers in ``tests/reference.py``, which
also keeps the label walk that the shape walk replaced.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from itertools import chain, repeat
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
# lists the slots of t on the shape of the groups (blocks or cycles) in
# output order, as (i, pos, label, inc, opens): label goes to position pos of
# group i, where i == len(lengths) opens a new group, the family's statistic
# grows by inc, and opens is 1 when the slot opens a group that k counts.
# The label is t, or -t for a circled t.  The shape is all that a policy
# reads: flag, whether group 0 starts with a circled 1 (label -1), and the
# group lengths; t is one more than the number of labels placed.

def _partition_slots(t: int, flag: bool, lengths) -> list[tuple]:
    # stat_w: t in block i (counted from 0) adds i
    g = len(lengths)
    out = [(i, m, t, i, 0) for i, m in enumerate(lengths)]
    out.append((g, 0, t, g, 1))
    return out


def _cycle_slots(t: int, flag: bool, lengths) -> list[tuple]:
    # stat_inv_c: t, the running maximum, placed before p letters of the
    # joined word adds p
    slots = []
    rest = t - 1                         # letters from cycle i on
    for i, m in enumerate(lengths):
        slots += [(i, pos, t, rest - pos, 0) for pos in range(1, m + 1)]
        rest -= m
    slots.append((len(lengths), 0, t, 0, 1))
    return slots


def _lah_slots(t: int, flag: bool, lengths) -> list[tuple]:
    # stat_inv_rho: the same rule on the word of the blocks in reverse order
    # with 0 separators, where a new block comes first, so it passes all
    # t - 1 letters and len(lengths) separators
    slots = []
    behind = 0                           # letters of the word after block i
    for i, m in enumerate(lengths):
        slots += [(i, pos, t, behind + m - pos, 0) for pos in range(m + 1)]
        behind += m + 1
    slots.append((len(lengths), 0, t, t - 1 + len(lengths), 1))
    return slots


def _ext_lah_slots(base: int):
    """Slot policy of extended Lah distributions; the statistic packs
    nrec + base * rec_star + base**2 * circ."""
    def slots(t: int, flag: bool, lengths) -> list[tuple]:
        g = len(lengths)
        out = [(g, 0, t, 0, 1)]                              # a new true block
        for i, m in enumerate(lengths):                      # right after an element
            out += [(i, pos, t, 1, 0) for pos in range(1, m + 1)]
        out += [(i, 0, t, base, 0) for i in range(flag, g)]  # in front of a true block
        if t == 1:                                           # circled 1 opens a block
            out.append((0, 0, -1, base * base, 0))           # that is not true
        elif g:                                              # circled, at the very end
            out.append((g - 1, lengths[-1], -t, base * base, 0))
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


# the most slots and shape cells that one walk keeps
MEMO_SLOTS = 1 << 15


def _grow(shape: tuple, slot: tuple) -> tuple:
    """The shape (flag, *lengths) after slot places its label."""
    i, _pos, label = slot[:3]
    if i + 1 == len(shape):              # the label opens group i
        return (shape[0] or label == -1, *shape[1:], 1)
    return (*shape[:i + 1], shape[i + 1] + 1, *shape[i + 2:])


class _Shapes(dict):
    """The shapes (flag, *lengths) of one walk, each mapped to its entry
    [shape, slots, codes, kids] when the walk first reaches it: the slots of
    the next element (those that can still reach k, if given), their fold
    codes inc * (n + 2) + opens, and, once the walk expands a node of the
    shape, each slot's child entry (None if not kept).  A shape of ``bare``
    elements, whose nodes the walk folds from their codes alone, keeps no
    slots.  Slots and codes are pooled.  The table stops keeping shapes for
    good once one would take the slots and shape cells held past
    MEMO_SLOTS: each later entry is built at its node and dropped.  The
    table dies with its walk."""

    def __init__(self, policy, n: int, k: int | None, r: int, bare: int):
        super().__init__()
        self.policy, self.n, self.k, self.r, self.bare = policy, n, k, r, bare
        self.pool, self.room = {}, MEMO_SLOTS

    def __missing__(self, shape: tuple) -> list:
        flag, lengths = shape[0], shape[1:]
        t = sum(lengths) + 1
        out = self.policy(t, flag, lengths)
        if self.k is not None:
            # t and each later element open at most one counted group
            key, left = len(lengths) - self.r - flag, self.r + self.n - t
            out = [s for s in out if 0 <= self.k - key - s[4] <= left]
        codes = tuple([s[3] * (self.n + 2) + s[4] for s in out])
        self.room -= len(out) + len(shape)
        if self.room < 0:
            return [shape, out, codes, None]
        pool = self.pool.setdefault
        slots = None if t - 1 == self.bare else tuple(map(pool, out, out))
        entry = self[shape] = [shape, slots, pool(codes, codes), None]
        return entry

    def expand(self, entry: list):
        """(slot, code, child entry) for each slot of a node of the entry's
        shape; the child entries are built while the table has room."""
        shape, slots, codes, kids = entry
        if kids is None:
            if self.room < 0:            # full: the walk grows each child once
                return zip(slots, codes, repeat(None))
            kids = entry[3] = []
            for slot in slots:           # None for a child that is not kept
                kid = self[_grow(shape, slot)] if self.room >= 0 else None
                kids.append(kid if self.room >= 0 else None)
        return zip(slots, codes, kids)


def _walk(n: int, k: int | None, slots, r: int,
          count: Counter | None = None) -> Iterator[tuple]:
    """Walk the insertion tree of one cell of n >= 1 free elements, depth
    first on an explicit stack, so no cell size can overflow the Python stack.

    The walk starts from the prefix [[1], ..., [r]], whose groups neither k
    nor the statistic counts, places r+1..r+n, and moves from shape to shape
    (``_Shapes``), touching no label.  It yields every node with r+1..r+d
    placed, for d = 0..n-1, in preorder, as (d, base, slot, slots, codes):
    base = stat * (n + 2) + key packs the statistic so far and the number of
    groups k counts, slot placed r+d (None at the root), and slots and codes
    are the slots of r+d+1 and their fold codes, so a child's base is base +
    its code.  The tree is prefix-closed: with no k, the nodes of depth d
    are the structures of the cell (d, r) and their children the leaves of
    the cell (d+1, r); those of depth n-1 end in the cell (n, k, r), and the
    walk builds no shape for them.  Given a Counter ``count``, the walk
    yields no node of depth n-1 and adds one at base + code in ``count`` for
    each of their leaves instead.
    """
    shapes = _Shapes(slots, n, k, r, -1 if count is None else r + n - 1)
    top = n - 1 if count is None else n - 2      # the deepest node yielded
    # a frame: its node's (slot, code, child entry) left to visit, base,
    # entry; the first places the root
    stack = [(iter([(None, 0, shapes[(False, *[1] * r)])]), 0, None)]
    while stack:
        frame = stack[-1]
        for slot, code, entry in frame[0]:
            break
        else:
            stack.pop()
            continue
        depth, base = len(stack) - 1, frame[1] + code
        if entry is None:
            entry = shapes[_grow(frame[2][0], slot)]
        if depth > top:                  # n = 1, counted: the root's leaves
            count.update(entry[2])
            continue
        yield depth, base, slot, entry[1], entry[2]
        if depth < top:
            stack.append((shapes.expand(entry), base, entry))
        elif count is not None:          # the leaves of its children
            count.update(chain.from_iterable(
                map((base + code).__add__,
                    (kid or shapes[_grow(entry[0], slot)])[2])
                for slot, code, kid in shapes.expand(entry)))


def _leaves(family: str, n: int, k: int | None, r: int,
            slots) -> Iterator[tuple[list[list[int]], int]]:
    """Check one cell, then yield (groups, stat) for each structure in it:
    its blocks or cycles, valid until the next leaf, and the statistic of
    its free elements.  The walk reports the slot that placed each node, and
    the labels are placed and taken back along the path here."""
    groups = check_cell(family, n, k, r)
    if groups is None:
        return
    if n == 0:
        yield groups, 0                  # the prefix alone
        return
    last, width = n - 1, n + 2
    path = []                            # the slots that placed depths 1, 2, ...
    for depth, base, slot, children, _codes in _walk(n, k, slots, r):
        if slot is not None:
            while len(path) >= depth:
                i, pos = path.pop()[:2]
                if len(groups[i]) == 1:  # the label opened group i
                    groups.pop()
                else:
                    del groups[i][pos]
            i, pos, label = slot[:3]
            if i == len(groups):
                groups.append([label])
            else:
                groups[i].insert(pos, label)
            path.append(slot)
        if depth != last:
            continue
        stat = base // width
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
