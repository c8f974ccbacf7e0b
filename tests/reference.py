"""Reference helpers that the tests compare the package against.

None of them is part of qcomb: they read a value or a structure from
outside, through its public fields only, and the q-products below take
every factor as a schoolbook ``QPoly.__mul__``.  From ``gen_bell`` on,
they are the bodies that the package's faster paths replaced, kept as they
were; the dense QPoly operations work on the coefficient tuples from q^0
that QPoly stored before it kept a valuation.  The insertion tree at the
end is the walk over labelled groups that the walk over group shapes
replaced, with its fold and its leaves; it asks its slot policy at every
node.
"""

import math
from collections import Counter, defaultdict
from itertools import product
from operator import add

from qcomb import families, oracles
from qcomb.polyring import (ExactDivisionError, M_ZERO, MPoly, Q_ONE, QPoly,
                            X, _signed_sum, q_integer)
from qcomb.stats import ext_stats
from qcomb.structures import StructureError


def evaluate(p, alpha, beta, r, x):
    """The exact value of an MPoly at one point; ints give an int and
    Fractions a Fraction."""
    return sum(c * alpha ** i * beta ** j * r ** s * x ** t
               for (i, j, s, t), c in p.terms.items())


def r_distinct(structure, r):
    """True iff elements 1..r lie in pairwise distinct blocks or cycles."""
    return all(sum(e <= r for e in g) <= 1 for g in structure[1])


def opens_counted_group(slot, groups):
    """1 iff an insertion slot (i, pos, label, ...) on groups opens a group
    that k counts: a new group, unless its label is a circled 1 (-1)."""
    i, _pos, label = slot[:3]
    return int(i == len(groups) and label > 0)


def true_block_count(lam):
    """Blocks of an extended Lah distribution, less the one that a circled
    1 opens."""
    return len(lam.base.blocks) - (1 in lam.circled)


def q_rising(a, m):
    """Schoolbook product of the q-integers a, a+1, ..., a+m-1."""
    p = Q_ONE
    for i in range(a, a + m):
        p = p * q_integer(i)
    return p


def one_plus_qints(lo, count):
    """Schoolbook product of 1 + [ell] over ell = lo..lo+count-1."""
    p = Q_ONE
    for ell in range(lo, lo + count):
        p = p * (Q_ONE + q_integer(ell))
    return p


def gen_bell(n):
    """Sum of families.hsu_shiue(n, k) * x^k, one MPoly product and one
    sum per k; hsu_shiue is looked up when it runs, as gen_bell does."""
    return sum((families.hsu_shiue(n, k) * X ** k for k in range(n + 1)),
               M_ZERO)


def qpoly_add(p, s):
    """Schoolbook sum of two QPoly values, one coefficient at a time."""
    a, b = p.coeffs, s.coeffs
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return QPoly(out)


def sorted_terms(p):
    """The terms of an MPoly in graded-lexicographic order, sorted on
    (degree, the negated exponents)."""
    return sorted(p.terms.items(),
                  key=lambda kv: (sum(kv[0]), tuple(-e for e in kv[0])))


def scan_with_starts(structure):
    """The structure scan that also built the block starts: (frozenset of
    the special elements, set of the block starts)."""
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


def validate_ext_lah(lam):
    """ExtLahDist.validate as it checked the circles after the scan, against
    the special elements and the block starts."""
    special, starts = scan_with_starts(lam.base)
    for e in lam.circled:
        if e not in special:
            raise StructureError(f"circled element {e} is not special")
        if (e in starts) != (e == 1):        # 1 lies in blocks[0]
            raise StructureError(f"circled element {e} starts a block" if e > 1
                                 else "circled 1 does not start its block")
    return lam


def weight(lam):
    """The weight monomial of an extended Lah distribution, built afresh by
    MPoly.from_monomial for each structure."""
    st = ext_stats(lam)
    return MPoly.from_monomial(e_alpha=st.nrec, e_beta=st.rec_star, e_r=st.circ)


def grid(ranges, k=None, k_min=0, n_min=0, routes=()):
    """identities._grid as it walked every cell of the full product and
    dropped the cells outside the m+n window or below n_min."""
    names = [name for name in ranges if name != "m+n"]
    window = ranges.get("m+n")
    spans = [range(lo, hi + 1) for lo, hi in (ranges[name] for name in names)]
    for values in product(*spans):
        cell = dict(zip(names, values))
        if window and not window[0] <= cell["m"] + cell["n"] <= window[1]:
            continue
        if cell["n"] < n_min:
            continue
        cells = [cell] if k is None else [
            {**cell, "k": j}
            for j in range(k_min, sum(cell[name] for name in k.split("+")) + 1)]
        for c in cells:
            yield from [{**c, "route": route} for route in routes] or [c]


def binom_gen(a, b):
    """The generalized binomial as a falling product a(a-1)...(a-b+1) over
    b!; zero for b < 0."""
    if b < 0:
        return 0
    num = 1
    for t in range(b):
        num *= a - t
    return num // math.factorial(b)


def _trimmed(cs):
    """The list cs as a tuple, without its trailing zeros."""
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def dense_add(a, b):
    """The sum of two coefficient tuples, padded to one length."""
    if len(a) < len(b):
        a, b = b, a
    return _trimmed(list(map(add, a, b + (0,) * (len(a) - len(b)))))


def dense_mul(a, b):
    """The schoolbook product of two coefficient tuples."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trimmed(out)


def dense_shift(a, k):
    """A coefficient tuple times q^k: k zeros in front, none for zero."""
    return (0,) * k + a if a else ()


def dense_eval(a, t):
    """A coefficient tuple evaluated at the integer t (Horner)."""
    acc = 0
    for c in reversed(a):
        acc = acc * t + c
    return acc


def dense_div_q_integer(a, n):
    """The quotient tuple of a by the q-integer [n], n >= 1, by schoolbook
    division from the top; ExactDivisionError on a nonzero remainder."""
    rem = list(a)
    quot = [0] * max(len(rem) - n + 1, 0)
    for i in reversed(range(len(quot))):
        f = quot[i] = rem[i + n - 1]     # [n] is monic of degree n - 1
        for j in range(i, i + n):
            rem[j] -= f
    if any(rem):
        raise ExactDivisionError(f"nonzero remainder in division by [{n}]")
    return _trimmed(quot)


def dense_str(a):
    """QPoly's printed form of a coefficient tuple, one term per nonzero
    coefficient, read from q^0 up."""
    return _signed_sum((c, "" if i == 0 else "q" if i == 1 else f"q^{i}")
                       for i, c in enumerate(a) if c)


# ---------------------------------------------------------------------------
# the label walk of the insertion tree
# ---------------------------------------------------------------------------

def on_groups(slots):
    """A package slot policy, which reads the shape (t, flag, lengths), as
    the label walk calls it: on the groups of labels themselves."""
    return lambda t, groups: slots(t, bool(groups) and groups[0][0] == -1,
                                   tuple(map(len, groups)))


def insertion_tree(n: int, k, slots, groups: list[list[int]]):
    """Walk the insertion tree of one cell of n >= 1 free elements on the
    labelled groups, which start as the prefix [[1], ..., [r]], with the
    policy ``slots`` read through ``on_groups``.  Yield every node with
    r+1..r+d placed, d = 0..n-1, in preorder, as (d, stat, key, children):
    the statistic so far, the number of groups k counts, and the slots of
    element r+d+1 (those that can still reach k, if k is given)."""
    r = len(groups)
    size = r + n
    last = n - 1
    slots = on_groups(slots)

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


def leaves(n: int, k, r: int, slots):
    """(groups, stat) of each structure of the cell (n, k, r), which must
    be in range, from the label walk; the groups are valid until the next
    leaf."""
    groups = [[j] for j in range(1, r + 1)]
    if n == 0:
        yield groups, 0
        return
    for depth, stat, _key, children in insertion_tree(n, k, slots, groups):
        if depth != n - 1:
            continue
        for i, pos, label, inc, _opens in children:
            if i == len(groups):
                groups.append([label])
                yield groups, stat + inc
                groups.pop()
            else:
                groups[i].insert(pos, label)
                yield groups, stat + inc
                del groups[i][pos]


def fold(family: str, n: int, r: int, only_k, low: int) -> list[dict]:
    """The oracle tables of the cells (low, r), ..., (n, r) from the label
    walk of the cell (n, only_k, r), a Counter of statistics per key and
    depth, with the values of ``oracles._FOLDS``."""
    slots, value = oracles._FOLDS[family](n, r)
    rows = [defaultdict(Counter) for _ in range(low, n + 1)]
    if low == 0:
        rows[0][0][0] = 1                # the prefix alone
    if n:
        prefix = [[j] for j in range(1, r + 1)]
        for depth, stat, key, children in insertion_tree(n, only_k, slots,
                                                         prefix):
            if depth < low - 1:
                continue
            counts = rows[depth + 1 - low]
            folds = counts[key], counts[key + 1]
            for _i, _pos, _label, inc, opens in children:
                folds[opens][stat + inc] += 1
    return [{kk: value(c) for kk, c in counts.items() if c} for counts in rows]
