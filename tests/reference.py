"""Reference helpers that the tests compare the package against.

None of them is part of qcomb: they read a value or a structure from
outside, through its public fields only, and the q-products below take
every factor as a schoolbook ``QPoly.__mul__``.  The last six are the
bodies that the package's faster paths replaced, kept as they were.
"""

from qcomb import families
from qcomb.polyring import M_ZERO, MPoly, Q_ONE, QPoly, X, q_integer
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
