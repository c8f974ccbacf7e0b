"""Reference helpers that the tests compare the package against.

None of them is part of qcomb: they read a value or a structure from
outside, through its public fields only, and the q-products below take
every factor as a schoolbook ``QPoly.__mul__``.
"""

from qcomb.polyring import Q_ONE, q_integer


def evaluate(p, alpha, beta, r, x):
    """The exact value of an MPoly at one point; ints give an int and
    Fractions a Fraction."""
    return sum(c * alpha ** i * beta ** j * r ** s * x ** t
               for (i, j, s, t), c in p.terms.items())


def r_distinct(structure, r):
    """True iff elements 1..r lie in pairwise distinct blocks or cycles."""
    return all(sum(e <= r for e in g) <= 1 for g in structure[1])


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
