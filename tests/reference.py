"""Reference helpers that the tests compare the package against.

None of them is part of qcomb: they read a value or a structure from
outside, through its public fields only.
"""


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
