"""The structure validators against the ones they replaced.

The three per-family group validators, ExtLahDist.validate and the two-dict
special_elements below are the earlier code, kept as the reference: on
valid structures and on mutated ones, the shared validator and the one-pass
scan must accept and reject exactly the same inputs and find the same
special elements.  ``reference.validate_ext_lah`` is the validator that
checked the circles after the scan, against a set of block starts; the one
scan that checks them as it goes must raise the same message for the same
structure.
"""

import re
from itertools import chain, combinations

import pytest
from hypothesis import given, settings, strategies as st

import reference
from qcomb.structures import (CyclePerm, ExtLahDist, LahDist, SetPartition,
                              StructureError, enum_lah, special_elements)


def ref_validate_partition(pi):
    seen = set()
    for b in pi.blocks:
        if not b:
            raise StructureError("empty block")
        if list(b) != sorted(b):
            raise StructureError(f"block {b} not increasing")
        seen.update(b)
    if seen != set(range(1, pi.n + 1)) or sum(map(len, pi.blocks)) != pi.n:
        raise StructureError("blocks do not partition the ground set")
    mins = [b[0] for b in pi.blocks]
    if mins != sorted(mins):
        raise StructureError("blocks not ordered by increasing minimum")


def ref_validate_cycles(pm):
    seen = set()
    for c in pm.cycles:
        if not c:
            raise StructureError("empty cycle")
        if c[0] != min(c):
            raise StructureError(f"cycle {c} does not start with its minimum")
        seen.update(c)
    if seen != set(range(1, pm.n + 1)) or sum(map(len, pm.cycles)) != pm.n:
        raise StructureError("cycles do not cover the ground set")
    mins = [c[0] for c in pm.cycles]
    if mins != sorted(mins):
        raise StructureError("cycles not ordered by increasing minimum")


def ref_validate_lah(delta):
    seen = set()
    for b in delta.blocks:
        if not b:
            raise StructureError("empty block")
        seen.update(b)
    if seen != set(range(1, delta.n + 1)) or sum(map(len, delta.blocks)) != delta.n:
        raise StructureError("blocks do not partition the ground set")
    mins = [min(b) for b in delta.blocks]
    if mins != sorted(mins):
        raise StructureError("blocks not ordered by increasing minimum")


def ref_special_elements(delta):
    if delta.n == 0:
        return frozenset()
    pos = {}
    blockmin = {}
    i = 0
    for b in delta.blocks:
        mn = min(b)
        for e in b:
            pos[e] = i
            blockmin[e] = mn
            i += 1
    out = {1}
    # running max of pos[1..e-1]; all of [e-1] lie left of e iff it is < pos[e]
    seen_max = pos[1]
    for e in range(2, delta.n + 1):
        if e != blockmin[e] and seen_max < pos[e]:
            out.add(e)
        seen_max = max(seen_max, pos[e])
    return frozenset(out)


def ref_validate_ext_lah(lam):
    ref_validate_lah(lam.base)
    special = ref_special_elements(lam.base)
    for e in lam.circled:
        if e not in special:
            raise StructureError(f"circled element {e} is not special")
    if 1 in lam.circled:
        for b in lam.base.blocks:
            if 1 in b and b[0] != 1:
                raise StructureError("circled 1 does not start its block")
    for e in lam.circled:
        if e >= 2:
            for b in lam.base.blocks:
                if b and b[0] == e:
                    raise StructureError(f"circled element {e} starts a block")


REFERENCE = {SetPartition: ref_validate_partition, CyclePerm: ref_validate_cycles,
             LahDist: ref_validate_lah, ExtLahDist: ref_validate_ext_lah}


def _accepts(validate, structure):
    try:
        validate(structure)
    except StructureError:
        return False
    return True


def _pick(draw, seq):
    return draw(st.integers(0, len(seq) - 1))


# each mutation edits the groups (lists) and the circled set in place
def _swap(draw, groups, circled, n):
    cells = [(i, p) for i, g in enumerate(groups) for p in range(len(g))]
    if len(cells) >= 2:
        (i, p), (j, q) = (cells[_pick(draw, cells)] for _ in range(2))
        groups[i][p], groups[j][q] = groups[j][q], groups[i][p]


def _drop(draw, groups, circled, n):
    full = [g for g in groups if g]
    if full:
        g = full[_pick(draw, full)]
        del g[_pick(draw, g)]


def _duplicate(draw, groups, circled, n):
    full = [g for g in groups if g]
    if full:
        g = full[_pick(draw, full)]
        g.insert(_pick(draw, g), g[_pick(draw, g)])


def _move(draw, groups, circled, n):
    full = [g for g in groups if g]
    if full and len(groups) >= 2:
        g = full[_pick(draw, full)]
        e = g.pop(_pick(draw, g))
        target = groups[_pick(draw, groups)]
        target.insert(draw(st.integers(0, len(target))), e)


def _reorder(draw, groups, circled, n):
    groups[:] = draw(st.permutations(groups))


def _toggle(draw, groups, circled, n):
    circled ^= {draw(st.integers(0, n + 1))}


def _empty(draw, groups, circled, n):
    if groups:
        groups[_pick(draw, groups)].clear()


MUTATIONS = (_swap, _drop, _duplicate, _move, _reorder, _toggle, _empty)


@st.composite
def structures_(draw, classes=tuple(REFERENCE)):
    """A valid structure of one of the families ``classes``, then up to
    three random mutations of it."""
    cls = draw(st.sampled_from(classes))
    n = draw(st.integers(0, 7))
    word = draw(st.permutations(range(1, n + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    groups = [list(word[a:b]) for a, b in zip([0] + cuts, cuts + [n])] if n else []
    if cls is SetPartition:
        groups = [sorted(g) for g in groups]
    elif cls is CyclePerm:
        groups = [g[g.index(min(g)):] + g[:g.index(min(g))] for g in groups]
    groups.sort(key=min)
    circled = set()
    if cls is ExtLahDist:
        special = ref_special_elements(LahDist(n, tuple(map(tuple, groups))))
        circled = draw(st.sets(st.sampled_from(sorted(special)))) if special else set()
        if groups and groups[0][0] != 1:
            circled.discard(1)
    for mutate in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        mutate(draw, groups, circled, n)
    groups = tuple(map(tuple, groups))
    if cls is ExtLahDist:
        return ExtLahDist(LahDist(n, groups), frozenset(circled))
    return cls(n, groups)


@settings(max_examples=800, deadline=None)
@given(structures_())
def test_validators_accept_and_reject_as_the_reference(structure):
    expected = _accepts(REFERENCE[type(structure)], structure)
    assert _accepts(type(structure).validate, structure) == expected
    if expected:
        assert structure.validate() is structure
    base = structure.base if isinstance(structure, ExtLahDist) else structure
    if isinstance(base, LahDist) and _accepts(ref_validate_lah, base):
        assert special_elements(base) == ref_special_elements(base)


def test_mutations_reach_both_outcomes():
    """The strategy yields valid and invalid structures of every family, so
    the comparison above is not one-sided."""
    outcomes = set()

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(structures_())
    def collect(structure):
        outcomes.add((type(structure),
                      _accepts(REFERENCE[type(structure)], structure)))

    collect()
    assert outcomes == {(cls, ok) for cls in REFERENCE for ok in (True, False)}


@pytest.mark.parametrize("n", [-1, -5])
@pytest.mark.parametrize("cls", [SetPartition, CyclePerm, LahDist, ExtLahDist])
def test_negative_size_is_rejected(cls, n):
    # no groups cover an empty ground set, but there is no ground set of
    # negative size
    structure = (ExtLahDist(LahDist(n, ()), frozenset()) if cls is ExtLahDist
                 else cls(n, ()))
    assert not _accepts(cls.validate, structure)
    assert not _accepts(REFERENCE[cls], structure)


def _message(validate, structure):
    """None if validate accepts the structure, else its error message."""
    try:
        validate(structure)
    except StructureError as exc:
        return str(exc)
    return None


@settings(max_examples=500, deadline=None)
@given(structures_((ExtLahDist,)))
def test_ext_lah_validate_raises_as_the_scan_with_block_starts(lam):
    expected = _message(reference.validate_ext_lah, lam)
    assert _message(ExtLahDist.validate, lam) == expected
    if _message(reference.scan_with_starts, lam.base) is None:
        assert special_elements(lam.base) == reference.scan_with_starts(lam.base)[0]


def test_ext_lah_mutations_reach_every_message():
    """The strategy above reaches each circling message and a structural
    one, so its message comparison is not one-sided."""
    messages = set()

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(structures_((ExtLahDist,)))
    def collect(lam):
        message = _message(reference.validate_ext_lah, lam)
        messages.add(message if message is None or "circled" in message
                     else "structural")

    collect()
    assert {None, "structural", "circled 1 does not start its block"} < messages
    assert any(m and m.endswith("is not special") for m in messages)


def test_every_circle_set_up_to_5_raises_as_the_scan_with_block_starts():
    """Every Lah distribution with n <= 5 under every subset of [n] circled:
    the same outcome as the reference, and a circled element other than 1
    never starts a block once it is special."""
    outcomes = {}
    for n in range(6):
        subsets = list(chain.from_iterable(
            combinations(range(1, n + 1), size) for size in range(n + 1)))
        for base in enum_lah(n, None):
            for subset in subsets:
                lam = ExtLahDist(base, frozenset(subset))
                expected = _message(reference.validate_ext_lah, lam)
                assert _message(ExtLahDist.validate, lam) == expected, lam
                kind = expected and re.sub(r"\d+", "e", expected)
                outcomes[kind] = outcomes.get(kind, 0) + 1
    assert outcomes == {None: 1799,
                        "circled e does not start its block": 5010,
                        "circled element e is not special": 10510}
