"""The index-table split/join bijection against the code it replaced.

ref_relabel, ref_split_lah and ref_join_lah below are the earlier
dict-based split_lah and join_lah, kept verbatim as the reference.  On
every extended Lah distribution of size 2..6 and every split, the two give
equal parts and join back to the same structure; on malformed inputs both
raise the same exception type with the same message, or both succeed with
equal results.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from qcomb.bijection import SplitParts, join_lah, split_lah
from qcomb.structures import (ExtLahDist, LahDist, StructureError,
                              enum_extended_lah)



def ref_relabel(blocks: tuple[tuple[int, ...], ...], circled: frozenset[int],
                mapping: dict[int, int], n: int) -> ExtLahDist:
    base = LahDist(n, tuple(tuple(mapping[e] for e in b) for b in blocks))
    return ExtLahDist(base, frozenset(mapping[e] for e in circled))


def ref_split_lah(lam: ExtLahDist, m: int, n: int) -> SplitParts:
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
    sigma = ref_relabel(tuple(tuple(b) for b in sigma_blocks),
                     frozenset(e for e in lam.circled if e <= m),
                     sig_map, len(sigma_elems)).validate()
    tau_map = {e: t + 1 for t, e in enumerate(tau_elems)}
    tau = ref_relabel(tuple(tau_blocks),
                   frozenset(e for e in lam.circled if e in tau_map),
                   tau_map, i).validate()
    return SplitParts(i, j, sigma, tuple(sigma_elems), tau)


def ref_join_lah(sigma: ExtLahDist, sigma_labels: tuple[int, ...],
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


def _outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:                    # compared, never swallowed
        return type(exc), str(exc)


@pytest.mark.parametrize("total", range(2, 7))
def test_every_structure_and_split_matches_the_reference(total):
    count = 0
    for lam in enum_extended_lah(total, None):
        for m in range(1, total):
            n = total - m
            parts = split_lah(lam, m, n)
            assert parts == ref_split_lah(lam, m, n), (lam.text(), m)
            back = join_lah(parts.sigma, parts.sigma_labels, parts.tau, m, n)
            assert back == lam
            assert back == ref_join_lah(parts.sigma, parts.sigma_labels,
                                        parts.tau, m, n)
            count += 1
    assert count == {2: 7, 3: 68, 4: 627, 5: 6184, 6: 66635}[total]


BY_SIZE = {total: list(enum_extended_lah(total, None)) for total in range(6)}


@st.composite
def mutated_structures(draw, sizes=range(1, 6)):
    """A valid structure of one of the sizes, then at most three mutations
    of its blocks, its circled set or its size: elements moved, swapped,
    repeated, dropped or taken outside [n], blocks reversed, merged, split or
    emptied, and circles added or removed."""
    lam = draw(st.sampled_from([lam for n in sizes for lam in BY_SIZE[n]]))
    n = lam.n
    blocks = [list(b) for b in lam.base.blocks]
    circled = set(lam.circled)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(
            ("move", "swap", "value", "reverse", "merge", "split", "empty",
             "circle", "uncircle", "size")))
        b = draw(st.integers(0, len(blocks) - 1)) if blocks else None
        if kind == "size":
            n += draw(st.sampled_from((-1, 1)))
        elif kind == "circle":
            circled.add(draw(st.integers(0, max(n + 1, 0))))
        elif kind == "uncircle" and circled:
            circled.discard(draw(st.sampled_from(sorted(circled))))
        elif b is None or not blocks[b]:
            continue
        elif kind == "move":
            e = blocks[b].pop(draw(st.integers(0, len(blocks[b]) - 1)))
            c = draw(st.integers(0, len(blocks) - 1))
            blocks[c].insert(draw(st.integers(0, len(blocks[c]))), e)
        elif kind == "swap":
            c = draw(st.integers(0, len(blocks) - 1))
            if blocks[c]:
                p = draw(st.integers(0, len(blocks[b]) - 1))
                q = draw(st.integers(0, len(blocks[c]) - 1))
                blocks[b][p], blocks[c][q] = blocks[c][q], blocks[b][p]
        elif kind == "value":
            p = draw(st.integers(0, len(blocks[b]) - 1))
            blocks[b][p] = draw(st.integers(-1, n + 2))
        elif kind == "reverse":
            blocks[b].reverse()
        elif kind == "merge" and b + 1 < len(blocks):
            blocks[b:b + 2] = [blocks[b] + blocks[b + 1]]
        elif kind == "split" and len(blocks[b]) > 1:
            p = draw(st.integers(1, len(blocks[b]) - 1))
            blocks[b:b + 1] = [blocks[b][:p], blocks[b][p:]]
        elif kind == "empty":
            blocks.insert(b, [])
    return ExtLahDist(LahDist(n, tuple(map(tuple, blocks))), frozenset(circled))


@settings(max_examples=600, deadline=None)
@given(mutated_structures(), st.integers(-1, 6), st.sampled_from((0, 0, 0, -1, 1)),
       st.integers(0, 6))
@example(ExtLahDist(LahDist(3, ((2, 1), (3,))), frozenset({2})), 1, 0, 0)
@example(ExtLahDist(LahDist(3, ((1, 2, 3),)), frozenset()), 2, 1, 0)
@example(ExtLahDist(LahDist(4, ((1, 2, 3, 4),)), frozenset({3, 4})), 2, 0, 0)
def test_split_of_malformed_inputs_matches_the_reference(lam, m, off, size):
    # mostly n = lam.n - m; off != 0 or a size of 0 (an n drawn at random)
    # makes the sizes disagree
    n = lam.n - m + off if size else size - m
    got = _outcome(split_lah, lam, m, n)
    assert got == _outcome(ref_split_lah, lam, m, n)
    if isinstance(got, SplitParts):
        assert join_lah(got.sigma, got.sigma_labels, got.tau, m, n) == lam


@st.composite
def mutated_pairs(draw):
    """A split pair of a valid structure with its labels mutated: a label
    repeated, two swapped, one moved outside [m+n] or below an element of
    [m], labels dropped or added, or another increasing choice of labels
    that holds [m]; sometimes sigma or tau is swapped for a mutated structure
    of its size, or m or n for another number, and the labels come as a
    tuple or a list."""
    lam = draw(st.sampled_from(BY_SIZE[2] + BY_SIZE[3] + BY_SIZE[4] + BY_SIZE[5]))
    m = draw(st.integers(1, lam.n - 1))
    n = lam.n - m
    sigma, labels, tau = split_lah(lam, m, n)[2:]
    labels = list(labels)
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(
            ("repeat", "swap", "value", "shift", "drop", "add", "choice",
             "sigma", "tau", "m", "n")))
        p = draw(st.integers(0, len(labels) - 1)) if labels else None
        if kind == "sigma" and sigma.n in BY_SIZE:
            sigma = draw(mutated_structures(sizes=(sigma.n,)))
        elif kind == "tau" and tau.n in BY_SIZE:
            tau = draw(mutated_structures(sizes=(tau.n,)))
        elif kind == "choice" and m < len(labels) <= m + n:
            rest = draw(st.lists(st.integers(m + 1, m + n), unique=True,
                                 min_size=len(labels) - m,
                                 max_size=len(labels) - m))
            labels = list(range(1, m + 1)) + sorted(rest)
        elif kind == "m":
            m = draw(st.integers(0, 5))
        elif kind == "n":
            n = draw(st.integers(0, 5))
        elif kind == "add":
            labels.insert(draw(st.integers(0, len(labels))),
                          draw(st.integers(-1, m + n + 1)))
        elif p is None:
            continue
        elif kind == "repeat":
            labels.insert(p, labels[p])
            labels.pop(draw(st.integers(0, len(labels) - 1)))
        elif kind == "swap":
            q = draw(st.integers(0, len(labels) - 1))
            labels[p], labels[q] = labels[q], labels[p]
        elif kind == "value":
            labels[p] = draw(st.integers(-1, m + n + 2))
        elif kind == "shift":
            labels = [e + 1 for e in labels]
        elif kind == "drop":
            del labels[p]
    as_list = draw(st.booleans())
    return sigma, labels if as_list else tuple(labels), tau, m, n


@settings(max_examples=600, deadline=None)
@given(mutated_pairs())
@example((ExtLahDist(LahDist(2, ((1, 2),)), frozenset()), [1, 3],
          ExtLahDist(LahDist(1, ((1,),)), frozenset()), 1, 2))
@example((ExtLahDist(LahDist(2, ((1, 2),)), frozenset()), (3, 1),
          ExtLahDist(LahDist(1, ((1,),)), frozenset()), 1, 2))
@example((ExtLahDist(LahDist(2, ((1, 2),)), frozenset({2})), (1, 3),
          ExtLahDist(LahDist(1, ((1,),)), frozenset()), 1, 2))
@example((ExtLahDist(LahDist(2, ((1, 2),)), frozenset()), [2, 3],
          ExtLahDist(LahDist(1, ((1,),)), frozenset()), 1, 2))
def test_join_of_malformed_inputs_matches_the_reference(pair):
    assert _outcome(join_lah, *pair) == _outcome(ref_join_lah, *pair)


def test_labels_may_be_any_sequence():
    # a list or a range of labels joins like the tuple split_lah returns
    lam = ExtLahDist(LahDist(4, ((1, 3), (2, 4))), frozenset({4}))
    sigma, labels, tau = split_lah(lam, 2, 2)[2:]
    assert labels == (1, 2, 3)
    for seq in (list(labels), range(1, 4)):
        assert join_lah(sigma, seq, tau, 2, 2) == lam
        assert ref_join_lah(sigma, seq, tau, 2, 2) == lam


@pytest.mark.parametrize("labels, at_the_reference", [
    ((1, 2.0), StructureError),     # 2.0 reached the joined blocks
    ((1.0, 2.0), StructureError),
    ((1, "b"), TypeError),          # sorted() of an int and a str
    (("a", "b"), ValueError),       # {"a", "b"} is no subset of [m+n]
    ((1, None), TypeError),
])
def test_labels_that_are_not_integers(labels, at_the_reference):
    # every such label is refused by the label check now; the reference
    # raised one of three types, depending on the label
    sigma = ExtLahDist(LahDist(2, ((1, 2),)), frozenset())
    tau = ExtLahDist(LahDist(1, ((1,),)), frozenset())
    with pytest.raises(ValueError) as err:
        join_lah(sigma, labels, tau, 1, 2)
    assert type(err.value) is ValueError
    assert str(err.value) == "sigma_labels must increase strictly within [m+n]"
    with pytest.raises(at_the_reference) as ref_err:
        ref_join_lah(sigma, labels, tau, 1, 2)
    assert type(ref_err.value) is at_the_reference
