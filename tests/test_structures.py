import hashlib
import math
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from qcomb import classical, structures
from qcomb.oracles import ZERO, oracle, oracle_rows, oracle_table
from qcomb.structures import (CellCapError, CyclePerm, ExtLahDist, LahDist,
                              SetPartition, StructureError, effective_cap,
                              enum_cycle_perms, enum_extended_lah, enum_lah,
                              enum_partitions, set_default_cap,
                              special_elements)
import reference
from reference import (on_groups, opens_counted_group, r_distinct,
                       true_block_count)


class TestValidators:
    def test_set_partition(self):
        SetPartition(3, ((1, 3), (2,))).validate()
        with pytest.raises(StructureError):
            SetPartition(3, ((2,), (1, 3))).validate()  # minima out of order
        with pytest.raises(StructureError):
            SetPartition(3, ((1, 2),)).validate()  # misses 3
        with pytest.raises(StructureError):
            SetPartition(2, ((2, 1),)).validate()  # not increasing

    def test_cycle_perm(self):
        CyclePerm(3, ((1, 3), (2,))).validate()
        with pytest.raises(StructureError):
            CyclePerm(2, ((2, 1),)).validate()  # min not first

    def test_lah_dist(self):
        LahDist(3, ((3, 1), (2,))).validate()
        with pytest.raises(StructureError):
            LahDist(3, ((2,), (3, 1))).validate()

    def test_ext_lah(self):
        base = LahDist(2, ((1, 2),))
        ExtLahDist(base, frozenset({2})).validate()
        with pytest.raises(StructureError):
            # 2 starts its block, so it cannot be special
            ExtLahDist(LahDist(3, ((2, 1), (3,))), frozenset({2})).validate()
        with pytest.raises(StructureError):
            # circled 1 must start its block
            ExtLahDist(LahDist(2, ((2, 1),)), frozenset({1})).validate()

    @pytest.mark.parametrize("base", [
        LahDist(1, ((0, 1),)), LahDist(2, ((1, 2, 3),)), LahDist(2, ((1, -1, 2),)),
        LahDist(2, ((1, 2), (4,))), LahDist(2, ((1, 2, 0),))])
    def test_elements_outside_the_ground_set(self, base):
        # 1..n all present, plus an element outside [n]
        with pytest.raises(StructureError):
            base.validate()
        with pytest.raises(StructureError):
            ExtLahDist(base, frozenset()).validate()
        with pytest.raises(StructureError):
            special_elements(base)

    @pytest.mark.parametrize("groups", [
        ((1.0,),), (("a",),), ((1, "a"),), ((1, 2.0),), ((1,), (None,))])
    def test_elements_that_are_not_integers(self, groups):
        n = len([e for g in groups for e in g])
        for structure in (SetPartition(n, groups), CyclePerm(n, groups),
                          LahDist(n, groups), ExtLahDist(LahDist(n, groups),
                                                         frozenset())):
            with pytest.raises(StructureError):
                structure.validate()
        with pytest.raises(StructureError):
            special_elements(LahDist(n, groups))

    def test_text_forms(self):
        pi = SetPartition(3, ((1, 3), (2,)))
        assert pi.text() == "1,3/2"
        lam = ExtLahDist(
            LahDist(7, ((1, 3, 2), (4, 5, 7), (6,))), frozenset({1, 2, 5}))
        assert lam.text() == "(1),3,(2)/4,(5),7/6"


class TestSpecialElements:
    def test_single_natural_block(self):
        for n in range(1, 7):
            delta = LahDist(n, (tuple(range(1, n + 1)),))
            assert special_elements(delta) == frozenset(range(1, n + 1))

    def test_fifteen_element_example(self):
        delta = LahDist(15, ((1, 3, 2), (4, 5, 7), (13, 6, 8, 9),
                             (12, 11, 10, 14, 15)))
        assert special_elements(delta) == frozenset({1, 2, 5, 8, 9, 14, 15})

    def test_block_minimum_excluded(self):
        delta = LahDist(3, ((2, 1), (3,)))
        assert special_elements(delta) == frozenset({1})

    def test_empty(self):
        assert special_elements(LahDist(0, ())) == frozenset()


class TestCounts:
    def test_partitions_examples(self):
        assert sum(1 for _ in enum_partitions(3, 2, 0)) == 3
        members = list(enum_partitions(1, 1, 1))
        assert members == [SetPartition(2, ((1,), (2,)))]
        assert sum(1 for _ in enum_partitions(4, None, 0)) == 15

    def test_cycle_perm_examples(self):
        assert sum(1 for _ in enum_cycle_perms(3, 2, 0)) == 3
        assert sum(1 for _ in enum_cycle_perms(4, None, 0)) == 24
        assert sum(1 for _ in enum_cycle_perms(2, 1, 1)) == 3

    def test_lah_examples(self):
        assert sum(1 for _ in enum_lah(3, 2, 0)) == 6
        assert list(enum_lah(1, 1, 0)) == [LahDist(1, ((1,),))]
        texts = {d.text() for d in enum_lah(2, 1, 0)}
        assert texts == {"1,2", "2,1"}

    def test_extended_lah_examples(self):
        for n in range(8):
            assert sum(1 for _ in enum_extended_lah(n, 0)) == math.factorial(n)
        assert {lam.text() for lam in enum_extended_lah(2, 1)} == \
            {"1,2", "2,1", "1,(2)", "(1)/2"}
        assert list(enum_extended_lah(0, 0)) == [
            ExtLahDist(LahDist(0, ()), frozenset())]

    def test_counts_match_classical_triangles(self):
        for n in range(8):
            for k in range(n + 1):
                assert sum(1 for _ in enum_partitions(n, k, 0)) == \
                    classical.stirling2(n, k)
                assert sum(1 for _ in enum_cycle_perms(n, k, 0)) == \
                    classical.stirling1_r(n, k, 0)
                lah_count = sum(1 for _ in enum_lah(n, k, 0))
                assert lah_count == classical.lah(n, k)
                if k >= 1:
                    closed = math.comb(n - 1, k - 1) * math.factorial(n) \
                        // math.factorial(k)
                    assert lah_count == closed

    def test_impossible_cells_empty(self):
        assert list(enum_partitions(3, 5, 0)) == []
        assert list(enum_partitions(3, -1, 0)) == []
        assert list(enum_lah(2, 0, 0)) == []
        assert list(enum_cycle_perms(0, 0, 0)) == [CyclePerm(0, ())]


class TestRestrictedValidity:
    def test_every_member_valid_and_restricted(self):
        for n in range(7):
            for r in range(3):
                for k in range(n + 1):
                    for pi in enum_partitions(n, k, r):
                        pi.validate()
                        assert r_distinct(pi, r)
                        assert len(pi.blocks) == k + r
                    for pm in enum_cycle_perms(n, k, r):
                        pm.validate()
                        assert r_distinct(pm, r)
                    for d in enum_lah(n, k, r):
                        d.validate()
                        assert r_distinct(d, r)

    def test_restricted_counts_match_classical(self):
        for n in range(6):
            for r in range(3):
                for k in range(n + 1):
                    assert sum(1 for _ in enum_partitions(n, k, r)) == \
                        classical.stirling2_r(n, k, r)
                    assert sum(1 for _ in enum_cycle_perms(n, k, r)) == \
                        classical.stirling1_r(n, k, r)
                    assert sum(1 for _ in enum_lah(n, k, r)) == \
                        classical.lah_r(n, k, r)


class TestNoDuplicates:
    def test_streams_unique(self):
        for n in range(6):
            for r in range(3):
                for family in (enum_partitions, enum_cycle_perms, enum_lah):
                    seen = [s.text() for s in family(n, None, r)]
                    assert len(seen) == len(set(seen))
        for n in range(6):
            seen = [s.text() for s in enum_extended_lah(n, None)]
            assert len(seen) == len(set(seen))


def _filter_based_extended_lah(n):
    """Independent generator: every Lah distribution, every valid circling."""
    for kk in range(n + 1):
        for delta in enum_lah(n, kk, 0):
            spec = sorted(special_elements(delta))
            for size in range(len(spec) + 1):
                for chosen in combinations(spec, size):
                    circ = frozenset(chosen)
                    if 1 in circ:
                        block1 = next(b for b in delta.blocks if 1 in b)
                        if block1[0] != 1:
                            continue
                    yield ExtLahDist(delta, circ)


class TestExtendedLahAgainstFilterGenerator:
    def test_set_equality_by_true_block_count(self):
        for n in range(7):
            insertion = {}
            for lam in enum_extended_lah(n, None):
                insertion.setdefault(true_block_count(lam), set()).add(lam)
            filtered = {}
            for lam in _filter_based_extended_lah(n):
                lam.validate()
                filtered.setdefault(true_block_count(lam), set()).add(lam)
            assert insertion == filtered, f"n={n}"

    def test_counts_match_classical(self):
        for n in range(8):
            for k in range(n + 1):
                assert sum(1 for _ in enum_extended_lah(n, k)) == \
                    classical.ext_lah_count(n, k)


class TestCellCap:
    def test_cap_raises_with_estimate(self, cell_cap):
        cell_cap(100)
        with pytest.raises(CellCapError) as exc:
            list(enum_partitions(8, None, 0))
        assert exc.value.estimate == classical.bell(8)
        assert exc.value.cap == 100

    def test_env_and_override_precedence(self, monkeypatch):
        monkeypatch.setenv("QCOMB_MAX_ENUM", "123")
        assert effective_cap() == 123
        set_default_cap(50)
        try:
            assert effective_cap() == 50
        finally:
            set_default_cap(None)
        assert effective_cap() == 123

    def test_message_keeps_its_decimal_estimate(self):
        assert str(CellCapError(("partitions", 13, None, 0), 27644437,
                                10_000_000)) == (
            "enumeration cell ('partitions', 13, None, 0) holds 27644437 "
            "structures, above the cap 10000000")

    @pytest.mark.parametrize("e", [0, 1, 15, 300, 4299, 4300, 5000])
    def test_power_of_ten_below_an_estimate(self, e):
        # an estimate too long for str is given as 10^e with no conversion
        for x in {10 ** e - 1, 10 ** e, 10 ** e + 1} - {0}:
            got = structures._log10_floor(x)
            assert 10 ** got <= x < 10 ** (got + 1), (e, x)

    def test_under_cap_enumerates(self, cell_cap):
        cell_cap(15)
        assert sum(1 for _ in enum_partitions(4, None, 0)) == 15

    def test_cap_raised_before_any_structure(self, cell_cap):
        cell_cap(100)
        cells = [(enum_partitions(8, None, 0), ("partitions", 8, None, 0)),
                 (enum_cycle_perms(5, 2, 1), ("perms", 5, 2, 1)),
                 (enum_lah(5, None, 2), ("lah", 5, None, 2)),
                 (enum_extended_lah(5, 2), ("ext_lah", 5, 2, None))]
        for stream, cell in cells:
            with pytest.raises(CellCapError) as exc:
                next(stream)
            assert exc.value.cell == cell

    def test_deep_cell_enumerates(self):
        # one structure, 1500 elements deep in the insertion tree
        assert next(enum_partitions(1500, 1)) == SetPartition(
            1500, (tuple(range(1, 1501)),))

    def test_negative_arguments_rejected(self):
        for enum in (enum_partitions, enum_cycle_perms, enum_lah):
            with pytest.raises(ValueError):
                next(enum(-1, None, 0))
            with pytest.raises(ValueError):
                next(enum(2, None, -1))
        with pytest.raises(ValueError):
            next(enum_extended_lah(-1, None))

    def test_negative_cap_rejected_before_any_structure(self, monkeypatch,
                                                        cell_cap):
        monkeypatch.setenv("QCOMB_MAX_ENUM", "123")
        for bad in (-1, -3):
            with pytest.raises(ValueError, match="cap must be"):
                cell_cap(bad)
        assert effective_cap() == 123       # nothing was installed
        assert sum(1 for _ in enum_partitions(1, None)) == 1

    def test_bool_cap_rejected(self, monkeypatch, cell_cap):
        # a bool is an int to isinstance, but True is no cap
        monkeypatch.setenv("QCOMB_MAX_ENUM", "123")
        for bad in (True, False):
            with pytest.raises(ValueError, match="cap must be"):
                cell_cap(bad)
        assert effective_cap() == 123       # nothing was installed
        assert sum(1 for _ in enum_partitions(3, None)) == 5

    @pytest.mark.parametrize("value", ["-5", "abc", "1.5", ""])
    def test_bad_env_cap_names_the_variable(self, monkeypatch, value):
        monkeypatch.setenv("QCOMB_MAX_ENUM", value)
        with pytest.raises(ValueError, match="QCOMB_MAX_ENUM"):
            effective_cap()


def _stream_digest(cells):
    h = hashlib.sha256()
    for label, stream in cells:
        h.update(f"{label}:".encode())
        for s in stream:
            h.update(s.text().encode() + b"\n")
    return h.hexdigest()


class TestOutputOrder:
    """sha256 of the text() streams, pinned from the four separate
    recursions that the insertion tree replaced: same structures, same
    order."""

    PINNED = {
        "enum_partitions":
            "9a014588cf3fd52d88904f1e14f1f95b1d4178c492beee445c2c2dc0bc0c0153",
        "enum_cycle_perms":
            "9f04f339c04c4989c9ab51a635e32057dd6bfd357522c7c0b4fa490994a1acca",
        "enum_lah":
            "d907f0edf92dfe1d5372f66792fb91152103433e83c76101b6fe4837b6ef97d0",
        "enum_extended_lah":
            "805e3cd4be1497f2619e6ed8fdba4e2aac72c25326f572401115130bc825f310",
    }

    @pytest.mark.parametrize("enum", [enum_partitions, enum_cycle_perms, enum_lah])
    def test_restricted_families(self, enum):
        cells = [(f"{n},{r}", enum(n, None, r))
                 for r in range(3) for n in range(7 - r)]
        assert _stream_digest(cells) == self.PINNED[enum.__name__]

    def test_extended_lah(self):
        cells = [(f"{n}", enum_extended_lah(n, None)) for n in range(7)]
        assert _stream_digest(cells) == self.PINNED["enum_extended_lah"]


@pytest.mark.parametrize("family", ["partitions", "perms", "lah", "ext_lah"])
def test_every_slot_declares_whether_it_opens_a_counted_group(family):
    # each slot's opens against the rule the tree once derived from the slot,
    # on every structure of size up to 6
    for m in range(7):
        if family == "ext_lah":
            slots = on_groups(structures._ext_lah_slots(m + 2))
            shapes = [[[-e if e in lam.circled else e for e in b]
                       for b in lam.base.blocks]
                      for lam in enum_extended_lah(m, None)]
        else:
            slots = on_groups(structures._SLOTS[family])
            enum = {"partitions": enum_partitions, "perms": enum_cycle_perms,
                    "lah": enum_lah}[family]
            shapes = [list(map(list, s[1])) for s in enum(m, None)]
        for groups in shapes:
            for slot in slots(m + 1, groups):
                assert slot[4] == opens_counted_group(slot, groups), \
                    (family, groups, slot)


@pytest.mark.parametrize("family, enum", [("partitions", "enum_partitions"),
                                          ("perms", "enum_cycle_perms"),
                                          ("lah", "enum_lah")])
def test_restricted_levels_build_slots_linear_in_r(monkeypatch, family, enum):
    # each of 1..r opens its own group, so its level builds that one slot
    real = structures._SLOTS[family]
    built = []

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        built.append(len(out))
        return out

    monkeypatch.setitem(structures._SLOTS, family, spy)
    monkeypatch.setattr(structures, real.__name__, spy)

    def slots_built(r):
        built.clear()
        oracle_table(family, 1, r)
        list(getattr(structures, enum)(1, None, r))
        return sum(built)

    a, b, c = map(slots_built, (100, 200, 400))
    assert c - b == 2 * (b - a) > 0


def _policy(family: str, n: int):
    """The slot policy that the oracle of family walks the cell n with."""
    if family == "ext_lah":
        return structures._ext_lah_slots(n + 1)
    return structures._SLOTS[family]


def _node_stream(family: str, n: int, k: int | None, r: int) -> list[tuple]:
    """The shape walk's nodes as (depth, stat, key, children), after
    checking that each child's fold code packs its (inc, opens)."""
    width, out = n + 2, []
    for depth, base, _slot, children, codes in structures._walk(
            n, k, _policy(family, n), r):
        assert list(codes) == [s[3] * width + s[4] for s in children]
        out.append((depth, *divmod(base, width), list(children)))
    return out


def _label_stream(family: str, n: int, k: int | None, r: int) -> list[tuple]:
    prefix = [[j] for j in range(1, r + 1)]
    return [(depth, stat, key, list(children))
            for depth, stat, key, children in reference.insertion_tree(
                n, k, _policy(family, n), prefix)]


@st.composite
def _walks(draw):
    """A family and a cell (n, r) with n + r <= 7: n <= 7, r <= 3, and
    ext_lah at r = 0 only."""
    family = draw(st.sampled_from(["partitions", "perms", "lah", "ext_lah"]))
    r = 0 if family == "ext_lah" else draw(st.integers(0, 3))
    return family, draw(st.integers(1, 7 - r)), r


@settings(max_examples=40, deadline=None)
@given(_walks())
@example(("ext_lah", 7, 0))
@example(("lah", 4, 3))
def test_memo_leaves_the_node_stream_unchanged(walk):
    # the label walk is the reference: every node, in order, with its
    # statistic, its key and its children in slot order; the shape walk
    # gives it with every shape kept, with none (a bound of 0) and with the
    # table full partway
    family, n, r = walk
    for k in (None, *range(-1, n + 2)):
        want = _label_stream(family, n, k, r)
        for bound in (structures.MEMO_SLOTS, 0, 40):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(structures, "MEMO_SLOTS", bound)
                assert _node_stream(family, n, k, r) == want, (family, n, k, r)


@settings(max_examples=30, deadline=None)
@given(_walks())
@example(("ext_lah", 6, 0))
@example(("partitions", 4, 3))
def test_the_shape_walk_folds_and_enumerates_as_the_label_walk(walk):
    # oracle_rows, oracle_table and oracle against the fold of the label
    # walk, with every shape kept, none and some, and each enumerator's
    # leaves against the label walk's
    family, n, r = walk
    rows = reference.fold(family, n, r, None, 0)
    ones = [reference.fold(family, n, r, k, n)[0].get(k, ZERO[family])
            for k in range(n + 1)]
    for bound in (structures.MEMO_SLOTS, 0, 40):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(structures, "MEMO_SLOTS", bound)
            assert oracle_rows(family, n, r) == rows
            assert oracle_table(family, n, r) == rows[n]
            assert [oracle(family, n, k, r) for k in range(n + 1)] == ones
    policy = _policy(family, n)
    for k in (None, *range(-1, n + 2)):
        want = ([(list(map(tuple, g)), stat)
                 for g, stat in reference.leaves(n, k, r, policy)]
                if k is None or 0 <= k <= n else [])
        assert [(list(map(tuple, g)), stat) for g, stat in
                structures._leaves(family, n, k, r, policy)] == want, (n, k, r)


_LABELS = st.integers(-9, 9).filter(lambda e: e not in (0, -1))


@st.composite
def _same_shape(draw):
    """Two group lists of the same shape key with labels drawn apart: group
    lengths, and a circled 1 (label -1) at the front of group 0 in both or
    in neither; circled labels elsewhere are any negative label."""
    lengths = draw(st.lists(st.integers(1, 4), max_size=5))
    circled_one = bool(lengths) and draw(st.booleans())
    twins = []
    for _ in range(2):
        groups = [draw(st.lists(_LABELS, min_size=m, max_size=m))
                  for m in lengths]
        if circled_one:
            groups[0][0] = -1
        twins.append(groups)
    return twins


def _shape(groups: list[list[int]]) -> tuple:
    return (bool(groups) and groups[0][0] == -1, *map(len, groups))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["partitions", "perms", "lah", "ext_lah"]),
       _same_shape())
@example("ext_lah", [[[-1, 2], [3, -5, 4]], [[-1, -4], [5, 2, -3]]])
@example("ext_lah", [[[1, -2], [-3, 5, 4]], [[2, 3], [4, 5, 1]]])
def test_groups_of_one_shape_get_equal_slot_lists(family, twins):
    # the contract the shape walk rests on: the label walk's slots read the
    # lengths and the circled 1 only, and t is one more than the number of
    # labels; and each slot moves the shape as placing its label moves the
    # groups (a circled 1 occurs in extended Lah distributions only)
    a, b = twins
    t = 1 + sum(map(len, a))
    slots = on_groups(_policy(family, t))
    assert slots(t, a) == slots(t, b), (a, b)
    for slot in slots(t, a) if family == "ext_lah" or not _shape(a)[0] else ():
        i, pos, label = slot[:3]
        placed = [list(g) for g in a]
        if i == len(placed):
            placed.append([label])
        else:
            placed[i].insert(pos, label)
        assert structures._grow(_shape(a), slot) == _shape(placed), (a, slot)


def _spy_on_memos(monkeypatch) -> list:
    """Keep the shape table (``structures._Shapes``) of every walk."""
    tables = []

    class Spy(structures._Shapes):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(structures, "_Shapes", Spy)
    return tables


def test_a_large_r_walk_stores_no_more_than_the_bound(monkeypatch):
    # each of the 601 nodes of depth 1 has a shape of its own with about
    # 600 slots and 600 cells, far more than the bound; an unbounded table
    # kept them all
    policy = structures._SLOTS["partitions"]
    offered = []

    def spy(*args):
        out = policy(*args)
        offered.append(len(out))
        return out

    monkeypatch.setitem(structures._SLOTS, "partitions", spy)
    tables = _spy_on_memos(monkeypatch)
    oracle_table("partitions", 2, 600)
    [table] = tables
    stored = sum(len(shape) + len(slots or ())
                 for shape, slots, _codes, _kids in table.values())
    assert sum(offered) > structures.MEMO_SLOTS >= stored > 0


def test_a_large_r_walk_builds_no_shape_for_a_leaf(monkeypatch):
    # the leaves of the cell (2, 600) hold 602 elements: no policy call has
    # t = 603, and no shape of 602 elements is built, in the fold's walk or
    # in the enumerators'; and neither walk grows a shape more often than it
    # has nodes (a table that stopped keeping shapes grew each child twice)
    policy, grow = structures._SLOTS["partitions"], structures._grow
    ts, sizes = [], []

    def spy(t, *args):
        ts.append(t)
        return policy(t, *args)

    def spy_grow(*args):
        out = grow(*args)
        sizes.append(sum(out[1:]))
        return out

    monkeypatch.setitem(structures._SLOTS, "partitions", spy)
    monkeypatch.setattr(structures, "_grow", spy_grow)
    oracle_table("partitions", 2, 600)
    folded = len(sizes)
    nodes = sum(1 for _ in structures._walk(2, None, spy, 600))
    assert nodes == 1 + 601
    assert max(ts) == 602 and max(sizes) == 601
    assert folded <= nodes and len(sizes) - folded <= nodes, (folded, len(sizes))


@pytest.mark.parametrize("family", ["partitions", "perms", "lah", "ext_lah"])
def test_nothing_outlives_a_walk(monkeypatch, family):
    # two walks in a row build the same slot lists, fewer than their nodes
    policy = _policy(family, 6)
    built = []

    def spy(t, *args):
        built.append(t)
        return policy(t, *args)

    def walk():
        built.clear()
        nodes = sum(1 for _ in structures._walk(
            6, None, spy, 0 if family == "ext_lah" else 1))
        return len(built), nodes

    (first, nodes), (second, _) = walk(), walk()
    assert first == second < nodes
