import hashlib
import inspect
import json
import time
import tracemalloc
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from qcomb import classical, families, identities, oracles
from qcomb.identities import (REGISTRY, check, identity_names,
                              indicator_pair, serialize_value)
from qcomb.polyring import MPoly, QPoly, binom
import reference
from reference import one_plus_qints

EXPECTED_NAMES = [
    "I-SPIVEY", "I-MEZO-1", "I-MEZO-2", "I-PE1", "I-P1E1", "I-P1E2",
    "I-BIN-1", "I-BIN-2", "I-BIN-3", "I-BIN-4", "I-BIN-5", "I-BIN-6",
    "I-BIN-7", "I-BIN-8", "I-BIN-9", "I-LAH-CF", "I-LAH-R", "I-P2E1",
    "I-P2E2", "I-QBIN", "I-CQ-REC", "I-T3E1", "I-T3E2", "I-CQ-SUM",
    "I-CQ-SYM", "I-T4E1", "I-T4E2", "I-T4E3", "I-T4C1", "I-GENREC",
    "I-GENL1", "I-GENL1-REC", "I-T5E1", "I-T5E2",
]


@st.composite
def grid_requests(draw):
    """(ranges, _grid options): n and any of m and r in any declared order,
    spans that may be empty, and an m+n window, which may be inverted, when
    m is ranged."""
    bounds = st.tuples(st.integers(-1, 5), st.integers(-1, 5))
    names = [name for name in draw(st.permutations(["m", "n", "r"]))
             if name == "n" or draw(st.booleans())]
    ranges = {name: draw(bounds) for name in names}
    if "m" in ranges and draw(st.booleans()):
        ranges["m+n"] = draw(st.tuples(st.integers(-2, 11), st.integers(-2, 11)))
    ks = [None, "n"] + ["m+n"] * ("m" in ranges)
    return ranges, {"k": draw(st.sampled_from(ks)),
                    "k_min": draw(st.integers(0, 2)),
                    "n_min": draw(st.integers(0, 3)),
                    "routes": draw(st.sampled_from([(), ("a",), ("a", "b")]))}


class TestRegistry:
    def test_all_identities_registered(self):
        assert identity_names() == EXPECTED_NAMES

    def test_unknown_identity(self):
        with pytest.raises(ValueError, match="unknown identity"):
            check("NO-SUCH")

    def test_unknown_override_parameter(self):
        with pytest.raises(ValueError):
            check("I-SPIVEY", {"k": (0, 1)})


# sha256 of each identity's cell list on its default grid and on the grid
# with GRID_OVERRIDE applied to the parameters it has, computed from the cell
# generators that preceded the shared grid generator
GRID_OVERRIDE = {"m": (1, 4), "n": (0, 5), "m+n": (2, 6), "r": (1, 2),
                 "k": (2, 4)}
GRID_PINS = {
    "I-SPIVEY": "fcafdf55c4d535db5aeda627c4b082308b1e8212d40e9c5df351f6394c31cd69",
    "I-MEZO-1": "103b076e1103dac5236c79a198782b6ae4087c5f797ba79e73b4f2ac95e731f5",
    "I-MEZO-2": "103b076e1103dac5236c79a198782b6ae4087c5f797ba79e73b4f2ac95e731f5",
    "I-PE1": "faa7fe2aedeefa8c230c924837104672201bc862e2481d717267cc47fc2abaa8",
    "I-P1E1": "f6230a42c2c626ded8cd78092b830d442049f117ed9aa01491e2b556ed3d579c",
    "I-P1E2": "e79688bfdb59575eca44ea6e58ba0a4e7f09462ba2bc8b574a1a68ad23709812",
    "I-BIN-1": "c512e945589e9e7c85ff810fd11e84c20662eccdd3c18b959e0862578724232e",
    "I-BIN-2": "c512e945589e9e7c85ff810fd11e84c20662eccdd3c18b959e0862578724232e",
    "I-BIN-3": "c512e945589e9e7c85ff810fd11e84c20662eccdd3c18b959e0862578724232e",
    "I-BIN-4": "c512e945589e9e7c85ff810fd11e84c20662eccdd3c18b959e0862578724232e",
    "I-BIN-5": "8074a472f16bbea791e1b41a288652e83c76a988cb24302953a5ba2f9404e6ed",
    "I-BIN-6": "a0d74b808043ef9a6a035a74aafac32f80d86b0aa2887477bb59d29be0e4e238",
    "I-BIN-7": "8074a472f16bbea791e1b41a288652e83c76a988cb24302953a5ba2f9404e6ed",
    "I-BIN-8": "ef55e195aea71d65593adea6c306637aa889a23d97ff3469503fe80904cef1b3",
    "I-BIN-9": "a0d74b808043ef9a6a035a74aafac32f80d86b0aa2887477bb59d29be0e4e238",
    "I-LAH-CF": "14fa8d638c7b063318f16955709c5be6ed2d3d8dda26b1d5eb186f3fa28fc401",
    "I-LAH-R": "ea68eefbb0c24153d6d7858163018cca83854c0cec1ae44a16223950510ba242",
    "I-P2E1": "4f2c1cf657c046dee3ec2550b40fb2e1bf9b813cded23d4f4ffcc59181c22fb7",
    "I-P2E2": "a9fed06cb6917827fe25de8585ff125fe738851d41b859dec07591a469f08b9f",
    "I-QBIN": "a39164d98e69758952552c7d82814f59b7082c3113856d7a0a31f0c023e063c7",
    "I-CQ-REC": "b13f9507378721be4834d4a01fdfdc7c3dd4bba720414cf94f12492db0591e5b",
    "I-T3E1": "4f2c1cf657c046dee3ec2550b40fb2e1bf9b813cded23d4f4ffcc59181c22fb7",
    "I-T3E2": "3e0644edcc4d2c720cc7aec48a6a2e2ef0b6bd7df8bd5f29c66e9059b461c6fe",
    "I-CQ-SUM": "9dd0806a595b9c3bfa8ac618940ed59f70818bc7d80bb09143508d761dce6975",
    "I-CQ-SYM": "1b7e0740ecdbb5055a8638a10d41755f9966d79dcb49fd2a05daec71b3e64ca9",
    "I-T4E1": "5246c7ad479e775931e5a7b9e59ebb7034bca33a95a38abfb36836c2e85db72a",
    "I-T4E2": "5246c7ad479e775931e5a7b9e59ebb7034bca33a95a38abfb36836c2e85db72a",
    "I-T4E3": "5246c7ad479e775931e5a7b9e59ebb7034bca33a95a38abfb36836c2e85db72a",
    "I-T4C1": "3e0644edcc4d2c720cc7aec48a6a2e2ef0b6bd7df8bd5f29c66e9059b461c6fe",
    "I-GENREC": "ec8991baaafc2c8c123592a9376291a3bd9140088656cab87ac5e0747acb429e",
    "I-GENL1": "750ac8e77c0f19a83f7d831f94460f2cb21313465539552a563c7877a9ec1851",
    "I-GENL1-REC": "417b46bca0e9c0572876f1fdb8ffe83ad943e114edcedf48d5ad01c9540ba35a",
    "I-T5E1": "b61ccf80eae9674645bf5a5f1a19541bc544e64d6ad8852ff800b3d81233e2bf",
    "I-T5E2": "e8e512fd652a77d17d19d42ed4148654de0008e1bdb73b5b5e83220780beb1e3",
}


@pytest.mark.parametrize("name", EXPECTED_NAMES)
def test_cell_sequence_pinned(name):
    entry = REGISTRY[name]
    override = {p: GRID_OVERRIDE[p] for p in entry.defaults}
    cells = [[sorted(cell.items()) for cell in entry.cells(grid)]
             for grid in (dict(entry.defaults), {**entry.defaults, **override})]
    digest = hashlib.sha256(json.dumps(cells).encode()).hexdigest()
    assert digest == GRID_PINS[name]


@pytest.mark.parametrize("name", EXPECTED_NAMES)
def test_body_parameters_are_the_cell_keys(name):
    # check spreads each cell into evaluate and diagnose by name
    entry = REGISTRY[name]
    keys = list(next(iter(entry.cells(dict(entry.defaults)))))
    for fn in (entry.evaluate, entry.diagnose):
        if fn is not None:
            assert list(inspect.signature(fn).parameters) == keys


class TestIndicatorPair:
    def test_examples(self):
        assert indicator_pair(2, 3, 5) == (1, 0)   # j odd, i != n
        assert indicator_pair(5, 2, 5) == (1, 1)   # j even, i = n
        assert indicator_pair(5, 3, 5) == (1, 1)   # j odd, i = n
        assert indicator_pair(2, 4, 5) == (0, 1)   # j even, i != n


class TestSpotValues:
    def test_spivey_small_cell(self):
        # both sides equal the third Bell number at (m, n) = (2, 1)
        lhs = classical.bell(3)
        rhs = sum(j ** (1 - i) * binom(1, i) * classical.stirling2(2, j)
                  * classical.bell(i) for i in range(2) for j in range(3))
        assert lhs == rhs == 5
        entry = REGISTRY["I-SPIVEY"]
        got_lhs, got_rhs = entry.evaluate(m=2, n=1)
        assert got_lhs == got_rhs == 5

    def test_genrec_single_layer(self):
        from qcomb.polyring import X
        entry = REGISTRY["I-GENREC"]
        lhs, rhs = entry.evaluate(n=1)
        assert lhs == rhs == X

    def test_genl1_small_cell(self):
        entry = REGISTRY["I-GENL1"]
        lhs, rhs = entry.evaluate(n=2, k=1)
        assert lhs == rhs
        assert lhs == MPoly({(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 2})


@settings(deadline=None)
@given(st.integers(0, 12), st.integers(0, 10))
@example(0, 0)
@example(0, 6)
@example(5, 0)
def test_one_plus_qints_is_schoolbook_product(lo, count):
    assert (identities._one_plus_qints(lo, count).coeffs
            == one_plus_qints(lo, count).coeffs)


class TestCheckDriver:
    def test_pass_report(self):
        r = check("I-SPIVEY", {"m": (0, 4), "n": (0, 4)})
        assert r.status == "pass"
        assert r.counterexample is None
        assert r.grid["m"] == "0..4"
        assert r.cells_checked > 0

    def test_deterministic_reports(self):
        a = check("I-CQ-SUM", {"n": (0, 4), "r": (0, 1)})
        b = check("I-CQ-SUM", {"n": (0, 4), "r": (0, 1)})
        assert a.to_json() == b.to_json()

    def test_reports_keep_their_repr_equality_and_immutability(self):
        a = check("I-CQ-SUM", {"n": (0, 2), "r": (0, 0)})
        assert repr(a) == (
            "IdentityReport(identity='I-CQ-SUM', grid={'n': '0..2', "
            "'r': '0..0'}, cells_checked=3, status='pass', "
            "counterexample=None, notes=())")
        assert a == check("I-CQ-SUM", {"n": (0, 2), "r": (0, 0)})
        assert a != a._replace(cells_checked=2)
        with pytest.raises(AttributeError):
            a.status = "fail"

    def test_failure_serializes_counterexample(self):
        from qcomb.identities import IdentityDef, _grid
        broken = IdentityDef(
            "I-BROKEN", "deliberately wrong", {"n": (0, 3)},
            lambda rng: _grid(rng, k="n"),
            lambda n, k: (QPoly([1]), QPoly([n])))
        REGISTRY["I-BROKEN"] = broken
        try:
            r = check("I-BROKEN")
            assert r.status == "fail"
            assert r.counterexample["params"] == {"k": 0, "n": 0}
            assert r.counterexample["lhs"] == {"type": "qpoly", "coeffs": ["1"]}
            assert r.counterexample["rhs"] == {"type": "qpoly", "coeffs": []}
            assert r.cells_checked == 1
        finally:
            del REGISTRY["I-BROKEN"]

    def test_explicit_window_still_clips(self):
        r = check("I-SPIVEY", {"m": (11, 12), "n": (0, 2), "m+n": (0, 10)})
        assert r.status == "skipped"
        assert r.grid["m+n"] == "0..10"

    def test_stat_mismatch_names_the_structure(self, monkeypatch):
        from qcomb.structures import enum_extended_lah_tracked
        # fail at (n, k) = (2, 1) only, with statistics that never agree
        entry = REGISTRY["I-GENL1"]._replace(
            evaluate=lambda n, k: (k == 1, False))
        monkeypatch.setitem(REGISTRY, "I-GENL1", entry)
        monkeypatch.setattr(identities, "ext_stats", lambda lam: ())
        r = check("I-GENL1", {"n": (2, 2)})
        first, _ = next(enum_extended_lah_tracked(2, 1))
        assert r.status == "fail"
        assert r.counterexample["params"] == {"k": 1, "n": 2}
        assert r.counterexample["stat_mismatch_structure"] == first.text()

    def test_streams_its_grid(self, monkeypatch):
        # the first cell fails, so check must not ask its grid for more
        def cells(ranges):
            yield {"n": 0}
            raise AssertionError("the grid was read past its first cell")

        monkeypatch.setitem(REGISTRY, "I-STREAM", identities.IdentityDef(
            "I-STREAM", "fails at its first cell", {"n": (0, 1)}, cells,
            lambda n: (0, 1)))
        r = check("I-STREAM")
        assert (r.status, r.cells_checked) == ("fail", 1)
        assert r.counterexample["params"] == {"n": 0}

    def test_grid_reads_its_ranges_lazily(self):
        # itertools.product copied each range first: 382 MB at 10**7 wide
        tracemalloc.start()
        try:
            cells = identities._grid({"m": (0, 10**9), "n": (0, 0)})
            assert next(cells) == {"m": 0, "n": 0}
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(-1, 3)),
                    max_size=4))
    def test_lazy_product_keeps_the_order_of_product(self, bounds):
        spans = [range(lo, hi + 1) for lo, hi in bounds]
        assert list(identities._lazy_product(spans)) == list(product(*spans))

    def test_window_clips_the_spans_before_the_walk(self, monkeypatch):
        # the walk passed every cell of m = 0..10**6 first: 3.5 s for 30 cells
        walked = []
        real = identities._lazy_product
        monkeypatch.setattr(identities, "_lazy_product",
                            lambda spans: (walked.append(v) or v
                                           for v in real(spans)))
        start = time.perf_counter()
        r = check("I-SPIVEY", {"m": (0, 10**6), "n": (0, 2), "m+n": (0, 10)})
        assert time.perf_counter() - start < 1.0
        assert (r.status, r.cells_checked) == ("pass", 30)
        # _lazy_product calls itself for the outer spans: keep its full cells
        cells = [values for values in walked if len(values) == 2]
        assert cells == list(product(range(11), range(3)))

    @given(grid_requests())
    @example(({"m": (0, 5), "n": (0, 2), "m+n": (3, 4)},
              {"k": "m+n", "k_min": 1, "n_min": 1, "routes": ("a", "b")}))
    @example(({"r": (0, 1), "n": (0, 3), "m": (0, 4), "m+n": (9, 2)},
              {"k": None, "k_min": 0, "n_min": 0, "routes": ()}))
    def test_clipped_grid_is_the_filtered_product(self, request):
        ranges, options = request
        assert (list(identities._grid(ranges, **options))
                == list(reference.grid(ranges, **options)))

    def test_skipped_on_empty_grid(self):
        r = check("I-BIN-6", {"n": (5, 4)})
        assert r.status == "skipped"
        assert r.cells_checked == 0

    def test_planted_engine_fault_without_stat_mismatch(self, monkeypatch):
        # the tracked statistics agree, so the diagnosis adds no field
        real = families.hsu_shiue
        monkeypatch.setattr(families, "hsu_shiue", lambda n, k: (
            real(n, k) + 1 if (n, k) == (3, 2) else real(n, k)))
        r = check("I-GENL1")
        assert r.status == "fail"
        assert r.counterexample["params"] == {"k": 2, "n": 3}
        assert sorted(r.counterexample) == ["lhs", "params", "rhs"]


@pytest.mark.parametrize("kernel, name", [
    ("_stirling2_q_base", "I-T4E1"), ("_lah_q_base", "I-T4E2"),
    ("_stirling1_q_base", "I-T4E3")])
def test_restricted_kernel_fault_fails_at_r_0(kernel, name):
    """A one-coefficient fault in the r = 1 triangle at (n, k) = (2, 1) is
    caught first at the r = 0 cell that compares it with the shift sum over
    the r = 0 triangle; while the engines computed r > 0 by that shift sum,
    the cell restated the engine and could not fail."""
    kernel = getattr(families, kernel)
    families.clear_caches()
    try:
        value = kernel(2, 1, 1)
        kernel.columns[1][1][2] = QPoly((value.coeffs[0] + 1,) + value.coeffs[1:])
        report = check(name)
    finally:
        families.clear_caches()
    assert report.status == "fail"
    assert report.counterexample["params"] == {"k": 1, "m": 1, "n": 2, "r": 0}


def reference_oracle_diff(family, ns, rs, k_range):
    """oracle_diff's mismatches, cell by cell: one oracles.oracle per
    (n, r, k) and one engine call per compared cell, with no shared walk."""
    oracle_family = oracles.ORACLE_FOR_ENGINE[family]
    names, fn = families.PARAMS[family], families.engine(family)
    out = []
    for n in ns:
        for r in rs:
            lo, hi = k_range if k_range and "k" in names else (0, n)
            got = {k: oracles.oracle(oracle_family, n, k, r)
                   for k in range(lo, min(hi, n) + 1)}
            if "k" in names:
                cells = [({"n": n, "k": k, "r": r}, got[k]) for k in got]
            else:
                cells = [({"n": n, "r": r}, sum(got.values(), oracles.ZERO[
                    oracle_family]))]
            for params, value in cells:
                want = fn(n, *(params[name] for name in names))
                if want != value:
                    out.append({"params": params, "engine": serialize_value(want),
                                "oracle": serialize_value(value)})
    return out


class TestOracleDiff:
    # whole cells and per-k cells, mixed as a partial k range mixes them
    @pytest.mark.parametrize("family, ns, rs, k_range", [
        ("stirling2_q", range(6), range(3), None),
        ("stirling2_q", range(6), range(3), (0, 1)),
        ("lah_q", range(6), range(3), (0, 9)),
        ("stirling1_q", range(1, 6), range(3), (2, 3)),
        ("stirling2_q", range(5), range(3), (5, 7)),
        ("bell_q", range(6), range(3), None),
        ("hsu_shiue", range(6), (0,), None),
    ], ids=["all-k", "k0..1", "k0..9", "k2..3", "k5..7-empty", "bell_q",
            "ext_lah"])
    def test_matches_a_per_cell_reference_with_a_fault(self, monkeypatch,
                                                       family, ns, rs, k_range):
        real = getattr(families, family)
        # doubled where the arguments sum to an odd number: some cells of
        # every n fail, the others match
        monkeypatch.setattr(families, family, lambda *a: (
            real(*a) + real(*a) if sum(a) % 2 else real(*a)))
        want = reference_oracle_diff(family, ns, rs, k_range)
        assert (want == []) == (k_range == (5, 7))
        assert identities.oracle_diff(family, ns, rs, k_range) == want

    @pytest.mark.parametrize("planted", [False, True])
    def test_bell_q_ignores_k_range(self, monkeypatch, planted):
        # bell_q has no k: its one cell is the sum over every k
        if planted:
            real = families.bell_q
            monkeypatch.setattr(families, "bell_q",
                                lambda n, r=0: real(n, r) * 2)
        diff = identities.oracle_diff("bell_q", [3], [1])
        assert diff == identities.oracle_diff("bell_q", [3], [1], k_range=(1, 1))
        assert [m["params"] for m in diff] == ([{"n": 3, "r": 1}] if planted
                                               else [])


class TestSerializeValue:
    def test_tags(self):
        assert serialize_value(7) == {"type": "int", "value": "7"}
        assert serialize_value(QPoly([1, 2]))["type"] == "qpoly"
        assert serialize_value(MPoly.from_int(3))["type"] == "mpoly"


# sha256 of each identity's report JSON on the reduced grid together with
# every cell and both serialized sides, computed before the registry was
# rewritten as shared bodies and tables
REDUCED_PINS = {
    "I-SPIVEY": "7bde066c4040aa6611cbdda11a84339ec810f97dfb37836c8f35b8861bc944bd",
    "I-MEZO-1": "a01b6bf886e3bdc75de319151b272ee8b2f788808f458c62763b0147898d5ac4",
    "I-MEZO-2": "82f1e09062898452be4798e008c2595e1382dc6cd9042cfdc53c66788594b2b2",
    "I-PE1": "2e9f9a059c095ce038063f32c5c7be36c05255cfa8e8a6b5c26f5500ddea8a86",
    "I-P1E1": "cb963984839d9d873a49fee57fd0e1a11d4216deb35df1dff5125b932a1393fb",
    "I-P1E2": "4487558fb845155e86a3e903dcf4ae9e1de97b5d64798b71523655b87a078015",
    "I-BIN-1": "586d0d793eb26abe483259f302f272c8b072a4ad8f2f887ae3ff4e56fe5188bb",
    "I-BIN-2": "5dbafd6642fa19841524a2bdb27e3900c0f4f7488653883b8b32b079321de4f7",
    "I-BIN-3": "d31d9664a451abc5934fe36b5c719a42719b0986122865fe129fae4b167358ad",
    "I-BIN-4": "90c54459921200ad177b7292a35a4a9c8bb69dac08a9909cc3011849e32baa3a",
    "I-BIN-5": "b8b894b2146656a32cd1bbd2d486754287d3177a2725214cb81200c544c28ce5",
    "I-BIN-6": "2577600fe1d526eda5e9d209b0c5599d622b14483b7f7695c2460afa35caadde",
    "I-BIN-7": "69ae8d9e1621ee65cdd439065f1e8bdacd70f7bbce52665e7874b6cfb146ccc3",
    "I-BIN-8": "72d72f670edb935f079f921ac0100c2ca491cadee3dfa5513f118ab6ddb862b3",
    "I-BIN-9": "0d1c3c950e4652a77015235707e7b7e90c5235f8f58695694e3acaa99df3d889",
    "I-LAH-CF": "715e2c76186eab523481ae166cca6f05401f08c93839ed3572c1c6e36a3d33b4",
    "I-LAH-R": "e807d9e0d6cc7a9e523e95eadea72936101f0cc0e5119e26dcc73afe9f6f3125",
    "I-P2E1": "2b8be7326b294748383d127ffb2283fd86eb983fcdc788ad1aeed139306c6ca8",
    "I-P2E2": "867cd1281bc4084488d0e4d7bc6bb80bf681e31caf323ff5eaf5d628cc9db94c",
    "I-QBIN": "a78a837b438103dcde4b0764dcb7013ea377aa53b3c28517c087499d29415950",
    "I-CQ-REC": "838742f9d02dcb100cc1fe35ddb123a469246b40a56bd699109cc380794e7d05",
    "I-T3E1": "661f4bd959e600c4e19e309031dcec1f4bef8dccf9d092064a16a0a82110f788",
    "I-T3E2": "7ddbcbdff83bec06b27df815f526d157f55bed6eb77ba7f398edefabb35e14cf",
    "I-CQ-SUM": "5d38f7fd4f53440b1b503855655b14a87d1f8815a27df3d491576ac286133b74",
    "I-CQ-SYM": "c287ad0c9d206466a7011a9148cee8e8fe426cbcb10f3c2039910b89fc22d3ec",
    "I-T4E1": "ff4e0d2c308d967acb5bc12ca884055c7c35680ba862704b2389344f7b729964",
    "I-T4E2": "3c8df0bee1a7d59ce2123965fad696214c1e573db1d182993f94d65b46fcbe88",
    "I-T4E3": "cf79bfbac81ea27b86a5d806c1963dd05e6dbc060200ae72375901c48a9bfe6e",
    "I-T4C1": "be88210c801882f8ef4d7a4d94baf87294d902a18003dc6a0057309b3200ed5b",
    "I-GENREC": "d2c9f8bd2e4581afd2eaf7f0ec673160dfe767f8441ca402edbf3fb9a8456d77",
    "I-GENL1": "c3306f996fa5175a6aae7e31c7e9cd535b1387a8cdbc35d96b7ca75ec5758f5f",
    "I-GENL1-REC": "95a85ef463b9b96d520c3709b2a12faf773e2e7a50b274c5a5bb06654f6f8283",
    "I-T5E1": "45e29211d9f3a38a2b546460e56d7e7540e6716186416f9585273a4fd52c886e",
    "I-T5E2": "b6a4b14591387d33fe479864bfdcd9cdf0ce1e7d0da5a9161751a18ce09ea8a0",
}


class TestQuickSuite:
    """Small-grid run of every identity; the acceptance suite runs the
    default grids."""

    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_identity_passes_on_reduced_grid(self, name):
        entry = REGISTRY[name]
        overrides = {}
        for param, (lo, hi) in entry.defaults.items():
            overrides[param] = (lo, min(hi, lo + 3))
        r = check(name, overrides)
        assert r.status == "pass", r.to_json()
        cells = [[sorted(cell.items()), serialize_value(lhs),
                  serialize_value(rhs)]
                 for cell in entry.cells({**entry.defaults, **overrides})
                 for lhs, rhs in [entry.evaluate(**cell)]]
        blob = json.dumps([r.to_json(), cells]).encode()
        assert hashlib.sha256(blob).hexdigest() == REDUCED_PINS[name]
