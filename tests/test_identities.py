import pytest

from qcomb import classical
from qcomb.identities import (REGISTRY, check, identity_names,
                              indicator_pair, serialize_value)
from qcomb.polyring import MPoly, QPoly, binom

EXPECTED_NAMES = [
    "I-SPIVEY", "I-MEZO-1", "I-MEZO-2", "I-PE1", "I-P1E1", "I-P1E2",
    "I-BIN-1", "I-BIN-2", "I-BIN-3", "I-BIN-4", "I-BIN-5", "I-BIN-6",
    "I-BIN-7", "I-BIN-8", "I-BIN-9", "I-LAH-CF", "I-LAH-R", "I-P2E1",
    "I-P2E2", "I-QBIN", "I-CQ-REC", "I-T3E1", "I-T3E2", "I-CQ-SUM",
    "I-CQ-SYM", "I-T4E1", "I-T4E2", "I-T4E3", "I-T4C1", "I-GENREC",
    "I-GENL1", "I-GENL1-REC", "I-T5E1", "I-T5E2",
]


class TestRegistry:
    def test_all_identities_registered(self):
        assert identity_names() == EXPECTED_NAMES

    def test_unknown_identity(self):
        with pytest.raises(KeyError):
            check("NO-SUCH")

    def test_unknown_override_parameter(self):
        with pytest.raises(ValueError):
            check("I-SPIVEY", {"k": (0, 1)})


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
        got_lhs, got_rhs = entry.evaluate({"m": 2, "n": 1})
        assert got_lhs == got_rhs == 5

    def test_genrec_single_layer(self):
        from qcomb.polyring import X
        entry = REGISTRY["I-GENREC"]
        lhs, rhs = entry.evaluate({"n": 1})
        assert lhs == rhs == X

    def test_genl1_small_cell(self):
        entry = REGISTRY["I-GENL1"]
        lhs, rhs = entry.evaluate({"n": 2, "k": 1})
        assert lhs == rhs
        assert lhs == MPoly({(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 2})


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

    def test_failure_serializes_counterexample(self):
        from qcomb.identities import IdentityDef, _cells_nk
        broken = IdentityDef(
            "I-BROKEN", "deliberately wrong", {"n": (0, 3)},
            _cells_nk, lambda cell: (QPoly([1]), QPoly([cell["n"]])))
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

    def test_skipped_on_empty_grid(self):
        r = check("I-BIN-6", {"n": (5, 4)})
        assert r.status == "skipped"
        assert r.cells_checked == 0


class TestSerializeValue:
    def test_tags(self):
        assert serialize_value(7) == {"type": "int", "value": "7"}
        assert serialize_value(QPoly([1, 2]))["type"] == "qpoly"
        assert serialize_value(MPoly.from_int(3))["type"] == "mpoly"


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
