import hashlib
import json

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
        from qcomb.identities import IdentityDef, _grid
        broken = IdentityDef(
            "I-BROKEN", "deliberately wrong", {"n": (0, 3)},
            lambda rng: _grid(rng, k="n"),
            lambda cell: (QPoly([1]), QPoly([cell["n"]])))
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
