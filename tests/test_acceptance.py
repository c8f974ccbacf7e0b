"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single pass line with its runtime (visible under -s;
the -v test line carries the same verdict either way).
"""

import math
import time

from qcomb import classical
from qcomb.bijection import join_lah, split_lah
from qcomb.families import (bell_q, hsu_shiue, lah_q, stirling1_q,
                            stirling2_q, stirling_neg1)
from qcomb.identities import check, identity_names, oracle_diff
from qcomb.polyring import QPoly, poly_eval_int, q_binomial, q_integer
from qcomb.stats import ext_stats, weight
from qcomb.structures import enum_extended_lah


def _report(name: str, started: float, budget: float, detail: str = "") -> None:
    elapsed = time.time() - started
    suffix = f" ({detail})" if detail else ""
    print(f"PASS {name}: {elapsed:.1f}s of {budget:.0f}s budget{suffix}")
    assert elapsed < budget, f"{name} exceeded its runtime budget"


def test_criterion_1_oracle_equivalence():
    started = time.time()
    cells = 0
    for family, nmax in (("stirling2_q", 8), ("stirling1_q", 8), ("lah_q", 7)):
        for r in (0, 1, 2):
            for n in range(nmax + 1):
                assert oracle_diff(family, n, r) == []
                cells += n + 1
    _report("criterion-1 oracle equivalence", started, 60.0, f"{cells} cells")


def test_criterion_2_weighted_sum_interpretation():
    started = time.time()
    cells = 0
    for n in range(8):
        assert oracle_diff("hsu_shiue", n) == []
        cells += n + 1
    _report("criterion-2 weighted-sum interpretation", started, 120.0,
            f"{cells} cells")


def test_criterion_3_identity_suite_default_grids():
    started = time.time()
    required = ["I-SPIVEY", "I-MEZO-1", "I-MEZO-2", "I-PE1", "I-P1E1",
                "I-P1E2", "I-P2E1", "I-P2E2", "I-T3E1", "I-T3E2", "I-T4E1",
                "I-T4E2", "I-T4E3", "I-T4C1", "I-T5E1", "I-T5E2"]
    assert set(required) <= set(identity_names())
    # the registry invariant covers every entry, which subsumes the
    # required list
    failures = []
    for name in identity_names():
        report = check(name)
        if report.status != "pass":
            failures.append(report.to_json())
    assert not failures, failures
    _report("criterion-3 identity suite", started, 300.0,
            f"{len(identity_names())} identities")


def test_criterion_4_q_minus_one_closed_forms():
    started = time.time()
    for n in range(21):
        for k in range(n + 1):
            assert poly_eval_int(stirling2_q(n, k, 0), -1) == \
                stirling_neg1("plain", n, k)
            assert poly_eval_int(stirling2_q(n, k, 1), -1) == \
                stirling_neg1("r1", n, k)
    for name in ("I-BIN-1", "I-BIN-2", "I-BIN-3", "I-BIN-4"):
        report = check(name, {"m": (1, 10), "n": (1, 10)})
        assert report.status == "pass", report.to_json()
    for n in range(13):
        for k in range(n + 1):
            for r in range(5):
                variant = "plain" if r % 2 == 0 else "r1"
                assert poly_eval_int(stirling2_q(n, k, r), -1) == \
                    stirling_neg1(variant, n, k), (n, k, r)
    _report("criterion-4 q=-1 closed forms", started, 300.0)


def test_criterion_5_lah_closed_form_and_qbinomial():
    started = time.time()
    for n in range(1, 21):
        for k in range(1, n + 1):
            ratio = QPoly([1])
            for i in range(k + 1, n + 1):
                ratio = ratio * q_integer(i)
            closed = (ratio * q_binomial(n - 1, k - 1)).shift(k * (k - 1))
            assert closed == lah_q(n, k, 0), (n, k)
    report = check("I-QBIN", {"m": (0, 6), "n": (0, 6), "k": (0, 6)})
    assert report.status == "pass", report.to_json()
    _report("criterion-5 closed form and Gaussian binomial identity", started,
            300.0)


def test_criterion_6_connection_constants():
    # the Lah reduction point follows the sign convention of the defining
    # basis identity verified just above: alpha = +1, not -1 (the latter
    # yields the identity matrix, asserted as well to pin the convention)
    started = time.time()
    report = check("I-GENREC", {"n": (0, 8)})
    assert report.status == "pass", report.to_json()
    for n in range(11):
        for k in range(n + 1):
            s = hsu_shiue(n, k)
            assert s.substitute(alpha=0, beta=1, r=0).constant() == \
                classical.stirling2(n, k)
            assert s.substitute(alpha=1, beta=1, r=0).constant() == \
                classical.lah(n, k)
            assert s.substitute(alpha=-1, beta=1, r=0).constant() == \
                (1 if n == k else 0)
    _report("criterion-6 connection constants", started, 300.0)


def test_criterion_7_bijection_round_trip():
    started = time.time()
    structures = 0
    for total in range(2, 7):
        for m in range(1, total):
            n = total - m
            for lam in enum_extended_lah(total, None):
                parts = split_lah(lam, m, n)
                assert join_lah(parts.sigma, parts.sigma_labels, parts.tau,
                                m, n) == lam
                assert weight(parts.sigma) * weight(parts.tau) == weight(lam)
                s_st, t_st, l_st = (ext_stats(parts.sigma),
                                    ext_stats(parts.tau), ext_stats(lam))
                assert (s_st.nrec + t_st.nrec == l_st.nrec
                        and s_st.rec_star + t_st.rec_star == l_st.rec_star
                        and s_st.circ + t_st.circ == l_st.circ)
                assert parts.tau.true_block_count() == \
                    lam.true_block_count() - parts.j
                structures += 1
    _report("criterion-7 bijection round trip", started, 60.0,
            f"{structures} split/join pairs")


def test_criterion_8_classical_sanity():
    started = time.time()
    expected_bell = [1, 1, 2, 5, 15, 52, 203]
    for n, value in enumerate(expected_bell):
        assert classical.bell(n) == value
        assert poly_eval_int(bell_q(n, 0), 1) == value
    assert classical.stirling1(4, 2) == 11
    assert poly_eval_int(stirling1_q(4, 2, 0), 1) == 11
    assert classical.lah(3, 2) == 6
    assert poly_eval_int(lah_q(3, 2, 0), 1) == 6
    for n in range(8):
        count = sum(1 for _ in enum_extended_lah(n, 0))
        assert count == math.factorial(n) == classical.ext_lah_count(n, 0)
    _report("criterion-8 classical sanity values", started, 60.0)
