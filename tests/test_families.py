import pytest

from qcomb import classical, families
from qcomb.families import (FAMILIES, bell_q, gen_bell, hsu_shiue, lah_q,
                            lah_q_closed_form, stirling1_q, stirling2_q,
                            stirling_neg1, table_rows)
from qcomb.polyring import M_ZERO, MPoly, Q_ONE, Q_ZERO, QPoly, q_binomial
from reference import evaluate


class TestStirling2Q:
    def test_diagonal(self):
        for n in range(8):
            assert stirling2_q(n, n) == Q_ONE.shift(n * (n - 1) // 2)
        assert stirling2_q(2, 2) == QPoly([0, 1])

    def test_small_values(self):
        assert stirling2_q(3, 2) == QPoly([0, 2, 1])
        assert stirling2_q(1, 1, 1) == QPoly([0, 1])
        assert stirling2_q(5, 7) == Q_ZERO
        assert stirling2_q(5, -1) == Q_ZERO

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            stirling2_q(-1, 0)
        with pytest.raises(ValueError):
            stirling2_q(2, 1, -1)

    def test_classical_at_one(self):
        for n in range(13):
            for k in range(n + 1):
                assert stirling2_q(n, k).eval_int(1) == \
                    classical.stirling2(n, k)

    def test_restricted_classical_at_one(self):
        for n in range(9):
            for k in range(n + 1):
                for r in range(3):
                    assert stirling2_q(n, k, r).eval_int(1) == \
                        classical.stirling2_r(n, k, r)


class TestBellQ:
    def test_examples(self):
        assert bell_q(0, 0) == Q_ONE
        assert bell_q(4, 0).eval_int(1) == 15
        assert bell_q(1, 1) == QPoly([1, 1])

    def test_classical_bell_numbers(self):
        for n in range(13):
            assert bell_q(n).eval_int(1) == classical.bell(n)


class TestLahQ:
    def test_examples(self):
        assert lah_q(2, 1) == QPoly([1, 1])
        assert lah_q(3, 2) == QPoly([0, 0, 1, 2, 2, 1])
        for n in range(7):
            assert lah_q(n, n) == Q_ONE.shift(n * (n - 1))

    def test_classical_at_one(self):
        for n in range(13):
            for k in range(n + 1):
                assert lah_q(n, k).eval_int(1) == classical.lah(n, k)

    def test_restricted_classical_at_one(self):
        for n in range(8):
            for k in range(n + 1):
                for r in range(3):
                    assert lah_q(n, k, r).eval_int(1) == \
                        classical.lah_r(n, k, r)

    def test_closed_form_is_zero_above_the_diagonal(self):
        # the ratio is a q-rising factorial of length n - k, which cannot
        # be negative; the closed form is zero there, as lah_q is
        for n in range(7):
            for k in range(n + 1, n + 4):
                assert lah_q_closed_form(n, k) == lah_q(n, k) == Q_ZERO
        for n in range(1, 9):
            for k in range(1, n + 1):
                assert lah_q_closed_form(n, k) == lah_q(n, k)


class TestStirling1Q:
    def test_examples(self):
        assert stirling1_q(3, 2) == QPoly([2, 1])
        for n in range(7):
            assert stirling1_q(n, n) == Q_ONE
        assert stirling1_q(4, 2).eval_int(1) == 11

    def test_classical_at_one(self):
        for n in range(13):
            for k in range(n + 1):
                assert stirling1_q(n, k).eval_int(1) == \
                    classical.stirling1_r(n, k, 0)

    def test_restricted_classical_at_one(self):
        for n in range(8):
            for k in range(n + 1):
                for r in range(3):
                    assert stirling1_q(n, k, r).eval_int(1) == \
                        classical.stirling1_r(n, k, r)


class TestStirlingNeg1:
    def test_diagonal(self):
        for n in range(9):
            assert stirling_neg1("plain", n, n) == (-1) ** (n * (n - 1) // 2)

    def test_out_of_range(self):
        assert stirling_neg1("plain", 2, 5) == 0
        assert stirling_neg1("r1", 1, -1) == 0
        with pytest.raises(ValueError):
            stirling_neg1("r2", 1, 1)

    def test_matches_engine_evaluations(self):
        for n in range(13):
            for k in range(n + 1):
                assert stirling_neg1("plain", n, k) == \
                    stirling2_q(n, k, 0).eval_int(-1)
                assert stirling_neg1("r1", n, k) == \
                    stirling2_q(n, k, 1).eval_int(-1)


class TestHsuShiue:
    def test_examples(self):
        for n in range(7):
            assert hsu_shiue(n, n) == MPoly.from_int(1)
        assert hsu_shiue(2, 1) == MPoly(
            {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 2})
        assert hsu_shiue(3, 5) == MPoly()

    def test_specializations(self):
        # with the sign convention of the defining factorial-basis identity
        # (rising steps of alpha on the left), the second-kind Stirling
        # triangle sits at (0, 1, 0) and the Lah triangle at (1, 1, 0); the
        # point (-1, 1, 0), the Lah reduction under the opposite-sign
        # convention, yields the identity matrix here
        for n in range(11):
            for k in range(n + 1):
                s = hsu_shiue(n, k)
                assert all(e[3] == 0 for e in s.terms)      # free of x
                assert evaluate(s, 0, 1, 0, 0) == classical.stirling2(n, k)
                assert evaluate(s, 1, 1, 0, 0) == classical.lah(n, k)
                assert evaluate(s, -1, 1, 0, 0) == (1 if n == k else 0)
        assert evaluate(hsu_shiue(3, 2), 1, 1, 0, 0) == 6

    def test_nonnegative_coefficients(self):
        for n in range(9):
            for k in range(n + 1):
                assert all(c > 0 for c in hsu_shiue(n, k).terms.values())


class TestGenBell:
    def test_examples(self):
        assert gen_bell(0) == MPoly.from_int(1)
        assert gen_bell(1) == MPoly({(0, 0, 1, 0): 1, (0, 0, 0, 1): 1})

    def test_classical_bell_specialization(self):
        for n in range(9):
            assert evaluate(gen_bell(n), 0, 1, 0, 1) == classical.bell(n)
        assert evaluate(gen_bell(5), 0, 1, 0, 1) == 52


class TestMemoDeterminism:
    def test_recomputation_identical(self):
        a = stirling2_q(6, 3, 2)
        b = stirling2_q(6, 3, 2)
        assert a == b and a.coeffs == b.coeffs


class TestClearCaches:
    def test_clear_drops_every_kept_value(self):
        cells = [(stirling2_q, (9, 3, 2)), (lah_q, (8, 3, 1)),
                 (stirling1_q, (8, 2, 2)), (bell_q, (7, 1)),
                 (hsu_shiue, (6, 3)), (gen_bell, (5,))]
        before = [fn(*args) for fn, args in cells]
        kernels = (families._stirling2_q_base, families._lah_q_base,
                   families._stirling1_q_base, families._hsu_shiue_base)
        assert all(kernel.columns for kernel in kernels)
        families.clear_caches()
        for fn in [fn for fn, _ in cells] + [q_binomial]:
            assert fn.cache_info().currsize == 0, fn.__name__
        assert all(kernel.columns == {} for kernel in kernels)
        after = [fn(*args) for fn, args in cells]
        assert after == before
        assert all(a is not b for a, b in zip(after, before))

    def test_clear_empties_every_classical_triangle(self):
        # the cap sizes a single-k cell, and the classical sides of the
        # identities read their counts, from these four triangles
        counts = [(classical.stirling2_r, (9, 3, 2)),
                  (classical.stirling1_r, (8, 2, 2)),
                  (classical.lah_r, (8, 3, 1)), (classical._ext_lah, (6, 3, 0))]
        assert {triangle for triangle, _ in counts} == set(classical.TRIANGLES)
        before = [triangle(*args) for triangle, args in counts]
        assert all(triangle.columns for triangle in classical.TRIANGLES)
        families.clear_caches()
        assert all(triangle.columns == {} for triangle in classical.TRIANGLES)
        assert [triangle(*args) for triangle, args in counts] == before


def test_kernel_fills_only_the_cells_a_request_needs():
    # T(n, k) reads the cells (m, j) with j <= k and m - j <= n - k, so a
    # diagonal cell fills one cell per column; the first j entries of column
    # j are the zero above the support, not filled
    families.clear_caches()
    lah_q(40, 40)
    columns = families._lah_q_base.columns
    assert list(columns) == [0]
    assert sum(len(col) - j for j, col in enumerate(columns[0])) == 41


class TestDomain:
    """The kernel owns the support rule; each engine owns its argument
    check, whose message names it."""

    @pytest.mark.parametrize("kernel, r, zero", [
        ("_stirling2_q_base", 1, Q_ZERO), ("_lah_q_base", 1, Q_ZERO),
        ("_stirling1_q_base", 1, Q_ZERO), ("_hsu_shiue_base", 0, M_ZERO)])
    def test_kernel_is_zero_outside_the_support(self, kernel, r, zero):
        families.clear_caches()
        kernel = getattr(families, kernel)
        cells = [(2, -1), (2, 3), (0, -1), (0, 1)]
        for when in ("fresh", "filled"):
            for n, k in cells:
                value = kernel(n, k, r)
                assert type(value) is type(zero) and value == zero, (when, n, k)
            kernel(6, 1, r)  # column 0 now reaches row 5 and column 1 row 6

    @pytest.mark.parametrize("name, calls", [
        ("stirling2_q", [(-1, 0), (2, 1, -1)]), ("lah_q", [(-1, 0), (2, 1, -1)]),
        ("stirling1_q", [(-1, 0), (2, 1, -1)]), ("bell_q", [(-1,), (2, -1)]),
        ("hsu_shiue", [(-1, 0)]), ("gen_bell", [(-1,)])])
    def test_negative_argument_names_the_engine(self, name, calls):
        for args in calls:
            with pytest.raises(ValueError, match=f"^{name} requires"):
                getattr(families, name)(*args)


class TestTableRows:
    def test_row_counts(self):
        rows = list(table_rows("stirling2_q", range(0, 6)))
        assert len(rows) == sum(n + 1 for n in range(6))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            list(table_rows("nope", range(2)))

    def test_provenance_marks_closed_form(self):
        rows = {(row.n, row.k, row.r): row.provenance
                for row in table_rows("lah_q", range(0, 3))}
        assert rows[(2, 1, 0)] == "closed-form"
        assert rows[(2, 0, 0)] == "recurrence"

    def test_families_registry(self):
        assert set(FAMILIES) == {"stirling2_q", "stirling1_q", "lah_q",
                                 "bell_q", "hsu_shiue", "gen_bell"}

    @pytest.mark.parametrize("family, params, value", [
        ("stirling2_q", ("k", "r"), stirling2_q),
        ("stirling1_q", ("k", "r"), stirling1_q),
        ("lah_q", ("k", "r"), lah_q),
        ("bell_q", ("r",), lambda n, k, r: bell_q(n, r)),
        ("hsu_shiue", ("k",), lambda n, k, r: hsu_shiue(n, k)),
        ("gen_bell", (), lambda n, k, r: gen_bell(n)),
    ])
    def test_rows_walk_n_then_k_then_r(self, family, params, value):
        # every range is passed; a family ignores the ones it does not take
        rows = list(table_rows(family, range(2, 4), range(0, 2), range(0, 2)))
        ks = range(0, 2) if "k" in params else (None,)
        rs = range(0, 2) if "r" in params else (None,)
        want = [(n, k, r) for n in range(2, 4) for k in ks for r in rs]
        assert [(row.n, row.k, row.r) for row in rows] == want
        assert all(row.family == family for row in rows)
        assert [row.value for row in rows] == [value(*c) for c in want]
