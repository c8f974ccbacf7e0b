import pytest
from hypothesis import given, settings, strategies as st

from qcomb import classical
from qcomb.polyring import Q_ONE, Q_ZERO, q_integer


def test_bell_sequence():
    assert [classical.bell(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]


def test_triangle_values():
    assert classical.stirling1_r(4, 2, 0) == 11
    assert classical.stirling2(4, 2) == 7
    assert classical.lah(3, 2) == 6
    assert classical.lah(1, 1) == 1


def test_out_of_range_zero():
    assert classical.stirling2(3, 4) == 0
    assert classical.stirling1_r(-1, 0, 0) == 0
    assert classical.lah(2, -1) == 0


def test_restricted_reduce_to_plain():
    for n in range(7):
        for k in range(n + 1):
            assert classical.stirling2_r(n, k, 0) == classical.stirling2(n, k)
            assert classical.lah_r(n, k, 0) == classical.lah(n, k)


def test_restricted_total_counts():
    # permutations of [n+r] with 1..r in distinct cycles, summed over k
    import math
    for n in range(6):
        for r in range(4):
            total = sum(classical.stirling1_r(n, k, r) for k in range(n + 1))
            # direct count: each of the n free elements opens a cycle or
            # follows one of the previously placed elements
            expect = 1
            for t in range(n):
                expect *= r + t + 1
            assert total == expect == math.factorial(n + r) // math.factorial(r)


def test_ext_lah_base_cases():
    import math
    for n in range(8):
        assert classical.ext_lah_count(n, 0) == math.factorial(n)
    assert classical.ext_lah_count(2, 1) == 4


def test_kernel_fills_only_the_cells_a_request_needs():
    # T(12, 9) reads the cells (m, j) with j <= 9 and m - j <= 3 alone
    calls = []
    cell = classical._triangle(0, lambda r: 1, lambda n, k, r, left, up:
                               calls.append((n, k)) or left + up)
    cell(12, 9, 0)
    assert sorted(calls) == [(m, j) for m in range(1, 13) for j in range(10)
                             if 0 <= m - j <= 3]


@pytest.mark.parametrize("zero, one, weight", [
    (0, 1, lambda n, k, r: k + r),
    (Q_ZERO, Q_ONE, lambda n, k, r: q_integer(k + r))], ids=["int", "q"])
def test_kernel_looks_up_a_filled_cell(zero, one, weight):
    """A cell that an earlier request filled, asked for again or read on the
    way to it, comes back from the columns without a call of the step."""
    calls = []

    def step(n, k, r, left, up):
        calls.append((n, k, r))
        return left + weight(n, k, r) * up

    cell = classical._triangle(zero, lambda r: one, step)
    cell(12, 9, 1), cell(7, 2, 0)
    assert calls
    calls.clear()
    cells = [(12, 9, 1), (10, 8, 1), (3, 0, 1), (7, 2, 0), (5, 1, 0)]
    again = [cell(n, k, r) for n, k, r in cells]
    assert calls == []
    fresh = classical._triangle(zero, lambda r: one, step)
    assert again == [fresh(n, k, r) for n, k, r in cells]


# the four classical triangles; the extended Lah one is read at r = 0 only
TRIANGLES = {"stirling2_r": classical.stirling2_r,
             "stirling1_r": classical.stirling1_r, "lah_r": classical.lah_r,
             "ext_lah": classical._ext_lah}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(TRIANGLES)), st.integers(0, 40), st.integers(0, 4))
def test_row_walk_matches_the_columns(name, n, r):
    """The row walk gives the cells that the column kernel, the reference,
    fills one by one."""
    triangle = TRIANGLES[name]
    assert triangle.row(n, r) == [triangle(n, k, r) for k in range(n + 1)]


def test_row_walk_stores_nothing():
    """The walk calls the step once per cell of rows 1..n, keeps no column,
    and gives the rows that the kernel's columns give."""
    calls = []
    cell = classical._triangle(0, lambda r: 1, lambda n, k, r, left, up:
                               calls.append((n, k)) or left + (k + r) * up)
    assert cell.row(30, 2) == [classical.stirling2_r(30, k, 2)
                               for k in range(31)]
    assert cell.columns == {}
    assert sorted(calls) == [(m, j) for m in range(1, 31) for j in range(m + 1)]
    assert cell.row(0, 3) == [1]
