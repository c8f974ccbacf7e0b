"""Classical integer triangles via Pascal-style recurrences.

These are deliberately coded without reference to the q-engines: they serve
as the independent side when cross-checking q = 1 specializations, as the
integer inputs of the classical Spivey / Mezo identities, and as cheap cell
size estimates for the enumeration cap.

Indexing convention for the restricted variants: ``stirling2_r(n, k, r)``
counts partitions of [n+r] into k+r blocks with 1..r in distinct blocks, and
similarly for cycles and ordered blocks.
"""

from __future__ import annotations

from typing import Callable


def _triangle(weight: Callable[[int, int, int], int]):
    """T(n, k, r) of the triangle T(0, 0, r) = 1, zero outside 0 <= k <= n,
    and T(n, k, r) = T(n-1, k-1, r) + weight(n, k, r) * T(n-1, k, r).
    Columns 0..k are filled downward to row n and kept, one set per r;
    nothing recurses."""
    columns: dict[int, list[list[int]]] = {}

    def cell(n: int, k: int, r: int) -> int:
        if n < 0 or k < 0 or k > n:
            return 0
        cols = columns.setdefault(r, [])
        if k < len(cols) and n < len(cols[k]):
            return cols[k][n]
        for j in range(k + 1):
            if j == len(cols):
                cols.append([0] * j if j else [1])
            col = cols[j]
            for m in range(len(col), n + 1):
                left = cols[j - 1][m - 1] if j else 0
                col.append(left + weight(m, j, r) * col[m - 1])
        return cols[k][n]
    return cell


# element n+r joins one of the k+r blocks or opens a new one
stirling2_r = _triangle(lambda n, k, r: k + r)
# element n+r opens a cycle or follows one of the n+r-1 others
stirling1_r = _triangle(lambda n, k, r: n + r - 1)
# n+r-1 follow slots plus k+r block fronts, or a new block
lah_r = _triangle(lambda n, k, r: n + k + 2 * r - 1)
# new true block, or one of n-1 follow slots + k block fronts + circling
_ext_lah = _triangle(lambda n, k, r: n + k)


def stirling2(n: int, k: int) -> int:
    return stirling2_r(n, k, 0)


def stirling1(n: int, k: int) -> int:
    """Signless Stirling numbers of the first kind (cycle counts)."""
    return stirling1_r(n, k, 0)


def lah(n: int, k: int) -> int:
    """Lah numbers: ordered-block partitions of [n] into k blocks."""
    return lah_r(n, k, 0)


def bell(n: int) -> int:
    return sum(stirling2(n, k) for k in range(n + 1))


def bell_r(n: int, r: int) -> int:
    return sum(stirling2_r(n, k, r) for k in range(n + 1))


def ext_lah_count(n: int, k: int) -> int:
    """Number of extended Lah distributions of [n] with k true blocks."""
    return _ext_lah(n, k, 0)
