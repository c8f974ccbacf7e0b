"""Classical integer triangles via Pascal-style recurrences.

These are deliberately coded without reference to the q-engines: they serve
as the independent side when cross-checking q = 1 specializations, as the
integer inputs of the classical Spivey / Mezo identities, and as cheap cell
size estimates for the enumeration cap.  The one triangle kernel lives here
too, and also fills the q-engines' triangles; no engine reads a classical
value.

Indexing convention for the restricted variants: ``stirling2_r(n, k, r)``
counts partitions of [n+r] into k+r blocks with 1..r in distinct blocks, and
similarly for cycles and ordered blocks.
"""

from __future__ import annotations


def _triangle(zero, one, step):
    """T(n, k, r) of the triangle T(0, 0, r) = one(r), zero outside
    0 <= k <= n, and T(n, k, r) = step(n, k, r, T(n-1, k-1, r), T(n-1, k, r)).
    T(n, k, r) depends only on the cells (m, j) with j <= k and
    m - j <= n - k, so column j is filled downward only to row j + n - k;
    the columns are kept, one set per r, in ``cell.columns``, a filled cell
    is looked up there, and nothing recurses.  ``cell.row(n, r)`` is the
    whole row [T(n, 0, r), ..., T(n, n, r)], walked down by the same step
    with only the current row kept, and nothing stored."""
    columns: dict[int, list[list]] = {}

    def cell(n: int, k: int, r: int):
        if k < 0 or k > n:
            return zero
        cols = columns.setdefault(r, [])
        if k < len(cols) and n < len(cols[k]):
            return cols[k][n]
        for j in range(k + 1):
            if j == len(cols):
                cols.append([zero] * j if j else [one(r)])
            col = cols[j]
            for m in range(len(col), n - k + j + 1):
                left = cols[j - 1][m - 1] if j else zero
                col.append(step(m, j, r, left, col[m - 1]))
        return cols[k][n]

    def row(n: int, r: int) -> list:
        values = [one(r)]
        for m in range(1, n + 1):
            values.append(zero)
            for j in range(m, -1, -1):   # right to left: T(m-1, j-1) is unread
                values[j] = step(m, j, r, values[j - 1] if j else zero, values[j])
        return values
    cell.columns = columns
    cell.row = row
    return cell


# element n+r joins one of the k+r blocks or opens a new one
stirling2_r = _triangle(0, lambda r: 1, lambda n, k, r, left, up: left + (k + r) * up)
# element n+r opens a cycle or follows one of the n+r-1 others
stirling1_r = _triangle(0, lambda r: 1,
                        lambda n, k, r, left, up: left + (n + r - 1) * up)
# n+r-1 follow slots plus k+r block fronts, or a new block
lah_r = _triangle(0, lambda r: 1,
                  lambda n, k, r, left, up: left + (n + k + 2 * r - 1) * up)
# new true block, or one of n-1 follow slots + k block fronts + circling
_ext_lah = _triangle(0, lambda r: 1, lambda n, k, r, left, up: left + (n + k) * up)
TRIANGLES = (stirling2_r, stirling1_r, lah_r, _ext_lah)   # emptied by clear_caches


def stirling2(n: int, k: int) -> int:
    return stirling2_r(n, k, 0)


def lah(n: int, k: int) -> int:
    """Lah numbers: ordered-block partitions of [n] into k blocks."""
    return lah_r(n, k, 0)


def bell(n: int) -> int:
    return bell_r(n, 0)


def bell_r(n: int, r: int) -> int:
    return sum(stirling2_r(n, k, r) for k in range(n + 1))


def ext_lah_count(n: int, k: int) -> int:
    """Number of extended Lah distributions of [n] with k true blocks."""
    return _ext_lah(n, k, 0)
