"""Dense reference views of an ``IntMatrix``, for the tests only.

A matrix is read through ``rows``, ``cols`` and ``columns`` alone and built
only through the ``(row, col) -> value`` mapping constructor, so a product or
square-zero check made here shares no code with ``IntMatrix.apply``, the
general path of ``ChainComplex.validate``, nor with its sorted-row-list path.
"""

from todatopo import IntMatrix


def dense(mat):
    """The matrix as ``rows`` lists of ``cols`` ints."""
    out = [[0] * mat.cols for _ in range(mat.rows)]
    for c, col in enumerate(mat.columns):
        for r, v in col.items():
            out[r][c] = v
    return out


def from_dense(rows):
    """IntMatrix of a rectangular list of rows; zero entries are not stored."""
    cols = len(rows[0]) if rows else 0
    assert all(len(row) == cols for row in rows), "ragged dense matrix"
    return IntMatrix(len(rows), cols,
                     {(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row) if v})


def triplets(mat):
    """Sorted (row, col, value) list of the stored entries."""
    return sorted((r, c, v) for c, col in enumerate(mat.columns) for r, v in col.items())


def mul(A, B):
    """Product of two dense matrices given as lists of rows; [] when either has no rows."""
    if not A or not B:
        return []
    return [[sum(a * B[k][j] for k, a in enumerate(row)) for j in range(len(B[0]))] for row in A]


def composes_to_zero(lower, upper):
    """Whether lower · upper is zero, each product column summed into a dense list.

    Column j of the product is the sum over upper's entries (k, j) of that value
    times lower's column k.  One dense column at a time, not the dense matrices
    of ``mul``, keeps the check fast and small on complexes of thousands of cells.
    """
    assert lower.cols == upper.rows, "shape mismatch"
    for col in upper.columns:
        out = [0] * lower.rows
        for k, b in col.items():
            for i, a in lower.columns[k].items():
                out[i] += a * b
        if any(out):
            return False
    return True
