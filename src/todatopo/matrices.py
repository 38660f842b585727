"""Small sparse integer matrix container.

A matrix is stored by columns: one ``{row: value}`` dict per column, int
keys, nonzero Python-int values.  A cell's boundary is one such column,
so assembly appends columns as it builds them and the square-zero check
and the reduction read them without regrouping.  Two constructors (a
``(row, col) -> value`` mapping and ready columns), the stored-entry count
and one matrix-vector product are all the pipeline uses; dense views and
matrix products belong to the tests' reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from numbers import Integral


@dataclass(frozen=True, init=False)
class IntMatrix:
    """Sparse int matrix by columns, built only through ``_set``, the one check: rows in
    0..rows-1 and nonzero values, all Python ints.  The mapping form reads integral values
    with int(); ``from_columns`` keeps its dicts, so 1.5, 2.0 and numpy ints fail there."""

    rows: int
    cols: int
    columns: tuple[dict[int, int], ...]  # columns[c] = {row: nonzero int}

    def __init__(self, rows: int, cols: int, entries=None):
        """Matrix from a ``(row, col) -> value`` mapping, reading integral entries with int()."""
        columns = tuple({} for _ in range(cols))
        for (r, c), v in (entries or {}).items():
            r, c, v = (int(x) if isinstance(x, Integral) else x for x in (r, c, v))
            if not (isinstance(c, int) and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}): column is not an int in 0..{cols - 1}")
            columns[c][r] = v
        self._set(rows, columns)

    @classmethod
    def from_columns(cls, rows: int, columns) -> "IntMatrix":
        """Matrix whose column c is the dict ``columns[c]``; the dicts are kept, not copied."""
        mat = object.__new__(cls)
        mat._set(rows, tuple(columns))
        return mat

    def _set(self, rows, columns):
        values = chain.from_iterable(map(dict.values, columns))
        if not {*map(type, chain.from_iterable(columns)), *map(type, values)} <= {int}:
            raise ValueError("rows and values of a column must be Python ints")
        used = set().union(*columns)
        if used and not (0 <= min(used) and max(used) < rows):
            raise ValueError(f"a column has a row outside 0..{rows - 1}")
        if not all(chain.from_iterable(map(dict.values, columns))):
            raise ValueError("stored entries must be nonzero")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", len(columns))
        object.__setattr__(self, "columns", columns)

    @property
    def nnz(self):
        return sum(map(len, self.columns))

    def apply(self, column: dict[int, int]) -> dict[int, int]:
        """This matrix times a sparse column vector; entries that cancel stay, as 0."""
        mine = self.columns
        acc: dict[int, int] = {}
        for k, b in column.items():
            for i, a in mine[k].items():
                acc[i] = acc.get(i, 0) + a * b
        return acc
