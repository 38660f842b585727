"""Small sparse integer matrix container.

A matrix is stored by columns: one ``{row: value}`` dict per column, int
keys, nonzero Python-int values.  A cell's boundary is one such column,
so assembly appends columns as it builds them and the square-zero check
and the reduction read them without regrouping.  Only the handful of
operations the chain-complex machinery needs are provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from numbers import Integral


@dataclass(frozen=True, init=False)
class IntMatrix:
    rows: int
    cols: int
    columns: tuple[dict[int, int], ...]  # columns[c] = {row: nonzero int}

    def __init__(self, rows: int, cols: int, entries=None):
        """Validating constructor from a ``(row, col) -> value`` mapping."""
        columns = tuple({} for _ in range(cols))
        for (r, c), v in (entries or {}).items():
            if not all(isinstance(x, Integral) for x in (r, c, v)):  # 1.5 and 2.0 are not
                raise ValueError(f"entry ({r},{c}) = {v!r}: indices and values must be integers")
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) outside a {rows}x{cols} matrix")
            if v == 0:
                raise ValueError("stored entries must be nonzero")
            columns[c][r] = int(v)
        self._set(rows, columns)

    @classmethod
    def from_columns(cls, rows: int, columns) -> "IntMatrix":
        """Matrix whose column c is the dict ``columns[c]``; the dicts are kept, not copied."""
        columns = tuple(columns)
        used = set().union(*columns)
        if used and not (0 <= min(used) and max(used) < rows):
            raise ValueError(f"a column has a row outside 0..{rows - 1}")
        if 0 in chain.from_iterable(map(dict.values, columns)):
            raise ValueError("stored entries must be nonzero")
        mat = object.__new__(cls)
        mat._set(rows, columns)
        return mat

    def _set(self, rows, columns):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", len(columns))
        object.__setattr__(self, "columns", columns)

    @classmethod
    def from_dense(cls, dense):
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        columns = [{} for _ in range(cols)]
        for r, row in enumerate(dense):
            if len(row) != cols:
                raise ValueError("ragged dense matrix")
            for c, v in enumerate(row):
                if not isinstance(v, Integral):  # 1.5 and 2.0 are not
                    raise ValueError(f"dense entry {v!r} is not an integer")
                if v:
                    columns[c][r] = int(v)
        return cls.from_columns(rows, columns)

    def to_dense(self):
        dense = [[0] * self.cols for _ in range(self.rows)]
        for c, col in enumerate(self.columns):
            for r, v in col.items():
                dense[r][c] = v
        return dense

    @property
    def nnz(self):
        return sum(map(len, self.columns))

    def is_zero(self):
        return not any(self.columns)

    def apply(self, column: dict[int, int]) -> dict[int, int]:
        """This matrix times a sparse column vector; entries that cancel stay, as 0."""
        mine = self.columns
        acc: dict[int, int] = {}
        for k, b in column.items():
            for i, a in mine[k].items():
                acc[i] = acc.get(i, 0) + a * b
        return acc

    def matmul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matmul")
        out = [{i: v for i, v in self.apply(col).items() if v} for col in other.columns]
        return IntMatrix.from_columns(self.rows, out)

    def triplets(self):
        """Sorted (row, col, value) list; the sparse interchange format."""
        return sorted((r, c, v) for c, col in enumerate(self.columns) for r, v in col.items())
