"""Small sparse integer matrix container.

Entries are arbitrary-precision Python ints.  Only the handful of
operations the chain-complex machinery needs are provided.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    entries: dict = field(default_factory=dict)  # (row, col) -> nonzero int

    def __post_init__(self):
        for (r, c), v in self.entries.items():
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"entry ({r},{c}) outside a {self.rows}x{self.cols} matrix")
            if v == 0:
                raise ValueError("stored entries must be nonzero")

    @classmethod
    def from_dense(cls, dense):
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        entries = {}
        for r, row in enumerate(dense):
            if len(row) != cols:
                raise ValueError("ragged dense matrix")
            for c, v in enumerate(row):
                if v:
                    entries[(r, c)] = int(v)
        return cls(rows, cols, entries)

    def to_dense(self):
        dense = [[0] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            dense[r][c] = v
        return dense

    @property
    def nnz(self):
        return len(self.entries)

    def is_zero(self):
        return not self.entries

    def matmul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matmul")
        by_row = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        acc = {}
        for (i, k), a in self.entries.items():
            for c, b in by_row.get(k, ()):
                key = (i, c)
                acc[key] = acc.get(key, 0) + a * b
        return IntMatrix(self.rows, other.cols, {k: v for k, v in acc.items() if v})

    def triplets(self):
        """Sorted (row, col, value) list; the sparse interchange format."""
        return sorted((r, c, v) for (r, c), v in self.entries.items())
