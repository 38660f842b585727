"""Exact integral homology via sparse Smith elimination.

All arithmetic is on Python ints, so intermediate entry growth cannot
overflow.  ``homology_of`` first shrinks the complex by Gaussian
elimination on its unit entries, from the top degree down: each step
removes a pair of cells joined by a +-1 entry and leaves a complex with
the same homology.  What is left (the residues) goes to
``invariant_factors``, which eliminates sparsely, in rounds that pivot
on entries equal to the gcd of what is left.  When no entry equals that
gcd, unimodular row and column steps make one that does.  One pivot
loop, ``_pivot``, serves both callers, and nothing is densified.  Each
matrix is regrouped once, by ``_rows``, into row dicts and a column
index that the pivot and stall steps keep; a residue goes over as its
transpose, whose columns are the row dicts already held.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .cells import ChainComplex
from .matrices import IntMatrix


@dataclass(frozen=True)
class HomologyGroup:
    """Finitely generated abelian group: free rank plus invariant factors."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        for i, d in enumerate(self.torsion):
            if d < 2:
                raise ValueError("torsion invariant factors must be >= 2")
            if i and d % self.torsion[i - 1] != 0:
                raise ValueError("invariant factors must form a divisibility chain")

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def _rows(mat: IntMatrix, skip_cols=frozenset()):
    """Row dicts and column -> row-set index of a matrix, in one pass; ``skip_cols`` unread."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for c, col in enumerate(mat.columns):
        if c in skip_cols:
            continue
        for r, v in col.items():
            rows.setdefault(r, {})[c] = v
        cols[c] = set(col)
    return rows, cols


def _pivot(rows: dict[int, dict[int, int]], cols: dict[int, set[int]], g: int) -> list:
    """Pivot out the entries equal to +-g in place; return the (row, col) pivots.

    Pivot rows come from a lazy heap of (nnz, row) entries, stale once the
    row's length differs, and a touched row is pushed again.  Within the
    row the pivot column with the fewest entries in the index ``cols``
    wins.  Each pivot clears its column by row operations (the Schur
    complement on that entry) and its row is dropped, since the row's
    other entries die by column operations.  A row lacking a +-g entry
    re-enters only when touched, so no +-g entry is left.  The caller
    guarantees that g divides every entry, so each update is exact.
    """
    heap = [(len(row), r) for r, row in rows.items()]
    heapq.heapify(heap)
    pivots = []
    while heap:
        nnz, r = heapq.heappop(heap)
        if len(rows.get(r, ())) != nnz:
            continue  # stale: the row has changed or gone since this entry
        row = rows[r]
        pivot_cols = [c for c, v in row.items() if v == g or v == -g]
        if not pivot_cols:
            continue  # pushed again if ever touched
        c = min(pivot_cols, key=lambda cc: (len(cols[cc]), cc))
        pv = row[c]
        # clear the pivot column with row operations; the pivot row is not touched
        for r2 in sorted(cols[c]):
            if r2 == r:
                continue
            row2 = rows[r2]
            f = row2[c] // pv  # row2 -= f * row, exact since g | row2[c]
            for cc, vv in row.items():
                new = row2.get(cc, 0) - f * vv
                if new:
                    row2[cc] = new
                    cols[cc].add(r2)
                else:
                    if cc in row2:
                        del row2[cc]
                        cols[cc].discard(r2)
            if row2:
                heapq.heappush(heap, (len(row2), r2))
            else:
                del rows[r2]
        # drop the pivot row; its remaining entries die by column operations
        for cc in row:
            cols[cc].discard(r)
            if not cols[cc]:
                del cols[cc]
        del rows[r]
        pivots.append((r, c))
    return pivots


def _unstall(rows: dict[int, dict[int, int]], cols: dict[int, set[int]], g: int) -> None:
    """Make some entry equal +-g, the gcd of all entries, by unimodular steps.

    Each pass takes a smallest entry p at (r, c) and leaves a nonzero
    entry smaller than p, a remainder mod p: a row step makes it in column
    c, or else a column step makes it in row r.  When neither line holds a
    non-multiple of p, row r first gains a row that does, cleared in column
    c so that p stays; one exists while p > g.  Every entry stays a multiple
    of g, so the passes end with an entry equal to +-g.  Every step keeps
    the index ``cols`` current; a column step walks the rows in ``cols[c]``.
    """

    def put(r, c, v):  # entry (r, c) = v, keeping the index
        if v:
            rows[r][c] = v
            cols[c].add(r)
        else:
            rows[r].pop(c, None)
            cols[c].discard(r)

    def add_row(dst, src, q):  # row dst += q * row src
        for cc, v in rows[src].items():
            put(dst, cc, rows[dst].get(cc, 0) + q * v)

    while True:
        p, r, c = min((abs(v), r, c) for r, row in rows.items() for c, v in row.items())
        if p == g:
            return
        pv = rows[r][c]
        r2 = next((r2 for r2, row in rows.items() if row.get(c, 0) % pv), None)
        if r2 is not None:
            add_row(r2, r, -(rows[r2][c] // pv))
            continue
        if not any(v % pv for v in rows[r].values()):
            r2 = next(r2 for r2, row in rows.items() if any(v % pv for v in row.values()))
            add_row(r2, r, -(rows[r2].get(c, 0) // pv))
            add_row(r, r2, 1)
        c2 = next(c2 for c2, v in rows[r].items() if v % pv)
        q = rows[r][c2] // pv  # column c2 -= q * column c
        for r2 in cols[c]:
            put(r2, c2, rows[r2].get(c2, 0) - q * rows[r2][c])


def invariant_factors(mat: IntMatrix) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form, by sparse elimination only.

    Each round takes g, the gcd of the live entries, and pivots out the
    entries equal to +-g (``_pivot``).  Since g divides every live entry,
    each update leaves a multiple of g, so each pivot is the invariant
    factor g and the factors form a divisibility chain.  A round that
    finds no entry equal to +-g first makes one (``_unstall``); unimodular
    steps keep g the gcd.
    """
    rows, cols = _rows(mat)
    factors = []
    while rows:
        g = 0
        for row in rows.values():
            for v in row.values():
                g = math.gcd(g, v)
        pivots = _pivot(rows, cols, g)
        if not pivots:
            _unstall(rows, cols, g)
            pivots = _pivot(rows, cols, g)
        factors.extend([g] * len(pivots))
    return tuple(factors)


def matrix_rank(mat: IntMatrix) -> int:
    return len(invariant_factors(mat))


def homology_of(cx: ChainComplex) -> list[HomologyGroup]:
    """H_k = ker d_k / im d_(k+1) for each degree of a complex.

    The complex is first shrunk by Gaussian elimination on its unit
    entries.  If <d_k a, b> = +-1 for cells a of C_k and b of C_(k-1),
    removing a and b leaves a complex with the same homology: d_k becomes
    its Schur complement on that entry, row a leaves d_(k+1), column b
    leaves d_(k-1), and nothing else changes (Bar-Natan, "Fast Khovanov
    homology computations", Lemma 4.2).  Degrees run from the top down.
    d_k is built without the cells of C_k already paired as pivot rows of
    d_(k+1), and its +-1 entries are pivoted out; the cells of C_k it
    pairs then leave the residue d'_(k+1), which goes to
    ``invariant_factors`` as its transpose: the row dicts left by the
    pivots become its columns, uncopied.  Each cell is paired at most
    once, and each boundary shrinks before its turn.  With left_k the
    unpaired cells of C_k, H_k = Z^(left_k - rank d'_k - rank d'_(k+1))
    plus the factors > 1 of d'_(k+1).

    The complex checked the square-zero identity when it was built.
    """
    top = cx.top_degree
    left = list(cx.ranks())
    factors = {}
    paired: set[int] = set()  # cells of C_k that are pivot rows of d_(k+1)
    above: dict[int, dict[int, int]] = {}  # d'_(k+1), rows indexed by C_k
    for k in range(top, -1, -1):
        rows, cols = _rows(cx.boundary(k), paired)  # d_0 is empty
        pivots = _pivot(rows, cols, 1)
        for _, a in pivots:
            left[k] -= 1
            left[k - 1] -= 1
            above.pop(a, None)
        if k < top:  # d'_(k+1) transposed: its row dicts are the columns
            residue_t = [above.get(r, {}) for r in range(cx.rank(k))]
            factors[k + 1] = invariant_factors(IntMatrix.from_columns(cx.rank(k + 1), residue_t))
        paired = {b for b, _ in pivots}
        above = rows
    groups = []
    for k in range(top + 1):
        rank_k = len(factors.get(k, ()))
        rank_k1 = len(factors.get(k + 1, ()))
        torsion = tuple(d for d in factors.get(k + 1, ()) if d > 1)
        groups.append(HomologyGroup(left[k] - rank_k - rank_k1, torsion))
    return groups
