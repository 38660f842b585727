"""Exact integral homology via Smith normal form.

All arithmetic is on Python ints, so intermediate entry growth cannot
overflow.  ``homology_of`` first shrinks the complex by Gaussian
elimination on its unit entries, from the top degree down: each step
removes a pair of cells joined by a +-1 entry and leaves a complex with
the same homology.  What is left (the residues) goes to
``invariant_factors``, which eliminates sparsely, in rounds that pivot
on entries equal to the gcd of what is left, and hands
``smith_normal_form`` only a residue in which no entry equals that gcd.
One pivot loop, ``_pivot``, serves both.  ``smith_normal_form`` tracks
the unimodular transforms and pivots on a smallest-magnitude nonzero
entry, the standard growth mitigation.
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
            if i and self.torsion[i - 1] != 0 and d % self.torsion[i - 1] != 0:
                raise ValueError("invariant factors must form a divisibility chain")

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class SmithDecomposition:
    """M = U * Dg * V with U, V unimodular and Dg diagonal, d_1 | d_2 | ..."""

    U: tuple[tuple[int, ...], ...]
    Dg: tuple[tuple[int, ...], ...]
    V: tuple[tuple[int, ...], ...]

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.Dg[i][i] for i in range(min(len(self.Dg), len(self.Dg[0]) if self.Dg else 0)))

    def reconstruct(self) -> list[list[int]]:
        U, D, V = self.U, self.Dg, self.V
        m = len(U)
        n = len(V)
        mid = [[sum(U[i][k] * D[k][j] for k in range(len(D))) for j in range(n)] for i in range(m)]
        return [[sum(mid[i][k] * V[k][j] for k in range(n)) for j in range(n)] for i in range(m)]


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(M) -> SmithDecomposition:
    """Exact Smith decomposition of an integer matrix (possibly empty)."""
    A = [list(int(x) for x in row) for row in M]
    m = len(A)
    n = len(A[0]) if m else 0
    for row in A:
        if len(row) != n:
            raise ValueError("ragged input matrix")
    U = _identity(m)
    V = _identity(n)

    def row_add(src, dst, q):  # row dst += q * row src
        arow, srow = A[dst], A[src]
        for j in range(n):
            if srow[j]:
                arow[j] += q * srow[j]
        for r in range(m):
            U[r][src] -= q * U[r][dst]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        for r in range(m):
            U[r][i], U[r][j] = U[r][j], U[r][i]

    def row_negate(i):
        A[i] = [-x for x in A[i]]
        for r in range(m):
            U[r][i] = -U[r][i]

    def col_add(src, dst, q):  # col dst += q * col src
        for r in range(m):
            if A[r][src]:
                A[r][dst] += q * A[r][src]
        vs, vd = V[src], V[dst]
        for j in range(n):
            vs[j] -= q * vd[j]

    def col_swap(i, j):
        for r in range(m):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        V[i], V[j] = V[j], V[i]

    t = 0
    while t < m and t < n:
        # smallest-magnitude nonzero pivot in the trailing block
        pivot = None
        for i in range(t, m):
            row = A[i]
            for j in range(t, n):
                v = row[j]
                if v and (pivot is None or abs(v) < pivot[0]):
                    pivot = (abs(v), i, j)
            if pivot and pivot[0] == 1:
                break
        if pivot is None:
            break
        _, pi, pj = pivot
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        while True:
            # clear the pivot column
            restart = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    if q:
                        row_add(t, i, -q)
                    if A[i][t]:
                        row_swap(t, i)
                        restart = True
                        break
            if restart:
                continue
            # clear the pivot row
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    if q:
                        col_add(t, j, -q)
                    if A[t][j]:
                        col_swap(t, j)
                        restart = True
                        break
            if restart:
                continue
            # enforce divisibility of the trailing block by the pivot
            fixed = True
            p = A[t][t]
            for i in range(t + 1, m):
                row = A[i]
                for j in range(t + 1, n):
                    if row[j] % p:
                        row_add(i, t, 1)
                        fixed = False
                        break
                if not fixed:
                    break
            if fixed:
                break
        if A[t][t] < 0:
            row_negate(t)
        t += 1
    return SmithDecomposition(
        tuple(tuple(r) for r in U),
        tuple(tuple(r) for r in A),
        tuple(tuple(r) for r in V),
    )


def _rows(entries, skip_cols=frozenset()) -> dict[int, dict[int, int]]:
    """Row dicts of a sparse matrix, leaving out the columns in ``skip_cols``."""
    rows: dict[int, dict[int, int]] = {}
    for (r, c), v in entries.items():
        if c not in skip_cols:
            rows.setdefault(r, {})[c] = v
    return rows


def _pivot(rows: dict[int, dict[int, int]], g: int) -> list[tuple[int, int]]:
    """Pivot out the entries equal to +-g in place; return the (row, col) pivots.

    Pivot rows are drawn from a lazy heap ordered by row sparsity; within
    the row the pivot column with the fewest entries wins.  Each pivot
    clears its column by row operations (the Schur complement on that
    entry) and its row is dropped, since the row's other entries die by
    column operations.  Rows lacking a +-g entry leave the heap and
    re-enter only when touched again, so no +-g entry is left.  The caller
    guarantees that g divides every entry, which makes each update exact.
    """
    cols: dict[int, set[int]] = {}
    for r, row in rows.items():
        for c in row:
            cols.setdefault(c, set()).add(r)
    version = dict.fromkeys(rows, 0)
    heap = [(len(row), r, 0) for r, row in rows.items()]
    heapq.heapify(heap)
    pivots = []
    while heap:
        nnz, r, ver = heapq.heappop(heap)
        if r not in rows or version[r] != ver:
            continue
        row = rows[r]
        pivot_cols = [c for c, v in row.items() if v == g or v == -g]
        if not pivot_cols:
            continue  # re-enters via a version bump if ever touched again
        c = min(pivot_cols, key=lambda cc: (len(cols[cc]), cc))
        pv = row[c]
        prow = dict(row)
        # clear the pivot column with row operations
        for r2 in sorted(cols[c]):
            if r2 == r:
                continue
            row2 = rows[r2]
            f = row2[c] // pv  # row2 -= f * prow, exact since g | row2[c]
            for cc, vv in prow.items():
                new = row2.get(cc, 0) - f * vv
                if new:
                    row2[cc] = new
                    cols[cc].add(r2)
                else:
                    if cc in row2:
                        del row2[cc]
                        cols[cc].discard(r2)
            version[r2] += 1
            if row2:
                heapq.heappush(heap, (len(row2), r2, version[r2]))
            else:
                del rows[r2]
        # drop the pivot row; its remaining entries die by column operations
        for cc in prow:
            cols[cc].discard(r)
            if not cols[cc]:
                del cols[cc]
        del rows[r]
        pivots.append((r, c))
    return pivots


def invariant_factors(mat: IntMatrix) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form.

    Sparse rounds take g, the gcd of the live entries, and pivot out the
    entries equal to +-g (``_pivot``).  Since g divides every live entry,
    each update leaves a multiple of g, so each pivot is the invariant
    factor g and the factors form a divisibility chain.  Only a residue
    that a whole round leaves unchanged is densified: no entry of it
    equals its gcd, and the factors ``smith_normal_form`` finds there
    follow as multiples of it.
    """
    rows = _rows(mat.entries)
    factors = []
    while rows:
        g = 0
        for row in rows.values():
            for v in row.values():
                g = math.gcd(g, v)
        pivots = _pivot(rows, g)
        if not pivots:
            break
        factors.extend([g] * len(pivots))
    live_rows = sorted(rows)
    live_cols = sorted({c for row in rows.values() for c in row})
    col_pos = {c: k for k, c in enumerate(live_cols)}
    dense = [[0] * len(live_cols) for _ in live_rows]
    for k, r in enumerate(live_rows):
        for c, v in rows[r].items():
            dense[k][col_pos[c]] = v
    factors.extend(d for d in smith_normal_form(dense).diagonal if d)
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
    ``invariant_factors``.  Each cell is paired at most once, and each
    boundary shrinks before its turn.  With left_k the unpaired cells of
    C_k, H_k = Z^(left_k - rank d'_k - rank d'_(k+1)) plus the factors
    > 1 of d'_(k+1).

    The complex checked the square-zero identity when it was built.
    """
    top = cx.top_degree
    left = list(cx.ranks())
    factors = {}
    paired: set[int] = set()  # cells of C_k that are pivot rows of d_(k+1)
    above: dict[int, dict[int, int]] = {}  # d'_(k+1), rows indexed by C_k
    for k in range(top, -1, -1):
        rows = _rows(cx.boundary(k).entries, paired)  # d_0 is empty
        pivots = _pivot(rows, 1)
        for _, a in pivots:
            left[k] -= 1
            left[k - 1] -= 1
            above.pop(a, None)
        if k < top:
            d = cx.boundary(k + 1)
            residue = {(r, c): v for r, row in above.items() for c, v in row.items()}
            factors[k + 1] = invariant_factors(IntMatrix(d.rows, d.cols, residue))
        paired = {b for b, _ in pivots}
        above = rows
    groups = []
    for k in range(top + 1):
        rank_k = len(factors.get(k, ()))
        rank_k1 = len(factors.get(k + 1, ()))
        torsion = tuple(d for d in factors.get(k + 1, ()) if d > 1)
        groups.append(HomologyGroup(left[k] - rank_k - rank_k1, torsion))
    return groups
