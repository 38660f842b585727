"""Exact integral homology via Smith normal form.

All arithmetic is on Python ints, so intermediate entry growth cannot
overflow.  Pivoting always selects a smallest-magnitude nonzero entry,
the standard growth mitigation.  The fast path for homology strips
unit pivots sparsely first and runs the dense reduction only on the
small residue; unimodular eliminations preserve invariant factors.
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


def _snf_core(A, track: bool):
    """In-place Smith reduction; returns (U, V) when tracking else (None, None)."""
    m = len(A)
    n = len(A[0]) if m else 0
    U = _identity(m) if track else None
    V = _identity(n) if track else None

    def row_add(src, dst, q):  # row dst += q * row src
        arow, srow = A[dst], A[src]
        for j in range(n):
            if srow[j]:
                arow[j] += q * srow[j]
        if track:
            for r in range(m):
                U[r][src] -= q * U[r][dst]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        if track:
            for r in range(m):
                U[r][i], U[r][j] = U[r][j], U[r][i]

    def row_negate(i):
        A[i] = [-x for x in A[i]]
        if track:
            for r in range(m):
                U[r][i] = -U[r][i]

    def col_add(src, dst, q):  # col dst += q * col src
        for r in range(m):
            if A[r][src]:
                A[r][dst] += q * A[r][src]
        if track:
            vs, vd = V[src], V[dst]
            for j in range(n):
                vs[j] -= q * vd[j]

    def col_swap(i, j):
        for r in range(m):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        if track:
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
    return U, V


def smith_normal_form(M) -> SmithDecomposition:
    """Exact Smith decomposition of an integer matrix (possibly empty)."""
    A = [list(int(x) for x in row) for row in M]
    m = len(A)
    n = len(A[0]) if m else 0
    for row in A:
        if len(row) != n:
            raise ValueError("ragged input matrix")
    U, V = _snf_core(A, track=True)
    return SmithDecomposition(
        tuple(tuple(r) for r in U),
        tuple(tuple(r) for r in A),
        tuple(tuple(r) for r in V),
    )


def _unit_strip(mat: IntMatrix):
    """Eliminate unit pivots sparsely; return (count, residual dense matrix).

    Pivot rows are drawn from a lazy heap ordered by row sparsity; within
    the row the unit column with the fewest entries wins.  Rows lacking
    unit entries leave the heap and re-enter only when touched again.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for (r, c), v in mat.entries.items():
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, set()).add(r)
    version = {r: 0 for r in rows}
    heap = [(len(row), r, 0) for r, row in sorted(rows.items())]
    heapq.heapify(heap)
    units = 0
    while heap:
        nnz, r, ver = heapq.heappop(heap)
        if r not in rows or version[r] != ver:
            continue
        row = rows[r]
        unit_cols = [c for c, v in row.items() if v in (1, -1)]
        if not unit_cols:
            continue  # re-enters via a version bump if ever touched again
        c = min(unit_cols, key=lambda cc: (len(cols[cc]), cc))
        pv = row[c]
        prow = dict(row)
        # clear the pivot column with row operations
        for r2 in sorted(cols[c]):
            if r2 == r:
                continue
            row2 = rows[r2]
            f = row2[c] * pv  # row2 -= f * prow (pv is +-1)
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
        units += 1
    live_rows = sorted(rows)
    live_cols = sorted({c for row in rows.values() for c in row})
    col_pos = {c: k for k, c in enumerate(live_cols)}
    dense = [[0] * len(live_cols) for _ in live_rows]
    for k, r in enumerate(live_rows):
        for c, v in rows[r].items():
            dense[k][col_pos[c]] = v
    return units, dense


def invariant_factors(mat: IntMatrix) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form, without transform tracking.

    Alternates sparse unit elimination with factoring out the gcd of the
    residue (the Smith form of g*M is g times that of M); the dense
    reduction only ever sees what survives both.
    """
    return tuple(sorted(_factors_scaled(mat, 1)))


def _factors_scaled(mat: IntMatrix, scale: int) -> list[int]:
    units, dense = _unit_strip(mat)
    out = [scale] * units
    if not dense or not dense[0]:
        return out
    g = 0
    for row in dense:
        for v in row:
            g = math.gcd(g, v)
    if g > 1:
        reduced = IntMatrix.from_dense([[v // g for v in row] for row in dense])
        out.extend(_factors_scaled(reduced, scale * g))
        return out
    _snf_core(dense, track=False)
    for i in range(min(len(dense), len(dense[0]))):
        if dense[i][i]:
            out.append(scale * abs(dense[i][i]))
    return out


def matrix_rank(mat: IntMatrix) -> int:
    return len(invariant_factors(mat))


def homology_of(cx: ChainComplex) -> list[HomologyGroup]:
    """H_k = ker d_k / im d_(k+1) for each degree of a complex.

    The complex checked the square-zero identity when it was built.
    """
    top = cx.top_degree
    factors = {k: invariant_factors(cx.boundary(k)) for k in range(1, top + 1)}
    groups = []
    for k in range(top + 1):
        rank_k = len(factors.get(k, ()))
        rank_k1 = len(factors.get(k + 1, ()))
        free = cx.rank(k) - rank_k - rank_k1
        torsion = tuple(d for d in factors.get(k + 1, ()) if d > 1)
        groups.append(HomologyGroup(free, torsion))
    return groups
