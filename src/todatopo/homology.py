"""Exact integral homology via discrete Morse reduction and sparse Smith elimination.

All arithmetic is on Python ints, so intermediate entry growth cannot
overflow.  ``homology_of`` reduces a complex along its acyclic matching
(``ChainComplex.matching``; for the cellular complex, the one the
colored diagrams give): one sweep per degree carries the boundaries of
all critical cells as rows and reads each matched pair once, in the
gradient order the matching lists them in, leaving the Morse
differential between critical cells.  No filled Schur complement is ever
formed.  Each Morse differential (the full boundary, in a degree with
no pairs) goes to ``invariant_factors``, which eliminates
sparsely, in rounds that pivot on entries equal to the gcd of what is
left.  When no entry equals that gcd, unimodular row and column steps
make one that does.  ``_pivot`` is the one pivot loop and nothing is
densified.  Each matrix is regrouped once, by ``_rows``, into row dicts
and a column index that the pivot and stall steps keep.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .cells import ChainComplex
from .errors import CorruptComplexError
from .matrices import IntMatrix


@dataclass(frozen=True)
class HomologyGroup:
    """Finitely generated abelian group: free rank plus invariant factors."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if not isinstance(self.free_rank, int) or self.free_rank < 0:
            raise ValueError(f"free rank must be an int >= 0, got {self.free_rank!r}")
        for i, d in enumerate(self.torsion):
            if not isinstance(d, int) or d < 2:
                raise ValueError("torsion invariant factors must be ints >= 2")
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


def _rows(mat: IntMatrix):
    """Row dicts and column -> row-set index of a matrix, in one pass over its columns."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for c, col in enumerate(mat.columns):
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
    re-enters only when touched, so no +-g entry is left.  The caller,
    ``invariant_factors``, guarantees that g divides every entry, so each
    update is exact.
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


def _morse_differential(d: IntMatrix, pairs: dict[int, int], crit, k: int) -> IntMatrix:
    """The Morse differential of d = d_k from the critical cells crit[k] to crit[k-1].

    One sweep carries every critical column x = d(s) at once, as rows: row t
    holds x_t for each critical column.  Each pair (t, p) of C_(k-1) x C_k
    is read once, in the order ``pairs`` lists them, and clears row t into
    the other rows of d(p): x -= (x_t / <d p, t>) d(p).  A pair whose entry
    <d p, t> is not +-1 raises ``CorruptComplexError``.  So does a pair
    listed out of gradient order, which needs every paired face of p other
    than t listed after t; any cycle of gradient paths lists one earlier.
    Rows are kept only for critical cells and cells paired upward: a cell
    paired downward feeds no pair.
    """
    columns = d.columns
    crit_cols, crit_rows = crit[k], crit[k - 1]
    row_of = {t: n for n, t in enumerate(crit_rows)}
    rows: dict[int, dict[int, int]] = {}  # cell of C_(k-1) -> {critical column: entry}
    for j, s in enumerate(crit_cols):
        for t, v in columns[s].items():
            if t in pairs or t in row_of:
                rows.setdefault(t, {})[j] = v
    done = set()
    for t, p in pairs.items():
        col = columns[p]
        if col.get(t) not in (1, -1):
            raise CorruptComplexError(f"a pair of degrees {k - 1}, {k} is not joined by +-1")
        if not done.isdisjoint(col):
            raise CorruptComplexError("the matching is not listed in gradient order, "
                                      "or has a cycle of gradient paths")
        done.add(t)
        row = rows.pop(t, None)
        if not row:
            continue  # nothing reaches t, or it cancelled
        for t2, v in col.items():
            if t2 != t and (t2 in pairs or t2 in row_of):
                f = col[t] * v  # 1 / <d p, t> = <d p, t>, as it is +-1
                row2 = rows.setdefault(t2, {})
                for j, a in row.items():
                    new = row2[j] = row2.get(j, 0) - f * a
                    if not new:
                        del row2[j]
    out = [{} for _ in crit_cols]
    for t, i in row_of.items():
        for j, v in rows.get(t, {}).items():
            out[j][i] = v
    return IntMatrix.from_columns(len(crit_rows), out)


def homology_of(cx: ChainComplex) -> list[HomologyGroup]:
    """H_k = ker d_k / im d_(k+1) for each degree of a complex.

    The complex is reduced along its acyclic matching (discrete Morse
    theory: Sköldberg, "Morse theory from an algebraic viewpoint", TAMS
    2006).  A cell is critical when it is in no pair.  The Morse
    differential d'_k, from the critical cells of C_k to those of
    C_(k-1), sums the boundary over the gradient paths through the pairs
    of C_(k-1) x C_k (``_morse_differential``), and the Morse complex has
    the homology of the original.  Every degree takes this one path; with
    no pairs, as in a complex without a matching, d'_k equals d_k.  With
    crit_k the critical cells of C_k, H_k = Z^(crit_k - rank d'_k -
    rank d'_(k+1)) plus the factors > 1 of d'_(k+1).

    The matching is checked here, where it is read: one dict per degree
    below the top, pairs of cells that exist, no cell in two pairs, each
    pair joined by +-1 and listed in gradient order (none is when the
    matching has a cycle); a failure raises ``CorruptComplexError``.
    """
    top = cx.top_degree
    matching = cx.matching or ({},) * top
    if len(matching) != top:
        raise CorruptComplexError("matching needs one dict per degree below the top")
    crit = []
    down = ()  # cells of C_k paired downward: the partners of matching[k - 1]
    for k in range(top + 1):
        up = matching[k] if k < top else {}
        paired = {*up, *down}
        if len(paired) < len(up) + len(down):
            raise CorruptComplexError(f"a cell of degree {k} is in two pairs")
        n = cx.rank(k)
        if up and not (0 <= min(up) and max(up) < n):
            raise CorruptComplexError(f"a matched cell is not a cell of degree {k}")
        if down and not (0 <= min(down) and max(down) < n):
            raise CorruptComplexError(f"a partner is not a cell of degree {k}")
        crit.append([c for c in range(n) if c not in paired])
        down = up.values()
    factors = [()] * (top + 2)
    for k in range(1, top + 1):
        d = _morse_differential(cx.boundary(k), matching[k - 1], crit, k)
        factors[k] = invariant_factors(d)
    return [
        HomologyGroup(len(crit[k]) - len(factors[k]) - len(factors[k + 1]),
                      tuple(f for f in factors[k + 1] if f > 1))
        for k in range(top + 1)
    ]
