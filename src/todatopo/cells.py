"""Colored Dynkin diagrams, cells, and the cellular chain complex.

A colored diagram (S, eta) marks a subset S of simple roots Red (-1) or
Blue (+1) and labels a cell of codimension |S|; the cell carries the
minimal-length representative of a left coset w * W_S.  A diagram is
stored as two bit masks, S and its Red vertices, and is built from a
vertex-to-sign map by ``ColoredDynkinDiagram.from_map``.  Boundaries color
one more vertex, with the literal sign ``(-1) ** (j + c + 1)`` where j
counts uncolored vertices in increasing root order and c = 1 colors Red,
c = 2 Blue.

Pushing a residual x in W_S through a diagram acts on its two masks by
the rule of ``signs._act``: the sign action on the colored coordinates and,
per letter s_i, an orientation factor
``eta(i) ** (sum of C_{j,i} over uncolored j, mod 2)``, the determinant of
the wall-gluing map on the cell's free coordinates.  ``ws_act_oriented``
calls ``_act``; assembly applies the same step inline, letter by letter
along the coset walk that finds the face's rep.  Every face takes that
one walk: when the new vertex is not a right descent of w, the walk has
no letters and the face keeps w and its literal sign.
With it the boundary squares to zero and the rank-2 A-type complex
reproduces the gold homology (Z, Z^3 + Z/2, 0).

The colors also give an acyclic matching on the cells, along which
``homology_of`` reduces the complex (discrete Morse theory).  For a cell
(S, red, w) let A be the set of vertices that are Blue, or uncolored and
not a right descent of w, and let v be the least vertex of A.  If v is
uncolored, the cell is paired with its Blue face on v, one degree down;
if v is Blue, with the cell that has v uncolored, one degree up.  The
Blue face on a non-descent v keeps w with no residual letters, so a pair
is joined by the literal sign ``(-1) ** (j + 3)``, a unit.  Both cells of
a pair have the same A, so the rule is an involution.  It is acyclic.
A gradient path steps from a cell paired downward, on v, to another
face that is paired upward, then to that face's partner; it starts at
a critical cell, whose every face is shorter (see below).  A face's
representative is never longer than w, and shorter when the new vertex
is a descent of w.  A face that keeps w and is paired upward must color
v itself Red (any other such face still has v, uncolored, as the least
vertex of its A), so its partner's least vertex of A is larger than v.
Along a path the length of w never grows, and while it stays, min A
strictly grows: no path returns to its start.  So the key (-l(w), min A)
strictly grows along every gradient step, and ``build_chain_complex``
lists the pairs of each degree by it, a gradient order that
``homology_of`` reduces in without a search.  The cells with A empty
are critical: one per w, with S the vertices outside the descent set of
w, all Red, in degree |Desc(w)|.  So the critical cells of degree k are
counted by the elements with k descents.

Cells are listed by colored set, then coloring, then rep
(``enumerate_cells``), so a cell's place is arithmetic: offset(S) +
t(red) * |W^S| + rank_S(w), with t(red) the Red bits of S read as a
binary number, the least vertex most significant.  Assembly walks each
degree's blocks (a colored set, its colorings, its reps) in that order,
reads no ``Cell``, and records as it goes each block's rows per coloring
and the place of each rep: the tables in which the degree above finds
its faces' rows, with no index of the cells.  Every boundary entry is
+-1, so the square-zero check compares, per column of d_k, the sorted
rows of the +1 terms of d_(k-1) d_k with those of the -1 terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, product

from .errors import ConfigError, CorruptComplexError, NotInSubgroupError, checked_index, checked_type
from .lie import WeylElement, WeylGroup, _group_of
from .matrices import IntMatrix
from .signs import _act, _odd_columns

RED = -1
BLUE = 1


@dataclass(frozen=True, slots=True)
class ColoredDynkinDiagram:
    """Coloring of a subset S of the diagram's vertices, as two bit masks.

    Bit v - 1 of ``mask`` marks vertex v as colored and bit v - 1 of ``red``
    marks it Red (-1); a colored vertex with a clear ``red`` bit is Blue (+1).
    Build a diagram from a vertex-to-sign map with :meth:`from_map`.
    """

    rank: int
    mask: int = 0
    red: int = 0

    def __post_init__(self):
        if not (isinstance(self.rank, int) and isinstance(self.mask, int)
                and isinstance(self.red, int) and self.rank >= 0):
            raise ConfigError(f"rank, mask and red must be ints, rank >= 0: got "
                              f"{self.rank!r}, {self.mask!r}, {self.red!r}")
        if not 0 <= self.mask < 1 << self.rank:
            raise ConfigError(f"colored-vertex mask {self.mask:#b} exceeds rank {self.rank}")
        if self.red & ~self.mask:
            raise ConfigError("Red vertices must be colored")

    @classmethod
    def from_map(cls, rank, eta):
        cls(rank)  # rejects a bad rank before the vertices are checked against it
        mask = red = 0
        for v, s in dict(eta).items():
            v = checked_index(v, 1, rank, "colored vertex")
            if s not in (RED, BLUE):
                raise ConfigError("colors must be +1 (Blue) or -1 (Red)")
            mask |= 1 << (v - 1)
            if s == RED:
                red |= 1 << (v - 1)
        return cls(rank, mask, red)

    @property
    def colored_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.rank + 1) if self.mask >> (v - 1) & 1)

    @property
    def uncolored(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.rank + 1) if not self.mask >> (v - 1) & 1)

    def eta(self, v: int) -> int:
        v = checked_index(v, 1, self.rank, "colored vertex")
        if not self.mask >> (v - 1) & 1:
            raise KeyError(f"vertex {v} is not colored")
        return RED if self.red >> (v - 1) & 1 else BLUE

    def color_string(self) -> str:
        """Full-length string over R/B/o, position i describing vertex i."""
        return "".join(
            "R" if self.red >> i & 1 else "B" if self.mask >> i & 1 else "o"
            for i in range(self.rank)
        )

    def __repr__(self):
        return f"ColoredDynkinDiagram({self.color_string()})"


@dataclass(frozen=True, slots=True)
class Cell:
    """Cell of the decomposition: diagram plus minimal coset representative."""

    diagram: ColoredDynkinDiagram
    rep: WeylElement

    @property
    def codim(self) -> int:
        return self.diagram.mask.bit_count()

    @property
    def dim(self) -> int:
        return self.diagram.rank - self.codim


def ws_act_on_diagram(x: WeylElement, diagram: ColoredDynkinDiagram) -> ColoredDynkinDiagram:
    """Color permutation induced by x in W_S on a diagram colored on S."""
    return ws_act_oriented(x, diagram)[1]


def ws_act_oriented(x: WeylElement, diagram: ColoredDynkinDiagram) -> tuple[int, ColoredDynkinDiagram]:
    """Color permutation together with the orientation sign of the gluing.

    x acts through its group's Cartan matrix, whose rank the diagram's must equal.
    """
    W = _group_of(x)
    if checked_type(diagram, ColoredDynkinDiagram).rank != W.rank:
        raise ConfigError(f"diagram of rank {diagram.rank} for a group of rank {W.rank}")
    S = diagram.mask
    for i in x.word:
        if not S >> (i - 1) & 1:
            raise NotInSubgroupError(
                f"letter {i} is not in the colored set {list(diagram.colored_vertices)}; "
                "element outside W_S"
            )
    sign, red = _act([i - 1 for i in reversed(x.word)], S, diagram.red, _odd_columns(W.cartan))
    return sign, ColoredDynkinDiagram(diagram.rank, S, red)


def diagram_boundary(
    diagram: ColoredDynkinDiagram, j: int, c: int
) -> tuple[int, ColoredDynkinDiagram]:
    """(j, c)-boundary: color the j-th uncolored vertex, Red if c=1, Blue if c=2.

    Returns ``((-1) ** (j + c + 1), new diagram)``.
    """
    uncolored = checked_type(diagram, ColoredDynkinDiagram).uncolored
    j = checked_index(j, 1, len(uncolored), "boundary index")
    c = checked_index(c, 1, 2, "color index")
    bit = 1 << (uncolored[j - 1] - 1)
    red = diagram.red | bit if c == 1 else diagram.red
    return (-1) ** (j + c + 1), ColoredDynkinDiagram(diagram.rank, diagram.mask | bit, red)


def _blocks(W: WeylGroup, codim: int):
    """The colored sets S of a codimension in basis order, each as its mask, its Red masks
    in basis order and the minimal coset reps of W_S.

    The sets run lexicographically and the colorings Blue before Red per vertex, the least
    vertex slowest, so a Red mask's place t(red) reads its bits with the least vertex most
    significant.
    """
    for S in combinations(range(1, W.rank + 1), codim):
        bits = [1 << (v - 1) for v in S]
        yield sum(bits), [sum(reds) for reds in product(*((0, b) for b in bits))], W.coset_min_reps(S)


def enumerate_cells(W: WeylGroup, codim: int) -> tuple[Cell, ...]:
    """All canonical cells of the given codimension, in basis order.

    Ordering: colored subset S lexicographically, then the coloring with
    Blue before Red per vertex, then coset representatives by
    (length, word).  The count is ``sum over |S|=codim of 2^codim * |W| / |W_S|``.
    """
    l = checked_type(W, WeylGroup).rank
    codim = checked_index(codim, 0, l, "codimension")
    out = []
    for S, reds, reps in _blocks(W, codim):
        for red in reds:
            diagram = ColoredDynkinDiagram(l, S, red)
            out += [Cell(diagram, rep) for rep in reps]
    return tuple(out)


def cell_count_formula(W: WeylGroup, codim: int) -> int:
    l = checked_type(W, WeylGroup).rank
    codim = checked_index(codim, 0, l, "codimension")
    return sum(
        2**codim * len(W) // W.parabolic_order(S)
        for S in combinations(range(1, l + 1), codim)
    )


@dataclass(frozen=True)
class ChainComplex:
    """Graded free Z-modules with integer boundary maps.

    ``bases[k]`` is the ordered basis in degree k (cell dimension k);
    ``boundaries[k]`` maps degree k to degree k-1, with ``boundaries[0]``
    the empty map out of degree 0.  ``matching`` is an acyclic matching
    to reduce along: ``matching[k]`` maps cells of C_k to their partners in
    C_(k+1), one dict for each degree below the top, or ``()`` for none.
    The cellular complex knows its matching from the colored diagrams, so
    ``homology_of`` need not search for pivots.  Each ``matching[k]``
    lists its pairs in a gradient order: every face of a partner that is
    paired upward, other than the partner's own, is listed later.
    Construction checks the shapes and the square-zero identity; the
    matching is checked where it is read, by ``homology_of``.
    """

    bases: tuple[tuple, ...]
    boundaries: tuple[IntMatrix, ...]
    matching: tuple[dict[int, int], ...] = ()

    def __post_init__(self):
        if len(self.bases) != len(self.boundaries):
            raise CorruptComplexError("bases and boundaries disagree in length")
        for k, mat in enumerate(self.boundaries):
            if mat.cols != len(self.bases[k]):
                raise CorruptComplexError(f"boundary {k} has wrong column count")
            want_rows = len(self.bases[k - 1]) if k > 0 else 0
            if mat.rows != want_rows:
                raise CorruptComplexError(f"boundary {k} has wrong row count")
        self.validate()

    @property
    def top_degree(self) -> int:
        return len(self.bases) - 1

    def rank(self, k: int) -> int:
        return len(self.bases[k])

    def ranks(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.bases)

    def boundary(self, k: int) -> IntMatrix:
        return self.boundaries[k]

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * len(b) for k, b in enumerate(self.bases))

    def validate(self) -> None:
        """Check the square-zero identity exactly; raise if it fails.

        No product matrix is formed.  Where every entry of d_k and of d_(k-1)
        is +-1, as in every cellular complex, the terms of d_(k-1) applied to
        a column of d_k are +-1 too, +1 exactly when their two entries are
        equal, so the column vanishes when the sorted rows of its +1 terms
        equal those of its -1 terms.  Any other degree (the Morse complex,
        with entries +-2, or a hand-built one) sums d_(k-1) applied to each
        column with ``IntMatrix.apply``.
        """
        units = [set(chain.from_iterable(map(dict.values, m.columns))) <= {1, -1}
                 for m in self.boundaries]
        for k in range(2, self.top_degree + 1):
            if units[k] and units[k - 1]:
                lower = self.boundaries[k - 1].columns
                for col in self.boundaries[k].columns:
                    plus, minus = [], []
                    for r, a in col.items():
                        for q, b in lower[r].items():
                            if a == b:
                                plus.append(q)
                            else:
                                minus.append(q)
                    plus.sort()
                    minus.sort()
                    if plus != minus:
                        raise CorruptComplexError(f"boundary composition at degree {k} is nonzero")
            else:
                lower = self.boundaries[k - 1]
                for col in self.boundaries[k].columns:
                    if any(lower.apply(col).values()):
                        raise CorruptComplexError(f"boundary composition at degree {k} is nonzero")


def build_chain_complex(W: WeylGroup) -> ChainComplex:
    """Cellular chain complex of the compactified manifold for W's type.

    Boundary of a cell (D, [w]): for each (j, c) the colored diagram gains
    a vertex with the literal sign, the coset is re-minimized in the larger
    parabolic, and the residual rep^-1 * w, spelled by the walk that finds
    rep, is pushed onto the diagram with its orientation sign.  Every face
    goes through one loop.  The Red and Blue faces of one j share the walk,
    which steps w -> w * s_(i+1) by each right descent i in S and applies
    ``signs._act``'s rule for letter i to both faces' Red masks at once; it
    takes no step exactly when the new vertex is not a descent of w (w has
    none in D's mask).  The rule needs two things that depend on S alone,
    tabled once per call: whether letter i flips the orientation (an odd
    count of odd C_{j,i} outside S) and its recolor ``odd[i] & S``.
    ``test_matches_tuple_indexed_reference`` holds this loop equal to a
    reference assembly that calls ``signs._act``.

    Degrees run from 0 up, each one walk over its blocks in basis order
    (``_blocks``); a block's face table is built once for its colored set,
    and its rows and rep places are recorded for the degree above.  A
    face's row is read from the degree below's, with no index of the
    cells; degree 0 has no faces, so its columns are empty.  A cell whose
    least vertex of A (module docstring) is uncolored is matched with its
    Blue face on that vertex, whose walk has no letters, and filed under
    the key (-l(w), min A) that the pair shares; each degree joins its
    pairs in key order when done.

    Each face is one entry, +-1, in a row of its own: faces with different
    j color different vertices, and the Red and Blue faces of one j share
    S, so the same residual letters, whose push is a bijection on Red
    masks: each letter's step is an involution, as it keeps its own bit
    (C_ii = 2 is even).
    """
    odd = _odd_columns(checked_type(W, WeylGroup).cartan)
    descents, right = W._descents, W._right
    l = W.rank
    full = (1 << l) - 1
    masks = range(full + 1)
    flips = [sum(((o & ~S).bit_count() & 1) << i for i, o in enumerate(odd)) for S in masks]
    inside = [[o & S for o in odd] for S in masks]
    lowest = [(d & -d).bit_length() - 1 for d in masks]
    bases = tuple(enumerate_cells(W, l - k) for k in range(l + 1))
    boundaries, matching, tables, size = [], [], {}, 0  # the degree below: its row tables, its size
    for k in range(l + 1):
        columns, placed, start, buckets = [], {}, 0, {}  # buckets: gradient key -> {face: cell}
        for mask, reds, reps in _blocks(W, l - k):
            D = ColoredDynkinDiagram(l, mask)
            uncolored = full ^ mask
            # per face j: the Red face's literal sign (the Blue face's is its negation),
            # the new vertex's bit, the colored mask S, S's row tables, flips and recolors
            fs = [(diagram_boundary(D, j, 1)[0], S ^ mask, S, tables[S], flips[S], inside[S])
                  for j, S in enumerate((mask | 1 << (v - 1) for v in D.uncolored), 1)]
            placed[mask] = here, rank = {}, [None] * len(W)  # read by the degree above
            for r, rep in enumerate(reps):
                rank[rep.position] = r
            for red in reds:
                here[red] = rows = list(range(start, start + len(reps)))
                start += len(reps)
                blue = mask ^ red
                for i, rep in zip(rows, reps):
                    w = rep.position
                    free = uncolored & ~descents[w]
                    A = blue | free
                    down = A & -A & free  # the least vertex of A if it is uncolored, else 0
                    column: dict[int, int] = {}
                    for sgn_red, bit, S, (by_red, rank_S), flip, recolor in fs:
                        x, red_face, blue_face, sgn_blue = w, red | bit, red, -sgn_red
                        while d := descents[x] & S:  # no step when the new vertex is not in Desc(w)
                            letter = lowest[d]
                            x = right[x][letter]
                            if red_face >> letter & 1:
                                if flip >> letter & 1:
                                    sgn_red = -sgn_red
                                red_face ^= recolor[letter]
                            if blue_face >> letter & 1:
                                if flip >> letter & 1:
                                    sgn_blue = -sgn_blue
                                blue_face ^= recolor[letter]
                        r = rank_S[x]
                        column[by_red[red_face][r]] = sgn_red
                        r = by_red[blue_face][r]
                        column[r] = sgn_blue
                        if bit == down:  # key (-l(w), min A), shared by the pair
                            buckets.setdefault(down - (rep.length << l), {})[r] = i
                    columns.append(column)
        boundaries.append(IntMatrix.from_columns(size, columns))
        tables, size = placed, start
        del fs  # frees the degree below's tables before the join
        matching.append({t: i for key in sorted(buckets) for t, i in buckets[key].items()})
    return ChainComplex(bases, tuple(boundaries), tuple(matching[1:]))  # degree 0 has no pairs
