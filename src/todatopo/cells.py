"""Colored Dynkin diagrams, cells, and the cellular chain complex.

A colored diagram (S, eta) marks a subset S of simple roots Red (-1) or
Blue (+1) and labels a cell of codimension |S|; the cell carries the
minimal-length representative of a left coset w * W_S.  Boundaries color
one more vertex, with the literal sign ``(-1) ** (j + c + 1)`` where j
counts uncolored vertices in increasing root order and c = 1 colors Red,
c = 2 Blue.

Pushing a residual x in W_S through a diagram runs ``signs._act`` on its
(S, Red) masks: the sign action on the colored coordinates and, per letter
s_i, an orientation factor ``eta(i) ** (sum of C_{j,i} over uncolored j, mod 2)``,
the determinant of the wall-gluing map on the cell's free coordinates.
With it the boundary squares to zero and the rank-2 A-type complex
reproduces the gold homology (Z, Z^3 + Z/2, 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .errors import ConfigError, CorruptComplexError, NotInSubgroupError
from .lie import CartanMatrix, WeylElement, WeylGroup
from .matrices import IntMatrix
from .signs import _act, _odd_columns

RED = -1
BLUE = 1

_COLOR_CHARS = {RED: "R", BLUE: "B"}


@dataclass(frozen=True)
class ColoredDynkinDiagram:
    """Coloring map on a subset of the diagram's vertices.

    ``colors`` holds (vertex, sign) pairs sorted by vertex, sign in {+1, -1}.
    """

    rank: int
    colors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        seen = set()
        for v, s in self.colors:
            if not 1 <= v <= self.rank:
                raise ConfigError(f"colored vertex {v} out of range 1..{self.rank}")
            if s not in (RED, BLUE):
                raise ConfigError("colors must be +1 (Blue) or -1 (Red)")
            seen.add(v)
        if len(seen) != len(self.colors):
            raise ConfigError("duplicate colored vertex")
        if tuple(sorted(self.colors)) != self.colors:
            raise ConfigError("colors must be sorted by vertex")

    @classmethod
    def from_map(cls, rank, eta):
        return cls(rank, tuple(sorted((int(v), int(s)) for v, s in dict(eta).items())))

    @property
    def S(self) -> frozenset:
        return frozenset(v for v, _ in self.colors)

    @property
    def colored_vertices(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.colors)

    @property
    def uncolored(self) -> tuple[int, ...]:
        s = self.S
        return tuple(i for i in range(1, self.rank + 1) if i not in s)

    def eta(self, v: int) -> int:
        for u, s in self.colors:
            if u == v:
                return s
        raise KeyError(f"vertex {v} is not colored")

    def with_color(self, v: int, sign: int) -> "ColoredDynkinDiagram":
        if v in self.S:
            raise ConfigError(f"vertex {v} is already colored")
        return ColoredDynkinDiagram(self.rank, tuple(sorted(self.colors + ((v, sign),))))

    def color_string(self) -> str:
        """Full-length string over R/B/o, position i describing vertex i."""
        eta = dict(self.colors)
        return "".join(_COLOR_CHARS.get(eta.get(i), "o") for i in range(1, self.rank + 1))

    def __repr__(self):
        return f"ColoredDynkinDiagram({self.color_string()})"


@dataclass(frozen=True)
class Cell:
    """Cell of the decomposition: diagram plus minimal coset representative."""

    diagram: ColoredDynkinDiagram
    rep: WeylElement

    @property
    def codim(self) -> int:
        return len(self.diagram.colors)

    @property
    def dim(self) -> int:
        return self.diagram.rank - self.codim


def _masks(diagram: ColoredDynkinDiagram) -> tuple[int, int]:
    """The colored set and the Red vertices of a diagram, as bit masks."""
    S = red = 0
    for v, s in diagram.colors:
        S |= 1 << (v - 1)
        if s == RED:
            red |= 1 << (v - 1)
    return S, red


def ws_act_on_diagram(
    x: WeylElement, diagram: ColoredDynkinDiagram, C: CartanMatrix
) -> ColoredDynkinDiagram:
    """Color permutation induced by x in W_S on a diagram colored on S."""
    return ws_act_oriented(x, diagram, C)[1]


def ws_act_oriented(
    x: WeylElement, diagram: ColoredDynkinDiagram, C: CartanMatrix
) -> tuple[int, ColoredDynkinDiagram]:
    """Color permutation together with the orientation sign of the gluing."""
    S = diagram.S
    for i in x.word:
        if i not in S:
            raise NotInSubgroupError(
                f"letter {i} is not in the colored set {sorted(S)}; element outside W_S"
            )
    smask, red = _masks(diagram)
    sign, red = _act([i - 1 for i in reversed(x.word)], smask, red, _odd_columns(C))
    colors = tuple((v, RED if red >> (v - 1) & 1 else BLUE) for v, _ in diagram.colors)
    return sign, ColoredDynkinDiagram(diagram.rank, colors)


def diagram_boundary(
    diagram: ColoredDynkinDiagram, j: int, c: int
) -> tuple[int, ColoredDynkinDiagram]:
    """(j, c)-boundary: color the j-th uncolored vertex, Red if c=1, Blue if c=2.

    Returns ``((-1) ** (j + c + 1), new diagram)``.
    """
    uncolored = diagram.uncolored
    if not 1 <= j <= len(uncolored):
        raise ConfigError(f"boundary index {j} out of range 1..{len(uncolored)}")
    if c not in (1, 2):
        raise ConfigError("color index must be 1 (Red) or 2 (Blue)")
    v = uncolored[j - 1]
    sign = (-1) ** (j + c + 1)
    return sign, diagram.with_color(v, (-1) ** c)


def enumerate_cells(W: WeylGroup, codim: int) -> tuple[Cell, ...]:
    """All canonical cells of the given codimension, in basis order.

    Ordering: colored subset S lexicographically, then the coloring with
    Blue before Red per vertex, then coset representatives by
    (length, word).  The count is ``sum over |S|=codim of 2^codim * |W| / |W_S|``.
    """
    l = W.rank
    if not 0 <= codim <= l:
        raise ConfigError(f"codimension {codim} out of range 0..{l}")
    out = []
    for S in combinations(range(1, l + 1), codim):
        reps = W.coset_min_reps(S)
        for signs in product((BLUE, RED), repeat=codim):
            diagram = ColoredDynkinDiagram(l, tuple(zip(S, signs)))
            for rep in reps:
                out.append(Cell(diagram, rep))
    return tuple(out)


def cell_count_formula(W: WeylGroup, codim: int) -> int:
    l = W.rank
    return sum(
        2**codim * len(W) // W.parabolic_order(S)
        for S in combinations(range(1, l + 1), codim)
    )


@dataclass(frozen=True)
class ChainComplex:
    """Graded free Z-modules with integer boundary maps.

    ``bases[k]`` is the ordered basis in degree k (cell dimension k);
    ``boundaries[k]`` maps degree k to degree k-1, with ``boundaries[0]``
    the empty map out of degree 0.  Construction checks the shapes and the
    square-zero identity.
    """

    bases: tuple[tuple, ...]
    boundaries: tuple[IntMatrix, ...]

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
        """Check the square-zero identity exactly; raise if it fails."""
        for k in range(1, self.top_degree + 1):
            if k >= 2 and not self.boundaries[k - 1].matmul(self.boundaries[k]).is_zero():
                raise CorruptComplexError(f"boundary composition at degree {k} is nonzero")


def build_chain_complex(W: WeylGroup) -> ChainComplex:
    """Cellular chain complex of the compactified manifold for W's type.

    Boundary of a cell (D, [w]): for each (j, c) the colored diagram gains
    a vertex with the literal sign, the coset is re-minimized in the larger
    parabolic, and the residual rep^-1 * w, spelled by the walk that finds
    rep, is pushed onto the diagram with its orientation sign.
    """
    odd = _odd_columns(W.cartan)
    l = W.rank
    bases = tuple(enumerate_cells(W, l - k) for k in range(l + 1))
    index = [
        {(*_masks(cell.diagram), cell.rep.position): i for i, cell in enumerate(basis)}
        for basis in bases
    ]
    boundaries = [IntMatrix(0, len(bases[0]), {})]
    for k in range(1, l + 1):
        acc: dict[tuple[int, int], int] = {}
        faces: dict[ColoredDynkinDiagram, list] = {}
        for col, cell in enumerate(bases[k]):
            D = cell.diagram
            if D not in faces:
                faces[D] = [
                    (sgn, *_masks(face))
                    for j in range(1, len(D.uncolored) + 1)
                    for sgn, face in (diagram_boundary(D, j, 1), diagram_boundary(D, j, 2))
                ]
            for sgn, S, red in faces[D]:
                rep, letters = W._coset_walk(cell.rep.position, S)
                osgn, red = _act(letters, S, red, odd)
                key = (index[k - 1][(S, red, rep)], col)
                acc[key] = acc.get(key, 0) + sgn * osgn
        entries = {key: v for key, v in acc.items() if v}
        boundaries.append(IntMatrix(len(bases[k - 1]), len(bases[k]), entries))
    return ChainComplex(bases, tuple(boundaries))
