"""Morse data on the Weyl group: critical points, the Toda graph,
algebraic transversality, incidence numbers, the Morse complex, and the
principal-cell combinatorics of the A-series.

Critical points are Weyl elements.  A simple root is unstable for ``a``
when right multiplication by its reflection increases length; the index
is the number of unstable roots.  Incidence numbers live in {0, +2, -2}.

The sigma count in the incidence formula admits two readings of the
sign-change criterion; the shipped default ("value": count coordinates
that end at -1) reproduces the closed form for top-cell incidences and
makes the rank-2 Morse homology match the cellular one.  The alternate
reading ("flip": count coordinates that change sign) is kept behind the
``interpretation`` switch.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, product
from math import comb

from .cells import ChainComplex
from .errors import ConfigError, CorruptComplexError, IncidenceError
from .lie import WeylElement, WeylGroup
from .matrices import IntMatrix
from .signs import apply_weyl

SIGMA_INTERPRETATIONS = ("value", "flip")

MAX_PRINCIPAL_RANK = 20


@dataclass(frozen=True)
class CriticalPoint:
    element: WeylElement
    unstable: frozenset
    stable: frozenset

    @property
    def index(self) -> int:
        return len(self.unstable)

    @property
    def label(self) -> str:
        l = self.element.group.rank
        return "".join("*" if i in self.unstable else "0" for i in range(1, l + 1))


@dataclass(frozen=True)
class MorseEdge:
    source: WeylElement
    target: WeylElement
    incidence: int


@dataclass(frozen=True)
class TodaGraph:
    """Directed graph on W: an edge a -> a s_i whenever the length grows."""

    vertices: tuple[WeylElement, ...]
    edges: tuple[tuple[WeylElement, WeylElement, int], ...]


def unstable_set(a: WeylElement) -> frozenset:
    return frozenset(range(1, a.group.rank + 1)) - stable_set(a)


def stable_set(a: WeylElement) -> frozenset:
    W = a.group
    return frozenset(
        i for i in range(1, W.rank + 1) if W.sends_simple_root_negative(a, i)
    )


def critical_point(a: WeylElement) -> CriticalPoint:
    return CriticalPoint(a, unstable_set(a), stable_set(a))


def label(a: WeylElement) -> str:
    return critical_point(a).label


def index(a: WeylElement) -> int:
    return len(unstable_set(a))


def toda_graph(W: WeylGroup) -> TodaGraph:
    edges = []
    for a in W.elements:
        for i in sorted(unstable_set(a)):
            edges.append((a, W.multiply(a, W.simple_reflection(i)), i))
    return TodaGraph(W.elements, tuple(edges))


def is_transversal(a: WeylElement, b: WeylElement) -> bool:
    """Algebraic transversality of the connection a -> b (three conditions).

    The third asks that the cosets a W_A and b W_B meet, for A the unstable
    set of a and B the stable set of b (they then meet in a coset of
    W_(A&B)).  They meet iff a^-1 b is in W_A W_B, iff the minimal
    representative of a^-1 b W_B is in W_A: a right descent of u in W_A
    is a letter of A, so reducing u v (v in W_B) never leaves W_A.
    """
    if a.group is not b.group:
        raise ConfigError("elements from different groups")
    W = a.group
    ua = unstable_set(a)
    sb = stable_set(b)
    if len(ua & sb) != index(a) - index(b):
        return False
    if W.parabolic_order(ua | sb) != len(W):
        return False
    return ua.issuperset(W.min_coset_rep(W.multiply(W.inverse(a), b), sb).word)


def incidence(a: WeylElement, b: WeylElement, interpretation: str = "value") -> int:
    """Incidence number of a transversal connection with index drop one.

    Initial signs are -1 exactly on the single root i unstable for ``a``
    and stable for ``b``; they are transported by a^-1 b and the parity
    of the flagged unstable coordinates decides between 0 and +-2.  The
    nonzero value is ``2 * (-1) ** (length(b) + p)`` where p is the
    position of i within the zeros of ``b`` nested over those of ``a``
    (p = 1 plus the number of a-stable roots below i).  For a = e this
    agrees with the closed form 2 (-1)^(i+1) (1 - delta) on both
    top-cell families; the position reading, rather than the absolute
    root index, is what makes the boundary square to zero through rank 3
    and keeps the two families sign-symmetric at every rank.
    """
    if interpretation not in SIGMA_INTERPRETATIONS:
        raise ConfigError(f"unknown sigma interpretation {interpretation!r}")
    W = a.group
    if W is not b.group:
        raise ConfigError("elements from different groups")
    ua = unstable_set(a)
    sb = stable_set(b)
    if index(a) != index(b) + 1:
        raise IncidenceError("incidence needs index(a) == index(b) + 1")
    inter = ua & sb
    if len(inter) != 1:
        raise IncidenceError("incidence needs a single shared direction")
    if not is_transversal(a, b):
        raise IncidenceError("connection is not transversal")
    (i,) = inter
    eps = tuple(-1 if j in inter else 1 for j in range(1, W.rank + 1))
    x = W.multiply(W.inverse(a), b)
    eps2 = apply_weyl(x, eps, W.cartan)
    if interpretation == "value":
        sigma = sum(1 for j in ua if eps2[j - 1] == -1)
    else:
        sigma = sum(1 for j in ua if eps[j - 1] * eps2[j - 1] < 0)
    nested_pos = 1 + sum(1 for j in stable_set(a) if j < i)
    return (1 + (-1) ** sigma) * (-1) ** (b.length + nested_pos)


def is_abelian_unstable(a: WeylElement) -> bool:
    """Whether the unstable parabolic subgroup is abelian (cycle predicate)."""
    W = a.group
    elems = W.parabolic_elements(unstable_set(a))
    for u in elems:
        for v in elems:
            if W.multiply(u, v) is not W.multiply(v, u):
                return False
    return True


def _by_index(W: WeylGroup) -> tuple[tuple[WeylElement, ...], ...]:
    return tuple(tuple(w for w in W.elements if index(w) == k) for k in range(W.rank + 1))


def morse_smale_edges(W: WeylGroup, interpretation: str = "value") -> tuple[MorseEdge, ...]:
    """All transversal index-drop-one connections, with incidence numbers."""
    bases = _by_index(W)
    return tuple(
        MorseEdge(a, b, incidence(a, b, interpretation))
        for k in range(W.rank, 0, -1)
        for a in bases[k]
        for b in bases[k - 1]
        if is_transversal(a, b)
    )


def _complex_from_edges(W: WeylGroup, edges) -> ChainComplex:
    """Morse chain complex graded by index, with the edges' nonzero incidences."""
    bases = _by_index(W)
    pos = {w: i for basis in bases for i, w in enumerate(basis)}
    entries: list[dict] = [{} for _ in bases]
    for e in edges:
        if e.incidence:
            entries[index(e.source)][(pos[e.target], pos[e.source])] = e.incidence
    sizes = (0, *map(len, bases))
    matrices = (IntMatrix(sizes[k], sizes[k + 1], entries[k]) for k in range(len(bases)))
    return ChainComplex(bases, tuple(matrices))


def morse_complex(W: WeylGroup, interpretation: str = "value") -> ChainComplex:
    """Morse chain complex over the critical points, graded by index."""
    return _complex_from_edges(W, morse_smale_edges(W, interpretation))


# -- principal cells of the A series ----------------------------------------


@dataclass(frozen=True)
class PrincipalCell:
    """Face of a seed hypercube.

    ``seed`` = (i, j) with i + j <= l - 1 names the component whose top
    cell carries the label ``0^i *^(l-i-j) 0^j``.  ``face`` fixes some of
    the cube axes to +1 or -1; None leaves an axis free.  The cell sits
    in grade (number of free axes) + 1.
    """

    seed: tuple[int, int]
    face: tuple

    @property
    def cube_dim(self) -> int:
        return sum(1 for x in self.face if x is None)

    @property
    def grade(self) -> int:
        return self.cube_dim + 1


@dataclass(frozen=True)
class PrincipalGraph:
    """Disjoint hypercube components carrying the principal-cell complex."""

    rank: int
    seeds: tuple[tuple[int, int], ...]
    cells: tuple[PrincipalCell, ...]

    def seed_cube_dim(self, seed) -> int:
        i, j = seed
        return self.rank - i - j - 1

    def seed_label(self, seed) -> str:
        i, j = seed
        return "0" * i + "*" * (self.rank - i - j) + "0" * j

    def cells_of_grade(self, k: int) -> tuple[PrincipalCell, ...]:
        return tuple(c for c in self.cells if c.grade == k)

    def counts(self) -> tuple[int, ...]:
        """counts[k-1] = number of cells in grade k, k = 1..rank."""
        out = [0] * self.rank
        for c in self.cells:
            out[c.grade - 1] += 1
        return tuple(out)

    def boundary_coefficients(self, cell: PrincipalCell):
        """Pairs (coefficient, subcell) fixing one free axis both ways.

        The k-th free axis carries coefficient ``2 * (-1) ** (k + 1)`` on
        both of its facets; the would-be top term is dropped, so grade-1
        cells are cycles.
        """
        free = [p for p, x in enumerate(cell.face) if x is None]
        out = []
        for k, p in enumerate(free, start=1):
            coeff = 2 * (-1) ** (k + 1)
            for s in (1, -1):
                face = list(cell.face)
                face[p] = s
                out.append((coeff, PrincipalCell(cell.seed, tuple(face))))
        return out

    def boundary_matrix(self, k: int) -> IntMatrix:
        """Boundary from grade k to grade k-1 (grades are 1-based)."""
        src = self.cells_of_grade(k)
        dst = self.cells_of_grade(k - 1)
        pos = {c: i for i, c in enumerate(dst)}
        entries = {}
        for col, cell in enumerate(src):
            for coeff, sub in self.boundary_coefficients(cell):
                key = (pos[sub], col)
                entries[key] = entries.get(key, 0) + coeff
        return IntMatrix(len(dst), len(src), {k2: v for k2, v in entries.items() if v})


def principal_graph(l: int) -> PrincipalGraph:
    """The l(l+1)/2 hypercube components of principal cells for rank l."""
    _check_principal_rank(l)
    seeds = tuple((i, j) for i in range(l) for j in range(l - i))
    cells = []
    for seed in seeds:
        i, j = seed
        m = l - i - j - 1
        for face in product((None, 1, -1), repeat=m):
            cells.append(PrincipalCell(seed, face))
    return PrincipalGraph(l, seeds, tuple(cells))


def _check_principal_rank(l: int) -> None:
    if not isinstance(l, int) or l < 1:
        raise ConfigError(f"rank must be a positive integer, got {l!r}")
    if l > MAX_PRINCIPAL_RANK:
        raise ConfigError(f"principal-cell combinatorics capped at rank {MAX_PRINCIPAL_RANK}")


def poincare_polynomial(l: int) -> tuple[int, ...]:
    """Coefficients (ascending) of sum over n of n (q+2)^(l-n).

    The coefficient of q^(k-1) counts the grade-k principal cells.
    """
    _check_principal_rank(l)
    coeffs = [0] * l
    for n in range(1, l + 1):
        for t in range(l - n + 1):
            coeffs[t] += n * comb(l - n, t) * 2 ** (l - n - t)
    return tuple(coeffs)


def betti_one(l: int) -> int:
    """Free rank of first homology, computed by three routes that must agree."""
    _check_principal_rank(l)
    closed = l * (l + 1) // 2
    coeffs = poincare_polynomial(l)
    at_minus_one = sum(c * (-1) ** t for t, c in enumerate(coeffs))
    z1 = 2 ** (l + 1) - (l + 2)
    b1 = sum((l - n) * (2**n - 1) for n in range(1, l))
    routes = (closed, at_minus_one, z1 - b1)
    if len(set(routes)) != 1:
        raise CorruptComplexError(f"betti_one routes disagree: {routes}")
    return closed


def _count_exact_ascent_set(l: int, T: tuple) -> int:
    """Elements of the rank-l A-series Weyl group whose unstable set is T.

    Permutations of l+1 letters with ascent set exactly T, by the
    descent-set recursion: f[j] counts the arrangements of the first
    letters whose last letter ranks j among them.  No group enumeration.
    """
    f = [1]
    for p in range(1, l + 1):
        pre = [0, *accumulate(f)]
        f = pre if p in T else [pre[-1] - s for s in pre]
    return sum(f)


def _star_sets_with_blocks(l: int, k: int, total_stars: int):
    """Subsets of 1..l with exactly k maximal blocks and the given size."""
    out = []

    def place(start, blocks_left, stars_left, acc):
        if blocks_left == 0:
            if stars_left == 0:
                out.append(tuple(acc))
            return
        min_tail = (blocks_left - 1) * 2  # later blocks need a gap and a star
        for begin in range(start, l + 1):
            for size in range(1, stars_left - (blocks_left - 1) + 1):
                end = begin + size - 1
                if end > l or end + min_tail > l:
                    break
                place(end + 2, blocks_left - 1, stars_left - size, acc + list(range(begin, end + 1)))

    place(1, k, total_stars, [])
    return out


def conjectured_betti(l: int, k: int) -> int:
    """Alternating whisker-count sum for the k-th Betti number (conjectural
    for k >= 2).  Returns 0 beyond k > (l+1)/2."""
    _check_principal_rank(l)
    if k < 1:
        raise ConfigError("degree k must be >= 1")
    if 2 * k > l + 1:
        return 0
    total = 0
    for n in range(k, l - k + 2):
        for T in _star_sets_with_blocks(l, k, n):
            total += (-1) ** (n - k) * _count_exact_ascent_set(l, T)
    return total
