"""Morse data on the Weyl group: critical points, the Toda graph,
algebraic transversality, incidence numbers, the Morse complex, and the
principal-cell combinatorics of the A-series.

Critical points are Weyl elements; the stable roots of ``a`` are its right
descents and the index counts the others.  The Morse-Smale scan is keyed by
stable set: it lists each stable set's targets once and inverts each source
once.  One walk of a^-1 b tests a pair and pushes the sign mask of its
incidence as it goes, with no letter list; the scan, ``is_transversal`` and
``incidence`` share it.  The A-series Betti sums are transfer sums over block
states.

The incidence (1 + (-1)^sigma) * (+-1) counts in sigma the unstable
coordinates of ``a`` whose transported sign ends at -1.  This reading
gives the closed form on both top-cell families, and its Morse homology
matches the cellular one for A1, A2 and A3.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, product
from math import comb
from operator import add, sub

from .cells import ChainComplex, _group
from .errors import ConfigError, CorruptComplexError, IncidenceError
from .lie import _FOREIGN, WeylElement, WeylGroup
from .matrices import IntMatrix
from .signs import _odd_columns

MAX_PRINCIPAL_RANK = 20  # closed forms
MAX_PRINCIPAL_GRAPH_RANK = 12  # principal_graph stores about 0.75 * 3^l faces


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
    return frozenset(i + 1 for i in range(a.group.rank) if a.group._descents[a.position] >> i & 1)


def label(a: WeylElement) -> str:
    """One character per simple root: '0' if stable (a right descent), '*' if unstable."""
    sa = a.group._descents[a.position]
    return "".join("0" if sa >> i & 1 else "*" for i in range(a.group.rank))


def index(a: WeylElement) -> int:
    return a.group.rank - a.group._descents[a.position].bit_count()


def toda_graph(W: WeylGroup) -> TodaGraph:
    W = _group(W)
    edges = []
    for a in W.elements:
        row, sa = W._right[a.position], W._descents[a.position]
        edges.extend((a, W.elements[row[i]], i + 1) for i in range(W.rank) if not sa >> i & 1)
    return TodaGraph(W.elements, tuple(edges))


def _connect(W: WeylGroup, a_inv: int, b: WeylElement, sa: int, odd) -> int | None:
    """Red mask of a^-1 b (a_inv the position of a^-1, b stable on a's stable roots sa and
    more), or None if a W_A and b W_B do not meet.  One walk runs a^-1 along b's word, then
    down to e by right descents in B = stable(b), then in A = unstable(a) (W_A's descents lie
    in A).  Red starts as B outside sa, and each Red letter c taken down flips odd[c]:
    ``signs._act`` on S = all roots, which flips no orientation."""
    right, descents = W._right, W._descents
    x = a_inv
    for c in b.word:
        x = right[x][c - 1]
    sb = descents[b.position]
    red = sb & ~sa
    for mask in (sb, ~sa):
        while d := descents[x] & mask:
            c = (d & -d).bit_length() - 1
            if red >> c & 1:
                red ^= odd[c]
            x = right[x][c]
    return None if x else red


def _value(b: WeylElement, sa: int, i: int, red: int) -> int:
    """Incidence of a -> b from the Red mask of a^-1 b, i the root b adds to a's stable set."""
    if (red & ~sa).bit_count() & 1:
        return 0
    return 2 * (-1) ** (b.length + 1 + (sa & i - 1).bit_count())


def is_transversal(a: WeylElement, b: WeylElement) -> bool:
    """Algebraic transversality of the connection a -> b (three conditions).

    For A the unstable set of a and B the stable set of b: |A & B| is the
    index drop, A | B is every simple root (W_(A|B) = W only then), and
    the cosets a W_A and b W_B meet (then in a coset of W_(A&B)).
    """
    W = getattr(a, "group", None)
    if W is None or getattr(b, "group", None) is not W:
        raise ConfigError(_FOREIGN)
    full = (1 << W.rank) - 1
    sa, sb = W._descents[a.position], W._descents[b.position]
    ua = full ^ sa
    if (ua & sb).bit_count() != index(a) - index(b) or ua | sb != full:
        return False
    return _connect(W, W.inverse(a).position, b, sa, _odd_columns(W.cartan)) is not None


def incidence(a: WeylElement, b: WeylElement) -> int:
    """Incidence number of a transversal connection with index drop one.

    Initial signs are -1 exactly on the single root i unstable for ``a``
    and stable for ``b``; they are transported by a^-1 b, and sigma counts
    the unstable roots of ``a`` whose transported sign is -1.  The
    incidence is 0 when sigma is odd, else ``2 * (-1) ** (length(b) + p)``
    where p is the position of i within the zeros of ``b`` nested over
    those of ``a`` (p = 1 plus the number of a-stable roots below i).
    For a = e this agrees with the closed form 2 (-1)^(i+1) (1 - delta)
    on both top-cell families; the position reading, rather than the
    absolute root index, is what makes the boundary square to zero
    through rank 3 and keeps the two families sign-symmetric at every
    rank.
    """
    W = getattr(a, "group", None)
    if W is None or getattr(b, "group", None) is not W:
        raise ConfigError(_FOREIGN)
    if index(a) != index(b) + 1:
        raise IncidenceError("incidence needs index(a) == index(b) + 1")
    sa = W._descents[a.position]
    i = ~sa & W._descents[b.position]
    if i.bit_count() != 1:
        raise IncidenceError("incidence needs a single shared direction")
    # The first two transversality conditions now hold.
    red = _connect(W, W.inverse(a).position, b, sa, _odd_columns(W.cartan))
    if red is None:
        raise IncidenceError("connection is not transversal")
    return _value(b, sa, i, red)


def is_abelian_unstable(a: WeylElement) -> bool:
    """Whether the unstable parabolic subgroup is abelian (its generators commute)."""
    W, u = a.group, sorted(unstable_set(a))
    return all(W._walk(0, (i, j)) == W._walk(0, (j, i)) for i in u for j in u)


def morse_smale_edges(W: WeylGroup) -> tuple[MorseEdge, ...]:
    """All transversal index-drop-one connections with incidences, by falling source index, then
    position.  Conditions 1-2 make b stable on a's stable roots plus one, the only sets tried;
    the targets of each stable set are listed once, by position."""
    W = _group(W)
    odd = _odd_columns(W.cartan)
    by_stable: dict[int, list[WeylElement]] = {}
    for w in W.elements:
        by_stable.setdefault(W._descents[w.position], []).append(w)
    targets: dict[int, list[WeylElement]] = {}
    edges = []
    for a in sorted(W.elements, key=index, reverse=True):
        sa, a_inv = W._descents[a.position], W.inverse(a).position
        if (bs := targets.get(sa)) is None:
            ups = (sa | 1 << i for i in range(W.rank) if not sa >> i & 1)
            bs = targets[sa] = sorted((b for s in ups for b in by_stable.get(s, ())),
                                      key=lambda w: w.position)
        for b in bs:
            if (red := _connect(W, a_inv, b, sa, odd)) is not None:
                edges.append(MorseEdge(a, b, _value(b, sa, W._descents[b.position] & ~sa, red)))
    return tuple(edges)


def _complex_from_edges(W: WeylGroup, edges) -> ChainComplex:
    """Morse chain complex graded by index, with the edges' nonzero incidences."""
    bases = tuple(tuple(w for w in W.elements if index(w) == k) for k in range(W.rank + 1))
    pos = {w: i for basis in bases for i, w in enumerate(basis)}
    columns = [[{} for _ in basis] for basis in bases]
    for e in edges:
        if e.incidence:
            columns[index(e.source)][pos[e.source]][pos[e.target]] = e.incidence
    sizes = (0, *map(len, bases))
    matrices = (IntMatrix.from_columns(sizes[k], columns[k]) for k in range(len(bases)))
    return ChainComplex(bases, tuple(matrices))


def morse_complex(W: WeylGroup) -> ChainComplex:
    """Morse chain complex over the critical points, graded by index."""
    return _complex_from_edges(W, morse_smale_edges(W))


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
        columns = []
        for cell in src:
            column: dict[int, int] = {}
            for coeff, sub in self.boundary_coefficients(cell):
                r = pos[sub]
                column[r] = column.get(r, 0) + coeff
            columns.append({r: v for r, v in column.items() if v})
        return IntMatrix.from_columns(len(dst), columns)


def principal_graph(l: int) -> PrincipalGraph:
    """The l(l+1)/2 hypercube components of principal cells for rank l."""
    _check_principal_rank(l)
    if l > MAX_PRINCIPAL_GRAPH_RANK:
        raise ConfigError(f"principal graph capped at rank {MAX_PRINCIPAL_GRAPH_RANK}")
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


def conjectured_betti(l: int, k: int) -> int:
    """Alternating whisker-count sum for the k-th Betti number (conjectural
    for k >= 2).  Returns 0 beyond k > (l+1)/2; an integral float such as 2.0 is read as 2.

    The sum runs over the masks T of simple roots with k maximal blocks, of
    (-1)^(|T| - k) times the number of elements of the rank-l A-series Weyl
    group whose unstable set is T.  That number comes from the descent-set
    recursion on permutations of l+1 letters: f[j] counts the arrangements
    of the first letters whose last letter ranks j among them, and root p
    maps f to pre = [0, *accumulate(f)] if p is in T, else to
    [pre[-1] - s for s in pre].  Both maps are linear, so the masks are not
    listed: for each count j of blocks so far, the signed prefixes whose
    last root lies outside T (out[j]) or inside it (ins[j]) move forward as
    one vector.  A root outside T takes out[j] + ins[j] to out[j]; a root in
    T starts a block from out[j-1] with the same sign or continues one from
    ins[j] with the sign flipped.  That is O(l^2 k) additions.

    By Henderson's theorem on the real toric variety of the type-A Coxeter
    complex (A. Henderson, "Rational cohomology of the real Coxeter toric
    variety of type A", Configuration Spaces, CRM Series, 2012) the
    value is C(l+1, 2k) times the Euler zigzag number E_2k.
    """
    _check_principal_rank(l)
    if not (k >= 1 and k % 1 == 0):  # nan and inf fail too
        raise ConfigError(f"degree k must be an integer >= 1, got {k!r}")
    k = int(k)
    if 2 * k > l + 1:
        return 0
    out, ins = [[1]] + [[0]] * k, [[0]] * (k + 1)
    for p in range(1, l + 1):
        pres = [[0, *accumulate(map(add, o, i))] for o, i in zip(out, ins)]
        ins = [[0] * (p + 1)] + [[0, *accumulate(map(sub, o, i))] for o, i in zip(out, ins[1:])]
        out = [[pre[-1] - s for s in pre] for pre in pres]
    return sum(out[k]) + sum(ins[k])
