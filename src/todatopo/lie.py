"""Cartan matrices and finite Weyl groups.

The group is enumerated once, by a breadth-first search on the orbit of
rho, on which it acts simply transitively; the search finds the elements
in (length, word) order, and an element is its position in that order.
Products, inverses and coset representatives are walks along one table
of right multiplications by simple reflections.  Each element keeps its
length and its lexicographically smallest reduced word, the canonical
serialized form.  Simple roots are one-indexed throughout the public API
(an index outside 1..rank raises ``NotInSubgroupError``) and node
numbering follows the Bourbaki tables.

The convention for the matrix is ``entry(i, j) = <alpha_i, coroot(alpha_j)>``,
so a simple reflection acts on simple roots by
``s_i(alpha_j) = alpha_j - entry(j, i) * alpha_i``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import (
    ConfigError,
    GroupOrderCapError,
    InvalidCartanMatrixError,
    NotInSubgroupError,
    UnsupportedTypeError,
    checked_index,
)

DEFAULT_MAX_ORDER = 51840
MAX_ORDER_ENV = "TODATOPO_MAX_WEYL_ORDER"
_FOREIGN = "elements from different groups, or not Weyl elements"

_RANK_RANGES = {
    "A": (1, 16),
    "B": (2, 16),
    "C": (2, 16),
    "D": (3, 16),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def _validate_cartan(entries):
    l = len(entries)
    if l == 0:
        raise InvalidCartanMatrixError("empty matrix")
    for row in entries:
        if len(row) != l:
            raise InvalidCartanMatrixError("matrix is not square")
        for x in row:
            if not isinstance(x, int):
                raise InvalidCartanMatrixError("entries must be integers")
    for i in range(l):
        if entries[i][i] != 2:
            raise InvalidCartanMatrixError("diagonal entries must equal 2")
        for j in range(l):
            if i != j and entries[i][j] > 0:
                raise InvalidCartanMatrixError("off-diagonal entries must be <= 0")
            if (entries[i][j] == 0) != (entries[j][i] == 0):
                raise InvalidCartanMatrixError("zero pattern must be symmetric")
    # Symmetrize: positive d with d_i C_ij = d_j C_ji, then positive definiteness.
    d = [None] * l
    for start in range(l):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(l):
                if j == i or entries[i][j] == 0:
                    continue
                want = d[i] * Fraction(entries[i][j], entries[j][i])
                if d[j] is None:
                    d[j] = want
                    stack.append(j)
                elif d[j] != want:
                    raise InvalidCartanMatrixError("matrix is not symmetrizable")
    # Each edge was set or compared when its first end was popped, so sym is symmetric.
    sym = [[d[i] * entries[i][j] for j in range(l)] for i in range(l)]
    # Exact Gaussian elimination; all pivots positive iff positive definite.
    work = [row[:] for row in sym]
    for k in range(l):
        if work[k][k] <= 0:
            raise InvalidCartanMatrixError("matrix is not of finite type")
        for i in range(k + 1, l):
            if work[i][k]:
                f = work[i][k] / work[k][k]
                for j in range(k, l):
                    work[i][j] -= f * work[k][j]


@dataclass(frozen=True)
class CartanMatrix:
    """Integer Cartan matrix with type metadata.

    ``entry(i, j)`` uses one-based indices.
    """

    type_label: str
    rank: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rank != len(self.entries):
            raise InvalidCartanMatrixError("declared rank does not match matrix size")
        _validate_cartan(self.entries)

    @classmethod
    def from_entries(cls, entries, type_label="custom"):
        # A non-integral entry is kept as it is, for the constructor to reject.
        try:
            rows = tuple(tuple(int(x) if x == int(x) else x for x in row) for row in entries)
        except (ValueError, OverflowError):  # int() of nan or 'a'; of inf
            raise InvalidCartanMatrixError("entries must be integers") from None
        return cls(type_label, len(rows), rows)

    def entry(self, i: int, j: int) -> int:
        return self.entries[i - 1][j - 1]

    def __str__(self):
        return f"{self.type_label}{self.rank}"


def cartan_matrix(type_label: str, rank: int) -> CartanMatrix:
    """Canonical Cartan matrix of a simple finite type, Bourbaki ordering."""
    t = str(type_label).upper()
    if t not in _RANK_RANGES:
        raise UnsupportedTypeError(f"unknown type {type_label!r}; expected one of A B C D E F G")
    lo, hi = _RANK_RANGES[t]
    if not isinstance(rank, int) or rank < lo or rank > hi:
        raise UnsupportedTypeError(f"type {t} supports ranks {lo}..{hi}, got {rank!r}")
    l = int(rank)  # True is an int in range; the rank is stored as 1
    m = [[2 if i == j else 0 for j in range(l)] for i in range(l)]

    def bond(i, j, cij=-1, cji=-1):
        m[i - 1][j - 1] = cij
        m[j - 1][i - 1] = cji

    if t in ("A", "B", "C", "F"):
        for i in range(1, l):
            bond(i, i + 1)
    if t == "B" and l >= 2:
        bond(l - 1, l, -2, -1)
    if t == "C" and l >= 2:
        bond(l - 1, l, -1, -2)
    if t == "F":
        bond(2, 3, -2, -1)
    if t == "D":
        for i in range(1, l - 1):
            bond(i, i + 1)
        m[l - 2][l - 1] = 0
        m[l - 1][l - 2] = 0
        bond(l - 2, l)
    if t == "E":
        chain = [1, 3, 4, 5, 6, 7, 8][: l - 1]
        for a, b in zip(chain, chain[1:]):
            bond(a, b)
        bond(2, 4)
    if t == "G":
        bond(1, 2, -1, -3)
    return CartanMatrix(t, l, tuple(tuple(row) for row in m))


@dataclass(frozen=True, eq=False)
class WeylElement:
    """Group element: its position in the group's (length, word) order.

    ``word`` is the lexicographically smallest reduced word, as one-based
    simple-reflection indices; it is the canonical serialization.
    """

    group: "WeylGroup" = field(repr=False)
    word: tuple[int, ...] = ()
    length: int = 0
    position: int = 0

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.group is other.group
            and self.position == other.position
        )

    def __hash__(self):
        return self.position

    def __mul__(self, other):
        return self.group.multiply(self, other)

    def inverse(self) -> "WeylElement":
        return self.group.inverse(self)

    def word_str(self) -> str:
        return "-".join(str(i) for i in self.word) if self.word else "e"

    def __repr__(self):
        return f"WeylElement({self.word_str()})"


def _mask(S) -> int:
    """Bit i - 1 set for each simple-root index i in S."""
    return sum(1 << (i - 1) for i in set(S))


class WeylGroup(Sequence):
    """Fully enumerated finite Weyl group of a Cartan matrix.

    Behaves as an immutable sequence of :class:`WeylElement` in the order
    in which the search on the orbit of rho finds them, which is the
    (length, word) order.  For positions w in that order, ``_right[w][i]``
    is the position of w * s_(i+1), and bit i of ``_descents[w]`` is set
    when that product is shorter than w.

    The enumeration cap is the integer in the ``TODATOPO_MAX_WEYL_ORDER``
    environment variable, else 51840; a value that is not an integer, or is
    below 1, raises ``ConfigError``.  The methods that take elements raise
    ``ConfigError`` for an element of another group.
    """

    def __init__(self, cartan: CartanMatrix):
        env = os.environ.get(MAX_ORDER_ENV)
        try:
            max_order = int(env) if env else DEFAULT_MAX_ORDER
        except ValueError:
            raise ConfigError(f"{MAX_ORDER_ENV} must be an integer, got {env!r}") from None
        if max_order < 1:
            raise ConfigError(f"{MAX_ORDER_ENV} must be at least 1, got {max_order}")
        self.cartan = cartan
        l = cartan.rank
        entries = cartan.entries

        # W acts simply transitively on the chambers, so w is keyed by
        # v = w^-1 rho in fundamental-weight coordinates, rho = (1, ..., 1).
        # (w s_i)^-1 rho = s_i v has v'_j = v_j - v_i * C[i][j]; bit i is a right
        # descent of w iff v_i < 0, and an element's BFS depth is its length.
        # By induction on length, the search finds the elements in (length, word)
        # order: x of length k is first found from the earliest-listed w with
        # x = w s_i, whose word is the smallest among x's descents, so the smallest
        # word of x is word(w) + (i,), and x comes after every smaller such word.
        orbit, words, right, descents = [(1,) * l], [()], [], []
        found = {orbit[0]: 0}
        for k, v in enumerate(orbit):
            row = []
            for i, (vi, ci) in enumerate(zip(v, entries)):
                q = tuple(x - vi * c for x, c in zip(v, ci))
                j = found.get(q)
                if j is None:
                    if len(orbit) >= max_order:
                        raise GroupOrderCapError(
                            f"group order exceeds the cap {max_order}; raise it via {MAX_ORDER_ENV}"
                        )
                    j = found[q] = len(orbit)
                    orbit.append(q)
                    words.append(words[k] + (i + 1,))
                row.append(j)
            right.append(tuple(row))
            descents.append(sum(1 << i for i, x in enumerate(v) if x < 0))
        del found, orbit  # not kept: freed here, they do not add to the build's peak
        self._right = tuple(right)
        self._descents = tuple(descents)
        self.elements = tuple(WeylElement(self, w, len(w), n) for n, w in enumerate(words))
        self.identity = self.elements[0]
        self.longest_element = self.elements[-1]

    # -- sequence protocol -------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def __iter__(self) -> Iterator[WeylElement]:
        return iter(self.elements)

    # -- basic operations --------------------------------------------------

    @property
    def rank(self) -> int:
        return self.cartan.rank

    def _letters(self, S) -> list[int]:
        """The indices of S as ints, each checked to be a simple-root index 1..rank."""
        return [checked_index(i, 1, self.rank, "simple-root index", NotInSubgroupError) for i in S]

    def simple_reflection(self, i: int) -> WeylElement:
        return self.from_word((i,))

    def _walk(self, w: int, letters) -> int:
        """Position of w * s_(i_1) * ... * s_(i_k) for one-based letters."""
        right = self._right
        for i in letters:
            w = right[w][i - 1]
        return w

    def multiply(self, u: WeylElement, v: WeylElement) -> WeylElement:
        if getattr(u, "group", None) is not self or getattr(v, "group", None) is not self:
            raise ConfigError(_FOREIGN)
        return self.elements[self._walk(u.position, v.word)]

    def inverse(self, u: WeylElement) -> WeylElement:
        if getattr(u, "group", None) is not self:
            raise ConfigError(_FOREIGN)
        return self.elements[self._walk(0, reversed(u.word))]

    def from_word(self, letters) -> WeylElement:
        return self.elements[self._walk(0, self._letters(letters))]

    def sends_simple_root_negative(self, w: WeylElement, i: int) -> bool:
        if getattr(w, "group", None) is not self:
            raise ConfigError(_FOREIGN)
        return bool(self._descents[w.position] & _mask(self._letters((i,))))

    # -- parabolic machinery -------------------------------------------------

    def parabolic_elements(self, S) -> tuple[WeylElement, ...]:
        """Elements of W_S (reduced words in letters of S), canonical order."""
        letters = set(self._letters(S))
        return tuple(w for w in self.elements if letters.issuperset(w.word))

    def parabolic_order(self, S) -> int:
        return len(self.parabolic_elements(S))

    def _coset_walk(self, w: int, mask: int) -> tuple[int, list[int]]:
        """Minimal representative of w * W_S (S a bit mask) and the zero-based
        letters i_1..i_k with rep = w * s_(i_1+1) ... s_(i_k+1); read
        backwards they spell a reduced word of rep^-1 * w."""
        letters = []
        while d := self._descents[w] & mask:
            i = (d & -d).bit_length() - 1
            letters.append(i)
            w = self._right[w][i]
        return w, letters

    def min_coset_rep(self, w: WeylElement, S) -> WeylElement:
        """Minimal-length representative of the left coset w * W_S."""
        if getattr(w, "group", None) is not self:
            raise ConfigError(_FOREIGN)
        return self.elements[self._coset_walk(w.position, _mask(self._letters(S)))[0]]

    def coset_min_reps(self, S) -> tuple[WeylElement, ...]:
        """Minimal representatives of W / W_S (no right descent in S), canonical order."""
        mask = _mask(self._letters(S))
        return tuple(w for w in self.elements if not self._descents[w.position] & mask)


def generate_weyl_group(cartan: CartanMatrix) -> WeylGroup:
    """Enumerate the full Weyl group of ``cartan`` (cap as in :class:`WeylGroup`)."""
    return WeylGroup(cartan)
