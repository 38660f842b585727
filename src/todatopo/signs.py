"""Sign sectors and the Weyl action on them.

A sign vector labels a connected component of the disconnected Cartan
subgroup.  A simple reflection s_i sends eps to eps' with
``eps'_j = eps_j * eps_i ** (C_{j,i} mod 2)``; since entries are +-1 the
negative exponent in the character action reduces mod 2.  Words act with
the rightmost letter applied first, so the action respects the group
law ``apply_weyl(u*v, eps) == apply_weyl(u, apply_weyl(v, eps))``.
``_act``, on masks of the -1 entries, is the rule's reference; on colored
coordinates S it also gives an orientation sign (1 for S = all).
``apply_weyl`` and ``cells.ws_act_oriented`` call it.  Boundary assembly
applies the same step inline along its coset walk, and the Morse scan
along its walk of a^-1 b; ``test_matches_tuple_indexed_reference`` and
``TestLetterListReference`` hold each equal to it.
"""

from __future__ import annotations

from .errors import ConfigError, checked_index
from .lie import CartanMatrix, WeylElement


def validate_signs(eps, rank: int) -> tuple[int, ...]:
    eps = tuple(eps)
    if len(eps) != rank:
        raise ConfigError(f"sign vector has length {len(eps)}, expected {rank}")
    if any(e not in (1, -1) for e in eps):
        raise ConfigError("sign entries must be +1 or -1")
    return tuple(map(int, eps))


def parse_sign_string(s: str) -> tuple[int, ...]:
    """Parse a string over '+' and '-' into a sign vector."""
    table = {"+": 1, "-": -1}
    try:
        return tuple(table[ch] for ch in s)
    except KeyError:
        raise ConfigError(f"bad sign string {s!r}; use characters + and -") from None


def sign_string(eps) -> str:
    return "".join("+" if e == 1 else "-" for e in eps)


def _odd_columns(C: CartanMatrix) -> list[int]:
    """Per letter s_(i+1), the mask of vertices j with C_{j,i} odd."""
    return [sum(1 << j for j, row in enumerate(C.entries) if row[i] % 2) for i in range(C.rank)]


def _act(letters, S: int, red: int, odd) -> tuple[int, int]:
    """Orientation sign and Red mask on S after zero-based letters, first letter first.

    The parity of a column sum outside S is the parity of the count of its odd entries there."""
    sign = 1
    for i in letters:
        if red >> i & 1:
            if (odd[i] & ~S).bit_count() & 1:
                sign = -sign
            red ^= odd[i] & S
    return sign, red


def _apply(letters, eps, C: CartanMatrix) -> tuple[int, ...]:
    """Sign vector after one-based letters, first letter first."""
    eps = validate_signs(eps, C.rank)
    letters = [checked_index(i, 1, C.rank, "simple-root index") - 1 for i in letters]
    red = sum(1 << j for j, e in enumerate(eps) if e == -1)
    red = _act(letters, (1 << C.rank) - 1, red, _odd_columns(C))[1]
    return tuple(-1 if red >> j & 1 else 1 for j in range(C.rank))


def apply_simple_reflection(i: int, eps, C: CartanMatrix) -> tuple[int, ...]:
    """Action of s_i on a sign vector.  An involution for each i."""
    return _apply([i], eps, C)


def apply_weyl(w: WeylElement, eps) -> tuple[int, ...]:
    """Action of a group element along its reduced word, last letter first.

    The Cartan matrix is that of w's group, and the result does not depend
    on the choice of reduced word.
    """
    return _apply(w.word[::-1], eps, w.group.cartan)
