"""Exception types shared across the package, and its two argument checks:
``checked_index`` for indices and ``checked_type`` for the package's own values."""


class TodatopoError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedTypeError(TodatopoError):
    """Unknown or out-of-range (type, rank) combination."""


class InvalidCartanMatrixError(TodatopoError):
    """Matrix fails the structural or finite-type requirements."""


class GroupOrderCapError(TodatopoError):
    """Weyl group enumeration exceeded the configured order cap."""


class NotInSubgroupError(TodatopoError):
    """A Weyl element was used outside the parabolic subgroup it must lie in."""


class CorruptComplexError(TodatopoError):
    """A chain complex failed an internal consistency check."""


class IncidenceError(TodatopoError):
    """Incidence-number preconditions violated for a pair of critical points."""


class RankGateError(TodatopoError):
    """Morse-complex computation requested beyond the validated rank gate."""


class ConfigError(TodatopoError):
    """Invalid run configuration."""


def checked_index(i, lo: int, hi: int, what: str, error: type = ConfigError) -> int:
    """``i`` as an int in lo..hi; otherwise raise ``error("<what> <i> out of range lo..hi")``."""
    if i not in range(lo, hi + 1):  # compares values: 1.5 is not in it, 2.0 is
        raise error(f"{what} {i} out of range {lo}..{hi}")
    return int(i)


def checked_type(x, cls: type):
    """``x`` if it is a ``cls``; otherwise raise ``ConfigError("expected a <cls>, got <type>")``."""
    if not isinstance(x, cls):
        raise ConfigError(f"expected a {cls.__name__}, got {type(x).__name__}")
    return x
