"""Numerical integration of the tridiagonal Toda flow.

The state lives in (a_i, b_i) coordinates of the rank-l system inside
sl(l+1, R): the Lax matrix has unit superdiagonal, subdiagonal b, and a
traceless diagonal built from the a's.  Working in these coordinates
keeps the matrix shape and the signs of the b's structural: the flow is
``da_i/dt = b_i`` and ``db_i/dt = b_i (a_{i-1} - 2 a_i + a_{i+1})``,
so zeroed b's stay exactly zero and b's never change sign before a
blow-up.

Integration is fixed-step classical Runge-Kutta with local step halving
when the b's grow too fast, plus bisection refinement of the first
threshold crossing when the trajectory escapes.  The steps run on tuples
of Python floats; the Chevalley invariants of the recorded states are
computed after the loop, on stacks of Lax matrices a block of rows at a
time.  Everything is deterministic; there is no randomness anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

DEFAULT_THRESHOLD = 1e8
BLOWUP_TIME_RESOLUTION = 1e-6
_HALVING_LIMIT = 48
_HALVING_FLOOR = 1.0  # only chase doublings once the b's are this large
_INVARIANT_BLOCK = 64  # rows per matrix stack in _invariant_rows; bounds its temporaries


@dataclass(frozen=True)
class TodaState:
    """Point of the flow: a and b coordinates and the current time."""

    a: tuple
    b: tuple
    t: float = 0.0

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise ConfigError("a and b must have equal length")
        if not self.a:
            raise ConfigError("rank must be at least 1")

    @property
    def rank(self) -> int:
        return len(self.a)

    @property
    def n(self) -> int:
        return len(self.a) + 1


def _lax_stack(a_rows, b_rows) -> np.ndarray:
    """Lax matrices of the (a, b) rows as an (N, n, n) stack."""
    N, n = len(a_rows), len(a_rows[0]) + 1
    padded = np.zeros((N, n + 1))
    padded[:, 1:n] = a_rows
    diag, upper, lower = np.arange(n), np.arange(n - 1), np.arange(1, n)
    X = np.zeros((N, n, n))
    X[:, diag, diag] = padded[:, 1:] - padded[:, :-1]
    X[:, upper, lower] = 1.0
    X[:, lower, upper] = b_rows
    return X


def assemble_matrix(state: TodaState) -> np.ndarray:
    """Lax matrix: unit superdiagonal, subdiagonal b, traceless diagonal."""
    return _lax_stack([state.a], [state.b])[0]


# The step runs on tuples of Python floats: numpy's per-call cost dominates on
# vectors of length 1-8.  Each coordinate takes the operations of the vector
# expressions b * ((a_prev - 2.0 * a) + a_next), x + (0.5 * h) * k and
# x + (h / 6.0) * (((k1 + 2.0 * k2) + 2.0 * k3) + k4) in that order, so the
# floats are those of the numpy form.  tuple([...]) is faster than a generator.
def _derivative(a: tuple, b: tuple):
    padded = (0.0, *a, 0.0)
    return b, tuple([y * ((p - 2.0 * x) + q) for p, x, q, y in zip(padded, a, padded[2:], b)])


def _axpy(x: tuple, c: float, k: tuple) -> tuple:
    return tuple([xi + c * ki for xi, ki in zip(x, k)])


def _rk4(a: tuple, b: tuple, h: float):
    half = 0.5 * h
    k1a, k1b = _derivative(a, b)
    k2a, k2b = _derivative(_axpy(a, half, k1a), _axpy(b, half, k1b))
    k3a, k3b = _derivative(_axpy(a, half, k2a), _axpy(b, half, k2b))
    k4a, k4b = _derivative(_axpy(a, h, k3a), _axpy(b, h, k3b))
    sixth = h / 6.0
    na = tuple([x + sixth * (((p + 2.0 * q) + 2.0 * r) + s)
                for x, p, q, r, s in zip(a, k1a, k2a, k3a, k4a)])
    nb = tuple([x + sixth * (((p + 2.0 * q) + 2.0 * r) + s)
                for x, p, q, r, s in zip(b, k1b, k2b, k3b, k4b)])
    return na, nb


def _floats(xs) -> tuple:
    return tuple(float(x) for x in xs)


def step(state: TodaState, dt: float) -> TodaState:
    """One classical Runge-Kutta step; negative dt integrates backwards."""
    if dt == 0:
        raise ConfigError("dt must be nonzero")
    na, nb = _rk4(_floats(state.a), _floats(state.b), dt)
    return TodaState(na, nb, state.t + dt)


def chevalley_invariants(state: TodaState) -> tuple:
    """Power traces (tr X^2, ..., tr X^n) of the assembled matrix."""
    return _invariant_rows([state.a], [state.b])[0]


def _invariant_rows(a_rows: list, b_rows: list) -> list:
    """Power traces (tr X^2, ..., tr X^n) of every (a, b) row, one matrix stack per block."""
    out = []
    for start in range(0, len(a_rows), _INVARIANT_BLOCK):
        rows = slice(start, start + _INVARIANT_BLOCK)
        X = _lax_stack(a_rows[rows], b_rows[rows])
        P = X
        traces = []
        for _ in range(X.shape[1] - 1):
            P = P @ X
            traces.append(np.trace(P, axis1=1, axis2=2).tolist())
        out.extend(zip(*traces))
    return out


def eigenvalues(state: TodaState) -> np.ndarray:
    """Spectrum sorted by (real, imaginary) part."""
    ev = np.linalg.eigvals(assemble_matrix(state))
    order = np.lexsort((ev.imag, ev.real))
    return ev[order]


def subsystem(state: TodaState, A) -> TodaState:
    """Zero the b's indexed by A (one-based); the flow then freezes them."""
    idx = set(int(i) for i in A)
    for i in idx:
        if not 1 <= i <= state.rank:
            raise ConfigError(f"subsystem index {i} out of range 1..{state.rank}")
    b = tuple(0.0 if (i + 1) in idx else x for i, x in enumerate(state.b))
    return TodaState(state.a, b, state.t)


@dataclass(frozen=True)
class BlowupEvent:
    time: float
    coordinate: str
    threshold: float


@dataclass
class Trajectory:
    """Recorded integration output, one row per accepted step."""

    times: list
    a: list
    b: list
    invariants: list
    blowup: BlowupEvent | None = None

    @property
    def rank(self) -> int:
        return len(self.a[0])

    def state(self, i: int) -> TodaState:
        return TodaState(tuple(self.a[i]), tuple(self.b[i]), self.times[i])

    def final_state(self) -> TodaState:
        return self.state(len(self.times) - 1)

    def max_invariant_drift(self) -> float:
        inv = np.asarray(self.invariants)
        # Python's max over the row maxima passes over a later row holding NaN; np.max would not.
        return float(max(np.abs(inv - inv[0]).max(axis=1).tolist()))


def _exceeds(a: tuple, b: tuple, threshold: float) -> bool:
    if not (all(map(math.isfinite, a)) and all(map(math.isfinite, b))):
        return True
    return max(max(map(abs, a)), max(map(abs, b))) > threshold


def _worst_coordinate(a, b) -> str:
    vals = [(abs(x), f"a{i + 1}") for i, x in enumerate(a)]
    vals += [(abs(x), f"b{i + 1}") for i, x in enumerate(b)]
    bad = [name for v, name in vals if not math.isfinite(v)]
    if bad:
        return bad[0]
    return max(vals)[1]


def integrate(
    state: TodaState,
    t_max: float,
    dt: float,
    threshold: float = DEFAULT_THRESHOLD,
) -> Trajectory:
    """Integrate for a duration t_max, recording every accepted step.

    Stops early at the first threshold crossing (or non-finite value) and
    records a blow-up event whose time is bisected to 1e-6 resolution.
    The threshold must be positive; inf counts only non-finite values.
    """
    if not 0 < dt < math.inf:
        raise ConfigError(f"dt must be positive and finite, got {dt}")
    if not 0 < t_max < math.inf:
        raise ConfigError(f"t_max must be positive and finite, got {t_max}")
    if not 0 < threshold:
        raise ConfigError(f"threshold must be positive, got {threshold}")
    a, b = _floats(state.a), _floats(state.b)
    t = float(state.t)
    t_end = t + t_max
    traj = Trajectory([t], [a], [b], [])
    if _exceeds(a, b, threshold):
        traj.blowup = BlowupEvent(t, _worst_coordinate(a, b), threshold)
    while traj.blowup is None and t < t_end - 1e-12:
        h = min(dt, t_end - t)
        na, nb = _rk4(a, b, h)
        halvings = 0
        scale = max(max(map(abs, b)), _HALVING_FLOOR)
        while (
            halvings < _HALVING_LIMIT
            and (not all(map(math.isfinite, nb)) or max(map(abs, nb)) > 2.0 * scale)
            and h > 0
        ):
            h *= 0.5
            halvings += 1
            na, nb = _rk4(a, b, h)
        if _exceeds(na, nb, threshold):
            lo, hi = 0.0, h
            while hi - lo > BLOWUP_TIME_RESOLUTION:
                mid = 0.5 * (lo + hi)
                ma, mb = _rk4(a, b, mid)
                if _exceeds(ma, mb, threshold):
                    hi = mid
                else:
                    lo = mid
            ba, bb = _rk4(a, b, hi)
            traj.blowup = BlowupEvent(t + hi, _worst_coordinate(ba, bb), threshold)
            break
        t += h
        a, b = na, nb
        traj.times.append(t)
        traj.a.append(a)
        traj.b.append(b)
    traj.invariants = _invariant_rows(traj.a, traj.b)
    return traj


def detect_blowup(traj: Trajectory) -> float | None:
    """First escape time of a recorded trajectory, if any."""
    return traj.blowup.time if traj.blowup else None
