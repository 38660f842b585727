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
threshold crossing when the trajectory escapes.  Everything is
deterministic; there is no randomness anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

DEFAULT_THRESHOLD = 1e8
BLOWUP_TIME_RESOLUTION = 1e-6
_HALVING_LIMIT = 48
_HALVING_FLOOR = 1.0  # only chase doublings once the b's are this large


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

    def signs(self) -> tuple:
        return tuple(0 if x == 0 else (1 if x > 0 else -1) for x in self.b)


def assemble_matrix(state: TodaState) -> np.ndarray:
    """Lax matrix: unit superdiagonal, subdiagonal b, traceless diagonal."""
    n = state.n
    X = np.zeros((n, n))
    prev = 0.0
    for j in range(n):
        cur = state.a[j] if j < n - 1 else 0.0
        X[j, j] = cur - prev
        prev = cur
    for i in range(n - 1):
        X[i, i + 1] = 1.0
        X[i + 1, i] = state.b[i]
    return X


def _derivative(a: np.ndarray, b: np.ndarray):
    padded = np.concatenate(([0.0], a, [0.0]))
    lap = padded[:-2] - 2.0 * padded[1:-1] + padded[2:]
    return b.copy(), b * lap


def _rk4(a: np.ndarray, b: np.ndarray, h: float):
    k1a, k1b = _derivative(a, b)
    k2a, k2b = _derivative(a + 0.5 * h * k1a, b + 0.5 * h * k1b)
    k3a, k3b = _derivative(a + 0.5 * h * k2a, b + 0.5 * h * k2b)
    k4a, k4b = _derivative(a + h * k3a, b + h * k3b)
    na = a + (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
    nb = b + (h / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
    return na, nb


def step(state: TodaState, dt: float) -> TodaState:
    """One classical Runge-Kutta step; negative dt integrates backwards."""
    if dt == 0:
        raise ConfigError("dt must be nonzero")
    a = np.asarray(state.a, dtype=float)
    b = np.asarray(state.b, dtype=float)
    na, nb = _rk4(a, b, dt)
    return TodaState(tuple(na), tuple(nb), state.t + dt)


def chevalley_invariants(state: TodaState) -> tuple:
    """Power traces (tr X^2, ..., tr X^n) of the assembled matrix."""
    X = assemble_matrix(state)
    out = []
    P = X
    for _ in range(2, state.n + 1):
        P = P @ X
        out.append(float(np.trace(P)))
    return tuple(out)


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
        first = np.asarray(self.invariants[0])
        return float(max(np.max(np.abs(np.asarray(row) - first)) for row in self.invariants))


def _exceeds(a, b, threshold):
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        return True
    return float(max(np.max(np.abs(a)), np.max(np.abs(b)))) > threshold


def _worst_coordinate(a, b) -> str:
    vals = [(abs(x), f"a{i + 1}") for i, x in enumerate(a)]
    vals += [(abs(x), f"b{i + 1}") for i, x in enumerate(b)]
    bad = [name for v, name in vals if not np.isfinite(v)]
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
    """
    if dt <= 0:
        raise ConfigError("dt must be positive")
    if t_max <= 0:
        raise ConfigError("t_max must be positive")
    a = np.asarray(state.a, dtype=float)
    b = np.asarray(state.b, dtype=float)
    t = float(state.t)
    t_end = t + t_max
    traj = Trajectory([t], [tuple(a)], [tuple(b)], [chevalley_invariants(state)])
    if _exceeds(a, b, threshold):
        traj.blowup = BlowupEvent(t, _worst_coordinate(a, b), threshold)
        return traj
    while t < t_end - 1e-12:
        h = min(dt, t_end - t)
        na, nb = _rk4(a, b, h)
        halvings = 0
        scale = max(np.max(np.abs(b)), _HALVING_FLOOR)
        while (
            halvings < _HALVING_LIMIT
            and (not np.all(np.isfinite(nb)) or np.max(np.abs(nb)) > 2.0 * scale)
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
            return traj
        t += h
        a, b = na, nb
        traj.times.append(t)
        traj.a.append(tuple(a))
        traj.b.append(tuple(b))
        traj.invariants.append(chevalley_invariants(TodaState(tuple(a), tuple(b), t)))
    return traj


def detect_blowup(traj: Trajectory) -> float | None:
    """First escape time of a recorded trajectory, if any."""
    return traj.blowup.time if traj.blowup else None
