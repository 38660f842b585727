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
threshold crossing when the trajectory escapes.  One rule stops the
halving: a step is halved while its b's more than double and it still
advances t, and a halved step that no longer advances t ends the run.
The steps run on Python floats, through one straight-line function per
rank that is generated as source and compiled on first use: on 1-16
coordinates the calls and temporaries of a loop cost more than the
arithmetic.  Each coordinate keeps the operation order of the numpy
vector expressions, so every step gives the same floats as they do.  The
Chevalley invariants of the recorded states are computed after the loop,
on stacks of Lax matrices a block of rows at a time.  Everything is
deterministic; there is no randomness anywhere.

Most steps need neither halving nor bisection; the compiled function runs
them as a loop, with a and b in locals.  It accepts a step after one
chained comparison per new coordinate: each b within twice the scale (the
largest |b| before the step, floored at 1) and the threshold, each a
within the threshold, both bounds capped at the largest float so that NaN
and +-inf fail.  Such a step is one the exact tests accept as it is.  The
first step that fails is returned, and `integrate` takes it, from the
trajectory's last row, through the exact halving, threshold and bisection
code before it calls the loop again, so the recorded floats are those of
the exact tests.  `step`, the halving and the bisection make single steps
with the same function: the RK4 arithmetic has one source.

numpy is imported inside the functions that use it, so it loads on the
first call to one of them: importing this module, and with it the
package and its CLI, does not load it, and the exact subcommands (cells,
homology, morse) run without it.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConfigError, checked_index, checked_type

if TYPE_CHECKING:
    import numpy as np

DEFAULT_THRESHOLD = 1e8
BLOWUP_TIME_RESOLUTION = 1e-6
_HALVING_FLOOR = 1.0  # only chase doublings once the b's are this large
_INVARIANT_BLOCK = 64  # rows per matrix stack in _invariant_rows; bounds its temporaries


@dataclass(frozen=True)
class TodaState:
    """Point of the flow: a and b coordinates and the current time.

    Each is kept as given and must be a value float() reads (nan and inf too).
    """

    a: tuple
    b: tuple
    t: float = 0.0

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise ConfigError("a and b must have equal length")
        if not self.a:
            raise ConfigError("rank must be at least 1")
        for x in (*self.a, *self.b, self.t):
            _real(x, "coordinates and t must be real numbers")

    @property
    def rank(self) -> int:
        return len(self.a)

    @property
    def n(self) -> int:
        return len(self.a) + 1


def _real(x, message: str) -> float:
    """``float(x)``, or ``ConfigError("<message>: <why float() failed>")``."""
    try:
        return float(x)
    except (TypeError, ValueError, OverflowError) as e:  # None or 'a'; 10 ** 400
        raise ConfigError(f"{message}: {e}") from None


def _lax_stack(a_rows, b_rows) -> np.ndarray:
    """Lax matrices of the (a, b) rows as an (N, n, n) stack."""
    import numpy as np

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
    return _lax_stack([checked_type(state, TodaState).a], [state.b])[0]


# The loop is straight-line source generated for each rank and compiled on
# first use.  On vectors of 1-16 floats the calls, comprehensions and tuples of
# a loop over the coordinates, or a call per step, cost as much as the
# arithmetic; the generated function makes one assignment per coordinate per
# stage and builds only the tuples it records.
# Each coordinate takes the operations of the vector expressions
# b * ((a_prev - 2.0 * a) + a_next), with a literal 0.0 for the missing
# neighbours at both ends, x + half * k with half = 0.5 * h (x + h * k for the
# last stage) and x + sixth * (((k1 + 2.0 * k2) + 2.0 * k3) + k4) with
# sixth = h / 6.0, in that order, so the floats are those of the numpy form.
# The a-slopes are b itself and then the stage inputs of b; the new a's, which
# read b1, are written before the new b's.
@functools.cache
def _rk4_kernel(n: int):
    """The common-step loop of the rank-n flow, compiled from generated source.

    rk4(a, b, t, t_end, stop, dt, scale, cap, rows) steps by
    h = min(dt, t_end - t) while t < stop, and accepts a step whose new b's lie
    in [-c, c], c = min(2 * scale, cap), and new a's in [-cap, cap].  The scale
    is the argument for the first step, then max(|b_i|..., 1.0) of the step
    before.  rows holds the appends for t, a and b of each accepted step.  It
    returns None at stop, else (h, a, b) of the first step it does not accept;
    with scale < 0 that is the first step (see `_one_step`).

    Stage s reads the inputs a{s}_i, b{s}_i and writes the b-slopes k{s}_i.
    """
    r = range(n)

    def neighbour(s, i):
        return f"a{s}_{i}" if 0 <= i < n else "0.0"

    a_row = "".join(f"a1_{i}, " for i in r)
    b_row = "".join(f"b1_{i}, " for i in r)
    lines = [
        "def rk4(a, b, t, t_end, stop, dt, scale, cap, rows):",
        f"    {a_row}= a",
        f"    {b_row}= b",
        "    push_t, push_a, push_b = rows",
        "    ncap = -cap",
        "    while t < stop:",
        "        c = 2.0 * scale",
        "        if not c <= cap:",
        "            c = cap",
        "        nc = -c",
        "        h = t_end - t",
        "        if h > dt:",
        "            h = dt",
        "        half = 0.5 * h",
    ]
    for s in range(1, 5):
        lines += [
            f"        k{s}_{i} = b{s}_{i} * (({neighbour(s, i - 1)} - 2.0 * a{s}_{i}) + {neighbour(s, i + 1)})"
            for i in r
        ]
        if s < 4:
            c = "h" if s == 3 else "half"
            lines += [f"        a{s + 1}_{i} = a1_{i} + {c} * b{s}_{i}" for i in r]
            lines += [f"        b{s + 1}_{i} = b1_{i} + {c} * k{s}_{i}" for i in r]
    lines.append("        sixth = h / 6.0")
    lines += [f"        a1_{i} = a1_{i} + sixth * (((b1_{i} + 2.0 * b2_{i}) + 2.0 * b3_{i}) + b4_{i})" for i in r]
    lines += [f"        b1_{i} = b1_{i} + sixth * (((k1_{i} + 2.0 * k2_{i}) + 2.0 * k3_{i}) + k4_{i})" for i in r]
    tests = [f"nc <= b1_{i} <= c" for i in r] + [f"ncap <= a1_{i} <= cap" for i in r]
    lines += [
        f"        na = {a_row}",
        f"        nb = {b_row}",
        f"        if not ({' and '.join(tests)}):",
        "            return h, na, nb",
        "        t += h",
        "        push_t(t)",
        "        push_a(na)",
        "        push_b(nb)",
        "        scale = max(" + "".join(f"abs(b1_{i}), " for i in r) + "1.0)",
    ]
    namespace = {}
    exec(compile("\n".join(lines) + "\n", f"<todatopo.toda rk4 rank {n}>", "exec"), namespace)
    rk4 = namespace["rk4"]
    # CPython 3.11 specializes a function's bytecode for float arithmetic from
    # its eighth call on, and a run of the loop is one call, which would leave
    # the first seven runs of each rank on generic bytecode: make those calls
    # here, one step each (a few microseconds on any version).
    zeros = (0.0,) * n
    for _ in range(8):
        _one_step(rk4, zeros, zeros, 1.0)
    return rk4


_NO_ROWS = (None, None, None)  # never called: with scale < 0 the loop records nothing


def _one_step(rk4, a: tuple, b: tuple, h: float):
    """One RK4 step of h through the compiled loop, as (a, b): the scale -1.0 fails every step."""
    _, na, nb = rk4(a, b, 0.0, math.inf, math.inf, h, -1.0, math.inf, _NO_ROWS)
    return na, nb


def _floats(xs) -> tuple:
    return tuple(float(x) for x in xs)


def step(state: TodaState, dt: float) -> TodaState:
    """One classical Runge-Kutta step; a negative dt integrates backwards, and t + dt must not be t."""
    t, dt = float(checked_type(state, TodaState).t), _real(dt, "dt must be a real number")
    if dt == 0 or not math.isfinite(dt):
        raise ConfigError(f"dt must be nonzero and finite, got {dt}")
    if not math.isfinite(t):
        raise ConfigError(f"the start time must be finite, got {t}")
    if t + dt == t:
        raise ConfigError(f"dt = {dt} is below the resolution of the start time t = {t}: "
                          "the step would not advance t")
    a = _floats(state.a)
    na, nb = _one_step(_rk4_kernel(len(a)), a, _floats(state.b), dt)
    return TodaState(na, nb, t + dt)


def chevalley_invariants(state: TodaState) -> tuple:
    """Power traces (tr X^2, ..., tr X^n) of the assembled matrix."""
    return _invariant_rows([checked_type(state, TodaState).a], [state.b])[0]


def _invariant_rows(a_rows: list, b_rows: list) -> list:
    """Power traces (tr X^2, ..., tr X^n) of every (a, b) row, one matrix stack per block."""
    import numpy as np

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
    import numpy as np

    ev = np.linalg.eigvals(assemble_matrix(state))
    order = np.lexsort((ev.imag, ev.real))
    return ev[order]


def subsystem(state: TodaState, A) -> TodaState:
    """Zero the b's indexed by A (one-based); the flow then freezes them."""
    rank = checked_type(state, TodaState).rank
    idx = {checked_index(i, 1, rank, "subsystem index") for i in A}
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
        import numpy as np

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
    records a blow-up event whose time is bisected to 1e-6 resolution, or
    at t when the halving reaches a step that no longer advances t (at
    t = 0, a step of 0), with the event at t.
    The threshold must be positive; inf counts only non-finite values.  The
    start time must be finite; t_max and dt must change the run's float times.
    t_max, dt and threshold are read with float().
    """
    t_max = _real(t_max, "t_max must be a real number")
    dt = _real(dt, "dt must be a real number")
    threshold = _real(threshold, "threshold must be a real number")
    if not 0 < dt < math.inf:
        raise ConfigError(f"dt must be positive and finite, got {dt}")
    if not 0 < t_max < math.inf:
        raise ConfigError(f"t_max must be positive and finite, got {t_max}")
    if not 0 < threshold:
        raise ConfigError(f"threshold must be positive, got {threshold}")
    a, b = _floats(checked_type(state, TodaState).a), _floats(state.b)
    t = float(state.t)
    if not math.isfinite(t):
        raise ConfigError(f"the start time must be finite, got {t}")
    t_end = t + t_max
    if t_end == t:
        raise ConfigError(f"t_max = {t_max} is below the resolution of the start time t = {t}")
    # t + dt moves t only if dt exceeds half the float spacing at t, which is
    # largest at the end of the run farther from 0; at exactly half, t + dt
    # rounds back to t whenever t is even, so a step can stall after the first.
    if dt <= 0.5 * math.ulp(max(abs(t), abs(t_end))):
        raise ConfigError(
            f"dt = {dt} is below the resolution of the times {t} .. {t_end}: a step would not advance t"
        )
    rk4 = _rk4_kernel(len(a))
    traj = Trajectory([t], [a], [b], [])
    if _exceeds(a, b, threshold):
        traj.blowup = BlowupEvent(t, _worst_coordinate(a, b), threshold)
    cap = min(threshold, sys.float_info.max)
    stop = t_end - min(1e-12, 0.5 * t_max)  # a run shorter than 1e-12 still takes its step
    rows = (traj.times.append, traj.a.append, traj.b.append)
    scale = max(max(map(abs, b)), _HALVING_FLOOR)
    while traj.blowup is None and (rejected := rk4(a, b, t, t_end, stop, dt, scale, cap, rows)) is not None:
        h, na, nb = rejected
        t, a, b = traj.times[-1], traj.a[-1], traj.b[-1]
        scale = max(max(map(abs, b)), _HALVING_FLOOR)
        while (not all(map(math.isfinite, nb)) or max(map(abs, nb)) > 2.0 * scale) and t + h > t:
            h *= 0.5
            na, nb = _one_step(rk4, a, b, h)
        if _exceeds(na, nb, threshold):
            lo, hi = 0.0, h
            while hi - lo > BLOWUP_TIME_RESOLUTION:
                mid = 0.5 * (lo + hi)
                if _exceeds(*_one_step(rk4, a, b, mid), threshold):
                    hi = mid
                else:
                    lo = mid
            traj.blowup = BlowupEvent(t + hi, _worst_coordinate(*_one_step(rk4, a, b, hi)), threshold)
            break
        if t + h == t:  # halved below the spacing of the times: a row would repeat t
            traj.blowup = BlowupEvent(t, _worst_coordinate(na, nb), threshold)
            break
        t += h
        a, b = na, nb
        scale = max(max(map(abs, b)), _HALVING_FLOOR)
        traj.times.append(t)
        traj.a.append(a)
        traj.b.append(b)
    traj.invariants = _invariant_rows(traj.a, traj.b)
    return traj
