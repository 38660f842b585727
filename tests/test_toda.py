import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from todatopo import (
    TodaState,
    assemble_matrix,
    chevalley_invariants,
    eigenvalues,
    integrate,
    step,
    subsystem,
)
from todatopo import toda
from todatopo.errors import ConfigError

floats = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


class TestState:
    @pytest.mark.parametrize("a,b,message", [
        ((0.0,), (1.0, 1.0), "equal length"), ((), (), "rank must be at least 1"),
    ], ids=["unequal", "empty"])
    def test_malformed_state_rejected(self, a, b, message):
        with pytest.raises(ConfigError, match=message):
            TodaState(a, b)

    # Each reader failed on these with a bare ValueError or TypeError.
    @pytest.mark.parametrize("read", [
        lambda s: integrate(s, 1.0, 0.1), lambda s: step(s, 0.1), eigenvalues, chevalley_invariants,
    ], ids=["integrate", "step", "eigenvalues", "chevalley_invariants"])
    @pytest.mark.parametrize("a,b,t", [
        (("x",), (1.0,), 0.0), ((None,), (1.0,), 0.0), ((1j,), (1.0,), 0.0),
        ((0.0,), ("x",), 0.0), ((0.0,), (1.0,), "t"), ((10**400,), (1.0,), 0.0),
    ], ids=["a-str", "a-None", "a-complex", "b-str", "t-str", "a-too-large"])
    def test_unreadable_coordinate_rejected(self, read, a, b, t):
        with pytest.raises(ConfigError, match="must be real numbers"):
            read(TodaState(a, b, t))

    def test_readable_coordinates_kept_as_given(self):
        # float() reads them; the readers convert, so the run equals the float one's.
        s = TodaState(("0.5",), (1,), "0")
        assert (s.a, s.b, s.t) == (("0.5",), (1,), "0")
        assert step(s, 0.1) == step(TodaState((0.5,), (1.0,)), 0.1)
        assert integrate(s, 1.0, 0.1).a == integrate(TodaState((0.5,), (1.0,)), 1.0, 0.1).a
        assert chevalley_invariants(s) == chevalley_invariants(TodaState((0.5,), (1.0,)))

    def test_readable_run_parameters_read_as_floats(self):
        # float() reads t_max, dt and threshold too; a string raised a TypeError.
        s = TodaState((0.5,), (1.0,))
        assert step(s, "0.1") == step(s, 0.1)
        got, want = integrate(s, "1", "0.1", threshold="1e8"), integrate(s, 1.0, 0.1)
        assert (got.times, got.a, got.b) == (want.times, want.a, want.b)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # the invariants of the start
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinates_allowed(self, x):
        # integrate reads them as a blow-up at the start.
        assert integrate(TodaState((x,), (1.0,)), 1.0, 0.1).blowup.time == 0.0


class TestAssemble:
    def test_n2(self):
        X = assemble_matrix(TodaState((0.5,), (-2.0,)))
        assert X.tolist() == [[0.5, 1.0], [-2.0, -0.5]]

    def test_zero_state_is_nilpotent_shape(self):
        X = assemble_matrix(TodaState((0.0, 0.0), (0.0, 0.0)))
        assert X.tolist() == [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(floats, min_size=1, max_size=4), st.data())
    def test_trace_zero(self, a, data):
        b = [data.draw(floats) for _ in a]
        X = assemble_matrix(TodaState(tuple(a), tuple(b)))
        assert X.trace() == pytest.approx(0.0, abs=1e-12)


class TestInvariants:
    def test_zero_state_all_zero(self):
        assert chevalley_invariants(TodaState((0.0, 0.0), (0.0, 0.0))) == (0.0, 0.0)

    @settings(max_examples=50, deadline=None)
    @given(floats, floats)
    def test_n2_trace_square_formula(self, a, b):
        (i1,) = chevalley_invariants(TodaState((a,), (b,)))
        assert i1 == pytest.approx(2.0 * (a * a + b), abs=1e-9)

    def test_drift_definite_short_horizon(self):
        traj = integrate(TodaState((0.0, 0.0), (1.0, 1.0)), 1.0, 1e-3)
        assert traj.blowup is None
        assert traj.max_invariant_drift() < 1e-10


class TestStep:
    def test_zero_b_is_fixed_point(self):
        s = TodaState((0.3, -0.7), (0.0, 0.0))
        out = step(s, 1e-2)
        assert out.a == s.a
        assert out.b == s.b

    def test_reference_refinement_n2(self):
        s = TodaState((0.0,), (1.0,))
        coarse = s
        for _ in range(100):
            coarse = step(coarse, 1e-2)
        fine = s
        for _ in range(10000):
            fine = step(fine, 1e-4)
        assert coarse.a[0] == pytest.approx(fine.a[0], abs=1e-8)
        assert coarse.b[0] == pytest.approx(fine.b[0], abs=1e-8)
        ev0 = eigenvalues(s)
        ev1 = eigenvalues(coarse)
        assert np.max(np.abs(ev1 - ev0)) < 1e-8

    @settings(max_examples=30, deadline=None)
    @given(st.lists(floats, min_size=1, max_size=3), st.data())
    def test_time_reversal(self, a, data):
        b = [data.draw(floats) for _ in a]
        s = TodaState(tuple(a), tuple(b))
        rt = step(step(s, 1e-2), -1e-2)
        assert max(abs(x - y) for x, y in zip(rt.a, s.a)) < 1e-8
        assert max(abs(x - y) for x, y in zip(rt.b, s.b)) < 1e-8

    def test_zero_dt_rejected(self):
        with pytest.raises(ConfigError):
            step(TodaState((0.0,), (1.0,)), 0.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(ConfigError, match="nonzero and finite"):
            step(TodaState((0.0,), (1.0,)), dt)

    @pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_time_rejected(self, t0):
        with pytest.raises(ConfigError, match="start time must be finite"):
            step(TodaState((0.0,), (1.0,), t0), 0.1)

    @pytest.mark.parametrize("t0,dt", [(1.0, 1e-300), (1e17, 1e-3), (-1.0, -1e-300)])
    def test_dt_below_the_resolution_of_t_rejected(self, t0, dt):
        # t0 + dt == t0: the step would return a state at its own start time
        with pytest.raises(ConfigError, match="would not advance t"):
            step(TodaState((0.0,), (1.0,), t0), dt)


class TestIntegrateArguments:
    @pytest.mark.parametrize("t_max,dt", [
        (math.nan, 1e-3), (math.inf, 1e-3), (-1.0, 1e-3), (0.0, 1e-3),
        (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf), (1.0, 0.0),
    ])
    def test_rejects_non_finite_or_non_positive(self, t_max, dt):
        with pytest.raises(ConfigError, match="positive and finite"):
            integrate(TodaState((0.0,), (1.0,)), t_max, dt)

    @pytest.mark.parametrize("t0,t_max,dt", [
        (1e17, 100.0, 1e-3),  # t + dt == t: the loop would record rows without end
        (1.0 + 2.0 ** -52, 1.0, 2.0 ** -53),  # one step rounds t to an even float, where t + dt == t
    ])
    def test_rejects_dt_below_the_time_resolution(self, t0, t_max, dt):
        with pytest.raises(ConfigError, match="would not advance t"):
            integrate(TodaState((0.0,), (1.0,), t0), t_max, dt)

    @pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_start_time(self, t0):
        # nan would return the start row alone; inf would blame t_max.
        with pytest.raises(ConfigError, match="start time must be finite"):
            integrate(TodaState((0.0,), (1.0,), t0), 1.0, 1e-3)

    @pytest.mark.parametrize("dt", [1e-3, 100.0])
    def test_rejects_t_max_below_the_time_resolution(self, dt):
        # t + t_max == t: the run would take no step and return the start alone.
        with pytest.raises(ConfigError, match="t_max = 1.0 is below the resolution"):
            integrate(TodaState((0.0,), (1.0,), 1e17), 1.0, dt)


class TestBlowup:
    def test_n2_negative_sector_blows_up_at_known_time(self):
        # a=0, b=-1: the slope satisfies da/dt = -(1 + a^2), a pole at pi/2
        traj = integrate(TodaState((0.0,), (-1.0,)), 5.0, 1e-3)
        assert traj.blowup is not None
        assert traj.blowup.time == pytest.approx(math.pi / 2, abs=1e-3)

    def test_definite_sector_stays_bounded(self):
        traj = integrate(TodaState((0.0,), (1.0,)), 20.0, 1e-3)
        assert traj.blowup is None

    def test_threshold_insensitivity(self):
        s = TodaState((0.0,), (-1.0,))
        b6 = integrate(s, 5.0, 1e-3, threshold=1e6).blowup
        b9 = integrate(s, 5.0, 1e-3, threshold=1e9).blowup
        assert b6 is not None and b9 is not None
        t6, t9 = b6.time, b9.time
        assert abs(t6 - t9) / t9 < 0.01

    def test_start_past_the_threshold_blows_up_at_the_start(self):
        traj = integrate(TodaState((0.0, 0.0), (1e7, 1.0), 0.5), 1.0, 1e-3, threshold=1e6)
        assert traj.times == [0.5]
        assert (traj.blowup.time, traj.blowup.coordinate) == (0.5, "b1")

    def test_sign_invariance_until_blowup(self):
        s = TodaState((0.1, -0.2), (-1.0, 1.0))
        traj = integrate(s, 5.0, 1e-3)
        for row in traj.b:
            assert all(x < 0 for x in (row[0],))
            assert all(x > 0 for x in (row[1],))


class TestSubsystem:
    def test_empty_is_identity(self):
        s = TodaState((0.1,), (0.5,))
        assert subsystem(s, []) == s

    def test_full_freezes_everything(self):
        s = subsystem(TodaState((0.4, -0.1), (1.0, 1.0)), [1, 2])
        out = s
        for _ in range(50):
            out = step(out, 1e-2)
        assert out.a == s.a
        assert out.b == (0.0, 0.0)

    def test_zeroed_coordinates_stay_exactly_zero(self):
        s = subsystem(TodaState((0.0, 0.0), (1.0, 1.0)), [1])
        out = s
        for _ in range(200):
            out = step(out, 1e-2)
        assert out.b[0] == 0.0
        assert out.a[0] == 0.0

    def test_reduces_to_lower_rank_flow(self):
        big = subsystem(TodaState((0.0, 0.0), (1.0, 1.0)), [1])
        small = TodaState((0.0,), (1.0,))
        for _ in range(100):
            big = step(big, 1e-2)
            small = step(small, 1e-2)
        assert big.a[1] == pytest.approx(small.a[0], abs=1e-12)
        assert big.b[1] == pytest.approx(small.b[0], abs=1e-12)

    def test_bad_index(self):
        with pytest.raises(ConfigError):
            subsystem(TodaState((0.0,), (1.0,)), [2])


class TestTrajectory:
    def test_records_all_steps(self):
        traj = integrate(TodaState((0.0,), (1.0,)), 0.1, 1e-2)
        assert len(traj.times) == 11
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.1)

    @pytest.mark.parametrize("t_max", [1e-13, 1e-12])
    def test_run_shorter_than_the_end_slack_takes_its_step(self, t_max):
        traj = integrate(TodaState((0.0,), (1.0,)), t_max, 1e-3)
        assert traj.times == [0.0, t_max]
        assert traj.blowup is None

    def test_isospectral_n3_n4(self):
        for n in (3, 4):
            l = n - 1
            s = TodaState((0.0,) * l, (1.0,) * l)
            traj = integrate(s, 2.0, 1e-3)
            ev0 = eigenvalues(s)
            evf = eigenvalues(traj.final_state())
            assert np.max(np.abs(evf - ev0)) < 1e-9


# A numpy transcription of the step loop integrate() ran before it moved to
# Python floats, with the invariants computed per row as chevalley_invariants
# does.  It shares no code with the package: integrate() and step() must
# reproduce it bit for bit.
def _ref_derivative(a, b):
    padded = np.concatenate(([0.0], a, [0.0]))
    lap = padded[:-2] - 2.0 * padded[1:-1] + padded[2:]
    return b.copy(), b * lap


def _ref_rk4(a, b, h):
    k1a, k1b = _ref_derivative(a, b)
    k2a, k2b = _ref_derivative(a + 0.5 * h * k1a, b + 0.5 * h * k1b)
    k3a, k3b = _ref_derivative(a + 0.5 * h * k2a, b + 0.5 * h * k2b)
    k4a, k4b = _ref_derivative(a + h * k3a, b + h * k3b)
    na = a + (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
    nb = b + (h / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
    return na, nb


def _ref_invariants(a, b):
    n = len(a) + 1
    X = np.zeros((n, n))
    for j in range(n):
        X[j, j] = (a[j] if j < n - 1 else 0.0) - (a[j - 1] if j > 0 else 0.0)
    for i in range(n - 1):
        X[i, i + 1] = 1.0
        X[i + 1, i] = b[i]
    out, P = [], X
    for _ in range(2, n + 1):
        P = P @ X
        out.append(float(np.trace(P)))
    return tuple(out)


def _ref_exceeds(a, b, threshold):
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        return True
    return float(max(np.max(np.abs(a)), np.max(np.abs(b)))) > threshold


def _ref_coordinate(a, b):
    """The first non-finite coordinate, else the largest |x|, ties to the larger name."""
    names = [f"a{i + 1}" for i in range(len(a))] + [f"b{i + 1}" for i in range(len(b))]
    x = np.abs(np.concatenate((a, b)))
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        return names[bad[0]]
    return max(names[i] for i in np.flatnonzero(x == x.max()))


def _ref_integrate(a, b, t_max, dt, threshold=1e8):
    """(times, a rows, b rows, invariant rows, (blow-up time, coordinate) or None, halvings)."""
    a, b, t = np.asarray(a, dtype=float), np.asarray(b, dtype=float), 0.0
    times, arows, brows, halved = [t], [tuple(a)], [tuple(b)], 0
    while t < t_max - 1e-12:
        h = min(dt, t_max - t)
        na, nb = _ref_rk4(a, b, h)
        halvings = 0
        scale = max(np.max(np.abs(b)), 1.0)
        while (not np.all(np.isfinite(nb)) or np.max(np.abs(nb)) > 2.0 * scale) and t + h > t:
            h *= 0.5
            halvings += 1
            na, nb = _ref_rk4(a, b, h)
        halved += halvings
        if _ref_exceeds(na, nb, threshold):
            lo, hi = 0.0, h
            while hi - lo > 1e-6:
                mid = 0.5 * (lo + hi)
                if _ref_exceeds(*_ref_rk4(a, b, mid), threshold):
                    hi = mid
                else:
                    lo = mid
            inv = [_ref_invariants(x, y) for x, y in zip(arows, brows)]
            return times, arows, brows, inv, (t + hi, _ref_coordinate(*_ref_rk4(a, b, hi))), halved
        if t + h == t:
            inv = [_ref_invariants(x, y) for x, y in zip(arows, brows)]
            return times, arows, brows, inv, (t, _ref_coordinate(na, nb)), halved
        t += h
        a, b = na, nb
        times.append(t)
        arows.append(tuple(a))
        brows.append(tuple(b))
    inv = [_ref_invariants(x, y) for x, y in zip(arows, brows)]
    return times, arows, brows, inv, None, halved


def _bits(rows):
    return np.asarray(rows, dtype=float).tobytes()


class TestAgainstNumpyReference:
    def check(self, a, b, t_max, dt, threshold=1e8):
        traj = integrate(TodaState(a, b), t_max, dt, threshold)
        times, arows, brows, inv, blowup, halved = _ref_integrate(a, b, t_max, dt, threshold)
        assert _bits(traj.times) == _bits(times)
        assert _bits(traj.a) == _bits(arows)
        assert _bits(traj.b) == _bits(brows)
        assert _bits(traj.invariants) == _bits(inv)
        got = None if traj.blowup is None else (traj.blowup.time, traj.blowup.coordinate)
        assert got == blowup
        return traj, halved

    @pytest.mark.parametrize("rank", [*range(1, 9), 12, 32])
    def test_bounded(self, rank):
        a = tuple(0.25 * (-1) ** i * (i + 1) / rank for i in range(rank))
        b = tuple(0.5 + 0.125 * i for i in range(rank))
        traj, _ = self.check(a, b, 0.2, 1e-3)
        assert traj.blowup is None and len(traj.times) == 201

    @pytest.mark.parametrize("signs", ["-", "-+-", "+-+-+-"])
    def test_escape_halves_and_bisects(self, signs):
        # The escaping runs of the flow-sectors benchmark, at simulate's defaults.
        b = tuple(1.0 if s == "+" else -1.0 for s in signs)
        traj, halved = self.check((0.0,) * len(b), b, 5.0, 1e-3)
        assert traj.blowup is not None
        assert halved > 0

    @pytest.mark.parametrize("a,b,threshold,coordinate", [
        ((0.0, 0.0, 0.0), (-1.0, 1.0, -1.0), 1e3, "b3"),
        # a^2 + b is conserved, so a rises towards 9.995 while b decays.
        ((9.99,), (0.1,), 9.993, "a1"),
    ], ids=["b-crosses", "a-crosses"])
    def test_crossing_on_a_full_step(self, a, b, threshold, coordinate):
        # The crossing step is not halved: the common-step test fails on the
        # threshold alone and hands the step to the bisection.
        traj, _ = self.check(a, b, 5.0, 1e-3, threshold)
        assert traj.blowup.coordinate == coordinate
        a, b = np.array(traj.a[-1]), np.array(traj.b[-1])
        na, nb = _ref_rk4(a, b, 1e-3)
        assert np.all(np.isfinite(nb)) and np.max(np.abs(nb)) <= 2.0 * max(np.max(np.abs(b)), 1.0)
        assert _ref_exceeds(na, nb, threshold)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_sum_of_finite_coordinates(self):
        # Every row is finite but its a's sum past the largest float; each
        # coordinate is within its bound, so the common-step test accepts it.
        # Where b is nonzero the a's are linear between neighbours, so b * lap
        # is 0 and no step blows up; the invariants of these rows overflow.
        x = 3e307
        a, b = (x, 2 * x, x, 0.0, x, 2 * x, x), (1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0)
        traj, halved = self.check(a, b, 0.05, 1e-3, math.inf)
        assert traj.blowup is None and halved == 0 and len(traj.times) == 51
        for row_a, row_b in zip(traj.a, traj.b):
            assert all(map(math.isfinite, row_a + row_b))
            assert not math.isfinite(sum(row_a) + sum(row_b))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nan_past_the_first_coordinate(self):
        # The a's are linear up to a3, whose -2 * a3 overflows; with b3 = 0 the
        # step's b3 is 0 * inf = NaN, which reaches a2, b2 and a3 but not a1, b1.
        # max(map(abs, ...)) passes over a NaN that is not first; the
        # comparison on each coordinate sends this step to the exact tests.
        x = 1.5 * 2.0 ** 1021
        traj, _ = self.check((x, 2 * x, 3 * x), (1.0, 1.0, 0.0), 1.0, 1e-3, math.inf)
        assert len(traj.times) == 1 and traj.blowup is not None

    def test_drift_passes_over_nan_rows(self):
        # The invariants of a state can overflow to NaN (the powers of X hold
        # inf - inf); the drift is the largest finite one, over the other rows.
        invariants = [(2.0, 0.0, 6.0), (2.5, 0.0, 5.0), (1.0, -0.5, 6.0), (math.nan, math.inf, 6.0)]
        rows = [(0.0,) * 3] * len(invariants)
        traj = toda.Trajectory([0.0, 1.0, 2.0, 3.0], rows, rows, invariants)
        assert np.isnan(traj.invariants[-1]).any()
        first = np.asarray(traj.invariants[0])
        expected = max(np.max(np.abs(np.asarray(row) - first)) for row in traj.invariants)
        assert math.isfinite(expected)
        assert traj.max_invariant_drift() == expected == 1.0

    @pytest.mark.parametrize("a,b", [((0.0,), (-1.0,)), ((0.0, 0.0, 0.0), (-1.0, 1.0, -1.0))],
                             ids=["rank-1", "rank-3"])
    def test_no_time_repeats_near_the_pole(self, a, b):
        # Halving at dt = 1e-3 reaches steps below the spacing of the times
        # before any step overflows; the run ends there, at the last time.
        traj, _ = self.check(a, b, 5.0, 1e-3, math.inf)
        assert all(s < t for s, t in zip(traj.times, traj.times[1:]))
        assert traj.blowup is not None and traj.blowup.time == traj.times[-1]

    def test_every_step_passes_the_doubling_test(self):
        # At dt = 1 the halving of a step near the pole goes on far below 2^-48
        # of a step, and ends at t without recording a step that fails the test.
        traj, _ = self.check((0.0, 0.0, 0.0), (-1.0, 1.0, -1.0), 5.0, 1.0, math.inf)
        scales = [max(max(map(abs, b)), 1.0) for b in traj.b]
        assert all(max(map(abs, b)) <= 2.0 * s for s, b in zip(scales, traj.b[1:]))
        assert traj.blowup is not None and traj.blowup.time == traj.times[-1]

    @pytest.mark.parametrize("blocks,extra", [(1, -1), (1, 0), (1, 1), (4, 1)])
    def test_invariant_block_edge(self, blocks, extra):
        rows = blocks * toda._INVARIANT_BLOCK + extra
        # dt = 2^-10 keeps every recorded time exact, so the row count is rows.
        dt = 2.0 ** -10
        traj, _ = self.check((0.1, -0.2, 0.3, -0.4), (1.0, -0.5, 0.75, 1.25), (rows - 1) * dt, dt)
        assert len(traj.times) == rows

    @pytest.mark.parametrize("rank", [1, 3, 12])
    @pytest.mark.parametrize("dt", [1e-2, -1e-2])
    def test_step(self, rank, dt):
        a = tuple((0.3, -0.1, 0.2)[i % 3] + 0.01 * (i // 3) for i in range(rank))
        b = tuple((1.5, -0.5, 0.25)[i % 3] - 0.01 * (i // 3) for i in range(rank))
        out = step(TodaState(a, b), dt)
        na, nb = _ref_rk4(np.array(a), np.array(b), dt)
        assert _bits(out.a) == _bits(na)
        assert _bits(out.b) == _bits(nb)

    @pytest.mark.parametrize("a,b,t_max,halvings,rows", [
        ((0.0,), (-1.0,), 1.5, 1, 32),
        ((0.0, 0.0, 0.0), (-1.0, 1.0, -1.0), 1.4, 8, 34),
    ], ids=["rank-1", "rank-3"])
    def test_common_steps_resume_after_halving(self, a, b, t_max, halvings, rows):
        # The compiled loop hands a step that more than doubles the b's to the
        # exact halving, then takes the run back and ends it at t_max.
        traj, halved = self.check(a, b, t_max, 0.05)
        assert traj.blowup is None and halved == halvings and len(traj.times) == rows
        first_short = next(i for i, (s, t) in enumerate(zip(traj.times, traj.times[1:])) if t - s < 0.04)
        assert first_short < rows - 2 and traj.times[-1] == pytest.approx(t_max)

    def test_kernel_compiled_once_per_rank(self, monkeypatch):
        kernel = toda._rk4_kernel(5)
        assert toda._rk4_kernel(5) is kernel
        assert kernel.__code__.co_filename == "<todatopo.toda rk4 rank 5>"
        # step(), the common-step loop, the halving and the bisection all run this one function.
        calls = []

        def spy(*args):
            calls.append(args[-1] is toda._NO_ROWS)
            return kernel(*args)

        monkeypatch.setattr(toda, "_rk4_kernel", lambda n: spy)
        state = TodaState((0.0,) * 5, (1.0, -1.0, 1.0, -1.0, 1.0))
        step(state, 1e-3)
        assert calls == [True]
        assert integrate(state, 5.0, 1e-3).blowup is not None
        assert calls[1] is False and calls.count(False) > 1 and calls.count(True) > 20


def _kernel_run(a, b, scale, cap, h=0.01, steps=1):
    """The compiled loop from t = 0 for steps steps of h: (what it returns, rows it recorded)."""
    times, arows, brows = [], [], []
    out = toda._rk4_kernel(len(a))(a, b, 0.0, steps * h, (steps - 0.5) * h, h, scale, cap,
                                   (times.append, arows.append, brows.append))
    return out, list(zip(times, arows, brows))


class TestCommonStepTest:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("coordinate", [f"{x}{i}" for x in "ab" for i in (1, 2, 3)])
    def test_non_finite_rejected_at_infinite_threshold(self, coordinate, value):
        # integrate passes the cap min(threshold, largest float): at an infinite
        # threshold that is the largest float, and a non-finite step still fails.
        a, b = [0.1, -0.2, 0.3], [0.5, -0.25, 0.75]
        (a if coordinate[0] == "a" else b)[int(coordinate[1]) - 1] = value
        out, recorded = _kernel_run(tuple(a), tuple(b), 1.0, sys.float_info.max)
        assert recorded == []
        h, na, nb = out
        assert h == 0.01 and not all(map(math.isfinite, na + nb))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the invariants of the start
    def test_scale_whose_double_overflows(self):
        # Near the largest float 2 * scale is inf, and so is this step's a and b;
        # the cap keeps both bounds finite, so the step fails and the run stops at its start.
        a, b = (-0.25,), (1e308,)
        out, recorded = _kernel_run(a, b, 1e308, sys.float_info.max, h=1e-310)
        assert recorded == [] and out == (1e-310, (math.inf,), (math.inf,))
        traj = integrate(TodaState(a, b), 1e-300, 1e-310, math.inf)
        assert traj.times == [0.0] and traj.blowup is not None

    def test_finite_step_accepted_at_infinite_threshold(self):
        out, recorded = _kernel_run((0.1, -0.2, 0.3), (0.5, -0.25, 0.75), 1.0, sys.float_info.max)
        assert out is None and len(recorded) == 1

    def test_b_bound_is_twice_the_scale(self):
        a, b = (0.1, -0.2), (1.5, -0.5)
        na, nb = toda._one_step(toda._rk4_kernel(2), a, b, 0.01)
        m = max(map(abs, nb))
        out, recorded = _kernel_run(a, b, 0.5 * m, math.inf)
        assert out is None and recorded == [(0.01, na, nb)]
        out, recorded = _kernel_run(a, b, math.nextafter(0.5 * m, 0.0), math.inf)
        assert out == (0.01, na, nb) and recorded == []

    def test_scale_is_floored_at_one(self):
        # b grows about 2.7-fold per step, but stays far below 1: no step needs halving.
        out, recorded = _kernel_run((-5.0,), (0.01,), 1.0, math.inf, h=0.1, steps=3)
        assert out is None and len(recorded) == 3
        assert recorded[-1][2][0] > 2 * recorded[-2][2][0]

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the eighth-call rule is CPython 3.11's")
    def test_loop_is_specialized_before_its_first_run(self):
        # A run is one call of the loop, and CPython 3.11 specializes a function's
        # bytecode only from its eighth call: building the function makes those calls.
        import dis

        kernel = toda._rk4_kernel.__wrapped__(6)
        assert "BINARY_OP_MULTIPLY_FLOAT" in {i.opname for i in dis.get_instructions(kernel, adaptive=True)}

    def test_bound_is_the_cap(self):
        a, b = (0.1, -0.2), (1.5, -0.5)
        na, nb = toda._one_step(toda._rk4_kernel(2), a, b, 0.01)
        m = max(map(abs, nb))
        out, _ = _kernel_run(a, b, 1.0, m)
        assert out is None
        out, _ = _kernel_run(a, b, 1.0, math.nextafter(m, 0.0))
        assert out == (0.01, na, nb)


class TestThreshold:
    @pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan, -math.inf])
    def test_rejects_non_positive(self, threshold):
        with pytest.raises(ConfigError, match="threshold must be positive"):
            integrate(TodaState((0.0,), (1.0,)), 1.0, 1e-3, threshold=threshold)

    def test_inf_counts_only_non_finite(self):
        # No threshold is crossed: the run ends where a halved step stops advancing t.
        traj = integrate(TodaState((0.0,), (-1.0,)), 5.0, 1e-3, threshold=math.inf)
        assert traj.blowup is not None
        assert traj.blowup.time == pytest.approx(math.pi / 2, abs=1e-3)
