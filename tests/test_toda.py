import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from todatopo import (
    TodaState,
    assemble_matrix,
    chevalley_invariants,
    detect_blowup,
    eigenvalues,
    integrate,
    step,
    subsystem,
)
from todatopo.errors import ConfigError

floats = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


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


class TestIntegrateArguments:
    @pytest.mark.parametrize("t_max,dt", [
        (math.nan, 1e-3), (math.inf, 1e-3), (-1.0, 1e-3), (0.0, 1e-3),
        (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf), (1.0, 0.0),
    ])
    def test_rejects_non_finite_or_non_positive(self, t_max, dt):
        with pytest.raises(ConfigError, match="positive and finite"):
            integrate(TodaState((0.0,), (1.0,)), t_max, dt)


class TestBlowup:
    def test_n2_negative_sector_blows_up_at_known_time(self):
        # a=0, b=-1: the slope satisfies da/dt = -(1 + a^2), a pole at pi/2
        traj = integrate(TodaState((0.0,), (-1.0,)), 5.0, 1e-3)
        t = detect_blowup(traj)
        assert t is not None
        assert t == pytest.approx(math.pi / 2, abs=1e-3)

    def test_definite_sector_stays_bounded(self):
        traj = integrate(TodaState((0.0,), (1.0,)), 20.0, 1e-3)
        assert detect_blowup(traj) is None

    def test_threshold_insensitivity(self):
        s = TodaState((0.0,), (-1.0,))
        t6 = detect_blowup(integrate(s, 5.0, 1e-3, threshold=1e6))
        t9 = detect_blowup(integrate(s, 5.0, 1e-3, threshold=1e9))
        assert t6 is not None and t9 is not None
        assert abs(t6 - t9) / t9 < 0.01

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

    def test_isospectral_n3_n4(self):
        for n in (3, 4):
            l = n - 1
            s = TodaState((0.0,) * l, (1.0,) * l)
            traj = integrate(s, 2.0, 1e-3)
            ev0 = eigenvalues(s)
            evf = eigenvalues(traj.final_state())
            assert np.max(np.abs(evf - ev0)) < 1e-9
