import pytest
from hypothesis import given, strategies as st

from ruinwalk.core import (
    ParameterError,
    Strategy,
    WalkParams,
    stop_probability,
)


class TestWalkParams:
    def test_derived_quantities(self):
        params = WalkParams(0.4, 0.5, 2)
        assert params.q == pytest.approx(0.6, abs=0)
        assert params.omega == pytest.approx(0.4 / 0.6, rel=1e-15)
        assert params.omega_pow == pytest.approx((0.4 / 0.6) ** 2, rel=1e-15)

    def test_symmetric_flag_is_exact(self):
        assert WalkParams(0.5, 0.1, 1).symmetric
        assert not WalkParams(0.5 + 1e-12, 0.1, 1).symmetric

    @pytest.mark.parametrize("p", [0.0, 1.0, 1.2, -0.1])
    def test_rejects_bad_p(self, p):
        with pytest.raises(ParameterError):
            WalkParams(p, 0.5, 1)

    @pytest.mark.parametrize("s", [-0.01, 1.01])
    def test_rejects_bad_s(self, s):
        with pytest.raises(ParameterError):
            WalkParams(0.5, s, 1)

    @pytest.mark.parametrize("i0", [0, -3, 1.5])
    def test_rejects_bad_i0(self, i0):
        with pytest.raises(ParameterError):
            WalkParams(0.5, 0.5, i0)


class TestStopProbability:
    def test_state_zero_always_absorbs(self, strategy):
        params = WalkParams(0.4, 0.3, 2)
        for t in (0, 1, 10):
            assert stop_probability(params, strategy, 0, t) == 1.0

    def test_delayed_start_barrier(self):
        params = WalkParams(0.4, 0.3, 2)
        assert stop_probability(params, Strategy.B, 2, 0) == 0.0
        assert stop_probability(params, Strategy.B, 2, 1) == 0.3
        assert stop_probability(params, Strategy.A, 2, 0) == 0.3

    def test_risk_seeking_start_state_never_stops(self):
        params = WalkParams(0.4, 0.3, 2)
        for t in (0, 1, 7):
            assert stop_probability(params, Strategy.C, 2, t) == 0.0
        assert stop_probability(params, Strategy.C, 4, 7) == 0.3

    @given(
        pos=st.integers(min_value=1, max_value=60),
        t=st.integers(min_value=0, max_value=20),
        i0=st.integers(min_value=1, max_value=6),
        s=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_values_only_zero_s_or_one(self, pos, t, i0, s):
        params = WalkParams(0.4, s, i0)
        for strat in Strategy:
            value = stop_probability(params, strat, pos, t)
            assert value in (0.0, s)

    @given(
        pos=st.integers(min_value=0, max_value=60),
        t=st.integers(min_value=0, max_value=20),
        i0=st.integers(min_value=1, max_value=6),
    )
    def test_a_and_b_agree_except_at_start_time_zero(self, pos, t, i0):
        params = WalkParams(0.45, 0.7, i0)
        a = stop_probability(params, Strategy.A, pos, t)
        b = stop_probability(params, Strategy.B, pos, t)
        if pos == i0 and t == 0:
            assert (a, b) == (0.7, 0.0)
        else:
            assert a == b
