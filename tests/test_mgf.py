import decimal
import gc
import math
import sys
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from ruinwalk import charpoly as cp
from ruinwalk import metrics, mgf, oracle, reports
from ruinwalk.core import ParameterError, Strategy, UnsupportedRegimeError, WalkParams

from conftest import SQRT3, grid_params, small_grid


class TestBarrierValues:
    """Closed-form values on the barrier lattice, pinned where known."""

    def test_symmetric_unit_stake_spot_values(self):
        params = WalkParams(0.5, 0.5, 1)
        phi2 = 2.0 - SQRT3
        a, b, c = (fn(params, 1.0) for fn in (mgf.mgf_a, mgf.mgf_b, mgf.mgf_c))
        assert a.at(0) == pytest.approx(phi2, rel=1e-12)
        assert a.at(1) == pytest.approx(4.0 * phi2, rel=1e-12)
        assert b.at(1) == pytest.approx((4.0 * phi2 - 1.0) / 0.5, rel=1e-12)
        assert b.at(0) == pytest.approx(phi2 / 0.5, rel=1e-12)
        assert c.at(0) == pytest.approx(1.0 / SQRT3, rel=1e-12)
        assert c.at(1) == pytest.approx(2.0 / SQRT3, rel=1e-12)

    def test_tiny_z_limits(self):
        params = WalkParams(0.5, 0.5, 1)
        assert mgf.mgf_a(params, 1e-9).at(1) == pytest.approx(1.0, abs=1e-12)
        assert mgf.mgf_b(params, 1e-9).at(1) == pytest.approx(0.0, abs=1e-12)
        assert mgf.mgf_c(WalkParams(0.5, 0.5, 2), 1e-9).at(1) == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("s", [0.0, 1.0])
    def test_answers_no_stop_and_total_stop(self, s):
        # at s = 0 and s = 1 the one closed form answers, and matches propagation
        strategies = {mgf.mgf_a: Strategy.A, mgf.mgf_b: Strategy.B, mgf.mgf_c: Strategy.C}
        params = WalkParams(0.4, s, 1)
        for fn, strategy in strategies.items():
            for z in (0.3, 0.8):
                values = fn(params, z)
                for k in range(4):
                    want = oracle.mgf_dp(params, strategy, z, k, tol=1e-12)
                    assert values.at(k) == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("p", [0.5, 0.6])
    def test_no_stop_visits_diverge_where_the_walk_may_escape(self, p):
        # at z = 1 with s = 0 and p >= 1/2, phi2 is 1 with a gap of 0: the
        # expected visits to the barriers past the head sum to infinity
        values = mgf.mgf_b(WalkParams(p, 0.0, 2), 1.0)
        assert values.gap == 0.0
        assert values.total == math.inf

    def test_step_root_overflow_raises_the_typed_error(self):
        # tau1 is near 200 at z = 0.01: its 200th power overflows
        for fn in (mgf.mgf_a, mgf.mgf_b, mgf.mgf_c):
            with pytest.raises(UnsupportedRegimeError, match="overflow"):
                fn(WalkParams(0.5, 0.5, 200), 0.01)

    def test_profile_head_spans_the_first_barriers_and_tail_is_phi2(self):
        # every strategy's head runs to barrier 2, the head metrics uses
        params = WalkParams(0.45, 0.3, 3)
        phi2 = mgf.characteristic(params, 0.8).phi.phi2
        last = 2
        for fn in (mgf.mgf_a, mgf.mgf_b, mgf.mgf_c):
            prof = fn(params, 0.8)
            assert len(prof.head) == last + 1
            assert (prof.rho, prof.gap, prof.drho, prof.mass) == (phi2, 1.0 - phi2, 0.0, 0.0)
            for m in range(1, 6):
                want = prof.head[-1] * phi2 ** m
                assert prof.at(last + m) == pytest.approx(want, rel=1e-15)

    def test_a_to_b_relation_everywhere(self):
        for params in grid_params():
            for z in (0.3, 0.7, 1.0):
                a, b = mgf.mgf_a(params, z), mgf.mgf_b(params, z)
                # at i0, theta's definition gives A's value independently as U_i0 / (q z psi1)
                char = mgf.characteristic(params, z)
                want = char.u_i0 / (params.q * z * char.phi.psi1)
                assert abs(a.at(1) - want) <= 1e-12 * want
                for k in range(5):
                    ua, vb = a.at(k), b.at(k)
                    delta = 1.0 if k == 1 else 0.0
                    assert ua == pytest.approx(
                        delta + (1.0 - params.s) * vb, rel=1e-12, abs=1e-300
                    )

    def test_barrier_recurrence(self):
        for params in grid_params():
            for z in (0.4, 1.0):
                char = mgf.characteristic(params, z)
                vals = [mgf.mgf_a(params, z).at(k) for k in range(8)]
                for k in range(2, 7):
                    residual = (
                        vals[k + 1]
                        - char.theta * vals[k]
                        + params.omega_pow * vals[k - 1]
                    )
                    assert abs(residual) < 1e-10 * max(vals[1], 1.0)

    def test_c_barrier_link(self):
        # omega**i0 * W(i0) == (1-s) * phi1 * W(2*i0) = psi1 * W(2*i0) at any z
        for params in small_grid():
            for z in (0.3, 0.8, 1.0):
                phi = mgf.characteristic(params, z).phi
                w = mgf.mgf_c(params, z)
                w1, w2 = w.at(1), w.at(2)
                lhs = params.omega_pow * w1
                rhs = phi.psi1 * w2
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_geometric_barrier_ratio(self):
        for params in small_grid():
            for z in (0.5, 1.0):
                phi2 = mgf.characteristic(params, z).phi.phi2
                a, c = mgf.mgf_a(params, z), mgf.mgf_c(params, z)
                for k in (1, 2, 3):
                    assert a.at(k + 1) / a.at(k) == pytest.approx(phi2, rel=1e-12)
                for k in (2, 3):
                    assert c.at(k + 1) / c.at(k) == pytest.approx(phi2, rel=1e-12)

    @given(
        z=st.floats(min_value=0.05, max_value=1.0),
        p=st.floats(min_value=0.05, max_value=0.95),
        s=st.floats(min_value=0.01, max_value=0.99),
        i0=st.integers(min_value=1, max_value=5),
        k=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=200)
    def test_values_nonnegative(self, z, p, s, i0, k):
        params = WalkParams(p, s, i0)
        for fn in (mgf.mgf_a, mgf.mgf_b, mgf.mgf_c):
            assert fn(params, z).at(k) >= 0.0


def _b_start_reference(p, s, i0, z):
    """B's value at i0, ``(2p U_{i0-1} + q phi2) / (q (1-s) phi1)``, in 50 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        p, s, z = Decimal(p), Decimal(s), Decimal(z)
        q = 1 - p
        tau1 = (1 + (1 - 4 * p * q * z * z).sqrt()) / (2 * q * z)
        tau2 = p / q / tau1

        def u(n):
            return sum(tau1 ** a * tau2 ** (n - 1 - a) for a in range(n))

        omega_pow = (p / q) ** i0
        theta = (u(i0) / (1 - s) - 2 * p * z * u(i0 - 1)) / (q * z)
        phi1 = (theta + (theta * theta - 4 * omega_pow).sqrt()) / 2
        phi2 = omega_pow / phi1
        return (2 * p * u(i0 - 1) + q * phi2) / (q * (1 - s) * phi1)


class TestTotalStop:
    """At s = 1 the barrier forms and the interior bridge take the formulas of
    every other s: psi1 = U_i0/(q z) and phi2 = 0, with no division by 1 - s."""

    @pytest.mark.parametrize("z", [0.3, 0.8])
    @pytest.mark.parametrize("p", [0.1, 0.4, 0.5, 0.7, 0.95])
    @pytest.mark.parametrize("i0", [1, 2, 3, 5])
    def test_every_state_matches_propagation(self, i0, p, z, strategy):
        params = WalkParams(p, 1.0, i0)
        positions = range(3 * i0 + 1)
        got = mgf.mgf_states(params, strategy, z, positions)
        barriers = mgf._barrier_fn(strategy)(params, z)
        for j, value in zip(positions, got):
            want = oracle.mgf_dp(params, strategy, z, j, tol=1e-12)
            assert value == pytest.approx(want, abs=1e-8), j
            if j % i0 == 0:
                assert value == barriers.at(j // i0)


class TestStrategyBStart:
    @pytest.mark.parametrize("z", [0.1, 0.3, 0.7])
    @pytest.mark.parametrize("i0", [1, 2, 3])
    @pytest.mark.parametrize("s", [0.5, 0.9, 0.98, 0.99])
    @pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.7, 0.95])
    def test_matches_a_50_digit_evaluation(self, p, s, i0, z):
        got = mgf.mgf_b(WalkParams(p, s, i0), z).at(1)
        want = _b_start_reference(p, s, i0, z)
        assert abs(Decimal(got) - want) <= Decimal("1e-14") * want


class TestInterior:
    def test_requires_wide_lattice_and_offset(self):
        with pytest.raises(ParameterError):
            mgf.mgf_interior(WalkParams(0.4, 0.5, 1), Strategy.A, 0.5, 1)
        with pytest.raises(ParameterError):
            mgf.mgf_interior(WalkParams(0.4, 0.5, 2), Strategy.A, 0.5, 4)

    def test_lowest_segment_boundary_relation(self):
        # value(1) == q*z*value(2) on the segment below the first barrier
        params = WalkParams(0.4, 0.3, 3)
        z = 0.7
        v1 = mgf.mgf_interior(params, Strategy.A, z, 1)
        v2 = mgf.mgf_interior(params, Strategy.A, z, 2)
        assert v1 == pytest.approx(params.q * z * v2, rel=1e-12)

    def test_upper_segment_boundary_relation_below_start(self):
        # value(i0-1) == p*z*value(i0-2) + q*z*(1-s)*value(i0) for A
        params = WalkParams(0.45, 0.3, 4)
        z = 0.8
        lhs = mgf.mgf_interior(params, Strategy.A, z, 3)
        rhs = params.p * z * mgf.mgf_interior(params, Strategy.A, z, 2) + params.q * z * (
            1.0 - params.s
        ) * mgf.mgf_a(params, z).at(1)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_c_boundary_below_start_has_no_stop_factor(self):
        # value(i0-1) == p*z*value(i0-2) + q*z*value(i0) for C
        params = WalkParams(0.4, 0.3, 3)
        z = 0.7
        lhs = mgf.mgf_interior(params, Strategy.C, z, 2)
        rhs = params.p * z * mgf.mgf_interior(params, Strategy.C, z, 1) + params.q * z * mgf.mgf_c(
            params, z
        ).at(1)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_matches_propagation_oracle(self):
        params = WalkParams(0.5, 0.5, 2)
        value = mgf.mgf_interior(params, Strategy.A, 0.5, 1)
        dp = oracle.mgf_dp(params, Strategy.A, 0.5, 1, tol=1e-12)
        assert value == pytest.approx(dp, abs=1e-9)

    @pytest.mark.parametrize("i0", [1, 3])
    def test_states_are_the_very_floats_of_each_value(self, i0, strategy):
        params, positions = WalkParams(0.45, 0.3, i0), list(range(3 * i0 + 2))
        for z in (0.4, 1.0):
            got = mgf.mgf_states(params, strategy, z, positions)
            assert got == [mgf.mgf_value(params, strategy, z, pos) for pos in positions]
            assert got == [mgf.mgf_states(params, strategy, z, [pos])[0] for pos in positions]

    @pytest.mark.parametrize("position", [-1, -3])
    def test_negative_positions_are_refused(self, position):
        params = WalkParams(0.4, 0.5, 3)
        with pytest.raises(ParameterError, match="position must be >= 0"):
            mgf.mgf_states(params, Strategy.A, 0.5, [0, position])
        with pytest.raises(ParameterError, match="position must be >= 0"):
            mgf.mgf_value(params, Strategy.A, 0.5, position)

    def test_dispatch_covers_all_states(self):
        params = WalkParams(0.4, 0.5, 3)
        for pos in range(0, 10):
            val = mgf.mgf_value(params, Strategy.B, 0.6, pos)
            assert val >= 0.0


class TestAgainstPropagationOracle:
    """The defining cross-check: closed forms equal the step-by-step sums."""

    def test_barrier_values_on_grid(self):
        for params in small_grid():
            for z in (0.3, 0.9):
                for strat in Strategy:
                    fn = {
                        Strategy.A: mgf.mgf_a,
                        Strategy.B: mgf.mgf_b,
                        Strategy.C: mgf.mgf_c,
                    }[strat]
                    values = fn(params, z)
                    # past the head (k > 2, or k > 3 for C) from the geometric tail
                    for k in range(6):
                        want = oracle.mgf_dp(params, strat, z, k * params.i0, tol=1e-11)
                        assert values.at(k) == pytest.approx(
                            want, abs=1e-8
                        ), (params, z, strat, k)

    def test_interior_values_on_grid(self):
        for params in small_grid():
            if params.i0 < 2:
                continue
            for z in (0.5,):
                for strat in Strategy:
                    for pos in (1, params.i0 + 1):
                        want = oracle.mgf_dp(params, strat, z, pos, tol=1e-11)
                        got = mgf.mgf_interior(params, strat, z, pos)
                        assert got == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("p, s, i0", [(0.45, 0.3, 3), (0.6, 0.7, 4)])
    @pytest.mark.parametrize("z", [0.6, 0.95])
    def test_every_interior_state_of_the_first_three_segments(self, p, s, i0, z, strategy):
        # each segment end weighs 0 at ruin, 1 - s on a barrier, 1 elsewhere:
        # C's [0, i0] has no barrier end, [i0, 2*i0] one; B's [0, i0] ends on
        # the start, which stops only from t = 1
        params = WalkParams(p, s, i0)
        for pos in range(1, 3 * i0):
            if pos % i0:
                want = oracle.mgf_dp(params, strategy, z, pos, tol=1e-12)
                got = mgf.mgf_interior(params, strategy, z, pos)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-11), pos

    def test_monotone_in_z(self):
        for params in small_grid():
            for strat in Strategy:
                for pos in (0, params.i0, 2 * params.i0):
                    prev = -math.inf
                    for j in range(1, 11):
                        val = mgf.mgf_value(params, strat, 0.1 * j, pos)
                        assert val >= prev - 1e-12
                        prev = val


def _z_functions(i0, z):
    """Every closed form that reads the characteristic at ``z``, as ``params -> value``."""
    out = {}
    for name, fn in (("a", mgf.mgf_a), ("b", mgf.mgf_b), ("c", mgf.mgf_c)):
        out[f"mgf_{name}"] = lambda params, fn=fn: fn(params, z)
    for strat in Strategy:
        for pos in range(0, 2 * i0 + 2):
            out[f"mgf_value {strat.value} {pos}"] = (
                lambda params, strat=strat, pos=pos: mgf.mgf_value(params, strat, z, pos)
            )
        out[f"mgf_states {strat.value}"] = (
            lambda params, strat=strat: mgf.mgf_states(params, strat, z, range(2 * i0 + 2))
        )
        if i0 >= 2:
            out[f"mgf_interior {strat.value}"] = (
                lambda params, strat=strat: mgf.mgf_interior(params, strat, z, i0 + 1)
            )
    return out


def _unit_z_functions():
    """Every closed form that reads the characteristic at z = 1, as ``params -> value``."""
    out = {
        "bc_ratio": metrics.bc_ratio,
        "derivatives_at_1": cp.derivatives_at_1,
        "cli diagnostics": reports.diagnostics,
    }
    for strat in Strategy:
        out[f"absorption_profile {strat.value}"] = (
            lambda params, strat=strat: metrics.absorption_profile(params, strat)
        )
        out[f"time_profile {strat.value}"] = (
            lambda params, strat=strat: metrics.time_profile(params, strat)
        )
        out[f"mean_time_any {strat.value}"] = (
            lambda params, strat=strat: metrics.mean_time_any(params, strat)
        )
    return out


class TestCharacteristicMemo:
    """Each ``WalkParams`` keeps its characteristic at the last z asked, and
    keeping it changes no result."""

    @given(
        p=st.floats(min_value=0.05, max_value=0.95),
        s=st.floats(min_value=1e-3, max_value=0.999),
        i0=st.integers(min_value=1, max_value=6),
        z=st.floats(min_value=1e-3, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_results_equal_on_fresh_and_filled_params(self, p, s, i0, z):
        filled = WalkParams(p, s, i0)
        for functions, at in ((_z_functions(i0, z), z), (_unit_z_functions(), 1.0)):
            mgf.characteristic(filled, at)
            for name, fn in functions.items():
                assert fn(filled) == fn(WalkParams(p, s, i0)), name

    def test_fields_are_the_separately_solved_roots(self):
        params = WalkParams(0.4, 0.3, 3)
        char = mgf.characteristic(params, 0.7)
        roots = cp.tau_roots(0.7, params)
        assert char.roots == roots and roots.z == 0.7
        u_i0, u_prev = cp.power_divided_difference(roots, 3), cp.power_divided_difference(roots, 2)
        assert (char.u_i0, char.u_prev) == (u_i0, u_prev)
        assert char.theta == cp.theta(0.7, params, u_i0, u_prev)
        assert char.phi == cp.phi_roots(roots, params, u_i0)
        # away from the double root the gaps are the plain differences, to rounding
        phi = char.phi
        one_ms = 1.0 - params.s
        assert phi.psi1_gap == pytest.approx(phi.psi1 - one_ms, rel=1e-15)
        assert phi.phi2_gap == pytest.approx(1.0 - phi.phi2, rel=1e-15)
        assert phi.psi_sqrt_disc == pytest.approx(phi.psi1 - one_ms * phi.phi2, rel=1e-15)
        assert phi.v_minus_phi2 == pytest.approx(roots.tau1 ** 3 + roots.tau2 ** 3 - phi.phi2, rel=1e-15)

    def test_same_z_returns_the_identical_object_and_a_new_z_replaces_it(self):
        params = WalkParams(0.4, 0.3, 3)
        first = mgf.characteristic(params, 0.7)
        assert mgf.characteristic(params, 0.7) is first
        other = mgf.characteristic(params, 0.5)
        assert other.roots.z == 0.5
        assert mgf.characteristic(params, 0.5) is other
        again = mgf.characteristic(params, 0.7)
        assert again is not first and again == first

    def test_derivatives_are_kept_apart_from_the_characteristic(self):
        params = WalkParams(0.4, 0.3, 3)
        first = cp.derivatives_at_1(params)
        assert cp.derivatives_at_1(params) is first
        # a characteristic at another z leaves the bundle in place
        mgf.characteristic(params, 0.5)
        assert cp.derivatives_at_1(params) is first
        # an equal instance is another object, and is solved again to an equal bundle
        again = cp.derivatives_at_1(WalkParams(0.4, 0.3, 3))
        assert again is not first and again == first

    def test_is_a_tuple_of_its_fields_whatever_has_been_solved(self):
        fresh, unit, elsewhere = (WalkParams(0.4, 0.3, 3) for _ in range(3))
        mgf.characteristic(unit, 1.0)
        cp.derivatives_at_1(unit)
        mgf.characteristic(elsewhere, 0.5)
        for params in (fresh, unit, elsewhere):
            assert params == (0.4, 0.3, 3)
            assert hash(params) == hash((0.4, 0.3, 3))
            assert repr(params) == "WalkParams(p=0.4, s=0.3, i0=3)"
        assert len({fresh, unit, elsewhere}) == 1

    def test_kept_solves_release_their_params_once_another_is_solved(self):
        # the kept characteristic and bundle hold the last params solved,
        # and only until the next params is: no reference outlives that
        params, other = WalkParams(0.4, 0.3, 3), WalkParams(0.45, 0.3, 3)
        gc.disable()
        try:
            before = sys.getrefcount(params)
            mgf.characteristic(params, 1.0)
            cp.derivatives_at_1(params)
            assert sys.getrefcount(params) > before
            mgf.characteristic(other, 1.0)
            cp.derivatives_at_1(other)
            assert sys.getrefcount(params) == before
        finally:
            gc.enable()

    def test_is_frozen(self):
        char = mgf.characteristic(WalkParams(0.4, 0.3, 3), 1.0)
        with pytest.raises(AttributeError):
            char.theta = 0.5
