import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from ruinwalk import charpoly as cp
from ruinwalk import metrics, mgf, oracle, reports
from ruinwalk.core import ParameterError, Profile, Strategy, UnsupportedRegimeError, WalkParams

import decimal_reference as ref
from conftest import SQRT3, grid_params, small_grid


class TestAbsorptionProfile:
    def test_symmetric_unit_stake_delayed_strategy(self):
        prof = metrics.absorption_profile(WalkParams(0.5, 0.5, 1), Strategy.B)
        phi2 = 2.0 - SQRT3
        assert prof.at(0) == pytest.approx(4.0 - 2.0 * SQRT3, rel=1e-12)
        assert prof.at(1) == pytest.approx(7.0 - 4.0 * SQRT3, rel=1e-12)
        for k in (2, 3, 4):
            assert prof.at(k) == pytest.approx(4.0 * phi2 ** k, rel=1e-12)
        assert prof.total == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_unit_stake_risk_seeking(self):
        prof = metrics.absorption_profile(WalkParams(0.5, 0.5, 1), Strategy.C)
        assert prof.at(0) == pytest.approx(1.0 / SQRT3, rel=1e-12)
        assert prof.at(1) == 0.0

    def test_no_stop_masses(self):
        assert metrics.absorption_profile(WalkParams(0.4, 0.0, 2), Strategy.B).at(0) == 1.0
        assert metrics.absorption_profile(WalkParams(0.5, 0.0, 2), Strategy.A).at(0) == 1.0
        prof = metrics.absorption_profile(WalkParams(0.7, 0.0, 2), Strategy.C)
        assert prof.at(0) == pytest.approx((0.3 / 0.7) ** 2, rel=1e-12)
        assert prof.beyond(0) == 0.0

    def test_all_stop_symmetric_masses(self):
        prof = metrics.absorption_profile(WalkParams(0.5, 1.0, 2), Strategy.B)
        assert prof.at(0) == pytest.approx(0.25, rel=1e-12)
        assert prof.at(1) == pytest.approx(0.5, rel=1e-12)
        assert prof.at(2) == pytest.approx(0.25, rel=1e-12)

    def test_all_stop_unit_stake_one_step_decides(self):
        prof = metrics.absorption_profile(WalkParams(0.4, 1.0, 1), Strategy.B)
        assert prof.at(0) == pytest.approx(0.6, rel=1e-12)
        assert prof.at(1) == pytest.approx(0.0, abs=1e-15)
        assert prof.at(2) == pytest.approx(0.4, rel=1e-12)

    def test_all_stop_immediate_for_eager_strategy(self):
        prof = metrics.absorption_profile(WalkParams(0.3, 1.0, 4), Strategy.A)
        assert prof.at(0) == 0.0
        assert prof.at(1) == 1.0

    def test_mass_conservation_on_grid(self, strategy):
        for params in grid_params():
            prof = metrics.absorption_profile(params, strategy)
            assert prof.total == pytest.approx(1.0, abs=1e-9)

    def test_matches_exact_solver(self, strategy):
        for params in small_grid():
            sol = oracle.solve_exact(params, strategy, tol=1e-11)
            prof = metrics.absorption_profile(params, strategy)
            assert prof.at(0) == pytest.approx(sol.p0, abs=1e-9)
            for k in range(1, 33):
                assert prof.at(k) == pytest.approx(
                    sol.pk.get(k, 0.0), abs=1e-9
                )

    def test_small_stop_approaches_no_stop(self):
        for p, i0 in [(0.4, 2), (0.6, 1)]:
            near = metrics.absorption_profile(WalkParams(p, 1e-6, i0), Strategy.B)
            limit = metrics.absorption_profile(WalkParams(p, 0.0, i0), Strategy.B)
            assert near.at(0) == pytest.approx(limit.at(0), abs=1e-4)

    def test_theta_overflow_raises_instead_of_negative_mass(self, strategy):
        # tau1**i0 overflows here; at i0 = 200, where theta**2 overflowed,
        # the profile used to total -1.0
        with pytest.raises(UnsupportedRegimeError):
            metrics.absorption_profile(WalkParams(0.9, 0.5, 330), strategy)

    @pytest.mark.parametrize("p", [0.9, 0.01])
    def test_extreme_omega_powers_match_the_exact_solver(self, p, strategy):
        # at p = 0.9 omega**i0 is past 1e154: theta**2 overflowed, and every
        # strategy raised; the root of the discriminant is finite, and so is
        # every answer.  At p = 0.01 omega**i0 = 7.5e-400 rounds phi2 to 0,
        # which was refused; no closed form divides by phi2, so 0 is a value
        params = WalkParams(p, 0.5, 200)
        sol = oracle.solve_exact(params, strategy, tol=1e-11)
        prof, tp = metrics.absorption_profile(params, strategy), metrics.time_profile(params, strategy)
        for k in range(4):
            assert abs(prof.at(k) - sol.masses.at(k)) <= 1e-13, k
            assert tp.at(k) == pytest.approx(sol.times.at(k), rel=1e-11, abs=0.0), k
        assert metrics.mean_time_any(params, strategy) == pytest.approx(sol.m_total, rel=1e-13)

    @pytest.mark.parametrize("p, s", [(0.99, 0.0), (0.99, 0.5), (0.99, 1.0)])
    def test_powers_out_of_float_range_raise_the_typed_error(self, p, s, strategy):
        # omega**i0 or the step-root powers overflow; these escaped as OverflowError
        params = WalkParams(p, s, 200)
        for fn in (metrics.absorption_profile, metrics.time_profile):
            with pytest.raises(UnsupportedRegimeError, match="overflow"):
                fn(params, strategy)


class TestProfileProperties:
    """A profile's head and geometric tail answer every barrier."""

    @given(
        p=st.floats(min_value=0.05, max_value=0.95),
        s=st.floats(min_value=1e-3, max_value=0.999),
        i0=st.integers(min_value=1, max_value=6),
        strategy=st.sampled_from(Strategy),
    )
    @settings(max_examples=200, deadline=None)
    def test_tail_sums_total_mass_and_barrier_values(self, p, s, i0, strategy):
        params = WalkParams(p, s, i0)
        masses = metrics.absorption_profile(params, strategy)
        for prof in (masses, metrics.time_profile(params, strategy)):
            for k in range(8):
                want = prof.at(k + 1) + prof.beyond(k + 1)
                assert prof.beyond(k) == pytest.approx(want, rel=1e-14), k
        assert masses.total == pytest.approx(1.0, abs=1e-9)
        fn = {Strategy.A: mgf.mgf_a, Strategy.B: mgf.mgf_b, Strategy.C: mgf.mgf_c}[strategy]
        values = fn(params, 1.0)
        for k in range(65):
            stop = 1.0 if k == 0 else 0.0 if (strategy is Strategy.C and k == 1) else s
            want = stop * values.at(k)
            # far below 1e-290 phi2**k, on either side, may be subnormal
            assert math.isclose(masses.at(k), want, rel_tol=2e-15, abs_tol=1e-290), k


class TestOneSolvePerProfile:
    @pytest.mark.parametrize("kmax", [8, 256])
    def test_one_theta_solve_per_params(self, strategy, kmax, monkeypatch):
        calls = [0]
        theta = cp.theta

        def counted(*args, **kwargs):
            calls[0] += 1
            return theta(*args, **kwargs)

        # count theta through both bindings: mgf calls the name it imported
        monkeypatch.setattr(cp, "theta", counted)
        monkeypatch.setattr(mgf, "theta", counted)
        for first in (metrics.absorption_profile, metrics.time_profile):
            calls[0] = 0
            params = WalkParams(0.45, 0.3, 2)
            prof = first(params, strategy)
            # a profile answers barriers 0..kmax from what it holds
            assert all(math.isfinite(prof.at(k)) for k in range(kmax + 1))
            assert calls[0] == 1, first.__name__
            # every later closed form on the same object reads the kept solve
            for other in Strategy:
                metrics.absorption_profile(params, other)
                metrics.time_profile(params, other)
                metrics.mean_time_any(params, other)
            metrics.bc_ratio(params)
            cp.derivatives_at_1(params)
            reports.diagnostics(params)
            assert calls[0] == 1, first.__name__


class TestBCRatio:
    def test_symmetric_unit_stake_value(self):
        ratio = metrics.bc_ratio(WalkParams(0.5, 0.5, 1))
        assert ratio == pytest.approx(2.0 * (2.0 - SQRT3) * SQRT3, rel=1e-12)

    def test_constant_across_sites_and_below_one(self):
        for p in (0.3, 0.5, 0.7):
            for s in (0.1, 0.9):
                for i0 in (1, 3):
                    params = WalkParams(p, s, i0)
                    ratio = metrics.bc_ratio(params)
                    assert ratio < 1.0
                    pb = metrics.absorption_profile(params, Strategy.B)
                    pc = metrics.absorption_profile(params, Strategy.C)
                    assert ratio == pytest.approx(pb.at(0) / pc.at(0), abs=1e-10)
                    assert ratio == pytest.approx(pb.at(3) / pc.at(3), abs=1e-10)

    def test_rejects_limit_stop(self):
        for s in (0.0, 1.0):
            with pytest.raises(UnsupportedRegimeError):
                metrics.bc_ratio(WalkParams(0.4, s, 1))


class TestMeanTimeAny:
    def test_symmetric_unit_stake_values(self):
        assert metrics.mean_time_any(
            WalkParams(0.5, 0.5, 1), Strategy.A
        ) == pytest.approx(SQRT3 - 1.0, rel=1e-12)
        assert metrics.mean_time_any(
            WalkParams(0.5, 0.5, 1), Strategy.B
        ) == pytest.approx(2.0 * (SQRT3 - 1.0), rel=1e-12)
        assert metrics.mean_time_any(
            WalkParams(0.5, 0.5, 1), Strategy.C
        ) == pytest.approx((2.0 + SQRT3 - 1.0) / SQRT3, rel=1e-12)

    def test_a_is_one_minus_s_of_b(self):
        for params in grid_params():
            ma = metrics.mean_time_any(params, Strategy.A)
            mb = metrics.mean_time_any(params, Strategy.B)
            assert ma == pytest.approx((1.0 - params.s) * mb, rel=1e-12)

    def test_all_stop_values(self):
        for p in (0.3, 0.5, 0.7):
            params = WalkParams(p, 1.0, 3)
            assert metrics.mean_time_any(params, Strategy.A) == 0.0
            assert metrics.mean_time_any(params, Strategy.B) == 3.0
        assert metrics.mean_time_any(
            WalkParams(0.5, 1.0, 3), Strategy.C
        ) == pytest.approx(9.0)
        params = WalkParams(0.4, 1.0, 1)
        wi = params.omega_pow
        want = (1.0 - wi) / ((params.q - params.p) * (1.0 + wi))
        assert metrics.mean_time_any(params, Strategy.C) == pytest.approx(
            want, rel=1e-12
        )

    def test_no_stop_regimes(self):
        assert metrics.mean_time_any(
            WalkParams(0.4, 0.0, 2), Strategy.B
        ) == pytest.approx(10.0, rel=1e-12)
        assert metrics.mean_time_any(WalkParams(0.5, 0.0, 2), Strategy.A) == math.inf
        # upward drift: the mean is the ruin time, killed by the escape
        params = WalkParams(0.7, 0.0, 2)
        sol = oracle.solve_exact(params, Strategy.C, tol=1e-11)
        m = metrics.mean_time_any(params, Strategy.C)
        assert m == metrics.time_profile(params, Strategy.C).total
        assert m == pytest.approx(sol.m_total, rel=1e-7)

    def test_matches_exact_solver(self, strategy):
        for params in small_grid():
            sol = oracle.solve_exact(params, strategy, tol=1e-11)
            m = metrics.mean_time_any(params, strategy)
            assert m == pytest.approx(sol.m_total, rel=1e-7)


class TestSmallBarrierRoot:
    """Far below the driftless point omega**i0, and with it phi2, may round
    to 0.  No closed form divides by phi2, so 0 is a value: every answer
    is finite and matches the exact solver to the README's tolerances."""

    @given(
        p=st.floats(1e-4, 0.3),
        s=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        i0=st.integers(20, 400),
    )
    @settings(max_examples=100, deadline=None)
    def test_answers_match_the_exact_solver(self, p, s, i0):
        params = WalkParams(p, s, i0)
        for strategy in Strategy:
            sol = oracle.solve_exact(params, strategy, tol=1e-11)
            prof = metrics.absorption_profile(params, strategy)
            tp = metrics.time_profile(params, strategy)
            assert all(0.0 <= m <= 1.0 for m in prof.upto(64)), strategy
            assert prof.total == pytest.approx(1.0, abs=1e-9)
            for k, (got, want) in enumerate(zip(prof.upto(64), sol.masses.upto(64))):
                assert abs(got - want) <= 1e-9, (strategy, k, got, want)
            for k, (got, want) in enumerate(zip(tp.upto(64), sol.times.upto(64))):
                assert math.isfinite(got) and math.copysign(1.0, got) == 1.0, (strategy, k, got)
                assert abs(got - want) <= 1e-7 * max(abs(want), 1e-9), (strategy, k, got, want)
            assert tp.total == pytest.approx(sol.m_total, rel=1e-7)
            if math.isinf(i0 / s):  # B's mean i0 (1 - 1/phi1) / s forms i0/s first
                with pytest.raises(UnsupportedRegimeError, match="not finite"):
                    metrics.mean_time_any(params, strategy)
            else:
                assert metrics.mean_time_any(params, strategy) == pytest.approx(sol.m_total, rel=1e-7)


class TestNonFiniteMeans:
    @pytest.mark.parametrize("s", [1e-320, 5e-324])
    def test_vanishing_stop_raises_instead_of_nan(self, s, strategy):
        # (1-s)/s overflows to inf while 1 - 1/phi1 rounds to 0
        params = WalkParams(0.4, s, 2)
        with pytest.raises(UnsupportedRegimeError, match="not finite"):
            metrics.mean_time_any(params, strategy)
        # the killed times never form (1-s)/s, and their exact sum stays finite
        sol = oracle.solve_exact(params, strategy, tol=1e-11)
        assert metrics.time_profile(params, strategy).total == pytest.approx(sol.m_total, rel=1e-7)


class TestLimitRegimes:
    """s=0 (plain ruin) and s=1 (stop on arrival) against the exact solver."""

    @pytest.mark.parametrize("s", [0.0, 1.0])
    @pytest.mark.parametrize("i0", [1, 2, 3, 5])
    @pytest.mark.parametrize("p", [0.3, 0.4, 0.5, 0.6, 0.7])
    def test_profiles_match_exact_solver(self, p, i0, s, strategy):
        params = WalkParams(p, s, i0)
        sol = oracle.solve_exact(params, strategy, tol=1e-11)
        prof = metrics.absorption_profile(params, strategy)
        tp = metrics.time_profile(params, strategy)
        for k in range(4):
            assert prof.at(k) == pytest.approx(sol.masses.at(k), abs=1e-9), k
            got, ref = tp.at(k), sol.times.at(k)
            if math.isinf(ref):
                assert got == ref
            else:
                assert abs(got - ref) <= 1e-7 * max(abs(ref), 1e-9), (k, got, ref)
        # the mean reads the same builder, and is the killed mean at s=0 too
        m = metrics.mean_time_any(params, strategy)
        assert m == pytest.approx(tp.total, rel=1e-12)
        assert m == pytest.approx(sol.m_total, rel=1e-7)

    @pytest.mark.parametrize("i0", [1, 2, 3, 8, 40])
    @pytest.mark.parametrize(
        "p",
        [0.3, 0.5 - 1e-4, 0.5 - 1e-9, 0.5 - 1e-13, 0.4999999999999947, 0.5, 0.5 + 1e-13, 0.5 + 1e-9, 0.7],
    )
    def test_no_stop_matches_classical_ruin_with_exact_drift(self, p, i0, strategy):
        # q = fl(1 - p) rounds below 1/2 and i0/(q - p) carries that rounding
        # (5.2e-3 at p = 0.4999999999999947); the reference takes 1 - 2p exactly
        params = WalkParams(p, 0.0, i0)
        mass, time = ref.no_stop(params)
        rel = 1e-14 if i0 <= 8 else 1e-12
        assert metrics.absorption_profile(params, strategy).at(0) == pytest.approx(mass, rel=rel, abs=0.0)
        times = metrics.time_profile(params, strategy)
        assert times == Profile((times.at(0),))  # only ruin absorbs
        assert times.at(0) == pytest.approx(time, rel=rel, abs=0.0)
        assert metrics.mean_time_any(params, strategy) == pytest.approx(time, rel=rel, abs=0.0)


def _answer_or_none(fn, *args):
    try:
        return fn(*args)
    except UnsupportedRegimeError:
        return None


class TestBarrierRootsNearOne:
    """As s -> 0 a barrier root rounds to 1, or to within a few ulps of it:
    phi2 for p >= 1/2 and phi1 for p <= 1/2.  The closed forms must then
    answer accurately or raise the typed error, never divide by zero."""

    @pytest.mark.parametrize("s", [1e-17, 1e-200])
    @pytest.mark.parametrize("i0", [1, 2, 5])
    @pytest.mark.parametrize("p", [0.4, 0.5, 0.6, 0.7])
    def test_answers_or_raises(self, p, s, i0, strategy):
        params = WalkParams(p, s, i0)
        prof = _answer_or_none(metrics.absorption_profile, params, strategy)
        tp = _answer_or_none(metrics.time_profile, params, strategy)
        m = _answer_or_none(metrics.mean_time_any, params, strategy)
        values = [] if m is None else [m]
        for profile in (prof, tp):
            if profile is not None:
                values += [profile.total, profile.beyond(64), *map(profile.at, range(65))]
        assert all(math.isfinite(v) and v >= 0.0 for v in values), values
        if p > 0.5 or (prof, tp, m) == (None, None, None):
            return
        try:
            sol = oracle.solve_exact(params, strategy, tol=1e-11)
            masses, mean_ref = [sol.masses.at(k) for k in range(4)], sol.m_total
        except oracle.ConvergenceError:
            # at p = 1/2, s = 1e-200 a period's eigenvalues do not separate:
            # the closed forms in decimal judge instead
            masses, mean_ref = ref.masses(params, strategy, 3), ref.mean_time(params, strategy)
        if prof is not None:
            for k in range(4):
                assert prof.at(k) == pytest.approx(masses[k], abs=1e-9)
        for mean in (m, None if tp is None else tp.total):
            if mean is not None:
                assert mean == pytest.approx(mean_ref, rel=1e-7)

    def test_mean_time_resolved_as_phi1_nears_one(self):
        # 1 - 1/phi1 is about s/(q-p): 5e-8 and 5e-10 here; the second was
        # below the sqrt(eps) cut that refused it while phi1 came from theta**2 - 4 omega**i0
        for s in (1e-8, 1e-10):
            params = WalkParams(0.4, s, 2)
            sol = oracle.solve_exact(params, Strategy.A, tol=1e-11)
            m = metrics.mean_time_any(params, Strategy.A)
            assert m == pytest.approx(sol.m_total, rel=1e-7)
            assert m == pytest.approx(ref.mean_time(params, Strategy.A), rel=1e-14)

    @pytest.mark.parametrize("p, s, i0", [(0.9, 1e-250, 100), (0.6, 1e-300, 50)])
    def test_mean_with_large_omega_power_and_tiny_stop(self, p, s, i0, strategy):
        # C's mean formed omega**i0 times B's mean before dividing: at
        # (0.9, 1e-250, 100) that is 2.7e95 * 1e252, which overflowed
        params = WalkParams(p, s, i0)
        m = metrics.mean_time_any(params, strategy)
        assert m == pytest.approx(ref.mean_time(params, strategy), rel=1e-14)

    @pytest.mark.parametrize("p, s", [(0.6, 1e-310), (0.6, 5e-324), (0.5, 1e-320)])
    def test_subnormal_stop_term_raises_instead_of_losing_bits(self, p, s, strategy):
        # 1 - phi2 is, or divides, a subnormal number here and keeps few bits:
        # unguarded, A's masses summed to 1 - 4.8e-5 at (0.6, 1e-320)
        params = WalkParams(p, s, 3)
        for fn in (metrics.absorption_profile, metrics.time_profile):
            with pytest.raises(UnsupportedRegimeError, match="subnormal"):
                fn(params, strategy)


class TestPhi2GapNearOne:
    """Every tail divides by 1 - phi2, which cancels as phi2 -> 1 (p > 1/2,
    s -> 0) and near the driftless double root; there the gap comes from
    ``(phi1 - 1)(1 - phi2) = U_i0 s / (q (1-s))``.  The tolerances are the
    README's: 1e-7 relative for times, 1e-9 absolute for masses."""

    @pytest.mark.parametrize("p, s, i0", [(0.5001, 1e-9, 1), (0.5001, 1e-10, 1), (0.5001, 1e-11, 2)])
    def test_time_profile_total_matches_the_exact_solver(self, p, s, i0, strategy):
        params = WalkParams(p, s, i0)
        sol = oracle.solve_exact(params, strategy, tol=1e-11)
        assert metrics.time_profile(params, strategy).total == pytest.approx(sol.m_total, rel=1e-7)

    @pytest.mark.parametrize("p, s, i0", [(0.5000001, 1e-14, 3), (0.5, 1e-14, 3)])
    def test_absorption_profile_matches_the_exact_solver(self, p, s, i0, strategy):
        params = WalkParams(p, s, i0)
        sol = oracle.solve_exact(params, strategy, tol=1e-11)
        prof = metrics.absorption_profile(params, strategy)
        assert prof.total == pytest.approx(sol.masses.total, abs=1e-9)
        for k in range(0, 64, 3):
            assert prof.at(k) == pytest.approx(sol.masses.at(k), abs=1e-9)
            assert prof.beyond(k) == pytest.approx(sol.masses.beyond(k), abs=1e-9)

    def test_gap_times_phi1_excess_is_the_stop_term(self):
        # the identity the gap is taken from, where neither factor cancels
        for p, s, i0 in [(0.3, 0.2, 1), (0.55, 0.05, 3), (0.7, 0.5, 2)]:
            params = WalkParams(p, s, i0)
            char = mgf.characteristic(params, 1.0)
            # (1-s)(phi1 - 1)(1 - phi2) = (1-s) delta
            product = char.phi.psi1_gap * (1.0 - char.phi.phi2)
            assert product == pytest.approx(char.u_i0 * s / params.q, rel=1e-13)

    @pytest.mark.parametrize("p, s, i0", [(0.5001, 1e-10, 1), (0.7, 1e-6, 2)])
    def test_generating_function_tail_keeps_the_gap(self, p, s, i0):
        # A's masses sum to one through mgf_a's own tail, whose 1 - phi2 would
        # cancel if it were taken by subtraction
        params = WalkParams(p, s, i0)
        values = mgf.mgf_a(params, 1.0)
        assert abs(values.at(0) + s * values.beyond(0) - 1.0) <= 1e-14
        assert values.gap == metrics.absorption_profile(params, Strategy.A).gap


class TestStrategyBNearS1:
    """B's value at i0 is A's less its m=0 self-term, over 1 - s.  A's value
    there is 1 + O(1 - s), so subtracting the 1 left about eps / (1 - s)."""

    @pytest.mark.parametrize("gap", [1e-9, 1e-12, 1e-14])
    @pytest.mark.parametrize("p, i0", [(0.7, 5), (0.4, 2), (0.5, 3), (0.3, 1)])
    def test_mass_at_i0_matches_the_exact_solver(self, p, i0, gap):
        params = WalkParams(p, 1.0 - gap, i0)
        prof = metrics.absorption_profile(params, Strategy.B)
        sol = oracle.solve_exact(params, Strategy.B, tol=1e-11)
        assert abs(prof.at(1) - sol.masses.at(1)) <= 1e-12
        assert abs(prof.total - 1.0) <= 1e-9

    def test_reaches_the_s_1_limit(self):
        near = metrics.absorption_profile(WalkParams(0.7, 1.0 - 1e-14, 5), Strategy.B)
        limit = metrics.absorption_profile(WalkParams(0.7, 1.0, 5), Strategy.B)
        assert near.at(1) == pytest.approx(limit.at(1), abs=1e-12)
        assert near.at(1) == pytest.approx(0.58826370441922, abs=1e-12)

    @pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-9])
    def test_generating_function_matches_propagation(self, gap):
        params = WalkParams(0.4, 1.0 - gap, 2)
        want = oracle.mgf_dp(params, Strategy.B, 0.5, 2, tol=1e-12)
        assert mgf.mgf_b(params, 0.5).at(1) == pytest.approx(want, abs=1e-10)

    def test_both_forms_agree_where_they_meet(self):
        # either side of 1 - s = 0.01; the one form is accurate on both
        for s in (1.0 - 0.0101, 1.0 - 0.0099):
            params = WalkParams(0.45, s, 3)
            sol = oracle.solve_exact(params, Strategy.B, tol=1e-11)
            got = metrics.absorption_profile(params, Strategy.B).at(1)
            assert got == pytest.approx(sol.masses.at(1), abs=1e-13)


class TestOneFormUpToTotalStop:
    """Every closed form is written in psi1 = (1-s) phi1, finite on 0 < s <= 1,
    so s -> 1 and s = 1 take the formulas of every other s.  The forms that
    divided by 1 - s missed the exact solver at barrier 1 by up to 0.07 as
    s -> 1, and gave a negative B time at (0.5445, 1 - 9.5e-12, 1)."""

    @given(
        p=st.floats(0.01, 0.99),
        s=st.one_of(st.just(1.0), st.integers(3, 15).map(lambda k: 1.0 - 10.0 ** -k)),
        i0=st.integers(1, 8),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_exact_solver_as_s_nears_one(self, p, s, i0):
        params = WalkParams(p, s, i0)
        for strategy in Strategy:
            sol = oracle.solve_exact(params, strategy, tol=1e-11)
            prof = metrics.absorption_profile(params, strategy)
            tp = metrics.time_profile(params, strategy)
            for k in range(5):
                assert abs(prof.at(k) - sol.masses.at(k)) <= 1e-9, (strategy, k)
                got, want = tp.at(k), sol.times.at(k)
                assert got >= 0.0, (strategy, k, got)
                assert abs(got - want) <= 1e-7 * max(abs(want), 1e-9), (strategy, k, got, want)
            m = metrics.mean_time_any(params, strategy)
            assert abs(m - sol.m_total) <= 1e-7 * max(sol.m_total, 1e-9), (strategy, m)

    def test_barrier_one_time_does_not_cancel(self):
        # s u1 (log_common + phi_rate) left this time 9.9e-14 off: the bracket
        # was 0.0046 from -1 and 1.0046
        params = WalkParams(0.64, 0.9, 1)
        sol = oracle.solve_exact(params, Strategy.B, tol=1e-11)
        got, want = metrics.time_profile(params, Strategy.B).at(1), sol.times.at(1)
        assert abs(got - want) <= 1e-14 * want

    def test_subnormal_omega_power_answers(self, strategy):
        # omega**i0 = 4.5e-311: dividing by it gave A masses (0.24, inf, nan),
        # and C's mean raised as not finite
        params = WalkParams(1.34e-24, 0.76, 13)
        assert 0.0 < params.omega_pow < sys.float_info.min
        sol = oracle.solve_exact(params, strategy, tol=1e-11)
        prof = metrics.absorption_profile(params, strategy)
        tp = metrics.time_profile(params, strategy)
        for k in range(4):
            assert abs(prof.at(k) - sol.masses.at(k)) <= 1e-15, k
            assert tp.at(k) == pytest.approx(sol.times.at(k), rel=1e-12, abs=1e-300), k
        assert metrics.mean_time_any(params, strategy) == pytest.approx(sol.m_total, rel=1e-14, abs=0.0)
        assert prof.at(0) == pytest.approx({"A": 0.24, "B": 1.0, "C": 1.0}[strategy.value], rel=1e-14, abs=0.0)


    @pytest.mark.parametrize("i0", [1, 3])
    def test_subnormal_drift_ratio_answers(self, i0, strategy):
        # with omega = 1e-310 the walk steps straight down to ruin: i0 steps,
        # after A's start draw survives with 1 - s; omega's reciprocal is past
        # float range, so no slope may divide by tau2
        params = WalkParams(1e-310, 0.25, i0)
        want = (0.75 if strategy is Strategy.A else 1.0) * i0
        assert metrics.time_profile(params, strategy).total == pytest.approx(want, rel=1e-15)
        assert metrics.mean_time_any(params, strategy) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("i0", [170, 200])
    def test_total_stop_with_omega_power_past_1e154(self, i0, strategy):
        # (1-s) sqrt(disc) was the root of its square, which overflows at s = 1
        # once omega**i0 passes about 1e154; stopping on arrival, the masses
        # and means are ratios of the Lucas terms at z = 1
        params = WalkParams(0.9, 1.0, i0)
        p, q, char = params.p, params.q, mgf.characteristic(params, 1.0)
        u, v = char.u_i0, char.roots.tau1 ** i0 + char.roots.tau2 ** i0
        start = char.u_prev / u
        want_masses, want_mean = {
            Strategy.A: ((0.0, 1.0, 0.0), 0.0),
            Strategy.B: ((q / u, (q * params.omega + p) * start, q * (params.omega_pow / u)), float(i0)),
            Strategy.C: ((1.0 / v, 0.0, params.omega_pow / v), i0 * (u / q) / v),
        }[strategy]
        prof = metrics.absorption_profile(params, strategy)
        for k, want in enumerate(want_masses):
            assert prof.at(k) == pytest.approx(want, rel=1e-14, abs=0.0), k
        assert metrics.mean_time_any(params, strategy) == pytest.approx(want_mean, rel=1e-14, abs=0.0)
        sol = oracle.solve_exact(params, strategy, tol=1e-11)
        tp = metrics.time_profile(params, strategy)
        for k in range(4):
            assert tp.at(k) == pytest.approx(sol.times.at(k), rel=1e-12, abs=0.0), k


class TestDoubleRootDigits:
    """Near theta**2 = 4 omega**i0 (near-driftless walks, s -> 0) that
    difference cancels; the barrier roots' gaps come from sums of
    non-negative terms instead, so means and killed times, which divide by
    phi1 - 1 or the root gap, answer and match the exact solver to 1e-7."""

    @pytest.mark.parametrize(
        "p, s, i0",
        [(0.5, 1e-12, 2), (0.5000001, 1e-30, 3), (0.5, 1e-10, 1), (0.4999999, 1e-14, 3)],
    )
    def test_answers_what_rounding_decided(self, p, s, i0, strategy):
        # each of these raised while phi1 came from theta**2 - 4 omega**i0:
        # the mean at (0.5, 1e-12, 2) was 4.5e-5 off
        params = WalkParams(p, s, i0)
        sol = oracle.solve_exact(params, strategy, tol=1e-11)
        m = metrics.mean_time_any(params, strategy)
        assert m == pytest.approx(sol.m_total, rel=1e-7)
        assert m == pytest.approx(ref.mean_time(params, strategy), rel=1e-14)
        tp = metrics.time_profile(params, strategy)
        assert tp.total == pytest.approx(sol.m_total, rel=1e-7)
        for k in range(4):
            want = sol.times.at(k)
            assert tp.at(k) == pytest.approx(want, rel=1e-7, abs=1e-7 * sol.m_total)
        prof = metrics.absorption_profile(params, strategy)
        for k in range(4):
            assert prof.at(k) == pytest.approx(sol.masses.at(k), abs=1e-9)

    @pytest.mark.parametrize("p, s, i0", [(0.5, 1e-16, 8), (0.5, 1e-16, 5), (0.5, 1e-15, 8)])
    def test_masses_at_the_driftless_double_root(self, p, s, i0, strategy):
        # these were 2.0e-8, 1.1e-8 and 6.8e-9 off, with no error raised
        params = WalkParams(p, s, i0)
        sol = oracle.solve_exact(params, strategy, tol=1e-11)
        prof = metrics.absorption_profile(params, strategy)
        for got, want in zip(prof.upto(64), sol.masses.upto(64)):
            assert abs(got - want) <= 1e-14
        assert metrics.mean_time_any(params, strategy) == pytest.approx(
            ref.mean_time(params, strategy), rel=1e-14
        )

    @pytest.mark.parametrize("s", [1e-6, 1e-8, 1e-9, 1e-10, 1e-12])
    @pytest.mark.parametrize("p", [0.5, 0.5 + 1e-7, 0.5 - 1e-7])
    def test_answers_match_the_exact_solver(self, p, s, strategy):
        for i0 in (1, 2, 3):
            params = WalkParams(p, s, i0)
            # tol only sets how far the pk/et dicts run (up to 2**16 barriers
            # at this slow decay); the profiles and m_total do not depend on it
            sol = oracle.solve_exact(params, strategy, tol=1e300)
            m = _answer_or_none(metrics.mean_time_any, params, strategy)
            tp = _answer_or_none(metrics.time_profile, params, strategy)
            if m is not None:
                assert m == pytest.approx(sol.m_total, rel=1e-7)
            if tp is not None:
                assert tp.total == pytest.approx(sol.m_total, rel=1e-7)
                for k in range(4):
                    want = sol.times.at(k)
                    assert tp.at(k) == pytest.approx(want, rel=1e-7, abs=1e-7 * sol.m_total)
        if s >= 1e-8:  # well away from the double root both answer
            assert m is not None and tp is not None


class TestKilledTimesPerBarrier:
    def test_no_stop_killed_time_at_ruin(self):
        assert metrics.time_profile(WalkParams(0.4, 0.0, 2), Strategy.B).at(0) == pytest.approx(10.0, rel=1e-12)
        # upward drift: ruin is rare, and conditioning flips the drift
        params = WalkParams(0.6, 0.0, 2)
        want = params.i0 / ((params.p - params.q) * params.omega_pow)
        assert metrics.time_profile(params, Strategy.B).at(0) == pytest.approx(
            want, rel=1e-12
        )
        assert metrics.time_profile(params, Strategy.B).at(1) == 0.0

    def test_all_stop_risk_seeking_unit_stake(self):
        assert metrics.time_profile(WalkParams(0.4, 1.0, 1), Strategy.C).at(0) == pytest.approx(0.6, rel=1e-12)

    def test_all_stop_triple_sums_to_stake(self, strategy):
        if strategy is Strategy.A:
            return
        for p in (0.35, 0.5, 0.65):
            for i0 in (1, 2, 4):
                params = WalkParams(p, 1.0, i0)
                total = sum(
                    metrics.time_profile(params, strategy).at(k) for k in (0, 1, 2)
                )
                want = metrics.mean_time_any(params, strategy)
                assert total == pytest.approx(want, rel=1e-10)

    def test_all_stop_matches_exact_solver(self, strategy):
        for p in (0.4, 0.5, 0.6):
            for i0 in (1, 2, 3):
                params = WalkParams(p, 1.0, i0)
                sol = oracle.solve_exact(params, strategy, tol=1e-11)
                for k in (0, 1, 2):
                    assert metrics.time_profile(params, strategy).at(k) == pytest.approx(
                        sol.et.get(k, 0.0), abs=1e-9
                    )

    def test_driftless_interior_stop_has_closed_forms(self, strategy):
        params = WalkParams(0.5, 0.5, 1)
        sol = oracle.solve_exact(params, strategy, tol=1e-11)
        tp = metrics.time_profile(params, strategy)
        for k in range(0, 4):
            assert tp.at(k) == pytest.approx(sol.times.at(k), rel=1e-12, abs=1e-15)

    def test_matches_exact_solver(self, strategy):
        for params in small_grid():
            sol = oracle.solve_exact(params, strategy, tol=1e-11)
            tp = metrics.time_profile(params, strategy)
            for k in range(0, 6):
                ref = sol.et.get(k, 0.0)
                assert tp.at(k) == pytest.approx(ref, rel=1e-7, abs=1e-10)

    def test_decomposition_sums_to_total(self, strategy):
        for params in grid_params():
            tp = metrics.time_profile(params, strategy)
            gap = abs(tp.total - metrics.mean_time_any(params, strategy))
            assert gap <= 1e-8


class TestNearDriftless:
    """Times at and around p = 1/2 against the exact solver.

    Any division by the root gap tau1 - tau2 would lose accuracy here like
    eps/|p - 1/2|**2.
    """

    @pytest.mark.parametrize(
        "p",
        [0.5, 0.5 + 1e-4, 0.5 - 1e-4, 0.5 + 1e-6, 0.5 - 1e-6, 0.5 + 1e-8, 0.5 - 1e-8],
    )
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9, 1.0])
    def test_times_match_exact_solver(self, p, s, strategy):
        for i0 in (1, 2, 3, 5):
            params = WalkParams(p, s, i0)
            sol = oracle.solve_exact(params, strategy, tol=1e-11)
            tp = metrics.time_profile(params, strategy)
            pairs = [(metrics.mean_time_any(params, strategy), sol.m_total)] + [
                (tp.at(k), sol.times.at(k)) for k in range(0, 9)
            ]
            for got, ref in pairs:
                assert abs(got - ref) <= 1e-7 * max(abs(ref), 1e-9), (i0, got, ref)


class TestLargeStakePrecision:
    """At s near 1 the killed times subtract log-derivatives about 4000
    times their difference (p=0.55, i0=50), so the Lucas derivatives must
    be accurate to rounding, not to n*eps."""

    @pytest.mark.parametrize("p", [0.2, 0.55, 0.8])
    @pytest.mark.parametrize("i0", [50, 150])
    def test_times_match_exact_solver_closely(self, p, i0, strategy):
        params = WalkParams(p, 0.99, i0)
        sol = oracle.solve_exact(params, strategy, tol=1e-11)
        tp = metrics.time_profile(params, strategy)
        pairs = [(metrics.mean_time_any(params, strategy), sol.m_total)] + [
            (tp.at(k), sol.times.at(k)) for k in range(0, 9)
        ]
        for got, ref in pairs:
            assert abs(got - ref) <= 5e-11 * max(abs(ref), 1e-9), (got, ref)


def _pow10(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


# the driftless walk, its near neighbours, and 1e-6 to 1 - 1e-6 log-scaled from either end
_DOMAIN_P = st.one_of(
    st.just(0.5),
    st.tuples(st.sampled_from([-1.0, 1.0]), _pow10(-16, -1)).map(lambda t: 0.5 + t[0] * t[1]),
    _pow10(-6, 0),
    _pow10(-6, -0.3).map(lambda d: 1.0 - d),
)
# both limits, vanishing stops, near-total stops and the rest
_DOMAIN_S = st.one_of(
    st.sampled_from([0.0, 1.0]),
    _pow10(-300, -1),
    _pow10(-16, -1).map(lambda d: 1.0 - d),
    st.floats(0.0, 1.0),
)
_DOMAIN_I0 = st.one_of(st.sampled_from([1, 2, 3, 5, 8]), st.integers(1, 1000))


class TestWholeDomain:
    """Over every input WalkParams accepts, from p = 1e-6 to 1 - 1e-6, s = 0
    to 1 and stakes up to 1000, each closed form raises a typed error or
    answers with masses in [0, 1] that sum to 1 and times and means that are
    >= 0, never NaN or -0.0 (ROADMAP item 4's property)."""

    @given(p=_DOMAIN_P, s=_DOMAIN_S, i0=_DOMAIN_I0)
    @settings(max_examples=200, deadline=None)
    def test_answers_are_masses_and_times_or_typed_errors(self, p, s, i0):
        try:
            params = WalkParams(p, s, i0)
        except ParameterError:  # 10**e rounds to p = 1 as e nears 0
            return
        escapes = s == 0.0 and params.omega > 1.0  # the walk may never stop
        endless = s == 0.0 and params.symmetric  # ruin is certain but its mean time infinite
        for strategy in Strategy:
            prof = _answer_or_none(metrics.absorption_profile, params, strategy)
            if prof is not None:
                masses = prof.upto(64)
                assert all(0.0 <= m <= 1.0 for m in masses), (strategy, masses)
                assert 0.0 <= prof.beyond(64) <= prof.total, (strategy, prof.beyond(64))
                assert escapes or abs(prof.total - 1.0) <= 1e-12, (strategy, prof.total)
            tp = _answer_or_none(metrics.time_profile, params, strategy)
            mean = _answer_or_none(metrics.mean_time_any, params, strategy)
            times = ([] if tp is None else [*tp.upto(64), tp.beyond(64), tp.total]) + (
                [] if mean is None else [mean]
            )
            for t in times:
                assert t >= 0.0 and math.copysign(1.0, t) == 1.0, (strategy, t)
                assert endless or math.isfinite(t), (strategy, t)

    @pytest.mark.parametrize(
        "p, s, i0, k",
        [
            # 1/(V_i0 - phi2) read 1 + 2**-52: 1 + omega**i0 rounded up, and phi2 past omega**i0
            (0.26483852871301305, 3.854910724599262e-11, 35, 0),
            # U_i0 / (q psi1) read 1 + 2**-52, with psi1 the quotient U_i0 / q
            (0.9549955114854997, 1.0, 40, 2),
        ],
    )
    def test_c_masses_do_not_round_past_one(self, p, s, i0, k):
        assert metrics.absorption_profile(WalkParams(p, s, i0), Strategy.C).at(k) <= 1.0

    def test_tail_ratio_stays_below_one_as_the_gap_nears_rounding(self, strategy):
        # c omega**i0 / psi1 read 1.0000000000000007 with 1 - phi2 = 1e-15, so
        # the tail grew and the mass past barrier 64 summed to 1 + 4.1e-14
        params = WalkParams(0.99999, 1e-15, 3)
        phi = mgf.characteristic(params, 1.0).phi
        assert phi.phi2 == 1.0 - phi.phi2_gap
        prof = metrics.absorption_profile(params, strategy)
        assert prof.beyond(64) < prof.beyond(0) <= prof.total
