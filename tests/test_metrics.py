import math

import pytest

from ruinwalk import charpoly as cp
from ruinwalk import metrics, mgf, oracle
from ruinwalk.core import (
    AbsorptionNotCertainError,
    Strategy,
    UnsupportedRegimeError,
    WalkParams,
)

from conftest import SQRT3, grid_params, small_grid


class TestAbsorptionProfile:
    def test_symmetric_unit_stake_delayed_strategy(self):
        prof = metrics.absorption_profile(WalkParams(0.5, 0.5, 1), Strategy.B)
        phi2 = 2.0 - SQRT3
        assert prof.p0 == pytest.approx(4.0 - 2.0 * SQRT3, rel=1e-12)
        assert prof.probability(1) == pytest.approx(7.0 - 4.0 * SQRT3, rel=1e-12)
        for k in (2, 3, 4):
            assert prof.probability(k) == pytest.approx(4.0 * phi2 ** k, rel=1e-12)
        assert prof.total + prof.tail_bound == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_unit_stake_risk_seeking(self):
        prof = metrics.absorption_profile(WalkParams(0.5, 0.5, 1), Strategy.C)
        assert prof.p0 == pytest.approx(1.0 / SQRT3, rel=1e-12)
        assert prof.probability(1) == 0.0

    def test_no_stop_masses(self):
        assert metrics.absorption_profile(WalkParams(0.4, 0.0, 2), Strategy.B).p0 == 1.0
        assert metrics.absorption_profile(WalkParams(0.5, 0.0, 2), Strategy.A).p0 == 1.0
        prof = metrics.absorption_profile(WalkParams(0.7, 0.0, 2), Strategy.C)
        assert prof.p0 == pytest.approx((0.3 / 0.7) ** 2, rel=1e-12)
        assert prof.pk == {}

    def test_all_stop_symmetric_masses(self):
        prof = metrics.absorption_profile(WalkParams(0.5, 1.0, 2), Strategy.B)
        assert prof.p0 == pytest.approx(0.25, rel=1e-12)
        assert prof.probability(1) == pytest.approx(0.5, rel=1e-12)
        assert prof.probability(2) == pytest.approx(0.25, rel=1e-12)

    def test_all_stop_unit_stake_one_step_decides(self):
        prof = metrics.absorption_profile(WalkParams(0.4, 1.0, 1), Strategy.B)
        assert prof.p0 == pytest.approx(0.6, rel=1e-12)
        assert prof.probability(1) == pytest.approx(0.0, abs=1e-15)
        assert prof.probability(2) == pytest.approx(0.4, rel=1e-12)

    def test_all_stop_immediate_for_eager_strategy(self):
        prof = metrics.absorption_profile(WalkParams(0.3, 1.0, 4), Strategy.A)
        assert prof.p0 == 0.0
        assert prof.probability(1) == 1.0

    def test_mass_conservation_on_grid(self, strategy):
        for params in grid_params():
            prof = metrics.absorption_profile(params, strategy, kmax=128)
            assert prof.total + prof.tail_bound == pytest.approx(1.0, abs=1e-9)

    def test_matches_exact_solver(self, strategy):
        for params in small_grid():
            sol = oracle.solve_exact(params, strategy, tol=1e-11)
            prof = metrics.absorption_profile(params, strategy, kmax=32)
            assert prof.p0 == pytest.approx(sol.p0, abs=1e-9)
            for k in range(1, 33):
                assert prof.probability(k) == pytest.approx(
                    sol.pk.get(k, 0.0), abs=1e-9
                )

    def test_small_stop_approaches_no_stop(self):
        for p, i0 in [(0.4, 2), (0.6, 1)]:
            near = metrics.absorption_profile(WalkParams(p, 1e-6, i0), Strategy.B, 64)
            limit = metrics.absorption_profile(WalkParams(p, 0.0, i0), Strategy.B, 64)
            assert near.p0 == pytest.approx(limit.p0, abs=1e-4)

    def test_theta_overflow_raises_instead_of_negative_mass(self, strategy):
        # theta**2 overflows here; the profile used to total -1.0
        with pytest.raises(UnsupportedRegimeError):
            metrics.absorption_profile(WalkParams(0.9, 0.5, 200), strategy)


class TestOneSolvePerProfile:
    def test_theta_calls_do_not_grow_with_kmax(self, strategy, monkeypatch):
        calls = [0]
        theta = cp.theta

        def counted(*args, **kwargs):
            calls[0] += 1
            return theta(*args, **kwargs)

        # metrics calls charpoly.theta; mgf calls its own imported binding
        monkeypatch.setattr(cp, "theta", counted)
        monkeypatch.setattr(mgf, "theta", counted)
        params = WalkParams(0.45, 0.3, 2)

        def count(profile, kmax):
            calls[0] = 0
            profile(params, strategy, kmax=kmax)
            return calls[0]

        for profile in (metrics.absorption_profile, metrics.time_profile):
            assert count(profile, 256) == count(profile, 8) > 0, profile.__name__


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
                    pb = metrics.absorption_profile(params, Strategy.B, 8)
                    pc = metrics.absorption_profile(params, Strategy.C, 8)
                    assert ratio == pytest.approx(pb.p0 / pc.p0, abs=1e-10)
                    assert ratio == pytest.approx(
                        pb.probability(3) / pc.probability(3), abs=1e-10
                    )

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
        with pytest.raises(AbsorptionNotCertainError):
            metrics.mean_time_any(WalkParams(0.7, 0.0, 2), Strategy.C)

    def test_matches_exact_solver(self, strategy):
        for params in small_grid():
            sol = oracle.solve_exact(params, strategy, tol=1e-11)
            m = metrics.mean_time_any(params, strategy)
            assert m == pytest.approx(sol.m_total, rel=1e-7)


class TestKilledTimesPerBarrier:
    def test_no_stop_killed_time_at_ruin(self):
        assert metrics.mean_time_at(
            WalkParams(0.4, 0.0, 2), Strategy.B, 0
        ) == pytest.approx(10.0, rel=1e-12)
        # upward drift: ruin is rare, and conditioning flips the drift
        params = WalkParams(0.6, 0.0, 2)
        want = params.i0 / ((params.p - params.q) * params.omega_pow)
        assert metrics.mean_time_at(params, Strategy.B, 0) == pytest.approx(
            want, rel=1e-12
        )
        assert metrics.mean_time_at(params, Strategy.B, 1) == 0.0

    def test_all_stop_risk_seeking_unit_stake(self):
        assert metrics.mean_time_at(
            WalkParams(0.4, 1.0, 1), Strategy.C, 0
        ) == pytest.approx(0.6, rel=1e-12)

    def test_all_stop_triple_sums_to_stake(self, strategy):
        if strategy is Strategy.A:
            return
        for p in (0.35, 0.5, 0.65):
            for i0 in (1, 2, 4):
                params = WalkParams(p, 1.0, i0)
                total = sum(
                    metrics.mean_time_at(params, strategy, k) for k in (0, 1, 2)
                )
                want = metrics.mean_time_any(params, strategy)
                assert total == pytest.approx(want, rel=1e-10)

    def test_all_stop_matches_exact_solver(self, strategy):
        for p in (0.4, 0.5, 0.6):
            for i0 in (1, 2, 3):
                params = WalkParams(p, 1.0, i0)
                sol = oracle.solve_exact(params, strategy, tol=1e-11)
                for k in (0, 1, 2):
                    assert metrics.mean_time_at(params, strategy, k) == pytest.approx(
                        sol.et.get(k, 0.0), abs=1e-9
                    )

    def test_driftless_interior_stop_has_closed_forms(self, strategy):
        params = WalkParams(0.5, 0.5, 1)
        sol = oracle.solve_exact(params, strategy, tol=1e-11)
        tp = metrics.time_profile(params, strategy, kmax=8)
        for k in range(0, 4):
            ref = sol.killed_time(k)
            assert metrics.mean_time_at(params, strategy, k) == pytest.approx(
                ref, rel=1e-12, abs=1e-15
            )
            assert tp.killed_time(k) == pytest.approx(ref, rel=1e-12, abs=1e-15)

    def test_matches_exact_solver(self, strategy):
        for params in small_grid():
            sol = oracle.solve_exact(params, strategy, tol=1e-11)
            tp = metrics.time_profile(params, strategy, kmax=32)
            for k in range(0, 6):
                ref = sol.et.get(k, 0.0)
                assert tp.killed_time(k) == pytest.approx(ref, rel=1e-7, abs=1e-10)

    def test_decomposition_sums_to_total(self, strategy):
        for params in grid_params():
            tp = metrics.time_profile(params, strategy, kmax=256)
            gap = abs(sum(tp.et.values()) - tp.m_total)
            assert gap <= tp.tail_bound + 1e-8


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
            tp = metrics.time_profile(params, strategy, kmax=16)
            pairs = [(tp.m_total, sol.m_total)] + [
                (tp.killed_time(k), sol.killed_time(k)) for k in range(0, 9)
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
        tp = metrics.time_profile(params, strategy, kmax=16)
        pairs = [(tp.m_total, sol.m_total)] + [
            (tp.killed_time(k), sol.killed_time(k)) for k in range(0, 9)
        ]
        for got, ref in pairs:
            assert abs(got - ref) <= 5e-11 * max(abs(ref), 1e-9), (got, ref)
