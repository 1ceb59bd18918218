import math

import pytest
from hypothesis import given, settings, strategies as st

from ruinwalk import charpoly as cp
from ruinwalk.core import ParameterError, UnsupportedRegimeError, WalkParams

from conftest import GRID_I0, GRID_S, SQRT3, grid_params


class TestTauRoots:
    def test_at_z_one_roots_are_one_and_omega(self):
        roots = cp.tau_roots(1.0, WalkParams(0.4, 0.5, 1))
        assert roots.tau1 == 1.0
        assert roots.tau2 == pytest.approx(2.0 / 3.0, rel=1e-15)

        roots = cp.tau_roots(1.0, WalkParams(0.7, 0.5, 1))
        assert roots.tau1 == pytest.approx(7.0 / 3.0, rel=1e-15)
        assert roots.tau2 == 1.0

    def test_symmetric_z_one_is_a_double_root(self):
        roots = cp.tau_roots(1.0, WalkParams(0.5, 0.5, 1))
        assert roots.tau1 == roots.tau2 == 1.0

    def test_symmetric_half_z(self):
        roots = cp.tau_roots(0.5, WalkParams(0.5, 0.5, 1))
        assert roots.tau1 == pytest.approx(2.0 + SQRT3, rel=1e-14)
        assert roots.tau2 == pytest.approx(2.0 - SQRT3, rel=1e-14)

    @pytest.mark.parametrize("z", [0.0, -0.5, 1.01])
    def test_rejects_z_outside_unit_interval(self, z):
        with pytest.raises(ParameterError):
            cp.tau_roots(z, WalkParams(0.4, 0.5, 1))

    @given(
        z=st.floats(min_value=1e-3, max_value=1.0),
        p=st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
    )
    @settings(max_examples=300)
    def test_residual_and_vieta(self, z, p):
        params = WalkParams(p, 0.5, 1)
        roots = cp.tau_roots(z, params)
        assert roots.tau1 >= roots.tau2 > 0.0
        for tau in (roots.tau1, roots.tau2):
            # residual scales with the root when tau >> 1 (z -> 0), so the
            # bound is the backward-error form
            assert abs(params.q * z * tau * tau - tau + p * z) < 1e-12 * max(1.0, tau)
        assert roots.tau1 * roots.tau2 == pytest.approx(params.omega, rel=1e-12)
        assert roots.tau1 + roots.tau2 == pytest.approx(
            1.0 / (params.q * z), rel=1e-12
        )


class TestPowerDividedDifference:
    def test_matches_quotient_for_distinct_roots(self):
        roots = cp.tau_roots(0.7, WalkParams(0.4, 0.5, 1))
        for n in range(1, 7):
            direct = (roots.tau2 ** n - roots.tau1 ** n) / (roots.tau2 - roots.tau1)
            assert cp.power_divided_difference(roots, n) == pytest.approx(
                direct, rel=1e-12
            )

    def test_repeated_root_limit(self):
        roots = cp.tau_roots(1.0, WalkParams(0.5, 0.5, 1))
        for n in range(1, 6):
            assert cp.power_divided_difference(roots, n) == float(n)

    def test_zeroth_power_vanishes(self):
        roots = cp.tau_roots(0.9, WalkParams(0.3, 0.5, 1))
        assert cp.power_divided_difference(roots, 0) == 0.0


class TestTheta:
    def test_symmetric_value_at_z_one(self):
        assert cp.theta(1.0, WalkParams(0.5, 0.5, 2)).theta == pytest.approx(6.0)
        assert cp.theta(1.0, WalkParams(0.5, 0.5, 1)).theta == pytest.approx(4.0)

    def test_unit_stake_asymmetric(self):
        params = WalkParams(0.4, 0.5, 1)
        expected = 1.0 / (params.q * (1.0 - params.s))
        assert cp.theta(1.0, params).theta == pytest.approx(expected, rel=1e-14)

    def test_rejects_total_stop(self):
        with pytest.raises(UnsupportedRegimeError):
            cp.theta(1.0, WalkParams(0.4, 1.0, 1))

    def test_generic_branch_approaches_symmetric_limit(self):
        eps = 1e-5
        for s in GRID_S:
            for i0 in GRID_I0:
                limit = 2.0 * (i0 / (1.0 - s) + 1.0 - i0)
                tol = 1e-3 * max(1.0, abs(limit))
                for p in (0.5 - eps, 0.5 + eps):
                    got = cp.theta(1.0, WalkParams(p, s, i0)).theta
                    assert abs(got - limit) < tol


class TestPhiRoots:
    @pytest.mark.parametrize(
        "theta_val,omega_pow,want1,want2",
        [
            (4.0, 1.0, 2.0 + SQRT3, 2.0 - SQRT3),
            (6.0, 1.0, 3.0 + 2.0 * math.sqrt(2.0), 3.0 - 2.0 * math.sqrt(2.0)),
        ],
    )
    def test_known_roots(self, theta_val, omega_pow, want1, want2):
        char = cp.CharData(theta=theta_val, omega_pow=omega_pow, z=1.0, s=0.5, i0=1)
        phi = cp.phi_roots(char)
        assert phi.phi1 == pytest.approx(want1, rel=1e-14)
        assert phi.phi2 == pytest.approx(want2, rel=1e-14)

    def test_no_stop_limit_gives_extremes_of_omega_power(self):
        params = WalkParams(0.4, 0.0, 2)
        phi = cp.phi_roots(cp.theta(1.0, params))
        assert phi.phi1 == pytest.approx(1.0, rel=1e-12)
        assert phi.phi2 == pytest.approx(params.omega_pow, rel=1e-12)

    def test_rejects_clearly_complex_roots(self):
        char = cp.CharData(theta=1.0, omega_pow=1.0, z=1.0, s=0.5, i0=1)
        with pytest.raises(ParameterError):
            cp.phi_roots(char)

    def test_overflowing_discriminant_is_unsupported(self):
        # theta ~ 1.6e191 here, so theta**2 is inf and phi2 would come out 0
        char = cp.theta(1.0, WalkParams(0.9, 0.5, 200))
        with pytest.raises(UnsupportedRegimeError):
            cp.phi_roots(char)

    def test_ordering_and_product_on_grid(self):
        for params in grid_params():
            for z in (0.2, 0.6, 1.0):
                phi = cp.phi_roots(cp.theta(z, params))
                assert phi.phi1 > 1.0 > phi.phi2 > 0.0
                assert phi.phi1 * phi.phi2 == pytest.approx(
                    params.omega_pow, rel=1e-12
                )


def _richardson_from_below(f, h=1e-4):
    def diff(hh):
        return (f(1.0) - f(1.0 - hh)) / hh

    d1, d2, d3 = diff(h), diff(h / 2), diff(h / 4)
    e1, e2 = 2 * d2 - d1, 2 * d3 - d2
    return (4 * e2 - e1) / 3


class TestLucasTerms:
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.5 + 1e-6, 0.7])
    @pytest.mark.parametrize("z", [0.6, 1.0])
    def test_values_match_the_step_roots(self, p, z):
        params = WalkParams(p, 0.5, 1)
        roots = cp.tau_roots(z, params)
        for n in range(1, 9):
            lt = cp.lucas_terms(z, params, n)
            assert lt.u == pytest.approx(cp.power_divided_difference(roots, n), rel=1e-13)
            assert lt.u_prev == pytest.approx(
                cp.power_divided_difference(roots, n - 1), rel=1e-13, abs=0.0
            )
            assert lt.v == pytest.approx(roots.tau1 ** n + roots.tau2 ** n, rel=1e-13)

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.5 - 1e-8, 0.7])
    def test_derivatives_match_finite_differences(self, p):
        params = WalkParams(p, 0.5, 1)
        for n in (1, 2, 3, 6):
            lt = cp.lucas_terms(1.0, params, n)
            for got, field in ((lt.du, "u"), (lt.du_prev, "u_prev"), (lt.dv, "v")):
                want = _richardson_from_below(
                    lambda z, f=field: getattr(cp.lucas_terms(z, params, n), f)
                )
                assert got == pytest.approx(want, rel=1e-7, abs=1e-9)

    def test_driftless_closed_forms(self):
        # p = q at z=1: U_n = n, V_n = 2, dU_n = -n(n^2-1)/3, dV_n = -2n^2
        params = WalkParams(0.5, 0.3, 1)
        for n in range(1, 12):
            lt = cp.lucas_terms(1.0, params, n)
            assert (lt.u, lt.u_prev, lt.v) == (n, n - 1, 2.0)
            assert lt.du == -n * (n * n - 1) / 3
            assert lt.dv == -2.0 * n * n

    def test_rejects_index_below_one(self):
        with pytest.raises(ParameterError):
            cp.lucas_terms(1.0, WalkParams(0.4, 0.5, 1), 0)


class TestDerivatives:
    def test_continuous_through_the_driftless_point(self):
        for s in (0.1, 0.5, 0.9):
            for i0 in (1, 2, 5):
                at = cp.derivatives_at_1(WalkParams(0.5, s, i0))
                for p in (0.5 - 1e-8, 0.5 + 1e-8):
                    near = cp.derivatives_at_1(WalkParams(p, s, i0))
                    assert near.dtheta == pytest.approx(at.dtheta, rel=1e-6)
                    assert near.dphi2 == pytest.approx(at.dphi2, rel=1e-6)

    def test_rejects_total_stop_and_no_stop_double_root(self):
        with pytest.raises(UnsupportedRegimeError):
            cp.derivatives_at_1(WalkParams(0.4, 1.0, 1))
        # s = 0 and p = q: the barrier roots coincide at z=1
        with pytest.raises(UnsupportedRegimeError):
            cp.derivatives_at_1(WalkParams(0.5, 0.0, 2))

    def test_no_stop_ruin_root_slope(self):
        # downward drift: slope of the smaller barrier root is i0*omega**i0/(q-p)
        params = WalkParams(0.4, 0.0, 2)
        der = cp.derivatives_at_1(params)
        expected = params.i0 * params.omega_pow / (params.q - params.p)
        assert der.dphi2 == pytest.approx(expected, rel=1e-9)

    def test_matches_finite_differences_on_grid(self):
        for params in grid_params():
            der = cp.derivatives_at_1(params)
            fd_theta = _richardson_from_below(lambda z: cp.theta(z, params).theta)
            assert der.dtheta == pytest.approx(fd_theta, rel=1e-6)
            fd_phi1 = _richardson_from_below(
                lambda z: cp.phi_roots(cp.theta(z, params)).phi1
            )
            assert der.dphi1 == pytest.approx(fd_phi1, rel=1e-6)
            fd_phi2 = _richardson_from_below(
                lambda z: cp.phi_roots(cp.theta(z, params)).phi2
            )
            assert der.dphi2 == pytest.approx(fd_phi2, rel=1e-6)
