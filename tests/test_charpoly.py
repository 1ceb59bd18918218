import math

import pytest
from hypothesis import given, settings, strategies as st

from ruinwalk import charpoly as cp
from ruinwalk import mgf
from ruinwalk.core import ParameterError, UnsupportedRegimeError, WalkParams

import decimal_reference as ref
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

    def test_overflow_is_an_unsupported_regime(self):
        roots = cp.tau_roots(0.01, WalkParams(0.5, 0.5, 1))  # tau1 near 200
        with pytest.raises(UnsupportedRegimeError, match="overflow"):
            cp.power_divided_difference(roots, 200)


class TestTheta:
    def test_symmetric_value_at_z_one(self):
        assert mgf.characteristic(WalkParams(0.5, 0.5, 2), 1.0).theta == pytest.approx(6.0)
        assert mgf.characteristic(WalkParams(0.5, 0.5, 1), 1.0).theta == pytest.approx(4.0)

    def test_unit_stake_asymmetric(self):
        params = WalkParams(0.4, 0.5, 1)
        expected = 1.0 / (params.q * (1.0 - params.s))
        assert mgf.characteristic(params, 1.0).theta == pytest.approx(expected, rel=1e-14)

    def test_total_stop_is_infinite(self):
        # at s = 1 no closed form reads theta: phi_roots solves for (1-s) phi
        assert cp.theta(1.0, WalkParams(0.4, 1.0, 1), 1.0, 0.0) == math.inf
        phi = mgf.characteristic(WalkParams(0.4, 1.0, 1), 1.0).phi
        assert (phi.psi1, phi.phi2, phi.phi2_gap) == (1.0 / 0.6, 0.0, 1.0)

    def test_generic_branch_approaches_symmetric_limit(self):
        eps = 1e-5
        for s in GRID_S:
            for i0 in GRID_I0:
                limit = 2.0 * (i0 / (1.0 - s) + 1.0 - i0)
                tol = 1e-3 * max(1.0, abs(limit))
                for p in (0.5 - eps, 0.5 + eps):
                    got = mgf.characteristic(WalkParams(p, s, i0), 1.0).theta
                    assert abs(got - limit) < tol


class TestPhiRoots:
    @pytest.mark.parametrize(
        "i0,want1,want2",
        [
            (1, 2.0 + SQRT3, 2.0 - SQRT3),
            (2, 3.0 + 2.0 * math.sqrt(2.0), 3.0 - 2.0 * math.sqrt(2.0)),
        ],
    )
    def test_known_roots(self, i0, want1, want2):
        # p = 1/2 at z = 1: U_i0 = i0 and theta = 2 + 2 i0 s/(1-s), so 4 and 6
        # at s = 1/2, with omega**i0 = 1; psi1 = phi1/2
        phi = cp.phi_roots(1.0, WalkParams(0.5, 0.5, i0), float(i0))
        assert phi.psi1 == pytest.approx(0.5 * want1, rel=1e-14)
        assert phi.phi2 == pytest.approx(want2, rel=1e-14)
        assert phi.psi1_gap == pytest.approx(0.5 * (want1 - 1.0), rel=1e-14)
        assert phi.phi2_gap == pytest.approx(1.0 - want2, rel=1e-14)
        assert phi.psi_sqrt_disc == pytest.approx(0.5 * (want1 - want2), rel=1e-14)

    def test_no_stop_limit_gives_extremes_of_omega_power(self):
        params = WalkParams(0.4, 0.0, 2)
        phi = mgf.characteristic(params, 1.0).phi
        assert phi.psi1 == pytest.approx(1.0, rel=1e-12)  # phi1, as 1 - s = 1
        assert phi.phi2 == pytest.approx(params.omega_pow, rel=1e-12)

    def test_overflowing_discriminant_is_unsupported(self):
        # tau1**i0 ~ 1.7e308 here, so (1-s) sqrt(disc) is inf and phi2 would
        # come out 0; at i0 = 200 its square overflowed, but the root does not
        params = WalkParams(0.9, 0.5, 323)
        u_i0 = cp.power_divided_difference(cp.tau_roots(1.0, params), 323)
        with pytest.raises(UnsupportedRegimeError):
            cp.phi_roots(1.0, params, u_i0)

    def test_ordering_and_product_on_grid(self):
        for params in grid_params():
            for z in (0.2, 0.6, 1.0):
                phi, one_ms = mgf.characteristic(params, z).phi, 1.0 - params.s
                assert phi.psi1 > one_ms and 1.0 > phi.phi2 > 0.0  # phi1 > 1 > phi2 > 0
                assert phi.psi1 * phi.phi2 == pytest.approx(
                    one_ms * params.omega_pow, rel=1e-12
                )


def _unscaled_roots(params: WalkParams, z: float) -> dict:
    """The characteristic's barrier roots at z in the decimal reference's unscaled terms, for s < 1."""
    phi, one_ms = mgf.characteristic(params, z).phi, 1.0 - params.s
    return {
        "phi1": phi.psi1 / one_ms, "phi2": phi.phi2, "phi1_gap": phi.psi1_gap / one_ms,
        "phi2_gap": phi.phi2_gap, "sqrt_disc": phi.psi_sqrt_disc / one_ms,
    }


_NEAR_HALF = st.sampled_from([0.5, 0.5 + 1e-9, 0.5 - 1e-9, 0.5 + 1e-7, 0.5 - 1e-7])


class TestBarrierRootGaps:
    """``phi1 - 1``, ``1 - phi2`` and ``sqrt(disc)`` against the quadratic
    formula evaluated in ``decimal``, where theta**2 - 4 omega**i0 cancels in
    floating point: near p = 1/2, as s -> 0 and as z -> 1."""

    @given(
        p=st.one_of(_NEAR_HALF, st.floats(0.05, 0.95)),
        s=st.one_of(
            st.floats(-300.0, -0.001).map(lambda e: 10.0 ** e),
            st.floats(-12.0, -0.001).map(lambda e: 1.0 - 10.0 ** e),
        ),
        i0=st.integers(1, 13),
        z=st.one_of(st.just(1.0), st.integers(1, 15).map(lambda k: 1.0 - 10.0 ** -k), st.floats(0.01, 1.0)),
    )
    @settings(max_examples=400, deadline=None)
    def test_gaps_match_the_decimal_reference(self, p, s, i0, z):
        params = WalkParams(p, s, i0)
        got, want = _unscaled_roots(params, z), ref.barrier_roots(params, z)
        for name in ("phi1_gap", "phi2_gap", "sqrt_disc"):
            assert got[name] == pytest.approx(want[name], rel=1e-13), name

    @pytest.mark.parametrize(
        "p, s, i0, z",
        [
            (0.5, 1e-16, 2, 1.0),  # theta**2 - 4 omega**i0 left phi1 - 1 off by 0.49 here
            (1e-20, 0.5, 3, 1.0),  # 1 - tau2 rounds to 1, where log1p(-1) is undefined
            (1e-20, 0.5, 3, 0.5),
        ],
    )
    def test_all_five_at_edge_points(self, p, s, i0, z):
        params = WalkParams(p, s, i0)
        got, want = _unscaled_roots(params, z), ref.barrier_roots(params, z)
        for name in ("phi1", "phi2", "phi1_gap", "phi2_gap", "sqrt_disc"):
            assert got[name] == pytest.approx(want[name], rel=1e-15), name


def _richardson_from_below(f, h=1e-4):
    at_1 = f(1.0)

    def diff(hh):
        return (at_1 - f(1.0 - hh)) / hh

    d1, d2, d3 = diff(h), diff(h / 2), diff(h / 4)
    e1, e2 = 2 * d2 - d1, 2 * d3 - d2
    return (4 * e2 - e1) / 3


class TestLucasTerms:
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.5 + 1e-6, 0.7])
    @pytest.mark.parametrize("z", [0.6, 1.0])
    def test_values_match_the_step_roots(self, p, z):
        for n in range(1, 9):
            params = WalkParams(p, 0.5, n)
            char = mgf.characteristic(params, z)
            roots = char.roots
            lt = cp.lucas_terms(char, params)
            assert lt.u == pytest.approx(cp.power_divided_difference(roots, n), rel=1e-13)
            assert lt.u_prev == pytest.approx(
                cp.power_divided_difference(roots, n - 1), rel=1e-13, abs=0.0
            )
            assert lt.v == pytest.approx(roots.tau1 ** n + roots.tau2 ** n, rel=1e-13)

    def test_reads_the_characteristic_it_is_given(self):
        # U_i0 and U_{i0-1} come from the characteristic, not a second solve
        params = WalkParams(0.4, 0.5, 3)
        char = mgf.characteristic(params, 1.0)
        lt = cp.lucas_terms(char, params)
        assert (lt.u, lt.u_prev) == (char.u_i0, char.u_prev)

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.5 - 1e-8, 0.7])
    def test_derivatives_match_finite_differences(self, p):
        for n in (1, 2, 3, 6):
            params = WalkParams(p, 0.5, n)
            lt = cp.lucas_terms(mgf.characteristic(params, 1.0), params)
            for got, field in ((lt.du, "u"), (lt.du_prev, "u_prev"), (lt.dv, "v")):
                want = _richardson_from_below(
                    lambda z, f=field: getattr(cp.lucas_terms(mgf.characteristic(params, z), params), f)
                )
                assert got == pytest.approx(want, rel=1e-7, abs=1e-9)

    def test_driftless_closed_forms(self):
        # p = q at z=1: U_n = n, V_n = 2, dU_n = -n(n^2-1)/3, dV_n = -2n^2
        for n in range(1, 12):
            params = WalkParams(0.5, 0.3, n)
            lt = cp.lucas_terms(mgf.characteristic(params, 1.0), params)
            assert (lt.u, lt.u_prev, lt.v) == (n, n - 1, 2.0)
            assert lt.du == -n * (n * n - 1) / 3
            assert lt.dv == -2.0 * n * n

    def test_overflow_is_an_unsupported_regime(self):
        # U_155 of the roots 99 and 1 is finite, V_155 is not; the
        # characteristic refuses omega**155 first, so its U terms are given
        params = WalkParams(0.99, 0.5, 155)
        roots = cp.tau_roots(1.0, params)
        u_i0, u_prev = (cp.power_divided_difference(roots, n) for n in (155, 154))
        assert math.isfinite(u_i0)
        char = mgf.Characteristic(1.0, roots, u_i0, u_prev, math.inf, None)
        with pytest.raises(UnsupportedRegimeError, match="overflow"):
            cp.lucas_terms(char, params)


class TestDerivatives:
    def test_continuous_through_the_driftless_point(self):
        for s in (0.1, 0.5, 0.9):
            for i0 in (1, 2, 5):
                at = cp.derivatives_at_1(WalkParams(0.5, s, i0))
                for p in (0.5 - 1e-8, 0.5 + 1e-8):
                    near = cp.derivatives_at_1(WalkParams(p, s, i0))
                    assert near.dtheta == pytest.approx(at.dtheta, rel=1e-6)
                    assert near.dphi2 == pytest.approx(at.dphi2, rel=1e-6)

    def test_total_stop_answers_and_no_stop_double_root_is_refused(self):
        # s = 1: psi1 = U_i0/(q z), so its log-derivative is dU_i0/U_i0 - 1,
        # and phi2 = 0 does not move; theta is infinite
        for params in (WalkParams(0.4, 1.0, 1), WalkParams(0.5, 1.0, 3), WalkParams(0.7, 1.0, 4)):
            der = cp.derivatives_at_1(params)
            lt = der.lucas
            assert der.rate == pytest.approx(lt.du / lt.u - 1.0, rel=1e-15, abs=0.0)
            assert der.rate == pytest.approx(
                _richardson_from_below(lambda z: math.log(mgf.characteristic(params, z).phi.psi1)),
                rel=1e-6,
            )
            assert der.dphi2 == 0.0
            assert der.dtheta == -math.inf
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
            fd_theta = _richardson_from_below(lambda z: mgf.characteristic(params, z).theta)
            assert der.dtheta == pytest.approx(fd_theta, rel=1e-6)
            fd_psi1 = _richardson_from_below(
                lambda z: mgf.characteristic(params, z).phi.psi1
            )
            psi1 = mgf.characteristic(params, 1.0).phi.psi1
            assert psi1 * der.rate == pytest.approx(fd_psi1, rel=1e-6)
            fd_phi2 = _richardson_from_below(
                lambda z: mgf.characteristic(params, z).phi.phi2
            )
            assert der.dphi2 == pytest.approx(fd_phi2, rel=1e-6)
