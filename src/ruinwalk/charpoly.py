"""Characteristic roots of the walk's step equation and the barrier recurrence.

Everything downstream (visit generating functions, absorption probabilities,
expected times) is built from two quadratics:

* the step roots ``tau1 >= tau2 > 0`` of ``q*z*tau**2 - tau + p*z = 0``,
  which describe the walk between barriers, and
* the barrier roots ``phi1 > 1 > phi2 > 0`` of
  ``phi**2 - theta*phi + omega**i0 = 0``, where ``theta`` couples
  consecutive barrier values of the generating functions.

Differences of tau powers always enter through the divided difference
``(tau2**n - tau1**n) / (tau2 - tau1)``, computed here as the symmetric sum
``sum(tau1**a * tau2**b, a+b=n-1)``.  That form is exact in the repeated
root case (z=1 with p=q) and immune to the cancellation the raw quotient
suffers when the roots nearly coincide, so a single code path serves every
regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ParameterError, UnsupportedRegimeError, WalkParams


@dataclass(frozen=True)
class RootPair:
    """Step roots at a given z, ordered tau1 >= tau2."""

    tau1: float
    tau2: float
    z: float


@dataclass(frozen=True)
class CharData:
    """The barrier coupling constant theta with its evaluation context."""

    theta: float
    omega_pow: float
    z: float
    s: float
    i0: int


@dataclass(frozen=True)
class PhiPair:
    """Barrier recurrence roots, phi1 >= phi2 > 0 (phi1 > 1 > phi2 for 0<s<1)."""

    phi1: float
    phi2: float


@dataclass(frozen=True)
class DerivativeBundle:
    """z-derivatives of tau, theta and phi at z=1 (asymmetric walks only)."""

    dtau1: float
    dtau2: float
    dtheta: float
    dphi1: float
    dphi2: float
    h1: float


def tau_roots(z: float, params: WalkParams) -> RootPair:
    """Solve q*z*tau**2 - tau + p*z = 0 for 0 < z <= 1.

    At z=1 the roots are exactly ``max(1, omega)`` and ``min(1, omega)``.
    For z < 1 the larger root comes from the additive branch of the
    quadratic formula (no cancellation for this sign pattern) and the
    smaller from the product identity tau1*tau2 = omega.
    """
    if not 0.0 < z <= 1.0:
        raise ParameterError(f"z must lie in (0, 1], got {z}")
    omega = params.omega
    if z == 1.0:
        return RootPair(tau1=max(1.0, omega), tau2=min(1.0, omega), z=z)
    disc = 1.0 - 4.0 * params.p * params.q * z * z
    # disc >= (1 - 2*sqrt(pq)*z)... strictly positive for z < 1 since 4pq <= 1
    root = math.sqrt(disc)
    tau1 = (1.0 + root) / (2.0 * params.q * z)
    tau2 = omega / tau1
    return RootPair(tau1=tau1, tau2=tau2, z=z)


def power_divided_difference(roots: RootPair, n: int) -> float:
    """(tau2**n - tau1**n) / (tau2 - tau1) as the symmetric power sum.

    Equals ``n * tau**(n-1)`` when the roots coincide; always positive for
    n >= 1 and zero for n = 0.
    """
    if n < 0:
        raise ParameterError(f"power must be >= 0, got {n}")
    t1, t2 = roots.tau1, roots.tau2
    acc = 0.0
    for a in range(n):
        acc += t1 ** a * t2 ** (n - 1 - a)
    return acc


def theta(z: float, params: WalkParams) -> CharData:
    """Coupling constant of the three-term recurrence linking barrier values.

    Computed as ``(D_i0/(1-s) - 2*p*z*D_{i0-1}) / (q*z)`` with ``D_n`` the
    divided difference of tau powers.  The ``1/(1-s)`` factor on the first
    term is essential: without it the symmetric-walk value at z=1 would not
    reduce to ``2*(i0/(1-s) + 1 - i0)`` and the barrier recurrence would
    not reproduce the independently solved chain (see FORMULA_ERRATA.md).
    """
    s = params.s
    if s >= 1.0:
        raise UnsupportedRegimeError(
            "theta is undefined at s=1; the s=1 branches bypass it"
        )
    roots = tau_roots(z, params)
    d_i0 = power_divided_difference(roots, params.i0)
    d_prev = power_divided_difference(roots, params.i0 - 1)
    value = (d_i0 / (1.0 - s) - 2.0 * params.p * z * d_prev) / (params.q * z)
    return CharData(theta=value, omega_pow=params.omega_pow, z=z, s=s, i0=params.i0)


def phi_roots(char: CharData) -> PhiPair:
    """Solve phi**2 - theta*phi + omega**i0 = 0, ordered phi1 >= phi2.

    A clearly negative discriminant means the supplied theta is not a valid
    coupling constant, so it is reported instead of silently clipped; tiny
    negatives from roundoff at a genuine double root are clamped to zero.
    A discriminant that is not finite (theta**2 overflows at large
    ``i0*|log omega|``) would give phi1=inf and phi2=0, so it is reported
    as an unsupported regime instead.
    """
    th = char.theta
    disc = th * th - 4.0 * char.omega_pow
    if not math.isfinite(disc):
        raise UnsupportedRegimeError(
            f"barrier roots overflow (theta={th}, omega**i0={char.omega_pow}); "
            "no closed-form answer is available for this instance"
        )
    if disc < 0.0:
        if disc < -1e-12 * max(th * th, 1.0):
            raise ParameterError(
                f"complex barrier roots (theta={th}, omega**i0={char.omega_pow}); "
                "inconsistent coupling data"
            )
        disc = 0.0
    phi1 = 0.5 * (th + math.sqrt(disc))
    phi2 = char.omega_pow / phi1
    return PhiPair(phi1=phi1, phi2=phi2)


def _power_gap(roots: RootPair, n: int) -> float:
    """g_n = tau2**n - tau1**n (negative for n >= 1 when the roots differ)."""
    return roots.tau2 ** n - roots.tau1 ** n


def _power_sum(roots: RootPair, n: int) -> float:
    """S_n = tau1**n + tau2**n."""
    return roots.tau1 ** n + roots.tau2 ** n


def derivatives_at_1(params: WalkParams) -> DerivativeBundle:
    """z-derivatives of tau_i, theta and phi_i at z=1 for an asymmetric walk.

    Implicit differentiation of the step quadratic gives
    ``dtau_i/dz = (-1)**i * h(z) * tau_i / z`` with
    ``h(z) = (1 - 4*p*q*z**2)**(-1/2)``, so ``h(1) = 1/|p - q|``.  From
    that, d/dz of ``g_n = tau2**n - tau1**n`` is ``n*h*S_n/z`` and of
    ``S_n = tau1**n + tau2**n`` is ``n*h*g_n/z``; theta's derivative
    follows by the quotient rule and phi's by implicit differentiation of
    the barrier quadratic.  The whole bundle is validated against
    Richardson-extrapolated finite differences in the test suite.
    """
    if params.symmetric:
        raise UnsupportedRegimeError(
            "derivatives at z=1 need distinct step roots (p != 1/2)"
        )
    if params.s >= 1.0:
        raise UnsupportedRegimeError("derivatives at z=1 are defined for s < 1")
    p, q, s, i0 = params.p, params.q, params.s, params.i0
    roots = tau_roots(1.0, params)
    h1 = 1.0 / abs(p - q)
    dtau1 = -h1 * roots.tau1
    dtau2 = h1 * roots.tau2

    g1 = _power_gap(roots, 1)
    g_prev = _power_gap(roots, i0 - 1)
    g_i0 = _power_gap(roots, i0)
    dg1 = h1 * _power_sum(roots, 1)
    dg_prev = (i0 - 1) * h1 * _power_sum(roots, i0 - 1)
    dg_i0 = i0 * h1 * _power_sum(roots, i0)

    # theta = num / den with num = g_i0/(1-s) - 2*p*z*g_{i0-1}, den = q*z*g1
    num = g_i0 / (1.0 - s) - 2.0 * p * g_prev
    dnum = dg_i0 / (1.0 - s) - 2.0 * p * g_prev - 2.0 * p * dg_prev
    den = q * g1
    dden = q * (g1 + dg1)
    theta1 = num / den
    dtheta = dnum / den - theta1 * dden / den

    phi = phi_roots(CharData(theta=theta1, omega_pow=params.omega_pow,
                             z=1.0, s=s, i0=i0))
    gap = phi.phi1 - phi.phi2
    if gap == 0.0:
        raise UnsupportedRegimeError(
            "barrier roots coincide at z=1; no derivative is available"
        )
    dphi1 = phi.phi1 * dtheta / gap
    dphi2 = -phi.phi2 * dtheta / gap
    return DerivativeBundle(
        dtau1=dtau1, dtau2=dtau2, dtheta=dtheta, dphi1=dphi1, dphi2=dphi2, h1=h1
    )
