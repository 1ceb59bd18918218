"""Characteristic roots of the walk's step equation and the barrier recurrence.

Everything downstream (visit generating functions, absorption probabilities,
expected times) is built from two quadratics:

* the step roots ``tau1 >= tau2 > 0`` of ``q*z*tau**2 - tau + p*z = 0``,
  which describe the walk between barriers, and
* the barrier roots ``phi1 > 1 > phi2 > 0`` of
  ``phi**2 - theta*phi + omega**i0 = 0``, where ``theta`` couples
  consecutive barrier values of the generating functions.

Differences of tau powers always enter through the divided difference
``D_n = (tau2**n - tau1**n) / (tau2 - tau1)``, computed here as the
symmetric sum ``sum(tau1**a * tau2**b, a+b=n-1)``.  That form is exact in
the repeated root case (z=1 with p=q) and immune to the cancellation the
raw quotient suffers when the roots nearly coincide, so a single code path
serves every regime.

``D_n`` is the Lucas sequence ``U_n(e1, e2)`` of the root sum
``e1 = tau1 + tau2 = 1/(q*z)`` and product ``e2 = omega``, and
``V_n = tau1**n + tau2**n`` is its companion; both are polynomials in
(e1, e2), and so are their e1-derivatives.  With e2 independent of z, the
z-derivatives follow by the chain rule through ``de1/dz = -1/(q*z**2)``
(:func:`lucas_terms`), without ever forming ``dtau/dz``, which is infinite
at z=1 when p=q.  Every expected time with s > 0 is built on them, so one
formula serves drifting and driftless walks alike.
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
class LucasTerms:
    """``U_n``, ``U_{n-1}`` and ``V_n`` of the step roots with their z-derivatives.

    ``U_n = (tau1**n - tau2**n) / (tau1 - tau2)`` and
    ``V_n = tau1**n + tau2**n``; the ``d`` fields are d/dz.
    """

    u: float
    u_prev: float
    v: float
    du: float
    du_prev: float
    dv: float


@dataclass(frozen=True)
class DerivativeBundle:
    """z-derivatives of theta and phi at z=1, with the Lucas terms behind them."""

    dtheta: float
    dphi1: float
    dphi2: float
    lucas: LucasTerms


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


def _divided_difference_slope(roots: RootPair, n: int) -> float:
    """dU_n/de1 at fixed e2, ``sum((m+1)*(n-1-m) * tau1**m * tau2**(n-2-m))``.

    The sum runs over m < n-1; it is the convolution ``sum(U_k * U_{n-k})``
    of the sequence with itself, so every term is positive.
    """
    t1, t2 = roots.tau1, roots.tau2
    acc = 0.0
    for m in range(n - 1):
        acc += (m + 1) * (n - 1 - m) * t1 ** m * t2 ** (n - 2 - m)
    return acc


def lucas_terms(z: float, params: WalkParams, n: int) -> LucasTerms:
    """``U_n``, ``U_{n-1}``, ``V_n`` and their z-derivatives at ``z``, for n >= 1.

    At fixed ``e2 = omega``, ``dU_n/de1`` is the positive power sum of
    :func:`_divided_difference_slope` and ``dV_n/de1 = n*U_n``; both are
    multiplied by ``de1/dz = -1/(q*z**2)``.  Nothing here divides by the
    root gap, so p = 1/2 needs no special case.  The differentiated
    recurrence ``x_n = e1*x_{n-1} - e2*x_{n-2}`` gives the same values with
    rounding that grows with n, and the killed times subtract these
    derivatives from the barrier roots' ones (losing a factor of about 4000
    at p=0.55, s=0.99, i0=50), so the positive sums are used instead.
    """
    if n < 1:
        raise ParameterError(f"Lucas index must be >= 1, got {n}")
    roots = tau_roots(z, params)
    de1 = -1.0 / (params.q * z * z)
    u = power_divided_difference(roots, n)
    return LucasTerms(
        u=u,
        u_prev=power_divided_difference(roots, n - 1),
        v=roots.tau1 ** n + roots.tau2 ** n,
        du=de1 * _divided_difference_slope(roots, n),
        du_prev=de1 * _divided_difference_slope(roots, n - 1),
        dv=de1 * n * u,
    )


def derivatives_at_1(params: WalkParams) -> DerivativeBundle:
    """z-derivatives of theta and phi_i at z=1, for s < 1.

    With ``theta = (U_i0/(1-s) - 2*p*z*U_{i0-1}) / (q*z)`` the quotient rule
    at z=1 gives ``dtheta = (dU_i0/(1-s) - 2*p*(U_{i0-1} + dU_{i0-1}))/q
    - theta``, with the Lucas terms of :func:`lucas_terms`; phi's
    derivatives follow by implicit differentiation of the barrier
    quadratic.  The whole bundle is validated against
    Richardson-extrapolated finite differences in the test suite.
    """
    if params.s >= 1.0:
        raise UnsupportedRegimeError("derivatives at z=1 are defined for s < 1")
    p, q, s, i0 = params.p, params.q, params.s, params.i0
    lt = lucas_terms(1.0, params, i0)
    theta1 = (lt.u / (1.0 - s) - 2.0 * p * lt.u_prev) / q
    dtheta = (lt.du / (1.0 - s) - 2.0 * p * (lt.u_prev + lt.du_prev)) / q - theta1

    phi = phi_roots(CharData(theta=theta1, omega_pow=params.omega_pow,
                             z=1.0, s=s, i0=i0))
    gap = phi.phi1 - phi.phi2
    if gap == 0.0:
        raise UnsupportedRegimeError(
            "barrier roots coincide at z=1; no derivative is available"
        )
    dphi1 = phi.phi1 * dtheta / gap
    dphi2 = -phi.phi2 * dtheta / gap
    return DerivativeBundle(dtheta=dtheta, dphi1=dphi1, dphi2=dphi2, lucas=lt)
