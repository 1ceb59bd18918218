"""Characteristic roots of the walk's step equation and the barrier recurrence.

Everything downstream (visit generating functions, absorption probabilities,
expected times) is built from two quadratics:

* the step roots ``tau1 >= tau2 > 0`` of ``q*z*tau**2 - tau + p*z = 0``,
  which describe the walk between barriers, and
* the barrier roots ``phi1 > 1 > phi2 >= 0`` of
  ``phi**2 - theta*phi + omega**i0 = 0``, where ``theta`` couples
  consecutive barrier values of the generating functions.  They are
  solved as ``psi = (1-s) phi``, the roots of
  ``psi**2 - (1-s) theta psi + (1-s)**2 omega**i0 = 0``, which stay finite
  on all of 0 <= s <= 1 (at s = 1, psi1 = U_i0/(q z) and phi2 = 0).  Their
  gaps ``(1-s)(phi1 - 1)``, ``1 - phi2`` and ``(1-s)(phi1 - phi2)`` are
  solved from sums of non-negative terms (:func:`phi_roots`), never from
  ``theta**2 - 4*omega**i0``, which cancels near the double root.

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
z-derivatives at z=1 follow by the chain rule through ``de1/dz = -1/q``
(:func:`derivatives_at_1`), without ever forming ``dtau/dz``, which is infinite
at z=1 when p=q.  Every expected time is built on them, so one formula
serves drifting and driftless walks alike.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .core import ParameterError, UnsupportedRegimeError, WalkParams


class RootPair(NamedTuple):
    """Step roots at a given z, ordered tau1 >= tau2."""

    tau1: float
    tau2: float
    z: float


class PhiPair(NamedTuple):
    """Barrier recurrence roots phi1 > 1 > phi2 >= 0, phi1 scaled as ``psi1 = (1-s) phi1``.

    ``psi1``, ``psi1_gap = (1-s)(phi1 - 1)`` and
    ``psi_sqrt_disc = (1-s)(phi1 - phi2)`` are finite on 0 <= s <= 1, where
    phi1 is infinite at s = 1, and ``phi2_gap = 1 - phi2``.  The gaps keep
    their own digits: the closed forms divide by them where a root nears 1,
    and strategy C's by ``v_minus_phi2 = V_i0 - phi2``.
    """

    psi1: float
    phi2: float
    psi1_gap: float
    phi2_gap: float
    psi_sqrt_disc: float
    v_minus_phi2: float


def _unscaled(value: float, scale: float) -> float:
    """``value / scale``; infinite with value's sign where the scale is 0.

    The scales are ``1 - s``, 0 at s = 1, and ``(1-s)(phi1 - phi2)``, 0 where
    the barrier roots coincide (z = 1, s = 0, p = 1/2).
    """
    return value / scale if scale else math.copysign(math.inf, value)


class DerivativeBundle(NamedTuple):
    """z-derivatives at z=1 of theta and phi, and of the divided differences behind them.

    ``rate`` is ``dphi1/phi1 = dpsi1/psi1``, finite on 0 <= s <= 1 except
    at the double root s = 0, p = 1/2, where it is -inf, and
    ``dphi2 = -phi2 * rate``; ``dtheta`` is infinite at s = 1.  ``du`` and
    ``du_prev`` are ``dU_i0/dz`` and ``dU_{i0-1}/dz`` of
    ``U_n = (tau1**n - tau2**n) / (tau1 - tau2)``.
    """

    dtheta: float
    dphi2: float
    rate: float
    du: float
    du_prev: float


def tau_roots(z: float, params: WalkParams) -> RootPair:
    """Solve q*z*tau**2 - tau + p*z = 0 for 0 < z <= 1.

    At z=1 the roots are exactly ``max(1, omega)`` and ``min(1, omega)``.
    For z < 1 the larger root comes from the additive branch of the
    quadratic formula with :func:`_disc_root` (no cancellation for this
    sign pattern) and the smaller from the product identity tau1*tau2 = omega.
    """
    if not 0.0 < z <= 1.0:
        raise ParameterError(f"z must lie in (0, 1], got {z}")
    omega = params.omega
    if z == 1.0:
        return RootPair(tau1=max(1.0, omega), tau2=min(1.0, omega), z=z)
    tau1 = (1.0 + _disc_root(z, params.p)) / (2.0 * params.q * z)
    return RootPair(tau1=tau1, tau2=omega / tau1, z=z)


def _disc_root(z: float, p: float) -> float:
    """``sqrt(1 - 4pq z**2) = qz (tau1 - tau2)`` as ``sqrt((1-z)(1+z) + (z(2p-1))**2)``.

    The terms are non-negative, where ``1 - 4pq z**2`` cancels as z -> 1 and
    p -> 1/2; ``2p - 1`` is exact for p >= 1/4.
    """
    lean, rest = z * (2.0 * p - 1.0), 1.0 - z
    return math.sqrt(rest * (1.0 + z) + lean * lean)


def power_divided_difference(roots: RootPair, n: int) -> float:
    """(tau2**n - tau1**n) / (tau2 - tau1) as the symmetric power sum.

    Equals ``n * tau**(n-1)`` when the roots coincide; always positive for
    n >= 1 and zero for n = 0.
    """
    if n < 0:
        raise ParameterError(f"power must be >= 0, got {n}")
    t1, t2 = roots.tau1, roots.tau2
    acc = 0.0
    try:
        for a in range(n):
            acc += t1 ** a * t2 ** (n - 1 - a)
    except OverflowError:
        raise _power_overflow(roots, n) from None
    return acc


def _power_overflow(roots: RootPair, n: int) -> UnsupportedRegimeError:
    return UnsupportedRegimeError(
        f"step-root powers overflow (tau1={roots.tau1!r}, power {n}); "
        "no closed-form answer is available for this instance"
    )


def theta(z: float, params: WalkParams, u_i0: float, u_prev: float) -> float:
    """Coupling constant of the three-term recurrence linking barrier values.

    ``(U_i0/(1-s) - 2*p*z*U_{i0-1}) / (q*z)``, from the divided differences
    ``u_i0 = U_i0`` and ``u_prev = U_{i0-1}`` of the step roots at ``z``.
    The ``1/(1-s)`` factor on the first term is essential: without it the
    symmetric-walk value at z=1 would not reduce to
    ``2*(i0/(1-s) + 1 - i0)`` and the barrier recurrence would not
    reproduce the independently solved chain (see FORMULA_ERRATA.md).  At
    s = 1 theta is infinite; no closed form reads it, since
    :func:`phi_roots` solves for ``(1-s) phi`` from theta's parts.
    :func:`ruinwalk.mgf.characteristic` is its one caller in the package.
    """
    return (_unscaled(u_i0, 1.0 - params.s) - 2.0 * params.p * z * u_prev) / (params.q * z)


def phi_roots(roots: RootPair, params: WalkParams, u_i0: float) -> PhiPair:
    """Solve ``psi**2 - c theta psi + c**2 omega**i0 = 0`` for ``psi = c phi``, c = 1 - s.

    With ``u_i0 = U_i0`` at the roots' ``z``, ``c theta = c V_i0 + c delta``, where
    ``V_i0 = tau1**i0 + tau2**i0`` and ``c delta = U_i0 s / (q z)``.  In
    ``rise = tau1**i0 - 1`` and ``fall = 1 - tau2**i0`` (both >= 0, from
    :func:`_power_gaps`) each quantity the roots need is a sum of
    non-negative terms, finite on all of 0 <= s <= 1:

    * ``c**2 disc = (c (rise + fall))**2 + c delta (2 c V_i0 + c delta)``,
      whose root is taken as a hypotenuse, so no term is squared past float range,
    * ``c (phi1 - 1)(1 - phi2) = c rise fall + c delta``,
    * ``c (theta - 2) = c (rise - fall) + c delta``, whose sign says which gap
      is wider (phi1's for every s >= 1/2).

    The wider gap is ``c (|theta - 2| + sqrt(disc)) / 2`` and the other the
    product over it, so neither cancels near the double root or as s -> 0;
    ``psi1 = c + c (phi1 - 1)`` and ``phi2 = c omega**i0 / psi1``, except
    where that quotient's few ulps of rounding carry it to 1 or past while
    ``1 - phi2`` is not 0: there phi2 is held at ``1 - (1 - phi2)``, which is
    exactly 1.0 where that gap is below 2**-53 (a tail ratio of 1 or more
    would make the tail sum grow; the gap itself keeps its digits).  At s = 1
    this gives ``psi1 = U_i0 / (q z)``, phi2 = 0 and ``1 - phi2 = 1``.  Where
    ``omega**i0`` underflows, phi2 = 0 is a value: no closed form divides
    by phi2.  Two inputs are unsupported regimes instead: a
    ``c sqrt(disc)`` that is not finite (large ``i0*|log omega|``), and, for
    s > 0 with theta >= 2, a ``1 - phi2`` that is, or divides, a subnormal
    number (s near the float minimum).  C's denominator ``V_i0 - phi2`` is
    ``tau1**i0 + (tau2**i0 - phi2)``, the second term >= 0 at z = 1: ``1 - phi2``,
    or ``omega**i0 (1 - c/psi1) = omega**i0 psi1_gap / psi1`` where tau1 is 1.
    For z < 1 it is the plain difference: tau1**i0 carries i0 times tau1's
    few ulps of rounding, which only V_i0 cancels, as tau2 = omega/tau1
    rounds the other way.
    """
    s, c, z = params.s, 1.0 - params.s, roots.z
    try:
        rise, fall = _power_gaps(z, params)
        top = roots.tau1 ** params.i0
    except OverflowError:  # tau1**i0 leaves float range
        rise, fall, top = math.inf, 0.0, math.inf
    c_delta = u_i0 * s / (params.q * z)
    spread = c * (rise + fall)  # c (tau1**i0 - tau2**i0)
    # c sqrt(disc) as a hypotenuse: squaring c delta would overflow at s = 1 long before it does
    cross = math.sqrt(2.0 * c * ((1.0 + rise) + (1.0 - fall))) * math.sqrt(c_delta)
    sqrt_disc = math.hypot(spread, c_delta, cross)
    if not math.isfinite(sqrt_disc):
        raise UnsupportedRegimeError(
            f"barrier roots overflow (tau1**i0 - 1={rise!r}, (1-s) delta={c_delta!r}); "
            "no closed-form answer is available for this instance"
        )
    lift = c * (rise - fall) + c_delta  # c (theta - 2)
    wide = 0.5 * (abs(lift) + sqrt_disc)
    product = c * rise * fall + c_delta
    narrow = product / wide if wide else 0.0  # the scale cancels; 0 at the double root 1
    if s and lift >= 0.0 and min(product, narrow) < sys.float_info.min:
        raise UnsupportedRegimeError(
            f"1 - phi2 = {product!r} / {wide!r} at s={s} is, or divides, a subnormal "
            "number; no closed-form answer keeps its digits"
        )
    # theta < 2 needs delta < fall <= 1, so c > s/(q z) > 0 there
    psi1_gap, phi2_gap = (wide, narrow) if lift >= 0.0 else (c * narrow, wide / c)
    psi1 = c + psi1_gap
    phi2 = c * params.omega_pow / psi1
    if phi2 >= 1.0 and phi2_gap:  # its few ulps of rounding outgrew the gap; a tail ratio past 1 would grow
        phi2 = 1.0 - phi2_gap
    low = params.omega_pow * psi1_gap / psi1 if roots.tau1 == 1.0 else roots.tau2 ** params.i0 - phi2
    return PhiPair(psi1, phi2, psi1_gap, phi2_gap, sqrt_disc, top + low)


def _power_gaps(z: float, params: WalkParams) -> tuple[float, float]:
    """``tau1**i0 - 1`` and ``1 - tau2**i0``, both >= 0, without cancellation.

    With ``r = sqrt(1 - 4pq z**2)`` of :func:`_disc_root`,
    ``tau1 - 1 = (a + r) / (2qz)`` for ``a = 1 - 2qz = (1-z) + z(2p-1)`` and
    ``1 - tau2 = (b + r) / (1 + r)`` for ``b = 1 - 2pz = (1-z) + z(1-2p)``.
    Where a (or b) is negative, ``a + r = (r**2 - a**2) / (r - a)`` with
    ``r**2 - a**2 = 4qz(1-z)`` (``4pz(1-z)`` for b) is a quotient of
    non-negative terms.  The powers follow through expm1 and log1p; a tau2
    within rounding of 0 gives 1.
    """
    p, i0 = params.p, params.i0
    lean, rest, r = z * (2.0 * p - 1.0), 1.0 - z, _disc_root(z, p)
    a, b = rest + lean, rest - lean
    up = (a + r) / (2.0 * params.q * z) if a >= 0.0 else 2.0 * rest / (r - a)
    down = (b + r) / (1.0 + r) if b >= 0.0 else 4.0 * p * z * rest / ((r - b) * (1.0 + r))
    fall = -math.expm1(i0 * math.log1p(-down)) if down < 1.0 else 1.0
    return math.expm1(i0 * math.log1p(up)), fall


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


_last_derivatives = (None, None)  # params, DerivativeBundle; held, so its id is not reused


def derivatives_at_1(params: WalkParams) -> DerivativeBundle:
    """z-derivatives of theta and phi_i at z=1, for 0 <= s <= 1.

    At fixed ``e2 = omega``, ``dU_n/de1`` is the positive power sum of
    :func:`_divided_difference_slope`, multiplied by ``de1/dz = -1/q`` for
    ``du`` and ``du_prev``.  Nothing there divides by the root gap, so
    p = 1/2 needs no special case.  The differentiated recurrence
    ``x_n = e1*x_{n-1} - e2*x_{n-2}`` gives the same values with rounding
    that grows with n, and the killed times subtract these derivatives from
    the barrier roots' ones (losing a factor of about 4000 at p=0.55,
    s=0.99, i0=50), so the positive sums are used instead.  With
    ``c theta = (U_i0 - 2*p*z*c*U_{i0-1}) / (q*z)``, c = 1 - s, the
    quotient rule at z=1 gives ``d(c theta) = (dU_i0 - 2*p*c*(U_{i0-1} +
    dU_{i0-1}))/q - c theta``; implicit differentiation of the scaled
    barrier quadratic gives ``rate = dpsi1/psi1 = d(c theta) / (c sqrt(disc))``
    and ``dphi2 = -phi2 * rate``, both finite at s = 1; where the roots
    coincide (s = 0, p = 1/2) ``c sqrt(disc)`` is 0 and ``rate`` is -inf,
    the mean times being infinite there.  The roots and
    ``U_i0``, ``U_{i0-1}`` come from :func:`ruinwalk.mgf.characteristic` at
    z=1.  The last bundle built is kept, keyed by the params object's
    identity, so every strategy's killed times share one solve.
    """
    global _last_derivatives
    last, der = _last_derivatives
    if last is params:
        return der
    from .mgf import characteristic  # mgf builds on this module

    char = characteristic(params, 1.0)
    phi, roots, n = char.phi, char.roots, params.i0
    slope = _divided_difference_slope(roots, n)
    if not math.isfinite(slope):  # the larger of the two slopes
        raise _power_overflow(roots, n)
    p, q, c, de1 = params.p, params.q, 1.0 - params.s, -1.0 / params.q
    du, du_prev = de1 * slope, de1 * _divided_difference_slope(roots, n - 1)
    c_theta = phi.psi1 + c * phi.phi2  # psi1 + psi2
    dc_theta = (du - 2.0 * p * c * (char.u_prev + du_prev)) / q - c_theta
    rate = _unscaled(dc_theta, phi.psi_sqrt_disc)
    der = DerivativeBundle(_unscaled(dc_theta, c), -phi.phi2 * rate, rate, du, du_prev)
    _last_derivatives = params, der
    return der
