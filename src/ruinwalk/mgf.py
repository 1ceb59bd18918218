"""Closed-form visit generating functions for the three stopping strategies.

For a walk started at ``i0``, the generating function of a state ``j`` is
``sum_m P(at j after m steps, not yet absorbed) * z**m`` for ``0 < z <= 1``;
at z=1 it is the expected number of arrivals at ``j`` before absorption.
Strategy B's functions follow strategy A's through a single factor ``1-s``
(surviving the t=0 stop decision), which removes the m=0 self-term at the
start state: B's function at ``i0`` sums from m=1, and :func:`mgf_b` takes
it from theta's definition rather than by subtracting that self-term.

Every closed form reads the instance's :class:`Characteristic` at its z,
which states theta and the barrier roots with their gaps once.  Barrier
states carry the closed forms, each a :class:`ruinwalk.core.Profile` whose
tail is geometric in phi2 with gap ``phi2_gap``; states strictly between
barriers are reconstructed from the two neighbouring barrier values via
the divided differences of tau powers, one segment at a time, each end
weighted by the stop rule of :class:`ruinwalk.core.Strategy`.  All formulas
here are cross-checked against the step-by-step propagation oracle in
:mod:`ruinwalk.oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .charpoly import (
    PhiPair,
    RootPair,
    phi_roots,
    power_divided_difference,
    tau_roots,
    theta,
)
from .core import ParameterError, Profile, Strategy, UnsupportedRegimeError, WalkParams


def _require_interior_s(params: WalkParams) -> None:
    if not 0.0 < params.s < 1.0:
        raise UnsupportedRegimeError(
            f"closed-form generating functions need 0 < s < 1, got s={params.s}; "
            "the s=0 and s=1 cases are served by the metrics special branches"
        )


@dataclass(frozen=True)
class Characteristic:
    """One instance's step roots, ``U_i0 = D_i0``, ``U_{i0-1}``, theta and phi at one z.

    Built by :func:`characteristic`; every closed form for 0 < s < 1, and
    every check that wants theta or phi at some z, reads it from there.
    ``phi.phi2_gap`` is ``1 - phi2``, the denominator of every profile's
    geometric tail, taken without cancellation at every z (see
    :func:`ruinwalk.charpoly.phi_roots`).
    """

    z: float
    roots: RootPair
    u_i0: float
    u_prev: float
    theta: float
    phi: PhiPair


def characteristic(params: WalkParams, z: float) -> Characteristic:
    """The characteristic of ``params`` at ``z``, for s < 1: one solve of the roots.

    ``params`` keeps the one for the last z asked, so repeated calls at the
    same z return that object without solving again.  For s > 0 a phi2
    that underflows to 0 is an unsupported regime: every closed form there
    divides by it or by omega**i0 (at s = 0 only root diagnostics read it).
    """
    memo = params._memo
    char = memo.get(z)
    if char is None:
        roots = tau_roots(z, params)
        u_i0 = power_divided_difference(roots, params.i0)
        u_prev = power_divided_difference(roots, params.i0 - 1)
        th = theta(z, params, u_i0, u_prev)
        phi = phi_roots(z, params, u_i0)
        if params.s and not phi.phi2:
            raise UnsupportedRegimeError(
                f"phi2 underflows to 0 (omega**i0={params.omega_pow!r}) at z={z}; "
                "no closed-form answer is available for this instance"
            )
        char = Characteristic(z, roots, u_i0, u_prev, th, phi)
        memo.clear()
        memo[z] = char
    return char


def mgf_a(params: WalkParams, z: float) -> Profile:
    """Strategy-A generating function on ruin and every barrier k*i0.

    The head holds barriers 0..2; from barrier 1 on the values are
    ``base * phi2**k``, so the tail continues it with ``rho = phi2``.
    """
    _require_interior_s(params)
    char = characteristic(params, z)
    phi2, wi = char.phi.phi2, params.omega_pow
    base = char.u_i0 / (params.q * (1.0 - params.s) * z * wi)
    return Profile((phi2 / wi, base * phi2, base * phi2 ** 2), phi2, char.phi.phi2_gap)


def mgf_b(params: WalkParams, z: float) -> Profile:
    """Strategy-B generating function: A's values over 1 - s, less A's m=0 self-term at i0.

    So ``value_B = (value_A - delta(k,1)) / (1-s)``.  At i0 that difference
    is not taken by subtracting: A's value there is 1 + O(1 - s), and
    subtracting the 1 would leave an absolute error of about eps / (1 - s).
    Theta's definition gives it instead as a sum of positive terms,
    ``U_i0 - q(1-s) z phi1 = (1-s) z (2p U_{i0-1} + q phi2)``, so B's value
    at i0 is ``(2p U_{i0-1} + q phi2) / (q (1-s) phi1)`` at every s and z.
    """
    a = mgf_a(params, z)
    char, q = characteristic(params, z), params.q
    one_ms = 1.0 - params.s
    ruin, _, second = a.head
    start = (2.0 * params.p * char.u_prev + q * char.phi.phi2) / (q * one_ms * char.phi.phi1)
    return Profile((ruin / one_ms, start, second / one_ms), a.rho, a.gap)


def mgf_c(params: WalkParams, z: float) -> Profile:
    """Strategy-C generating function on ruin and every barrier k*i0.

    The head holds barriers 0..3; from barrier 2 on the values are
    ``d_i0 * phi2**(k-1) / denom_far``, so the tail continues it with ``rho = phi2``.
    """
    _require_interior_s(params)
    char = characteristic(params, z)
    roots, d_i0 = char.roots, char.u_i0
    i0, phi2 = params.i0, char.phi.phi2
    denom = roots.tau1 ** i0 + roots.tau2 ** i0 - phi2
    denom_far = params.q * (1.0 - params.s) * z * denom
    head = (
        1.0 / denom,
        d_i0 / (params.q * z * denom),
        d_i0 * phi2 / denom_far,
        d_i0 * phi2 ** 2 / denom_far,
    )
    return Profile(head, phi2, char.phi.phi2_gap)


def _barrier_fn(strategy: Strategy):
    """The barrier form of a strategy, looked up in the module when called."""
    return mgf_a if strategy == Strategy.A else mgf_b if strategy == Strategy.B else mgf_c


def mgf_states(params: WalkParams, strategy: Strategy, z: float, positions) -> list[float]:
    """Generating function at each state of the iterable ``positions``, from one barrier profile.

    A barrier state k*i0 reads the strategy's profile at k.  A state
    ``k*i0 + n`` strictly between barriers (0 < n < i0) bridges the two
    values at the ends of its segment, ``left`` at k*i0 and ``right`` at
    (k+1)*i0:

    ``value = [wl * left * omega**n * D_{i0-n} + wr * right * D_n] / D_i0``

    where ``D_m`` is the divided difference of tau powers and each end's
    weight, ``wl`` or ``wr``, is the chance of stepping on from it: 0 at
    ruin, 1 - s on a barrier (``Strategy.is_barrier``) and 1 elsewhere.
    B bridges A's values and divides by 1 - s, as its barrier forms do.
    """
    strategy = Strategy(strategy)
    values = _barrier_fn(strategy)(params, z)
    bridged = mgf_a(params, z) if strategy is Strategy.B else values
    char = characteristic(params, z)
    i0, one_ms = params.i0, 1.0 - params.s
    out = []
    for position in positions:
        if position < 0:
            raise ParameterError(f"position must be >= 0, got {position}")
        k, n = divmod(position, i0)
        if n == 0:
            out.append(values.at(k))
            continue
        d_n = power_divided_difference(char.roots, n)
        d_co = power_divided_difference(char.roots, i0 - n)
        left, right = bridged.at(k), bridged.at(k + 1)
        ends = (k * i0, (k + 1) * i0)
        wl, wr = (0.0 if j == 0 else one_ms if strategy.is_barrier(j, i0) else 1.0 for j in ends)
        value = (wl * left * params.omega ** n * d_co + wr * right * d_n) / char.u_i0
        out.append(value / one_ms if strategy is Strategy.B else value)
    return out


def mgf_interior(params: WalkParams, strategy: Strategy, z: float, position: int) -> float:
    """Generating function on a state strictly between barriers (see :func:`mgf_states`)."""
    if params.i0 < 2:
        raise ParameterError("interior states require i0 >= 2")
    if position % params.i0 == 0:
        raise ParameterError(
            f"position {position} is a barrier-lattice state; use the barrier forms"
        )
    return mgf_states(params, strategy, z, (position,))[0]


def mgf_value(params: WalkParams, strategy: Strategy, z: float, position: int) -> float:
    """Generating function at an arbitrary state, dispatching barrier/interior."""
    if position % params.i0:
        return mgf_interior(params, strategy, z, position)
    return mgf_states(params, strategy, z, (position,))[0]
