"""Absorption probabilities and mean absorption times for the three strategies.

Absorption probabilities come from the visit generating functions at z=1:
state 0 absorbs every arrival, an active barrier absorbs each arrival with
probability s, so

    P(absorb at 0)    = M(0, z=1)
    P(absorb at k*i0) = s * M(k*i0, z=1)

Mean times are *killed* expectations E[T * 1{absorbed at Y}]; the overall
mean is their sum.  Per-barrier times are z-derivatives at z=1 of the
generating functions, taken through the slopes of the Lucas sequences of the
step roots (:func:`ruinwalk.charpoly.derivatives_at_1`), which stay analytic
at p = 1/2: drifting and driftless walks share every formula.  Like the generating
functions, they are written in ``psi1 = (1-s) phi1`` and its log-derivative
``rate``, so every 0 <= s <= 1 takes the same formulas: s = 1 stops on
arrival, and at s = 0 no barrier stops and the walk is classical gambler's
ruin.  There the barrier masses are 0, mass escapes upward when omega > 1,
and only the ruin time is reported, killed by that escape; at p = 1/2 the
barrier roots coincide at 1, ``rate`` is -inf and every time is infinite.
The barrier roots' gaps the forms divide by come from the characteristic
without cancellation, so only a result that is not finite in floating
point raises.

Two closed forms in this module deliberately differ from easy-to-derive
variants that fail oracle verification; see FORMULA_ERRATA.md.
"""

from __future__ import annotations

import math

from . import charpoly as cp
from . import mgf
from .core import Profile, Strategy, UnsupportedRegimeError, WalkParams


# ---------------------------------------------------------------------------
# absorption probabilities


def absorption_profile(params: WalkParams, strategy: Strategy) -> Profile:
    """Distribution of the absorption site over {0} and the barriers k*i0.

    The barrier masses are ``s * value`` of the generating functions at
    z=1, geometric with ratio phi2 past the profile's head (phi2 = 0 at
    s = 1, where all mass sits on {0, i0, 2*i0}).  At s = 0 they are all 0,
    so the tail's ratio is 0 too, and only ruin absorbs (mass escapes
    upward when the drift ratio exceeds 1).
    """
    strategy = Strategy(strategy)
    s, i0 = params.s, params.i0
    values = mgf._barrier_fn(strategy)(params, 1.0)
    ruin, *barriers = values.head
    # ruin absorbs every arrival, a barrier each with probability s
    head = [ruin] + [s * v if strategy.is_barrier(k * i0, i0) else 0.0 for k, v in enumerate(barriers, 1)]
    return Profile(tuple(head), values.rho if s else 0.0, values.gap)


def bc_ratio(params: WalkParams) -> float:
    """The constant ratio P_B(Y) / P_C(Y) shared by ruin and all barriers k >= 2.

    Equals ``D / psi1``, C's denominator ``D = V_i0 - phi2`` over ``psi1 = (1-s) phi1``, and
    is below 1 for 0 < s < 1: strategy B is strictly more likely than C to
    stop at any given site because its extra barrier at i0 drains mass
    earlier.  At s = 1 and i0 = 1 it is exactly 1, so s = 1 is refused.
    """
    if not 0.0 < params.s < 1.0:
        raise UnsupportedRegimeError(
            f"the B/C ratio needs 0 < s < 1, got s={params.s}"
        )
    phi = mgf.characteristic(params, 1.0).phi
    return phi.v_minus_phi2 / phi.psi1


# ---------------------------------------------------------------------------
# mean absorption times


def mean_time_any(params: WalkParams, strategy: Strategy) -> float:
    """Killed mean time until absorption anywhere, E[T * 1{absorbed}].

    For 0 < s <= 1 absorption is almost sure and this is the plain mean.
    At s = 0 it is the total of :func:`time_profile`: the ruin time, killed
    by the escape when omega > 1 and infinite at p = 1/2.
    With ``excess = (1-s)(phi1 - 1)/psi1 = 1 - 1/phi1``, B's mean is
    ``i0 * excess / s`` and A's is ``(1-s)`` times it (surviving the t=0
    stop draw scales every later outcome); the variant without the 1/s
    fails the oracle, see FORMULA_ERRATA.md.  C's is
    ``i0 * ((1-s) omega**i0 excess / s + U_i0/q) / D``, ``D = V_i0 - phi2``.
    ``excess`` is read from the barrier roots' own gap, so it keeps its
    digits as phi1 -> 1 (p <= 1/2 as s -> 0); what can fail is the 1/s,
    which overflows as s -> 0, and then the mean raises.
    """
    strategy = Strategy(strategy)
    s, i0 = params.s, params.i0
    if not s:  # B's i0 * excess / s below divides by s
        return time_profile(params, strategy).total
    char = mgf.characteristic(params, 1.0)
    phi, one_ms = char.phi, 1.0 - s
    excess = phi.psi1_gap / phi.psi1  # 1 - 1/phi1
    m = i0 / s * excess  # B's; i0/s overflows, and the mean raises, before excess goes subnormal
    if strategy is Strategy.A:
        m *= one_ms
    elif strategy is Strategy.C:
        # D >= omega**i0, so the weights are finite where B's mean is
        denom = phi.v_minus_phi2
        m = one_ms * m * (params.omega_pow / denom) + i0 * char.u_i0 / params.q / denom
    if not math.isfinite(m):
        raise UnsupportedRegimeError(f"the mean time is not finite in floating point at s={s}")
    return m


def time_profile(params: WalkParams, strategy: Strategy) -> Profile:
    """Killed expected times at ruin and at every barrier k*i0.

    Their total is the mean time of :func:`mean_time_any` up to rounding.
    Each time is the z-derivative at z=1 of a mass, taken through
    ``rate = dpsi1/psi1`` and ``dphi2 = -phi2 * rate``.  B's are the
    derivatives of its subtraction-free values: ``-rate/psi1`` at ruin,
    ``s[(2p dU_{i0-1} - q phi2 rate)/(q psi1) - b1 rate]`` at i0 and
    ``s b2 (dU_i0/U_i0 - 1 - 2 rate)`` at 2*i0; A's are (1-s) times B's.
    C's share the pole ``1/D`` of the characteristic's ``D = V_i0 - phi2``: with
    ``pole = (dV_i0 + phi2 rate)/D``, ``dV_i0 = -i0 U_i0/q``, they are ``-pole/D``
    at ruin and ``s w_2 (dU_i0/U_i0 - 1 - rate - pole)`` at 2*i0.  Past the
    head they are the z-derivatives of the geometric masses
    ``mass * phi2**m``, so the profile's tail carries ``drho = dphi2``.
    At s = 0 only ruin absorbs, so the profile is the ruin entry alone, for
    every strategy B's ``-rate/psi1 = omega**-i0 dphi2``: killed by the
    escape when omega > 1, and infinite at p = 1/2, where the barrier roots
    coincide and ``rate`` is -inf.
    """
    strategy = Strategy(strategy)
    s = params.s
    der = cp.derivatives_at_1(params)
    char, rate = mgf.characteristic(params, 1.0), der.rate
    phi, q = char.phi, params.q
    # logarithmic derivative shared by the far barrier forms: U_i0 and 1/z
    log_common = der.du / char.u_i0 - 1.0
    if strategy is Strategy.C:
        w = mgf.mgf_c(params, 1.0).head
        pole = (-1.0 / q * params.i0 * char.u_i0 + phi.phi2 * rate) / phi.v_minus_phi2
        head = [-pole * w[0], 0.0, s * w[2] * (log_common - rate - pole)]
        mass = s * w[2]
    else:
        b = mgf.mgf_b(params, 1.0).head
        psi1 = phi.psi1
        start = (2.0 * params.p * der.du_prev - q * phi.phi2 * rate) / (q * psi1) - b[1] * rate
        head = [-rate / psi1, s * start, s * b[2] * (log_common - 2.0 * rate)]
        mass = s * b[2]
        if strategy is Strategy.A:
            one_ms = 1.0 - s
            head = [one_ms * t for t in head]
            mass *= one_ms
    times = Profile(tuple(head), phi.phi2, phi.phi2_gap, der.dphi2, mass) if s else Profile(tuple(head[:1]))
    if not math.isfinite(times.total) and phi.psi_sqrt_disc:  # at the double root the times are infinite
        raise UnsupportedRegimeError(f"the killed times' sum is not finite in floating point at s={s}")
    return times
