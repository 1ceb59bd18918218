"""Absorption probabilities and mean absorption times for the three strategies.

Absorption probabilities come from the visit generating functions at z=1:
state 0 absorbs every arrival, an active barrier absorbs each arrival with
probability s, so

    P(absorb at 0)    = M(0, z=1)
    P(absorb at k*i0) = s * M(k*i0, z=1)

Mean times are *killed* expectations E[T * 1{absorbed at Y}]; the overall
mean is their sum.  Per-barrier times are z-derivatives at z=1 of the
generating functions, taken through the Lucas sequences of the step roots
(:func:`ruinwalk.charpoly.lucas_terms`), which stay analytic at p = 1/2:
drifting and driftless walks share every formula.  The barrier roots'
gaps they divide by come from the characteristic without cancellation, so
only a result that is not finite in floating point raises.

At the limits s=0 and s=1 the walk is classical gambler's ruin, and one
builder, :func:`_limit_profiles`, answers every public function there; only
s=0 with p = 1/2 is special, because its mean time is infinite.

Two closed forms in this module deliberately differ from easy-to-derive
variants that fail oracle verification; see FORMULA_ERRATA.md.
"""

from __future__ import annotations

import math

from . import charpoly as cp
from . import mgf
from .core import (
    AbsorptionNotCertainError,
    ParameterError,
    Profile,
    Strategy,
    UnsupportedRegimeError,
    WalkParams,
)


def _limit_profiles(params: WalkParams, strategy: Strategy) -> tuple[Profile, Profile, float]:
    """Head-only profiles and the mean time at s=0 and s=1, where the walk is classical ruin.

    At s=0 no barrier stops: only ruin absorbs, mass escapes upward when
    omega > 1, and the ruin time is killed by that escape (FORMULA_ERRATA.md #3).
    At s=1 every active barrier absorbs on arrival.  A stops at t=0.  B
    steps once and then runs two-sided ruin on [0, i0] from i0-1 or on
    [i0, 2*i0] from i0+1; C runs it on [0, 2*i0] from i0.  The exit values
    and their z-derivatives are ratios of the Lucas terms ``U_i0``,
    ``U_{i0-1}`` and ``V_i0`` at z=1.
    """
    i0, wi = params.i0, params.omega_pow
    if params.s == 0.0:
        if params.symmetric:
            et0 = math.inf
        elif params.omega < 1.0:
            et0 = i0 / (params.q - params.p)
        else:
            # killed by the escape event: conditioned on ruin the drift flips
            et0 = i0 / ((params.p - params.q) * wi)
        p0 = 1.0 if params.omega <= 1.0 else 1.0 / wi
        return Profile((p0,)), Profile((et0,)), et0
    if strategy.stops_at_start:
        return Profile((0.0, 1.0)), Profile((0.0, 0.0)), 0.0
    lt = cp.lucas_terms(1.0, params, i0)
    if strategy is Strategy.C:
        # exit values 1/V_i0 at ruin and omega**i0/V_i0 at the top
        et0 = -lt.dv / (lt.v * lt.v)
        return (
            Profile((1.0 / lt.v, 0.0, wi / lt.v)),
            Profile((et0, 0.0, wi * et0)),
            -lt.dv / lt.v,
        )
    # B's exit values: 1/U_i0 to ruin, omega*U_{i0-1}/U_i0 and U_{i0-1}/U_i0
    # to the middle barrier from below and above, omega**(i0-1)/U_i0 to the
    # top; the killed times are d/dz of z times each, at z=1
    p, q, u, du = params.p, params.q, lt.u, lt.du
    p1 = q * (params.omega * lt.u_prev / u) + p * (lt.u_prev / u)
    p2 = p * (params.omega ** (i0 - 1) / u)
    to_end = (1.0 - du / u) / u
    to_middle = (lt.u_prev + lt.du_prev - lt.u_prev * du / u) / u
    et0 = q * to_end
    return (
        Profile((q * (1.0 / u), p1, p2)),
        Profile((et0, 2.0 * p * to_middle, wi * et0)),
        float(i0),
    )


# ---------------------------------------------------------------------------
# absorption probabilities


def absorption_profile(params: WalkParams, strategy: Strategy) -> Profile:
    """Distribution of the absorption site over {0} and the barriers k*i0.

    For 0 < s < 1 the barrier masses are ``s * value`` of the generating
    functions at z=1, geometric with ratio phi2 past the profile's head.
    For s=0 only ruin can absorb (mass escapes upward when the drift ratio
    exceeds 1); for s=1 all mass sits on {0, i0, 2*i0}.
    """
    strategy = Strategy(strategy)
    s, i0 = params.s, params.i0
    if s in (0.0, 1.0):
        return _limit_profiles(params, strategy)[0]
    values = mgf._barrier_fn(strategy)(params, 1.0)
    ruin, *barriers = values.head
    # ruin absorbs every arrival, a barrier each with probability s
    head = [ruin] + [s * v if strategy.is_barrier(k * i0, i0) else 0.0 for k, v in enumerate(barriers, 1)]
    return Profile(tuple(head), values.rho, values.gap)


def bc_ratio(params: WalkParams) -> float:
    """The constant ratio P_B(Y) / P_C(Y) shared by ruin and all barriers k >= 2.

    Equals ``phi2 * (1 + omega**i0 - phi2) / ((1-s) * omega**i0)`` and is
    always below 1: strategy B is strictly more likely than C to stop at any
    given site because its extra barrier at i0 drains mass earlier.
    """
    if not 0.0 < params.s < 1.0:
        raise UnsupportedRegimeError(
            f"the B/C ratio needs 0 < s < 1, got s={params.s}"
        )
    phi2 = mgf.characteristic(params, 1.0).phi.phi2
    wi = params.omega_pow
    return phi2 * (1.0 + wi - phi2) / ((1.0 - params.s) * wi)


# ---------------------------------------------------------------------------
# mean absorption times


def mean_time_any(params: WalkParams, strategy: Strategy) -> float:
    """Killed mean time until absorption anywhere, E[T * 1{absorbed}].

    For 0 < s < 1 absorption is almost sure and this is the plain mean.
    Strategy B's mean is A's divided by 1-s (surviving the t=0 stop draw
    scales every later outcome); the undivided variant fails the oracle,
    see FORMULA_ERRATA.md.
    """
    strategy = Strategy(strategy)
    if params.s in (0.0, 1.0):
        if params.s == 0.0 and params.omega > 1.0:
            raise AbsorptionNotCertainError(
                "s=0 with upward drift: absorption is not almost sure; "
                "ask for the killed time at ruin (barrier 0) instead"
            )
        return _limit_profiles(params, strategy)[2]
    return _mean_time_interior(params, strategy)


def _mean_time_interior(params: WalkParams, strategy: Strategy) -> float:
    """:func:`mean_time_any` for 0 < s < 1; raises where it is not finite in floating point.

    ``1 - 1/phi1`` is read as ``(phi1 - 1)/phi1`` from the barrier roots'
    own gap, so it keeps its digits as phi1 -> 1 (p <= 1/2 as s -> 0);
    what can fail is ``(1-s)/s``, which overflows as s -> 0.
    """
    s, i0 = params.s, params.i0
    char = mgf.characteristic(params, 1.0)
    excess = char.phi.phi1_gap / char.phi.phi1  # 1 - 1/phi1
    m = i0 * (1.0 - s) / s * excess
    if strategy is Strategy.B:
        m /= 1.0 - s
    elif strategy is Strategy.C:
        wi = params.omega_pow
        # (1 - omega**-i0) / (p - q) = U_i0 / (q * omega**i0), finite at p = q
        num = (1.0 - s) / s * excess + char.u_i0 / (params.q * wi)
        m = i0 * num / (1.0 / wi + excess)
    if not math.isfinite(m):
        raise UnsupportedRegimeError(f"the mean time is not finite in floating point at s={s}")
    return m


def mean_time_at(params: WalkParams, strategy: Strategy, k: int) -> float:
    """Killed expected time for absorption exactly at barrier k*i0 (k=0: ruin), from :func:`time_profile`."""
    if k < 0:
        raise ParameterError(f"barrier index must be >= 0, got {k}")
    return time_profile(params, strategy).at(k)


def time_profile(params: WalkParams, strategy: Strategy) -> Profile:
    """Killed expected times at ruin and at every barrier k*i0.

    Their total is the mean time of :func:`mean_time_any` up to rounding;
    at s=0 with upward drift it is the ruin time killed by the escape.  For
    0 < s < 1 the times at ruin and barriers 1..a are assembled from the
    z-derivatives at z=1; past barrier a they are the z-derivatives of the
    geometric masses ``mass * phi2**m``, so the profile's tail carries
    ``drho = dphi2``.
    """
    strategy = Strategy(strategy)
    s = params.s
    if s in (0.0, 1.0):
        return _limit_profiles(params, strategy)[1]
    der = cp.derivatives_at_1(params)
    char = mgf.characteristic(params, 1.0)
    lt, phi = der.lucas, char.phi
    # logarithmic derivative shared by every barrier form: U_i0 and 1/z
    log_common = lt.du / lt.u - 1.0
    phi_rate = der.dphi2 / phi.phi2
    if strategy is Strategy.C:
        # C's barrier values share the pole 1/(V_i0 - phi2)
        pole_rate = (lt.dv - der.dphi2) / (lt.v - phi.phi2)
        w = mgf.mgf_c(params, 1.0).head
        head = [w[0] * w[0] * (der.dphi2 - lt.dv), 0.0]
        head += [s * wk * (log_common + (k - 1) * phi_rate - pole_rate) for k, wk in enumerate(w[2:], 2)]
        mass = s * w[-1]
    else:
        u = mgf.mgf_a(params, 1.0).head
        head = [der.dphi2 / params.omega_pow]
        head += [s * uk * (log_common + k * phi_rate) for k, uk in enumerate(u[1:], 1)]
        mass = s * u[-1]
        if strategy is Strategy.B:
            head = [t / (1.0 - s) for t in head]
            mass /= 1.0 - s
    times = Profile(tuple(head), phi.phi2, phi.phi2_gap, der.dphi2, mass)
    if not math.isfinite(times.total):
        raise UnsupportedRegimeError(f"the killed times' sum is not finite in floating point at s={s}")
    return times
