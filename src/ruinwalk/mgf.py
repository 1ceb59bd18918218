"""Closed-form visit generating functions for the three stopping strategies.

For a walk started at ``i0``, the generating function of a state ``j`` is
``sum_m P(at j after m steps, not yet absorbed) * z**m`` for ``0 < z <= 1``;
at z=1 it is the expected number of arrivals at ``j`` before absorption.

Strategy B's barrier values are the primary closed forms.  They are written
in ``psi1 = (1-s) phi1``, which is finite on all of 0 <= s <= 1, so one form
serves every stopping probability, s = 0 and s = 1 included, and none
divides by ``1 - s`` or by ``omega**i0``.  Strategy A's follow through a single
factor ``1-s`` (surviving the t=0 stop decision), except at the start
state: B's function at ``i0`` sums from m=1, and A's adds the m=0 visit.

Every closed form reads the instance's :class:`Characteristic` at its z,
which states theta and the barrier roots with their gaps once.  Barrier
states carry the closed forms, each a :class:`ruinwalk.core.Profile` whose
tail is geometric in phi2 with gap ``phi2_gap``; states strictly between
barriers are reconstructed from the departures at the two ends of their
segment via the divided differences of tau powers, each end weighted by
the stop rule of :class:`ruinwalk.core.Strategy`.  All formulas here are
cross-checked against the step-by-step propagation oracle in
:mod:`ruinwalk.oracle`.
"""

from __future__ import annotations

from typing import NamedTuple

from .charpoly import (
    PhiPair,
    RootPair,
    phi_roots,
    power_divided_difference,
    tau_roots,
    theta,
)
from .core import ParameterError, Profile, Strategy, WalkParams


class Characteristic(NamedTuple):
    """One instance's step roots, ``U_i0 = D_i0``, ``U_{i0-1}``, theta and phi at one z.

    Built by :func:`characteristic`; every closed form for 0 <= s <= 1, and
    every check that wants theta or phi at some z, reads it from there.
    ``phi.psi1 = (1-s) phi1`` is what the closed forms divide by, and
    ``phi.phi2_gap`` is ``1 - phi2``, the denominator of every profile's
    geometric tail, both taken without cancellation at every z (see
    :func:`ruinwalk.charpoly.phi_roots`); ``theta`` is infinite at s = 1.
    The z is ``roots.z``.
    """

    roots: RootPair
    u_i0: float
    u_prev: float
    theta: float
    phi: PhiPair


_last_characteristic = (None, None, None)  # params, z, Characteristic; held, so its id is not reused


def characteristic(params: WalkParams, z: float) -> Characteristic:
    """The characteristic of ``params`` at ``z``: one solve of the roots.

    The last one built is kept, keyed by the params object's identity and
    z, so repeated calls for the same object at the same z return it
    without solving again.
    """
    global _last_characteristic
    last, last_z, char = _last_characteristic
    if last is params and last_z == z:
        return char
    roots = tau_roots(z, params)
    u_i0 = power_divided_difference(roots, params.i0)
    u_prev = power_divided_difference(roots, params.i0 - 1)
    th = theta(z, params, u_i0, u_prev)
    phi = phi_roots(roots, params, u_i0)
    char = Characteristic(roots, u_i0, u_prev, th, phi)
    _last_characteristic = params, z, char
    return char


def mgf_b(params: WalkParams, z: float) -> Profile:
    """Strategy-B generating function on ruin and every barrier k*i0, for 0 <= s <= 1.

    ``(1/psi1, (2p U_{i0-1} + q phi2)/(q psi1), U_i0 omega**i0/(q z psi1**2))``
    on barriers 0..2, then geometric with ``rho = phi2``.  B's value at i0
    counts the visits after t=0; theta's definition gives it as a sum of
    positive terms, ``U_i0 - q z psi1 = (1-s) z (2p U_{i0-1} + q phi2)``.
    """
    char = characteristic(params, z)
    phi, q = char.phi, params.q
    psi1, phi2 = phi.psi1, phi.phi2
    # ratios before products: U_i0 omega**i0 overflows long before the value does
    head = (
        1.0 / psi1,
        (2.0 * params.p * char.u_prev + q * phi2) / (q * psi1),
        char.u_i0 / (q * z * psi1) * (params.omega_pow / psi1),
    )
    return Profile(head, phi2, phi.phi2_gap)


def mgf_a(params: WalkParams, z: float) -> Profile:
    """Strategy-A generating function: (1 - s) times B's, plus the start visit at i0.

    So ``value_A = (1-s) value_B + delta(k,1)``, a sum of non-negative
    terms (it equals ``U_i0 / (q z psi1)`` at i0, and is exactly 1 at s = 1).
    """
    b = mgf_b(params, z)
    one_ms = 1.0 - params.s
    ruin, start, second = b.head
    return Profile((one_ms * ruin, 1.0 + one_ms * start, one_ms * second), b.rho, b.gap)


def mgf_c(params: WalkParams, z: float) -> Profile:
    """Strategy-C generating function on ruin and every barrier k*i0, for 0 <= s <= 1.

    With ``D = V_i0 - phi2``, the characteristic's, the head holds barriers 0..3,
    ``(1/D, U_i0/(q z D), U_i0 omega**i0/(q z psi1 D), that * phi2)``, and
    the tail continues it with ``rho = phi2``.
    """
    char = characteristic(params, z)
    phi, qz, denom = char.phi, params.q * z, char.phi.v_minus_phi2
    # U_i0/(q z) / psi1 is exactly 1 at s = 1, where psi1 is that quotient
    far = char.u_i0 / qz / phi.psi1 * (params.omega_pow / denom)
    head = (1.0 / denom, char.u_i0 / (qz * denom), far, far * phi.phi2)
    return Profile(head, phi.phi2, phi.phi2_gap)


def _barrier_fn(strategy: Strategy):
    """The barrier form of a strategy, looked up in the module when called."""
    return mgf_a if strategy == Strategy.A else mgf_b if strategy == Strategy.B else mgf_c


def mgf_states(params: WalkParams, strategy: Strategy, z: float, positions) -> list[float]:
    """Generating function at each state of the iterable ``positions``, from one barrier profile.

    A barrier state k*i0 reads the strategy's profile at k.  A state
    ``k*i0 + n`` strictly between barriers (0 < n < i0) bridges the
    departures from the two ends of its segment, ``left`` from k*i0 and
    ``right`` from (k+1)*i0:

    ``value = [left * omega**n * D_{i0-n} + right * D_n] / D_i0``

    where ``D_m`` is the divided difference of tau powers.  An end departs
    on each visit it does not stop: never from ruin, on 1 - s of the
    visits on a barrier (``Strategy.is_barrier``), and on every visit
    elsewhere.  B's start is a barrier that does not stop at t = 0
    (``Strategy.stops_at_start``), and its value counts the visits after
    t = 0, so the start departs once more than that.
    """
    strategy = Strategy(strategy)
    values = _barrier_fn(strategy)(params, z)
    char = characteristic(params, z)
    i0, one_ms = params.i0, 1.0 - params.s

    def departures(k: int) -> float:
        if k == 0:
            return 0.0
        if not strategy.is_barrier(k * i0, i0):
            return values.at(k)
        return one_ms * values.at(k) + (1.0 if k == 1 and not strategy.stops_at_start else 0.0)

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
        value = departures(k) * params.omega ** n * d_co + departures(k + 1) * d_n
        out.append(value / char.u_i0)
    return out


def mgf_interior(params: WalkParams, strategy: Strategy, z: float, position: int) -> float:
    """Generating function on a state strictly between barriers (see :func:`mgf_states`)."""
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
