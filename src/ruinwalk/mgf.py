"""Closed-form visit generating functions for the three stopping strategies.

For a walk started at ``i0``, the generating function of a state ``j`` is
``sum_m P(at j after m steps, not yet absorbed) * z**m`` for ``0 < z <= 1``;
at z=1 it is the expected number of arrivals at ``j`` before absorption.
Strategy B's functions follow strategy A's through a single factor ``1-s``
(surviving the t=0 stop decision), which removes the m=0 self-term at the
start state: B's function at ``i0`` sums from m=1.

Barrier states carry the closed forms; states strictly between barriers are
reconstructed from the two neighbouring barrier values via the divided
differences of tau powers, one segment at a time.  All formulas here are
cross-checked against the step-by-step propagation oracle in
:mod:`ruinwalk.oracle`.
"""

from __future__ import annotations

from .charpoly import (
    PhiPair,
    RootPair,
    phi_roots,
    power_divided_difference,
    tau_roots,
    theta,
)
from .core import ParameterError, Strategy, UnsupportedRegimeError, WalkParams


def _require_interior_s(params: WalkParams) -> None:
    if not 0.0 < params.s < 1.0:
        raise UnsupportedRegimeError(
            f"closed-form generating functions need 0 < s < 1, got s={params.s}; "
            "the s=0 and s=1 cases are served by the metrics special branches"
        )


# step roots, barrier roots and D_i0: everything a barrier value needs
_Context = tuple[RootPair, PhiPair, float]


def _char_context(params: WalkParams, z: float) -> _Context:
    roots = tau_roots(z, params)
    phi = phi_roots(theta(z, params))
    return roots, phi, power_divided_difference(roots, params.i0)


def _a_values(params: WalkParams, z: float, context: _Context, ks: range) -> list[float]:
    _, phi, d_i0 = context
    phi2 = phi.phi2
    base = d_i0 / (params.q * (1.0 - params.s) * z * params.omega_pow)
    return [phi2 / params.omega_pow if k == 0 else base * phi2 ** k for k in ks]


def _b_values(params: WalkParams, z: float, context: _Context, ks: range) -> list[float]:
    one_ms = 1.0 - params.s
    a_values = _a_values(params, z, context, ks)
    return [(ua - (1.0 if k == 1 else 0.0)) / one_ms for k, ua in zip(ks, a_values)]


def _c_values(params: WalkParams, z: float, context: _Context, ks: range) -> list[float]:
    roots, phi, d_i0 = context
    i0, phi2 = params.i0, phi.phi2
    denom = roots.tau1 ** i0 + roots.tau2 ** i0 - phi2
    denom_far = params.q * (1.0 - params.s) * z * denom
    out = []
    for k in ks:
        if k == 0:
            out.append(1.0 / denom)
        elif k == 1:
            out.append(d_i0 / (params.q * z * denom))
        else:
            out.append(d_i0 * phi2 ** (k - 1) / denom_far)
    return out


def _barrier_values(values, params: WalkParams, z: float, k: int | range):
    """``values`` at every barrier index in ``k`` from one solve of the roots.

    An int ``k`` gives a float, a range gives a list.
    """
    _require_interior_s(params)
    ks = k if isinstance(k, range) else range(k, k + 1)
    if not ks:
        return []
    lowest = min(ks[0], ks[-1])
    if lowest < 0:
        raise ParameterError(f"barrier index must be >= 0, got {lowest}")
    out = values(params, z, _char_context(params, z), ks)
    return out if isinstance(k, range) else out[0]


def mgf_a(params: WalkParams, z: float, k: int | range) -> float | list[float]:
    """Strategy-A generating function on the barrier state k*i0 (k >= 0).

    ``k`` may be a ``range`` of barrier indices, which returns the list of
    values from one solve of the roots: for k >= 1 they are geometric,
    ``base * phi2**k``.
    """
    return _barrier_values(_a_values, params, z, k)


def mgf_b(params: WalkParams, z: float, k: int | range) -> float | list[float]:
    """Strategy-B generating function on k*i0: A's value rescaled by 1/(1-s).

    The start state additionally sheds its m=0 self-term, so
    ``value_B = (value_A - delta(k,1)) / (1-s)``.  ``k`` may be a ``range``,
    as for :func:`mgf_a`.
    """
    return _barrier_values(_b_values, params, z, k)


def mgf_c(params: WalkParams, z: float, k: int | range) -> float | list[float]:
    """Strategy-C generating function on the barrier state k*i0 (k >= 0).

    ``k`` may be a ``range``, as for :func:`mgf_a`.
    """
    return _barrier_values(_c_values, params, z, k)


def _barrier_fn(strategy: Strategy):
    return {Strategy.A: mgf_a, Strategy.B: mgf_b, Strategy.C: mgf_c}[
        Strategy(strategy)
    ]


def mgf_interior(params: WalkParams, strategy: Strategy, z: float, position: int) -> float:
    """Generating function on a state strictly between barriers.

    With ``position = k*i0 + n`` (0 < n < i0), the value is a convex-like
    bridge between the two neighbouring barrier values:

    ``value = (scale) * [left * omega**n * D_{i0-n} + right * D_n] / D_i0``

    where ``D_m`` is the divided difference of tau powers, ``left``/``right``
    are the barrier values that bound the segment and ``scale`` carries the
    per-segment stop factor.  On the lowest segment the left boundary is the
    absorbing state 0, which contributes nothing.
    """
    _require_interior_s(params)
    i0 = params.i0
    if i0 < 2:
        raise ParameterError("interior states require i0 >= 2")
    k, n = divmod(position, i0)
    if n == 0:
        raise ParameterError(
            f"position {position} is a barrier-lattice state; use the barrier forms"
        )
    strategy = Strategy(strategy)
    context = _char_context(params, z)
    roots, _, d_i0 = context
    d_n = power_divided_difference(roots, n)
    d_co = power_divided_difference(roots, i0 - n)
    one_ms = 1.0 - params.s
    omega_n = params.omega ** n

    if strategy in (Strategy.A, Strategy.B):
        u_here, u_next = _a_values(params, z, context, range(k, k + 2))
        if k == 0:
            value = one_ms * u_next * d_n / d_i0
        else:
            value = one_ms * (u_here * omega_n * d_co + u_next * d_n) / d_i0
        if strategy is Strategy.B:
            value /= one_ms
        return value

    w_here, w_next = _c_values(params, z, context, range(k, k + 2))
    if k == 0:
        # the segment [0, i0] has normal states on both sides for C
        return w_next * d_n / d_i0
    if k == 1:
        # only the upper end (2*i0) of this segment is a barrier
        return (w_here * omega_n * d_co + one_ms * w_next * d_n) / d_i0
    return one_ms * (w_here * omega_n * d_co + w_next * d_n) / d_i0


def mgf_value(params: WalkParams, strategy: Strategy, z: float, position: int) -> float:
    """Generating function at an arbitrary state, dispatching barrier/interior."""
    if position < 0:
        raise ParameterError(f"position must be >= 0, got {position}")
    k, n = divmod(position, params.i0)
    if n == 0:
        return _barrier_fn(strategy)(params, z, k)
    return mgf_interior(params, strategy, z, position)


def mgf_b_s1(params: WalkParams, z: float, segment: int, n: int) -> float:
    """Strategy-B generating functions in the all-stop case s=1.

    With s=1 every barrier absorbs on arrival, so after the first step the
    walk is confined to one of two segments with absorbing ends:

    * ``segment=1``: states ``0..i0``, entered at ``i0 - 1``; ``n`` is the
      absolute state.
    * ``segment=2``: states ``i0..2*i0``, entered at ``i0 + 1``; ``n`` is
      the offset above ``i0``.

    Returns the generating function of state ``n`` (segment 1) or
    ``i0 + n`` (segment 2) for the segment walk.  For i0=1 the segments
    have no interior: the walk starts on an absorbing end, and the forms
    below give the entry state value 1 and the opposite end 0 through
    ``D_0 = 0`` and ``D_1 = 1``.
    """
    if params.s != 1.0:
        raise UnsupportedRegimeError(f"this branch is the s=1 case, got s={params.s}")
    if segment not in (1, 2):
        raise ParameterError(f"segment must be 1 or 2, got {segment}")
    i0 = params.i0
    if not 0 <= n <= i0:
        raise ParameterError(f"offset must lie in [0, {i0}], got {n}")
    roots = tau_roots(z, params)
    d_i0 = power_divided_difference(roots, i0)
    if segment == 1:
        if n == 0:
            return 1.0 / d_i0
        if n == i0:
            return params.omega * power_divided_difference(roots, i0 - 1) / d_i0
        return power_divided_difference(roots, n) / (params.q * z * d_i0)
    if n == 0:
        return power_divided_difference(roots, i0 - 1) / d_i0
    if n == i0:
        return params.omega ** (i0 - 1) / d_i0
    return (
        params.omega ** n
        * power_divided_difference(roots, i0 - n)
        / (params.p * z * d_i0)
    )
