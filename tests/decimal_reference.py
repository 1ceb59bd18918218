"""The barrier roots and the closed forms built on them, in ``decimal``.

The float code takes ``phi1 - 1``, ``1 - phi2`` and ``sqrt(disc)`` from sums
of non-negative terms because ``theta**2 - 4 omega**i0`` cancels near the
double root and as s -> 0.  Here the same quantities come straight from the
quadratic formulas, at a precision set per instance so that the
cancellation still leaves about a hundred digits: the float inputs are
converted exactly, and ``theta - 2`` is of order s or larger.  Only the
standard library and ``ruinwalk.core`` are imported.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

from ruinwalk.core import Strategy, WalkParams


def _precision(params: WalkParams) -> int:
    return 120 + max(0, -math.floor(math.log10(params.s)))


def _step_roots(p: Decimal, z: Decimal) -> tuple[Decimal, Decimal]:
    q = 1 - p
    r = (1 - 4 * p * q * z * z).sqrt()
    return (1 + r) / (2 * q * z), (1 - r) / (2 * q * z)


def step_roots(params: WalkParams, z: float) -> dict:
    """``tau1``, ``tau2`` and ``tau1_pow = tau1**i0`` at z, as floats.

    ``1 - 4pq z**2`` cancels as z -> 1 and p -> 1/2 by at most the 32 digits
    of two float inputs, so a fixed precision serves every instance.
    """
    with localcontext() as ctx:
        ctx.prec = 120
        t1, t2 = _step_roots(Decimal(params.p), Decimal(z))
        return {"tau1": float(t1), "tau2": float(t2), "tau1_pow": float(t1 ** params.i0)}


def _roots(params: WalkParams, z: float) -> dict:
    p, s, z = Decimal(params.p), Decimal(params.s), Decimal(z)
    q, i0 = 1 - p, params.i0
    t1, t2 = _step_roots(p, z)
    u, u_prev = (sum(t1 ** a * t2 ** (n - 1 - a) for a in range(n)) for n in (i0, i0 - 1))
    wi = (p / q) ** i0
    theta = (u / (1 - s) - 2 * p * z * u_prev) / (q * z)
    sqrt_disc = (theta * theta - 4 * wi).sqrt()
    phi1, phi2 = (theta + sqrt_disc) / 2, (theta - sqrt_disc) / 2
    return {
        "p": p, "q": q, "s": s, "u": u, "u_prev": u_prev, "v": t1 ** i0 + t2 ** i0,
        "wi": wi, "phi1": phi1, "phi2": phi2,
        "phi1_gap": phi1 - 1, "phi2_gap": 1 - phi2, "sqrt_disc": sqrt_disc,
    }


def barrier_roots(params: WalkParams, z: float = 1.0) -> dict:
    """phi1, phi2, ``phi1 - 1``, ``1 - phi2`` and ``sqrt(disc)`` at z, for 0 < s < 1, as floats."""
    with localcontext() as ctx:
        ctx.prec = _precision(params)
        found = _roots(params, z)
        return {key: float(found[key]) for key in ("phi1", "phi2", "phi1_gap", "phi2_gap", "sqrt_disc")}


def v_minus_phi2(params: WalkParams, z: float = 1.0) -> float:
    """Strategy C's denominator ``V_i0 - phi2 = tau1**i0 + tau2**i0 - phi2`` at z, for 0 < s < 1."""
    with localcontext() as ctx:
        ctx.prec = _precision(params)
        found = _roots(params, z)
        return float(found["v"] - found["phi2"])


def mean_time(params: WalkParams, strategy: Strategy) -> float:
    """The closed-form mean absorption time for 0 < s < 1."""
    with localcontext() as ctx:
        ctx.prec = _precision(params)
        c = _roots(params, 1.0)
        s, i0 = c["s"], params.i0
        excess = 1 - 1 / c["phi1"]
        if strategy is Strategy.C:
            num = (1 - s) / s * excess + c["u"] / (c["q"] * c["wi"])
            return float(i0 * num / (1 + 1 / c["wi"] - 1 / c["phi1"]))
        m = i0 * (1 - s) / s * excess
        return float(m / (1 - s) if strategy is Strategy.B else m)


def masses(params: WalkParams, strategy: Strategy, kmax: int) -> list[float]:
    """The closed-form absorption masses at ruin and barriers 1..kmax, for 0 < s < 1."""
    with localcontext() as ctx:
        ctx.prec = _precision(params)
        c = _roots(params, 1.0)
        p, q, s, phi2, wi = c["p"], c["q"], c["s"], c["phi2"], c["wi"]
        if strategy is Strategy.C:
            denom = c["v"] - phi2
            out = [1 / denom, 0]
            out += [s * c["u"] * phi2 ** (k - 1) / (q * (1 - s) * denom) for k in range(2, kmax + 1)]
        else:
            out = [phi2 / wi] + [s * c["u"] * phi2 ** k / (q * (1 - s) * wi) for k in range(1, kmax + 1)]
            if strategy is Strategy.B:
                out = [m / (1 - s) for m in out]
                out[1] = s * (2 * p * c["u_prev"] + q * phi2) / (q * (1 - s) * c["phi1"])
        return [float(m) for m in out]


def no_stop(params: WalkParams) -> tuple[float, float]:
    """Ruin mass and killed ruin time at s = 0, classical gambler's ruin with exact q = 1 - p.

    Below p = 1/2 ruin is certain and takes ``i0 / (1 - 2p)`` on average;
    above it the walk escapes upward, ruin has mass ``omega**-i0`` and
    killed time ``omega**-i0 * i0 / (2p - 1)``; at p = 1/2 the time is
    infinite.
    """
    with localcontext() as ctx:
        ctx.prec = 120
        p, i0 = Decimal(params.p), params.i0
        lean = 2 * p - 1
        if lean < 0:
            return 1.0, float(i0 / -lean)
        if not lean:
            return 1.0, math.inf
        mass = ((1 - p) / p) ** i0
        return float(mass), float(mass * i0 / lean)
