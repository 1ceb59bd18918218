"""Absorption probabilities and mean absorption times for the three strategies.

Absorption probabilities come from the visit generating functions at z=1:
state 0 absorbs every arrival, an active barrier absorbs each arrival with
probability s, so

    P(absorb at 0)    = M(0, z=1)
    P(absorb at k*i0) = s * M(k*i0, z=1)

Mean times are *killed* expectations E[T * 1{absorbed at Y}]; the overall
mean is their sum.  Per-barrier times for asymmetric walks follow from
differentiating the generating functions at z=1 (stake-symmetric walks have
a repeated step root there and are served by the oracle instead).  The s=0
and s=1 limit cases use their own closed forms.

Two closed forms in this module deliberately differ from easy-to-derive
variants that fail oracle verification; see FORMULA_ERRATA.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import charpoly as cp
from . import mgf
from .core import (
    AbsorptionNotCertainError,
    ParameterError,
    Strategy,
    UnsupportedRegimeError,
    WalkParams,
)


@dataclass(frozen=True)
class AbsorptionProfile:
    """Where the walk is absorbed: ruin mass p0, barrier masses pk, tail bound."""

    p0: float
    pk: dict[int, float]
    tail_bound: float

    def probability(self, k: int) -> float:
        return self.p0 if k == 0 else self.pk.get(k, 0.0)

    @property
    def total(self) -> float:
        return self.p0 + sum(self.pk.values())


@dataclass(frozen=True)
class TimeProfile:
    """Killed expected times per absorption site and their total."""

    m_total: float
    et: dict[int, float]
    tail_bound: float

    def killed_time(self, k: int) -> float:
        return self.et.get(k, 0.0)


def _phi(params: WalkParams, z: float = 1.0) -> cp.PhiPair:
    return cp.phi_roots(cp.theta(z, params))


# ---------------------------------------------------------------------------
# absorption probabilities


def absorption_profile(
    params: WalkParams, strategy: Strategy, kmax: int = 64
) -> AbsorptionProfile:
    """Distribution of the absorption site over {0} and the barriers k*i0.

    For 0 < s < 1 the barrier masses decay geometrically with ratio phi2;
    ``tail_bound`` bounds the mass sitting beyond ``kmax``.  For s=0 only
    ruin can absorb (mass escapes upward when the drift ratio exceeds 1);
    for s=1 all mass sits on {0, i0, 2*i0}.
    """
    if kmax < 1:
        raise ParameterError(f"kmax must be >= 1, got {kmax}")
    strategy = Strategy(strategy)
    s = params.s
    if s == 0.0:
        p0 = 1.0 if params.omega <= 1.0 else 1.0 / params.omega_pow
        return AbsorptionProfile(p0=p0, pk={}, tail_bound=0.0)
    if s == 1.0:
        return _absorption_s1(params, strategy)

    fn = {Strategy.A: mgf.mgf_a, Strategy.B: mgf.mgf_b, Strategy.C: mgf.mgf_c}[strategy]
    values = fn(params, 1.0, range(kmax + 1))
    p0 = values[0]
    pk: dict[int, float] = {}
    for k in range(1, kmax + 1):
        stop = 0.0 if (strategy is Strategy.C and k == 1) else s
        pk[k] = stop * values[k]
    phi2 = _phi(params).phi2
    tail = pk[kmax] * phi2 / (1.0 - phi2)
    return AbsorptionProfile(p0=p0, pk=pk, tail_bound=tail)


def _absorption_s1(params: WalkParams, strategy: Strategy) -> AbsorptionProfile:
    if strategy is Strategy.A:
        return AbsorptionProfile(p0=0.0, pk={1: 1.0}, tail_bound=0.0)
    if strategy is Strategy.B:
        q = params.q
        v0 = mgf.mgf_b_s1(params, 1.0, 1, 0)
        v_mid_lo = mgf.mgf_b_s1(params, 1.0, 1, params.i0)
        v_mid_hi = mgf.mgf_b_s1(params, 1.0, 2, 0)
        v_top = mgf.mgf_b_s1(params, 1.0, 2, params.i0)
        return AbsorptionProfile(
            p0=q * v0,
            pk={1: q * v_mid_lo + params.p * v_mid_hi, 2: params.p * v_top},
            tail_bound=0.0,
        )
    wi = params.omega_pow
    return AbsorptionProfile(
        p0=1.0 / (1.0 + wi), pk={1: 0.0, 2: wi / (1.0 + wi)}, tail_bound=0.0
    )


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
    phi2 = _phi(params).phi2
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
    s, i0 = params.s, params.i0
    if s == 0.0:
        if params.omega > 1.0:
            raise AbsorptionNotCertainError(
                "s=0 with upward drift: absorption is not almost sure; "
                "ask for the killed time at ruin (barrier 0) instead"
            )
        if params.symmetric:
            return math.inf
        return i0 / (params.q - params.p)
    if s == 1.0:
        if strategy is Strategy.A:
            return 0.0
        if strategy is Strategy.B:
            return float(i0)
        if params.symmetric:
            return float(i0 * i0)
        wi = params.omega_pow
        return i0 * (1.0 - wi) / ((params.q - params.p) * (1.0 + wi))
    return _mean_time_interior(params, strategy, _phi(params))


def _mean_time_interior(params: WalkParams, strategy: Strategy, phi: cp.PhiPair) -> float:
    """:func:`mean_time_any` for 0 < s < 1, from the barrier roots at z=1."""
    s, i0 = params.s, params.i0
    inv_phi1 = 1.0 / phi.phi1
    m_a = i0 * (1.0 - s) / s * (1.0 - inv_phi1)
    if strategy is Strategy.A:
        return m_a
    if strategy is Strategy.B:
        return m_a / (1.0 - s)
    if params.symmetric:
        return i0 * (2.0 * i0 + (1.0 - s) / s * (1.0 - phi.phi2)) / (2.0 - phi.phi2)
    wi_inv = 1.0 / params.omega_pow
    num = (1.0 - s) / s * (1.0 - inv_phi1) + (1.0 - wi_inv) / (params.p - params.q)
    return i0 * num / (1.0 + wi_inv - inv_phi1)


def _ruin_killed_time_s0(params: WalkParams) -> float:
    if params.symmetric:
        return math.inf
    if params.omega < 1.0:
        return params.i0 / (params.q - params.p)
    # killed by the escape event: conditioned on ruin the drift flips
    return params.i0 / ((params.p - params.q) * params.omega_pow)


def _b_s1_killed_times(params: WalkParams) -> dict[int, float]:
    i0 = params.i0
    if params.symmetric:
        edge = (i0 * i0 + 2.0) / (6.0 * i0)
        return {0: edge, 1: 2.0 * (i0 * i0 - 1.0) / (3.0 * i0), 2: edge}
    p, q = params.p, params.q
    w, wi = params.omega, params.omega_pow
    profile = _absorption_s1(params, Strategy.B)
    core = 1.0 / ((q - p) * (wi - 1.0)) + i0 * (wi + 1.0) / (wi - 1.0) ** 2
    et0 = core + profile.p0
    et2 = wi * core + profile.pk[2]
    et1 = (
        -(
            2.0 * p * (w ** (i0 - 1) + 1.0) / ((q - p) * (wi - 1.0))
            + 4.0 * i0 * wi / (wi - 1.0) ** 2
        )
        + profile.pk[1]
    )
    return {0: et0, 1: et1, 2: et2}


def _c_s1_killed_times(params: WalkParams) -> dict[int, float]:
    i0 = params.i0
    if params.symmetric:
        half = i0 * i0 / 2.0
        return {0: half, 1: 0.0, 2: half}
    wi = params.omega_pow
    base = i0 * (1.0 - wi) / ((params.q - params.p) * (1.0 + wi) ** 2)
    return {0: base, 1: 0.0, 2: wi * base}


def mean_time_at(params: WalkParams, strategy: Strategy, k: int) -> float:
    """Killed expected time for absorption exactly at barrier k*i0 (k=0: ruin).

    Assembled from the z-derivative of the generating function at z=1,
    which exists only for asymmetric walks when 0 < s < 1; the symmetric
    case is served by the oracle's exact solver.
    """
    if k < 0:
        raise ParameterError(f"barrier index must be >= 0, got {k}")
    strategy = Strategy(strategy)
    s = params.s
    if s == 0.0:
        return _ruin_killed_time_s0(params) if k == 0 else 0.0
    if s == 1.0:
        if strategy is Strategy.A:
            return 0.0
        table = (
            _b_s1_killed_times(params)
            if strategy is Strategy.B
            else _c_s1_killed_times(params)
        )
        return table.get(k, 0.0)
    if params.symmetric:
        raise UnsupportedRegimeError(
            "per-barrier times have no closed form for the driftless walk; "
            "use oracle.solve_exact"
        )
    return _killed_times(params, strategy, k, k, _phi(params))[k]


def _killed_times(
    params: WalkParams, strategy: Strategy, kmin: int, kmax: int, phi: cp.PhiPair
) -> dict[int, float]:
    """Derivative assembly of killed times for barriers kmin..kmax, 0 < s < 1.

    ``phi`` is the pair of barrier roots at z=1, ``_phi(params)``.
    """
    p, q, s, i0 = params.p, params.q, params.s, params.i0
    roots = cp.tau_roots(1.0, params)
    der = cp.derivatives_at_1(params)
    t1, t2 = roots.tau1, roots.tau2
    g1, gi = t2 - t1, t2 ** i0 - t1 ** i0
    s1, si = t1 + t2, t1 ** i0 + t2 ** i0
    dg1 = der.h1 * s1
    dgi = i0 * der.h1 * si
    dsi = i0 * der.h1 * gi
    wpow = params.omega_pow
    # logarithmic derivative shared by every barrier form: g_i0, 1/z, 1/g_1
    log_common = dgi / gi - 1.0 - dg1 / g1
    phi_rate = der.dphi2 / phi.phi2

    ks = range(kmin, kmax + 1)
    out: dict[int, float] = {}
    if strategy in (Strategy.A, Strategy.B):
        for k, u in zip(ks, mgf.mgf_a(params, 1.0, ks)):
            if k == 0:
                val = der.dphi2 / wpow
            else:
                val = s * u * (log_common + k * phi_rate)
            out[k] = val / (1.0 - s) if strategy is Strategy.B else val
        return out

    pole_rate = (dsi - der.dphi2) / (si - phi.phi2)
    for k, wk in zip(ks, mgf.mgf_c(params, 1.0, ks)):
        if k == 0:
            out[k] = wk * wk * (der.dphi2 - dsi)
        elif k == 1:
            out[k] = 0.0
        else:
            out[k] = s * wk * (log_common + (k - 1) * phi_rate - pole_rate)
    return out


def time_profile(params: WalkParams, strategy: Strategy, kmax: int = 64) -> TimeProfile:
    """Killed times for barriers 0..kmax plus the total mean.

    ``tail_bound`` bounds the killed time sitting beyond ``kmax``: barrier
    terms decay like ``k * phi2**k``, so successive ratios are at most
    ``max(phi2, ratio at kmax)`` once the linear factor's growth is
    accounted for.
    """
    if kmax < 2:
        raise ParameterError(f"kmax must be >= 2, got {kmax}")
    strategy = Strategy(strategy)
    s = params.s
    if s == 0.0:
        return TimeProfile(
            m_total=mean_time_any_or_inf(params, strategy),
            et={0: _ruin_killed_time_s0(params)},
            tail_bound=0.0,
        )
    if s == 1.0:
        if strategy is Strategy.A:
            return TimeProfile(m_total=0.0, et={1: 0.0}, tail_bound=0.0)
        table = (
            _b_s1_killed_times(params)
            if strategy is Strategy.B
            else _c_s1_killed_times(params)
        )
        return TimeProfile(
            m_total=mean_time_any_or_inf(params, strategy), et=table, tail_bound=0.0
        )
    if params.symmetric:
        raise UnsupportedRegimeError(
            "per-barrier times have no closed form for the driftless walk; "
            "use oracle.solve_exact"
        )
    phi = _phi(params)  # one solve serves the total, every barrier and the tail
    m_total = _mean_time_interior(params, strategy, phi)
    et = _killed_times(params, strategy, 0, kmax, phi)
    phi2 = phi.phi2
    last, prev = et[kmax], et[kmax - 1]
    ratio = phi2
    if prev > 0.0 and last > 0.0:
        ratio = max(phi2, last / prev)
    tail = last * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    return TimeProfile(m_total=m_total, et=et, tail_bound=tail)


def mean_time_any_or_inf(params: WalkParams, strategy: Strategy) -> float:
    """Like :func:`mean_time_any` but maps the escaping s=0 case to its killed value."""
    try:
        return mean_time_any(params, strategy)
    except AbsorptionNotCertainError:
        return _ruin_killed_time_s0(params)
