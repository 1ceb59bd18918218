"""Independent ground truth: Monte Carlo, exact linear solves, mass propagation.

Nothing in this module uses the closed forms from :mod:`ruinwalk.charpoly`,
:mod:`ruinwalk.mgf` or :mod:`ruinwalk.metrics`; it knows only the walk
dynamics.  Three layers:

* :func:`solve_exact` conditions on the first transition out of every state
  to get tridiagonal systems for barrier masses and killed times.  Above
  the first stopping barrier the lattice is periodic, so squaring one
  period's ratio maps gives the tail an exact boundary condition: a short
  head is solved (with this module's :func:`solve_banded`, no scipy) and
  every barrier past it follows geometrically.
* :func:`mgf_dp` propagates the surviving probability mass step by step and
  accumulates the visit generating function directly from its definition.
* :func:`simulate` runs seeded Monte Carlo trials with a counter-based
  per-trial random stream, so results are bit-identical for any chunking or
  worker count.

Only the last two layers use numpy; they import it (and :mod:`ruinwalk.rng`)
when they run, so the exact solver, and every command that needs nothing
else, starts without loading numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ParameterError, Strategy, WalkParams

_CHUNK = 1 << 16


class ConvergenceError(RuntimeError):
    """An oracle could not resolve its answer to working precision."""


# ---------------------------------------------------------------------------
# exact first-step solver


@dataclass(frozen=True)
class ExactSolution:
    """Absorption profile and killed time profile from the exact solver.

    ``pk``/``et`` run to ``truncation_k - 1``: the head's barriers, then the
    tail's to the first with mass and time below ``tol * 1e-6`` (at most
    2**16).  :meth:`probability`/:meth:`killed_time` answer every k: barrier
    ``k_cut + m`` has ``mass * rho**m`` and ``time * rho**m + m * mass *
    rho**(m-1) * drho`` from ``tail = (k_cut, mass, time, rho, drho)``.
    """

    truncation_k: int
    p0: float
    pk: dict[int, float]
    et: dict[int, float]
    m_total: float
    escape_mass: float
    error_estimate: float  # bound on the error of the tail's fixed point
    method: str = "transfer"
    squarings: int = 0  # of the period matrix; each doubles the periods spanned
    fixed_point_residual: float = 0.0
    tail: tuple[int, float, float, float, float] = (0, 0.0, 0.0, 0.0, 0.0)

    def probability(self, k: int) -> float:
        if k == 0:
            return self.p0
        return self.pk.get(k, 0.0) if k < self.truncation_k else _tail_value(self.tail, k)[0]

    def killed_time(self, k: int) -> float:
        return self.et.get(k, 0.0) if k < self.truncation_k else _tail_value(self.tail, k)[1]


def _tail_value(tail: tuple, k: int) -> tuple[float, float]:
    k_cut, mass, time, rho, drho = tail
    m = k - k_cut
    grow = rho ** (m - 1)
    return mass * grow * rho, time * grow * rho + m * mass * grow * drho


def _steady_barrier_mask(strategy: Strategy, n_states: int, i0: int) -> list[bool]:
    """Active-barrier mask over states 0..n_states-1 for times t > 0."""
    low = Strategy(strategy).first_barrier_multiple * i0
    return [j % i0 == 0 and j >= low for j in range(n_states)]


def _factor_tridiagonal(sub: list[float], diag: list[float], sup: list[float]) -> tuple:
    """Eliminate a tridiagonal matrix without pivoting, for :func:`solve_banded`.

    ``diag`` holds the n diagonal entries, ``sub[j]`` the entry at row j+1,
    column j and ``sup[j]`` the one at row j, column j+1 (n-1 each).
    Pivoting is not needed when the matrix is diagonally dominant by
    columns (Golub & Van Loan, *Matrix Computations*, §4.3).  Returns the
    multipliers, the reciprocal pivots and ``sup``.
    """
    piv = diag[0]
    mult = [0.0]
    inv_piv = [1.0 / piv]
    for below, d, above in zip(sub, diag[1:], sup):
        m = below / piv
        piv = d - m * above
        mult.append(m)
        inv_piv.append(1.0 / piv)
    return mult, inv_piv, sup


def solve_banded(factors: tuple, rhs: list[float]) -> list[float]:
    """Solve a factored tridiagonal system: one forward and one back substitution.

    ``factors`` comes from :func:`_factor_tridiagonal`.  Works on lists of
    Python floats in O(n) time and memory.
    """
    mult, inv_piv, sup = factors
    y = 0.0
    fwd = []
    for m, b in zip(mult, rhs):
        y = b - m * y
        fwd.append(y)
    x = fwd[-1] * inv_piv[-1]
    out = [x]
    for y, r, above in zip(reversed(fwd[:-1]), reversed(inv_piv[:-1]), reversed(sup)):
        x = (y - above * x) * r
        out.append(x)
    out.reverse()
    return out


def _head_profile(
    params: WalkParams, strategy: Strategy, n: int, kmax: int, r: float = 0.0, dr: float = 0.0
) -> tuple[dict[int, float], dict[int, float]]:
    """Barrier masses and killed times for k = 0..kmax from states 1..n.

    Unknowns are values per *presence* at a state: tridiagonal systems with
    row weights alpha = 1-s on barriers; A's stop at t=0 and B's inactive
    start barrier live only in the start functional ``c``.  Each answer is
    ``c`` applied to a column whose right-hand side has one nonzero ``R_y``
    (s in row y, alpha_1*q in row 1 for ruin), so ``A^T w = c`` (w: presences)
    gives every mass ``w[y] * R_y`` and ``A^T u = v``,
    ``v = (p S+ + q S-)^T D_alpha w`` (u = dw/dz at z=1), every killed time
    ``u[y] * R_y``.  State n+1 closes the system by ``w(n+1) = r w(n)``
    (``dr = dr/dz``; r = 0 is a sink), so no start mass may lie past n.
    """
    p, q, s, i0 = params.p, params.q, params.s, params.i0
    strategy = Strategy(strategy)
    stop = [s if b else 0.0 for b in _steady_barrier_mask(strategy, n + 2, i0)]
    alpha = [1.0 - x for x in stop]  # row weights over states 0..n+1
    diag = [1.0] * n
    diag[-1] -= q * alpha[n + 1] * r
    factors = _factor_tridiagonal(  # A^T: A has -alpha*p above and -alpha*q below
        [-p * a for a in alpha[1:n]], diag, [-q * a for a in alpha[2 : n + 1]]
    )
    c = [0.0] * (n + 2)  # the start-state functional over states 0..n+1
    if strategy is Strategy.C:
        c[i0] = 1.0
    else:
        step = 1.0 - s if strategy is Strategy.A else 1.0
        c[i0 + 1] = step * p
        c[i0 - 1] = step * q
    w = [0.0, *solve_banded(factors, c[1 : n + 1])]
    w.append(r * w[n])
    aw = [a * x for a, x in zip(alpha, w)]
    v = [p * below + q * above for below, above in zip(aw, aw[2:])]  # states 1..n
    v[-1] += q * alpha[n + 1] * dr * w[n]
    u = [0.0, *solve_banded(factors, v)]

    # c^T h and c^T t per target; state 0's h = 1 adds c[0] and, via t's
    # right-hand side, q * alpha_1 * w_1
    ruin_row = q * alpha[1]
    mass = {0: ruin_row * w[1] + c[0]}
    killed = {0: ruin_row * (u[1] + w[1])}
    for k in range(1, kmax + 1):
        mass[k] = stop[k * i0] * w[k * i0]
        killed[k] = stop[k * i0] * u[k * i0]
    if strategy is not Strategy.C:  # the first step is taken before anything else
        for k in killed:
            killed[k] += mass[k]
    if strategy is Strategy.A:
        mass[1] += s  # stopped at the start, at time 0
    return mass, killed


def _solve_truncated(params: WalkParams, strategy: Strategy, trunc_k: int) -> dict:
    """The first-step systems on a lattice cut at trunc_k * i0 by a sink.

    The reference for :func:`solve_exact`; the sink's mass is the escape.
    """
    mass, killed = _head_profile(params, strategy, trunc_k * params.i0 - 1, trunc_k - 1)
    return {
        "p0": mass[0],
        "m_total": sum(killed.values()),
        "pk": {k: mass[k] for k in range(1, trunc_k)},
        "et": killed,
        "escape": max(0.0, 1.0 - sum(mass.values())),
    }


def _rescaled(a: float, b: float, c: float, d: float) -> tuple[float, float, float, float]:
    """Scale a 2x2 matrix by a power of two (exactly) so its largest entry is below 1."""
    e = -math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1]
    return math.ldexp(a, e), math.ldexp(b, e), math.ldexp(c, e), math.ldexp(d, e)


def _tail_fixed_point(
    p: float, q: float, stop: list[float], cut: int, i0: int
) -> tuple[float, int] | None:
    """The tail's e* = 1 - r* and the squarings taken; None if it is double.

    The ratio ``r(x) = w(x+1)/w(x)`` obeys ``r(x) = p a(x) / (1 - qa r(x+1))``
    (``a = 1 - stop``, ``qa = q a(x+2)``); in ``e = 1 - r`` its matrix,
    ``[[qa, p stop(x) + q stop(x+2)], [qa, p + q stop(x+2)]]``, is
    non-negative, so products and squares lose no digits as r nears 1.
    T, one period's product (rescaled per factor), maps e(cut+i0) to
    e(cut); ``T^(2^n)`` brings a sink (e = 1) from 2^n periods up
    (Latouche & Ramaswami's logarithmic reduction), nearing e* like
    ``kappa^(2^n)``, kappa T's eigenvalue ratio.  A double fixed point
    without stops (the driftless walk) gives None; other inseparable
    ones raise ``ConvergenceError``.
    """
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for x in range(cut, cut + i0):
        qa = q * (1.0 - stop[x + 2])
        lo, hi = p * stop[x] + q * stop[x + 2], p + q * stop[x + 2]
        a, b, c, d = _rescaled((a + b) * qa, a * lo + b * hi, (c + d) * qa, c * lo + d * hi)
    disc = (d - a) ** 2 + 4.0 * b * c
    if disc == 0.0 and not any(stop):
        return None
    trace, root = a + d, math.sqrt(disc)
    kappa = (trace - root) / (trace + root)
    if not kappa < 1.0:
        raise ConvergenceError(f"the period map's eigenvalues do not separate (ratio {kappa!r})")
    squarings = 0
    while kappa > 1e-32:  # below rounding squared; about 60 times at most for kappa < 1
        bc = b * c
        a, b, c, d = _rescaled(a * a + bc, trace * b, trace * c, d * d + bc)
        trace, kappa, squarings = a + d, kappa * kappa, squarings + 1
    return (a + b) / (c + d), squarings


def _period_pass(
    p: float, q: float, stop: list[float], cut: int, i0: int, e: float
) -> tuple[float, float, float, float, float, float, float]:
    """One period of ratio maps on dual numbers (value, d/dz at z = 1).

    Walks down from e(cut+i0) = e* to cut, carrying each derivative as
    ``da + db * dr*/dz``; r*'s own ``dr*/dz = da + db * dr*/dz`` solves for
    it.  Returns r(cut), e(cut), dr*/dz, 1 - db, ``rho = w(cut+i0)/w(cut)``,
    1 - rho and drho/dz; the "1 -" figures keep their digits near zero.
    """
    log_db, log_rho, rho = 0.0, 0.0, 1.0
    da, db, rho_a, rho_b = 0.0, 1.0, 0.0, 0.0
    for x in range(cut + i0 - 1, cut - 1, -1):
        sx, s2 = stop[x], stop[x + 2]
        qa = q * (1.0 - s2)
        den = qa * e + p + q * s2  # 1 - qa * r(x+1)
        r = p * (1.0 - sx) / den  # z p a / (1 - z qa r(x+1; z)) at z = 1
        g = r * qa / den  # dr(x)/dr(x+1), so dr(x)/dz = r (1 + qa r(x+1) / den) + g dr(x+1)/dz
        da, db = r * (1.0 + qa * (1.0 - e) / den) + g * da, g * db
        # 1 - g = (den^2 - p a qa) / den^2, with p - q kept whole
        slack = (den + p) * (qa * e + q * s2) + p * (p - q + q * (sx + s2 - sx * s2))
        log_db += math.log1p(-slack / (den * den)) if slack < den * den else -math.inf
        e = (qa * e + p * sx + q * s2) / den
        log_rho += math.log1p(-e) if e < 1.0 else -math.inf
        rho, rho_a, rho_b = rho * r, rho_a * r + rho * da, rho_b * r + rho * db
    db_gap = -math.expm1(log_db)
    d_fixed = da / db_gap
    return r, e, d_fixed, db_gap, rho, -math.expm1(log_rho), rho_a + rho_b * d_fixed


def solve_exact(
    params: WalkParams,
    strategy: Strategy,
    tol: float = 1e-10,
) -> ExactSolution:
    """First-step-analysis solution on the untruncated lattice.

    From ``cut = (first barrier multiple + 1) * i0`` up, the presence counts
    obey a homogeneous recurrence with period i0.  Its minimal solution (a
    sink infinitely far up) closes the head, states 1..cut, by
    ``w(cut+1) = r* w(cut)``, r* the attracting fixed point of one period's
    ratio maps; barrier ``cut/i0 + m`` then has ``rho**m`` times the cut's
    values.  Times come from dual numbers through the same steps.  With no
    stops and no drift (s = 0, p = q) ruin is certain after an infinite
    mean time, reported without iterating.  ``tol`` sets how far ``pk``/``et``
    reach.
    """
    if tol <= 0:
        raise ParameterError(f"tol must be > 0, got {tol}")
    strategy = Strategy(strategy)
    p, q, s, i0 = params.p, params.q, params.s, params.i0
    k_cut = strategy.first_barrier_multiple + 1
    cut = k_cut * i0
    stop = [s if b else 0.0 for b in _steady_barrier_mask(strategy, cut + i0 + 2, i0)]
    if (found := _tail_fixed_point(p, q, stop, cut, i0)) is None:  # certain ruin, in infinite time
        return ExactSolution(1, 1.0, {}, {0: math.inf}, math.inf, 0.0, 0.0)
    fixed, squarings = found
    r_cut, e_cut, dr_cut, f_gap, rho, gap, drho = _period_pass(p, q, stop, cut, i0, fixed)
    mass, killed = _head_profile(params, strategy, cut, k_cut, r_cut, dr_cut)
    tail = (k_cut, mass[k_cut], killed[k_cut], rho, drho)
    m_total, escape = sum(killed.values()), 1.0 - sum(mass.values())
    if tail[1] or tail[2]:  # barriers past the cut, summed (rho is 1 only without stops)
        m_total += tail[2] * rho / gap + tail[1] * drho / (gap * gap)
        escape -= tail[1] * rho / gap
    for k in range(k_cut + 1, k_cut + (1 << 16) + 1):
        mass[k], killed[k] = _tail_value(tail, k)
        if max(mass[k], killed[k]) < tol * 1e-6:
            break
    residual = abs(e_cut - fixed)
    return ExactSolution(
        truncation_k=k + 1,
        p0=mass.pop(0),
        pk=mass,
        et=killed,
        m_total=m_total,
        escape_mass=max(0.0, escape),
        error_estimate=residual / f_gap,
        squarings=squarings,
        fixed_point_residual=residual,
        tail=tail,
    )


# ---------------------------------------------------------------------------
# step-by-step generating-function evaluation


def mgf_dp(
    params: WalkParams,
    strategy: Strategy,
    z: float,
    state: int,
    tol: float = 1e-10,
) -> float:
    """Visit generating function evaluated by propagating surviving mass.

    Needs ``0 < z < 1`` strictly: the remaining-tail bound
    ``z**m * alive / (1 - z)`` is what terminates the sum.  Values at z=1
    come from :func:`solve_exact` instead.  For strategy B the m=0 presence
    at the start state is excluded, matching the delayed-barrier bookkeeping
    of the closed forms.
    """
    if not 0.0 < z < 1.0:
        raise ParameterError(f"mass propagation needs 0 < z < 1, got z={z}")
    if state < 0:
        raise ParameterError(f"state must be >= 0, got {state}")
    strategy = Strategy(strategy)
    i0 = params.i0
    trunc_k = max(8, 2 * (state // i0 + 2))
    prev = None
    while trunc_k <= 1 << 20:
        value = _dp_once(params, strategy, z, state, trunc_k, tol / 4.0)
        if prev is not None and abs(value - prev) < tol:
            if strategy is Strategy.B and state == i0:
                value -= 1.0
            return value
        prev = value
        trunc_k *= 2
    raise ConvergenceError("lattice doubling did not stabilize the generating function")


def _dp_once(
    params: WalkParams,
    strategy: Strategy,
    z: float,
    state: int,
    trunc_k: int,
    tail_tol: float,
) -> float:
    import numpy as np

    p, q, s, i0 = params.p, params.q, params.s, params.i0
    top = trunc_k * i0
    stop_steady = np.zeros(top, dtype=float)
    stop_steady[np.array(_steady_barrier_mask(strategy, top, i0))] = s
    stop_steady[0] = 1.0
    stop_t0 = stop_steady.copy()
    if strategy is not Strategy.A:
        stop_t0[i0] = 0.0

    w = np.zeros(top)  # index 0..top-1; mass reaching `top` escapes
    w[i0] = 1.0
    value = 0.0
    zpow = 1.0
    alive = 1.0
    m = 0
    max_terms = 5_000_000
    while zpow * alive / (1.0 - z) >= tail_tol:
        if m >= max_terms:
            raise ConvergenceError(
                f"propagation tail did not close within {max_terms} terms "
                f"(z={z} too close to 1 for tolerance {tail_tol})"
            )
        if state < top:
            value += zpow * w[state]
        surv = w * (1.0 - (stop_t0 if m == 0 else stop_steady))
        nxt = np.zeros_like(w)
        nxt[1:] += p * surv[:-1]
        nxt[:-1] += q * surv[1:]
        w = nxt
        alive = float(w.sum())
        zpow *= z
        m += 1
    return value


# ---------------------------------------------------------------------------
# Monte Carlo


@dataclass(frozen=True)
class SimResult:
    """Aggregated Monte Carlo outcome with enough sums for standard errors."""

    trials: int
    seed: int
    generator: tuple[tuple[str, object], ...]
    escaped: int
    trial_steps: int  # steps walked by all trials, escaped ones included
    absorption_counts: dict[int, int]
    time_sum_by_state: dict[int, float]
    time_sq_sum_by_state: dict[int, float]

    def probability(self, state: int) -> tuple[float, float]:
        """(estimate, standard error) of absorption exactly at ``state``."""
        n = self.trials
        est = self.absorption_counts.get(state, 0) / n
        se = math.sqrt(max(est * (1.0 - est), 0.0) / n)
        return est, se

    def killed_time(self, state: int) -> tuple[float, float]:
        """(estimate, standard error) of E[time * 1{absorbed at state}]."""
        n = self.trials
        mean = self.time_sum_by_state.get(state, 0.0) / n
        mean_sq = self.time_sq_sum_by_state.get(state, 0.0) / n
        var = max(mean_sq - mean * mean, 0.0)
        return mean, math.sqrt(var / n)

    @property
    def mean_time(self) -> float:
        return sum(self.time_sum_by_state.values()) / self.trials

    @property
    def mean_time_se(self) -> float:
        n = self.trials
        mean = self.mean_time
        mean_sq = sum(self.time_sq_sum_by_state.values()) / n
        return math.sqrt(max(mean_sq - mean * mean, 0.0) / n)


def _chunk_trials(
    params: WalkParams,
    strategy: Strategy,
    seed: int,
    lo: int,
    hi: int,
    max_steps: int,
) -> tuple[dict[int, int], dict[int, float], dict[int, float], int, int]:
    """Walk trials ``lo..hi-1``; returns the sums, the escapes and the steps walked."""
    import numpy as np

    from . import rng

    p, s, i0 = params.p, params.s, params.i0
    low_barrier = strategy.first_barrier_multiple * i0
    up_on_barrier = s + (1.0 - s) * p
    ids = np.arange(lo, hi, dtype=np.uint64)
    x = np.full(hi - lo, i0, dtype=np.int64)
    counts: dict[int, int] = {}
    tsum: dict[int, float] = {}
    tsq: dict[int, float] = {}
    steps = 0  # summed over finished trials

    def record(state: int, count: int, when: int) -> None:
        nonlocal steps
        steps += count * when
        counts[state] = counts.get(state, 0) + count
        tsum[state] = tsum.get(state, 0.0) + count * float(when)
        tsq[state] = tsq.get(state, 0.0) + count * float(when) ** 2

    t = 0
    while x.size and t < max_steps:
        if t % rng.LANES == 0:  # one Philox evaluation serves steps t .. t+3
            lanes = rng.block_uniforms(seed, ids, t // rng.LANES).T  # row j: step t + j
        u = rng.step_uniforms(seed, ids, t, lanes.T)
        on_barrier = (x % i0 == 0) & (x >= low_barrier)
        if strategy is Strategy.B and t == 0:
            on_barrier &= x != i0
        stopped = on_barrier & (u < s)
        moved = x + np.where(u < np.where(on_barrier, up_on_barrier, p), 1, -1)
        # a stopped trial drew u < s, below its up threshold, so it moved up
        # and is never also counted as ruined
        ruined = moved == 0
        done = stopped | ruined
        if done.any():
            per_state = np.bincount(x[stopped])
            for state in np.flatnonzero(per_state).tolist():
                record(state, int(per_state[state]), t)
            n_ruined = int(np.count_nonzero(ruined))
            if n_ruined:
                record(0, n_ruined, t + 1)
            keep = np.flatnonzero(~done)  # `take` beats boolean masks on 2-D arrays
            moved, ids, lanes = moved.take(keep), ids.take(keep), lanes.take(keep, axis=1)
        x = moved
        t += 1
    return counts, tsum, tsq, int(x.size), steps + int(x.size) * t


def simulate(
    params: WalkParams,
    strategy: Strategy,
    trials: int,
    seed: int,
    max_steps: int = 10_000_000,
    workers: int = 1,
) -> SimResult:
    """Monte Carlo estimate of the absorption profile and killed times.

    Trial ``t`` draws its uniforms from the counter-based stream
    ``(seed, t, step)``, one Philox block per four steps (see
    :mod:`ruinwalk.rng`), so the result is bit-identical for any chunking or
    ``workers`` value.  Trials still alive after ``max_steps`` are counted
    as escaped, never dropped silently.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if max_steps < 1:
        raise ParameterError(f"max_steps must be >= 1, got {max_steps}")
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    from concurrent.futures import ThreadPoolExecutor

    from . import rng

    strategy = Strategy(strategy)
    bounds = [(lo, min(lo + _CHUNK, trials)) for lo in range(0, trials, _CHUNK)]

    def run(b: tuple[int, int]):
        return _chunk_trials(params, strategy, seed, b[0], b[1], max_steps)

    if workers == 1 or len(bounds) == 1:
        partials = [run(b) for b in bounds]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(run, bounds))  # order matches `bounds`

    counts: dict[int, int] = {}
    tsum: dict[int, float] = {}
    tsq: dict[int, float] = {}
    escaped = 0
    trial_steps = 0
    for c, ts, t2, esc, walked in partials:
        escaped += esc
        trial_steps += walked
        for k in sorted(c):
            counts[k] = counts.get(k, 0) + c[k]
            tsum[k] = tsum.get(k, 0.0) + ts[k]
            tsq[k] = tsq.get(k, 0.0) + t2[k]
    key = rng.split_key(seed)
    return SimResult(
        trials=trials,
        seed=seed,
        generator=(
            ("name", rng.GENERATOR_NAME),
            ("key", key),
            ("counter_layout", "(step // 4, trial_lo32, trial_hi32, 0)"),
            ("output_lane", "step % 4"),
        ),
        escaped=escaped,
        trial_steps=trial_steps,
        absorption_counts=dict(sorted(counts.items())),
        time_sum_by_state=dict(sorted(tsum.items())),
        time_sq_sum_by_state=dict(sorted(tsq.items())),
    )
