"""Independent ground truth: Monte Carlo, exact linear solves, mass propagation.

Nothing in this module uses the closed forms from :mod:`ruinwalk.charpoly`,
:mod:`ruinwalk.mgf` or :mod:`ruinwalk.metrics`; it knows only the walk
dynamics, and reads which states stop, and whether the start does, from
:class:`ruinwalk.core.Strategy`.  Three layers:

* :func:`solve_exact` conditions on the first transition out of every state
  to get tridiagonal systems for barrier masses and killed times.  Above
  the first stopping barrier the lattice is periodic, so squaring one
  period's ratio maps gives the tail an exact boundary condition: a short
  head is solved (with this module's :func:`solve_banded`, no scipy) and
  every barrier past it follows geometrically.
* :func:`mgf_dp` propagates the surviving probability mass step by step and
  accumulates the visit generating function directly from its definition.
* :func:`simulate` runs seeded Monte Carlo trials on the raw words of a
  counter-based per-trial stream.  Each range of trials runs as one refilled
  batch and tallies exact integers, so results are bit-identical, by
  construction, for any range size, batch size or worker count.

Only the last two layers use numpy; they import it (and :mod:`ruinwalk.rng`)
when they run, so the exact solver, and every command that needs nothing
else, starts without loading numpy.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import ConvergenceError, ParameterError, Profile, Strategy, WalkParams

_RANGE = 1 << 19  # trials per stream at most: the unit a worker process walks, whatever `workers` is
_BATCH = 1 << 15  # live trials a stream holds at most
_TABLE = 1 << 12  # states whose barrier test is a table lookup; the rest take the modulo
# one period's ratio maps move a converged fixed point by rounding only
_MAX_RELATIVE_RESIDUAL = 1e-12


# ---------------------------------------------------------------------------
# exact first-step solver


class ExactSolution(NamedTuple):
    """Absorption profile and killed time profile from the exact solver.

    ``masses`` and ``times`` answer every k: their head runs to the cut's
    barrier, and their tail is geometric in one period's ratio ``rho``.
    ``pk``/``et`` list them to ``truncation_k - 1``, the first barrier past
    the head with mass and time below ``tol * 1e-6`` (at most 2**16).
    """

    truncation_k: int
    p0: float
    pk: dict[int, float]
    et: dict[int, float]
    m_total: float
    escape_mass: float
    error_estimate: float  # bound on the error of the tail's fixed point
    masses: Profile
    times: Profile
    squarings: int = 0  # of the period matrix; each doubles the periods spanned
    fixed_point_residual: float = 0.0


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
    row weights alpha = 1-s on barriers (``Strategy.is_barrier``).  The
    start functional ``c`` is the first step out of i0, survived with
    1 - s where the strategy stops at the start.  Each answer is
    ``c`` applied to a column whose right-hand side has one nonzero ``R_y``
    (s in row y, alpha_1*q in row 1 for ruin), so ``A^T w = c`` (w: presences)
    gives every mass ``w[y] * R_y`` and ``A^T u = v``,
    ``v = (p S+ + q S-)^T D_alpha w`` (u = dw/dz at z=1), every killed time
    ``u[y] * R_y``.  State n+1 closes the system by ``w(n+1) = r w(n)``
    (``dr = dr/dz``; r = 0 is a sink), so first-step mass past n is lost.
    """
    p, q, s, i0 = params.p, params.q, params.s, params.i0
    strategy = Strategy(strategy)
    stop = [s if strategy.is_barrier(j, i0) else 0.0 for j in range(n + 2)]
    start_stop = s if strategy.stops_at_start else 0.0
    alpha = [1.0 - x for x in stop]  # row weights over states 0..n+1
    diag = [1.0] * n
    diag[-1] -= q * alpha[n + 1] * r
    factors = _factor_tridiagonal(  # A^T: A has -alpha*p above and -alpha*q below
        [-p * a for a in alpha[1:n]], diag, [-q * a for a in alpha[2 : n + 1]]
    )
    c = [0.0] * (n + 2)  # the start-state functional over states 0..n+1
    c[i0 + 1] = (1.0 - start_stop) * p
    c[i0 - 1] = (1.0 - start_stop) * q
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
    for k in killed:  # the first step is taken before anything else
        killed[k] += mass[k]
    mass[1] += start_stop  # stopped at the start, at time 0
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


def _rescaled(a: float, b: float, c: float, d: float, det: float) -> tuple[float, ...]:
    """Scale a 2x2 matrix and its ``det`` by a power of two so its largest entry is below 1."""
    e = -math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1]
    return tuple(math.ldexp(x, e) for x in (a, b, c, d)) + (math.ldexp(det, 2 * e),)


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
    a, b, c, d, det = 1.0, 0.0, 0.0, 1.0, 1.0
    for x in range(cut, cut + i0):
        qa = q * (1.0 - stop[x + 2])
        lo, hi = p * stop[x] + q * stop[x + 2], p + q * stop[x + 2]
        # the factor's determinant qa * (hi - lo), without the subtraction
        det *= qa * p * (1.0 - stop[x])
        a, b, c, d, det = _rescaled((a + b) * qa, a * lo + b * hi, (c + d) * qa, c * lo + d * hi, det)
    disc = (d - a) ** 2 + 4.0 * b * c
    if disc == 0.0 and not any(stop):
        return None
    trace, root = a + d, math.sqrt(disc)
    kappa = 4.0 * det / (trace + root) ** 2  # = lambda2 / lambda1, with no cancellation
    if not kappa < 1.0:
        raise ConvergenceError(f"the period map's eigenvalues do not separate (ratio {kappa!r})")
    # e* = 1 - r* scales with s, so the iterate's error, about kappa, must
    # also fall below rounding relative to it; without stops e* is 0 for p > q
    relative = any(stop)
    squarings, e = 0, (a + b) / (c + d)
    while kappa > 1e-32 or (relative and kappa > 1e-16 * e):  # about 70 times at most
        bc = b * c
        a, b, c, d, det = _rescaled(a * a + bc, trace * b, trace * c, d * d + bc, det * det)
        trace, kappa, squarings = a + d, kappa * kappa, squarings + 1
        e = (a + b) / (c + d)
    return e, squarings


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
    if not 0.0 < tol < math.inf:
        raise ParameterError(f"tol must be finite and > 0, got {tol}")
    strategy = Strategy(strategy)
    p, q, s, i0 = params.p, params.q, params.s, params.i0
    k_cut = strategy.first_barrier_multiple + 1
    cut = k_cut * i0
    stop = [s if strategy.is_barrier(j, i0) else 0.0 for j in range(cut + i0 + 2)]
    if (found := _tail_fixed_point(p, q, stop, cut, i0)) is None:  # certain ruin, in infinite time
        return ExactSolution(
            1, 1.0, {}, {0: math.inf}, math.inf, 0.0, 0.0, Profile((1.0,)), Profile((math.inf,))
        )
    fixed, squarings = found
    r_cut, e_cut, dr_cut, f_gap, rho, gap, drho = _period_pass(p, q, stop, cut, i0, fixed)
    residual = abs(e_cut - fixed)
    if s and not residual <= _MAX_RELATIVE_RESIDUAL * fixed:  # e* > 0 once anything stops
        raise ConvergenceError(f"the tail's fixed point {fixed!r} moves {residual!r} in a period")
    if s and not gap * gap:  # the tail's time sum divides by it
        raise ConvergenceError(f"1 - rho = {gap!r} underflows when squared")
    mass, killed = _head_profile(params, strategy, cut, k_cut, r_cut, dr_cut)
    if not (mass[k_cut] or killed[k_cut]):  # nothing stops past the cut, where rho may be 1
        rho = 0.0
    masses = Profile(tuple(mass.values()), rho, gap)
    times = Profile(tuple(killed.values()), rho, gap, drho, mass[k_cut])
    for k in range(k_cut + 1, k_cut + (1 << 16) + 1):
        mass[k], killed[k] = masses.at(k), times.at(k)
        if max(mass[k], killed[k]) < tol * 1e-6:
            break
    return ExactSolution(
        truncation_k=k + 1,
        p0=mass.pop(0),
        pk=mass,
        et=killed,
        m_total=times.total,
        escape_mass=max(0.0, 1.0 - sum(masses.head) - masses.beyond(k_cut)),
        error_estimate=residual / f_gap,
        masses=masses,
        times=times,
        squarings=squarings,
        fixed_point_residual=residual,
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
    come from :func:`solve_exact` instead.  Where the start is a barrier
    at t > 0 that does not stop at t = 0 (strategy B), its m=0 presence is
    excluded, matching the delayed-barrier bookkeeping of the closed forms.
    """
    if not 0.0 < z < 1.0:
        raise ParameterError(f"mass propagation needs 0 < z < 1, got z={z}")
    if state < 0:
        raise ParameterError(f"state must be >= 0, got {state}")
    if not 0.0 < tol < math.inf:
        raise ParameterError(f"tol must be finite and > 0, got {tol}")
    strategy = Strategy(strategy)
    i0 = params.i0
    trunc_k = max(8, 2 * (state // i0 + 2))
    prev = None
    while trunc_k <= 1 << 20:
        value = _dp_once(params, strategy, z, state, trunc_k, tol / 4.0)
        if prev is not None and abs(value - prev) < tol:
            if state == i0 and strategy.is_barrier(i0, i0) and not strategy.stops_at_start:
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
    stop = np.where(strategy.is_barrier(np.arange(top), i0), s, 0.0)
    stop[0] = 1.0

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
        surv = w * (1.0 - stop)
        if m == 0:  # all mass is at i0, which stops at t = 0 only where the strategy says
            surv[i0] = 1.0 - (s if strategy.stops_at_start else 0.0)
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


class SimResult(NamedTuple):
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


def _add_events(
    tallies: dict[int, list[int]], states, times, exact_in_float: bool
) -> None:
    """Add events, each a state and an integer time, to ``tallies``.

    ``tallies`` maps a state to [count, sum of times, sum of squared times],
    exact integers.  ``exact_in_float`` says the states are small and every
    float sum of these times and their squares is exact, so per-state sums
    can come from ``bincount``; otherwise the events are added one by one.
    """
    import numpy as np

    if exact_in_float:
        ftimes = times.astype(float)
        n = np.bincount(states)
        sums = np.bincount(states, ftimes)
        squares = np.bincount(states, ftimes * ftimes)
        for state in np.flatnonzero(n).tolist():
            acc = tallies.setdefault(state, [0, 0, 0])
            acc[0] += int(n[state])
            acc[1] += int(sums[state])
            acc[2] += int(squares[state])
    else:
        for state, t in zip(states.tolist(), times.tolist()):
            acc = tallies.setdefault(state, [0, 0, 0])
            acc[0] += 1
            acc[1] += t
            acc[2] += t * t


def _word_below(x: float):
    """The test ``words * 2**-32 < x`` on uint32 words, exactly: ``words < ceil(x * 2**32)``.

    A bound of 2**32 always holds: ``words <= 2**32 - 1`` in uint32, as both
    operands are, so NEP 50 and numpy 1.x value-based casting agree.
    """
    import numpy as np

    bound = math.ceil(x * 2**32)
    top = np.uint32(min(bound, (1 << 32) - 1))
    return (lambda words: words <= top) if bound >> 32 else (lambda words: words < top)


def _range_trials(
    params: WalkParams,
    strategy: Strategy,
    seed: int,
    lo: int,
    hi: int,
    max_steps: int,
) -> tuple[dict[int, list[int]], int]:
    """Walk trials ``lo..hi-1`` as one stream; returns the tallies and the escapes.

    The stream holds at most ``_BATCH`` live trials.  Every fourth tick of
    its clock it drops the rows that ended and tops the batch up with the
    range's next trials, so a trial that joins at tick g takes its step t
    at tick g + t and every row's lane, ``t % 4``, is the tick's: one
    Philox call per four ticks serves the batch, each row at its own block
    index.  A trial's words depend only on (seed, trial, step), never on
    the batch it ran in, and each is tested as u = word * 2**-32 in integers
    (:func:`_word_below`).  The tallies are those of :func:`_add_events`.
    """
    import numpy as np

    from . import rng

    p, s, i0, lanes_n = params.p, params.s, params.i0, rng.LANES
    stops, ups_on_barrier, ups = map(_word_below, (s, s + (1.0 - s) * p, p))
    # states below _TABLE look up whether they are barriers and the rest
    # take the modulo, so the table's memory is fixed however far trials walk
    barrier_table = strategy.is_barrier(np.arange(_TABLE), i0)
    # a tick's float sums of times t <= tick + 1 are exact while _BATCH * t**2 < 2**53
    float_ticks = math.isqrt((1 << 53) // _BATCH) - 1
    x = np.empty(0, dtype=np.int64)
    ids = np.empty(0, dtype=np.uint64)
    joined = np.empty(0, dtype=np.int64)  # the block index at which each row joined
    alive = np.empty(0, dtype=bool)  # a row that ends stays, dead, until its block does
    tallies: dict[int, list[int]] = {}
    escaped, n_alive, nxt, tick, top = 0, 0, lo, 0, 0  # top bounds every row's state

    while True:
        lane = tick % lanes_n
        if n_alive and tick >= max_steps and (tick - max_steps) % lanes_n == 0:
            # rows joined in order, so those that have walked max_steps lead
            out = int(np.searchsorted(joined, (tick - max_steps) // lanes_n, side="right"))
            gone = int(np.count_nonzero(alive[:out]))
            escaped, n_alive = escaped + gone, n_alive - gone
            x, ids, joined, alive = x[out:], ids[out:], joined[out:], alive[out:]
            lanes = lanes[:, out:]
        if lane == 0:
            if n_alive < x.size:
                keep = np.flatnonzero(alive)
                x, ids, joined = x.take(keep), ids.take(keep), joined.take(keep)
            fresh = n_alive
            n_in = min(_BATCH - n_alive, hi - nxt)
            if n_in:
                x = np.concatenate((x, np.full(n_in, i0, dtype=np.int64)))
                ids = np.concatenate((ids, np.arange(nxt, nxt + n_in, dtype=np.uint64)))
                joined = np.concatenate((joined, np.full(n_in, tick // lanes_n, dtype=np.int64)))
                n_alive, nxt, top = n_alive + n_in, nxt + n_in, max(top, i0)
            if not n_alive:
                break
            alive = np.ones(n_alive, dtype=bool)
            # one Philox evaluation serves ticks tick .. tick+3
            lanes = rng.block_words(seed, ids, tick // lanes_n - joined).T
        elif not n_alive:
            tick += lanes_n - lane
            continue
        word = rng.step_uniforms(seed, ids, tick, lanes.T)  # every row's step is tick mod 4
        if top >= _TABLE:
            top = int(x.max())
        if top < _TABLE:
            on_barrier = barrier_table.take(x)  # dead rows may reach -3: it wraps, harmlessly
        else:
            on_barrier = strategy.is_barrier(x, i0)
        if lane == 0 and not strategy.stops_at_start:  # i0 stops no trial on its first step
            on_barrier[fresh:] = False
        stopped = stops(word)
        stopped &= on_barrier
        up = ups_on_barrier(word)
        up &= on_barrier
        up |= ups(word)
        step = up.view(np.int8) * np.int8(2)  # +1 up, -1 down, in one byte
        step -= np.int8(1)
        x += step
        # a stopped trial drew u < s, below its up threshold, so it moved up
        # and is never also counted as ruined
        done = x == 0
        done |= stopped
        done &= alive
        if done.any():
            ended = np.flatnonzero(done)
            was_stop = stopped.take(ended)
            # a stop at x after t steps (x one below where it moved), or ruin at 0 after t + 1
            states = (x.take(ended) - 1) * was_stop
            times = tick + 1 - lanes_n * joined.take(ended) - was_stop
            _add_events(tallies, states, times, tick < float_ticks and top < _TABLE)
            alive ^= done
            n_alive -= ended.size
        tick += 1
        top += 1
    return tallies, escaped


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
    :mod:`ruinwalk.rng`), and tests each word with integer thresholds.  The
    trials split into ``ceil(trials / _RANGE)`` ranges of equal size (to one
    trial), each walked as one stream by :func:`_range_trials`, round robin
    over up to ``workers`` processes (no more than ranges or usable CPUs):
    this one walks the first share and forks a child per other share
    (:func:`ruinwalk.parallel.run_shares`).  The tallies are exact integers until the sums become floats here, so
    the result is bit-identical for any ``workers`` value, range size or
    batch size.  Trials still alive after ``max_steps`` are counted as
    escaped, never dropped silently.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if max_steps < 1:
        raise ParameterError(f"max_steps must be >= 1, got {max_steps}")
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    from . import parallel, rng

    strategy = Strategy(strategy)
    n_ranges = -(-trials // _RANGE)
    bounds = [(trials * i // n_ranges, trials * (i + 1) // n_ranges) for i in range(n_ranges)]
    n_shares = min(workers, len(bounds), parallel.usable_cpus())
    shares = [bounds[i::n_shares] for i in range(n_shares)]  # round robin; the first is ours

    def walk(share: list[tuple[int, int]]) -> list:
        return [_range_trials(params, strategy, seed, lo, hi, max_steps) for lo, hi in share]

    partials = [part for done in parallel.run_shares(walk, shares, "Monte Carlo") for part in done]

    totals: dict[int, list[int]] = {}
    for tallies, _ in partials:
        for state, acc in tallies.items():
            totals[state] = [a + b for a, b in zip(totals.get(state, (0, 0, 0)), acc)]
    totals = dict(sorted(totals.items()))
    escaped = sum(esc for _, esc in partials)
    return SimResult(
        trials=trials,
        seed=seed,
        generator=(
            ("name", rng.GENERATOR_NAME),
            ("key", rng.split_key(seed)),
            ("counter_layout", "(step // 4, trial_lo32, trial_hi32, 0)"),
            ("output_lane", "step % 4"),
        ),
        escaped=escaped,
        trial_steps=sum(t[1] for t in totals.values()) + escaped * max_steps,
        absorption_counts={k: t[0] for k, t in totals.items()},
        time_sum_by_state={k: float(t[1]) for k, t in totals.items()},
        time_sq_sum_by_state={k: float(t[2]) for k, t in totals.items()},
    )
