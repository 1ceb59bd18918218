"""Independent ground truth: Monte Carlo, exact linear solves, mass propagation.

Nothing in this module uses the closed forms from :mod:`ruinwalk.charpoly`,
:mod:`ruinwalk.mgf` or :mod:`ruinwalk.metrics`; it knows only the walk
dynamics.  Three layers:

* :func:`solve_exact` conditions on the first transition out of every state
  to get tridiagonal systems for per-barrier absorption probabilities and
  killed expected times on a truncated lattice, then doubles the truncation
  until the answers stabilize (with Aitken acceleration for the slowly
  converging no-barrier cases).  Each truncation takes two single-column
  solves of the transposed system, one for the masses and one for the
  times, in Python floats with O(states) time and memory; the tridiagonal
  solver is this module's own (:func:`solve_banded`), so nothing here
  needs scipy.
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
    """The truncation-doubling loop failed to stabilize."""


# ---------------------------------------------------------------------------
# exact first-step solver


@dataclass(frozen=True)
class ExactSolution:
    """Absorption profile and killed time profile from the truncated solver."""

    truncation_k: int
    p0: float
    pk: dict[int, float]
    et: dict[int, float]
    m_total: float
    escape_mass: float
    error_estimate: float
    method: str = "doubling"  # or "aitken": extrapolated over three truncations

    def probability(self, k: int) -> float:
        return self.p0 if k == 0 else self.pk.get(k, 0.0)

    def killed_time(self, k: int) -> float:
        return self.et.get(k, 0.0)


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


def _solve_truncated(params: WalkParams, strategy: Strategy, trunc_k: int) -> dict:
    """Solve the first-step systems with the lattice cut at trunc_k * i0.

    The top state acts as an artificial sink (its absorption mass is the
    escape estimate).  Unknowns are values per *presence* at a state: at a
    barrier the walker is absorbed with probability s and otherwise steps,
    which makes the systems tridiagonal with row weights 1-s on barrier
    rows.  Strategy A's stop decision at t=0 and strategy B's inactive
    start barrier live only in the start-state functional ``c``, not in the
    matrix ``A``.

    Every answer is ``c`` applied to a solution column, and the right-hand
    side of target y has one nonzero, ``R_y`` (s in row y, or alpha_1*q in
    row 1 for ruin), so the adjoint systems give all targets at once:
    ``A^T w = c`` yields the masses ``w[y] * R_y``, and ``A^T u = v`` with
    ``v = (p S+ + q S-)^T D_alpha w`` yields the killed times ``u[y] * R_y``.
    That is two single-column solves on one factorization, O(trunc_k * i0)
    time and memory, where a solve per target would cost O(trunc_k^2 * i0).
    """
    p, q, s, i0 = params.p, params.q, params.s, params.i0
    strategy = Strategy(strategy)
    top = trunc_k * i0
    barrier = _steady_barrier_mask(strategy, top, i0)  # top itself excluded
    # row weights of states 1..top-1; list index j is state j+1 from here on
    alpha = [1.0 - s if b else 1.0 for b in barrier[1:top]]
    factors = _factor_tridiagonal(  # A^T: A has -alpha*p above and -alpha*q below
        [-a * p for a in alpha[:-1]], [1.0] * (top - 1), [-a * q for a in alpha[1:]]
    )

    c = [0.0] * (top + 1)  # the start-state functional over states 0..top
    if strategy is Strategy.C:
        c[i0] = 1.0
    else:
        step = 1.0 - s if strategy is Strategy.A else 1.0
        c[i0 + 1] = step * p
        c[i0 - 1] = step * q
    w = solve_banded(factors, c[1:top])
    aw = [0.0] + [a * x for a, x in zip(alpha, w)] + [0.0]  # D_alpha w over 0..top
    v = [p * below + q * above for below, above in zip(aw, aw[2:])]  # states 1..top-1
    u = solve_banded(factors, v)

    # c^T h and c^T t per target; state 0's h = 1 adds c[0] and, via t's
    # right-hand side, q * alpha_1 * w_1
    ruin_row = alpha[0] * q
    mass = {0: w[0] * ruin_row + c[0]}
    killed = {0: u[0] * ruin_row + q * aw[1]}
    for k in range(1, trunc_k):
        r = s if barrier[k * i0] else 0.0
        mass[k] = w[k * i0 - 1] * r
        killed[k] = u[k * i0 - 1] * r
    if strategy is not Strategy.C:  # the first step is taken before anything else
        for k in killed:
            killed[k] += mass[k]
    if strategy is Strategy.A:
        mass[1] += s  # stopped at the start, at time 0

    pk = {k: mass[k] for k in range(1, trunc_k)}
    return {
        "p0": mass[0],
        "m_total": sum(killed.values()),
        "pk": pk,
        "et": killed,
        "escape": max(0.0, 1.0 - sum(mass.values())),
    }


def _flatten(sol: dict) -> dict[str, float]:
    flat = {"p0": sol["p0"], "m_total": sol["m_total"]}
    for k, v in sol["pk"].items():
        flat[f"pk{k}"] = v
    for k, v in sol["et"].items():
        flat[f"et{k}"] = v
    return flat


def _pair_diff(a: dict[str, float], b: dict[str, float]) -> float:
    worst = 0.0
    for key in a.keys() & b.keys():
        va, vb = a[key], b[key]
        if math.isinf(va) and math.isinf(vb):
            continue
        worst = max(worst, abs(va - vb))
    return worst


_TIME_PREFIXES = ("et", "m_total")


def _aitken(
    v1: dict, v2: dict, v3: dict, tol: float, can_escape: bool
) -> tuple[dict, bool]:
    """Per-scalar Aitken extrapolation of three doubling solutions.

    Returns the extrapolated dict and a flag saying whether every scalar was
    tractable (geometric decay, already converged, or a time-like quantity
    growing without bound, reported as inf).  A growing time is reported as
    inf only when ``can_escape``: otherwise the walk is absorbed with
    probability one, every mean time is finite, and growth only says the
    truncation is still too short.
    """
    out: dict[str, float] = {}
    ok = True
    tiny = max(tol / 10.0, 1e-15)
    for key in v1.keys() & v2.keys() & v3.keys():
        a, b, c = v1[key], v2[key], v3[key]
        d1, d2 = b - a, c - b
        if abs(d2) <= tiny and abs(d1) <= tiny:
            out[key] = c
            continue
        if abs(d1) <= tiny:
            out[key] = c
            ok = False
            continue
        r = d2 / d1
        if r >= 1.02:
            if not key.startswith(_TIME_PREFIXES):
                raise ConvergenceError(
                    f"absorption probability diverges under truncation doubling ({key})"
                )
            if can_escape:
                out[key] = math.inf
            else:
                out[key] = c
                ok = False
        elif abs(r) < 0.97:
            out[key] = c + d2 * r / (1.0 - r)
        else:
            out[key] = c
            ok = False
    return out, ok


def solve_exact(
    params: WalkParams,
    strategy: Strategy,
    tol: float = 1e-10,
    start_k: int = 8,
    max_k: int = 1024,
) -> ExactSolution:
    """First-step-analysis solution, truncation-doubled until stable.

    Doubles the barrier count from ``start_k`` and accepts once consecutive
    solutions agree within ``tol`` on every shared entry.  When plain
    doubling stalls (no stopping barriers and a flat or upward drift, where
    truncation error decays like 1/K or the mean time is infinite), Aitken
    extrapolation over the doubling sequence supplies the limit, with
    genuinely divergent time entries reported as ``inf``.  A time can be
    infinite only when the walk can escape or wander forever (s = 0 and
    p >= q); in every other case a still-growing time keeps the doubling
    going, and ``ConvergenceError`` is raised past ``max_k``.  The result's
    ``method`` says which of the two, ``"doubling"`` or ``"aitken"``,
    supplied it.

    ``start_k`` must be at least 2: a lattice cut at one barrier spacing
    puts the start state on the sink.  ``max_k`` below ``start_k`` would
    solve nothing, so both raise ``ParameterError``.
    """
    if tol <= 0:
        raise ParameterError(f"tol must be > 0, got {tol}")
    if start_k < 2:
        raise ParameterError(f"start_k must be >= 2, got {start_k}")
    if max_k < start_k:
        raise ParameterError(f"max_k must be >= start_k={start_k}, got {max_k}")
    strategy = Strategy(strategy)
    # without stopping barriers an upward or flat drift can carry the walk
    # off forever (p > q) or make its mean time infinite (p == q)
    can_escape = params.s == 0.0 and params.p >= params.q
    history: list[dict] = []
    flats: list[dict[str, float]] = []
    prev_extrap: dict[str, float] | None = None
    trunc_k = start_k
    while trunc_k <= max_k:
        sol = _solve_truncated(params, strategy, trunc_k)
        history.append(sol)
        flats.append(_flatten(sol))
        if len(flats) >= 2:
            diff = _pair_diff(flats[-1], flats[-2])
            if diff < tol:
                return _finish(sol, trunc_k, diff, "doubling")
        if len(flats) >= 3:
            extrap, ok = _aitken(flats[-3], flats[-2], flats[-1], tol, can_escape)
            if ok and prev_extrap is not None:
                ediff = _pair_diff(extrap, prev_extrap)
                if ediff < tol:
                    merged = _apply_extrapolation(sol, extrap)
                    return _finish(merged, trunc_k, ediff, "aitken")
            prev_extrap = extrap if ok else None
        trunc_k *= 2
    raise ConvergenceError(
        f"no stable solution up to truncation {max_k} barriers "
        f"(p={params.p}, s={params.s}, i0={params.i0}, strategy={strategy.value})"
    )


def _apply_extrapolation(sol: dict, extrap: dict[str, float]) -> dict:
    out = {
        "p0": extrap.get("p0", sol["p0"]),
        "m_total": extrap.get("m_total", sol["m_total"]),
        "pk": dict(sol["pk"]),
        "et": dict(sol["et"]),
    }
    for k in out["pk"]:
        out["pk"][k] = extrap.get(f"pk{k}", out["pk"][k])
    for k in out["et"]:
        out["et"][k] = extrap.get(f"et{k}", out["et"][k])
    # keep the escape estimate consistent with the extrapolated masses
    out["escape"] = max(0.0, 1.0 - out["p0"] - sum(out["pk"].values()))
    return out


def _finish(sol: dict, trunc_k: int, err: float, method: str) -> ExactSolution:
    return ExactSolution(
        truncation_k=trunc_k,
        p0=sol["p0"],
        pk=dict(sorted(sol["pk"].items())),
        et=dict(sorted(sol["et"].items())),
        m_total=sol["m_total"],
        escape_mass=sol["escape"],
        error_estimate=err,
        method=method,
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
