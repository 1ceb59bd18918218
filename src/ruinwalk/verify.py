"""Three-layer agreement suite: closed forms vs exact solver vs Monte Carlo.

Each check returns a named pass/fail record so the CLI can print one line
per identity and name the first failure.  The default grids match the
acceptance criteria; ``quick=True`` skips the Monte Carlo layer.

:func:`run_all` runs the identity checks in this process and, with two
usable CPUs, the exact-solver and errata checks in a forked one
(:func:`ruinwalk.parallel.run_shares`).  The functions that call an oracle
import it themselves, so only the process that runs them compiles it.

An evaluation compares values built independently of each other.  What
holds by construction is not evaluated: ``tau1 tau2 = omega`` and
``psi1 phi2 = (1-s) omega**i0`` are how tau2 and phi2 are built, and past
a profile's head every value is the last one times rho.
``tests/mutation_audit.py`` runs these checks on one-token mutants of the
closed forms and reports which checks catch each.

The errata checks are deliberately two-sided: the implemented form must
match the oracle *and* the rejected variant must miss it by a clear margin,
so a silent regression to the wrong algebra cannot pass.  ``inject_wrong_mb``
flips the strategy-B mean-time check to the rejected variant; it exists as a
negative control for the suite itself.
"""

from __future__ import annotations

import math
import os
import random
from typing import NamedTuple

from . import charpoly as cp
from . import metrics, mgf
from .core import Strategy, WalkParams

GRID_P = (0.3, 0.45, 0.5, 0.55, 0.7)
GRID_S = (0.1, 0.5, 0.9)
GRID_I0 = (1, 2, 3, 5)

MC_GRID = (
    (0.5, 0.5, 1, Strategy.B),
    (0.5, 0.5, 1, Strategy.C),
    (0.3, 0.1, 2, Strategy.A),
    (0.7, 0.1, 1, Strategy.B),
    (0.45, 0.9, 3, Strategy.C),
    (0.55, 0.5, 5, Strategy.A),
    (0.5, 0.1, 2, Strategy.B),
    (0.3, 0.9, 1, Strategy.C),
)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _result(name: str, worst: float, tol: float, extra: str = "") -> CheckResult:
    detail = f"worst={worst:.3e} tol={tol:.0e}"
    if extra:
        detail += f" {extra}"
    return CheckResult(name=name, passed=worst <= tol, detail=detail)


def _interior_grid():
    for p in GRID_P:
        for s in GRID_S:
            for i0 in GRID_I0:
                yield WalkParams(p, s, i0)


# ---------------------------------------------------------------------------
# identity checks (closed forms against their own defining relations)


def check_step_roots(n_samples: int = 1000, seed: int = 20240914) -> CheckResult:
    rng_ = random.Random(seed)
    worst = 0.0
    for _ in range(n_samples):
        z = rng_.uniform(1e-3, 1.0)
        p = rng_.uniform(1e-3, 1.0 - 1e-3)
        params = WalkParams(p, 0.5, 1)
        roots = cp.tau_roots(z, params)
        for tau in (roots.tau1, roots.tau2):
            # backward-error form: the raw residual scales with tau as z -> 0
            residual = abs(params.q * z * tau * tau - tau + p * z)
            worst = max(worst, residual / max(1.0, tau))
        vieta_sum = 1.0 / (params.q * z)
        worst = max(worst, abs(roots.tau1 + roots.tau2 - vieta_sum) / vieta_sum)
    return _result("step-root residuals and Vieta sum", worst, 1e-12)


def check_theta_symmetric_limit() -> CheckResult:
    worst = 0.0
    for s in GRID_S:
        for i0 in GRID_I0:
            want = 2.0 * (i0 / (1.0 - s) + 1.0 - i0)
            got = mgf.characteristic(WalkParams(0.5, s, i0), 1.0).theta
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    return _result("theta at the driftless point", worst, 1e-12)


def check_b_from_a_relation() -> CheckResult:
    # A's values are (1-s) B's plus the start visit; at i0, theta's
    # definition gives that sum independently as U_i0 / (q z psi1)
    worst = 0.0
    for params in _interior_grid():
        for z in (0.3, 0.7, 1.0):
            char = mgf.characteristic(params, z)
            lhs = mgf.mgf_a(params, z).at(1)
            rhs = char.u_i0 / (params.q * z * char.phi.psi1)
            worst = max(worst, abs(lhs - rhs) / rhs)
    return _result("A/B generating-function relation", worst, 1e-12)


def check_barrier_recurrence() -> CheckResult:
    worst = 0.0
    for params in _interior_grid():
        for z in (0.4, 0.9, 1.0):
            theta = mgf.characteristic(params, z).theta
            vals = mgf.mgf_a(params, z)
            scale = max(vals.at(1), 1e-300)
            for k in (2, 3):  # k = 3 is phi2's own quadratic; later k only scale it
                res = (
                    vals.at(k + 1)
                    - theta * vals.at(k)
                    + params.omega_pow * vals.at(k - 1)
                )
                worst = max(worst, abs(res) / scale)
    return _result("three-term barrier recurrence", worst, 1e-10)


def check_c_seed_relations() -> CheckResult:
    worst = 0.0
    for params in _interior_grid():
        for z in (0.4, 0.9, 1.0):
            char = mgf.characteristic(params, z)
            d_i0 = char.u_i0
            w = mgf.mgf_c(params, z)
            w1, w2 = w.at(1), w.at(2)
            s_i0 = d_i0 / (params.q * z) - 2.0 * params.omega * char.u_prev  # V_i0 = e1 U_i0 - 2 e2 U_{i0-1}
            seed = params.q * z * (s_i0 * w1 - (1.0 - params.s) * w2) - d_i0
            worst = max(worst, abs(seed) / max(d_i0, 1e-300))
    return _result("strategy-C seed relation", worst, 1e-10)


def check_mgf_monotonicity() -> CheckResult:
    zs = [0.1 * j for j in range(1, 11)]
    worst = 0.0
    for params in _interior_grid():
        positions = [0, params.i0, 2 * params.i0]
        if params.i0 >= 2:
            positions.append(params.i0 + 1)
        # z outermost, so each z's characteristic serves every strategy
        prev = {strategy: [-math.inf] * len(positions) for strategy in Strategy}
        for z in zs:
            for strategy, before in prev.items():
                values = mgf.mgf_states(params, strategy, z, positions)
                worst = max(worst, *(b - v for b, v in zip(before, values)))
                prev[strategy] = values
    return _result("generating functions nondecreasing in z", worst, 1e-12)


def check_barrier_geometry() -> CheckResult:
    worst = 0.0
    for params in _interior_grid():
        for z in (0.5, 1.0):
            # A's head ends at barrier 2; past it each value is the last times phi2
            phi2 = mgf.characteristic(params, z).phi.phi2
            a = mgf.mgf_a(params, z)
            worst = max(worst, abs(a.at(2) / a.at(1) - phi2) / phi2)
    return _result("geometric decay of barrier values", worst, 1e-12)


def check_mass_conservation() -> CheckResult:
    worst = 0.0
    for params in _interior_grid():
        for strategy in Strategy:
            total = metrics.absorption_profile(params, strategy).total
            worst = max(worst, abs(total - 1.0))
    return _result("absorption mass sums to one", worst, 1e-9)


def check_bc_ratio() -> CheckResult:
    worst = 0.0
    below_one = True
    for params in _interior_grid():
        ratio = metrics.bc_ratio(params)
        if not ratio < 1.0:
            below_one = False
        pb = metrics.absorption_profile(params, Strategy.B)
        pc = metrics.absorption_profile(params, Strategy.C)
        for k in (0, 2):  # past barrier 2 both tails are geometric in the same phi2
            worst = max(worst, abs(ratio - pb.at(k) / pc.at(k)))
    res = _result("B/C absorption ratio constant and below one", worst, 1e-10)
    if not below_one:
        return CheckResult(res.name, False, res.detail + " (ratio >= 1)")
    return res


def check_time_decomposition() -> CheckResult:
    worst = 0.0
    for params in _interior_grid():
        for strategy in Strategy:
            total = metrics.time_profile(params, strategy).total
            worst = max(worst, abs(total - metrics.mean_time_any(params, strategy)))
    return _result("killed times sum to the total mean", worst, 1e-8)


def check_derivatives_fd() -> CheckResult:
    def one_sided(f, h=1e-4):
        """Richardson-extrapolated one-sided differences at z=1 of each value f(z) lists."""
        at_1 = f(1.0)

        def diff(hh):
            return [(a - b) / hh for a, b in zip(at_1, f(1.0 - hh))]

        steps = zip(diff(h), diff(h / 2), diff(h / 4))
        return [(4 * (2 * d3 - d2) - (2 * d2 - d1)) / 3 for d1, d2, d3 in steps]

    worst = 0.0
    for params in _interior_grid():
        der = cp.derivatives_at_1(params)

        def theta_phi2(z):  # one characteristic per z serves both differences
            char = mgf.characteristic(params, z)
            return char.theta, char.phi.phi2

        for want, fd in zip((der.dtheta, der.dphi2), one_sided(theta_phi2)):
            worst = max(worst, abs(want - fd) / max(abs(fd), 1e-300))
    return _result("derivatives match finite differences", worst, 1e-6)


# ---------------------------------------------------------------------------
# oracle agreement


def check_exact_agreement(tol_prob: float = 1e-9, tol_time: float = 1e-7) -> list[CheckResult]:
    """The profiles' fields, from which every barrier's value is computed: heads, means and tails."""
    from . import oracle

    worst_p, where_p = 0.0, "-"
    worst_t, where_t = 0.0, "-"
    worst_r, where_r = 0.0, "-"
    for params in _interior_grid():
        for strategy in Strategy:
            sol = oracle.solve_exact(params, strategy)
            prof = metrics.absorption_profile(params, strategy)
            tp = metrics.time_profile(params, strategy)
            at = f"p={params.p} s={params.s} i0={params.i0} strategy={strategy.value}"
            for k, (got, ref) in enumerate(zip(prof.head, sol.masses.head, strict=True)):
                gap = abs(got - ref)
                if gap > worst_p:
                    worst_p, where_p = gap, f"{at} k={k}"
            sites = [f"k={k}" for k in range(len(tp.head))] + ["total", "tail"]
            ours = (*tp.head, metrics.mean_time_any(params, strategy), tp.mass)
            its = (*sol.times.head, sol.m_total, sol.times.mass)
            for site, got, ref in zip(sites, ours, its, strict=True):
                gap = abs(got - ref) / max(abs(ref), 1e-9)
                if gap > worst_t:
                    worst_t, where_t = gap, f"{at} {site}"
            # the oracle's period ratio is phi2: rho, 1 - rho and drho against the roots;
            # each side's time profile shares rho and 1 - rho with its mass profile
            ours = (prof.rho, prof.gap, tp.drho)
            its = (sol.masses.rho, sol.masses.gap, sol.times.drho)
            gap = max(abs(a - b) / abs(b) for a, b in zip(ours, its))
            if gap > worst_r:
                worst_r, where_r = gap, at
    return [
        _result("absorption profiles match the exact solver", worst_p, tol_prob, f"at {where_p}"),
        _result("mean times match the exact solver", worst_t, tol_time, f"at {where_t}"),
        _result("phi2, 1 - phi2 and dphi2 match the exact solver's tail", worst_r, 1e-12, f"at {where_r}"),
    ]


# ---------------------------------------------------------------------------
# errata regressions


def check_errata(inject_wrong_mb: bool = False) -> list[CheckResult]:
    from . import oracle

    results = []

    # 1. theta coupling: the 1/(1-s) scaling on the tau-power gap is required.
    params = WalkParams(0.4, 0.5, 2)
    char = mgf.characteristic(params, 1.0)
    rejected = (char.u_i0 - 2.0 * params.p * char.u_prev) / params.q
    implemented = char.theta
    p0 = oracle.solve_exact(params, Strategy.B).masses.at(0)
    prof = metrics.absorption_profile(params, Strategy.B)
    ok = (
        abs(prof.at(0) - p0) < 1e-9
        and abs(implemented - rejected) > 1e-3
        and _phi_is_consistent(implemented, params)
        and not _phi_is_consistent_or_matches(rejected, params, p0)
    )
    results.append(
        CheckResult(
            "theta coupling (stop-scaled numerator)",
            ok,
            f"implemented={implemented:.6f} rejected={rejected:.6f}",
        )
    )

    # 2. strategy-B mean time carries a 1/s, not the bare barrier factor.
    params = WalkParams(0.5, 0.5, 1)
    sol = oracle.solve_exact(params, Strategy.B)
    phi = mgf.characteristic(params, 1.0).phi
    rejected_mb = params.i0 * phi.psi1_gap / phi.psi1  # i0 (1 - 1/phi1)
    implemented_mb = metrics.mean_time_any(params, Strategy.B)
    candidate = rejected_mb if inject_wrong_mb else implemented_mb
    ok = (
        abs(candidate - sol.m_total) < 1e-9
        and abs(rejected_mb - sol.m_total) > 1e-2
    )
    results.append(
        CheckResult(
            "m_B relation (mean time of the delayed strategy)",
            ok,
            f"checked={candidate:.9f} oracle={sol.m_total:.9f} rejected={rejected_mb:.9f}",
        )
    )

    # 3. ruin-time prefactor at s=0: the killed time is omega**-i0 times
    #    the z-derivative of phi2, not that derivative alone.
    params = WalkParams(0.4, 0.0, 2)
    et0 = oracle.solve_exact(params, Strategy.B).times.at(0)
    der = cp.derivatives_at_1(params)
    implemented_et0 = metrics.time_profile(params, Strategy.B).at(0)
    rejected_et0 = der.dphi2  # bare derivative, missing the omega**-i0 factor
    ok = (
        abs(implemented_et0 - et0) < 1e-7 * et0
        and abs(implemented_et0 - der.dphi2 / params.omega_pow) < 1e-9
        and abs(rejected_et0 - et0) > 1e-2
    )
    results.append(
        CheckResult(
            "ruin-time prefactor (s=0 killed time)",
            ok,
            f"implemented={implemented_et0:.6f} oracle={et0:.6f} "
            f"rejected={rejected_et0:.6f}",
        )
    )
    return results


def _phi_is_consistent(theta_val: float, params: WalkParams) -> bool:
    return theta_val * theta_val >= 4.0 * params.omega_pow


def _phi_is_consistent_or_matches(
    theta_val: float, params: WalkParams, p0: float
) -> bool:
    """True if the rejected theta would still reproduce the oracle's p0."""
    if not _phi_is_consistent(theta_val, params):
        return False
    wi = params.omega_pow
    phi2 = 2.0 * wi / (theta_val + math.sqrt(theta_val * theta_val - 4.0 * wi))
    candidate = phi2 / (wi * (1.0 - params.s))
    return abs(candidate - p0) < 1e-6


# ---------------------------------------------------------------------------
# Monte Carlo concordance


def check_monte_carlo(
    trials: int = 1_000_000, seed: int = 20240914, sigmas: float = 4.0
) -> list[CheckResult]:
    from . import oracle

    results = []
    for p, s, i0, strategy in MC_GRID:
        params = WalkParams(p, s, i0)
        sol = oracle.solve_exact(params, strategy)
        passed, detail = _mc_point(params, strategy, sol, trials, seed, sigmas)
        if not passed:  # one retry with a fresh stream, recorded
            passed, retry_detail = _mc_point(
                params, strategy, sol, trials, seed + 1, sigmas
            )
            detail = f"{detail}; retry: {retry_detail}"
        results.append(
            CheckResult(
                f"Monte Carlo concordance p={p} s={s} i0={i0} {strategy.value}",
                passed,
                detail,
            )
        )
    return results


def _mc_point(params, strategy, sol, trials, seed, sigmas):
    from . import oracle

    sim = oracle.simulate(params, strategy, trials, seed=seed, workers=os.cpu_count() or 1)
    worst_z = 0.0
    for k in (0, 1, 2, 3):
        est, se = sim.probability(k * params.i0)
        ref = sol.masses.at(k)
        if ref == 0.0 and est == 0.0:
            continue
        worst_z = max(worst_z, abs(est - ref) / max(se, 1e-12))
    mt, mse = sim.mean_time, sim.mean_time_se
    worst_z = max(worst_z, abs(mt - sol.m_total) / max(mse, 1e-12))
    return worst_z <= sigmas, f"worst z-score {worst_z:.2f} (seed {seed})"


# ---------------------------------------------------------------------------
# top level


def _identity_checks() -> list[CheckResult]:
    return [
        check_step_roots(),
        check_theta_symmetric_limit(),
        check_b_from_a_relation(),
        check_barrier_recurrence(),
        check_c_seed_relations(),
        check_mgf_monotonicity(),
        check_barrier_geometry(),
        check_mass_conservation(),
        check_bc_ratio(),
        check_time_decomposition(),
        check_derivatives_fd(),
    ]


def _solver_checks(inject_wrong_mb: bool) -> list[CheckResult]:
    return [*check_exact_agreement(), *check_errata(inject_wrong_mb=inject_wrong_mb)]


def run_all(
    quick: bool = False,
    trials: int = 1_000_000,
    seed: int = 20240914,
    inject_wrong_mb: bool = False,
) -> list[CheckResult]:
    """Every check's result in the order listed, however many CPUs ran them."""
    from . import parallel

    # about equally long, the solver's share with oracle's compile; with two
    # CPUs this process runs only the first, and compiles no oracle if quick
    shares = [_identity_checks, lambda: _solver_checks(inject_wrong_mb)]
    if parallel.usable_cpus() > 1:
        parts = parallel.run_shares(lambda share: share(), shares, "verify")
    else:
        parts = [share() for share in shares]
    checks = [check for part in parts for check in part]
    if not quick:
        checks.extend(check_monte_carlo(trials=trials, seed=seed))
    return checks
