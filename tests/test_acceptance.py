"""Acceptance suite: every release criterion, one test and one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
Criteria, in order:

1. analytic layer matches the exact solver over the full parameter grid
2. Monte Carlo concordance on the reduced grid (1e6 trials, 4 sigma, one retry)
3. closed-form spot values, each reproduced by the exact solver first
4. identity suite at its stated tolerances
5. generating-function cross-check against mass propagation, plus monotonicity
6. derivative assembly against Richardson finite differences
7. errata document and two-sided errata regressions
8. determinism: quick verify under 10 s, bit-reproducible simulation
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ruinwalk import charpoly as cp
from ruinwalk import metrics, mgf, oracle, verify
from ruinwalk.core import Strategy, WalkParams

from conftest import GRID_I0, GRID_P, GRID_S, SQRT3

REPO_ROOT = Path(__file__).resolve().parent.parent


def _report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _grid():
    for p in GRID_P:
        for s in GRID_S:
            for i0 in GRID_I0:
                yield WalkParams(p, s, i0)


def test_criterion_1_three_layer_agreement_grid():
    t0 = time.time()
    worst_prob = 0.0
    worst_time = 0.0
    combos = 0
    for params in _grid():
        for strategy in Strategy:
            combos += 1
            sol = oracle.solve_exact(params, strategy, tol=1e-11)
            prof = metrics.absorption_profile(params, strategy)
            worst_prob = max(worst_prob, abs(prof.at(0) - sol.p0))
            for k in range(1, 65):
                worst_prob = max(
                    worst_prob, abs(prof.at(k) - sol.pk.get(k, 0.0))
                )
            m = metrics.mean_time_any(params, strategy)
            worst_time = max(
                worst_time, abs(m - sol.m_total) / max(abs(sol.m_total), 1e-300)
            )
            tp = metrics.time_profile(params, strategy)
            for k in range(0, 65):
                ref = sol.et.get(k, 0.0)
                gap = abs(tp.at(k) - ref)
                worst_time = max(worst_time, gap / max(abs(ref), 1e-9))
    elapsed = time.time() - t0
    ok = worst_prob <= 1e-9 and worst_time <= 1e-7 and elapsed < 60.0
    _report(
        1,
        "three-layer agreement grid",
        ok,
        f"{combos} combos, worst prob {worst_prob:.2e}, worst time {worst_time:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_monte_carlo_concordance():
    t0 = time.time()
    results = verify.check_monte_carlo(trials=1_000_000, seed=20240914, sigmas=4.0)
    elapsed = time.time() - t0
    ok = all(r.passed for r in results) and elapsed < 600.0
    detail = f"{len(results)} points, {elapsed:.0f}s"
    failed = [r for r in results if not r.passed]
    if failed:
        detail += "; failed: " + "; ".join(f"{r.name} ({r.detail})" for r in failed)
    _report(2, "Monte Carlo concordance", ok, detail)


def test_criterion_3_closed_form_spot_checks():
    checks = []

    # the symmetric unit-stake point, exact solver first
    params = WalkParams(0.5, 0.5, 1)
    sol_b = oracle.solve_exact(params, Strategy.B, tol=1e-11)
    want_p0 = 4.0 - 2.0 * SQRT3
    want_mb = 2.0 * (SQRT3 - 1.0)
    checks.append(abs(sol_b.p0 - want_p0) < 1e-9)
    checks.append(abs(sol_b.m_total - want_mb) < 1e-9)
    prof_b = metrics.absorption_profile(params, Strategy.B)
    checks.append(abs(prof_b.at(0) - want_p0) < 1e-12)
    checks.append(abs(metrics.mean_time_any(params, Strategy.B) - want_mb) < 1e-12)

    sol_c = oracle.solve_exact(params, Strategy.C, tol=1e-11)
    checks.append(abs(sol_c.p0 - 1.0 / SQRT3) < 1e-9)
    checks.append(
        abs(metrics.absorption_profile(params, Strategy.C).at(0) - 1.0 / SQRT3) < 1e-12
    )

    # no-stop limits: certain ruin at or below the driftless point
    for p, i0, want in [(0.4, 2, 1.0), (0.5, 3, 1.0), (0.7, 2, (3.0 / 7.0) ** 2)]:
        params = WalkParams(p, 0.0, i0)
        sol = oracle.solve_exact(params, Strategy.B, tol=1e-10)
        checks.append(abs(sol.p0 - want) < 1e-9)
        checks.append(
            abs(metrics.absorption_profile(params, Strategy.B).at(0) - want) < 1e-12
        )
    params = WalkParams(0.4, 0.0, 2)
    sol = oracle.solve_exact(params, Strategy.B, tol=1e-10)
    checks.append(abs(sol.m_total - 10.0) < 1e-7)
    checks.append(abs(metrics.mean_time_any(params, Strategy.B) - 10.0) < 1e-12)

    # all-stop masses at the driftless point and the killed-time triple
    params = WalkParams(0.5, 1.0, 2)
    sol = oracle.solve_exact(params, Strategy.B, tol=1e-11)
    checks.append(abs(sol.p0 - 0.25) < 1e-12)
    checks.append(abs(sol.pk[1] - 0.5) < 1e-12)
    checks.append(abs(sol.pk[2] - 0.25) < 1e-12)
    prof = metrics.absorption_profile(params, Strategy.B)
    checks.append(abs(prof.at(0) - 0.25) < 1e-12)
    checks.append(abs(prof.at(1) - 0.5) < 1e-12)
    for p, i0 in [(0.4, 2), (0.5, 3), (0.6, 1)]:
        params = WalkParams(p, 1.0, i0)
        triple = sum(metrics.time_profile(params, Strategy.B).at(k) for k in (0, 1, 2))
        checks.append(abs(triple - i0) < 1e-10)

    _report(3, "closed-form spot checks", all(checks), f"{len(checks)} assertions")


def test_criterion_4_identity_suite():
    named = [
        verify.check_step_roots(),
        verify.check_barrier_recurrence(),
        verify.check_c_seed_relations(),
        verify.check_bc_ratio(),
        verify.check_barrier_geometry(),
    ]
    ok = all(c.passed for c in named)
    detail = "; ".join(f"{c.name}: {'ok' if c.passed else c.detail}" for c in named if not c.passed)
    _report(4, "identity suite", ok, detail or f"{len(named)} identities")


def test_criterion_5_generating_function_cross_check():
    worst = 0.0
    evaluations = 0
    for params in _grid():
        positions = [0, params.i0, 2 * params.i0]
        if params.i0 >= 2:
            positions.append(params.i0 + 1)
        for z in (0.3, 0.5, 0.9):
            for strategy in Strategy:
                for pos in positions:
                    want = oracle.mgf_dp(params, strategy, z, pos, tol=1e-10)
                    got = mgf.mgf_value(params, strategy, z, pos)
                    worst = max(worst, abs(got - want))
                    evaluations += 1
    mono = verify.check_mgf_monotonicity()
    ok = worst <= 1e-8 and mono.passed
    _report(
        5,
        "generating-function cross-check",
        ok,
        f"{evaluations} evaluations, worst gap {worst:.2e}; monotonicity "
        f"{'ok' if mono.passed else mono.detail}",
    )


def test_criterion_6_derivative_validation():
    def fd(fun, h=1e-4):
        at_1 = fun(1.0)

        def diff(hh):
            return (at_1 - fun(1.0 - hh)) / hh

        d1, d2, d3 = diff(h), diff(h / 2), diff(h / 4)
        e1, e2 = 2 * d2 - d1, 2 * d3 - d2
        return (4 * e2 - e1) / 3

    worst = 0.0
    for params in _grid():
        der = cp.derivatives_at_1(params)
        for got, fun in (
            (der.dtheta, lambda z: mgf.characteristic(params, z).theta),
            (
                der.rate * mgf.characteristic(params, 1.0).phi.psi1,
                lambda z: mgf.characteristic(params, z).phi.psi1,
            ),
            (der.dphi2, lambda z: mgf.characteristic(params, z).phi.phi2),
        ):
            want = fd(fun)
            worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
        # killed times are stop-weighted derivatives of the generating functions
        for strategy in Strategy:
            for k in (0, 1, 2):
                if strategy is Strategy.C and k == 1:
                    continue  # not a stopping site; its killed time is zero
                weight = 1.0 if k == 0 else params.s
                fun = lambda z, kk=k, st=strategy: mgf.mgf_value(
                    params, st, z, kk * params.i0
                )
                want = weight * fd(fun)
                got = metrics.time_profile(params, strategy).at(k)
                worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    ok = worst <= 1e-6
    _report(6, "derivative validation", ok, f"worst relative gap {worst:.2e}")


def test_criterion_7_errata_regressions():
    doc = REPO_ROOT / "FORMULA_ERRATA.md"
    ok_doc = doc.exists()
    text = doc.read_text() if ok_doc else ""
    sections = (
        "barrier coupling constant",
        "mean absorption time carries 1/s",
        "omega^-i0 prefactor",
    )
    ok_sections = all(s in text for s in sections)
    regressions = verify.check_errata()
    ok_reg = all(r.passed for r in regressions)
    # the negative control must be able to fail
    control = verify.check_errata(inject_wrong_mb=True)
    ok_control = not all(r.passed for r in control)
    ok = ok_doc and ok_sections and ok_reg and ok_control
    _report(
        7,
        "errata ledger",
        ok,
        f"document={'present' if ok_doc else 'missing'}, sections={ok_sections}, "
        f"regressions={ok_reg}, negative-control={ok_control}",
    )


def test_criterion_8_determinism():
    t0 = time.time()
    checks = verify.run_all(quick=True)
    quick_elapsed = time.time() - t0
    ok_quick = all(c.passed for c in checks) and quick_elapsed < 10.0

    params = WalkParams(0.5, 0.5, 1)
    runs = [
        oracle.simulate(params, Strategy.B, 100_000, seed=42, workers=w)
        for w in (1, 1, 2, 4)
    ]
    ok_sim = all(r == runs[0] for r in runs[1:])

    cmd = [
        sys.executable, "-m", "ruinwalk", "simulate", "--p", "0.5", "--s", "0.5",
        "--i0", "1", "--strategy", "B", "--trials", "50000", "--seed", "7",
    ]
    out_a = subprocess.run(cmd, capture_output=True, check=True).stdout
    out_b = subprocess.run(
        cmd + ["--workers", "3"], capture_output=True, check=True
    ).stdout
    ok_cli = out_a == out_b and json.loads(out_a)["seed"] == 7

    ok = ok_quick and ok_sim and ok_cli
    _report(
        8,
        "determinism and quick verify",
        ok,
        f"quick suite {quick_elapsed:.1f}s/{len(checks)} checks, "
        f"sim bit-identical={ok_sim}, cli bit-identical={ok_cli}",
    )
