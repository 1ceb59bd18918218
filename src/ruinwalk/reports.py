"""The closed-form reports behind ``analytic`` and ``mgf``, and the rows of ``sweep``.

Only those three commands import this module, at their start (``sweep``
before it forks), so ``simulate`` and ``exact`` compile neither it nor the
closed forms it reads.
"""

from __future__ import annotations

from . import charpoly as cp
from . import metrics, mgf
from .cli import _cells, _float_cell, _require_kmax
from .core import ConvergenceError, ParameterError, Strategy, WalkParams


def diagnostics(params: WalkParams) -> dict:
    """Roots at z=1."""
    if params.s >= 1.0:  # theta and phi are undefined
        roots = cp.tau_roots(1.0, params)
        return {"tau1": roots.tau1, "tau2": roots.tau2, "theta": None, "phi1": None, "phi2": None}
    char = mgf.characteristic(params, 1.0)
    return {
        "tau1": char.roots.tau1,
        "tau2": char.roots.tau2,
        "theta": char.theta,
        "phi1": char.phi.psi1 / (1.0 - params.s),
        "phi2": char.phi.phi2,
    }


def times_block(params: WalkParams, strategy: Strategy, kmax: int) -> dict:
    """Killed-time profile, from the closed forms or, for the exactly
    driftless walk with 0 < s < 1, from the exact solver where it converges."""
    # The closed forms answer p = 1/2 too (the tests hold the two routes to
    # 1e-7).  This route stays only because the benchmark's tracer self-test
    # (bench/test_tracer.py, MUST_RUN) needs its sweep to reach
    # oracle.solve_exact; it and times.source go when the benchmark's
    # workloads are next updated.  It is all that loads oracle in `analytic`
    # and `sweep`.
    if params.symmetric and 0.0 < params.s < 1.0:
        from . import oracle
        try:
            et = oracle.solve_exact(params, strategy).times.upto(kmax)
            return {"m_total": metrics.mean_time_any(params, strategy), "et": et, "source": "exact"}
        except ConvergenceError:
            pass  # as s -> 0 a period's eigenvalues do not separate; the closed forms answer
    et = metrics.time_profile(params, strategy).upto(kmax)
    return {"m_total": metrics.mean_time_any(params, strategy), "et": et, "source": "analytic"}


def analytic_report(params: WalkParams, strategy: Strategy, args) -> dict:
    _require_kmax(args.kmax)
    prof = metrics.absorption_profile(params, strategy)
    p0, *pk = prof.upto(args.kmax)
    report = {
        "params": {
            "p": params.p,
            "s": params.s,
            "i0": params.i0,
            "q": params.q,
            "omega": params.omega,
        },
        "strategy": strategy.value,
        "absorption": {
            "p0": p0,
            "pk": pk,
            "tail_bound": prof.beyond(args.kmax),
        },
        "times": times_block(params, strategy, args.kmax),
        "diagnostics": diagnostics(params),
    }
    if args.z is not None:
        values = mgf._barrier_fn(strategy)(params, args.z).upto(args.kmax)
        report["mgf"] = {"z": args.z, "barrier_values": values}
    if args.conditional:
        et = report["times"]["et"]
        report["conditional_times"] = [
            (t / pk if pk > 0 else None) for t, pk in zip(et, [p0, *pk])
        ]
    return report


def mgf_report(params: WalkParams, strategy: Strategy, args) -> dict:
    _require_kmax(args.kmax)
    report = {
        "params": {"p": params.p, "s": params.s, "i0": params.i0},
        "strategy": args.strategy,
        "z": args.z,
        "barrier_values": mgf._barrier_fn(strategy)(params, args.z).upto(args.kmax),
    }
    if args.state is not None:
        report["state"] = args.state
        report["state_value"] = mgf.mgf_value(params, strategy, args.z, args.state)
    if args.check_dp:
        if not 0.0 < args.z < 1.0:
            raise ParameterError("--check-dp needs 0 < z < 1")
        from . import oracle
        sample = args.state if args.state is not None else params.i0
        dp = oracle.mgf_dp(params, strategy, args.z, sample, tol=args.tol)
        report["dp_state"] = sample
        report["dp_value"] = dp
        report["dp_gap"] = abs(dp - mgf.mgf_value(params, strategy, args.z, sample))
    return report


def sweep_cells(params: WalkParams, strategy: Strategy, kmax: int) -> str:
    """The cells of a sweep row that depend on the strategy, p0 through et3."""
    prof = metrics.absorption_profile(params, strategy)
    times = times_block(params, strategy, 3)
    return _cells((*prof.upto(3), prof.beyond(kmax), times["m_total"], *times["et"]))


def sweep_rows(instances, strategies: list[Strategy], kmax: int) -> list[str]:
    """The CSV rows of ``instances``, each a (p, s, i0), in order."""
    rows = []
    for p, s, i0 in instances:
        params = WalkParams(p=p, s=s, i0=i0)
        _require_kmax(kmax)  # after the instance's own checks, ahead of its rows
        # mgf and charpoly keep the last instance's z=1 characteristic and
        # derivatives, so every column of the instance shares one solve; the
        # cells that do not depend on the strategy are formatted once
        ratio = metrics.bc_ratio(params) if 0.0 < s < 1.0 else None
        lead = _cells((params.p, params.s, params.i0))
        omega = _float_cell(params.omega)
        trail = _cells((ratio, *diagnostics(params).values()))
        for strategy in strategies:
            cells = sweep_cells(params, strategy, kmax)
            rows.append(f"{lead},{strategy.value},{omega},{cells},{trail}")
    return rows
