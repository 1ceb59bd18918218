"""Command-line front door: closed forms, oracles, cross-verification, sweeps.

Subcommands
-----------
analytic   absorption profile, mean times and root diagnostics for one instance
simulate   seeded Monte Carlo estimates with standard errors
exact      first-step linear solve with an exact tail condition (the exact oracle)
mgf        generating-function values at a given z
verify     the three-layer agreement suite; exit 0 iff every check passes
sweep      CSV over parameter ranges (``--p 0.3:0.7:0.05`` style)

Exit codes: 0 success, 1 verification failure, an unresolved oracle, a closed
stdout or a missing numpy, 2 usage or parameter error.
Errors are emitted as one-line JSON on stderr.  JSON output carries full
float precision; ``--format table`` rounds to six significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import charpoly as cp
from . import metrics, mgf
from .core import (
    ConvergenceError,
    ParameterError,
    Strategy,
    UnsupportedRegimeError,
    WalkParams,
)

# one group a line: the instance and strategy, the cells that depend on the
# strategy, and more of the instance; cmd_sweep formats the instance's once
_SWEEP_COLUMNS = (
    "p", "s", "i0", "strategy", "omega",
    "p0", "p1", "p2", "p3", "tail_bound", "m_total", "et0", "et1", "et2", "et3",
    "bc_ratio", "tau1", "tau2", "theta", "phi1", "phi2",
)


def _params_from(args) -> WalkParams:
    return WalkParams(p=args.p, s=args.s, i0=args.i0)


def _diagnostics(params: WalkParams) -> dict:
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


def _times_block(params: WalkParams, strategy: Strategy, kmax: int) -> dict:
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


def _require_kmax(kmax: int) -> None:
    if kmax < 1:
        raise ParameterError(f"kmax must be >= 1, got {kmax}")


def _analytic_report(params: WalkParams, strategy: Strategy, args) -> dict:
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
        "times": _times_block(params, strategy, args.kmax),
        "diagnostics": _diagnostics(params),
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


def _float_cell(value) -> str:
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, float) else str(value)


def _cells(values) -> str:
    return ",".join(map(_float_cell, values))


def _flatten_report(node, lists: bool, prefix: str = "") -> dict:
    """The report's leaves by dotted key; a list splits into indexed keys if ``lists``, else is one leaf."""
    out: dict = {}
    if isinstance(node, dict):
        for key, val in node.items():
            out.update(_flatten_report(val, lists, f"{prefix}{key}."))
    elif lists and isinstance(node, (list, tuple)):
        for idx, val in enumerate(node):
            out.update(_flatten_report(val, lists, f"{prefix}{idx}."))
    else:
        out[prefix[:-1]] = node
    return out


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(report, indent=2)
    elif args.format == "csv":
        flat = _flatten_report(report, lists=True)
        text = ",".join(flat.keys()) + "\n" + _cells(flat.values())
    else:
        lines = []
        for key, val in _flatten_report(report, lists=False).items():
            body = " ".join(map(_table_num, val)) if isinstance(val, (list, tuple)) else _table_num(val)
            lines.append(f"{key:<28} {body}")
        text = "\n".join(lines)
    _write_out(text, args)


def _table_num(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _write_out(text: str, args) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_analytic(args) -> int:
    params = _params_from(args)
    report = _analytic_report(params, Strategy(args.strategy), args)
    _emit(report, args)
    return 0


def cmd_simulate(args) -> int:
    from . import oracle
    params = _params_from(args)
    sim = oracle.simulate(
        params,
        Strategy(args.strategy),
        trials=args.trials,
        seed=args.seed,
        max_steps=args.max_steps,
        workers=args.workers,
    )
    states = sorted(sim.absorption_counts)
    report = {
        "params": {"p": params.p, "s": params.s, "i0": params.i0},
        "strategy": args.strategy,
        "trials": sim.trials,
        "seed": sim.seed,
        "generator": dict(sim.generator),
        "escaped": sim.escaped,
        "trial_steps": sim.trial_steps,
        "estimates": {
            str(state): {
                "probability": sim.probability(state)[0],
                "probability_se": sim.probability(state)[1],
                "killed_time": sim.killed_time(state)[0],
                "killed_time_se": sim.killed_time(state)[1],
            }
            for state in states
        },
        "mean_time": sim.mean_time,
        "mean_time_se": sim.mean_time_se,
    }
    _emit(report, args)
    return 0


def cmd_exact(args) -> int:
    from . import oracle
    params = _params_from(args)
    _require_kmax(args.kmax)
    sol = oracle.solve_exact(params, Strategy(args.strategy))
    report = {
        "params": {"p": params.p, "s": params.s, "i0": params.i0},
        "strategy": args.strategy,
        "truncation_k": sol.truncation_k,
        "squarings": sol.squarings,
        "fixed_point_residual": sol.fixed_point_residual,
        "error_estimate": sol.error_estimate,
        "escape_mass": sol.escape_mass,
        "absorption": {
            "p0": sol.masses.at(0),
            "pk": sol.masses.upto(args.kmax)[1:],
        },
        "times": {
            "m_total": sol.m_total,
            "et": sol.times.upto(args.kmax),
        },
    }
    _emit(report, args)
    return 0


def cmd_mgf(args) -> int:
    params = _params_from(args)
    _require_kmax(args.kmax)
    strategy = Strategy(args.strategy)
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
    _emit(report, args)
    return 0


def cmd_verify(args) -> int:
    from . import verify  # only this command needs the suite

    checks = verify.run_all(
        quick=args.quick,
        trials=args.trials,
        seed=args.seed,
        inject_wrong_mb=args.inject_wrong_mb,
    )
    failures = [c for c in checks if not c.passed]
    if args.format == "json":
        print(json.dumps([c._asdict() for c in checks], indent=2))
    else:
        width = max(len(c.name) for c in checks)
        for c in checks:
            print(f"{'PASS' if c.passed else 'FAIL'}  {c.name:<{width}}  {c.detail}")
        print(
            f"{len(checks) - len(failures)}/{len(checks)} checks passed"
            + ("" if not failures else f"; first failure: {failures[0].name}")
        )
    return 1 if failures else 0


def _parse_range(text: str, integer: bool = False) -> list:
    """``start:stop:step`` (inclusive, possibly empty) or a single value, each part an int if ``integer``."""
    parts = text.split(":")
    cast = int if integer else float
    try:
        if len(parts) == 1:
            return [cast(parts[0])]
        if len(parts) != 3:
            raise ValueError
        start, stop, step = (cast(x) for x in parts)
        if step <= 0 or not all(map(math.isfinite, (start, stop, step))):
            raise ValueError
        values = []
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        for idx in range(max(count, 0)):
            val = start + idx * step
            values.append(val if integer else round(val, 12))
        return values
    except (ValueError, OverflowError):  # an int bound past float range overflows isfinite
        raise ParameterError(f"malformed range {text!r}; use start:stop:step")


def _sweep_cells(params: WalkParams, strategy: Strategy, kmax: int) -> str:
    """The cells of a sweep row that depend on the strategy, p0 through et3."""
    prof = metrics.absorption_profile(params, strategy)
    times = _times_block(params, strategy, 3)
    return _cells((*prof.upto(3), prof.beyond(kmax), times["m_total"], *times["et"]))


def cmd_sweep(args) -> int:
    ps = _parse_range(args.p)
    ss = _parse_range(args.s)
    i0s = _parse_range(args.i0, integer=True)
    strategies = (
        [Strategy.A, Strategy.B, Strategy.C]
        if args.strategy == "all"
        else [Strategy(args.strategy)]
    )
    lines = [",".join(_SWEEP_COLUMNS)]
    for p in ps:  # nested ascending loops give lexicographic row order
        for s in ss:
            for i0 in i0s:
                params = WalkParams(p=p, s=s, i0=i0)
                _require_kmax(args.kmax)  # after the instance's own checks, ahead of its rows
                # mgf and charpoly keep the last instance's z=1 characteristic and
                # derivatives, so every column of the instance shares one solve; the
                # cells that do not depend on the strategy are formatted once
                ratio = metrics.bc_ratio(params) if 0.0 < s < 1.0 else None
                lead = _cells((params.p, params.s, params.i0))
                omega = _float_cell(params.omega)
                trail = _cells((ratio, *_diagnostics(params).values()))
                for strategy in strategies:
                    cells = _sweep_cells(params, strategy, args.kmax)
                    lines.append(f"{lead},{strategy.value},{omega},{cells},{trail}")
    _write_out("\n".join(lines), args)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _add_instance_flags(sub, strategy_all: bool = False) -> None:
    sub.add_argument("--p", type=float, required=True, help="step-up probability, in (0,1)")
    sub.add_argument("--s", type=float, required=True, help="barrier stop probability, in [0,1]")
    sub.add_argument("--i0", type=int, required=True, help="initial capital / barrier spacing, >= 1")
    choices = ["A", "B", "C"] + (["all"] if strategy_all else [])
    default = "all" if strategy_all else None
    sub.add_argument(
        "--strategy",
        choices=choices,
        required=not strategy_all,
        default=default,
        help="stopping strategy" + (" (or 'all')" if strategy_all else ""),
    )


def _add_output_flags(sub) -> None:
    sub.add_argument("--format", choices=["json", "csv", "table"], default="json")
    sub.add_argument("--out", default=None, help="write output to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruinwalk",
        description="Barrier-stopping ruin walks: closed forms, oracles, verification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    an = subs.add_parser("analytic", help="closed-form absorption profile and times")
    _add_instance_flags(an)
    an.add_argument("--kmax", type=int, default=64)
    an.add_argument("--z", type=float, default=None, help="also report generating-function values at this z")
    an.add_argument("--conditional", action="store_true",
                    help="add conditional mean times et_k / p_k (killed values are the default)")
    _add_output_flags(an)
    an.set_defaults(func=cmd_analytic)

    si = subs.add_parser("simulate", help="seeded Monte Carlo estimates")
    _add_instance_flags(si)
    si.add_argument("--trials", type=int, default=1_000_000)
    si.add_argument("--seed", type=int, default=0)
    si.add_argument("--max-steps", type=int, default=10_000_000, dest="max_steps")
    si.add_argument("--workers", type=int, default=1,
                    help="processes that walk the trial ranges, at most one per range and usable "
                         "CPU; the output does not depend on it")
    _add_output_flags(si)
    si.set_defaults(func=cmd_simulate)

    ex = subs.add_parser(
        "exact", help="first-step linear solve with an exact periodic-tail boundary condition"
    )
    _add_instance_flags(ex)
    ex.add_argument("--kmax", type=int, default=64)
    _add_output_flags(ex)
    ex.set_defaults(func=cmd_exact)

    mg = subs.add_parser("mgf", help="generating-function values at a given z")
    _add_instance_flags(mg)
    mg.add_argument("--z", type=float, required=True)
    mg.add_argument("--state", type=int, default=None)
    mg.add_argument("--kmax", type=int, default=8)
    mg.add_argument("--tol", type=float, default=1e-10)
    mg.add_argument("--check-dp", action="store_true", dest="check_dp",
                    help="cross-check one value against the propagation oracle (z < 1)")
    _add_output_flags(mg)
    mg.set_defaults(func=cmd_mgf)

    ve = subs.add_parser("verify", help="run the agreement suite; exit 0 iff all pass")
    ve.add_argument("--quick", action="store_true", help="skip the Monte Carlo layer")
    ve.add_argument("--trials", type=int, default=1_000_000)
    ve.add_argument("--seed", type=int, default=20240914)
    ve.add_argument("--format", choices=["text", "json"], default="text",
                    help="one line per check, or a JSON array of {name, passed, detail}")
    ve.add_argument("--inject-wrong-mb", action="store_true",
                    dest="inject_wrong_mb", help=argparse.SUPPRESS)
    ve.set_defaults(func=cmd_verify)

    sw = subs.add_parser(
        "sweep",
        help="CSV over parameter ranges",
        epilog="Columns, in order: " + ", ".join(_SWEEP_COLUMNS)
        + ". Ranges use start:stop:step (inclusive); single values are fine. "
        "Rows are ordered lexicographically over (p, s, i0, strategy).",
    )
    sw.add_argument("--p", required=True, help="value or range, e.g. 0.30:0.70:0.05")
    sw.add_argument("--s", required=True, help="value or range")
    sw.add_argument("--i0", required=True, help="value or range (integers)")
    sw.add_argument("--strategy", choices=["A", "B", "C", "all"], default="all")
    sw.add_argument("--kmax", type=int, default=64)
    sw.add_argument("--out", default=None)
    sw.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Python's documented SIGPIPE recipe: send what is left to devnull, exit 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ParameterError, UnsupportedRegimeError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(json.dumps({"error": f"oracle did not converge: {exc}"}), file=sys.stderr)
        return 1
    except ModuleNotFoundError as exc:  # Monte Carlo and mass propagation import numpy on first use
        if exc.name != "numpy":
            raise
        print(json.dumps({"error": f"this command needs numpy: {exc}"}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
