"""Command-line front door: closed forms, oracles, cross-verification, sweeps.

Subcommands
-----------
analytic   absorption profile, mean times and root diagnostics for one instance
simulate   seeded Monte Carlo estimates with standard errors
exact      first-step linear solve with an exact tail condition (the exact oracle)
mgf        generating-function values at a given z
verify     the three-layer agreement suite; exit 0 iff every check passes
sweep      CSV over parameter ranges (``--p 0.3:0.7:0.05`` style)

Exit codes: 0 success, 1 verification failure, an unresolved oracle, a worker
process that ended without its result, a closed stdout or a missing numpy,
2 usage or parameter error.
Errors are emitted as one-line JSON on stderr.  JSON output carries full
float precision; ``--format table`` rounds to six significant digits.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys

from .core import (
    ConvergenceError,
    ParameterError,
    Strategy,
    UnsupportedRegimeError,
    WalkParams,
    WorkerError,
)

# one group a line: the instance and strategy, the cells that depend on the
# strategy, and more of the instance; cmd_sweep formats the instance's once
_SWEEP_COLUMNS = (
    "p", "s", "i0", "strategy", "omega",
    "p0", "p1", "p2", "p3", "tail_bound", "m_total", "et0", "et1", "et2", "et3",
    "bc_ratio", "tau1", "tau2", "theta", "phi1", "phi2",
)
_SWEEP_MAX_ROWS = 10**7  # a larger grid is refused before any of its values is built
# a grid forks only if each process gets this many instances: on 2 cores a
# fork broke even at about 200, costing some 10 ms beside half the walk
_SWEEP_SHARE_MIN = 128


def _params_from(args) -> WalkParams:
    return WalkParams(p=args.p, s=args.s, i0=args.i0)


def _require_kmax(kmax: int) -> None:
    if kmax < 1:
        raise ParameterError(f"kmax must be >= 1, got {kmax}")


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
        import json  # loaded only where JSON is written
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
    from . import reports
    report = reports.analytic_report(_params_from(args), Strategy(args.strategy), args)
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
    from . import reports
    _emit(reports.mgf_report(_params_from(args), Strategy(args.strategy), args), args)
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
        import json
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


def _parse_range(text: str, integer: bool = False) -> tuple:
    """``start:stop:step`` (inclusive, possibly empty) or a single value, each part an int if ``integer``.

    Returns the count and an iterator that builds the values as it is read,
    so that a grid's size is known before any of its values exists.
    """
    parts = text.split(":")
    cast = int if integer else float
    try:
        if len(parts) == 1:
            return 1, iter((cast(parts[0]),))
        if len(parts) != 3:
            raise ValueError
        start, stop, step = (cast(x) for x in parts)
        if step <= 0 or not all(map(math.isfinite, (start, stop, step))):
            raise ValueError
        count = max(int(math.floor((stop - start) / step + 1e-9)) + 1, 0)
    except (ValueError, OverflowError):  # an int bound past float range overflows isfinite
        raise ParameterError(f"malformed range {text!r}; use start:stop:step")
    values = (start + idx * step for idx in range(count))
    return count, values if integer else (round(val, 12) for val in values)


def cmd_sweep(args) -> int:
    from . import reports  # here, so that a forked share inherits the compiled closed forms
    axes = [_parse_range(args.p), _parse_range(args.s), _parse_range(args.i0, integer=True)]
    strategies = (
        [Strategy.A, Strategy.B, Strategy.C]
        if args.strategy == "all"
        else [Strategy(args.strategy)]
    )
    n = math.prod(count for count, _ in axes)
    if n * len(strategies) > _SWEEP_MAX_ROWS:
        raise ParameterError(f"the sweep has more than {_SWEEP_MAX_ROWS} rows")
    ps, ss, i0s = (list(values) for _, values in axes)

    def rows(share: tuple[int, int]) -> list[str]:
        # the product's ascending order is the rows' lexicographic order
        instances = itertools.islice(itertools.product(ps, ss, i0s), *share)
        return reports.sweep_rows(instances, strategies, args.kmax)

    # contiguous equal shares, one per usable CPU and each of at least
    # _SWEEP_SHARE_MIN instances, joined in order: the CSV and the first
    # failing instance's error do not depend on how many there are
    n_shares = 1
    if n >= 2 * _SWEEP_SHARE_MIN:
        from . import parallel
        n_shares = min(parallel.usable_cpus(), n // _SWEEP_SHARE_MIN)
    shares = [(n * k // n_shares, n * (k + 1) // n_shares) for k in range(n_shares)]
    parts = parallel.run_shares(rows, shares, "sweep") if n_shares > 1 else [rows(shares[0])]
    _write_out("\n".join([",".join(_SWEEP_COLUMNS)] + [row for part in parts for row in part]), args)
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


def _print_error(message: str) -> None:
    import json
    print(json.dumps({"error": message}), file=sys.stderr)


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
        _print_error(str(exc))
        return 2
    except ConvergenceError as exc:
        _print_error(f"oracle did not converge: {exc}")
        return 1
    except WorkerError as exc:
        _print_error(str(exc))
        return 1
    except ModuleNotFoundError as exc:  # Monte Carlo and mass propagation import numpy on first use
        if exc.name != "numpy":
            raise
        _print_error(f"this command needs numpy: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
