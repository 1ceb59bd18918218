import importlib.util
import json
import math
import os
import subprocess
import sys

import pytest

import ruinwalk
from ruinwalk import charpoly as cp
from ruinwalk import cli, core, metrics, mgf, oracle, parallel, reports, verify
from ruinwalk.core import ParameterError, Strategy, WalkParams

import decimal_reference as ref
from conftest import SQRT3, assert_every_child_reaped, small_grid


def _off(values, k):
    """``values`` with entry k off by one part in a million."""
    return (*values[:k], values[k] * (1.0 + 1e-6), *values[k + 1:])


def run_cli(args, capsys):
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestAnalytic:
    def test_json_schema_and_spot_value(self, capsys):
        code, out, _ = run_cli(
            ["analytic", "--p", "0.5", "--s", "0.5", "--i0", "1", "--strategy", "B"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"params", "strategy", "absorption", "times", "diagnostics"}
        assert report["absorption"]["p0"] == pytest.approx(4.0 - 2.0 * SQRT3, rel=1e-9)
        assert report["params"]["q"] == 0.5
        assert set(report["diagnostics"]) == {"tau1", "tau2", "theta", "phi1", "phi2"}
        assert len(report["absorption"]["pk"]) == 64

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("i0", [1, 2, 5])
    def test_driftless_exact_route_matches_closed_forms(self, s, i0, strategy, capsys):
        # the driftless walk with 0 < s < 1 still reports the exact solver's
        # times; the closed forms must agree before that route can go
        code, out, _ = run_cli(
            ["analytic", "--p", "0.5", "--s", str(s), "--i0", str(i0),
             "--strategy", strategy.value, "--kmax", "16"],
            capsys,
        )
        assert code == 0
        times = json.loads(out)["times"]
        assert times["source"] == "exact"
        params = WalkParams(0.5, s, i0)
        tp = metrics.time_profile(params, strategy)
        pairs = [(times["m_total"], metrics.mean_time_any(params, strategy))] + [
            (got, tp.at(k)) for k, got in enumerate(times["et"])
        ]
        assert len(pairs) == 18
        for got, want in pairs:
            assert abs(got - want) <= 1e-7 * max(abs(want), 1e-9)

    @pytest.mark.parametrize("command", ["analytic", "sweep", "exact"])
    def test_has_no_tol_option(self, command, capsys):
        # their output never depended on it (exact's reached only how far the
        # solver filled its per-barrier dicts); mgf keeps its own for --check-dp
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--p", "0.5", "--s", "0.5", "--i0", "1", "--strategy", "A",
                      "--tol", "1e-10"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_json_round_trips(self, capsys):
        args = ["analytic", "--p", "0.45", "--s", "0.3", "--i0", "2", "--strategy", "C"]
        code, out, _ = run_cli(args, capsys)
        report = json.loads(out)
        assert json.loads(json.dumps(report)) == report

    def test_no_stop_risk_seeking_is_certain_ruin(self, capsys):
        code, out, _ = run_cli(
            ["analytic", "--p", "0.5", "--s", "0", "--i0", "2", "--strategy", "C"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["absorption"]["p0"] == 1.0

    def test_invalid_p_exits_2_with_json_error(self, capsys):
        code, out, err = run_cli(
            ["analytic", "--p", "1.2", "--s", "0.5", "--i0", "1", "--strategy", "B"],
            capsys,
        )
        assert code == 2
        assert "error" in json.loads(err)

    def test_theta_overflow_exits_2_with_json_error(self, capsys):
        code, out, err = run_cli(
            ["analytic", "--p", "0.9", "--s", "0.5", "--i0", "330", "--strategy", "B"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "overflow" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["analytic", "--p", "0.99", "--s", s, "--i0", "200", "--strategy", strategy]
            for s in ("0", "0.5", "1")
            for strategy in "ABC"
        ]
        + [["mgf", "--p", "0.5", "--s", "0.5", "--i0", "200", "--strategy", "A", "--z", "0.01"]],
        ids=lambda argv: " ".join(argv[:1] + argv[2::2]),
    )
    def test_powers_out_of_float_range_exit_2_with_json_error(self, argv, capsys):
        # omega**i0 or the step-root powers overflow: each escaped as a
        # traceback with exit 1
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "flow" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["analytic", "--p", "0.01", "--s", s, "--i0", "200", "--strategy", strategy]
            for s in ("0", "1")
            for strategy in "ABC"
        ]
        + [["exact", "--p", "0.99", "--s", "0.5", "--i0", "200", "--strategy", strategy]
           for strategy in "ABC"],
        ids=lambda argv: " ".join(argv[:1] + argv[2::2]),
    )
    def test_answers_beside_the_float_range_limits_remain(self, argv, capsys):
        # omega**i0 underflows to 0 here, which the limit regimes read as a value;
        # the exact solver never forms the powers
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert math.isfinite(json.loads(out)["absorption"]["p0"])

    def test_phi2_underflow_answers_like_the_exact_solver(self, strategy, capsys):
        # phi2 rounds to 0 here, which exited 2; the README's tolerances hold
        argv = ["--p", "0.01", "--s", "0.5", "--i0", "200", "--strategy", strategy.value, "--kmax", "8"]
        reports = []
        for command in ("analytic", "exact"):
            code, out, _ = run_cli([command, *argv], capsys)
            assert code == 0
            reports.append(json.loads(out))
        got, want = reports
        for key in ("p0", "pk"):
            assert got["absorption"][key] == pytest.approx(want["absorption"][key], rel=0.0, abs=1e-9)
        assert got["times"]["m_total"] == pytest.approx(want["times"]["m_total"], rel=1e-7)
        assert got["times"]["et"] == pytest.approx(want["times"]["et"], rel=1e-7, abs=0.0)

    def test_non_finite_mean_time_exits_2_with_json_error(self, capsys):
        code, out, err = run_cli(
            ["analytic", "--p", "0.4", "--s", "1e-320", "--i0", "2", "--strategy", "A"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert "not finite" in json.loads(err)["error"]

    def test_mean_at_the_driftless_double_root_answers(self, capsys):
        # m_total was 4000173.797 here against the exact solver's 3999995.99999,
        # and then exit 2 while phi1 came from theta**2 - 4 omega**i0
        code, out, _ = run_cli(
            ["analytic", "--p", "0.5", "--s", "1e-12", "--i0", "2", "--strategy", "A"],
            capsys,
        )
        assert code == 0
        m_total = json.loads(out)["times"]["m_total"]
        params = WalkParams(0.5, 1e-12, 2)
        assert m_total == pytest.approx(oracle.solve_exact(params, Strategy.A).m_total, rel=1e-7)
        assert m_total == pytest.approx(ref.mean_time(params, Strategy.A), rel=1e-14)

    def test_driftless_route_falls_back_where_the_exact_solver_does_not_converge(self, capsys):
        # a period's eigenvalues do not separate at s = 1e-200: this exited 1
        code, out, _ = run_cli(
            ["analytic", "--p", "0.5", "--s", "1e-200", "--i0", "2", "--strategy", "A"], capsys
        )
        assert code == 0
        times = json.loads(out)["times"]
        assert times["source"] == "analytic"
        params = WalkParams(0.5, 1e-200, 2)
        assert times["m_total"] == pytest.approx(ref.mean_time(params, Strategy.A), rel=1e-14)

    @pytest.mark.parametrize("s", ["1e-17", "1e-200"])
    @pytest.mark.parametrize("p", ["0.4", "0.5", "0.6", "0.7"])
    def test_barrier_roots_near_one_exit_0_or_2(self, p, s, capsys):
        # a barrier root rounds to 1 here: no ZeroDivisionError may escape as a traceback
        for i0 in ("1", "2", "5"):
            for strategy in "ABC":
                code, out, err = run_cli(
                    ["analytic", "--p", p, "--s", s, "--i0", i0, "--strategy", strategy],
                    capsys,
                )
                assert code in (0, 2)
                if code == 2:
                    assert out == ""
                    assert err.count("\n") == 1
                    assert "error" in json.loads(err)

    def test_conditional_times_flag(self, capsys):
        code, out, _ = run_cli(
            ["analytic", "--p", "0.4", "--s", "0.5", "--i0", "1", "--strategy", "B",
             "--kmax", "8", "--conditional"],
            capsys,
        )
        report = json.loads(out)
        cond = report["conditional_times"]
        et = report["times"]["et"]
        p0 = report["absorption"]["p0"]
        assert cond[0] == pytest.approx(et[0] / p0, rel=1e-12)

    def test_mgf_values_at_requested_z(self, capsys):
        code, out, _ = run_cli(
            ["analytic", "--p", "0.4", "--s", "0.5", "--i0", "2", "--strategy", "A",
             "--kmax", "4", "--z", "0.5"],
            capsys,
        )
        report = json.loads(out)
        assert report["mgf"]["z"] == 0.5
        assert len(report["mgf"]["barrier_values"]) == 5

    def test_table_format(self, capsys):
        code, out, _ = run_cli(
            ["analytic", "--p", "0.4", "--s", "0.5", "--i0", "1", "--strategy", "B",
             "--kmax", "2", "--format", "table"],
            capsys,
        )
        assert code == 0
        assert "absorption.p0" in out

    @pytest.mark.parametrize("strategy", "ABC")
    def test_times_near_total_stop_match_the_exact_solver(self, strategy, capsys):
        # B's et1 printed 1.0222 against 0.96, and et did not sum to m_total
        argv = ["--p", "0.4", "--s", "0.99999999999999", "--i0", "2", "--strategy", strategy, "--kmax", "2"]
        _, analytic, _ = run_cli(["analytic", *argv], capsys)
        _, exact, _ = run_cli(["exact", *argv], capsys)
        got, want = json.loads(analytic)["times"], json.loads(exact)["times"]
        for g, w in zip(got["et"] + [got["m_total"]], want["et"] + [want["m_total"]]):
            assert abs(g - w) <= 1e-7 * max(abs(w), 1e-9), (g, w)


class TestSimulate:
    def test_deterministic_output(self, capsys):
        args = ["simulate", "--p", "0.5", "--s", "0.5", "--i0", "1", "--strategy", "B",
                "--trials", "20000", "--seed", "42"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_reports_trial_steps_and_is_identical_across_workers(self, capsys):
        args = ["simulate", "--p", "0.5", "--s", "0.5", "--i0", "1", "--strategy", "B",
                "--trials", "140000", "--seed", "11", "--max-steps", "1000"]
        _, out1, _ = run_cli(args + ["--workers", "1"], capsys)
        _, out3, _ = run_cli(args + ["--workers", "3"], capsys)
        assert out1 == out3
        report = json.loads(out1)
        assert isinstance(report["trial_steps"], int)
        walked = sum(est["killed_time"] for est in report["estimates"].values()) * report["trials"]
        assert report["trial_steps"] == pytest.approx(walked + 1000 * report["escaped"], rel=1e-12)
        assert report["generator"]["output_lane"] == "step % 4"

    def test_all_stop_eager_mean_time_zero(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--p", "0.3", "--s", "1", "--i0", "2", "--strategy", "A",
             "--trials", "500", "--seed", "1"],
            capsys,
        )
        assert json.loads(out)["mean_time"] == 0.0

    def test_no_stop_mean_near_classical_value(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--p", "0.4", "--s", "0", "--i0", "2", "--strategy", "B",
             "--trials", "200000", "--seed", "7"],
            capsys,
        )
        report = json.loads(out)
        assert abs(report["mean_time"] - 10.0) < 4.0 * report["mean_time_se"]

    @pytest.mark.parametrize(
        "how, code, message",
        [("raises", 2, "refused in a worker"), ("dies", 1, "Monte Carlo worker 1 ended without a result")],
    )
    def test_a_failing_worker_exits_with_one_line_json(self, capsys, monkeypatch, how, code, message):
        # three ranges of 1,000 trials on two CPUs: one forked worker, which
        # inherits the patched range walker
        monkeypatch.setattr(oracle, "_RANGE", 1000)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        parent, real = os.getpid(), oracle._range_trials

        def range_trials(*args):
            if os.getpid() != parent:
                if how == "raises":
                    raise ParameterError("refused in a worker")
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(oracle, "_range_trials", range_trials)
        got, out, err = run_cli(
            ["simulate", "--p", "0.5", "--s", "0.3", "--i0", "2", "--strategy", "B",
             "--trials", "3000", "--seed", "5", "--workers", "2"],
            capsys,
        )
        assert got == code
        assert out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert message in json.loads(err)["error"]


class TestExact:
    def test_unconverged_stopping_walk_exits_1_with_json_error(self, capsys, monkeypatch):
        def unresolved(*args, **kwargs):
            raise oracle.ConvergenceError("the period map's eigenvalues are too close to separate")

        monkeypatch.setattr(oracle, "solve_exact", unresolved)
        code, out, err = run_cli(
            ["exact", "--p", "0.55", "--s", "1e-4", "--i0", "2", "--strategy", "B"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "did not converge" in json.loads(err)["error"]

    def test_answers_a_rarely_stopping_walk(self, capsys):
        # truncation doubling exited 1 here
        code, out, _ = run_cli(
            ["exact", "--p", "0.55", "--s", "1e-4", "--i0", "2", "--strategy", "B",
             "--kmax", "3"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["times"]["m_total"] == pytest.approx(6624.9197, rel=1e-8)
        assert report["escape_mass"] < 1e-12

    def test_reports_solution(self, capsys):
        code, out, _ = run_cli(
            ["exact", "--p", "0.5", "--s", "0.5", "--i0", "1", "--strategy", "B",
             "--kmax", "8"],
            capsys,
        )
        report = json.loads(out)
        assert report["absorption"]["p0"] == pytest.approx(4 - 2 * SQRT3, abs=1e-9)
        assert report["times"]["m_total"] == pytest.approx(2 * (SQRT3 - 1), abs=1e-9)
        assert 0 < report["squarings"] <= 64
        assert 0.0 <= report["fixed_point_residual"] < 1e-15

    def test_kmax_reaches_past_the_reported_barriers(self, capsys):
        params = WalkParams(0.45, 0.5, 1)
        sol = oracle.solve_exact(params, Strategy.A)
        kmax = sol.truncation_k + 5
        code, out, _ = run_cli(
            ["exact", "--p", "0.45", "--s", "0.5", "--i0", "1", "--strategy", "A",
             "--kmax", str(kmax)],
            capsys,
        )
        report = json.loads(out)
        assert report["absorption"]["pk"] == [sol.masses.at(k) for k in range(1, kmax + 1)]
        assert report["times"]["et"] == [sol.times.at(k) for k in range(kmax + 1)]
        assert report["absorption"]["pk"][-1] > 0.0

    def test_tail_out_of_range_exits_1_with_json_error(self, capsys):
        # this printed the s = 0 answer, m_total 3.33, with exit 0
        code, out, err = run_cli(
            ["exact", "--p", "0.6", "--s", "1e-200", "--i0", "1", "--strategy", "A"], capsys
        )
        assert (code, out) == (1, "")
        assert "underflows" in json.loads(err)["error"]

    def test_reports_parabolic_walk_without_iterating(self, capsys):
        code, out, _ = run_cli(
            ["exact", "--p", "0.5", "--s", "0", "--i0", "2", "--strategy", "B"], capsys
        )
        report = json.loads(out)
        assert report["squarings"] == 0
        assert report["absorption"]["p0"] == 1.0
        assert report["times"]["m_total"] == math.inf


class TestMgfCommand:
    def test_dp_cross_check_gap_is_small(self, capsys):
        code, out, _ = run_cli(
            ["mgf", "--p", "0.5", "--s", "0.5", "--i0", "2", "--strategy", "A",
             "--z", "0.5", "--state", "1", "--check-dp"],
            capsys,
        )
        report = json.loads(out)
        assert report["dp_gap"] < 1e-8

    @pytest.mark.parametrize("strategy", "ABC")
    def test_total_stop_answers_and_matches_propagation(self, strategy, capsys):
        # exited 2: the generating functions refused s = 1
        code, out, _ = run_cli(
            ["mgf", "--p", "0.4", "--s", "1", "--i0", "2", "--strategy", strategy,
             "--z", "0.5", "--state", "3", "--check-dp"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["dp_gap"] <= 1e-8

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_dp_tolerance_that_is_not_finite_and_positive_exits_2(self, tol, capsys):
        code, out, err = run_cli(
            ["mgf", "--p", "0.4", "--s", "0.5", "--i0", "1", "--strategy", "A",
             "--z", "0.5", "--check-dp", "--tol", tol],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": f"tol must be finite and > 0, got {float(tol)}"}


@pytest.mark.parametrize("kmax", ["0", "-3"])
@pytest.mark.parametrize(
    "command",
    [
        ["analytic", "--strategy", "A"],
        ["exact", "--strategy", "A"],
        ["mgf", "--strategy", "A", "--z", "0.5"],
        ["sweep"],
    ],
    ids=lambda command: command[0],
)
def test_kmax_below_one_exits_2_with_one_line_of_json(command, kmax, capsys):
    code, out, err = run_cli(
        [command[0], "--p", "0.4", "--s", "0.5", "--i0", "2", *command[1:], "--kmax", kmax], capsys
    )
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": f"kmax must be >= 1, got {kmax}"}


class TestVerify:
    def test_quick_suite_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--quick"], capsys)
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_injected_wrong_mean_time_fails_named_check(self, capsys):
        code, out, _ = run_cli(["verify", "--quick", "--inject-wrong-mb"], capsys)
        assert code == 1
        assert "m_B relation" in out
        failing = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(failing) == 1 and "m_B relation" in failing[0]

    @pytest.mark.parametrize("inject", [False, True])
    def test_json_format_carries_the_checks_of_text_mode(self, inject, capsys):
        flags = ["verify", "--quick"] + (["--inject-wrong-mb"] if inject else [])
        code, out, _ = run_cli(flags, capsys)
        json_code, json_out, _ = run_cli(flags + ["--format", "json"], capsys)
        checks = json.loads(json_out)
        assert json_code == code == (1 if inject else 0)
        assert all(list(check) == ["name", "passed", "detail"] for check in checks)
        width = max(len(check["name"]) for check in checks)
        lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
        assert lines == [
            f"{'PASS' if c['passed'] else 'FAIL'}  {c['name']:<{width}}  {c['detail']}"
            for c in checks
        ]
        assert sum(not check["passed"] for check in checks) == int(inject)

    def test_exact_agreement_names_its_worst_cases(self):
        worst = {}
        for check in verify.check_exact_agreement():
            worst[check] = float(check.detail.split()[0].removeprefix("worst="))
            where = dict(item.split("=") for item in check.detail.split(" at ")[1].split() if "=" in item)
            params = WalkParams(float(where["p"]), float(where["s"]), int(where["i0"]))
            strategy = Strategy(where["strategy"])
            sol = oracle.solve_exact(params, strategy)
            prof = metrics.absorption_profile(params, strategy)
            tp = metrics.time_profile(params, strategy)
            if "tail" in check.name:  # one figure per instance and strategy
                ours = (prof.rho, prof.gap, tp.drho)
                its = (sol.masses.rho, sol.masses.gap, sol.times.drho)
                gap = max(abs(a - b) / abs(b) for a, b in zip(ours, its))
            elif "absorption" in check.name:
                k = int(where["k"])  # a head site: the tail is judged by the tail check
                gap = abs(prof.head[k] - sol.masses.head[k])
            else:
                site = check.detail.split()[-1]  # a head k, the mean or the tail's mass
                if site == "total":
                    got, want = metrics.mean_time_any(params, strategy), sol.m_total
                elif site == "tail":
                    got, want = tp.mass, sol.times.mass
                else:
                    k = int(where["k"])
                    got, want = tp.head[k], sol.times.head[k]
                gap = abs(got - want) / max(abs(want), 1e-9)
            assert f"{gap:.3e}" == f"{worst[check]:.3e}"
        # the profiles' fields agree to rounding
        mass, time, tail = worst.values()
        assert mass <= 1e-12 and time <= 1e-10 and tail <= 1e-14

    @pytest.mark.parametrize(
        "function, field, factor, failing",
        [
            ("time_profile", "mass", 1.0 + 1e-6, "mean times match the exact solver"),
            ("time_profile", "drho", 1.0 + 1e-10, "match the exact solver's tail"),
            ("absorption_profile", "rho", 1.0 + 1e-10, "match the exact solver's tail"),
        ],
    )
    def test_exact_agreement_fails_on_a_patched_tail(self, function, field, factor, failing, monkeypatch):
        # a tail field off by more than its tolerance fails its check, and only that one
        original = getattr(metrics, function)

        def patched(params, strategy):
            profile = original(params, strategy)
            return profile._replace(**{field: getattr(profile, field) * factor})

        monkeypatch.setattr(metrics, function, patched)
        failed = [check.name for check in verify.check_exact_agreement() if not check.passed]
        assert len(failed) == 1 and failing in failed[0]

    def test_time_tails_share_the_mass_tails_ratio(self):
        # so the tail check reads rho and 1 - rho once per side, from the mass profile
        for params in small_grid():
            for strategy in Strategy:
                prof, tp = metrics.absorption_profile(params, strategy), metrics.time_profile(params, strategy)
                sol = oracle.solve_exact(params, strategy)
                assert (tp.rho, tp.gap) == (prof.rho, prof.gap)
                assert (sol.times.rho, sol.times.gap) == (sol.masses.rho, sol.masses.gap)

    @pytest.mark.parametrize(
        "check, module, function, edit",
        [
            ("check_step_roots", cp, "tau_roots", lambda roots: roots._replace(tau2=roots.tau2 * (1.0 + 1e-6))),
            ("check_barrier_recurrence", mgf, "mgf_a", lambda a: a._replace(head=_off(a.head, 1))),
            ("check_c_seed_relations", mgf, "mgf_c", lambda c: c._replace(head=_off(c.head, 2))),
            ("check_barrier_geometry", mgf, "mgf_a", lambda a: a._replace(head=_off(a.head, 2))),
            ("check_bc_ratio", metrics, "bc_ratio", lambda ratio: ratio * (1.0 + 1e-6)),
        ],
        ids=["step_roots", "barrier_recurrence", "c_seed_relations", "barrier_geometry", "bc_ratio"],
    )
    def test_trimmed_check_fails_on_a_value_off_by_1e_6(self, check, module, function, edit, monkeypatch):
        # each check kept only the evaluations that read an independently built value
        original = getattr(module, function)
        monkeypatch.setattr(module, function, lambda *args: edit(original(*args)))
        assert not getattr(verify, check)().passed

    def test_monte_carlo_check_is_the_same_on_one_cpu_or_two(self, forks, monkeypatch):
        # 2,000 trials in ranges of 1,000: with two CPUs each point forks a worker
        monkeypatch.setattr(oracle, "_RANGE", 1000)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        records, fork_counts = [], []
        for cpus in (1, 2):
            monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
            records.append(verify.check_monte_carlo(trials=2000, seed=7))
            fork_counts.append(len(forks))
        assert len(records[0]) == len(verify.MC_GRID)
        assert records[0] == records[1]
        # none on one CPU; on two, one per point (and per retry)
        assert fork_counts[0] == 0 and fork_counts[1] >= len(verify.MC_GRID)


class TestReports:
    INSTANCE = ["--p", "0.4", "--s", "0.3", "--i0", "2", "--strategy", "B"]

    @pytest.mark.parametrize("argv", [
        ["analytic", *INSTANCE, "--z", "0.5", "--conditional"],
        ["analytic", "--p", "0.5", "--s", "0.3", "--i0", "2", "--strategy", "A"],
        ["exact", *INSTANCE],
        ["mgf", *INSTANCE, "--z", "0.5", "--state", "3", "--check-dp"],
        ["simulate", *INSTANCE, "--trials", "2000", "--seed", "3"],
    ])
    def test_hold_no_record(self, argv, monkeypatch):
        # a record is a tuple, which _emit would print as a list of its
        # fields: every list in a report is built, never a record passed on
        reports = []
        monkeypatch.setattr(cli, "_emit", lambda report, args: reports.append(report))
        assert cli.main(argv) == 0

        def walk(node):
            assert not hasattr(node, "_fields"), repr(node)
            if isinstance(node, dict):
                node = list(node.values())
            for child in node if isinstance(node, (list, tuple)) else ():
                walk(child)

        walk(reports[0])


class TestFloatCell:
    @pytest.mark.parametrize(
        "value, cell",
        [(math.inf, "inf"), (-math.inf, "-inf"), (0.1, "0.1"), (-0.0, "-0.0"), (3, "3"), (None, "")],
    )
    def test_cell_text(self, value, cell):
        assert cli._float_cell(value) == cell


class TestSweep:
    def test_three_point_sweep(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--p", "0.3:0.4:0.05", "--s", "0.5", "--i0", "1",
             "--strategy", "B"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4  # header + 3 rows
        header = lines[0].split(",")
        assert header == list(cli._SWEEP_COLUMNS)

    def test_bc_ratio_column_below_one(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--p", "0.3:0.7:0.2", "--s", "0.1:0.9:0.4", "--i0", "1",
             "--strategy", "B"],
            capsys,
        )
        lines = out.strip().splitlines()
        idx = lines[0].split(",").index("bc_ratio")
        for line in lines[1:]:
            assert float(line.split(",")[idx]) < 1.0

    def test_row_order_is_lexicographic(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--p", "0.3:0.4:0.1", "--s", "0.2:0.3:0.1", "--i0", "1",
             "--strategy", "all"],
            capsys,
        )
        lines = out.strip().splitlines()[1:]
        keys = []
        for line in lines:
            cells = line.split(",")
            keys.append((float(cells[0]), float(cells[1]), int(cells[2]), cells[3]))
        assert keys == sorted(keys)

    def test_empty_range_emits_header_only(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--p", "0.7:0.3:0.05", "--s", "0.5", "--i0", "1"],
            capsys,
        )
        assert code == 0
        assert out.strip().splitlines() == [",".join(cli._SWEEP_COLUMNS)]

    def test_malformed_range_exits_2(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--p", "0.3:bad", "--s", "0.5", "--i0", "1"], capsys
        )
        assert code == 2
        assert "error" in json.loads(err)

    @pytest.mark.parametrize("p", ["0.3:inf:0.1", "-inf:0.7:0.1", "0.3:0.7:inf", "0.3:nan:0.1"])
    def test_non_finite_range_bound_exits_2(self, p, capsys):
        # 0.3:inf:0.1 overflowed counting its rows: a raw OverflowError traceback and exit 1
        code, out, err = run_cli(["sweep", f"--p={p}", "--s", "0.5", "--i0", "1"], capsys)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": f"malformed range {p!r}; use start:stop:step"}

    @pytest.mark.parametrize("i0", ["1:3:0.5", "1.5:3:1", "1:2.5:1", "1.7"])
    def test_integer_range_with_a_fractional_part_exits_2(self, i0, capsys):
        # 1:3:0.5 printed i0 = 1, 2, 2, 2, 3: rounded steps repeated a row
        code, out, err = run_cli(["sweep", "--p", "0.4", "--s", "0.5", "--i0", i0], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": f"malformed range {i0!r}; use start:stop:step"}

    @staticmethod
    def unshared_row(p, s, i0, strategy, kmax):
        """One sweep row's cells from separate calls, each on its own fresh
        ``WalkParams``, so no call reuses a characteristic another one solved."""

        def fresh():
            return WalkParams(p, s, i0)

        prof = metrics.absorption_profile(fresh(), strategy)
        if p == 0.5 and 0.0 < s < 1.0:  # the CLI's exact-solver route
            sol = oracle.solve_exact(fresh(), strategy)
            m_total = metrics.mean_time_any(fresh(), strategy)
            et = [sol.times.at(k) for k in range(4)]
        else:
            tp = metrics.time_profile(fresh(), strategy)
            et = [tp.at(k) for k in range(4)]
            m_total = metrics.mean_time_any(fresh(), strategy)
        roots = cp.tau_roots(1.0, fresh())
        theta = phi1 = phi2 = None
        if s < 1.0:
            char = mgf.characteristic(fresh(), 1.0)
            theta, phi1, phi2 = char.theta, char.phi.psi1 / (1.0 - s), char.phi.phi2
        row = {
            "p": p, "s": s, "i0": i0, "strategy": strategy.value,
            "omega": fresh().omega, "p0": prof.at(0), "p1": prof.at(1),
            "p2": prof.at(2), "p3": prof.at(3),
            "tail_bound": prof.beyond(kmax), "m_total": m_total,
            "et0": et[0], "et1": et[1], "et2": et[2], "et3": et[3],
            "bc_ratio": metrics.bc_ratio(fresh()) if 0.0 < s < 1.0 else None,
            "tau1": roots.tau1, "tau2": roots.tau2,
            "theta": theta, "phi1": phi1, "phi2": phi2,
        }
        return [cli._float_cell(row[column]) for column in cli._SWEEP_COLUMNS]

    @pytest.mark.parametrize("kmax", [2, 64])
    def test_rows_match_unshared_calls(self, kmax, capsys):
        # s = 0 and 1 are the ends of the one closed form, p = 0.5 with s = 0.5
        # the exact solver; every cell must be the very float the separate calls give
        code, out, _ = run_cli(
            ["sweep", "--p", "0.4:0.6:0.1", "--s", "0:1:0.5", "--i0", "1:3:2",
             "--strategy", "all", "--kmax", str(kmax)],
            capsys,
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        want = [
            self.unshared_row(p, s, i0, strategy, kmax)
            for p in (0.4, 0.5, 0.6)
            for s in (0.0, 0.5, 1.0)
            for i0 in (1, 3)
            for strategy in Strategy
        ]
        assert len(rows) == len(want) == 54
        for got, expected in zip(rows, want):
            assert got == expected

    def test_theta_solves_per_instance(self, monkeypatch, capsys):
        calls = [0]
        theta = cp.theta

        def counted(*args, **kwargs):
            calls[0] += 1
            return theta(*args, **kwargs)

        # count theta through both bindings: mgf calls the name it imported
        monkeypatch.setattr(cp, "theta", counted)
        monkeypatch.setattr(mgf, "theta", counted)
        # p = 0.5 rows take the exact solver's route for their times
        code, out, _ = run_cli(
            ["sweep", "--p", "0.3:0.7:0.2", "--s", "0.2:0.6:0.4", "--i0", "1:3:2",
             "--strategy", "all"],
            capsys,
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 12 * 3
        # one characteristic per instance serves its columns and all three strategies
        assert calls[0] == 12

    def test_one_derivative_bundle_per_instance(self, monkeypatch, capsys):
        builds, calls = [0], [0]
        bundle, derivatives = cp.DerivativeBundle, cp.derivatives_at_1

        def built(*args):
            builds[0] += 1
            return bundle(*args)

        def called(params):
            calls[0] += 1
            return derivatives(params)

        monkeypatch.setattr(cp, "DerivativeBundle", built)
        monkeypatch.setattr(cp, "derivatives_at_1", called)
        # no p = 0.5 row, so every row takes its times from the closed forms
        code, out, _ = run_cli(
            ["sweep", "--p", "0.4:0.6:0.2", "--s", "0.2:0.6:0.4", "--i0", "1:3:2",
             "--strategy", "all"],
            capsys,
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 8 * 3
        # the three strategies of an instance share its one z = 1 solve
        assert (calls[0], builds[0]) == (24, 8)

    @pytest.mark.parametrize("kmax", ["1", "64"])
    def test_all_strategies_equal_the_three_single_strategy_sweeps(self, kmax, capsys):
        # s = 0 and 1 are the ends of the one closed form, s = 0.5 the exact solver's route
        grid = ["--p", "0.5", "--s", "0:1:0.5", "--i0", "1:3:1", "--kmax", kmax]
        code, out, _ = run_cli(["sweep", *grid, "--strategy", "all"], capsys)
        assert code == 0
        header, *rows = out.strip().splitlines()
        single = []
        for strategy in "ABC":
            code, text, _ = run_cli(["sweep", *grid, "--strategy", strategy], capsys)
            assert code == 0
            lines = text.strip().splitlines()
            assert lines[0] == header
            single.append(lines[1:])
        assert len(rows) == 9 * 3
        assert rows == [row for triple in zip(*single) for row in triple]

    def test_kmax_error_precedes_the_first_row(self, capsys):
        code, out, err = run_cli(
            ["sweep", "--p", "0.4", "--s", "0.5", "--i0", "1", "--kmax", "0"], capsys
        )
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "kmax must be >= 1, got 0"}

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            ["sweep", "--p", "0.4", "--s", "0.5", "--i0", "1", "--strategy", "B",
             "--out", str(target)],
            capsys,
        )
        assert code == 0 and out == ""
        lines = target.read_text().strip().splitlines()
        assert len(lines) == 2

    @pytest.mark.parametrize("grid", [
        ["--p", "0.3:0.7:1e-300", "--s", "0.5", "--i0", "1"],  # 4.0e299 values
        ["--p", "0.4", "--s", "0.5", "--i0", "1:1000000000000000000:1"],
        # 3,333,334 instances of three rows each: 10,000,002 rows
        ["--p", "0.4", "--s", "0.5", "--i0", "1:3333334:1"],
    ])
    def test_oversized_grid_exits_2_before_building_it(self, grid, capsys):
        # each used to append values until memory ran out
        code, out, err = run_cli(["sweep", *grid], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "the sweep has more than 10000000 rows"}


class TestSweepWorkers:
    """A large grid's rows in contiguous shares, each past the first in a forked process."""

    GRID = ["--p", "0.30:0.70:0.01", "--s", "0.1:0.9:0.2", "--i0", "1:5:1"]  # the benchmark's

    @pytest.fixture(autouse=True)
    def _two_cpus(self, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)

    def test_forked_csv_equals_the_one_process_csv(self, forks, monkeypatch, capsys):
        code, forked, _ = run_cli(["sweep", *self.GRID], capsys)
        assert code == 0
        assert forks == [1]
        assert_every_child_reaped()
        monkeypatch.delattr(os, "fork")
        assert run_cli(["sweep", *self.GRID], capsys) == (0, forked, "")
        assert len(forked.splitlines()) == 1 + 1025 * 3

    @pytest.mark.parametrize("extra, n_forks", [(-1, 0), (0, 1)])
    def test_forks_only_when_each_share_gets_the_minimum(self, extra, n_forks, forks, capsys):
        i0s = f"1:{2 * cli._SWEEP_SHARE_MIN + extra}:1"
        code, out, _ = run_cli(["sweep", "--p", "0.45", "--s", "0.5", "--i0", i0s, "--strategy", "B"], capsys)
        assert code == 0
        assert len(out.splitlines()) == 1 + 2 * cli._SWEEP_SHARE_MIN + extra
        assert len(forks) == n_forks
        assert_every_child_reaped()

    def test_a_parameter_error_in_the_childs_share_exits_2_as_in_one_process(
        self, forks, monkeypatch, capsys
    ):
        # p = 1.0 is the grid's last p, so its instances fall in the child's share
        grid = ["sweep", "--p", "0.3:1.0:0.01", "--s", "0.1:0.9:0.2", "--i0", "1:5:1"]
        forked = run_cli(grid, capsys)
        assert forks == [1]
        assert_every_child_reaped()
        monkeypatch.delattr(os, "fork")
        assert run_cli(grid, capsys) == forked == (2, "", '{"error": "p must lie in (0, 1), got 1.0"}\n')

    def test_the_closed_forms_compile_before_the_fork(self, tmp_path):
        # 2 x 5 x 26 = 260 instances and no p = 1/2 row: two shares, one of
        # them forked.  -X importtime logs the child's imports on the stderr
        # it shares, so a closed form the child compiled again would be listed twice
        src_dir = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        script = (
            "import os, sys\n"
            "from ruinwalk import cli, parallel\n"
            "parallel.usable_cpus = lambda: 2\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "code = cli.main(['sweep', '--p', '0.4:0.6:0.2', '--s', '0.1:0.9:0.2', '--i0', '1:26:1',\n"
            "                 '--out', sys.argv[1]])\n"
            "print(code, len(forks))\n"
        )
        out = tmp_path / "sweep.csv"
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", script, str(out)], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src_dir},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "1"]
        assert len(out.read_text().splitlines()) == 1 + 260 * 3
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
        for module in ("ruinwalk.charpoly", "ruinwalk.mgf", "ruinwalk.metrics"):
            assert imported.count(module) == 1, module

    def test_a_child_that_dies_exits_1_with_one_line_json(self, forks, monkeypatch, capsys):
        parent, real = os.getpid(), reports.sweep_rows

        def sweep_rows(*args):
            if os.getpid() != parent:
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(reports, "sweep_rows", sweep_rows)
        code, out, err = run_cli(["sweep", *self.GRID], capsys)
        assert (code, out) == (1, "")
        assert forks == [1]
        assert json.loads(err) == {"error": "sweep worker 1 ended without a result (exit status 3)"}
        assert_every_child_reaped()


class TestVerifyWorkers:
    """The exact-solver checks in a forked process while this one runs the identity checks."""

    @pytest.mark.parametrize("flags", [[], ["--format", "json"], ["--inject-wrong-mb"]],
                             ids=["text", "json", "inject-wrong-mb"])
    def test_output_is_the_same_on_two_cpus_one_or_without_fork(self, flags, forks, monkeypatch, capsys):
        argv = ["verify", "--quick", *flags]
        runs, fork_counts = [], []
        for cpus in (2, 1):
            monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
            runs.append(run_cli(argv, capsys))
            fork_counts.append(len(forks))
        assert fork_counts == [1, 1]  # one fork on two CPUs, none on one
        assert_every_child_reaped()
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        monkeypatch.delattr(os, "fork")
        runs.append(run_cli(argv, capsys))
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][0] == (1 if "--inject-wrong-mb" in flags else 0)

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_only_the_process_that_runs_the_solver_compiles_oracle(self, cpus):
        # the errata checks run in the solver's process; a record appended to
        # theirs passes if oracle is loaded there and names that process
        script = (
            "import contextlib, io, json, os, sys\n"
            "from ruinwalk import cli, parallel, verify\n"
            f"parallel.usable_cpus = lambda: {cpus}\n"
            "errata = verify.check_errata\n"
            "def check_errata(**kwargs):\n"
            "    here = verify.CheckResult('solver', 'ruinwalk.oracle' in sys.modules, str(os.getpid()))\n"
            "    return [*errata(**kwargs), here]\n"
            "verify.check_errata = check_errata\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    code = cli.main(['verify', '--quick', '--format', 'json'])\n"
            "solver = json.loads(out.getvalue())[-1]\n"
            "print(code, solver['passed'], solver['detail'] == str(os.getpid()), 'ruinwalk.oracle' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        # the solver's process loads oracle; this one only if it is that process
        here = cpus == 1
        assert proc.stdout.split() == ["0", "True", str(here), str(here)]

    def test_without_quick_oracle_compiles_once(self):
        # -X importtime logs the forked child's imports on the stderr it
        # shares, so an oracle compiled there and again here for the Monte
        # Carlo layer would be listed twice; 2,000 trials are one trial range,
        # so simulate forks nothing
        src_dir = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        script = (
            "import contextlib, io, os\n"
            "from ruinwalk import cli, parallel\n"
            "parallel.usable_cpus = lambda: 2\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "with contextlib.redirect_stdout(io.StringIO()) as report:\n"
            "    code = cli.main(['verify', '--trials', '2000'])\n"
            "print(code, len(forks), report.getvalue().splitlines()[-1])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src_dir},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "1", "20/20", "checks", "passed"]
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
        assert imported.count("ruinwalk.oracle") == 1

    @pytest.mark.parametrize("how, message", [
        ("raises", "oracle did not converge: the period map's eigenvalues are too close to separate"),
        ("dies", "verify worker 1 ended without a result (exit status 3)"),
    ])
    def test_a_failing_solver_share_exits_1_with_one_line_json(self, how, message, forks, monkeypatch, capsys):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        parent, real = os.getpid(), verify.check_exact_agreement

        def check_exact_agreement():
            if os.getpid() != parent:
                if how == "raises":
                    raise core.ConvergenceError("the period map's eigenvalues are too close to separate")
                os._exit(3)
            return real()

        monkeypatch.setattr(verify, "check_exact_agreement", check_exact_agreement)
        code, out, err = run_cli(["verify", "--quick"], capsys)
        assert (code, out) == (1, "")
        assert forks == [1]
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": message}
        assert_every_child_reaped()


class TestSubprocessEntryPoints:
    def test_module_invocation_bytes_identical(self):
        cmd = [sys.executable, "-m", "ruinwalk", "simulate", "--p", "0.5", "--s", "0.5",
               "--i0", "1", "--strategy", "B", "--trials", "20000", "--seed", "42"]
        a = subprocess.run(cmd, capture_output=True, check=True)
        b = subprocess.run(cmd, capture_output=True, check=True)
        assert a.stdout == b.stdout

    def test_closed_pipe_exits_1_without_a_traceback(self):
        # about 190 kB of CSV, more than a pipe holds: the write meets the
        # closed end whenever the reader leaves
        cmd = [sys.executable, "-m", "ruinwalk", "sweep", "--p", "0.3:0.7:0.01",
               "--s", "0.5", "--i0", "1:5:1"]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"p,s,i0,")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert b"Traceback" not in err, err.decode()

    def test_cli_import_leaves_the_verify_suite_unloaded(self, tmp_path):
        # only `verify` needs the suite, so no other command pays to load it
        script = (
            "import sys\n"
            "import ruinwalk.cli as cli\n"
            "cli.build_parser()\n"
            "code = cli.main(['sweep', '--p', '0.4', '--s', '0.5', '--i0', '2',\n"
            "                 '--out', sys.argv[1] + '/sweep.csv'])\n"
            "print(code, 'ruinwalk.verify' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False"]

    def test_cli_start_loads_no_dataclasses_numpy_or_suite(self):
        # -S keeps a site .pth file from loading modules ahead of ruinwalk
        src_dir = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        script = (
            "import sys\n"
            "import ruinwalk.cli\n"
            "ruinwalk.cli.build_parser()\n"
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'json', 'numpy') if m in sys.modules))\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('ruinwalk'))))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src_dir},
        )
        assert proc.returncode == 0, proc.stderr
        # the closed forms, the oracles, the suite and json load with the commands that use them
        assert proc.stdout.splitlines() == ["", "ruinwalk ruinwalk.cli ruinwalk.core"]

    @pytest.mark.parametrize("argv, loads", [
        (["analytic", "--p", "0.4", "--s", "0.5", "--i0", "3", "--strategy", "B"], False),
        (["mgf", "--p", "0.4", "--s", "0.5", "--i0", "3", "--strategy", "B", "--z", "0.5"], False),
        (["sweep", "--p", "0.3:0.45:0.05", "--s", "0:1:0.5", "--i0", "1:2:1"], False),
        (["exact", "--p", "0.4", "--s", "0.5", "--i0", "3", "--strategy", "B"], True),
        (["mgf", "--p", "0.4", "--s", "0.5", "--i0", "3", "--strategy", "B", "--z", "0.5",
          "--check-dp"], True),
        (["sweep", "--p", "0.45:0.5:0.05", "--s", "0.5", "--i0", "1:2:1"], True),
        (["simulate", "--p", "0.4", "--s", "0.5", "--i0", "3", "--strategy", "B", "--trials", "1000"], True),
        (["verify", "--quick"], True),
    ])
    @pytest.mark.parametrize("site", [[], ["-S"]], ids=["site", "no-site"])
    def test_only_oracle_commands_load_the_oracles(self, argv, loads, site, capsys):
        # -X importtime lists every module the `-m ruinwalk` entry point loads;
        # the sweep loads oracle only for a driftless row's exact-solver route.
        # -S reads no .pth file, so numpy's directory (for --check-dp) is named
        src_dir = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        numpy_dir = os.path.dirname(os.path.dirname(importlib.util.find_spec("numpy").origin))
        proc = subprocess.run(
            [sys.executable, *site, "-X", "importtime", "-m", "ruinwalk", *argv],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join((src_dir, numpy_dir))},
        )
        assert proc.returncode == 0, proc.stderr
        imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
        assert "ruinwalk.cli" in imported
        assert ("ruinwalk.oracle" in imported) is loads
        # the closed forms load with the commands that read them, json where JSON is written
        closed_forms = {"ruinwalk.charpoly", "ruinwalk.mgf", "ruinwalk.metrics"}
        assert imported & closed_forms == (set() if argv[0] in ("exact", "simulate") else closed_forms)
        assert ("ruinwalk.reports" in imported) is (argv[0] in ("analytic", "mgf", "sweep"))
        assert ("json" in imported) is (argv[0] not in ("sweep", "verify"))
        # the same bytes as this process, which imported oracle up front
        assert run_cli(argv, capsys)[:2] == (0, proc.stdout)

    @pytest.mark.parametrize("argv", [
        ["mgf", "--p", "0.4", "--s", "0.5", "--i0", "3", "--strategy", "B", "--z", "0.5", "--check-dp"],
        ["simulate", "--p", "0.5", "--s", "0.5", "--i0", "1", "--strategy", "B", "--trials", "1000"],
        ["verify", "--trials", "1000"],
    ])
    def test_commands_that_need_numpy_say_so_without_it(self, argv):
        # -S with only src on the path: numpy cannot be imported
        src_dir = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run(
            [sys.executable, "-S", "-m", "ruinwalk", *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src_dir},
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "Traceback" not in proc.stderr
        line, = proc.stderr.splitlines()
        assert "numpy" in json.loads(line)["error"]

    def test_package_serves_the_oracle_names_on_first_use(self):
        src_dir = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        script = (
            "import sys\n"
            "import ruinwalk\n"
            "print(sorted(m for m in sys.modules if m.startswith('ruinwalk')))\n"
            "try:\n"
            "    ruinwalk.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n"
            "print('ruinwalk.oracle' in sys.modules)\n"
            "solve = ruinwalk.solve_exact\n"
            "print('ruinwalk.oracle' in sys.modules, solve is sys.modules['ruinwalk.oracle'].solve_exact)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src_dir},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "['ruinwalk', 'ruinwalk.core']",
            "module 'ruinwalk' has no attribute 'no_such_name'", "False", "True True",
        ]

    @pytest.mark.parametrize("name", sorted(ruinwalk._LAZY))
    def test_lazy_names_are_the_oracles_own(self, name):
        # every name the package serves on first use is its defining submodule's object
        module = importlib.import_module(f"ruinwalk.{ruinwalk._LAZY[name]}")
        assert name in ruinwalk.__all__
        assert getattr(ruinwalk, name) is getattr(module, name)
        assert getattr(module, name).__module__ == module.__name__

    def test_dir_lists_every_public_name(self):
        src_dir = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        script = (
            "import ruinwalk\n"
            "names = dir(ruinwalk)\n"
            "print(names == sorted(names), set(ruinwalk.__all__) <= set(names), 'core' in names)\n"
            "ruinwalk.solve_exact\n"
            "print(dir(ruinwalk) == sorted({*names, 'oracle'}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src_dir},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "True", "True", "True"]

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from ruinwalk import *", namespace)
        assert {name: namespace[name] for name in ruinwalk.__all__} == {
            name: getattr(ruinwalk, name) for name in ruinwalk.__all__
        }

    def test_convergence_error_is_one_class(self):
        assert oracle.ConvergenceError is core.ConvergenceError is ruinwalk.ConvergenceError

    def test_usage_error_exits_2(self):
        cmd = [sys.executable, "-m", "ruinwalk", "analytic", "--p", "0.5"]
        proc = subprocess.run(cmd, capture_output=True)
        assert proc.returncode == 2

    def test_cli_start_and_exact_solve_import_no_scipy(self, tmp_path):
        # ruinwalk never imports scipy, and numpy only for Monte Carlo and
        # mass propagation: loading them used to be most of every CLI
        # process's start-up time.  The sweep's p = 0.5 row takes the exact
        # solver's path, and so does `verify --quick`.
        script = (
            "import contextlib, io, json, sys\n"
            "import ruinwalk.cli as cli\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))\n"
            "cli.build_parser()\n"
            "seen = [loaded()]\n"
            "codes = [cli.main(['sweep', '--p', '0.4:0.5:0.1', '--s', '0.5', '--i0', '1',\n"
            "                   '--kmax', '4', '--out', sys.argv[1] + '/sweep.csv'])]\n"
            "seen.append(loaded())\n"
            "codes.append(cli.main(['exact', '--p', '0.5', '--s', '0.5', '--i0', '1',\n"
            "                       '--strategy', 'B', '--out', sys.argv[1] + '/exact.json']))\n"
            "seen.append(loaded())\n"
            "with contextlib.redirect_stdout(io.StringIO()) as report:\n"
            "    codes.append(cli.main(['verify', '--quick']))\n"
            "seen.append(loaded())\n"
            "verified = report.getvalue().splitlines()[-1]\n"
            "codes.append(cli.main(['simulate', '--p', '0.5', '--s', '0.5', '--i0', '1',\n"
            "                       '--strategy', 'B', '--trials', '2000', '--seed', '3',\n"
            "                       '--out', sys.argv[1] + '/simulate.json']))\n"
            "print(json.dumps([codes, seen, 'numpy' in sys.modules, verified]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [
            [0, 0, 0, 0], [[], [], [], []], True, "12/12 checks passed"
        ]
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["0.4"] * 3 + ["0.5"] * 3
        exact = json.loads((tmp_path / "exact.json").read_text())
        assert exact["absorption"]["p0"] == pytest.approx(4 - 2 * SQRT3, abs=1e-9)
        assert json.loads((tmp_path / "simulate.json").read_text())["trials"] == 2000
