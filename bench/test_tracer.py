"""Self-checks of the benchmark's tracer.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import cProfile
import pstats
from pathlib import Path

import pytest

import tracer as tr

tr.add_src_to_path(Path(__file__).resolve().parent.parent)

from ruinwalk import charpoly, cli, mgf, oracle  # noqa: E402

MUST_RUN = (
    "charpoly.tau_roots", "charpoly.theta", "charpoly.phi_roots",
    "charpoly.power_divided_difference", "charpoly.derivatives_at_1",
    "mgf.mgf_a", "mgf.mgf_b", "mgf.mgf_c", "mgf.mgf_interior", "mgf.mgf_value",
    "metrics.absorption_profile", "metrics.time_profile",
    "oracle.solve_exact", "oracle.solve_banded", "oracle.simulate",
    "rng.step_uniforms", "rng.philox4x32", "cli.main",
)


def _reduced_workload(out: Path) -> None:
    """A small mix of the benchmark's commands; p=0.5 rows reach the exact solver."""
    commands = [
        ["sweep", "--p", "0.45:0.55:0.05", "--s", "0.1:0.9:0.8", "--i0", "1:3:1",
         "--strategy", "all", "--kmax", "8"],
        ["mgf", "--p", "0.4", "--s", "0.5", "--i0", "3", "--strategy", "C",
         "--z", "0.7", "--state", "4"],
        ["simulate", "--p", "0.5", "--s", "0.5", "--i0", "1", "--strategy", "B",
         "--trials", "2000", "--seed", "7"],
    ]
    for argv in commands:
        assert cli.main([*argv, "--out", str(out)]) == 0


def _code_key(fn) -> tuple[str, int, str]:
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def _profile(out: Path) -> dict:
    profile = cProfile.Profile()
    profile.enable()
    try:
        _reduced_workload(out)
    finally:
        profile.disable()
    return pstats.Stats(profile).stats  # key -> (cc, ncalls, tt, ct, callers)


def test_call_counts_match_cprofile(tmp_path):
    untraced = _profile(tmp_path / "out.txt")
    tracer = tr.Tracer()
    tracer.install()
    try:
        traced = _profile(tmp_path / "out.txt")
    finally:
        tracer.uninstall()
    counted = tracer.report()["functions"]

    for key, fn in tracer.wrapped.items():
        calls = counted.get(key, {}).get("calls", 0)
        assert calls == traced.get(_code_key(fn), (0, 0))[1], key
        assert calls == untraced.get(_code_key(fn), (0, 0))[1], key
    for key in MUST_RUN:
        assert counted[key]["calls"] > 0, key

    # Without the tracer, tau_roots is also called through mgf's own
    # `from .charpoly import` binding and solve_banded only through the name
    # oracle imported from scipy: wrapping charpoly's attribute alone would
    # undercount both, and the equalities above would fail.
    def caller_files(key):
        return {caller[0] for caller in untraced[_code_key(tracer.wrapped[key])][4]}

    assert any(f.endswith("mgf.py") for f in caller_files("charpoly.tau_roots"))
    assert any(f.endswith("mgf.py") for f in caller_files("charpoly.power_divided_difference"))
    assert {Path(f).name for f in caller_files("oracle.solve_banded")} == {"oracle.py"}


def test_uninstall_restores_every_binding():
    originals = (charpoly.tau_roots, mgf.tau_roots, oracle.solve_banded, cli.main)
    tracer = tr.Tracer()
    tracer.install()
    assert mgf.tau_roots is not originals[1]
    assert oracle.solve_banded is not originals[2]
    tracer.uninstall()
    assert (charpoly.tau_roots, mgf.tau_roots, oracle.solve_banded, cli.main) == originals


def test_worker_threads_lose_no_counts():
    from ruinwalk.core import Strategy, WalkParams

    params = WalkParams(0.5, 0.5, 1)
    counts = []
    for workers in (1, 2):
        tracer = tr.Tracer()
        tracer.install()
        try:
            # 70000 trials make two chunks, so workers=2 runs two threads
            oracle.simulate(params, Strategy.B, 70_000, seed=3, workers=workers)
        finally:
            tracer.uninstall()
        functions = tracer.report()["functions"]
        counts.append({k: v["calls"] for k, v in functions.items() if k.startswith("rng.")})
    assert counts[0] == counts[1]


def test_self_time_excludes_nested_calls(tmp_path):
    tracer = tr.Tracer()
    tracer.install()
    try:
        _reduced_workload(tmp_path / "out.txt")
    finally:
        tracer.uninstall()
    report = tracer.report()
    functions = report["functions"]
    main = functions["cli.main"]
    total_self = sum(entry["self_s"] for entry in functions.values())
    assert 0.0 < main["self_s"] < main["total_s"]
    # self times of the main thread's calls partition cli.main's time
    assert abs(total_self - main["total_s"]) < 0.05 * main["total_s"]
    spans = {span[0]: span for span in report["spans"]}
    for span_id, parent, name, _, start, end in spans.values():
        assert start <= end
        if parent is not None:
            assert spans[parent][4] <= start and end <= spans[parent][5], name


def test_importtime_attribution():
    # (level, module, self us) in the order -X importtime prints them:
    # children first, each nested one level deeper than its importer
    tree = [
        (0, "encodings", 100),
        (4, "numpy._core", 300),
        (3, "numpy", 50),
        (4, "scipy", 40),
        (4, "numpy.linalg", 20),
        (3, "scipy.linalg", 70),
        (2, "ruinwalk.oracle", 10),
        (1, "ruinwalk", 5),
        (1, "argparse", 15),
        (0, "ruinwalk.cli", 1),
    ]
    log = "import time: self [us] | cumulative | imported package\n" + "\n".join(
        f"import time: {us:9d} | {0:10d} | {'  ' * level}{name}" for level, name, us in tree
    )
    got = tr.parse_importtime(log)
    assert got["numpy"] == pytest.approx(350e-6)
    assert got["scipy"] == pytest.approx(130e-6)  # numpy.linalg was pulled in by scipy
    assert got["ruinwalk"] == pytest.approx(31e-6)
    assert got["other"] == pytest.approx(100e-6)
