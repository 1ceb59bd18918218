"""ruinwalk benchmark: CLI workloads end to end, and a traced run per layer.

Run from the repository root::

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the
workload's CLI process repeated, one at a time, for ``--seconds`` seconds,
each repetition preceded by pairs of set-up samples (a fresh interpreter
importing ruinwalk and building the CLI parser) and calibration samples (a
fresh interpreter importing numpy and scipy.linalg, which no change to
ruinwalk can alter).  Wall and set-up times are reported scaled by the
run's calibration (see ``speed_scaled``); peak memory is a plain median.
``--trace 1`` breaks set-up down with ``python -X importtime``, runs the
workload once untraced and once under the tracer (``traced_cli.py``) and
reports the per-layer metrics.

Outside the timed region every distinct output goes through the workload's
gate (``workloads.py``), and each output's sha256 must match the one
recorded for the same code and seed in earlier runs.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics named in ``BENCHMARK.json``.  A full record with an environment
block is written to ``.bench_build/results/``.  See README.md here for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer as tr
from workloads import SIM_TRIALS, WORKLOADS, Gate

BENCH_DIR = Path(__file__).resolve().parent
SETUP_CODE = "import ruinwalk.cli as cli; cli.build_parser()"
# Calibration: fixed work of the same kind as set-up (a fresh interpreter
# importing compiled libraries), independent of ruinwalk's sources.
CALIBRATION_CODE = "import numpy, scipy.linalg"
# Calibration time that timings are scaled to: near the calibration's
# fastest time on the 2-vCPU VM this benchmark was written on.
CALIBRATION_REF_S = 0.30
# Calibration and set-up samples, taken in pairs, keep up with at least this
# share of the time the repetitions take, so that their means are about as
# steady as the repetitions'.
SAMPLE_SHARE = 0.3
SETUP_REPS = 7
IMPORTTIME_REPS = 3
MIN_REPS = 3
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, no BENCHMARK.json, bad names)."""


# ---------------------------------------------------------------------------
# child processes


class Runner:
    """Starts CLI children from the checkout root and measures each one."""

    def __init__(self, root: Path):
        self.root = root
        self.build = root / ".bench_build"
        (self.build / "out").mkdir(parents=True, exist_ok=True)
        (self.build / "results").mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        extra = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(root / "src") + (os.pathsep + extra if extra else "")

    def spawn(self, cmd: list[str], stdout: Path, stderr: Path) -> tuple[float, float, int]:
        """Run ``cmd`` to completion: (wall seconds, peak RSS in MB, exit code)."""
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.root, env=self.env)
            guard = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            guard.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                guard.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode

    def cli(self, workload, seed: int, tag: str, workers: int = 2, traced: bool = False):
        """One CLI run of ``workload``: (wall, rss, exit code, output file, trace)."""
        out = self.build / "out" / f"{workload.name}.{tag}.out"
        trace_path = self.build / "out" / f"{workload.name}.{tag}.trace.json"
        out.unlink(missing_ok=True)
        trace_path.unlink(missing_ok=True)
        argv = workload.argv(seed, str(out), workers)
        cmd = (
            [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(trace_path), "--", *argv]
            if traced
            else [sys.executable, "-m", "ruinwalk", *argv]
        )
        stdout = self.build / "out" / f"{workload.name}.{tag}.stdout"
        wall, rss, rc = self.spawn(cmd, stdout, self.build / "out" / f"{workload.name}.{tag}.stderr")
        output = out if workload.writes_out else stdout
        if not output.exists():
            output.write_text("")
        trace = json.loads(trace_path.read_text()) if trace_path.exists() else None
        return wall, rss, rc, output, trace

    def python_time(self, code: str, tag: str) -> float:
        """Wall time of a fresh interpreter running ``code``."""
        wall, _, rc = self.spawn(
            [sys.executable, "-c", code], self.build / "out" / f"{tag}.stdout",
            self.build / "out" / f"{tag}.stderr",
        )
        if rc != 0:
            raise BenchError(f"{code!r} failed; see .bench_build/out/{tag}.stderr")
        return wall

    def setup_time(self) -> float:
        return self.python_time(SETUP_CODE, "setup")

    def calibration_time(self) -> float:
        return self.python_time(CALIBRATION_CODE, "calibration")

    def import_breakdown(self) -> dict[str, float]:
        err = self.build / "out" / "importtime.stderr"
        cmd = [sys.executable, "-X", "importtime", "-c", SETUP_CODE]
        self.spawn(cmd, self.build / "out" / "importtime.stdout", err)
        return tr.parse_importtime(err.read_text())


# ---------------------------------------------------------------------------
# correctness bookkeeping


def source_fingerprint(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "ruinwalk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    for dist in ("numpy", "scipy"):
        digest.update(importlib.metadata.version(dist).encode())
    digest.update(platform.python_version().encode())
    return digest.hexdigest()


class Ledger:
    """Counts operations over every output of one run, gating each distinct output once.

    The gates run in a child process (``workloads.py``), so numpy and scipy
    never load into this one: the peak RSS that ``wait4`` reports for a
    child includes the RSS of the process that started it.
    """

    def __init__(self, runner: Runner, workload, seed: int):
        self.runner, self.workload, self.seed = runner, workload, seed
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.work = 0.0
        self._outputs: dict[str, tuple[Path, int]] = {}  # sha256 -> (file, exit code)
        self._added: list[tuple[str, str]] = []  # (sha256, label) per output
        self._checks: list[tuple[str, bool]] = []
        self.fingerprint = source_fingerprint(runner.root)
        seed_key = seed if workload.name == "simulate" else "-"
        self._ref_key = f"{workload.name}|seed={seed_key}|{self.fingerprint}"

    def add(self, output: Path, rc: int, label: str) -> str:
        sha = hashlib.sha256(output.read_bytes()).hexdigest()
        self._outputs.setdefault(sha, (output, rc))
        self._added.append((sha, label))
        return sha

    def check_same(self, label: str, ok: bool) -> None:
        self._checks.append((label, ok))

    def _gate(self, output: Path, rc: int) -> Gate:
        verdict = self.runner.build / "out" / "gate.stdout"
        stderr = self.runner.build / "out" / "gate.stderr"
        cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), self.workload.name,
               str(self.seed), str(rc), str(output)]
        _, _, gate_rc = self.runner.spawn(cmd, verdict, stderr)
        if gate_rc != 0:
            tail = stderr.read_text().strip().splitlines()[-1:]
            return Gate(1, 1, 0.0, [f"gate crashed (exit {gate_rc}): {tail}"])
        return Gate(**json.loads(verdict.read_text().splitlines()[-1]))

    def settle(self) -> None:
        """Gate the outputs and compare their hashes with earlier runs of this code."""
        gates = {sha: self._gate(output, rc) for sha, (output, rc) in self._outputs.items()}
        labels = {}
        for sha, label in self._added:
            labels.setdefault(sha, label)
            self.attempted += gates[sha].attempted
            self.failed += gates[sha].failed
        for sha, label in labels.items():
            self.notes.extend(f"{label}: {note}" for note in gates[sha].notes)
        self.work = gates[self._added[0][0]].work

        refs_path = self.runner.build / "output_sha256.json"
        refs = json.loads(refs_path.read_text()) if refs_path.exists() else {}
        if self._ref_key not in refs and all(g.failed == 0 for g in gates.values()):
            refs[self._ref_key] = self._added[0][0]
            tmp = refs_path.with_suffix(".tmp")
            tmp.write_text(json.dumps(refs, indent=1, sort_keys=True))
            tmp.replace(refs_path)
        ref = refs.get(self._ref_key)
        for sha, label in self._added:
            self.check_same(f"{label}: output sha256 matches earlier runs of this code",
                            ref in (None, sha))
        for label, ok in self._checks:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.notes.append(f"FAILED: {label}")


# ---------------------------------------------------------------------------
# the two kinds of run


def speed_scaled(seconds: list[float], calibration: list[float]) -> float:
    """Mean of ``seconds`` scaled to the speed at which calibration takes CALIBRATION_REF_S.

    The machine this benchmark was written on runs the same process in a
    fast state or in one up to 1.6x slower, for minutes at a time, so
    medians of raw times from runs made half an hour apart differ by more
    than the bounds.  Calibration samples taken between the repetitions
    slow down with them; dividing by them cancels that drift, while a
    change to ruinwalk moves the numerator alone.  The ratio is of means:
    both then average over the same mix of fast and slow spells, where
    medians of a few long repetitions and many short calibrations pick
    different points of it.
    """
    return statistics.fmean(seconds) * CALIBRATION_REF_S / statistics.fmean(calibration)


def run_timed(runner: Runner, workload, seed: int, seconds: float) -> dict:
    """Repeat the workload until ``seconds`` would be exceeded, at least MIN_REPS times.

    Pairs of calibration and set-up samples precede every repetition, so
    that their samples span the run as the repetitions do; any pairs short
    of SETUP_REPS are taken after.
    """
    ledger = Ledger(runner, workload, seed)
    calibration, setup, walls, rss, codes, shas = [], [], [], [], [], []

    def sample_pair() -> None:
        calibration.append(runner.calibration_time())
        setup.append(runner.setup_time())

    start = time.perf_counter()
    while True:
        sample_pair()
        while sum(calibration) + sum(setup) < SAMPLE_SHARE * sum(walls):
            sample_pair()
        wall, peak, rc, output, _ = runner.cli(workload, seed, f"rep{len(walls)}")
        walls.append(wall)
        rss.append(peak)
        codes.append(rc)
        shas.append(ledger.add(output, rc, f"rep {len(walls)}"))
        elapsed = time.perf_counter() - start
        per_rep = elapsed / len(walls)
        if len(walls) >= MIN_REPS and elapsed + per_rep > seconds:
            break
    while len(setup) < SETUP_REPS:
        sample_pair()
    ledger.settle()
    metrics = {
        "setup_s": speed_scaled(setup, calibration),
        "wall_s": speed_scaled(walls, calibration),
        "peak_rss_mb": statistics.median(rss),
    }
    return {
        "metrics": metrics,
        "ledger": ledger,
        "codes": codes,
        "samples": {"calibration_s": calibration, "setup_s": setup, "wall_s": walls,
                    "peak_rss_mb": rss},
        "output_sha256": sorted(set(shas)),
    }


def run_traced(runner: Runner, workload, seed: int) -> dict:
    breakdowns = [runner.import_breakdown() for _ in range(IMPORTTIME_REPS)]
    ledger = Ledger(runner, workload, seed)
    wall_plain, _, rc_plain, out_plain, _ = runner.cli(workload, seed, "plain")
    wall_traced, _, rc_traced, out_traced, trace = runner.cli(workload, seed, "traced", traced=True)
    sha_plain = ledger.add(out_plain, rc_plain, "untraced")
    sha_traced = ledger.add(out_traced, rc_traced, "traced")
    ledger.check_same("traced output identical to untraced", sha_traced == sha_plain)
    codes = [rc_plain, rc_traced]
    trace_w1 = None
    if workload.name == "simulate":
        _, _, rc_w1, out_w1, trace_w1 = runner.cli(workload, seed, "traced-w1", workers=1, traced=True)
        codes.append(rc_w1)
        ledger.check_same("simulate JSON identical at --workers 1 and 2",
                          out_w1.read_bytes() == out_traced.read_bytes())
    ledger.settle()
    if trace is None:
        raise BenchError(f"the traced {workload.name} run wrote no trace")
    overhead = wall_traced - wall_plain
    metrics = layer_metrics(trace, trace_w1)
    for group in tr.IMPORT_GROUPS:
        metrics[f"setup.import.{group}_s"] = statistics.median(b[group] for b in breakdowns)
    metrics["trace.overhead_s"] = overhead
    overheads_path = runner.build / "trace_overhead.json"
    overheads = json.loads(overheads_path.read_text()) if overheads_path.exists() else {}
    overheads.setdefault(ledger.fingerprint, {})[workload.name] = overhead
    overheads_path.write_text(json.dumps(overheads, indent=1, sort_keys=True))
    return {
        "metrics": metrics,
        "ledger": ledger,
        "codes": codes,
        "samples": {"wall_untraced_s": wall_plain, "wall_traced_s": wall_traced,
                    "import_breakdown_s": breakdowns},
        "output_sha256": sorted({sha_plain, sha_traced}),
        "functions": trace["functions"],
    }


def layer_metrics(trace: dict, trace_w1: dict | None) -> dict[str, float]:
    """Per-layer metrics from one traced run (and, for simulate, its w1 twin)."""
    fns, facts = trace["functions"], trace["facts"]

    def stat(key: str, field: str = "calls"):
        return fns.get(key, {}).get(field, 0)

    def layer_sum(layer: str, field: str):
        return sum(v[field] for k, v in fns.items() if k.split(".")[0] == layer)

    def per_call_us(key: str) -> float:
        return stat(key, "total_s") / stat(key) * 1e6 if stat(key) else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for name in ("tau_roots", "theta", "phi_roots", "power_divided_difference"):
        m[f"charpoly.{name}.calls"] = stat(f"charpoly.{name}")
    m["charpoly.self_s"] = layer_sum("charpoly", "self_s")

    profiles = stat("metrics.absorption_profile") + stat("metrics.time_profile")
    m["mgf.calls"] = layer_sum("mgf", "calls")
    m["mgf.calls_per_profile"] = ratio(m["mgf.calls"], profiles)
    m["mgf.self_s"] = layer_sum("mgf", "self_s")

    for name in ("absorption_profile", "time_profile"):
        m[f"metrics.{name}.calls"] = stat(f"metrics.{name}")
        m[f"metrics.{name}.us_per_call"] = per_call_us(f"metrics.{name}")
    m["metrics.self_s"] = layer_sum("metrics", "self_s")

    truncations = facts["truncation_k"]
    m["oracle.solve_exact.calls"] = stat("oracle.solve_exact")
    m["oracle.solve_exact.s"] = stat("oracle.solve_exact", "total_s")
    m["oracle.solve_exact.truncation_k_mean"] = ratio(sum(truncations), len(truncations))
    m["oracle.solve_exact.failed"] = stat("oracle.solve_exact", "failed")
    m["oracle.solve_banded.calls"] = stat("oracle.solve_banded")

    w2 = ratio(facts["trial_steps"], stat("oracle.simulate", "total_s"))
    w1 = 0.0
    if trace_w1 is not None:
        sim_w1 = trace_w1["functions"].get("oracle.simulate", {})
        w1 = ratio(trace_w1["facts"]["trial_steps"], sim_w1.get("total_s", 0.0))
    m["oracle.simulate.trial_steps_per_s.w1"] = w1
    m["oracle.simulate.trial_steps_per_s.w2"] = w2
    m["oracle.simulate.parallel_efficiency"] = ratio(w2, 2.0 * w1)
    m["oracle.simulate.escaped_fraction"] = ratio(facts["escaped"], facts["trials"])

    m["rng.step_uniforms.calls"] = stat("rng.step_uniforms")
    m["rng.uniforms_per_call"] = ratio(facts["uniforms"], stat("rng.step_uniforms"))
    m["rng.philox_words_used_fraction"] = ratio(facts["uniforms"], facts["philox_words"])
    m["rng.self_s"] = layer_sum("rng", "self_s")

    for key, entry in fns.items():
        layer, name = key.split(".", 1)
        if layer == "verify" and name.startswith("check_"):
            m[f"verify.{name}.s"] = entry["total_s"]
    m["cli.self_s"] = layer_sum("cli", "self_s")
    return m


# ---------------------------------------------------------------------------
# reporting


def environment(root: Path, seed: int, build: Path) -> dict:
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    fingerprint = source_fingerprint(root)
    path = build / "trace_overhead.json"
    overheads = json.loads(path.read_text()).get(fingerprint, {}) if path.exists() else {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": commit,
        "source_sha256": fingerprint,
        "workload_seed": seed,
        # from the latest traced run of each workload on these same sources
        "trace_overhead_s": {name: overheads.get(name) for name in WORKLOADS},
    }


def declared_metrics(root: Path, trace: int) -> dict[str, str]:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError("BENCHMARK.json not found in the current directory")
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(runner: Runner, name: str, seed: int, seconds: float, trace: int) -> dict:
    workload = WORKLOADS[name]
    result = run_traced(runner, workload, seed) if trace else run_timed(runner, workload, seed, seconds)
    declared = declared_metrics(runner.root, trace)
    computed = result["metrics"]
    if trace:  # verify.<check>.s is 0.0 on workloads that run no check
        for key in declared:
            if key.startswith("verify.check_"):
                computed.setdefault(key, 0.0)
    missing = set(declared) - set(computed)
    if missing:
        raise BenchError(f"BENCHMARK.json names metrics the benchmark does not compute: {sorted(missing)}")
    ledger = result["ledger"]
    metrics = {key: {"value": computed[key], "unit": unit} for key, unit in declared.items()}
    extra = {}
    if not trace:
        samples = result["samples"]
        raw_wall = statistics.fmean(samples["wall_s"])
        extra = {"error_rate": ledger.failed / ledger.attempted}
        if name == "sweep":
            extra["rows_per_s"] = ledger.work / raw_wall
        if name == "simulate":
            extra["trial_steps_per_s"] = ledger.work / raw_wall
            extra["trials"] = SIM_TRIALS
        extra["wall_raw_s"] = raw_wall
        extra["wall_raw_s_min"] = min(samples["wall_s"])
        extra["wall_raw_s_max"] = max(samples["wall_s"])
        extra["setup_raw_s"] = statistics.fmean(samples["setup_s"])
        extra["calibration_s"] = statistics.fmean(samples["calibration_s"])
        extra["repetitions"] = len(samples["wall_s"])
    record = {
        "workload": name,
        "trace": trace,
        "seconds": seconds,
        "environment": environment(runner.root, seed, runner.build),
        "correct": ledger.failed == 0 and all(rc == 0 for rc in result["codes"]),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
        "extra": extra,
        "samples": result["samples"],
        "exit_codes": result["codes"],
        "output_sha256": result["output_sha256"],
        "gate_notes": ledger.notes,
        "functions": result.get("functions"),
    }
    out = runner.build / "results" / f"{name}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(record, indent=1))
    return record


def print_record(record: dict) -> None:
    name = record["workload"]
    for key, metric in record["metrics"].items():
        print(f"{name:<13} {key:<45} {metric['value']!r} {metric['unit']}")
    units = {"error_rate": "ratio", "rows_per_s": "1/s", "trial_steps_per_s": "1/s",
             "wall_raw_s": "s", "wall_raw_s_min": "s", "wall_raw_s_max": "s",
             "setup_raw_s": "s", "calibration_s": "s"}
    for key, unit in units.items():
        if key in record["extra"]:
            print(f"{name:<13} {key:<45} {record['extra'][key]!r} {unit}")
    print(f"{name:<13} {'operations failed/attempted':<45} {record['failed']}/{record['attempted']}")
    for note in record["gate_notes"]:
        print(f"{name:<13} gate: {note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # SIGTERM unwinds like an exception, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "ruinwalk" / "cli.py").is_file():
        print("bench: no ruinwalk sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        declared_metrics(root, args.trace)
        runner = Runner(root)
        # untimed warm-up: compiles ruinwalk's bytecode and loads the libraries
        runner.setup_time()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        records = [run_workload(runner, n, args.seed, args.seconds, args.trace) for n in names]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for record in records:
        print_record(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
