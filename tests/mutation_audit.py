"""Mutation audit of the closed forms: which one-token faults the checks catch.

Each mutant changes one token of ``charpoly``, ``mgf``, ``metrics`` or
``core``:

* ``+`` <-> ``-`` and ``*`` <-> ``/``, in expressions and augmented assignments;
* a comparison flipped to its negation (``<`` -> ``>=``, ``==`` -> ``!=``,
  ``is`` -> ``is not``, ...);
* a unary minus dropped (written ``+x``);
* an int or float constant moved by +1 and by -1.

Every mutant is written into a temporary copy of ``src/`` and ``tests/``,
never into the tree itself; the copy holds each audited module as
``ast.unparse`` writes it, as every mutant is written, so a mutant differs
from the copy in its one token alone.  Phase 1 runs every ``verify --quick``
check on it and records which check functions fail or raise; the mutant is
killed if one does, or if the run crashes or times out.  Phase 2 runs the
tests of the closed-form modules with ``-x`` on the mutants phase 1 missed,
with ``--hypothesis-seed=0`` and no examples kept from an earlier mutant.  A
mutant that survives both phases must be listed in :data:`EQUIVALENT`, keyed by
module, source line and mutation, with the reason it changes no answer;
any other survivor, and any entry of the list that is stale or killed,
makes the audit exit 1.  So does a check function of verify's identity share
(``_identity_checks``) that kills no mutant alone, that is, none that every
other check misses.  The exact-solver and errata checks are exempt: the first
is the README's agreement guarantee, the second pins each erratum from both
sides.

Run it as ``python tests/mutation_audit.py`` (standard library only; phase 2
needs pytest and hypothesis, as the tests do).  It audits the checkout that
holds it, two mutants at a time.  The tests do not collect this file: its
name is not ``test_*``.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from queue import SimpleQueue
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("charpoly", "mgf", "metrics", "core")
# the closed-form modules' tests, fastest killers first
TESTS = ("test_charpoly.py", "test_mgf.py", "test_metrics.py", "test_core.py", "test_acceptance.py")
JOBS = 2  # mutants run at once, each in its own work copy
VERIFY_TIMEOUT_S = 120
TESTS_TIMEOUT_S = 900

# Survivors of both phases that change no answer, keyed by (module, source line,
# mutation); the nth repeat of a mutation on the same source text carries " #n".
EQUIVALENT = {
    ("charpoly", "rise, fall, top = math.inf, 0.0, math.inf", "0.0 -> -1.0"):
        "rise is inf on this path, so (1-s) sqrt(disc) is not finite and phi_roots raises whatever fall is",
    ("charpoly", "rise, fall, top = math.inf, 0.0, math.inf", "0.0 -> 1.0"):
        "rise is inf on this path, so (1-s) sqrt(disc) is not finite and phi_roots raises whatever fall is",
    ("mgf", "return mgf_states(params, strategy, z, (position,))[0]", "0 -> -1"):
        "the list holds one value, so its first item is its last",
    ("mgf", "return mgf_states(params, strategy, z, (position,))[0]", "0 -> -1 #2"):
        "the list holds one value, so its first item is its last",
    ("core", "gap: float = 1.0", "1.0 -> 0.0"):
        "the default gap comes with the default rho = 0, and nothing reads gap where rho is 0",
    ("core", "gap: float = 1.0", "1.0 -> 2.0"):
        "the default gap comes with the default rho = 0, and nothing reads gap where rho is 0",
}

_SYMBOL = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
    ast.Lt: "<", ast.GtE: ">=", ast.Gt: ">", ast.LtE: "<=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
}
_SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
_FLIP = {
    ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
}

# runs in the mutant's copy: each check guarded, so one that raises hides no
# other; a raise becomes a failing result named "<check> (raised)", and any
# other failing result takes its check function's name, so that it names the
# function when it comes back from a forked share of run_all
_VERIFY = r"""
import inspect
import json
from ruinwalk import verify


def guarded(name, check):
    many = str(inspect.signature(check).return_annotation).startswith("list")

    def run(*args, **kwargs):
        try:
            out = check(*args, **kwargs)
        except Exception as exc:
            raised = verify.CheckResult(name + " (raised)", False, type(exc).__name__)
            return [raised] if many else raised

        def named(result):
            return result if result.passed else verify.CheckResult(name, False, result.name)
        return [named(result) for result in out] if many else named(out)
    return run


for name in dir(verify):
    if name.startswith("check_"):
        setattr(verify, name, guarded(name, getattr(verify, name)))
failed = {}
for result in verify.run_all(quick=True):
    if not result.passed:
        failed.setdefault(result.name, []).append(result.detail)
print(json.dumps(failed))
"""


class Mutant(NamedTuple):
    module: str
    line: int  # where the mutation sits; for reading only, not part of the key
    text: str  # that source line, stripped
    mutation: str
    source: str  # the whole mutated module

    @property
    def key(self) -> tuple[str, str, str]:
        return self.module, self.text, self.mutation


def _sites(tree: ast.AST) -> list:
    """Every mutation of ``tree`` as (line, column, label, edit), in source order; ``edit()`` applies it in place."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAP:
            old = type(node.op)
            line = node.right.lineno if isinstance(node, ast.BinOp) else node.lineno
            sites.append((line, node.col_offset, f"{_SYMBOL[old]} -> {_SYMBOL[_SWAP[old]]}",
                          lambda node=node, new=_SWAP[old]: setattr(node, "op", new())))
        elif isinstance(node, ast.Compare):
            for i, (op, right) in enumerate(zip(node.ops, node.comparators)):
                new = _FLIP[type(op)]
                sites.append((right.lineno, right.col_offset, f"{_SYMBOL[type(op)]} -> {_SYMBOL[new]}",
                              lambda ops=node.ops, i=i, new=new: ops.__setitem__(i, new())))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            sites.append((node.lineno, node.col_offset, "drop unary -",
                          lambda node=node: setattr(node, "op", ast.UAdd())))
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            for step in (1, -1):
                new = node.value + step
                sites.append((node.lineno, node.col_offset, f"{node.value!r} -> {new!r}",
                              lambda node=node, new=new: setattr(node, "value", new)))
    return sorted(sites, key=lambda site: site[:3])


def _source(module: str) -> str:
    return (ROOT / "src" / "ruinwalk" / f"{module}.py").read_text()


def mutants() -> list[Mutant]:
    """Every mutant of :data:`MODULES`, in module and source order."""
    out = []
    for module in MODULES:
        source = _source(module)
        lines = source.splitlines()
        seen = Counter()
        for index in range(len(_sites(ast.parse(source)))):
            tree = ast.parse(source)  # a fresh tree per mutant: the edit is in place
            line, _, label, edit = _sites(tree)[index]
            edit()
            text = lines[line - 1].strip()
            seen[text, label] += 1
            mutation = label if seen[text, label] == 1 else f"{label} #{seen[text, label]}"
            out.append(Mutant(module, line, text, mutation, ast.unparse(tree) + "\n"))
    return out


def _workdir() -> Path:
    """A temporary copy of the sources and tests, and the files the tests read, without byte-code.

    Each audited module is in the copy as ``ast.unparse`` writes it.
    """
    work = Path(tempfile.mkdtemp(prefix="mutation-audit-"))
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    shutil.copytree(ROOT / "src", work / "src", ignore=ignore)
    shutil.copytree(ROOT / "tests", work / "tests", ignore=ignore)
    for name in ("pyproject.toml", "FORMULA_ERRATA.md"):
        shutil.copy(ROOT / name, work / name)
    for module in MODULES:
        (work / "src" / "ruinwalk" / f"{module}.py").write_text(ast.unparse(ast.parse(_source(module))) + "\n")
    return work


def _run(work: Path, mutant: Mutant, argv: list[str], timeout: float) -> subprocess.CompletedProcess | None:
    """Run ``argv`` in ``work`` with ``mutant`` in place of its module; None on a timeout.

    Afterwards the module is restored and the examples hypothesis saved are
    deleted, so no later mutant replays them.
    """
    path = work / "src" / "ruinwalk" / f"{mutant.module}.py"
    original = path.read_text()
    path.write_text(mutant.source)
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        # its own session, so that a timeout kills the processes it forked too
        with subprocess.Popen(argv, cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, start_new_session=True) as proc:
            try:
                out, err = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                return None
        return subprocess.CompletedProcess(argv, proc.returncode, out, err)
    finally:
        path.write_text(original)
        shutil.rmtree(work / ".hypothesis", ignore_errors=True)


def verify_kills(work: Path, mutant: Mutant) -> dict[str, list[str]]:
    """The verify check functions that fail or raise on ``mutant``, each with what failed; empty if it survives."""
    proc = _run(work, mutant, [sys.executable, "-c", _VERIFY], VERIFY_TIMEOUT_S)
    if proc is None:
        return {"(run)": [f"timeout after {VERIFY_TIMEOUT_S} s"]}
    if proc.returncode:
        return {"(run)": [f"crash, exit {proc.returncode}"]}
    return json.loads(proc.stdout.splitlines()[-1])


def first_failing_test(work: Path, mutant: Mutant) -> str | None:
    """The first closed-form test that fails on ``mutant``; None if every one passes."""
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", *(f"tests/{name}" for name in TESTS)]
    proc = _run(work, mutant, argv, TESTS_TIMEOUT_S)
    if proc is None:
        return f"timeout after {TESTS_TIMEOUT_S} s"
    if proc.returncode == 0:
        return None
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return failed[0] if failed else f"exit {proc.returncode}"


def _map(fn, items: list, workdirs: SimpleQueue) -> list:
    """``fn(work, item)`` for each item, on :data:`JOBS` threads that each hold one work copy."""

    def one(item):
        work = workdirs.get()
        try:
            return fn(work, item)
        finally:
            workdirs.put(work)

    with ThreadPoolExecutor(JOBS) as pool:
        return list(pool.map(one, items))


def identity_checks() -> list[str]:
    """The check functions that verify's identity share, ``_identity_checks``, calls, in order."""
    tree = ast.parse((ROOT / "src" / "ruinwalk" / "verify.py").read_text())
    share = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_identity_checks")
    return [node.func.id for node in ast.walk(share) if isinstance(node, ast.Call)]


def audit() -> dict:
    found = mutants()
    works = [_workdir() for _ in range(JOBS)]
    workdirs = SimpleQueue()
    for work in works:
        workdirs.put(work)
    try:
        # the unmutated copy must pass, or every mutant would look killed; this
        # "mutant" is the module the copy already holds
        module = MODULES[0]
        control = Mutant(module, 0, "", "none", ast.unparse(ast.parse(_source(module))) + "\n")
        failed = verify_kills(works[0], control) or first_failing_test(works[0], control)
        if failed:
            raise SystemExit(f"the unmutated copy fails: {failed}")
        start = time.perf_counter()
        kills = _map(verify_kills, found, workdirs)
        verify_s = time.perf_counter() - start
        missed = [m for m, k in zip(found, kills) if not k]
        start = time.perf_counter()
        killers = dict(zip((m.key for m in missed), _map(first_failing_test, missed, workdirs)))
        tests_s = time.perf_counter() - start
    finally:
        for work in works:
            shutil.rmtree(work, ignore_errors=True)
    return {
        "mutants": [
            {"module": m.module, "line": m.line, "text": m.text, "mutation": m.mutation,
             "verify": k, "tests": killers.get(m.key) if not k else None}
            for m, k in zip(found, kills)
        ],
        "identity_checks": identity_checks(),
        "verify_s": round(verify_s, 1),
        "tests_s": round(tests_s, 1),
    }


def tally(report: dict) -> tuple[Counter, Counter]:
    """Per check function, the mutants it kills and those it kills alone; a raise counts for its function."""
    kills, alone = Counter(), Counter()
    for m in report["mutants"]:
        checks = {name.removesuffix(" (raised)") for name in m["verify"]}
        kills.update(checks)
        if len(checks) == 1:
            alone.update(checks)
    return kills, alone


def judge(report: dict) -> list[str]:
    """The audit's faults: survivors of both phases not listed as equivalent, stale or killed entries,
    and identity checks that kill no mutant alone."""
    faults, keys = [], set()
    for m in report["mutants"]:
        key = m["module"], m["text"], m["mutation"]
        keys.add(key)
        survived = not m["verify"] and m["tests"] is None
        if survived and key not in EQUIVALENT:
            faults.append(f"survivor {m['module']}.py:{m['line']} `{m['text']}` {m['mutation']}")
        elif key in EQUIVALENT and not survived:
            faults.append(f"listed as equivalent but killed: {key}")
    faults += [f"listed as equivalent but no such mutant: {key}" for key in EQUIVALENT if key not in keys]
    _, alone = tally(report)
    faults += [f"identity check {name} kills no mutant alone" for name in report["identity_checks"] if not alone[name]]
    return faults


def summary(report: dict) -> list[str]:
    rows = report["mutants"]
    lines = []
    for module in MODULES:
        mine = [m for m in rows if m["module"] == module]
        lines.append(f"{module}: {len(mine)} mutants, verify kills {sum(bool(m['verify']) for m in mine)}")
    killed = [m for m in rows if m["verify"]]
    lines.append(f"verify --quick kills {len(killed)} of {len(rows)} mutants in {report['verify_s']} s")
    kills, alone = tally(report)
    identity = report["identity_checks"]
    names = sorted({*identity, *kills}, key=lambda name: (-kills[name], name))
    width = max(map(len, names), default=0)
    lines.append(f"  {'check':<{width}}  kills  alone")
    lines += [f"  {name:<{width}}  {kills[name]:5d}  {alone[name]:5d}" + ("" if name in identity else "  (exempt)")
              for name in names]
    missed = [m for m in rows if not m["verify"]]
    tests_killed = sum(m["tests"] is not None for m in missed)
    lines.append(f"the closed-form tests kill {tests_killed} of verify's {len(missed)} survivors "
                 f"in {report['tests_s']} s")
    for m in missed:
        if m["tests"] is None:
            key = m["module"], m["text"], m["mutation"]
            reason = EQUIVALENT.get(key, "NOT LISTED AS EQUIVALENT")
            lines.append(f"  survives: {m['module']}.py:{m['line']} `{m['text']}` {m['mutation']}: {reason}")
    return lines


def main() -> int:
    report = audit()
    print("\n".join(summary(report)))
    faults = judge(report)
    print("\n".join(faults) if faults else "every surviving mutant is a listed equivalent")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
