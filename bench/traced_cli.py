"""Run one ruinwalk CLI command in this process with the tracer installed.

Usage, from the repository root::

    python3 bench/traced_cli.py TRACE.json -- sweep --p 0.3:0.7:0.01 ...

The command's output goes where it would without tracing; the trace (per
function totals, span records and the facts the observers collect) is
written to ``TRACE.json``.  The exit code is the command's.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import tracer as tr


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    trace_path, argv = Path(sys.argv[1]), sys.argv[3:]
    tr.add_src_to_path(Path.cwd())

    facts = {"truncation_k": [], "uniforms": 0, "philox_words": 0,
             "trial_steps": 0.0, "trials": 0, "escaped": 0}
    lock = threading.Lock()  # rng observers run on the Monte Carlo worker threads

    def on_solve_exact(bound, sol):
        facts["truncation_k"].append(sol.truncation_k)

    def on_step_uniforms(bound, uniforms):
        with lock:
            facts["uniforms"] += int(uniforms.shape[0])

    def on_philox(bound, words):
        with lock:
            facts["philox_words"] += int(words.size)

    def on_simulate(bound, sim):
        bound.apply_defaults()
        facts["trial_steps"] += (
            sum(sim.time_sum_by_state.values()) + sim.escaped * bound.arguments["max_steps"]
        )
        facts["trials"] += sim.trials
        facts["escaped"] += sim.escaped

    tracer = tr.Tracer({
        "oracle.solve_exact": on_solve_exact,
        "rng.step_uniforms": on_step_uniforms,
        "rng.philox4x32": on_philox,
        "oracle.simulate": on_simulate,
    })
    from ruinwalk import cli

    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        trace_path.write_text(json.dumps({**tracer.report(), "facts": facts}))


if __name__ == "__main__":
    sys.exit(main())
