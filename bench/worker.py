"""One timed repetition of a workload, run in a fresh process by run.py.

Usage: ``python worker.py SPEC.json``. The spec names the workload, seed,
repetition id, trace flag, the prepared dataset directories and the output
directory; the result is written as JSON to ``spec["result"]``.

Every repetition runs in its own process, as each ``sembox`` command does
for a CLI user, so every repetition pays the same first-pass costs
(allocator growth, lazy imports) and none is discarded as a warm-up. The
peak RSS of this process covers the repetition's commands only; set-up
happens in the parent.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path


def _call_cli(argv) -> int:
    from sembox import cli
    try:
        return cli.main(list(argv))
    except SystemExit as e:  # argparse rejected the command line
        return e.code if isinstance(e.code, int) else 2


def run_plan(plan, tracer=None) -> tuple[float, list[tuple[str, int, float]]]:
    """Run a repetition's commands; returns its wall time and, per command,
    (name, exit code, seconds). With a tracer, each command is a span."""
    results = []
    start = time.perf_counter()
    for cmd in plan.commands:
        t0 = time.perf_counter()
        if tracer is None:
            code = _call_cli(cmd.argv)
        else:
            with tracer.span(f"cli.{cmd.name}"):
                code = _call_cli(cmd.argv)
        results.append((cmd.name, code, time.perf_counter() - t0))
    return time.perf_counter() - start, results


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    sys.path.insert(0, spec["src"])
    import sembox.cli  # noqa: F401  (imported before the clock starts)
    from tracing import Tracer
    from workloads import WORKLOADS

    plan = WORKLOADS[spec["workload"]].plan(
        {k: Path(v) for k, v in spec["datasets"].items()}, Path(spec["out"]),
        spec["seed"])
    tracer = Tracer() if spec["traced"] else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        if tracer:
            tracer.rep = spec["rep"]
        wall, results = run_plan(plan, tracer)
    result = {
        "wall_s": wall,
        "commands": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["layers"] = tracer.layer_metrics(spec["rep"])
        result["spans"] = tracer.spans
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
