"""sembox benchmark: time the label pipelines end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload gen-perf-bin --seed 0 --seconds 25 --trace 0

The run builds the workload's synthetic datasets from the seed (the timed
set-up, done at least three times and reported as the median), then
repeats the workload's ``sembox`` CLI commands single-threaded, one fresh
worker process per repetition, until ``--seconds`` have passed. Every
command's outputs are checked after each repetition. ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
repetitions, prints the per-layer metrics and writes the spans to
``.bench_work/traces/``. The last line of standard output is the JSON
result; the line before it records the host and every repetition.
README.md in this directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
# Set-up is built at least this many times, and again until this much
# time has gone into it, so the sub-second builds get a steady median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
TIME_LIMIT_S = 170.0
# numpy's OpenBLAS otherwise starts a second thread that busy-waits on the
# other core, which made timings depend on what else ran there.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "recall_0.3": "ratio", "mean_iou_0.5": "ratio",
}


def _import_program(root: Path) -> Path:
    """Import sembox from the checkout's src/; never an installed copy."""
    src = root / "src"
    if not (src / "sembox" / "__init__.py").is_file():
        raise RuntimeError(f"{src}/sembox not found: run from the root of a sembox checkout")
    sys.path.insert(0, str(src))
    import sembox
    if Path(sembox.__file__).resolve().parent != (src / "sembox").resolve():
        raise RuntimeError(f"imported sembox from {sembox.__file__}, not {src}")
    return src


# Output checks -------------------------------------------------------------


def _hash_dir(h, root: Path) -> None:
    for f in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(f.relative_to(root).as_posix().encode() + b"\0")
        h.update(f.read_bytes())


def output_digest(cmd) -> str:
    """Parse a command's outputs and hash their bytes; raises when an output
    is missing or malformed."""
    from sembox import dataio
    for d in cmd.labels:
        dataio.read_box_dir(d, kind="labels")
    for d in cmd.predictions:
        dataio.read_box_dir(d, kind="predictions")
    if cmd.report is not None:
        json.loads(cmd.report.read_text())
    h = hashlib.sha256()
    for d in cmd.labels + cmd.predictions + cmd.others:
        if not d.is_dir():
            raise FileNotFoundError(f"{d}: missing output directory")
        _hash_dir(h, d)
    return h.hexdigest()


def check_plan(plan, results, reference: list[str] | None) -> tuple[list[str], list[str]]:
    """Check every command of a repetition: exit code 0, outputs that parse,
    and bytes equal to the reference repetition's. Returns (digests,
    failure messages), at most one failure per command."""
    digests, failures = [], []
    for k, (cmd, (name, code, _)) in enumerate(zip(plan.commands, results)):
        digest = ""
        if code != 0:
            failures.append(f"{name}: exit code {code}")
        else:
            try:
                digest = output_digest(cmd)
            except (OSError, ValueError) as e:
                failures.append(f"{name}: {e}")
            else:
                if reference is not None and digest != reference[k]:
                    failures.append(f"{name}: output bytes differ from the first repetition")
        digests.append(digest)
    return digests, failures


def quality(finals) -> dict[str, float]:
    """Quality of the final labels against gt_labels, pooled over every
    dataset: recall at 3D IoU 0.3 and 0.5, precision at 0.5, the mean 3D IoU
    of the labels matched at 0.5, and the mean BEV centre error of
    compute_report's matched pairs."""
    from sembox import dataio, evaluation
    from sembox.config import PipelineConfig

    config = PipelineConfig()
    per_frame, matched_iou = [], []
    for data, labels_dir in finals:
        manifest = json.loads((data / "manifest.json").read_text())
        gts = dataio.read_box_dir(data / "gt_labels", kind="labels")
        labels = dataio.read_box_dir(labels_dir, kind="labels")
        for entry in manifest["frames"]:
            fid = int(entry["frame_id"])
            labs = labels.get(fid, [])
            frame = ([lab.box for lab in labs], [lab.scores.msf for lab in labs],
                     [g.box for g in gts.get(fid, [])])
            per_frame.append(frame)
            matched_iou += [iou for _, _, iou in evaluation.match_labels(
                *frame, 0.5, config.class_agnostic_eval).pairs]
    report = evaluation.compute_report(
        per_frame, thresholds=(0.3, 0.5), range_bin_edges=config.range_bin_edges,
        class_agnostic=config.class_agnostic_eval)
    at_03, at_05 = report.counts[0.3]["overall"], report.counts[0.5]["overall"]
    matched = sum(rb.count for rb in report.range_bins)
    return {
        "recall_0.3": at_03.recall or 0.0,
        "mean_iou_0.5": sum(matched_iou) / len(matched_iou) if matched_iou else 0.0,
        "evaluation.recall_0.5": at_05.recall or 0.0,
        "evaluation.precision_0.5": at_05.precision or 0.0,
        "evaluation.pos_mae_m":
            sum(rb.position_abs for rb in report.range_bins) / matched if matched else 0.0,
    }


# Run -----------------------------------------------------------------------


def setup(workload, seed: int, work: Path, tracer=None):
    """Build the datasets repeatedly and keep the first copy.
    Returns (dataset dirs, seconds per build)."""
    times, kept = [], None
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        k = len(times)
        root = work / f"data{k}"
        if tracer is not None:
            tracer.rep = k
        t0 = time.perf_counter()
        datasets = workload.build_datasets(root, seed)
        times.append(time.perf_counter() - t0)
        if kept is None:
            kept = datasets
        else:
            shutil.rmtree(root)
    return kept, times


def run_rep(spec: dict, work: Path, deadline: float) -> dict:
    """One repetition in a fresh worker process; raises on a worker failure."""
    path = work / f"spec{spec['rep']}.json"
    path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(path)],
        stdout=subprocess.DEVNULL, timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(Path(spec["result"]).read_text())


def measure(workload, args, src: Path, work: Path, datasets, deadline: float) -> dict:
    """Start repetitions until --seconds have passed, checking each
    repetition's outputs against the first one's. With --trace 1, odd
    repetitions are traced and at least one of each kind runs."""
    reps, failures, attempted = [], [], 0
    reference = finals = None
    start = time.perf_counter()
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        out = work / f"rep{k}"
        spec = {"src": str(src), "workload": workload.name, "seed": args.seed,
                "rep": k, "traced": traced, "out": str(out),
                "result": str(work / f"result{k}.json"),
                "datasets": {n: str(p) for n, p in datasets.items()}}
        rep = run_rep(spec, work, deadline)
        rep["traced"] = traced
        plan = workload.plan(datasets, out, args.seed)
        digests, missed = check_plan(plan, rep["commands"], reference)
        attempted += len(plan.commands)
        failures += missed
        if reference is None:
            reference, finals = digests, plan.finals
        else:
            shutil.rmtree(out, ignore_errors=True)
        reps.append(rep)
        k += 1
        n_traced = sum(r["traced"] for r in reps)
        if (time.perf_counter() - start >= args.seconds
                and n_traced < len(reps) and (n_traced or not args.trace)):
            return {"reps": reps, "failures": failures, "attempted": attempted,
                    "finals": finals}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    deadline = time.perf_counter() + TIME_LIMIT_S
    root = Path.cwd()
    os.environ.update(SINGLE_THREAD_ENV)  # before numpy loads; workers inherit it
    try:
        src = _import_program(root)
    except (RuntimeError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    import numpy
    from tracing import PER_LAYER, Tracer, write_spans
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    host = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": args.seed,
            "workload": workload.name, "seconds": args.seconds,
            "trace": args.trace}

    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=root / ".bench_work"))
    try:
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            with tracer.installed():
                datasets, setup_times = setup(workload, args.seed, work, tracer)
        else:
            datasets, setup_times = setup(workload, args.seed, work)
        try:
            run = measure(workload, args, src, work, datasets, deadline)
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        reps = run["reps"]
        plain = [r for r in reps if not r["traced"]]

        if args.trace:
            traced = [r for r in reps if r["traced"]]
            metrics = {name: statistics.median(r["layers"][name] for r in traced)
                       for name in traced[0]["layers"]}
            metrics["dataio.write_dataset.s"] = statistics.median(
                tracer.layer_metrics(k)["dataio.write_dataset.s"]
                for k in range(len(setup_times)))
            metrics["trace.overhead_ratio"] = (
                statistics.median(r["wall_s"] for r in traced)
                / statistics.median(r["wall_s"] for r in plain) - 1.0)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
            spans, base = [], 0
            for r in traced:
                spans += [(n, s, e, p + base if p >= 0 else -1, rep)
                          for n, s, e, p, rep in r.pop("spans")]
                base = len(spans)
            traces = root / ".bench_work" / "traces"
            traces.mkdir(exist_ok=True)
            write_spans(traces / f"{workload.name}-seed{args.seed}.tsv", host, spans)
        else:
            metrics = {"wall_s": statistics.median(r["wall_s"] for r in plain),
                       "setup_s": statistics.median(setup_times),
                       "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}
            units = END_TO_END_UNITS
        metrics.update(quality(run["finals"]))
        for msg in run["failures"]:
            print(f"check failed: {msg}", file=sys.stderr)
        print(json.dumps({"host": host, "setup_s": setup_times,
                          "reps": [{k: v for k, v in r.items() if k != "layers"}
                                   for r in reps]}))
        print(json.dumps({
            "correct": not run["failures"],
            "attempted": run["attempted"],
            "failed": len(run["failures"]),
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
