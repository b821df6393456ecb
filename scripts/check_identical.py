#!/usr/bin/env python3
"""Check that two source trees write byte-identical files.

    python scripts/check_identical.py OLD/src NEW/src [--quick]
        [--threads 1 2] [--work DIR]

Each tree writes its own datasets: the five presets and perf_scene, in
text and binary, at each of SEEDS. On each dataset it then runs, with
its own code, generate with the default config and with each of CONFIGS
(a coarse yaw step, the closeness fit, and ragged radius lists whose
longest is a later class's), score-labels --out on the default labels,
and two mock-detect --noise mild -> refine -> evaluate rounds (round 0
detects from ground truth, round 1 from round 0's refined labels), once
per thread count. Commands run from the tree's work directory with
relative paths, so printed paths agree; each command's exit code,
standard output and standard error are kept as a file too. Every file of
one tree is then compared with the same file of the other. The files
that differ, the files that only one tree wrote and the commands that
failed are listed, and the exit status is 1 if there are any. A
differing labels file is listed with its row count in A and in B and the
number of rows that differ once each side's rows are sorted. --quick
limits the datasets to the presets, in text and binary, and perf_scene
at the first seed in binary only: its ~100k-point frames are where
clustering spends its time.

Both modes also write `far`, in text and binary: preset mixed at the
first seed, with a 64-point class-1 blob at x ~ 3e15 added to its middle
frame. Its cell floors lie beyond 2**53, so every DBSCAN grid of that
frame's windows takes the ranked keys no other dataset reaches.
"""

from __future__ import annotations

import argparse
import collections
import filecmp
import json
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SEEDS = (0, 7)

# Directories that hold labels files: generate's and refine's labels/, the
# rescored/ output of score-labels below and each dataset's gt_labels/.
LABEL_DIRS = ("labels", "rescored", "gt_labels")

# Configs generate also runs with, by name: the area fit at a coarse yaw
# step; the closeness fit, which fits each member set on its own; and
# ragged radius lists, one for vehicles and four for pedestrians, so the
# longest list is a later class's and the other classes lack radii there.
CONFIGS = {"yaw2": {"yaw_step_deg": 2.0},
           "closeness": {"fit_criterion": "closeness"},
           "ragged": {"classes": {
               "1": {"name": "vehicle", "radii": [1.0], "min_cluster_size": 10,
                     "meta_shape": [4.6, 1.8, 1.6]},
               "2": {"name": "pedestrian", "radii": [0.2, 0.35, 0.5, 0.8],
                     "min_cluster_size": 5, "meta_shape": [0.8, 0.8, 1.7]},
               "3": {"name": "cyclist", "radii": [0.3, 0.5, 0.8], "min_cluster_size": 5,
                     "meta_shape": [1.8, 0.6, 1.7]}}}}

# Run with a tree's src/ first on the path; refuses any other sembox.
_WRITE_DATASETS = """
import dataclasses
import sys
from pathlib import Path
import numpy as np
import sembox
from sembox import dataio, synth
from sembox.config import PipelineConfig
from sembox.geometry import PointCloud
src, root, quick = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3] == "1"
if Path(sembox.__file__).resolve().parent != (src / "sembox").resolve():
    sys.exit(f"imported sembox from {sembox.__file__}, not from {src}")
names = PipelineConfig().class_names()
seeds = [int(s) for s in sys.argv[4:]]
for seed in seeds:
    scenes = {p: synth.preset_scene(p, seed) for p in synth.PRESET_NAMES}
    if not quick or seed == seeds[0]:
        scenes["perf"] = synth.perf_scene(seed)
    for name, spec in scenes.items():
        frames, gt = synth.generate_sequence(spec)
        for fmt in ("binary",) if quick and name == "perf" else ("text", "binary"):
            dataio.write_dataset(root / f"{name}-{fmt}-{seed}", frames, names,
                                 gt=gt, points_format=fmt)
frames, gt = synth.generate_sequence(synth.preset_scene("mixed", seeds[0]))
mid = frames[len(frames) // 2]
x, y = np.meshgrid(3e15 + 0.3 * np.arange(8), 0.3 * np.arange(8))
blob = np.column_stack([x.ravel(), y.ravel(), np.full(64, -1.0)])
frames[len(frames) // 2] = dataclasses.replace(mid, points=PointCloud(
    np.vstack([mid.points.xyz, blob]), np.r_[mid.points.class_id, np.ones(64, int)]))
for fmt in ("text", "binary"):
    dataio.write_dataset(root / f"far-{fmt}-{seeds[0]}", frames, names,
                         gt=gt, points_format=fmt)
"""


def _commands(dataset: str, threads: int) -> list[tuple[str, list[str]]]:
    """(log name, sembox argv) of every command run on one dataset."""
    d, o, t = f"data/{dataset}", f"out/{dataset}/t{threads}", ["--threads", str(threads)]
    steps = [
        ("generate", ["generate", d, "--out", f"{o}/gen", *t]),
        ("score-labels", ["score-labels", d, "--labels", f"{o}/gen/labels",
                          "--out", f"{o}/rescored", *t]),
    ]
    steps += [(f"generate-{name}", ["generate", d, "--config", f"configs/{name}.json",
                                    "--out", f"{o}/gen-{name}", *t])
              for name in CONFIGS]
    source = f"{d}/gt_labels"
    for rnd in range(2):
        steps += [
            (f"mock-detect{rnd}", ["mock-detect", d, "--labels", source,
                                   "--noise", "mild", "--seed", str(3 + rnd),
                                   "--out", f"{o}/preds{rnd}", *t]),
            (f"refine{rnd}", ["refine", d, "--preds", f"{o}/preds{rnd}",
                              "--out", f"{o}/refined{rnd}", *t]),
            (f"evaluate{rnd}", ["evaluate", d, "--labels", f"{o}/refined{rnd}/labels",
                                "--gt", f"{d}/gt_labels",
                                "--report", f"{o}/report{rnd}.json", *t]),
        ]
        source = f"{o}/refined{rnd}/labels"
    return steps


def _run_tree(src: Path, work: Path, args) -> float:
    """Write the datasets and run every command with the tree at src;
    returns the seconds taken."""
    start = time.monotonic()
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    (work / "data").mkdir(parents=True)
    (work / "configs").mkdir()
    for name, config in CONFIGS.items():
        (work / "configs" / f"{name}.json").write_text(json.dumps(config))
    subprocess.run([sys.executable, "-c", _WRITE_DATASETS, str(src), "data",
                    "1" if args.quick else "0", *map(str, SEEDS)],
                   cwd=work, env=env, check=True)
    for dataset in sorted(p.name for p in (work / "data").iterdir()):
        for threads in args.threads:
            for name, argv in _commands(dataset, threads):
                run = subprocess.run([sys.executable, "-m", "sembox.cli", *argv],
                                     cwd=work, env=env, capture_output=True,
                                     text=True)
                log = work / "out" / dataset / f"t{threads}" / f"{name}.log"
                log.parent.mkdir(parents=True, exist_ok=True)
                log.write_text(f"exit {run.returncode}\n--- stdout\n{run.stdout}"
                               f"--- stderr\n{run.stderr}")
    return time.monotonic() - start


def _files(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def _row_counts(a: Path, b: Path) -> str:
    """' (rows: A n, B m; k differ after sorting)' for two versions of a labels
    file: k counts the rows of the longer side left unmatched when each
    row of A is paired with an equal row of B."""
    rows_a, rows_b = (collections.Counter(p.read_text().splitlines()) for p in (a, b))
    n_a, n_b = sum(rows_a.values()), sum(rows_b.values())
    differ = max((rows_a - rows_b).total(), (rows_b - rows_a).total())
    return f" (rows: A {n_a}, B {n_b}; {differ} differ after sorting)"


def compare(a: Path, b: Path) -> tuple[int, list[str]]:
    """(files compared, one line per file that differs or is one-sided,
    and per command that failed on either side)."""
    fa, fb = _files(a), _files(b)
    lines = [f"only in A: {p}" for p in sorted(fa - fb)]
    lines += [f"only in B: {p}" for p in sorted(fb - fa)]
    for p in sorted(fa & fb):
        if not filecmp.cmp(a / p, b / p, shallow=False):
            rows = _row_counts(a / p, b / p) if p.parent.name in LABEL_DIRS else ""
            lines.append(f"differs: {p}{rows}")
    for side, root, files in (("A", a, fa), ("B", b, fb)):
        lines += [f"failed in {side}: {p}" for p in sorted(files)
                  if p.suffix == ".log"
                  and not (root / p).read_text().startswith("exit 0\n")]
    return len(fa | fb), lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a", type=Path, help="src/ directory of tree A")
    parser.add_argument("src_b", type=Path, help="src/ directory of tree B")
    parser.add_argument("--quick", action="store_true",
                        help="the presets in text and binary, and perf_scene "
                             "at the first seed in binary only")
    parser.add_argument("--threads", type=int, nargs="+", default=[1])
    parser.add_argument("--work", type=Path, default=None,
                        help="keep the outputs in this new directory "
                             "(default: a temporary one)")
    args = parser.parse_args(argv)
    for src in (args.src_a, args.src_b):
        if not (src / "sembox" / "__init__.py").is_file():
            parser.error(f"{src}/sembox/__init__.py not found")

    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        sides = [work / "A", work / "B"]
        # The trees run side by side: their outputs never meet until compared.
        with ThreadPoolExecutor(2) as pool:
            seconds = list(pool.map(lambda src, side: _run_tree(src.resolve(), side, args),
                                    (args.src_a, args.src_b), sides))
        n, lines = compare(*sides)
    print(f"A {args.src_a}: {seconds[0]:.1f} s; B {args.src_b}: {seconds[1]:.1f} s")
    for line in lines:
        print(line)
    print(f"{len(lines)} problems in {n} files" if lines
          else f"all {n} files identical, every command exited 0")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
