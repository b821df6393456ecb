"""The benchmark's workloads: their datasets and their command sequences.

Each workload names the synthetic scenes it builds from the seed, the
points format it stores them in, and the ``sembox`` CLI commands one
repetition runs over them. README.md in this directory says why each
workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from sembox import dataio, synth
from sembox.config import PipelineConfig

SELFTRAIN_ROUNDS = 2
# Under the "default" profile, recall and precision of the refined labels
# at IoU 0.5 moved by a third from seed to seed (STCF broadcasts one box per
# static object to every frame, so quality moves in whole objects); under
# "mild" they move by under a tenth. Refine does the same work under both.
NOISE = "mild"


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the output directories it must leave."""

    argv: tuple[str, ...]
    labels: tuple[Path, ...] = ()       # parsed with read_box_dir(kind="labels")
    predictions: tuple[Path, ...] = ()  # parsed with read_box_dir(kind="predictions")
    others: tuple[Path, ...] = ()       # hashed only
    report: Path | None = None          # JSON that must parse

    @property
    def name(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Plan:
    """One repetition: its commands and the (dataset, labels) pairs whose
    labels are the workload's final output."""

    commands: list[Command]
    finals: list[tuple[Path, Path]]


def _generate_plan(datasets: dict[str, Path], out: Path, seed: int) -> Plan:
    commands, finals = [], []
    for name, data in datasets.items():
        dest = out / name
        commands.append(Command(
            ("generate", str(data), "--out", str(dest), "--threads", "1"),
            labels=(dest / "labels",)))
        finals.append((data, dest / "labels"))
    return Plan(commands, finals)


def _selftrain_plan(datasets: dict[str, Path], out: Path, seed: int) -> Plan:
    """Rounds of mock-detect -> refine -> evaluate; round 0 detects from
    ground truth, each later round from the previous round's labels."""
    commands, finals = [], []
    for name, data in datasets.items():
        source = data / "gt_labels"
        for rnd in range(SELFTRAIN_ROUNDS):
            preds = out / name / f"preds{rnd}"
            refined = out / name / f"refined{rnd}"
            report = out / name / f"report{rnd}.json"
            commands += [
                Command(("mock-detect", str(data), "--labels", str(source),
                         "--noise", NOISE, "--out", str(preds),
                         "--seed", str(seed * 1000 + rnd), "--threads", "1"),
                        predictions=(preds,)),
                Command(("refine", str(data), "--preds", str(preds),
                         "--out", str(refined), "--threads", "1"),
                        labels=(refined / "labels",),
                        others=(refined / "retained",)),
                Command(("evaluate", str(data), "--labels", str(refined / "labels"),
                         "--gt", str(data / "gt_labels"), "--report", str(report),
                         "--threads", "1"),
                        report=report),
            ]
            source = refined / "labels"
        finals.append((data, source))
    return Plan(commands, finals)


@dataclass(frozen=True)
class Workload:
    name: str
    scenes: Callable[[int], dict[str, synth.SceneSpec]]
    points_format: str
    plan: Callable[[dict[str, Path], Path, int], Plan]

    def build_datasets(self, root: Path, seed: int,
                       scenes: dict[str, synth.SceneSpec] | None = None
                       ) -> dict[str, Path]:
        """Write the workload's datasets under root (the timed set-up)."""
        class_names = PipelineConfig().class_names()
        out = {}
        for name, spec in (scenes or self.scenes(seed)).items():
            frames, gt = synth.generate_sequence(spec)
            dataio.write_dataset(root / name, frames, class_names, gt=gt,
                                 points_format=self.points_format)
            out[name] = root / name
        return out


WORKLOADS = {w.name: w for w in (
    Workload("gen-perf-bin", lambda seed: {"perf": synth.perf_scene(seed)},
             "binary", _generate_plan),
    Workload("gen-presets-bin",
             lambda seed: {p: synth.preset_scene(p, seed) for p in synth.PRESET_NAMES},
             "binary", _generate_plan),
    Workload("selftrain-perf-text", lambda seed: {"perf": synth.perf_scene(seed)},
             "text", _selftrain_plan),
)}
