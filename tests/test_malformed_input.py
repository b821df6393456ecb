"""Malformed input as a property test: one file of a small dataset is
corrupted, and every command that reads that file must exit 0, or exit 2
with stderr naming the file. No corruption may end in a runtime error
(exit 1).

The dataset is three frames of the `adjacent` preset, in text and in
binary, with its `generate` labels and `mock-detect` predictions, written
once per session. Each example corrupts one of its files in place, runs
the readers in process and restores the file.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from sembox import dataio
from sembox.cli import main
from sembox.config import PipelineConfig
from sembox.synth import generate_sequence, preset_scene

N_FRAMES = 3

# Each corruptible file kind: its directory, relative to a dataset's root,
# and the commands that read it.
READERS = {
    "points": ("ds/points", ("generate", "refine", "score-labels")),
    "pose": ("ds/poses", ("generate", "refine", "score-labels")),
    "gt_labels": ("ds/gt_labels", ("mock-detect", "evaluate")),
    "labels": ("gen/labels", ("score-labels", "evaluate")),
    "predictions": ("preds", ("refine",)),
    "manifest": ("ds", ("generate", "refine", "score-labels", "evaluate",
                        "mock-detect")),
}
BOX_FILES = ("gt_labels", "labels", "predictions")
TOKEN_VALUES = (b"nan", b"inf", b"1e999", b"garbage")
MUTATIONS = (*TOKEN_VALUES, b"drop-token", b"add-token", b"truncate",
             b"flip-bit", b"duplicate-line", b"garbage-line")
# The default config lacks these class ids.
UNCONFIGURED = (4, 7)


def argv(command: str, root: Path, out: Path) -> list[str]:
    ds, gt = root / "ds", root / "ds" / "gt_labels"
    return [str(a) for a in {
        "generate": ["generate", ds, "--threads", "1", "--out", out / "gen"],
        "refine": ["refine", ds, "--preds", root / "preds", "--out", out / "ref"],
        "score-labels": ["score-labels", ds, "--labels", root / "gen" / "labels"],
        "evaluate": ["evaluate", ds, "--labels", root / "gen" / "labels",
                     "--gt", gt, "--report", out / "report.json"],
        "mock-detect": ["mock-detect", ds, "--labels", gt, "--out", out / "preds"],
    }[command]]


def run(args: list[str]) -> tuple[int, str]:
    """main(args) in process: its exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(args)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def roots(tmp_path_factory) -> dict[str, Path]:
    """A dataset root per points format, each holding ds/, gen/labels and
    preds/."""
    frames, gt = generate_sequence(preset_scene("adjacent", 0))
    frames = frames[:N_FRAMES]
    out = {}
    for fmt in ("text", "binary"):
        root = tmp_path_factory.mktemp(fmt)
        dataio.write_dataset(root / "ds", frames, PipelineConfig().class_names(),
                             gt={fr.frame_id: gt[fr.frame_id] for fr in frames},
                             points_format=fmt)
        assert run(argv("generate", root, root))[0] == 0
        assert run(["mock-detect", str(root / "ds"), "--labels",
                    str(root / "gen" / "labels"), "--noise", "mild",
                    "--out", str(root / "preds")])[0] == 0
        out[fmt] = root
    return out


def corrupt(raw: bytes, mutation: bytes, at: int) -> bytes:
    """raw with one corruption, placed by at."""
    tokens = list(re.finditer(rb"\S+", raw))
    token = tokens[at % len(tokens)]
    lines = raw.splitlines(keepends=True)
    line = at % len(lines)
    if mutation in TOKEN_VALUES:
        return raw[:token.start()] + mutation + raw[token.end():]
    if mutation == b"drop-token":
        return raw[:token.start()] + raw[token.end():]
    if mutation == b"add-token":
        return raw[:token.end()] + b" 7" + raw[token.end():]
    if mutation == b"truncate":
        return raw[:at % len(raw)]
    if mutation == b"flip-bit":
        i = (at // 8) % len(raw)
        return raw[:i] + bytes([raw[i] ^ (1 << at % 8)]) + raw[i + 1:]
    if mutation == b"duplicate-line":
        return b"".join(lines[:line + 1] + lines[line:])
    assert mutation == b"garbage-line"
    return b"".join(lines[:line] + [b"garbage 1 2\n"] + lines[line:])


def with_class_id(raw: bytes, class_id: int, at: int) -> bytes:
    """raw, a labels or predictions file, with one row's class_id set."""
    lines = raw.splitlines(keepends=True)
    line = at % len(lines)
    fields = lines[line].split(b" ")
    fields[1] = b"%d" % class_id
    return b"".join(lines[:line] + [b" ".join(fields)] + lines[line + 1:])


@st.composite
def corruptions(draw):
    kind = draw(st.sampled_from(sorted(READERS)))
    mutation = draw(st.sampled_from(
        MUTATIONS + (b"class-id",) if kind in BOX_FILES else MUTATIONS))
    return (draw(st.sampled_from(["text", "binary"])), kind,
            draw(st.integers(0, N_FRAMES - 1)), mutation,
            draw(st.integers(0, 2**32 - 1)))


# A label of a class the config lacks, which score-labels cannot score.
@example(case=("text", "labels", 0, b"class-id", 0))
# The manifest's third frame id read as 3: the labels' frame 2 is unknown.
@example(case=("binary", "manifest", 0, b"flip-bit", 445 * 8))
@settings(max_examples=150, deadline=None)
@given(case=corruptions())
def test_exits_0_or_2_naming_the_file(roots, case):
    fmt, kind, frame, mutation, at = case
    root = roots[fmt]
    folder, commands = READERS[kind]
    if kind == "manifest":
        path = root / folder / "manifest.json"
    else:
        path = sorted((root / folder).glob("frame_*"))[frame]
    raw = path.read_bytes()
    assert raw, path  # every file of the dataset holds a row
    path.write_bytes(with_class_id(raw, UNCONFIGURED[at % 2], at)
                     if mutation == b"class-id" else corrupt(raw, mutation, at))
    try:
        with tempfile.TemporaryDirectory() as out:
            for command in commands:
                code, err = run(argv(command, root, Path(out)))
                assert code == 0 or (code == 2 and str(path) in err), \
                    (command, code, err)
    finally:
        path.write_bytes(raw)
