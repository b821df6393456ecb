import json
import logging

import numpy as np
import pytest

from sembox.cli import main
from sembox.geometry import PointCloud


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds") / "adjacent"
    assert main(["synth", "--preset", "adjacent", "--seed", "3",
                 "--out", str(root)]) == 0
    return root


class TestSynth:
    def test_layout(self, dataset):
        assert (dataset / "manifest.json").is_file()
        assert len(list((dataset / "points").glob("*.txt"))) == 11
        assert len(list((dataset / "poses").glob("*.txt"))) == 11
        assert len(list((dataset / "gt_labels").glob("*.txt"))) == 11

    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--preset", "bogus", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_binary_format(self, tmp_path):
        out = tmp_path / "b"
        assert main(["synth", "--preset", "adjacent", "--seed", "1",
                     "--out", str(out), "--format", "binary"]) == 0
        assert (out / "points" / "frame_000000.bin").is_file()


class TestGenerate:
    def test_generate_and_artifacts(self, dataset, tmp_path):
        out = tmp_path / "gen"
        assert main(["generate", str(dataset), "--out", str(out),
                     "--threads", "1"]) == 0
        labels = sorted((out / "labels").glob("frame_*.txt"))
        assert len(labels) == 11
        summary = json.loads((out / "summary.json").read_text())
        assert summary["labels_total"] > 0

    def test_deterministic_byte_identical(self, dataset, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["generate", str(dataset), "--out", str(out),
                         "--threads", "1"]) == 0
        for fa in sorted((a / "labels").glob("*.txt")):
            fb = b / "labels" / fa.name
            assert fa.read_bytes() == fb.read_bytes()

    def test_missing_dataset_exits_2(self, tmp_path):
        assert main(["generate", str(tmp_path / "nope"), "--out",
                     str(tmp_path / "out")]) == 2

    def test_seed_flag_rejected(self, dataset, tmp_path):
        # Only mock-detect (and synth) are seeded.
        with pytest.raises(SystemExit) as exc:
            main(["generate", str(dataset), "--out", str(tmp_path / "o"),
                  "--threads", "1", "--seed", "5"])
        assert exc.value.code == 2

    def test_bad_config_exits_2(self, dataset, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cell_size": -3}))
        assert main(["generate", str(dataset), "--out", str(tmp_path / "o"),
                     "--config", str(cfg)]) == 2


class TestEvaluate:
    def test_end_to_end(self, dataset, tmp_path):
        gen = tmp_path / "gen"
        assert main(["generate", str(dataset), "--out", str(gen),
                     "--threads", "1"]) == 0
        report = tmp_path / "report.json"
        assert main(["evaluate", str(dataset), "--labels", str(gen / "labels"),
                     "--gt", str(dataset / "gt_labels"),
                     "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["per_threshold"]["0.5"]["overall"]["tp"] > 0

    def test_mixed_preset_end_to_end(self, tmp_path):
        ds = tmp_path / "mixed"
        assert main(["synth", "--preset", "mixed", "--seed", "12",
                     "--out", str(ds)]) == 0
        gen = tmp_path / "gen"
        assert main(["generate", str(ds), "--out", str(gen),
                     "--threads", "1"]) == 0
        report = tmp_path / "report.json"
        assert main(["evaluate", str(ds), "--labels", str(gen / "labels"),
                     "--gt", str(ds / "gt_labels"),
                     "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["per_threshold"]["0.3"]["overall"]["tp"] > 0


class TestExitCodes:
    def test_runtime_error_exits_1(self, dataset, tmp_path, capsys):
        # The input is valid, but the output directory cannot be made:
        # runtime failure, not a usage problem.
        out = tmp_path / "out"
        out.write_text("")
        assert main(["generate", str(dataset), "--out", str(out),
                     "--threads", "1"]) == 1
        assert "Not a directory" in capsys.readouterr().err


    def test_pose_span_at_the_grid_bound_runs(self, dataset, tmp_path):
        # (4755 + 2 * 80) / 0.3 rounds up to 16384 cells per side, the bound:
        # the grid's 256 MiB of labels are zero-filled lazily.
        argv, _ = _shifted_pose(4755.0)(dataset, tmp_path)
        assert main(argv) == 0


class TestParseCache:
    def test_second_refine_parses_no_text(self, tmp_path, monkeypatch):
        # A self-training round is a new refine process on the same text
        # points: each file's bytes are parsed once, then read from its
        # parse cache entry.
        ds, preds = tmp_path / "ds", tmp_path / "preds"
        assert main(["synth", "--preset", "adjacent", "--seed", "3",
                     "--out", str(ds)]) == 0
        assert main(["mock-detect", str(ds), "--labels", str(ds / "gt_labels"),
                     "--out", str(preds)]) == 0
        sources = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt",
                            lambda src, **kw: sources.append(src) or loadtxt(src, **kw))
        calls = []
        for out in ("first", "second"):
            assert main(["refine", str(ds), "--preds", str(preds),
                         "--out", str(tmp_path / out), "--threads", "1"]) == 0
            calls.append(len(sources))
            sources.clear()
        assert calls == [11, 0]
        assert len(list((ds / "points" / ".sembox-cache").iterdir())) == 11


class TestUnconfiguredClass:
    def test_warns_once_per_class_with_its_count(self, dataset, tmp_path, caplog):
        # A copy whose foreground is all class 4, which the manifest names
        # and the default config lacks: nothing is clustered, and each
        # command that reads points says so once.
        import shutil
        from sembox import dataio
        copy = tmp_path / "ds"
        shutil.copytree(dataset, copy)
        manifest = json.loads((copy / "manifest.json").read_text())
        manifest["classes"]["4"] = "truck"
        (copy / "manifest.json").write_text(json.dumps(manifest))
        fg = 0
        for path in sorted((copy / "points").glob("*.txt")):
            cloud = dataio.read_points(path)
            class_id = np.where(cloud.class_id > 0, 4, 0)
            fg += int(np.count_nonzero(class_id))
            dataio.write_points_text(path, PointCloud(cloud.xyz, class_id))
        preds, gen = tmp_path / "preds", tmp_path / "gen"
        assert main(["mock-detect", str(copy), "--labels", str(copy / "gt_labels"),
                     "--out", str(preds)]) == 0
        for argv in (["generate", str(copy), "--threads", "1", "--out", str(gen)],
                     ["score-labels", str(copy), "--labels", str(copy / "gt_labels")],
                     ["refine", str(copy), "--preds", str(preds),
                      "--out", str(tmp_path / "refined")]):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="sembox"):
                assert main(argv) == 0
            assert [r.getMessage() for r in caplog.records] == [
                f"class id 4: {fg} foreground points, but the config has no "
                "entry for it, so none is clustered or scored"]
        labels = sorted((gen / "labels").glob("*.txt"))
        assert fg > 0 and len(labels) == 11
        assert all(p.read_bytes() == b"" for p in labels)

    def test_refine_sets_aside_predictions_of_the_class(self, tmp_path, caplog):
        # mixed holds pedestrians (class 2), which this config lacks: their
        # exact predictions survive SCF, yet cannot be scored. The round
        # equals the one whose predictions never held them.
        from dataclasses import asdict
        from sembox import dataio
        from sembox.config import PipelineConfig
        ds, preds, kept = tmp_path / "ds", tmp_path / "preds", tmp_path / "kept"
        config = asdict(PipelineConfig())
        config["classes"] = {str(c): config["classes"][c] for c in (1, 3)}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["synth", "--preset", "mixed", "--seed", "0",
                     "--format", "binary", "--out", str(ds)]) == 0
        assert main(["mock-detect", str(ds), "--labels", str(ds / "gt_labels"),
                     "--noise", "none", "--out", str(preds),
                     "--config", str(cfg)]) == 0
        all_preds = dataio.read_box_dir(preds, "predictions")
        dataio.write_box_dir(kept, {fid: [p for p in ps if p.box.class_id != 2]
                                    for fid, ps in all_preds.items()},
                             "predictions")
        n = sum(p.box.class_id == 2 for ps in all_preds.values() for p in ps)
        outputs, warnings = [], []
        for source in (preds, kept):
            out = tmp_path / f"out_{source.name}"
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="sembox"):
                assert main(["refine", str(ds), "--preds", str(source),
                             "--out", str(out), "--config", str(cfg)]) == 0
            warnings.append(caplog.messages[1:])  # after the points' warning
            outputs.append({str(p.relative_to(out)): p.read_bytes()
                            for p in sorted(out.rglob("*")) if p.is_file()})
        assert n > 0 and warnings == [
            [f"class id 2: {n} predictions, but the config has no entry for "
             "it, so refine sets them aside"], []]
        assert any(v for k, v in outputs[0].items() if k.startswith("labels/"))
        assert outputs[0] == outputs[1]

    def test_mock_detect_draws_only_configured_classes(self, tmp_path, caplog):
        # A config holding classes 1 and 3 only: flipped and false-positive
        # classes come from its table, so refine sets nothing aside.
        from dataclasses import asdict
        from sembox import dataio
        from sembox.config import PipelineConfig
        ds, gen, preds = tmp_path / "ds", tmp_path / "gen", tmp_path / "preds"
        config = asdict(PipelineConfig())
        config["classes"] = {str(c): config["classes"][c] for c in (1, 3)}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["synth", "--preset", "mixed", "--seed", "0",
                     "--format", "binary", "--out", str(ds)]) == 0
        assert main(["generate", str(ds), "--out", str(gen), "--threads", "1",
                     "--config", str(cfg)]) == 0
        assert main(["mock-detect", str(ds), "--labels", str(gen / "labels"),
                     "--noise", "default", "--out", str(preds),
                     "--config", str(cfg)]) == 0
        classes = {p.box.class_id for ps in
                   dataio.read_box_dir(preds, "predictions").values() for p in ps}
        assert classes == {1, 3}
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="sembox"):
            assert main(["refine", str(ds), "--preds", str(preds),
                         "--out", str(tmp_path / "refined"),
                         "--config", str(cfg)]) == 0
        assert not any("sets them aside" in m for m in caplog.messages)


class TestManifestOnlyCommands:
    def test_no_points_read(self, dataset, tmp_path, monkeypatch, capsys):
        # mock-detect and evaluate use only frame ids: a corrupt points
        # file does not fail them, while generate, which reads it, exits 2.
        import shutil
        from sembox import dataio
        copy = tmp_path / "ds"
        shutil.copytree(dataset, copy)
        bad = copy / "points" / "frame_000004.txt"
        bad.write_text("1 2 x 1\n")
        calls = []
        read_points = dataio.read_points
        monkeypatch.setattr(dataio, "read_points",
                            lambda path: calls.append(path) or read_points(path))
        gt = str(copy / "gt_labels")
        assert main(["mock-detect", str(copy), "--labels", gt, "--noise", "mild",
                     "--out", str(tmp_path / "preds")]) == 0
        assert main(["evaluate", str(copy), "--labels", gt, "--gt", gt,
                     "--report", str(tmp_path / "r.json")]) == 0
        assert calls == []
        assert main(["generate", str(copy), "--out", str(tmp_path / "gen"),
                     "--threads", "1"]) == 2
        assert f"{bad}:1:" in capsys.readouterr().err


class TestRefineCli:
    def test_mock_detect_then_refine(self, dataset, tmp_path):
        preds = tmp_path / "preds"
        assert main(["mock-detect", str(dataset), "--labels",
                     str(dataset / "gt_labels"), "--noise", "mild",
                     "--out", str(preds), "--seed", "9"]) == 0
        out = tmp_path / "refined"
        assert main(["refine", str(dataset), "--preds", str(preds),
                     "--out", str(out)]) == 0
        assert len(list((out / "labels").glob("*.txt"))) == 11
        assert len(list((out / "retained").glob("*.txt"))) == 11

    def test_refine_empty_predictions(self, dataset, tmp_path, caplog):
        preds = tmp_path / "empty_preds"
        preds.mkdir()
        out = tmp_path / "refined"
        with caplog.at_level(logging.WARNING, logger="sembox"):
            assert main(["refine", str(dataset), "--preds", str(preds),
                         "--out", str(out)]) == 0
        assert any("no boxes" in r.message for r in caplog.records)
        total = sum(len(p.read_text().splitlines())
                    for p in (out / "labels").glob("*.txt"))
        assert total == 0

    def test_unknown_noise_profile_exits_2(self, dataset, tmp_path):
        assert main(["mock-detect", str(dataset), "--labels",
                     str(dataset / "gt_labels"), "--noise", "nope",
                     "--out", str(tmp_path / "p")]) == 2


class TestScoreLabels:
    def test_rescore_matches_generate(self, dataset, tmp_path, capsys):
        gen = tmp_path / "gen"
        assert main(["generate", str(dataset), "--out", str(gen),
                     "--threads", "1"]) == 0
        out = tmp_path / "rescored"
        assert main(["score-labels", str(dataset), "--labels",
                     str(gen / "labels"), "--out", str(out)]) == 0
        from sembox import dataio
        orig = dataio.read_box_dir(gen / "labels")
        redo = dataio.read_box_dir(out)
        for fid in orig:
            for a, b in zip(orig[fid], redo[fid]):
                assert a.scores.msf == pytest.approx(b.scores.msf, abs=1e-9)


class TestThreadResolution:
    def test_env_override(self, monkeypatch):
        from sembox.pipeline import resolve_threads, THREADS_ENV_VAR
        monkeypatch.setenv(THREADS_ENV_VAR, "3")
        assert resolve_threads(None) == 3
        assert resolve_threads(2) == 2  # explicit flag wins
        monkeypatch.setenv(THREADS_ENV_VAR, "junk")
        with pytest.raises(ValueError):
            resolve_threads(None)

    def test_default_is_the_affinity_set(self, monkeypatch):
        import os
        from sembox.pipeline import resolve_threads, THREADS_ENV_VAR
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_threads(None) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert resolve_threads(None) == 8

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_flag_below_one_rejected_at_parse(self, dataset, tmp_path,
                                              capsys, value):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["generate", str(dataset), "--out", str(out),
                  "--threads", value])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_env_below_one_rejected(self, monkeypatch, value):
        from sembox.pipeline import resolve_threads, THREADS_ENV_VAR
        monkeypatch.setenv(THREADS_ENV_VAR, value)
        with pytest.raises(ValueError, match=THREADS_ENV_VAR):
            resolve_threads(None)

    @pytest.mark.parametrize("command", ["synth", "generate", "refine",
                                         "score-labels", "evaluate",
                                         "mock-detect"])
    @pytest.mark.parametrize("value", ["0", "-2", "x"])
    def test_bad_env_exits_2(self, dataset, tmp_path, monkeypatch, capsys,
                             value, command):
        from sembox.pipeline import THREADS_ENV_VAR
        monkeypatch.setenv(THREADS_ENV_VAR, value)
        gt, out = str(dataset / "gt_labels"), str(tmp_path / "out")
        argv = {
            "synth": ["--preset", "adjacent", "--out", out],
            "generate": [str(dataset), "--out", out],
            "refine": [str(dataset), "--preds", gt, "--out", out],
            "score-labels": [str(dataset), "--labels", gt, "--out", out],
            "evaluate": [str(dataset), "--labels", gt, "--gt", gt,
                         "--report", out],
            "mock-detect": [str(dataset), "--labels", gt, "--out", out],
        }[command]
        assert main([command, *argv]) == 2
        assert THREADS_ENV_VAR in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def _bad_prediction(second_line):
    def build(dataset, tmp):
        preds = tmp / "preds"
        preds.mkdir()
        f = preds / "frame_000000.txt"
        f.write_text(f"0 1 10 0 0.8 4 1.8 1.6 0 0.9\n{second_line}\n")
        return (["refine", str(dataset), "--preds", str(preds),
                 "--out", str(tmp / "out")], f"{f}:2:")
    return build


def _bad_label(fields, frame="0", name="frame_000000.txt"):
    def build(dataset, tmp):
        labels = tmp / "labels"
        labels.mkdir()
        f = labels / name
        f.write_text(f"{frame} 1 {fields} 1 1 1 1 1 init\n")
        return (["evaluate", str(dataset), "--labels", str(labels),
                 "--gt", str(dataset / "gt_labels"),
                 "--report", str(tmp / "r.json")], f"{f}:1:")
    return build


def _label_files(*names):
    """Empty label files, or directories for names ending in "/"; the last
    name is the one the error must name."""
    def build(dataset, tmp):
        labels = tmp / "labels"
        labels.mkdir()
        for name in names:
            if name.endswith("/"):
                (labels / name).mkdir()
            else:
                (labels / name).write_text("")
        return (["mock-detect", str(dataset), "--labels", str(labels),
                 "--out", str(tmp / "out")], str(labels / names[-1]))
    return build


def _bad_manifest(edit, where, command="generate"):
    def build(dataset, tmp):
        import shutil
        copy = tmp / "ds"
        shutil.copytree(dataset, copy)
        manifest = json.loads((copy / "manifest.json").read_text())
        edit(manifest)
        (copy / "manifest.json").write_text(json.dumps(manifest))
        return (_dataset_command(command, copy, tmp),
                f"{copy / 'manifest.json'}: {where}")
    return build


def _bad_manifest_entry(edit, where):
    return _bad_manifest(lambda manifest: edit(manifest["frames"]),
                         f"frames[3]{where}")


def _deleted_pose(command):
    def build(dataset, tmp):
        import shutil
        copy = tmp / "ds"
        shutil.copytree(dataset, copy)
        pose = copy / "poses" / "frame_000004.txt"
        pose.unlink()
        argv = {"generate": ["generate", str(copy), "--threads", "1"],
                "mock-detect": ["mock-detect", str(copy), "--labels",
                                str(copy / "gt_labels")]}[command]
        return argv + ["--out", str(tmp / "out")], f"missing {pose}"
    return build


def _shifted_pose(shift):
    """A dataset copy whose frame 2 pose is moved by (shift, shift) m, and a
    refine of one prediction on it; adjacent's other poses sit at the
    origin. The error names frame 2's pose file last."""
    def build(dataset, tmp):
        import shutil
        copy = tmp / "ds"
        shutil.copytree(dataset, copy)
        pose = copy / "poses" / "frame_000002.txt"
        rows = [line.split() for line in pose.read_text().splitlines()]
        for row in rows[:2]:
            row[3] = repr(float(row[3]) + shift)
        pose.write_text("".join(" ".join(row) + "\n" for row in rows))
        preds = tmp / "preds"
        preds.mkdir()
        (preds / "frame_000002.txt").write_text("2 1 10 0 0.8 4 1.8 1.6 0 0.9\n")
        return (["refine", str(copy), "--preds", str(preds), "--out", str(tmp / "out"),
                 "--threads", "1"], f"{pose}: the motion grid over the poses")
    return build


def _frame_99(command):
    """A box directory holding a file of frame 99, which the dataset lacks."""
    def build(dataset, tmp):
        import shutil
        boxes = tmp / "boxes"
        if command == "refine":
            boxes.mkdir()
            (boxes / "frame_000099.txt").write_text(
                "99 1 10 0 0.8 4 1.8 1.6 0 0.9\n")
        else:
            shutil.copytree(dataset / "gt_labels", boxes)
            (boxes / "frame_000099.txt").write_text(
                "99 1 10 0 0.8 4 1.8 1.6 0 1 1 1 1 1 init\n")
        gt, ds = str(dataset / "gt_labels"), str(dataset)
        argv = {
            "mock-detect": ["mock-detect", ds, "--labels", str(boxes),
                            "--out", str(tmp / "out")],
            "refine": ["refine", ds, "--preds", str(boxes),
                       "--out", str(tmp / "out")],
            "evaluate-labels": ["evaluate", ds, "--labels", str(boxes),
                                "--gt", gt, "--report", str(tmp / "r.json")],
            "evaluate-gt": ["evaluate", ds, "--labels", gt, "--gt", str(boxes),
                            "--report", str(tmp / "r.json")],
            "score-labels": ["score-labels", ds, "--labels", str(boxes),
                             "--threads", "1"],
        }[command]
        return argv, f"{boxes}: frame 99 is not in the dataset's manifest"
    return build


def _bad_noise(profile, where):
    """profile is a JSON value, or the file's bytes."""
    def build(dataset, tmp):
        path = tmp / "noise.json"
        path.write_bytes(profile if isinstance(profile, bytes)
                         else json.dumps(profile).encode())
        return (["mock-detect", str(dataset), "--labels",
                 str(dataset / "gt_labels"), "--noise", str(path),
                 "--out", str(tmp / "out")], f"{path}: {where}")
    return build


def _bad_config(config, where, command="generate"):
    """config is a JSON value, or the file's bytes."""
    def build(dataset, tmp):
        path = tmp / "cfg.json"
        path.write_bytes(config if isinstance(config, bytes)
                         else json.dumps(config).encode())
        return (_dataset_command(command, dataset, tmp) + ["--config", str(path)],
                f"{path}: {where}")
    return build


def _dataset_command(command, ds, tmp):
    """argv running command on dataset ds, reading its gt_labels or
    tmp/preds; output goes under tmp."""
    gt = str(ds / "gt_labels")
    return {
        "generate": ["generate", str(ds), "--threads", "1", "--out", str(tmp / "out")],
        "refine": ["refine", str(ds), "--preds", str(tmp / "preds"),
                   "--out", str(tmp / "out")],
        "mock-detect": ["mock-detect", str(ds), "--labels", gt,
                        "--out", str(tmp / "out")],
        "evaluate": ["evaluate", str(ds), "--labels", gt, "--gt", gt,
                     "--report", str(tmp / "r.json")],
        "score-labels": ["score-labels", str(ds), "--labels", gt],
    }[command]


# The file each kind of text names in a dataset copy, and a command reading it.
_TEXT_FILES = {
    "points": ("ds/points/frame_000002.txt", "generate"),
    "pose": ("ds/poses/frame_000002.txt", "generate"),
    "labels": ("ds/gt_labels/frame_000002.txt", "mock-detect"),
    "scored-labels": ("ds/gt_labels/frame_000002.txt", "score-labels"),
    "predictions": ("preds/frame_000002.txt", "refine"),
    "manifest": ("ds/manifest.json", "mock-detect"),
}


def _bad_bytes(kind, content, where):
    """A dataset copy with one file of the given kind holding content; the
    error names that file, then where."""
    def build(dataset, tmp):
        import shutil
        shutil.copytree(dataset, tmp / "ds")
        name, command = _TEXT_FILES[kind]
        (tmp / name).parent.mkdir(exist_ok=True)
        (tmp / name).write_bytes(content)
        return _dataset_command(command, tmp / "ds", tmp), f"{tmp / name}{where}"
    return build


def _manifest_without(key):
    return _bad_manifest_entry(lambda entries: entries[3].pop(key),
                               f".{key}: missing required field")


_VEHICLE = {"name": "vehicle", "radii": [0.4], "min_cluster_size": 10,
            "meta_shape": [4.6, 1.8, 1.6]}

MALFORMED = {
    "confidence-1.5": _bad_prediction("0 1 20 0 0.8 4 1.8 1.6 0 1.5"),
    "prediction-frame_id-differs": _bad_prediction(
        "5 1 20 0 0.8 4 1.8 1.6 0 0.9"),
    "degenerate-label-box": _bad_label("0 0 0.8 0 1.8 1.6 0"),
    "non-finite-label-box": _bad_label("nan 0 0.8 4 1.8 1.6 0"),
    "label-frame_id-differs": _bad_label("10 0 0.8 4 1.8 1.6 0", frame="7",
                                         name="frame_000003.txt"),
    "frame_abc.txt": _label_files("frame_abc.txt"),
    "frame_000001.txt-directory": _label_files("frame_000001.txt/"),
    "frame_1_copy.txt": _label_files("frame_000001.txt", "frame_1_copy.txt"),
    "frame_1.txt-beside-frame_000001.txt": _label_files("frame_000001.txt",
                                                        "frame_1.txt"),
    "manifest-no-frame_id": _manifest_without("frame_id"),
    "manifest-no-points": _manifest_without("points"),
    "manifest-no-pose": _manifest_without("pose"),
    "manifest-frame_id-abc": _bad_manifest_entry(
        lambda entries: entries[3].update(frame_id="abc"),
        ".frame_id: must be an integer, got 'abc'"),
    "manifest-entry-not-object": _bad_manifest_entry(
        lambda entries: entries.insert(3, 5), ": must be an object, got 5"),
    "manifest-timestamp-abc": _bad_manifest_entry(
        lambda entries: entries[3].update(timestamp="abc"),
        ".timestamp: must be a finite number, got 'abc'"),
    **{f"manifest-frame_id-{name}": _bad_manifest_entry(
        lambda entries, value=value: entries[3].update(frame_id=value),
        f".frame_id: must be an integer, got {value!r}")
       for name, value in (("0.9", 0.9), ("true", True), ("string", "3"))},
    **{f"manifest-timestamp-{name}": _bad_manifest_entry(
        lambda entries, value=value: entries[3].update(timestamp=value),
        f".timestamp: must be a finite number, got {value!r}")
       for name, value in (("true", True), ("nan", float("nan")))},
    "manifest-class-id-x": _bad_manifest(
        lambda manifest: manifest["classes"].update(x="car"),
        "classes: keys must be integers in canonical decimal form, got 'x'"),
    # Refine's sequence grid spans every pose centre +- detection_range, 80 m;
    # at 0.3 m cells, 16384 cells per side leave poses 4755.2 m apart.
    "pose-span-1e9": _shifted_pose(1e9),
    "pose-span-4756": _shifted_pose(4756.0),
    "pose-deleted-generate": _deleted_pose("generate"),
    "pose-deleted-mock-detect": _deleted_pose("mock-detect"),
    **{f"frame-99-{command}": _frame_99(command)
       for command in ("mock-detect", "refine", "evaluate-labels",
                       "evaluate-gt", "score-labels")},
    "noise-pos_sigma-negative": _bad_noise({"pos_sigma": -1},
                                           "pos_sigma: must be >= 0"),
    "noise-pos_sigma-text": _bad_noise({"pos_sigma": "a"},
                                       "pos_sigma: must be a finite number, got 'a'"),
    "noise-drop_prob-true": _bad_noise({"drop_prob": True},
                                       "drop_prob: must be a finite number, got True"),
    "noise-drop_prob-2": _bad_noise({"drop_prob": 2},
                                    "drop_prob: must be in [0, 1]"),
    **{f"non-utf8-{kind}": _bad_bytes(kind, b"1 2 3 1\n\xff\n", ": not UTF-8 text")
       for kind in ("points", "pose", "labels", "predictions", "manifest")},
    "non-utf8-config": _bad_config(b'{"cell_size": \xff}', "not UTF-8 text"),
    "manifest-not-object": _bad_bytes("manifest", b"5", ": must be an object, got 5"),
    "pose-row-after-blank-line": _bad_bytes(
        "pose", b"\n1 0 0 0\n0 1 0 x\n0 0 1 0\n", ":3: could not convert"),
    "points-class-id-99999999999": _bad_bytes(
        "points", b"1 2 3 1\n1 2 3 99999999999\n", ":2: class id 99999999999"),
    "label-msf-nan": _bad_bytes(
        "labels", b"2 1 10 0 0.8 4 1.8 1.6 0 1 1 1 nan 1 init\n",
        ":1: msf nan is not finite"),
    "label-weight-inf": _bad_bytes(
        "labels", b"2 1 10 0 0.8 4 1.8 1.6 0 1 1 1 1 inf init\n",
        ":1: weight inf is not finite"),
    "label-class-0": _bad_bytes(
        "labels", b"2 0 10 0 0.8 4 1.8 1.6 0 1 1 1 1 1 init\n",
        ":1: class_id 0 is not a foreground class"),
    # score-labels scores only the config's classes; the default lacks 4 and 7.
    **{f"label-class-{cid}-score-labels": _bad_bytes(
        "scored-labels", b"2 1 10 0 0.8 4 1.8 1.6 0 1 1 1 1 1 init\n"
        b"2 %d 20 0 0.8 4 1.8 1.6 0 1 1 1 1 1 init\n" % cid,
        f":2: class_id {cid} has no entry in the config")
       for cid in (4, 7)},
    "prediction-class-0": _bad_bytes(
        "predictions", b"2 1 10 0 0.8 4 1.8 1.6 0 0.9\n2 0 20 0 0.8 4 1.8 1.6 0 0.9\n",
        ":2: class_id 0 is not a foreground class"),
    **{f"{kind}-field-count": _bad_bytes(kind, content, where)
       for kind, content, where in (
           ("points", b"1 2 3 1\n1 2 3\n", ":2: expected 4 fields, got 3"),
           ("pose", b"1 0 0 0\n0 1 0\n0 0 1 0\n", ":2: expected 4 fields, got 3"),
           ("labels", b"\n2 1 10 0 0.8 4 1.8 1.6 0 1 1 1 1 1\n",
            ":2: expected 15 fields, got 14"),
           ("predictions", b"2 1 10 0 0.8 4 1.8 1.6 0 0.9 7\n",
            ":1: expected 10 fields, got 11"))},
    **{f"manifest-no-frames-{command}": _bad_manifest(
        lambda manifest: manifest.update(frames=[]),
        "frames: must be a non-empty list", command)
       for command in ("generate", "refine", "mock-detect", "evaluate")},
    "config-cell_size-text": _bad_config(
        {"cell_size": "a"}, "cell_size: must be a finite number, got 'a'"),
    "config-cell_size-true": _bad_config(
        {"cell_size": True}, "cell_size: must be a finite number, got True"),
    "config-lambdas-bools": _bad_config(
        {"lambdas": [True, False, False]},
        "lambdas: must be a list of finite numbers, got (True, False, False)"),
    "config-radii-text": _bad_config(
        {"classes": {"1": {"name": "vehicle", "radii": ["0.4"],
                           "min_cluster_size": 10,
                           "meta_shape": [4.6, 1.8, 1.6]}}},
        "classes[1].radii: must be a list of finite numbers, got ('0.4',)"),
    "config-lambdas-nan": _bad_config(
        {"lambdas": [float("nan"), 0.5, 0.5]},
        "lambdas: must be a list of finite numbers, got (nan, 0.5, 0.5)"),
    "config-seed-2.5": _bad_config({"seed": 2.5}, "seed: must be an integer, got 2.5",
                                   "mock-detect"),
    "config-eval_iou_thresholds-repeated": _bad_config(
        {"eval_iou_thresholds": [0.5, 0.5]},
        "eval_iou_thresholds: must be distinct", "evaluate"),
    # 0.3 and 0.30000000000000004 would share the report's key "0.3".
    "config-eval_iou_thresholds-print-alike": _bad_config(
        {"eval_iou_thresholds": [0.3, 0.30000000000000004, 0.5]},
        "eval_iou_thresholds: must be distinct as the report keys them", "evaluate"),
    # Each passed the field's own check but could not be allocated (exit 1).
    "config-detection_range-1e12": _bad_config(
        {"detection_range": 1e12}, "detection_range/cell_size: the BEV cells per "
        "side, 2 * detection_range / cell_size, must be <= 16384, got 6.66667e+12"),
    "config-cell_size-1e-9": _bad_config(
        {"cell_size": 1e-9}, "detection_range/cell_size: the BEV cells per side, "
        "2 * detection_range / cell_size, must be <= 16384, got 1.6e+11"),
    "config-yaw_step_deg-1e-9": _bad_config(
        {"yaw_step_deg": 1e-9}, "yaw_step_deg: the yaws each box fit tries, "
        "90 / yaw_step_deg, must be <= 900, got 9e+10"),
    "config-occ_grid_r-100000000": _bad_config(
        {"occ_grid_r": 100000000}, "occ_grid_r: must be in [1, 100]"),
    "config-seed--1": _bad_config({"seed": -1}, "seed: must be >= 0",
                                  "mock-detect"),
    "config-class_agnostic_eval-1": _bad_config(
        {"class_agnostic_eval": 1},
        "class_agnostic_eval: must be true or false, got 1"),
    "config-class-not-object": _bad_config({"classes": {"1": 5}},
                                           "classes[1]: must be an object, got 5"),
    **{f"manifest-{key}-5": _bad_manifest_entry(
        lambda entries, key=key: entries[3].update({key: 5}),
        f".{key}: must be a string, got 5") for key in ("points", "pose")},
    **{f"config-{name}-{value}": _bad_config(
        {name: value}, f"{name}: must be an integer, got {value!r}")
       for name, value in (("window_half_size", 2.5), ("epsilon", 2.5),
                           ("min_pts", 2.5), ("occ_grid_r", 7.5),
                           ("scf_min_points", True))},
    "config-min_cluster_size-2.5": _bad_config(
        {"classes": {"1": {"name": "vehicle", "radii": [0.4],
                           "min_cluster_size": 2.5,
                           "meta_shape": [4.6, 1.8, 1.6]}}},
        "classes[1].min_cluster_size: must be an integer, got 2.5"),
    # Each class field's fault names that field, with its own reason.
    **{f"config-{key}-{name}": _bad_config(
        {"classes": {"1": {**_VEHICLE, key: value}}}, f"classes[1].{key}: {why}")
       for key, name, value, why in (
           ("min_cluster_size", "0", 0, "must be >= 1"),
           ("meta_shape", "2-components", [4.6, 1.8], "must have 3 components"),
           ("meta_shape", "zero", [4.6, 0.0, 1.6], "components must be > 0"),
           ("radii", "descending", [0.7, 0.4], "must be strictly ascending"))},
    "config-range_bin_edges-empty": _bad_config(
        {"range_bin_edges": []}, "range_bin_edges: must be non-empty", "evaluate"),
    **{f"config-class-id-{name}": _bad_config(
        {"classes": {"1": _VEHICLE, key: _VEHICLE}},
        f"classes: keys must be integers in canonical decimal form, got {key!r}")
       for name, key in (("01", "01"), ("space-2", " 2"), ("plus-3", "+3"),
                         ("1_0", "1_0"))},
    **{f"manifest-class-id-{key}": _bad_manifest(
        lambda manifest, key=key: manifest["classes"].update({key: 7}),
        f"classes: keys must be integers in canonical decimal form, got {key!r}")
       for key in ("01", "1_0")},
    "manifest-class-id--5": _bad_manifest(
        lambda manifest: manifest["classes"].update({"-5": "car"}),
        "classes: keys must be class ids >= 0, got '-5'"),
    **{f"manifest-class-name-{value}": _bad_manifest(
        lambda manifest, value=value: manifest["classes"].update({"1": value}),
        f"classes[1]: must be a string, got {value!r}")
       for value in (7, None)},
    "config-repeated-key": _bad_config(b'{"seed": 1, "seed": 2}',
                                       "key 'seed' is repeated in one object"),
    # json.dumps writes the int key 1 as "1", beside the manifest's own "1".
    "manifest-repeated-key": _bad_manifest(
        lambda manifest: manifest["classes"].update({1: "car"}),
        "key '1' is repeated in one object"),
    "noise-repeated-key": _bad_noise(b'{"pos_sigma": 0.1, "pos_sigma": 5}',
                                     "key 'pos_sigma' is repeated in one object"),
    "manifest-unknown-field": _bad_manifest_entry(
        lambda entries: entries[3].update(timestmap=5.0), ".timestmap: unknown field"),
    "noise-not-object": _bad_noise([0.1], "must be an object, got [0.1]"),
    "non-utf8-noise": _bad_noise(b'{"pos_sigma": \xff}', "not UTF-8 text"),
    "config-nested-too-deep": _bad_config(b"[" * 100000,
                                          "maximum recursion depth exceeded"),
}


class TestSeedFlags:
    @pytest.mark.parametrize("value", ["-1", "x"])
    @pytest.mark.parametrize("command", ["synth", "mock-detect"])
    def test_seed_below_zero_rejected_at_parse(self, dataset, tmp_path,
                                               capsys, command, value):
        out = tmp_path / "out"
        argv = {"synth": ["synth", "--preset", "adjacent"],
                "mock-detect": ["mock-detect", str(dataset), "--labels",
                                str(dataset / "gt_labels")]}[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out), "--seed", value])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_2_naming_the_place(self, dataset, tmp_path, capsys, case):
        argv, where = MALFORMED[case](dataset, tmp_path)
        assert main(argv) == 2
        assert where in capsys.readouterr().err
