"""The label path writes the same bytes whichever math kernels the CPU
selects: OpenBLAS picks its kernel per CPU (OPENBLAS_CORETYPE forces one),
and numpy dispatches its SIMD loops per CPU (NPY_DISABLE_CPU_FEATURES
turns them off). Each setting, and the unset environment, runs the whole
chain in one child process, one child at a time, and every output file
must be byte-identical. Where OpenBLAS ignores the variable, or the CPU
has no feature to force or disable, a setting repeats the default run."""

import filecmp
import os
import subprocess
import sys
from pathlib import Path

import sembox
from sembox import dataio, synth
from sembox.config import PipelineConfig

_CHAIN = """
import sys
from sembox.cli import main
d, o = sys.argv[1], sys.argv[2]
for argv in (
        ["generate", d, "--out", f"{o}/gen", "--threads", "1"],
        ["score-labels", d, "--labels", f"{o}/gen/labels", "--out", f"{o}/rescored"],
        ["mock-detect", d, "--labels", f"{d}/gt_labels", "--noise", "mild",
         "--seed", "3", "--out", f"{o}/preds"],
        ["refine", d, "--preds", f"{o}/preds", "--out", f"{o}/refined"],
        ["evaluate", d, "--labels", f"{o}/refined/labels", "--gt", f"{d}/gt_labels",
         "--report", f"{o}/report.json"]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
"""


def cpu_settings() -> dict[str, dict[str, str]]:
    """Environment overrides, by name, that change the kernels on this CPU:
    two OpenBLAS core types where the CPU can run them, and numpy's
    dispatched SIMD features that the CPU has, all disabled."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    has = umath.__cpu_features__
    settings = {}
    if has.get("AVX2") and has.get("FMA3"):
        settings["haswell"] = {"OPENBLAS_CORETYPE": "Haswell"}
    if has.get("AVX"):
        settings["sandybridge"] = {"OPENBLAS_CORETYPE": "Sandybridge"}
    found = [name for name in umath.__cpu_dispatch__ if has.get(name)]
    if found:
        settings["no-simd"] = {"NPY_DISABLE_CPU_FEATURES": " ".join(found)}
    return settings


def test_same_bytes_under_every_kernel(tmp_path):
    frames, gt = synth.generate_sequence(synth.preset_scene("mixed", 0))
    data = tmp_path / "mixed"
    dataio.write_dataset(data, frames, PipelineConfig().class_names(), gt=gt,
                         points_format="binary")
    src = str(Path(sembox.__file__).parents[1])
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    base.update(OPENBLAS_NUM_THREADS="1",
                PYTHONPATH=os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")])))
    outs = {}
    for name, override in {"default": {}, **cpu_settings()}.items():
        out = tmp_path / name
        run = subprocess.run([sys.executable, "-c", _CHAIN, str(data), str(out)],
                             env={**base, **override}, capture_output=True, text=True)
        assert run.returncode == 0, f"{name}: {run.stderr}"
        outs[name] = out
    files = {name: sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
             for name, out in outs.items()}
    ref = files["default"]
    assert len(ref) > 20
    differ = {name: [str(p) for p in ref
                     if not filecmp.cmp(outs["default"] / p, out / p, shallow=False)]
              for name, out in outs.items()}
    assert all(files[name] == ref for name in outs)
    assert differ == {name: [] for name in outs}
