"""Behaviour of the scripts CI runs."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_identical_counts_label_rows(tmp_path):
    """A differing labels file is listed with its row counts and the rows
    that differ once sorted; any other differing file by name alone."""
    check = load_script("check_identical")
    files = {
        "out/gen/labels/frame_000000.txt": (["1 a", "1 b", "2 c"], ["2 c", "1 a", "1 x"]),
        "out/rescored/frame_000000.txt": (["1 a", "1 b"], ["1 b", "1 a"]),
        "data/gt_labels/frame_000001.txt": (["1 a"], ["1 a", "1 a", "1 b"]),
        "data/points/frame_000000.txt": (["1 2 3 1"], ["1 2 3 2"]),
    }
    for name, sides in files.items():
        for side, rows in zip("AB", sides):
            path = tmp_path / side / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("\n".join(rows) + "\n")
    n, lines = check.compare(tmp_path / "A", tmp_path / "B")
    assert n == 4
    assert lines == [
        "differs: data/gt_labels/frame_000001.txt (rows: A 1, B 3; 2 differ after sorting)",
        "differs: data/points/frame_000000.txt",
        "differs: out/gen/labels/frame_000000.txt (rows: A 3, B 3; 1 differ after sorting)",
        "differs: out/rescored/frame_000000.txt (rows: A 2, B 2; 0 differ after sorting)",
    ]
