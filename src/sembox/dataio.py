"""On-disk data model: points, poses, manifests, labels, predictions.

All formats are line-oriented text with LF endings, except the optional
binary points fast path. Numbers are written with enough digits for exact
or near-exact round-trips.

points (text)    one point per line: ``x y z class_id``
points (binary)  8-byte magic ``S2BPTS01`` then little-endian records of
                 3 float64 + 1 uint16
pose             three lines, each ``r_i0 r_i1 r_i2 t_i`` (rotation row
                 plus translation component)
labels           one box per line:
                 ``frame_id class_id cx cy cz l w h yaw occ alg ms msf
                 weight source``
predictions      one box per line:
                 ``frame_id class_id cx cy cz l w h yaw confidence``
                 (the boxes of frame N live in ``frame_<N>.txt``, N as
                 decimal digits, and every line's frame_id is N)
manifest.json    a ``Manifest``: frame entries, class table, sequence name

A dataset directory holds one sequence: ``manifest.json``, ``points/``,
``poses/`` and (for synthetic data) ``gt_labels/``. ``read_manifest`` reads
``manifest.json`` with ``config.read_json``, the reader of every JSON
input; ``load_dataset`` adds every points and pose file.

Every line format goes through one row reader, ``_rows``: one decode, one
``str.splitlines``, blank lines skipped, physical lines numbered from 1, the
field count checked, and a conversion's ``ValueError`` raised as
``path:line: <message>``. Plain ASCII text points without ``\\v``, ``\\f`` or
``\\x1c``-``\\x1e`` go to ``np.loadtxt`` as a path first (numpy reads it in C
chunks), unless numpy would decompress a file of that name. Other text (no
writer here makes any) and text ``loadtxt`` rejects take the slower row
reader, which names the first bad ``path:line``.

Text points are written from numpy, in chunks of rows, with the bytes of
``"%.10g %.10g %.10g %d\\n"`` per point. Each coordinate whose text can be
proven (nonzero, decimal exponent in [-4, 9], not a rounding tie at 10
significant digits) is built from those digits and its pattern (exponent,
last nonzero digit) through small tables; a row with any other coordinate
(0, -0.0, nan, inf, exponent notation, a tie: 0-2 rows of a 100k-point
synthetic frame) is formatted by ``%`` alone. Class ids and retained
indices go through one digit-column helper, ``_decimal_lines``. Each line is
laid out in a fixed-width uint8 row padded with 0 bytes, which are dropped.
"""

from __future__ import annotations

import json
import logging
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .aggregation import Frame
from .config import PipelineConfig, _check_types, read_json
from .geometry import Box3D, PointCloud, Pose
from .refine import Prediction
from .scoring import SOURCE_INIT, PseudoLabel, ScoreBreakdown, label_weight

logger = logging.getLogger("sembox")

POINTS_MAGIC = b"S2BPTS01"
_POINT_RECORD = np.dtype([("x", "<f8"), ("y", "<f8"), ("z", "<f8"), ("c", "<u2")])
_TEXT_POINT = np.dtype([("xyz", "<f8", 3), ("c", "<i4")])
# The ASCII bytes at which str.splitlines breaks a line and a file read
# does not; a search for any byte but the ASCII ones that str.strip()
# strips; and the file name suffixes that np.loadtxt opens through a
# decompressor.
_SPLITLINES_ONLY_ASCII = (b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e")
_NOT_ASCII_SPACE = re.compile(
    b"[^%s]" % re.escape(bytes(c for c in range(128) if chr(c).isspace())))
_NUMPY_DECOMPRESSED = (".gz", ".bz2", ".xz", ".lzma")

_POINT_FIELDS = ("x", "y", "z", "class_id")
_POSE_FIELDS = ("r_i0", "r_i1", "r_i2", "t_i")
LABEL_FIELDS = ("frame_id", "class_id", "cx", "cy", "cz", "l", "w", "h",
                "yaw", "occ", "alg", "ms", "msf", "weight", "source")
PREDICTION_FIELDS = ("frame_id", "class_id", "cx", "cy", "cz", "l", "w", "h",
                     "yaw", "confidence")
_BOX_FILE = re.compile(r"frame_(-?[0-9]+)\.txt")  # frame_file's names, any padding
# One line of each file; numbers as %.17g round-trip exactly.
_LABEL_ROW = "%d %d" + " %.17g" * 12 + " %s\n"
_PREDICTION_ROW = "%d %d" + " %.17g" * 8 + "\n"
# The text points writer's tables; see _coordinate_fields.
_POINTS_CHUNK = 4096  # rows per numpy pass; fastest of 1k-16k on a 2 MB L2 Xeon
_POW10_EXACT = 10.0 ** np.arange(14)  # 10**0 .. 10**13, each an exact double


def _digit_group_tables() -> tuple[np.ndarray, np.ndarray]:
    """For 000-999: the three ASCII digits as the low 3 bytes of a word, and
    the index of the last nonzero digit (-16 for 000)."""
    text = np.frombuffer(b"".join(b"%03d" % k for k in range(1000)),
                         dtype=np.uint8).reshape(1000, 3)
    nonzero = text != ord("0")
    return ((text << np.array([0, 8, 16], dtype=np.uint64)).sum(axis=1, dtype=np.uint64),
            np.where(nonzero.any(axis=1), 2 - nonzero[:, ::-1].argmax(axis=1), -16))


_DIGITS3, _LAST3 = _digit_group_tables()


def _pattern_tables() -> list[np.ndarray]:
    """Per coordinate pattern (e + 4) * 10 + last, for decimal exponent e in
    [-4, 9] and index last in [0, 9] of the last nonzero of the 10 digits:
    the digit bytes that stay in place, the bit shift of the others, the
    bytes of the field that show digits, and the fixed bytes (the point,
    a ``0.000`` prefix and the trailing space), each as a (lo, hi) pair of
    little-endian words."""
    def words(text: bytes) -> tuple[int, int]:
        text = text.ljust(16, b"\0")
        return int.from_bytes(text[:8], "little"), int.from_bytes(text[8:], "little")

    rows = []
    for e in range(-4, 10):
        for last in range(10):
            if e >= 0:  # d0..de, then the point and the rest
                stay, moved = e + 1, 1
                shown = e + 1 if last <= e else last + 2
                fixed = b"\0" * (e + 1) + b"."
            else:  # 0. and -e - 1 zeros, then d0..
                stay, moved, shown = 0, 1 - e, last + 2 - e
                fixed = b"0." + b"0" * (-e - 1)
            fixed = fixed.ljust(shown, b"\0")[:shown] + b" "
            rows.append([*words(b"\xff" * stay), 8 * moved,
                         *words(b"\xff" * shown), *words(fixed)])
    return list(np.array(rows, dtype=np.uint64).T)


(_STAY_LO, _STAY_HI, _SHIFT, _SHOW_LO, _SHOW_HI,
 _FIXED_LO, _FIXED_HI) = _pattern_tables()


class FormatError(ValueError):
    """Malformed on-disk data."""


def _decode(path: Path, raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text: {e}") from e


def _parse(where, convert, *args):
    """convert(*args), with a ValueError raised as a FormatError at where."""
    try:
        return convert(*args)
    except ValueError as e:
        raise FormatError(f"{where}: {e}") from e


def _rows(path: Path, raw: bytes, fields: tuple[str, ...], convert) -> list:
    """(line number, convert(fields of the line)) for each non-blank line
    of a text file, numbering physical lines from 1. A line holding other
    than len(fields) fields names the first missing or broken one."""
    out = []
    for lineno, line in enumerate(_decode(path, raw).splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != len(fields):
            raise FormatError(
                f"{path}:{lineno}: expected {len(fields)} fields, got "
                f"{len(parts)} (first missing/broken field: "
                f"{fields[min(len(parts), len(fields) - 1)]})")
        out.append((lineno, _parse(f"{path}:{lineno}", convert, parts)))
    return out


# Points -----------------------------------------------------------------


def write_points_text(path: str | Path, cloud: PointCloud) -> None:
    """Write the bytes of ``"%.10g %.10g %.10g %d\\n"`` for each point,
    formatted by numpy _POINTS_CHUNK rows at a time."""
    with open(path, "wb") as f:
        for lo in range(0, len(cloud), _POINTS_CHUNK):
            hi = lo + _POINTS_CHUNK
            f.write(_points_text(cloud.xyz[lo:hi], cloud.class_id[lo:hi]))


def _points_text(xyz: np.ndarray, class_id: np.ndarray) -> bytes:
    """The text lines of the points of one chunk: a uint8 matrix holds each
    line as sign byte and 16-byte field per coordinate, then the class id
    and newline, padded with 0 bytes, which are dropped. A row with a
    coordinate whose text the fields cannot prove is formatted by
    _point_line in its place."""
    n = len(xyz)
    fields, proven = _coordinate_fields(xyz)
    cls = class_id.astype(np.int64)
    tail = _decimal_lines(np.abs(cls))
    rows = np.empty((n, 3 * 17 + 1 + tail.shape[1]), dtype=np.uint8)
    coords = rows[:, :3 * 17].reshape(n, 3, 17)
    coords[:, :, 0] = np.where(xyz < 0, ord("-"), 0)
    coords[:, :, 1:] = fields
    rows[:, 3 * 17] = np.where(cls < 0, ord("-"), 0)
    rows[:, 3 * 17 + 1:] = tail
    out = []
    bounds = [-1, *np.flatnonzero(~proven).tolist(), n]
    for a, b in zip(bounds, bounds[1:]):
        block = rows[a + 1:b]
        out.append(block[block != 0].tobytes())
        if b < n:
            out.append(_point_line(*xyz[b].tolist(), int(class_id[b])))
    return b"".join(out)


def _point_line(x: float, y: float, z: float, class_id: int) -> bytes:
    return ("%.10g %.10g %.10g %d\n" % (x, y, z, class_id)).encode()


def _coordinate_fields(xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, 3, 16) uint8 fields and an (n,) bool that says which rows have
    all three coordinates proven: each proven field holds the ``"%.10g"``
    text of |x| and a space, padded with 0 bytes.

    Take e = floor(log10|x|) in [-4, 9] and m = |x| * 10**(9 - e): the power
    of ten is exact, so m is the exact product P rounded once. x is proven
    when m >= 1e9, D = rint(m) < 1e10 and m is no tie k + 0.5. A tie is a
    double and rounding is monotone, so P lies on m's side of every tie and
    of 1e9 (P just below 1e9 rounds up to 10**e at 10 digits): |x| rounded
    to 10 significant digits is D * 10**(e - 9). ``%g`` then writes it in
    fixed notation: the digits of D with a point after digit e, or after
    ``0.`` and -e - 1 zeros when e < 0, without trailing zeros or a bare
    point. Every other x (0, -0.0, nan, inf, exponent notation, a tie) is
    left to ``%``.
    """
    a = np.abs(xyz)
    with np.errstate(all="ignore"):  # 0, inf, nan and huge |x| are not proven
        lg = np.floor(np.log10(a))
        proven = (lg >= -4) & (lg <= 9)
        e = np.where(proven, lg, 0).astype(np.intp)
        m = a * _POW10_EXACT[9 - e]
        d = np.rint(m)
        proven &= (m >= 1e9) & (d < 1e10) & (np.abs(m - d) < 0.5)
    # D = d0 * 10**9 + g1 * 10**6 + g2 * 10**3 + g3; each float64 step is
    # exact, as D < 2**53 and a quotient's fraction is at most 0.999.
    d = np.where(proven, d, 1e9)  # keeps the table lookups below in range
    q = np.floor(d / 1e3)
    g3 = (d - q * 1e3).astype(np.intp)
    d = np.floor(q / 1e3)
    g2 = (q - d * 1e3).astype(np.intp)
    q = np.floor(d / 1e3)
    g1 = (d - q * 1e3).astype(np.intp)
    # The 10 digit bytes of D as bytes 0-9 of a (lo, hi) word pair.
    w3 = _DIGITS3[g3]
    lo = ((q.astype(np.uint64) + np.uint64(ord("0")))
          | (_DIGITS3[g1] << np.uint64(8)) | (_DIGITS3[g2] << np.uint64(32))
          | (w3 << np.uint64(56)))
    hi = w3 >> np.uint64(8)
    last = np.maximum(np.maximum(_LAST3[g1] + 1, _LAST3[g2] + 4),
                      np.maximum(_LAST3[g3] + 7, 0))
    p = (e + 4) * 10 + last
    stay_lo, stay_hi = lo & _STAY_LO[p], hi & _STAY_HI[p]
    lo ^= stay_lo  # the digits that move right
    hi ^= stay_hi
    shift = _SHIFT[p]
    words = np.empty(xyz.shape + (2,), dtype="<u8")  # bytes in text order
    words[..., 0] = ((stay_lo | (lo << shift)) & _SHOW_LO[p]) | _FIXED_LO[p]
    words[..., 1] = (((stay_hi | (hi << shift) | (lo >> (np.uint64(64) - shift)))
                      & _SHOW_HI[p]) | _FIXED_HI[p])
    return words.view(np.uint8), proven.all(axis=1)


def write_points_binary(path: str | Path, cloud: PointCloud) -> None:
    bad = (cloud.class_id < 0) | (cloud.class_id > 0xFFFF)
    if bad.any():
        raise ValueError(f"class id {cloud.class_id[bad][0]} is outside uint16")
    rec = np.empty(len(cloud), dtype=_POINT_RECORD)
    rec["x"], rec["y"], rec["z"] = cloud.xyz[:, 0], cloud.xyz[:, 1], cloud.xyz[:, 2]
    rec["c"] = cloud.class_id.astype(np.uint16)
    Path(path).write_bytes(POINTS_MAGIC + rec.tobytes())


# points_format -> (file name suffix, writer)
_POINTS_FORMATS = {"text": (".txt", write_points_text),
                   "binary": (".bin", write_points_binary)}


def read_points(path: str | Path) -> PointCloud:
    """Read a points file, auto-detecting the binary magic.

    Plain text is parsed in one ``np.loadtxt`` pass; other text, or text
    that pass rejects, goes through the row reader, which names the first
    bad ``path:line`` or accepts what only Python's ``float``/``int``
    accept (``1_0``, non-ASCII digits).
    """
    path = Path(path)
    raw = path.read_bytes()
    if raw[:len(POINTS_MAGIC)] == POINTS_MAGIC:
        body = raw[len(POINTS_MAGIC):]
        if len(body) % _POINT_RECORD.itemsize != 0:
            raise FormatError(
                f"{path}: truncated binary points file at record "
                f"{len(body) // _POINT_RECORD.itemsize}")
        rec = np.frombuffer(body, dtype=_POINT_RECORD)
        xyz = np.column_stack([rec["x"], rec["y"], rec["z"]])
        return PointCloud(xyz, rec["c"].astype(np.int32))
    first = raw[:1]
    if first and not (first.isdigit() or first in b"-+.") and _NOT_ASCII_SPACE.match(first):
        raise FormatError(f"{path}: unrecognized points file magic")
    # Read as a file, loadtxt breaks lines only at \n, \r and \r\n; the row
    # reader's splitlines also breaks at \v, \f, \x1c-\x1e, \x85, \u2028 and
    # \u2029. So only ASCII text without those goes to loadtxt, as a path,
    # and never under a name that numpy would open with a decompressor.
    if (raw.isascii() and not any(b in raw for b in _SPLITLINES_ONLY_ASCII)
            and path.suffix not in _NUMPY_DECOMPRESSED
            and _NOT_ASCII_SPACE.search(raw)):  # loadtxt warns about empty input
        try:
            with warnings.catch_warnings():
                # Older numpy loads an int column's "1.0" with only this warning.
                warnings.simplefilter("error", DeprecationWarning)
                rec = np.loadtxt(path, dtype=_TEXT_POINT, comments=None, ndmin=1)
        except (ValueError, DeprecationWarning):
            pass  # the row reader names the first bad line
        else:
            return PointCloud(rec["xyz"], rec["c"].copy())
    rows = _rows(path, raw, _POINT_FIELDS, _point)
    m = np.array([p for _, p in rows], dtype=np.float64).reshape(-1, 4)
    return PointCloud(m[:, :3], m[:, 3].astype(np.int32))


def _point(parts: list[str]) -> tuple:
    x, y, z, c = float(parts[0]), float(parts[1]), float(parts[2]), int(parts[3])
    if not -2**31 <= c < 2**31:
        raise ValueError(f"class id {c} is outside int32")
    return x, y, z, c


# Poses ------------------------------------------------------------------


def write_pose(path: str | Path, pose: Pose) -> None:
    rows = np.column_stack([pose.rotation, pose.translation]).ravel().tolist()
    Path(path).write_text(("%.17g %.17g %.17g %.17g\n" * 3) % tuple(rows))


def read_pose(path: str | Path) -> Pose:
    path = Path(path)
    rows = _rows(path, path.read_bytes(), _POSE_FIELDS,
                 lambda parts: [float(v) for v in parts])
    if len(rows) != 3:
        raise FormatError(f"{path}: pose file must have 3 rows, got {len(rows)}")
    m = np.array([r for _, r in rows])
    return _parse(path, Pose, m[:, :3], m[:, 3])


# Labels and predictions --------------------------------------------------


def _label(box: Box3D, rest: list[str]) -> PseudoLabel:
    nums = [float(v) for v in rest[:5]]
    for name, v in zip(LABEL_FIELDS[9:14], nums):
        if not math.isfinite(v):
            raise ValueError(f"{name} {v!r} is not finite")
    return PseudoLabel(box, ScoreBreakdown(*nums[:4]), nums[4], rest[5])


# kind -> (a line's fields, its row template, an item's values after the
# box, the item built from a box and the fields after it)
_BOX_KINDS = {
    "labels": (LABEL_FIELDS, _LABEL_ROW,
               lambda lab: (lab.scores.occ, lab.scores.alg, lab.scores.ms,
                            lab.scores.msf, lab.weight, lab.source),
               _label),
    "predictions": (PREDICTION_FIELDS, _PREDICTION_ROW, lambda p: (p.confidence,),
                    lambda box, rest: Prediction(box, float(rest[0]))),
}


def write_boxes(path: str | Path, frame_id: int, items: list, kind: str) -> None:
    """Write frame frame_id's labels or predictions file, one row per item."""
    _, row, after_box, _ = _BOX_KINDS[kind]
    values = []
    for item in items:
        b = item.box
        values += (frame_id, b.class_id, b.cx, b.cy, b.cz, b.l, b.w, b.h, b.yaw,
                   *after_box(item))
    Path(path).write_text((row * len(items)) % tuple(values))


def read_boxes(path: str | Path, frame_id: int, kind: str,
               config: PipelineConfig | None = None) -> list:
    """Read frame frame_id's labels or predictions file: each line states
    the file's frame_id, a class_id >= 1 and a box, then the kind's fields.

    Under a config each box must be of its classes, and a label's stored
    weight inconsistent with its stored combined score under the config's
    thresholds raises a warning in the log but loads anyway.
    """
    fields, _, _, make = _BOX_KINDS[kind]
    path = Path(path)

    def convert(parts: list[str]):
        stated, class_id = int(parts[0]), int(parts[1])
        if stated != frame_id:
            raise ValueError(f"frame_id {stated} differs from frame {frame_id} "
                             "of the file name")
        if class_id < 1:
            raise ValueError(f"class_id {class_id} is not a foreground class (>= 1)")
        if config is not None and class_id not in config.classes:
            raise ValueError(f"class_id {class_id} has no entry in the config, "
                             f"so this box of frame {frame_id} cannot be scored")
        return make(Box3D(*map(float, parts[2:9]), class_id=class_id), parts[9:])

    rows = _rows(path, path.read_bytes(), fields, convert)
    if config is not None and kind == "labels":
        for lineno, lab in rows:
            expect = label_weight(lab.scores.msf, config.theta_low, config.theta_high)
            if not math.isclose(lab.weight, expect, abs_tol=1e-9):
                logger.warning("%s:%d: stored weight %.9g inconsistent with "
                               "msf %.9g (expected %.9g)", path, lineno,
                               lab.weight, lab.scores.msf, expect)
    return [item for _, item in rows]


# Per-frame directories ----------------------------------------------------


def frame_file(frame_id: int, suffix: str) -> str:
    return f"frame_{frame_id:06d}{suffix}"


def write_box_dir(out_dir: str | Path, per_frame: dict,
                  kind: str = "labels") -> None:
    """Write one labels/predictions file per frame id."""
    _BOX_KINDS[kind]  # an unknown kind raises before any directory is made
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for frame_id in sorted(per_frame):
        write_boxes(out_dir / frame_file(frame_id, ".txt"), frame_id,
                    per_frame[frame_id], kind)


def read_box_dir(dir_path: str | Path, kind: str = "labels",
                 config: PipelineConfig | None = None) -> dict:
    """Read the frame_<digits>.txt files of a directory, keyed by frame id;
    any other frame_*.txt name, or a second name of one id, is an error."""
    _BOX_KINDS[kind]  # an unknown kind raises before the directory is read
    dir_path = Path(dir_path)
    if not dir_path.is_dir():
        raise FormatError(f"{dir_path}: not a directory")
    out = {}
    for f in sorted(dir_path.glob("frame_*.txt")):
        m = _BOX_FILE.fullmatch(f.name)
        if m is None:
            raise FormatError(f"{f}: file name is not frame_<digits>.txt")
        if not f.is_file():
            raise FormatError(f"{f}: not a file")
        frame_id = int(m.group(1))
        if frame_id in out:
            raise FormatError(f"{f}: another file already holds frame {frame_id}")
        out[frame_id] = read_boxes(f, frame_id, kind, config)
    return out


def write_retained_indices(out_dir: str | Path,
                           per_frame: dict[int, np.ndarray]) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for frame_id in sorted(per_frame):
        (out_dir / frame_file(frame_id, ".txt")).write_bytes(
            _index_lines(per_frame[frame_id]))


def _index_lines(idx: np.ndarray) -> bytes:
    """The bytes of ``"%d\\n"`` for each index."""
    v = np.asarray(idx, dtype=np.int64)
    if (v < 0).any():
        raise ValueError("point indices must be non-negative")
    lines = _decimal_lines(v)
    return lines[lines != 0].tobytes()


def _decimal_lines(v: np.ndarray) -> np.ndarray:
    """A (len(v), width) uint8 matrix whose row i holds the bytes of
    ``"%d\\n" % v[i]`` right-aligned after 0 bytes, for non-negative int64
    v: dropping the 0 bytes leaves the lines. Filled one digit column at a
    time, from the right."""
    width = len(str(int(v.max(initial=0)))) + 1
    out = np.empty((width, len(v)), dtype=np.uint8)  # one row per column
    out[-1] = ord("\n")
    rest = v
    for col in range(width - 2, -1, -1):
        q = rest // 10
        out[col] = rest - q * 10 + ord("0")
        if col < width - 2:
            out[col] *= rest > 0  # a leading zero is a 0 byte
        rest = q
    return out.T


# Dataset ------------------------------------------------------------------


def write_dataset(root: str | Path, frames: list[Frame],
                  class_names: dict[int, str],
                  gt: dict[int, list[Box3D]] | None = None,
                  points_format: str = "text") -> None:
    suffix, writer = _POINTS_FORMATS[points_format]
    root = Path(root)
    (root / "points").mkdir(parents=True, exist_ok=True)
    (root / "poses").mkdir(parents=True, exist_ok=True)
    manifest = {
        "sequence": root.name,
        "classes": {"0": "background", **{str(k): v for k, v in sorted(class_names.items())}},
        "frames": [],
    }
    for fr in frames:
        pts_rel = f"points/{frame_file(fr.frame_id, suffix)}"
        pose_rel = f"poses/{frame_file(fr.frame_id, '.txt')}"
        writer(root / pts_rel, fr.points)
        write_pose(root / pose_rel, fr.pose)
        manifest["frames"].append({
            "frame_id": fr.frame_id,
            "timestamp": fr.timestamp,
            "points": pts_rel,
            "pose": pose_rel,
        })
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    if gt is not None:
        perfect = ScoreBreakdown(1.0, 1.0, 1.0, 1.0)
        gt_labels = {fid: [PseudoLabel(box, perfect, 1.0, SOURCE_INIT)
                           for box in boxes] for fid, boxes in gt.items()}
        write_box_dir(root / "gt_labels", gt_labels, kind="labels")


@dataclass(frozen=True)
class ManifestFrame:
    """One manifest entry; file names are relative to the sequence directory."""

    frame_id: int
    points: str
    pose: str
    timestamp: float = 0.0


@dataclass(frozen=True)
class Manifest:
    """A sequence's ``manifest.json``: frames, class table, sequence name."""

    frames: tuple[ManifestFrame, ...]
    classes: dict[int, str]
    sequence: str = ""

    def __post_init__(self) -> None:
        _check_types(self)
        first: dict[int, int] = {}  # frame id -> index of its first entry
        for n, entry in enumerate(self.frames):
            _check_types(entry, f"frames[{n}]")
            if (m := first.setdefault(entry.frame_id, n)) != n:
                raise FormatError(f"frames[{n}].frame_id: must be unique, got "
                                  f"{entry.frame_id}, the id of frames[{m}]")
        for cid, name in self.classes.items():
            if cid < 0:
                raise FormatError(f"classes: keys must be class ids >= 0, got '{cid}'")
            if not isinstance(name, str):
                raise FormatError(f"classes[{cid}]: must be a string, got {name!r}")


def read_manifest(root: str | Path) -> tuple[list[ManifestFrame], dict[int, str]]:
    """Read a sequence directory's manifest: its frames, sorted by id, each
    with existing points and pose files, and its class table."""
    root = Path(root)
    path = root / "manifest.json"
    manifest = read_json(path, Manifest, FormatError)
    for entry in manifest.frames:
        for name in (entry.points, entry.pose):
            if not (root / name).is_file():
                raise FormatError(f"{path}: frame {entry.frame_id}: missing {root / name}")
    return sorted(manifest.frames, key=lambda e: e.frame_id), manifest.classes


def load_dataset(root: str | Path) -> list[Frame]:
    """A sequence directory's frames, sorted by id; point class ids must lie
    in [0, the manifest's largest class id]."""
    root = Path(root)
    entries, classes = read_manifest(root)
    num_classes = max(classes) if classes else 0
    frames: list[Frame] = []
    for entry in entries:
        points = root / entry.points
        cloud = read_points(points)
        _parse(points, cloud.validate, num_classes)
        frames.append(Frame(entry.frame_id, float(entry.timestamp),
                            read_pose(root / entry.pose), cloud))
    return frames
