import json
import logging
import re
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sembox import dataio
from sembox.config import (ClassConfig, ConfigError, PipelineConfig, build,
                           read_json)
from sembox.dataio import FormatError
from sembox.geometry import Box3D, PointCloud, Pose
from sembox.refine import Prediction
from sembox.scoring import PseudoLabel, ScoreBreakdown
from sembox.synth import generate_sequence, perf_scene, preset_scene


def random_cloud(rng, n=50):
    return PointCloud(rng.uniform(-80, 80, (n, 3)),
                      rng.integers(0, 4, n).astype(np.int32))


class TestPoints:
    def test_text_round_trip(self, tmp_path, rng):
        cloud = random_cloud(rng)
        path = tmp_path / "p.txt"
        dataio.write_points_text(path, cloud)
        back = dataio.read_points(path)
        np.testing.assert_allclose(back.xyz, cloud.xyz, atol=1e-6)
        np.testing.assert_array_equal(back.class_id, cloud.class_id)

    def test_binary_round_trip_bit_exact(self, tmp_path, rng):
        cloud = random_cloud(rng)
        path = tmp_path / "p.bin"
        dataio.write_points_binary(path, cloud)
        back = dataio.read_points(path)
        assert back.xyz.tobytes() == cloud.xyz.tobytes()
        np.testing.assert_array_equal(back.class_id, cloud.class_id)

    @pytest.mark.parametrize("cls", [70000, -1])
    def test_binary_rejects_class_outside_uint16(self, tmp_path, cls):
        # Text round-trips these ids; uint16 records would wrap them.
        cloud = PointCloud(np.zeros((2, 3)), np.array([1, cls], dtype=np.int32))
        with pytest.raises(ValueError, match=f"class id {cls} "):
            dataio.write_points_binary(tmp_path / "p.bin", cloud)
        dataio.write_points_text(tmp_path / "p.txt", cloud)
        assert dataio.read_points(tmp_path / "p.txt").class_id.tolist() == [1, cls]

    def test_truncated_binary_names_record(self, tmp_path, rng):
        cloud = random_cloud(rng, n=10)
        path = tmp_path / "p.bin"
        dataio.write_points_binary(path, cloud)
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(FormatError, match="record 9"):
            dataio.read_points(path)

    def test_malformed_line_names_lineno(self, tmp_path):
        path = tmp_path / "p.txt"
        for text, where in [("1.0 2.0 3.0 1\n1.0 2.0\n", ":2:"),
                            ("1 2 3\n1 2 3 4 5\n", ":1:"),
                            ("1 2 3 1\n\n1 2 3 99999999999\n", ":3:")]:
            path.write_text(text)
            with pytest.raises(FormatError, match=where):
                dataio.read_points(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "p.txt"
        for text in ("", "\n \r\n\t\n"):
            path.write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert len(dataio.read_points(path)) == 0

    def test_spaces_and_unit_separators_load_empty(self, tmp_path):
        # str.strip() strips \x1f; bytes.strip() would not, and loadtxt would
        # warn that the input holds no data.
        path = tmp_path / "p.txt"
        path.write_bytes(b" \x1f  \x1f\x1f ")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = dataio.read_points(path)
        assert back.xyz.shape == (0, 3)
        assert back.class_id.shape == (0,)

    @pytest.mark.parametrize("first", ["\t", "\r\n", "\r"])
    def test_leading_whitespace_is_text(self, tmp_path, first):
        path = tmp_path / "p.txt"
        path.write_bytes(first.encode() + b"1 2 3 1\n")
        back = dataio.read_points(path)
        np.testing.assert_array_equal(back.xyz, [[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(back.class_id, [1])


# The per-line reader and writers that the bulk ones replaced, kept as the
# reference. The reader adds the one check the bulk reader brought: a class
# id outside int32 is a FormatError (it was an OverflowError).


def line_read_points(path):
    rows, cls = [], []
    for lineno, line in enumerate(path.read_bytes().decode("utf-8").splitlines(),
                                  start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            missing = ("x", "y", "z", "class_id")[min(len(parts), 3)]
            raise FormatError(f"{path}:{lineno}: expected 4 fields, got {len(parts)} "
                              f"(first missing/broken field: {missing})")
        try:
            rows.append((float(parts[0]), float(parts[1]), float(parts[2])))
            cls.append(int(parts[3]))
        except ValueError as e:
            raise FormatError(f"{path}:{lineno}: {e}") from e
        if not -2**31 <= cls[-1] < 2**31:
            raise FormatError(f"{path}:{lineno}: class id {cls[-1]} is outside int32")
    xyz = np.array(rows, dtype=np.float64) if rows else np.zeros((0, 3))
    return xyz, np.array(cls, dtype=np.int32)


def line_points_text(cloud):
    lines = [
        f"{format(x, '.10g')} {format(y, '.10g')} {format(z, '.10g')} {c}"
        for (x, y, z), c in zip(cloud.xyz, cloud.class_id)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def _fmt(x):
    return format(float(x), ".17g")


def line_labels_text(frame_id, labels):
    lines = []
    for lab in labels:
        b, s = lab.box, lab.scores
        lines.append(" ".join([
            str(frame_id), str(b.class_id),
            _fmt(b.cx), _fmt(b.cy), _fmt(b.cz),
            _fmt(b.l), _fmt(b.w), _fmt(b.h), _fmt(b.yaw),
            _fmt(s.occ), _fmt(s.alg), _fmt(s.ms), _fmt(s.msf),
            _fmt(lab.weight), lab.source,
        ]))
    return "\n".join(lines) + ("\n" if lines else "")


def line_predictions_text(frame_id, preds):
    lines = []
    for p in preds:
        b = p.box
        lines.append(" ".join([
            str(frame_id), str(b.class_id),
            _fmt(b.cx), _fmt(b.cy), _fmt(b.cz),
            _fmt(b.l), _fmt(b.w), _fmt(b.h), _fmt(b.yaw),
            _fmt(p.confidence),
        ]))
    return "\n".join(lines) + ("\n" if lines else "")


def line_pose_text(pose):
    return "".join(
        f"{_fmt(r[0])} {_fmt(r[1])} {_fmt(r[2])} {_fmt(t)}\n"
        for r, t in zip(pose.rotation, pose.translation))


_NUMBER_TOKENS = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda x: format(x, ".10g")),
    st.integers(-10**12, 10**12).map(str),
    st.sampled_from(["-0.0", "+1", "1e5", "1E-300", "-2.5e+07", ".5", "5.",
                     "007", "1_0", "inf", "-nan", "1e400"]),
)
_CLASS_TOKENS = st.one_of(
    st.integers(-5, 5).map(str),
    st.sampled_from(["+1", "-0", "007", "1_0", "2147483647", "-2147483648",
                     "2147483648", "99999999999", "1.0", "1.5"]),
)
# Plain ASCII text, which read_points hands loadtxt as a path, draws only
# the plain pieces; other text adds non-ASCII characters and the ASCII line
# breaks of str.splitlines that a file read does not break at.
_PLAIN_JUNK = ["x", "#", "1.0.0", "--1", "0x10", "", "\x00", "1\x00"]
_PLAIN_SEP = [" ", "  ", "\t", " \t", "\x1f"]
_PLAIN_EOL = ["\n", "\r\n", "\r"]
_OTHER_JUNK = ["\u0661"]
_OTHER_SEP = ["\xa0"]
_OTHER_EOL = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def _points_text(draw):
    plain = draw(st.booleans())
    junk, sep, eol = (st.sampled_from(pieces if plain else pieces + other)
                      for pieces, other in ((_PLAIN_JUNK, _OTHER_JUNK),
                                            (_PLAIN_SEP, _OTHER_SEP),
                                            (_PLAIN_EOL, _OTHER_EOL)))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["point", "point", "point", "split", "blank",
                                     "any"]))
        if kind in ("point", "split"):
            tokens = [draw(_NUMBER_TOKENS) for _ in range(3)] + [draw(_CLASS_TOKENS)]
        elif kind == "blank":
            tokens = []
        else:
            tokens = draw(st.lists(st.one_of(_NUMBER_TOKENS, _CLASS_TOKENS, junk),
                                   max_size=6))
        line = draw(st.sampled_from(["", " ", "\t", "\x1f"])) + draw(sep).join(tokens)
        if kind == "split":  # a point broken over two lines is two bad lines
            at = len(line) - len(tokens[-1])
            line = line[:at] + draw(eol) + line[at:]
        lines.append(line + draw(eol))
    text = "".join(lines)
    # Text starts with what the magic sniff takes for text.
    return text if text[:1] in ("", " ", "\t", "\r", "\n") else " " + text


class TestBulkMatchesLines:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_points_text())
    # A point split by each ASCII break that only splitlines breaks at.
    @example(text="1 2 3\x0b4\n")
    @example(text="1 2 3\x0c4\n")
    @example(text="1 2 3\x1c4\n")
    @example(text="1 2 3\x1d4\n")
    @example(text="1 2 3\x1e4\n")
    def test_reader_equals_line_loop(self, tmp_path, text):
        path = tmp_path / "p.txt"
        path.write_bytes(text.encode())
        try:
            xyz, cls = line_read_points(path)
        except FormatError as e:
            with pytest.raises(FormatError) as got:
                dataio.read_points(path)
            assert str(got.value) == str(e)
            return
        back = dataio.read_points(path)
        assert back.xyz.shape == xyz.shape
        assert back.xyz.tobytes() == xyz.tobytes()  # -0.0 and NaN bits too
        assert back.class_id.dtype == np.int32
        np.testing.assert_array_equal(back.class_id, cls)

    @pytest.mark.parametrize("name, text, route", [
        ("p.txt", "1 2 3 1\r\n4 5 6 2\n", "path"),
        ("p.txt", "1 2 3 1\x0c4 5 6 2\n", "lines"),
        ("p.gz", "1 2 3 1\r\n4 5 6 2\n", "lines"),  # numpy would gunzip a path
    ])
    def test_read_route(self, tmp_path, monkeypatch, name, text, route):
        sources = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt",
                            lambda src, **kw: sources.append(src) or loadtxt(src, **kw))
        path = tmp_path / name
        path.write_bytes(text.encode())
        back = dataio.read_points(path)
        np.testing.assert_array_equal(back.xyz, [[1, 2, 3], [4, 5, 6]])
        np.testing.assert_array_equal(back.class_id, [1, 2])
        # Only a path ever goes to loadtxt; other text goes to the row reader.
        assert sources == ([path] if route == "path" else [])

    @pytest.mark.parametrize("text, route", [
        (b"", "lines"),
        (b"\n \r\n\t\n", "lines"),
        (b" \x1f", "lines"),
        (b" \x1f  \x1f\x1f ", "lines"),
        (b" \x1f\n1 2 3 1\n", "path"),
        (b"\x1f", "lines"),
        (b"\x1f\x1f\x1f", "lines"),
        (b"\x1f\n1 2 3 1\n", "path"),
        (b"\x1b", "magic"),
    ])
    def test_whitespace_only_goes_to_row_reader(self, tmp_path, monkeypatch,
                                                text, route):
        # str.strip() strips \x1c-\x1f, so spaces and \x1f alone hold no
        # rows, and a file may start with any of them; \x1b is no space.
        sources = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt",
                            lambda src, **kw: sources.append(src) or loadtxt(src, **kw))
        path = tmp_path / "p.txt"
        path.write_bytes(text)
        if route == "magic":
            with pytest.raises(FormatError, match="unrecognized points file magic"):
                dataio.read_points(path)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                back = dataio.read_points(path)
            assert len(back) == (route == "path")
        assert sources == ([path] if route == "path" else [])

    @pytest.mark.parametrize("xyz, cls", [
        (np.zeros((0, 3)), []),
        ([[-0.0, 1e-300, 1e300]], [2**31 - 1]),
        ([[-1e300, -1e-300, 0.0]], [-2**31]),
        ([[123456.789012345, -0.000123456789, 7.0]], [65535]),
    ])
    def test_points_writer_bytes(self, tmp_path, xyz, cls):
        cloud = PointCloud(np.array(xyz, dtype=np.float64), np.array(cls))
        dataio.write_points_text(tmp_path / "p.txt", cloud)
        assert (tmp_path / "p.txt").read_text() == line_points_text(cloud)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(xyz=st.lists(st.tuples(*[st.floats(width=64)] * 3), max_size=20))
    def test_points_writer_bytes_any_float(self, tmp_path, xyz):
        cloud = PointCloud(np.array(xyz, dtype=np.float64).reshape(-1, 3),
                           np.arange(len(xyz)))
        dataio.write_points_text(tmp_path / "p.txt", cloud)
        assert (tmp_path / "p.txt").read_text() == line_points_text(cloud)

    @staticmethod
    def _assert_oracle_bytes(tmp_path, xyz, cls=None):
        xyz = np.array(xyz, dtype=np.float64).reshape(-1, 3)
        cloud = PointCloud(xyz, np.zeros(len(xyz)) if cls is None else cls)
        dataio.write_points_text(tmp_path / "p.txt", cloud)
        assert (tmp_path / "p.txt").read_text() == line_points_text(cloud)

    # Coordinates in %g's fixed-notation range, many with trailing zeros.
    _FIXED_RANGE = st.one_of(st.floats(-1e10, 1e10),
                             st.integers(-10**12, 10**12).map(lambda k: k / 1e6),
                             st.integers(-10**6, 10**6).map(lambda k: k * 1e-9))

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(xyz=st.lists(st.tuples(*[_FIXED_RANGE] * 3), max_size=20),
           cls=st.integers(-2**31, 2**31 - 1))
    def test_points_writer_bytes_fixed_notation(self, tmp_path, xyz, cls):
        self._assert_oracle_bytes(tmp_path, xyz, np.full(len(xyz), cls))

    @pytest.mark.parametrize("e", range(-5, 11))
    def test_points_writer_near_ties(self, tmp_path, e):
        # (k + 0.5) * 10**(e - 9) sits on or next to a rounding tie of the
        # 10th significant digit; each value comes with its +-1 ulp neighbours.
        k = np.array([10**9, 1234567890, 5000000000, 9999999998, 9999999999])
        v = (k + 0.5) * 10.0 ** (e - 9)
        v = np.concatenate([v, np.nextafter(v, 0), np.nextafter(v, np.inf)])
        self._assert_oracle_bytes(tmp_path, np.column_stack([v, -v, v[::-1]]))

    def test_points_writer_notation_edges(self, tmp_path):
        tens = 10.0 ** np.arange(-6, 13)
        # tens * (1 - 3e-11) rounds up to the next power at 10 digits.
        v = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
                            tens * (1 - 3e-11), tens * (1 - 7e-11),
                            [1e-4, 9.99999999995e-5, 9.9999999999e-5,
                             9999999999.5, 9999999999.4, 1e10, 999999999.95]])
        self._assert_oracle_bytes(tmp_path, np.column_stack([v, -v, v[::-1]]))

    def test_points_writer_zero_nonfinite_subnormal(self, tmp_path):
        special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                   2.2250738585072014e-308, 1e-310, 1.7976931348623157e308]
        rows = [[s, 1.5, -2.25] for s in special] + [[1.5, s, s] for s in special]
        self._assert_oracle_bytes(tmp_path, rows)

    @pytest.mark.parametrize("cls", [0, -1, 9, 10, 99999, 100000,
                                     2**31 - 1, -2**31])
    def test_points_writer_class_ids(self, tmp_path, cls):
        self._assert_oracle_bytes(tmp_path, [[1.5, -2.5, 0.125], [3.0, 0.0, 7.0]],
                                  [cls, 1])

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_points_writer_chunk_edges(self, tmp_path, rng, extra):
        n = dataio._POINTS_CHUNK + extra
        xyz = rng.uniform(-80, 80, (n, 3))
        # Rows formatted by % alone at the first and last row of each chunk.
        for at in {0, n - 1, dataio._POINTS_CHUNK - 1, dataio._POINTS_CHUNK} & set(range(n)):
            xyz[at, at % 3] = 0.0
        cls = rng.integers(-3, 12, n)
        self._assert_oracle_bytes(tmp_path, xyz, cls)
        self._assert_oracle_bytes(tmp_path, xyz[:1], cls[:1])

    @pytest.fixture(scope="class")
    def perf_frame(self):
        return generate_sequence(perf_scene(0))[0][0].points

    def test_points_writer_perf_frame(self, tmp_path, monkeypatch, perf_frame):
        # The % route is for rows the fast route cannot prove; on a real
        # frame it must stay rare, or the writer loses its speed.
        calls = []
        point_line = dataio._point_line
        monkeypatch.setattr(dataio, "_point_line",
                            lambda *row: calls.append(row) or point_line(*row))
        dataio.write_points_text(tmp_path / "p.txt", perf_frame)
        assert (tmp_path / "p.txt").read_text() == line_points_text(perf_frame)
        assert len(calls) < 0.01 * len(perf_frame)

    def test_text_and_binary_load_equal_arrays(self, tmp_path, rng):
        # Coordinates with 10 significant digits survive text exactly.
        xyz = np.array([[float(format(v, ".10g")) for v in row]
                        for row in rng.uniform(-80, 80, (200, 3))])
        cloud = PointCloud(xyz, rng.integers(0, 4, 200))
        dataio.write_points_text(tmp_path / "p.txt", cloud)
        dataio.write_points_binary(tmp_path / "p.bin", cloud)
        text, binary = (dataio.read_points(tmp_path / f) for f in ("p.txt", "p.bin"))
        assert text.xyz.tobytes() == binary.xyz.tobytes()
        assert text.class_id.tobytes() == binary.class_id.tobytes()

    def test_box_writers_bytes(self, tmp_path):
        labs = [label(), label(cx=-0.0, cy=1e-300, cz=1e300, yaw=-1.2),
                PseudoLabel(Box3D(1, 2, 3, 4, 2, 1, 0.5, class_id=2**40),
                            ScoreBreakdown(-0.0, 1e-300, 1.0, 0.1), 0.0, "stcf-refined")]
        preds = [Prediction(lab.box, c) for lab, c in zip(labs, (0.1, -0.0, 1e-300))]
        for frame_id in (0, 123456789):
            dataio.write_boxes(tmp_path / "l.txt", frame_id, labs, "labels")
            assert (tmp_path / "l.txt").read_text() == line_labels_text(frame_id, labs)
            dataio.write_boxes(tmp_path / "p.txt", frame_id, preds, "predictions")
            assert (tmp_path / "p.txt").read_text() == \
                line_predictions_text(frame_id, preds)
        dataio.write_boxes(tmp_path / "l.txt", 0, [], "labels")
        dataio.write_boxes(tmp_path / "p.txt", 0, [], "predictions")
        assert (tmp_path / "l.txt").read_text() == (tmp_path / "p.txt").read_text() == ""

    def test_pose_and_retained_bytes(self, tmp_path):
        pose = Pose.from_xyz_yaw(1e300, -0.0, 1e-300, 0.7)
        dataio.write_pose(tmp_path / "pose.txt", pose)
        assert (tmp_path / "pose.txt").read_text() == line_pose_text(pose)
        idx = {0: np.array([], dtype=np.int64), 1: np.array([0, 7, 2**40])}
        dataio.write_retained_indices(tmp_path / "r", idx)
        assert (tmp_path / "r" / "frame_000000.txt").read_text() == ""
        assert (tmp_path / "r" / "frame_000001.txt").read_text() == \
            "\n".join(str(int(i)) for i in idx[1]) + "\n"

    _BOUNDARIES = [0, 2**40, 2**63 - 1] + [10**k + d for k in range(1, 19)
                                           for d in (-1, 0)]

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=st.lists(st.one_of(st.integers(0, 2**63 - 1),
                                     st.integers(0, 10**6),
                                     st.sampled_from(_BOUNDARIES)), max_size=40),
           order=st.sampled_from(["drawn", "sorted"]),
           negative=st.one_of(st.none(), st.integers(-2**63, -1)))
    def test_retained_writer_bytes(self, tmp_path, values, order, negative):
        idx = np.array(sorted(values) if order == "sorted" else values,
                       dtype=np.int64)
        if negative is not None:  # a negative index is a programming error
            bad = np.insert(idx, len(idx) // 2, negative)
            with pytest.raises(ValueError):
                dataio.write_retained_indices(tmp_path / "r", {0: bad})
            return
        dataio.write_retained_indices(tmp_path / "r", {3: idx})
        assert (tmp_path / "r" / "frame_000003.txt").read_bytes() == \
            (("%d\n" * len(idx)) % tuple(idx.tolist())).encode()


class TestPose:
    def test_round_trip(self, tmp_path):
        pose = Pose.from_xyz_yaw(1.5, -2.5, 1.8, 0.7)
        path = tmp_path / "pose.txt"
        dataio.write_pose(path, pose)
        back = dataio.read_pose(path)
        np.testing.assert_allclose(back.rotation, pose.rotation, atol=1e-12)
        np.testing.assert_allclose(back.translation, pose.translation, atol=1e-12)

    def test_bad_pose_file(self, tmp_path):
        path = tmp_path / "pose.txt"
        path.write_text("1 0 0 0\n0 1 0 0\n")
        with pytest.raises(FormatError, match="3 rows"):
            dataio.read_pose(path)

    @pytest.mark.parametrize("text, line", [
        ("\n1 0 0 0\n0 1 0 x\n0 0 1 0\n", 3),
        ("\n\n1 0 0 0\n0 1 0\n0 0 1 0\n", 4),
    ], ids=["bad-number", "three-fields"])
    def test_bad_row_names_physical_line(self, tmp_path, text, line):
        # Blank lines are skipped but still counted: the message names the
        # 1-based line of the file, not the row of the matrix.
        path = tmp_path / "pose.txt"
        path.write_text(text)
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}:{line}: "):
            dataio.read_pose(path)


def label(**kw):
    fields = dict(cx=10.123456789, cy=-3.5, cz=0.8, l=4.6, w=1.8, h=1.6,
                  yaw=0.37)
    fields.update(kw)
    box = Box3D(**fields, class_id=1)
    return PseudoLabel(box, ScoreBreakdown(0.5, 0.75, 1.0, 0.75), 0.875, "init")


class TestLabels:
    def test_round_trip(self, tmp_path):
        labs = [label(), label(cx=5.0, yaw=-1.2)]
        path = tmp_path / "l.txt"
        dataio.write_boxes(path, 0, labs, "labels")
        back = dataio.read_boxes(path, 0, "labels")
        assert len(back) == 2
        for a, b in zip(back, labs):
            for f in ("cx", "cy", "cz", "l", "w", "h", "yaw"):
                assert getattr(a.box, f) == pytest.approx(getattr(b.box, f),
                                                          abs=1e-9)
            assert a.scores.msf == pytest.approx(b.scores.msf, abs=1e-9)
            assert a.weight == pytest.approx(b.weight, abs=1e-9)
            assert a.source == b.source

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("0 1 1.0 2.0 0.5 4.0 2.0 1.5 0.0 0.5 0.5 0.5 0.5 0.5\n")
        with pytest.raises(FormatError, match="source"):
            dataio.read_boxes(path, 0, "labels")

    def test_weight_inconsistency_warns(self, tmp_path, caplog):
        box = Box3D(1, 2, 0.5, 4, 2, 1.5, 0.0, class_id=1)
        bad = PseudoLabel(box, ScoreBreakdown(0.9, 0.9, 0.9, 0.9), 0.123, "init")
        path = tmp_path / "l.txt"
        dataio.write_boxes(path, 0, [bad], "labels")
        with caplog.at_level(logging.WARNING, logger="sembox"):
            dataio.read_boxes(path, 0, "labels", config=PipelineConfig())
        assert any("inconsistent" in r.message for r in caplog.records)

    def test_predictions_round_trip(self, tmp_path):
        preds = [Prediction(Box3D(3, 4, 0.7, 4.2, 1.7, 1.5, 0.9, class_id=2),
                            0.65)]
        path = tmp_path / "p.txt"
        dataio.write_boxes(path, 5, preds, "predictions")
        back = dataio.read_boxes(path, 5, "predictions")
        assert back[0].confidence == pytest.approx(0.65, abs=1e-9)
        assert path.read_text().split()[0] == "5"
        assert back[0].box.class_id == 2

    def test_box_dir_round_trip(self, tmp_path):
        per_frame = {0: [label()], 3: [label(), label(cx=1.0)]}
        dataio.write_box_dir(tmp_path / "labels", per_frame)
        back = dataio.read_box_dir(tmp_path / "labels")
        assert sorted(back) == [0, 3]
        assert len(back[3]) == 2

    def test_unknown_kind_or_format_raises(self, tmp_path):
        # "label" once silently read and wrote the predictions format.
        with pytest.raises(KeyError):
            dataio.write_box_dir(tmp_path / "labels", {0: [label()]}, kind="label")
        with pytest.raises(KeyError):
            dataio.read_box_dir(tmp_path, kind="label")
        with pytest.raises(KeyError):
            dataio.write_dataset(tmp_path / "ds", [], {}, points_format="bin")
        assert not (tmp_path / "labels").exists() and not (tmp_path / "ds").exists()


class TestDataset:
    def test_write_load_round_trip(self, tmp_path):
        frames, gt = generate_sequence(preset_scene("adjacent", 1))
        root = tmp_path / "seq"
        dataio.write_dataset(root, frames, {1: "vehicle", 2: "pedestrian",
                                            3: "cyclist"}, gt=gt)
        back = dataio.load_dataset(root)
        assert dataio.read_manifest(root)[1] == {0: "background", 1: "vehicle",
                                                 2: "pedestrian", 3: "cyclist"}
        assert len(back) == len(frames)
        np.testing.assert_allclose(back[0].points.xyz, frames[0].points.xyz,
                                   atol=1e-6)
        np.testing.assert_allclose(back[0].pose.rotation,
                                   frames[0].pose.rotation, atol=1e-12)
        gt_back = dataio.read_box_dir(root / "gt_labels")
        assert sum(len(v) for v in gt_back.values()) == \
            sum(len(v) for v in gt.values())

    def test_binary_dataset(self, tmp_path):
        frames, gt = generate_sequence(preset_scene("adjacent", 1))
        root = tmp_path / "seq"
        dataio.write_dataset(root, frames, {1: "vehicle"}, gt=gt,
                             points_format="binary")
        back = dataio.load_dataset(root)
        assert back[0].points.xyz.tobytes() == frames[0].points.xyz.tobytes()

    def test_manifest_entries_sorted_by_frame_id(self, tmp_path):
        frames, _ = generate_sequence(preset_scene("adjacent", 1))
        root = tmp_path / "seq"
        dataio.write_dataset(root, frames, {1: "vehicle"})
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["frames"].reverse()
        (root / "manifest.json").write_text(json.dumps(manifest))
        entries, _ = dataio.read_manifest(root)
        ids = [fr.frame_id for fr in frames]
        assert [e.frame_id for e in entries] == ids
        assert entries[2].pose == "poses/frame_000002.txt"
        assert [fr.frame_id for fr in dataio.load_dataset(root)] == ids

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FormatError, match="manifest.json"):
            dataio.load_dataset(tmp_path)

    def test_retained_indices(self, tmp_path):
        dataio.write_retained_indices(tmp_path / "r", {0: np.array([1, 5, 9])})
        text = (tmp_path / "r" / "frame_000000.txt").read_text()
        assert text == "1\n5\n9\n"


class TestConfig:
    def test_defaults_reproduce_published_constants(self):
        cfg = PipelineConfig()
        assert cfg.occ_grid_r == 7
        assert cfg.lambdas == (1 / 3, 1 / 3, 1 / 3)
        assert cfg.theta_low == 0.4
        assert cfg.theta_high == 0.8

    def test_json_round_trip(self, tmp_path):
        cfg = PipelineConfig(window_half_size=3, cell_size=0.5,
                             nms_iou_threshold=0.25)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(asdict(cfg)))
        back = read_json(path, PipelineConfig)
        assert back == cfg

    def test_validation_names_fields(self):
        with pytest.raises(ConfigError, match="cell_size"):
            PipelineConfig(cell_size=-1.0)
        with pytest.raises(ConfigError, match="lambdas"):
            PipelineConfig(lambdas=(0.5, 0.5, 0.5))
        with pytest.raises(ConfigError, match="theta"):
            PipelineConfig(theta_low=0.9, theta_high=0.5)
        with pytest.raises(ConfigError, match="radii"):
            PipelineConfig(classes={1: ClassConfig("vehicle", (1.0, 0.5), 5,
                                                   (4.6, 1.8, 1.6))})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            build(PipelineConfig, {"not_a_field": 1})

    def test_epsilon_derivation(self):
        cfg = PipelineConfig()
        assert cfg.effective_epsilon(11) == 7
        assert replace(cfg, epsilon=3).effective_epsilon(11) == 3
