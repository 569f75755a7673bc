"""BVH parsing, canonical writing, and round-trip stability."""

import glob
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigfit import AnimationClip, BvhParseError, validate_skeleton
from rigfit.bvh import BvhDocument, document_from_clip, parse_bvh, write_bvh
from rigfit.rotations import (
    EULER_ORDERS,
    axis_angle_to_matrix,
    batch_axis_angle_to_matrix,
    canonicalize_axis_angle,
    euler_to_matrix,
    matrix_to_axis_angle,
    matrix_to_euler,
)
from rigfit.skeleton import fk_sequence

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")
FIXTURES = sorted(glob.glob(os.path.join(FIXTURE_DIR, "*.bvh")))


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def max_angle_error_deg(a, b):
    """Largest per-joint rotation discrepancy between two documents, degrees."""
    worst = 0.0
    for fa, fb in zip(a.clip.frames, b.clip.frames):
        for ra, rb in zip(fa.rotations, fb.rotations):
            Ra = axis_angle_to_matrix(ra)
            Rb = axis_angle_to_matrix(rb)
            cos = (np.trace(Ra.T @ Rb) - 1.0) / 2.0
            worst = max(worst, np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))))
    return worst


class TestFixtureCorpus:
    def test_corpus_size(self):
        assert len(FIXTURES) >= 10

    @pytest.mark.parametrize("path", FIXTURES, ids=[os.path.basename(p) for p in FIXTURES])
    def test_round_trip_numeric(self, path):
        doc = parse_bvh(read(path))
        again = parse_bvh(write_bvh(doc))
        assert again.skeleton.joint_count == doc.skeleton.joint_count
        assert max_angle_error_deg(doc, again) < 1e-4
        np.testing.assert_allclose(again.skeleton.offsets, doc.skeleton.offsets, atol=1e-5)
        for fa, fb in zip(doc.clip.frames, again.clip.frames):
            np.testing.assert_allclose(fb.root_translation, fa.root_translation, atol=1e-5)

    @pytest.mark.parametrize("path", FIXTURES, ids=[os.path.basename(p) for p in FIXTURES])
    def test_writer_byte_stable(self, path):
        doc = parse_bvh(read(path))
        once = write_bvh(doc)
        twice = write_bvh(parse_bvh(once))
        assert once == twice

    def test_all_euler_orders_covered(self):
        orders = set()
        for path in FIXTURES:
            doc = parse_bvh(read(path))
            for chans in doc.channel_layout:
                orders.add("".join(c[0] for c in chans if c.endswith("rotation")))
        assert {"ZXY", "ZYX", "XYZ", "XZY", "YXZ", "YZX"} <= orders


class TestParse:
    def test_minimal_fixture_contents(self):
        doc = parse_bvh(read(os.path.join(FIXTURE_DIR, "minimal.bvh")))
        assert doc.skeleton.joint_count == 2
        assert doc.clip.frame_count == 2
        assert doc.skeleton.joint_names == ("Hip", "Knee")
        np.testing.assert_allclose(doc.skeleton.offsets[1], [0, -0.45, 0])
        # frame 1 root channels: position (0.5,-0.25,0), ZXY rotation (30,-10,5)
        np.testing.assert_allclose(doc.clip.frames[1].root_translation, [0.5, -0.25, 0])
        np.testing.assert_allclose(
            axis_angle_to_matrix(doc.clip.frames[1].rotations[0]),
            euler_to_matrix(np.deg2rad([30.0, -10.0, 5.0]), "ZXY"),
            atol=1e-12,
        )

    def test_zero_rows_give_identity_poses(self):
        doc = parse_bvh(read(os.path.join(FIXTURE_DIR, "rest_only.bvh")))
        np.testing.assert_allclose(doc.clip.frames[0].rotations, 0.0)
        np.testing.assert_allclose(doc.clip.frames[0].root_translation, 0.0)

    def test_end_sites_preserved_as_metadata(self):
        doc = parse_bvh(read(os.path.join(FIXTURE_DIR, "star.bvh")))
        assert doc.skeleton.joint_count == 3  # End Sites are not joints
        assert len(doc.end_sites) == 2
        tips = doc.end_site_world_positions()
        assert tips.shape == (2, 3)

    def test_per_joint_channel_order_kept_verbatim(self):
        doc = parse_bvh(read(os.path.join(FIXTURE_DIR, "star.bvh")))
        assert doc.channel_layout[1] == ("Xrotation", "Yrotation", "Zrotation")
        assert doc.channel_layout[2] == ("Zrotation", "Yrotation", "Xrotation")

    def test_six_channel_child_round_trips(self):
        text = read(os.path.join(FIXTURE_DIR, "six_channel_child.bvh"))
        doc = parse_bvh(text)
        assert 1 in doc.extra_translations
        again = parse_bvh(write_bvh(doc))
        np.testing.assert_allclose(
            again.extra_translations[1], doc.extra_translations[1], atol=1e-5
        )

    def test_messy_whitespace_tolerated(self):
        doc = parse_bvh(read(os.path.join(FIXTURE_DIR, "messy_whitespace.bvh")))
        assert doc.skeleton.joint_count == 2
        assert doc.clip.frame_count == 2


# the motion block of minimal.bvh, lines 18 to 20
FRAME_TIME = "Frame Time: 0.033333"
ROW0 = "0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0"
ROW1 = "0.5 -0.25 0.0 30.0 -10.0 5.0 0.0 45.0 0.0"


class TestParseErrors:
    def base(self):
        return read(os.path.join(FIXTURE_DIR, "minimal.bvh"))

    @pytest.mark.parametrize("literal", ["nan", "inf", "-inf"])
    def test_non_finite_motion_value_names_line(self, literal):
        # every column, rotation and position, of the root and of a 6-channel child
        lines = read(os.path.join(FIXTURE_DIR, "six_channel_child.bvh")).splitlines()
        values = lines[-1].split()
        assert len(values) == 12
        for col in range(len(values)):
            row = " ".join(values[:col] + [literal] + values[col + 1 :])
            with pytest.raises(BvhParseError, match="non-finite") as e:
                parse_bvh("\n".join(lines[:-1] + [row]) + "\n")
            assert e.value.line == len(lines)

    @pytest.mark.parametrize("literal", ["nan", "inf", "-inf"])
    def test_non_finite_offset_or_frame_time_names_line(self, literal):
        for old, line in (("-0.450000", 8), ("-0.420000", 12), ("0.033333", 18)):
            with pytest.raises(BvhParseError, match="non-finite") as e:
                parse_bvh(self.base().replace(old, literal))
            assert e.value.line == line

    @pytest.mark.parametrize("old, new, message", [
        (ROW1, "0.5 -0.25 0.0 30.0 abc 5.0 0.0 45.0 0.0", "line 20: non-numeric literal 'abc'"),
        (ROW1, "0.5 -0.25 0.0 30.0 nan 5.0 0.0 45.0 0.0", "line 20: non-finite literal 'nan'"),
        (ROW1, "0.5 -0.25 0.0 30.0 inf 5.0 0.0 45.0 0.0", "line 20: non-finite literal 'inf'"),
        (ROW1, "0.5 -0.25 0.0 30.0 -inf 5.0 0.0 45.0 0.0", "line 20: non-finite literal '-inf'"),
        (ROW1, "0.5 -0.25 0.0 30.0 1e999 5.0 0.0 45.0 0.0",
         "line 20: non-finite literal '1e999'"),
        (ROW1, "0.5 nan 0.0 abc -10.0 5.0 0.0 45.0 0.0", "line 20: non-finite literal 'nan'"),
        (ROW0 + "\n" + ROW1, ROW0.replace("0.0", "nan", 1) + "\n0.5 -0.25",
         "line 19: non-finite literal 'nan'"),
        (ROW0 + "\n" + ROW1, "abc " + ROW0[4:] + "\n" + ROW1 + "\n" + ROW1,
         "line 19: non-numeric literal 'abc'"),
        (ROW1, ROW1[:-4], "line 20: motion row has 8 values, expected 9"),
        (ROW1, ROW1 + " 1.0", "line 20: motion row has 10 values, expected 9"),
        (ROW1, ROW1 + "\n" + ROW1, "line 21: motion data has more rows than the declared 2"),
        (ROW1 + "\n", "", "line 19: motion data has 1 of 2 rows"),
        (ROW0 + "\n" + ROW1 + "\n", "\n \n\t\n", "line 18: motion data has 0 of 2 rows"),
        (ROW0 + "\n" + ROW1, "\n" + ROW0 + "\n\n  \n1.0",
         "line 23: motion row has 1 values, expected 9"),
        (FRAME_TIME, FRAME_TIME + " 1.0", "line 18: motion row has 1 values, expected 9"),
        (FRAME_TIME + "\n" + ROW0, FRAME_TIME + " nan" + ROW0[3:],
         "line 18: non-finite literal 'nan'"),
        (FRAME_TIME + "\n" + ROW0, FRAME_TIME + " " + ROW0 + " " + ROW0,
         "line 18: motion row has 18 values, expected 9"),
    ], ids=["bad-token", "nan", "inf", "-inf", "1e999", "nan-before-bad-token",
            "nan-before-short-row", "bad-token-before-extra-row", "short-row", "long-row",
            "extra-row", "missing-row", "no-rows-trailing-blanks", "blank-lines-then-short-row",
            "after-frame-time-short", "after-frame-time-nan", "after-frame-time-long"])
    def test_malformed_motion_names_first_fault_and_line(self, old, new, message):
        # the message and line a value-by-value read gives: the first fault in
        # file order, counting blank lines, with CRLF line ends as with LF
        text = self.base().replace(old, new)
        assert text != self.base()
        for ends in ("\n", "\r\n"):
            with pytest.raises(BvhParseError) as e:
                parse_bvh(text.replace("\n", ends))
            assert str(e.value) == message
            assert e.value.line == int(message.split(":")[0][len("line "):])

    @pytest.mark.parametrize("old, new", [
        (ROW0 + "\n", "\n" + ROW0 + "\n\n  \n"),
        (FRAME_TIME + "\n" + ROW0, FRAME_TIME + " " + ROW0),
        (ROW1, " \t".join(ROW1.split()) + "\t"),
    ], ids=["blank-lines", "row-after-frame-time", "tabs"])
    def test_motion_layouts_that_parse(self, old, new):
        expected = write_bvh(parse_bvh(self.base()))
        text = self.base().replace(old, new)
        assert text != self.base()
        for ends in ("\n", "\r\n"):
            assert write_bvh(parse_bvh(text.replace("\n", ends))) == expected

    def test_huge_declared_frame_count_is_missing_rows(self):
        # the motion array holds no more rows than lines are left, so a count
        # far beyond memory is the usual missing-rows error, not an allocation
        text = self.base().replace("Frames: 2", "Frames: 1000000000000000")
        with pytest.raises(BvhParseError) as e:
            parse_bvh(text)
        assert str(e.value) == "line 20: motion data has 2 of 1000000000000000 rows"

    def test_wrong_row_arity_names_line(self):
        text = self.base().replace(
            "0.5 -0.25 0.0 30.0 -10.0 5.0 0.0 45.0 0.0", "0.5 -0.25 0.0 30.0"
        )
        with pytest.raises(BvhParseError) as e:
            parse_bvh(text)
        assert e.value.line is not None
        assert str(e.value.line) in str(e.value)

    def test_missing_motion_section(self):
        text = self.base().split("MOTION")[0]
        with pytest.raises(BvhParseError):
            parse_bvh(text)

    def test_unknown_channel_name(self):
        with pytest.raises(BvhParseError):
            parse_bvh(self.base().replace("Zrotation", "Wrotation", 1))

    def test_repeated_position_channel_names_joint(self):
        # six channels still, so every motion row keeps its width
        text = self.base().replace(
            "Xposition Yposition Zposition", "Xposition Xposition Yposition", 1
        )
        with pytest.raises(BvhParseError, match="Hip"):
            parse_bvh(text)

    def test_non_numeric_literal(self):
        with pytest.raises(BvhParseError):
            parse_bvh(self.base().replace("-0.450000", "abc"))

    def test_unexpected_token(self):
        with pytest.raises(BvhParseError):
            parse_bvh("HIERARCHY\nJOINT x\n{\n}\n")

    def test_never_panics_on_junk(self):
        for junk in ["", "garbage", "HIERARCHY", "HIERARCHY\nROOT a\n{", "\x00\x01"]:
            with pytest.raises(BvhParseError):
                parse_bvh(junk)


class TestWrite:
    def test_rest_frame_document_valid(self):
        sk = validate_skeleton(["a", "b"], [-1, 0], [[0, 0, 0], [0, 1.0, 0]])
        clip = AnimationClip(np.zeros((1, 2, 3)), np.zeros((1, 3)), fps=24.0)
        doc = document_from_clip(sk, clip)
        text = write_bvh(doc)
        again = parse_bvh(text)
        assert again.clip.frame_count == 1
        assert text.endswith("\n")
        assert "\r" not in text

    def test_root_six_channels_children_three(self):
        sk = validate_skeleton(["a", "b"], [-1, 0], [[0, 0, 0], [0, 1.0, 0]])
        clip = AnimationClip(np.zeros((1, 2, 3)), np.zeros((1, 3)), fps=24.0)
        text = write_bvh(document_from_clip(sk, clip))
        lines = text.splitlines()
        chan_lines = [ln.strip() for ln in lines if ln.strip().startswith("CHANNELS")]
        assert chan_lines[0].startswith("CHANNELS 6 Xposition Yposition Zposition")
        assert chan_lines[1].startswith("CHANNELS 3 ")

    def test_fk_preserved_through_round_trip(self, rng):
        # motion semantics survive write/parse: FK positions agree closely
        path = os.path.join(FIXTURE_DIR, "chain_yzx.bvh")
        doc = parse_bvh(read(path))
        again = parse_bvh(write_bvh(doc))
        a = fk_sequence(doc.skeleton, doc.clip)
        b = fk_sequence(again.skeleton, again.clip)
        np.testing.assert_allclose(b.positions, a.positions, atol=1e-5)

    def test_frame_skeleton_mismatch(self):
        sk = validate_skeleton(["a", "b"], [-1, 0], [[0, 0, 0], [0, 1.0, 0]])
        clip = AnimationClip(np.zeros((1, 3, 3)), np.zeros((1, 3)), fps=24.0)
        with pytest.raises(Exception):
            document_from_clip(sk, clip)

    def test_deep_chain_round_trips_byte_for_byte(self, rng):
        # far deeper than Python's recursion limit: parse and write keep their
        # own stacks, and the motion of every joint survives
        n = 2000
        sk = validate_skeleton([f"j{i}" for i in range(n)], [-1] + list(range(n - 1)),
                               rng.normal(size=(n, 3)))
        clip = AnimationClip(rng.uniform(-0.5, 0.5, size=(2, n, 3)), rng.normal(size=(2, 3)),
                             fps=30.0)
        text = write_bvh(document_from_clip(sk, clip, end_sites={n - 1: np.ones(3)}))
        doc = parse_bvh(text)
        assert doc.skeleton.joint_count == n and list(doc.skeleton.parents[1:]) == list(range(n - 1))
        assert sorted(doc.end_sites) == [n - 1]
        assert write_bvh(doc) == text


# interleaved position and rotation channels, five rotation orders, and a
# 6-channel child; Tip shares the root's order
MIXED_ORDERS_HIERARCHY = """HIERARCHY
ROOT Root
{
  OFFSET 0.0 0.0 0.0
  CHANNELS 6 Xposition Yposition Zposition Zrotation Xrotation Yrotation
  JOINT Slide
  {
    OFFSET 0.0 1.0 0.0
    CHANNELS 6 Yrotation Xposition Zrotation Yposition Xrotation Zposition
    JOINT Twist
    {
      OFFSET 0.5 0.0 0.0
      CHANNELS 3 Zrotation Yrotation Xrotation
      End Site
      {
        OFFSET 0.0 0.3 0.0
      }
    }
  }
  JOINT Side
  {
    OFFSET -0.5 0.2 0.0
    CHANNELS 3 Xrotation Zrotation Yrotation
    JOINT Tip
    {
      OFFSET 0.0 -0.4 0.1
      CHANNELS 3 Zrotation Xrotation Yrotation
    }
  }
  JOINT Last
  {
    OFFSET 0.0 0.0 0.7
    CHANNELS 3 Xrotation Yrotation Zrotation
  }
}
"""


def reference_parse(doc_layout, motion):
    """Rotations (T, N, 3) and {joint: positions} of a motion block, one joint at a time."""
    rotations, translations, start = [], {}, 0
    for j, chans in enumerate(doc_layout):
        block = motion[:, start : start + len(chans)]
        start += len(chans)
        rot = [n for n, c in enumerate(chans) if c.endswith("rotation")]
        order = "".join(chans[n][0] for n in rot)
        rotations.append(matrix_to_axis_angle(euler_to_matrix(np.deg2rad(block[:, rot]), order)))
        if "Xposition" in chans:
            translations[j] = block[:, [chans.index(f"{a}position") for a in "XYZ"]]
    return canonicalize_axis_angle(np.stack(rotations, axis=1)), translations


def reference_motion_lines(doc):
    """The motion rows of doc as write_bvh prints them, one joint at a time."""
    translations = {**doc.extra_translations, 0: doc.clip.root_translation}
    columns = []
    for j, chans in enumerate(doc.channel_layout):
        order = "".join(c[0] for c in chans if c.endswith("rotation"))
        degrees = np.rad2deg(matrix_to_euler(batch_axis_angle_to_matrix(doc.clip.rotations[:, j]),
                                             order))
        angles = iter(np.unwrap(degrees, period=360.0, axis=0).T)
        translation = translations.get(j, np.zeros((doc.clip.frame_count, 3)))
        for c in chans:
            columns.append(next(angles) if c.endswith("rotation")
                           else translation[:, "XYZ".index(c[0])])
    return [" ".join(map(per_value_fmt, row)) for row in np.stack(columns, axis=1).tolist()]


def per_value_fmt(v):
    """One motion value as write_bvh prints it: 6 decimals, zero unsigned."""
    out = f"{v:.6f}"
    return "0.000000" if out == "-0.000000" else out


# near zero on both sides of the rounding to 6 decimals, decimal ties, and
# values whose rounding carries into the integer part
_MOTION_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 4e-7, -4e-7, 5e-7, -5e-7, 6e-7, -6e-7, 5e-6, -2.5e-6,
                     0.1234565, -0.1234565, 179.9999995, -179.9999995, 1e6, -1e6]),
    st.floats(-1e-5, 1e-5),
    st.floats(-1e6, 1e6),
)


class TestMotionArrays:
    """parse_bvh and write_bvh convert whole motion blocks; each value is the
    one a joint-by-joint conversion gives, bit for bit."""

    def test_mixed_orders_match_per_joint_reference(self, rng):
        frames = 7
        motion = rng.uniform(-179.0, 179.0, size=(frames, 24))
        motion[:, [0, 1, 2, 7, 9, 11]] = rng.normal(size=(frames, 6))  # the position columns
        rows = [" ".join(f"{v:.6f}" for v in row) for row in motion]
        text = MIXED_ORDERS_HIERARCHY + f"MOTION\nFrames: {frames}\nFrame Time: 0.033333\n"
        doc = parse_bvh(text + "\n".join(rows) + "\n")

        rotations, translations = reference_parse(doc.channel_layout, np.loadtxt(rows))
        assert np.array_equal(doc.clip.rotations, rotations)
        assert np.array_equal(doc.clip.root_translation, translations.pop(0))
        assert sorted(doc.extra_translations) == sorted(translations) == [1]
        assert np.array_equal(doc.extra_translations[1], translations[1])

        written = write_bvh(doc).splitlines()
        assert written[-frames:] == reference_motion_lines(doc)
        # without its child's translations the 6-channel child writes zeros there
        bare = BvhDocument(doc.skeleton, doc.channel_layout, doc.end_sites, doc.clip,
                           doc.frame_time)
        assert write_bvh(bare).splitlines()[-frames:] == reference_motion_lines(bare)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda t: st.tuples(
        st.lists(st.tuples(*[_MOTION_VALUES] * 6), min_size=t, max_size=t),
        st.lists(st.tuples(*[st.sampled_from([0.0, -1e-9, 1e-9, -2e-8, 0.3])] * 9),
                 min_size=t, max_size=t))))
    def test_row_format_matches_per_value_reference(self, motion):
        # position channels carry values to the motion text as they are;
        # rotations near zero give Euler angles that print as -0.000000
        positions, rotations = (np.array(m) for m in motion)
        frames = len(positions)
        rig = parse_bvh(MIXED_ORDERS_HIERARCHY + "MOTION\nFrames: 1\nFrame Time: 0.1\n"
                        + " ".join(["0"] * 24) + "\n")
        clip = AnimationClip(np.resize(rotations, (frames, 6, 3)), positions[:, :3], fps=10.0)
        doc = BvhDocument(rig.skeleton, rig.channel_layout, {}, clip, 0.1,
                          {1: positions[:, 3:]})
        assert write_bvh(doc).splitlines()[-frames:] == reference_motion_lines(doc)

    def test_turning_root_writes_continuous_channels(self):
        # one full turn of the root about y in 60 frames: each frame's Euler
        # angles alone jump by about 354 degrees where the yaw passes 180
        skeleton = parse_bvh(read(os.path.join(FIXTURE_DIR, "star.bvh"))).skeleton
        rotations = np.zeros((60, 3, 3))
        rotations[:, 0, 1] = np.linspace(0.0, 2.0 * np.pi, 60)
        rotations[:, 1, 0] = np.linspace(-0.3, 0.3, 60)
        doc = document_from_clip(skeleton, AnimationClip(rotations, np.zeros((60, 3)), fps=30.0))
        text = write_bvh(doc)
        motion = np.loadtxt(text.split("Frame Time:")[1].splitlines()[1:])
        steps = np.abs(np.diff(motion[:, 3:], axis=0))
        assert steps.max() < 180.0
        assert motion[:, 5].max() > 300.0  # the root's Yrotation goes on past 180
        again = parse_bvh(text)
        assert max_angle_error_deg(doc, again) < 1e-4
        assert write_bvh(again) == text

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(*[st.floats(-4.0, 4.0)] * 3), min_size=2, max_size=40),
           st.sampled_from(EULER_ORDERS))
    def test_unwrapping_moves_no_rotation(self, thetas, order):
        # write_bvh's channels: each frame's Euler angles, unwrapped along the frames
        R = batch_axis_angle_to_matrix(np.array(thetas))
        degrees = np.unwrap(np.rad2deg(matrix_to_euler(R, order)), period=360.0, axis=0)
        np.testing.assert_allclose(euler_to_matrix(np.deg2rad(degrees), order), R,
                                   rtol=0.0, atol=1e-12)


def test_parse_peak_memory_30_joints_2000_frames(rng):
    # motion is converted a line at a time and never held as one token per
    # value (186,000 here), which takes 24.7 to 26.0 MB at this size
    n, frames = 30, 2000
    skeleton = validate_skeleton([f"j{i}" for i in range(n)], [-1] + [i // 2 for i in range(n - 1)],
                                 rng.normal(size=(n, 3)))
    clip = AnimationClip(rng.uniform(-1.0, 1.0, size=(frames, n, 3)),
                         rng.normal(size=(frames, 3)), fps=30.0)
    text = write_bvh(document_from_clip(skeleton, clip))
    tracemalloc.start()
    try:
        doc = parse_bvh(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert doc.clip.frame_count == frames
    assert peak < 0.9 * 24.7e6, peak
