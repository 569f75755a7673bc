"""BVH parsing, canonical writing, and round-trip stability."""

import glob
import os

import numpy as np
import pytest

from rigfit import AnimationClip, BvhParseError, validate_skeleton
from rigfit.bvh import BvhDocument, document_from_clip, parse_bvh, write_bvh
from rigfit.rotations import axis_angle_to_matrix, euler_to_matrix
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


class TestParseErrors:
    def base(self):
        return read(os.path.join(FIXTURE_DIR, "minimal.bvh"))

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
