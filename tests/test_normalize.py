"""Rest-pose and sequence normalization into [-1, 1]^3."""

import numpy as np
import pytest

from rigfit import JointTrajectory, ValidationError, validate_skeleton
from rigfit.normalize import (
    NormalizationTransform,
    remove_global_translation,
    reattach_global_translation,
    rest_normalize,
    sequence_denormalize,
    sequence_normalize,
)
from rigfit.skeleton import rest_pose_positions
from tests.conftest import random_skeleton


def make_traj(positions, mask=None, fps=30.0):
    return JointTrajectory(positions=np.asarray(positions, dtype=float), mask=mask, fps=fps)


class TestRestNormalize:
    def test_extent_two_halves_offsets(self):
        sk = validate_skeleton(["a", "b"], [-1, 0], [[0, 0, 0], [0, 0, 2.0]])
        scaled, transform = rest_normalize(sk)
        np.testing.assert_allclose(scaled.offsets[1], [0, 0, 1.0])
        assert transform.scale == 0.5

    def test_unit_extent_identity_transform(self):
        sk = validate_skeleton(["a", "b"], [-1, 0], [[0, 0, 0], [1.0, 0, 0]])
        scaled, transform = rest_normalize(sk)
        assert transform.scale == 1.0
        np.testing.assert_allclose(scaled.offsets, sk.offsets)

    def test_single_joint_degenerate(self):
        sk = validate_skeleton(["a"], [-1], [[0, 0, 0]])
        with pytest.raises(ValidationError):
            rest_normalize(sk)

    def test_extra_points_widen_box(self):
        sk = validate_skeleton(["a", "b"], [-1, 0], [[0, 0, 0], [1.0, 0, 0]])
        scaled, transform = rest_normalize(sk, extra_points=[[2.0, 0, 0]])
        assert transform.scale == 0.5
        np.testing.assert_allclose(scaled.offsets[1], [0.5, 0, 0])

    def test_unit_max_extent_after(self, rng):
        sk = random_skeleton(rng, 10)
        scaled, _ = rest_normalize(sk)
        rest = rest_pose_positions(scaled)
        assert abs(np.max(rest.max(axis=0) - rest.min(axis=0)) - 1.0) < 1e-9


class TestRemoveGlobalTranslation:
    def test_root_at_origin_unchanged(self):
        pos = np.zeros((2, 3, 3))
        pos[:, 1] = [1, 0, 0]
        pos[:, 2] = [0, 1, 0]
        traj = make_traj(pos)
        out, roots = remove_global_translation(traj)
        np.testing.assert_allclose(out.positions, pos)
        np.testing.assert_allclose(roots, 0.0)

    def test_constant_offset_extracted(self):
        pos = np.tile(np.array([1.0, 2.0, 3.0]), (4, 3, 1))
        out, roots = remove_global_translation(make_traj(pos))
        np.testing.assert_allclose(out.positions, 0.0)
        np.testing.assert_allclose(roots, np.tile([1.0, 2.0, 3.0], (4, 1)))

    def test_reattach_inverts_exactly(self, rng):
        pos = rng.normal(size=(5, 6, 3))
        traj = make_traj(pos)
        out, roots = remove_global_translation(traj)
        back = reattach_global_translation(out, roots)
        np.testing.assert_allclose(back.positions, pos, rtol=0, atol=1e-12)
        # the root row is restored bitwise
        assert np.array_equal(back.positions[:, 0], pos[:, 0])


class TestSequenceNormalize:
    def test_hand_derived_box_transform(self):
        # box [0, 2] x [-1, 0] x [0, 3]: its midpoint, and 2 over its widest side
        _, transform = sequence_normalize(make_traj([[[0, 0, 0], [2, -1, 3]]]))
        np.testing.assert_array_equal(transform.center, [1, -0.5, 1.5])
        assert transform.scale == 2.0 / 3.0

    def test_hand_derived_x_span(self):
        pos = np.zeros((1, 2, 3))
        pos[0, 0, 0] = -2.0
        pos[0, 1, 0] = 6.0
        out, transform = sequence_normalize(make_traj(pos))
        np.testing.assert_allclose(transform.center, [2.0, 0.0, 0.0])
        assert abs(transform.scale - 0.25) < 1e-12
        np.testing.assert_allclose(out.positions[0, :, 0], [-1.0, 1.0])

    def test_already_normalized_identity(self):
        pos = np.zeros((1, 2, 3))
        pos[0, 0] = [-1, -1, -1]
        pos[0, 1] = [1, 1, 1]
        out, transform = sequence_normalize(make_traj(pos))
        np.testing.assert_allclose(transform.center, 0.0)
        assert abs(transform.scale - 1.0) < 1e-12
        np.testing.assert_allclose(out.positions, pos)

    def test_denormalize_inverts(self, rng):
        pos = rng.normal(size=(6, 5, 3)) * 10
        traj = make_traj(pos)
        out, transform = sequence_normalize(traj)
        back = sequence_denormalize(out, transform)
        np.testing.assert_allclose(back.positions, pos, atol=1e-9)

    def test_all_coordinates_in_cube_touching_bounds(self, rng):
        pos = rng.normal(size=(8, 7, 3)) * rng.uniform(0.1, 50)
        out, _ = sequence_normalize(make_traj(pos))
        assert np.all(np.abs(out.positions) <= 1.0 + 1e-9)
        assert np.max(np.abs(out.positions)) > 1.0 - 1e-9

    def test_masked_joints_ignored_by_box(self, rng):
        pos = rng.normal(size=(3, 4, 3))
        pos[:, 3] = 1e6  # masked-out outlier must not affect the box
        mask = np.array([True, True, True, False])
        out, transform = sequence_normalize(make_traj(pos, mask=mask))
        _, valid_only = sequence_normalize(make_traj(pos[:, :3]))
        np.testing.assert_array_equal(transform.center, valid_only.center)
        assert transform.scale == valid_only.scale
        assert np.all(np.abs(out.positions[:, :3]) <= 1.0 + 1e-9)

    def test_distance_ratios_preserved(self, rng):
        pos = rng.normal(size=(2, 6, 3)) * 4
        out, _ = sequence_normalize(make_traj(pos))
        d_in = np.linalg.norm(pos[0, 1:] - pos[0, :-1], axis=1)
        d_out = np.linalg.norm(out.positions[0, 1:] - out.positions[0, :-1], axis=1)
        np.testing.assert_allclose(d_out / d_out[0], d_in / d_in[0], rtol=1e-9)

    def test_zero_extent_error(self):
        with pytest.raises(ValidationError):
            sequence_normalize(make_traj(np.zeros((2, 3, 3))))
        with pytest.raises(ValidationError):  # no frames, so no box at all
            sequence_normalize(make_traj(np.zeros((0, 3, 3))))


class TestTransform:
    def test_apply_invert_round_trip(self, rng):
        t = NormalizationTransform(center=np.array([1.0, -2.0, 0.5]), scale=0.125)
        pts = rng.normal(size=(10, 3))
        np.testing.assert_allclose(t.invert(t.apply(pts)), pts, atol=1e-12)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValidationError):
            NormalizationTransform(center=np.zeros(3), scale=0.0)
