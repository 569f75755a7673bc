"""MPJPE, MPJVE, masked L1, and the skeleton Chamfer distance."""

import numpy as np
import pytest

from rigfit import AnimationClip, JointTrajectory, Pose, ValidationError
from rigfit.metrics import (
    SkeletonInstance,
    cd_skeleton,
    cd_skeleton_directed,
    cd_skeleton_sequence,
    masked_l1_loss,
    mpjpe,
    mpjve,
    point_to_segment_distance,
)
from tests.conftest import random_skeleton, smooth_clip
from rigfit.skeleton import fk_sequence
from rigfit.rotations import axis_angle_to_matrix


def traj(positions, mask=None, fps=30.0):
    return JointTrajectory(positions=np.asarray(positions, dtype=float), mask=mask, fps=fps)


class TestMpjpe:
    def test_zero_on_equal(self, rng):
        pos = rng.normal(size=(3, 4, 3))
        assert mpjpe(traj(pos), traj(pos)) == 0.0

    def test_single_error_vector(self):
        gt = traj(np.zeros((1, 1, 3)))
        pred = traj(np.array([[[3.0, 4.0, 0.0]]]))
        assert mpjpe(pred, gt) == pytest.approx(5.0)

    def test_mean_over_joints(self):
        gt = traj(np.zeros((1, 2, 3)))
        pred = traj(np.array([[[0.0, 0, 0], [5.0, 0, 0]]]))
        assert mpjpe(pred, gt) == pytest.approx(2.5)

    def test_mask_excludes_invalid(self):
        gt = traj(np.zeros((1, 2, 3)), mask=[True, False])
        pred_pos = np.zeros((1, 2, 3))
        pred_pos[0, 1] = 100.0
        assert mpjpe(traj(pred_pos, mask=[True, False]), gt) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            mpjpe(traj(np.zeros((1, 2, 3))), traj(np.zeros((1, 3, 3))))


class TestMpjve:
    def test_zero_on_equal(self, rng):
        pos = rng.normal(size=(4, 3, 3))
        assert mpjve(traj(pos), traj(pos)) == 0.0

    def test_constant_offset_invariant(self, rng):
        pos = rng.normal(size=(5, 2, 3))
        assert mpjve(traj(pos + np.array([1.0, 2.0, 3.0])), traj(pos)) == pytest.approx(0.0)

    def test_single_difference(self):
        gt = traj(np.zeros((2, 1, 3)), fps=1.0)
        pred = traj(np.array([[[0.0, 0, 0]], [[1.0, 0, 0]]]), fps=1.0)
        assert mpjve(pred, gt) == pytest.approx(1.0)

    def test_fps_scaling(self):
        gt = traj(np.zeros((2, 1, 3)), fps=30.0)
        pred = traj(np.array([[[0.0, 0, 0]], [[1.0, 0, 0]]]), fps=30.0)
        assert mpjve(pred, gt) == pytest.approx(30.0)

    def test_single_frame_zero_by_convention(self):
        t1 = traj(np.ones((1, 2, 3)))
        assert mpjve(t1, traj(np.zeros((1, 2, 3)))) == 0.0


class TestMaskedL1:
    def test_zero_on_equal(self, rng):
        pos = rng.normal(size=(2, 3, 3))
        assert masked_l1_loss(pos, pos, np.ones(3, dtype=bool)) == 0.0

    def test_hand_derived_denominator_one(self):
        gt = np.zeros((1, 2, 3))
        pred = np.array([[[1.0, 1.0, 1.0], [9.0, 9.0, 9.0]]])
        assert masked_l1_loss(pred, gt, np.array([True, False])) == pytest.approx(3.0)

    def test_homogeneity(self, rng):
        gt = rng.normal(size=(2, 4, 3))
        pred = gt + rng.normal(size=(2, 4, 3))
        mask = np.array([True, True, False, True])
        base = masked_l1_loss(pred, gt, mask)
        scaled = masked_l1_loss(gt + 3.0 * (pred - gt), gt, mask)
        assert scaled == pytest.approx(3.0 * base)


class TestPointToSegment:
    def test_point_on_segment_zero(self):
        d, t, c = point_to_segment_distance([1.0, 0, 0], [0.0, 0, 0], [2.0, 0, 0])
        assert d == pytest.approx(0.0)
        assert t == pytest.approx(0.5)

    def test_projection_at_start(self):
        d, t, c = point_to_segment_distance([0.0, 1.0, 0], [0.0, 0, 0], [2.0, 0, 0])
        assert d == pytest.approx(1.0)
        assert t == pytest.approx(0.0)
        np.testing.assert_allclose(c, [0, 0, 0])

    def test_clipped_past_end(self):
        d, t, c = point_to_segment_distance([3.0, 0, 1.0], [0.0, 0, 0], [2.0, 0, 0])
        assert t == pytest.approx(1.0)
        np.testing.assert_allclose(c, [2, 0, 0])
        assert d == pytest.approx(np.sqrt(2.0))

    def test_zero_length_segment(self):
        d, t, c = point_to_segment_distance([1.0, 1.0, 0], [0.0, 0, 0], [0.0, 0, 0])
        assert d == pytest.approx(np.sqrt(2.0))
        np.testing.assert_allclose(c, [0, 0, 0])

    def test_matches_dense_sampling(self, rng):
        # brute-force oracle: 10^4 uniformly sampled points per segment
        ts = np.linspace(0.0, 1.0, 10000)
        for _ in range(100):
            p, b1, b2 = rng.normal(size=(3, 3))
            d, _, _ = point_to_segment_distance(p, b1, b2)
            sampled = b1[None, :] + ts[:, None] * (b2 - b1)[None, :]
            brute = np.min(np.linalg.norm(sampled - p, axis=1))
            assert abs(d - brute) < 1e-3


def chain_instance(points, parents=None):
    pts = np.asarray(points, dtype=float)
    if parents is None:
        parents = [-1] + list(range(len(pts) - 1))
    return SkeletonInstance(positions=pts, parents=parents)


class TestCdSkeleton:
    def test_self_distance_zero(self, rng):
        inst = chain_instance(rng.normal(size=(5, 3)))
        assert cd_skeleton_directed(inst, inst) == pytest.approx(0.0)
        assert cd_skeleton(inst, inst) == pytest.approx(0.0)

    def test_point_to_chain(self):
        a = SkeletonInstance(positions=[[0.0, 1.0, 0.0]], parents=[-1])
        b = chain_instance([[0.0, 0, 0], [2.0, 0, 0]])
        assert cd_skeleton_directed(a, b) == pytest.approx(1.0)

    def test_single_joint_target_error(self):
        a = chain_instance([[0.0, 0, 0], [1.0, 0, 0]])
        b = SkeletonInstance(positions=[[0.0, 0, 0]], parents=[-1])
        with pytest.raises(ValidationError):
            cd_skeleton_directed(a, b)

    def test_parallel_chains_hand_value(self):
        a = chain_instance([[0.0, 0, 0], [1.0, 0, 0]])
        b = chain_instance([[0.0, 1.0, 0], [1.0, 1.0, 0]])
        assert cd_skeleton_directed(a, b) == pytest.approx(1.0)
        assert cd_skeleton_directed(b, a) == pytest.approx(1.0)
        assert cd_skeleton(a, b) == pytest.approx(1.0)

    def test_symmetry(self, rng):
        for _ in range(50):
            a = chain_instance(rng.normal(size=(rng.integers(2, 7), 3)))
            b = chain_instance(rng.normal(size=(rng.integers(2, 7), 3)))
            assert cd_skeleton(a, b) == cd_skeleton(b, a)

    def test_rigid_invariance(self, rng):
        R = axis_angle_to_matrix(rng.normal(size=3))
        t = rng.normal(size=3)
        a = chain_instance(rng.normal(size=(4, 3)))
        b = chain_instance(rng.normal(size=(6, 3)))
        a2 = chain_instance(a.positions @ R.T + t, a.parents)
        b2 = chain_instance(b.positions @ R.T + t, b.parents)
        assert cd_skeleton(a2, b2) == pytest.approx(cd_skeleton(a, b), abs=1e-9)

    def test_unequal_joint_counts_supported(self, rng):
        a = chain_instance(rng.normal(size=(3, 3)))
        b = chain_instance(rng.normal(size=(8, 3)))
        assert np.isfinite(cd_skeleton(a, b))


class TestCdSkeletonSequence:
    def test_identical_sequences_zero(self, rng):
        sk = random_skeleton(rng, 6)
        clip = smooth_clip(rng, 6, 4)
        gt = fk_sequence(sk, clip)
        per_frame, mean = cd_skeleton_sequence(
            fk_sequence(sk, clip).positions, sk.parents, gt.positions, sk.parents
        )
        np.testing.assert_allclose(per_frame, 0.0, atol=1e-12)
        assert mean == pytest.approx(0.0)

    def test_mean_is_arithmetic(self, rng):
        sk = random_skeleton(rng, 4)
        clip = smooth_clip(rng, 4, 2)
        gt = fk_sequence(sk, clip).positions.copy()
        gt[1] += np.array([0.0, 1.0, 0.0])  # rigid shift of frame 1 only
        per_frame, mean = cd_skeleton_sequence(
            fk_sequence(sk, clip).positions, sk.parents, gt, sk.parents
        )
        assert mean == pytest.approx(np.mean(per_frame))
        assert per_frame[0] == pytest.approx(0.0, abs=1e-12)

    def test_frame_count_mismatch(self, rng):
        sk = random_skeleton(rng, 4)
        clip = smooth_clip(rng, 4, 3)
        gt = fk_sequence(sk, clip).positions[:2]
        with pytest.raises(ValidationError):
            cd_skeleton_sequence(fk_sequence(sk, clip).positions, sk.parents, gt, sk.parents)
