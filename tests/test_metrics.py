"""MPJPE, MPJVE, masked L1, and the skeleton Chamfer distance."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigfit import AnimationClip, JointTrajectory, Pose, ValidationError
from rigfit.bvh import document_from_clip, write_bvh
from rigfit.cli import main
from rigfit.metrics import (
    SkeletonInstance,
    _points_to_segments_min,
    cd_skeleton,
    cd_skeleton_directed,
    masked_l1_loss,
    mpjpe,
    mpjve,
    point_to_segment_distance,
)
from tests.conftest import random_skeleton, smooth_clip
from rigfit.skeleton import fk_sequence
from rigfit.rotations import axis_angle_to_matrix
from rigfit.trajectory import save_trajectory


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

    def test_bone_shorter_than_1e12_is_its_first_end(self):
        # t = 0 below |d|^2 = 1e-24, as in point_to_segment_distance
        a = SkeletonInstance(positions=[[1.0, 0.0, 0.0]], parents=[-1])
        b = chain_instance([[0.0, 0, 0], [1e-13, 0, 0]])
        assert cd_skeleton_directed(a, b) == 1.0

    def test_clip_gives_one_value_per_frame(self, rng):
        a = SkeletonInstance(rng.normal(size=(4, 3, 3)), [-1, 0, 1])
        b = SkeletonInstance(rng.normal(size=(4, 5, 3)), [-1, 0, 0, 2, 2])
        assert cd_skeleton(a, b).shape == (4,)
        first = cd_skeleton(SkeletonInstance(a.positions[0], a.parents),
                            SkeletonInstance(b.positions[0], b.parents))
        assert isinstance(first, float)

    def test_clips_of_different_length_rejected(self, rng):
        a = SkeletonInstance(rng.normal(size=(4, 3, 3)), [-1, 0, 1])
        b = SkeletonInstance(rng.normal(size=(3, 3, 3)), [-1, 0, 1])
        with pytest.raises(ValidationError, match="frame count mismatch"):
            cd_skeleton(a, b)


class TestSkeletonInstance:
    @pytest.mark.parametrize("parent", [7, 3, -2, -5])
    def test_out_of_range_parent_rejected(self, parent):
        with pytest.raises(ValidationError, match=r"\[-1, N\)"):
            SkeletonInstance(np.zeros((3, 3)), [-1, 0, parent])

    def test_float_positions_are_not_copied(self, rng):
        pos = rng.normal(size=(4, 5, 3))
        parents = np.array([-1, 0, 1, 0, 3])
        inst = SkeletonInstance(pos, parents)
        assert np.shares_memory(inst.positions, pos)
        assert np.shares_memory(inst.parents, parents)
        # other input is still converted
        assert SkeletonInstance(pos.astype(np.float32), parents).positions.dtype == float


def cd_clip(pred_positions, pred_parents, gt_positions, gt_parents):
    """cd_skeleton of two (T, N, 3) clips, as `rigfit eval` scores them."""
    return cd_skeleton(SkeletonInstance(pred_positions, pred_parents),
                       SkeletonInstance(gt_positions, gt_parents))


class TestCdSkeletonSequence:
    def test_identical_sequences_zero(self, rng):
        sk = random_skeleton(rng, 6)
        clip = smooth_clip(rng, 6, 4)
        gt = fk_sequence(sk, clip)
        per_frame = cd_clip(fk_sequence(sk, clip).positions, sk.parents, gt.positions, sk.parents)
        assert per_frame.shape == (4,)
        np.testing.assert_allclose(per_frame, 0.0, atol=1e-12)

    def test_mean_is_arithmetic(self, rng, tmp_path, capsys):
        # `rigfit eval` reports the plain mean of the per-frame values, each
        # of which scores its own frame only
        sk = random_skeleton(rng, 4)
        clip = smooth_clip(rng, 4, 2)
        gt = fk_sequence(sk, clip).positions.copy()
        gt[1] += np.array([0.0, 1.0, 0.0])  # rigid shift of frame 1 only
        per_frame = cd_clip(fk_sequence(sk, clip).positions, sk.parents, gt, sk.parents)
        assert per_frame[0] == pytest.approx(0.0, abs=1e-12) and per_frame[1] > 0.1
        pred, obs = str(tmp_path / "pred.bvh"), str(tmp_path / "gt.json")
        (tmp_path / "pred.bvh").write_text(write_bvh(document_from_clip(sk, clip)))
        save_trajectory(obs, JointTrajectory(gt, None, clip.fps), sk.joint_names)
        assert main(["eval", "--pred", pred, "--gt", obs, "--metric", "cds"]) == 0
        report = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(report["cds_per_frame"], per_frame, atol=1e-5)
        assert report["cds"] == float(np.mean(report["cds_per_frame"]))

    def test_frame_count_mismatch(self, rng):
        sk = random_skeleton(rng, 4)
        clip = smooth_clip(rng, 4, 3)
        gt = fk_sequence(sk, clip).positions[:2]
        with pytest.raises(ValidationError, match="frame count mismatch"):
            cd_clip(fk_sequence(sk, clip).positions, sk.parents, gt, sk.parents)


def reference_cd_skeleton_sequence(pred_positions, pred_parents, gt_positions, gt_parents):
    """The per-frame loop that the clip body replaced: one pose pair at a time."""
    return np.array([
        cd_skeleton(SkeletonInstance(p, pred_parents), SkeletonInstance(g, gt_parents))
        for p, g in zip(pred_positions, gt_positions)
    ])


def brute_force_cd(a, a_parents, b, b_parents):
    """One frame's symmetric distance, point by point and bone by bone."""
    def directed(points, pos, parents):
        segs = [(pos[p], pos[i]) for i, p in enumerate(parents) if p >= 0]
        return np.mean([min(point_to_segment_distance(q, b1, b2)[0] for b1, b2 in segs)
                        for q in points])
    return 0.5 * (directed(a, b, b_parents) + directed(b, a, a_parents))


@st.composite
def posed_trees(draw, frames):
    """A random tree of 2..8 joints in any index order (parents need not come
    first), posed over the frames; some bones collapse to zero length."""
    n = draw(st.integers(2, 8))
    parents = [-1] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    order = draw(st.permutations(range(n)))
    rank = np.argsort(order)  # joint i of the tree sits at index rank[i]
    parents = np.array([-1 if p < 0 else rank[p] for p in np.array(parents)[order]])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    positions = rng.normal(size=(frames, n, 3))
    for j in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        if parents[j] >= 0:
            positions[:, j] = positions[:, parents[j]]  # the t = 0 branch
    return positions, parents


@st.composite
def clip_pairs(draw):
    frames = draw(st.integers(1, 5))
    return draw(posed_trees(frames)) + draw(posed_trees(frames))


class TestClipBody:
    @given(pair=clip_pairs())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_frame_loop(self, pair):
        # the clip body gathers each frame block's bone ends from any tree,
        # parents in any index order, zero-length bones included
        pred, pred_parents, gt, gt_parents = pair
        per_frame = cd_clip(pred, pred_parents, gt, gt_parents)
        ref_frames = reference_cd_skeleton_sequence(pred, pred_parents, gt, gt_parents)
        assert per_frame.shape == ref_frames.shape
        np.testing.assert_allclose(per_frame, ref_frames, rtol=0.0, atol=1e-12)
        for t in range(len(per_frame)):
            brute = brute_force_cd(pred[t], pred_parents, gt[t], gt_parents)
            assert abs(per_frame[t] - brute) <= 1e-12

    @pytest.mark.parametrize("frames", [600, 1400])
    def test_long_clip_matches_per_frame_loop(self, rng, frames):
        # 8 joints: 170 frames to a block, one bone at a time; 600 and 1400
        # frames take 4 and 9 frame blocks, the last one short
        sk = random_skeleton(rng, 8)
        pred = fk_sequence(sk, smooth_clip(rng, 8, frames)).positions
        gt = pred + rng.normal(scale=0.05, size=pred.shape)
        gt[:, 3] = gt[:, sk.parents[3]]
        per_frame = cd_clip(pred, sk.parents, gt, sk.parents)
        ref_frames = reference_cd_skeleton_sequence(pred, sk.parents, gt, sk.parents)
        np.testing.assert_allclose(per_frame, ref_frames, rtol=0.0, atol=1e-12)

    def test_long_clip_temporaries_stay_small(self, rng):
        # every bone at once would take 6.3 MB per (3, T, P, K) temporary here
        pos = rng.normal(size=(300, 30, 3))
        parents = [-1] + list(range(29))
        tracemalloc.start()
        try:
            cd_clip(pos, parents, pos[::-1], parents)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @pytest.mark.parametrize("frames, joints", [(1, 60), (16, 60), (300, 30), (2000, 8)])
    def test_body_scratch_is_blocked(self, rng, frames, joints):
        # malloc maps each block of 128 KB or more afresh and page-faults it
        # in on every call; beside its (T, P) minimum and root, the body keeps
        # a few temporaries of at most 32 KB, however long the clip, bone ends
        # included: it gathers them a frame block at a time
        pos = rng.normal(size=(frames, joints, 3))
        parents = np.array([-1] + list(range(joints - 1)))
        tracemalloc.start()
        try:
            _points_to_segments_min(pos, pos, parents)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 2 * pos[..., 0].nbytes < 5 * 32 * 1024
