"""Kinematic-tree validation, forward kinematics, and bone segments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigfit import (
    AnimationClip,
    JointTrajectory,
    Pose,
    SkeletonError,
    ValidationError,
    fk_sequence,
    forward_kinematics,
    rest_pose_positions,
    validate_skeleton,
)
from rigfit.fit import _descendant_mask
from rigfit.metrics import SkeletonInstance, cd_skeleton_directed
from rigfit.rotations import batch_axis_angle_to_matrix
from rigfit.skeleton import Skeleton, fk_positions_and_frames
from tests.conftest import random_skeleton, smooth_clip


def simple_chain(n=3, step=(0.0, 0.0, 1.0)):
    offsets = [np.zeros(3)] + [np.array(step, dtype=float)] * (n - 1)
    return validate_skeleton([f"j{i}" for i in range(n)], [-1] + list(range(n - 1)), offsets)


class TestValidateSkeleton:
    def test_valid_chain(self):
        sk = validate_skeleton(["a", "b", "c"], [-1, 0, 1], np.zeros((3, 3)))
        assert sk.joint_count == 3
        assert list(sk.parents) == [-1, 0, 1]

    def test_cycle_error(self):
        with pytest.raises(SkeletonError) as e:
            validate_skeleton(["a", "b"], [1, 0], np.zeros((2, 3)))
        assert any("cycle" in v.lower() for v in e.value.violations)

    def test_multiple_roots_error(self):
        with pytest.raises(SkeletonError) as e:
            validate_skeleton(["a", "b", "c"], [-1, -1, 0], np.zeros((3, 3)))
        assert any("root" in v.lower() for v in e.value.violations)

    def test_out_of_range_parent_error(self):
        with pytest.raises(SkeletonError):
            validate_skeleton(["a", "b"], [-1, 5], np.zeros((2, 3)))

    def test_repeated_names_error(self):
        with pytest.raises(SkeletonError) as e:
            validate_skeleton(["a", "b", "a"], [-1, 0, 1], np.ones((3, 3)))
        assert "repeated joint names: a" in e.value.violations

    def test_length_mismatch(self):
        with pytest.raises(SkeletonError):
            validate_skeleton(["a"], [-1, 0], np.zeros((2, 3)))

    def test_reorders_to_topological_with_remap(self):
        # child listed before its parent in the source arrays
        sk = validate_skeleton(
            ["child", "root"], [1, -1], [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
        )
        assert sk.joint_names[0] == "root"
        assert sk.parents[0] == -1
        np.testing.assert_allclose(sk.offsets[1], [0, 0, 1])
        # source_order maps canonical index -> original index
        assert list(sk.source_order) == [1, 0]


class TestForwardKinematics:
    def test_identity_pose_sums_offsets(self):
        sk = simple_chain(4)
        P = forward_kinematics(sk, Pose(rotations=np.zeros((4, 3))))
        np.testing.assert_allclose(P[:, 2], [0, 1, 2, 3])

    def test_hand_derived_rx90_chain(self):
        # root->A->B, offsets (0,0,1), root rotated +90 deg about x
        sk = simple_chain(3)
        pose = Pose(rotations=[[np.pi / 2, 0, 0], [0, 0, 0], [0, 0, 0]])
        P = forward_kinematics(sk, pose)
        np.testing.assert_allclose(P[1], [0, -1, 0], atol=1e-12)
        np.testing.assert_allclose(P[2], [0, -2, 0], atol=1e-12)

    def test_translation_equivariance(self, rng):
        sk = random_skeleton(rng, 8)
        rots = rng.normal(size=(8, 3))
        t = np.array([1.0, -2.0, 0.5])
        P0 = forward_kinematics(sk, Pose(rotations=rots))
        Pt = forward_kinematics(sk, Pose(rotations=rots, root_translation=t))
        np.testing.assert_allclose(Pt, P0 + t, atol=1e-12)

    def test_bone_lengths_preserved(self, rng):
        sk = random_skeleton(rng, 12)
        rest_len = np.linalg.norm(sk.offsets[1:], axis=1)
        for _ in range(20):
            P = forward_kinematics(sk, Pose(rotations=rng.normal(size=(12, 3))))
            lengths = np.linalg.norm(P[1:] - P[sk.parents[1:]], axis=1)
            np.testing.assert_allclose(lengths, rest_len, rtol=1e-9)

    def test_rotation_count_mismatch(self):
        sk = simple_chain(3)
        with pytest.raises(ValidationError):
            forward_kinematics(sk, Pose(rotations=np.zeros((2, 3))))


def reference_fk(skeleton, rotations, root_translation):
    """The per-joint walk that FK by tree level replaced, kept as its oracle."""
    rotations = np.asarray(rotations, dtype=float)
    n = skeleton.joint_count
    P = np.empty(rotations.shape[:-2] + (n, 3))
    G = batch_axis_angle_to_matrix(rotations)
    P[..., 0, :] = root_translation
    for i in range(1, n):
        p = skeleton.parents[i]
        P[..., i, :] = P[..., p, :] + G[..., p, :, :] @ skeleton.offsets[i]
        G[..., i, :, :] = G[..., p, :, :] @ G[..., i, :, :]
    return P, G


def reference_descendant_mask(skeleton, mask):
    """W[i, k] = 1 for every ancestor i of each mask-valid joint k, found by
    walking up from k."""
    n = skeleton.joint_count
    W = np.zeros((n, n))
    for k in np.flatnonzero(mask):
        i = skeleton.parents[k]
        while i >= 0:
            W[i, k] = 1.0
            i = skeleton.parents[i]
    return W


@st.composite
def trees(draw):
    """A random tree, a pure chain or a star, either validated (depth-first
    order) or built as given (any order with parents before children), and a
    seed for its offsets and motion."""
    n = draw(st.integers(1, 24))
    shape = draw(st.sampled_from(["tree", "chain", "star"]))
    if shape == "chain":
        parents = [-1] + list(range(n - 1))
    elif shape == "star":
        parents = [-1] + [0] * (n - 1)
    else:
        parents = [-1] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    seed = draw(st.integers(0, 2**32 - 1))
    offsets = np.random.default_rng(seed).normal(size=(n, 3))
    names = [f"j{i}" for i in range(n)]
    if draw(st.booleans()):
        return validate_skeleton(names, parents, offsets), seed
    return Skeleton(names, parents, offsets, np.arange(n)), seed


class TestLevelOrder:
    @settings(max_examples=150, deadline=None)
    @given(trees())
    def test_each_joint_once_one_level_below_its_parent(self, tree):
        sk, _ = tree
        depth = {0: 0}
        for d, (joints, parents) in enumerate(sk.levels, start=1):
            assert isinstance(joints, np.ndarray) and isinstance(parents, np.ndarray)
            assert len(joints) > 0 and list(joints) == sorted(joints)
            assert list(parents) == [sk.parents[j] for j in joints]
            for j, p in zip(joints, parents):
                assert depth[p] == d - 1 and j not in depth
                depth[j] = d
        assert sorted(depth) == list(range(sk.joint_count))

    @settings(max_examples=150, deadline=None)
    @given(trees(), st.sampled_from([(), (3,), (2, 4)]))
    def test_level_fk_equals_per_joint_walk_bitwise(self, tree, lead):
        sk, seed = tree
        rng = np.random.default_rng([seed, 1])
        rotations = rng.normal(size=lead + (sk.joint_count, 3)) * 2.0
        root = rng.normal(size=lead + (3,))
        P, G = fk_positions_and_frames(sk, rotations, root)
        P_ref, G_ref = reference_fk(sk, rotations, root)
        assert P.shape == P_ref.shape and G.shape == G_ref.shape
        assert np.array_equal(P, P_ref) and np.array_equal(G, G_ref)

    @settings(max_examples=150, deadline=None)
    @given(trees(), st.data())
    def test_descendant_mask_equals_walk_up(self, tree, data):
        sk, _ = tree
        n = sk.joint_count
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        assert np.array_equal(_descendant_mask(sk, mask), reference_descendant_mask(sk, mask))

    def test_levels_are_read_only(self, rng):
        sk = random_skeleton(rng, 30)
        arrays = [a for level in sk.levels for a in level]
        assert arrays and all(isinstance(a, np.ndarray) for a in arrays)
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0


class TestFkSequence:
    def test_single_frame_matches_forward_kinematics(self, rng):
        sk = random_skeleton(rng, 5)
        clip = smooth_clip(rng, 5, 1)
        traj = fk_sequence(sk, clip)
        np.testing.assert_allclose(traj.positions[0], forward_kinematics(sk, clip.frames[0]))
        assert traj.fps == clip.fps
        assert traj.mask.all()

    def test_constant_identity_clip(self):
        sk = simple_chain(3)
        clip = AnimationClip(np.zeros((5, 3, 3)), np.zeros((5, 3)), fps=24.0)
        traj = fk_sequence(sk, clip)
        rest = rest_pose_positions(sk)
        for t in range(5):
            np.testing.assert_allclose(traj.positions[t], rest)

    def test_rows_match_per_frame_oracle(self, rng):
        sk = random_skeleton(rng, 9)
        clip = smooth_clip(rng, 9, 12)
        traj = fk_sequence(sk, clip)
        for t, pose in enumerate(clip.frames):
            np.testing.assert_allclose(traj.positions[t], forward_kinematics(sk, pose), atol=1e-12)


class TestRestPose:
    def test_equals_identity_fk(self, rng):
        for n in (2, 5, 11):
            sk = random_skeleton(rng, n)
            np.testing.assert_allclose(
                rest_pose_positions(sk), forward_kinematics(sk, Pose(np.zeros((n, 3))))
            )


def distance_to_bones(sk, points):
    """Mean distance of points (P, 3) to the bones of sk's rest pose."""
    points = SkeletonInstance(np.asarray(points, dtype=float), [-1] * len(points))
    return cd_skeleton_directed(points, SkeletonInstance(rest_pose_positions(sk), sk.parents))


class TestBoneSegments:
    # a skeleton's bones, as the Chamfer distance sees them: one segment from
    # each parent joint to its child
    def test_two_joint_chain(self):
        sk = simple_chain(2)
        assert distance_to_bones(sk, [[0, 0, 0], [0, 0, 0.5], [0, 0, 1]]) == 0.0
        assert distance_to_bones(sk, [[0, 0, 2]]) == 1.0
        assert distance_to_bones(sk, [[1, 0, 0.5]]) == 1.0

    def test_star_shares_root_endpoint(self):
        sk = validate_skeleton(
            ["r", "a", "b"], [-1, 0, 0], [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        )
        assert distance_to_bones(sk, [[0.5, 0, 0], [0, 0.5, 0]]) == 0.0
        # no bone joins the two leaves: their midpoint is 0.5 from either bone
        assert distance_to_bones(sk, [[0.5, 0.5, 0]]) == 0.5

    def test_tree_has_n_minus_one_segments(self, rng):
        for n in (2, 7, 20):
            sk = random_skeleton(rng, n)
            rest = rest_pose_positions(sk)
            midpoints = (rest[1:] + rest[sk.parents[1:]]) / 2.0  # one per bone
            assert distance_to_bones(sk, midpoints) < 1e-12


class TestTypes:
    def test_pose_canonicalizes_rotations(self):
        pose = Pose(rotations=[[0.0, 0.0, 1.5 * np.pi]])
        assert np.linalg.norm(pose.rotations[0]) <= np.pi + 1e-12

    def test_pose_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            Pose(rotations=[[np.nan, 0.0, 0.0]])

    def test_clip_needs_frames(self):
        with pytest.raises(ValidationError):
            AnimationClip(np.zeros((0, 2, 3)), np.zeros((0, 3)), fps=30.0)

    @pytest.mark.parametrize("mask", [None, [True, True, False]])
    def test_trajectory_needs_frames(self, mask):
        # as a clip does: an empty stack would reach the fit and the metrics,
        # where an MPJPE over no frames is 0/0
        with pytest.raises(ValidationError, match="T >= 1"):
            JointTrajectory(np.zeros((0, 3, 3)), mask, 30.0)
        assert JointTrajectory(np.zeros((1, 3, 3)), mask, 30.0).frame_count == 1

    def test_clip_rejects_nonfinite_rotations(self):
        rot = np.zeros((4, 2, 3))
        rot[2, 1, 0] = np.inf
        with pytest.raises(ValidationError):
            AnimationClip(rot, np.zeros((4, 3)), fps=30.0)

    @pytest.mark.parametrize("shape", [(4,), (3, 3), (4, 2), (4, 3, 1)])
    def test_clip_rejects_root_of_wrong_shape(self, shape):
        with pytest.raises(ValidationError):
            AnimationClip(np.zeros((4, 2, 3)), np.zeros(shape), fps=30.0)

    def test_clip_canonicalizes_and_frames_view_it(self, rng):
        rot = rng.normal(size=(50, 4, 3))
        rot[1, 0] = [0.0, 0.0, 1.5 * np.pi]
        clip = AnimationClip(rot, rng.normal(size=(50, 3)), fps=30.0)
        np.testing.assert_allclose(clip.rotations[1, 0], [0.0, 0.0, -0.5 * np.pi])
        # canonicalizing twice moves some rows by an ulp, so views must not
        for t, pose in enumerate(clip.frames):
            assert np.array_equal(pose.rotations, clip.rotations[t])
            assert np.array_equal(pose.root_translation, clip.root_translation[t])
        with pytest.raises(ValueError):
            clip.rotations[0, 0, 0] = 1.0

    def test_immutability(self, rng):
        sk = random_skeleton(rng, 4)
        with pytest.raises(ValueError):
            sk.offsets[0] = 1.0
