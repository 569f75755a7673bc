"""Kinematic-tree data model and forward kinematics over arbitrary rigs."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import SkeletonError, ValidationError
from .rotations import batch_axis_angle_to_matrix, canonicalize_axis_angle

_ZERO_OFFSET_EPS = 1e-12


class Level(NamedTuple):
    """The joints at one tree depth d >= 1, ascending, and their parents (at
    depth d - 1), as read-only arrays."""

    joints: np.ndarray
    parents: np.ndarray


class _FkPlan(NamedTuple):
    """The levels laid out for forward kinematics: the joints sit in rows
    sorted by depth, root first, so the joints of a level fill one run of
    rows (one int row for a single joint) and are read and written as views.
    Their parents' rows are gathered with take."""

    joints: np.ndarray  # (N,) the joint in each row
    rows: np.ndarray  # (N,) the row of each joint
    steps: tuple  # per level, (its rows as an int or a slice, its parents' rows)
    bone_parents: np.ndarray  # (N - 1,) the parent row of rows 1..N-1
    bones: np.ndarray  # (N - 1, 3, 1) the rest offsets of rows 1..N-1, as columns


def _readonly(value):
    value.flags.writeable = False
    return value


@dataclass(frozen=True)
class Skeleton:
    """Joint names, parent indices and rest-pose offsets, in topological order.

    parents[i] < i holds for every non-root joint; index 0 is the root.
    source_order maps canonical index -> index in the original input lists.
    zero_offset flags joints whose rest offset has (near-)zero length, which
    the IK stage skips for direction alignment.
    """

    joint_names: tuple
    parents: np.ndarray
    offsets: np.ndarray
    source_order: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "joint_names", tuple(self.joint_names))
        for name, dtype in (("parents", int), ("offsets", float), ("source_order", int)):
            arr = np.asarray(getattr(self, name), dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def joint_count(self):
        return len(self.joint_names)

    @property
    def zero_offset(self):
        lengths = np.linalg.norm(self.offsets, axis=1)
        flags = lengths < _ZERO_OFFSET_EPS
        flags[0] = True  # the root carries no bone
        return flags

    @cached_property
    def levels(self):
        """The tree by depth, root excluded: one Level per depth d >= 1 in
        order of depth, joints ascending within a level. Derived once and
        read-only."""
        depth = [0] * self.joint_count
        for i in range(1, self.joint_count):
            depth[i] = depth[self.parents[i]] + 1
        depth = np.array(depth)
        levels = (np.flatnonzero(depth == d) for d in range(1, depth.max() + 1))
        return tuple(Level(_readonly(joints), _readonly(self.parents[joints])) for joints in levels)

    @cached_property
    def descendants(self):
        """(N, N) read-only flags: [i, k] is True where joint k is a strict
        descendant of joint i. Derived once, one step per level."""
        D = np.zeros((self.joint_count, self.joint_count), dtype=bool)
        for joints, parents in self.levels:  # a level's columns extend its parents'
            D[:, joints] = D[:, parents]
            D[parents, joints] = True
        return _readonly(D)

    @cached_property
    def _fk_plan(self):
        joints = np.concatenate([[0]] + [level.joints for level in self.levels])
        rows = np.argsort(joints)
        steps, start = [], 1
        for level in self.levels:
            parents = rows[level.parents]
            size = parents.size
            steps.append((start, int(parents[0])) if size == 1 else
                         (slice(start, start + size), _readonly(parents)))
            start += size
        return _FkPlan(_readonly(joints), _readonly(rows), tuple(steps),
                       _readonly(rows[self.parents[joints[1:]]]),
                       _readonly(self.offsets[joints[1:], :, None]))

    def children(self):
        """List of child-index lists, canonical order."""
        out = [[] for _ in range(self.joint_count)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                out[p].append(i)
        return out


def _frozen_motion(rotations, root_translation, frame_axes, owner):
    """Validated, canonicalized, read-only rotations (*F, N, 3) and root
    translations (*F, 3), where F holds frame_axes leading frame axes."""
    rot = np.asarray(rotations, dtype=float)
    trans = np.array(root_translation, dtype=float)
    if rot.ndim != frame_axes + 2 or rot.shape[-1] != 3 or trans.shape != rot.shape[:-2] + (3,):
        raise ValidationError(f"{owner} needs (..., N, 3) rotations and (..., 3) root translations")
    if not (np.all(np.isfinite(rot)) and np.all(np.isfinite(trans))):
        raise ValidationError(f"{owner} rotations and root translations must be finite")
    rot = canonicalize_axis_angle(rot)
    rot.flags.writeable = False
    trans.flags.writeable = False
    return rot, trans


@dataclass(frozen=True)
class Pose:
    """Per-joint local rotations (axis-angle, canonicalized) plus root position."""

    rotations: np.ndarray
    root_translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        rot, trans = _frozen_motion(self.rotations, self.root_translation, 0, "Pose")
        object.__setattr__(self, "rotations", rot)
        object.__setattr__(self, "root_translation", trans)

    @property
    def joint_count(self):
        return self.rotations.shape[0]


def _pose_view(rotations, root_translation):
    """A Pose of rows that are already canonical, not canonicalized again."""
    pose = object.__new__(Pose)
    object.__setattr__(pose, "rotations", rotations)
    object.__setattr__(pose, "root_translation", root_translation)
    return pose


@dataclass(frozen=True)
class AnimationClip:
    """T >= 1 frames of per-joint local rotations (T, N, 3; axis-angle,
    canonicalized) and root translations (T, 3) at a fixed frame rate."""

    rotations: np.ndarray
    root_translation: np.ndarray
    fps: float

    def __post_init__(self):
        rot, trans = _frozen_motion(self.rotations, self.root_translation, 1, "AnimationClip")
        if rot.shape[0] < 1:
            raise ValidationError("AnimationClip needs at least one frame")
        if not (self.fps > 0.0):
            raise ValidationError("AnimationClip.fps must be positive")
        object.__setattr__(self, "rotations", rot)
        object.__setattr__(self, "root_translation", trans)

    @property
    def frames(self):
        """Per-frame read-only Pose views of the clip."""
        return tuple(map(_pose_view, self.rotations, self.root_translation))

    @property
    def frame_count(self):
        return self.rotations.shape[0]

    @property
    def joint_count(self):
        return self.rotations.shape[1]


@dataclass(frozen=True)
class JointTrajectory:
    """T >= 1 frames of world-space joint positions (T, N, 3) with a joint-validity mask."""

    positions: np.ndarray
    mask: np.ndarray
    fps: float

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float)
        if pos.ndim != 3 or pos.shape[2] != 3 or pos.shape[0] < 1:
            raise ValidationError("JointTrajectory.positions must be TxNx3 with T >= 1")
        if self.mask is None:
            mask = np.ones(pos.shape[1] if pos.ndim == 3 else 0, dtype=bool)
        else:
            mask = np.array(self.mask, dtype=bool)
        if mask.shape != (pos.shape[1],):
            raise ValidationError("JointTrajectory.mask must have one flag per joint")
        if not mask.any():
            raise ValidationError("JointTrajectory.mask must have >= 1 valid joint")
        if not np.all(np.isfinite(pos[:, mask, :])):
            raise ValidationError("JointTrajectory has non-finite valid positions")
        if not (0.0 < self.fps < np.inf):  # an infinite rate makes every velocity inf or nan
            raise ValidationError("JointTrajectory.fps must be positive and finite")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "mask", mask)
        pos.flags.writeable = False
        mask.flags.writeable = False

    @property
    def frame_count(self):
        return self.positions.shape[0]

    @property
    def joint_count(self):
        return self.positions.shape[1]


def validate_skeleton(joint_names, parents, offsets):
    """Build a canonical Skeleton or raise SkeletonError naming every violation.

    Input joints may be in any order; the result is reordered parent-first
    with source_order recording the original index of each canonical joint.
    """
    names = list(joint_names)
    parents = list(parents)
    offs = np.asarray(offsets, dtype=float)
    violations = []
    n = len(names)
    if len(parents) != n or offs.shape != (n, 3):
        raise SkeletonError(["input lists have unequal lengths"])
    if n == 0:
        raise SkeletonError(["skeleton has no joints"])
    if not np.all(np.isfinite(offs)):
        violations.append("non-finite offsets")
    repeated = sorted({str(name) for name in names if names.count(name) > 1})
    if repeated:
        violations.append("repeated joint names: " + ", ".join(repeated))
    roots = [i for i, p in enumerate(parents) if p == -1]
    if len(roots) == 0:
        violations.append("no root joint (parent -1)")
    elif len(roots) > 1:
        violations.append(f"multiple roots at indices {roots}")
    for i, p in enumerate(parents):
        if p != -1 and not (0 <= p < n):
            violations.append(f"joint {i} has out-of-range parent {p}")
        if p == i:
            violations.append(f"joint {i} is its own parent")
    parents_in_range = all(p == -1 or 0 <= p < n for p in parents)
    if parents_in_range:
        # parent-chain walk with colouring finds cycles even without a root
        state = [0] * n  # 0 unvisited, 1 on current walk, 2 done
        for start in range(n):
            walk = []
            i = start
            while i != -1 and state[i] == 0:
                state[i] = 1
                walk.append(i)
                i = parents[i]
            if i != -1 and state[i] == 1:
                violations.append(f"cycle detected through joint {i}")
            for j in walk:
                state[j] = 2
    if violations:
        raise SkeletonError(violations)
    # Kahn's algorithm, preferring original index order for a stable remap
    children = [[] for _ in range(n)]
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    order = []
    stack = [roots[0]]
    while stack:
        i = stack.pop()
        order.append(i)
        stack.extend(reversed(children[i]))
    if len(order) != n:
        unreachable = sorted(set(range(n)) - set(order))
        raise SkeletonError([f"cycle detected: joints {unreachable} unreachable from root"])
    remap = {orig: new for new, orig in enumerate(order)}
    new_parents = np.array(
        [-1 if parents[i] == -1 else remap[parents[i]] for i in order], dtype=int
    )
    skel = Skeleton(
        joint_names=tuple(names[i] for i in order),
        parents=new_parents,
        offsets=offs[order].copy(),
        source_order=np.array(order, dtype=int),
    )
    return skel


def forward_kinematics(skeleton, pose):
    """World-space joint positions in one parent-first pass.

    P_root = root_translation; P_i = P_parent + G_parent @ offset_i with the
    global rotation G accumulating down the chain.
    """
    return fk_positions_and_frames(skeleton, pose.rotations, pose.root_translation)[0]


def fk_positions_and_frames(skeleton, rotations, root_translation):
    """FK over any leading frame axes: rotations (..., N, 3) and root
    translations (..., 3) give positions (..., N, 3) and accumulated world
    rotations (..., N, 3, 3).

    The tree is walked by depth, every joint of one depth at once, as in
    SMPL's batch_rigid_transform (Loper et al. 2015): G_i = G_parent R_i, then
    P_i = P_parent + G_parent offset_i. Each value is computed as a per-joint
    walk computes it, bit for bit.
    """
    rotations = np.asarray(rotations, dtype=float)
    n = skeleton.joint_count
    if rotations.shape[-2:] != (n, 3):
        raise ValidationError("rotation count does not match skeleton")
    plan = skeleton._fk_plan  # rows by depth: each level's joints side by side
    G = batch_axis_angle_to_matrix(rotations.take(plan.joints, -2))  # made world in place
    for rows, parents in plan.steps:
        G[..., rows, :, :] = G.take(parents, -3) @ G[..., rows, :, :]
    # each bone in world axes, then summed down the tree onto the root position
    P = np.empty(rotations.shape[:-2] + (n, 3))
    P[..., 0, :] = root_translation
    P[..., 1:, :] = (G.take(plan.bone_parents, -3) @ plan.bones)[..., 0]
    for rows, parents in plan.steps:
        P[..., rows, :] += P.take(parents, -2)
    return P.take(plan.rows, -2), G.take(plan.rows, -3)


def fk_sequence(skeleton, clip):
    """Forward kinematics of every frame of a clip as an all-valid trajectory."""
    pos, _ = fk_positions_and_frames(skeleton, clip.rotations, clip.root_translation)
    return JointTrajectory(
        positions=pos, mask=np.ones(skeleton.joint_count, dtype=bool), fps=clip.fps
    )


def rest_pose_positions(skeleton):
    """Joint positions with all rotations identity and the root at the origin."""
    return fk_positions_and_frames(skeleton, np.zeros((skeleton.joint_count, 3)), np.zeros(3))[0]
