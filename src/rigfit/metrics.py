"""Evaluation metrics: MPJPE, MPJVE, masked L1, and the skeleton Chamfer distance."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class SkeletonInstance:
    """One posed skeleton: world joint positions plus the parent array."""

    positions: np.ndarray
    parents: np.ndarray

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float)
        parents = np.array(self.parents, dtype=int)
        if pos.ndim != 2 or pos.shape[1] != 3 or not np.all(np.isfinite(pos)):
            raise ValidationError("SkeletonInstance.positions must be finite Nx3")
        if parents.shape != (pos.shape[0],):
            raise ValidationError("SkeletonInstance.parents length mismatch")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "parents", parents)

    @property
    def joint_count(self):
        return self.positions.shape[0]

    def segments(self):
        """(K, 2, 3) array of (parent, child) bone endpoints."""
        idx = [(p, i) for i, p in enumerate(self.parents) if p >= 0]
        if not idx:
            return np.empty((0, 2, 3))
        ps, cs = zip(*idx)
        return np.stack([self.positions[list(ps)], self.positions[list(cs)]], axis=1)


def _check_same_shape(pred, gt):
    if pred.positions.shape != gt.positions.shape:
        raise ValidationError("trajectory shapes differ")
    if not np.array_equal(pred.mask, gt.mask):
        raise ValidationError("trajectory masks differ")


def mpjpe(pred, gt):
    """Mean Euclidean distance over frames and mask-valid joints."""
    _check_same_shape(pred, gt)
    d = np.linalg.norm(
        pred.positions[:, pred.mask, :] - gt.positions[:, gt.mask, :], axis=-1
    )
    return float(d.mean())


def mpjve(pred, gt):
    """Mean per-joint velocity error; velocities are first differences * fps.

    A single-frame sequence has no velocities and scores 0 by convention.
    """
    _check_same_shape(pred, gt)
    if pred.frame_count < 2:
        return 0.0
    vp = np.diff(pred.positions[:, pred.mask, :], axis=0) * pred.fps
    vg = np.diff(gt.positions[:, gt.mask, :], axis=0) * gt.fps
    return float(np.linalg.norm(vp - vg, axis=-1).mean())


def masked_l1_loss(pred_positions, gt_positions, mask):
    """Masked position regression loss: mean L1 error over valid joints.

    Sum of absolute coordinate differences per valid joint, divided by the
    total count of valid joint observations (T * sum(mask)).
    """
    pred = np.asarray(pred_positions, dtype=float)
    gt = np.asarray(gt_positions, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if pred.shape != gt.shape or pred.ndim != 3 or pred.shape[2] != 3:
        raise ValidationError("positions must be TxNx3 and equal shape")
    if mask.shape != (pred.shape[1],):
        raise ValidationError("mask length mismatch")
    denom = pred.shape[0] * int(mask.sum())
    if denom == 0:
        raise ValidationError("mask has no valid joints")
    err = np.abs(pred[:, mask, :] - gt[:, mask, :]).sum()
    return float(err / denom)


def point_to_segment_distance(p, b1, b2):
    """Distance from p to segment b1-b2, with the clipped parameter and foot.

    t = clip((p-b1).(b2-b1)/||b2-b1||^2, 0, 1); zero-length segments collapse
    to the distance to b1.
    """
    p = np.asarray(p, dtype=float)
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    d = b2 - b1
    dd = float(d @ d)
    if dd < 1e-24:
        t = 0.0
    else:
        t = float(np.clip((p - b1) @ d / dd, 0.0, 1.0))
    closest = b1 + t * d
    return float(np.linalg.norm(p - closest)), t, closest


def _points_to_segments_min(points, segments):
    """Min distance from each point to any segment; vectorized over both."""
    b1 = segments[:, 0, :]
    d = segments[:, 1, :] - b1
    dd = np.einsum("kc,kc->k", d, d)
    safe = np.maximum(dd, 1e-24)
    t = np.einsum("pkc,kc->pk", points[:, None, :] - b1[None, :, :], d) / safe
    t = np.clip(t, 0.0, 1.0)
    t[:, dd < 1e-24] = 0.0
    foot = b1[None, :, :] + t[:, :, None] * d[None, :, :]
    dist = np.linalg.norm(points[:, None, :] - foot, axis=-1)
    return dist.min(axis=1)


def cd_skeleton_directed(a, b):
    """Mean distance from each joint of a to the nearest bone segment of b."""
    segs = b.segments()
    if segs.shape[0] == 0:
        raise ValidationError("target skeleton has no bone segments")
    return float(_points_to_segments_min(a.positions, segs).mean())


def cd_skeleton(a, b):
    """Symmetric skeleton Chamfer distance."""
    return 0.5 * (cd_skeleton_directed(a, b) + cd_skeleton_directed(b, a))


def cd_skeleton_sequence(pred_positions, pred_parents, gt_positions, gt_parents):
    """Per-frame symmetric skeleton Chamfer distance plus its mean.

    Each side is a (T, N, 3) position sequence with its own parent array;
    the two sides may differ in joint count but not in frame count.
    """
    pred_positions = np.asarray(pred_positions, dtype=float)
    gt_positions = np.asarray(gt_positions, dtype=float)
    for positions in (pred_positions, gt_positions):
        if positions.ndim != 3 or positions.shape[2] != 3:
            raise ValidationError("position sequences must be TxNx3")
    if pred_positions.shape[0] != gt_positions.shape[0]:
        raise ValidationError("frame count mismatch between pred and gt")
    per_frame = [
        cd_skeleton(SkeletonInstance(p, pred_parents), SkeletonInstance(g, gt_parents))
        for p, g in zip(pred_positions, gt_positions)
    ]
    return per_frame, float(np.mean(per_frame))
