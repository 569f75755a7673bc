"""Evaluation metrics: MPJPE, MPJVE, masked L1, and the skeleton Chamfer distance."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class SkeletonInstance:
    """A posed skeleton: (N, 3) or clip (T, N, 3) world joint positions plus parents."""

    positions: np.ndarray
    parents: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)  # a view of float input, not a copy
        parents = np.asarray(self.parents, dtype=int)
        if pos.ndim not in (2, 3) or pos.shape[-1] != 3 or not np.all(np.isfinite(pos)):
            raise ValidationError("SkeletonInstance.positions must be finite Nx3 or TxNx3")
        if parents.shape != pos.shape[-2:-1] or np.any((parents < -1) | (parents >= len(parents))):
            raise ValidationError("SkeletonInstance.parents must be N indices in [-1, N)")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "parents", parents)

    @property
    def joint_count(self):
        return self.positions.shape[-2]


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


def _block_min(p, poses, parents, children, out):
    """One frame block of _points_to_segments_min: lower out (F, 1, P) to the least square
    distance of each point p (3, F, 1, P) to a bone of poses (F, N, 3), the bones in blocks.
    A function, so that the block's bone ends and temporaries go before the next block's."""
    b1 = np.moveaxis(poses[:, parents], -1, 0)[..., None]  # 3, F, K, 1, frames innermost
    d = np.moveaxis(poses[:, children], -1, 0)[..., None] - b1
    dd = np.einsum("i...,i...->...", d, d)
    dd[dd < 1e-24] = np.inf  # so t = 0 on a bone under 1e-12
    step = max(1, (1 << 12) // p.size)
    for k in range(0, len(children), step):
        b1k, dk = b1[:, :, k:k + step], d[:, :, k:k + step]
        t = np.clip(np.einsum("i...,i...->...", p - b1k, dk) / dd[:, k:k + step], 0.0, 1.0)
        gap = p - (b1k + t * dk)
        np.minimum(out, np.einsum("i...,i...->...", gap, gap).min(-2, keepdims=True), out=out)


def _points_to_segments_min(points, positions, parents):
    """Min distance of each point (..., P, 3) to any bone of the pose (..., N, 3) with parents;
    t = 0 on bones under 1e-12. Frames, then bones, go in blocks of 32 KB temporaries (malloc
    maps 128 KB afresh), and each frame block gathers its own (parent, child) bone ends."""
    P = points.shape[-2]
    children = np.flatnonzero(parents >= 0)
    parents = parents[children]
    p = np.moveaxis(points.reshape(-1, P, 3), -1, 0)[:, :, None, :]  # 3, F, 1, P
    poses = positions.reshape(-1, *positions.shape[-2:])
    best = np.full(p.shape[1:], np.inf)
    frames = max(1, (1 << 12) // (3 * P))
    for f in range(0, p.shape[1], frames):
        _block_min(p[:, f:f + frames], poses[f:f + frames], parents, children, best[f:f + frames])
    return np.sqrt(best).reshape(points.shape[:-1])  # sqrt is monotone: root of the least square


def cd_skeleton_directed(a, b):
    """Mean distance from each joint of a to the nearest bone segment of b:
    a float for one pose, a (T,) array for clips of T frames."""
    if not np.any(b.parents >= 0):
        raise ValidationError("target skeleton has no bone segments")
    if a.positions.shape[:-2] != b.positions.shape[:-2]:
        raise ValidationError("frame count mismatch between skeletons")
    dist = _points_to_segments_min(a.positions, b.positions, b.parents).mean(axis=-1)
    return float(dist) if dist.ndim == 0 else dist


def cd_skeleton(a, b):
    """Symmetric skeleton Chamfer distance, per frame for clips."""
    return 0.5 * (cd_skeleton_directed(a, b) + cd_skeleton_directed(b, a))
