"""Sequence and rest-pose normalization into the [-1, 1]^3 working space."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .skeleton import Skeleton, rest_pose_positions

_DEGENERATE_EXTENT = 1e-12


@dataclass(frozen=True)
class NormalizationTransform:
    """x' = (x - center) * scale, inverted by x = x'/scale + center."""

    center: np.ndarray
    scale: float

    def __post_init__(self):
        center = np.array(self.center, dtype=float)
        if center.shape != (3,) or not np.all(np.isfinite(center)):
            raise ValidationError("transform center must be a finite 3-vector")
        if not (self.scale > 0.0) or not np.isfinite(self.scale):
            raise ValidationError("transform scale must be positive and finite")
        object.__setattr__(self, "center", center)

    def apply(self, points):
        return (np.asarray(points, dtype=float) - self.center) * self.scale

    def invert(self, points):
        return np.asarray(points, dtype=float) / self.scale + self.center


def rest_normalize(skeleton, extra_points=None):
    """Scale offsets so the rest-pose bounding box has unit max extent.

    extra_points (e.g. BVH End Site tips, world space) widen the box but are
    not part of the returned skeleton. Scaling is uniform to preserve shape.
    """
    pts = rest_pose_positions(skeleton)
    if extra_points is not None and len(extra_points) > 0:
        pts = np.vstack([pts, np.asarray(extra_points, dtype=float).reshape(-1, 3)])
    max_extent = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
    if max_extent < _DEGENERATE_EXTENT:
        raise ValidationError("degenerate rest pose: zero bounding-box extent")
    scale = 1.0 / max_extent
    scaled = Skeleton(
        joint_names=skeleton.joint_names,
        parents=skeleton.parents.copy(),
        offsets=skeleton.offsets * scale,
        source_order=skeleton.source_order.copy(),
    )
    return scaled, NormalizationTransform(center=np.zeros(3), scale=scale)


def remove_global_translation(trajectory):
    """Subtract the root (joint 0) position from every joint, per frame.

    Returns the recentred trajectory and the extracted per-frame root
    positions, so reattach_global_translation can invert exactly.
    """
    if not trajectory.mask[0]:
        raise ValidationError("root joint is masked out; cannot remove translation")
    roots = trajectory.positions[:, 0, :].copy()
    recentred = trajectory.positions - roots[:, None, :]
    return replace(trajectory, positions=recentred), roots


def reattach_global_translation(trajectory, roots):
    roots = np.asarray(roots, dtype=float)
    if roots.shape != (trajectory.frame_count, 3):
        raise ValidationError("root position list does not match frame count")
    return replace(trajectory, positions=trajectory.positions + roots[:, None, :])


def sequence_normalize(trajectory):
    """Uniformly scale the whole sequence into [-1, 1]^3.

    center = midpoint of the box over all frames, scale = 2 / its max extent;
    masked joints never influence the box.
    """
    pts = trajectory.positions[:, trajectory.mask]
    lo, hi = pts.min(axis=(0, 1)), pts.max(axis=(0, 1))  # a trajectory has a valid point
    max_extent = float(np.max(hi - lo))
    if max_extent < _DEGENERATE_EXTENT:
        raise ValidationError("degenerate sequence: zero bounding-box extent")
    transform = NormalizationTransform(center=(lo + hi) / 2.0, scale=2.0 / max_extent)
    return replace(trajectory, positions=transform.apply(trajectory.positions)), transform


def sequence_denormalize(trajectory, transform):
    return replace(trajectory, positions=transform.invert(trajectory.positions))
