"""rigfit: rotation-based skeletal animation from 3D joint trajectories.

Library layout:
  skeleton    kinematic tree model + forward kinematics
  rotations   axis-angle / matrix / Euler conversions, Procrustes alignment
  bvh         BVH parser and canonical writer
  normalize   rest-pose and sequence normalization into [-1, 1]^3
  fit         two-stage IK (geometric init + twist-regularized refinement)
  metrics     MPJPE, MPJVE, masked L1, skeleton Chamfer distance
  trajectory  JSON trajectory carrier
  cli         command-line driver
"""

from .errors import (
    BvhParseError,
    RigfitError,
    SkeletonError,
    TrajectoryFormatError,
    ValidationError,
)
from .fit import FitConfig, FrameFitResult, fit_sequence, geometric_init, geometric_init_frame
from .skeleton import (
    AnimationClip,
    JointTrajectory,
    Pose,
    Skeleton,
    bone_segments,
    fk_sequence,
    forward_kinematics,
    rest_pose_positions,
    validate_skeleton,
)

__all__ = [
    "AnimationClip",
    "BvhParseError",
    "FitConfig",
    "FrameFitResult",
    "JointTrajectory",
    "Pose",
    "RigfitError",
    "Skeleton",
    "SkeletonError",
    "TrajectoryFormatError",
    "ValidationError",
    "bone_segments",
    "fit_sequence",
    "fk_sequence",
    "forward_kinematics",
    "geometric_init",
    "geometric_init_frame",
    "rest_pose_positions",
    "validate_skeleton",
]
