"""rigfit: rotation-based skeletal animation from 3D joint trajectories.

Library layout:
  skeleton    kinematic tree model + forward kinematics, rest pose
  rotations   axis-angle / matrix / Euler conversions, Procrustes alignment
  bvh         BVH parser and canonical writer
  normalize   rest-pose and sequence normalization into [-1, 1]^3, from the
              min/max of the points
  fit         two-stage IK (geometric init + twist-regularized refinement),
              a window of frames at a time; FitResult holds a refinement's
              per-frame results as arrays
  metrics     MPJPE, MPJVE, masked L1, and the skeleton Chamfer distance,
              whose one entry is cd_skeleton on SkeletonInstances
  trajectory  JSON trajectory carrier (masked non-finite coordinates as 0.0)
  cli         command-line driver
"""

from .errors import (
    BvhParseError,
    RigfitError,
    SkeletonError,
    TrajectoryFormatError,
    ValidationError,
)
from .fit import FitConfig, FitResult, fit_sequence, geometric_init, geometric_init_frame
from .skeleton import (
    AnimationClip,
    JointTrajectory,
    Pose,
    Skeleton,
    fk_sequence,
    forward_kinematics,
    rest_pose_positions,
    validate_skeleton,
)

__all__ = [
    "AnimationClip",
    "BvhParseError",
    "FitConfig",
    "FitResult",
    "JointTrajectory",
    "Pose",
    "RigfitError",
    "Skeleton",
    "SkeletonError",
    "TrajectoryFormatError",
    "ValidationError",
    "fit_sequence",
    "fk_sequence",
    "forward_kinematics",
    "geometric_init",
    "geometric_init_frame",
    "rest_pose_positions",
    "validate_skeleton",
]
