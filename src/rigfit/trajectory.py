"""Versioned JSON carrier for joint trajectories."""
from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .errors import TrajectoryFormatError
from .skeleton import JointTrajectory

SCHEMA_VERSION = 1


def trajectory_to_dict(trajectory, joint_names):
    """The JSON object of a trajectory. A masked joint may hold non-finite
    positions, which JSON cannot carry: they are written as 0.0."""
    if len(joint_names) != trajectory.joint_count:
        raise TrajectoryFormatError("joint_names length does not match trajectory")
    pos = trajectory.positions
    return {
        "v": SCHEMA_VERSION,
        "fps": trajectory.fps,
        "joint_names": list(joint_names),
        "mask": [bool(m) for m in trajectory.mask],
        "frames": np.where(np.isfinite(pos), pos, 0.0).tolist(),
    }


def trajectory_from_dict(data):
    if not isinstance(data, dict):
        raise TrajectoryFormatError("trajectory JSON must be an object")
    if data.get("v") != SCHEMA_VERSION:
        raise TrajectoryFormatError(
            f"unsupported trajectory schema version {data.get('v')!r}"
        )
    for key in ("fps", "joint_names", "frames"):
        if key not in data:
            raise TrajectoryFormatError(f"trajectory JSON missing {key!r}")
    names = data["joint_names"]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise TrajectoryFormatError("joint_names must be a list of strings")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise TrajectoryFormatError("joint_names repeat: " + ", ".join(repeated))
    try:
        frames = np.asarray(data["frames"], dtype=float)
    except (ValueError, TypeError, OverflowError) as exc:
        raise TrajectoryFormatError("frames are not a rectangular TxNx3 grid") from exc
    if frames.ndim != 3 or frames.shape[2] != 3:
        raise TrajectoryFormatError("frames are not a rectangular TxNx3 grid")
    values = chain([data["fps"]], chain.from_iterable(chain.from_iterable(data["frames"])))
    if not set(map(type, values)) <= {int, float}:  # bool is an int, but not a JSON number
        raise TrajectoryFormatError("fps and frame coordinates must be JSON numbers")
    if frames.shape[1] != len(names):
        raise TrajectoryFormatError("joint_names length does not match frames")
    mask = data.get("mask")
    if mask is None:
        mask = np.ones(len(names), dtype=bool)
    else:
        if not isinstance(mask, list) or not all(isinstance(m, bool) for m in mask):
            raise TrajectoryFormatError("mask must be a list of true/false flags")
        if len(mask) != len(names):
            raise TrajectoryFormatError("mask length does not match joint_names")
    try:
        traj = JointTrajectory(positions=frames, mask=mask, fps=float(data["fps"]))
    except Exception as exc:
        raise TrajectoryFormatError(str(exc)) from exc
    return traj, names


def write_json(fh, obj):
    """obj as one line of JSON, by json.dumps: its C encoder, not json.dump's Python one."""
    fh.write(json.dumps(obj) + "\n")


def save_trajectory(path, trajectory, joint_names):
    with open(path, "w", encoding="utf-8") as fh:
        write_json(fh, trajectory_to_dict(trajectory, joint_names))


def load_trajectory(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # malformed JSON, or text that is not UTF-8
            raise TrajectoryFormatError(f"invalid JSON: {exc}") from exc
    return trajectory_from_dict(data)
