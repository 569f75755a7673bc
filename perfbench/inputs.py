"""Seeded benchmark inputs: random rigs, smooth clips, their FK and the files.

Everything here is computed with numpy alone, independent of rigfit's own
code, so that a change to the program or to its test helpers cannot silently
change a workload, and so that the fitted output can be checked against an
independent forward kinematics.
"""
from __future__ import annotations

import json

import numpy as np

FPS = 30.0
ROOT_CHANNELS = "Xposition Yposition Zposition Zrotation Xrotation Yrotation"
JOINT_CHANNELS = "Zrotation Xrotation Yrotation"


class Rig:
    """A random tree: joint i has parent parents[i] < i; joint 0 is the root."""

    def __init__(self, parents, offsets, end_sites):
        self.parents = np.asarray(parents, dtype=int)
        self.offsets = np.asarray(offsets, dtype=float)
        self.end_sites = end_sites  # leaf index -> (3,) offset
        self.names = [f"j{i:02d}" for i in range(len(self.parents))]

    @property
    def joint_count(self):
        return len(self.parents)

    def children(self):
        out = [[] for _ in range(self.joint_count)]
        for i, p in enumerate(self.parents[1:], start=1):
            out[p].append(i)
        return out


def random_rig(rng, joint_count, max_branch=4, offset_scale=0.3):
    """Random tree with at most max_branch children per joint, numbered in
    the depth-first order a BVH file lists it, so that trajectory columns
    and the joints of any BVH written for the rig line up."""
    parents = [-1]
    child_counts = [0]
    for i in range(1, joint_count):
        candidates = [j for j in range(i) if child_counts[j] < max_branch]
        p = int(rng.choice(candidates))
        parents.append(p)
        child_counts[p] += 1
        child_counts.append(0)
    offsets = rng.normal(size=(joint_count, 3)) * offset_scale
    offsets[0] = 0.0
    children = [[] for _ in range(joint_count)]
    for i, p in enumerate(parents[1:], start=1):
        children[p].append(i)
    order, stack = [], [0]
    while stack:
        i = stack.pop()
        order.append(i)
        stack.extend(reversed(children[i]))
    new_index = {old: new for new, old in enumerate(order)}
    parents = [-1] + [new_index[parents[old]] for old in order[1:]]
    offsets = offsets[order]
    leaves = [new_index[i] for i in range(joint_count) if child_counts[i] == 0]
    tips = rng.normal(size=(len(leaves), 3)) * offset_scale
    return Rig(parents, offsets, dict(zip(sorted(leaves), tips)))


def smooth_motion(rng, joint_count, frames):
    """Sinusoidal axis-angle motion per joint plus a moving root, shaped
    like the clips `rigfit synth` makes: rotations (T, N, 3), root (T, 3)."""
    axes = rng.normal(size=(joint_count, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    amps = rng.uniform(0.2, 0.7, size=joint_count)
    freqs = rng.uniform(0.5, 2.0, size=joint_count)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=joint_count)
    t_amp = rng.uniform(0.0, 0.3, size=3)
    t_phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
    s = 2.0 * np.pi * np.arange(frames) / max(frames, 2)
    angles = amps * np.sin(freqs * s[:, None] + phases)
    rotations = angles[:, :, None] * axes[None]
    root = t_amp * np.sin(s[:, None] + t_phase)
    return rotations, root


def rodrigues(thetas):
    """Rotation matrices for an (..., 3) stack of axis-angle vectors."""
    a2 = np.sum(thetas * thetas, axis=-1)
    a = np.sqrt(a2)
    small = a < 1e-8
    safe_a = np.where(small, 1.0, a)
    s = np.where(small, 1.0 - a2 / 6.0, np.sin(a) / safe_a)
    c = np.where(small, 0.5 - a2 / 24.0, (1.0 - np.cos(a)) / (safe_a * safe_a))
    x, y, z = thetas[..., 0], thetas[..., 1], thetas[..., 2]
    zero = np.zeros_like(x)
    K = np.stack(
        [np.stack([zero, -z, y], -1), np.stack([z, zero, -x], -1),
         np.stack([-y, x, zero], -1)],
        axis=-2,
    )
    return np.eye(3) + s[..., None, None] * K + c[..., None, None] * (K @ K)


def forward_kinematics(parents, offsets, rotations, root):
    """World joint positions (T, N, 3) of a clip, batched over frames."""
    R = rodrigues(rotations)
    frames, n = rotations.shape[:2]
    P = np.empty((frames, n, 3))
    G = np.empty((frames, n, 3, 3))
    P[:, 0] = root
    G[:, 0] = R[:, 0]
    for i in range(1, n):
        p = parents[i]
        P[:, i] = P[:, p] + G[:, p] @ offsets[i]
        G[:, i] = G[:, p] @ R[:, i]
    return P


def _num(v):
    return format(float(v), ".17g")


def rig_bvh_text(rig):
    """BVH text of the rig with one rest frame: 6-channel root, ZXY joints."""
    children = rig.children()
    lines = ["HIERARCHY"]

    def emit(j, depth):
        pad = "  " * depth
        inner = pad + "  "
        lines.append(f"{pad}{'ROOT' if j == 0 else 'JOINT'} {rig.names[j]}")
        lines.append(pad + "{")
        lines.append(inner + "OFFSET " + " ".join(_num(v) for v in rig.offsets[j]))
        chans = ROOT_CHANNELS if j == 0 else JOINT_CHANNELS
        lines.append(f"{inner}CHANNELS {len(chans.split())} {chans}")
        for c in children[j]:
            emit(c, depth + 1)
        if j in rig.end_sites:
            lines.append(inner + "End Site")
            lines.append(inner + "{")
            lines.append(inner + "  OFFSET " + " ".join(_num(v) for v in rig.end_sites[j]))
            lines.append(inner + "}")
        lines.append(pad + "}")

    emit(0, 0)
    width = 6 + 3 * (rig.joint_count - 1)
    lines += ["MOTION", "Frames: 1", f"Frame Time: {_num(1.0 / FPS)}", " ".join(["0"] * width)]
    return "\n".join(lines) + "\n"


def trajectory_json_text(names, positions, mask):
    """Trajectory JSON (schema v1) as `rigfit` reads it."""
    doc = {
        "v": 1,
        "fps": FPS,
        "joint_names": list(names),
        "mask": [bool(m) for m in mask],
        "frames": np.asarray(positions, dtype=float).tolist(),
    }
    return json.dumps(doc) + "\n"
