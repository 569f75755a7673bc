"""Shared helpers for the test suite: random rigs and smooth synthetic clips."""

import numpy as np
import pytest

from rigfit import AnimationClip, Skeleton, validate_skeleton


def random_skeleton(rng, joint_count, max_branch=4, offset_scale=0.3):
    """Random tree-shaped skeleton with bounded branching factor."""
    parents = [-1]
    child_counts = {0: 0}
    for i in range(1, joint_count):
        candidates = [j for j in range(i) if child_counts[j] < max_branch]
        p = int(rng.choice(candidates))
        parents.append(p)
        child_counts[p] += 1
        child_counts[i] = 0
    offsets = rng.normal(size=(joint_count, 3)) * offset_scale
    offsets[0] = 0.0
    names = [f"joint{i}" for i in range(joint_count)]
    return validate_skeleton(names, parents, offsets)


def smooth_clip(rng, joint_count, frames, fps=30.0, amp_range=(0.2, 0.7)):
    """Per-joint sinusoidal axis-angle motion: smooth and FK-realizable."""
    axes = rng.normal(size=(joint_count, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    amps = rng.uniform(*amp_range, joint_count)
    freqs = rng.uniform(0.5, 2.0, joint_count)
    phases = rng.uniform(0.0, 2.0 * np.pi, joint_count)
    t = np.arange(frames)[:, None]
    angles = amps * np.sin(freqs * 2.0 * np.pi * t / max(frames, 2) + phases)
    return AnimationClip(angles[:, :, None] * axes, np.zeros((frames, 3)), fps=fps)


def scaled_skeleton(skeleton, scale):
    """Same tree with uniformly scaled offsets (FK scales positions by scale)."""
    return Skeleton(
        joint_names=skeleton.joint_names,
        parents=skeleton.parents.copy(),
        offsets=skeleton.offsets * scale,
        source_order=skeleton.source_order.copy(),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion, after the test report."""
    try:
        from tests import test_acceptance
    except ImportError:
        return
    if test_acceptance.RESULTS:
        terminalreporter.write_sep("=", "acceptance criteria")
        for num in sorted(test_acceptance.RESULTS):
            terminalreporter.write_line(test_acceptance.RESULTS[num])
