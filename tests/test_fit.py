"""Two-stage IK: geometric initialization, loss/gradient, refinement, sequence fit."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dposv

import rigfit.fit as fit_module
from rigfit import (
    AnimationClip,
    FitConfig,
    JointTrajectory,
    Pose,
    ValidationError,
    fit_sequence,
    forward_kinematics,
    geometric_init_frame,
    validate_skeleton,
)
from rigfit.fit import (
    STOP_REASONS,
    _bone_axes,
    _damped_step,
    _damped_steps,
    _descendant_mask,
    _normal_equations,
    _normal_system,
    fit_loss,
    fit_loss_gradient,
    geometric_init,
    refine_clip,
    refine_frame,
)
from rigfit.metrics import mpjpe, mpjve
from rigfit.normalize import remove_global_translation, sequence_normalize
from rigfit.rotations import (
    axis_angle_to_matrix,
    batch_axis_angle_to_matrix,
    canonicalize_axis_angle,
    euler_to_matrix,
    orthogonal_procrustes,
    rotation_between_vectors,
    skew,
)
from rigfit.skeleton import (
    fk_positions_and_frames,
    fk_sequence,
    rest_pose_positions,
)
from tests.conftest import random_skeleton, scaled_skeleton, smooth_clip


def fd_gradient(skeleton, theta, target, theta_geo, mask, config, h=1e-5):
    """Central finite differences over the rotation parameters."""
    theta = np.asarray(theta, dtype=float)
    g = np.zeros(theta.size)
    flat = theta.ravel().copy()
    for k in range(flat.size):
        plus = flat.copy()
        minus = flat.copy()
        plus[k] += h
        minus[k] -= h
        lp = fit_loss(skeleton, plus.reshape(-1, 3), target, theta_geo, mask, config).total
        lm = fit_loss(skeleton, minus.reshape(-1, 3), target, theta_geo, mask, config).total
        g[k] = (lp - lm) / (2 * h)
    return g


class TestGeometricInit:
    def test_rest_target_gives_identity(self, rng):
        sk = random_skeleton(rng, 7)
        pose, diags = geometric_init_frame(sk, rest_pose_positions(sk))
        np.testing.assert_allclose(pose.rotations, 0.0, atol=1e-9)

    def test_reproduces_fk_realizable_targets(self, rng):
        # rotations may differ from the generating pose by twist, but FK of the
        # init must match the target
        for _ in range(20):
            n = int(rng.integers(3, 15))
            sk = random_skeleton(rng, n)
            true_pose = Pose(rotations=rng.normal(size=(n, 3)) * 0.8)
            target = forward_kinematics(sk, true_pose)
            init, _ = geometric_init_frame(sk, target)
            err = np.linalg.norm(forward_kinematics(sk, init) - target, axis=1).mean()
            assert err < 1e-6

    def test_two_joint_chain_hand_case(self):
        sk = validate_skeleton(["a", "b"], [-1, 0], [[0, 0, 0], [1.0, 0, 0]])
        target = np.array([[0.0, 0, 0], [0.0, 1.0, 0]])  # child rotated 90deg about z
        pose, _ = geometric_init_frame(sk, target)
        np.testing.assert_allclose(
            axis_angle_to_matrix(pose.rotations[0]),
            euler_to_matrix([np.pi / 2, 0, 0], "ZXY"),
            atol=1e-9,
        )

    def test_masked_joint_kept_identity_with_diagnostic(self, rng):
        sk = random_skeleton(rng, 5, max_branch=1)  # a chain
        target = rest_pose_positions(sk)
        mask = np.array([True, True, False, True, True])
        pose, diags = geometric_init_frame(sk, target, mask)
        np.testing.assert_allclose(pose.rotations[2], 0.0)
        assert any("masked" in d for d in diags)

    def test_degenerate_observed_bone_flagged(self):
        sk = validate_skeleton(["a", "b"], [-1, 0], [[0, 0, 0], [1.0, 0, 0]])
        target = np.zeros((2, 3))  # child coincides with parent
        pose, diags = geometric_init_frame(sk, target)
        np.testing.assert_allclose(pose.rotations, 0.0)
        assert any("degenerate" in d for d in diags)


@st.composite
def init_problems(draw):
    """A random tree with zero-length bones, a joint mask and T frames of
    targets in which some children coincide with their parents. Its joints
    have at most 1 to 4 children, or any number, so that one depth mixes
    joints of different child counts, solved in one padded stack."""
    n = draw(st.integers(1, 14))
    frames = draw(st.integers(1, 5))
    branch = draw(st.sampled_from([1, 2, 3, 4, n]))
    parents, child_counts = [-1], [0]
    for i in range(1, n):
        p = draw(st.sampled_from([j for j in range(i) if child_counts[j] < branch]))
        parents.append(p)
        child_counts[p] += 1
        child_counts.append(0)
    zero = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    coincide = np.array(draw(st.lists(st.booleans(), min_size=frames * n,
                                      max_size=frames * n))).reshape(frames, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offsets = rng.normal(size=(n, 3)) * 0.3
    offsets[zero] = 0.0
    sk = validate_skeleton([f"j{i}" for i in range(n)], parents, offsets)
    rotations = rng.normal(size=(frames, n, 3))
    targets, _ = fk_positions_and_frames(sk, rotations, rng.normal(size=(frames, 3)))
    targets = targets + rng.normal(size=targets.shape) * 0.05
    for t, i in zip(*np.nonzero(coincide)):
        if i > 0:
            targets[t, i] = targets[t, sk.parents[i]]
    targets[:, ~mask] = np.nan  # masked positions must never be read
    return sk, targets, mask


def reference_init_frame(sk, target, mask):
    """The per-joint loop that the stacked init replaced, kept as its oracle:
    compact lists of valid children, the minimal rotation for one of them,
    unweighted Procrustes for more. Returns local rotation matrices and notes."""
    local = np.tile(np.eye(3), (sk.joint_count, 1, 1))
    G = np.empty_like(local)
    notes = []
    for i, kids in enumerate(sk.children()):
        name = sk.joint_names[i]
        Gp = np.eye(3) if i == 0 else G[sk.parents[i]]
        rest, obs = [], []
        for c in kids if mask[i] else []:
            if not mask[c] or sk.zero_offset[c]:
                continue
            d = target[c] - target[i]
            if np.linalg.norm(d) < 1e-9:
                notes.append(f"joint {name}: observed bone to {sk.joint_names[c]} is degenerate")
                continue
            rest.append(sk.offsets[c] / np.linalg.norm(sk.offsets[c]))
            obs.append(Gp.T @ (d / np.linalg.norm(d)))
        if kids and not mask[i]:
            notes.append(f"joint {name}: masked out, identity kept")
        if len(rest) == 1:
            local[i] = rotation_between_vectors(rest[0], obs[0])
        elif len(rest) > 1:
            local[i], degenerate = orthogonal_procrustes(rest, obs)
            if degenerate:
                notes.append(f"joint {name}: zero Procrustes covariance")
        G[i] = Gp @ local[i]
    return local, notes


class TestGeometricInitStack:
    @settings(max_examples=150, deadline=None)
    @given(init_problems())
    def test_stack_equals_frame_by_frame(self, problem):
        sk, targets, mask = problem
        rotations, roots, diagnostics = geometric_init(sk, targets, mask)
        assert rotations.shape == targets.shape and roots.shape == (len(targets), 3)
        for t, target in enumerate(targets):
            pose, notes = geometric_init_frame(sk, target, mask)
            np.testing.assert_allclose(pose.rotations, rotations[t], rtol=0.0, atol=1e-12)
            assert np.array_equal(pose.root_translation, roots[t])
            assert notes == diagnostics[t]
            local, reference_notes = reference_init_frame(sk, target, mask)
            np.testing.assert_allclose(batch_axis_angle_to_matrix(rotations[t]), local,
                                       rtol=0.0, atol=1e-9)
            assert reference_notes == diagnostics[t]

    def test_level_of_one_to_four_children(self):
        # depth 1 holds joints with 1, 2, 3 and 4 children and a leaf, solved
        # in one padded stack; one of them is masked, one has a zero-length
        # child and one a degenerate observed bone in frame 1
        parents = [-1, 0, 1, 0, 3, 3, 0, 6, 6, 6, 0, 10, 10, 10, 10, 0]  # depth-first
        rng = np.random.default_rng(11)
        offsets = rng.normal(size=(16, 3))
        offsets[4] = 0.0
        sk = validate_skeleton([f"j{i}" for i in range(16)], parents, offsets)
        assert [len(sk.children()[j]) for j in sk.levels[0].joints] == [1, 2, 3, 4, 0]
        targets, _ = fk_positions_and_frames(sk, rng.normal(size=(3, 16, 3)), np.zeros((3, 3)))
        targets[1, 12] = targets[1, 10]
        mask = np.ones(16, dtype=bool)
        mask[6] = False
        targets[:, 6] = np.nan
        rotations, _, diagnostics = geometric_init(sk, targets, mask)
        assert diagnostics[1] == ["joint j6: masked out, identity kept",
                                  "joint j10: observed bone to j12 is degenerate"]
        for t, target in enumerate(targets):
            local, notes = reference_init_frame(sk, target, mask)
            assert notes == diagnostics[t]
            np.testing.assert_allclose(batch_axis_angle_to_matrix(rotations[t]), local,
                                       rtol=0.0, atol=1e-9)

    def test_degenerate_bone_flagged_only_in_its_frame(self):
        sk = validate_skeleton(["a", "b"], [-1, 0], [[0, 0, 0], [1.0, 0, 0]])
        targets = np.array([[[0.0, 0, 0], [0.0, 1.0, 0]], [[0.0, 0, 0], [0.0, 0, 0]]])
        rotations, _, diagnostics = geometric_init(sk, targets)
        assert diagnostics[0] == []
        assert diagnostics[1] == ["joint a: observed bone to b is degenerate"]
        np.testing.assert_allclose(rotations[0, 0], [0.0, 0.0, np.pi / 2], atol=1e-12)
        np.testing.assert_allclose(rotations[1], 0.0)


class TestFitLoss:
    def test_terms_at_geo_optimum(self, rng):
        n = 6
        sk = random_skeleton(rng, n)
        pose = Pose(rotations=rng.normal(size=(n, 3)) * 0.5)
        target = forward_kinematics(sk, pose)
        geo, _ = geometric_init_frame(sk, target)
        cfg = FitConfig()
        terms = fit_loss(sk, geo.rotations, target, geo.rotations, np.ones(n, bool), cfg)
        assert terms.pos == pytest.approx(0.0, abs=1e-12)
        assert terms.prior == 0.0
        assert terms.total == pytest.approx(cfg.lambda_twist * terms.twist, abs=1e-12)

    def test_pure_twist_contribution(self):
        sk = validate_skeleton(
            ["a", "b", "c"], [-1, 0, 1], [[0, 0, 0], [0, 1.0, 0], [0, 1.0, 0]]
        )
        alpha = 0.4
        theta = np.zeros((3, 3))
        theta[1] = [0.0, alpha, 0.0]  # twist about joint 1's own bone (+y)
        terms = fit_loss(
            sk, theta, rest_pose_positions(sk), np.zeros((3, 3)), np.ones(3, bool), FitConfig()
        )
        assert terms.twist == pytest.approx(alpha**2 / 3.0)

    def test_perpendicular_rotation_no_twist(self):
        sk = validate_skeleton(["a", "b"], [-1, 0], [[0, 0, 0], [0, 1.0, 0]])
        theta = np.zeros((2, 3))
        theta[1] = [0.3, 0.0, 0.0]  # perpendicular to the +y bone
        terms = fit_loss(
            sk, theta, rest_pose_positions(sk), np.zeros((2, 3)), np.ones(2, bool), FitConfig()
        )
        assert terms.twist == 0.0

    def test_total_is_weighted_sum(self, rng):
        n = 5
        sk = random_skeleton(rng, n)
        cfg = FitConfig(lambda_prior=0.7, lambda_twist=0.3)
        theta = rng.normal(size=(n, 3))
        geo = rng.normal(size=(n, 3))
        target = rng.normal(size=(n, 3))
        t = fit_loss(sk, theta, target, geo, np.ones(n, bool), cfg)
        assert t.total == pytest.approx(t.pos + 0.7 * t.prior + 0.3 * t.twist)


class TestFitLossGradient:
    def test_zero_at_exact_minimum(self, rng):
        n = 6
        sk = random_skeleton(rng, n)
        pose = Pose(rotations=rng.normal(size=(n, 3)) * 0.5)
        target = forward_kinematics(sk, pose)
        cfg = FitConfig(lambda_twist=0.0)
        g = fit_loss_gradient(
            sk, pose.rotations, target, pose.rotations, np.ones(n, bool), cfg
        )
        assert np.max(np.abs(g)) < 1e-8

    def test_matches_finite_differences(self, rng):
        cfg = FitConfig()
        for _ in range(100):
            n = int(rng.integers(2, 11))
            sk = random_skeleton(rng, n)
            theta = rng.normal(size=(n, 3)) * 0.7
            geo = rng.normal(size=(n, 3)) * 0.7
            target = forward_kinematics(sk, Pose(rotations=rng.normal(size=(n, 3)) * 0.7))
            mask = rng.random(n) > 0.2
            mask[0] = True
            g = fit_loss_gradient(sk, theta, target, geo, mask, cfg)
            fd = fd_gradient(sk, theta, target, geo, mask, cfg)
            denom = max(np.linalg.norm(fd), 1e-8)
            assert np.linalg.norm(g - fd) / denom < 1e-4

    def test_twist_only_gradient_hand_value(self):
        sk = validate_skeleton(["a", "b"], [-1, 0], [[0, 0, 0], [0, 1.0, 0]])
        cfg = FitConfig(lambda_prior=0.0, lambda_twist=1.0)
        alpha = 0.25
        theta = np.zeros((2, 3))
        theta[1] = [0.0, alpha, 0.0]
        target = rest_pose_positions(sk)
        g = fit_loss_gradient(sk, theta, target, theta, np.ones(2, bool), cfg)
        # only the twist term is active along u; d(alpha^2/N)/dalpha = 2 alpha / N,
        # minus the position-term pull which is zero for a leaf twist
        assert g.reshape(2, 3)[1, 1] == pytest.approx(2 * alpha / 2.0, abs=1e-9)

    def test_root_translation_gradient(self, rng):
        n = 4
        sk = random_skeleton(rng, n)
        cfg = FitConfig(fit_root_translation=True)
        theta = rng.normal(size=(n, 3)) * 0.3
        target = rng.normal(size=(n, 3))
        rt = rng.normal(size=3)
        g = fit_loss_gradient(sk, theta, target, theta, np.ones(n, bool), cfg, rt)
        assert g.shape == (3 * n + 3,)
        h = 1e-6
        for a in range(3):
            e = np.zeros(3)
            e[a] = h
            lp = fit_loss(sk, theta, target, theta, np.ones(n, bool), cfg, rt + e).total
            lm = fit_loss(sk, theta, target, theta, np.ones(n, bool), cfg, rt - e).total
            assert g[3 * n + a] == pytest.approx((lp - lm) / (2 * h), rel=1e-5, abs=1e-8)


def reference_rotation_derivative(thetas):
    """dR/dtheta of Rodrigues' formula for an (N, 3) stack; (N, 3, 3, 3) with
    [i, a] = dR_i/dtheta_a = ((theta_a [theta]_x + [theta x ((I - R) e_a)]_x)
    / ||theta||^2) R (Gallego & Yezzi 2015), first order ([e_a]_x) at zero."""
    a2 = np.einsum("ic,ic->i", thetas, thetas)
    R = batch_axis_angle_to_matrix(thetas)
    # v_a = theta_a theta + theta x ((I - R) e_a); the cross products for all
    # three axes are the columns of [theta]_x (I - R)
    v = thetas[:, :, None] * thetas[:, None, :] + (skew(thetas) @ (np.eye(3) - R)).transpose(0, 2, 1)
    small = a2 < 1e-14
    J = np.einsum("i,iacd,ide->iace", 1.0 / np.where(small, 1.0, a2), skew(v), R)
    J[small] = skew(np.eye(3))
    return J


def reference_residual_jacobian(sk, theta, target, mask, P, G, W, fit_root_translation):
    """The dense position residual rows and Jacobian that the closed-form
    normal equations replaced, kept as their oracle: rows scaled by
    sqrt(1/Nv), so that the position loss is exactly ||r_pos||^2."""
    n = sk.joint_count
    a = np.sqrt(1.0 / int(mask.sum()))
    r_pos = (a * np.where(mask[:, None], P - target, 0.0)).ravel()
    Gp = np.empty((n, 3, 3))
    Gp[0] = np.eye(3)
    Gp[1:] = G[sk.parents[1:]]
    # T[i, a] = Gp_i Ja_ia Gi^T maps a local axis-angle nudge to world motion
    T = Gp[:, None] @ reference_rotation_derivative(theta) @ G.transpose(0, 2, 1)[:, None]
    # DW[i, :, k] = a * (P_k - P_i) for mask-valid descendants k of i, else 0
    DW = (a * W)[:, None, :] * (P.T[None, :, :] - P[:, :, None])
    # d r_pos[3k + c] / d theta[i, a] = (T[i, a] @ DW[i, :, k])_c
    blocks = (T.reshape(n, 9, 3) @ DW).reshape(n, 3, 3, n)
    J_pos = np.zeros((3 * n, 3 * n + (3 if fit_root_translation else 0)))
    J_pos[:, : 3 * n] = blocks.transpose(3, 2, 0, 1).reshape(3 * n, 3 * n)
    if fit_root_translation:
        J_pos[:, 3 * n :] = (a * mask[:, None, None] * np.eye(3)).reshape(3 * n, 3)
    return r_pos, J_pos


def full_residual(sk, theta, geo, cfg, r_pos, J_pos):
    """Reference stacked residual and Jacobian: position rows, then prior rows
    scaled by sqrt(lambda_prior/N), then twist rows by sqrt(lambda_twist/N)."""
    n = sk.joint_count
    params = J_pos.shape[1]
    b = np.sqrt(cfg.lambda_prior / n)
    c = np.sqrt(cfg.lambda_twist / n)
    u = _bone_axes(sk)
    J_prior = np.zeros((3 * n, params))
    J_prior[:, : 3 * n] = b * np.eye(3 * n)
    J_twist = np.zeros((n, params))
    for i in range(n):
        J_twist[i, 3 * i : 3 * i + 3] = c * u[i]
    r = np.concatenate([r_pos, b * (theta - geo).ravel(), c * np.einsum("ic,ic->i", theta, u)])
    return r, np.vstack([J_pos, J_prior, J_twist])


def position_rows(sk, theta, target, mask, cfg, root=None):
    P, G = fk_positions_and_frames(sk, theta, np.zeros(3) if root is None else root)
    return reference_residual_jacobian(
        sk, theta, target, mask, P, G, _descendant_mask(sk, mask), cfg.fit_root_translation
    )


def normal_blocks(sk, theta, target, geo, mask, cfg, root=None):
    """_normal_equations at theta and root, from a fresh FK: (system, blocks, g)."""
    P, G = fk_positions_and_frames(sk, theta, np.zeros(3) if root is None else root)
    system = _normal_system(sk, mask, cfg)
    return (system,) + _normal_equations(system, theta, target, geo, P, G)


def dense_matrix(sk, system, blocks, cfg):
    """The whole params x params H: the coupled blocks at the coupled
    unknowns, and each still joint's constant prior and twist block."""
    size = system.unknowns.size
    coupled = np.zeros((size, size))
    coupled.put(system.scatter[0], blocks)  # each block's transpose, then the block as it is
    coupled.put(system.scatter[1], blocks)
    H = np.zeros((system.params, system.params))
    H[np.ix_(system.unknowns, system.unknowns)] = coupled
    u = _bone_axes(sk)
    for k in np.setdiff1d(np.arange(sk.joint_count), system.coupled).tolist():
        H[3 * k : 3 * k + 3, 3 * k : 3 * k + 3] = (2.0 / sk.joint_count) * (
            cfg.lambda_prior * np.eye(3) + cfg.lambda_twist * np.outer(u[k], u[k]))
    return H


def normal_equations(sk, theta, target, geo, mask, cfg, root=None):
    """_normal_equations at theta and root, from a fresh FK: (dense H, g)."""
    system, blocks, g = normal_blocks(sk, theta, target, geo, mask, cfg, root)
    return dense_matrix(sk, system, blocks, cfg), g


@st.composite
def normal_problems(draw):
    """A random tree (a chain, a star, or at most 1 to 4 children per
    joint), a joint mask that may hide the root, root fitting on or off,
    loss weights, and per joint a generic angle, one near pi or one of about
    1e-3 (the left Jacobian's series branch)."""
    n = draw(st.integers(1, 14))
    shape = draw(st.sampled_from(["chain", "star", 1, 2, 3, 4]))
    parents, child_counts = [-1], [0]
    for i in range(1, n):
        if shape == "chain":
            p = i - 1
        elif shape == "star":
            p = 0
        else:
            p = draw(st.sampled_from([j for j in range(i) if child_counts[j] < shape]))
        parents.append(p)
        child_counts[p] += 1
        child_counts.append(0)
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    mask[draw(st.integers(0, n - 1))] = True
    kinds = np.array(draw(st.lists(st.sampled_from(["generic", "pi", "small"]),
                                   min_size=n, max_size=n)))
    config = FitConfig(lambda_prior=draw(st.sampled_from([0.0, 1e-3, 0.3])),
                       lambda_twist=draw(st.sampled_from([0.0, 1e-4, 0.2])),
                       fit_root_translation=draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sk = validate_skeleton([f"j{i}" for i in range(n)], parents, rng.normal(size=(n, 3)) * 0.3)
    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = np.select([kinds == "pi", kinds == "small"],
                       [np.pi - 10.0 ** rng.uniform(-9, -3, n), 1e-3 * rng.uniform(0.5, 2.0, n)],
                       rng.uniform(0.0, 3.0, n))
    theta = angles[:, None] * axes
    root = rng.normal(size=3)
    target = fk_positions_and_frames(sk, theta, root)[0] + rng.normal(size=(n, 3)) * 0.1
    target[~mask] = np.nan  # masked positions must never be read
    return sk, theta, target, rng.normal(size=(n, 3)) * 0.5, mask, config, root


class TestResidualJacobian:
    def test_residual_norm_equals_loss(self, rng):
        n = 7
        sk = random_skeleton(rng, n)
        cfg = FitConfig()
        theta = rng.normal(size=(n, 3)) * 0.5
        geo = rng.normal(size=(n, 3)) * 0.5
        target = rng.normal(size=(n, 3))
        mask = np.ones(n, bool)
        r_pos, _ = position_rows(sk, theta, target, mask, cfg)
        terms = fit_loss(sk, theta, target, geo, mask, cfg)
        total = float(r_pos @ r_pos) + cfg.lambda_prior * terms.prior + cfg.lambda_twist * terms.twist
        assert total == pytest.approx(terms.total, rel=1e-12)

    def test_jt_r_equals_half_gradient(self, rng):
        n = 6
        sk = random_skeleton(rng, n)
        cfg = FitConfig()
        theta = rng.normal(size=(n, 3)) * 0.5
        geo = rng.normal(size=(n, 3)) * 0.5
        target = rng.normal(size=(n, 3))
        mask = np.ones(n, bool)
        r_pos, J_pos = position_rows(sk, theta, target, mask, cfg)
        r, J = full_residual(sk, theta, geo, cfg, r_pos, J_pos)
        g = fit_loss_gradient(sk, theta, target, geo, mask, cfg)
        np.testing.assert_allclose(2.0 * (J.T @ r), g, atol=1e-10)

    @pytest.mark.parametrize("fit_root", [False, True])
    @pytest.mark.parametrize("masked", [False, True])
    def test_normal_equations_match_full_residual(self, rng, fit_root, masked):
        # the closed-form H and g equal the stacked rows' 2 J^T J and 2 J^T r
        n = 9
        sk = random_skeleton(rng, n)
        cfg = FitConfig(lambda_prior=0.3, lambda_twist=0.2, fit_root_translation=fit_root)
        theta = rng.normal(size=(n, 3)) * 0.5
        geo = rng.normal(size=(n, 3)) * 0.5
        target = rng.normal(size=(n, 3))
        mask = np.ones(n, bool)
        if masked:
            mask[[2, 5, 6]] = False
        root = rng.normal(size=3)
        r_pos, J_pos = position_rows(sk, theta, target, mask, cfg, root)
        r, J = full_residual(sk, theta, geo, cfg, r_pos, J_pos)
        params = 3 * n + (3 if fit_root else 0)
        assert J_pos.shape == (3 * n, params)
        H, g = normal_equations(sk, theta, target, geo, mask, cfg, root)
        np.testing.assert_allclose(g, 2.0 * (J.T @ r), rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(H, 2.0 * (J.T @ J), rtol=0.0, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(normal_problems())
    def test_closed_form_equals_dense_reference(self, problem):
        # within 1e-12 of the largest entry (or of 1): the subtree sums are
        # taken about the root, which costs digits on deep chains far from it
        sk, theta, target, geo, mask, cfg, root = problem
        r, J = full_residual(sk, theta, geo, cfg, *position_rows(sk, theta, target, mask, cfg, root))
        H, g = normal_equations(sk, theta, target, geo, mask, cfg, root)
        for got, want in ((g, 2.0 * (J.T @ r)), (H, 2.0 * (J.T @ J))):
            np.testing.assert_allclose(got, want, rtol=0.0,
                                       atol=1e-12 * max(1.0, np.abs(want).max()))


@st.composite
def step_problems(draw):
    """A normal_problems problem whose mask may instead empty a whole
    subtree, or leave the root the only valid joint, so that no joint is
    coupled; and a damping of 1e-2 to 10 times H's largest diagonal entry."""
    sk, theta, target, geo, mask, cfg, root = draw(normal_problems())
    n = sk.joint_count
    kind = draw(st.sampled_from(["drawn", "subtree", "root only"]))
    if kind == "subtree":
        top = draw(st.integers(0, n - 1))
        hidden = sk.descendants[top] | (np.arange(n) == top)
        if np.any(mask & ~hidden):
            mask = mask & ~hidden
    elif kind == "root only":
        mask = np.arange(n) == 0
        target[0] = fk_positions_and_frames(sk, theta, root)[0][0] + 0.1
    target[~mask] = np.nan
    return sk, theta, target, geo, mask, cfg, root, 10.0 ** draw(st.floats(-2.0, 1.0))


class TestSplitDampedStep:
    """_damped_steps factors only the coupled joints and the fitted root
    translation, and steps every still joint in closed form."""

    @settings(max_examples=200, deadline=None)
    @given(step_problems())
    def test_equals_dense_solve(self, problem):
        sk, theta, target, geo, mask, cfg, root, factor = problem
        system, blocks, g = normal_blocks(sk, theta, target, geo, mask, cfg, root)
        # the coupled joints are those with a valid strict descendant
        valid_below = (sk.descendants & mask).any(axis=1)
        assert system.coupled.tolist() == np.flatnonzero(valid_below).tolist()
        H = dense_matrix(sk, system, blocks, cfg)
        mu = factor * (np.max(np.diag(H)) or 1.0)
        step = _damped_steps(system, blocks[None], g[None], np.array([mu]), np.arange(1))[0]
        want = np.linalg.solve(H + mu * np.eye(system.params), -g)
        np.testing.assert_allclose(step, want, rtol=0.0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("n", [1, 4])
    def test_no_coupled_joint(self, rng, n):
        # a 1-joint rig, or a chain whose only valid joint is the root,
        # without root fitting: the factored system is empty, and every
        # joint steps in closed form to the minimum of its prior and twist
        sk = validate_skeleton([f"j{i}" for i in range(n)], list(range(-1, n - 1)),
                               rng.normal(size=(n, 3)) * 0.3)
        mask = np.arange(n) == 0
        cfg = FitConfig(lambda_prior=1e-3, lambda_twist=0.2)
        system = _normal_system(sk, mask, cfg)
        assert system.unknowns.size == 0 and len(system.pairs[0]) == 0
        frames = 3
        targets = np.full((frames, n, 3), np.nan)
        targets[:, 0] = rng.normal(size=(frames, 3))
        geo = rng.normal(size=(frames, n, 3))
        init = geo + rng.normal(size=(frames, n, 3))
        fit = refine_clip(sk, targets, init, geo, mask, cfg, targets[:, 0])
        assert np.all(fit.stop == "grad_tol") and np.all(fit.iterations_used > 0)
        for t, accepted in enumerate(fit.accepted_losses):
            assert fit.loss_terms[t, 0] < accepted[0]
            g = fit_loss_gradient(sk, fit.rotations[t], targets[t], geo[t], mask, cfg,
                                  fit.root_translation[t])
            assert np.max(np.abs(g)) < fit_module._GRAD_TOL

    def test_unfactorable_frame_leaves_still_joints_unmoved(self):
        # the a-b-c chain of test_unfactorable_damped_matrix_is_a_rejected_trial
        # with a masked leaf d under a: a and b stay coupled with equal columns
        # of H, and d is still, with a prior gradient so small that only a
        # damping below H's rounding gives it a step of its own
        sk = validate_skeleton(["a", "b", "c", "d"], [-1, 0, 1, 0],
                               [[0, 0, 0], [0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]])
        mask = np.array([True, False, True, False])
        target = np.array([[0.0, 0.0, 0.0], [np.nan] * 3, [0.0, 1.0, 0.0], [np.nan] * 3])
        cfg = FitConfig(lambda_prior=1e-20, lambda_twist=0.0)
        theta = np.zeros((4, 3))
        theta[3] = [0.3, 0.0, 0.0]
        system, blocks, g = normal_blocks(sk, theta, target, np.zeros((4, 3)), mask, cfg)
        assert system.coupled.tolist() == [0, 1]  # c and d are still
        mu = np.array([1e-20, 0.5])
        H = dense_matrix(sk, system, blocks, cfg)
        coupled = H[np.ix_(system.unknowns, system.unknowns)]
        assert _damped_step(coupled, g[system.unknowns], mu[0]) is None
        a = 2.0 * cfg.lambda_prior / 4
        assert np.max(np.abs(g[9:] / (a + mu[0]))) > 0.05  # the step d would take
        steps = _damped_steps(system, np.stack([blocks] * 2), np.stack([g] * 2), mu,
                              np.arange(2))
        assert np.all(steps[0] == 0.0)
        np.testing.assert_allclose(steps[1], np.linalg.solve(H + mu[1] * np.eye(12), -g),
                                   rtol=1e-12, atol=1e-15)
        assert np.any(steps[1, system.unknowns] != 0.0) and np.any(steps[1, 9:] != 0.0)


class TestRefineFrame:
    def test_already_optimal_returns_init(self, rng):
        n = 5
        sk = random_skeleton(rng, n)
        theta = rng.normal(size=(n, 3)) * 0.5
        target = forward_kinematics(sk, Pose(rotations=theta))
        cfg = FitConfig(lambda_twist=0.0)
        res = refine_frame(sk, target, theta, theta, config=cfg)
        np.testing.assert_allclose(res.pose.rotations, Pose(rotations=theta).rotations, atol=1e-9)
        assert res.iterations_used <= 1

    def test_noisy_init_recovers(self, rng):
        n = 8
        sk = random_skeleton(rng, n)
        true = rng.normal(size=(n, 3)) * 0.5
        target = forward_kinematics(sk, Pose(rotations=true))
        geo, _ = geometric_init_frame(sk, target)
        init = geo.rotations + rng.normal(size=(n, 3)) * 0.05
        res = refine_frame(sk, target, init, geo.rotations)
        final = forward_kinematics(sk, res.pose)
        init_err = np.linalg.norm(forward_kinematics(sk, Pose(rotations=init)) - target, axis=1).mean()
        final_err = np.linalg.norm(final - target, axis=1).mean()
        assert final_err < init_err
        assert final_err < 1e-3

    def test_unreachable_target_keeps_bone_lengths(self, rng):
        n = 4
        sk = random_skeleton(rng, n, max_branch=1)
        target = rest_pose_positions(sk) * 2.0  # violates bone lengths
        geo, _ = geometric_init_frame(sk, target)
        res = refine_frame(sk, target, geo.rotations, geo.rotations)
        P = forward_kinematics(sk, res.pose)
        lengths = np.linalg.norm(P[1:] - P[sk.parents[1:]], axis=1)
        np.testing.assert_allclose(lengths, np.linalg.norm(sk.offsets[1:], axis=1), rtol=1e-9)
        assert np.isfinite(res.loss_terms[0])

    def test_monotone_accepted_losses(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 10))
            sk = random_skeleton(rng, n)
            target = forward_kinematics(sk, Pose(rotations=rng.normal(size=(n, 3)) * 0.6))
            geo, _ = geometric_init_frame(sk, target)
            init = geo.rotations + rng.normal(size=(n, 3)) * 0.1
            res = refine_frame(sk, target, init, geo.rotations)
            losses = np.array(res.accepted_losses)
            assert np.all(np.diff(losses) <= 1e-15)

    def test_never_worse_than_its_start(self, rng):
        n = 6
        sk = random_skeleton(rng, n)
        target = forward_kinematics(sk, Pose(rotations=rng.normal(size=(n, 3)) * 0.6))
        geo, _ = geometric_init_frame(sk, target)
        bad_init = rng.normal(size=(n, 3))  # deliberately far from the anchor
        res = refine_frame(sk, target, bad_init, geo.rotations)
        start_loss = fit_loss(
            sk, bad_init, target, geo.rotations, np.ones(n, bool), FitConfig()
        ).total
        assert res.accepted_losses[0] == start_loss
        assert res.loss_terms[0] <= start_loss

    @pytest.mark.parametrize("fit_root", [False, True])
    def test_one_fk_per_loss_evaluation(self, rng, monkeypatch, fit_root):
        # each trial point runs FK once; an accepted step's FK feeds the next
        # normal equations, so they run no FK of their own
        import rigfit.fit as fit_module

        calls = {"fk": 0, "loss": 0, "normal": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(fit_module, "fk_positions_and_frames",
                            counted("fk", fit_module.fk_positions_and_frames))
        monkeypatch.setattr(fit_module, "fit_loss", counted("loss", fit_module.fit_loss))
        monkeypatch.setattr(fit_module, "_normal_equations",
                            counted("normal", fit_module._normal_equations))
        n = 12
        sk = random_skeleton(rng, n)
        target = forward_kinematics(sk, Pose(rotations=rng.normal(size=(n, 3)) * 0.6))
        geo, _ = geometric_init_frame(sk, target)
        init = geo.rotations + rng.normal(size=(n, 3)) * 0.2
        res = refine_frame(sk, target, init, geo.rotations,
                           config=FitConfig(fit_root_translation=fit_root))
        assert res.iterations_used > 2 and calls["normal"] > 2
        assert calls["fk"] == calls["loss"]
        # one loss at the start and one per trial step
        assert calls["loss"] == res.trials + 1

    def test_stop_reasons(self, rng):
        n = 12
        sk = random_skeleton(rng, n)
        target = forward_kinematics(sk, Pose(rotations=rng.normal(size=(n, 3)) * 0.6))
        geo, _ = geometric_init_frame(sk, target)
        init = geo.rotations + rng.normal(size=(n, 3)) * 0.2
        res = refine_frame(sk, target, init, geo.rotations)
        assert res.stop == "grad_tol" and res.iterations_used > 2
        assert res.trials >= res.iterations_used
        short = refine_frame(sk, target, init, geo.rotations, config=FitConfig(max_iters=2))
        assert short.stop == "max_iters" and short.iterations_used == 2

    def test_damping_exhausted_stop(self, rng, monkeypatch):
        # below the loss's rounding no step can decrease it, so the damping
        # grows past its ceiling before the gradient falls under a zero tolerance
        monkeypatch.setattr(fit_module, "_GRAD_TOL", 0.0)
        n = 6
        sk = random_skeleton(rng, n)
        target = forward_kinematics(sk, Pose(rotations=rng.normal(size=(n, 3)) * 0.6))
        geo, _ = geometric_init_frame(sk, target)
        res = refine_frame(sk, target, geo.rotations, geo.rotations)
        assert res.stop == "damping_exhausted"
        assert res.trials > res.iterations_used

    def test_singular_curvature_stays_finite(self, rng):
        # with no prior and no twist weight, a chain whose leaf and its parent
        # are masked leaves the last three joints' columns of H zero: their
        # rotations move no valid position, so the damping alone regularizes
        # the solve there and those rows must keep their start
        n = 6
        sk = validate_skeleton([f"j{i}" for i in range(n)], list(range(-1, n - 1)),
                               np.vstack([np.zeros(3), rng.normal(size=(n - 1, 3)) * 0.3]))
        cfg = FitConfig(lambda_prior=0.0, lambda_twist=0.0, max_iters=500)
        positions = fk_sequence(sk, smooth_clip(rng, n, 3)).positions
        positions = positions + 0.05 * rng.normal(size=positions.shape)
        mask = np.ones(n, dtype=bool)
        mask[-2:] = False
        geo_rot, geo_root, _ = geometric_init(sk, positions, mask)
        init = geo_rot[0] + 0.5 * rng.normal(size=(n, 3))
        res = refine_frame(sk, positions[0], init, geo_rot[0], mask, cfg, geo_root[0])
        assert res.stop in STOP_REASONS and res.iterations_used > 2
        assert np.all(np.isfinite(res.pose.rotations)) and np.isfinite(res.loss_terms[0])
        np.testing.assert_allclose(res.pose.rotations[-3:], init[-3:], rtol=0.0, atol=1e-12)
        fitted, reports = fit_sequence(sk, JointTrajectory(positions, mask, 30.0), cfg)
        assert np.all(np.isfinite(fitted.rotations))
        assert all(np.isfinite(rep["loss_total"]) for rep in reports)

    def test_unfactorable_damped_matrix_is_a_rejected_trial(self, monkeypatch):
        # a rank-deficient H with mu below its rounding: 1 + mu == 1 leaves
        # the second pivot of [[1, 1], [1, 1]] + mu I at exactly 0
        H, g = np.ones((2, 2)), np.array([1.0, -1.0])
        assert _damped_step(H, g, 1e-20) is None
        np.testing.assert_allclose(_damped_step(H, g, 0.5),
                                   np.linalg.solve(H + 0.5 * np.eye(2), -g), rtol=1e-14)
        # in a fit: a zero-length bone puts joints a and b at one point, so
        # their columns of H are equal, and the first damping lies far below
        # H's rounding; those trials are rejected and the damping grows
        infos = []

        def recording(*args, **kwargs):
            out = dposv(*args, **kwargs)
            infos.append(out[2])
            return out

        monkeypatch.setattr(fit_module, "dposv", recording)
        monkeypatch.setattr(fit_module, "_TAU", 1e-20)
        sk = validate_skeleton(["a", "b", "c"], [-1, 0, 1], [[0, 0, 0], [0, 0, 0], [1.0, 0, 0]])
        mask = np.array([True, False, True])
        target = np.array([[0.0, 0.0, 0.0], [np.nan] * 3, [0.0, 1.0, 0.0]])
        cfg = FitConfig(lambda_prior=0.0, lambda_twist=0.0)
        assert _normal_system(sk, mask, cfg).coupled.tolist() == [0, 1]  # a and b are factored
        res = refine_frame(sk, target, np.zeros((3, 3)), np.zeros((3, 3)), mask, cfg)
        assert infos[0] > 0 and infos[-1] == 0
        assert res.trials == len(infos) > res.iterations_used
        assert res.stop == "grad_tol" and res.loss_terms[0] < 1e-12
        assert np.all(np.isfinite(res.pose.rotations))
        assert np.all(np.diff(res.accepted_losses) <= 0.0)

    def test_scale_mismatch_stays_under_budget(self):
        # a rig fitted to its own clip scaled x1.5 about the root
        rng = np.random.default_rng(7)
        sk = random_skeleton(rng, 24)
        positions = fk_sequence(sk, smooth_clip(rng, 24, 4)).positions
        positions = positions[:, :1] + 1.5 * (positions - positions[:, :1])
        _, reports = fit_sequence(sk, JointTrajectory(positions, None, 30.0),
                                  FitConfig(fit_root_translation=True))
        assert all(rep["stop"] == "grad_tol" and rep["iters"] < 150 for rep in reports)


def reference_refine_frame(sk, target, theta_init, theta_geo, mask, config, root):
    """The fixed damping schedule that the gain-ratio rule replaced, on the
    dense reference Jacobian and an LU solve, kept as its oracle: mu starts
    at 10, falls by 3 on an accepted step (never below 1e-12) and grows by 4
    on a rejected one. Returns (final loss, iterations)."""
    n = sk.joint_count
    fit_root = config.fit_root_translation
    params = 3 * n + (3 if fit_root else 0)

    def unpack(x):
        return x[: 3 * n].reshape(n, 3), (x[3 * n :] if fit_root else root)

    def loss(x):
        theta, rt = unpack(x)
        return fit_loss(sk, theta, target, theta_geo, mask, config, rt).total

    x = np.concatenate([theta_init.ravel(), root] if fit_root else [theta_init.ravel()])
    current, mu, iters = loss(x), 10.0, 0
    for _ in range(config.max_iters):
        theta, rt = unpack(x)
        r, J = full_residual(sk, theta, theta_geo, config,
                             *position_rows(sk, theta, target, mask, config, rt))
        g = 2.0 * (J.T @ r)
        if np.max(np.abs(g)) < fit_module._GRAD_TOL:
            break
        H = 2.0 * (J.T @ J)
        moved = False
        while mu < 1e16:
            x_new = x + np.linalg.solve(H + mu * np.eye(params), -g)
            new = loss(x_new)
            if new < current:
                x, current, mu, moved = x_new, new, max(mu / 3.0, 1e-12), True
                break
            mu *= 4.0
        iters += 1
        if not moved:
            break
    return current, iters


def warm_start_frame(n, seed, bone_scale=1.0, noise=0.0, masked=0, fit_root=False):
    """Frame 1 of a random clip, started from frame 0's geometric estimate, a
    nearby start that is not its own: (skeleton, target, init, geo, mask,
    config, root)."""
    rng = np.random.default_rng(seed)
    sk = random_skeleton(rng, n)
    positions = fk_sequence(scaled_skeleton(sk, bone_scale), smooth_clip(rng, n, 2)).positions
    positions = positions + rng.normal(size=(1, 1, 3)) + noise * rng.normal(size=positions.shape)
    mask = np.ones(n, dtype=bool)
    mask[rng.choice(np.arange(1, n), size=masked, replace=False)] = False
    geo_rot, geo_root, _ = geometric_init(sk, positions, mask)
    config = FitConfig(fit_root_translation=fit_root)
    return sk, positions[1], geo_rot[0], geo_rot[1], mask, config, geo_root[1]


class TestGainRatioDamping:
    @pytest.mark.parametrize("frame", [
        dict(n=60, seed=11),
        dict(n=24, seed=12, bone_scale=1.15, noise=0.02, masked=4, fit_root=True),
    ], ids=["realizable60", "noisy24"])
    def test_same_minimum_as_fixed_schedule_in_fewer_iterations(self, monkeypatch, frame):
        monkeypatch.setattr(fit_module, "_GRAD_TOL", 1e-10)
        sk, target, init, geo, mask, config, root = warm_start_frame(**frame)
        want, oracle_iters = reference_refine_frame(sk, target, init, geo, mask, config, root)
        res = refine_frame(sk, target, init, geo, mask, config, root)
        assert res.loss_terms[0] == pytest.approx(want, rel=1e-6)
        assert res.iterations_used < oracle_iters

    def test_first_damping_scales_with_curvature(self, rng, monkeypatch):
        # the same problem with every residual scaled by 1e3 takes the same
        # steps: the damping starts at _TAU * max diag(H), not at a constant
        n = 8
        sk = random_skeleton(rng, n)
        target = forward_kinematics(sk, Pose(rotations=rng.normal(size=(n, 3)) * 0.6))
        geo, _ = geometric_init_frame(sk, target)
        init = geo.rotations + rng.normal(size=(n, 3)) * 0.3
        cfg = FitConfig(lambda_prior=0.0, lambda_twist=0.0, max_iters=3)
        steps = {}
        for scale in (1.0, 1e3):
            big = validate_skeleton(sk.joint_names, sk.parents, sk.offsets * scale)
            res = refine_frame(big, target * scale, init, init, config=cfg)
            assert res.stop == "max_iters"
            steps[scale] = res.pose.rotations
        np.testing.assert_allclose(steps[1e3], steps[1.0], atol=1e-8)

    def test_first_damping_counts_still_joints(self, rng):
        # short bones and a heavy twist weight: the leaf c, still, lies along
        # x, and b along the diagonal, so c's constant block holds H's
        # largest diagonal entry, and the first damping is _TAU times it
        sk = validate_skeleton(["a", "b", "c"], [-1, 0, 1],
                               [[0, 0, 0], [0.01, 0.01, 0.01], [0.01, 0, 0]])
        cfg = FitConfig(lambda_prior=0.0, lambda_twist=0.3, max_iters=1)
        target = fk_positions_and_frames(sk, rng.normal(size=(3, 3)) * 0.3, np.zeros(3))[0]
        geo = rng.normal(size=(3, 3)) * 0.3
        init = geo + rng.normal(size=(3, 3)) * 0.3
        mask = np.ones(3, dtype=bool)
        system, blocks, g = normal_blocks(sk, init, target, geo, mask, cfg)
        H = dense_matrix(sk, system, blocks, cfg)
        assert system.coupled.tolist() == [0, 1] and system.still_peak == np.max(np.diag(H))
        assert system.still_peak > np.max(np.diag(H[np.ix_(system.unknowns, system.unknowns)]))
        res = refine_frame(sk, target, init, geo, mask, cfg)
        assert res.trials == 1 and res.iterations_used == 1
        mu = fit_module._TAU * system.still_peak
        np.testing.assert_allclose(res.rotations.ravel(),
                                   init.ravel() + np.linalg.solve(H + mu * np.eye(9), -g),
                                   rtol=0.0, atol=1e-12)


@st.composite
def fit_problems(draw):
    """A random tree fitted to a noisy clip of bones scaled by 0.8-1.5, with
    a random joint mask that may hide the root and a random iteration budget."""
    n = draw(st.integers(2, 10))
    frames = draw(st.integers(1, 3))
    scale = draw(st.floats(0.8, 1.5))
    noise = draw(st.floats(0.0, 0.05))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    mask[draw(st.integers(0, n - 1))] = True
    config = FitConfig(max_iters=draw(st.integers(1, 40)),
                       fit_root_translation=draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sk = random_skeleton(rng, n)
    positions = fk_sequence(scaled_skeleton(sk, scale), smooth_clip(rng, n, frames)).positions
    positions = positions + rng.normal(size=(frames, 1, 3)) + noise * rng.normal(size=positions.shape)
    positions[:, ~mask] = np.nan  # masked positions must never be read
    return sk, positions, mask, config, rng.normal(size=(n, 3)) * 0.5


def assert_sound(final_loss, accepted_losses, stop, iters, bound, config):
    assert np.isfinite(final_loss) and final_loss <= bound
    assert accepted_losses[-1] == final_loss
    assert np.all(np.diff(accepted_losses) <= 0.0)
    assert stop in STOP_REASONS
    assert iters <= config.max_iters


@st.composite
def clip_problems(draw):
    """A random tree of at most 12 joints and 1 to 6 frames of a noisy clip
    of bones scaled by 0.8-1.5, a random joint mask that may hide the root,
    root fitting on or off, sometimes a budget of 1 to 3 iterations, and the
    index of one frame to put at its exact minimum."""
    n = draw(st.integers(2, 12))
    frames = draw(st.integers(1, 6))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    mask[draw(st.integers(0, n - 1))] = True
    config = FitConfig(max_iters=draw(st.sampled_from([1, 2, 3, 200])),
                       fit_root_translation=draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sk = random_skeleton(rng, n)
    scale = draw(st.floats(0.8, 1.5))
    positions = fk_sequence(scaled_skeleton(sk, scale), smooth_clip(rng, n, frames)).positions
    positions = positions + rng.normal(size=(frames, 1, 3)) + 0.03 * rng.normal(size=positions.shape)
    return sk, positions, mask, config, rng.normal(size=(frames, n, 3)) * 0.3, \
        draw(st.integers(0, frames - 1))


class TestRefineClip:
    """Each frame of a lockstep refine_clip takes the steps refine_frame
    takes on that frame alone."""

    @staticmethod
    def assert_as_alone(fit, sk, targets, init, geo, mask, config, roots):
        assert len(fit.accepted_losses) == len(targets)
        for t, accepted in enumerate(fit.accepted_losses):
            alone = refine_frame(sk, targets[t], init[t], geo[t], mask, config, roots[t])
            assert (fit.iterations_used[t], fit.trials[t], fit.stop[t], len(accepted)) == \
                (alone.iterations_used, alone.trials, alone.stop, len(alone.accepted_losses))
            np.testing.assert_allclose(accepted, alone.accepted_losses, rtol=1e-10, atol=0.0)
            np.testing.assert_allclose(fit.loss_terms[t], alone.loss_terms, rtol=1e-10, atol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(clip_problems())
    def test_frames_step_as_alone(self, problem):
        sk, positions, mask, config, perturbation, exact = problem
        geo, roots, _ = geometric_init(sk, positions, mask)
        init = geo + perturbation
        # frame `exact` starts at the minimum of its loss: the rig reaches its
        # target there, and its rotations have no twist and are their own anchor
        u = _bone_axes(sk)
        theta = geo[exact] - np.einsum("ic,ic->i", geo[exact], u)[:, None] * u
        positions[exact] = fk_positions_and_frames(sk, theta, roots[exact])[0]
        init[exact] = geo[exact] = theta
        positions[:, ~mask] = np.nan  # masked positions must never be read
        fit = refine_clip(sk, positions, init, geo, mask, config, roots)
        assert fit.iterations_used[exact] == 0 and fit.stop[exact] == "grad_tol"
        self.assert_as_alone(fit, sk, positions, init, geo, mask, config, roots)

    def test_unfactorable_damped_matrix_in_a_stack(self, monkeypatch):
        # the fit of test_unfactorable_damped_matrix_is_a_rejected_trial as
        # the middle frame of three: its failed factorizations are rejected
        # trials of its own, and every frame steps as it does alone
        infos = []

        def recording(*args, **kwargs):
            out = dposv(*args, **kwargs)
            infos.append(out[2])
            return out

        monkeypatch.setattr(fit_module, "dposv", recording)
        monkeypatch.setattr(fit_module, "_TAU", 1e-20)
        sk = validate_skeleton(["a", "b", "c"], [-1, 0, 1], [[0, 0, 0], [0, 0, 0], [1.0, 0, 0]])
        mask = np.array([True, False, True])
        targets = np.array([[[0.0, 0.0, 0.0], [np.nan] * 3, [x, y, 0.0]]
                            for x, y in ((0.6, 0.8), (0.0, 1.0), (1.0, 0.0))])
        cfg = FitConfig(lambda_prior=0.0, lambda_twist=0.0)
        zeros, roots = np.zeros((3, 3, 3)), np.zeros((3, 3))
        fit = refine_clip(sk, targets, zeros, zeros, mask, cfg, roots)
        assert any(info > 0 for info in infos) and infos[-1] == 0
        assert fit.trials.sum() == len(infos)
        assert fit.trials[1] > fit.iterations_used[1]
        assert fit.stop[1] == "grad_tol" and fit.loss_terms[1, 0] < 1e-12
        assert np.all(np.diff(fit.accepted_losses[1]) <= 0.0)
        assert fit.iterations_used[2] == 0  # the rest pose reaches its target
        self.assert_as_alone(fit, sk, targets, zeros, zeros, mask, cfg, roots)


class TestFitProperties:
    @settings(max_examples=60, deadline=None)
    @given(fit_problems())
    def test_refine_frame(self, problem):
        sk, positions, mask, config, perturbation = problem
        geo_rot, geo_root, _ = geometric_init(sk, positions, mask)
        res = refine_frame(sk, positions[0], geo_rot[0] + perturbation, geo_rot[0], mask,
                           config, geo_root[0])
        assert np.all(np.isfinite(res.pose.rotations))
        assert np.all(np.isfinite(res.pose.root_translation))
        start_loss = fit_loss(sk, geo_rot[0] + perturbation, positions[0], geo_rot[0], mask,
                              config, geo_root[0]).total
        assert_sound(res.loss_terms[0], res.accepted_losses, res.stop, res.iterations_used,
                     start_loss, config)
        assert res.trials >= res.iterations_used

    @settings(max_examples=40, deadline=None)
    @given(fit_problems())
    def test_fit_sequence(self, problem):
        sk, positions, mask, config, _ = problem
        fitted, reports = fit_sequence(sk, JointTrajectory(positions, mask, 30.0), config)
        assert np.all(np.isfinite(fitted.rotations))
        assert np.all(np.isfinite(fitted.root_translation))
        geo_rot, geo_root, _ = geometric_init(sk, positions, mask)
        for t, rep in enumerate(reports):
            geo_loss = fit_loss(sk, geo_rot[t], positions[t], geo_rot[t], mask, config,
                                geo_root[t]).total
            assert_sound(rep["loss_total"], rep["accepted_losses"], rep["stop"], rep["iters"],
                         geo_loss, config)


class TestFitSequence:
    def fitted_roundtrip(self, rng, n, frames):
        sk = random_skeleton(rng, n)
        clip = smooth_clip(rng, n, frames)
        traj = fk_sequence(sk, clip)
        traj, _ = remove_global_translation(traj)
        traj, transform = sequence_normalize(traj)
        skn = scaled_skeleton(sk, transform.scale)
        fitted, reports = fit_sequence(skn, traj)
        return skn, traj, fitted, reports

    def test_clip_rows_equal_refined_poses_bitwise(self, rng, monkeypatch):
        # each fitted frame is canonicalized once, as its refined Pose canonicalizes it
        import rigfit.fit as fit_module

        poses = []

        def recording(*args, **kwargs):
            fit = refine_clip(*args, **kwargs)
            poses.extend(map(Pose, fit.rotations, fit.root_translation))
            return fit

        monkeypatch.setattr(fit_module, "refine_clip", recording)
        skn, traj, fitted, reports = self.fitted_roundtrip(rng, 24, 3)
        assert len(poses) == fitted.frame_count == 3
        for t, pose in enumerate(poses):
            assert np.array_equal(fitted.rotations[t], pose.rotations)
            assert np.array_equal(fitted.root_translation[t], pose.root_translation)

    def test_each_frame_starts_at_its_geometric_init_bitwise(self, monkeypatch):
        # frame t starts at, and is anchored at, geo_rot[t] itself, whatever
        # the frames before it ended at
        calls = []

        def recording(skeleton, targets, theta_init, theta_geo, mask, config, root_translation):
            calls.append((np.array(theta_init), np.array(theta_geo), np.array(root_translation)))
            return refine_clip(skeleton, targets, theta_init, theta_geo, mask, config,
                               root_translation)

        monkeypatch.setattr(fit_module, "refine_clip", recording)
        rng = np.random.default_rng(5)
        for masked_root in (False, True):
            sk = random_skeleton(rng, 24)
            traj = fk_sequence(sk, smooth_clip(rng, 24, 4))
            mask = np.ones(24, dtype=bool)
            mask[0] = not masked_root
            traj = JointTrajectory(traj.positions, mask, traj.fps)
            calls.clear()
            fit_sequence(sk, traj)
            geo_rot, geo_root, _ = geometric_init(sk, traj.positions, mask)
            # one refine_clip call holds the whole clip
            assert len(calls) == 1
            start, anchor, root = calls[0]
            assert np.array_equal(start, geo_rot)
            assert np.array_equal(anchor, geo_rot)
            assert np.array_equal(root, geo_root)

    def test_round_trip_mpjpe(self, rng):
        skn, traj, fitted, reports = self.fitted_roundtrip(rng, 10, 8)
        out = fk_sequence(skn, fitted)
        assert mpjpe(out, traj) < 1e-3
        assert mpjve(out, traj) < mpjve(traj, traj) + 1e-3

    def test_constant_trajectory_fixed_point(self, rng):
        n = 6
        sk = random_skeleton(rng, n)
        pose = Pose(rotations=rng.normal(size=(n, 3)) * 0.4)
        target = forward_kinematics(sk, pose)
        traj_pos = np.tile(target, (4, 1, 1))
        from rigfit import JointTrajectory

        traj = JointTrajectory(positions=traj_pos, mask=None, fps=30.0)
        fitted, _ = fit_sequence(sk, traj)
        base = fitted.frames[0].rotations
        for f in fitted.frames[1:]:
            assert np.max(np.abs(f.rotations - base)) < 1e-6

    def test_single_frame(self, rng):
        n = 5
        sk = random_skeleton(rng, n)
        clip = smooth_clip(rng, n, 1)
        traj = fk_sequence(sk, clip)
        fitted, reports = fit_sequence(sk, traj)
        assert fitted.frame_count == 1
        assert len(reports) == 1

    def test_joint_count_mismatch(self, rng):
        from rigfit import JointTrajectory

        sk = random_skeleton(rng, 4)
        traj = JointTrajectory(positions=np.zeros((2, 7, 3)), mask=None, fps=30.0)
        with pytest.raises(ValidationError):
            fit_sequence(sk, traj)

    def test_reports_carry_loss_terms(self, rng):
        _, _, _, reports = self.fitted_roundtrip(rng, 5, 3)
        for rep in reports:
            for key in ("loss_total", "loss_pos", "loss_prior", "loss_twist", "iters",
                        "stop", "trials"):
                assert key in rep
            assert rep["loss_pos"] >= 0.0

    def test_fit_root_translation_tracks_moving_root(self, rng):
        n = 5
        sk = random_skeleton(rng, n)
        clip = smooth_clip(rng, n, 6)
        roots = rng.normal(size=(6, 3))
        moved = fk_sequence(sk, clip).positions + roots[:, None, :]
        from rigfit import JointTrajectory

        traj = JointTrajectory(positions=moved, mask=None, fps=30.0)
        fitted, _ = fit_sequence(sk, traj, FitConfig(fit_root_translation=True))
        out = fk_sequence(sk, fitted)
        assert mpjpe(out, traj) < 1e-3

    @pytest.mark.parametrize("n", [8, 16])
    def test_masked_root_fits_root_translation(self, rng, n):
        # nothing observes the root, so its position must come from the fit
        from rigfit import JointTrajectory

        sk = random_skeleton(rng, n)
        clip = smooth_clip(rng, n, 6)
        roots = rng.normal(size=(6, 3))
        mask = np.ones(n, dtype=bool)
        mask[0] = False
        traj = JointTrajectory(
            positions=fk_sequence(sk, clip).positions + roots[:, None, :], mask=mask, fps=30.0
        )
        fitted, reports = fit_sequence(sk, traj)
        out = fk_sequence(sk, fitted)
        out = JointTrajectory(positions=out.positions, mask=mask, fps=out.fps)
        assert mpjpe(out, traj) < 1e-3
        for rep in reports:
            assert any("root translation fitted" in d for d in rep["diagnostics"])

    @pytest.mark.parametrize("problem", [
        dict(n=12, frames=5, seed=21, noise=0.02),
        dict(n=24, frames=9, seed=22, bone_scale=1.15, noise=0.02, masked=4, fit_root=True),
        dict(n=10, frames=7, seed=23, noise=0.02, masked=2, masked_root=True),
    ], ids=["noisy12", "masked24", "masked_root10"])
    def test_window_never_shows_in_the_output(self, monkeypatch, problem):
        # fitted 1, 3 or _WINDOW frames at a time, the frames being
        # independent, the clip and the reports are the same bit for bit
        sk, trajectory, config = chain_problem(**problem)
        outputs = []
        for window in (1, 3, fit_module._WINDOW):
            monkeypatch.setattr(fit_module, "_WINDOW", window)
            clip, reports = fit_sequence(sk, trajectory, config)
            outputs.append((clip.rotations.tobytes(), clip.root_translation.tobytes(), reports))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_memory_is_bounded_by_the_window(self, monkeypatch):
        # eight windows of 16 frames peak under twice the traced memory of
        # one: what grows with the clip is its result, not the fit's arrays
        monkeypatch.setattr(fit_module, "_WINDOW", 16)
        sk, trajectory, config = chain_problem(24, 128, 31, bone_scale=1.15, noise=0.02,
                                               masked=4, fit_root=True)
        short = JointTrajectory(trajectory.positions[:16], trajectory.mask, trajectory.fps)
        fit_sequence(sk, short, config)  # one-time allocations fall outside the trace
        peaks = []
        for traj in (short, trajectory):
            tracemalloc.start()
            try:
                fit_sequence(sk, traj, config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0]


def chain_fit_losses(sk, trajectory, config):
    """The warm-start chain that fit_sequence once ran, kept as a reference:
    frame t > 0 starts from frame t - 1's refined rotations, anchored at its
    own geometric init, and a frame that ends above that init falls back to
    it. Returns the per-frame final losses."""
    mask = trajectory.mask
    if not mask[0]:
        config = replace(config, fit_root_translation=True)
    geo_rot, geo_root, _ = geometric_init(sk, trajectory.positions, mask)
    losses, start = [], geo_rot[0]
    for t, target in enumerate(trajectory.positions):
        res = refine_frame(sk, target, start, geo_rot[t], mask, config, geo_root[t])
        geo_loss = fit_loss(sk, geo_rot[t], target, geo_rot[t], mask, config, geo_root[t]).total
        if geo_loss < res.loss_terms[0]:
            losses.append(geo_loss)
            start = Pose(rotations=geo_rot[t]).rotations
        else:
            losses.append(res.loss_terms[0])
            start = res.pose.rotations
    return np.array(losses)


def chain_problem(n, frames, seed, bone_scale=1.0, noise=0.0, masked=0, fit_root=False,
                  masked_root=False):
    """A random clip like perfbench's: (skeleton, trajectory, config)."""
    rng = np.random.default_rng(seed)
    sk = random_skeleton(rng, n)
    positions = fk_sequence(scaled_skeleton(sk, bone_scale), smooth_clip(rng, n, frames)).positions
    positions = positions + rng.normal(size=(1, 1, 3)) + noise * rng.normal(size=positions.shape)
    mask = np.ones(n, dtype=bool)
    mask[rng.choice(np.arange(1, n), size=masked, replace=False)] = False
    mask[0] = not masked_root
    return sk, JointTrajectory(positions, mask, 30.0), FitConfig(fit_root_translation=fit_root)


class TestAgainstWarmStartChain:
    # a regression check, not a property: the two starts may reach different
    # minima, so it holds on these seeds rather than on every clip
    @pytest.mark.parametrize("problem", [
        dict(n=60, frames=8, seed=801),
        dict(n=24, frames=8, seed=802, bone_scale=1.15, noise=0.02, masked=4, fit_root=True),
        dict(n=12, frames=8, seed=803, masked=1),
    ], ids=["realizable60", "noisy24", "masked12"])
    def test_no_frame_ends_above_the_chain(self, monkeypatch, problem):
        monkeypatch.setattr(fit_module, "_GRAD_TOL", 1e-10)
        sk, trajectory, config = chain_problem(**problem)
        chain = chain_fit_losses(sk, trajectory, config)
        _, reports = fit_sequence(sk, trajectory, config)
        losses = np.array([rep["loss_total"] for rep in reports])
        assert np.all(losses <= chain * (1.0 + 1e-6))


class TestTwistSuppression:
    def test_chain_twist_reduced(self, rng):
        # 5-joint straight chain; perturb the init by 0.5 rad of twist about
        # each bone axis; refinement with the default twist weight must shed
        # at least 90% of the twist energy while keeping position accuracy
        n = 5
        sk = validate_skeleton(
            [f"j{i}" for i in range(n)],
            [-1, 0, 1, 2, 3],
            [[0, 0, 0]] + [[0.0, 0.25, 0.0]] * (n - 1),
        )
        clip = smooth_clip(rng, n, 1)
        target = forward_kinematics(sk, clip.frames[0])
        geo, _ = geometric_init_frame(sk, target)

        from rigfit.fit import _bone_axes

        u = _bone_axes(sk)
        perturbed = geo.rotations + 0.5 * u

        def twist_energy(theta):
            return float(np.sum(np.einsum("ic,ic->i", theta, u) ** 2))

        res = refine_frame(sk, target, perturbed, geo.rotations)
        e_init = twist_energy(perturbed)
        e_final = twist_energy(res.pose.rotations)
        assert e_final <= 0.1 * e_init
        err = np.linalg.norm(forward_kinematics(sk, res.pose) - target, axis=1).mean()
        assert err < 1e-3
