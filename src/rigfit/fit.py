"""Two-stage IK: closed-form geometric initialization per frame, then
first-order refinement of axis-angle parameters with position, prior and
twist terms, warm-started across frames.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .rotations import (
    batch_axis_angle_jacobian,
    matrix_to_axis_angle,
    orthogonal_procrustes,
    rotation_between_vectors,
)
from .skeleton import AnimationClip, Pose, fk_positions_and_frames

_DIR_EPS = 1e-9
_STEP_UNDERFLOW = 1e-16


@dataclass(frozen=True)
class FitConfig:
    """Loss weights and iteration budget for the refinement stage.

    step_init seeds the damping of the refinement step as 1/step_init;
    larger values start with bolder steps.
    """

    lambda_prior: float = 1e-3
    lambda_twist: float = 1e-4
    max_iters: int = 200
    grad_tol: float = 1e-6
    step_init: float = 1e-1
    fit_root_translation: bool = False

    def __post_init__(self):
        if self.lambda_prior < 0.0 or self.lambda_twist < 0.0:
            raise ValidationError("loss weights must be nonnegative")
        if self.max_iters < 1 or self.grad_tol <= 0.0 or self.step_init <= 0.0:
            raise ValidationError("iteration budget and tolerances must be positive")


class LossTerms(NamedTuple):
    total: float
    pos: float
    prior: float
    twist: float


@dataclass(frozen=True)
class FrameFitResult:
    pose: Pose
    final_loss: float
    iterations_used: int
    init_pose: Pose  # the geometric-initialization frame
    loss_terms: LossTerms
    accepted_losses: tuple
    diagnostics: tuple = field(default_factory=tuple)


def _bone_axes(skeleton):
    """Unit direction of each joint's own offset; zero rows where undefined."""
    u = np.zeros((skeleton.joint_count, 3))
    lengths = np.linalg.norm(skeleton.offsets, axis=1)
    ok = ~skeleton.zero_offset & (lengths > 0.0)
    u[ok] = skeleton.offsets[ok] / lengths[ok, None]
    return u


def geometric_init_frame(skeleton, target, mask=None):
    """Closed-form per-frame IK estimate by aligning bone directions.

    Parent-first traversal: single-child joints align the rest bone with the
    observed bone via the minimal axis-angle rotation, multi-child joints
    solve an orthogonal Procrustes problem over all valid children.  Leaves,
    masked joints and zero-length bones keep identity.  Returns the pose and
    a list of diagnostic strings for degenerate joints.
    """
    n = skeleton.joint_count
    target = np.asarray(target, dtype=float)
    if target.shape != (n, 3):
        raise ValidationError("target must be Nx3 for this skeleton")
    if mask is None:
        mask = np.ones(n, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
    if not np.all(np.isfinite(target[mask])):
        raise ValidationError("target has non-finite valid positions")

    children = skeleton.children()
    zero_bone = skeleton.zero_offset
    local = np.empty((n, 3, 3))
    G = np.empty((n, 3, 3))
    diagnostics = []
    for i in range(n):
        p = skeleton.parents[i]
        Gp = np.eye(3) if p < 0 else G[p]
        rest_dirs = []
        obs_dirs = []
        if mask[i]:
            for c in children[i]:
                if not mask[c] or zero_bone[c]:
                    continue
                obs = target[c] - target[i]
                obs_len = np.linalg.norm(obs)
                if obs_len < _DIR_EPS:
                    diagnostics.append(
                        f"joint {skeleton.joint_names[i]}: observed bone to "
                        f"{skeleton.joint_names[c]} is degenerate"
                    )
                    continue
                rest_dirs.append(skeleton.offsets[c] / np.linalg.norm(skeleton.offsets[c]))
                obs_dirs.append(Gp.T @ (obs / obs_len))
        elif children[i]:
            diagnostics.append(
                f"joint {skeleton.joint_names[i]}: masked out, identity kept"
            )
        if len(rest_dirs) == 0:
            R = np.eye(3)
        elif len(rest_dirs) == 1:
            R = rotation_between_vectors(rest_dirs[0], obs_dirs[0])
        else:
            R, degenerate = orthogonal_procrustes(rest_dirs, obs_dirs)
            if degenerate:
                diagnostics.append(
                    f"joint {skeleton.joint_names[i]}: zero Procrustes covariance"
                )
        local[i] = R
        G[i] = Gp @ R
    root_t = target[0] if mask[0] else np.zeros(3)
    return Pose(matrix_to_axis_angle(local), root_translation=root_t), diagnostics


def fit_loss(skeleton, theta, target, theta_geo, mask, config,
             root_translation=None, bone_axes=None):
    """Total refinement loss and its three terms.

    pos: mean squared FK-to-target distance over mask-valid joints;
    prior: mean squared axis-angle distance to the geometric init (all joints);
    twist: mean squared rotation component parallel to each joint's own bone.
    """
    n = skeleton.joint_count
    theta = np.asarray(theta, dtype=float).reshape(n, 3)
    theta_geo = np.asarray(theta_geo, dtype=float).reshape(n, 3)
    mask = np.asarray(mask, dtype=bool)
    if root_translation is None:
        root_translation = np.zeros(3)
    P, _ = fk_positions_and_frames(skeleton, theta, root_translation)
    r = P - target
    nv = int(mask.sum())
    l_pos = float(np.sum(r[mask] ** 2) / nv)
    l_prior = float(np.sum((theta - theta_geo) ** 2) / n)
    u = _bone_axes(skeleton) if bone_axes is None else bone_axes
    twists = np.einsum("ic,ic->i", theta, u)
    l_twist = float(np.sum(twists**2) / n)
    total = l_pos + config.lambda_prior * l_prior + config.lambda_twist * l_twist
    return LossTerms(total=total, pos=l_pos, prior=l_prior, twist=l_twist)


def fit_loss_gradient(
    skeleton, theta, target, theta_geo, mask, config, root_translation=None
):
    """Analytic gradient of the total loss: 2 J^T r of the solver's residual.

    If config.fit_root_translation is set, three root-translation components
    are appended, giving a (3N + 3)-vector; otherwise a 3N-vector.
    """
    n = skeleton.joint_count
    theta = np.asarray(theta, dtype=float).reshape(n, 3)
    theta_geo = np.asarray(theta_geo, dtype=float).reshape(n, 3)
    mask = np.asarray(mask, dtype=bool)
    if root_translation is None:
        root_translation = np.zeros(3)
    r, J = _residual_jacobian(
        skeleton, theta, target, theta_geo, mask, config, root_translation,
        _descendant_lists(skeleton),
    )
    return 2.0 * (J.T @ r)


def _descendant_lists(skeleton):
    """Strict-descendant index arrays per joint (canonical order)."""
    n = skeleton.joint_count
    desc = [[] for _ in range(n)]
    for k in range(n - 1, 0, -1):
        p = skeleton.parents[k]
        desc[p].append(k)
        desc[p].extend(desc[k])
    return [np.array(sorted(d), dtype=int) for d in desc]


def _residual_jacobian(skeleton, theta, target, theta_geo, mask, config,
                       root_translation, descendants, bone_axes=None):
    """Stacked residual vector and its Jacobian for the damped-step solver.

    The loss is exactly ||r||^2: position rows scaled by sqrt(1/Nv), prior
    rows by sqrt(lambda_prior/N), twist rows by sqrt(lambda_twist/N).
    """
    n = skeleton.joint_count
    P, G = fk_positions_and_frames(skeleton, theta, root_translation)
    nv = int(mask.sum())
    params = 3 * n + (3 if config.fit_root_translation else 0)
    a = np.sqrt(1.0 / nv)

    r_pos = (a * np.where(mask[:, None], P - target, 0.0)).ravel()
    J_pos = np.zeros((3 * n, params))
    Ja_all = batch_axis_angle_jacobian(theta)
    Gp_all = np.empty((n, 3, 3))
    Gp_all[0] = np.eye(3)
    Gp_all[1:] = G[skeleton.parents[1:]]
    # T[i, a] = Gp_i Ja_ia Gi^T maps a local axis-angle nudge to world motion
    T_all = np.einsum("ice,iaef,idf->iacd", Gp_all, Ja_all, G)
    W = np.zeros((n, n))
    for i, d_idx in enumerate(descendants):
        W[i, d_idx] = 1.0
    W *= mask[None, :]
    D = P[None, :, :] - P[:, None, :]  # D[i, k] = P_k - P_i
    # d r_pos[3k+c] / d theta[i, a] = a * (T[i, a] @ (P_k - P_i))_c for
    # mask-valid descendants k of i
    blocks = a * np.einsum("iacd,ikd,ik->kcia", T_all, D, W)
    J_pos[:, : 3 * n] = blocks.reshape(3 * n, 3 * n)
    if config.fit_root_translation:
        for k in range(n):
            if mask[k]:
                J_pos[3 * k : 3 * k + 3, 3 * n :] = a * np.eye(3)

    b = np.sqrt(config.lambda_prior / n)
    r_prior = (b * (theta - theta_geo)).ravel()
    J_prior = np.zeros((3 * n, params))
    J_prior[:, : 3 * n] = b * np.eye(3 * n)

    c = np.sqrt(config.lambda_twist / n)
    u = _bone_axes(skeleton) if bone_axes is None else bone_axes
    r_twist = c * np.einsum("ic,ic->i", theta, u)
    J_twist = np.zeros((n, params))
    for i in range(n):
        J_twist[i, 3 * i : 3 * i + 3] = c * u[i]

    r = np.concatenate([r_pos, r_prior, r_twist])
    J = np.vstack([J_pos, J_prior, J_twist])
    return r, J


def refine_frame(skeleton, target, theta_init, theta_geo, mask=None, config=None):
    """Damped least-squares refinement from theta_init, anchored at theta_geo.

    Each iteration solves (2 J^T J + mu I) delta = -g from first-derivative
    information only; a trial step is accepted only when the total loss
    decreases (damping relaxes), otherwise the damping grows and the step
    shrinks. The accepted-iterate loss sequence is therefore non-increasing,
    and the result never scores worse than the geometric initialization (the
    better of the two is returned). theta_init carries the starting rotations
    and root translation.
    """
    if config is None:
        config = FitConfig()
    n = skeleton.joint_count
    target = np.asarray(target, dtype=float)
    if mask is None:
        mask = np.ones(n, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
    geo_rot = theta_geo.rotations if isinstance(theta_geo, Pose) else np.asarray(theta_geo)
    if isinstance(theta_init, Pose):
        init_rot = theta_init.rotations
        root_t = theta_init.root_translation
    else:
        init_rot = np.asarray(theta_init, dtype=float)
        root_t = np.zeros(3)

    fit_root = config.fit_root_translation
    descendants = _descendant_lists(skeleton)
    bone_axes = _bone_axes(skeleton)

    def unpack(x):
        if fit_root:
            return x[: 3 * n].reshape(n, 3), x[3 * n :]
        return x.reshape(n, 3), root_t

    def loss_of(x):
        th, rt = unpack(x)
        return fit_loss(
            skeleton, th, target, geo_rot, mask, config, rt, bone_axes
        )

    if fit_root:
        x = np.concatenate([init_rot.ravel(), root_t])
    else:
        x = init_rot.ravel().copy()

    terms = loss_of(x)
    accepted = [terms.total]
    mu = 1.0 / config.step_init
    iters = 0
    for _ in range(config.max_iters):
        th, rt = unpack(x)
        r, J = _residual_jacobian(
            skeleton, th, target, geo_rot, mask, config, rt, descendants,
            bone_axes,
        )
        g = 2.0 * (J.T @ r)
        if np.max(np.abs(g)) < config.grad_tol:
            break
        H = 2.0 * (J.T @ J)
        moved = False
        while mu < 1.0 / _STEP_UNDERFLOW:
            delta = np.linalg.solve(H + mu * np.eye(H.shape[0]), -g)
            x_new = x + delta
            terms_new = loss_of(x_new)
            if terms_new.total < terms.total:
                x, terms = x_new, terms_new
                accepted.append(terms.total)
                mu = max(mu / 3.0, 1e-12)
                moved = True
                break
            mu *= 4.0
        iters += 1
        if not moved:
            break

    diagnostics = []
    theta_final, root_final = unpack(x)
    geo_root = theta_geo.root_translation if isinstance(theta_geo, Pose) else root_t
    geo_terms = fit_loss(
        skeleton, geo_rot, target, geo_rot, mask, config, geo_root, bone_axes
    )
    if geo_terms.total < terms.total:
        # warm start came in above the closed-form estimate; keep the better one
        theta_final, root_final, terms = geo_rot, geo_root, geo_terms
        accepted.append(terms.total)
        diagnostics.append("refinement fell back to the geometric initialization")

    init_pose = (
        theta_geo
        if isinstance(theta_geo, Pose)
        else Pose(rotations=geo_rot, root_translation=root_t)
    )
    return FrameFitResult(
        pose=Pose(rotations=theta_final, root_translation=root_final),
        final_loss=terms.total,
        iterations_used=iters,
        init_pose=init_pose,
        loss_terms=terms,
        accepted_losses=tuple(accepted),
        diagnostics=tuple(diagnostics),
    )


def fit_sequence(skeleton, trajectory, config=None):
    """Fit a whole trajectory: per-frame geometric init, warm-started refinement.

    Frame 0 starts from its own geometric estimate; frame t > 0 starts from
    the previous solution with the prior anchored at frame t's own estimate.
    Root translation is read from the trajectory's root joint and further
    optimized when config.fit_root_translation is set. A masked root gives
    no position to read, so its translation is then always optimized, and
    each frame's diagnostics say so.

    Returns (AnimationClip, per-frame diagnostics dicts).
    """
    if config is None:
        config = FitConfig()
    if trajectory.joint_count != skeleton.joint_count:
        raise ValidationError("trajectory joint count does not match skeleton")
    root_diag = []
    if not trajectory.mask[0] and not config.fit_root_translation:
        config = replace(config, fit_root_translation=True)
        root_diag = ["root joint masked out: root translation fitted"]
    rotations, roots, reports = [], [], []
    for t in range(trajectory.frame_count):
        target = trajectory.positions[t]
        geo_pose, geo_diag = geometric_init_frame(skeleton, target, trajectory.mask)
        start = geo_pose
        if rotations:  # warm start from the previous frame's solution
            start = Pose(rotations=rotations[-1], root_translation=geo_pose.root_translation)
        result = refine_frame(
            skeleton, target, start, geo_pose, trajectory.mask, config
        )
        rotations.append(result.pose.rotations)
        roots.append(result.pose.root_translation)
        reports.append(
            {
                "loss_total": result.loss_terms.total,
                "loss_pos": result.loss_terms.pos,
                "loss_prior": result.loss_terms.prior,
                "loss_twist": result.loss_terms.twist,
                "iters": result.iterations_used,
                "accepted_losses": list(result.accepted_losses),
                "diagnostics": root_diag + list(geo_diag) + list(result.diagnostics),
            }
        )
    return AnimationClip(np.stack(rotations), np.stack(roots), fps=trajectory.fps), reports
