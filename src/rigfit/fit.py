"""Two-stage IK: closed-form geometric initialization of all frames at once,
then first-order refinement of axis-angle parameters with position, prior
and twist terms, frame by frame and warm-started across frames.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .rotations import (
    _norm,
    batch_axis_angle_jacobian,
    canonicalize_axis_angle,
    matrix_to_axis_angle,
    orthogonal_procrustes,
)
from .skeleton import Pose, clip_from_poses, fk_positions_and_frames

_DIR_EPS = 1e-9
_STEP_UNDERFLOW = 1e-16  # a damping above 1/_STEP_UNDERFLOW ends the refinement
_TAU = 0.1  # the first damping is _TAU * max diag(H)
_MU_FLOOR = 1e-12  # an accepted step never lowers the damping below this
_GRAD_TOL = 1e-6  # refinement stops once max |gradient| falls below this

STOP_REASONS = ("grad_tol", "max_iters", "damping_exhausted")


@dataclass(frozen=True)
class FitConfig:
    """Loss weights and iteration budget for the refinement stage.

    The loss weights must be finite and nonnegative. The damping starts at
    _TAU (0.1) times the largest diagonal entry of the Gauss-Newton matrix and
    follows the gain ratio; the iteration stops once max |gradient| <
    _GRAD_TOL (1e-6).
    """

    lambda_prior: float = 1e-3
    lambda_twist: float = 1e-4
    max_iters: int = 200
    fit_root_translation: bool = False

    def __post_init__(self):
        if not all(0.0 <= w < np.inf for w in (self.lambda_prior, self.lambda_twist)):
            raise ValidationError("loss weights must be finite and nonnegative")
        if self.max_iters < 1:
            raise ValidationError("the iteration budget must be positive")


class LossTerms(NamedTuple):
    total: float
    pos: float
    prior: float
    twist: float


@dataclass(frozen=True)
class FrameFitResult:
    """One refined frame. stop is one of STOP_REASONS; trials counts the
    accepted and the rejected trial steps."""

    pose: Pose
    final_loss: float
    iterations_used: int
    loss_terms: LossTerms
    accepted_losses: tuple
    stop: str
    trials: int
    diagnostics: tuple = field(default_factory=tuple)


def _bone_axes(skeleton):
    """Unit direction of each joint's own offset; zero rows where undefined."""
    lengths = np.where(skeleton.zero_offset, np.inf, _norm(skeleton.offsets))
    return skeleton.offsets / lengths[:, None]


def _solve_levels(skeleton):
    """Per tree depth from the root down, the joints that have children, (L,),
    and those children in ascending order, (L, K), padded with -1."""
    for level in skeleton.levels:  # the children of the joints one level up
        groups = {}
        for c, p in zip(np.atleast_1d(level.joints).tolist(),
                        np.atleast_1d(level.parents).tolist()):
            groups.setdefault(p, []).append(c)
        width = max(map(len, groups.values()))
        yield (np.array(list(groups)),
               np.array([kids + [-1] * (width - len(kids)) for kids in groups.values()]))


def geometric_init(skeleton, targets, mask=None):
    """Closed-form IK estimate of every frame by aligning bone directions.

    One pass down the tree by depth, each depth solved for all its joints
    and all T frames of the (T, N, 3) targets at once: a weighted orthogonal
    Procrustes fit of each joint's rest child bones onto the observed ones,
    which for a single weighted child is the minimal rotation. A child weighs
    0 when it is masked, its rest bone has zero length or its observed bone
    is degenerate in that frame, and so does the padding of joints with
    fewer children than others of their depth; a masked joint weighs all its
    children 0 and keeps identity, as do leaves. Returns rotations (T, N, 3),
    root translations (T, 3) and, per frame, a list of diagnostic strings for
    degenerate joints, in joint order.
    """
    n = skeleton.joint_count
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 3 or targets.shape[1:] != (n, 3):
        raise ValidationError("targets must be TxNx3 for this skeleton")
    mask = np.ones(n, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if not np.all(np.isfinite(targets[:, mask])):
        raise ValidationError("target has non-finite valid positions")
    targets = np.where(mask[:, None], targets, 0.0)  # masked positions are never read

    frames = targets.shape[0]
    names = skeleton.joint_names
    rest = _bone_axes(skeleton)
    usable = mask & ~skeleton.zero_offset
    local = np.tile(np.eye(3), (frames, n, 1, 1))
    G = np.empty((frames, n + 1, 3, 3))  # world rotations; the root's parent is column -1
    G[:, n] = np.eye(3)
    notes = {}  # joint -> [(frame, or None for every frame, note)], in joint order later
    for joints, kids in _solve_levels(skeleton):
        Gp = G[:, skeleton.parents[joints]]
        valid = (kids >= 0) & usable[kids] & mask[joints, None]
        obs = targets[:, kids] - targets[:, joints, None]
        obs_len = _norm(obs)
        short = valid & (obs_len < _DIR_EPS)
        weights = valid & ~short
        obs_dirs = obs / np.where(weights, obs_len, np.inf)[..., None]
        # observed directions in the parent's frame: Gp^T v, as row vectors
        R, degenerate = orthogonal_procrustes(rest[kids], obs_dirs @ Gp, weights)
        local[:, joints] = R
        G[:, joints] = Gp @ R
        for t, j, k in zip(*np.nonzero(short)):
            notes.setdefault(joints[j], []).append(
                (t, f"joint {names[joints[j]]}: observed bone to {names[kids[j, k]]} is degenerate"))
        for j in np.flatnonzero(~mask[joints]):
            notes.setdefault(joints[j], []).append(
                (None, f"joint {names[joints[j]]}: masked out, identity kept"))
        for t, j in zip(*np.nonzero(degenerate)):
            notes.setdefault(joints[j], []).append(
                (t, f"joint {names[joints[j]]}: zero Procrustes covariance"))
    diagnostics = [[] for _ in range(frames)]
    for joint in sorted(notes):
        for t, note in notes[joint]:
            for frame_notes in diagnostics if t is None else [diagnostics[t]]:
                frame_notes.append(note)
    rotations = canonicalize_axis_angle(matrix_to_axis_angle(local))
    roots = targets[:, 0] if mask[0] else np.zeros((frames, 3))
    return rotations, roots, diagnostics


def geometric_init_frame(skeleton, target, mask=None):
    """geometric_init of one (N, 3) target: (Pose, list of diagnostics)."""
    rotations, roots, diagnostics = geometric_init(skeleton, np.asarray(target)[None], mask)
    return Pose(rotations[0], root_translation=roots[0]), diagnostics[0]


def fit_loss(skeleton, theta, target, theta_geo, mask, config,
             root_translation=None, bone_axes=None, positions=None):
    """Total refinement loss and its three terms.

    pos: mean squared FK-to-target distance over mask-valid joints;
    prior: mean squared axis-angle distance to the geometric init (all joints);
    twist: mean squared rotation component parallel to each joint's own bone.
    positions, when given, are the FK positions of theta and root_translation,
    and FK is not run again.
    """
    n = skeleton.joint_count
    theta = np.asarray(theta, dtype=float).reshape(n, 3)
    theta_geo = np.asarray(theta_geo, dtype=float).reshape(n, 3)
    mask = np.asarray(mask, dtype=bool)
    if positions is None:
        if root_translation is None:
            root_translation = np.zeros(3)
        positions, _ = fk_positions_and_frames(skeleton, theta, root_translation)
    r = positions - target
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
    """Analytic gradient of the total loss, built as the LM solver builds it.

    If config.fit_root_translation is set, three root-translation components
    are appended, giving a (3N + 3)-vector; otherwise a 3N-vector.
    """
    n = skeleton.joint_count
    theta = np.asarray(theta, dtype=float).reshape(n, 3)
    theta_geo = np.asarray(theta_geo, dtype=float).reshape(n, 3)
    mask = np.asarray(mask, dtype=bool)
    if root_translation is None:
        root_translation = np.zeros(3)
    P, G = fk_positions_and_frames(skeleton, theta, root_translation)
    r_pos, J_pos = _residual_jacobian(
        skeleton, theta, target, mask, P, G, _descendant_mask(skeleton, mask),
        config.fit_root_translation,
    )
    return _gradient(r_pos, J_pos, theta, theta_geo, _bone_axes(skeleton), config)


def _descendant_mask(skeleton, mask):
    """W[i, k] = 1 where joint k is a mask-valid strict descendant of joint i."""
    n = skeleton.joint_count
    W = np.zeros((n, n))
    for joints, parents in skeleton.levels:  # a level's columns extend its parents'
        W[:, joints] = W[:, parents]
        W[parents, joints] = 1.0
    return W * mask[None, :]


def _residual_jacobian(skeleton, theta, target, mask, P, G, W, fit_root_translation):
    """Position residual rows and their Jacobian at the FK result (P, G).

    The position loss is exactly ||r_pos||^2, with rows scaled by sqrt(1/Nv).
    The prior and twist rows are linear in theta; they enter the solver in
    closed form (_gradient and _constant_curvature).
    """
    n = skeleton.joint_count
    a = np.sqrt(1.0 / int(mask.sum()))
    r_pos = (a * np.where(mask[:, None], P - target, 0.0)).ravel()
    Gp = np.empty((n, 3, 3))
    Gp[0] = np.eye(3)
    Gp[1:] = G[skeleton.parents[1:]]
    # T[i, a] = Gp_i Ja_ia Gi^T maps a local axis-angle nudge to world motion
    T = Gp[:, None] @ batch_axis_angle_jacobian(theta) @ G.transpose(0, 2, 1)[:, None]
    # DW[i, :, k] = a * (P_k - P_i) for mask-valid descendants k of i, else 0
    DW = (a * W)[:, None, :] * (P.T[None, :, :] - P[:, :, None])
    # d r_pos[3k + c] / d theta[i, a] = (T[i, a] @ DW[i, :, k])_c
    blocks = (T.reshape(n, 9, 3) @ DW).reshape(n, 3, 3, n)
    J_pos = np.zeros((3 * n, 3 * n + (3 if fit_root_translation else 0)))
    J_pos[:, : 3 * n] = blocks.transpose(3, 2, 0, 1).reshape(3 * n, 3 * n)
    if fit_root_translation:
        J_pos[:, 3 * n :] = (a * mask[:, None, None] * np.eye(3)).reshape(3 * n, 3)
    return r_pos, J_pos


def _gradient(r_pos, J_pos, theta, theta_geo, bone_axes, config):
    """Gradient of the total loss: 2 J_pos^T r_pos plus the closed-form
    gradient of the prior and twist terms."""
    n = theta.shape[0]
    twist = np.einsum("ic,ic->i", theta, bone_axes)[:, None] * bone_axes
    g = 2.0 * (J_pos.T @ r_pos)
    g[: 3 * n] += (2.0 / n) * (
        config.lambda_prior * (theta - theta_geo) + config.lambda_twist * twist
    ).ravel()
    return g


def _constant_curvature(params, bone_axes, config):
    """The prior and twist part of the Gauss-Newton matrix, which does not
    depend on theta: 2 (lambda_prior/N I + lambda_twist/N blockdiag(u u^T)),
    zero on the root translation."""
    n = bone_axes.shape[0]
    blocks = config.lambda_prior * np.eye(3) + config.lambda_twist * (
        bone_axes[:, :, None] * bone_axes[:, None, :]
    )
    diag = np.zeros((n, 3, n, 3))
    diag[np.arange(n), :, np.arange(n), :] = (2.0 / n) * blocks
    H = np.zeros((params, params))
    H[: 3 * n, : 3 * n] = diag.reshape(3 * n, 3 * n)
    return H


def refine_frame(skeleton, target, theta_init, theta_geo, mask=None, config=None,
                 root_translation=None):
    """Damped least-squares refinement from theta_init, anchored at theta_geo.

    Each iteration solves (H + mu I) delta = -g with H = 2 J^T J from
    first-derivative information only; a trial step is accepted only when
    the total loss decreases, otherwise the damping grows and the step
    shrinks. The damping follows Marquardt-Nielsen's gain-ratio rule (Madsen,
    Nielsen & Tingleff 2004, sec. 3.2): it starts at _TAU * max diag(H), an
    accepted step scales it by max(1/3, 1 - (2 rho - 1)^3), where rho is the
    actual over the predicted decrease, and each rejection scales it by nu,
    which doubles per rejection in a row. The accepted-iterate loss sequence
    is therefore non-increasing, and the result never scores worse than the
    geometric initialization (the better of the two is returned). theta_init
    and theta_geo are (N, 3) rotations; root_translation (zeros by default)
    is the start's and the geometric initialization's root translation. The
    result's stop says which of STOP_REASONS ended the iteration.
    """
    if config is None:
        config = FitConfig()
    n = skeleton.joint_count
    target = np.asarray(target, dtype=float)
    mask = np.ones(n, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    geo_rot = np.reshape(theta_geo, (n, 3))
    init_rot = np.asarray(theta_init, dtype=float)
    root_t = np.zeros(3) if root_translation is None else np.asarray(root_translation, float)

    fit_root = config.fit_root_translation
    bone_axes = _bone_axes(skeleton)
    W = _descendant_mask(skeleton, mask)
    params = 3 * n + (3 if fit_root else 0)
    H_const = _constant_curvature(params, bone_axes, config)
    eye = np.eye(params)

    def unpack(x):
        if fit_root:
            return x[: 3 * n].reshape(n, 3), x[3 * n :]
        return x.reshape(n, 3), root_t

    def evaluate(x):
        """Loss at x and the FK result it used, kept for the next Jacobian."""
        th, rt = unpack(x)
        P, G = fk_positions_and_frames(skeleton, th, rt)
        terms = fit_loss(skeleton, th, target, geo_rot, mask, config, rt, bone_axes, P)
        return terms, (P, G)

    x = np.concatenate([init_rot.ravel(), root_t] if fit_root else [init_rot.ravel()])

    terms, fk = evaluate(x)
    accepted = [terms.total]
    mu, nu = None, 2.0
    iters = trials = 0
    stop = "max_iters"
    for _ in range(config.max_iters):
        th, _ = unpack(x)
        r_pos, J_pos = _residual_jacobian(skeleton, th, target, mask, *fk, W, fit_root)
        g = _gradient(r_pos, J_pos, th, geo_rot, bone_axes, config)
        if np.max(np.abs(g)) < _GRAD_TOL:
            stop = "grad_tol"
            break
        H = 2.0 * (J_pos.T @ J_pos) + H_const
        if mu is None:
            mu = _TAU * np.max(np.diag(H))  # > 0 wherever g != 0
        moved = False
        while mu < 1.0 / _STEP_UNDERFLOW:
            delta = np.linalg.solve(H + mu * eye, -g)
            x_new = x + delta
            terms_new, fk_new = evaluate(x_new)
            trials += 1
            if terms_new.total < terms.total:
                # the decrease the quadratic model predicts, as (H + mu I) delta = -g
                predicted = 0.5 * (delta @ (mu * delta - g))
                rho = (terms.total - terms_new.total) / predicted
                mu = max(mu * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), _MU_FLOOR)
                nu = 2.0
                x, terms, fk = x_new, terms_new, fk_new
                accepted.append(terms.total)
                moved = True
                break
            mu *= nu
            nu *= 2.0
        iters += 1
        if not moved:
            stop = "damping_exhausted"
            break

    diagnostics = []
    theta_final, root_final = unpack(x)
    geo_terms = fit_loss(
        skeleton, geo_rot, target, geo_rot, mask, config, root_t, bone_axes
    )
    if geo_terms.total < terms.total:
        # warm start came in above the closed-form estimate; keep the better one
        theta_final, root_final, terms = geo_rot, root_t, geo_terms
        accepted.append(terms.total)
        diagnostics.append("refinement fell back to the geometric initialization")

    return FrameFitResult(
        pose=Pose(rotations=theta_final, root_translation=root_final),
        final_loss=terms.total,
        iterations_used=iters,
        loss_terms=terms,
        accepted_losses=tuple(accepted),
        stop=stop,
        trials=trials,
        diagnostics=tuple(diagnostics),
    )


def fit_sequence(skeleton, trajectory, config=None):
    """Fit a whole trajectory: geometric init of all frames, then warm-started
    refinement frame by frame.

    Frame 0 starts from its own geometric estimate; frame t > 0 starts from
    the previous frame's refined rows as they are, with the prior anchored at
    frame t's own estimate. Root translation is read from the trajectory's
    root joint and further optimized when config.fit_root_translation is set.
    A masked root gives no position to read, so its translation is then
    always optimized, and each frame's diagnostics say so.

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
    geo_rot, geo_root, geo_diag = geometric_init(skeleton, trajectory.positions, trajectory.mask)
    poses, reports = [], []
    for t in range(trajectory.frame_count):
        start = poses[-1].rotations if poses else geo_rot[t]
        result = refine_frame(
            skeleton, trajectory.positions[t], start, geo_rot[t], trajectory.mask, config,
            root_translation=geo_root[t],
        )
        poses.append(result.pose)
        reports.append(
            {
                "loss_total": result.loss_terms.total,
                "loss_pos": result.loss_terms.pos,
                "loss_prior": result.loss_terms.prior,
                "loss_twist": result.loss_terms.twist,
                "iters": result.iterations_used,
                "stop": result.stop,
                "trials": result.trials,
                "accepted_losses": list(result.accepted_losses),
                "diagnostics": root_diag + geo_diag[t] + list(result.diagnostics),
            }
        )
    return clip_from_poses(poses, trajectory.fps), reports
