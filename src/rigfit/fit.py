"""Two-stage IK: closed-form geometric initialization of all frames at once,
then first-order refinement of axis-angle parameters with position, prior
and twist terms, frame by frame, each frame from its own geometric estimate.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dposv

from .errors import ValidationError
from .rotations import (
    _norm,
    canonicalize_axis_angle,
    left_jacobian,
    matrix_to_axis_angle,
    orthogonal_procrustes,
    skew,
)
from .skeleton import AnimationClip, Pose, fk_positions_and_frames

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
    """One refined frame: rotations (N, 3), not yet canonicalized, and root
    translation (3,). stop is one of STOP_REASONS; trials counts the accepted
    and the rejected trial steps."""

    rotations: np.ndarray
    root_translation: np.ndarray
    final_loss: float
    iterations_used: int
    loss_terms: LossTerms
    accepted_losses: tuple
    stop: str
    trials: int

    @property
    def pose(self):
        return Pose(self.rotations, self.root_translation)


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
    if root_translation is None:
        root_translation = np.zeros(3)
    P, G = fk_positions_and_frames(skeleton, theta, root_translation)
    system = _normal_system(skeleton, np.asarray(mask, dtype=bool), config)
    return _normal_equations(system, theta, target, theta_geo, P, G)[1]


def _descendant_mask(skeleton, mask):
    """W[i, k] = 1 where joint k is a mask-valid strict descendant of joint i."""
    return np.where(mask[None, :], skeleton.descendants, 0.0)


class _NormalSystem(NamedTuple):
    """What _normal_equations reads of one frame's rig, mask and config."""

    params: int  # 3N, plus 3 when the root translation is fitted
    parents: np.ndarray  # (N - 1,) the parents of joints 1..N-1
    mask: np.ndarray  # (N,) valid joints
    W: np.ndarray  # _descendant_mask
    counts: np.ndarray  # (N,) each joint's valid strict descendants
    scale: float  # 2 / Nv, Nv the number of valid joints
    pairs: tuple  # (i, j): i is j or an ancestor of j, so i <= j
    diagonal: np.ndarray  # the pairs with i == j
    scatter: tuple  # flat positions in H of each pair's block entries: transposed, as is
    curvature: np.ndarray  # (N, 3, 3) prior and twist blocks of H
    bone_axes: np.ndarray
    config: FitConfig


def _normal_system(skeleton, mask, config):
    """The parts of _normal_equations that stay fixed through a frame's refinement."""
    n = skeleton.joint_count
    params = 3 * n + (3 if config.fit_root_translation else 0)
    W = _descendant_mask(skeleton, mask)
    i, j = np.nonzero(skeleton.descendants | np.eye(n, dtype=bool))
    rows = 3 * i[:, None, None] + np.arange(3)[:, None]  # of the entries of each pair's block
    cols = 3 * j[:, None, None] + np.arange(3)
    u = _bone_axes(skeleton)
    # the prior and twist residuals are linear in theta, so their part of H
    # is constant: 2 (lambda_prior/N I + lambda_twist/N u u^T) per joint
    curvature = (2.0 / n) * (config.lambda_prior * np.eye(3)
                             + config.lambda_twist * u[:, :, None] * u[:, None, :])
    return _NormalSystem(
        params=params, parents=skeleton.parents[1:], mask=mask, W=W, counts=W.sum(axis=1),
        scale=2.0 / int(mask.sum()), pairs=(i, j), diagonal=np.flatnonzero(i == j),
        scatter=((cols * params + rows).ravel(), (rows * params + cols).ravel()),
        curvature=curvature, bone_axes=u, config=config,
    )


def _normal_equations(system, theta, target, theta_geo, P, G):
    """The Gauss-Newton matrix H = 2 J^T J and the gradient g = 2 J^T r of
    the total loss at theta and its FK result (P, G), in closed form from
    sums over subtrees; the Jacobian J is never formed.

    Joint i's theta turns its subtree at the world rate Omega_i =
    G_parent(i) J_l(theta_i) (left_jacobian), so with Q = P - P_root the
    position rows of valid joint k against joint i, k a strict descendant, are
    -sqrt(1/Nv) [Q_k - Q_i]_x Omega_i. For i equal to j or one of its
    ancestors, the subtrees meet in j's, and
        H_ij = 2/Nv Omega_i^T (C_j + [Q_i]_x [s_j]_x) Omega_j,
        C_j = sum_k [Q_k]_x^T [Q_k - Q_j]_x,  s_j = sum_k (Q_k - Q_j),
        g_i = 2/Nv Omega_i^T sum_k (Q_k - Q_i) x (P_k - target_k),
    with k over j's (for g, i's) valid strict descendants; H_ji = H_ij^T and
    the other blocks are 0. The sums come from one product with W
    (_descendant_mask). With the root translation fitted, it moves every
    valid joint: its blocks are 2 I against itself and 2/Nv Omega_i^T [s_i]_x
    against joint i, and its gradient 2/Nv sum_k (P_k - target_k). The
    constant prior and twist blocks and their gradient are added.
    """
    n = theta.shape[0]
    config = system.config
    Om = left_jacobian(theta)
    Om[1:] = G[system.parents] @ Om[1:]
    Omt = Om.transpose(0, 2, 1)
    Q = P - P[0]
    KQ = skew(Q)
    res = np.where(system.mask[:, None], P - target, 0.0)
    F = np.empty((n, 18))  # per joint: Q, [Q]_x^T [Q]_x, residual, Q x residual
    F[:, :3] = Q
    F[:, 3:12] = (KQ.transpose(0, 2, 1) @ KQ).reshape(n, 9)
    F[:, 12:15] = res
    F[:, 15:] = (KQ @ res[:, :, None])[..., 0]
    S = system.W @ F  # the same, summed over each joint's valid strict descendants
    s = S[:, :3] - system.counts[:, None] * Q
    C = S[:, 3:12].reshape(n, 3, 3) + skew(S[:, :3]) @ KQ
    # H_ij = L_i R_j with L_i = Omega_i^T [I, [Q_i]_x], R_j = 2/Nv [C_j; [s_j]_x] Omega_j
    L = np.concatenate([Omt, Omt @ KQ], axis=2)
    R = np.concatenate([C @ Om, skew(s) @ Om], axis=1)
    R *= system.scale
    i, j = system.pairs
    blocks = L[i] @ R[j]
    blocks[system.diagonal] += system.curvature
    H = np.zeros((system.params, system.params))
    values = blocks.ravel()
    H.put(system.scatter[0], values)  # each block's transpose below the diagonal,
    H.put(system.scatter[1], values)  # then the block above it, or on it as it is
    # sum_k (Q_k - Q_i) x r_k = sum_k Q_k x r_k - Q_i x sum_k r_k
    turn = S[:, 15:] - (KQ @ S[:, 12:15, None])[..., 0]
    u = system.bone_axes
    twist = np.einsum("ic,ic->i", theta, u)[:, None] * u
    g = np.empty(system.params)
    g[: 3 * n] = (system.scale * (Omt @ turn[..., None])[..., 0]
                  + (2.0 / n) * (config.lambda_prior * (theta - theta_geo)
                                 + config.lambda_twist * twist)).ravel()
    if config.fit_root_translation:
        H_root = -R[:, 3:].transpose(0, 2, 1).reshape(3 * n, 3)  # 2/Nv Omega_i^T [s_i]_x
        H[: 3 * n, 3 * n :] = H_root
        H[3 * n :, : 3 * n] = H_root.T
        H[3 * n :, 3 * n :] = 2.0 * np.eye(3)
        g[3 * n :] = system.scale * res.sum(axis=0)
    return H, g


def _damped_step(H, g, mu):
    """The step delta of (H + mu I) delta = -g by Cholesky, or None when
    H + mu I is not positive definite in floating point."""
    A = H.copy()
    A.flat[:: A.shape[0] + 1] += mu
    # A is symmetric, so its transpose, a Fortran-ordered view, is factored in place
    _, delta, info = dposv(A.T, -g, overwrite_a=True, overwrite_b=True)
    return delta if info == 0 else None


def refine_frame(skeleton, target, theta_init, theta_geo, mask=None, config=None,
                 root_translation=None):
    """Damped least-squares refinement from theta_init, anchored at theta_geo.

    Each iteration solves (H + mu I) delta = -g by Cholesky, with H = 2 J^T J
    and g built from first-derivative information only (_normal_equations);
    a trial step is accepted only when the total loss decreases, otherwise
    the damping grows and the step shrinks, and so it does when H + mu I
    does not factor. The damping follows Marquardt-Nielsen's gain-ratio rule
    (Madsen, Nielsen & Tingleff 2004, sec. 3.2): it starts at _TAU * max diag(H), an
    accepted step scales it by max(1/3, 1 - (2 rho - 1)^3), where rho is the
    actual over the predicted decrease, and each rejection scales it by nu,
    which doubles per rejection in a row. The accepted-iterate loss sequence
    is therefore non-increasing, and the result never scores above its start.
    theta_init and theta_geo are (N, 3) rotations, the same ones when
    fit_sequence calls it; root_translation (zeros by default) is the start's
    and the geometric initialization's root translation. The result's stop
    says which of STOP_REASONS ended the iteration.
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
    system = _normal_system(skeleton, mask, config)
    bone_axes = system.bone_axes

    def unpack(x):
        if fit_root:
            return x[: 3 * n].reshape(n, 3), x[3 * n :]
        return x.reshape(n, 3), root_t

    def evaluate(x):
        """Loss at x and the FK result it used, kept for the next normal equations."""
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
        H, g = _normal_equations(system, unpack(x)[0], target, geo_rot, *fk)
        if np.max(np.abs(g)) < _GRAD_TOL:
            stop = "grad_tol"
            break
        if mu is None:
            mu = _TAU * np.max(H.diagonal())  # > 0 wherever g != 0
        moved = False
        while mu < 1.0 / _STEP_UNDERFLOW:
            trials += 1
            delta = _damped_step(H, g, mu)
            if delta is not None:  # else H + mu I failed to factor: a rejected trial
                x_new = x + delta
                terms_new, fk_new = evaluate(x_new)
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

    return FrameFitResult(
        *unpack(x),
        final_loss=terms.total,
        iterations_used=iters,
        loss_terms=terms,
        accepted_losses=tuple(accepted),
        stop=stop,
        trials=trials,
    )


def fit_sequence(skeleton, trajectory, config=None):
    """Fit a whole trajectory: geometric init of all frames, then each frame
    refined from its own geometric estimate and anchored there, so that no
    frame scores above its estimate.

    Root translation is read from the trajectory's root joint and further
    optimized when config.fit_root_translation is set. A masked root gives no
    position to read, so its translation is then always optimized, and each
    frame's diagnostics say so.

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
    rotations, roots, geo_diag = geometric_init(skeleton, trajectory.positions, trajectory.mask)
    reports = []
    for t in range(trajectory.frame_count):
        result = refine_frame(
            skeleton, trajectory.positions[t], rotations[t], rotations[t], trajectory.mask,
            config, root_translation=roots[t],
        )
        rotations[t], roots[t] = result.rotations, result.root_translation  # refined in place
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
                "diagnostics": root_diag + geo_diag[t],
            }
        )
    return AnimationClip(rotations, roots, trajectory.fps), reports
