"""Two-stage IK: closed-form geometric initialization of all frames at once,
then first-order refinement of axis-angle parameters with position, prior
and twist terms, every frame of a clip in lockstep, each from its own
geometric estimate.
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
    """Loss weights, finite and nonnegative, and iteration budget for the
    refinement stage (refine_clip)."""

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
    """Total refinement loss and its three terms, of one frame or of a stack.

    pos: mean squared FK-to-target distance over mask-valid joints;
    prior: mean squared axis-angle distance to the geometric init (all joints);
    twist: mean squared rotation component parallel to each joint's own bone.
    target is (N, 3), and the terms are floats, or (T, N, 3), and the terms
    are (T,) arrays; theta, theta_geo and root_translation have the same
    leading axis. positions, when given, are the FK positions of theta and
    root_translation, and FK is not run again.
    """
    n = skeleton.joint_count
    target = np.asarray(target, dtype=float)
    lead = target.shape[:-2]
    theta, theta_geo = (np.asarray(v, float).reshape(lead + (n, 3)) for v in (theta, theta_geo))
    mask = np.asarray(mask, dtype=bool)
    if positions is None:
        root = np.zeros(3) if root_translation is None else root_translation
        positions, _ = fk_positions_and_frames(skeleton, theta, root)
    nv = int(mask.sum())
    # each frame's squares summed as one flat row, as a sum over one frame adds them
    r = (positions - target)[..., mask, :]
    l_pos = np.sum((r**2).reshape(lead + (3 * nv,)), axis=-1) / nv
    l_prior = np.sum(((theta - theta_geo) ** 2).reshape(lead + (3 * n,)), axis=-1) / n
    u = _bone_axes(skeleton) if bone_axes is None else bone_axes
    twists = np.einsum("...ic,ic->...i", theta, u)
    l_twist = np.sum(twists**2, axis=-1) / n
    total = l_pos + config.lambda_prior * l_prior + config.lambda_twist * l_twist
    terms = (total, l_pos, l_prior, l_twist)
    return LossTerms(*(map(float, terms) if not lead else terms))


def fit_loss_gradient(skeleton, theta, target, theta_geo, mask, config, root_translation=None):
    """Analytic gradient of the total loss, built as the LM solver builds it:
    a 3N-vector, with three root-translation components appended if
    config.fit_root_translation is set."""
    theta, theta_geo = (np.asarray(v, dtype=float).reshape(-1, 3) for v in (theta, theta_geo))
    root_translation = np.zeros(3) if root_translation is None else root_translation
    P, G = fk_positions_and_frames(skeleton, theta, root_translation)
    system = _normal_system(skeleton, np.asarray(mask, dtype=bool), config)
    return _normal_equations(system, theta, target, theta_geo, P, G)[1]


def _descendant_mask(skeleton, mask):
    """W[i, k] = 1 where joint k is a mask-valid strict descendant of joint i."""
    return np.where(mask[None, :], skeleton.descendants, 0.0)


class _NormalSystem(NamedTuple):
    """What _normal_equations and _damped_steps read of a clip's rig, mask
    and config. A joint is coupled when it has a valid strict descendant and
    still otherwise: a still joint's rotation moves no valid position, so its
    blocks of H against every other unknown are 0 and its diagonal block is
    the constant prior and twist curvature. Only the coupled joints, and the
    root translation when it is fitted, a virtual joint above every joint,
    make up the system that is factored; its blocks are indexed by their
    place in that system, the root translation last."""

    params: int  # 3N, plus 3 when the root translation is fitted
    coupled: np.ndarray  # (C,) the coupled joints, ascending: the root first, if any
    unknowns: np.ndarray  # the places of the factored system's unknowns among the params
    parents: np.ndarray  # (C - 1,) the parents of coupled[1:]
    mask: np.ndarray  # (N,) valid joints
    W: np.ndarray  # (C, N) the coupled joints' rows of _descendant_mask
    counts: np.ndarray  # (C,) each coupled joint's valid strict descendants
    scale: float  # 2 / Nv, Nv the number of valid joints
    pairs: tuple  # (i, j) of each block of H: i is j or an ancestor of j, so i <= j
    joint_pairs: int  # the blocks of two joints, before the root translation's
    diagonal: np.ndarray  # the blocks with i == j
    scatter: tuple  # flat positions in H of each block's entries: transposed, as is
    curvature: np.ndarray  # the constant part of the diagonal blocks
    still_peak: float  # the largest diagonal entry of the still joints' blocks, or 0
    bone_axes: np.ndarray
    config: FitConfig


def _normal_system(skeleton, mask, config):
    """The parts of _normal_equations and _damped_steps that stay fixed
    through a clip's refinement."""
    n = skeleton.joint_count
    fit_root = config.fit_root_translation
    W = _descendant_mask(skeleton, mask)
    counts = W.sum(axis=1)
    coupled = np.flatnonzero(counts)
    c = coupled.size
    # a coupled joint's ancestors are coupled too, so a pair is kept when its j is
    i, j = np.nonzero(skeleton.descendants[:, coupled] | np.eye(n, dtype=bool)[:, coupled])
    i = np.searchsorted(coupled, i)
    joint_pairs = len(i)
    u = _bone_axes(skeleton)
    # the prior and twist residuals are linear in theta, so their part of H
    # is constant: 2 (lambda_prior/N I + lambda_twist/N u u^T) per joint
    curvature = (2.0 / n) * (config.lambda_prior * np.eye(3)
                             + config.lambda_twist * u[:, :, None] * u[:, None, :])
    still_peak = float(np.max(np.diagonal(curvature[counts == 0], 0, -2, -1), initial=0.0))
    curvature = curvature[coupled]
    unknowns = (3 * coupled[:, None] + np.arange(3)).ravel()
    if fit_root:  # blocks (i, C) for every coupled joint i, then (C, C), which is 2 I
        i = np.concatenate([i, np.arange(c + 1)])
        j = np.concatenate([j, np.full(c + 1, c)])
        curvature = np.concatenate([curvature, 2.0 * np.eye(3)[None]])
        unknowns = np.concatenate([unknowns, 3 * n + np.arange(3)])
    size = unknowns.size
    rows = 3 * i[:, None, None] + np.arange(3)[:, None]  # of the entries of each block
    cols = 3 * j[:, None, None] + np.arange(3)
    return _NormalSystem(
        params=3 * n + (3 if fit_root else 0), coupled=coupled, unknowns=unknowns,
        parents=skeleton.parents[coupled[1:]], mask=mask, W=W[coupled], counts=counts[coupled],
        scale=2.0 / int(mask.sum()), pairs=(i, j), joint_pairs=joint_pairs,
        diagonal=np.flatnonzero(i == j),
        scatter=((cols * size + rows).ravel(), (rows * size + cols).ravel()),
        curvature=curvature, still_peak=still_peak, bone_axes=u, config=config,
    )


def _normal_equations(system, theta, target, theta_geo, P, G):
    """The Gauss-Newton matrix H = 2 J^T J and the gradient g = 2 J^T r of
    the total loss at theta and its FK result (P, G), in closed form from
    sums over subtrees; the Jacobian J is never formed. Every argument may
    carry leading frame axes, as theta (..., N, 3) does. Returns the nonzero
    blocks of H among the coupled unknowns (..., B, 3, 3), in system.pairs
    order, to be put in their H at system.scatter, and g (..., params) of
    every unknown. The still joints' blocks are the constant prior and twist
    curvature, and _damped_steps reads them from the config.

    Joint i's theta turns its subtree at the world rate Omega_i =
    G_parent(i) J_l(theta_i) (left_jacobian), so with Q = P - P_root the
    position rows of valid joint k against joint i, k a strict descendant, are
    -sqrt(1/Nv) [Q_k - Q_i]_x Omega_i. For i equal to j or one of its
    ancestors, the subtrees meet in j's, and
        H_ij = 2/Nv Omega_i^T (C_j + [Q_i]_x [s_j]_x) Omega_j,
        C_j = sum_k [Q_k]_x^T [Q_k - Q_j]_x,  s_j = sum_k (Q_k - Q_j),
        g_i = 2/Nv Omega_i^T sum_k (Q_k - Q_i) x (P_k - target_k),
    with k over j's (for g, i's) valid strict descendants; H_ji = H_ij^T and
    the other blocks are 0. The sums come from one product with the coupled
    joints' rows of W (_descendant_mask); a still joint has no k, so its
    position blocks and gradient are 0, and Omega is built for the coupled
    joints alone. With the root translation fitted, it moves every valid
    joint: its blocks are 2 I against itself and 2/Nv Omega_i^T [s_i]_x
    against joint i, and its gradient 2/Nv sum_k (P_k - target_k). The
    constant prior and twist blocks and their gradient are added.
    """
    lead, n = theta.shape[:-2], theta.shape[-2]
    config = system.config
    coupled = system.coupled
    Om = left_jacobian(theta[..., coupled, :])
    Om[..., 1:, :, :] = G[..., system.parents, :, :] @ Om[..., 1:, :, :]
    Omt = np.swapaxes(Om, -1, -2)
    Q = P - P[..., :1, :]
    KQ = skew(Q)
    res = np.where(system.mask[:, None], P - target, 0.0)
    F = np.empty(lead + (n, 18))  # per joint: Q, [Q]_x^T [Q]_x, residual, Q x residual
    F[..., :3] = Q
    F[..., 3:12] = (np.swapaxes(KQ, -1, -2) @ KQ).reshape(lead + (n, 9))
    F[..., 12:15] = res
    F[..., 15:] = (KQ @ res[..., None])[..., 0]
    S = system.W @ F  # the same, summed over each coupled joint's valid strict descendants
    Qc, KQc = Q[..., coupled, :], KQ[..., coupled, :, :]
    s = S[..., :3] - system.counts[:, None] * Qc
    C = S[..., 3:12].reshape(lead + (coupled.size, 3, 3)) + skew(S[..., :3]) @ KQc
    # H_ij = L_i R_j with L_i = Omega_i^T [I, [Q_i]_x], R_j = 2/Nv [C_j; [s_j]_x] Omega_j
    L = np.concatenate([Omt, Omt @ KQc], axis=-1)
    R = np.concatenate([C @ Om, skew(s) @ Om], axis=-2)
    R *= system.scale
    i, j = system.pairs
    m = system.joint_pairs
    blocks = np.zeros(lead + (len(i), 3, 3))
    np.matmul(L[..., i[:m], :, :], R[..., j[:m], :, :], out=blocks[..., :m, :, :])
    if config.fit_root_translation:  # 2/Nv Omega_i^T [s_i]_x
        blocks[..., m : m + coupled.size, :, :] = -np.swapaxes(R[..., 3:, :], -1, -2)
    blocks[..., system.diagonal, :, :] += system.curvature
    # sum_k (Q_k - Q_i) x r_k = sum_k Q_k x r_k - Q_i x sum_k r_k
    turn = S[..., 15:] - (KQc @ S[..., 12:15, None])[..., 0]
    u = system.bone_axes
    twist = np.einsum("...ic,ic->...i", theta, u)[..., None] * u
    grad = (2.0 / n) * (config.lambda_prior * (theta - theta_geo) + config.lambda_twist * twist)
    grad[..., coupled, :] += system.scale * (Omt @ turn[..., None])[..., 0]
    g = np.empty(lead + (system.params,))
    g[..., : 3 * n] = grad.reshape(lead + (3 * n,))
    if config.fit_root_translation:
        g[..., 3 * n :] = system.scale * res.sum(axis=-2)
    return blocks, g


def _damped_step(H, g, mu):
    """The step delta of (H + mu I) delta = -g by Cholesky, or None when
    H + mu I is not positive definite in floating point."""
    A = H.copy()
    A.flat[:: A.shape[0] + 1] += mu
    # A is symmetric, so its transpose, a Fortran-ordered view, is factored in place
    _, delta, info = dposv(A.T, -g, overwrite_a=True, overwrite_b=True)
    return delta if info == 0 else None


def _damped_steps(system, blocks, g, mu, frames):
    """The steps delta (K, params) of (H + mu I) delta = -g of the K frames
    with indices frames into the stacks blocks and g (_normal_equations) and
    mu. H is block diagonal: each still joint's block is a I + b u u^T, a =
    2 lambda_prior/N, b = 2 lambda_twist/N and u its bone axis, a unit vector
    or 0, so its step is -g/(a + mu) - (u.g) (1/(a + b + mu) - 1/(a + mu)) u,
    taken for every joint of every frame at once; the coupled unknowns' part
    is then laid out from the blocks, one frame at a time in one dense
    matrix, and its Cholesky solution (_damped_step) replaces their steps. A
    frame whose coupled part does not factor takes a zero step in every
    unknown."""
    n, config = system.mask.size, system.config
    gs = g[frames, : 3 * n].reshape(-1, n, 3)
    u = system.bone_axes
    a, b = (2.0 / n) * config.lambda_prior, (2.0 / n) * config.lambda_twist
    across = -1.0 / (a + mu[frames])
    along = -1.0 / (a + b + mu[frames]) - across
    steps = np.zeros((frames.size, system.params))
    steps[:, : 3 * n] = (across[:, None, None] * gs + (along[:, None] * np.einsum(
        "kic,ic->ki", gs, u))[..., None] * u).reshape(-1, 3 * n)
    unknowns = system.unknowns
    if unknowns.size:
        H = np.zeros((unknowns.size, unknowns.size))  # the places of no block stay 0
        for row, k in enumerate(frames.tolist()):
            H.put(system.scatter[0], blocks[k])  # each block's transpose below the diagonal,
            H.put(system.scatter[1], blocks[k])  # then the block above it, or on it as it is
            delta = _damped_step(H, g[k, unknowns], mu[k])
            if delta is None:
                steps[row] = 0.0
            else:
                steps[row, unknowns] = delta
    return steps


def refine_clip(skeleton, targets, theta_init, theta_geo, mask=None, config=None,
                root_translation=None):
    """Damped least-squares refinement of every frame of a clip from
    theta_init, anchored at theta_geo, all (T, N, 3) like targets; the root
    translations (T, 3), zeros by default, are the start's and the anchor's.
    Returns one FrameFitResult per frame.

    Each iteration of a frame solves (H + mu I) delta = -g, with H = 2 J^T J
    and g from first derivatives only (_normal_equations): by Cholesky among
    the coupled joints and the fitted root translation, and in closed form
    for each still joint, whose block of H stands alone (_damped_steps). A
    trial step is accepted only when the total loss decreases; otherwise, and
    when the coupled part of H + mu I does not factor, the damping grows. It
    follows Marquardt-Nielsen's gain-ratio rule (Madsen, Nielsen & Tingleff
    2004, sec. 3.2): it starts at _TAU * max diag(H), the still joints'
    constant blocks included, an accepted step scales it by
    max(1/3, 1 - (2 rho - 1)^3), rho the actual over the predicted decrease,
    and a rejection by nu, which doubles per rejection in a row. So a frame's
    accepted losses never rise, and it never scores above its start.

    The frames run in lockstep, each with its own iterate, damping, counters
    and stop reason (STOP_REASONS). One step builds the normal equations of
    the frames that start an iteration, takes one trial in every running
    frame, with one FK and one loss over all trial points, and drops the
    frames that stop: each frame takes the steps it would take alone.
    """
    if config is None:
        config = FitConfig()
    n = skeleton.joint_count
    targets = np.asarray(targets, dtype=float)
    frames = targets.shape[0]
    mask = np.ones(n, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    geo = np.reshape(theta_geo, (frames, n, 3))
    roots = np.zeros((frames, 3)) if root_translation is None else root_translation
    system = _normal_system(skeleton, mask, config)
    # per frame: its rotations, then its root translation, which only moves
    # when it is fitted, that is when it is one of the system's params
    x = np.concatenate([np.reshape(theta_init, (frames, 3 * n)),
                        np.reshape(roots, (frames, 3))], axis=1, dtype=float)

    def evaluate(ks, x):  # loss terms (K, 4) of frames ks at x, and the FK result they used
        theta, root = x[:, : 3 * n].reshape(-1, n, 3), x[:, 3 * n :]
        P, G = fk_positions_and_frames(skeleton, theta, root)
        terms = fit_loss(skeleton, theta, targets[ks], geo[ks], mask, config, root,
                         system.bone_axes, P)
        return np.stack(terms, axis=-1), P, G

    start = np.arange(frames)  # the frames that start an iteration
    terms, P, G = evaluate(start, x)
    accepted = [[total] for total in terms[:, 0].tolist()]
    blocks = np.empty((frames, len(system.pairs[0]), 3, 3))
    g = np.empty((frames, system.params))
    # frames per _normal_equations call, whose pair temporaries stay under 256 KB
    chunk = max(1, (1 << 18) // (max(1, len(system.pairs[0])) * 45 * 8))
    mu, nu = None, np.full(frames, 2.0)
    iters, trials = np.zeros(frames, dtype=int), np.zeros(frames, dtype=int)
    stop = np.full(frames, None, dtype=object)  # None while the frame runs
    while True:
        if start.size:
            for c in range(0, start.size, chunk):
                ks = start[c : c + chunk]
                blocks[ks], g[ks] = _normal_equations(
                    system, x[ks, : 3 * n].reshape(-1, n, 3), targets[ks], geo[ks], P[ks], G[ks])
            stop[start[np.max(np.abs(g[start]), axis=1) < _GRAD_TOL]] = "grad_tol"
            if mu is None:  # every frame starts here: > 0 wherever g != 0
                mu = _TAU * np.max(np.diagonal(blocks[:, system.diagonal], 0, -2, -1),
                                   axis=(1, 2), initial=system.still_peak)
        active = np.flatnonzero(np.equal(stop, None))
        exhausted = active[mu[active] >= 1.0 / _STEP_UNDERFLOW]
        iters[exhausted] += 1
        stop[exhausted] = "damping_exhausted"
        active = np.flatnonzero(np.equal(stop, None))
        if not active.size:
            break
        trials[active] += 1
        # a step that fails to factor is 0: the loss does not fall, so it is rejected
        steps = _damped_steps(system, blocks, g, mu, active)
        x_new = x[active]
        x_new[:, : system.params] += steps
        terms_new, P_new, G_new = evaluate(active, x_new)
        better = terms_new[:, 0] < terms[active, 0]
        start, steps = active[better], steps[better]
        # the decrease the quadratic model predicts, as (H + mu I) delta = -g
        predicted = 0.5 * (steps[:, None, :] @ (mu[start, None] * steps - g[start])[..., None])
        rho = (terms[start, 0] - terms_new[better, 0]) / predicted[:, 0, 0]
        x[start], terms[start] = x_new[better], terms_new[better]
        P[start], G[start] = P_new[better], G_new[better]
        for k, total, r in zip(start.tolist(), terms_new[better, 0].tolist(), rho.tolist()):
            accepted[k].append(total)
            # in floats: numpy's power does not round (2 rho - 1)^3 as pow does
            mu[k] = max(mu[k] * max(1.0 / 3.0, 1.0 - (2.0 * r - 1.0) ** 3), _MU_FLOOR)
        nu[start] = 2.0
        iters[start] += 1
        rejected = active[~better]
        mu[rejected] *= nu[rejected]
        nu[rejected] *= 2.0
        stop[start[iters[start] >= config.max_iters]] = "max_iters"
        start = start[iters[start] < config.max_iters]

    final = terms.tolist()
    return tuple(
        FrameFitResult(x[t, : 3 * n].reshape(n, 3), x[t, 3 * n :], final_loss=final[t][0],
                       iterations_used=used, loss_terms=LossTerms(*final[t]),
                       accepted_losses=tuple(accepted[t]), stop=stop[t], trials=tried)
        for t, (used, tried) in enumerate(zip(iters.tolist(), trials.tolist()))
    )


def refine_frame(skeleton, target, theta_init, theta_geo, mask=None, config=None,
                 root_translation=None):
    """refine_clip of one frame: target, theta_init and theta_geo (N, 3), and
    root_translation (3,), zeros by default. Returns its FrameFitResult."""
    return refine_clip(skeleton, np.asarray(target, dtype=float)[None], theta_init, theta_geo,
                       mask, config, root_translation)[0]


def fit_sequence(skeleton, trajectory, config=None):
    """Fit a whole trajectory: geometric init of all frames, then every frame
    refined from its own geometric estimate and anchored there, all in one
    refine_clip, so that no frame scores above its estimate.

    Root translation is read from the trajectory's root joint and further
    optimized when config.fit_root_translation is set. A masked root gives no
    position to read, so its translation is then always optimized, and each
    frame's diagnostics say so. Returns (AnimationClip, per-frame report dicts).
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
    results = refine_clip(skeleton, trajectory.positions, rotations, rotations,
                          trajectory.mask, config, roots)
    reports = [
        {**{f"loss_{term}": v for term, v in result.loss_terms._asdict().items()},
         "iters": result.iterations_used, "stop": result.stop, "trials": result.trials,
         "accepted_losses": list(result.accepted_losses), "diagnostics": root_diag + notes}
        for result, notes in zip(results, geo_diag)
    ]
    clip = AnimationClip(np.stack([result.rotations for result in results]),
                         np.stack([result.root_translation for result in results]),
                         trajectory.fps)
    return clip, reports
