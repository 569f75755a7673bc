"""Rotation representations and the closed-form alignment solvers.

Rotations live in two forms: 3x3 proper orthogonal matrices and axis-angle
3-vectors (radians * unit axis). Degrees appear only at the BVH boundary.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError

# series switch-over for sin(a)/a style terms
_TINY_ANGLE = 1e-8
_SERIES_ANGLE = 1e-2  # the left Jacobian's, where (a - sin a)/a^3 cancels
_TINY_VECTOR = 1e-9
_GIMBAL_LOCK = 1e-13  # cos of the middle Euler angle below which it is locked

EULER_ORDERS = ("XYZ", "XZY", "YXZ", "YZX", "ZXY", "ZYX")


def skew(v):
    """Cross-product matrices [v]_x of a (..., 3) stack; result (..., 3, 3).

    skew(v) @ w == cross(v, w) for each vector v of the stack.
    """
    v = np.asarray(v, dtype=float)
    K = np.zeros(v.shape[:-1] + (3, 3))
    K[..., 0, 1] = -v[..., 2]
    K[..., 0, 2] = v[..., 1]
    K[..., 1, 0] = v[..., 2]
    K[..., 1, 2] = -v[..., 0]
    K[..., 2, 0] = -v[..., 1]
    K[..., 2, 1] = v[..., 0]
    return K


def axis_angle_to_matrix(theta):
    """Rodrigues formula for one axis-angle vector (see the batched form)."""
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise ValidationError("axis-angle vector must be finite")
    return batch_axis_angle_to_matrix(theta[None])[0]


def _norm(v):
    """Euclidean norm of each row of a (..., 3) stack, bit-equal to np.linalg.norm."""
    return np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0, 0]


def is_rotation_matrix(R, atol=1e-6):
    """Per-matrix test of a (..., 3, 3) stack: finite, orthonormal within atol, det > 0."""
    R = np.asarray(R, dtype=float)
    if R.shape[-2:] != (3, 3):
        return False
    finite = np.isfinite(R).all(axis=(-2, -1))
    R = np.where(finite[..., None, None], R, np.eye(3))
    orthonormal = np.isclose(np.swapaxes(R, -1, -2) @ R, np.eye(3), atol=atol).all(axis=(-2, -1))
    return finite & orthonormal & (np.linalg.det(R) > 0.0)


def matrix_to_axis_angle(R):
    """Canonical axis-angle of each matrix of a (..., 3, 3) stack, ||theta|| in [0, pi].

    Near-pi extraction uses the dominant column of (R + I)/2; the axis sign
    tie-break makes the first nonzero component positive.
    """
    R = np.asarray(R, dtype=float)
    if not np.all(is_rotation_matrix(R)):
        raise ValidationError("input is not a rotation matrix")
    return _matrix_to_axis_angle(R)


def _matrix_to_axis_angle(R):
    """matrix_to_axis_angle of a float stack known to hold rotations: no check."""
    cos_a = np.clip((np.trace(R, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0, 1.0)
    angle = np.arccos(cos_a)
    vee = 0.5 * (R - np.swapaxes(R, -1, -2))[..., [2, 0, 1], [1, 2, 0]]
    theta = vee.copy()  # first-order below _TINY_ANGLE: vee(R - R^T)/2 ~ theta
    near_pi = np.pi - angle < 1e-6
    generic = ~near_pi & (angle >= _TINY_ANGLE)
    axis = vee[generic] / np.sin(angle[generic])[:, None]
    theta[generic] = angle[generic][:, None] * axis / _norm(axis)[:, None]
    if np.any(near_pi):
        # R ~ 2*a a^T - I, so (R + I)/2 ~ a a^T; its strongest column is ~ a_k * a
        B = (R[near_pi] + np.eye(3)) / 2.0
        k = np.argmax(np.diagonal(B, axis1=-2, axis2=-1), axis=-1)
        axis = np.take_along_axis(B, k[:, None, None], axis=-1)[..., 0]
        n = _norm(axis)
        if np.any(n < _TINY_VECTOR):
            raise ValidationError("degenerate near-pi rotation matrix")
        axis = axis / n[:, None]
        first = np.argmax(np.abs(axis) > 1e-12, axis=-1)  # a unit axis has one
        axis[np.take_along_axis(axis, first[:, None], axis=-1)[:, 0] < 0.0] *= -1.0
        # keep the sign consistent with the skew part when it is informative
        s = (vee[near_pi][:, None, :] @ axis[:, :, None])[:, 0, 0]
        axis[s < -1e-9] *= -1.0
        theta[near_pi] = angle[near_pi][:, None] * axis
    return theta


def canonicalize_axis_angle(theta):
    """Wrap each angle of a (..., 3) stack into [0, pi] by axis flip; tiny angles -> 0."""
    theta = np.asarray(theta, dtype=float)
    a = _norm(theta)
    axis = theta / np.where(a < 1e-12, 1.0, a)[..., None]
    np.fmod(a, 2.0 * np.pi, out=a)
    flip = a > np.pi
    a[flip] = 2.0 * np.pi - a[flip]
    axis[flip] *= -1.0
    axis *= a[..., None]
    axis[a < 1e-12] = 0.0
    return axis


def _perpendicular(a):
    # cross with the standard basis vector of least |component|: deterministic
    p = np.cross(a, np.eye(3)[np.argmin(np.abs(a), axis=-1)])
    return p / _norm(p)[..., None]


def rotation_between_vectors(a, b):
    """Minimal-angle rotations mapping each direction a onto b, for (..., 3)
    stacks; result (..., 3, 3).

    Antiparallel inputs rotate by pi about a deterministic perpendicular axis.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    na, nb = _norm(a), _norm(b)
    if np.any(np.minimum(na, nb) < _TINY_VECTOR):
        raise ValidationError("rotation_between_vectors: near-zero input vector")
    ah, bh = a / na[..., None], b / nb[..., None]
    c = np.clip((ah[..., None, :] @ bh[..., :, None])[..., 0, 0], -1.0, 1.0)
    axis = np.cross(ah, bh)
    n = _norm(axis)
    parallel = n < 1e-12
    antiparallel = (c < -1.0 + 1e-12) | (parallel & (c < 0.0))
    theta = np.zeros(a.shape)  # parallel rows keep the identity
    turn = ~parallel & ~antiparallel
    theta[turn] = np.arccos(c[turn])[:, None] * axis[turn] / n[turn][:, None]
    if np.any(antiparallel):
        theta[antiparallel] = np.pi * _perpendicular(ah[antiparallel])
    return batch_axis_angle_to_matrix(theta)


def orthogonal_procrustes(rest_dirs, obs_dirs, weights=None):
    """Best proper rotations mapping rest directions onto observed directions.

    rest_dirs and obs_dirs are (..., K, 3) stacks that broadcast together;
    weights (..., K) are nonnegative, ones by default. Each row minimizes
    sum_k w_k ||R v_rest_k - v_obs_k||^2 over SO(3) via SVD of the weighted
    cross-covariance with determinant-sign correction (never a reflection).
    A row with exactly one positive weight takes the minimal-angle rotation
    of that pair instead, and a row with none takes the identity. Returns
    (R (..., 3, 3), degenerate (...)) where degenerate flags an all-zero
    covariance over two or more weighted pairs (identity returned there).
    """
    bad = "orthogonal_procrustes needs (..., K, 3) directions and nonnegative (..., K) weights"
    try:
        rest, obs = np.broadcast_arrays(np.asarray(rest_dirs, float), np.asarray(obs_dirs, float))
        w = np.broadcast_to(1.0 if weights is None else np.asarray(weights, float), rest.shape[:-1])
    except ValueError:
        raise ValidationError(bad) from None
    if rest.ndim < 2 or rest.shape[-1] != 3 or not np.all(w >= 0.0):
        raise ValidationError(bad)
    H = np.swapaxes(obs * w[..., None], -1, -2) @ rest  # maps rest-frame onto obs-frame
    weighted = np.count_nonzero(w > 0.0, axis=-1)
    degenerate = (weighted > 1) & (np.linalg.norm(H, axis=(-2, -1)) < 1e-12)
    R = np.broadcast_to(np.eye(3), H.shape).copy()
    solve = (weighted > 1) & ~degenerate
    if np.any(solve):
        U, _, Vt = np.linalg.svd(H[solve])
        U[:, :, 2] *= np.where(np.linalg.det(U @ Vt) < 0.0, -1.0, 1.0)[:, None]  # U diag(1,1,d)
        R[solve] = U @ Vt
    single = weighted == 1
    if np.any(single):
        pick = (w[single] > 0.0)[..., None]  # the one weighted pair of each such row
        rest_k, obs_k = (np.where(pick, v[single], 0.0).sum(axis=-2) for v in (rest, obs))
        R[single] = rotation_between_vectors(rest_k, obs_k)
    return R, degenerate


def _elementary(axis, angle):
    """Rotations by a stack of angles about one coordinate axis; (..., 3, 3)."""
    k = "XYZ".index(axis)
    i, j = (k + 1) % 3, (k + 2) % 3
    c, s = np.cos(angle), np.sin(angle)
    E = np.zeros(np.shape(angle) + (3, 3))
    E[..., k, k] = 1.0
    E[..., i, i] = c
    E[..., j, j] = c
    E[..., i, j] = -s
    E[..., j, i] = s
    return E


def euler_to_matrix(angles, order):
    """Intrinsic Euler angles (radians, in channel order) of a (..., 3) stack to matrices.

    order is one of the six 3-letter axis strings; each matrix is the product
    of the elementary rotations in the order written (BVH channel semantics).
    """
    order = order.upper()
    if order not in EULER_ORDERS:
        raise ValidationError(f"unsupported Euler order {order!r}")
    angles = np.asarray(angles, dtype=float)
    R = np.eye(3)
    for k, axis in enumerate(order):
        R = R @ _elementary(axis, angles[..., k])
    return R


def matrix_to_euler(R, order):
    """Inverse of euler_to_matrix for a (..., 3, 3) stack. For the order's axes
    (i, j, k) and s = +1 on the cyclic orders, -1 on the others: b = atan2(s R[i,k],
    hypot(R[i,i], R[i,j])), a = atan2(-s R[j,k], R[k,k]), and c from row j of
    E_i(-a) R = E_j(b) E_k(c), which reproduces R to rounding however near b is to
    +-pi/2. At gimbal lock (cos b < _GIMBAL_LOCK), a = atan2(s R[k,j], R[j,j])
    and c comes out 0: scipy's tie-break."""
    R = np.asarray(R, dtype=float)
    if not np.all(is_rotation_matrix(R)):
        raise ValidationError("input is not a rotation matrix")
    return _matrix_to_euler(R, order)


def _matrix_to_euler(R, order):
    """matrix_to_euler of a float stack known to hold rotations: no rotation check."""
    order = order.upper()
    if order not in EULER_ORDERS:
        raise ValidationError(f"unsupported Euler order {order!r}")
    i, j, k = ("XYZ".index(axis) for axis in order)
    s = 1.0 if (j - i) % 3 == 1 else -1.0
    cos_b = np.hypot(R[..., i, i], R[..., i, j])
    b = np.arctan2(s * R[..., i, k], cos_b)
    a = np.where(cos_b < _GIMBAL_LOCK, np.arctan2(s * R[..., k, j], R[..., j, j]),
                 np.arctan2(-s * R[..., j, k], R[..., k, k]))
    ca, sa = np.cos(a), s * np.sin(a)
    c = np.arctan2(s * (ca * R[..., j, i] + sa * R[..., k, i]),
                   ca * R[..., j, j] + sa * R[..., k, j])
    return np.stack([a, b, c], axis=-1)


def batch_axis_angle_to_matrix(thetas):
    """Rodrigues formula for a (..., 3) stack, series-safe near zero angle."""
    thetas = np.asarray(thetas, dtype=float)
    a2 = np.einsum("...c,...c->...", thetas, thetas)
    a = np.sqrt(a2)
    K = skew(thetas)
    small = a < _TINY_ANGLE
    # sin(a)/a -> 1 - a^2/6, (1-cos a)/a^2 -> 1/2 - a^2/24
    s = np.where(small, 1.0 - a2 / 6.0, np.sin(a) / np.where(small, 1.0, a))
    c = np.where(small, 0.5 - a2 / 24.0, (1.0 - np.cos(a)) / np.where(small, 1.0, a2))
    # I + s K + c K^2, summed in that order, in place to spare whole-clip temporaries
    R = K @ K
    R *= c[..., None, None]
    K *= s[..., None, None]
    K += np.eye(3)
    K += R
    return K


def left_jacobian(thetas):
    """SO(3) left Jacobian of each axis-angle vector of a (..., 3) stack;
    result (..., 3, 3).

    J_l(theta) = I + (1 - cos a)/a^2 [theta]_x + (a - sin a)/a^3 [theta]_x^2
    with a = ||theta|| (Sola et al. 2018), summed here as
    sin(a)/a I + (1 - cos a)/a^2 [theta]_x + (a - sin a)/a^3 theta theta^T.
    To first order R(theta + d) = exp([J_l(theta) d]_x) R(theta), so
    dR/dtheta_a = [J_l(theta) e_a]_x R(theta). Below a = 1e-2 the
    coefficients are summed as series, where a - sin a cancels.
    """
    thetas = np.asarray(thetas, dtype=float)
    a2 = np.einsum("...c,...c->...", thetas, thetas)
    a = np.sqrt(a2)
    small = a < _SERIES_ANGLE
    series = small.any()
    if series:
        a = np.where(small, 1.0, a)
    s = np.sin(a) / a
    h = np.sin(0.5 * a) / a
    b = 2.0 * h * h  # (1 - cos a)/a^2 without the cancellation of 1 - cos a
    c = (1.0 - s) / (a * a)
    if series:
        s = np.where(small, 1.0 - a2 / 6.0 * (1.0 - a2 / 20.0), s)
        b = np.where(small, 0.5 - a2 / 24.0 * (1.0 - a2 / 30.0), b)
        c = np.where(small, (1.0 - a2 / 20.0 * (1.0 - a2 / 42.0)) / 6.0, c)
    J = skew(thetas)
    J *= b[..., None, None]
    J += thetas[..., :, None] * (c[..., None] * thetas)[..., None, :]
    J.reshape(J.shape[:-2] + (9,))[..., ::4] += s[..., None]  # the diagonal
    return J
