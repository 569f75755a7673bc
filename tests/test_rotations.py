"""Axis-angle / matrix / Euler conversions and the Procrustes sub-solver."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rigfit
from rigfit.bvh import _fmt
from rigfit.errors import ValidationError
from rigfit.rotations import (
    _matrix_to_axis_angle,
    _matrix_to_euler,
    axis_angle_to_matrix,
    batch_axis_angle_to_matrix,
    canonicalize_axis_angle,
    euler_to_matrix,
    is_rotation_matrix,
    left_jacobian,
    matrix_to_axis_angle,
    matrix_to_euler,
    orthogonal_procrustes,
    rotation_between_vectors,
    skew,
)

EULER_ORDERS = ["ZXY", "ZYX", "XYZ", "XZY", "YXZ", "YZX"]


def random_rotation(rng):
    theta = rng.normal(size=3)
    theta *= rng.uniform(0.0, np.pi - 1e-3) / np.linalg.norm(theta)
    return axis_angle_to_matrix(theta)


def single_formula_thetas(rng):
    """Generic vectors plus both sides of the small-angle switch-overs."""
    return np.vstack([
        rng.normal(size=(200, 3)) * rng.uniform(0.0, 4.0, size=(200, 1)),
        rng.normal(size=(20, 3)) * 1e-9,  # series branch of R
        rng.normal(size=(20, 3)) * 5e-8,  # closed-form R
        rng.normal(size=(20, 3)) * 6e-3,  # both sides of the left Jacobian's series switch-over
        np.zeros((1, 3)),
    ])


class TestAxisAngleToMatrix:
    def test_zero_gives_identity(self):
        assert np.array_equal(axis_angle_to_matrix(np.zeros(3)), np.eye(3))

    def test_quarter_turn_about_x(self):
        # Rx(90 deg) maps +z to -y
        R = axis_angle_to_matrix(np.array([np.pi / 2, 0.0, 0.0]))
        np.testing.assert_allclose(R @ [0, 0, 1], [0, -1, 0], atol=1e-12)

    def test_always_valid_rotation(self, rng):
        for _ in range(200):
            theta = rng.normal(size=3) * rng.uniform(0, 4)
            assert is_rotation_matrix(axis_angle_to_matrix(theta), atol=1e-9)

    def test_small_angle_series_branch(self):
        theta = np.array([1e-10, -2e-10, 5e-11])
        R = axis_angle_to_matrix(theta)
        # first-order agreement with I + skew(theta)
        np.testing.assert_allclose(R, np.eye(3) + skew(theta), atol=1e-18)

    def test_batch_matches_scalar(self, rng):
        thetas = np.vstack([rng.normal(size=(6, 3)), np.zeros((1, 3))])
        batch = batch_axis_angle_to_matrix(thetas)
        for i, t in enumerate(thetas):
            np.testing.assert_allclose(batch[i], axis_angle_to_matrix(t), atol=1e-13)

    def test_skew_of_stack_matches_rows(self, rng):
        v = rng.normal(size=(7, 3))
        K = skew(v)
        assert K.shape == (7, 3, 3)
        for i, row in enumerate(v):
            assert np.array_equal(K[i], skew(row))
            np.testing.assert_allclose(K[i] @ [1.0, 2.0, 3.0], np.cross(row, [1.0, 2.0, 3.0]))

    def test_scalar_is_batch_row_bitwise(self, rng):
        thetas = single_formula_thetas(rng)
        batch = batch_axis_angle_to_matrix(thetas)
        for i, t in enumerate(thetas):
            assert np.array_equal(axis_angle_to_matrix(t), batch[i])


class TestMatrixToAxisAngle:
    def test_identity_gives_zero(self):
        assert np.array_equal(matrix_to_axis_angle(np.eye(3)), np.zeros(3))

    def test_rz_quarter_turn(self):
        R = euler_to_matrix(np.array([np.pi / 2, 0.0, 0.0]), "ZXY")
        np.testing.assert_allclose(
            matrix_to_axis_angle(R), [0.0, 0.0, np.pi / 2], atol=1e-12
        )

    def test_round_trip_open_interval(self, rng):
        # bijection on ||theta|| in (0, pi)
        for _ in range(300):
            theta = rng.normal(size=3)
            theta *= rng.uniform(1e-6, np.pi - 1e-6) / np.linalg.norm(theta)
            back = matrix_to_axis_angle(axis_angle_to_matrix(theta))
            np.testing.assert_allclose(back, theta, atol=1e-9)

    def test_near_pi_branch(self, rng):
        for _ in range(100):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            theta = axis * (np.pi - 1e-9)
            R = axis_angle_to_matrix(theta)
            back = matrix_to_axis_angle(R)
            # at pi the axis sign is ambiguous; compare matrices instead
            np.testing.assert_allclose(axis_angle_to_matrix(back), R, atol=1e-7)

    def test_rejects_non_rotation(self):
        with pytest.raises(ValidationError):
            matrix_to_axis_angle(np.diag([1.0, 1.0, 2.0]))


class TestCanonicalize:
    def test_wraps_angle_above_pi(self):
        theta = np.array([0.0, 0.0, 1.5 * np.pi])
        out = canonicalize_axis_angle(theta)
        assert np.linalg.norm(out) <= np.pi + 1e-12
        np.testing.assert_allclose(
            axis_angle_to_matrix(out), axis_angle_to_matrix(theta), atol=1e-12
        )

    def test_tiny_angle_collapses_to_zero(self):
        assert np.array_equal(canonicalize_axis_angle(np.full(3, 1e-14)), np.zeros(3))


class TestRotationBetweenVectors:
    def test_equal_vectors_identity(self):
        v = np.array([0.3, -0.2, 0.9])
        np.testing.assert_allclose(rotation_between_vectors(v, v), np.eye(3), atol=1e-12)

    def test_x_to_y_is_quarter_turn_about_z(self):
        R = rotation_between_vectors(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
        np.testing.assert_allclose(R, euler_to_matrix([np.pi / 2, 0, 0], "ZXY"), atol=1e-12)

    def test_maps_a_to_b_and_minimal_angle(self, rng):
        for _ in range(300):
            a, b = rng.normal(size=(2, 3))
            R = rotation_between_vectors(a, b)
            np.testing.assert_allclose(R @ (a / np.linalg.norm(a)), b / np.linalg.norm(b), atol=1e-9)
            angle = np.linalg.norm(matrix_to_axis_angle(R))
            assert angle <= np.pi + 1e-9

    def test_antiparallel_deterministic(self):
        a = np.array([0.0, 0.0, 1.0])
        R1 = rotation_between_vectors(a, -a)
        R2 = rotation_between_vectors(a, -a)
        np.testing.assert_allclose(R1 @ a, -a, atol=1e-12)
        assert np.array_equal(R1, R2)

    def test_degenerate_input_raises(self):
        with pytest.raises(ValidationError):
            rotation_between_vectors(np.zeros(3), np.array([1.0, 0, 0]))


def so3_grid(step_deg=2.0):
    """Coarse SO(3) sample grid built from Euler angles (oracle use only)."""
    vals = np.deg2rad(np.arange(-180.0, 180.0, step_deg))
    half = np.deg2rad(np.arange(-90.0, 90.0 + 1e-9, step_deg))
    return vals, half


class TestOrthogonalProcrustes:
    def test_obs_equals_rest_identity(self):
        rest = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        R, degenerate = orthogonal_procrustes(rest, rest)
        assert not degenerate
        np.testing.assert_allclose(R, np.eye(3), atol=1e-12)

    def test_recovers_rz90_exactly(self):
        rest = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        Rz = euler_to_matrix([np.pi / 2, 0, 0], "ZXY")
        R, _ = orthogonal_procrustes(rest, rest @ Rz.T)
        np.testing.assert_allclose(R, Rz, atol=1e-12)

    def test_recovers_sampled_rotations(self, rng):
        # acceptance-grade oracle, smaller trial count here (full count in
        # test_acceptance)
        for _ in range(200):
            k = rng.integers(2, 6)
            rest = rng.normal(size=(k, 3))
            if np.linalg.matrix_rank(rest) < 2:
                continue
            R_true = random_rotation(rng)
            R, degenerate = orthogonal_procrustes(rest, rest @ R_true.T)
            assert not degenerate
            assert np.linalg.norm(R - R_true) < 1e-6

    def test_reflection_contaminated_input_stays_proper(self, rng):
        rest = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
        obs = rest.copy()
        obs[0] = -obs[0]  # reflection, not a rotation
        R, _ = orthogonal_procrustes(rest, obs)
        assert is_rotation_matrix(R, atol=1e-9)
        assert np.linalg.det(R) > 0

    def test_single_pair_degenerates_to_vector_alignment(self):
        rest = np.array([[1.0, 0.0, 0.0]])
        obs = np.array([[0.0, 1.0, 0.0]])
        R, _ = orthogonal_procrustes(rest, obs)
        np.testing.assert_allclose(R, rotation_between_vectors(rest[0], obs[0]), atol=1e-12)

    def test_zero_covariance_flagged_identity(self):
        R, degenerate = orthogonal_procrustes(np.zeros((2, 3)), np.zeros((2, 3)))
        assert degenerate
        np.testing.assert_allclose(R, np.eye(3))


class TestStackedAlignment:
    def vector_pairs(self, rng):
        """Generic pairs plus parallel, antiparallel and nearly parallel rows."""
        a = rng.normal(size=(40, 3))
        b = rng.normal(size=(40, 3))
        b[0:4] = a[0:4] * rng.uniform(0.5, 2.0, size=(4, 1))  # parallel
        b[4:8] = -a[4:8] * rng.uniform(0.5, 2.0, size=(4, 1))  # antiparallel
        a[8], b[8] = [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]
        b[9] = a[9] + 1e-13
        return a, b

    def test_rotation_between_vectors_rows(self, rng):
        a, b = self.vector_pairs(rng)
        R = rotation_between_vectors(a, b)
        assert R.shape == (40, 3, 3)
        for k in range(40):
            np.testing.assert_array_equal(R[k], rotation_between_vectors(a[k], b[k]))
        u = a[4:9] / np.linalg.norm(a[4:9], axis=1, keepdims=True)  # antiparallel rows
        np.testing.assert_allclose((R[4:9] @ u[:, :, None])[:, :, 0], -u, atol=1e-12)
        np.testing.assert_array_equal(R[0:4], np.broadcast_to(np.eye(3), (4, 3, 3)))
        stacked = rotation_between_vectors(a.reshape(4, 10, 3), b.reshape(4, 10, 3))
        np.testing.assert_array_equal(stacked.reshape(40, 3, 3), R)

    def test_orthogonal_procrustes_rows(self, rng):
        R_true = random_rotation(rng)
        rest = rng.normal(size=(7, 3, 3))
        obs = rest @ R_true.T
        w = np.ones((7, 3))
        rest[1] = [[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0]]  # zero covariance
        obs[1] = [[0, 1.0, 0], [0, 1.0, 0], [0, 0, 0]]
        w[1, 2] = 0.0
        obs[2] = rest[2] * [[-1.0], [1.0], [1.0]]  # a reflection of the rest set
        w[3] = [0.0, 2.5, 0.0]  # one positive weight: minimal rotation of that pair
        w[4] = [0.0, 0.0, 1.0]
        obs[4, 2] = -rest[4, 2]  # ... antiparallel
        w[5] = 0.0  # no positive weight: identity
        w[6] = [0.5, 1.0, 3.0]
        R, degenerate = orthogonal_procrustes(rest, obs, w)
        assert R.shape == (7, 3, 3) and degenerate.tolist() == [0, 1, 0, 0, 0, 0, 0]
        for k in range(7):
            R_k, degenerate_k = orthogonal_procrustes(rest[k], obs[k], w[k])
            np.testing.assert_array_equal(R[k], R_k)
            assert degenerate_k == degenerate[k]
        np.testing.assert_allclose(R[[0, 6]], [R_true, R_true], atol=1e-9)
        np.testing.assert_array_equal(R[1], np.eye(3))
        assert is_rotation_matrix(R[2]) and np.linalg.det(R[2]) > 0.0
        np.testing.assert_array_equal(R[3], rotation_between_vectors(rest[3, 1], obs[3, 1]))
        np.testing.assert_allclose(R[4] @ rest[4, 2], obs[4, 2], atol=1e-12)
        np.testing.assert_array_equal(R[5], np.eye(3))

    def test_orthogonal_procrustes_broadcasts_rest(self, rng):
        rest = rng.normal(size=(4, 3))
        obs = rng.normal(size=(5, 4, 3))
        R, _ = orthogonal_procrustes(rest, obs)
        for k in range(5):
            np.testing.assert_array_equal(R[k], orthogonal_procrustes(rest, obs[k])[0])

    @pytest.mark.parametrize("weights", [[1.0, -1.0], [1.0, np.nan], [1.0, 1.0, 1.0]])
    def test_orthogonal_procrustes_rejects_bad_weights(self, weights):
        with pytest.raises(ValidationError):
            orthogonal_procrustes(np.eye(3)[:2], np.eye(3)[:2], weights)


class TestEuler:
    def test_zero_angles_identity_all_orders(self):
        for order in EULER_ORDERS:
            np.testing.assert_allclose(euler_to_matrix(np.zeros(3), order), np.eye(3))

    def test_single_axis_case(self):
        R = euler_to_matrix(np.deg2rad([90.0, 0.0, 0.0]), "ZXY")
        np.testing.assert_allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    def test_round_trip_all_orders(self, rng):
        for order in EULER_ORDERS:
            for _ in range(50):
                angles = rng.uniform(-np.pi / 2 + 0.05, np.pi / 2 - 0.05, 3)
                back = matrix_to_euler(euler_to_matrix(angles, order), order)
                np.testing.assert_allclose(back, angles, atol=1e-9)

    def test_intrinsic_composition(self, rng):
        # order 'ZXY' means Rz @ Rx @ Ry applied right-to-left
        a = rng.uniform(-1, 1, 3)
        Rz = axis_angle_to_matrix([0, 0, a[0]])
        Rx = axis_angle_to_matrix([a[1], 0, 0])
        Ry = axis_angle_to_matrix([0, a[2], 0])
        np.testing.assert_allclose(euler_to_matrix(a, "ZXY"), Rz @ Rx @ Ry, atol=1e-12)


def textbook_left_jacobian(theta):
    """I + (1 - cos a)/a^2 [theta]_x + (a - sin a)/a^3 [theta]_x^2 for one
    vector, with no series, and 1 - cos a as 2 sin^2(a/2), which does not
    cancel; I at zero. a - sin a cancels at small a, but its error scaled by
    [theta]_x^2 / a^3 stays at rounding level."""
    a = np.linalg.norm(theta)
    if a == 0.0:
        return np.eye(3)
    K = skew(theta)
    return np.eye(3) + 2.0 * np.sin(a / 2) ** 2 / a**2 * K + (a - np.sin(a)) / a**3 * (K @ K)


class TestJacobian:
    """The derivative of Rodrigues' formula is dR/dtheta_a = [J_l e_a]_x R,
    J_l the left Jacobian."""

    def test_matches_finite_differences(self, rng):
        h = 1e-6
        near_pi = rng.normal(size=(5, 3))
        near_pi *= (np.pi - 1e-4) / np.linalg.norm(near_pi, axis=1, keepdims=True)
        thetas = np.vstack([
            rng.normal(size=(50, 3)),
            rng.normal(size=(10, 3)) * 3e-3,  # the series branch
            near_pi,
            np.zeros((1, 3)),
        ])
        for theta in thetas:
            R = axis_angle_to_matrix(theta)
            J = left_jacobian(theta)
            for a in range(3):
                e = np.zeros(3)
                e[a] = h
                fd = (axis_angle_to_matrix(theta + e) - axis_angle_to_matrix(theta - e)) / (2 * h)
                np.testing.assert_allclose(skew(J[:, a]) @ R, fd, atol=1e-8)

    def test_batch_matches_scalar(self, rng):
        # each row of the stack against the formula as written, which the
        # series matches to rounding on both sides of its switch-over
        thetas = single_formula_thetas(rng)
        batch = left_jacobian(thetas)
        for i, t in enumerate(thetas):
            np.testing.assert_allclose(batch[i], textbook_left_jacobian(t),
                                       rtol=0.0, atol=1e-14)

    def test_scalar_is_batch_row_bitwise(self, rng):
        thetas = single_formula_thetas(rng)
        batch = left_jacobian(thetas)
        assert np.array_equal(left_jacobian(thetas.reshape(-1, 1, 3))[:, 0], batch)
        for i, t in enumerate(thetas):
            assert np.array_equal(left_jacobian(t), batch[i])


_ANGLES = st.one_of(
    st.floats(0.0, 1e-7),  # series branch, collapse to zero
    st.floats(np.pi - 1e-6, np.pi),  # near-pi branch
    st.just(np.pi),
    st.floats(0.0, 4.0 * np.pi),  # generic, and wrapped by canonicalization
)
_AXES = st.one_of(
    st.sampled_from([(1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0), (1.0, -1.0, 0.0)]),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3),
)


@st.composite
def theta_stacks(draw):
    pairs = draw(st.lists(st.tuples(_AXES, _ANGLES), min_size=1, max_size=12))
    return np.array([a * np.asarray(v) / np.linalg.norm(v) for v, a in pairs])


class TestStackedConversions:
    """Each conversion of a whole stack equals the conversion of each row, bitwise."""

    @settings(max_examples=150, deadline=None)
    @given(theta_stacks(), st.sampled_from(EULER_ORDERS))
    def test_stack_equals_rows(self, thetas, order):
        R = batch_axis_angle_to_matrix(thetas)
        angles = thetas[:, [2, 0, 1]] - 1.0  # any real angles for euler_to_matrix
        nonrot = R.copy()
        nonrot[::2, 0, 0] += 0.1
        cases = [
            (canonicalize_axis_angle, thetas),
            (matrix_to_axis_angle, R),
            (lambda x: euler_to_matrix(x, order), angles),
            (lambda x: matrix_to_euler(x, order), R),
            (is_rotation_matrix, R),
            (is_rotation_matrix, nonrot),
        ]
        for convert, stack in cases:
            whole = convert(stack)
            rows = np.stack([convert(row) for row in stack])
            assert whole.shape == rows.shape
            assert np.array_equal(whole, rows)

    def test_leading_axes_kept(self, rng):
        thetas = rng.normal(size=(4, 5, 3))
        R = batch_axis_angle_to_matrix(thetas)
        assert matrix_to_axis_angle(R).shape == (4, 5, 3)
        assert matrix_to_euler(R, "ZXY").shape == (4, 5, 3)
        assert euler_to_matrix(thetas, "ZXY").shape == (4, 5, 3, 3)
        assert is_rotation_matrix(R).shape == (4, 5)
        np.testing.assert_array_equal(
            matrix_to_axis_angle(R).reshape(-1, 3), matrix_to_axis_angle(R.reshape(-1, 3, 3))
        )

    def test_one_bad_matrix_rejects_the_stack(self):
        R = np.stack([np.eye(3), np.diag([1.0, 1.0, 2.0])])
        assert list(is_rotation_matrix(R)) == [True, False]
        with pytest.raises(ValidationError):
            matrix_to_axis_angle(R)
        with pytest.raises(ValidationError):
            matrix_to_euler(R, "XYZ")


def scipy_euler(R, order):
    """scipy's extraction, which rigfit used before its closed form: the oracle."""
    from scipy.spatial.transform import Rotation

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns at gimbal lock
        return Rotation.from_matrix(R.reshape(-1, 3, 3)).as_euler(order).reshape(R.shape[:-1])


def exact_lock_matrices(order, a, c, sign):
    """E_i(a) Q E_k(c) for the order's axes (i, j, k), Q an exact quarter turn
    about j: the middle angle is +-90 degrees and R[i, k] is exactly +-1."""
    i, j, k = ("XYZ".index(axis) for axis in order)
    e = np.eye(3)
    Q = np.rint(axis_angle_to_matrix(sign * np.pi / 2 * e[j]))
    return (batch_axis_angle_to_matrix(np.multiply.outer(a, e[i])) @ Q
            @ batch_axis_angle_to_matrix(np.multiply.outer(c, e[k])))


_LOCK_ANGLES = st.lists(st.tuples(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)),
                        min_size=1, max_size=6)


class TestEulerExtraction:
    """The closed-form matrix_to_euler against scipy, and near gimbal lock."""

    @settings(max_examples=300, deadline=None)
    @given(theta_stacks(), _LOCK_ANGLES, st.sampled_from(EULER_ORDERS),
           st.sampled_from([1.0, -1.0]))
    # cos b ~ 1e-4: a and c are each 1.04e-12 off scipy's, and rebuild R to
    # 2.1e-16 against scipy's 2.2e-16
    @example(thetas=np.array([[2.2214409125887347e-04, 2.2214409125887347, 2.2214409125887347]]),
             lock_angles=[(0.0, 0.0)], order="ZXY", sign=1.0)
    def test_matches_scipy(self, thetas, lock_angles, order, sign):
        a, c = np.array(lock_angles).T
        R = np.concatenate([batch_axis_angle_to_matrix(thetas),
                            exact_lock_matrices(order, a, c, sign)])
        i, j = "XYZ".index(order[0]), "XYZ".index(order[1])
        cos_b = np.hypot(R[:, i, i], R[:, i, j])
        # scipy counts cos b < 1e-7 as locked and drops c there, so that its
        # angles reproduce R only to about cos b; rigfit keeps reproducing R
        # down to cos b = 1e-13. Between the two bounds they differ by design.
        keep = (cos_b < 1e-13) | (cos_b > 1e-6)
        R, cos_b = R[keep], cos_b[keep]
        ours, theirs = matrix_to_euler(R, order), scipy_euler(R, order)
        # +-pi name the same angle, and either side may return either. Near
        # lock, a rounding of R moves a and c by up to about eps / cos b; at
        # lock both take c = 0, and a is as well determined as anywhere
        eps = np.finfo(float).eps
        tol = 1e-12 + np.where(cos_b < 1e-13, 0.0, 4.0 * eps / np.maximum(cos_b, 1e-13))
        gap = np.abs((ours - theirs + np.pi) % (2 * np.pi) - np.pi)
        assert np.all(gap <= tol[:, None]), (gap, tol)
        # where they differ, rigfit's angles rebuild R no worse than scipy's
        rebuilt = [np.abs(euler_to_matrix(x, order) - R).max(axis=(-2, -1)) for x in (ours, theirs)]
        assert np.all(rebuilt[0] <= rebuilt[1] + 1e-15), rebuilt
        for x, y in zip(np.rad2deg(ours).ravel(), np.rad2deg(theirs).ravel()):
            assert _fmt(x) == _fmt(y) or {_fmt(x), _fmt(y)} == {"180.000000", "-180.000000"}

    @settings(max_examples=300, deadline=None)
    @given(_LOCK_ANGLES, st.sampled_from(EULER_ORDERS), st.sampled_from([1.0, -1.0]),
           st.one_of(st.just(0.0), st.sampled_from([10.0**-p for p in range(1, 17)]),
                     st.floats(0.0, 1e-3)))
    def test_round_trip_near_lock(self, lock_angles, order, sign, distance):
        # the middle angle within `distance` of +-90 degrees, as euler_to_matrix
        # builds it and as Rodrigues' formula rounds the same rotations
        a, c = np.array(lock_angles).T
        b = np.full(a.shape, sign * (np.pi / 2 - distance))
        R = euler_to_matrix(np.stack([a, b, c], axis=-1), order)
        R = np.concatenate([R, batch_axis_angle_to_matrix(matrix_to_axis_angle(R)),
                            exact_lock_matrices(order, a, c, sign)])
        back = euler_to_matrix(matrix_to_euler(R, order), order)
        np.testing.assert_allclose(back, R, rtol=0.0, atol=1e-12)

    def test_cli_import_loads_no_scipy_spatial(self):
        code = ("import sys, rigfit.cli; "
                "print([m for m in sys.modules if m.startswith('scipy.spatial')])")
        src = os.path.dirname(os.path.dirname(rigfit.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.strip() == "[]"


class TestBuiltMatricesAreRotations:
    """The matrices the BVH layer builds from finite angles always pass
    is_rotation_matrix, which is why it converts them back through the
    unchecked _matrix_to_euler and _matrix_to_axis_angle."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[st.floats(-1e6, 1e6)] * 3), min_size=1, max_size=20),
           st.sampled_from(EULER_ORDERS))
    def test_euler_to_matrix(self, degrees, order):
        R = euler_to_matrix(np.deg2rad(degrees), order)
        assert np.all(is_rotation_matrix(R))
        assert np.array_equal(_matrix_to_axis_angle(R), matrix_to_axis_angle(R))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_AXES, st.one_of(st.floats(0.0, 1e-7), st.floats(0.0, 1e3))),
                    min_size=1, max_size=20),
           st.sampled_from(EULER_ORDERS))
    def test_batch_axis_angle_to_matrix(self, pairs, order):
        R = batch_axis_angle_to_matrix([a * np.asarray(v) / np.linalg.norm(v) for v, a in pairs])
        assert np.all(is_rotation_matrix(R))
        assert np.array_equal(_matrix_to_euler(R, order), matrix_to_euler(R, order))
