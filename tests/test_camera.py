import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from gbp_ba import Intrinsics, dataset_io, retract
from gbp_ba.camera import (
    DEPTH_EPSILON,
    canonicalize_axis_angle,
    camera_center,
    camera_terms,
    jacobian_many,
    project_many,
    rotation_matrix,
    rotation_vector,
)

K_UNIT = Intrinsics(1.0, 1.0, 0.0, 0.0)
K_VGA = Intrinsics(350.0, 350.0, 320.0, 240.0)


def random_visible_config(rng, min_depth=0.3):
    """A keyframe state (6,) and landmark position (3,) with comfortably
    positive depth."""
    while True:
        w = rng.normal(0, 0.6, 3)
        t = rng.normal(0, 0.4, 3)
        l = rng.normal(0, 0.8, 3) + np.array([0, 0, 1.5])
        state = np.concatenate([w, t])
        p = rotation_matrix(w) @ l + t
        if p[2] > min_depth:
            return state, l


def project_one(state, point, k):
    """Pixel and depth of one point through `project_many`."""
    uv, depth = project_many(state[None], np.asarray(point, float)[None], k)
    return uv[0], depth[0]


def left_jacobian(w):
    """J_l(w) of (N, 3) angle-axis vectors, from rows 12-20 of `camera_terms`."""
    w = np.atleast_2d(w)
    return camera_terms(np.hstack([w, np.zeros_like(w)]))[12:].T.reshape(-1, 3, 3)


def finite_diff_jacobian(fun, point, step):
    """Central-difference Jacobian of `fun` at `point`, one column per input
    dimension."""
    cols = []
    for i in range(point.shape[0]):
        delta = np.zeros_like(point)
        delta[i] = step
        cols.append((fun(point + delta) - fun(point - delta)) / (2 * step))
    return np.stack(cols, axis=-1)


IDENTITY = np.zeros(6)


class TestIntrinsics:
    @pytest.mark.parametrize(
        "values",
        [(350, 350, np.nan, 240), (np.inf, 350, 320, 240), (350, 350, 320, -np.inf), (0, 350, 320, 240)],
    )
    def test_rejects_non_finite_values_and_non_positive_focal_lengths(self, values):
        with pytest.raises(ValueError, match="intrinsics must be finite"):
            Intrinsics(*values)


class TestRotations:
    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        ws = rng.normal(0, 1.0, size=(100, 3))
        ours = rotation_matrix(ws)
        ref = Rotation.from_rotvec(ws).as_matrix()
        np.testing.assert_allclose(ours, ref, atol=1e-12)

    def test_small_angle(self):
        w = np.array([1e-10, -2e-10, 5e-11])
        np.testing.assert_allclose(
            rotation_matrix(w), Rotation.from_rotvec(w).as_matrix(), atol=1e-15
        )

    def test_left_jacobian_finite_diff(self):
        # R(w + d) ~ exp([J_l d]_x) R(w)
        rng = np.random.default_rng(1)
        for _ in range(20):
            w = rng.normal(0, 1.0, 3)
            jl = left_jacobian(w)[0]
            for k in range(3):
                d = np.zeros(3)
                d[k] = 1e-7
                numeric = Rotation.from_matrix(
                    rotation_matrix(w + d) @ rotation_matrix(w).T
                ).as_rotvec() / 1e-7
                np.testing.assert_allclose(jl[:, k], numeric, atol=1e-6)


    def test_keep_float_dtype(self):
        w = np.array([[0.3, -0.2, 0.1], [3.0, 1.0, 0.5]])
        for dtype in (np.float32, np.float64):
            x = w.astype(dtype)
            for fn in (rotation_matrix, left_jacobian, canonicalize_axis_angle):
                assert fn(x).dtype == dtype, fn.__name__
            assert retract(np.zeros((2, 6), dtype), np.hstack([x, x])).dtype == dtype
            assert rotation_vector(rotation_matrix(x)).dtype == dtype
        # integer and list inputs become float64
        assert rotation_matrix([0, 0, 1]).dtype == np.float64
        assert rotation_vector(np.eye(3, dtype=int)).dtype == np.float64
        assert canonicalize_axis_angle(np.array([4, 0, 0])).dtype == np.float64


class TestLogMap:
    def test_matches_scipy_bit_for_bit_on_look_at_matrices(self, monkeypatch):
        # every camera `synthesize` places goes through the log map, so its
        # scenes are those scipy's conversion gave
        seen = []

        def spy(rot):
            seen.append(np.array(rot))
            return rotation_vector(rot)

        monkeypatch.setattr(dataset_io, "rotation_vector", spy)
        for seed in range(20):
            for shape in ((20, 300), (44, 30), (7, 60)):
                dataset_io.synthesize(*shape, seed=seed)
        mats = np.array(seen)
        assert mats.shape == (20 * (20 + 44 + 7), 3, 3)
        np.testing.assert_array_equal(rotation_vector(mats), Rotation.from_matrix(mats).as_rotvec())

    def test_matches_scipy_on_random_rotations(self):
        rng = np.random.default_rng(3)
        axes = rng.normal(size=(400, 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        angles = np.concatenate([
            [0.0], rng.uniform(0, 1e-3, 99), rng.uniform(0, np.pi, 200), np.pi - rng.uniform(0, 1e-6, 100)
        ])
        mats = rotation_matrix(axes * angles[:, None])
        np.testing.assert_allclose(
            rotation_vector(mats), Rotation.from_matrix(mats).as_rotvec(), rtol=0, atol=1e-15
        )
        np.testing.assert_array_equal(rotation_vector(np.eye(3)), np.zeros(3))

    def test_inverts_rotation_matrix_up_to_canonicalisation(self):
        rng = np.random.default_rng(4)
        axes = rng.normal(size=(300, 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        angles = rng.uniform(0, 3 * np.pi, 300)
        angles = angles[np.abs(np.mod(angles, 2 * np.pi) - np.pi) > 1e-2]  # away from the angle-pi flip
        ws = axes[: angles.size] * angles[:, None]
        np.testing.assert_allclose(rotation_vector(rotation_matrix(ws)), canonicalize_axis_angle(ws), atol=1e-12)
        np.testing.assert_allclose(rotation_vector(rotation_matrix(ws[:7].reshape(7, 1, 3))),
                                   canonicalize_axis_angle(ws[:7]).reshape(7, 1, 3), atol=1e-12)


class TestCanonicalize:
    def test_inside_range_untouched(self):
        w = np.array([0.3, -0.2, 0.1])
        np.testing.assert_array_equal(canonicalize_axis_angle(w), w)

    def test_wraps_past_pi(self):
        axis = np.array([1.0, 0.0, 0.0])
        w = (np.pi + 0.1) * axis
        out = canonicalize_axis_angle(w)
        np.testing.assert_allclose(np.linalg.norm(out), np.pi - 0.1, rtol=1e-12)
        # flipped axis, same rotation
        assert out[0] < 0
        np.testing.assert_allclose(
            rotation_matrix(out), rotation_matrix(w), atol=1e-12
        )

    def test_same_rotation_many(self):
        rng = np.random.default_rng(2)
        ws = rng.normal(0, 3.0, size=(200, 3))
        outs = canonicalize_axis_angle(ws)
        assert np.all(np.linalg.norm(outs, axis=1) <= np.pi + 1e-12)
        np.testing.assert_allclose(rotation_matrix(outs), rotation_matrix(ws), atol=1e-9)


class TestProject:
    def test_optical_axis(self):
        uv, _ = project_one(IDENTITY, [0, 0, 1], K_UNIT)
        np.testing.assert_array_equal(uv, [0.0, 0.0])

    def test_offset_point(self):
        uv, _ = project_one(IDENTITY, [1, 2, 2], Intrinsics(100, 100, 320, 240))
        np.testing.assert_allclose(uv, [370.0, 340.0], rtol=1e-15)

    def test_matches_homogeneous_transform_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            state, lm = random_visible_config(rng)
            uv, _ = project_one(state, lm, K_VGA)
            # oracle: 4x4 matrix built with scipy, then perspective divide
            T = np.eye(4)
            T[:3, :3] = Rotation.from_rotvec(state[:3]).as_matrix()
            T[:3, 3] = state[3:]
            p = (T @ np.append(lm, 1.0))[:3]
            expect = np.array(
                [K_VGA.fx * p[0] / p[2] + K_VGA.cx, K_VGA.fy * p[1] / p[2] + K_VGA.cy]
            )
            np.testing.assert_allclose(uv, expect, rtol=1e-12)

    def test_behind_camera_depth(self):
        # the depth marks the row; its pixels are finite garbage
        states = np.zeros((3, 6))
        points = np.array([[0, 0, -1.0], [0, 0, 1e-9], [0, 0, 1.0]])
        uv, depth = project_many(states, points, K_UNIT)
        np.testing.assert_array_equal(depth, [-1.0, 1e-9, 1.0])
        np.testing.assert_array_equal(depth <= DEPTH_EPSILON, [True, True, False])
        assert np.all(np.isfinite(uv))

    def test_rigid_gauge_invariance(self):
        # transforming the world by T and compensating the camera leaves pixels fixed
        rng = np.random.default_rng(4)
        for _ in range(20):
            state, lm = random_visible_config(rng)
            uv, _ = project_one(state, lm, K_VGA)
            rot_t = Rotation.from_rotvec(rng.normal(0, 1.0, 3)).as_matrix()
            t_t = rng.normal(0, 2.0, 3)
            l_new = rot_t @ lm + t_t
            r_old = Rotation.from_rotvec(state[:3]).as_matrix()
            r_new = r_old @ rot_t.T
            t_new = state[3:] - r_new @ t_t
            state_new = np.concatenate([Rotation.from_matrix(r_new).as_rotvec(), t_new])
            uv2, _ = project_one(state_new, l_new, K_VGA)
            np.testing.assert_allclose(uv2, uv, atol=1e-9)


class TestJacobian:
    def test_translation_block_at_axis(self):
        jac = jacobian_many(IDENTITY, [0.0, 0.0, 1.0], K_UNIT)[2][0]
        np.testing.assert_allclose(jac[:, 3:6], [[1, 0, 0], [0, 1, 0]], atol=1e-15)

    def test_landmark_block_is_translation_times_rotation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            state, lm = random_visible_config(rng)
            jac = jacobian_many(state, lm, K_VGA)[2][0]
            rot = rotation_matrix(state[:3])
            np.testing.assert_allclose(jac[:, 6:9], jac[:, 3:6] @ rot, rtol=1e-12, atol=1e-12)

    def test_matches_finite_differences(self):
        # every configuration has depth > 0.1, far beyond what the 1e-6 steps move
        rng = np.random.default_rng(6)
        for _ in range(1000):
            state, lm = random_visible_config(rng, min_depth=0.1)
            point = np.concatenate([state, lm])
            jac = jacobian_many(point[None, :6], point[None, 6:], K_VGA)[2][0]
            fd = finite_diff_jacobian(lambda x: project_one(x[:6], x[6:], K_VGA)[0], point, step=1e-6)
            rel = np.abs(jac - fd) / np.maximum(np.abs(fd), 1.0)
            assert rel.max() < 1e-5


class TestRetract:
    def test_zero_delta(self):
        state = np.array([0.1, 0.2, -0.3, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(retract(state, np.zeros(6)), state)

    def test_pure_translation(self):
        state = np.array([0.1, 0.2, -0.3, 1.0, 2.0, 3.0])
        delta = np.array([0, 0, 0, 0.5, -0.5, 0.25])
        out = retract(state, delta)
        np.testing.assert_array_equal(out[:3], state[:3])
        np.testing.assert_array_equal(out[3:], state[3:] + delta[3:])

    def test_rotation_wrap(self):
        axis = np.array([0.0, 1.0, 0.0])
        state = np.concatenate([(np.pi - 0.05) * axis, np.zeros(3)])
        out = retract(state, np.concatenate([0.15 * axis, np.zeros(3)]))
        np.testing.assert_allclose(np.linalg.norm(out[:3]), np.pi - 0.1, rtol=1e-12)
        np.testing.assert_allclose(
            rotation_matrix(out[:3]), rotation_matrix((np.pi + 0.1) * axis), atol=1e-12
        )

    def test_landmark_plain_addition(self):
        out = retract(np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.1, 0.1]))
        np.testing.assert_array_equal(out, [1.1, 2.1, 3.1])

    def test_forward_backward_composes_to_identity(self):
        # generic draws, kept below the wrapping threshold (axis-angle vector
        # addition is not a group operation once the intermediate wraps)
        rng = np.random.default_rng(7)
        for _ in range(50):
            state = np.concatenate([rng.normal(0, 0.6, 3), rng.normal(0, 1, 3)])
            delta = np.concatenate([rng.normal(0, 0.6, 3), rng.normal(0, 1, 3)])
            if np.linalg.norm(state[:3] + delta[:3]) > np.pi:
                continue
            back = retract(retract(state, delta), -delta)
            np.testing.assert_allclose(back[3:], state[3:], atol=1e-12)
            np.testing.assert_allclose(
                rotation_matrix(back[:3]), rotation_matrix(state[:3]), atol=1e-10
            )

    def test_forward_backward_through_collinear_wrap(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            state = np.concatenate([(np.pi - 0.05) * axis, rng.normal(0, 1, 3)])
            delta = np.concatenate([0.3 * axis, np.zeros(3)])
            back = retract(retract(state, delta), -delta)
            np.testing.assert_allclose(
                rotation_matrix(back[:3]), rotation_matrix(state[:3]), atol=1e-10
            )

    def test_nine_dim_state(self):
        state = np.concatenate([(np.pi + 0.2) * np.array([1.0, 0, 0]), np.ones(6)])
        out = retract(state, np.zeros(9))
        assert np.linalg.norm(out[:3]) <= np.pi


class TestBatchHelpers:
    def test_camera_center_roundtrip(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            state = np.concatenate([rng.normal(0, 1, 3), rng.normal(0, 1, 3)])
            c = camera_center(state)
            p = rotation_matrix(state[:3]) @ c + state[3:]
            np.testing.assert_allclose(p, np.zeros(3), atol=1e-12)


def skew(v):
    """Cross-product matrices for (..., 3) vectors."""
    out = np.zeros(v.shape[:-1] + (3, 3), v.dtype)
    out[..., 0, 1], out[..., 0, 2], out[..., 1, 2] = -v[..., 2], v[..., 1], -v[..., 0]
    out[..., 1, 0], out[..., 2, 0], out[..., 2, 1] = v[..., 2], -v[..., 1], v[..., 0]
    return out


def reference_so3(w):
    """R(w) and J_l(w) row by row from the skew matrix, I + c1 [w]x + c2
    [w]x^2, with the series below 1e-8."""
    theta2 = np.sum(w * w, axis=-1)
    theta = np.sqrt(theta2)
    small = theta < 1e-8
    safe, safe2 = np.where(small, 1.0, theta), np.where(small, 1.0, theta2)
    a = np.where(small, 1.0 - theta2 / 6.0, np.sin(theta) / safe)
    b = np.where(small, 0.5 - theta2 / 24.0, (1.0 - np.cos(theta)) / safe2)
    c = np.where(small, 1.0 / 6.0 - theta2 / 120.0, (theta - np.sin(theta)) / (safe2 * safe))
    wx = skew(w)
    wx2 = wx @ wx
    eye = np.eye(3, dtype=w.dtype)
    return (eye + a[..., None, None] * wx + b[..., None, None] * wx2,
            eye + b[..., None, None] * wx + c[..., None, None] * wx2)


def reference_camera(states, points, k):
    """Pixels, depths and 2x9 Jacobians row by row: p = R l + t by einsum,
    d(pixel)/dp = D, and the blocks D (-[R l]_x J_l), D and D R."""
    rot, jl = reference_so3(states[:, :3])
    rl = np.einsum("nij,nj->ni", rot, points)
    p = rl + states[:, 3:]
    z = p[:, 2]
    safe = np.where(np.abs(z) > DEPTH_EPSILON, z, 1.0)
    uv = np.stack([k.fx * p[:, 0] / safe + k.cx, k.fy * p[:, 1] / safe + k.cy], axis=1)
    dpix = np.zeros((len(z), 2, 3), z.dtype)
    dpix[:, 0, 0], dpix[:, 0, 2] = k.fx / safe, -k.fx * p[:, 0] / safe**2
    dpix[:, 1, 1], dpix[:, 1, 2] = k.fy / safe, -k.fy * p[:, 1] / safe**2
    jac = np.concatenate([dpix @ (-skew(rl) @ jl), dpix, dpix @ rot], axis=2)
    return uv, z, jac


class TestColumnKernel:
    """`project_many` and `jacobian_many` are one column-major kernel; these
    check it against the per-row formulas above at the edges of its cases."""

    @staticmethod
    def configs(rng, magnitudes):
        """Keyframe states with the given rotation magnitudes about random
        axes, and points in front of them at depths 0.5-3."""
        axes = rng.normal(size=(len(magnitudes), 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        states = np.hstack([axes * np.asarray(magnitudes)[:, None], rng.normal(0, 0.3, (len(magnitudes), 3))])
        rot, _ = reference_so3(states[:, :3])
        cam = np.column_stack([rng.normal(0, 0.5, (len(magnitudes), 2)), rng.uniform(0.5, 3, len(magnitudes))])
        points = np.einsum("nji,nj->ni", rot, cam - states[:, 3:])  # R' (p - t)
        return states, points

    @staticmethod
    def assert_rows_close(got, want, rtol):
        """Each row within rtol of its largest entry."""
        scale = np.abs(want).reshape(len(want), -1).max(axis=1)
        err = np.abs(got - want).reshape(len(want), -1).max(axis=1)
        assert np.all(err <= rtol * scale), (err / scale).max()

    @pytest.mark.parametrize("magnitudes", [
        [0.0, 1e-12, 3e-9, 9.9e-9],  # the series branch
        [1.01e-8, 1e-6, 1e-3, 0.5],
        [np.pi - 1e-3, np.pi - 1e-9, np.pi, 2.0],  # near pi
    ])
    def test_matches_per_row_formulas(self, magnitudes):
        states, points = self.configs(np.random.default_rng(31), magnitudes * 25)
        uv, depth, jac = reference_camera(states, points, K_VGA)
        got_uv, got_depth = project_many(states, points, K_VGA)
        self.assert_rows_close(got_uv, uv, 1e-12)
        self.assert_rows_close(got_depth[:, None], depth[:, None], 1e-12)
        got_all = jacobian_many(states, points, K_VGA)
        self.assert_rows_close(got_all[2], jac, 1e-12)
        # the pixels and depths it projected are project_many's, bit for bit
        np.testing.assert_array_equal(got_all[0], got_uv)
        np.testing.assert_array_equal(got_all[1], got_depth)
        for got, want in zip(reference_so3(states[:, :3]), (rotation_matrix, left_jacobian)):
            self.assert_rows_close(want(states[:, :3]), got, 1e-12)

    def test_depth_at_the_epsilon(self):
        # just in front of and behind DEPTH_EPSILON only the depth counts:
        # the pixels and Jacobians of rows at or behind it are garbage
        states, points = self.configs(np.random.default_rng(32), [0.3] * 6)
        rot, _ = reference_so3(states[:, :3])
        depths = DEPTH_EPSILON * np.array([1 - 1e-6, 1 + 1e-6, 1 - 1e-3, 1 + 1e-3, 0.5, 2.0])
        cam = np.column_stack([np.full((6, 2), 1e-7), depths])
        points = np.einsum("nji,nj->ni", rot, cam - states[:, 3:])
        _, depth, _ = reference_camera(states, points, K_VGA)
        _, got = project_many(states, points, K_VGA)
        # the depth is R l + t less cancellation, so its error scales with
        # the terms summed
        scale = np.linalg.norm(points, axis=1) + np.linalg.norm(states[:, 3:], axis=1)
        assert np.all(np.abs(got - depth) <= 1e-12 * scale)
        np.testing.assert_array_equal(got <= DEPTH_EPSILON, depth <= DEPTH_EPSILON)
        assert np.all(np.isfinite(jacobian_many(states, points, K_VGA)[2]))

    def test_float32(self):
        states, points = self.configs(np.random.default_rng(33), [1e-9, 0.4, 2.5, np.pi - 1e-3] * 25)
        states, points = states.astype(np.float32), points.astype(np.float32)
        uv, depth, jac = reference_camera(states, points, K_VGA)
        got_uv, got_depth = project_many(states, points, K_VGA)
        got_jac = jacobian_many(states, points, K_VGA)[2]
        assert got_uv.dtype == got_depth.dtype == got_jac.dtype == np.float32
        eps = float(np.finfo(np.float32).eps)
        self.assert_rows_close(got_uv, uv, 64 * eps)
        self.assert_rows_close(got_depth[:, None], depth[:, None], 64 * eps)
        self.assert_rows_close(got_jac, jac, 64 * eps)

    def test_gathered_terms_equal_per_row_states(self):
        # the (N, 21) view of a per-keyframe table's gathered columns gives
        # the per-row results bit for bit
        states, points = self.configs(np.random.default_rng(34), [0.2, 1.0, 3.0])
        rows = np.array([0, 2, 1, 1, 0])
        table = camera_terms(states)
        terms = np.take(table, rows, axis=1).T
        for got, want in zip(project_many(terms, points[rows], K_VGA), project_many(states[rows], points[rows], K_VGA)):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(jacobian_many(terms, points[rows], K_VGA), jacobian_many(states[rows], points[rows], K_VGA)):
            np.testing.assert_array_equal(got, want)

    def test_rows_of_another_width_are_rejected(self):
        # states are 6 wide and table rows 21, or 12 without J_l where only
        # projecting; J_l cannot come from 12-wide rows
        states, points = self.configs(np.random.default_rng(35), [0.2, 1.0])
        terms = camera_terms(states).T
        np.testing.assert_array_equal(project_many(terms[:, :12], points, K_VGA)[0], project_many(states, points, K_VGA)[0])
        with pytest.raises(ValueError, match="wide"):
            jacobian_many(terms[:, :12], points, K_VGA)
        for width in (3, 7, 20):
            with pytest.raises(ValueError, match="wide"):
                project_many(terms[:, :width], points, K_VGA)
