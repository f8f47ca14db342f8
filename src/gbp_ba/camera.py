"""Pinhole camera geometry on stacked arrays: rotations, projection and the
analytic 2x9 measurement Jacobian, one row per (keyframe state, point) pair.

Conventions used throughout the package:

- A keyframe state is a global 6-vector [w, t]: angle-axis rotation w (radians,
  magnitude kept in [0, pi]) followed by translation t (world units).
- World-to-camera: a world point l maps to the camera frame as
  p = R(w) @ l + t, and projects to pixel (fx*px/pz + cx, fy*py/pz + cy).
- Keyframe states form a Euclidean space for messages and priors; updates are
  plain vector addition followed by canonicalisation of the rotation part.

This is the package's one rotation implementation: `rotation_matrix` is the
SO(3) exp map and `rotation_vector` its log map; nothing else in the
package converts between angle-axis vectors and matrices.

The measurement Jacobian is laid out as columns 0-2: rotation, 3-5:
translation, 6-8: landmark position, all in the global parameterisation.
The rotation block uses d(R(w) l)/dw = -[R l]_x J_l(w) with J_l the SO(3)
left Jacobian.

Projection and Jacobian are one kernel on component-major columns: every
entry (a rotation entry, a point coordinate, a pixel) is one length-N
vector, and each step is one vector operation over them.  Its cameras come
from a table `camera_terms` of K keyframes, (21, K): R(w) row by row, t and
J_l(w) row by row, formed once per keyframe; a caller gathers the columns
of its rows with one `np.take` and hands `project_many` and `jacobian_many`
their (N, 21) view, or (N, 12) without J_l to project.  Given (N, 6)
states, those functions form the table row by row themselves, with the same
formulas, so either way a row gets the same bits.

Nothing here raises for a point at or behind the camera plane: both
functions return each row's depth, and callers set the policy for rows with
depth <= DEPTH_EPSILON, whose pixels and Jacobians are garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEPTH_EPSILON = 1e-6


@dataclass(frozen=True)
class Intrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        values = (self.fx, self.fy, self.cx, self.cy)
        if not (np.isfinite(values).all() and self.fx > 0 and self.fy > 0):
            raise ValueError(f"intrinsics must be finite, focal lengths positive: {values}")


def _as_float(x) -> np.ndarray:
    """`x` as an array of its own float dtype; anything else becomes float64."""
    x = np.asarray(x)
    return x if np.issubdtype(x.dtype, np.floating) else x.astype(float)


def _so3(w, jacobian: bool):
    """R(w) and, if `jacobian`, J_l(w) for angle-axis vectors w given as
    (3, ...) components: each as its 9 row-major entries (9, ...).  Both
    are I + c1 [w]x + c2 [w]x^2, with [w]x^2 = w w' - |w|^2 I, and
    c1, c2 = sin(t)/t, (1 - cos t)/t^2 for R and (1 - cos t)/t^2,
    (t - sin t)/t^3 for J_l, t = |w|, by series below t = 1e-8."""
    w0, w1, w2 = w
    theta2 = w0 * w0 + w1 * w1 + w2 * w2
    theta = np.sqrt(theta2)
    small = theta < 1e-8
    with np.errstate(invalid="ignore", divide="ignore"):
        sin_t = np.where(small, 1.0 - theta2 / 6.0, np.sin(theta) / np.where(small, 1.0, theta))
        cos_t = np.where(small, 0.5 - theta2 / 24.0, (1.0 - np.cos(theta)) / np.where(small, 1.0, theta2))
        coefs = [(sin_t, cos_t)]
        if jacobian:
            cubic = np.where(
                small, 1.0 / 6.0 - theta2 / 120.0,
                (theta - np.sin(theta)) / np.where(small, 1.0, theta2 * theta),
            )
            coefs.append((cos_t, cubic))
    wx = ((None, -w2, w1), (w2, None, -w0), (-w1, w0, None))
    wx2 = (
        (-(w1 * w1 + w2 * w2), w0 * w1, w0 * w2),
        (w1 * w0, -(w0 * w0 + w2 * w2), w1 * w2),
        (w2 * w0, w2 * w1, -(w0 * w0 + w1 * w1)),
    )
    out = []
    for c1, c2 in coefs:
        mat = np.empty((9,) + theta.shape, theta.dtype)
        for i in range(3):
            for j in range(3):
                mat[3 * i + j] = 1.0 + c2 * wx2[i][j] if i == j else c1 * wx[i][j] + c2 * wx2[i][j]
        out.append(mat)
    return out


def _matrices(entries: np.ndarray) -> np.ndarray:
    """(9, ...) row-major entries -> (..., 3, 3) matrices."""
    return np.moveaxis(entries.reshape((3, 3) + entries.shape[1:]), (0, 1), (-2, -1))


def rotation_matrix(w: np.ndarray) -> np.ndarray:
    """Rodrigues formula for (..., 3) angle-axis vectors -> (..., 3, 3)."""
    return _matrices(_so3(np.moveaxis(_as_float(w), -1, 0), False)[0])


def rotation_vector(rot: np.ndarray) -> np.ndarray:
    """The SO(3) log map, inverse of `rotation_matrix`: (..., 3, 3) proper
    rotations -> (..., 3) angle-axis vectors of magnitude in [0, pi].

    Each matrix goes to a unit quaternion q by Markley's largest-of-four
    branch (diagonal entries or trace), with q_w >= 0, and then to
    (angle / sin(angle / 2)) q_xyz, angle = 2 atan2(|q_xyz|, q_w), by the
    series 2 + angle^2 / 12 + 7 angle^4 / 2880 at angles up to 1e-3.  The
    steps are scalar and in the order of scipy's
    `Rotation.from_matrix(R).as_rotvec()`, each norm the square root of its
    squares summed in index order and then divided by, so on orthonormal
    input both give the same bits; a vectorised norm or a multiplication by
    1 / norm does not.  Callers pass one matrix per camera.
    """
    rot = _as_float(rot)
    out = np.empty(rot.shape[:-1], rot.dtype)
    for index in np.ndindex(rot.shape[:-2]):
        m = rot[index].tolist()
        trace = m[0][0] + m[1][1] + m[2][2]
        decision = [m[0][0], m[1][1], m[2][2], trace]
        i = decision.index(max(decision))
        if i == 3:
            q = [m[2][1] - m[1][2], m[0][2] - m[2][0], m[1][0] - m[0][1], 1 + trace]
        else:
            j, k = (i + 1) % 3, (i + 2) % 3
            q = [0.0] * 4
            q[i] = 1 - trace + 2 * m[i][i]
            q[j] = m[j][i] + m[i][j]
            q[k] = m[k][i] + m[i][k]
            q[3] = m[k][j] - m[j][k]
        norm = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
        q = [c / norm for c in q]
        if q[3] < 0:
            q = [-c for c in q]
        angle = 2 * math.atan2(math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2]), q[3])
        if angle <= 1e-3:
            angle2 = angle * angle
            scale = 2 + angle2 / 12 + 7 * angle2 * angle2 / 2880
        else:
            scale = angle / math.sin(angle / 2)
        out[index] = scale * q[0], scale * q[1], scale * q[2]
    return out


def canonicalize_axis_angle(w: np.ndarray) -> np.ndarray:
    """Wrap (..., 3) angle-axis vectors so the magnitude lies in [0, pi]."""
    w = _as_float(w)
    theta = np.linalg.norm(w, axis=-1)
    needs = theta > np.pi
    if not np.any(needs):
        return w.copy()
    r = np.mod(theta, 2.0 * np.pi)
    r = np.where(r > np.pi, r - 2.0 * np.pi, r)  # (-pi, pi]
    scale = np.where(needs, r / np.where(theta > 0, theta, 1.0), 1.0)
    return w * scale[..., None]


def retract(state: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Apply a delta in the global parameterisation.

    Componentwise addition; when the state carries a pose (dim >= 6) the
    leading angle-axis block is canonicalised afterwards.  Accepts 3-vectors
    (landmark), 6-vectors (pose) and 9-vectors (stacked pose + landmark), or
    stacks (..., d) of them.
    """
    state = _as_float(state)
    delta = _as_float(delta)
    if state.shape != delta.shape:
        raise ValueError(f"state shape {state.shape} != delta shape {delta.shape}")
    out = state + delta
    if out.shape[-1] >= 6:
        out[..., :3] = canonicalize_axis_angle(out[..., :3])
    return out


def camera_terms(kf_states: np.ndarray, jacobian: bool = True) -> np.ndarray:
    """The camera terms of keyframe states (K, 6), component-major (21, K):
    rows 0-8 hold R(w) row by row, 9-11 t and 12-20 J_l(w) row by row.
    Without `jacobian` only the first 12, all a projection reads, are
    formed."""
    states = np.atleast_2d(_as_float(kf_states)).T
    so3 = _so3(states[:3], jacobian)
    return np.concatenate([so3[0], states[3:], *so3[1:]])


def _columns(kf_states, points, jacobian: bool):
    """The camera terms and points of (N, 6) states or their rows of
    `camera_terms` (N, 21), or (N, 12) without J_l where no Jacobian is
    formed, and (N, 3) points, as component-major columns."""
    kf_states, points = (np.atleast_2d(_as_float(x)) for x in (kf_states, points))
    widths = (6, 21) if jacobian else (6, 12, 21)
    if kf_states.shape[-1] not in widths:
        raise ValueError(f"keyframe rows (states or camera_terms rows) must be {widths} wide, "
                         f"got {kf_states.shape[-1]}")
    if kf_states.shape[-1] == 6:
        return camera_terms(kf_states, jacobian), points.T
    return kf_states.T, points.T


def _rotated(terms, points):
    """R l (3, N) from camera-term and point columns."""
    rot = terms[:9]
    return np.stack([
        rot[3 * i] * points[0] + rot[3 * i + 1] * points[1] + rot[3 * i + 2] * points[2]
        for i in range(3)
    ])


def _pixels(terms, points, k: Intrinsics, jac=None):
    """The projection kernel on component-major columns: pixels (2, N) and
    depths (N,) of the points through the cameras of `terms`, and, given a
    (2, 9, N) `jac`, their measurement Jacobians written into it:
    d(pixel)/d(camera point) D, and D -[R l]_x J_l, D, D R by columns."""
    rl = _rotated(terms, points)
    p = rl + terms[9:12]
    depth = p[2]
    inv = 1.0 / np.where(np.abs(depth) > DEPTH_EPSILON, depth, 1.0)
    x, y = p[0] * inv, p[1] * inv
    uv = np.stack([k.fx * x + k.cx, k.fy * y + k.cy])
    if jac is not None:
        # D = [[a0, 0, a2], [0, b1, b2]]
        a0, b1 = k.fx * inv, k.fy * inv
        a2, b2 = -a0 * x, -b1 * y
        rot, jl = terms[:9], terms[12:21]
        m = (  # D -[R l]_x
            (a2 * rl[1], a0 * rl[2] - a2 * rl[0], -a0 * rl[1]),
            (b2 * rl[1] - b1 * rl[2], -b2 * rl[0], b1 * rl[0]),
        )
        for r, (d_diag, d_z) in enumerate(((a0, a2), (b1, b2))):
            for j in range(3):
                np.add(m[r][0] * jl[j], m[r][1] * jl[3 + j], out=jac[r, j])
                jac[r, j] += m[r][2] * jl[6 + j]
                np.add(d_diag * rot[3 * r + j], d_z * rot[6 + j], out=jac[r, 6 + j])
            jac[r, 3 : 6] = 0.0
            jac[r, 3 + r] = d_diag
            jac[r, 5] = d_z
    return uv, depth


def project_many(
    kf_states: np.ndarray, points: np.ndarray, k: Intrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """Batch pinhole projection of points (N, 3) through keyframe states
    (N, 6), or through their rows of `camera_terms` (N, 12 or 21), for
    example the (N, 21) view of a table's gathered (21, N) columns.

    Returns (pixels (N, 2), depths (N,)).  Rows with depth <= DEPTH_EPSILON
    hold garbage pixels; callers decide policy from the depth array.
    """
    uv, depth = _pixels(*_columns(kf_states, points, False), k)
    return uv.T, depth


def jacobian_many(
    kf_states: np.ndarray, points: np.ndarray, k: Intrinsics
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch projection and 2x9 measurement Jacobians (no depth check) at
    (N, 6) states or their (N, 21) rows of `camera_terms`: pixels (N, 2) and
    depths (N,), those of `project_many`, and Jacobians (N, 2, 9), the view
    of a component-major (2, 9, N) array, all from one pass."""
    terms, points = _columns(kf_states, points, True)
    jac = np.empty((2, 9, points.shape[-1]), np.result_type(terms, points))
    uv, depth = _pixels(terms, points, k, jac)
    return uv.T, depth, jac.transpose(2, 0, 1)


def camera_center(kf_state: np.ndarray) -> np.ndarray:
    """World position of the optical centre: the c with R c + t = 0."""
    state = np.asarray(kf_state, float).reshape(6)
    return -rotation_matrix(state[:3]).T @ state[3:]
