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
entry (a rotation entry, a point coordinate, a pixel) is one length-n
vector, and each step is one vector operation over them.  Its cameras come
from a table `camera_terms` of K keyframes, (21, K): R(w) row by row, t and
J_l(w) row by row, formed once per keyframe.  `project_many` and
`jacobian_many` take one camera per point, as (N, 6) states or rows of that
table, (N, 21) or (N, 12) without J_l to project, or one camera, a single
row, for every point: a caller hands a keyframe's points its one table
column, and gathers the columns of mixed rows with one `np.take`.  They
work over blocks of `BLOCK_ROWS` points, forming the camera terms of a
block of states there, with the same formulas, and write into outputs
allocated once, so their temporaries do not grow with N and a row gets the
same bits however it is passed.

Nothing here raises for a point at or behind the camera plane: both
functions return each row's depth, and callers set the policy for rows with
depth <= DEPTH_EPSILON, whose pixels and Jacobians are garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .batch_linalg import BLOCK_ROWS, _contract

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
    return x if x.dtype.kind == "f" else x.astype(float)


# the rows of [w, -w, 0] that give the 9 entries of [w]x, and the rows
# whose products w_i w_j give those of w w'
_WX, _ROWS, _COLS = (np.array(x) for x in ([6, 5, 1, 2, 6, 3, 4, 0, 6], [0, 0, 0, 1, 1, 1, 2, 2, 2], [0, 1, 2] * 3))


def _so3(w, jacobian: bool):
    """R(w) and, if `jacobian`, J_l(w) for angle-axis vectors w given as
    (3, ...) components: each as its 9 row-major entries, stacked (1 or 2,
    9, ...).  Both are I + c1 [w]x + c2 [w]x^2, with [w]x^2 = w w' - |w|^2
    I, and c1, c2 = sin(t)/t, (1 - cos t)/t^2 for R and (1 - cos t)/t^2,
    (t - sin t)/t^3 for J_l, t = |w|, by series below t = 1e-8."""
    squares = w * w
    theta2 = squares[0] + squares[1]
    theta2 += squares[2]
    theta = np.sqrt(theta2)
    sine = np.sin(theta)
    c = np.empty((2 + jacobian,) + theta.shape, theta.dtype)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(sine, theta, out=c[0, ...])
        np.divide(1.0 - np.cos(theta), theta2, out=c[1, ...])
        if jacobian:
            np.divide(theta - sine, theta2 * theta, out=c[2, ...])
    small = theta < 1e-8
    if small.any():
        series = (1.0 - theta2 / 6.0, 0.5 - theta2 / 24.0, 1.0 / 6.0 - theta2 / 120.0)
        np.copyto(c, np.stack(series[: len(c)]), where=small)
    # the 9 row-major entries of [w]x, zero on the diagonal, and of [w]x^2:
    # w_i w_j off the diagonal and -(w_j^2 + w_k^2) on it, one array each
    wx = np.concatenate([w, -w, np.zeros((1,) + w.shape[1:], w.dtype)])[_WX]
    wx2 = w[_ROWS] * w[_COLS]
    squares = np.concatenate([squares, squares])
    np.negative(squares[1:4] + squares[2:5], out=wx2[::4])
    # a diagonal entry is 1 + c2 [w]x^2, as c1 0 + c2 [w]x^2 leaves the
    # product; the pairs (c1, c2) are c's rows (0, 1) and (1, 2)
    out = c[:-1, None] * wx
    out += c[1:, None] * wx2
    out[:, ::4] += 1.0
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
    theta = np.sqrt(np.add.reduce(w * w, axis=-1))  # np.linalg.norm's own steps
    needs = theta > np.pi
    if not needs.any():
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
    states = np.ascontiguousarray(np.atleast_2d(_as_float(kf_states)).T)
    so3 = _so3(states[:3], jacobian)
    return np.concatenate([so3[0], states[3:], *so3[1:]])


def _rotated(terms, points):
    """R l (3, n) from camera-term and point columns."""
    return _contract("ijn,jn->in", terms[:9].reshape((3, 3) + terms.shape[1:]), points)


def _pixels(terms, points, k: Intrinsics, uv, depth, jac=None):
    """The projection kernel on component-major columns: the pixels (2, n)
    and depths (n,) of the points (3, n) through the cameras of `terms`,
    one column per point or one for all, written into `uv` and `depth`,
    and, given a (2, 9, n) `jac`, their measurement Jacobians written into
    it: d(pixel)/d(camera point) D, and D -[R l]_x J_l, D, D R by columns."""
    rl = _rotated(terms, points)
    np.add(rl[2], terms[11], out=depth)
    xy = rl[:2] + terms[9:11]  # camera x and y, then divided by the depth
    inv = 1.0 / np.where(np.abs(depth) > DEPTH_EPSILON, depth, 1.0)
    xy *= inv
    focal = np.array([[k.fx], [k.fy]], xy.dtype)
    np.multiply(xy, focal, out=uv)
    uv += np.array([[k.cx], [k.cy]], xy.dtype)
    if jac is not None:
        # row r of D is its diagonal entry (a0, b1) in column r and (a2, b2)
        # in column 2, so each product with D is two terms per entry
        diag = focal * inv
        last = -diag * xy
        (a0, b1), (a2, b2) = diag, last
        m = np.empty((2, 3) + rl.shape[1:], rl.dtype)  # D -[R l]_x
        np.multiply(a2, rl[1], out=m[0, 0])
        np.multiply(a0, rl[2], out=m[0, 1])
        m[0, 1] -= a2 * rl[0]
        np.multiply(-a0, rl[1], out=m[0, 2])
        np.multiply(b2, rl[1], out=m[1, 0])
        m[1, 0] -= b1 * rl[2]
        np.multiply(-b2, rl[0], out=m[1, 1])
        np.multiply(b1, rl[0], out=m[1, 2])
        _contract("rkn,kjn->rjn", m, terms[12:21].reshape((3, 3) + terms.shape[1:]), out=jac[:, :3])
        rot = terms[:9].reshape((3, 3) + terms.shape[1:])
        np.multiply(diag[:, None], rot[:2], out=jac[:, 6:])
        jac[:, 6:] += np.multiply(last[:, None], rot[2], out=m)
        jac[:, 3:5] = 0.0
        jac[0, 3], jac[1, 4], jac[:, 5] = diag[0], diag[1], last


def _project(kf_states, points, k: Intrinsics, jacobian: bool):
    """Pixels (2, N), depths (N,) and, with `jacobian`, Jacobians (2, 9, N)
    of points (N, 3) through keyframe states (N, 6) or their rows of
    `camera_terms`, (N, 21) or, where no Jacobian is formed, (N, 12), or
    one such row shared by every point.  The kernel runs over blocks of
    BLOCK_ROWS rows, and the camera terms of states are formed there, a
    block at a time."""
    kf_states, points = np.atleast_2d(_as_float(kf_states), _as_float(points))
    widths = (6, 21) if jacobian else (6, 12, 21)
    if kf_states.shape[-1] not in widths:
        raise ValueError(f"keyframe rows (states or camera_terms rows) must be {widths} wide, "
                         f"got {kf_states.shape[-1]}")
    n = len(points)
    if len(kf_states) not in (1, n):
        raise ValueError(f"{len(kf_states)} keyframe rows do not match {n} points")
    dtype = np.result_type(kf_states, points)
    uv, depth = np.empty((2, n), dtype), np.empty(n, dtype)
    jac = np.empty((2, 9, n), dtype) if jacobian else None
    for start in range(0, n, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        # component-major columns, contiguous along the rows, which einsum
        # then takes as its inner loop (see `batch_linalg._contract`)
        cams = kf_states if len(kf_states) == 1 else kf_states[rows]
        terms = camera_terms(cams, jacobian) if cams.shape[-1] == 6 else np.ascontiguousarray(cams.T)
        _pixels(terms, np.ascontiguousarray(points[rows].T), k, uv[:, rows], depth[rows],
                None if jac is None else jac[..., rows])
    return uv, depth, jac


def project_many(
    kf_states: np.ndarray, points: np.ndarray, k: Intrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """Batch pinhole projection of points (N, 3) through keyframe states
    (N, 6), or through their rows of `camera_terms` (N, 12 or 21), for
    example the (N, 21) view of a table's gathered (21, N) columns, or
    through one camera, a single such row, for every point.

    Returns (pixels (N, 2), depths (N,)), views of component-major arrays.
    Rows with depth <= DEPTH_EPSILON hold garbage pixels; callers decide
    policy from the depth array.
    """
    uv, depth, _ = _project(kf_states, points, k, False)
    return uv.T, depth


def jacobian_many(
    kf_states: np.ndarray, points: np.ndarray, k: Intrinsics
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch projection and 2x9 measurement Jacobians (no depth check) at
    (N, 6) states or their (N, 21) rows of `camera_terms`, or one such row
    for every point: pixels (N, 2) and depths (N,), those of `project_many`,
    and Jacobians (N, 2, 9), the view of a component-major (2, 9, N) array,
    all from one pass."""
    uv, depth, jac = _project(kf_states, points, k, True)
    return uv.T, depth, jac.transpose(2, 0, 1)


def camera_center(kf_state: np.ndarray) -> np.ndarray:
    """World position of the optical centre: the c with R c + t = 0."""
    state = np.asarray(kf_state, float).reshape(6)
    return -rotation_matrix(state[:3]).T @ state[3:]
