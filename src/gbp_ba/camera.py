"""Pinhole camera geometry on stacked arrays: rotations, projection and the
analytic 2x9 measurement Jacobian, one row per (keyframe state, point) pair.

Conventions used throughout the package:

- A keyframe state is a global 6-vector [w, t]: angle-axis rotation w (radians,
  magnitude kept in [0, pi]) followed by translation t (world units).
- World-to-camera: a world point l maps to the camera frame as
  p = R(w) @ l + t, and projects to pixel (fx*px/pz + cx, fy*py/pz + cy).
- Keyframe states form a Euclidean space for messages and priors; updates are
  plain vector addition followed by canonicalisation of the rotation part.

The measurement Jacobian is laid out as columns 0-2: rotation, 3-5:
translation, 6-8: landmark position, all in the global parameterisation.
The rotation block uses d(R(w) l)/dw = -[R l]_x J_l(w) with J_l the SO(3)
left Jacobian.

Nothing here raises for a point at or behind the camera plane: `project_many`
returns each row's depth, and callers set the policy for rows with depth
<= DEPTH_EPSILON, whose pixels and Jacobians are garbage.
"""

from __future__ import annotations

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


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices for (..., 3) vectors."""
    v = _as_float(v)
    out = np.zeros(v.shape[:-1] + (3, 3), dtype=v.dtype)
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def rotation_matrix(w: np.ndarray) -> np.ndarray:
    """Rodrigues formula for (..., 3) angle-axis vectors -> (..., 3, 3)."""
    w = _as_float(w)
    theta2 = np.sum(w * w, axis=-1)
    theta = np.sqrt(theta2)
    small = theta < 1e-8
    # sin(t)/t and (1-cos(t))/t^2 with series fallbacks near zero
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.where(small, 1.0 - theta2 / 6.0, np.sin(theta) / np.where(small, 1.0, theta))
        b = np.where(small, 0.5 - theta2 / 24.0, (1.0 - np.cos(theta)) / np.where(small, 1.0, theta2))
    wx = skew(w)
    wx2 = wx @ wx
    eye = np.broadcast_to(np.eye(3, dtype=wx.dtype), wx.shape)
    return eye + a[..., None, None] * wx + b[..., None, None] * wx2


def left_jacobian(w: np.ndarray) -> np.ndarray:
    """SO(3) left Jacobian J_l(w) for (..., 3) angle-axis vectors."""
    w = _as_float(w)
    theta2 = np.sum(w * w, axis=-1)
    theta = np.sqrt(theta2)
    small = theta < 1e-8
    with np.errstate(invalid="ignore", divide="ignore"):
        b = np.where(small, 0.5 - theta2 / 24.0, (1.0 - np.cos(theta)) / np.where(small, 1.0, theta2))
        c = np.where(
            small,
            1.0 / 6.0 - theta2 / 120.0,
            (theta - np.sin(theta)) / np.where(small, 1.0, theta2 * theta),
        )
    wx = skew(w)
    wx2 = wx @ wx
    eye = np.broadcast_to(np.eye(3, dtype=wx.dtype), wx.shape)
    return eye + b[..., None, None] * wx + c[..., None, None] * wx2


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


def transform_many(kf_states: np.ndarray, points: np.ndarray, rot=None) -> np.ndarray:
    """Camera-frame coordinates R(w) @ l + t for stacked states/points (N, 6)/(N, 3).

    `rot` may give the rows' R(w) (N, 3, 3), for example computed once per
    keyframe and gathered; it must equal `rotation_matrix(kf_states[..., :3])`.
    """
    if rot is None:
        rot = rotation_matrix(kf_states[..., :3])
    return np.einsum("...ij,...j->...i", rot, points) + kf_states[..., 3:]


def project_many(
    kf_states: np.ndarray, points: np.ndarray, k: Intrinsics, rot=None
) -> tuple[np.ndarray, np.ndarray]:
    """Batch pinhole projection, with `rot` as for `transform_many`.

    Returns (pixels (N, 2), depths (N,)).  Rows with depth <= DEPTH_EPSILON
    hold garbage pixels; callers decide policy from the depth array.
    """
    p = transform_many(np.atleast_2d(kf_states), np.atleast_2d(points), rot)
    depth = p[..., 2]
    safe = np.where(np.abs(depth) > DEPTH_EPSILON, depth, 1.0)
    uv = np.stack(
        [k.fx * p[..., 0] / safe + k.cx, k.fy * p[..., 1] / safe + k.cy], axis=-1
    )
    return uv, depth


def jacobian_many(
    kf_states: np.ndarray, points: np.ndarray, k: Intrinsics, rot=None, jl=None
) -> np.ndarray:
    """Batch 2x9 measurement Jacobians at the given states (no depth check).

    `rot` and `jl` may give the rows' R(w) and J_l(w) (N, 3, 3), which must
    equal `rotation_matrix` and `left_jacobian` of `kf_states[..., :3]`.
    """
    kf_states = np.atleast_2d(kf_states)
    points = np.atleast_2d(points)
    if rot is None:
        rot = rotation_matrix(kf_states[..., :3])
    if jl is None:
        jl = left_jacobian(kf_states[..., :3])
    rl = np.einsum("...ij,...j->...i", rot, points)
    p = rl + kf_states[..., 3:]
    z = p[..., 2]
    safe = np.where(np.abs(z) > DEPTH_EPSILON, z, 1.0)
    # d(pixel)/d(camera point)
    dpix = np.zeros(p.shape[:-1] + (2, 3), p.dtype)
    dpix[..., 0, 0] = k.fx / safe
    dpix[..., 0, 2] = -k.fx * p[..., 0] / safe**2
    dpix[..., 1, 1] = k.fy / safe
    dpix[..., 1, 2] = -k.fy * p[..., 1] / safe**2
    dp_dw = -skew(rl) @ jl
    jac = np.zeros(p.shape[:-1] + (2, 9), p.dtype)
    jac[..., :, 0:3] = dpix @ dp_dw
    jac[..., :, 3:6] = dpix
    jac[..., :, 6:9] = dpix @ rot
    return jac


def camera_center(kf_state: np.ndarray) -> np.ndarray:
    """World position of the optical centre: the c with R c + t = 0."""
    state = np.asarray(kf_state, float).reshape(6)
    return -rotation_matrix(state[:3]).T @ state[3:]
