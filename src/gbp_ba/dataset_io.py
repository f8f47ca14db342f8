"""Problem serialisation, BAL import, synthetic scenes and corruption.

The native problem format is line-oriented text with explicit section headers
and a version tag so fixtures are diff-able and hand-writable:

    gbpba v1
    intrinsics <fx> <fy> <cx> <cy>
    keyframes <N> gt=<0|1>
    <id> <wx> <wy> <wz> <tx> <ty> <tz> [six ground-truth floats]
    landmarks <M> gt=<0|1>
    <id> <x> <y> <z> [three ground-truth floats]
    measurements <K>
    <kf_id> <lm_id> <u> <v> <sigma>
    outliers <K2>            (optional; measurement indices, one per line)
    metadata <K3>            (optional; "<key> <value>" per line)

Floats are written with 17 significant digits so save/load round-trips are
bit exact.  Blank lines and '#' comments are ignored.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.spatial.transform import Rotation

from .camera import Intrinsics, camera_center, project_many, rotation_matrix

FORMAT_TAG = "gbpba"
FORMAT_VERSION = 1
IMAGE_SIZE = (640, 480)
DEFAULT_INTRINSICS = Intrinsics(fx=350.0, fy=350.0, cx=320.0, cy=240.0)


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        loc = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{loc}")
        self.line = line


class FormatVersionError(ParseError):
    pass


class GenerationError(RuntimeError):
    pass


@dataclass
class ProblemSpec:
    """A bundle-adjustment problem instance: intrinsics, initial states,
    optional ground truth, and pixel measurements.

    Keyframe and landmark ids are their row indices (unique and contiguous
    per kind).
    """

    intrinsics: Intrinsics = DEFAULT_INTRINSICS
    kf_init: np.ndarray = field(default_factory=lambda: np.zeros((0, 6)))
    lm_init: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    kf_gt: np.ndarray | None = None
    lm_gt: np.ndarray | None = None
    meas_kf: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    meas_lm: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    meas_uv: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    meas_sigma: np.ndarray = field(default_factory=lambda: np.zeros(0))
    outlier_mask: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.kf_init = np.asarray(self.kf_init, float).reshape(-1, 6)
        self.lm_init = np.asarray(self.lm_init, float).reshape(-1, 3)
        self.meas_kf = np.asarray(self.meas_kf, int).reshape(-1)
        self.meas_lm = np.asarray(self.meas_lm, int).reshape(-1)
        self.meas_uv = np.asarray(self.meas_uv, float).reshape(-1, 2)
        self.meas_sigma = np.asarray(self.meas_sigma, float).reshape(-1)
        if self.kf_gt is not None:
            self.kf_gt = np.asarray(self.kf_gt, float).reshape(-1, 6)
        if self.lm_gt is not None:
            self.lm_gt = np.asarray(self.lm_gt, float).reshape(-1, 3)
        if self.outlier_mask is not None:
            self.outlier_mask = np.asarray(self.outlier_mask, bool).reshape(-1)
        self.validate()

    @property
    def n_keyframes(self) -> int:
        return self.kf_init.shape[0]

    @property
    def n_landmarks(self) -> int:
        return self.lm_init.shape[0]

    @property
    def n_measurements(self) -> int:
        return self.meas_kf.shape[0]

    def validate(self):
        m = self.n_measurements
        if not (self.meas_lm.shape[0] == m and self.meas_uv.shape[0] == m and self.meas_sigma.shape[0] == m):
            raise ValueError("measurement arrays have inconsistent lengths")
        if m and (self.meas_kf.min() < 0 or self.meas_kf.max() >= self.n_keyframes):
            bad = int(np.argmax((self.meas_kf < 0) | (self.meas_kf >= self.n_keyframes)))
            raise ValueError(f"measurement {bad} references missing keyframe {self.meas_kf[bad]}")
        if m and (self.meas_lm.min() < 0 or self.meas_lm.max() >= self.n_landmarks):
            bad = int(np.argmax((self.meas_lm < 0) | (self.meas_lm >= self.n_landmarks)))
            raise ValueError(f"measurement {bad} references missing landmark {self.meas_lm[bad]}")
        for what, init in (("keyframe", self.kf_init), ("landmark", self.lm_init)):
            finite = np.isfinite(init).all(axis=1)
            if not finite.all():
                raise ValueError(f"{what} {np.argmin(finite)} has a non-finite initial state")
        check_measurement_values(self.meas_uv, self.meas_sigma)
        if self.kf_gt is not None and self.kf_gt.shape[0] != self.n_keyframes:
            raise ValueError("keyframe ground truth count mismatch")
        if self.lm_gt is not None and self.lm_gt.shape[0] != self.n_landmarks:
            raise ValueError("landmark ground truth count mismatch")
        if self.outlier_mask is not None and self.outlier_mask.shape[0] != m:
            raise ValueError("outlier mask length mismatch")

    def copy(self) -> "ProblemSpec":
        """Arrays and metadata copied; intrinsics (frozen) shared."""
        def dup(value):
            return value.copy() if isinstance(value, (np.ndarray, dict)) else value
        return ProblemSpec(**{f.name: dup(getattr(self, f.name)) for f in fields(self)})

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProblemSpec):
            return NotImplemented
        def eq(a, b):
            if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
                return a.shape == b.shape and np.array_equal(a, b)
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                return False  # an array against None
            return a == b
        return all(eq(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def check_measurement_values(uv: np.ndarray, sigma: np.ndarray, error=ValueError) -> None:
    """Raise `error` naming the first measurement whose pixel coordinates
    are not finite or whose noise sigma is not finite and positive."""
    good = np.isfinite(uv).all(axis=1) & np.isfinite(sigma) & (sigma > 0)
    if not good.all():
        i = np.argmin(good)
        raise error(f"measurement {i} has uv {uv[i]} and sigma {sigma[i]}: need finite, sigma > 0")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save(problem: ProblemSpec, path) -> None:
    """Write a problem in the canonical native text form."""
    k = problem.intrinsics
    lines = [f"{FORMAT_TAG} v{FORMAT_VERSION}"]
    lines.append(f"intrinsics {_fmt(k.fx)} {_fmt(k.fy)} {_fmt(k.cx)} {_fmt(k.cy)}")
    has_kf_gt = int(problem.kf_gt is not None)
    lines.append(f"keyframes {problem.n_keyframes} gt={has_kf_gt}")
    for i in range(problem.n_keyframes):
        row = " ".join(_fmt(v) for v in problem.kf_init[i])
        if has_kf_gt:
            row += " " + " ".join(_fmt(v) for v in problem.kf_gt[i])
        lines.append(f"{i} {row}")
    has_lm_gt = int(problem.lm_gt is not None)
    lines.append(f"landmarks {problem.n_landmarks} gt={has_lm_gt}")
    for j in range(problem.n_landmarks):
        row = " ".join(_fmt(v) for v in problem.lm_init[j])
        if has_lm_gt:
            row += " " + " ".join(_fmt(v) for v in problem.lm_gt[j])
        lines.append(f"{j} {row}")
    lines.append(f"measurements {problem.n_measurements}")
    for m in range(problem.n_measurements):
        lines.append(
            f"{problem.meas_kf[m]} {problem.meas_lm[m]} "
            f"{_fmt(problem.meas_uv[m, 0])} {_fmt(problem.meas_uv[m, 1])} "
            f"{_fmt(problem.meas_sigma[m])}"
        )
    if problem.outlier_mask is not None:
        idx = np.flatnonzero(problem.outlier_mask)
        lines.append(f"outliers {idx.size}")
        lines.extend(str(i) for i in idx)
    if problem.metadata:
        lines.append(f"metadata {len(problem.metadata)}")
        for key in sorted(problem.metadata):
            lines.append(f"{key} {problem.metadata[key]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class _LineReader:
    def __init__(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            self.raw = fh.readlines()
        self.pos = 0

    def next(self) -> tuple[str, int]:
        while self.pos < len(self.raw):
            line = self.raw[self.pos].strip()
            self.pos += 1
            if line and not line.startswith("#"):
                return line, self.pos
        raise ParseError("unexpected end of file", len(self.raw))


def _floats(tokens, n, lineno):
    if len(tokens) != n:
        raise ParseError(f"expected {n} fields, got {len(tokens)}", lineno)
    try:
        return [float(t) for t in tokens]
    except ValueError as exc:
        raise ParseError(f"bad float: {exc}", lineno) from None


def load(path) -> ProblemSpec:
    """Parse a native problem file; malformed input raises ParseError with the
    offending line number."""
    rd = _LineReader(path)
    header, lineno = rd.next()
    parts = header.split()
    if len(parts) != 2 or parts[0] != FORMAT_TAG or not parts[1].startswith("v"):
        raise ParseError(f"not a {FORMAT_TAG} problem file: {header!r}", lineno)
    try:
        version = int(parts[1][1:])
    except ValueError:
        raise ParseError(f"bad version tag {parts[1]!r}", lineno) from None
    if version != FORMAT_VERSION:
        raise FormatVersionError(
            f"format version {version} not supported (expected {FORMAT_VERSION})", lineno
        )

    line, lineno = rd.next()
    tok = line.split()
    if tok[0] != "intrinsics":
        raise ParseError(f"expected 'intrinsics', got {tok[0]!r}", lineno)
    fx, fy, cx, cy = _floats(tok[1:], 4, lineno)
    intr = Intrinsics(fx, fy, cx, cy)

    def section(name):
        line, lineno = rd.next()
        tok = line.split()
        if tok[0] != name:
            raise ParseError(f"expected section {name!r}, got {tok[0]!r}", lineno)
        try:
            count = int(tok[1])
        except (IndexError, ValueError):
            raise ParseError(f"bad {name} count", lineno) from None
        gt = False
        if len(tok) > 2:
            if tok[2] not in ("gt=0", "gt=1"):
                raise ParseError(f"bad flag {tok[2]!r}", lineno)
            gt = tok[2] == "gt=1"
        return count, gt

    n_kf, kf_gt_flag = section("keyframes")
    width = 6
    kf_init = np.zeros((n_kf, 6))
    kf_gt = np.zeros((n_kf, 6)) if kf_gt_flag else None
    for i in range(n_kf):
        line, lineno = rd.next()
        tok = line.split()
        vals = _floats(tok[1:], width * (1 + kf_gt_flag), lineno)
        if tok[0] != str(i):
            raise ParseError(f"keyframe ids must be contiguous, expected {i} got {tok[0]}", lineno)
        kf_init[i] = vals[:6]
        if kf_gt_flag:
            kf_gt[i] = vals[6:]

    n_lm, lm_gt_flag = section("landmarks")
    lm_init = np.zeros((n_lm, 3))
    lm_gt = np.zeros((n_lm, 3)) if lm_gt_flag else None
    for j in range(n_lm):
        line, lineno = rd.next()
        tok = line.split()
        vals = _floats(tok[1:], 3 * (1 + lm_gt_flag), lineno)
        if tok[0] != str(j):
            raise ParseError(f"landmark ids must be contiguous, expected {j} got {tok[0]}", lineno)
        lm_init[j] = vals[:3]
        if lm_gt_flag:
            lm_gt[j] = vals[3:]

    n_meas, _ = section("measurements")
    meas_kf = np.zeros(n_meas, dtype=int)
    meas_lm = np.zeros(n_meas, dtype=int)
    meas_uv = np.zeros((n_meas, 2))
    meas_sigma = np.zeros(n_meas)
    for m in range(n_meas):
        line, lineno = rd.next()
        tok = line.split()
        if len(tok) != 5:
            raise ParseError(f"expected 5 fields, got {len(tok)}", lineno)
        try:
            meas_kf[m], meas_lm[m] = int(tok[0]), int(tok[1])
        except ValueError as exc:
            raise ParseError(f"bad id: {exc}", lineno) from None
        meas_uv[m] = _floats(tok[2:4], 2, lineno)
        meas_sigma[m] = _floats(tok[4:5], 1, lineno)[0]

    outlier_mask = None
    metadata: dict = {}
    while True:
        try:
            line, lineno = rd.next()
        except ParseError:
            break
        tok = line.split()
        if tok[0] == "outliers":
            count = int(tok[1])
            outlier_mask = np.zeros(n_meas, dtype=bool)
            for _ in range(count):
                line, lineno = rd.next()
                idx = int(line.split()[0])
                if not 0 <= idx < n_meas:
                    raise ParseError(f"outlier index {idx} out of range", lineno)
                outlier_mask[idx] = True
        elif tok[0] == "metadata":
            count = int(tok[1])
            for _ in range(count):
                line, lineno = rd.next()
                key, _, value = line.partition(" ")
                metadata[key] = value
        else:
            raise ParseError(f"unknown section {tok[0]!r}", lineno)

    try:
        return ProblemSpec(
            intrinsics=intr,
            kf_init=kf_init,
            lm_init=lm_init,
            kf_gt=kf_gt,
            lm_gt=lm_gt,
            meas_kf=meas_kf,
            meas_lm=meas_lm,
            meas_uv=meas_uv,
            meas_sigma=meas_sigma,
            outlier_mask=outlier_mask,
            metadata=metadata,
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def import_bal(path) -> ProblemSpec:
    """Import a "bundle adjustment in the large" style text file.

    The format stores, as whitespace-separated tokens: a header
    (num_cameras num_points num_observations), one observation per line
    (camera point u v), then 9 parameters per camera (Rodrigues rotation,
    translation, f, k1, k2) and 3 per point.  That camera model looks down
    -z with centred pixel coordinates, so cameras are rotated by
    diag(1,-1,-1) into our +z pinhole convention and measurement v is
    negated.  Per-camera focal lengths and radial distortion are dropped
    with a warning (the first camera's f becomes the shared intrinsics).
    """
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    cursor = 0

    def take(n, what):
        nonlocal cursor
        if cursor + n > len(tokens):
            raise ParseError(f"truncated file while reading {what}")
        out = tokens[cursor : cursor + n]
        cursor += n
        return out

    try:
        n_cam, n_pts, n_obs = (int(t) for t in take(3, "header"))
    except ValueError as exc:
        raise ParseError(f"bad header: {exc}") from None
    obs = np.array([float(t) for t in take(4 * n_obs, "observations")]).reshape(n_obs, 4)
    cams = np.array([float(t) for t in take(9 * n_cam, "camera blocks")]).reshape(n_cam, 9)
    pts = np.array([float(t) for t in take(3 * n_pts, "point blocks")]).reshape(n_pts, 3)

    cam_idx = obs[:, 0].astype(int)
    pt_idx = obs[:, 1].astype(int)
    if n_obs and (cam_idx.min() < 0 or cam_idx.max() >= n_cam):
        raise ParseError("observation camera index out of range")
    if n_obs and (pt_idx.min() < 0 or pt_idx.max() >= n_pts):
        raise ParseError("observation point index out of range")

    flip = np.diag([1.0, -1.0, -1.0])
    kf_init = np.zeros((n_cam, 6))
    for i in range(n_cam):
        rot = flip @ Rotation.from_rotvec(cams[i, :3]).as_matrix()
        kf_init[i, :3] = Rotation.from_matrix(rot).as_rotvec()
        kf_init[i, 3:] = flip @ cams[i, 3:6]

    focals = cams[:, 6]
    if n_cam and (np.ptp(focals) > 0 or np.any(cams[:, 7:9] != 0)):
        warnings.warn(
            "per-camera focal lengths and k1/k2 distortion are not modelled; "
            "using the first camera's focal length and dropping distortion",
            stacklevel=2,
        )
    f0 = float(focals[0]) if n_cam else 1.0
    intr = Intrinsics(fx=f0, fy=f0, cx=0.0, cy=0.0)

    meas_uv = np.column_stack([obs[:, 2], -obs[:, 3]])
    return ProblemSpec(
        intrinsics=intr,
        kf_init=kf_init,
        lm_init=pts,
        meas_kf=cam_idx,
        meas_lm=pt_idx,
        meas_uv=meas_uv,
        meas_sigma=np.ones(n_obs),
        metadata={"source": "bal"},
    )


def _look_at(center: np.ndarray, target: np.ndarray) -> np.ndarray:
    """World-to-camera 6-state for a camera at `center` looking at `target`
    (+z forward, +y down in the image)."""
    forward = target - center
    forward = forward / np.linalg.norm(forward)
    up = np.array([0.0, 1.0, 0.0])
    if abs(forward @ up) > 0.99:
        up = np.array([1.0, 0.0, 0.0])
    x_axis = np.cross(up, forward)
    x_axis = x_axis / np.linalg.norm(x_axis)
    y_axis = np.cross(forward, x_axis)
    rot = np.stack([x_axis, y_axis, forward])
    w = Rotation.from_matrix(rot).as_rotvec()
    return np.concatenate([w, -rot @ center])


def synthesize(
    n_keyframes: int,
    n_landmarks: int,
    seed: int,
    trajectory: str = "arc",
    vis_radius: float = 3.0,
    pixel_sigma: float = 1.0,
    model_sigma: float = 1.0,
    image_size: tuple[int, int] = IMAGE_SIZE,
    intrinsics: Intrinsics = DEFAULT_INTRINSICS,
) -> ProblemSpec:
    """Generate a desk-scale scene with ground truth.

    Landmarks are drawn uniformly in a box roughly 1.2 m across; keyframes
    sit on a wide arc of radius 1.2 m around the box (or a straight dolly
    line in front of it) facing its centre, so every view carries depth
    diversity and pairs of views triangulate landmarks at wide angles.
    Measurements are the projections of landmarks that fall inside the image
    with positive depth and within `vis_radius` of the camera, plus isotropic
    Gaussian pixel noise of std `pixel_sigma`.  Landmarks seen fewer than
    twice are discarded.  Everything is deterministic in the seed.

    `model_sigma` is the measurement-noise model written into the problem
    (the sigma column); it is deliberately independent of the injected noise,
    as a solver never knows the true noise of its front end.
    """
    if n_keyframes < 1 or n_landmarks < 1:
        raise GenerationError("need at least one keyframe and one landmark")
    rng = np.random.default_rng(seed)
    box_center = np.array([0.0, 0.0, 1.2])
    box_half = np.array([0.5, 0.4, 0.5])
    landmarks = box_center + rng.uniform(-1.0, 1.0, size=(n_landmarks, 3)) * box_half

    if trajectory == "arc":
        span = 4.0  # radians swept around the box
        radius = 1.2
        angles = np.linspace(-span / 2, span / 2, n_keyframes)
        centers = box_center + radius * np.column_stack(
            [np.sin(angles), 0.05 * np.sin(3 * angles), -np.cos(angles)]
        )
    elif trajectory == "line":
        xs = np.linspace(-0.6, 0.6, n_keyframes)
        centers = np.column_stack([xs, np.zeros(n_keyframes), np.zeros(n_keyframes)])
    else:
        raise GenerationError(f"unknown trajectory shape {trajectory!r}")

    kf_gt = np.stack([_look_at(c, box_center) for c in centers])

    width, height = image_size
    meas = []
    for i in range(n_keyframes):
        uv, depth = project_many(np.repeat(kf_gt[i : i + 1], n_landmarks, axis=0), landmarks, intrinsics)
        dist = np.linalg.norm(landmarks - centers[i], axis=1)
        visible = (
            (depth > 0.1)
            & (uv[:, 0] >= 0)
            & (uv[:, 0] < width)
            & (uv[:, 1] >= 0)
            & (uv[:, 1] < height)
            & (dist <= vis_radius)
        )
        for j in np.flatnonzero(visible):
            meas.append((i, j, uv[j, 0], uv[j, 1]))
    if not meas:
        raise GenerationError("no visible landmarks; degenerate synthesis parameters")

    meas = np.array(meas)
    counts = np.bincount(meas[:, 1].astype(int), minlength=n_landmarks)
    keep = counts >= 2
    if not np.any(keep):
        raise GenerationError("every landmark observed fewer than 2 times")
    remap = -np.ones(n_landmarks, dtype=int)
    remap[keep] = np.arange(int(keep.sum()))
    meas = meas[keep[meas[:, 1].astype(int)]]
    landmarks = landmarks[keep]

    uv = meas[:, 2:4]
    if pixel_sigma > 0:
        uv = uv + rng.normal(0.0, pixel_sigma, size=uv.shape)

    return ProblemSpec(
        intrinsics=intrinsics,
        kf_init=kf_gt.copy(),
        lm_init=landmarks.copy(),
        kf_gt=kf_gt,
        lm_gt=landmarks,
        meas_kf=meas[:, 0].astype(int),
        meas_lm=remap[meas[:, 1].astype(int)],
        meas_uv=uv,
        meas_sigma=np.full(meas.shape[0], float(model_sigma)),
        metadata={
            "generator": "synthesize",
            "seed": str(seed),
            "trajectory": trajectory,
            "pixel_sigma": _fmt(pixel_sigma),
            "model_sigma": _fmt(model_sigma),
            "vis_radius": _fmt(vis_radius),
        },
    )


def perturb(
    problem: ProblemSpec,
    keyframe_sigma: float,
    landmark_mode: str = "backproject",
    landmark_sigma: float = 0.5,
    seed: int = 0,
) -> ProblemSpec:
    """Replace initial states with a corrupted initialisation.

    Keyframe translations get Gaussian noise of std `keyframe_sigma` (metres)
    around ground truth.  Landmarks are re-initialised either on the bearing
    ray of their first observation at range 1 m from the (already perturbed)
    first observing keyframe ("backproject"), or with Gaussian noise of std
    `landmark_sigma` on ground truth ("gauss").
    """
    if problem.kf_gt is None or problem.lm_gt is None:
        raise ValueError("perturb requires ground truth")
    if landmark_mode not in ("backproject", "gauss"):
        raise ValueError(f"unknown landmark mode {landmark_mode!r}")
    rng = np.random.default_rng(seed)
    out = problem.copy()
    out.kf_init = problem.kf_gt.copy()
    out.kf_init[:, 3:] += rng.normal(0.0, keyframe_sigma, size=(problem.n_keyframes, 3)) \
        if keyframe_sigma > 0 else 0.0

    if landmark_mode == "gauss":
        out.lm_init = problem.lm_gt.copy()
        if landmark_sigma > 0:
            out.lm_init += rng.normal(0.0, landmark_sigma, size=(problem.n_landmarks, 3))
    else:
        out.lm_init = backproject_at_unit_range(
            out.kf_init, problem.meas_kf, problem.meas_lm, problem.meas_uv,
            problem.intrinsics, problem.n_landmarks,
        )
    out.metadata = dict(problem.metadata)
    out.metadata.update(
        perturb_seed=str(seed),
        keyframe_sigma=_fmt(keyframe_sigma),
        landmark_mode=landmark_mode,
    )
    return out


def backproject_at_unit_range(
    kf_states: np.ndarray,
    meas_kf: np.ndarray,
    meas_lm: np.ndarray,
    meas_uv: np.ndarray,
    k: Intrinsics,
    n_landmarks: int,
) -> np.ndarray:
    """Initial landmark positions on the bearing ray of each landmark's first
    observation, at range 1 m from the observing keyframe's optical centre."""
    positions = np.zeros((n_landmarks, 3))
    seen = np.zeros(n_landmarks, dtype=bool)
    for m in range(meas_kf.shape[0]):
        j = meas_lm[m]
        if seen[j]:
            continue
        seen[j] = True
        state = kf_states[meas_kf[m]]
        ray_cam = np.array(
            [(meas_uv[m, 0] - k.cx) / k.fx, (meas_uv[m, 1] - k.cy) / k.fy, 1.0]
        )
        ray_world = rotation_matrix(state[:3]).T @ ray_cam
        ray_world /= np.linalg.norm(ray_world)
        positions[j] = camera_center(state) + ray_world
    if not np.all(seen):
        missing = int(np.flatnonzero(~seen)[0])
        raise ValueError(f"landmark {missing} has no observation to backproject from")
    return positions


def inject_outliers(
    problem: ProblemSpec, fraction: float, mode: str = "reassign", seed: int = 0
) -> ProblemSpec:
    """Corrupt round(fraction * N) measurements and label them.

    "reassign" swaps a measurement's landmark to a different landmark observed
    by the same keyframe (a bad data association); "uniform" replaces the
    pixel with a uniform draw over the image.  Measurements that cannot be
    reassigned (keyframe sees < 2 landmarks) are skipped and counted in
    metadata.  Labels land in `outlier_mask`.
    """
    if not 0.0 <= fraction <= 0.5:
        raise ValueError(f"fraction {fraction} outside [0, 0.5]")
    if mode not in ("reassign", "uniform"):
        raise ValueError(f"unknown outlier mode {mode!r}")
    rng = np.random.default_rng(seed)
    out = problem.copy()
    n = problem.n_measurements
    target = int(round(fraction * n))
    mask = np.zeros(n, dtype=bool)
    skipped = 0
    if target:
        width, height = IMAGE_SIZE
        order = rng.permutation(n)
        made = 0
        for m in order:
            if made == target:
                break
            if mode == "uniform":
                out.meas_uv[m] = rng.uniform([0, 0], [width, height])
            else:
                peers = np.unique(problem.meas_lm[problem.meas_kf == problem.meas_kf[m]])
                peers = peers[peers != problem.meas_lm[m]]
                if peers.size == 0:
                    skipped += 1
                    continue
                out.meas_lm[m] = rng.choice(peers)
            mask[m] = True
            made += 1
    out.outlier_mask = mask
    out.metadata = dict(problem.metadata)
    out.metadata.update(
        outlier_fraction=_fmt(fraction),
        outlier_mode=mode,
        outlier_seed=str(seed),
        outlier_skipped=str(skipped),
    )
    return out
