"""Problem serialisation, BAL import, synthetic scenes and corruption.

The native problem format is line-oriented text with explicit section headers
and a version tag, so fixtures are diff-able and hand-writable.  Its sections
come in this order, the last two optional and in either order:

    gbpba v1
    intrinsics <fx> <fy> <cx> <cy>
    keyframes <N> gt=<0|1>
    <id> <wx> <wy> <wz> <tx> <ty> <tz> [six ground-truth floats if gt=1]
    landmarks <M> gt=<0|1>
    <id> <x> <y> <z> [three ground-truth floats if gt=1]
    measurements <K>
    <kf_id> <lm_id> <u> <v> <sigma>
    outliers <K2>            (one measurement index per line)
    metadata <K3>            ("<key> <value>" per line)

`COLUMNS` encodes the rows: a row holds its section's fields in table order,
after an integer id for keyframes and landmarks.  Ids run 0, 1, ... in file
order.  Ids and indices are integers; every other field is a float, written
with 17 significant digits so save/load round-trips are bit exact.  A header
without a gt flag means gt=0.  Blank lines and whole-line '#' comments are
ignored anywhere; a '#' after a row's fields is an error.

Rotations, the look-at cameras of `synthesize` and the cameras `import_bal`
flips into our convention, go through `camera.rotation_matrix` and
`camera.rotation_vector`, so this module uses no scipy.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .camera import Intrinsics, camera_center, project_many, rotation_matrix, rotation_vector

FORMAT_TAG = "gbpba"
FORMAT_VERSION = 1
IMAGE_SIZE = (640, 480)
DEFAULT_INTRINSICS = Intrinsics(fx=350.0, fy=350.0, cx=320.0, cy=240.0)
FLOAT_FORMAT = "%.17g"

# Every array field of ProblemSpec, once: (field, file section, width, dtype),
# width 0 for a 1-d field.  A field that is None is left out of the file: the
# `_gt` columns are written only under the header flag gt=1, and the outliers
# section only for an outlier mask.  A bool field is stored as the indices of
# its True entries, one per row.
COLUMNS = (
    ("kf_init", "keyframes", 6, float),
    ("kf_gt", "keyframes", 6, float),
    ("lm_init", "landmarks", 3, float),
    ("lm_gt", "landmarks", 3, float),
    ("meas_kf", "measurements", 0, int),
    ("meas_lm", "measurements", 0, int),
    ("meas_uv", "measurements", 2, float),
    ("meas_sigma", "measurements", 0, float),
    ("outlier_mask", "outliers", 0, bool),
)
ROW_SECTIONS = ("keyframes", "landmarks", "measurements", "outliers")
ID_SECTIONS = ("keyframes", "landmarks")  # rows that lead with an integer id


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        loc = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{loc}")
        self.line = None if line is None else int(line)


class FormatVersionError(ParseError):
    pass


class RowError(ValueError):
    """A value rejected in row `row` (0-based) of the problem file's `section`."""

    def __init__(self, message: str, section: str | None = None, row: int | None = None):
        super().__init__(message)
        self.section, self.row = section, row


class GenerationError(RuntimeError):
    pass


@dataclass
class ProblemSpec:
    """A bundle-adjustment problem instance: intrinsics, initial states,
    optional ground truth, and pixel measurements.  The array fields are
    coerced to the dtype and width `COLUMNS` gives them; ids that are not
    whole numbers and outlier labels that are not 0 or 1 raise RowError,
    where the coercion would truncate them or make them True.

    Keyframe and landmark ids are their row indices (unique and contiguous
    per kind).
    """

    intrinsics: Intrinsics = DEFAULT_INTRINSICS
    kf_init: np.ndarray = ()
    lm_init: np.ndarray = ()
    kf_gt: np.ndarray | None = None
    lm_gt: np.ndarray | None = None
    meas_kf: np.ndarray = ()
    meas_lm: np.ndarray = ()
    meas_uv: np.ndarray = ()
    meas_sigma: np.ndarray = ()
    outlier_mask: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, _, width, dtype in COLUMNS:
            value = getattr(self, name)
            if dtype is int:
                value = check_ids(name, value)
            elif dtype is bool and value is not None:
                value = np.asarray(value).reshape(-1)
                bad = np.flatnonzero((value != 0) & (value != 1))
                if bad.size:
                    message = f"measurement {bad[0]} has {name} {value[bad[0]]}, not 0 or 1"
                    raise RowError(message, "measurements", bad[0])
            if value is not None:
                setattr(self, name, np.asarray(value, dtype).reshape((-1, width) if width else -1))
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
        count = {
            "keyframes": self.n_keyframes, "landmarks": self.n_landmarks, "measurements": m, "outliers": m,
        }
        for name, section, _, _ in COLUMNS:
            value = getattr(self, name)
            if value is not None and len(value) != count[section]:
                raise ValueError(f"{name} has {len(value)} rows, expected {count[section]}")
        for what, ids, n in (
            ("keyframe", self.meas_kf, self.n_keyframes), ("landmark", self.meas_lm, self.n_landmarks),
        ):
            bad = np.flatnonzero((ids < 0) | (ids >= n))
            if bad.size:
                message = f"measurement {bad[0]} references missing {what} {ids[bad[0]]}"
                raise RowError(message, "measurements", bad[0])
        check_state_values("keyframe", self.kf_init)
        check_state_values("landmark", self.lm_init)
        check_measurement_values(self.meas_uv, self.meas_sigma)

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


def check_state_values(what: str, states: np.ndarray, error=RowError, first: int = 0) -> None:
    """Raise `error`, a RowError class, at the first row of the `what`
    ("keyframe" or "landmark") `states`, counted from `first`, not finite."""
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise error(f"{what} {first + i} has a non-finite state {states[i]}", what + "s", first + i)


def check_ids(what: str, ids, error=RowError) -> np.ndarray:
    """The `what` ids of the measurements as a 1-d int array; raise `error`,
    a RowError class, at the first that is not a whole number."""
    ids = np.asarray(ids).reshape(-1)
    whole = np.isfinite(ids) & (ids == np.trunc(ids)) if ids.dtype.kind == "f" else True
    if not np.all(whole):
        i = int(np.argmin(whole))
        raise error(f"measurement {i} has a non-integral {what} {ids[i]}", "measurements", i)
    return ids.astype(int, copy=False)


def check_measurement_values(uv: np.ndarray, sigma: np.ndarray, error=RowError) -> None:
    """Raise `error`, a RowError class, at the first measurement whose pixel
    coordinates are not finite or whose noise sigma is not finite and positive."""
    good = np.isfinite(uv).all(axis=1) & np.isfinite(sigma) & (sigma > 0)
    if not good.all():
        i = int(np.argmin(good))
        message = f"measurement {i} has uv {uv[i]} and sigma {sigma[i]}: need finite, sigma > 0"
        raise error(message, "measurements", i)


def _fmt(x: float) -> str:
    return FLOAT_FORMAT % float(x)


def _row_dtype(section: str, gt: bool) -> np.dtype:
    """The structured dtype of one row of `section`, with or without its
    ground-truth columns."""
    columns = [("id", int)] if section in ID_SECTIONS else []
    for name, sec, width, dtype in COLUMNS:
        if sec == section and (gt or not name.endswith("_gt")):
            columns.append((name, int if dtype is bool else dtype, (width,) if width else ()))
    return np.dtype(columns)


def _n_fields(dtype: np.dtype) -> int:
    return sum(int(np.prod(dtype[name].shape)) for name in dtype.names)


def save(problem: ProblemSpec, path) -> None:
    """Write a problem in the canonical native text form.  Raises
    ValueError naming the key, before the file is opened, for metadata `load`
    could not read back: a key or value that is not a str, a key that is
    empty, holds whitespace or starts with '#', or a value with a line break
    or trailing whitespace."""
    for key, value in problem.metadata.items():
        if not (isinstance(key, str) and isinstance(value, str)):
            raise ValueError(f"metadata key {key!r} and its value {value!r} must both be str")
        if not key or key[0] == "#" or any(c.isspace() for c in key):
            raise ValueError(f"metadata key {key!r} must be non-empty, without whitespace or a leading '#'")
        if "\n" in value or "\r" in value or value != value.rstrip():
            raise ValueError(f"metadata value of key {key!r} has a line break or trailing whitespace")
    k = problem.intrinsics
    lines = [f"{FORMAT_TAG} v{FORMAT_VERSION}", "intrinsics " + " ".join(map(_fmt, (k.fx, k.fy, k.cx, k.cy)))]
    for section in ROW_SECTIONS:
        values = {name: getattr(problem, name) for name, sec, _, _ in COLUMNS if sec == section}
        values = {name: value for name, value in values.items() if value is not None}
        if not values:
            continue  # no outlier mask
        columns = [np.flatnonzero(v) if v.dtype == bool else v for v in values.values()]
        n_rows = len(columns[0])
        if section in ID_SECTIONS:
            columns.insert(0, np.arange(n_rows))
        # ids and indices become integral floats, which %.17g prints as integers
        rows = np.column_stack([np.asarray(c, float) for c in columns])
        gt = any(name.endswith("_gt") for name in values)
        lines.append(f"{section} {n_rows}" + (f" gt={int(gt)}" if section in ID_SECTIONS else ""))
        row_format = " ".join([FLOAT_FORMAT] * rows.shape[1])
        lines.extend(row_format % tuple(row) for row in rows)
    if problem.metadata:
        lines.append(f"metadata {len(problem.metadata)}")
        lines.extend(f"{key} {problem.metadata[key]}" for key in sorted(problem.metadata))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load(path) -> ProblemSpec:
    """Parse a native problem file, each row section with one `np.loadtxt`
    call on its `_row_dtype`.

    Malformed input raises ParseError whose `line` is the 1-based number of
    the offending line: a missing, misspelt or unknown header, a bad count,
    gt flag (or one on a header other than keyframes and landmarks) or
    version tag, intrinsics that `Intrinsics` rejects, a row with the wrong
    number of fields or a field its column cannot read as its dtype, an id
    out of order, an outlier index out of range, or a section cut short by
    the end of the file.  A file that parses into a problem
    `ProblemSpec.validate` rejects (a reference to a missing keyframe or
    landmark, a non-finite state or pixel, a sigma that is not positive)
    raises ParseError with validate's message, which names the row, and its line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.readlines()
    # the lines that are not blank or a '#' comment, and their 1-based numbers
    keep = [bool(text) and text[0] != "#" for text in map(str.lstrip, raw)]
    lines = list(itertools.compress(raw, keep))
    numbers = np.flatnonzero(keep) + 1
    pos = 0

    def take(count: int) -> tuple[list[str], np.ndarray]:
        nonlocal pos
        if pos + count > len(lines):
            raise ParseError("unexpected end of file", len(raw))
        pos += count
        return lines[pos - count : pos], numbers[pos - count : pos]

    def header(*names: str) -> tuple[str, int, bool]:
        (line,), (lineno,) = take(1)
        tok = line.split()
        if tok[0] not in names:
            raise ParseError(f"expected section {' or '.join(names)}, got {tok[0]!r}", lineno)
        flag = tok[2] if len(tok) == 3 else "gt=0"
        n_tokens = (2, 3) if tok[0] in ID_SECTIONS else (2,)  # only they take a gt flag
        if len(tok) not in n_tokens or not tok[1].isdecimal() or flag not in ("gt=0", "gt=1"):
            raise ParseError(f"bad {tok[0]} header {line.strip()!r}", lineno)
        return tok[0], int(tok[1]), flag == "gt=1"

    def rows(section: str, count: int, gt: bool) -> tuple[np.ndarray, np.ndarray]:
        dtype = _row_dtype(section, gt)
        text, where = take(count)
        if not count:
            return np.zeros(0, dtype), where  # loadtxt warns on no data
        with warnings.catch_warnings():  # numpy < 2 only warns as it truncates "0.5" to an int
            warnings.simplefilter("error", DeprecationWarning)
            try:
                table = np.loadtxt(text, dtype, comments=None, ndmin=1)
            except ValueError:
                for line, lineno in zip(text, where):  # only to find the line
                    if len(line.split()) != _n_fields(dtype):
                        raise ParseError(f"expected {_n_fields(dtype)} fields, got {len(line.split())}", lineno)
                    try:
                        np.loadtxt([line], dtype, comments=None)
                    except ValueError as exc:
                        message = str(exc).replace("at row 0, ", "at ")  # this one line is row 0
                        raise ParseError(f"bad {section} field: {message}", lineno) from None
                raise
        if section in ID_SECTIONS:
            bad = np.flatnonzero(table["id"] != np.arange(count))
            if bad.size:
                i = bad[0]
                message = f"{section} ids must be contiguous, expected {i} got {table['id'][i]}"
                raise ParseError(message, where[i])
        return table, where

    (line,), (lineno,) = take(1)
    tag = line.split()
    if len(tag) != 2 or tag[0] != FORMAT_TAG or tag[1][:1] != "v" or not tag[1][1:].isdecimal():
        raise ParseError(f"not a {FORMAT_TAG} problem file: {line.strip()!r}", lineno)
    if int(tag[1][1:]) != FORMAT_VERSION:
        raise FormatVersionError(
            f"format version {tag[1][1:]} not supported (expected {FORMAT_VERSION})", lineno
        )

    (line,), (lineno,) = take(1)
    name, *values = line.split()
    if name != "intrinsics" or len(values) != 4:
        raise ParseError(f"expected 'intrinsics <fx> <fy> <cx> <cy>', got {line.strip()!r}", lineno)
    try:
        intrinsics = Intrinsics(*map(float, values))
    except ValueError as exc:
        raise ParseError(f"bad intrinsics: {exc}", lineno) from None

    arrays = {}
    lines_of = {}  # section -> the line of each of its rows
    for section in ("keyframes", "landmarks", "measurements"):
        table, lines_of[section] = rows(*header(section))
        arrays.update((name, table[name]) for name in table.dtype.names if name != "id")
    n_meas = len(arrays["meas_kf"])
    metadata = {}
    while pos < len(lines):
        section, count, gt = header("outliers", "metadata")
        if section == "outliers":
            table, where = rows(section, count, gt)
            idx = table["outlier_mask"]
            bad = np.flatnonzero((idx < 0) | (idx >= n_meas))
            if bad.size:
                raise ParseError(f"outlier index {idx[bad[0]]} out of range", where[bad[0]])
            arrays["outlier_mask"] = np.zeros(n_meas, dtype=bool)
            arrays["outlier_mask"][idx] = True
        else:
            for line in take(count)[0]:
                key, _, value = line.strip().partition(" ")
                metadata[key] = value

    try:
        return ProblemSpec(intrinsics=intrinsics, metadata=metadata, **arrays)
    except RowError as exc:
        raise ParseError(str(exc), lines_of[exc.section][exc.row]) from None
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
    Malformed input, a first focal length `Intrinsics` rejects and a value
    `ProblemSpec` rejects included, raises ParseError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    cursor = 0

    def take(n, what):
        nonlocal cursor
        if cursor + n > len(tokens):
            raise ParseError(f"truncated file while reading {what}")
        cursor += n
        return tokens[cursor - n : cursor]

    def parse(values, what, dtype=float):
        try:
            return np.array(values, dtype=dtype)
        except ValueError as exc:
            raise ParseError(f"bad {what}: {exc}") from None

    n_cam, n_pts, n_obs = parse(take(3, "header"), "header", int)
    if min(n_cam, n_pts, n_obs) < 0:
        raise ParseError(f"negative count in header {n_cam} {n_pts} {n_obs}")
    obs = np.reshape(take(4 * n_obs, "observations"), (n_obs, 4))
    cam_idx = parse(obs[:, 0], "observation camera index", int)
    pt_idx = parse(obs[:, 1], "observation point index", int)
    uv = parse(obs[:, 2:], "observation pixel")
    cams = parse(take(9 * n_cam, "camera blocks"), "camera block").reshape(n_cam, 9)
    pts = parse(take(3 * n_pts, "point blocks"), "point block").reshape(n_pts, 3)

    if n_obs and (cam_idx.min() < 0 or cam_idx.max() >= n_cam):
        raise ParseError("observation camera index out of range")
    if n_obs and (pt_idx.min() < 0 or pt_idx.max() >= n_pts):
        raise ParseError("observation point index out of range")

    if not np.isfinite(cams[:, :6]).all():
        raise ParseError("non-finite camera pose")
    flip = np.array([1.0, -1.0, -1.0])
    kf_init = np.concatenate([
        rotation_vector(flip[:, None] * rotation_matrix(cams[:, :3])), flip * cams[:, 3:6]
    ], axis=1)

    focals = cams[:, 6]
    f0 = float(focals[0]) if n_cam else 1.0
    try:
        intr = Intrinsics(fx=f0, fy=f0, cx=0.0, cy=0.0)
    except ValueError as exc:
        raise ParseError(f"bad focal length: {exc}") from None
    if n_cam and (np.ptp(focals) > 0 or np.any(cams[:, 7:9] != 0)):
        warnings.warn(
            "per-camera focal lengths and k1/k2 distortion are not modelled; "
            "using the first camera's focal length and dropping distortion",
            stacklevel=2,
        )

    meas_uv = np.column_stack([uv[:, 0], -uv[:, 1]])
    try:
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
    except RowError as exc:
        raise ParseError(str(exc)) from None


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
    return np.concatenate([rotation_vector(rot), -rot @ center])


def synthesize(
    n_keyframes: int,
    n_landmarks: int,
    seed: int,
    trajectory: str = "arc",
    vis_radius: float = 3.0,
    pixel_sigma: float = 1.0,
) -> ProblemSpec:
    """Generate a desk-scale scene with ground truth.

    Landmarks are drawn uniformly in a box roughly 1.2 m across; keyframes
    sit on a wide arc of radius 1.2 m around the box (or a straight dolly
    line in front of it) facing its centre, so every view carries depth
    diversity and pairs of views triangulate landmarks at wide angles.
    Measurements are the projections of landmarks that fall inside the
    IMAGE_SIZE image of DEFAULT_INTRINSICS with positive depth and within
    `vis_radius` of the camera, plus isotropic Gaussian pixel noise of std
    `pixel_sigma`.  Landmarks seen fewer than twice are discarded.
    Everything is deterministic in the seed.

    The measurement-noise model written into the problem (the sigma column)
    is 1 px, deliberately independent of the injected noise, as a solver
    never knows the true noise of its front end.
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

    width, height = IMAGE_SIZE
    meas = []
    for i in range(n_keyframes):
        uv, depth = project_many(np.repeat(kf_gt[i : i + 1], n_landmarks, axis=0), landmarks, DEFAULT_INTRINSICS)
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
        intrinsics=DEFAULT_INTRINSICS,
        kf_init=kf_gt.copy(),
        lm_init=landmarks.copy(),
        kf_gt=kf_gt,
        lm_gt=landmarks,
        meas_kf=meas[:, 0].astype(int),
        meas_lm=remap[meas[:, 1].astype(int)],
        meas_uv=uv,
        meas_sigma=np.ones(meas.shape[0]),
        metadata={
            "generator": "synthesize",
            "seed": str(seed),
            "trajectory": trajectory,
            "pixel_sigma": _fmt(pixel_sigma),
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
