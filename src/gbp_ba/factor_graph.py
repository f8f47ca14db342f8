"""The bundle-adjustment factor graph.

The variable kinds are the entries of `KINDS`, each with its name, array
key, dimension and columns of a factor's 9-vector: keyframes (6-dim global
angle-axis + translation states) and landmarks (3-dim positions).  Each
variable carries a belief and an automatically generated diagonal prior;
each measurement factor connects one variable of each kind and stores its
linearisation point, the 2x9 Jacobian and the 2-vector target of its
linearised residual, and its Huber weight.  Its information form is rank 2,
`(w J' t, w J' J)` with `w = weight / sigma^2`, so it is not stored:
`factor_information` derives it for any rows, and the engine works on J.
Its message to each side K, `(J_K' v, J_K' S J_K)` with a symmetric 2x2
S, is stored as S's three entries and v in `f_msg` (F, 5, 2), a column
per receiving kind: it was sent with the current J_K.  A factor that never
linearised (its point behind its camera at every attempt) keeps a zero J
and target, so zero information, and needs no validity flag.  Each variable
stores its belief and the inverse of its matrix (zero where there is none)
for the engine.  Nor are variable-to-factor messages stored (the engine
derives each as the variable's belief minus the factor's own last message),
or the Huber threshold, which is the graph's `huber_nsigma`.

Storage is columnar: stacked numpy arrays indexed by id, so the engine can
vectorise across factors.  One schema per node type lists every array with
its trailing shape, kind and fill value: `VARIABLE_FIELDS`, shared by every
kind (`kf_*`, `lm_*`), and `FACTOR_FIELDS` for the measurement factors
(`f_*`), whose per-kind fields come from `KINDS`.  Construction, growth,
`copy` and `astype` follow the schema, and every float array has the
graph's one float `dtype`.

Each array is the `(n, trailing...)` view of a contiguous node-last base
`(trailing..., n)`: rows index as usual, `batch_linalg.component_major`
returns the base, the layout every kernel works in, without a copy, and the
engine updates messages, beliefs and states in these arrays in place.  The
bases of one table are views of one block (`FactorGraph._grow`).

Measurement factors enter by one path, `add_measurements`, which `build`
also takes once it has grown a problem's variables.  A factor's count of
rounds since its last relinearisation is derived (`iters_since_relin`).

Priors are born at the same per-coordinate scale as the summed adjacent
measurement information and are weakened geometrically over the first
iterations of a variable's life to the schedule's `prior_floor` of that
(`engine.ScheduleParams`).  A prior's mean is pinned at the variable's
state when the prior is made, and is re-anchored at the current state of
every older variable whenever measurements are added, so a grown graph
minimises the same objective as a cold restart from its states.
"""

from __future__ import annotations

import math
import mmap
import numbers
from dataclasses import dataclass

import numpy as np

from .batch_linalg import (
    BLOCK_ROWS, _consecutive, _contract, _plan, component_major,
)
from .camera import DEPTH_EPSILON, Intrinsics, camera_terms, jacobian_many, project_many
from .dataset_io import (
    ProblemSpec, RowError, check_ids, check_measurement_values, check_numeric, check_state_values,
)

PRIOR_FLOOR_RTOL = 1e-12
ARE_SENTINEL_PX = 1e6
MAPPED_BLOCK_BYTES = 4 << 20  # numpy advises huge pages for arrays from this size on
GLIBC_MAPPED_BYTES = 32 << 20  # glibc's malloc maps a request of this size or more on its own
DEFAULT_HUBER_NSIGMA = 2.0
PSD_RTOL = 1e-8


@dataclass(frozen=True, eq=False)  # compared and hashed by identity
class Kind:
    """A variable kind: arrays `<key>_*`, and in the factor table `f_<key>`
    (each factor's variable) and a column of `f_msg` (its last message)."""

    name: str
    key: str
    dim: int
    cols: slice  # of a factor's stacked 9-vector


# in the order of the arguments of `camera.project_many` and `jacobian_many`
KINDS = (Kind("keyframe", "kf", 6, slice(0, 6)), Kind("landmark", "lm", 3, slice(6, 9)))
KEYFRAME, LANDMARK = KINDS
FACTOR_DIM = sum(kind.dim for kind in KINDS)


class BuildError(RowError):
    pass


@dataclass(frozen=True)
class Field:
    """One per-node array of the columnar layout.

    `shape` is the trailing shape, where "d" stands for the variable
    dimension; `kind` is "float" (the graph's float dtype), "int" or "bool";
    new rows get `fill` unless their values are supplied.
    """

    name: str
    shape: tuple
    kind: str
    fill: float = 0


# A new variable starts with a flagged unit fallback prior at full strength,
# pinned at its state; only measurements added in its birth round renew it.
VARIABLE_FIELDS = (
    Field("state", ("d",), "float"),
    Field("belief_eta", ("d",), "float"),
    Field("belief_lam", ("d", "d"), "float"),
    Field("belief_cov", ("d", "d"), "float"),  # belief_lam^-1, zero where not invertible
    Field("prior_diag0", ("d",), "float", 1.0),
    Field("prior_mean", ("d",), "float"),
    Field("prior_scale", (), "float", 1.0),
    Field("prior_fallback", (), "bool", True),
    Field("birth", (), "int"),  # the iteration the variable was added in
)

# A new factor has a zero Jacobian and target, so zero information, until
# it is linearised.  Its messages stay zero through its first round, which
# phases B and C skip: factors are only appended, with `birth` the current
# iteration, so `birth` never decreases and the factors in their first
# round are the last rows.  Linearised at `lin`, its residual is z - h(x) ~
# target - jac x with target = jac lin + z - h(lin); so z - h(lin) = target
# - jac lin, which is zero before the first linearisation.  Per kind, in
# `KINDS` order: the variable's id, and a column of `msg`, the last message
# to it, (J' v, J' S J) with S's entries 00, 01, 11 and then v, J the
# kind's columns of the current `jac`.
FACTOR_FIELDS = (
    *(Field(kind.key, (), "int") for kind in KINDS),
    Field("z", (2,), "float"),
    Field("sigma", (), "float"),
    Field("lin", (FACTOR_DIM,), "float"),
    Field("jac", (2, FACTOR_DIM), "float"),
    Field("target", (2,), "float"),
    Field("weight", (), "float", 1.0),
    Field("last_relin", (), "int"),  # the last round it was relinearised in, else its birth
    Field("birth", (), "int"),  # the iteration it was added in: its inputs are zero then
    Field("msg", (5, len(KINDS)), "float"),
)

# attribute prefix -> (fields, variable dimension)
TABLES = {kind.key + "_": (VARIABLE_FIELDS, kind.dim) for kind in KINDS}
TABLES["f_"] = (FACTOR_FIELDS, None)


@dataclass(frozen=True)
class Evaluation:
    """One projection of every factor at the states of one moment, from
    `FactorGraph.evaluate`: the residuals z - h(x) (F, 2), the depths (F,)
    and the residual norms (F,); the ARE, the mean norm with a sentinel
    (1e6 px) for each measurement behind its camera, 0.0 with no
    measurements; the energy, the prior Mahalanobis terms at the current
    prior strengths plus the Huber terms of the measurements, a
    behind-camera one taking its residual at its linearisation point; and
    the count of measurements behind their camera."""

    residuals: np.ndarray
    depths: np.ndarray
    norms: np.ndarray
    are: float
    energy: float
    n_behind_camera: int


class FactorGraph:
    def __init__(self, intrinsics: Intrinsics, huber_nsigma: float = DEFAULT_HUBER_NSIGMA):
        """`huber_nsigma` None, 0 or inf turns the Huber loss off; a negative
        or NaN threshold, a bool or any other non-real raises BuildError."""
        if huber_nsigma is not None and (
            isinstance(huber_nsigma, bool) or not isinstance(huber_nsigma, numbers.Real) or not huber_nsigma >= 0
        ):
            raise BuildError(f"huber_nsigma must be a real >= 0, None or inf, got {huber_nsigma!r}")
        self.intrinsics = intrinsics
        self.huber_nsigma = float(huber_nsigma) if huber_nsigma else np.inf
        self.iteration = 0
        self.dtype = np.dtype(np.float64)
        for prefix in TABLES:
            self._grow(prefix, 0)

    # ----------------------------------------------------------------- schema

    def _kind_dtype(self, kind: str):
        return {"float": self.dtype, "int": int, "bool": bool}[kind]

    def _grow(self, prefix: str, n: int, **given) -> None:
        """Append `n` rows to every array of the `prefix` table: the `given`
        values broadcast over the rows, else each field's fill.  `birth`
        defaults to the current iteration.  Bases grow on their last axis.

        The bases of a table are views of one new zero-filled block, each
        starting on a 64-byte boundary (`_zeroed_block`).  A large table's
        block is mapped on its own, so the temporaries of a round reuse heap
        space that no graph array splits, and the process's peak memory does
        not depend on where in the heap the graph happened to land.
        Zero-filled pages also stay untouched until first written, which
        keeps build's peak memory down for the message arrays."""
        fields, dim = TABLES[prefix]
        given.setdefault("birth", self.iteration)
        old = getattr(self, prefix + fields[0].name, None)
        start = 0 if old is None else len(old)
        layout, size = [], 0
        for f in fields:
            shape = tuple(dim if s == "d" else s for s in f.shape) + (start + n,)
            dtype = np.dtype(self._kind_dtype(f.kind))
            nbytes = dtype.itemsize * math.prod(shape)
            layout.append((size, nbytes, shape, dtype))
            size += -(-nbytes // 64) * 64
        block = _zeroed_block(size)
        for f, (offset, nbytes, shape, dtype) in zip(fields, layout):
            # the (n, trailing...) view of the node-last base
            array = block[offset:offset + nbytes].view(dtype).reshape(shape).transpose(-1, *range(len(shape) - 1))
            if start:
                array[:start] = getattr(self, prefix + f.name)
            if f.name in given or f.fill:
                array[start:] = given.get(f.name, f.fill)
            setattr(self, prefix + f.name, array)

    # ------------------------------------------------------------------ kinds

    def var(self, kind: Kind, name: str) -> np.ndarray:
        return getattr(self, f"{kind.key}_{name}")

    def size(self, kind: Kind) -> int:
        return self.var(kind, "state").shape[0]

    def adjacent(self, kind: Kind) -> np.ndarray:
        return getattr(self, f"f_{kind.key}")

    def message(self, kind: Kind) -> tuple:
        """The stored messages to `kind`, views of `f_msg`: S's entries
        (F, 3) and v (F, 2), sent with `f_jac[:, :, kind.cols]`."""
        msg = self.f_msg[:, :, KINDS.index(kind)]
        return msg[:, :3], msg[:, 3:]

    # ------------------------------------------------------------------ sizes

    @property
    def n_keyframes(self) -> int:
        return self.kf_state.shape[0]

    @property
    def n_landmarks(self) -> int:
        return self.lm_state.shape[0]

    @property
    def n_variables(self) -> int:
        return self.n_keyframes + self.n_landmarks

    @property
    def n_measurement_factors(self) -> int:
        return self.f_kf.shape[0]

    @property
    def n_factor_nodes(self) -> int:
        """Measurement factors plus the one prior factor per variable."""
        return self.n_measurement_factors + self.n_variables

    @property
    def n_duplicate_measurements(self) -> int:
        """Measurement factors that repeat the (keyframe, landmark) pair of
        another: equal neighbours among the sorted keys kf n_landmarks + lm."""
        keys = np.sort(self.f_kf * self.n_landmarks + self.f_lm)
        return int(np.count_nonzero(keys[1:] == keys[:-1]))

    # ----------------------------------------------------------- linearisation

    def linearize_factors(self, idx: np.ndarray) -> np.ndarray:
        """(Re)linearise the factors in `idx` at the current states.

        Behind-camera points abort their factor's relinearisation (the old
        parameters are kept and the row of the returned mask is False).
        Freshly created factors with an invalid initial point get zero
        information until a later attempt succeeds.

        Projected with their Jacobians once, a part at a time (see
        `_camera_parts`), and written into the factor arrays'
        component-major bases in place.  Raises, before changing the graph,
        TypeError for `idx` that are not integer rows, as a boolean mask, and
        IndexError for a row outside [0, n_measurement_factors).
        """
        idx = np.asarray(idx)
        if idx.size and idx.dtype.kind not in "iu":
            raise TypeError(f"linearize_factors takes integer factor rows, got {idx.dtype}")
        idx = idx.astype(int, copy=False)
        n = self.n_measurement_factors
        if idx.size and not 0 <= idx.min() <= idx.max() < n:
            raise IndexError(f"factor rows must lie in [0, {n}), got {idx.min()} to {idx.max()}")
        ok = np.zeros(idx.size, dtype=bool)
        kf_cm, z_cm, lin_cm, jac_cm, target_cm = (component_major(a) for a in (
            self.kf_state, self.f_z, self.f_lin, self.f_jac, self.f_target))
        for part, rows, terms, points in self._camera_parts(camera_terms(self.kf_state), idx):
            uv_hat, depth, jac = jacobian_many(terms.T, points.T, self.intrinsics)
            jac = component_major(jac)
            good = depth > DEPTH_EPSILON
            ok[part] = good
            if not good.all():  # only the rows in front of the camera; no copies when all are
                rows, points, uv_hat, jac = rows[good], points[:, good], uv_hat[good], jac[..., good]
            if rows.size == 0:
                continue
            lin = np.concatenate([kf_cm.take(self.f_kf[rows], axis=1), points])
            rows = _consecutive(rows)  # consecutive rows are written through views
            residual = z_cm[:, rows] - uv_hat.T
            jac_cm[..., rows] = jac
            target_cm[:, rows] = _jac_lin(jac, lin) + residual
            lin_cm[:, rows] = lin
            self.f_weight[rows] = huber_weight(_row_norms(residual.T) / self.f_sigma[rows], self.huber_nsigma)
        return ok

    def _camera_parts(self, table, idx=None):
        """The factors `idx`, every factor by default, as the parts of their
        `batch_linalg._plan`, which `residuals` and `linearize_factors`
        project in order: a dense part takes its keyframe's one column of
        the `camera_terms` table, and any other part one column per row.
        Yields per part its positions in `idx` (a slice), its factor rows
        (the same slice where `idx` is None), its camera terms (rows of
        `table`) and its landmark positions (3, n)."""
        kf = self.f_kf if idx is None else self.f_kf[idx]
        lm_cm = component_major(self.lm_state)
        for _, _, parts in _plan(kf):
            for a, b, dense in parts:
                part = slice(a, b)
                rows = part if idx is None else idx[part]
                terms = table[:, kf[a], None] if dense else table.take(kf[part], axis=1)
                yield part, rows, terms, lm_cm.take(self.f_lm[rows], axis=1)

    def factor_precision(self, idx=slice(None)) -> np.ndarray:
        """w = weight / sigma^2 of the factors in `idx`: the Huber-weighted
        inverse of the isotropic measurement noise."""
        return self.f_weight[idx] / self.f_sigma[idx] ** 2

    def iters_since_relin(self, idx=slice(None)) -> np.ndarray:
        """Rounds since the factors in `idx` were last linearised, as phase
        A of round `iteration` sees them: counted from the factor's birth
        round, or from the round after a relinearisation in phase A."""
        last = self.f_last_relin[idx]
        return self.iteration - last - (last > self.f_birth[idx])

    def factor_information(self, idx):
        """(w J' t, w J' J) of the factors in `idx`: their 9-dim information
        vectors (n, 9) and matrices (n, 9, 9), zero before linearisation."""
        jac = self.f_jac[idx]
        w = self.factor_precision(idx)
        eta = w[:, None] * np.einsum("fji,fj->fi", jac, self.f_target[idx])
        lam = w[:, None, None] * (np.swapaxes(jac, 1, 2) @ jac)
        return eta, lam

    # ----------------------------------------------------------------- priors

    def prior_information(self, kind: Kind):
        """Current (eta, diag) arrays of the weakened priors of `kind`."""
        diag = self.var(kind, "prior_scale")[:, None] * self.var(kind, "prior_diag0")
        return diag * self.var(kind, "prior_mean"), diag

    def refresh_priors(self) -> None:
        """Regenerate the priors of the variables born in this iteration from
        the diagonal of the summed, unweighted J' Sigma_M^-1 J of their
        adjacent factors at their linearisation points: floored at
        PRIOR_FLOOR_RTOL of the row's largest entry, or a flagged unit
        fallback where the row has no positive entry.  Every factor adjacent
        to such a variable was born in this iteration too, so only the last
        rows, those born in it, are read.  Each squared column is formed
        from slices of `f_jac`'s component-major base and summed per
        variable at once, in ascending row order in float64, the bits of
        `np.add.at` on a zero float64 array."""
        rows = slice(self.f_birth.searchsorted(self.iteration), None)
        jac, sigma_sq = component_major(self.f_jac)[..., rows], self.f_sigma[rows] ** 2
        for kind in KINDS:
            ids = (self.var(kind, "birth") == self.iteration).nonzero()[0]
            adjacent = self.adjacent(kind)[rows]
            sums = np.empty((kind.dim, self.size(kind)), self.dtype)
            for c, col in enumerate(range(FACTOR_DIM)[kind.cols]):
                colsq = jac[0, col] ** 2
                colsq += jac[1, col] ** 2
                colsq /= sigma_sq
                sums[c] = np.bincount(adjacent, weights=colsq, minlength=self.size(kind))
            contrib = sums[:, ids].T
            fallback = ~np.any(contrib > 0, axis=1)
            floored = np.maximum(contrib, PRIOR_FLOOR_RTOL * contrib.max(axis=1, keepdims=True))
            self.var(kind, "prior_diag0")[ids] = np.where(fallback[:, None], 1.0, floored)
            self.var(kind, "prior_fallback")[ids] = fallback
            self._pin_priors(kind, ids)

    def _pin_priors(self, kind: Kind, ids) -> None:
        """Pin the priors of variables `ids` at their current states at full
        strength, and reset their beliefs to those priors."""
        diag0 = self.var(kind, "prior_diag0")[ids]
        mean = self.var(kind, "state")[ids]
        self.var(kind, "prior_mean")[ids] = mean
        self.var(kind, "prior_scale")[ids] = 1.0
        self.var(kind, "belief_eta")[ids] = diag0 * mean
        self.var(kind, "belief_lam")[ids] = diag0[:, :, None] * np.eye(kind.dim)
        self.var(kind, "belief_cov")[ids] = np.eye(kind.dim) / diag0[:, :, None]

    # ------------------------------------------------------------- evaluation

    def residuals(self):
        """(residuals (F,2), depths (F,)) at current states.  Read-only.
        Projected a part at a time (see `_camera_parts`) into the two arrays:
        a piece of a dense keyframe run through its keyframe's one column of
        the `camera_terms` table, formed once per keyframe, and the other
        rows through their gathered columns.  `evaluate` takes this one
        projection and derives the rest of its record from it."""
        n = self.n_measurement_factors
        residual, depth = np.empty((2, n), self.dtype), np.empty(n, self.dtype)
        z_cm = component_major(self.f_z)
        for rows, _, terms, points in self._camera_parts(camera_terms(self.kf_state, jacobian=False)):
            uv_hat, depth[rows] = project_many(terms.T, points.T, self.intrinsics)
            np.subtract(z_cm[:, rows], uv_hat.T, out=residual[:, rows])
        return residual.T, depth

    def evaluate(self) -> Evaluation:
        """The `Evaluation` of the current states: one projection of every
        factor (`residuals`), from which the norms, the ARE, the energy and
        the behind-camera count are derived.  Nothing keeps the record, so it
        is fresh on every call."""
        residual, depth = self.residuals()
        norms = _row_norms(residual)
        behind = depth <= DEPTH_EPSILON
        are = float(np.add.reduce(np.where(behind, ARE_SENTINEL_PX, norms)) / len(norms)) if len(norms) else 0.0
        mahal = norms / self.f_sigma
        behind = behind.nonzero()[0]
        if behind.size:  # the residual at the linearisation point, z - h(lin)
            # = target - jac lin, which is zero before the first one
            jac, lin, target = (component_major(a).take(behind, axis=-1)
                                for a in (self.f_jac, self.f_lin, self.f_target))
            mahal[behind] = _row_norms((target - _jac_lin(jac, lin)).T) / self.f_sigma[behind]
        energy = self._objective(mahal)
        return Evaluation(residual, depth, norms, are, energy, behind.size)

    def average_reprojection_error(self) -> float:
        """Mean pixel error over all measurements at current states, the
        `Evaluation.are` of a fresh `evaluate()`."""
        return self.evaluate().are

    def energy(self) -> float:
        """The objective at current states and prior strengths, the
        `Evaluation.energy` of a fresh `evaluate()`."""
        return self.evaluate().energy

    def _objective(self, mahal) -> float:
        """Prior Mahalanobis terms at current states and prior strengths plus
        Huber terms of the measurements' Mahalanobis distances `mahal`."""
        total = 0.0
        for kind in KINDS:
            delta = self.var(kind, "state") - self.var(kind, "prior_mean")
            delta *= delta
            delta *= self.prior_information(kind)[1]
            total += float(delta.sum())
        return total + float(huber_energy(mahal, self.huber_nsigma).sum())

    def classify_outliers(self) -> np.ndarray:
        """Measurements currently in the linear (outlier) loss regime."""
        record = self.evaluate()
        mahal = np.where(record.depths <= DEPTH_EPSILON, np.inf, record.norms / self.f_sigma)
        return mahal > self.huber_nsigma

    # ------------------------------------------------------------ mutation

    def add_keyframe(self, state: np.ndarray | None = None) -> int:
        """Append a keyframe.  With no state given, copies the pose of the
        most recent keyframe (incremental SLAM initialisation)."""
        if state is None:
            if self.n_keyframes == 0:
                raise BuildError("no keyframe to copy the initial pose from")
            state = self.kf_state[-1]
        return self._add_variable(KEYFRAME, state)

    def add_landmark(self, position: np.ndarray) -> int:
        return self._add_variable(LANDMARK, position)

    def _add_variable(self, kind: Kind, state: np.ndarray) -> int:
        """Raises BuildError, before changing the graph, for a state of a
        shape other than (dim,) or (1, dim), given as bools, strings or
        objects (see `check_numeric`), or one `check_state_values` rejects."""
        idx = self.size(kind)
        state = check_numeric(f"{kind.name} {idx} state", state, BuildError)
        if state.shape not in ((kind.dim,), (1, kind.dim)):
            raise BuildError(f"{kind.name} {idx} takes a state of size {kind.dim}, got shape {state.shape}",
                             kind.name + "s", idx)
        state = state.reshape(1, kind.dim)
        check_state_values(kind.name, state, BuildError, first=idx)
        self._grow(kind.key + "_", 1, state=state)
        self._pin_priors(kind, [idx])
        return idx

    def add_measurement(self, kf_id: int, lm_id: int, z: np.ndarray, sigma: float = 1.0) -> int:
        """Append one measurement factor, `z` one (u, v) pair; see
        `add_measurements`."""
        z = np.asarray(check_numeric("z", z, BuildError), float)
        if z.size != 2:
            raise BuildError(f"z must be one (u, v) pair, got shape {z.shape}")
        return self.add_measurements([kf_id], [lm_id], z.reshape(1, 2), [sigma])

    def add_measurements(self, kf_ids, lm_ids, zs, sigmas) -> int:
        """Append measurement factors and linearise them at current states;
        re-anchor the prior means of variables born before this iteration at
        their current states, and regenerate the priors of every variable
        born in this iteration from all its adjacent factors (a flagged
        fallback where there are none).  Prior strengths, beliefs, messages
        and linearisations of the older variables and factors are left as
        they are.  A repeated (keyframe, landmark) pair is accepted, and
        counted by `n_duplicate_measurements`.  Returns the id of the last
        factor added.  Raises BuildError, before changing the graph, for
        `zs` of a shape other than (n, 2), arguments of different lengths, a
        variable id that is missing or not a whole number, ids, pixels or
        sigmas given as bools, strings or objects (see `check_numeric`), or
        a value `check_measurement_values` rejects."""
        ids = [check_ids(f"{k.name} id", i, BuildError) for k, i in zip(KINDS, (kf_ids, lm_ids))]
        zs = np.asarray(check_numeric("z", zs, BuildError), float)
        if zs.ndim != 2 or zs.shape[1] != 2:
            raise BuildError(f"z must have shape (n, 2), one (u, v) row per measurement, got {zs.shape}")
        sigmas = np.asarray(check_numeric("sigma", sigmas, BuildError), float).reshape(-1)
        lengths = [len(a) for a in (*ids, zs, sigmas)]
        if len(set(lengths)) > 1:
            raise BuildError(f"keyframe ids, landmark ids, z and sigma differ in length: {lengths}")
        for kind, i in zip(KINDS, ids):
            bad = i[(i < 0) | (i >= self.size(kind))]
            if bad.size:
                raise BuildError(f"measurement references missing {kind.name} {bad[0]}")
        check_measurement_values(zs, sigmas, BuildError)

        start = self.n_measurement_factors
        self._grow(
            "f_", len(zs), z=zs, sigma=sigmas, last_relin=self.iteration,
            **{kind.key: i for kind, i in zip(KINDS, ids)},
        )
        # phase A measures from `f_lin` also where the linearisation fails
        for kind, i in zip(KINDS, ids):
            self.f_lin[start:, kind.cols] = self.var(kind, "state")[i]
        self.linearize_factors(np.arange(start, self.n_measurement_factors))

        # a prior mean left at a state the solve has since moved away from
        # pulls the grown graph towards a worse optimum than a cold restart's
        for kind in KINDS:
            older = self.var(kind, "birth") < self.iteration
            self.var(kind, "prior_mean")[older] = self.var(kind, "state")[older]
        self.refresh_priors()
        return self.n_measurement_factors - 1

    # ------------------------------------------------------------- utilities

    def copy(self) -> "FactorGraph":
        return self.astype(self.dtype)

    def astype(self, dtype) -> "FactorGraph":
        """Copy with every float array in `dtype` (e.g. float32, the paper's
        on-chip precision, for studying reduced-precision behaviour).  The
        copies are laid out as `_grow` lays out a table.
        Raises TypeError for a dtype the engine cannot run: one that is not
        a real floating type, or narrower than float32."""
        dtype = np.dtype(dtype)
        if dtype.kind != "f" or dtype.itemsize < 4:
            raise TypeError(f"the graph's dtype must be float32 or a wider real float, got {dtype}")
        out = FactorGraph(self.intrinsics, self.huber_nsigma)
        out.iteration = self.iteration
        out.dtype = dtype
        for prefix, (fields, _) in TABLES.items():
            arrays = {f.name: getattr(self, prefix + f.name) for f in fields}
            out._grow(prefix, len(arrays["birth"]), **arrays)
        return out

    def to_problem(self) -> ProblemSpec:
        """Export current states and measurements as a ProblemSpec."""
        return ProblemSpec(
            intrinsics=self.intrinsics,
            kf_init=self.kf_state.copy(),
            lm_init=self.lm_state.copy(),
            meas_kf=self.f_kf.copy(),
            meas_lm=self.f_lm.copy(),
            meas_uv=self.f_z.copy(),
            meas_sigma=self.f_sigma.copy(),
        )

    def cold_restart(self) -> "FactorGraph":
        """A fresh graph over the same measurements with initial states equal
        to this graph's current states.  Its prior means equal those of a
        graph just grown by `add_measurements`; what differs from that warm
        graph is that messages are zero, every factor is linearised at the
        current states, prior strengths are regenerated from those
        linearisations, beliefs restart at the full-strength priors, and the
        weakening schedule starts again for every variable, in its dtype."""
        return build(self.to_problem(), huber_nsigma=self.huber_nsigma).astype(self.dtype)

    def validate(self) -> dict:
        """Invariant check; returns violation counts (all zero when healthy)."""
        bad = {"belief_not_psd": 0, "factor_rank": 0, "asymmetry": 0}
        for lam in (self.var(kind, "belief_lam") for kind in KINDS):
            if lam.size == 0:
                continue
            asym = np.max(np.abs(lam - np.swapaxes(lam, 1, 2)))
            if asym > 1e-9:
                bad["asymmetry"] += 1
            eigs = np.linalg.eigvalsh(0.5 * (lam + np.swapaxes(lam, 1, 2)))
            trace = np.einsum("nii->n", lam)
            bad["belief_not_psd"] += int(np.sum(eigs[:, 0] < -PSD_RTOL * np.maximum(1.0, trace)))
        # rank <= 2 right after linearisation: third-largest eigenvalue ~ 0,
        # at most 1e-9 of the largest.  In float32, rounding leaves up to
        # 0.53 eps (six scenes, about 50k factors), so there it is 4 eps;
        # checked in blocks of an eighth of BLOCK_ROWS, so no (F, 9, 9)
        # stack is formed and the check's heap stays under a round's
        rtol = max(1e-9, 4 * float(np.finfo(self.dtype).eps))
        fresh = (self.iters_since_relin() == 0).nonzero()[0]
        step = max(1, BLOCK_ROWS // 8)
        for start in range(0, fresh.size, step):
            eigs = np.linalg.eigvalsh(self.factor_information(fresh[start : start + step])[1])
            scale = np.maximum(eigs[:, -1], 1.0)
            bad["factor_rank"] += int(np.sum(eigs[:, -3] > rtol * scale))
        return bad


def _zeroed_block(nbytes: int) -> np.ndarray:
    """`nbytes` zero bytes.  From MAPPED_BLOCK_BYTES up to the size that
    glibc maps on its own, where the platform has huge-page advice, they are
    an anonymous mapping of their own with that advice, as numpy gives its
    large arrays: such a block from glibc's heap lands among the freed
    blocks of earlier graphs, and batch-30k's peak memory read about 64 or
    71 MB by where its 11 MiB factor table happened to land."""
    if not MAPPED_BLOCK_BYTES <= nbytes < GLIBC_MAPPED_BYTES or not hasattr(mmap, "MADV_HUGEPAGE"):
        return np.zeros(nbytes, np.uint8)
    mapping = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    try:
        mapping.madvise(mmap.MADV_HUGEPAGE)
    except OSError:  # a kernel built without transparent huge pages; numpy ignores it too
        pass
    return np.frombuffer(mapping, np.uint8)


def _row_norms(residual):
    """Euclidean norm of each row of an (F, 2) array, equal bit for bit to
    `np.linalg.norm(residual, axis=1)`, which takes five times as long."""
    norms = residual[:, 0] * residual[:, 0]
    norms += residual[:, 1] * residual[:, 1]
    return np.sqrt(norms, out=norms)


def _jac_lin(jac, lin):
    """J lin (2, n) of component-major J (2, 9, n) and lin (9, n), in column order."""
    return _contract("ajn,jn->an", jac, lin)


def huber_weight(mahal, nsigma):
    """Noise-covariance rescaling that reproduces the Huber loss.

    w = 1 in the quadratic regime (M <= N_sigma); beyond the threshold
    w = 2 N_sigma / M - (N_sigma / M)^2, so that w * M^2 equals the linear
    loss 2 N_sigma M - N_sigma^2.  Continuous, equal to 1 on [0, N_sigma],
    strictly decreasing and positive beyond.  Keeps the float dtype of `mahal`.
    """
    mahal = np.asarray(mahal)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = nsigma / mahal
        return np.where(mahal > nsigma, 2 * ratio - ratio**2, 1.0)


def huber_energy(mahal, nsigma):
    """Piecewise Huber contribution: M^2 below the threshold, else
    2 N_sigma M - N_sigma^2.  Keeps the float dtype of `mahal`."""
    mahal = np.asarray(mahal)
    with np.errstate(invalid="ignore"):
        return np.where(mahal > nsigma, 2 * nsigma * mahal - nsigma**2, mahal**2)


def build(problem: ProblemSpec, huber_nsigma: float = DEFAULT_HUBER_NSIGMA) -> FactorGraph:
    """Construct the factor graph for a problem: its variables at their
    initial states, then all its measurements in one `add_measurements`.

    One prior factor per variable, one measurement factor per observation,
    all measurement factors linearised at the initial states, all messages
    zero-information, beliefs at the initial-strength priors.
    """
    problem.validate()
    graph = FactorGraph(problem.intrinsics, huber_nsigma)
    for kind, init in zip(KINDS, (problem.kf_init, problem.lm_init)):
        graph._grow(kind.key + "_", len(init), state=init)
    graph.add_measurements(problem.meas_kf, problem.meas_lm, problem.meas_uv, problem.meas_sigma)
    return graph
