"""The bundle-adjustment factor graph.

The variable kinds are the entries of `KINDS`, each with its name, array
key, dimension and columns of a factor's 9-vector: keyframes (6-dim global
angle-axis + translation states) and landmarks (3-dim positions).  Each
variable carries a belief and an automatically generated diagonal prior;
each measurement factor connects one variable of each kind and stores its
linearisation point, the 2x9 Jacobian and the 2-vector target of its
linearised residual, its Huber weight, and the last message sent to each
side.  The factor's 9-dim information form is rank 2, `(w J' t, w J' J)`
with `w = weight / sigma^2`, so it is not stored: `factor_information`
derives it for any rows, and the engine works on J directly.  Nor are
variable-to-factor messages (the engine derives each as the variable's
belief minus the factor's own last message), or the Huber threshold, which
is the graph's `huber_nsigma`.

Storage is columnar: stacked numpy arrays indexed by id, so the engine can
vectorise across factors.  One schema per node type lists every array with
its trailing shape, kind and fill value: `VARIABLE_FIELDS`, shared by every
kind (`kf_*`, `lm_*`), and `FACTOR_FIELDS` for the measurement factors
(`f_*`), whose per-kind fields come from `KINDS`.  Construction, growth,
`copy` and `astype` follow the schema, and every float array has the
graph's one float `dtype`.  `keyframe()`, `landmark()` and `factor()` return
snapshot views for inspection.

Each array is the `(n, trailing...)` view of a contiguous node-last base
`(trailing..., n)`: rows index as usual, `batch_linalg.component_major`
returns the base, the layout every kernel works in, without a copy, and the
engine updates messages, beliefs and states in these arrays in place.

Measurement factors enter by one path, `add_measurements`, which `build`
also takes once it has grown a problem's variables.  A factor's count of
rounds since its last relinearisation is derived (`iters_since_relin`).

Priors are born at the same per-coordinate scale as the summed adjacent
measurement information and are weakened geometrically to 1/100 of that
over the first iterations of a variable's life.  A prior's mean is pinned at
the variable's state when the prior is made, and is re-anchored at the
current state of every older variable whenever measurements are added, so a
grown graph minimises the same objective as a cold restart from its states.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .batch_linalg import BLOCK_ROWS, component_major, scatter_sum
from .camera import (
    DEPTH_EPSILON,
    Intrinsics,
    jacobian_many,
    left_jacobian,
    project_many,
    rotation_matrix,
)
from .dataset_io import ProblemSpec, check_measurement_values, check_state_values
from .info_gaussian import InfoGaussian

PRIOR_TARGET_RATIO = 0.01
PRIOR_FLOOR_RTOL = 1e-12
ARE_SENTINEL_PX = 1e6
DEFAULT_HUBER_NSIGMA = 2.0
PSD_RTOL = 1e-8


@dataclass(frozen=True, eq=False)  # compared and hashed by identity
class Kind:
    """A variable kind: arrays `<key>_*`, and in the factor table `f_<key>`
    (each factor's variable) and `f_msg_<key>_eta`/`_lam` (its last message)."""

    name: str
    key: str
    dim: int
    cols: slice  # of a factor's stacked 9-vector


# in the order of the arguments of `camera.project_many` and `jacobian_many`
KINDS = (Kind("keyframe", "kf", 6, slice(0, 6)), Kind("landmark", "lm", 3, slice(6, 9)))
KEYFRAME, LANDMARK = KINDS
FACTOR_DIM = sum(kind.dim for kind in KINDS)


class BuildError(ValueError):
    pass


@dataclass(frozen=True)
class VariableView:
    """Read-only snapshot of a variable node."""

    id: int
    kind: str  # "keyframe" | "landmark"
    dim: int
    state: np.ndarray
    belief: InfoGaussian
    prior: InfoGaussian
    prior_initial: InfoGaussian
    prior_target: InfoGaussian
    prior_is_fallback: bool


@dataclass(frozen=True)
class FactorView:
    """Read-only snapshot of a measurement factor node."""

    id: int
    keyframe_id: int
    landmark_id: int
    z: np.ndarray
    sigma_meas: np.ndarray  # 2x2 measurement noise covariance
    huber_nsigma: float
    lin_point: np.ndarray
    factor: InfoGaussian
    msg_to_keyframe: InfoGaussian
    msg_to_landmark: InfoGaussian
    iters_since_relin: int
    huber_weight: float
    linearization_valid: bool


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
# pinned at its state, until adjacent measurements regenerate the prior.
VARIABLE_FIELDS = (
    Field("state", ("d",), "float"),
    Field("belief_eta", ("d",), "float"),
    Field("belief_lam", ("d", "d"), "float"),
    Field("prior_diag0", ("d",), "float", 1.0),
    Field("prior_mean", ("d",), "float"),
    Field("prior_scale", (), "float", 1.0),
    Field("prior_fallback", (), "bool", True),
    Field("birth", (), "int"),  # the iteration the variable was added in
)

# A new factor has a zero Jacobian, so zero information, until it is
# linearised, and zero messages until its first round has run.  Linearised
# at `lin`, its residual is z - h(x) ~ target - jac x with
# target = jac lin + z - h(lin); so z - h(lin) = target - jac lin, which is
# zero before the first linearisation.  Per kind: the variable's id and the
# last message to it.
FACTOR_FIELDS = (
    *(Field(kind.key, (), "int") for kind in KINDS),
    Field("z", (2,), "float"),
    Field("sigma", (), "float"),
    Field("lin", (FACTOR_DIM,), "float"),
    Field("jac", (2, FACTOR_DIM), "float"),
    Field("target", (2,), "float"),
    Field("weight", (), "float", 1.0),
    Field("valid", (), "bool", False),
    Field("last_relin", (), "int"),  # the last round it was relinearised in, else its birth
    Field("birth", (), "int"),  # the iteration it was added in: its inputs are zero then
    *(Field(f"msg_{kind.key}_eta", (kind.dim,), "float") for kind in KINDS),
    *(Field(f"msg_{kind.key}_lam", (kind.dim, kind.dim), "float") for kind in KINDS),
)

# attribute prefix -> (fields, variable dimension)
TABLES = {kind.key + "_": (VARIABLE_FIELDS, kind.dim) for kind in KINDS}
TABLES["f_"] = (FACTOR_FIELDS, None)


def _diag_gaussian(diag: np.ndarray, mean: np.ndarray) -> InfoGaussian:
    return InfoGaussian(diag * mean, np.diag(diag))


class FactorGraph:
    def __init__(self, intrinsics: Intrinsics, huber_nsigma: float = DEFAULT_HUBER_NSIGMA):
        self.intrinsics = intrinsics
        self.huber_nsigma = float(huber_nsigma) if huber_nsigma else np.inf
        self.iteration = 0
        self.notes: Counter = Counter()
        self.dtype = np.dtype(np.float64)
        self._projection = None
        for prefix in TABLES:
            self._grow(prefix, 0)

    # ----------------------------------------------------------------- schema

    def _kind_dtype(self, kind: str):
        return {"float": self.dtype, "int": int, "bool": bool}[kind]

    def _grow(self, prefix: str, n: int, **given) -> None:
        """Append `n` rows to every array of the `prefix` table: the `given`
        values broadcast over the rows, else each field's fill.  `birth`
        defaults to the current iteration.  Bases grow on their last axis."""
        fields, dim = TABLES[prefix]
        given.setdefault("birth", self.iteration)
        for f in fields:
            shape = tuple(dim if s == "d" else s for s in f.shape) + (n,)
            # zero-filled blocks stay untouched pages until first written,
            # which keeps build's peak memory down for the message arrays
            base = np.zeros(shape, self._kind_dtype(f.kind))
            if f.name in given or f.fill:
                np.moveaxis(base, -1, 0)[...] = given.get(f.name, f.fill)
            old = getattr(self, prefix + f.name, None)
            if old is not None and len(old):
                base = np.concatenate([component_major(old), base], axis=-1)
            setattr(self, prefix + f.name, np.moveaxis(base, -1, 0))

    # ------------------------------------------------------------------ kinds

    def var(self, kind: Kind, name: str) -> np.ndarray:
        return getattr(self, f"{kind.key}_{name}")

    def size(self, kind: Kind) -> int:
        return self.var(kind, "state").shape[0]

    def adjacent(self, kind: Kind) -> np.ndarray:
        return getattr(self, f"f_{kind.key}")

    def adjacent_states(self, idx=slice(None)) -> list:
        """Per kind, the states of the variables of the factors in `idx`."""
        return [self.var(kind, "state")[self.adjacent(kind)[idx]] for kind in KINDS]

    def messages(self, kind: Kind) -> tuple:
        return getattr(self, f"f_msg_{kind.key}_eta"), getattr(self, f"f_msg_{kind.key}_lam")

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

    # ------------------------------------------------------------------ views

    def keyframe(self, i: int) -> VariableView:
        return self._variable_view(KEYFRAME, i)

    def landmark(self, j: int) -> VariableView:
        return self._variable_view(LANDMARK, j)

    def _variable_view(self, kind: Kind, idx: int) -> VariableView:
        diag0, mean = self.var(kind, "prior_diag0")[idx], self.var(kind, "prior_mean")[idx]
        lam = self.var(kind, "belief_lam")[idx]
        return VariableView(
            id=idx,
            kind=kind.name,
            dim=kind.dim,
            state=self.var(kind, "state")[idx].copy(),
            belief=InfoGaussian(self.var(kind, "belief_eta")[idx].copy(), 0.5 * (lam + lam.T)),
            prior=_diag_gaussian(self.var(kind, "prior_scale")[idx] * diag0, mean),
            prior_initial=_diag_gaussian(diag0, mean),
            prior_target=_diag_gaussian(PRIOR_TARGET_RATIO * diag0, mean),
            prior_is_fallback=bool(self.var(kind, "prior_fallback")[idx]),
        )

    def factor(self, m: int) -> FactorView:
        sides = {}
        for kind in KINDS:
            eta, lam = (a[m] for a in self.messages(kind))
            sides[f"{kind.name}_id"] = int(self.adjacent(kind)[m])
            sides[f"msg_to_{kind.name}"] = InfoGaussian(eta.copy(), 0.5 * (lam + lam.T))
        return FactorView(
            id=m,
            z=self.f_z[m].copy(),
            sigma_meas=self.f_sigma[m] ** 2 * np.eye(2),
            huber_nsigma=self.huber_nsigma,
            lin_point=self.f_lin[m].copy(),
            factor=InfoGaussian(*(a[0] for a in self.factor_information([m]))),
            iters_since_relin=int(self.iters_since_relin(m)),
            huber_weight=float(self.f_weight[m]),
            linearization_valid=bool(self.f_valid[m]),
            **sides,
        )

    # ----------------------------------------------------------- linearisation

    def linearize_factors(self, idx: np.ndarray) -> np.ndarray:
        """(Re)linearise the factors in `idx` at the current states.

        Behind-camera points abort their factor's relinearisation (the old
        parameters are kept and the row of the returned mask is False).
        Freshly created factors with an invalid initial point get zero
        information until a later attempt succeeds.
        """
        idx = np.asarray(idx, dtype=int)
        if idx.size == 0:
            return np.zeros(0, dtype=bool)
        lin_points = np.concatenate(self.adjacent_states(idx), axis=1)
        parts = [lin_points[:, kind.cols] for kind in KINDS]
        # R(w) and J_l(w) once per keyframe, gathered by factor
        kf, axis_angles = self.f_kf[idx], self.kf_state[:, :3]
        rot = rotation_matrix(axis_angles)[kf]
        uv_hat, depth = project_many(*parts, self.intrinsics, rot)
        ok = depth > DEPTH_EPSILON
        good = idx[ok]
        if good.size:
            jl = left_jacobian(axis_angles)[kf[ok]]
            jac = jacobian_many(*(part[ok] for part in parts), self.intrinsics, rot[ok], jl)
            residual = self.f_z[good] - uv_hat[ok]
            mahal = np.linalg.norm(residual, axis=1) / self.f_sigma[good]
            weight = huber_weight(mahal, self.huber_nsigma)
            self.f_jac[good] = jac
            self.f_target[good] = np.einsum("fij,fj->fi", jac, lin_points[ok]) + residual
            self.f_lin[good] = lin_points[ok]
            self.f_weight[good] = weight
            self.f_valid[good] = True
        return ok

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

    def prior_information(self, kind: str):
        """Current (eta, diag) arrays of the weakened priors of `kind` (a
        `Kind` or its name)."""
        kind = {k.name: k for k in KINDS}[kind] if isinstance(kind, str) else kind
        diag = self.var(kind, "prior_scale")[:, None] * self.var(kind, "prior_diag0")
        return diag * self.var(kind, "prior_mean"), diag

    def refresh_priors(self, ids) -> None:
        """Regenerate the priors of variables `ids[i]` of kind `KINDS[i]` from
        their adjacent factors' current linearisations."""
        ids = [np.asarray(i, dtype=int) for i in ids]
        if not any(i.size for i in ids):
            return
        touched = np.any([np.isin(self.adjacent(kind), i) for kind, i in zip(KINDS, ids)], axis=0)
        contrib = self._measurement_information_diag(np.flatnonzero(touched))
        for kind, i, c in zip(KINDS, ids, contrib):
            self._set_priors(kind, i, c[i])

    def _set_priors(self, kind: Kind, ids: np.ndarray, contrib: np.ndarray) -> None:
        """Initial priors of variables `ids` from the rows `contrib` of their
        summed measurement information diagonal: floored at PRIOR_FLOOR_RTOL
        of the row's largest entry, or a flagged unit fallback where the row
        has no positive entry."""
        fallback = ~np.any(contrib > 0, axis=1)
        self.notes["fallback_prior"] += int(fallback.sum())
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
        self.var(kind, "belief_lam")[ids] = diag0[:, :, None] * np.eye(diag0.shape[1])

    def _measurement_information_diag(self, idx: np.ndarray):
        """Per-variable diagonal of the summed, unweighted J' Sigma_M^-1 J of
        the factors in `idx`, evaluated at their linearisation points."""
        idx = idx[self.f_valid[idx]]
        colsq = np.sum(self.f_jac[idx] ** 2, axis=1) / self.f_sigma[idx, None] ** 2
        return [
            scatter_sum(self.adjacent(kind)[idx], colsq[:, kind.cols], self.size(kind))
            for kind in KINDS
        ]

    # ------------------------------------------------------------- evaluation

    @contextmanager
    def shared_projection(self):
        """Within the block, `residuals()`, and so the ARE and the energy,
        reuse one projection of every factor taken on entry.  The states must
        not change inside the block."""
        self._projection = self.residuals()
        try:
            yield
        finally:
            self._projection = None

    def residuals(self):
        """(residuals (F,2), depths (F,)) at current states.  Read-only."""
        if self._projection is not None:
            return self._projection
        if self.n_measurement_factors == 0:
            return np.zeros((0, 2)), np.zeros(0)
        rot = rotation_matrix(self.kf_state[:, :3])[self.f_kf]
        uv_hat, depth = project_many(*self.adjacent_states(), self.intrinsics, rot)
        return self.f_z - uv_hat, depth

    def average_reprojection_error(self) -> float:
        """Mean Euclidean pixel error over all measurements at current states.

        Behind-camera measurements contribute a large sentinel (1e6 px) and a
        diagnostic note.  Defined as 0.0 for a graph with no measurements.
        """
        if self.n_measurement_factors == 0:
            return 0.0
        residual, depth = self.residuals()
        norms = np.linalg.norm(residual, axis=1)
        behind = depth <= DEPTH_EPSILON
        if np.any(behind):
            norms = np.where(behind, ARE_SENTINEL_PX, norms)
            self.notes["are_behind_camera"] += int(behind.sum())
        return float(np.mean(norms))

    def energy(self) -> float:
        """The objective: prior Mahalanobis terms plus Huber-modified
        measurement terms, at current states and current prior strengths."""
        total = 0.0
        for kind in KINDS:
            _, diag = self.prior_information(kind)
            delta = self.var(kind, "state") - self.var(kind, "prior_mean")
            total += float(np.sum(diag * delta**2))
        if self.n_measurement_factors:
            residual, depth = self.residuals()
            behind = depth <= DEPTH_EPSILON
            if np.any(behind):
                # the residual at the linearisation point, z - h(lin) =
                # target - jac lin, which is zero before the first one
                stale = self.f_target - np.einsum("fij,fj->fi", self.f_jac, self.f_lin)
                residual = np.where(behind[:, None], stale, residual)
                self.notes["energy_behind_camera"] += int(behind.sum())
            mahal = np.linalg.norm(residual, axis=1) / self.f_sigma
            total += float(np.sum(huber_energy(mahal, self.huber_nsigma)))
        return total

    def classify_outliers(self) -> np.ndarray:
        """Measurements currently in the linear (outlier) loss regime."""
        residual, depth = self.residuals()
        mahal = np.linalg.norm(residual, axis=1) / self.f_sigma
        mahal = np.where(depth <= DEPTH_EPSILON, np.inf, mahal)
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
        """Raises BuildError, before changing the graph, for a state
        `check_state_values` rejects."""
        state = np.reshape(state, (1, kind.dim))
        check_state_values(kind.name, state, BuildError, first=self.size(kind))
        self._grow(kind.key + "_", 1, state=state)
        idx = self.size(kind) - 1
        self._pin_priors(kind, [idx])
        return idx

    def add_measurement(self, kf_id: int, lm_id: int, z: np.ndarray, sigma: float = 1.0) -> int:
        return self.add_measurements([kf_id], [lm_id], np.asarray(z, float).reshape(1, 2), [sigma])

    def add_measurements(self, kf_ids, lm_ids, zs, sigmas) -> int:
        """Append measurement factors and linearise them at current states;
        re-anchor the prior means of variables born before this iteration at
        their current states, and regenerate the priors of every variable
        born in this iteration from all its adjacent factors (a flagged
        fallback where there are none).  Prior
        strengths, beliefs, messages and linearisations of the older
        variables and factors are left as they are.  Returns the id of the
        last factor added.  Raises BuildError, before changing the graph,
        for a missing variable id or a value `check_measurement_values`
        rejects."""
        ids = [np.asarray(i, dtype=int).reshape(-1) for i in (kf_ids, lm_ids)]
        zs = np.asarray(zs, float).reshape(-1, 2)
        sigmas = np.asarray(sigmas, float).reshape(-1)
        for kind, i in zip(KINDS, ids):
            bad = i[(i < 0) | (i >= self.size(kind))]
            if bad.size:
                raise BuildError(f"measurement references missing {kind.name} {bad[0]}")
        check_measurement_values(zs, sigmas, BuildError)
        repeats = self._count_repeats(*ids)
        if repeats:
            self.notes["duplicate_measurement"] += repeats

        start = self.n_measurement_factors
        # phase A measures from `f_lin` also where the linearisation fails
        lin = np.concatenate([self.var(kind, "state")[i] for kind, i in zip(KINDS, ids)], axis=1)
        self._grow(
            "f_", len(zs), z=zs, sigma=sigmas, lin=lin, last_relin=self.iteration,
            **{kind.key: i for kind, i in zip(KINDS, ids)},
        )
        ok = self.linearize_factors(np.arange(start, self.n_measurement_factors))
        if not np.all(ok):
            self.notes["linearize_behind_camera"] += int((~ok).sum())

        # a prior mean left at a state the solve has since moved away from
        # pulls the grown graph towards a worse optimum than a cold restart's
        young = []
        for kind in KINDS:
            birth = self.var(kind, "birth")
            older = birth < self.iteration
            self.var(kind, "prior_mean")[older] = self.var(kind, "state")[older]
            young.append(np.flatnonzero(birth == self.iteration))
        self.refresh_priors(young)
        return self.n_measurement_factors - 1

    def _count_repeats(self, kf_ids: np.ndarray, lm_ids: np.ndarray) -> int:
        """How many new pairs repeat an existing or an earlier new pair: the
        keys 2 (kf n_landmarks + lm), plus 1 for a new pair, sort each
        repeat right after an equal key."""
        n = self.n_landmarks
        keys = 2 * np.concatenate([self.f_kf * n + self.f_lm, kf_ids * n + lm_ids])
        keys[self.n_measurement_factors :] += 1
        keys.sort()
        new = keys[1:] & 1 == 1
        return int(np.count_nonzero(new & (keys[1:] >> 1 == keys[:-1] >> 1)))

    # ------------------------------------------------------------- utilities

    def copy(self) -> "FactorGraph":
        return self.astype(self.dtype)

    def astype(self, dtype) -> "FactorGraph":
        """Copy with every float array in `dtype` (e.g. float32, the paper's
        on-chip precision, for studying reduced-precision behaviour).  The
        copies keep the node-last layout (`astype` keeps the strides' order)."""
        out = FactorGraph(self.intrinsics, self.huber_nsigma)
        out.iteration = self.iteration
        out.notes = Counter(self.notes)
        out.dtype = np.dtype(dtype)
        for prefix, (fields, _) in TABLES.items():
            for f in fields:
                name = prefix + f.name
                setattr(out, name, getattr(self, name).astype(out._kind_dtype(f.kind)))
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
        weakening schedule starts again for every variable."""
        return build(self.to_problem(), huber_nsigma=self.huber_nsigma)

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
        # rank <= 2 right after linearisation: third-largest eigenvalue ~ 0;
        # checked in blocks, so no (F, 9, 9) stack is formed
        fresh = np.flatnonzero(self.f_valid & (self.iters_since_relin() == 0))
        for start in range(0, fresh.size, BLOCK_ROWS):
            eigs = np.linalg.eigvalsh(self.factor_information(fresh[start : start + BLOCK_ROWS])[1])
            scale = np.maximum(eigs[:, -1], 1.0)
            bad["factor_rank"] += int(np.sum(eigs[:, -3] > 1e-9 * scale))
        return bad


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


def generate_priors(graph: FactorGraph) -> None:
    """Set every variable's initial prior from its adjacent measurements.

    The initial prior information diagonal equals the diagonal of the summed
    adjacent (unweighted) J' Sigma_M^-1 J blocks, with the prior mean pinned
    at the variable's current state; variables with no adjacent factor fall
    back to a unit isotropic prior and are flagged.  Beliefs are reset to the
    initial-strength priors.
    """
    graph.refresh_priors([np.arange(graph.size(kind)) for kind in KINDS])


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
    observed = np.zeros(problem.n_landmarks, dtype=bool)
    observed[problem.meas_lm] = True
    if not np.all(observed) and problem.n_measurements:
        graph.notes["unobserved_landmarks"] += int((~observed).sum())
    graph.add_measurements(problem.meas_kf, problem.meas_lm, problem.meas_uv, problem.meas_sigma)
    return graph
