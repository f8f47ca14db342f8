"""The bundle-adjustment factor graph.

Variables are keyframes (6-dim global angle-axis + translation states) and
landmarks (3-dim positions).  Each variable carries a belief and an
automatically generated diagonal prior; each measurement factor connects
exactly one keyframe and one landmark and stores its linearisation point,
the 2x9 Jacobian and the 2-vector target of its linearised residual, its
Huber weight, and the last message sent to each side.  The factor's 9-dim
information form is rank 2, `(w J' t, w J' J)` with `w = weight / sigma^2`,
so it is not stored: `factor_information` derives it for any rows, and the
engine works on J directly.  Variable-to-factor messages are not stored
either: the engine derives each one as the variable's belief minus the
factor's own last message.

Storage is columnar: stacked numpy arrays indexed by id, so the engine can
vectorise across factors.  One schema per node type lists every array with
its trailing shape, kind and fill value: `VARIABLE_FIELDS`, shared by
keyframes (`kf_*`) and landmarks (`lm_*`), and `FACTOR_FIELDS` for the
measurement factors (`f_*`).  Construction, growth, `copy` and `astype`
follow the schema, and every float array has the graph's one float `dtype`.
`keyframe()`, `landmark()` and `factor()` return snapshot views for
inspection.

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

from .batch_linalg import BLOCK_ROWS, scatter_sum
from .camera import DEPTH_EPSILON, Intrinsics, jacobian_many, project_many
from .dataset_io import ProblemSpec
from .info_gaussian import InfoGaussian

PRIOR_TARGET_RATIO = 0.01
PRIOR_FLOOR_RTOL = 1e-12
ARE_SENTINEL_PX = 1e6
DEFAULT_HUBER_NSIGMA = 2.0

KF_DIM = 6
LM_DIM = 3


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
# target = jac lin + z - h(lin).
FACTOR_FIELDS = (
    Field("kf", (), "int"),
    Field("lm", (), "int"),
    Field("z", (2,), "float"),
    Field("sigma", (), "float"),
    Field("nsigma", (), "float"),
    Field("lin", (9,), "float"),
    Field("jac", (2, 9), "float"),
    Field("target", (2,), "float"),
    Field("h0", (2,), "float", np.nan),
    Field("weight", (), "float", 1.0),
    Field("valid", (), "bool", False),
    Field("iters_since_relin", (), "int"),
    Field("last_relin", (), "int"),
    Field("birth", (), "int"),  # the iteration it was added in: its inputs are zero then
    Field("msg_kf_eta", (KF_DIM,), "float"),
    Field("msg_kf_lam", (KF_DIM, KF_DIM), "float"),
    Field("msg_lm_eta", (LM_DIM,), "float"),
    Field("msg_lm_lam", (LM_DIM, LM_DIM), "float"),
)

# attribute prefix -> (fields, variable dimension)
TABLES = {
    "kf_": (VARIABLE_FIELDS, KF_DIM),
    "lm_": (VARIABLE_FIELDS, LM_DIM),
    "f_": (FACTOR_FIELDS, None),
}
PREFIX = {"keyframe": "kf_", "landmark": "lm_"}


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
        defaults to the current iteration."""
        fields, dim = TABLES[prefix]
        given.setdefault("birth", self.iteration)
        for f in fields:
            shape = (n,) + tuple(dim if s == "d" else s for s in f.shape)
            # zero-filled blocks stay untouched pages until first written,
            # which keeps build's peak memory down for the message arrays
            block = np.zeros(shape, self._kind_dtype(f.kind))
            if f.name in given or f.fill:
                block[...] = given.get(f.name, f.fill)
            old = getattr(self, prefix + f.name, None)
            if old is not None and len(old):
                block = np.concatenate([old, block])
            setattr(self, prefix + f.name, block)

    def _var(self, kind: str, name: str) -> np.ndarray:
        return getattr(self, PREFIX[kind] + name)

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
        return self._variable_view("keyframe", i)

    def landmark(self, j: int) -> VariableView:
        return self._variable_view("landmark", j)

    def _variable_view(self, kind: str, idx: int) -> VariableView:
        diag0, mean = self._var(kind, "prior_diag0")[idx], self._var(kind, "prior_mean")[idx]
        lam = self._var(kind, "belief_lam")[idx]
        return VariableView(
            id=idx,
            kind=kind,
            dim=TABLES[PREFIX[kind]][1],
            state=self._var(kind, "state")[idx].copy(),
            belief=InfoGaussian(self._var(kind, "belief_eta")[idx].copy(), 0.5 * (lam + lam.T)),
            prior=_diag_gaussian(self._var(kind, "prior_scale")[idx] * diag0, mean),
            prior_initial=_diag_gaussian(diag0, mean),
            prior_target=_diag_gaussian(PRIOR_TARGET_RATIO * diag0, mean),
            prior_is_fallback=bool(self._var(kind, "prior_fallback")[idx]),
        )

    def factor(self, m: int) -> FactorView:
        return FactorView(
            id=m,
            keyframe_id=int(self.f_kf[m]),
            landmark_id=int(self.f_lm[m]),
            z=self.f_z[m].copy(),
            sigma_meas=self.f_sigma[m] ** 2 * np.eye(2),
            huber_nsigma=float(self.f_nsigma[m]),
            lin_point=self.f_lin[m].copy(),
            factor=InfoGaussian(*(a[0] for a in self.factor_information([m]))),
            msg_to_keyframe=InfoGaussian(
                self.f_msg_kf_eta[m].copy(), 0.5 * (self.f_msg_kf_lam[m] + self.f_msg_kf_lam[m].T)
            ),
            msg_to_landmark=InfoGaussian(
                self.f_msg_lm_eta[m].copy(), 0.5 * (self.f_msg_lm_lam[m] + self.f_msg_lm_lam[m].T)
            ),
            iters_since_relin=int(self.f_iters_since_relin[m]),
            huber_weight=float(self.f_weight[m]),
            linearization_valid=bool(self.f_valid[m]),
        )

    # ----------------------------------------------------------- linearisation

    def linearize_factors(self, idx: np.ndarray, lin_points: np.ndarray) -> np.ndarray:
        """(Re)linearise the factors in `idx` at the given 9-dim points.

        Behind-camera points abort their factor's relinearisation (the old
        parameters are kept and the row of the returned mask is False).
        Freshly created factors with an invalid initial point get zero
        information until a later attempt succeeds.
        """
        idx = np.asarray(idx, dtype=int)
        if idx.size == 0:
            return np.zeros(0, dtype=bool)
        kf_states = lin_points[:, :KF_DIM]
        lm_pos = lin_points[:, KF_DIM:]
        uv_hat, depth = project_many(kf_states, lm_pos, self.intrinsics)
        ok = depth > DEPTH_EPSILON
        good = idx[ok]
        if good.size:
            jac = jacobian_many(kf_states[ok], lm_pos[ok], self.intrinsics)
            residual = self.f_z[good] - uv_hat[ok]
            mahal = np.linalg.norm(residual, axis=1) / self.f_sigma[good]
            weight = huber_weight(mahal, self.f_nsigma[good])
            self.f_jac[good] = jac
            self.f_target[good] = np.einsum("fij,fj->fi", jac, lin_points[ok]) + residual
            self.f_lin[good] = lin_points[ok]
            self.f_h0[good] = uv_hat[ok]
            self.f_weight[good] = weight
            self.f_valid[good] = True
        return ok

    def factor_precision(self, idx=slice(None)) -> np.ndarray:
        """w = weight / sigma^2 of the factors in `idx`: the Huber-weighted
        inverse of the isotropic measurement noise."""
        return self.f_weight[idx] / self.f_sigma[idx] ** 2

    def factor_information(self, idx):
        """(w J' t, w J' J) of the factors in `idx`: their 9-dim information
        vectors (n, 9) and matrices (n, 9, 9), zero before linearisation."""
        jac = self.f_jac[idx]
        w = self.factor_precision(idx)
        eta = w[:, None] * np.einsum("fji,fj->fi", jac, self.f_target[idx])
        lam = w[:, None, None] * (np.swapaxes(jac, 1, 2) @ jac)
        return eta, lam

    @property
    def f_eta(self) -> np.ndarray:
        """Information vectors of every factor (derived, read-only)."""
        return self.factor_information(slice(None))[0]

    @property
    def f_lam(self) -> np.ndarray:
        """Information matrices of every factor (derived, read-only)."""
        return self.factor_information(slice(None))[1]

    # ----------------------------------------------------------------- priors

    def prior_information(self, kind: str):
        """Current (eta, diag) arrays of the weakened priors."""
        diag = self._var(kind, "prior_scale")[:, None] * self._var(kind, "prior_diag0")
        return diag * self._var(kind, "prior_mean"), diag

    def refresh_priors(self, kf_ids: np.ndarray, lm_ids: np.ndarray) -> None:
        """Regenerate priors for the given variables from their adjacent
        factors' current linearisations (used for freshly added variables)."""
        kf_ids = np.asarray(kf_ids, dtype=int)
        lm_ids = np.asarray(lm_ids, dtype=int)
        if kf_ids.size == 0 and lm_ids.size == 0:
            return
        touched = np.isin(self.f_kf, kf_ids) | np.isin(self.f_lm, lm_ids)
        contrib = self._measurement_information_diag(np.flatnonzero(touched))
        for kind, ids, c in zip(PREFIX, (kf_ids, lm_ids), contrib):
            self._set_priors(kind, ids, c[ids])

    def _set_priors(self, kind: str, ids: np.ndarray, contrib: np.ndarray) -> None:
        """Initial priors of variables `ids` from the rows `contrib` of their
        summed measurement information diagonal: floored at PRIOR_FLOOR_RTOL
        of the row's largest entry, or a flagged unit fallback where the row
        has no positive entry."""
        fallback = ~np.any(contrib > 0, axis=1)
        self.notes["fallback_prior"] += int(fallback.sum())
        floored = np.maximum(contrib, PRIOR_FLOOR_RTOL * contrib.max(axis=1, keepdims=True))
        self._var(kind, "prior_diag0")[ids] = np.where(fallback[:, None], 1.0, floored)
        self._var(kind, "prior_fallback")[ids] = fallback
        self._pin_priors(kind, ids)

    def _pin_priors(self, kind: str, ids) -> None:
        """Pin the priors of variables `ids` at their current states at full
        strength, and reset their beliefs to those priors."""
        diag0 = self._var(kind, "prior_diag0")[ids]
        mean = self._var(kind, "state")[ids]
        self._var(kind, "prior_mean")[ids] = mean
        self._var(kind, "prior_scale")[ids] = 1.0
        self._var(kind, "belief_eta")[ids] = diag0 * mean
        self._var(kind, "belief_lam")[ids] = diag0[:, :, None] * np.eye(diag0.shape[1])

    def _measurement_information_diag(self, idx: np.ndarray):
        """Per-variable diagonal of the summed, unweighted J' Sigma_M^-1 J of
        the factors in `idx`, evaluated at their linearisation points."""
        idx = idx[self.f_valid[idx]]
        colsq = np.sum(self.f_jac[idx] ** 2, axis=1) / self.f_sigma[idx, None] ** 2
        return (
            scatter_sum(self.f_kf[idx], colsq[:, :KF_DIM], self.n_keyframes),
            scatter_sum(self.f_lm[idx], colsq[:, KF_DIM:], self.n_landmarks),
        )

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
        uv_hat, depth = project_many(
            self.kf_state[self.f_kf], self.lm_state[self.f_lm], self.intrinsics
        )
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
        for kind in PREFIX:
            _, diag = self.prior_information(kind)
            delta = self._var(kind, "state") - self._var(kind, "prior_mean")
            total += float(np.sum(diag * delta**2))
        if self.n_measurement_factors:
            residual, depth = self.residuals()
            behind = depth <= DEPTH_EPSILON
            if np.any(behind):
                # stale linearisation residual for flagged rows
                stale = self.f_z - self.f_h0
                stale[~self.f_valid] = 0.0
                residual = np.where(behind[:, None], stale, residual)
                self.notes["energy_behind_camera"] += int(behind.sum())
            mahal = np.linalg.norm(residual, axis=1) / self.f_sigma
            total += float(np.sum(huber_energy(mahal, self.f_nsigma)))
        return total

    def classify_outliers(self) -> np.ndarray:
        """Measurements currently in the linear (outlier) loss regime."""
        residual, depth = self.residuals()
        mahal = np.linalg.norm(residual, axis=1) / self.f_sigma
        mahal = np.where(depth <= DEPTH_EPSILON, np.inf, mahal)
        return mahal > self.f_nsigma

    # ------------------------------------------------------------ mutation

    def add_keyframe(self, state: np.ndarray | None = None) -> int:
        """Append a keyframe.  With no state given, copies the pose of the
        most recent keyframe (incremental SLAM initialisation)."""
        if state is None:
            if self.n_keyframes == 0:
                raise BuildError("no keyframe to copy the initial pose from")
            state = self.kf_state[-1]
        return self._add_variable("keyframe", state)

    def add_landmark(self, position: np.ndarray) -> int:
        return self._add_variable("landmark", position)

    def _add_variable(self, kind: str, state: np.ndarray) -> int:
        prefix = PREFIX[kind]
        self._grow(prefix, 1, state=np.reshape(state, (1, TABLES[prefix][1])))
        idx = self._var(kind, "state").shape[0] - 1
        self._pin_priors(kind, [idx])
        return idx

    def add_measurement(self, kf_id: int, lm_id: int, z: np.ndarray, sigma: float = 1.0) -> int:
        return self.add_measurements([kf_id], [lm_id], np.asarray(z, float).reshape(1, 2), [sigma])

    def add_measurements(self, kf_ids, lm_ids, zs, sigmas) -> int:
        """Append measurement factors, linearise them at current states,
        re-anchor the prior means of variables born before this iteration at
        their current states, and regenerate priors of variables added since
        the last iteration.  Prior strengths, beliefs, messages and
        linearisations of the older variables and factors are left as they
        are.  Returns the id of the last factor added."""
        kf_ids = np.asarray(kf_ids, dtype=int).reshape(-1)
        lm_ids = np.asarray(lm_ids, dtype=int).reshape(-1)
        zs = np.asarray(zs, float).reshape(-1, 2)
        sigmas = np.asarray(sigmas, float).reshape(-1)
        if np.any(kf_ids < 0) or np.any(kf_ids >= self.n_keyframes):
            bad = kf_ids[(kf_ids < 0) | (kf_ids >= self.n_keyframes)][0]
            raise BuildError(f"measurement references missing keyframe {bad}")
        if np.any(lm_ids < 0) or np.any(lm_ids >= self.n_landmarks):
            bad = lm_ids[(lm_ids < 0) | (lm_ids >= self.n_landmarks)][0]
            raise BuildError(f"measurement references missing landmark {bad}")

        existing = set(zip(self.f_kf.tolist(), self.f_lm.tolist()))
        seen = set()
        for pair in zip(kf_ids.tolist(), lm_ids.tolist()):
            if pair in existing or pair in seen:
                self.notes["duplicate_measurement"] += 1
            seen.add(pair)

        start = self.n_measurement_factors
        self._add_factors(kf_ids, lm_ids, zs, sigmas)
        new_idx = np.arange(start, self.n_measurement_factors)
        ok = self.linearize_factors(new_idx, self.f_lin[new_idx])
        if not np.all(ok):
            self.notes["linearize_behind_camera"] += int((~ok).sum())

        # a prior mean left at a state the solve has since moved away from
        # pulls the grown graph towards a worse optimum than a cold restart's
        for kind in PREFIX:
            older = self._var(kind, "birth") < self.iteration
            self._var(kind, "prior_mean")[older] = self._var(kind, "state")[older]

        young_kf = np.flatnonzero(self.kf_birth == self.iteration)
        young_lm = np.flatnonzero(self.lm_birth == self.iteration)
        self.refresh_priors(
            young_kf[np.isin(young_kf, kf_ids)], young_lm[np.isin(young_lm, lm_ids)]
        )
        return self.n_measurement_factors - 1

    def _add_factors(self, kf_ids, lm_ids, zs, sigmas) -> None:
        """Append unlinearised factors whose linearisation points are the
        current states of their variables."""
        lin = np.concatenate([self.kf_state[kf_ids], self.lm_state[lm_ids]], axis=1)
        self._grow(
            "f_", len(kf_ids), kf=kf_ids, lm=lm_ids, z=zs, sigma=sigmas,
            nsigma=self.huber_nsigma, lin=lin, last_relin=self.iteration,
        )

    # ------------------------------------------------------------- utilities

    def copy(self) -> "FactorGraph":
        return self.astype(self.dtype)

    def astype(self, dtype) -> "FactorGraph":
        """Copy with every float array in `dtype` (e.g. float32, the paper's
        on-chip precision, for studying reduced-precision behaviour)."""
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

    def validate(self, psd_rtol: float = 1e-8) -> dict:
        """Invariant check; returns violation counts (all zero when healthy)."""
        bad = {"belief_not_psd": 0, "factor_rank": 0, "asymmetry": 0}
        for lam in (self.kf_belief_lam, self.lm_belief_lam):
            if lam.size == 0:
                continue
            asym = np.max(np.abs(lam - np.swapaxes(lam, 1, 2)))
            if asym > 1e-9:
                bad["asymmetry"] += 1
            eigs = np.linalg.eigvalsh(0.5 * (lam + np.swapaxes(lam, 1, 2)))
            trace = np.einsum("nii->n", lam)
            bad["belief_not_psd"] += int(np.sum(eigs[:, 0] < -psd_rtol * np.maximum(1.0, trace)))
        # rank <= 2 right after linearisation: third-largest eigenvalue ~ 0;
        # checked in blocks, so no (F, 9, 9) stack is formed
        fresh = np.flatnonzero(self.f_valid & (self.f_iters_since_relin == 0))
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
    strictly decreasing and positive beyond.
    """
    scalar_in = np.ndim(mahal) == 0
    mahal = np.atleast_1d(np.asarray(mahal, dtype=float))
    nsigma = np.broadcast_to(np.asarray(nsigma, dtype=float), mahal.shape)
    w = np.ones_like(mahal)
    linear = mahal > nsigma
    if np.any(linear):
        ratio = nsigma[linear] / mahal[linear]
        w[linear] = 2 * ratio - ratio**2
    return float(w[0]) if scalar_in else w


def huber_energy(mahal, nsigma):
    """Piecewise Huber contribution: M^2 below the threshold, else
    2 N_sigma M - N_sigma^2."""
    scalar_in = np.ndim(mahal) == 0
    mahal = np.atleast_1d(np.asarray(mahal, dtype=float))
    nsigma = np.broadcast_to(np.asarray(nsigma, dtype=float), mahal.shape)
    out = mahal**2
    linear = mahal > nsigma
    if np.any(linear):
        out[linear] = 2 * nsigma[linear] * mahal[linear] - nsigma[linear] ** 2
    return float(out[0]) if scalar_in else out


def generate_priors(graph: FactorGraph) -> None:
    """Set every variable's initial prior from its adjacent measurements.

    The initial prior information diagonal equals the diagonal of the summed
    adjacent (unweighted) J' Sigma_M^-1 J blocks, with the prior mean pinned
    at the variable's current state; variables with no adjacent factor fall
    back to a unit isotropic prior and are flagged.  Beliefs are reset to the
    initial-strength priors.
    """
    contrib = graph._measurement_information_diag(np.arange(graph.n_measurement_factors))
    for kind, c in zip(PREFIX, contrib):
        graph._set_priors(kind, np.arange(c.shape[0]), c)


def build(problem: ProblemSpec, huber_nsigma: float = DEFAULT_HUBER_NSIGMA) -> FactorGraph:
    """Construct the factor graph for a problem.

    One prior factor per variable, one measurement factor per observation,
    all measurement factors linearised at the initial states, all messages
    zero-information, beliefs at the initial-strength priors.
    """
    problem.validate()
    graph = FactorGraph(problem.intrinsics, huber_nsigma)
    graph._grow("kf_", problem.n_keyframes, state=problem.kf_init)
    graph._grow("lm_", problem.n_landmarks, state=problem.lm_init)

    m = problem.n_measurements
    observed = np.zeros(problem.n_landmarks, dtype=bool)
    observed[problem.meas_lm] = True
    if not np.all(observed) and m:
        graph.notes["unobserved_landmarks"] += int((~observed).sum())

    graph._add_factors(problem.meas_kf, problem.meas_lm, problem.meas_uv, problem.meas_sigma)
    duplicates = m - len(set(zip(graph.f_kf.tolist(), graph.f_lm.tolist())))
    if duplicates:
        graph.notes["duplicate_measurement"] += duplicates

    ok = graph.linearize_factors(np.arange(m), graph.f_lin)
    if not np.all(ok):
        graph.notes["linearize_behind_camera"] += int((~ok).sum())
    generate_priors(graph)
    return graph
