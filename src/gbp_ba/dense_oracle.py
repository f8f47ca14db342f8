"""Dense ground-truth machinery for verifying the message-passing solver.

Assembles the full stacked information form of a (linearised) graph, solves
the MAP system by dense factorisation, recovers exact per-variable marginals,
and provides an independent Levenberg-Marquardt baseline plus finite
difference Jacobians.  Everything here trades speed for trustworthiness: the
marginal oracle refuses systems beyond a configurable size because it exists
for desk-scale verification, not production.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .camera import DEPTH_EPSILON, jacobian_many, project_many, retract
from .factor_graph import (
    ARE_SENTINEL_PX,
    FACTOR_DIM,
    KEYFRAME,
    KINDS,
    LANDMARK,
    PRIOR_TARGET_RATIO,
    FactorGraph,
    huber_energy,
    huber_weight,
)

MARGINALS_MAX_DIM = 600


class SingularSystemError(np.linalg.LinAlgError):
    def __init__(self, message: str, null_blocks=()):
        super().__init__(message)
        self.null_blocks = tuple(null_blocks)


class OracleScaleError(ValueError):
    pass


def stacked_offsets(graph: FactorGraph) -> np.ndarray:
    """Where each kind's block of the stacked state vector starts, in `KINDS`
    order, and its total length last."""
    return np.cumsum([0] + [kind.dim * graph.size(kind) for kind in KINDS])


def _factor_rows(graph: FactorGraph, offsets, idx) -> np.ndarray:
    """(F, 9) rows of the stacked vector that the 9-vectors of factors `idx`
    map to."""
    rows = np.empty((len(idx), FACTOR_DIM), dtype=int)
    for kind, start in zip(KINDS, offsets):
        first = start + kind.dim * graph.adjacent(kind)[idx]
        rows[:, kind.cols] = first[:, None] + np.arange(kind.dim)
    return rows


@dataclass
class DenseSystem:
    """Stacked information form of the whole graph: keyframes first (6 dims
    each, by id), then landmarks (3 dims each).  `const` completes the
    quadratic so that quadratic_form(x) reproduces the graph objective of the
    linearised model."""

    eta: np.ndarray
    lam: np.ndarray
    const: float
    n_kf: int
    n_lm: int

    @property
    def dim(self) -> int:
        return self.eta.shape[0]

    def kf_slice(self, i: int) -> slice:
        return slice(KEYFRAME.dim * i, KEYFRAME.dim * (i + 1))

    def lm_slice(self, j: int) -> slice:
        start = KEYFRAME.dim * self.n_kf + LANDMARK.dim * j
        return slice(start, start + LANDMARK.dim)

    def block_name(self, dim_index: int) -> str:
        if dim_index < KEYFRAME.dim * self.n_kf:
            return f"keyframe {dim_index // KEYFRAME.dim}"
        return f"landmark {(dim_index - KEYFRAME.dim * self.n_kf) // LANDMARK.dim}"

    def quadratic_form(self, x: np.ndarray) -> float:
        x = np.asarray(x, float).reshape(-1)
        return float(x @ self.lam @ x - 2.0 * self.eta @ x + self.const)


def stack_states(graph: FactorGraph) -> np.ndarray:
    return np.concatenate([graph.var(kind, "state").ravel() for kind in KINDS])


def assemble(graph: FactorGraph) -> DenseSystem:
    """Sum every prior and every linearised factor into the stacked system."""
    offsets = stacked_offsets(graph)
    eta = np.zeros(offsets[-1])
    lam = np.zeros((offsets[-1], offsets[-1]))
    const = 0.0

    for kind, start, stop in zip(KINDS, offsets, offsets[1:]):
        prior_eta, prior_diag = graph.prior_information(kind)
        idx = np.arange(start, stop)
        eta[idx] += prior_eta.ravel()
        lam[idx, idx] += prior_diag.ravel()
        const += float(np.sum(prior_diag * graph.var(kind, "prior_mean") ** 2))

    valid = np.flatnonzero(graph.f_valid)
    if valid.size:
        rows = _factor_rows(graph, offsets, valid)
        factor_eta, factor_lam = graph.factor_information(valid)
        np.add.at(eta, rows, factor_eta)
        np.add.at(lam, (rows[:, :, None], rows[:, None, :]), factor_lam)
        # per-factor constant: w t't with the stored target
        # t = J lin + z - h(lin)
        target = graph.f_target[valid]
        const += float(np.sum(graph.factor_precision(valid) * np.sum(target**2, axis=1)))
    return DenseSystem(eta, 0.5 * (lam + lam.T), const, graph.n_keyframes, graph.n_landmarks)


def map_solve(system: DenseSystem) -> np.ndarray:
    """Exact MAP mean of the stacked system by dense Cholesky."""
    try:
        return cho_solve(cho_factor(system.lam, lower=True), system.eta)
    except np.linalg.LinAlgError:
        eigvals, eigvecs = np.linalg.eigh(system.lam)
        scale = max(abs(eigvals[-1]), 1.0)
        null = np.flatnonzero(eigvals < 1e-12 * scale)
        blocks = sorted({system.block_name(int(np.argmax(np.abs(eigvecs[:, k])))) for k in null})
        raise SingularSystemError(
            f"information matrix singular along: {', '.join(blocks) or 'unknown'}", blocks
        ) from None


def marginals(system: DenseSystem, max_dim: int = MARGINALS_MAX_DIM):
    """Exact per-variable marginal means and covariance blocks.

    Refuses systems above `max_dim` scalar dimensions; the oracle is meant
    for small verification problems.
    """
    if system.dim > max_dim:
        raise OracleScaleError(f"system dim {system.dim} exceeds oracle limit {max_dim}")
    try:
        factor = cho_factor(system.lam, lower=True)
    except np.linalg.LinAlgError:
        raise SingularSystemError("information matrix singular") from None
    cov = cho_solve(factor, np.eye(system.dim))
    mean = cho_solve(factor, system.eta)
    kf = [
        (mean[system.kf_slice(i)], cov[system.kf_slice(i), system.kf_slice(i)])
        for i in range(system.n_kf)
    ]
    lm = [
        (mean[system.lm_slice(j)], cov[system.lm_slice(j), system.lm_slice(j)])
        for j in range(system.n_lm)
    ]
    return kf, lm


def finite_diff_jacobian(fun, point: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of `fun` at `point`, one column per input
    dimension.  Exceptions from `fun` (e.g. behind-camera) propagate."""
    point = np.asarray(point, float).reshape(-1)
    cols = []
    for i in range(point.shape[0]):
        delta = np.zeros_like(point)
        delta[i] = step
        cols.append((np.asarray(fun(point + delta)) - np.asarray(fun(point - delta))) / (2 * step))
    return np.stack(cols, axis=-1)


# --------------------------------------------------------------------- LM


@dataclass
class LMParams:
    initial_lambda: float = 1e-4
    lambda_up: float = 10.0
    lambda_down: float = 0.1
    max_lambda: float = 1e10
    max_steps: int = 50
    are_target: float = 1.5
    gradient_tol: float = 1e-10


@dataclass
class LMReport:
    converged: bool
    steps: int
    reason: str
    final_are: float
    kf_states: np.ndarray
    lm_states: np.ndarray
    are_trace: np.ndarray
    energy_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))


def _adjacent(graph: FactorGraph, states, idx=slice(None)) -> list:
    """Per kind, the given `states` of the variables of factors `idx`."""
    return [s[graph.adjacent(kind)[idx]] for kind, s in zip(KINDS, states)]


def _ares(graph: FactorGraph, states) -> float:
    if graph.n_measurement_factors == 0:
        return 0.0
    uv_hat, depth = project_many(*_adjacent(graph, states), graph.intrinsics)
    norms = np.linalg.norm(graph.f_z - uv_hat, axis=1)
    return float(np.mean(np.where(depth <= DEPTH_EPSILON, ARE_SENTINEL_PX, norms)))


def lm_solve(graph: FactorGraph, params: LMParams | None = None) -> LMReport:
    """Levenberg-Marquardt baseline on the graph objective.

    Minimises the Huberised reprojection objective plus the graph priors at
    their target (weakened) strength, which is the long-run objective the
    message-passing solver settles on, so final-error comparisons are
    like-for-like.  Huber weights are re-evaluated at the current residual
    every step (iteratively reweighted); the step uses dense normal equations
    with Marquardt scaling lambda * diag(H), lambda going up 10x on a
    rejected step and down 10x on an accepted one.

    The graph itself is never mutated.
    """
    params = params if params is not None else LMParams()
    states = [graph.var(kind, "state").copy() for kind in KINDS]
    offsets = stacked_offsets(graph)
    dim = offsets[-1]
    prior_diag = np.concatenate(
        [(PRIOR_TARGET_RATIO * graph.var(kind, "prior_diag0")).ravel() for kind in KINDS]
    )
    prior_mean = np.concatenate([graph.var(kind, "prior_mean").ravel() for kind in KINDS])

    def stacked(states):
        return np.concatenate([s.ravel() for s in states])

    def energy(states) -> float:
        x = stacked(states)
        total = float(np.sum(prior_diag * (x - prior_mean) ** 2))
        if graph.n_measurement_factors:
            uv_hat, depth = project_many(*_adjacent(graph, states), graph.intrinsics)
            mahal = np.linalg.norm(graph.f_z - uv_hat, axis=1) / graph.f_sigma
            mahal = np.where(depth <= DEPTH_EPSILON, ARE_SENTINEL_PX / graph.f_sigma, mahal)
            total += float(np.sum(huber_energy(mahal, graph.huber_nsigma)))
        return total

    def normal_equations(states):
        hess = np.zeros((dim, dim))
        grad = np.zeros(dim)
        x = stacked(states)
        hess[np.arange(dim), np.arange(dim)] += prior_diag
        grad -= prior_diag * (x - prior_mean)
        if graph.n_measurement_factors:
            uv_hat, depth = project_many(*_adjacent(graph, states), graph.intrinsics)
            ok = depth > DEPTH_EPSILON
            idx = np.flatnonzero(ok)
            if idx.size:
                residual = graph.f_z[idx] - uv_hat[idx]
                mahal = np.linalg.norm(residual, axis=1) / graph.f_sigma[idx]
                weight = huber_weight(mahal, graph.huber_nsigma)
                inv_noise = weight / graph.f_sigma[idx] ** 2
                jac = jacobian_many(*_adjacent(graph, states, idx), graph.intrinsics)
                rows = _factor_rows(graph, offsets, idx)
                wr = inv_noise[:, None] * residual
                np.add.at(grad, rows, np.einsum("fki,fk->fi", jac, wr))
                np.add.at(hess, (rows[:, :, None], rows[:, None, :]),
                          inv_noise[:, None, None] * np.einsum("fka,fkb->fab", jac, jac))
        return hess, grad

    are_trace = [_ares(graph, states)]
    energy_trace = [energy(states)]
    lam_damp = params.initial_lambda
    accepted = 0
    reason = "max_steps"
    if are_trace[-1] < params.are_target:
        reason = "are_target"
    else:
        attempts = 0
        while accepted < params.max_steps and attempts < 8 * params.max_steps:
            hess, grad = normal_equations(states)
            if np.max(np.abs(grad)) <= params.gradient_tol:
                reason = "gradient"
                break
            step_ok = False
            while lam_damp <= params.max_lambda:
                attempts += 1
                damped = hess + lam_damp * np.diag(np.diag(hess))
                try:
                    delta = np.linalg.solve(damped, grad)
                except np.linalg.LinAlgError:
                    lam_damp *= params.lambda_up
                    continue
                parts = np.split(delta, offsets[1:-1])
                new = [retract(s, d.reshape(s.shape)) for s, d in zip(states, parts)]
                e_new = energy(new)
                if e_new < energy_trace[-1]:
                    states = new
                    lam_damp = max(lam_damp * params.lambda_down, 1e-12)
                    step_ok = True
                    break
                lam_damp *= params.lambda_up
            if not step_ok:
                reason = "stalled"
                break
            accepted += 1
            energy_trace.append(e_new)
            are_trace.append(_ares(graph, states))
            if are_trace[-1] < params.are_target:
                reason = "are_target"
                break
            if energy_trace[-2] - energy_trace[-1] <= 1e-14 * max(energy_trace[-2], 1.0):
                reason = "small_decrease"
                break
    return LMReport(
        converged=are_trace[-1] < params.are_target,
        steps=accepted,
        reason=reason,
        final_are=are_trace[-1],
        kf_states=states[0],
        lm_states=states[1],
        are_trace=np.array(are_trace),
        energy_trace=np.array(energy_trace),
    )
