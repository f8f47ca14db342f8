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
    KF_DIM,
    LM_DIM,
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
        return slice(KF_DIM * i, KF_DIM * (i + 1))

    def lm_slice(self, j: int) -> slice:
        return slice(KF_DIM * self.n_kf + LM_DIM * j, KF_DIM * self.n_kf + LM_DIM * (j + 1))

    def block_name(self, dim_index: int) -> str:
        if dim_index < KF_DIM * self.n_kf:
            return f"keyframe {dim_index // KF_DIM}"
        return f"landmark {(dim_index - KF_DIM * self.n_kf) // LM_DIM}"

    def quadratic_form(self, x: np.ndarray) -> float:
        x = np.asarray(x, float).reshape(-1)
        return float(x @ self.lam @ x - 2.0 * self.eta @ x + self.const)


def stack_states(graph: FactorGraph) -> np.ndarray:
    return np.concatenate([graph.kf_state.ravel(), graph.lm_state.ravel()])


def assemble(graph: FactorGraph) -> DenseSystem:
    """Sum every prior and every linearised factor into the stacked system."""
    n_kf, n_lm = graph.n_keyframes, graph.n_landmarks
    dim = KF_DIM * n_kf + LM_DIM * n_lm
    eta = np.zeros(dim)
    lam = np.zeros((dim, dim))
    const = 0.0

    for kind, offset, width in (("keyframe", 0, KF_DIM), ("landmark", KF_DIM * n_kf, LM_DIM)):
        prior_eta, prior_diag = graph.prior_information(kind)
        mean = graph.kf_prior_mean if kind == "keyframe" else graph.lm_prior_mean
        n = prior_eta.shape[0]
        idx = offset + np.arange(n * width)
        eta[idx] += prior_eta.ravel()
        lam[idx, idx] += prior_diag.ravel()
        const += float(np.sum(prior_diag * mean**2))

    valid = np.flatnonzero(graph.f_valid)
    if valid.size:
        rows_k = (KF_DIM * graph.f_kf[valid])[:, None] + np.arange(KF_DIM)
        rows_l = (KF_DIM * n_kf + LM_DIM * graph.f_lm[valid])[:, None] + np.arange(LM_DIM)
        rows = np.concatenate([rows_k, rows_l], axis=1)  # (F, 9)
        factor_eta, factor_lam = graph.factor_information(valid)
        np.add.at(eta, rows, factor_eta)
        np.add.at(lam, (rows[:, :, None], rows[:, None, :]), factor_lam)
        # per-factor constant: w t't with the stored target
        # t = J lin + z - h(lin)
        target = graph.f_target[valid]
        const += float(np.sum(graph.factor_precision(valid) * np.sum(target**2, axis=1)))
    return DenseSystem(eta=eta, lam=0.5 * (lam + lam.T), const=const, n_kf=n_kf, n_lm=n_lm)


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
    fix_landmarks_steps: int = 0  # keep landmarks frozen for the first accepted steps


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


def _ares(graph: FactorGraph, kf: np.ndarray, lm: np.ndarray) -> float:
    if graph.n_measurement_factors == 0:
        return 0.0
    uv_hat, depth = project_many(kf[graph.f_kf], lm[graph.f_lm], graph.intrinsics)
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
    kf = graph.kf_state.copy()
    lm = graph.lm_state.copy()
    n_kf, n_lm = graph.n_keyframes, graph.n_landmarks
    dim = KF_DIM * n_kf + LM_DIM * n_lm
    kf_dim_total = KF_DIM * n_kf

    prior_diag = np.concatenate(
        [
            (PRIOR_TARGET_RATIO * graph.kf_prior_diag0).ravel(),
            (PRIOR_TARGET_RATIO * graph.lm_prior_diag0).ravel(),
        ]
    )
    prior_mean = np.concatenate([graph.kf_prior_mean.ravel(), graph.lm_prior_mean.ravel()])

    def stacked(kf, lm):
        return np.concatenate([kf.ravel(), lm.ravel()])

    def energy(kf, lm) -> float:
        x = stacked(kf, lm)
        total = float(np.sum(prior_diag * (x - prior_mean) ** 2))
        if graph.n_measurement_factors:
            uv_hat, depth = project_many(kf[graph.f_kf], lm[graph.f_lm], graph.intrinsics)
            mahal = np.linalg.norm(graph.f_z - uv_hat, axis=1) / graph.f_sigma
            mahal = np.where(depth <= DEPTH_EPSILON, ARE_SENTINEL_PX / graph.f_sigma, mahal)
            total += float(np.sum(huber_energy(mahal, graph.f_nsigma)))
        return total

    def normal_equations(kf, lm):
        hess = np.zeros((dim, dim))
        grad = np.zeros(dim)
        x = stacked(kf, lm)
        hess[np.arange(dim), np.arange(dim)] += prior_diag
        grad -= prior_diag * (x - prior_mean)
        if graph.n_measurement_factors:
            uv_hat, depth = project_many(kf[graph.f_kf], lm[graph.f_lm], graph.intrinsics)
            ok = depth > DEPTH_EPSILON
            idx = np.flatnonzero(ok)
            if idx.size:
                residual = graph.f_z[idx] - uv_hat[idx]
                mahal = np.linalg.norm(residual, axis=1) / graph.f_sigma[idx]
                weight = huber_weight(mahal, graph.f_nsigma[idx])
                inv_noise = weight / graph.f_sigma[idx] ** 2
                jac = jacobian_many(kf[graph.f_kf[idx]], lm[graph.f_lm[idx]], graph.intrinsics)
                jk, jl = jac[:, :, :KF_DIM], jac[:, :, KF_DIM:]
                rows_k = (KF_DIM * graph.f_kf[idx])[:, None] + np.arange(KF_DIM)
                rows_l = kf_dim_total + (LM_DIM * graph.f_lm[idx])[:, None] + np.arange(LM_DIM)
                wr = inv_noise[:, None] * residual
                np.add.at(grad, rows_k, np.einsum("fki,fk->fi", jk, wr))
                np.add.at(grad, rows_l, np.einsum("fki,fk->fi", jl, wr))
                w3 = inv_noise[:, None, None]
                np.add.at(hess, (rows_k[:, :, None], rows_k[:, None, :]),
                          w3 * np.einsum("fka,fkb->fab", jk, jk))
                np.add.at(hess, (rows_l[:, :, None], rows_l[:, None, :]),
                          w3 * np.einsum("fka,fkb->fab", jl, jl))
                cross = w3 * np.einsum("fka,fkb->fab", jk, jl)
                np.add.at(hess, (rows_k[:, :, None], rows_l[:, None, :]), cross)
                np.add.at(hess, (rows_l[:, :, None], rows_k[:, None, :]),
                          np.swapaxes(cross, 1, 2))
        return hess, grad

    are_trace = [_ares(graph, kf, lm)]
    energy_trace = [energy(kf, lm)]
    lam_damp = params.initial_lambda
    accepted = 0
    reason = "max_steps"
    if are_trace[-1] < params.are_target:
        reason = "are_target"
    else:
        attempts = 0
        while accepted < params.max_steps and attempts < 8 * params.max_steps:
            hess, grad = normal_equations(kf, lm)
            if np.max(np.abs(grad)) <= params.gradient_tol:
                reason = "gradient"
                break
            sub = slice(0, kf_dim_total) if accepted < params.fix_landmarks_steps else slice(0, dim)
            step_ok = False
            while lam_damp <= params.max_lambda:
                attempts += 1
                damped = hess[sub, sub] + lam_damp * np.diag(np.diag(hess[sub, sub]))
                try:
                    delta_sub = np.linalg.solve(damped, grad[sub])
                except np.linalg.LinAlgError:
                    lam_damp *= params.lambda_up
                    continue
                delta = np.zeros(dim)
                delta[sub] = delta_sub
                kf_new = np.stack(
                    [retract(s, d) for s, d in zip(kf, delta[:kf_dim_total].reshape(-1, KF_DIM))]
                ) if n_kf else kf
                lm_new = lm + delta[kf_dim_total:].reshape(-1, LM_DIM)
                e_new = energy(kf_new, lm_new)
                if e_new < energy_trace[-1]:
                    kf, lm = kf_new, lm_new
                    lam_damp = max(lam_damp * params.lambda_down, 1e-12)
                    step_ok = True
                    break
                lam_damp *= params.lambda_up
            if not step_ok:
                reason = "stalled"
                break
            accepted += 1
            energy_trace.append(e_new)
            are_trace.append(_ares(graph, kf, lm))
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
        kf_states=kf,
        lm_states=lm,
        are_trace=np.array(are_trace),
        energy_trace=np.array(energy_trace),
    )
