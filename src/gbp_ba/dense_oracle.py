"""Dense ground-truth machinery for verifying the message-passing solver.

Assembles the full stacked information form of a (linearised) graph, solves
the MAP system by dense factorisation, recovers exact per-variable marginals,
and provides a Levenberg-Marquardt baseline.  The baseline is not
independent of the graph: each of its steps takes the linearisation of
`FactorGraph.linearize_factors` and the normal equations of `assemble`, the
code the oracle uses, so it minimises exactly the graph's objective; the
camera math under both is checked against finite differences in the
tests.  Everything here trades speed for trustworthiness: the
marginal oracle refuses systems beyond a configurable size because it exists
for desk-scale verification, not production.

The dense Cholesky factorisations of `map_solve`, `marginals` and
`lm_solve` are scipy's, imported inside them: they are the package's only
use of scipy, so importing `gbp_ba` and solving with the engine load none
of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import DEPTH_EPSILON, retract
from .engine import ScheduleParams
from .factor_graph import (
    ARE_SENTINEL_PX,
    FACTOR_DIM,
    KEYFRAME,
    KINDS,
    LANDMARK,
    Evaluation,
    FactorGraph,
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
    # where each kind's block starts, in `KINDS` order, and the total length last
    offsets = np.cumsum([0] + [kind.dim * graph.size(kind) for kind in KINDS])
    eta = np.zeros(offsets[-1])
    lam = np.zeros((offsets[-1], offsets[-1]))
    const = 0.0

    for kind, start, stop in zip(KINDS, offsets, offsets[1:]):
        prior_eta, prior_diag = graph.prior_information(kind)
        idx = np.arange(start, stop)
        eta[idx] += prior_eta.ravel()
        lam[idx, idx] += prior_diag.ravel()
        const += float(np.sum(prior_diag * graph.var(kind, "prior_mean") ** 2))

    # every factor: one that never linearised has a zero J and target
    factors = np.arange(graph.n_measurement_factors)
    # the rows of the stacked vector that each factor's 9-vector maps to
    rows = np.empty((factors.size, FACTOR_DIM), dtype=int)
    for kind, start in zip(KINDS, offsets):
        rows[:, kind.cols] = start + kind.dim * graph.adjacent(kind)[:, None] + np.arange(kind.dim)
    factor_eta, factor_lam = graph.factor_information(factors)
    np.add.at(eta, rows, factor_eta)
    np.add.at(lam, (rows[:, :, None], rows[:, None, :]), factor_lam)
    # per-factor constant: w t't with the stored target
    # t = J lin + z - h(lin)
    target = graph.f_target[factors]
    const += float(np.sum(graph.factor_precision(factors) * np.sum(target**2, axis=1)))
    return DenseSystem(eta, lam, const, graph.n_keyframes, graph.n_landmarks)


def map_solve(system: DenseSystem) -> np.ndarray:
    """Exact MAP mean of the stacked system by dense Cholesky."""
    from scipy.linalg import cho_factor, cho_solve

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
    from scipy.linalg import cho_factor, cho_solve

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


# --------------------------------------------------------------------- LM

# Marquardt damping: times LM_LAMBDA_UP on a rejected step, LM_LAMBDA_DOWN on
# an accepted one; a step no damping up to LM_MAX_LAMBDA makes acceptable stalls.
LM_INITIAL_LAMBDA = 1e-4
LM_LAMBDA_UP = 10.0
LM_LAMBDA_DOWN = 0.1
LM_MAX_LAMBDA = 1e10
LM_MAX_STEPS = 50
LM_ARE_TARGET = 1.5
LM_GRADIENT_TOL = 1e-10


@dataclass
class LMReport:
    converged: bool
    steps: int
    reason: str
    final_are: float
    kf_states: np.ndarray
    lm_states: np.ndarray
    are_trace: np.ndarray
    energy_trace: np.ndarray


def _lm_energy(graph: FactorGraph, record: Evaluation) -> float:
    """The objective LM accepts a step on, from the graph's `record` of its
    current states: `Evaluation.energy` at current prior strengths, except
    that a behind-camera measurement's term takes the ARE sentinel residual,
    a barrier against steps that move points behind a camera, where the
    record's energy takes its residual at its linearisation point."""
    norms = np.where(record.depths <= DEPTH_EPSILON, ARE_SENTINEL_PX, record.norms)
    return graph._objective(norms / graph.f_sigma)


def lm_solve(graph: FactorGraph, schedule: ScheduleParams | None = None) -> LMReport:
    """Levenberg-Marquardt baseline on the graph objective.

    Minimises the Huberised reprojection objective plus the graph priors at
    the `prior_floor` of `schedule` (the default `ScheduleParams` when None),
    the long-run objective the message-passing solver settles on under that
    schedule, so final-error comparisons are like-for-like.  Each step
    relinearises every factor at the current states with
    `linearize_factors`, which re-evaluates the Huber weights
    (iteratively reweighted), and zeroes the J and target of the
    behind-camera factors that could not be relinearised, so they drop out
    of the step.  It takes the normal equations H dx = g from `assemble`,
    with g = eta - H x, solves them by dense Cholesky with Marquardt scaling
    lambda * diag(H), raising the damping where that system is not positive
    definite, and retracts each kind's states.

    Runs on a float64 copy of the graph; the graph itself is never mutated.
    """
    from scipy.linalg import cho_factor, cho_solve

    floor = (schedule if schedule is not None else ScheduleParams()).prior_floor
    work = graph.astype(np.float64)
    for kind in KINDS:
        work.var(kind, "prior_scale")[:] = floor
    states = [work.var(kind, "state").copy() for kind in KINDS]
    record = work.evaluate()
    are_trace, energy_trace = [record.are], [_lm_energy(work, record)]
    lam_damp = LM_INITIAL_LAMBDA
    accepted = attempts = 0
    reason = "are_target" if are_trace[-1] < LM_ARE_TARGET else "max_steps"
    while reason == "max_steps" and accepted < LM_MAX_STEPS and attempts < 8 * LM_MAX_STEPS:
        behind = ~work.linearize_factors(np.arange(work.n_measurement_factors))
        work.f_jac[behind], work.f_target[behind] = 0.0, 0.0
        system = assemble(work)
        grad = system.eta - system.lam @ stack_states(work)
        if np.max(np.abs(grad)) <= LM_GRADIENT_TOL:
            reason = "gradient"
            break
        while lam_damp <= LM_MAX_LAMBDA:
            attempts += 1
            damped = system.lam.copy()
            damped.flat[:: system.dim + 1] += lam_damp * np.diag(system.lam)
            try:
                delta = cho_solve(cho_factor(damped, lower=True, overwrite_a=True), grad)
            except np.linalg.LinAlgError:  # not positive definite
                lam_damp *= LM_LAMBDA_UP
                continue
            parts = np.split(delta, np.cumsum([s.size for s in states])[:-1])
            new = [retract(s, d.reshape(s.shape)) for s, d in zip(states, parts)]
            for kind, state in zip(KINDS, new):
                work.var(kind, "state")[:] = state
            record = work.evaluate()  # the step's energy and, if it is taken, its ARE
            e_new = _lm_energy(work, record)
            if e_new < energy_trace[-1]:
                break
            lam_damp *= LM_LAMBDA_UP
        else:  # no damping up to LM_MAX_LAMBDA lowered the energy
            reason = "stalled"
            break
        states = new
        lam_damp = max(lam_damp * LM_LAMBDA_DOWN, 1e-12)
        accepted += 1
        energy_trace.append(e_new)
        are_trace.append(record.are)
        if are_trace[-1] < LM_ARE_TARGET:
            reason = "are_target"
        elif energy_trace[-2] - energy_trace[-1] <= 1e-14 * max(energy_trace[-2], 1.0):
            reason = "small_decrease"
    return LMReport(
        converged=are_trace[-1] < LM_ARE_TARGET,
        steps=accepted,
        reason=reason,
        final_are=are_trace[-1],
        kf_states=states[0],
        lm_states=states[1],
        are_trace=np.array(are_trace),
        energy_trace=np.array(energy_trace),
    )
