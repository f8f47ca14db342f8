"""Synchronous GBP iteration over the bundle-adjustment graph.

One call to `iterate` runs exactly one bulk-synchronous round of three
barrier-separated phases:

  A. every factor checks the distance between the stacked adjacent belief
     means and its linearisation point and relinearises when allowed
     (distance > beta and at least `relin_cooldown` iterations since the
     last relinearisation);
  B. every factor derives its variable-to-factor inputs, each the adjacent
     variable's belief minus the factor's own last message to it (zero in
     the round the factor was added in), then computes its message to each
     side by conditioning its 9-dim parameters on the other side's input
     and marginalising via Schur complement; the information vector is
     damped against the previously sent message except inside the
     undamped window after a relinearisation;
  C. every variable's belief is rebuilt as prior + sum of incoming messages
     (summed in ascending factor-id order) and its state moves to the belief
     mean when the belief is invertible.

Within a phase all reads target the pre-phase snapshot, so results do not
depend on intra-phase execution order.  Every phase keeps the graph's float
dtype.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .batch_linalg import solve_spd_masked
from .camera import canonicalize_axis_angle
from .factor_graph import (
    KF_DIM,
    PRIOR_TARGET_RATIO,
    FactorGraph,
    huber_weight,
)
from .info_gaussian import InfoGaussian, marginalize_onto

__all__ = [
    "ScheduleParams",
    "IterationReport",
    "SolveReport",
    "huber_weight",
    "pairwise_message",
    "iterate",
    "run",
    "solve",
]


@dataclass
class ScheduleParams:
    """Relinearisation, damping and prior-weakening schedule.

    beta: relinearisation distance threshold (None disables relinearisation).
    relin_cooldown: minimum iterations between relinearisations of a factor.
    damping: convex blend factor d applied to message information vectors.
    undamped_window: iterations after a relinearisation with damping off.
    prior_weaken_iters: iterations over which priors decay to 1/100 of their
        initial strength (0 keeps priors at full strength).
    message_tol: optional early stop when the largest message change falls
        below this (useful for pure linear runs); None disables it.
    """

    beta: float | None = 0.01
    relin_cooldown: int = 10
    damping: float = 0.4
    undamped_window: int = 8
    prior_weaken_iters: int = 10
    max_iters: int = 500
    are_target: float = 1.5
    message_tol: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.damping < 1.0:
            raise ValueError(f"damping must be in [0, 1), got {self.damping}")
        if self.beta is not None and not self.beta > 0:
            raise ValueError(f"beta must be positive or None, got {self.beta}")
        for name in ("relin_cooldown", "undamped_window", "prior_weaken_iters", "max_iters"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class IterationReport:
    iteration: int
    are: float
    energy: float
    n_relinearized: int
    n_relin_aborted: int
    n_singular_messages: int
    n_frozen_states: int
    max_message_delta: float
    prior_scale: float


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    reason: str  # "are_target" | "message_tol" | "max_iters"
    final_are: float
    kf_states: np.ndarray
    lm_states: np.ndarray
    are_trace: np.ndarray
    energy_trace: np.ndarray
    reports: list = field(default_factory=list)


def pairwise_message(
    factor: InfoGaussian,
    target_dims,
    incoming: InfoGaussian,
    prev: InfoGaussian | None = None,
    damping: float = 0.0,
) -> InfoGaussian:
    """One factor-to-variable message, for factors of any block structure.

    Folds `incoming` (the other side's variable-to-factor input) into the
    eliminated block, Schur-marginalises onto `target_dims`, then damps the
    information vector against `prev`: eta <- (1-d) eta_new + d eta_prev.
    The information matrix is never damped.  This scalar path is the
    reference the batched message phase is tested against.
    """
    target = np.atleast_1d(np.asarray(target_dims, dtype=int)) \
        if not isinstance(target_dims, slice) else np.arange(factor.dim)[target_dims]
    elim = np.setdiff1d(np.arange(factor.dim), target)
    if incoming.dim != elim.size:
        raise ValueError(
            f"incoming message dim {incoming.dim} != eliminated block size {elim.size}"
        )
    lam = factor.lam.copy()
    eta = factor.eta.copy()
    lam[np.ix_(elim, elim)] += incoming.lam
    eta[elim] += incoming.eta
    marg = marginalize_onto(InfoGaussian(eta, lam), target)
    if damping > 0.0 and prev is not None:
        return InfoGaussian((1.0 - damping) * marg.eta + damping * prev.eta, marg.lam)
    return marg


def _update_prior_scales(graph: FactorGraph, schedule: ScheduleParams, t: int) -> float:
    window = schedule.prior_weaken_iters
    if window <= 0:
        return 1.0
    for birth, scale in ((graph.kf_birth, graph.kf_prior_scale), (graph.lm_birth, graph.lm_prior_scale)):
        scale[:] = PRIOR_TARGET_RATIO ** (np.minimum(t - birth, window) / window)
    return float(PRIOR_TARGET_RATIO ** (min(t, window) / window))


def _phase_relinearize(graph: FactorGraph, schedule: ScheduleParams, t: int):
    nf = graph.n_measurement_factors
    if nf == 0:
        return 0, 0
    relinearized = np.zeros(nf, dtype=bool)
    aborted = 0
    if schedule.beta is not None:
        stacked = np.concatenate([graph.kf_state[graph.f_kf], graph.lm_state[graph.f_lm]], axis=1)
        dist = np.linalg.norm(stacked - graph.f_lin, axis=1)
        idx = np.flatnonzero(
            (dist > schedule.beta) & (graph.f_iters_since_relin >= schedule.relin_cooldown)
        )
        if idx.size:
            ok = graph.linearize_factors(idx, stacked[idx])
            relinearized[idx[ok]] = True
            aborted = int((~ok).sum())
            if aborted:
                graph.notes["relin_behind_camera"] += aborted
    graph.f_iters_since_relin = np.where(relinearized, 0, graph.f_iters_since_relin + 1)
    graph.f_last_relin = np.where(relinearized, t, graph.f_last_relin)
    return int(relinearized.sum()), aborted


def _inputs(belief_eta, belief_lam, ids, msg_eta, msg_lam, first_round):
    """Variable-to-factor inputs: the belief of each factor's variable minus
    the factor's own last message to it, zero in the factor's first round."""
    in_eta = belief_eta[ids]
    in_eta -= msg_eta
    in_lam = belief_lam[ids]
    in_lam -= msg_lam
    if first_round.any():
        in_eta[first_round] = 0.0
        in_lam[first_round] = 0.0
    return in_eta, in_lam


def _side_messages(graph: FactorGraph, keep: slice, elim: slice, in_eta, in_lam):
    """New undamped messages onto the `keep` block, conditioned on the
    inputs to the `elim` block."""
    lam = graph.f_lam
    eta = graph.f_eta
    cond = lam[:, elim, elim] + in_lam
    cond = 0.5 * (cond + np.swapaxes(cond, 1, 2))
    rhs = np.concatenate([lam[:, elim, keep], (eta[:, elim] + in_eta)[:, :, None]], axis=2)
    solved, ok = solve_spd_masked(cond, rhs)
    cross = lam[:, keep, elim]
    lam_new = lam[:, keep, keep] - cross @ solved[:, :, :-1]
    lam_new = 0.5 * (lam_new + np.swapaxes(lam_new, 1, 2))
    eta_new = eta[:, keep] - np.einsum("nij,nj->ni", cross, solved[:, :, -1])
    return eta_new, lam_new, ok


def _phase_messages(graph: FactorGraph, schedule: ScheduleParams, t: int):
    if graph.n_measurement_factors == 0:
        return 0, 0.0
    damp = np.where(
        (t - graph.f_last_relin) < schedule.undamped_window, 0.0, schedule.damping
    ).astype(graph.dtype)[:, None]
    first_round = graph.f_birth == t
    kf_sl, lm_sl = slice(0, KF_DIM), slice(KF_DIM, 9)
    kf_msg = (graph.f_msg_kf_eta, graph.f_msg_kf_lam)
    lm_msg = (graph.f_msg_lm_eta, graph.f_msg_lm_lam)
    n_singular = 0
    max_delta = 0.0
    out = []
    for keep, elim, (prev_eta, prev_lam), elim_inputs in (
        (kf_sl, lm_sl, kf_msg, (graph.lm_belief_eta, graph.lm_belief_lam, graph.f_lm, *lm_msg)),
        (lm_sl, kf_sl, lm_msg, (graph.kf_belief_eta, graph.kf_belief_lam, graph.f_kf, *kf_msg)),
    ):
        in_eta, in_lam = _inputs(*elim_inputs, first_round)
        eta_new, lam_new, ok = _side_messages(graph, keep, elim, in_eta, in_lam)
        eta_out = (1.0 - damp) * eta_new + damp * prev_eta
        eta_out = np.where(ok[:, None], eta_out, prev_eta)
        lam_out = np.where(ok[:, None, None], lam_new, prev_lam)
        out.append((eta_out, lam_out))
        n_singular += int((~ok).sum())
        max_delta = max(
            max_delta,
            float(np.max(np.abs(eta_out - prev_eta))),
            float(np.max(np.abs(lam_out - prev_lam))),
        )
    (graph.f_msg_kf_eta, graph.f_msg_kf_lam), (graph.f_msg_lm_eta, graph.f_msg_lm_lam) = out
    if n_singular:
        graph.notes["singular_message"] += n_singular
    return n_singular, max_delta


def _phase_beliefs(graph: FactorGraph) -> int:
    frozen = 0
    for kind in ("keyframe", "landmark"):
        eta, prior_diag = graph.prior_information(kind)
        n, dim = eta.shape
        lam = np.zeros((n, dim, dim), eta.dtype)
        rng = np.arange(dim)
        lam[:, rng, rng] = prior_diag
        if kind == "keyframe":
            np.add.at(eta, graph.f_kf, graph.f_msg_kf_eta)
            np.add.at(lam, graph.f_kf, graph.f_msg_kf_lam)
            states = graph.kf_state
        else:
            np.add.at(eta, graph.f_lm, graph.f_msg_lm_eta)
            np.add.at(lam, graph.f_lm, graph.f_msg_lm_lam)
            states = graph.lm_state
        mean, ok = solve_spd_masked(lam, eta[:, :, None])
        mean = mean[:, :, 0]
        if kind == "keyframe":
            mean[:, :3] = canonicalize_axis_angle(mean[:, :3])
        new_states = np.where(ok[:, None], mean, states)
        frozen += int((~ok).sum())
        if kind == "keyframe":
            graph.kf_belief_eta, graph.kf_belief_lam, graph.kf_state = eta, lam, new_states
        else:
            graph.lm_belief_eta, graph.lm_belief_lam, graph.lm_state = eta, lam, new_states
    if frozen:
        graph.notes["frozen_state"] += frozen
    return frozen


def iterate(graph: FactorGraph, schedule: ScheduleParams | None = None) -> IterationReport:
    """One bulk-synchronous GBP round (phases A-C); advances the prior
    weakening and the iteration counter and reports per-phase diagnostics."""
    schedule = schedule if schedule is not None else ScheduleParams()
    t = graph.iteration
    prior_scale = _update_prior_scales(graph, schedule, t)
    n_relin, n_aborted = _phase_relinearize(graph, schedule, t)
    n_singular, max_delta = _phase_messages(graph, schedule, t)
    n_frozen = _phase_beliefs(graph)
    graph.iteration = t + 1
    return IterationReport(
        iteration=graph.iteration,
        are=graph.average_reprojection_error(),
        energy=graph.energy(),
        n_relinearized=n_relin,
        n_relin_aborted=n_aborted,
        n_singular_messages=n_singular,
        n_frozen_states=n_frozen,
        max_message_delta=max_delta,
        prior_scale=prior_scale,
    )


def run(graph: FactorGraph, schedule: ScheduleParams | None = None, n: int = 1):
    """`n` iterations with no stopping checks; returns the reports."""
    return [iterate(graph, schedule) for _ in range(n)]


def solve(
    graph: FactorGraph,
    schedule: ScheduleParams | None = None,
    callback=None,
) -> SolveReport:
    """Iterate until the average reprojection error drops below the target
    (checked every iteration, including before the first), the optional
    message-delta early stop fires, or max_iters is reached.

    Non-convergence is reported via the flag, never raised.
    """
    schedule = schedule if schedule is not None else ScheduleParams()
    are = graph.average_reprojection_error()
    are_trace = [are]
    energy_trace = [graph.energy()]
    reports: list[IterationReport] = []
    reason = "max_iters"
    if are < schedule.are_target:
        reason = "are_target"
    else:
        for _ in range(schedule.max_iters):
            report = iterate(graph, schedule)
            reports.append(report)
            are_trace.append(report.are)
            energy_trace.append(report.energy)
            if callback is not None:
                callback(graph, report)
            if report.are < schedule.are_target:
                reason = "are_target"
                break
            # skip the delta check on the first round: before priors have
            # propagated, every message is singular-suppressed and the
            # delta is trivially zero
            if (
                schedule.message_tol is not None
                and len(reports) >= 2
                and report.max_message_delta < schedule.message_tol
            ):
                reason = "message_tol"
                break
    return SolveReport(
        converged=are_trace[-1] < schedule.are_target,
        iterations=len(reports),
        reason=reason,
        final_are=are_trace[-1],
        kf_states=graph.kf_state.copy(),
        lm_states=graph.lm_state.copy(),
        are_trace=np.array(are_trace),
        energy_trace=np.array(energy_trace),
        reports=reports,
    )
