"""Synchronous GBP iteration over the bundle-adjustment graph.

One call to `iterate` runs exactly one bulk-synchronous round of three
barrier-separated phases.  Phases B and C loop over the variable kinds of
`factor_graph.KINDS`, which give each side's arrays, dimension and columns
of the factor's 9-vector:

  A. a factor relinearises at the stacked adjacent belief means when
     `FactorGraph.iters_since_relin` is at least `relin_cooldown` c (so c
     rounds after its birth at the earliest and then every c + 1 rounds)
     and the distance from those means to its linearisation point exceeds
     beta.  The cooldown is tested first, and the distance only for the
     factors past it.  Phase A writes only `f_last_relin`;
  B. a factor joins one variable of each kind, and its message to one side
     eliminates the other.  It derives its input from the eliminated side,
     that variable's belief minus the factor's own last message to it,
     conditions its information on it and marginalises onto the kept side
     via Schur complement.  The factor's information is the rank-2 w J'J of
     its 2x9 Jacobian, so the kernel works on J: per side it forms the lower
     triangle of the conditioned block from J's two rows, factors it and
     forward-substitutes three right-hand columns, whose products give a
     2x2 inner matrix (see `_side_messages`); no back substitution is
     needed.  The kernel works on component-major views of the graph's
     factor-last arrays, so each step is one vector operation over a block
     of `BLOCK_ROWS` factors, and it overwrites the messages in place.
     Where the conditioned block is not positive definite the previous
     message is kept.  In the round a factor was added in its input is zero,
     which leaves the block at rank 2 or less, so both its messages are
     singular: they are masked by construction and stay zero.  The
     information vector is damped against the previously sent message
     except inside the undamped window after a relinearisation;
  C. every variable's belief is rebuilt in place as prior + sum of incoming
     messages (summed in ascending factor-id order by `scatter_sum`) and its
     state moves to the belief mean when the belief is invertible; keyframe
     rotations are then wrapped to angle-axis magnitudes in [0, pi].

`iterate` then evaluates the ARE and the energy, and counts the
measurements behind their camera, from one shared projection, and reports
the wall time of each phase in `IterationReport.phase_ms`.

Within a phase all reads target the pre-phase snapshot, so results do not
depend on intra-phase execution order: phase B reads both sides' inputs
and messages of a block before it writes either.  Every phase keeps the
graph's float dtype.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .batch_linalg import (
    BLOCK_ROWS,
    component_major,
    forward_solve_masked,
    scatter_sum,
    solve_spd_masked,
)
from .camera import DEPTH_EPSILON, canonicalize_axis_angle
from .factor_graph import KEYFRAME, KINDS, PRIOR_TARGET_RATIO, FactorGraph
from .info_gaussian import InfoGaussian, marginalize_onto

__all__ = [
    "ScheduleParams",
    "IterationReport",
    "SolveReport",
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


PHASES = ("relinearize", "messages", "beliefs", "evaluate")


@dataclass
class IterationReport:
    """Diagnostics of one round; every count is of this round alone.
    `n_behind_camera` counts the measurements behind their camera after the
    round, the rows of the ARE's sentinel and of the energy's residual at the
    linearisation point.  `phase_ms` holds the wall milliseconds of each of
    `PHASES`: A (with the prior weakening), B, C, and the ARE and energy
    evaluation."""

    iteration: int
    are: float
    energy: float
    n_relinearized: int
    n_relin_aborted: int
    n_singular_messages: int
    n_frozen_states: int
    n_behind_camera: int
    max_message_delta: float
    prior_scale: float
    phase_ms: dict = field(default_factory=dict)


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
    """Set every prior's strength for round `t`, 1 at its variable's birth
    down to PRIOR_TARGET_RATIO `prior_weaken_iters` rounds later (a window of
    0 keeps 1); returns the scale of a variable born in round 0."""
    window = schedule.prior_weaken_iters
    for kind in KINDS:
        age = np.minimum(t - graph.var(kind, "birth"), window)
        graph.var(kind, "prior_scale")[:] = PRIOR_TARGET_RATIO ** (age / max(window, 1))
    return float(PRIOR_TARGET_RATIO ** (min(t, window) / max(window, 1)))


def _phase_relinearize(graph: FactorGraph, schedule: ScheduleParams, t: int):
    if graph.n_measurement_factors == 0 or schedule.beta is None:
        return 0, 0
    idx = np.flatnonzero(graph.iters_since_relin() >= schedule.relin_cooldown)
    stacked = np.concatenate(graph.adjacent_states(idx), axis=1)
    idx = idx[np.linalg.norm(stacked - graph.f_lin[idx], axis=1) > schedule.beta]
    if idx.size == 0:
        return 0, 0
    ok = graph.linearize_factors(idx)
    graph.f_last_relin[idx[ok]] = t
    return int(ok.sum()), int((~ok).sum())


def _inputs(beliefs, messages, ids, rows):
    """Variable-to-factor inputs (eta, lam) of the factors in `rows`, all
    component-major ((d, B) and (d, d, B)): the belief of each factor's
    variable `ids` minus the factor's own last message to it."""
    return [np.take(b, ids[rows], axis=-1) - m[..., rows] for b, m in zip(beliefs, messages)]


def _side_messages(jac, w, target, keep: slice, elim: slice, in_eta, in_lam):
    """New undamped messages onto the `keep` block, conditioned on the
    inputs to the `elim` block.

    Everything is component-major: `jac` (2, 9, F), `target` (2, F), `w`
    (F,), the inputs as from `_inputs`.  The factor's information is
    (w J't, w J'J).  With E the eliminated and K the kept
    columns of J, L L' = cond = w J_E'J_E + input_lam, and
    Y = L^-1 [J_E' | w J_E't + input_eta], the product G = Y[:, :2]'Y is
    J_E cond^-1 [J_E' | w J_E't + input_eta].  The Schur complement onto K
    is J_K' S J_K with S = w I - w^2 G[:, :2], and its information vector is
    w J_K' (t - G[:, 2]).  Returns eta (dK, F), lam (dK, dK, F) with lam
    exactly symmetric, and the solve's ok mask.
    """
    je, jk = jac[:, elim], jac[:, keep]
    d, n = je.shape[1:]
    # the lower triangle only: the factorisation reads nothing above it
    cond = np.empty((d, d, n), jac.dtype)
    for i in range(d):
        row = cond[i, : i + 1]
        np.multiply(je[0, i], je[0, : i + 1], out=row)
        row += je[1, i] * je[1, : i + 1]
        row *= w
        row += in_lam[i, : i + 1]
    rhs = np.empty((d, 3, n), jac.dtype)
    rhs[:, 0], rhs[:, 1] = je[0], je[1]
    rhs[:, 2] = w * (je[0] * target[0] + je[1] * target[1]) + in_eta
    y, ok = forward_solve_masked(cond.transpose(2, 0, 1), rhs.transpose(2, 0, 1))
    y = y.transpose(1, 2, 0)
    g = y[0, :2, None] * y[0]  # G, (2, 3, F), with G[0, 1] == G[1, 0]
    for i in range(1, d):
        g += y[i, :2, None] * y[i]
    w2 = w * w
    s00 = w - w2 * g[0, 0]
    s11 = w - w2 * g[1, 1]
    s01 = -w2 * g[0, 1]
    a, b = jk
    p, q = s00 * a + s01 * b, s01 * a + s11 * b  # the rows of S J_K
    dk = a.shape[0]
    lam = np.empty((dk, dk, n), jac.dtype)
    for i in range(dk):
        row = lam[i, : i + 1]
        np.multiply(a[i], p[: i + 1], out=row)
        row += b[i] * q[: i + 1]
        lam[:i, i] = row[:i]
    eta = w * (a * (target[0] - g[0, 2]) + b * (target[1] - g[1, 2]))
    return eta, lam, ok


def _phase_messages(graph: FactorGraph, schedule: ScheduleParams, t: int):
    n = graph.n_measurement_factors
    if n == 0:
        return 0, 0.0
    damp = np.where(
        (t - graph.f_last_relin) < schedule.undamped_window, 0.0, schedule.damping
    ).astype(graph.dtype)
    first_round = graph.f_birth == t
    w = graph.factor_precision()
    # component-major views of the graph's arrays: per kind its beliefs and
    # the messages to it, which are overwritten in place
    jac, target = component_major(graph.f_jac), component_major(graph.f_target)
    beliefs = {
        kind: [component_major(graph.var(kind, name)) for name in ("belief_eta", "belief_lam")]
        for kind in KINDS
    }
    messages = {kind: [component_major(m) for m in graph.messages(kind)] for kind in KINDS}
    n_singular = 0
    max_delta = 0.0
    # blocks of BLOCK_ROWS factors; a factor's messages do not depend on
    # the block it falls in
    for start in range(0, n, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        # both sides' inputs, read before either side's messages are written
        inputs = {
            kind: _inputs(beliefs[kind], messages[kind], graph.adjacent(kind), rows)
            for kind in KINDS
        }
        # a factor joins one variable of each kind: the message to one side
        # eliminates the other
        for keep, elim in zip(KINDS, KINDS[::-1]):
            eta, lam, ok = _side_messages(
                jac[..., rows], w[rows], target[..., rows], keep.cols, elim.cols, *inputs[elim]
            )
            prev_eta, prev_lam = (m[..., rows] for m in messages[keep])
            d = damp[rows]
            eta = (1.0 - d) * eta + d * prev_eta
            # a factor's input is zero in its first round, which leaves cond
            # at rank 2 or less: those messages are singular whatever the
            # inputs computed above
            singular = ~ok | first_round[rows]
            np.copyto(eta, prev_eta, where=singular)
            np.copyto(lam, prev_lam, where=singular)
            n_singular += int(singular.sum())
            max_delta = max(max_delta, np.abs(eta - prev_eta).max(), np.abs(lam - prev_lam).max())
            prev_eta[...], prev_lam[...] = eta, lam
    return n_singular, float(max_delta)


def _phase_beliefs(graph: FactorGraph) -> int:
    frozen = 0
    for kind in KINDS:
        eta, lam, state = (graph.var(kind, name) for name in ("belief_eta", "belief_lam", "state"))
        prior_eta, prior_diag = graph.prior_information(kind)
        n, dim = eta.shape
        ids = graph.adjacent(kind)
        msg_eta, msg_lam = graph.messages(kind)
        np.add(prior_eta, scatter_sum(ids, msg_eta, n), out=eta)
        lam[...] = scatter_sum(ids, msg_lam, n)
        rng = np.arange(dim)
        lam[:, rng, rng] += prior_diag
        mean, ok = solve_spd_masked(lam, eta[:, :, None])
        mean = mean[:, :, 0]
        if kind is KEYFRAME:
            mean[:, :3] = canonicalize_axis_angle(mean[:, :3])
        np.copyto(state, mean, where=ok[:, None])
        frozen += int((~ok).sum())
    return frozen


def iterate(graph: FactorGraph, schedule: ScheduleParams | None = None) -> IterationReport:
    """One bulk-synchronous GBP round (phases A-C); advances the prior
    weakening and the iteration counter and reports per-phase diagnostics."""
    schedule = schedule if schedule is not None else ScheduleParams()
    t = graph.iteration
    clock = [time.perf_counter()]
    prior_scale = _update_prior_scales(graph, schedule, t)
    n_relin, n_aborted = _phase_relinearize(graph, schedule, t)
    clock.append(time.perf_counter())
    n_singular, max_delta = _phase_messages(graph, schedule, t)
    clock.append(time.perf_counter())
    n_frozen = _phase_beliefs(graph)
    graph.iteration = t + 1
    clock.append(time.perf_counter())
    with graph.shared_projection():
        are = graph.average_reprojection_error()
        energy = graph.energy()
        n_behind = int(np.count_nonzero(graph.residuals()[1] <= DEPTH_EPSILON))
    clock.append(time.perf_counter())
    return IterationReport(
        iteration=graph.iteration,
        are=are,
        energy=energy,
        n_relinearized=n_relin,
        n_relin_aborted=n_aborted,
        n_singular_messages=n_singular,
        n_frozen_states=n_frozen,
        n_behind_camera=n_behind,
        max_message_delta=max_delta,
        prior_scale=prior_scale,
        phase_ms={name: 1e3 * (b - a) for name, a, b in zip(PHASES, clock, clock[1:])},
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
