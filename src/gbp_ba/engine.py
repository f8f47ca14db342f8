"""Synchronous GBP iteration over the bundle-adjustment graph.

One call to `iterate` runs exactly one bulk-synchronous round of three
barrier-separated phases.  A and B walk the round's one `batch_linalg._plan`
together, as the graph's projections do: stretches of about `BLOCK_ROWS`
rows, each tiled by dense keyframe runs' pieces and the rows between them,
each taking A and then B.  C walks the same plan after them.  B and C loop
over the variable kinds of `factor_graph.KINDS`, which give each side's
arrays, dimension and columns of the factor's 9-vector:

  A. a factor relinearises at the stacked adjacent belief means when
     `FactorGraph.iters_since_relin` is at least `relin_cooldown` c (so c
     rounds after its birth at the earliest and then every c + 1 rounds)
     and the distance from those means to its linearisation point exceeds
     beta, tested only past the cooldown, from component-major columns of
     the states and `f_lin`.  A reads the states and the stretch's rows,
     writes only the relinearised rows' linearisation and `f_last_relin`,
     and keeps their `f_jac` of before the round for B of the stretch.  The
     factors born this round lie outside the plan and take A after the walk;
  B. a factor joins one variable of each kind, and its message to one side
     K eliminates the other side E: it conditions its information on its
     input from E, that variable's belief minus the factor's own last
     message to it, and marginalises onto K.  The factor's information
     w J'J and every message are rank 2, so with cond the conditioned E
     block the message is stored in measurement space as S = w I - w^2
     J_E cond^-1 J_E' and v = w (t - J_E cond^-1 (w J_E't + input eta)),
     (J_K'v, J_K'S J_K) in information form.  cond is E's belief B plus
     rank-2 terms, so by the Woodbury identity (Hager, "Updating the
     inverse of a matrix", 1989) both come in closed form, over the three
     entries of symmetric 2x2 matrices, from g = J_E B^-1 J_E' and p = J_E
     B^-1 eta with the B^-1 of phase C: one fold, g' = (I + g M)^-1 g and
     u = (I + g M)^-1 (p + g c) with M = w I - S_sent and c = w t - v_sent,
     where the last message was sent with the current J.  Every stored
     message was, except on the stale rows, those relinearised this round,
     whose last messages were sent with the old J_b that A kept: their
     input first leaves the old message out of g and p, by a Woodbury step
     through J_b, and then every row takes the one fold, a stale row's
     S_sent and v_sent counted as zero.  Where cond is not positive
     definite, phase C could not invert B or a stale row's input is not
     positive definite, the previous message is kept, or restarts at zero
     on a stale row, as a new factor's.  In its
     first round a factor's zero input would leave cond singular, so it
     keeps its zero messages and is counted singular without being solved:
     factors are only appended, at the current iteration, so phases B and C
     run over the rows before those born this round.  v is damped against
     the previous v outside the undamped window after a relinearisation,
     which holds at least that round, so both were sent with the current
     J_K.  B reads the last round's beliefs and the stretch's rows, and
     both sides' inputs of the stretch before it writes either side, in
     place in `f_msg`, each step one vector operation.  Where E is the
     keyframe, a piece's B^-1 J_E' is one matrix product with E's own B^-1,
     and J_E mu_E one with mu_E = B^-1 eta_E, formed once per variable;
     other rows, and all where E is the landmark, gather B^-1 and mu.  Every
     other sum is taken row by row in a fixed order, so no message depends
     on BLOCK_ROWS;
  C. every variable's belief is rebuilt in place as prior + sum of incoming
     messages, a part at a time in row order from S, v and J widened to
     float64, and one masked solve gives its mean and B^-1.  A keyframe's
     piece adds its rows' messages in two matrix products, A P' + B Q' with
     A, B the rows of J_K' and P, Q those of (S J_K)', and A v_0 + B v_1;
     the other rows, the landmarks' all, are expanded and summed in
     ascending factor-id order.  The state moves to the mean when B is
     invertible; keyframe rotations are then wrapped to angle-axis
     magnitudes in [0, pi].

`iterate` then takes the ARE, the energy and the count of measurements
behind their camera from one `FactorGraph.evaluate()`, and reports the wall
time of each phase in `IterationReport.phase_ms`.  Where that record counts
measurements behind their camera, a chirality guard follows, the barrier
that `dense_oracle.lm_solve` puts on its steps (Hartley, "Chirality", IJCV
1998): the rows behind their camera now that were in front of it at the
states before the round, found by projecting only those rows at those
states, keep their landmarks' states of before the round, and where such a
row is still behind its camera at the next evaluation, its keyframe's too;
the round's record is that of the last evaluation.  A row already behind its
camera before the round is left to the solver, so that a landmark built
behind a camera can still move.

Within a phase all reads target the pre-phase snapshot, so results do not
depend on intra-phase execution order: phase B reads both sides' inputs
and messages of a stretch of rows before it writes either, and the walk
gives A over every row and then B, as the states and beliefs that a
stretch reads change only in C.  Every phase keeps the graph's float dtype.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .batch_linalg import _consecutive, _contract, _diagonal, _plan, component_major, solve_spd_masked
from .camera import DEPTH_EPSILON, canonicalize_axis_angle, project_many
from .factor_graph import FACTOR_DIM, KEYFRAME, KINDS, LANDMARK, Evaluation, FactorGraph

__all__ = [
    "ScheduleParams",
    "IterationReport",
    "SolveReport",
    "iterate",
    "run",
    "solve",
]

# the lower triangle of each kind's belief matrix, as phase C sums it
TRIL = {kind.dim: np.tril_indices(kind.dim) for kind in KINDS}


@dataclass
class ScheduleParams:
    """Relinearisation, damping and prior-weakening schedule.

    beta: relinearisation distance threshold (None disables relinearisation).
    relin_cooldown: minimum iterations between relinearisations of a factor.
    damping: convex blend factor d applied to message information vectors.
    undamped_window: iterations after a relinearisation with damping off,
        at least 1 (the relinearisation round) while beta is set.
    prior_weaken_iters: iterations over which priors decay to `prior_floor`
        of their initial strength (0 keeps priors at full strength).
    prior_floor: the fraction of its initial strength a prior weakens to and
        stays at, in (0, 1]; `dense_oracle.lm_solve` minimises the objective
        with every prior at this strength.
    message_tol: optional early stop when the largest change of a stored
        message entry (of S or v) falls below this (pure linear runs),
        checked after a round that sent every factor's messages and did not
        keep them all as singular, so not after the first round that follows
        `build` or `add_measurements`; None disables it.
    """

    beta: float | None = 0.01
    relin_cooldown: int = 10
    damping: float = 0.4
    undamped_window: int = 8
    prior_weaken_iters: int = 10
    prior_floor: float = 5e-3
    max_iters: int = 500
    are_target: float = 1.5
    message_tol: float | None = None

    def __post_init__(self):
        for name in ("beta", "damping", "prior_floor", "are_target", "message_tol"):
            value = getattr(self, name)
            if value is None and name in ("beta", "message_tol"):  # None disables them
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not 0.0 <= self.damping < 1.0:
            raise ValueError(f"damping must be in [0, 1), got {self.damping}")
        if self.beta is not None and not self.beta > 0:
            raise ValueError(f"beta must be positive or None, got {self.beta}")
        if not 0.0 < self.prior_floor <= 1.0:
            raise ValueError(f"prior_floor must be in (0, 1], got {self.prior_floor}")
        for name in ("relin_cooldown", "undamped_window", "prior_weaken_iters", "max_iters"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
                raise ValueError(f"{name} must be a whole number >= 0, got {value!r}")
        if np.isnan(self.are_target):
            raise ValueError("are_target must not be NaN")
        if self.message_tol is not None and not self.message_tol > 0:
            raise ValueError(f"message_tol must be positive or None, got {self.message_tol}")
        if self.beta is not None and self.undamped_window < 1:  # see phase B
            raise ValueError("undamped_window must be >= 1 while beta is set")


PHASES = ("relinearize", "messages", "beliefs", "evaluate")


@dataclass
class IterationReport:
    """Diagnostics of one round; every count is of this round alone.
    `n_behind_camera` counts the measurements behind their camera after the
    round, the rows of the ARE's sentinel and of the energy's residual at the
    linearisation point.  `n_frozen_states` counts the variables whose state
    the round left where it was against a move of their belief's mean: where
    phase C could not invert the belief, and where the chirality guard kept
    it (see the module docstring).  `phase_ms` holds the wall milliseconds
    of each of `PHASES`: A (with the prior weakening), B, C, and the ARE and
    energy evaluation, the guard's included; A and B are each summed over
    their steps of the walk."""

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


def _update_prior_scales(graph: FactorGraph, schedule: ScheduleParams, t: int) -> float:
    """Set every prior's strength for round `t`, 1 at its variable's birth
    down to `prior_floor` `prior_weaken_iters` rounds later (a window of 0
    keeps 1); returns the scale of a variable born in round 0."""
    window, floor = schedule.prior_weaken_iters, schedule.prior_floor
    for kind in KINDS:
        age = np.minimum(t - graph.var(kind, "birth"), window)
        np.power(floor, age / max(window, 1), out=graph.var(kind, "prior_scale"))
    return float(floor ** (min(t, window) / max(window, 1)))


def _phase_relinearize(graph: FactorGraph, schedule: ScheduleParams, t: int, rows: slice):
    """Relinearises the factors due among `rows`; returns the counts of those
    relinearised and aborted, the rows relinearised, ascending from
    `rows.start`, and the J their messages were sent with (2, 9, m)."""
    due = rows.start + (graph.iters_since_relin(rows) >= schedule.relin_cooldown).nonzero()[0]
    jac = component_major(graph.f_jac)
    if schedule.beta is None or due.size == 0:
        return 0, 0, due[:0], jac[..., :0]
    # the distance from the adjacent states to lin, a component at a time,
    # through views where the rows due are consecutive
    at, lin = _consecutive(due), component_major(graph.f_lin)
    lin_due = lin[:, at] if isinstance(at, slice) else lin.take(due, axis=1)
    squares = np.empty((FACTOR_DIM, due.size), graph.dtype)
    for kind in KINDS:
        states = component_major(graph.var(kind, "state")).take(graph.adjacent(kind)[at], axis=1)
        np.subtract(states, lin_due[kind.cols], out=squares[kind.cols])
    squares *= squares
    due = due[squares.sum(axis=0) > schedule.beta**2]
    at = _consecutive(due)
    jac_sent = jac[..., at].copy() if isinstance(at, slice) else jac.take(due, axis=-1)
    ok = graph.linearize_factors(due) if due.size else np.zeros(0, dtype=bool)
    graph.f_last_relin[due[ok]] = t
    if not ok.all():  # an aborted row keeps its J; the rows stay the last, contiguous axis
        due, jac_sent = due[ok], jac_sent.take(ok.nonzero()[0], axis=-1)
    return int(ok.sum()), int((~ok).sum()), due - rows.start, jac_sent


# Phase B forms the messages of a stretch of factor rows to both sides at
# once: an array (entries, 2, n) holds per entry one row of n factors for
# each receiving side, in the order of KINDS.  A symmetric 2x2 matrix has
# the entries 00, 01 and 11, a vector two and any other 2x2 matrix 2 x 2.
# The messages themselves, S's entries and v, are the graph's `f_msg` in
# this layout, (5, 2, F) component-major, so a stretch reads its stored
# messages as a view and writes the new ones with one assignment.

def _sym_mv(a, x):
    out = a[:2] * x[0]
    out += a[1:] * x[1]
    return out


def _inverse_sum(a, b):
    """(I + A B)^-1 A, that is (A^-1 + B)^-1, of symmetric A and B in closed
    form, (A + det(A) adj(B)) / det(I + A B), and the mask of the rows where
    I + A B has a positive trace and determinant: there A^-1 + B is positive
    definite for a positive-definite A."""
    det_a, det_b, trace, cross = a[0] * a[2], b[0] * b[2], a[0] * b[0], a[1] * b[1]
    det_a -= a[1] * a[1]
    det_b -= b[1] * b[1]
    trace += a[2] * b[2]
    cross *= 2
    trace += cross
    det = np.multiply(det_a, det_b, out=det_b)
    det += trace
    det += 1
    ok = det > 0
    ok &= trace > -2
    del trace, cross  # freed before `out` is allocated
    if not ok.all():
        det[~ok] = 1
    out = det_a * b[::-1]  # det(A) adj(B), entry 01 negated below
    np.negative(out[1], out=out[1])
    out += a
    out *= np.reciprocal(det, out=det)
    return out, ok


def _fold_in(g, p, m, c):
    """Add (J' c, J' M J) to a positive-definite information form (eta, B)
    known by g = J B^-1 J' and p = J B^-1 eta: by Woodbury the new g is
    (I + g M)^-1 g and the new p (I + g M)^-1 (p + g c) = q - g' M q, q =
    p + g c.  Also returns where the sum is positive definite."""
    g_new, ok = _inverse_sum(g, m)
    q = _sym_mv(g, c)
    q += p
    u = _sym_mv(g_new, _sym_mv(m, q))
    np.subtract(q, u, out=u)
    return g_new, u, ok


def _gram(x, y, out):
    """x_a . y_b into the rows of `out` for (a, b) = 00, 01, 11, of stacks
    (2, d, n) of two d-vectors."""
    _contract("dn,adn->an", x[0], y, out[:2])
    _contract("dn,dn->n", x[1], y[1], out[2])


def _cov_jac(jac, ids, belief, parts, proj):
    """B^-1 J' of each row (2, d, n), and J mu into `proj` (2, n), for its J
    (2, d, n) and the B^-1 and mu of its variable `ids`, from the kind's
    component-major (B^-1 (d, d, variables), mu (d, variables)).  Of the
    `parts` (a, b, dense) that tile the rows, a dense one, rows of one
    variable, takes one matrix product with its B^-1 and its mu; the others
    gather them and sum in ascending order."""
    cov, mu = belief
    cov_jac = np.empty(jac.shape, jac.dtype)
    for a, b, dense in parts:
        probe = jac[..., a:b]
        if dense:
            cov_jac[..., a:b] = np.ascontiguousarray(cov[..., ids[a]]) @ probe
            proj[:, a:b] = mu[:, ids[a]] @ probe
        else:
            cov_jac[..., a:b] = _contract("ijn,ajn->ain", cov.take(ids[a:b], axis=-1), probe)
            proj[:, a:b] = _contract("ajn,jn->an", probe, mu.take(ids[a:b], axis=-1))
    return cov_jac


def _side_terms(ids, parts, jac, jac_sent, belief, out, stale_out, stale, stale_parts):
    """The terms of E's input that the messages of factor rows need on the
    side that eliminates E, written into `out`: g = J B^-1 J' (3, n), p = J
    B^-1 eta (2, n) and where the input is singular.  `ids` are the rows'
    E, `parts` (see `_cov_jac`) tile the rows, `jac` is J_E (2, d, n) and
    `belief` E's kind's (B^-1, mu = B^-1 eta), component-major.  The input
    is E's belief (eta, B), singular where B^-1 is zero, as where phase C
    could not invert B.  On the ascending `stale` rows, tiled by
    `stale_parts`, the last message was sent with the old J `jac_sent` J_b,
    which `_leave_out` takes out of the input with the terms written into
    `stale_out`: g_ab = J B^-1 J_b' (2, 2, m), g_bb = J_b B^-1 J_b' (3, m)
    and p_b = J_b mu (2, m)."""
    g, p, singular = out
    _gram(jac, _cov_jac(jac, ids, belief, parts, p), g)
    np.equal(belief[0][0, 0].take(ids), 0, out=singular)
    if stale.size:
        g_ab, g_bb, p_b = stale_out
        at = _consecutive(stale)  # a view where consecutive, else a take, which keeps the rows the last axis
        jac_stale = jac[..., at] if isinstance(at, slice) else jac.take(stale, axis=-1)
        cov_jac_b = _cov_jac(jac_sent, ids[at], belief, stale_parts, p_b)
        _contract("adm,bdm->abm", jac_stale, cov_jac_b, out=g_ab)  # every pair
        _gram(jac_sent, cov_jac_b, g_bb)


def _leave_out(out, at, sent, g_ab, g_bb, p_b):
    """Take the last messages `sent` (5, 2, m) of the stale rows `at` out of
    both sides' inputs in `out`, (g (3, 2, n), p (2, 2, n), singular (2,
    n)), from the `_side_terms` of each side, stacked on a side axis before
    the rows: with N = (I - S_sent g_bb)^-1 (-S_sent), by Woodbury g - g_ab
    N g_ab' and p - g_ab (v_sent + N (p_b - g_bb v_sent)), singular also
    where B - J_b'S_sent J_b is not positive definite.  Each row's 2x2
    algebra is its own, so the two sides' m rows are taken as 2m rows; g_bb
    is overwritten."""
    g, p, singular = out
    sent, g_ab, g_bb, p_b = (x.reshape(x.shape[:-2] + (-1,)) for x in (sent, g_ab, g_bb, p_b))
    s_sent, v_sent = sent[:3], sent[3:]
    n, ok = _inverse_sum(-s_sent, g_bb)
    r = _sym_mv(g_bb, v_sent)
    np.subtract(p_b, r, out=r)
    r = _sym_mv(n, r)
    r += v_sent
    g_ab_n = _contract("adm,bdm->abm", g_ab, n[[0, 1, 1, 2]].reshape(2, 2, -1))  # N in full
    _gram(g_ab_n, g_ab, g_bb)  # g_ab N g_ab', in place of g_bb
    del g_ab_n
    g[..., at] -= g_bb.reshape(3, 2, -1)
    p[..., at] -= _contract("adm,dm->am", g_ab, r).reshape(2, 2, -1)
    singular[:, at] |= ~ok.reshape(2, -1)


def _new_messages(g, p, w, w_target, sent):
    """The messages (5, 2, n), S's entries and v, of each side, and where
    the conditioned block is positive definite, from `_side_terms`, the
    factors' w (n,) and w t (2, 1, n), alike for both sides, and their last
    messages `sent` (5, 2, n) to the eliminated side, zero where the input
    leaves them out: one fold of w I - S_sent and w t - v_sent."""
    m = np.negative(sent[:3])
    m[::2] += w  # entries 00 and 11
    g, u, ok = _fold_in(g, p, m, w_target - sent[3:])
    out = np.empty(sent.shape, sent.dtype)
    np.multiply(-w * w, g, out=out[:3])  # S = w I - w^2 g
    out[:3:2] += w
    np.multiply(-w, u, out=out[3:])  # v = w t - w u
    out[3:] += w_target
    return out, ok


def _phase_factors(graph: FactorGraph, schedule: ScheduleParams, t: int, n_old: int, plan, lap):
    """Phases A and B of the rows before `n_old`, a stretch of `plan` at a
    time, then A of those born this round, `lap(phase)` ending each step;
    returns the counts relinearised, aborted and singular, and the largest
    message change."""
    jac, target, msg = (component_major(a) for a in (graph.f_jac, graph.f_target, graph.f_msg))
    beliefs = {}
    for kind in KINDS:
        cov, eta = (component_major(graph.var(kind, name)) for name in ("belief_cov", "belief_eta"))
        beliefs[kind] = cov, np.einsum("ijn,jn->in", cov, eta)
    lap("messages")
    counts, max_delta = np.array([0, 0, len(KINDS) * (graph.n_measurement_factors - n_old)]), 0.0
    for start, stop, parts in plan:
        rows, n = slice(start, stop), stop - start
        n_relin, n_aborted, stale, jac_sent = _phase_relinearize(graph, schedule, t, rows)
        lap("relinearize")
        # phase B: the stale rows, counted from `start`, were relinearised
        # just now and sent their last messages with `jac_sent`
        m = stale.size
        w = graph.factor_precision(rows)
        w_target = (w * target[:, rows])[:, None]  # (2, 1, n), for both sides
        # the keyframe side's parts of the rows and of the stale rows
        parts = [(a - start, b - start, dense) for a, b, dense in parts]
        edges = stale.searchsorted([a for a, _, _ in parts] + [n]).tolist() if m else [0]
        stale_parts = [(i, j, dense) for (*_, dense), i, j in zip(parts, edges, edges[1:]) if j > i]
        # a factor joins one variable of each kind, and its message to one
        # eliminates the other: side k sends to KINDS[k], and its inputs are
        # the stored messages to the other kind
        stored = msg[..., rows]  # a view of `f_msg`
        g, p = np.empty((3, 2, n), graph.dtype), np.empty((2, 2, n), graph.dtype)
        singular = np.empty((2, n), dtype=bool)
        # g_ab, g_bb and p_b of the stale rows, by eliminated kind as `f_msg`
        stale_terms = [np.empty(shape + (2, m), graph.dtype) for shape in ((2, 2), (3,), (2,))]
        for k, elim in enumerate(KINDS[::-1]):
            side = (parts, stale_parts) if elim is KEYFRAME else ([(0, n, False)], [(0, m, False)])
            _side_terms(
                graph.adjacent(elim)[rows], side[0], jac[:, elim.cols, rows], jac_sent[:, elim.cols], beliefs[elim],
                (g[:, k], p[:, k], singular[k]), [x[..., 1 - k, :] for x in stale_terms], stale, side[1],
            )
        # the stale rows' inputs leave out their last messages: they fold, and
        # restart where singular, from zero, but their change counts from them
        if m:
            at = _consecutive(stale)
            sent_old = stored[..., at].copy()
            _leave_out((g[:, ::-1], p[:, ::-1], singular[::-1]), at, sent_old, *stale_terms)
            stored[..., at] = 0  # in `f_msg`, whose stretch takes `new` below
        del stale_terms  # not held through the next stretch
        new, ok = _new_messages(g, p, w, w_target, stored[:, ::-1])
        singular |= ~ok
        # d outside the undamped window, 0 inside it
        damp = (graph.f_last_relin[rows] <= t - schedule.undamped_window) * graph.dtype.type(schedule.damping)
        new[3:] *= 1.0 - damp
        new[3:] += damp * stored[3:]
        if singular.any():
            np.copyto(new, stored, where=singular)
        delta = new - stored
        if m:
            delta[..., at] -= sent_old
        max_delta = max(max_delta, np.abs(delta, out=delta).max())
        msg[..., rows] = new
        lap("messages")
        counts += n_relin, n_aborted, int(np.count_nonzero(singular))
    if n_old < graph.n_measurement_factors:
        counts[:2] += _phase_relinearize(graph, schedule, t, slice(n_old, None))[:2]
    lap("relinearize")
    return (*counts.tolist(), float(max_delta))


def _phase_beliefs(graph: FactorGraph, plan) -> int:
    """Beliefs from the messages of the factors in the stretches of the
    round's `plan`: the factors born this round are left out, their
    messages are zero."""
    frozen = 0
    jac = component_major(graph.f_jac)
    for kind in KINDS:
        eta, lam, cov, state = (
            graph.var(kind, name) for name in ("belief_eta", "belief_lam", "belief_cov", "state")
        )
        n, dim = eta.shape
        ids = graph.adjacent(kind)
        i, j = TRIL[dim]
        # the incoming messages J'v and the lower triangles of J'SJ, summed
        # a part at a time in row order, from S, v and J widened to float64
        # (a float32 product written into float64 would be rounded first): a
        # keyframe piece in one product, the other rows row by row
        sums = np.zeros((dim + dim * (dim + 1) // 2, n))
        index = np.arange(len(sums))[:, None] * n
        msg = component_major(graph.f_msg)[:, KINDS.index(kind)]  # see `FactorGraph.message`
        msg_s, msg_v = msg[:3], msg[3:]
        for start, stop, parts in plan:
            for first, last, dense in parts if kind is KEYFRAME else [(start, stop, False)]:
                rows = slice(first, last)
                s, v, (a, b) = (x[..., rows].astype(float, copy=False) for x in (msg_s, msg_v, jac[:, kind.cols]))
                p, q = s[0] * a + s[1] * b, s[1] * a + s[2] * b  # the rows of S J
                if dense:
                    sums[:dim, ids[first]] += a @ v[0] + b @ v[1]
                    sums[dim:, ids[first]] += (a @ p.T + b @ q.T)[i, j]
                    continue
                entries = np.empty((len(sums), a.shape[1]))
                np.multiply(v[0], a, out=entries[:dim])
                entries[:dim] += v[1] * b
                for r in range(dim):
                    row = entries[dim + r * (r + 1) // 2 :][: r + 1]
                    np.multiply(a[r], p[: r + 1], out=row)
                    row += b[r] * q[: r + 1]
                np.add.at(sums.reshape(-1), (index + ids[rows]).reshape(-1), entries.reshape(-1))
        # the belief, prior added, is solved in float64 and stored in the
        # graph's dtype: float32 rounding of a well-conditioned belief can
        # leave a pivot under the float32 pivot tolerance, freezing its state
        prior_eta, prior_diag = graph.prior_information(kind)
        wide_eta, wide_lam = sums[:dim], np.empty((dim, dim, n))
        wide_eta += prior_eta.T
        wide_lam[i, j] = wide_lam[j, i] = sums[dim:]
        diagonal = _diagonal(wide_lam)
        diagonal += prior_diag.T
        component_major(eta)[...], component_major(lam)[...] = wide_eta, wide_lam
        # [I | eta] gives B^-1 and the mean, left zero where B is not invertible
        rhs = np.zeros((dim, dim + 1, n))
        _diagonal(rhs)[...] = 1.0
        rhs[:, dim] = wide_eta
        solved, ok = solve_spd_masked(wide_lam.transpose(2, 0, 1), rhs.transpose(2, 0, 1))
        solved = component_major(solved)
        component_major(cov)[...] = np.where(ok, solved[:, :dim], 0.0)  # exactly symmetric
        mean = solved[:, dim]
        if kind is KEYFRAME:
            mean[:3] = canonicalize_axis_angle(mean[:3].T).T
        np.copyto(component_major(state), mean, where=ok)
        frozen += ok.size - np.count_nonzero(ok)
    return frozen


def _guard_chirality(graph: FactorGraph, record: Evaluation, old: dict) -> tuple:
    """The chirality guard (see the module docstring) after a round whose
    `record` counts measurements behind their camera, `old` the states of
    each kind before the round; returns the record of the states it leaves
    and the count of variables it kept from moving."""
    rows = (record.depths <= DEPTH_EPSILON).nonzero()[0]
    _, depth = project_many(*(old[kind][graph.adjacent(kind)[rows]] for kind in KINDS), graph.intrinsics)
    rows, kept = rows[depth > DEPTH_EPSILON], 0
    for kind in (LANDMARK, KEYFRAME):
        if rows.size == 0:
            break
        ids, state = np.unique(graph.adjacent(kind)[rows]), graph.var(kind, "state")
        kept += int(np.count_nonzero((state[ids] != old[kind][ids]).any(axis=1)))
        state[ids] = old[kind][ids]
        record = graph.evaluate()
        rows = rows[record.depths[rows] <= DEPTH_EPSILON]
    return record, kept


def iterate(graph: FactorGraph, schedule: ScheduleParams | None = None) -> IterationReport:
    """One bulk-synchronous GBP round (phases A-C); advances the prior
    weakening and the iteration counter and reports per-phase diagnostics."""
    schedule = schedule if schedule is not None else ScheduleParams()
    t = graph.iteration
    phase_ms, clock = dict.fromkeys(PHASES, 0.0), [time.perf_counter()]
    def lap(phase):  # ends a step of `phase`
        clock.append(time.perf_counter())
        phase_ms[phase] += 1e3 * (clock[-1] - clock[-2])
    prior_scale = _update_prior_scales(graph, schedule, t)
    lap("relinearize")
    n_old = int(graph.f_birth.searchsorted(t))  # the factors born before this round
    plan = _plan(graph.f_kf[:n_old])
    n_relin, n_aborted, n_singular, max_delta = _phase_factors(graph, schedule, t, n_old, plan, lap)
    before = {kind: graph.var(kind, "state").copy() for kind in KINDS}
    n_frozen = _phase_beliefs(graph, plan)
    graph.iteration = t + 1
    lap("beliefs")
    record = graph.evaluate()
    if record.n_behind_camera:
        record, n_kept = _guard_chirality(graph, record, before)
        n_frozen += n_kept
    lap("evaluate")
    return IterationReport(
        iteration=graph.iteration,
        are=record.are,
        energy=record.energy,
        n_relinearized=n_relin,
        n_relin_aborted=n_aborted,
        n_singular_messages=n_singular,
        n_frozen_states=n_frozen,
        n_behind_camera=record.n_behind_camera,
        max_message_delta=max_delta,
        prior_scale=prior_scale,
        phase_ms=phase_ms,
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
    record = graph.evaluate()
    are_trace, energy_trace = [record.are], [record.energy]
    del record  # its arrays are not held through the rounds
    reports: list[IterationReport] = []
    reason = "max_iters"
    if are_trace[0] < schedule.are_target:
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
            # the delta of a round that kept every message, or sent none from
            # a factor born in it or since, says nothing of convergence; a
            # graph without factors has no message to keep
            n_sent = int(graph.f_birth.searchsorted(report.iteration - 1))
            if schedule.message_tol is not None and n_sent == graph.n_measurement_factors and (
                report.n_singular_messages < max(1, len(KINDS) * n_sent)
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
