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
     factors past it, a block of `BLOCK_ROWS` factors at a time.  Phase A
     writes only `f_last_relin` besides the relinearisations, and hands
     phase B the rows it relinearised with their `f_jac` of before the
     round;
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
     whose last messages were sent with the old J phase A hands over: two
     folds there, the factor's and then the input's.  Where cond is not
     positive definite or phase C could not invert B, the previous message
     is kept, or restarts at zero on a stale row, as a new factor's.  In its
     first round a factor's zero input would leave cond singular, so it
     keeps its zero messages and is counted singular without being solved:
     factors are only appended, at the current iteration, so phases B and C
     run over the rows before those born this round.  v is damped against
     the previous v outside the undamped window after a relinearisation,
     which holds at least that round, so both were sent with the current
     J_K.  A dense run is at least `DENSE_RUN_ROWS` consecutive rows of one
     keyframe, as its measurements are added together, cut into pieces
     every `DENSE_RUN_PIECE` rows from its start.  `iterate` finds the runs
     from neighbouring rows' keyframes and plans stretches of about
     `BLOCK_ROWS` rows that cut no piece, which phases B and C both walk.
     Phase B forms both sides' messages of a stretch before it writes
     either, in place in `f_msg`, each step one vector operation.  Where E
     is the keyframe, a piece's B^-1 J_E' is one matrix product with E's own
     B^-1, and J_E mu_E one with mu_E = B^-1 eta_E, formed once per
     variable; the other rows gather B^-1 and mu.  Every other sum is taken
     row by row in a fixed order, so no message depends on BLOCK_ROWS;
  C. every variable's belief is rebuilt in place as prior + sum of incoming
     messages in float64, a stretch at a time, and one masked solve gives
     its mean and B^-1.  A keyframe's piece adds its rows' messages in two
     matrix products, A P' + B Q' with A, B the rows of J_K' and P, Q those
     of (S J_K)', and A v_0 + B v_1; the other rows, the landmarks' all,
     are expanded and summed in ascending factor-id order.  The state
     moves to the mean when B is invertible; keyframe rotations are then
     wrapped to angle-axis magnitudes in [0, pi].

`iterate` then evaluates the ARE and the energy, and counts the
measurements behind their camera, from one shared projection, and reports
the wall time of each phase in `IterationReport.phase_ms`.

Within a phase all reads target the pre-phase snapshot, so results do not
depend on intra-phase execution order: phase B reads both sides' inputs
and messages of a stretch of rows before it writes either.  Every phase keeps the
graph's float dtype.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .batch_linalg import BLOCK_ROWS, component_major, solve_spd_masked
from .camera import DEPTH_EPSILON, canonicalize_axis_angle
from .factor_graph import KEYFRAME, KINDS, PRIOR_TARGET_RATIO, FactorGraph

__all__ = [
    "ScheduleParams",
    "IterationReport",
    "SolveReport",
    "iterate",
    "run",
    "solve",
]

# The pieces of dense runs bound the temporaries of phases B and C by the
# longer of BLOCK_ROWS and DENSE_RUN_PIECE, not by the longest run: phase B
# holds about 650 B per row of its longest stretch in a plain float64 round.
# A run costs some tens of us of calls in each phase, so a short run is
# cheaper row by row: phases B and C together break even between 112 and
# 128 rows per run (12k-factor scenes of 64-320 rows per keyframe, 2 vCPU,
# one BLAS thread), and a run is dense from 128.
DENSE_RUN_ROWS = 128
DENSE_RUN_PIECE = 6144

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
    prior_weaken_iters: iterations over which priors decay to 1/100 of their
        initial strength (0 keeps priors at full strength).
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
        if self.beta is not None and self.undamped_window < 1:  # see phase B
            raise ValueError("undamped_window must be >= 1 while beta is set")


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
    """Relinearises the factors due; returns the counts of those relinearised
    and aborted, and the ascending rows relinearised with the J their stored
    messages were sent with, component-major (2, 9, rows)."""
    none = np.zeros(0, dtype=int), component_major(graph.f_jac[:0])
    if graph.n_measurement_factors == 0 or schedule.beta is None:
        return 0, 0, none
    picked = []
    for start in range(0, graph.n_measurement_factors, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        due = start + np.flatnonzero(graph.iters_since_relin(rows) >= schedule.relin_cooldown)
        stacked = np.concatenate(graph.adjacent_states(due), axis=1)
        picked.append(due[np.linalg.norm(stacked - graph.f_lin[due], axis=1) > schedule.beta])
    idx = np.concatenate(picked)
    if idx.size == 0:
        return 0, 0, none
    jac_sent = np.take(component_major(graph.f_jac), idx, axis=-1)
    ok = graph.linearize_factors(idx)
    graph.f_last_relin[idx[ok]] = t
    if not ok.all():  # an aborted row keeps its J
        idx, jac_sent = idx[ok], jac_sent[..., ok]
    return int(ok.sum()), int((~ok).sum()), (idx, jac_sent)


def _dense_runs(ids):
    """The runs of at least DENSE_RUN_ROWS consecutive rows that share their
    keyframe `ids`, cut at every DENSE_RUN_PIECE rows from their start, as
    sorted [start, stop) pieces.  They are sought only where enough rows
    equal the row before them to make one."""
    change = ids[1:] != ids[:-1]
    if change.size - np.count_nonzero(change) < DENSE_RUN_ROWS - 1:
        return []
    bounds = np.concatenate(([0], np.flatnonzero(change) + 1, [ids.size]))
    long = np.flatnonzero(np.diff(bounds) >= DENSE_RUN_ROWS)
    return [
        (i, min(i + DENSE_RUN_PIECE, b))
        for a, b in zip(bounds[long].tolist(), bounds[long + 1].tolist())
        for i in range(a, b, DENSE_RUN_PIECE)
    ]


def _segments(n_old, pieces):
    """The round's plan, which phases B and C both walk: the rows before
    `n_old` as [start, stop) stretches of about BLOCK_ROWS rows that cut none
    of the sorted, disjoint `pieces`, each with the pieces inside it,
    relative to its start.  A stretch is cut short at the start of a piece
    that crosses its end, or is the one piece that starts at its start, so
    it is at most max(BLOCK_ROWS, DENSE_RUN_PIECE) rows long."""
    plan, start, k = [], 0, 0
    while start < n_old:
        stop, first = min(start + BLOCK_ROWS, n_old), k
        while k < len(pieces) and pieces[k][1] <= stop:
            k += 1
        if k < len(pieces) and pieces[k][0] < stop:
            if pieces[k][0] > start:
                stop = pieces[k][0]
            else:
                stop, k = pieces[k][1], k + 1
        plan.append((start, stop, [(a - start, b - start) for a, b in pieces[first:k]]))
        start = stop
    return plan


def _outside(n, pieces):
    """The rows of a stretch of `n` rows outside its [start, stop) `pieces`,
    all of them as a slice when there are none."""
    rest = np.ones(n, dtype=bool)
    for a, b in pieces:
        rest[a:b] = False
    return np.flatnonzero(rest) if pieces else slice(None)


# Phase B forms the messages of a stretch of factor rows to both sides at
# once: an array (entries, 2, n) holds per entry one row of n factors for
# each receiving side, in the order of KINDS.  A symmetric 2x2 matrix has
# the entries 00, 01 and 11, a vector two and any other 2x2 matrix 2 x 2.
# The messages themselves, S's entries and v, are the graph's `f_msg` in
# this layout, (5, 2, F) component-major, so a stretch reads its stored
# messages as a view and writes the new ones with one assignment.

def _sym_mv(a, x):
    out = np.empty_like(x)
    np.multiply(a[0], x[0], out=out[0])
    out[0] += a[1] * x[1]
    np.multiply(a[1], x[0], out=out[1])
    out[1] += a[2] * x[1]
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
    del trace, cross  # freed before `out`: a stretch of stale rows peaks in here
    if not ok.all():
        det[~ok] = 1
    out = np.empty_like(a)
    np.multiply(det_a, b[2], out=out[0])
    out[0] += a[0]
    np.multiply(det_a, b[1], out=out[1])
    np.subtract(a[1], out[1], out=out[1])
    np.multiply(det_a, b[0], out=out[2])
    out[2] += a[2]
    scale = np.reciprocal(det, out=det)
    for row in out:
        row *= scale
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


def _fold_in_stale(g_ab, g_bb, p_b, g, p, w, w_target, s_sent, v_sent):
    """`_fold_in` of the factor's (J' w t, J' w J) and then of the input's
    (-J_b' v_sent, -J_b' S_sent J_b), J_b the old J of a stale row, with
    g_ab = J B^-1 J_b', g_bb = J_b B^-1 J_b' and p_b = J_b B^-1 eta.  The
    first fold turns g_ab into h = Y g_ab, Y = (I + w g)^-1 = I - w g', g_bb
    into g_bb - w g_ab' h and p_b into p_b + g_ab' (w t - w p').  With N =
    (I + M g_bb)^-1 M, M = -S_sent and c = -v_sent, the second leaves g' -
    h N h' and p' + h (c - N (p_b + g_bb c))."""
    # the stale rows can be a whole stretch: the temporaries of the first
    # fold are dropped before the second, and g' and p' take it in place
    g1, p1, ok = _fold_in(g, p, np.stack([w, 0 * w, w]), w_target)
    y0, y1, y2 = 1 - w * g1[0], -w * g1[1], 1 - w * g1[2]
    (a00, a01), (a10, a11) = g_ab
    h00, h01 = y0 * a00 + y1 * a10, y0 * a01 + y1 * a11
    h10, h11 = y1 * a00 + y2 * a10, y1 * a01 + y2 * a11
    del y0, y1, y2
    g_bb = np.stack([
        g_bb[0] - w * (a00 * h00 + a10 * h10),
        g_bb[1] - w * (a00 * h01 + a10 * h11),
        g_bb[2] - w * (a01 * h01 + a11 * h11),
    ])
    e0, e1 = w_target[0] - w * p1[0], w_target[1] - w * p1[1]
    q0 = p_b[0] + a00 * e0 + a10 * e1 - (g_bb[0] * v_sent[0] + g_bb[1] * v_sent[1])
    q1 = p_b[1] + a01 * e0 + a11 * e1 - (g_bb[1] * v_sent[0] + g_bb[2] * v_sent[1])
    del e0, e1
    (n0, n1, n2), ok2 = _inverse_sum(-s_sent, g_bb)
    del g_bb
    ok &= ok2
    r0, r1 = -v_sent[0] - (n0 * q0 + n1 * q1), -v_sent[1] - (n1 * q0 + n2 * q1)
    k00, k01 = h00 * n0 + h01 * n1, h00 * n1 + h01 * n2  # the rows of h N
    k10, k11 = h10 * n0 + h11 * n1, h10 * n1 + h11 * n2
    g1[0] -= k00 * h00 + k01 * h01
    g1[1] -= k00 * h10 + k01 * h11
    g1[2] -= k10 * h10 + k11 * h11
    p1[0] += h00 * r0
    p1[0] += h01 * r1
    p1[1] += h10 * r0
    p1[1] += h11 * r1
    return g1, p1, ok


def _contract(spec, x, y, out=None):
    """`np.einsum(spec, x, y)` of operands whose last axis, n factor rows,
    it keeps and whose second-to-last it sums.  With n >= 2 the rows are
    einsum's inner loop, so each row's sum runs in ascending order, the
    bits of a loop of row-wise products; a single row would make the sum
    the inner loop, in another order, so it is taken twice."""
    if x.shape[-1] != 1:
        return np.einsum(spec, x, y, out=out)
    one = np.einsum(spec, *(np.concatenate((a, a), axis=-1) for a in (x, y)))[..., :1]
    if out is None:
        return one
    out[...] = one
    return out


def _gram(x, y, out):
    """x_a . y_b into the rows of `out` for (a, b) = 00, 01, 11, of stacks
    (2, d, n) of two d-vectors."""
    _contract("dn,adn->an", x[0], y, out[:2])
    _contract("dn,dn->n", x[1], y[1], out[2])


def _cov_jac(jac, ids, belief, runs, proj):
    """B^-1 J' of each row (2, d, n), and J mu into `proj` (2, n), for its J
    (2, d, n) and the B^-1 and mu of its variable `ids`, from the kind's
    component-major (B^-1 (d, d, variables), mu (d, variables)).  Each of
    `runs`, [start, stop) rows of one variable, takes one matrix product
    with its B^-1 and its mu; the other rows gather them and sum in
    ascending order."""
    cov, mu = belief
    cov_jac = np.empty(jac.shape, jac.dtype)
    for a, b in runs:
        cov_jac[..., a:b] = np.ascontiguousarray(cov[..., ids[a]]) @ jac[..., a:b]
        proj[:, a:b] = mu[:, ids[a]] @ jac[..., a:b]
    rest = _outside(ids.size, runs)
    ids = ids[rest]
    if ids.size:
        probe = jac[..., rest]
        cov_jac[..., rest] = _contract("ijn,ajn->ain", np.take(cov, ids, axis=-1), probe)
        proj[:, rest] = _contract("ajn,jn->an", probe, np.take(mu, ids, axis=-1))
    return cov_jac


def _side_terms(ids, runs, jac, jac_sent, belief, out, stale):
    """The terms of B^-1 that the messages of factor rows need on the side
    that eliminates E, written into `out`: g = J B^-1 J' (3, n), p = J mu
    (2, n) and where B^-1 is zero, as where phase C could not invert B,
    and for the `stale` rows, with their `jac_sent` J_b, J B^-1 J_b' (4, m),
    J_b B^-1 J_b' (3, m) and J_b mu (2, m).  `ids` are the rows' E, `runs`
    its dense runs, [start, stop) pairs, `jac` J_E (2, d, n), and `belief`
    E's kind's (B^-1, mu = B^-1 eta), component-major."""
    g, p, singular, g_ab, g_bb, p_b = out
    _gram(jac, _cov_jac(jac, ids, belief, runs, p), g)
    np.equal(np.take(belief[0][0, 0], ids), 0, out=singular)
    if not stale.any():
        return
    rows = np.flatnonzero(stale)
    runs = [(i, j) for i, j in (np.searchsorted(rows, run).tolist() for run in runs) if j > i]
    cov_jac_b = _cov_jac(jac_sent, ids[rows], belief, runs, p_b)
    _contract("adm,bdm->abm", np.take(jac, rows, axis=-1), cov_jac_b, g_ab.reshape(2, 2, -1))  # every pair
    _gram(jac_sent, cov_jac_b, g_bb)


def _new_messages(g, p, w, w_target, sent, stale, stale_terms):
    """The messages (5, 2, n), S's entries and v, of each side, and where
    the conditioned block is positive definite, from `_side_terms`, the
    factors' w and w t and their last messages `sent` (5, 2, n) to the
    eliminated side: one fold of w I - S_sent and w t - v_sent, or two on
    the `stale` rows, whose messages were sent with the old J."""
    rows = np.flatnonzero(stale)
    if rows.size:  # first, so that the temporaries of the two never meet
        # np.take keeps the gathered rows the last, contiguous axis, where
        # x[..., rows] would lay them out first and slow every step
        stale_part = _fold_in_stale(
            *stale_terms, *(np.take(x, rows, axis=-1) for x in (g, p, w, w_target, sent[:3], sent[3:])))
    if rows.size == stale.size:  # no row takes the one fold
        g, u, ok = stale_part
    else:
        m = np.negative(sent[:3])  # every row, though the stale ones are overwritten
        m[0] += w
        m[2] += w
        g, u, ok = _fold_in(g, p, m, w_target - sent[3:])
        if rows.size:
            g[..., rows], u[..., rows], ok[:, rows] = stale_part
    out = np.empty((5,) + w.shape, w.dtype)  # w I - w^2 g and w t - w u
    w_sq = w * w
    np.multiply(w_sq, g[0], out=out[0])
    np.subtract(w, out[0], out=out[0])
    np.multiply(w_sq, g[1], out=out[1])
    np.negative(out[1], out=out[1])
    np.multiply(w_sq, g[2], out=out[2])
    np.subtract(w, out[2], out=out[2])
    for i in range(2):
        np.multiply(w, u[i], out=out[3 + i])
        np.subtract(w_target[i], out[3 + i], out=out[3 + i])
    return out, ok


def _phase_messages(graph: FactorGraph, schedule: ScheduleParams, t: int, n_old: int,
                    relinearized, plan):
    """Messages of the factors before row `n_old`, over the stretches of
    `plan`, the round's `_segments`; the rest keep their zero first
    messages.  `relinearized` holds the rows phase A relinearised and the J
    their messages were last sent with."""
    n_singular = len(KINDS) * (graph.n_measurement_factors - n_old)
    stale_rows, jac_old = relinearized
    jac, target, msg = (component_major(a) for a in (graph.f_jac, graph.f_target, graph.f_msg))
    beliefs = {}
    for kind in KINDS:
        cov, eta = (component_major(graph.var(kind, name)) for name in ("belief_cov", "belief_eta"))
        beliefs[kind] = cov, np.einsum("ijn,jn->in", cov, eta)
    max_delta = 0.0
    for start, stop, pieces in plan:
        rows, n = slice(start, stop), stop - start
        w = np.empty((2, n), graph.dtype)  # one row per side
        w[0] = graph.factor_precision(rows)
        w[1] = w[0]
        w_target = np.empty((2, 2, n), graph.dtype)
        np.multiply(w[0], target[:, rows], out=w_target[:, 0])
        w_target[:, 1] = w_target[:, 0]
        stale = graph.f_last_relin[rows] == t  # relinearised by phase A
        jac_sent = jac_old[..., slice(*np.searchsorted(stale_rows, (start, stop)))]
        # a factor joins one variable of each kind, and its message to one
        # eliminates the other: side k sends to KINDS[k], and its inputs are
        # the stored messages to the other kind
        g, p = np.empty((3, 2, n), graph.dtype), np.empty((2, 2, n), graph.dtype)
        singular = np.empty((2, n), dtype=bool)
        m = int(np.count_nonzero(stale))
        stale_terms = tuple(np.empty((size, 2, m), graph.dtype) for size in (4, 3, 2))
        for k, elim in enumerate(KINDS[::-1]):
            _side_terms(
                graph.adjacent(elim)[rows], pieces if elim is KEYFRAME else [], jac[:, elim.cols, rows],
                jac_sent[:, elim.cols], beliefs[elim], (g[:, k], p[:, k], singular[k], *(x[:, k] for x in stale_terms)),
                stale,
            )
        stored = msg[..., rows]  # a view, read before `new` overwrites it
        g_ab, g_bb, p_b = stale_terms
        new, ok = _new_messages(g, p, w, w_target, stored[:, ::-1], stale, (g_ab.reshape(2, 2, 2, m), g_bb, p_b))
        singular |= ~ok
        damp = np.where(
            t - graph.f_last_relin[rows] < schedule.undamped_window, 0.0, schedule.damping
        ).astype(graph.dtype)
        new[3:] *= 1.0 - damp
        new[3:] += damp * stored[3:]
        if singular.any():
            np.copyto(new, stored, where=singular)
            new[:, singular & stale] = 0.0  # the kept message was sent with the old J
            n_singular += int(np.count_nonzero(singular))
        delta = new - stored
        max_delta = max(max_delta, delta.max(), -delta.min())
        msg[..., rows] = new
    return n_singular, float(max_delta)


def _phase_beliefs(graph: FactorGraph, plan) -> int:
    """Beliefs from the messages of the factors in the stretches of `plan`,
    the round's `_segments`: the factors born this round are left out, their
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
        # in float64 a stretch at a time: each keyframe piece in one
        # product, then the other rows row by row in ascending factor order
        sums = np.zeros((dim + dim * (dim + 1) // 2, n))
        index = np.arange(len(sums))[:, None] * n
        msg_s, msg_v = (component_major(m) for m in graph.message(kind))
        for start, stop, pieces in plan:
            rows = slice(start, stop)
            stretch = msg_s[..., rows], msg_v[..., rows], jac[:, kind.cols, rows]
            pieces = pieces if kind is KEYFRAME else []
            for first, last in pieces:
                s, v, (a, b) = (x[..., first:last].astype(float, copy=False) for x in stretch)
                p, q = s[0] * a + s[1] * b, s[1] * a + s[2] * b
                sums[:dim, ids[start + first]] += a @ v[0] + b @ v[1]
                sums[dim:, ids[start + first]] += (a @ p.T + b @ q.T)[i, j]
            if sum(last - first for first, last in pieces) == stop - start:
                continue  # no row outside the pieces
            rest = _outside(stop - start, pieces)
            s, v, (a, b) = (x[..., rest] for x in stretch)
            p, q = s[0] * a + s[1] * b, s[1] * a + s[2] * b  # the rows of S J
            entries = np.empty((len(sums), a.shape[1]))
            np.multiply(v[0], a, out=entries[:dim])
            entries[:dim] += v[1] * b
            for r in range(dim):
                row = entries[dim + r * (r + 1) // 2 :][: r + 1]
                np.multiply(a[r], p[: r + 1], out=row)
                row += b[r] * q[: r + 1]
            np.add.at(sums.reshape(-1), (index + ids[rows][rest]).reshape(-1), entries.reshape(-1))
        lam_cm = component_major(lam)
        lam_cm[i, j] = lam_cm[j, i] = sums[dim:]
        prior_eta, prior_diag = graph.prior_information(kind)
        np.add(prior_eta, sums[:dim].T, out=eta)
        rng = np.arange(dim)
        lam[:, rng, rng] += prior_diag
        # [eta | I] gives the mean and B^-1, left zero where B is not invertible
        eye = np.broadcast_to(np.eye(dim, dtype=graph.dtype), (n, dim, dim))
        solved, ok = solve_spd_masked(lam, np.concatenate([eta[:, :, None], eye], axis=2))
        mean, inv = solved[:, :, 0], solved[:, :, 1:]
        cov[...] = np.where(ok[:, None, None], 0.5 * (inv + np.swapaxes(inv, 1, 2)), 0.0)
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
    n_relin, n_aborted, relinearized = _phase_relinearize(graph, schedule, t)
    clock.append(time.perf_counter())
    n_old = int(np.searchsorted(graph.f_birth, t))  # the factors born before this round
    plan = _segments(n_old, _dense_runs(graph.f_kf[:n_old]))
    n_singular, max_delta = _phase_messages(graph, schedule, t, n_old, relinearized, plan)
    clock.append(time.perf_counter())
    n_frozen = _phase_beliefs(graph, plan)
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
    with graph.shared_projection():
        are = graph.average_reprojection_error()
        energy_trace = [graph.energy()]
    are_trace = [are]
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
            # the delta of a round that kept every message, or sent none from
            # a factor born in it or since, says nothing of convergence; a
            # graph without factors has no message to keep
            n_sent = int(np.searchsorted(graph.f_birth, report.iteration - 1))
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
