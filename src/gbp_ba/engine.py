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
     inverse of a matrix", 1989) both come from the B^-1 of phase C and
     2x2 solves in closed form.  Every stored message was sent with the
     factor's current J, so one solve per message, except on the stale rows,
     those relinearised this round, whose last messages were sent with the
     old J phase A hands over: two there, the 4x4 system of [J_E; J_old] by
     block elimination.  Where cond is not positive definite or phase C
     could not invert B, the previous message is kept, or restarts at zero
     on a stale row, as a new factor's.  In its first round a factor's zero
     input would leave cond singular, so it keeps its zero messages and is
     counted singular without being solved: factors are only appended, at
     the current iteration, so phases B and C run over the rows before
     those born this round.  v is damped against the previous v outside the
     undamped window after a relinearisation, which holds at least that
     round, so both were sent with the current J_K.  Each step is one vector
     operation over a block of `BLOCK_ROWS` factors of the graph's
     component-major arrays, written in place.  B^-1 and eta are gathered
     per factor, except on the rows of a dense run: at least
     `DENSE_RUN_ROWS` consecutive rows before the factors born this round
     that share their variable E, as a keyframe's do.  There B_E^-1 J_E' is
     one contraction with E's own B^-1 over the run's rows in the block,
     and J_E B_E^-1 eta_E is J_E mu_E, with mu_E = B_E^-1 eta_E formed once
     per variable.  Runs are found each round by comparing neighbouring
     rows' ids;
  C. every variable's belief is rebuilt in place as prior + sum of incoming
     messages in float64, and one masked solve gives its mean and B^-1.  A
     dense run adds its rows' messages in two matrix products over the whole
     run, A P' + B Q' with A, B the rows of J_K' and P, Q those of (S J_K)',
     and A v_0 + B v_1; the other rows are expanded a block of factors at a
     time and summed in ascending factor-id order.  The state moves to the
     mean when B is invertible; keyframe rotations are then wrapped to
     angle-axis magnitudes in [0, pi].

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

from .batch_linalg import BLOCK_ROWS, DENSE_RUN_ROWS, component_major, solve_spd_masked
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
    undamped_window: iterations after a relinearisation with damping off,
        at least 1 (the relinearisation round) while beta is set.
    prior_weaken_iters: iterations over which priors decay to 1/100 of their
        initial strength (0 keeps priors at full strength).
    message_tol: optional early stop when the largest change of a stored
        message entry (of S or v) falls below this (useful for pure linear
        runs); None disables it.
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


def _mm(a, b):  # stacks of 2x2 matrices, component-major (2, 2, n)
    return np.einsum("ijn,jkn->ikn", a, b)


def _mv(a, x):  # (2, 2, n) matrices times (2, n) vectors
    return np.einsum("ijn,jn->in", a, x)


def _fold(gram, proj, c, mat, vec):
    """Add (J_c' vec, J_c' mat J_c) to a positive-definite information form
    (eta, P) known by gram[a][b] = J_a P^-1 J_b' and proj[a] = J_a P^-1 eta.
    By Woodbury, with X = I + mat gram[c][c] and h_a = gram[a][c] X^-1 (the
    new gram[a][c]), gram[a][b] loses h_a mat gram[c][b] and proj[a] gains
    gram[a][c] vec - h_a mat (proj[c] + gram[c][c] vec).  The sum stays
    positive definite iff X's real eigenvalues are positive, that is its
    trace and determinant; the returned mask is False where not."""
    x = _mm(mat, gram[c][c])
    x[0, 0] += 1.0
    x[1, 1] += 1.0
    det = x[0, 0] * x[1, 1] - x[0, 1] * x[1, 0]
    ok = (x[0, 0] + x[1, 1] > 0) & (det > 0)
    x_inv = np.array([[x[1, 1], -x[0, 1]], [-x[1, 0], x[0, 0]]]) / np.where(ok, det, 1.0)
    g_vec = [_mv(g[c], vec) for g in gram]
    mat_r = _mv(mat, proj[c] + g_vec[c])
    h = [_mm(g[c], x_inv) for g in gram]
    proj = [p + g_v - _mv(h_a, mat_r) for p, g_v, h_a in zip(proj, g_vec, h)]
    gram = [
        [h_a if b == c else g_ab - _mm(h_a, _mm(mat, gram[c][b])) for b, g_ab in enumerate(g)]
        for g, h_a in zip(gram, h)
    ]
    return gram, proj, ok


def _dense_runs(ids):
    """The runs of at least DENSE_RUN_ROWS consecutive rows that share their
    variable `ids`, as [start, stop) pairs, and the mask of their rows.  They
    are sought only where enough rows equal the row before them to make one."""
    change = ids[1:] != ids[:-1]
    mask = np.zeros(ids.size, dtype=bool)
    if change.size - np.count_nonzero(change) < DENSE_RUN_ROWS - 1:
        return [], mask
    bounds = np.concatenate(([0], np.flatnonzero(change) + 1, [ids.size]))
    long = np.flatnonzero(np.diff(bounds) >= DENSE_RUN_ROWS)
    runs = list(zip(bounds[long].tolist(), bounds[long + 1].tolist()))
    for a, b in runs:
        mask[a:b] = True
    return runs, mask


def _probed(belief, ids, dense, probes):
    """gram[a][b] = J_a B^-1 J_b' and proj[a] = J_a B^-1 eta of the rows whose
    variables are `ids`, for the probes J_a; `belief` is their kind's (B^-1,
    eta, mu = B^-1 eta), component-major.  A stretch of `dense` rows of one
    variable contracts that variable's own B^-1 and mu; the other rows
    gather B^-1 and eta row by row.  Every sum runs over the variable's
    dimension in one order, so a row's results do not depend on the rows
    beside it."""
    cov, eta, mu = belief
    cuts = []
    if dense.any():
        cut = (dense[1:] != dense[:-1]) | (dense[1:] & (ids[1:] != ids[:-1]))
        cuts = (np.flatnonzero(cut) + 1).tolist()
    parts = []
    for a, b in zip([0, *cuts], [*cuts, ids.size]):
        seg = [probe[..., a:b] for probe in probes]
        if dense[a]:
            cov_jac = [np.einsum("ij,ajn->ian", cov[..., ids[a]], probe) for probe in seg]
            proj = [np.einsum("ain,i->an", probe, mu[:, ids[a]]) for probe in seg]
        else:
            cov_b, eta_b = (np.take(x, ids[a:b], axis=-1) for x in (cov, eta))
            cov_jac = [np.einsum("ijn,ajn->ian", cov_b, probe) for probe in seg]  # B^-1 J_a'
            proj = [np.einsum("ian,in->an", cj, eta_b) for cj in cov_jac]
        gram = [[np.einsum("ain,ibn->abn", probe, cj) for cj in cov_jac] for probe in seg]
        parts.append((gram, proj))
    if len(parts) == 1:
        return parts[0]
    grams, projs = zip(*parts)
    n = range(len(probes))
    gram = [[np.concatenate([g[x][y] for g in grams], axis=-1) for y in n] for x in n]
    return gram, [np.concatenate([p[x] for p in projs], axis=-1) for x in n]


def _conditioned(ids, dense, jac, w_eye, w_target, s_sent, v_sent, jac_sent, belief, stale):
    """(J_E cond^-1 J_E', J_E cond^-1 (w J_E't + input eta), ok) of the rows
    whose E are `ids`, with the input E's belief (eta, B) less the last
    message to E, (J_sent' v_sent, J_sent' S_sent J_sent); all
    component-major, `jac` J_E, and `jac_sent` J_sent of the `stale` rows
    alone, one column each.  The factor's and the input's rank-2 terms are
    one fold where J_sent = J_E, and two on the stale rows.  `belief` and
    `dense` are `_probed`'s."""
    idx = np.flatnonzero(stale)
    both = idx.size == stale.size > 1
    if both:
        probes, folds = [jac, jac_sent], [(0, w_eye, w_target), (1, -s_sent, -v_sent)]
    else:
        probes, folds = [jac], [(0, w_eye - s_sent, w_target - v_sent)]
    gram, proj = _probed(belief, ids, dense, probes)
    ok = True
    for fold in folds:
        gram, proj, ok_fold = _fold(gram, proj, *fold)
        ok = ok & ok_fold
    g, u = gram[0][0], proj[0]
    if idx.size and not both:
        # a lone stale row, among others or alone in its block, is gathered
        # twice: gathered once, each of its sums would run over one
        # contiguous vector, which einsum adds in another order than a row's
        # sums in a block, so its messages would depend on the rows beside it
        take = np.resize(np.arange(idx.size), max(idx.size, 2))
        per_row = (ids, dense, jac, w_eye, w_target, s_sent, v_sent)
        g_s, u_s, ok_s = _conditioned(
            *(np.take(a, idx[take], axis=-1) for a in per_row),
            np.take(jac_sent, take, axis=-1), belief, stale[idx[take]],
        )
        g[..., idx], u[:, idx], ok[idx] = g_s[..., : idx.size], u_s[:, : idx.size], ok_s[: idx.size]
    return g, u, ok


def _phase_messages(graph: FactorGraph, schedule: ScheduleParams, t: int, n_old: int,
                    relinearized, dense):
    """Messages of the factors before row `n_old`; the rest keep their zero
    first messages.  `relinearized` holds the rows phase A relinearised and
    the J their messages were last sent with, `dense` each kind's
    `_dense_runs`."""
    n_singular = len(KINDS) * (graph.n_measurement_factors - n_old)
    damp = np.where(
        (t - graph.f_last_relin[:n_old]) < schedule.undamped_window, 0.0, schedule.damping
    ).astype(graph.dtype)
    eye = np.eye(2, dtype=graph.dtype)[:, :, None]
    stale_rows, jac_old = relinearized
    # component-major views: per kind its beliefs' B^-1 and eta, with mu =
    # B^-1 eta where it has dense runs, and the messages to it, which are
    # overwritten in place
    jac, target = (component_major(a) for a in (graph.f_jac, graph.f_target))
    beliefs = {}
    for kind in KINDS:
        cov, eta = (component_major(graph.var(kind, name)) for name in ("belief_cov", "belief_eta"))
        beliefs[kind] = cov, eta, np.einsum("ijn,jn->in", cov, eta) if dense[kind][0] else None
    messages = {kind: [component_major(m) for m in graph.message(kind)] for kind in KINDS}
    max_delta = 0.0
    # blocks of BLOCK_ROWS factors; a factor's messages do not depend on
    # the block it falls in
    for start in range(0, n_old, BLOCK_ROWS):
        rows = slice(start, min(start + BLOCK_ROWS, n_old))
        w_b = graph.factor_precision(rows)
        w_target = w_b * target[:, rows]
        sent = {kind: [m[..., rows] for m in messages[kind]] for kind in KINDS}
        stale = graph.f_last_relin[rows] == t  # relinearised by phase A
        jac_sent = jac_old[..., slice(*np.searchsorted(stale_rows, (rows.start, rows.stop)))]
        new = []
        # a factor joins one variable of each kind: the message to one side
        # eliminates the other; both are formed before either is written
        for keep, elim in zip(KINDS, KINDS[::-1]):
            ids = graph.adjacent(elim)[rows]
            (s00, s01, s11), v_sent = sent[elim]
            g, u, ok = _conditioned(
                ids, dense[elim][1][rows], jac[:, elim.cols, rows], w_b * eye, w_target,
                np.array([[s00, s01], [s01, s11]]), v_sent, jac_sent[:, elim.cols],
                beliefs[elim], stale,
            )
            w2 = w_b * w_b
            s = np.stack([w_b - w2 * g[0, 0], -w2 * g[0, 1], w_b - w2 * g[1, 1]])
            # B^-1 is zero where phase C could not invert B
            singular = ~ok | (np.take(beliefs[elim][0][0, 0], ids) == 0)
            new.append((keep, s, w_target - w_b * u, singular))
        for keep, s, v, singular in new:
            prev_s, prev_v = sent[keep]
            v = (1.0 - damp[rows]) * v + damp[rows] * prev_v
            np.copyto(s, prev_s, where=singular)
            np.copyto(v, prev_v, where=singular)
            restart = singular & stale  # the kept message was sent with the old J
            s[:, restart] = v[:, restart] = 0.0
            n_singular += int(singular.sum())
            max_delta = max(max_delta, np.abs(s - prev_s).max(), np.abs(v - prev_v).max())
            prev_s[...], prev_v[...] = s, v
    return n_singular, float(max_delta)


def _phase_beliefs(graph: FactorGraph, n_old: int, dense) -> int:
    """Beliefs from the messages of the factors before row `n_old`: the rest
    are zero.  `dense` holds each kind's `_dense_runs`."""
    frozen = 0
    jac = component_major(graph.f_jac)
    for kind in KINDS:
        eta, lam, cov, state = (
            graph.var(kind, name) for name in ("belief_eta", "belief_lam", "belief_cov", "state")
        )
        n, dim = eta.shape
        ids = graph.adjacent(kind)
        runs, in_run = dense[kind]
        i, j = np.tril_indices(dim)
        # the incoming messages J'v and the lower triangles of J'SJ, summed
        # in float64: a dense run's with one product over the run, A P' +
        # B Q' with A, B the rows of J' and P, Q those of (SJ)', then the
        # other rows' row by row in ascending factor order
        sums = np.zeros((dim + dim * (dim + 1) // 2, n))
        msg_s, msg_v = (component_major(m) for m in graph.message(kind))
        for first, stop in runs:
            s, v, (a, b) = (x[..., first:stop].astype(float, copy=False)
                            for x in (msg_s, msg_v, jac[:, kind.cols]))
            p, q = s[0] * a + s[1] * b, s[1] * a + s[2] * b
            sums[:dim, ids[first]] += a @ v[0] + b @ v[1]
            sums[dim:, ids[first]] += (a @ p.T + b @ q.T)[i, j]
        index = np.arange(len(sums))[:, None] * n
        for start in range(0, n_old, BLOCK_ROWS):
            rows = slice(start, min(start + BLOCK_ROWS, n_old))
            if in_run[rows].any():
                rows = start + np.flatnonzero(~in_run[rows])
            s, v = msg_s[..., rows], msg_v[..., rows]
            a, b = jac[:, kind.cols, rows]
            p, q = s[0] * a + s[1] * b, s[1] * a + s[2] * b  # the rows of S J
            entries = np.empty((len(sums), a.shape[1]))
            np.multiply(v[0], a, out=entries[:dim])
            entries[:dim] += v[1] * b
            for r in range(dim):
                row = entries[dim + r * (r + 1) // 2 :][: r + 1]
                np.multiply(a[r], p[: r + 1], out=row)
                row += b[r] * q[: r + 1]
            np.add.at(sums.reshape(-1), (index + ids[rows]).reshape(-1), entries.reshape(-1))
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
    dense = {kind: _dense_runs(graph.adjacent(kind)[:n_old]) for kind in KINDS}
    n_singular, max_delta = _phase_messages(graph, schedule, t, n_old, relinearized, dense)
    clock.append(time.perf_counter())
    n_frozen = _phase_beliefs(graph, n_old, dense)
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
