"""The scalar reference the engine's message phase is tested against.

A Gaussian here is its information form, a pair (eta, lam) with lam =
Sigma^-1 and eta = Sigma^-1 mu.  The engine works on each factor's 2x9
Jacobian and rank-2 messages in measurement space; this path conditions one
factor's 9x9 information form at a time and marginalises it by Schur
complement.
"""

import warnings

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from gbp_ba.batch_linalg import PIVOT_RTOL


class SingularBlockError(np.linalg.LinAlgError):
    """The eliminated block of a marginalisation is numerically singular."""


def marginalize(eta, lam, keep):
    """(eta, lam) marginalised onto `keep`, indices or a slice, by Schur
    complement: eta_a - lam_ab lam_bb^-1 eta_b and lam_aa - lam_ab lam_bb^-1
    lam_ba.

    The eliminated block is solved through an LU factorisation, never
    inverted; a pivot below PIVOT_RTOL times its trace raises
    SingularBlockError.  The result's matrix is symmetrised."""
    keep = np.arange(len(eta))[keep]
    elim = np.setdiff1d(np.arange(len(eta)), keep)
    lam_bb = lam[np.ix_(elim, elim)]
    threshold = PIVOT_RTOL * max(abs(float(np.trace(lam_bb))), 1e-100)
    with warnings.catch_warnings():  # an exactly singular block raises below
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(lam_bb)
    pivots = np.abs(np.diag(lu))
    if not np.all(np.isfinite(lu)) or pivots.min() < threshold:
        raise SingularBlockError(f"eliminated block singular: min pivot {pivots.min():.3e} < {threshold:.3e}")
    solved = lu_solve((lu, piv), np.column_stack([lam[np.ix_(elim, keep)], eta[elim]]))
    lam_ab = lam[np.ix_(keep, elim)]
    lam_new = lam[np.ix_(keep, keep)] - lam_ab @ solved[:, :-1]
    return eta[keep] - lam_ab @ solved[:, -1], 0.5 * (lam_new + lam_new.T)


def message(factor, keep, incoming, prev=None, damping=0.0):
    """One factor-to-variable message: `incoming`, the other side's input,
    is folded into the eliminated block of `factor`, which is marginalised
    onto `keep` (a slice of its 9 dimensions), and eta is damped against
    `prev`: (1 - d) eta_new + d eta_prev.  lam is never damped."""
    keep = np.arange(9)[keep]
    elim = np.setdiff1d(np.arange(9), keep)
    eta, lam = (x.copy() for x in factor)
    eta[elim] += incoming[0]
    lam[np.ix_(elim, elim)] += incoming[1]
    eta, lam = marginalize(eta, lam, keep)
    if damping > 0.0 and prev is not None:
        eta = (1.0 - damping) * eta + damping * prev[0]
    return eta, lam


def stored_message(graph, kind, m):
    """Factor `m`'s stored message to `kind`, (J_K' v, J_K' S J_K) with J_K
    the kind's columns of its `f_jac` and S, v from `graph.message(kind)`."""
    s, v = (a[m] for a in graph.message(kind))
    jac = graph.f_jac[m, :, kind.cols]
    lam = jac.T @ np.array([[s[0], s[1]], [s[1], s[2]]]) @ jac
    return jac.T @ v, 0.5 * (lam + lam.T)


def rest_of_star(graph, kind, m):
    """The belief of factor `m`'s `kind` variable without `m`'s message: the
    variable's prior times the stored messages of its other factors."""
    ids = graph.adjacent(kind)
    prior_eta, prior_diag = (a[ids[m]] for a in graph.prior_information(kind))
    eta, lam = prior_eta.copy(), np.diag(prior_diag)
    for j in np.flatnonzero(ids == ids[m]):
        if j != m:
            eta, lam = (a + b for a, b in zip((eta, lam), stored_message(graph, kind, j)))
    return eta, lam


def belief(graph, kind, i):
    """Variable `i` of `kind`'s belief (eta, lam), lam symmetrised."""
    lam = graph.var(kind, "belief_lam")[i]
    return graph.var(kind, "belief_eta")[i].copy(), 0.5 * (lam + lam.T)
