"""Batched kernels over stacks of small arrays: masked Cholesky solves.

The belief phase needs one 3x3 or 6x6 factorisation per variable and
iteration, with numerically singular members masked out instead of
aborting the batch (numpy's batched solve raises on the whole stack).  The
kernels work component-major: entry (i, j) of every matrix in the stack is
one contiguous length-N vector.  The factorisation and the inverse of its
factor are loops over the tiny dimension, a column or a row at a time, so
every step is one contraction or vector operation over the stack; the
factorisation reads only the lower triangle of each matrix.  The public
functions take and return the usual (N, d, d) / (N, d, k) shapes and read
their inputs through the view `component_major`: a stack that is the (N,
...) view of a contiguous component-major array (every factor-graph array
is one) costs no copy and is read as contiguous vectors, and any other is
copied to one.  The results are views of component-major arrays.

It also holds what the passes over every factor row share: `BLOCK_ROWS`,
`_plan`, their stretches cut into dense keyframe runs' pieces and the rows
between them, `_consecutive` rows as a slice, and `_contract`, an einsum.
"""

from __future__ import annotations

import numpy as np

try:  # einsum without its Python wrapper, which costs about 1 us a call
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # numpy before 2.0
    _einsum = np.einsum

PIVOT_RTOL = 1e-12

# Per-factor work over the whole graph runs over blocks of this many rows,
# so each of its temporaries is at most a few MB whatever the size of the
# graph: they stay in cache, and the memory the process holds does not swing
# with the graph size.  The blocked passes: `camera.project_many` and
# `jacobian_many`; the rank check of `validate`; and those that walk
# `_plan`'s stretches, which cut no piece of a dense run: the engine's one
# walk of phases A and B, whose A relinearises a stretch's due rows in one
# `FactorGraph.linearize_factors`, phase C, and the projections of
# `linearize_factors` and of `residuals` (the ARE, the energy and the
# behind-camera count).  Each numpy call of phase B costs about 1 us besides
# its rows, so longer blocks pay: on 30k factors phase B takes a fifth less
# time in blocks of 6144 rows than of 4096, and 8192 rows gain nothing but
# a quarter more heap in a relinearising round (2 vCPU, one BLAS thread).
BLOCK_ROWS = 6144

# A dense run is at least DENSE_RUN_ROWS consecutive factor rows of one
# keyframe, as its measurements are added together, cut into pieces every
# DENSE_RUN_PIECE rows from its start.  A piece shares its keyframe's
# camera, B^-1 and mean: the projection takes one camera column for it,
# phase B one matrix product with its B^-1 and phase C sums its messages in
# two products; other rows are gathered one by one.  The pieces bound the
# temporaries of these passes by the longer of BLOCK_ROWS and
# DENSE_RUN_PIECE, not by the longest run: phase B holds about 650 B per
# row of its longest stretch in a plain float64 round.  A run costs some
# tens of us of calls in each phase, so a short run is cheaper row by row:
# phases B and C together break even between 112 and 128 rows per run
# (12k-factor scenes of 64-320 rows per keyframe, 2 vCPU, one BLAS thread),
# and a run is dense from 128.
DENSE_RUN_ROWS = 128
DENSE_RUN_PIECE = 6144


def component_major(stack: np.ndarray) -> np.ndarray:
    """(N, ...) -> (..., N), a view: the base itself for an (N, ...) view of
    a contiguous component-major array."""
    return stack.transpose(*range(1, stack.ndim), 0)


def _cholesky_cm(mats: np.ndarray):
    # Only entries on and below the diagonal are read.  Each column is
    # formed in one step for all its rows: its matrix entries minus one
    # contraction over the earlier columns, each entry's sum in ascending
    # order (see `_contract`).  The pivots of a rank-deficient member are
    # pure rounding, so whether they pass the test depends on that order.
    # The pivot tolerance is PIVOT_RTOL in float64 and 4500 eps, about
    # 5.4e-4, in float32, where rounding leaves pivots of up to 3e-4 |trace|
    # in a rank-2 3x3 or 6x6 system such as a factor's w J'J.  The engine
    # solves no such system, and its one call, phase C's, is in float64, so
    # the float32 rule serves direct callers only.
    rtol = max(PIVOT_RTOL, 4500 * float(np.spacing(mats.dtype.type(1))))  # eps, without np.finfo's cost
    d, _, n = mats.shape
    threshold = np.abs(_einsum("iin->n", mats))
    np.maximum(threshold, 1e-100, out=threshold)
    threshold *= rtol
    # a failed pivot's diagonal entry is 1 and its column zero below it, so
    # the garbage factor of a masked member stays within the size of its
    # entries, and finite
    lower, good = np.zeros(mats.shape, mats.dtype), np.empty((d, n), dtype=bool)
    diag = _diagonal(lower)
    diag[...] = 1.0
    for j in range(d):
        column = mats[j:, j] - _contract("ikn,kn->in", lower[j:, :j], lower[j, :j]) if j else mats[:, 0]
        np.greater(column[0], threshold, out=good[j])
        np.sqrt(column[0], out=diag[j], where=good[j])
        np.divide(column[1:], diag[j], out=lower[j + 1 :, j], where=good[j])
    return lower, np.logical_and.reduce(good)


def _diagonal(stack: np.ndarray) -> np.ndarray:
    """The diagonal (d, n) of a C-contiguous (d, k, n) stack, k >= d, a view."""
    return stack.reshape(-1, stack.shape[-1])[:: stack.shape[1] + 1]


def _inverse_lower_cm(lower: np.ndarray) -> np.ndarray:
    """L^-1 of lower-triangular L (d, d, n), C-contiguous, a row at a time:
    row i is minus one contraction of L's row i with the rows before it,
    times 1 / L[i, i], its diagonal entry."""
    inv = np.zeros(lower.shape, lower.dtype)
    scale = -np.reciprocal(_diagonal(lower), out=_diagonal(inv))
    for i in range(1, lower.shape[0]):
        np.multiply(_contract("kjn,kn->jn", inv[:i, :i], lower[i, :i]), scale[i], out=inv[i, :i])
    return inv


def solve_spd_masked(mats: np.ndarray, rhs: np.ndarray):
    """Masked batch solve of symmetric positive-definite systems: (N, d, d)
    matrices, of which only the lower triangle is read, and (N, d, k)
    right-hand sides.

    Returns (x, ok).  ok[n] is False where a pivot of matrix n fell below
    the dtype's pivot tolerance times its trace; those rows of x are finite
    garbage, not solutions.  x is L^-T (L^-1 rhs), two contractions with
    the inverse Cholesky factor, so the columns that solve for an identity
    block, B^-1 = L^-T L^-1, are exactly symmetric.
    """
    mats, rhs = np.ascontiguousarray(component_major(mats)), np.ascontiguousarray(component_major(rhs))
    lower, ok = _cholesky_cm(mats)
    inv = _inverse_lower_cm(lower)
    x = _contract("kin,kjn->ijn", inv, _contract("ikn,kjn->ijn", inv, rhs))
    return x.transpose(2, 0, 1), ok


def _dense_runs(ids):
    """The runs of at least DENSE_RUN_ROWS consecutive rows that share their
    keyframe `ids`, cut at every DENSE_RUN_PIECE rows from their start, as
    sorted [start, stop) pieces.  They are sought only where some row
    equals the row DENSE_RUN_ROWS - 1 after it, as the first and last rows
    of a run do: a graph with no run pays that one comparison."""
    if not (ids[DENSE_RUN_ROWS - 1 :] == ids[: max(ids.size - DENSE_RUN_ROWS + 1, 0)]).any():
        return []
    change = ids[1:] != ids[:-1]
    bounds = np.concatenate(([0], np.flatnonzero(change) + 1, [ids.size]))
    long = np.flatnonzero(np.diff(bounds) >= DENSE_RUN_ROWS)
    return [
        (i, min(i + DENSE_RUN_PIECE, b))
        for a, b in zip(bounds[long].tolist(), bounds[long + 1].tolist())
        for i in range(a, b, DENSE_RUN_PIECE)
    ]


def _plan(ids):
    """The plan of a pass over factor rows of keyframes `ids`: [start, stop)
    stretches, each tiled in order by its parts (a, b, dense).  A dense part
    is a piece of a `_dense_runs` run, rows of one keyframe; between pieces
    lies at most one other part, rows to gather one by one.  A stretch is a
    block of BLOCK_ROWS rows cut short at the start of a piece that crosses
    its end, or that one piece where it starts at the block's start."""
    pieces, plan, start, k = _dense_runs(ids), [], 0, 0
    while start < ids.size:
        stop, parts, at = min(start + BLOCK_ROWS, ids.size), [], start
        for a, b in pieces[k:]:
            if a >= stop or b > stop and a > start:  # past the end or across it
                stop = min(stop, a)
                break
            parts += [(at, a, False)] * (a > at) + [(a, b, True)]
            at, stop, k = b, max(stop, b), k + 1
        plan.append((start, stop, parts + [(at, stop, False)] * (at < stop)))
        start = stop
    return plan


def _consecutive(rows):
    """Integer `rows` as a slice where they ascend one by one, so that they
    index through views, else (also where there are none) as they are."""
    if rows.size and rows[-1] - rows[0] + 1 == rows.size and (rows[1:] - rows[:-1] == 1).all():
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


def _contract(spec, x, y, out=None):
    """`np.einsum(spec, x, y)` of operands whose last axis, n factor rows,
    it keeps and whose second-to-last it sums; an operand of one row there
    broadcasts over the other's.  With n >= 2 rows contiguous in memory the
    rows are einsum's inner loop, so each row's sum runs in ascending order,
    the bits of a loop of row-wise products; strided rows, or a single row,
    would make the sum the inner loop, in another order, so a single row is
    taken twice."""
    if x.shape[-1] != 1 or y.shape[-1] != 1:
        return _einsum(spec, x, y) if out is None else _einsum(spec, x, y, out=out)
    one = _einsum(spec, *(np.concatenate((a, a), axis=-1) for a in (x, y)))[..., :1]
    if out is None:
        return one
    out[...] = one
    return out
