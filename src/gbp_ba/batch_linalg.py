"""Batched kernels over stacks of small arrays: masked Cholesky solves.

The belief phase needs one 3x3 or 6x6 factorisation per variable and
iteration, with numerically singular members masked out instead of
aborting the batch (numpy's batched solve raises on the whole stack).  The
kernels work component-major: entry (i, j) of every matrix in the stack is
one contiguous length-N vector, and the factorisation and the substitutions
are loops unrolled over the tiny dimension, so every step is one vector
operation over the stack.  The factorisation reads only the lower triangle
of each matrix.  The public functions take and return the usual (N, d, d) /
(N, d, k) shapes and read their inputs through the view `component_major`:
a stack that is the (N, ...) view of a contiguous component-major array
(every factor-graph array is one) costs no copy and is read as contiguous
vectors.  The results are views of component-major arrays.

It also holds what the passes over every factor row share: `BLOCK_ROWS`,
`_plan`, their stretches cut into dense keyframe runs' pieces and the rows
between them, `_consecutive` rows as a slice, and `_contract`, an einsum.
"""

from __future__ import annotations

import numpy as np

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


def _dot(pairs):
    """Sum of a * b over `pairs`, with the even and the odd terms in two
    accumulators that are added at the end; 0.0 if there are none."""
    acc = [0.0, 0.0]
    for k, (a, b) in enumerate(pairs):
        acc[k % 2] = acc[k % 2] + a * b
    return acc[0] + acc[1]


def _cholesky_cm(mats: np.ndarray):
    # Only entries on and below the diagonal are read.  Each column is
    # formed in one step for all its rows: every entry is its matrix entry
    # minus a dot product of earlier factor entries, summed in the pairwise
    # order of `_dot`, and the trace is summed in index order.
    # The pivots of a rank-deficient member are pure rounding, so whether
    # they pass the test depends on these orders; they are the ones numpy's
    # einsum uses for such short sums.
    # The pivot tolerance is PIVOT_RTOL in float64 and 4500 eps, about
    # 5.4e-4, in float32, where rounding leaves pivots of up to 3e-4 |trace|
    # in a rank-2 3x3 or 6x6 system such as a factor's w J'J.  The engine
    # solves no such system, and its one call, phase C's, is in float64, so
    # the float32 rule serves direct callers only.
    rtol = max(PIVOT_RTOL, 4500 * float(np.finfo(mats.dtype).eps))
    d, _, n = mats.shape
    trace = sum(mats[i, i] for i in range(d))
    threshold = rtol * np.maximum(np.abs(trace), 1e-100)
    lower = np.zeros_like(mats)
    ok = np.ones(n, dtype=bool)
    for j in range(d):
        column = mats[j:, j] - _dot((lower[j:, k], lower[j, k]) for k in range(j))
        pivot = column[0]
        good = pivot > threshold
        ok &= good
        diag = np.sqrt(np.where(good, pivot, 1.0))
        lower[j, j] = diag
        # a failed pivot's column is zeroed below it, so the garbage factor of
        # a masked member stays within the size of its entries, and finite
        divisor = diag if good.all() else np.where(good, diag, np.inf)
        np.divide(column[1:], divisor, out=lower[j + 1 :, j])
    return lower, ok


def _forward_cm(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """y with L y = rhs, in the common float type of the two.  Once row j is
    solved it is subtracted from all later rows at once, so row i is still
    rhs[i] minus its terms in ascending j, divided by L[i, i]."""
    y = rhs.astype(np.result_type(lower, rhs, 1.0), copy=True)
    for j in range(lower.shape[0]):
        y[j] /= lower[j, j]
        y[j + 1 :] -= lower[j + 1 :, j, None] * y[j]
    return y


def _back_cm(lower: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x with L' x = y, in place of y: row i of y is last read at step i."""
    d, x = lower.shape[0], y
    for i in range(d - 1, -1, -1):
        acc = x[i]
        for j in range(i + 1, d):
            acc -= lower[j, i] * x[j]
        acc /= lower[i, i]
    return x


def solve_spd_masked(mats: np.ndarray, rhs: np.ndarray):
    """Masked batch solve of symmetric positive-definite systems: (N, d, d)
    matrices, of which only the lower triangle is read, and (N, d, k)
    right-hand sides.

    Returns (x, ok).  ok[n] is False where a pivot of matrix n fell below
    the dtype's pivot tolerance times its trace; those rows of x are finite
    garbage, not solutions.
    """
    lower, ok = _cholesky_cm(component_major(mats))
    x = _back_cm(lower, _forward_cm(lower, component_major(rhs)))
    return x.transpose(2, 0, 1), ok


def _dense_runs(ids):
    """The runs of at least DENSE_RUN_ROWS consecutive rows that share their
    keyframe `ids`, cut at every DENSE_RUN_PIECE rows from their start, as
    sorted [start, stop) pieces.  They are sought only where some row
    equals the row DENSE_RUN_ROWS - 1 after it, as the first and last rows
    of a run do: a graph with no run pays that one comparison."""
    if not np.any(ids[DENSE_RUN_ROWS - 1 :] == ids[: max(ids.size - DENSE_RUN_ROWS + 1, 0)]):
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
    if rows.size and rows[-1] - rows[0] + 1 == rows.size and (np.diff(rows) == 1).all():
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
        return np.einsum(spec, x, y, out=out)
    one = np.einsum(spec, *(np.concatenate((a, a), axis=-1) for a in (x, y)))[..., :1]
    if out is None:
        return one
    out[...] = one
    return out
