"""Batched kernels over stacks of small arrays: masked Cholesky solves and an
order-preserving scatter-add.

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
"""

from __future__ import annotations

import numpy as np

PIVOT_RTOL = 1e-12

# Per-factor work over the whole graph runs over blocks of this many rows,
# so each of its temporaries is at most a few MB whatever the size of the
# graph: they stay in cache, and the memory the process holds does not swing
# with the graph size.  The blocked passes: `FactorGraph.linearize_factors`
# (at build, in relinearising rounds and in the LM baseline), the squared
# Jacobian column sums of `refresh_priors`, the projection of `residuals`
# behind the ARE, the energy and the behind-camera count, the engine's
# phase A selection, the stretches that the engine's phases B and C both
# walk, and the rank check of `validate`.  A stretch is a block cut short
# or stretched so that it cuts no piece of a keyframe's dense run (see
# `engine`).  Each numpy call of phase B costs about 1 us besides its rows,
# so longer blocks pay: on 30k factors phase B takes a fifth less time in
# blocks of 6144 rows than of 4096, 8192 rows gain nothing more, and a
# relinearising round's extra heap then passes 400 B per factor (2 vCPU, one
# BLAS thread).
BLOCK_ROWS = 6144


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
    # The pivot tolerance is PIVOT_RTOL in float64.  In float32, rounding
    # leaves pivots of up to 3e-4 |trace| in the rank-2 systems w J'J of a
    # factor's 3x3 and 6x6 blocks, so there it is 4500 eps, about 5.4e-4.
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


def scatter_sum(ids: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """out[i] = sum of values[m] over the rows m with ids[m] == i, shape
    (n, *values.shape[1:]), in the dtype of `values`.

    Each output entry is summed in ascending row order starting from zero,
    the order `np.add.at` uses on a zero array, so the two agree bit for bit
    in float64.
    """
    columns = component_major(values.reshape(len(ids), int(np.prod(values.shape[1:]))))
    out = np.empty((columns.shape[0], n), values.dtype)
    for c, column in enumerate(columns):
        out[c] = np.bincount(ids, weights=column, minlength=n)
    return np.ascontiguousarray(out.T).reshape((n,) + values.shape[1:])
