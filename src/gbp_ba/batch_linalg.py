"""Vectorised Cholesky solves for stacks of small symmetric matrices.

The message phase needs thousands of independent 3x3 and 6x6 solves per
iteration, with numerically singular members masked out instead of aborting
the batch (numpy's batched solve raises on the whole stack).  The
factorisation loops run over the tiny fixed dimension, so every array op is
vectorised over the stack axis.
"""

from __future__ import annotations

import numpy as np

PIVOT_RTOL = 1e-12


def cholesky_masked(mats: np.ndarray, pivot_rtol: float = PIVOT_RTOL):
    """Lower-triangular factors of a (N, d, d) symmetric stack.

    Returns (L, ok) where ok[n] is False if any pivot of matrix n fell below
    pivot_rtol * trace; rows with ok False contain garbage factors and must be
    masked by the caller.
    """
    mats = np.asarray(mats)
    n, d, _ = mats.shape
    trace = np.einsum("nii->n", mats)
    threshold = pivot_rtol * np.maximum(np.abs(trace), 1e-100)
    lower = np.zeros_like(mats)
    ok = np.ones(n, dtype=bool)
    for j in range(d):
        pivot = mats[:, j, j] - np.einsum("nk,nk->n", lower[:, j, :j], lower[:, j, :j])
        ok &= pivot > threshold
        diag = np.sqrt(np.where(pivot > threshold, pivot, 1.0))
        lower[:, j, j] = diag
        if j + 1 < d:
            below = mats[:, j + 1 :, j] - np.einsum(
                "nik,nk->ni", lower[:, j + 1 :, :j], lower[:, j, :j]
            )
            lower[:, j + 1 :, j] = below / diag[:, None]
    return lower, ok


def solve_cholesky(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (L L') x = rhs for (N, d, d) factors and (N, d, k) right-hand
    sides, in the common float type of the two."""
    n, d, _ = lower.shape
    y = np.zeros(rhs.shape, np.result_type(lower, rhs, 1.0))
    for i in range(d):
        acc = rhs[:, i] - np.einsum("nj,njk->nk", lower[:, i, :i], y[:, :i])
        y[:, i] = acc / lower[:, i, i][:, None]
    x = np.zeros_like(y)
    for i in range(d - 1, -1, -1):
        acc = y[:, i] - np.einsum("nj,njk->nk", lower[:, i + 1 :, i], x[:, i + 1 :])
        x[:, i] = acc / lower[:, i, i][:, None]
    return x


def solve_spd_masked(mats: np.ndarray, rhs: np.ndarray, pivot_rtol: float = PIVOT_RTOL):
    """Masked batch solve of symmetric positive-definite systems.

    Returns (x, ok).  Rows where ok is False are not valid solutions.
    """
    lower, ok = cholesky_masked(mats, pivot_rtol)
    return solve_cholesky(lower, rhs), ok
