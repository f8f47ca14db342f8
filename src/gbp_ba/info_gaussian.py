"""Information-form Gaussian algebra.

A Gaussian N(mu, Sigma) is stored by its natural parameters (eta, lam) with
lam = Sigma^-1 and eta = Sigma^-1 mu, so the log-density is
-x' lam x / 2 + eta' x + const.  The information form represents rank-deficient
constraints directly (a reprojection factor pins down only 2 of 9 degrees of
freedom), and multiplying densities is plain addition of parameters.

This is the scalar reference: the graph's snapshot views (`FactorGraph.keyframe`,
`landmark`, `factor`) and the engine's `pairwise_message` speak InfoGaussian,
and the engine's batched phases are tested against them.  All operations are
pure functions and InfoGaussian values are immutable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from .batch_linalg import PIVOT_RTOL

SYMMETRY_ATOL = 1e-10


class DimensionMismatchError(ValueError):
    """Operands of an information-form operation differ in dimension."""


class SingularMarginalizationError(np.linalg.LinAlgError):
    """The eliminated block of a marginalisation is numerically singular."""

    def __init__(self, message: str, block: np.ndarray):
        super().__init__(message)
        self.block = np.array(block)


@dataclass(frozen=True)
class InfoGaussian:
    """Gaussian in information form: eta = Sigma^-1 mu, lam = Sigma^-1."""

    eta: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        eta = np.array(self.eta, dtype=float).reshape(-1)
        lam = np.array(self.lam, dtype=float)
        if lam.ndim == 0:
            lam = lam.reshape(1, 1)
        if lam.ndim != 2 or lam.shape[0] != lam.shape[1]:
            raise DimensionMismatchError(f"lam must be square, got shape {lam.shape}")
        if lam.shape[0] != eta.shape[0]:
            raise DimensionMismatchError(
                f"eta has dim {eta.shape[0]} but lam is {lam.shape[0]}x{lam.shape[1]}"
            )
        asym = np.max(np.abs(lam - lam.T)) if lam.size else 0.0
        if asym > SYMMETRY_ATOL:
            raise ValueError(f"lam asymmetric: max |lam - lam'| = {asym:.3e}")
        eta.flags.writeable = False
        lam.flags.writeable = False
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "lam", lam)

    @property
    def dim(self) -> int:
        return self.eta.shape[0]

    @classmethod
    def zero(cls, dim: int) -> "InfoGaussian":
        """The multiplicative identity: a totally uninformative Gaussian."""
        return cls(np.zeros(dim), np.zeros((dim, dim)))


def _check_dims(a: InfoGaussian, b: InfoGaussian, op: str) -> None:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"{op}: dimensions {a.dim} and {b.dim} differ")


def product(a: InfoGaussian, b: InfoGaussian) -> InfoGaussian:
    """Product of two Gaussian densities: parameters add."""
    _check_dims(a, b, "product")
    return InfoGaussian(a.eta + b.eta, a.lam + b.lam)


def quotient(a: InfoGaussian, b: InfoGaussian) -> InfoGaussian:
    """Density quotient: parameters subtract.

    The result may be indefinite; it is a message, not a density.  Used to
    recover the product of all-but-one incoming messages from a belief.
    """
    _check_dims(a, b, "quotient")
    return InfoGaussian(a.eta - b.eta, a.lam - b.lam)


def _as_index_array(keep_dims, dim: int) -> np.ndarray:
    if isinstance(keep_dims, slice):
        return np.arange(dim)[keep_dims]
    idx = np.asarray(keep_dims, dtype=int).reshape(-1)
    if idx.size == 0:
        raise ValueError("keep_dims is empty")
    if np.any(idx < 0) or np.any(idx >= dim) or len(np.unique(idx)) != idx.size:
        raise ValueError(f"keep_dims {idx} invalid for dimension {dim}")
    return idx


def marginalize_onto(joint: InfoGaussian, keep_dims) -> InfoGaussian:
    """Marginalise a joint onto `keep_dims` by Schur complement.

    eta' = eta_a - lam_ab lam_bb^-1 eta_b
    lam' = lam_aa - lam_ab lam_bb^-1 lam_ba

    Any conditioning of the eliminated block (e.g. an incoming message) must
    already be folded into `joint` by the caller.  The eliminated block is
    solved through an LU factorisation, never inverted explicitly; a pivot
    below PIVOT_RTOL times the block trace raises SingularMarginalizationError
    carrying the offending block.
    """
    keep = _as_index_array(keep_dims, joint.dim)
    elim = np.setdiff1d(np.arange(joint.dim), keep)
    if elim.size == 0:
        return joint
    lam_bb = joint.lam[np.ix_(elim, elim)]
    lam_ba = joint.lam[np.ix_(elim, keep)]
    lam_ab = joint.lam[np.ix_(keep, elim)]
    eta_b = joint.eta[elim]

    threshold = PIVOT_RTOL * max(abs(float(np.trace(lam_bb))), 1e-100)
    try:
        with warnings.catch_warnings():  # an exactly singular block raises below
            warnings.simplefilter("ignore", LinAlgWarning)
            lu, piv = lu_factor(lam_bb)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - scipy raises rarely
        raise SingularMarginalizationError(str(exc), lam_bb) from exc
    pivots = np.abs(np.diag(lu))
    if not np.all(np.isfinite(lu)) or np.min(pivots) < threshold:
        raise SingularMarginalizationError(
            f"eliminated block singular: min pivot {np.min(pivots):.3e} "
            f"< {threshold:.3e}",
            lam_bb,
        )
    solved = lu_solve((lu, piv), np.column_stack([lam_ba, eta_b]))
    lam_new = joint.lam[np.ix_(keep, keep)] - lam_ab @ solved[:, :-1]
    eta_new = joint.eta[keep] - lam_ab @ solved[:, -1]
    lam_new = 0.5 * (lam_new + lam_new.T)  # stop asymmetry drift
    return InfoGaussian(eta_new, lam_new)
