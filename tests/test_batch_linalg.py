import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbp_ba import build, perturb, synthesize
from gbp_ba.batch_linalg import PIVOT_RTOL, _cholesky_cm, component_major, solve_spd_masked


def random_spd_stack(rng, n, d, cond=100.0):
    mats = np.empty((n, d, d))
    for i in range(n):
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        mats[i] = q @ np.diag(np.linspace(1.0, cond, d)) @ q.T
    return mats


def test_matches_numpy_solve():
    rng = np.random.default_rng(0)
    for d in (1, 3, 6):
        mats = random_spd_stack(rng, 50, d)
        rhs = rng.normal(size=(50, d, 4))
        x, ok = solve_spd_masked(mats, rhs)
        assert ok.all()
        np.testing.assert_allclose(x, np.linalg.solve(mats, rhs), rtol=1e-9, atol=1e-11)


def test_masks_singular_members():
    rng = np.random.default_rng(1)
    mats = random_spd_stack(rng, 10, 3)
    mats[4] = 0.0
    v = rng.normal(size=3)
    mats[7] = np.outer(v, v)  # rank 1
    rhs = rng.normal(size=(10, 3, 1))
    x, ok = solve_spd_masked(mats, rhs)
    assert not ok[4] and not ok[7]
    assert ok.sum() == 8
    good = np.flatnonzero(ok)
    np.testing.assert_allclose(x[good], np.linalg.solve(mats[good], rhs[good]), rtol=1e-9)
    assert np.all(np.isfinite(x))  # masked rows still finite garbage, not inf/nan


def test_masks_indefinite_members():
    rng = np.random.default_rng(2)
    mats = random_spd_stack(rng, 5, 3)
    mats[2] = np.diag([1.0, -1.0, 1.0])
    _, ok = solve_spd_masked(mats, np.ones((5, 3, 1)))
    assert not ok[2] and ok.sum() == 4


def test_factor_reconstructs():
    # the kernel behind solve_spd_masked, on the component-major view
    rng = np.random.default_rng(3)
    mats = random_spd_stack(rng, 20, 6)
    lower, ok = _cholesky_cm(component_major(mats))
    lower = lower.transpose(2, 0, 1)
    assert ok.all()
    np.testing.assert_allclose(lower @ np.swapaxes(lower, 1, 2), mats, rtol=1e-10, atol=1e-12)


def test_solve_identity_gives_inverse():
    rng = np.random.default_rng(4)
    mats = random_spd_stack(rng, 8, 4)
    eye = np.broadcast_to(np.eye(4), (8, 4, 4)).copy()
    inv, _ = solve_spd_masked(mats, eye)
    np.testing.assert_allclose(mats @ inv, eye, atol=1e-9)


def test_chunk_invariance_bitwise():
    # solving a sub-stack must give bitwise identical results to the full stack
    rng = np.random.default_rng(5)
    mats = random_spd_stack(rng, 64, 6)
    rhs = rng.normal(size=(64, 6, 7))
    full, _ = solve_spd_masked(mats, rhs)
    for sl in (slice(0, 16), slice(16, 64), slice(3, 5)):
        part, _ = solve_spd_masked(mats[sl], rhs[sl])
        np.testing.assert_array_equal(part, full[sl])


def bad_member(kind, d, rng):
    """A (d, d) matrix that the masked solve must reject: all zero, rank
    deficient with exactly zero pivots (a rank-1 outer product of small
    integers, or a positive-definite block padded with a zero row and
    column), or indefinite."""
    if kind == "indefinite":
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        eigs = np.linspace(1.0, 10.0, d)
        eigs[rng.integers(d)] = -rng.uniform(0.5, 5.0)
        return q @ np.diag(eigs) @ q.T
    if kind == "zero" or d == 1:  # a 1x1 matrix is rank deficient only when zero
        return np.zeros((d, d))
    if kind == "rank1":
        v = rng.integers(1, 5, size=d).astype(float)
        return np.outer(v, v)
    out = np.zeros((d, d))
    out[1:, 1:] = random_spd_stack(rng, 1, d - 1)[0]
    perm = rng.permutation(d)
    return out[np.ix_(perm, perm)]


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([1, 2, 3, 6]),
    k=st.integers(1, 7),
    dtype=st.sampled_from([np.float32, np.float64]),
    kinds=st.lists(
        st.sampled_from(["good", "zero", "rank1", "padded", "indefinite"]), min_size=1, max_size=12
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_masked_solve_property(d, k, dtype, kinds, seed):
    rng = np.random.default_rng(seed)
    mats = random_spd_stack(rng, len(kinds), d, cond=50.0)
    good = np.array([kind == "good" for kind in kinds])
    for i, kind in enumerate(kinds):
        if kind != "good":
            mats[i] = bad_member(kind, d, rng)
    rhs = rng.normal(size=(len(kinds), d, k))
    mats, rhs = mats.astype(dtype), rhs.astype(dtype)
    # the solve reads only the lower triangle
    upper = np.triu(np.ones((d, d), bool), 1)
    x, ok = solve_spd_masked(np.where(upper, np.nan, mats).astype(dtype), rhs)
    assert x.shape == rhs.shape and x.dtype == dtype
    np.testing.assert_array_equal(ok, good)
    assert np.all(np.isfinite(x))
    if good.any():
        rtol = 1e-4 if dtype == np.float32 else 1e-10
        want = np.linalg.solve(mats[good].astype(float), rhs[good].astype(float))
        np.testing.assert_allclose(x[good], want, rtol=rtol, atol=rtol * np.abs(want).max())


def test_float32_rank_deficient_systems_are_masked_and_finite():
    # the first-round message systems of a scene in float32: w J_E'J_E of
    # each rank-2 factor with right-hand sides [J_E' | w J_E't]
    problem = perturb(synthesize(8, 250, seed=3, pixel_sigma=1), 0.05, "backproject", seed=3)
    graph = build(problem).astype(np.float32)
    eta, lam = graph.factor_information(slice(None))
    for cols in (slice(0, 6), slice(6, 9)):
        rhs = np.concatenate([np.swapaxes(graph.f_jac[:, :, cols], 1, 2), eta[:, cols, None]], axis=2)
        with np.errstate(over="raise", invalid="raise"):
            x, ok = solve_spd_masked(lam[:, cols, cols], rhs)
        assert not ok.any()
        assert np.all(np.isfinite(x))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_pivot_rule_at_its_threshold(dtype):
    # a pivot passes where it exceeds rtol |trace|, rtol PIVOT_RTOL in
    # float64 and 4500 eps in float32: members whose first or last pivot is
    # half or twice that are masked or accepted.  The last pivot is also
    # taken as the Schur complement of L D L' with L full of ones below its
    # diagonal, so the earlier columns' sums reach it
    rtol = max(PIVOT_RTOL, 4500 * float(np.finfo(dtype).eps))
    for d in (3, 6):
        lower = np.tril(np.ones((d, d)))
        mats, want = [], []
        for where in (0, d - 1):
            pivots = np.ones(d)
            pivots[where] = 0.0
            for shape in [np.eye(d)] + [lower] * (where == d - 1):
                rest = np.trace(shape @ np.diag(pivots) @ shape.T)  # the trace but for the pivot
                for factor in (0.5, 2.0):
                    pivots[where] = factor * rtol * rest / (1 - factor * rtol)  # factor * rtol * trace
                    mats.append(shape @ np.diag(pivots) @ shape.T)
                    want.append(factor > 1)
                pivots[where] = 0.0
        mats = np.array(mats).astype(dtype)
        _, ok = solve_spd_masked(mats, np.ones((len(mats), d, 1), dtype))
        np.testing.assert_array_equal(ok, want, err_msg=f"{d=}")
