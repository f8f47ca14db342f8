"""The Schur marginalisation and the factor-to-variable message of the scalar
reference against covariance-space oracles."""

import numpy as np
import pytest

from scalar_reference import SingularBlockError, marginalize, message

KF, LM = slice(0, 6), slice(6, 9)


def random_spd(rng, dim, cond=10.0):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eigs = np.linspace(1.0, cond, dim)
    return q @ np.diag(eigs) @ q.T


class TestMarginalize:
    def test_block_diagonal_identity(self):
        rng = np.random.default_rng(7)
        a = random_spd(rng, 3)
        b = random_spd(rng, 2)
        lam = np.block([[a, np.zeros((3, 2))], [np.zeros((2, 3)), b]])
        eta = rng.normal(size=5)
        out_eta, out_lam = marginalize(eta, lam, [0, 1, 2])
        np.testing.assert_allclose(out_eta, eta[:3], rtol=1e-14)
        np.testing.assert_allclose(out_lam, a, rtol=1e-14)

    def test_hand_schur_complement(self):
        eta, lam = marginalize(np.zeros(2), np.array([[1.0, -1.0], [-1.0, 2.0]]), [0])
        assert eta[0] == 0.0
        np.testing.assert_allclose(lam[0, 0], 0.5, rtol=1e-15)

    def test_matches_covariance_space_oracle(self):
        # oracle: invert the full matrix, drop rows/cols, invert back
        rng = np.random.default_rng(8)
        for _ in range(20):
            eta, lam = rng.normal(size=9), random_spd(rng, 9, cond=50.0)
            keep = np.arange(6)
            out_eta, out_lam = marginalize(eta, lam, keep)
            cov = np.linalg.inv(lam)
            mean = cov @ eta
            lam_kept = np.linalg.inv(cov[np.ix_(keep, keep)])
            np.testing.assert_allclose(out_lam, lam_kept, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(out_eta, lam_kept @ mean[keep], rtol=1e-8, atol=1e-10)

    def test_psd_preserved(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            _, lam = marginalize(rng.normal(size=6), random_spd(rng, 6, cond=1e4), [0, 1, 2])
            eigs = np.linalg.eigvalsh(lam)
            assert eigs[0] >= -1e-8 * max(1.0, np.trace(lam))

    def test_result_symmetric(self):
        rng = np.random.default_rng(10)
        _, lam = marginalize(rng.normal(size=5), random_spd(rng, 5), [1, 3])
        np.testing.assert_array_equal(lam, lam.T)

    def test_singular_block_raises(self):
        lam = np.zeros((3, 3))
        lam[0, 0] = 1.0
        with pytest.raises(SingularBlockError):
            marginalize(np.zeros(3), lam, [0])

    def test_accepts_slice(self):
        rng = np.random.default_rng(11)
        eta, lam = rng.normal(size=4), random_spd(rng, 4)
        a = marginalize(eta, lam, slice(0, 2))
        b = marginalize(eta, lam, [0, 1])
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


def random_factor(rng):
    """A 9-dim information form and an input on the landmark's 3 dims."""
    factor = rng.normal(size=9), random_spd(rng, 9, cond=50.0)
    return factor, (rng.normal(size=3), random_spd(rng, 3))


class TestMessage:
    def test_zero_input_is_the_factor_marginal(self):
        rng = np.random.default_rng(12)
        factor, _ = random_factor(rng)
        for keep, dim in ((KF, 3), (LM, 6)):
            got = message(factor, keep, (np.zeros(dim), np.zeros((dim, dim))))
            want = marginalize(*factor, keep)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    def test_matches_covariance_space_oracle(self):
        # oracle: the keyframe marginal of the factor times the input,
        # read off the inverted joint
        rng = np.random.default_rng(13)
        for _ in range(20):
            (eta, lam), incoming = random_factor(rng)
            got = message((eta, lam), KF, incoming)
            eta, lam = eta.copy(), lam.copy()
            eta[LM] += incoming[0]
            lam[LM, LM] += incoming[1]
            cov = np.linalg.inv(lam)
            lam_kept = np.linalg.inv(cov[KF, KF])
            np.testing.assert_allclose(got[1], lam_kept, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(got[0], lam_kept @ (cov @ eta)[KF], rtol=1e-8, atol=1e-10)

    def test_damping_mixes_eta_and_never_lam(self):
        rng = np.random.default_rng(14)
        factor, incoming = random_factor(rng)
        prev = rng.normal(size=6), random_spd(rng, 6)
        undamped = message(factor, KF, incoming, prev)
        damped = message(factor, KF, incoming, prev, damping=0.4)
        np.testing.assert_allclose(damped[0], 0.6 * undamped[0] + 0.4 * prev[0], rtol=1e-14, atol=1e-14)
        np.testing.assert_array_equal(damped[1], undamped[1])
