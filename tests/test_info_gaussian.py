import numpy as np
import pytest

from gbp_ba import (
    DimensionMismatchError,
    InfoGaussian,
    SingularMarginalizationError,
    marginalize_onto,
    product,
    quotient,
)


def random_spd(rng, dim, cond=10.0):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eigs = np.linspace(1.0, cond, dim)
    return q @ np.diag(eigs) @ q.T


def random_gaussian(rng, dim):
    return InfoGaussian(rng.normal(size=dim), random_spd(rng, dim))


class TestConstruction:
    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            InfoGaussian(np.zeros(3), np.eye(2))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatchError):
            InfoGaussian(np.zeros(2), np.zeros((2, 3)))

    def test_rejects_asymmetry(self):
        lam = np.eye(2)
        lam[0, 1] = 1e-6
        with pytest.raises(ValueError, match="asymmetric"):
            InfoGaussian(np.zeros(2), lam)

    def test_tolerates_tiny_asymmetry(self):
        lam = np.eye(2)
        lam[0, 1] = 1e-12
        InfoGaussian(np.zeros(2), lam)

    def test_immutable(self):
        g = InfoGaussian(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            g.eta[0] = 1.0


class TestProduct:
    def test_zero_is_identity(self):
        rng = np.random.default_rng(0)
        g = random_gaussian(rng, 3)
        out = product(InfoGaussian.zero(3), g)
        np.testing.assert_array_equal(out.eta, g.eta)
        np.testing.assert_array_equal(out.lam, g.lam)

    def test_one_dim_componentwise(self):
        out = product(InfoGaussian([1.0], [[2.0]]), InfoGaussian([3.0], [[4.0]]))
        assert out.eta[0] == 4.0 and out.lam[0, 0] == 6.0

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            product(InfoGaussian.zero(2), InfoGaussian.zero(3))

    def test_matches_moments_space_oracle(self):
        # oracle: convert to moments, fold pairwise with the covariance-form
        # product (Sigma (S1+S2)^-1 ...), refit to information form
        rng = np.random.default_rng(1)
        for _ in range(20):
            gaussians = [random_gaussian(rng, 3) for _ in range(4)]
            result = gaussians[0]
            for g in gaussians[1:]:
                result = product(result, g)

            def moments(g):
                cov = np.linalg.inv(g.lam)
                return cov @ g.eta, 0.5 * (cov + cov.T)

            mean, cov = moments(gaussians[0])
            for g in gaussians[1:]:
                m2, c2 = moments(g)
                s = np.linalg.inv(cov + c2)
                mean, cov = c2 @ s @ mean + cov @ s @ m2, cov @ s @ c2
                cov = 0.5 * (cov + cov.T)
            lam = np.linalg.inv(cov)
            np.testing.assert_allclose(result.eta, lam @ mean, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(result.lam, 0.5 * (lam + lam.T), rtol=1e-8, atol=1e-10)

    def test_commutative_associative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b, c = (random_gaussian(rng, 4) for _ in range(3))
            ab = product(a, b)
            ba = product(b, a)
            np.testing.assert_allclose(ab.eta, ba.eta, rtol=1e-12)
            np.testing.assert_allclose(ab.lam, ba.lam, rtol=1e-12)
            left = product(product(a, b), c)
            right = product(a, product(b, c))
            np.testing.assert_allclose(left.eta, right.eta, rtol=1e-12)
            np.testing.assert_allclose(left.lam, right.lam, rtol=1e-12)


class TestQuotient:
    def test_self_quotient_is_zero(self):
        rng = np.random.default_rng(3)
        g = random_gaussian(rng, 3)
        out = quotient(g, g)
        assert np.all(out.eta == 0) and np.all(out.lam == 0)

    def test_inverts_product_exactly_on_integer_values(self):
        # float addition of small integers is exact, so (a+b)-b == a holds
        rng = np.random.default_rng(4)
        for _ in range(50):
            def integer_gaussian():
                eta = rng.integers(-50, 50, size=3).astype(float)
                m = rng.integers(-4, 5, size=(3, 3)).astype(float)
                return InfoGaussian(eta, m @ m.T)
            a, b = integer_gaussian(), integer_gaussian()
            back = quotient(product(a, b), b)
            np.testing.assert_array_equal(back.eta, a.eta)
            np.testing.assert_array_equal(back.lam, a.lam)

    def test_inverts_product_generic_floats(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = random_gaussian(rng, 5), random_gaussian(rng, 5)
            back = quotient(product(a, b), b)
            np.testing.assert_allclose(back.eta, a.eta, rtol=1e-14, atol=1e-14)
            np.testing.assert_allclose(back.lam, a.lam, rtol=1e-14, atol=1e-14)

    def test_recovers_rest_of_star_graph(self):
        # belief = prior * 4 messages; belief / msg_i == product of the others
        rng = np.random.default_rng(6)
        prior = random_gaussian(rng, 3)
        msgs = [random_gaussian(rng, 3) for _ in range(4)]
        belief = prior
        for m in msgs:
            belief = product(belief, m)
        for i in range(4):
            rest = prior
            for j, m in enumerate(msgs):
                if j != i:
                    rest = product(rest, m)
            rec = quotient(belief, msgs[i])
            np.testing.assert_allclose(rec.eta, rest.eta, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(rec.lam, rest.lam, rtol=1e-12, atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            quotient(InfoGaussian.zero(2), InfoGaussian.zero(4))


class TestMarginalize:
    def test_block_diagonal_identity(self):
        rng = np.random.default_rng(7)
        a = random_spd(rng, 3)
        b = random_spd(rng, 2)
        lam = np.block([[a, np.zeros((3, 2))], [np.zeros((2, 3)), b]])
        eta = rng.normal(size=5)
        out = marginalize_onto(InfoGaussian(eta, lam), [0, 1, 2])
        np.testing.assert_allclose(out.eta, eta[:3], rtol=1e-14)
        np.testing.assert_allclose(out.lam, a, rtol=1e-14)

    def test_hand_schur_complement(self):
        out = marginalize_onto(InfoGaussian([0.0, 0.0], [[1.0, -1.0], [-1.0, 2.0]]), [0])
        assert out.eta[0] == 0.0
        np.testing.assert_allclose(out.lam[0, 0], 0.5, rtol=1e-15)

    def test_matches_covariance_space_oracle(self):
        # oracle: invert the full matrix, drop rows/cols, invert back
        rng = np.random.default_rng(8)
        for _ in range(20):
            joint = InfoGaussian(rng.normal(size=9), random_spd(rng, 9, cond=50.0))
            keep = np.arange(6)
            out = marginalize_onto(joint, keep)
            cov = np.linalg.inv(joint.lam)
            mean = cov @ joint.eta
            lam_kept = np.linalg.inv(cov[np.ix_(keep, keep)])
            np.testing.assert_allclose(out.lam, lam_kept, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(out.eta, lam_kept @ mean[keep], rtol=1e-8, atol=1e-10)

    def test_psd_preserved(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            joint = InfoGaussian(rng.normal(size=6), random_spd(rng, 6, cond=1e4))
            out = marginalize_onto(joint, [0, 1, 2])
            eigs = np.linalg.eigvalsh(out.lam)
            assert eigs[0] >= -1e-8 * max(1.0, np.trace(out.lam))

    def test_result_symmetric(self):
        rng = np.random.default_rng(10)
        joint = InfoGaussian(rng.normal(size=5), random_spd(rng, 5))
        out = marginalize_onto(joint, [1, 3])
        np.testing.assert_array_equal(out.lam, out.lam.T)

    def test_singular_block_raises_with_block(self):
        lam = np.zeros((3, 3))
        lam[0, 0] = 1.0
        with pytest.raises(SingularMarginalizationError) as exc:
            marginalize_onto(InfoGaussian(np.zeros(3), lam), [0])
        assert exc.value.block.shape == (2, 2)

    def test_accepts_slice(self):
        rng = np.random.default_rng(11)
        joint = InfoGaussian(rng.normal(size=4), random_spd(rng, 4))
        a = marginalize_onto(joint, slice(0, 2))
        b = marginalize_onto(joint, [0, 1])
        np.testing.assert_array_equal(a.lam, b.lam)

