"""Gaussian divergences: whitening, exact and regularized families, log density ratio."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from numpy.testing import assert_allclose

import gaussdiv as gd
from oracles import (
    bhatt_closed,
    hellinger_closed,
    kl_closed,
    perturbed_pair,
    rand_measure,
    renyi_closed,
)

HALF = gd.GaussianMeasure(np.zeros(1), np.array([[0.5]]))
UNIT = gd.GaussianMeasure(np.zeros(1), np.array([[1.0]]))


class TestEquivalenceData:
    def test_diagonal_example(self):
        nu = gd.GaussianMeasure([0.5, 0.0], np.diag([0.5, 2.0]))
        mu = gd.GaussianMeasure([0.0, 0.0], np.diag([1.0, 2.0]))
        data = gd.equivalence_data(nu, mu)
        assert_allclose(data.s_block.entries, np.diag([0.5, 0.0]), atol=1e-14)
        assert_allclose(data.delta, [0.5, 0.0], atol=1e-14)
        assert not data.singular

    def test_reconstruction(self):
        # mu.cov^{1/2} (I - S) mu.cov^{1/2} recovers nu.cov.
        rng = np.random.default_rng(42)
        for _ in range(20):
            dim = int(rng.integers(1, 10))
            nu = rand_measure(rng, dim)
            mu = rand_measure(rng, dim)
            data = gd.equivalence_data(nu, mu)
            w, v = np.linalg.eigh(mu.cov.entries)
            root = (v * np.sqrt(w)) @ v.T
            recon = root @ (np.eye(dim) - data.s_block.entries) @ root
            err = np.linalg.norm(recon - nu.cov.entries)
            assert err <= 1e-8 * (1.0 + np.linalg.norm(nu.cov.entries))

    def test_singular_flag(self):
        nu = gd.GaussianMeasure([0.0, 0.0], np.diag([1e-15, 1.0]))
        mu = gd.GaussianMeasure([0.0, 0.0], np.eye(2))
        assert gd.equivalence_data(nu, mu).singular

    def test_degenerate_base(self):
        nu = gd.GaussianMeasure([0.0, 0.0], np.eye(2))
        mu = gd.GaussianMeasure([0.0, 0.0], np.diag([1.0, 0.0]))
        with pytest.raises(gd.Degenerate):
            gd.equivalence_data(nu, mu)

    def test_dim_mismatch(self):
        with pytest.raises(gd.DimMismatch):
            gd.equivalence_data(UNIT, gd.GaussianMeasure(np.zeros(2), np.eye(2)))

    def test_ill_conditioned_base_warns(self):
        nu = gd.GaussianMeasure([0.0, 0.0], np.eye(2))
        mu = gd.GaussianMeasure([0.0, 0.0], np.diag([20.0, 1e-11]))
        with pytest.warns(gd.IllConditioned):
            gd.equivalence_data(nu, mu)


class TestExactKL:
    def test_scalar_frozen(self):
        assert gd.exact_kl(HALF, UNIT) == pytest.approx(0.09657359027997264, abs=1e-14)

    def test_diagonal_example(self):
        nu = gd.GaussianMeasure([0.5, 0.0], np.diag([0.5, 2.0]))
        mu = gd.GaussianMeasure([0.0, 0.0], np.diag([1.0, 2.0]))
        assert gd.exact_kl(nu, mu) == pytest.approx(0.22157359027997264, abs=1e-13)

    def test_matches_dense_closed_form(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            dim = int(rng.integers(1, 12))
            nu = rand_measure(rng, dim)
            mu = rand_measure(rng, dim)
            want = kl_closed(nu.mean, nu.cov.entries, mu.mean, mu.cov.entries)
            assert gd.exact_kl(nu, mu) == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_carleman_form(self):
        # Covariance part is the negated Carleman determinant of I - S.
        rng = np.random.default_rng(3)
        nu, mu = perturbed_pair(rng, 6)
        data = gd.equivalence_data(nu, mu)
        want = 0.5 * float(data.delta @ data.delta) - 0.5 * gd.carleman_logdet2(
            gd.TraceClassBlock(-data.s_block.entries)
        )
        assert abs(gd.exact_kl(nu, mu, data=data) - want) <= 1e-10

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(8)
        m = rand_measure(rng, 4)
        assert abs(gd.exact_kl(m, m)) <= 1e-12

    def test_precomputed_data_reused(self):
        rng = np.random.default_rng(9)
        nu, mu = perturbed_pair(rng, 4)
        data = gd.equivalence_data(nu, mu)
        assert gd.exact_kl(nu, mu, data=data) == gd.exact_kl(nu, mu)

    def test_data_from_another_pair_is_rejected(self):
        # Data whitened for (mu, mu) describes S = 0, delta = 0: reusing it for
        # (nu, mu) would report KL ~ 1e-29 where the true value is about 13.6.
        family = gd.SpectrumFamily.power_law(6, 2.0)
        nu = gd.gen_measure(family, 4, mean_scale=0.3)
        mu = gd.gen_measure(family, 3, mean_scale=0.3)
        assert gd.exact_kl(nu, mu) == pytest.approx(13.57, abs=0.01)
        foreign = gd.equivalence_data(mu, mu)
        with pytest.raises(ValueError):
            gd.exact_kl(nu, mu, data=foreign)
        with pytest.raises(ValueError):
            gd.exact_renyi(nu, mu, 0.5, data=foreign)
        with pytest.raises(ValueError):
            gd.log_radon_nikodym_batch(np.zeros((3, 6)), nu, mu, data=foreign)


class TestExactRenyi:
    def test_scalar_frozen(self):
        assert gd.exact_renyi(HALF, UNIT, 0.5) == pytest.approx(0.11778303565638348, abs=1e-14)

    def test_matches_dense_closed_form(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            dim = int(rng.integers(1, 10))
            nu = rand_measure(rng, dim)
            mu = rand_measure(rng, dim)
            for r in (0.25, 0.5, 0.75):
                want = renyi_closed(nu.mean, nu.cov.entries, mu.mean, mu.cov.entries, r)
                assert gd.exact_renyi(nu, mu, r) == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_matches_numerical_quadrature(self):
        # Fully independent route: integrate p_nu^r p_mu^{1-r} on the line.
        nu = gd.GaussianMeasure([0.3], [[0.7]])
        mu = gd.GaussianMeasure([-0.2], [[1.1]])
        p = scipy.stats.norm(0.3, math.sqrt(0.7)).pdf
        q = scipy.stats.norm(-0.2, math.sqrt(1.1)).pdf
        for r in (0.25, 0.5, 0.75):
            integral, _ = scipy.integrate.quad(lambda t: p(t) ** r * q(t) ** (1.0 - r), -30, 30)
            want = -math.log(integral) / (r * (1.0 - r))
            assert gd.exact_renyi(nu, mu, r) == pytest.approx(want, rel=1e-8)

    def test_order_limits_redirect_to_kl(self):
        rng = np.random.default_rng(4)
        nu, mu = perturbed_pair(rng, 5)
        assert gd.exact_renyi(nu, mu, 1.0) == gd.exact_kl(nu, mu)
        assert gd.exact_renyi(nu, mu, 0.0) == gd.exact_kl(mu, nu)

    def test_endpoint_continuity(self):
        rng = np.random.default_rng(5)
        nu, mu = perturbed_pair(rng, 6)
        eps = 1e-6
        assert abs(gd.exact_renyi(nu, mu, 1.0 - eps) - gd.exact_kl(nu, mu)) < 1e-4
        assert abs(gd.exact_renyi(nu, mu, eps) - gd.exact_kl(mu, nu)) < 1e-4

    def test_rejects_order_outside_unit_interval(self):
        with pytest.raises(ValueError):
            gd.exact_renyi(HALF, UNIT, 1.5)
        with pytest.raises(ValueError):
            gd.exact_renyi(HALF, UNIT, -0.1)


class TestBhattacharyyaHellinger:
    def test_scalar_frozen(self):
        assert gd.exact_bhattacharyya(HALF, UNIT) == pytest.approx(0.02944575891409587, abs=1e-14)
        assert gd.exact_hellinger(HALF, UNIT) == pytest.approx(0.24090021413586632, abs=1e-14)

    def test_quarter_renyi_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            nu, mu = perturbed_pair(rng, int(rng.integers(1, 8)))
            lhs = gd.exact_bhattacharyya(nu, mu)
            rhs = 0.25 * gd.exact_renyi(nu, mu, 0.5)
            assert abs(lhs - rhs) <= 1e-12

    def test_matches_dense_closed_form(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            dim = int(rng.integers(1, 9))
            nu = rand_measure(rng, dim)
            mu = rand_measure(rng, dim)
            want_b = bhatt_closed(nu.mean, nu.cov.entries, mu.mean, mu.cov.entries)
            want_h = hellinger_closed(nu.mean, nu.cov.entries, mu.mean, mu.cov.entries)
            assert gd.exact_bhattacharyya(nu, mu) == pytest.approx(want_b, rel=1e-10)
            assert gd.exact_hellinger(nu, mu) == pytest.approx(want_h, rel=1e-10)

    def test_hellinger_identity_and_range(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            nu, mu = perturbed_pair(rng, 5)
            d_b = gd.exact_bhattacharyya(nu, mu)
            d_h = gd.exact_hellinger(nu, mu)
            assert abs(d_h - math.sqrt(2.0 * (1.0 - math.exp(-d_b)))) <= 1e-12
            assert 0.0 <= d_h < math.sqrt(2.0)

    def test_symmetry(self):
        rng = np.random.default_rng(12)
        nu, mu = perturbed_pair(rng, 4)
        assert gd.exact_bhattacharyya(nu, mu) == pytest.approx(
            gd.exact_bhattacharyya(mu, nu), rel=1e-10
        )


class TestLogRadonNikodym:
    def test_scalar_frozen(self):
        assert gd.log_radon_nikodym(np.zeros(1), HALF, UNIT) == pytest.approx(
            0.5 * math.log(2.0), abs=1e-14
        )

    def test_mean_shift_frozen(self):
        nu = gd.GaussianMeasure([0.5], [[1.0]])
        assert gd.log_radon_nikodym(np.zeros(1), nu, UNIT) == pytest.approx(-0.125, abs=1e-14)
        assert gd.log_radon_nikodym(np.array([0.5]), nu, UNIT) == pytest.approx(0.125, abs=1e-14)

    def test_matches_density_ratio(self):
        # Same quantity through scipy's multivariate normal log densities.
        rng = np.random.default_rng(42)
        for _ in range(10):
            dim = int(rng.integers(1, 7))
            nu = rand_measure(rng, dim)
            mu = rand_measure(rng, dim)
            pts = rng.standard_normal((8, dim))
            got = gd.log_radon_nikodym_batch(pts, nu, mu)
            want = scipy.stats.multivariate_normal(nu.mean, nu.cov.entries).logpdf(
                pts
            ) - scipy.stats.multivariate_normal(mu.mean, mu.cov.entries).logpdf(pts)
            assert_allclose(got, want, atol=1e-9, rtol=1e-9)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        nu, mu = perturbed_pair(rng, 3)
        pts = rng.standard_normal((4, 3))
        batch = gd.log_radon_nikodym_batch(pts, nu, mu)
        singles = [gd.log_radon_nikodym(p, nu, mu) for p in pts]
        assert_allclose(batch, singles, rtol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            gd.log_radon_nikodym(np.zeros((2, 1)), HALF, UNIT)
        with pytest.raises(gd.DimMismatch):
            gd.log_radon_nikodym_batch(np.zeros((1, 2)), HALF, UNIT)
        with pytest.raises(ValueError):
            gd.log_radon_nikodym_batch(np.array([[math.nan]]), HALF, UNIT)


class TestRegularized:
    def test_scalar_frozen(self):
        nu = gd.GaussianMeasure(np.zeros(1), [[2.0]])
        assert gd.regularized_kl(nu, UNIT, 1.0) == pytest.approx(
            0.5 * (0.5 - math.log(1.5)), abs=1e-14
        )
        nu_m = gd.GaussianMeasure([1.0], [[2.0]])
        assert gd.regularized_kl(nu_m, UNIT, 1.0) == pytest.approx(
            0.25 + 0.5 * (0.5 - math.log(1.5)), abs=1e-14
        )

    def test_small_gamma_approaches_exact(self):
        rng = np.random.default_rng(42)
        nu, mu = perturbed_pair(rng, 6)
        exact = gd.exact_kl(nu, mu)
        errs = [abs(gd.regularized_kl(nu, mu, g) - exact) for g in (1e-2, 1e-4, 1e-6, 1e-8)]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 1e-5 * abs(exact)

    def test_matches_shifted_dense_closed_form(self):
        # Regularizing is literally shifting both covariances by gamma.
        rng = np.random.default_rng(6)
        gamma = 1e-2
        for _ in range(10):
            dim = int(rng.integers(1, 8))
            nu = rand_measure(rng, dim)
            mu = rand_measure(rng, dim)
            eye = gamma * np.eye(dim)
            want = kl_closed(nu.mean, nu.cov.entries + eye, mu.mean, mu.cov.entries + eye)
            assert gd.regularized_kl(nu, mu, gamma) == pytest.approx(want, rel=1e-9)
            for r in (0.25, 0.75):
                want_r = renyi_closed(
                    nu.mean, nu.cov.entries + eye, mu.mean, mu.cov.entries + eye, r
                )
                assert gd.regularized_renyi(nu, mu, r, gamma) == pytest.approx(want_r, rel=1e-9)

    def test_quarter_renyi_and_hellinger_identities(self):
        rng = np.random.default_rng(7)
        nu = rand_measure(rng, 5)
        mu = rand_measure(rng, 5)
        gamma = 1e-3
        d_b = gd.regularized_bhattacharyya(nu, mu, gamma)
        assert abs(d_b - 0.25 * gd.regularized_renyi(nu, mu, 0.5, gamma)) <= 1e-12
        d_h = gd.regularized_hellinger(nu, mu, gamma)
        assert abs(d_h - math.sqrt(2.0 * (1.0 - math.exp(-d_b)))) <= 1e-12

    def test_order_limits_redirect_to_kl(self):
        rng = np.random.default_rng(8)
        nu = rand_measure(rng, 4)
        mu = rand_measure(rng, 4)
        assert gd.regularized_renyi(nu, mu, 1.0, 1e-2) == gd.regularized_kl(nu, mu, 1e-2)
        assert gd.regularized_renyi(nu, mu, 0.0, 1e-2) == gd.regularized_kl(mu, nu, 1e-2)

    def test_finite_on_degenerate_covariances(self):
        # Rank-deficient on both sides: exact is undefined, regularized is not.
        nu = gd.GaussianMeasure([0.0, 0.0], np.diag([1.0, 0.0]))
        mu = gd.GaussianMeasure([0.0, 0.0], np.diag([0.0, 1.0]))
        for kind, r in (("kl", None), ("renyi", 0.5), ("bhatt", None), ("hellinger", None)):
            val = gd.regularized_divergence(nu, mu, kind, 1e-3, r)
            assert math.isfinite(val)

    def test_gamma_validation(self):
        with pytest.raises(gd.NotPositive):
            gd.regularized_kl(HALF, UNIT, 0.0)
        with pytest.raises(gd.NotPositive):
            gd.regularized_kl(HALF, UNIT, -1.0)
        with pytest.raises(gd.NotPositive):
            gd.regularized_kl(HALF, UNIT, math.nan)


class TestSingularAndDegenerate:
    def test_exact_divergences_raise_on_singular_pair(self):
        nu = gd.GaussianMeasure([0.0, 0.0], np.diag([1e-15, 1.0]))
        mu = gd.GaussianMeasure([0.0, 0.0], np.eye(2))
        with pytest.raises(gd.SingularPair):
            gd.exact_kl(nu, mu)
        with pytest.raises(gd.SingularPair):
            gd.exact_renyi(nu, mu, 0.5)
        with pytest.raises(gd.SingularPair):
            gd.exact_bhattacharyya(nu, mu)
        with pytest.raises(gd.SingularPair):
            gd.exact_hellinger(nu, mu)
        with pytest.raises(gd.SingularPair):
            gd.log_radon_nikodym(np.zeros(2), nu, mu)

    def test_degenerate_base_raises(self):
        nu = gd.GaussianMeasure([0.0], [[1.0]])
        mu = gd.GaussianMeasure([0.0], [[0.0]])
        with pytest.raises(gd.Degenerate):
            gd.exact_kl(nu, mu)


class TestGaussianMeasure:
    def test_rejects_negative_covariance(self):
        with pytest.raises(gd.NotPSD):
            gd.GaussianMeasure([0.0], [[-0.5]])

    def test_rejects_bad_mean(self):
        with pytest.raises(ValueError):
            gd.GaussianMeasure(np.zeros((2, 2)), np.eye(2))
        with pytest.raises(ValueError):
            gd.GaussianMeasure([math.nan], [[1.0]])
        with pytest.raises(gd.DimMismatch):
            gd.GaussianMeasure([0.0, 0.0], [[1.0]])

    def test_round_trip(self):
        rng = np.random.default_rng(42)
        m = rand_measure(rng, 3)
        again = gd.GaussianMeasure.from_dict(m.to_dict())
        assert_allclose(again.mean, m.mean)
        assert_allclose(again.cov.entries, m.cov.entries)
        with pytest.raises(ValueError):
            gd.GaussianMeasure.from_dict({"dim": 2, "mean": [0.0], "cov": [[1.0]]})
