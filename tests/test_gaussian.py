"""Gaussian divergences: whitening, exact and regularized families, log density ratio."""

import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.stats
from numpy.testing import assert_allclose

import gaussdiv as gd
from gaussdiv import gaussian
from oracles import (
    bhatt_closed,
    exact_renyi_reference,
    far_pair,
    hellinger_closed,
    kl_closed,
    overflowing_mean_pair,
    perturbed_pair,
    rand_measure,
    renyi_closed,
    rounded_zero_pair,
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
        # With the base's Cholesky factor, mu.cov = L L^T and L (I - S) L^T = nu.cov.
        rng = np.random.default_rng(42)
        for _ in range(20):
            dim = int(rng.integers(1, 10))
            nu = rand_measure(rng, dim)
            mu = rand_measure(rng, dim)
            data = gd.equivalence_data(nu, mu)
            factor = data.base_factor
            assert np.array_equal(factor, np.tril(factor))
            assert_allclose(factor @ factor.T, mu.cov.entries, atol=1e-13)
            recon = factor @ (np.eye(dim) - data.s_block.entries) @ factor.T
            err = np.linalg.norm(recon - nu.cov.entries)
            assert err <= 1e-8 * (1.0 + np.linalg.norm(nu.cov.entries))

    @pytest.mark.parametrize("dim", [5, 31, 32, 63, 64, 65, 200])
    def test_whitening_across_lapack_blocks(self, dim):
        # dsygst works in blocks of 64 columns, and unblocked below that.
        rng = np.random.default_rng(dim)
        nu, mu = rand_measure(rng, dim), rand_measure(rng, dim)
        data = gd.GaussianPair(nu, mu)
        s_mat, factor = data.s_block.entries, data.base_factor
        assert np.array_equal(s_mat, s_mat.T)
        half = scipy.linalg.solve_triangular(factor, nu.cov.entries, lower=True)
        w_two_solves = scipy.linalg.solve_triangular(factor, half.T, lower=True)
        w = np.eye(dim) - s_mat
        assert np.max(np.abs(w - w_two_solves)) <= 1e-13 * np.max(np.abs(w_two_solves))
        err = np.linalg.norm(factor @ w @ factor.T - nu.cov.entries)
        assert err <= 1e-8 * (1.0 + np.linalg.norm(nu.cov.entries))

    def test_matches_symmetric_whitening(self):
        # Any whitening of mu.cov gives S up to an orthogonal similarity and delta
        # up to the same rotation: compare with mu.cov^{-1/2} nu.cov mu.cov^{-1/2}.
        rng = np.random.default_rng(17)
        for _ in range(20):
            dim = int(rng.integers(1, 12))
            nu = rand_measure(rng, dim)
            mu = rand_measure(rng, dim)
            w, v = np.linalg.eigh(mu.cov.entries)
            inv_root = (v / np.sqrt(w)) @ v.T
            s_sym = np.eye(dim) - inv_root @ nu.cov.entries @ inv_root
            data = gd.equivalence_data(nu, mu)
            assert_allclose(
                data.s_eigenvalues, np.linalg.eigvalsh(0.5 * (s_sym + s_sym.T)), atol=1e-12
            )
            assert_allclose(np.sort(data.s_spectrum.eigenvalues), data.s_eigenvalues, atol=1e-12)
            want = np.linalg.norm(inv_root @ (nu.mean - mu.mean))
            assert abs(np.linalg.norm(data.delta) - want) <= 1e-12

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
        # A pair that has not whitened yet does so on first use.
        pair = gd.GaussianPair(nu, mu)
        assert gd.exact_renyi(nu, mu, 0.3, data=pair) == gd.exact_renyi(nu, mu, 0.3)
        points = rng.standard_normal((5, 4))
        assert np.array_equal(
            gd.log_radon_nikodym_batch(points, nu, mu, data=gd.GaussianPair(nu, mu)),
            gd.log_radon_nikodym_batch(points, nu, mu),
        )

    def test_data_from_another_pair_is_rejected(self):
        # Data whitened for (mu, mu) describes S = 0, delta = 0: reusing it for
        # (nu, mu) would report KL ~ 1e-29 where the true value is about 13.6.
        family = gd.SpectrumFamily.power_law(6, 2.0)
        nu = gd.gen_measure(family, 4, mean_scale=0.3)
        mu = gd.gen_measure(family, 3, mean_scale=0.3)
        assert gd.exact_kl(nu, mu) == pytest.approx(13.57, abs=0.01)
        for foreign in (gd.equivalence_data(mu, mu), gd.GaussianPair(mu, nu)):
            with pytest.raises(ValueError):
                gd.exact_kl(nu, mu, data=foreign)
            for r in (0.0, 0.5):
                with pytest.raises(ValueError):
                    gd.exact_renyi(nu, mu, r, data=foreign)
            with pytest.raises(ValueError):
                gd.exact_divergence(nu, mu, "hellinger", data=foreign)
            with pytest.raises(ValueError):
                gd.log_radon_nikodym_batch(np.zeros((3, 6)), nu, mu, data=foreign)
            with pytest.raises(ValueError):
                gd.log_radon_nikodym(np.zeros(6), nu, mu, data=foreign)
            with pytest.raises(ValueError):
                gd.mc_kl_check(nu, mu, 10, 1, data=foreign)
            with pytest.raises(ValueError):
                gd.mc_rn_normalization(nu, mu, 10, 1, data=foreign)


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
        # Orders next to the endpoints take the closed form, not the limit, and
        # every route to them gives the same value.
        near = gd.ENDPOINT_MARGIN / 4
        refs = exact_renyi_reference(nu, mu, (near, 1.0 - near))
        for r in (1.0 - near, near):
            value = gd.exact_renyi(nu, mu, r)
            assert value == pytest.approx(float(refs[r]), rel=1e-13)
            assert gd.exact_renyi(nu, mu, r, data=gd.GaussianPair(nu, mu)) == value
            assert gd.exact_divergence(nu, mu, "renyi", r) == value
            (record,) = gd.sweep_r(nu, mu, 0.0, [r])
            assert record.exact == record.regularized == value

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

    def test_matches_dense_log_density_difference(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            dim = int(rng.integers(1, 12))
            nu, mu = perturbed_pair(rng, dim)
            pts = mu.mean + rng.standard_normal((6, dim))

            def log_density(m, points):
                centered = points - m.mean
                quad = np.einsum("ij,ji->i", centered, np.linalg.solve(m.cov.entries, centered.T))
                return -0.5 * (quad + np.linalg.slogdet(m.cov.entries)[1])

            want = log_density(nu, pts) - log_density(mu, pts)
            assert_allclose(gd.log_radon_nikodym_batch(pts, nu, mu), want, atol=1e-10, rtol=0)

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
        with pytest.raises(gd.NonFinite):
            gd.log_radon_nikodym_batch(np.array([[math.inf]]), HALF, UNIT)
        half3, unit3 = (gd.GaussianMeasure(np.zeros(3), c * np.eye(3)) for c in (0.5, 1.0))
        with pytest.raises(ValueError, match=r"shape \(2, 3, 3\)"):
            gd.log_radon_nikodym_batch(np.zeros((2, 3, 3)), half3, unit3)


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
        # Orders inside the endpoint margin of alpha = 2r - 1 take the same limit.
        near = gd.ENDPOINT_MARGIN / 4
        assert gd.regularized_renyi(nu, mu, 1.0 - near, 1e-2) == gd.regularized_kl(nu, mu, 1e-2)
        assert gd.regularized_renyi(nu, mu, near, 1e-2) == gd.regularized_kl(mu, nu, 1e-2)

    def test_finite_on_degenerate_covariances(self):
        # Rank-deficient on both sides: exact is undefined, regularized is not.
        nu = gd.GaussianMeasure([0.0, 0.0], np.diag([1.0, 0.0]))
        mu = gd.GaussianMeasure([0.0, 0.0], np.diag([0.0, 1.0]))
        for kind, r in (("kl", None), ("renyi", 0.5), ("bhatt", None), ("hellinger", None)):
            val = gd.regularized_divergence(nu, mu, kind, 1e-3, r)
            assert math.isfinite(val)

    @pytest.mark.parametrize("gamma, scale", [(1e-320, 1.0), (5e-324, 1.0), (1e-300, 1e100)],
                             ids=["gamma 1e-320", "gamma 5e-324", "covariances 1e100, gamma 1e-300"])
    def test_kl_limit_finite_where_eigenvalue_over_gamma_overflows(self, gamma, scale):
        nu = gd.gen_measure(gd.SpectrumFamily.power_law(5), 1, 0.3)
        mu = gd.gen_measure(gd.SpectrumFamily.exponential(5), 2)
        nu, mu = (gd.GaussianMeasure(m.mean * math.sqrt(scale), m.cov.entries * scale)
                  for m in (nu, mu))
        kl, reverse = gd.exact_kl(nu, mu), gd.exact_kl(mu, nu)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for r, exact in ((1.0, kl), (1.0 - 2.0**-53, kl), (5e-324, reverse)):
                assert gd.regularized_renyi(nu, mu, r, gamma) == pytest.approx(exact, rel=1e-12)

    def test_negative_eigenvalue_inside_the_clip(self):
        # -5e-13 passes validation as rounding noise; C + gamma I is then positive only above 5e-13.
        nu = gd.GaussianMeasure([0.0, 0.0], np.diag([1.0, -5e-13]))
        unit = gd.GaussianMeasure([0.0, 0.0], np.eye(2))
        with pytest.raises(gd.NotPositive):
            gd.regularized_kl(nu, unit, 5e-13)
        eye = 1e-12 * np.eye(2)
        want = kl_closed(nu.mean, nu.cov.entries + eye, unit.mean, unit.cov.entries + eye)
        assert gd.regularized_kl(nu, unit, 1e-12) == pytest.approx(want, rel=1e-12)

    def test_kl_limit_rejects_a_base_eigenvalue_rounded_below_minus_gamma(self):
        nu, mu = rounded_zero_pair()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", gd.IllConditioned)
            values = [gd.regularized_kl(nu, mu, g) for g in (1e-12, 1e-14, 1e-16)]
            assert 0.0 < values[0] < values[1] < values[2] < math.inf
            for gamma in (1e-18, 1e-300, 1e-320):
                for r, (first, base) in ((1.0, (nu, mu)), (gd.ENDPOINT_MARGIN / 4, (mu, nu))):
                    with pytest.raises(gd.NotPositive, match="not positive definite"):
                        gd.regularized_renyi(first, base, r, gamma)

    def test_ill_conditioned_shift_warns(self):
        # The inverted C + gamma I has condition (1 + gamma) / gamma: beyond 1e12
        # at gamma = 1e-14, about 1e3 at gamma = 1e-3.
        base = gd.GaussianMeasure([0.0, 0.0], np.diag([1.0, 0.0]))
        for nu, kind, r in (
            (gd.GaussianMeasure([0.0, 0.0], np.eye(2)), "kl", None),
            (gd.GaussianMeasure([0.0, 0.0], np.diag([2.0, 0.0])), "renyi", 0.5),
        ):
            with pytest.warns(gd.IllConditioned):
                gd.regularized_divergence(nu, base, kind, 1e-14, r)
            with warnings.catch_warnings():
                warnings.simplefilter("error", gd.IllConditioned)
                assert math.isfinite(gd.regularized_divergence(nu, base, kind, 1e-3, r))

    def test_ill_conditioned_warning_points_at_the_calling_line(self):
        # Under the default filter a warning shows once per source line, so
        # two calling lines must give two warnings, each located in this file.
        base = gd.GaussianMeasure([0.0, 0.0], np.diag([1.0, 0.0]))
        ill = gd.GaussianMeasure([0.0, 0.0], np.diag([20.0, 1e-11]))
        unit = gd.GaussianMeasure([0.0, 0.0], np.eye(2))
        with warnings.catch_warnings(record=True) as regularized:
            warnings.simplefilter("default")
            gd.regularized_kl(unit, base, 1e-14)
            gd.regularized_kl(unit, base, 1e-14)
        with warnings.catch_warnings(record=True) as whitening:
            warnings.simplefilter("default")
            gd.exact_kl(unit, ill)
            gd.exact_kl(unit, ill)
        for caught in (regularized, whitening):
            assert [w.category for w in caught] == [gd.IllConditioned] * 2
            assert [w.filename for w in caught] == [__file__] * 2
            assert caught[1].lineno == caught[0].lineno + 1

    def test_gamma_validation(self):
        with pytest.raises(gd.NotPositive):
            gd.regularized_kl(HALF, UNIT, 0.0)
        with pytest.raises(gd.NotPositive):
            gd.regularized_kl(HALF, UNIT, -1.0)
        with pytest.raises(gd.NotPositive):
            gd.regularized_kl(HALF, UNIT, math.nan)


class TestSingularAndDegenerate:
    @pytest.mark.parametrize("nu_values, mu_values, error", [
        ((1.0, 1.0, 1e-16), (1.0, 1.0, 1.0), gd.SingularPair),
        ((1.0, 1.0, 1.0), (1.0, 1e-13, 2.0), gd.Degenerate),
    ], ids=["degenerate nu", "base at the clip threshold"])
    def test_one_typed_outcome_at_every_order(self, nu_values, mu_values, error):
        nu = gd.gen_measure(gd.SpectrumFamily.explicit(nu_values), 5)
        mu = gd.gen_measure(gd.SpectrumFamily.explicit(mu_values), 6)
        for r in (0.0, 5e-324, 1e-13, 0.5, 1.0 - 1e-13, 1.0):
            with pytest.raises(error):
                gd.exact_renyi(nu, mu, r)

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

    @pytest.mark.parametrize("gap, singular", [(1e-8, False), (1e-12, True)])
    def test_the_singularity_test_follows_the_order(self, gap, singular):
        # nu.cov = L (I - S) L^T with the top eigenvalue of S at 1 - gap.  The KLs
        # read it from eigvalsh and the orders inside (0, 1) from eigh; on one pair
        # every call has one outcome, whichever call filled the pair's caches.
        rng = np.random.default_rng(40)
        mu = rand_measure(rng, 40)
        factor = np.linalg.cholesky(mu.cov.entries)
        q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        a = np.append(rng.uniform(-0.5, 0.5, 39), 1.0 - gap)
        cov = factor @ ((q * (1.0 - a)) @ q.T) @ factor.T
        nu = gd.GaussianMeasure(mu.mean + 0.1 * rng.standard_normal(40), 0.5 * (cov + cov.T))
        grid = [0.1, 0.5, 0.9]

        def outcome(call):
            try:
                return call()
            except gd.SingularPair:
                return "singular"

        calls = {
            "div kl": lambda data: gd.exact_divergence(nu, mu, "kl", data=data),
            "renyi 0.5": lambda data: gd.exact_renyi(nu, mu, 0.5, data=data),
            "sweep_r": lambda data: [rec.exact for rec in gd.sweep_r(nu, mu, 0.0, grid)],
            "rn-check": lambda data: gd.mc_kl_check(nu, mu, 200, 7, data=data),
        }
        want = {name: outcome(lambda: call(None)) for name, call in calls.items()}
        assert all((value == "singular") is singular for value in want.values())
        for names in itertools.permutations(calls):
            data = gd.GaussianPair(nu, mu)
            assert {name: outcome(lambda: calls[name](data)) for name in names} == want
        if not singular:
            assert want["sweep_r"] == [gd.exact_renyi(nu, mu, r) for r in grid]
            assert want["renyi 0.5"] == want["sweep_r"][1]

    def test_degenerate_base_raises(self):
        nu = gd.GaussianMeasure([0.0], [[1.0]])
        mu = gd.GaussianMeasure([0.0], [[0.0]])
        with pytest.raises(gd.Degenerate):
            gd.exact_kl(nu, mu)


class TestOverflow:
    """A divergence too large for a double raises ``NonFinite``, with no numpy warning."""

    CALLS = {
        "exact kl": lambda nu, mu: gd.exact_kl(nu, mu),
        "exact renyi": lambda nu, mu: gd.exact_renyi(nu, mu, 0.5),
        "exact renyi near 0": lambda nu, mu: gd.exact_renyi(nu, mu, 1e-13),
        "regularized kl": lambda nu, mu: gd.regularized_kl(nu, mu, 1e-3),
        "regularized renyi": lambda nu, mu: gd.regularized_renyi(nu, mu, 0.5, 1e-3),
        "regularized renyi near 0": lambda nu, mu: gd.regularized_renyi(nu, mu, 1e-13, 1e-2),
        "gamma sweep": lambda nu, mu: gd.sweep_gamma(nu, mu, "kl", [1e-1, 1e-3]),
        "r sweep": lambda nu, mu: gd.sweep_r(nu, mu, 1e-3, [0.1, 0.9]),
        "exact r sweep": lambda nu, mu: gd.sweep_r(nu, mu, 0.0, [0.1, 0.9]),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_raises_nonfinite(self, name):
        nu, mu = far_pair()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(gd.NonFinite, match="does not fit in a double"):
                self.CALLS[name](nu, mu)

    @pytest.mark.parametrize("pair, call", [
        (far_pair, lambda nu, mu: gd.exact_hellinger(nu, mu)),
        (far_pair, lambda nu, mu: gd.regularized_hellinger(nu, mu, 1e-3)),
        (far_pair, lambda nu, mu: gd.sweep_gamma(nu, mu, "hellinger", [1e-1, 1e-3])[-1].regularized),
        (overflowing_mean_pair, lambda nu, mu: gd.exact_hellinger(nu, mu)),
        (overflowing_mean_pair, lambda nu, mu: gd.regularized_hellinger(nu, mu, 1e-3)),
    ], ids=["exact", "regularized", "gamma sweep", "exact, overflowing means",
            "regularized, overflowing means"])
    def test_hellinger_is_sqrt_2(self, pair, call):
        # The Hellinger distance is bounded: an overflowing Renyi value is exp(-inf) = 0 away.
        # Where the mean difference itself overflows, so does D_B >= |dm|^2 / (8 lambda_max).
        nu, mu = pair()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert call(nu, mu) == math.sqrt(2.0)

    @pytest.mark.parametrize("call", [
        lambda nu, mu: gd.log_radon_nikodym_batch(np.vstack([nu.mean, mu.mean]), nu, mu),
        lambda nu, mu: gd.mc_kl_check(nu, mu, 100, 1),
        lambda nu, mu: gd.mc_rn_normalization(nu, mu, 100, 1),
    ], ids=["log_radon_nikodym_batch", "mc_kl_check", "mc_rn_normalization"])
    def test_log_density_ratio_raises(self, call):
        # Its constant overflows, so no row is computed and no worker thread warns.
        nu, mu = far_pair()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(gd.NonFinite, match="log density ratio does not fit"):
                call(nu, mu)

    def test_log_density_ratio_of_a_far_point_raises(self):
        # Finite coefficients, but the quadratic form at the point overflows.
        nu, mu = far_pair(1e100)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert np.isfinite(gd.log_radon_nikodym(mu.mean, nu, mu))
            with pytest.raises(gd.NonFinite, match="log density ratio does not fit"):
                gd.log_radon_nikodym(mu.mean + 1e200, nu, mu)

    @pytest.mark.parametrize("gamma", [None, 1e-3], ids=["exact", "regularized"])
    @pytest.mark.parametrize("kind, r", [("kl", None), ("bhatt", None), ("renyi", 1e-13),
                                         ("renyi", 0.3)])
    def test_an_overflowing_mean_difference_raises(self, kind, r, gamma):
        # Every route reads the pair's one mean difference: the whitened delta, the
        # blend's solve and the KL terms.  Only the Hellinger distance, bounded, is a value.
        nu, mu = overflowing_mean_pair()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(gd.NonFinite, match="mean difference"):
                if gamma is None:
                    gd.exact_divergence(nu, mu, kind, r)
                else:
                    gd.regularized_divergence(nu, mu, kind, gamma, r)

    @pytest.mark.parametrize("kind", ["kl", "hellinger"])
    def test_a_singular_pair_with_overflowing_means_is_singular(self, kind):
        nu, mu = overflowing_mean_pair()
        thin = gd.GaussianMeasure(nu.mean, np.diag([1.0, 1e-16]))
        with pytest.raises(gd.SingularPair):
            gd.exact_divergence(thin, mu, kind)

    def test_an_overflowing_mean_difference_raises_in_the_log_density_ratio(self):
        nu, mu = overflowing_mean_pair()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(gd.NonFinite, match="mean difference"):
                gd.log_radon_nikodym_batch(np.zeros((3, 2)), nu, mu)

    def test_nan_raises_for_every_kind(self):
        # A NaN Renyi value would pass the Hellinger transform as 0.
        with pytest.raises(gd.NonFinite):
            gaussian._finite_result(lambda: math.nan, gaussian._KIND_TABLE["hellinger"][1])

    def test_large_but_representable_offset_is_a_value(self):
        nu, mu = far_pair(1e150)
        m1, c1, m2, c2 = nu.mean, nu.cov.entries, mu.mean, mu.cov.entries
        assert gd.exact_kl(nu, mu) == pytest.approx(kl_closed(m1, c1, m2, c2), rel=1e-12)
        assert gd.exact_renyi(nu, mu, 0.5) == pytest.approx(renyi_closed(m1, c1, m2, c2, 0.5),
                                                             rel=1e-12)


class TestGaussianMeasure:
    def test_rejects_negative_covariance(self):
        with pytest.raises(gd.NotPSD):
            gd.GaussianMeasure([0.0], [[-0.5]])

    def test_rejects_bad_mean(self):
        with pytest.raises(ValueError):
            gd.GaussianMeasure(np.zeros((2, 2)), np.eye(2))
        with pytest.raises(ValueError):
            gd.GaussianMeasure([math.nan], [[1.0]])
        with pytest.raises(gd.NonFinite):
            gd.GaussianMeasure([math.inf], [[1.0]])
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

    @pytest.mark.parametrize("record, field", [
        ({"dim": 1, "mean": {}, "cov": [[1.0]]}, "'mean'"),
        ({"dim": 1, "mean": [0.0], "cov": "x"}, "'cov'"),
        ({"dim": 1, "mean": [10**400], "cov": [[1.0]]}, "'mean'"),
        ({"dim": None, "mean": [0.0], "cov": [[1.0]]}, "'dim'"),
        ({"dim": [1], "mean": [0.0], "cov": [[1.0]]}, "'dim'"),
        ({"dim": True, "mean": [0.0], "cov": [[1.0]]}, "'dim'"),
        ({"dim": "1", "mean": [0.0], "cov": [[1.0]]}, "'dim'"),
        ({"dim": 1.5, "mean": [0.0], "cov": [[1.0]]}, "'dim'"),
        ([1, 2], "measure"),
        ("measure", "measure"),
    ])
    def test_from_dict_names_the_wrong_field(self, record, field):
        with pytest.raises(ValueError, match=field):
            gd.GaussianMeasure.from_dict(record)

    @pytest.mark.parametrize("field", ["dim", "mean", "cov"])
    def test_from_dict_names_a_missing_field(self, field):
        record = {"dim": 1, "mean": [0.0], "cov": [[1.0]]}
        del record[field]
        with pytest.raises(ValueError, match=f"field '{field}' is missing"):
            gd.GaussianMeasure.from_dict(record)

    @pytest.mark.parametrize("dim", [1.0, np.int64(1)], ids=["float", "numpy int"])
    def test_from_dict_accepts_an_integral_dim(self, dim):
        measure = gd.GaussianMeasure.from_dict({"dim": dim, "mean": [0.0], "cov": [[1.0]]})
        assert measure.dim == 1
