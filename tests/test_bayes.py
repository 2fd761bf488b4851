"""Linear-Gaussian inverse problem: posterior update and KL(posterior || prior)."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gaussdiv as gd
from oracles import rand_spd


def scalar_model():
    prior = gd.GaussianMeasure([0.0], [[1.0]])
    return gd.LinearGaussianModel([[1.0]], [[1.0]], prior, [1.0])


def rand_model(rng, dim, obs_dim, innovation_free=False):
    prior = gd.GaussianMeasure(
        0.5 * rng.standard_normal(dim), rand_spd(rng, dim, lo=0.2, hi=2.0)
    )
    forward = rng.standard_normal((obs_dim, dim))
    noise = rand_spd(rng, obs_dim, lo=0.3, hi=1.5)
    if innovation_free:
        obs = forward @ prior.mean
    else:
        obs = forward @ prior.mean + rng.standard_normal(obs_dim)
    return gd.LinearGaussianModel(forward, noise, prior, obs)


class TestScalarExample:
    def test_posterior(self):
        post = gd.posterior(scalar_model())
        assert post.mean[0] == pytest.approx(0.5, abs=1e-15)
        assert post.cov.entries[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_information_gain(self):
        assert gd.kl_posterior_prior(scalar_model()) == pytest.approx(
            0.22157359027997264, abs=1e-10
        )


class TestPosterior:
    def test_uninformative_forward_map_keeps_prior(self):
        prior = gd.GaussianMeasure([1.0, -1.0], np.diag([2.0, 0.5]))
        model = gd.LinearGaussianModel(np.zeros((2, 2)), np.eye(2), prior, [3.0, -3.0])
        post = gd.posterior(model)
        assert_allclose(post.mean, prior.mean, atol=1e-14)
        assert_allclose(post.cov.entries, prior.cov.entries, atol=1e-14)
        assert gd.kl_posterior_prior(model) == pytest.approx(0.0, abs=1e-14)

    def test_innovation_free_observation_keeps_prior_mean(self):
        rng = np.random.default_rng(42)
        model = rand_model(rng, 6, 3, innovation_free=True)
        post = gd.posterior(model)
        assert_allclose(post.mean, model.prior.mean, atol=1e-12)

    def test_posterior_never_widens(self):
        # The update subtracts a PSD term from the prior covariance.
        rng = np.random.default_rng(42)
        for _ in range(15):
            dim = int(rng.integers(1, 12))
            obs_dim = int(rng.integers(1, 6))
            model = rand_model(rng, dim, obs_dim)
            post = gd.posterior(model)
            gap = model.prior.cov.entries - post.cov.entries
            assert float(np.min(np.linalg.eigvalsh(0.5 * (gap + gap.T)))) >= -1e-12

    def test_matches_information_form(self):
        # Dense route through precision matrices, state space only.
        rng = np.random.default_rng(7)
        model = rand_model(rng, 5, 4)
        a = model.forward
        gamma_inv = np.linalg.inv(model.noise_cov.entries)
        prec = np.linalg.inv(model.prior.cov.entries) + a.T @ gamma_inv @ a
        cov = np.linalg.inv(prec)
        mean = cov @ (
            np.linalg.solve(model.prior.cov.entries, model.prior.mean)
            + a.T @ gamma_inv @ model.observation
        )
        post = gd.posterior(model)
        assert_allclose(post.cov.entries, cov, atol=1e-11)
        assert_allclose(post.mean, mean, atol=1e-11)


class TestInformationGain:
    def test_agrees_with_whitened_kl(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            dim = int(rng.integers(1, 15))
            obs_dim = int(rng.integers(1, 8))
            model = rand_model(rng, dim, obs_dim)
            closed = gd.kl_posterior_prior(model)
            whitened = gd.exact_kl(gd.posterior(model), model.prior)
            assert closed == pytest.approx(whitened, rel=1e-8, abs=1e-12)

    def test_identity_noise_three_term_form(self):
        # With Gamma = I the log-determinant difference collapses to one term.
        rng = np.random.default_rng(5)
        for _ in range(10):
            dim = int(rng.integers(1, 10))
            obs_dim = int(rng.integers(1, 6))
            prior = gd.GaussianMeasure(
                0.3 * rng.standard_normal(dim), rand_spd(rng, dim, lo=0.3, hi=2.0)
            )
            a = rng.standard_normal((obs_dim, dim))
            y = a @ prior.mean + 0.5 * rng.standard_normal(obs_dim)
            model = gd.LinearGaussianModel(a, np.eye(obs_dim), prior, y)
            post = gd.posterior(model)
            three_term = 0.5 * (
                np.linalg.slogdet(np.eye(obs_dim) + a @ prior.cov.entries @ a.T)[1]
                - float(np.trace(a @ post.cov.entries @ a.T))
                - float((post.mean - prior.mean) @ (a.T @ (a @ post.mean - y)))
            )
            assert abs(gd.kl_posterior_prior(model) - three_term) <= 1e-12

    def test_monotone_in_innovation_free_observations(self):
        # Adding observation rows (with y = A m0) never loses information.
        rng = np.random.default_rng(42)
        for _ in range(10):
            dim = int(rng.integers(2, 10))
            rows = int(rng.integers(2, 6))
            prior = gd.GaussianMeasure(
                rng.standard_normal(dim), rand_spd(rng, dim, lo=0.3, hi=2.0)
            )
            a_full = rng.standard_normal((rows, dim))
            gains = []
            for k in range(1, rows + 1):
                a = a_full[:k]
                model = gd.LinearGaussianModel(a, np.eye(k), prior, a @ prior.mean)
                gains.append(gd.kl_posterior_prior(model))
            for lo, hi in zip(gains, gains[1:]):
                assert hi >= lo - 1e-10

    def test_nonnegative(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            model = rand_model(rng, int(rng.integers(1, 8)), int(rng.integers(1, 5)))
            assert gd.kl_posterior_prior(model) >= -1e-12


class TestModelValidation:
    def test_round_trip(self):
        rng = np.random.default_rng(42)
        model = rand_model(rng, 3, 2)
        again = gd.LinearGaussianModel.from_dict(model.to_dict())
        assert_allclose(again.forward, model.forward)
        assert_allclose(again.noise_cov.entries, model.noise_cov.entries)
        assert_allclose(again.prior.mean, model.prior.mean)
        assert_allclose(again.observation, model.observation)

    def test_shape_mismatches(self):
        prior = gd.GaussianMeasure([0.0, 0.0], np.eye(2))
        with pytest.raises(gd.DimMismatch):
            gd.LinearGaussianModel(np.eye(2), np.eye(3), prior, [0.0, 0.0])
        with pytest.raises(gd.DimMismatch):
            gd.LinearGaussianModel(np.zeros((2, 3)), np.eye(2), prior, [0.0, 0.0])
        with pytest.raises(gd.DimMismatch):
            gd.LinearGaussianModel(np.eye(2), np.eye(2), prior, [0.0, 0.0, 0.0])

    def test_noise_and_prior_must_be_positive(self):
        prior = gd.GaussianMeasure([0.0], [[1.0]])
        with pytest.raises(gd.NotPositive):
            gd.LinearGaussianModel([[1.0]], [[0.0]], prior, [0.0])
        flat = gd.GaussianMeasure([0.0], [[0.0]])
        with pytest.raises(gd.NotPositive):
            gd.LinearGaussianModel([[1.0]], [[1.0]], flat, [0.0])

    def test_rejects_nonfinite(self):
        prior = gd.GaussianMeasure([0.0], [[1.0]])
        with pytest.raises(ValueError):
            gd.LinearGaussianModel([[np.nan]], [[1.0]], prior, [0.0])
        with pytest.raises(ValueError):
            gd.LinearGaussianModel([[1.0]], [[1.0]], prior, [np.inf])
        with pytest.raises(gd.NonFinite):
            gd.LinearGaussianModel([[np.nan]], [[1.0]], prior, [0.0])
        with pytest.raises(gd.NonFinite):
            gd.LinearGaussianModel([[1.0]], [[1.0]], prior, [np.inf])

    @pytest.mark.parametrize("change, field", [
        ({"forward": {}}, "'forward'"),
        ({"noise_cov": [[{}]]}, "'noise_cov'"),
        ({"observation": {"y": 1.0}}, "'observation'"),
        ({"prior": [1.0]}, "measure must be an object"),
        ({"prior": {"dim": None, "mean": [0.0], "cov": [[1.0]]}}, "'dim'"),
    ])
    def test_from_dict_names_the_wrong_field(self, change, field):
        record = {**scalar_model().to_dict(), **change}
        with pytest.raises(ValueError, match=field):
            gd.LinearGaussianModel.from_dict(record)

    @pytest.mark.parametrize("field", ["forward", "noise_cov", "prior", "observation"])
    def test_from_dict_names_a_missing_field(self, field):
        record = scalar_model().to_dict()
        del record[field]
        with pytest.raises(ValueError, match=f"field '{field}' is missing"):
            gd.LinearGaussianModel.from_dict(record)

    @pytest.mark.parametrize("record", ["model", [1.0], None])
    def test_from_dict_needs_an_object(self, record):
        with pytest.raises(ValueError, match="model"):
            gd.LinearGaussianModel.from_dict(record)
