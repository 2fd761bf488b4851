"""Experiment harness: seeding, synthetic measures, Monte-Carlo oracles, sweeps, CSV."""

import functools
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gaussdiv as gd
from gaussdiv.lab import STREAM_MEAN, STREAM_ORTHO, STREAM_SAMPLE


class TestSeeding:
    def test_split_seed_is_deterministic_and_distinct(self):
        a = gd.split_seed(42, 0)
        assert a == gd.split_seed(42, 0)
        assert len({gd.split_seed(42, i) for i in range(100)}) == 100
        assert 0 <= gd.split_seed(2**70, 5) < 2**64

    def test_streams_are_independent(self):
        a = gd.standard_normal(42, STREAM_ORTHO, 16)
        b = gd.standard_normal(42, STREAM_MEAN, 16)
        c = gd.standard_normal(42, STREAM_ORTHO, 16)
        assert_allclose(a, c)
        assert np.max(np.abs(a - b)) > 1e-3

    def test_normals_are_standard(self):
        z = gd.standard_normal(7, STREAM_SAMPLE, 200_000)
        assert abs(float(np.mean(z))) < 0.01
        assert abs(float(np.std(z)) - 1.0) < 0.01


class TestSpectrumFamilies:
    def test_power_law(self):
        fam = gd.SpectrumFamily.power_law(4, s=2.0)
        assert_allclose(fam.eigenvalues(), [1.0, 0.25, 1.0 / 9.0, 1.0 / 16.0])

    def test_exponential(self):
        fam = gd.SpectrumFamily.exponential(3, rate=1.0)
        assert_allclose(fam.eigenvalues(), np.exp([0.0, -1.0, -2.0]))

    def test_explicit_sorted_descending(self):
        fam = gd.SpectrumFamily.explicit([0.5, 2.0, 1.0])
        assert_allclose(fam.eigenvalues(), [2.0, 1.0, 0.5])
        assert fam.dim == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            gd.SpectrumFamily.power_law(3, s=1.0)
        with pytest.raises(ValueError):
            gd.SpectrumFamily.exponential(3, rate=0.0)
        with pytest.raises(ValueError):
            gd.SpectrumFamily.explicit([])
        with pytest.raises(ValueError):
            gd.SpectrumFamily.explicit([1.0, -1.0])
        with pytest.raises(ValueError):
            gd.SpectrumFamily("powerlaw", 0)
        with pytest.raises(ValueError):
            gd.SpectrumFamily("cauchy", 3)
        # A dim that is not an integer used to give a family of ceil(dim) eigenvalues
        # (and a bool a dim-1 family); nonfinite values used to fail in gen_measure.
        for dim in (2.5, 3.0, True):
            with pytest.raises(ValueError, match="dim"):
                gd.SpectrumFamily.power_law(dim)
            with pytest.raises(ValueError, match="dim"):
                gd.SpectrumFamily.exponential(dim)
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="values"):
                gd.SpectrumFamily.explicit([1.0, value])

    @pytest.mark.parametrize("s", [math.inf, math.nan])
    def test_power_law_exponent_must_be_finite(self, s):
        with pytest.raises(ValueError, match="finite"):
            gd.SpectrumFamily.power_law(3, s=s)

    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_exponential_rate_must_be_finite(self, rate):
        # An infinite rate used to reach exp(-inf * 0) and warn before failing.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                gd.SpectrumFamily.exponential(3, rate=rate)

    @pytest.mark.parametrize(
        "family", [lambda: gd.SpectrumFamily.power_law(3, s=2000.0),
                   lambda: gd.SpectrumFamily.exponential(3, rate=1e4),
                   lambda: gd.SpectrumFamily.power_law(200_000, s=70.0)],
        ids=["powerlaw s=2000", "exponential rate=1e4", "powerlaw dim=2e5 s=70"],
    )
    def test_eigenvalues_that_underflow_to_zero_are_rejected(self, family):
        with pytest.raises(ValueError, match="underflow"):
            family()

    def test_largest_representable_decay_is_accepted(self):
        assert gd.SpectrumFamily.power_law(3, s=600.0).eigenvalues()[-1] > 0.0
        assert gd.SpectrumFamily.exponential(3, rate=300.0).eigenvalues()[-1] > 0.0


class TestGenMeasure:
    def test_spectrum_is_preserved(self):
        fam = gd.SpectrumFamily.power_law(6, s=1.5)
        measure = gd.gen_measure(fam, seed=42)
        got = np.sort(np.linalg.eigvalsh(measure.cov.entries))[::-1]
        assert_allclose(got, fam.eigenvalues(), atol=1e-12)

    def test_deterministic_in_seed(self):
        fam = gd.SpectrumFamily.exponential(5)
        a = gd.gen_measure(fam, seed=1, mean_scale=0.5)
        b = gd.gen_measure(fam, seed=1, mean_scale=0.5)
        assert np.array_equal(a.cov.entries, b.cov.entries)
        assert np.array_equal(a.mean, b.mean)
        c = gd.gen_measure(fam, seed=2, mean_scale=0.5)
        assert np.max(np.abs(a.cov.entries - c.cov.entries)) > 1e-6

    def test_zero_mean_scale(self):
        measure = gd.gen_measure(gd.SpectrumFamily.power_law(4), seed=3)
        assert_allclose(measure.mean, np.zeros(4))
        with pytest.raises(ValueError):
            gd.gen_measure(gd.SpectrumFamily.power_law(4), seed=3, mean_scale=-0.1)


class TestSampling:
    def test_shape_and_determinism(self):
        measure = gd.gen_measure(gd.SpectrumFamily.power_law(3), seed=5)
        a = gd.sample_gaussian(measure, 10, seed=11)
        b = gd.sample_gaussian(measure, 10, seed=11)
        assert a.shape == (10, 3)
        assert np.array_equal(a, b)
        with pytest.raises(ValueError):
            gd.sample_gaussian(measure, 0, seed=11)
        # n follows the integral rule of a measure record's dim.
        for n in (2.5, True, "2", None):
            with pytest.raises(ValueError, match="positive integer"):
                gd.sample_gaussian(measure, n, seed=11)
        with pytest.raises(ValueError, match="positive integer"):
            gd.mc_kl_check(measure, measure, 2.5, 1)
        assert np.array_equal(gd.sample_gaussian(measure, 2.0, seed=11), a[:2])
        assert np.array_equal(gd.sample_gaussian(measure, np.int64(2), seed=11), a[:2])

    def test_sample_moments_standard_normal(self):
        n = 100_000
        measure = gd.GaussianMeasure(np.zeros(2), np.eye(2))
        samples = gd.sample_gaussian(measure, n, seed=42)
        bound = 5.0 / math.sqrt(n)
        assert np.max(np.abs(np.mean(samples, axis=0))) < bound
        emp_cov = samples.T @ samples / n
        assert np.max(np.abs(emp_cov - np.eye(2))) < bound

    def test_samples_do_not_depend_on_who_factorized_the_covariance(self):
        family = gd.SpectrumFamily.power_law(6, 2.0)
        fresh = gd.gen_measure(family, seed=4)
        base = gd.gen_measure(family, seed=4)
        nu = gd.gen_measure(gd.SpectrumFamily.power_law(6, 2.2), seed=4)
        gd.regularized_kl(nu, base, 1e-3)  # the regularized KL fills base.spectrum
        assert base._spectrum is not None
        z = gd.standard_normal(8, STREAM_SAMPLE, (40, 6))
        want = fresh.mean + z @ gd.psd_sqrt(fresh.cov).entries
        assert np.array_equal(gd.sample_gaussian(fresh, 40, seed=8), want)
        assert np.array_equal(gd.sample_gaussian(base, 40, seed=8), want)

    def test_sample_covariance_tracks_target(self):
        rng_free_measure = gd.gen_measure(gd.SpectrumFamily.explicit([2.0, 0.5]), seed=9)
        samples = gd.sample_gaussian(rng_free_measure, 200_000, seed=13)
        emp = samples.T @ samples / samples.shape[0]
        assert np.max(np.abs(emp - rng_free_measure.cov.entries)) < 0.02


class TestMonteCarloKL:
    def test_scalar_pair(self):
        nu = gd.GaussianMeasure(np.zeros(1), [[0.5]])
        mu = gd.GaussianMeasure(np.zeros(1), [[1.0]])
        est, err = gd.mc_kl_check(nu, mu, 100_000, seed=42)
        assert abs(est - gd.exact_kl(nu, mu)) <= 4.0 * err

    def test_normalization(self):
        nu, mu = gd.default_rn_pair(7)
        est, err = gd.mc_rn_normalization(nu, mu, 100_000, seed=21)
        assert abs(est - 1.0) <= 4.0 * err

    def test_singular_pair_rejected(self):
        nu = gd.GaussianMeasure([0.0, 0.0], np.diag([1e-15, 1.0]))
        mu = gd.GaussianMeasure([0.0, 0.0], np.eye(2))
        with pytest.raises(gd.SingularPair):
            gd.mc_kl_check(nu, mu, 100, seed=1)
        with pytest.raises(gd.SingularPair):
            gd.mc_rn_normalization(nu, mu, 100, seed=1)

    def test_one_sample_has_no_standard_error(self):
        # One sample has zero degrees of freedom: its stderr would be NaN, and
        # every "within k stderr" check would then pass or fail vacuously.
        nu, mu = gd.default_rn_pair(7)
        with pytest.raises(ValueError):
            gd.mc_kl_check(nu, mu, 1, seed=1)
        with pytest.raises(ValueError):
            gd.mc_rn_normalization(nu, mu, 1, seed=1)


class TestGaussExpQuadratic:
    def test_scalar_frozen_values(self):
        measure = gd.GaussianMeasure(np.zeros(1), [[1.0]])
        half = gd.TraceClassBlock([[0.5]])
        assert gd.gauss_exp_quadratic(measure, half, np.zeros(1)) == pytest.approx(
            math.sqrt(2.0), abs=1e-10
        )
        assert gd.gauss_exp_quadratic(measure, half, np.ones(1)) == pytest.approx(
            math.sqrt(2.0) * math.e, abs=1e-10
        )

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(42)
        for dim in (2, 4):
            q = np.diag(rng.uniform(0.5, 1.5, dim))
            # Spectral radius of Q^{1/2} M Q^{1/2} capped at 0.6.
            m_raw = rng.standard_normal((dim, dim))
            m_sym = 0.5 * (m_raw + m_raw.T)
            w_inv = np.diag(1.0 / np.sqrt(np.diag(q)))
            t = 0.6 * m_sym / np.max(np.abs(np.linalg.eigvalsh(m_sym)))
            m_op = gd.TraceClassBlock(w_inv @ t @ w_inv)
            b = 0.3 * rng.standard_normal(dim)
            measure = gd.GaussianMeasure(np.zeros(dim), q)
            closed = gd.gauss_exp_quadratic(measure, m_op, b)
            samples = gd.sample_gaussian(measure, 200_000, seed=17)
            vals = np.exp(
                0.5 * np.einsum("ni,ij,nj->n", samples, m_op.entries, samples) + samples @ b
            )
            stderr = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
            assert abs(float(np.mean(vals)) - closed) <= 4.0 * stderr

    def test_validation(self):
        centered = gd.GaussianMeasure(np.zeros(2), np.eye(2))
        block = gd.TraceClassBlock(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            gd.gauss_exp_quadratic(gd.GaussianMeasure([1.0, 0.0], np.eye(2)), block, np.zeros(2))
        with pytest.raises(ValueError):
            gd.gauss_exp_quadratic(centered, block, np.zeros(3))
        with pytest.raises(gd.NotPositive):
            gd.gauss_exp_quadratic(centered, gd.TraceClassBlock(np.eye(2)), np.zeros(2))


class TestFourthMoment:
    def test_canonical_closed_forms(self):
        eye2 = gd.GaussianMeasure(np.zeros(2), np.eye(2))
        _, closed = gd.moment4_check(eye2, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 100, 1)
        assert closed == 1.0
        _, closed = gd.moment4_check(eye2, np.array([1.0, 0.0]), np.array([1.0, 0.0]), 100, 1)
        assert closed == 3.0
        wide = gd.GaussianMeasure(np.zeros(1), [[2.0]])
        _, closed = gd.moment4_check(wide, np.array([1.0]), np.array([1.0]), 100, 1)
        assert closed == 12.0

    def test_monte_carlo_agrees(self):
        eye2 = gd.GaussianMeasure(np.zeros(2), np.eye(2))
        mc, closed = gd.moment4_check(
            eye2, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 200_000, 42
        )
        assert mc == pytest.approx(closed, abs=0.05)

    def test_gate_passes(self):
        assert gd.sampler_gate(50_000, seed=123)

    def test_gate_needs_two_samples(self):
        with pytest.raises(ValueError):
            gd.sampler_gate(1, seed=123)


class TestSweeps:
    def setup_method(self):
        self.nu, self.mu = gd.default_rn_pair(3)

    def test_gamma_sweep_shrinks(self):
        grid = np.geomspace(1e-1, 1e-8, 8)
        records = gd.sweep_gamma(self.nu, self.mu, "kl", grid)
        assert [rec.param for rec in records] == pytest.approx(list(grid))
        exact = gd.exact_kl(self.nu, self.mu)
        for rec in records:
            assert rec.exact == pytest.approx(exact, rel=1e-15)
            assert rec.abs_err == abs(rec.regularized - rec.exact)
        for a, b in zip(records, records[1:]):
            assert b.abs_err <= 1.05 * a.abs_err
        assert records[-1].rel_err < 1e-5

    def test_gamma_sweep_records_equal_standalone_calls(self):
        grid = np.geomspace(1e-1, 1e-8, 4)
        for kind, r in (("kl", None), ("renyi", 0.3), ("bhatt", None), ("hellinger", None)):
            exact = gd.exact_divergence(self.nu, self.mu, kind, r)
            for rec in gd.sweep_gamma(self.nu, self.mu, kind, grid, r):
                assert rec.exact == exact
                assert rec.regularized == gd.regularized_divergence(
                    self.nu, self.mu, kind, rec.param, r
                )

    @pytest.mark.parametrize("r", [1e-13, 1.0 - 1e-13])
    def test_gamma_sweep_next_to_an_endpoint_reads_the_kl_terms_once(self, monkeypatch, r):
        # Orders next to 0 take the reverse KL limit, which must come from one mirror pair
        # for the whole grid, as orders next to 1 take the KL limit from the pair itself.
        evaluations = []
        compute = gd.GaussianPair._kl_terms.func

        def counted(pair):
            evaluations.append(pair)
            return compute(pair)

        kl_terms = functools.cached_property(counted)
        kl_terms.__set_name__(gd.GaussianPair, "_kl_terms")
        monkeypatch.setattr(gd.GaussianPair, "_kl_terms", kl_terms)
        counts = []
        for points in (3, 8):
            evaluations.clear()
            gd.sweep_gamma(self.nu, self.mu, "renyi", np.geomspace(1e-1, 1e-8, points), r)
            counts.append(len(evaluations))
        assert counts == [1, 1]

    def test_gamma_sweep_renyi_requires_order(self):
        grid = np.array([1e-2, 1e-3])
        with pytest.raises(ValueError):
            gd.sweep_gamma(self.nu, self.mu, "renyi", grid)
        records = gd.sweep_gamma(self.nu, self.mu, "renyi", grid, r=0.5)
        assert len(records) == 2
        with pytest.raises(ValueError):
            gd.sweep_gamma(self.nu, self.mu, "kl", grid, r=0.5)

    def test_gamma_grid_validation(self):
        with pytest.raises(ValueError):
            gd.sweep_gamma(self.nu, self.mu, "kl", [])
        with pytest.raises(ValueError):
            gd.sweep_gamma(self.nu, self.mu, "kl", [1e-3, 1e-2])
        with pytest.raises(ValueError):
            gd.sweep_gamma(self.nu, self.mu, "kl", [1e-2, 0.0])
        with pytest.raises(ValueError):
            gd.sweep_gamma(self.nu, self.mu, "nope", [1e-2])

    def test_gamma_sweep_singular_pair(self):
        nu = gd.GaussianMeasure([0.0, 0.0], np.diag([1e-15, 1.0]))
        mu = gd.GaussianMeasure([0.0, 0.0], np.eye(2))
        with pytest.raises(gd.SingularPair):
            gd.sweep_gamma(nu, mu, "kl", [1e-2, 1e-3])

    def test_r_sweep_exact_path(self):
        grid = np.linspace(0.1, 0.9, 9)
        records = gd.sweep_r(self.nu, self.mu, 0.0, grid)
        for rec in records:
            assert rec.regularized == rec.exact
            assert rec.abs_err == 0.0
            assert rec.exact == pytest.approx(
                gd.exact_renyi(self.nu, self.mu, rec.param), rel=1e-15
            )

    def test_r_sweep_regularized_path(self):
        records = gd.sweep_r(self.nu, self.mu, 1e-6, [0.25, 0.75])
        for rec in records:
            assert rec.abs_err > 0.0
            assert rec.rel_err < 1e-4

    def test_r_sweep_records_equal_standalone_calls(self):
        grid = [0.1, 0.3, 0.5, 0.7, 0.9]
        for gamma in (0.0, 1e-6):
            for rec in gd.sweep_r(self.nu, self.mu, gamma, grid):
                exact = gd.exact_renyi(self.nu, self.mu, rec.param)
                assert rec.exact == exact
                if gamma == 0.0:
                    assert rec.regularized == exact
                else:
                    assert rec.regularized == gd.regularized_renyi(
                        self.nu, self.mu, rec.param, gamma
                    )

    def test_r_sweep_sorts_grid(self):
        records = gd.sweep_r(self.nu, self.mu, 0.0, [0.9, 0.1, 0.5])
        assert [rec.param for rec in records] == [0.1, 0.5, 0.9]

    def test_r_sweep_singular_pair(self):
        nu = gd.GaussianMeasure([0.0, 0.0], np.diag([1e-15, 1.0]))
        mu = gd.GaussianMeasure([0.0, 0.0], np.eye(2))
        with pytest.raises(gd.SingularPair):
            gd.sweep_r(nu, mu, 0.0, [0.5])
        with pytest.raises(gd.SingularPair):
            gd.sweep_r(nu, mu, 1e-3, [0.5])

    def test_r_grid_validation(self):
        with pytest.raises(ValueError):
            gd.sweep_r(self.nu, self.mu, 0.0, [])
        with pytest.raises(ValueError):
            gd.sweep_r(self.nu, self.mu, 0.0, [0.0, 0.5])
        with pytest.raises(ValueError):
            gd.sweep_r(self.nu, self.mu, 0.0, [0.5, 1.0])
        with pytest.raises(ValueError):
            gd.sweep_r(self.nu, self.mu, -1.0, [0.5])


class TestCsvOutput:
    def test_exact_bytes(self, tmp_path):
        records = [
            gd.SweepRecord(0.1, 0.5, 0.25, 0.25, 1.0),
            gd.SweepRecord(0.01, 1.0 / 3.0, 0.25, 1.0 / 12.0, 1.0 / 3.0),
        ]
        path = tmp_path / "sweep.csv"
        gd.write_sweep_csv(records, path)
        content = path.read_bytes()
        assert content == (
            b"param,regularized,exact,abs_err,rel_err\n"
            b"0.10000000000000001,0.5,0.25,0.25,1\n"
            b"0.01,0.33333333333333331,0.25,0.083333333333333329,0.33333333333333331\n"
        )

    def test_byte_identical_across_runs(self, tmp_path):
        nu, mu = gd.default_rn_pair(5)
        grid = np.geomspace(1e-1, 1e-6, 6)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        gd.write_sweep_csv(gd.sweep_gamma(nu, mu, "hellinger", grid), first)
        gd.write_sweep_csv(gd.sweep_gamma(nu, mu, "hellinger", grid), second)
        assert first.read_bytes() == second.read_bytes()


class TestDivergenceDispatch:
    def test_exact_and_regularized_kinds(self):
        nu, mu = gd.default_rn_pair(11)
        kl = gd.exact_kl(nu, mu)
        for data in (None, gd.GaussianPair(nu, mu)):
            assert kl == gd.exact_kl(nu, mu, data=data) == gd.exact_renyi(nu, mu, 1.0, data=data)
            assert kl == gd.exact_divergence(nu, mu, "kl", data=data)
        assert gd.exact_divergence(nu, mu, "renyi", 0.3) == gd.exact_renyi(nu, mu, 0.3)
        assert gd.exact_divergence(nu, mu, "bhatt") == gd.exact_bhattacharyya(nu, mu)
        assert gd.exact_divergence(nu, mu, "hellinger") == gd.exact_hellinger(nu, mu)
        g = 1e-3
        assert gd.regularized_divergence(nu, mu, "kl", g) == gd.regularized_kl(nu, mu, g)
        assert gd.regularized_renyi(nu, mu, 1.0, g) == gd.regularized_kl(nu, mu, g)
        for r in (1e-13, 0.3, 0.9):
            pair = gd.GaussianPair(nu, mu)
            assert gd.regularized_renyi(nu, mu, r, g) == pair.regularized("renyi", g, r)
        assert gd.regularized_divergence(nu, mu, "renyi", g, 0.3) == gd.regularized_renyi(
            nu, mu, 0.3, g
        )
        assert gd.regularized_divergence(nu, mu, "bhatt", g) == gd.regularized_bhattacharyya(
            nu, mu, g
        )
        assert gd.regularized_divergence(nu, mu, "hellinger", g) == gd.regularized_hellinger(
            nu, mu, g
        )

    def test_kind_validation(self):
        nu, mu = gd.default_rn_pair(11)
        # A bad kind or order is reported before data from another pair.
        for data in (None, gd.GaussianPair(mu, nu)):
            with pytest.raises(ValueError, match="unknown divergence kind"):
                gd.exact_divergence(nu, mu, "tv", data=data)
            with pytest.raises(ValueError, match="needs an order"):
                gd.exact_divergence(nu, mu, "renyi", data=data)
            with pytest.raises(ValueError, match="needs an order"):
                gd.exact_divergence(nu, mu, "renyi", 1.0, data=data)
            with pytest.raises(ValueError, match="only applies to renyi"):
                gd.exact_divergence(nu, mu, "kl", 0.5, data=data)
        # The exact dispatch checks the kind first, the regularized one the dims.
        other_dim = gd.GaussianMeasure(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="unknown divergence kind"):
            gd.exact_divergence(nu, other_dim, "nope")
        with pytest.raises(gd.DimMismatch):
            gd.regularized_divergence(nu, other_dim, "nope", 1e-3)


class TestDefaultPair:
    def test_deterministic_and_equivalent(self):
        nu1, mu1 = gd.default_rn_pair(42)
        nu2, mu2 = gd.default_rn_pair(42)
        assert np.array_equal(nu1.cov.entries, nu2.cov.entries)
        assert np.array_equal(mu1.mean, mu2.mean)
        data = gd.equivalence_data(nu1, mu1)
        assert not data.singular
        kl = gd.exact_kl(nu1, mu1, data=data)
        assert math.isfinite(kl) and kl > 0.0
