"""Alpha log-determinant divergence: frozen values, symmetries, limits, reduction."""

import math

import numpy as np
import pytest

import gaussdiv as gd
from oracles import dense_alpha_logdet, rand_spd, ref_alpha_logdet


def _pair(rng, dim, shift_x=None, shift_y=None):
    shift_x = float(rng.uniform(0.5, 2.0)) if shift_x is None else shift_x
    shift_y = float(rng.uniform(0.5, 2.0)) if shift_y is None else shift_y
    x = gd.ShiftedOperator(rand_spd(rng, dim), shift_x)
    y = gd.ShiftedOperator(rand_spd(rng, dim), shift_y)
    return x, y


class TestFrozenValues:
    def test_symmetric_point_mixed_shifts(self):
        # Pure shifts 2 and 1: combo total 1.5, beta = 2/3.
        x = gd.ShiftedOperator(np.zeros((1, 1)), 2.0)
        y = gd.ShiftedOperator(np.zeros((1, 1)), 1.0)
        res = gd.alpha_logdet(0.0, x, y)
        assert res.value == pytest.approx(0.2355660713127669, abs=1e-13)
        assert res.beta == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert res.path is gd.LogDetPath.GENERAL

    def test_kl_endpoint(self):
        x = gd.ShiftedOperator(np.array([[2.0]]), 1.0)
        y = gd.ShiftedOperator(np.array([[1.0]]), 1.0)
        res = gd.alpha_logdet(1.0, x, y)
        assert res.value == pytest.approx(0.5 - math.log(1.5), abs=1e-13)
        assert res.path is gd.LogDetPath.LIMIT_POS1
        assert res.beta is None

    def test_symmetric_point_equal_shifts(self):
        x = gd.ShiftedOperator(np.array([[2.0]]), 1.0)
        y = gd.ShiftedOperator(np.array([[1.0]]), 1.0)
        res = gd.alpha_logdet(0.0, x, y)
        assert res.value == pytest.approx(4.0 * math.log(2.5 / math.sqrt(6.0)), abs=1e-13)
        assert res.path is gd.LogDetPath.EQUAL_SHIFT
        assert res.beta == 0.5

    def test_mirror_endpoint(self):
        x = gd.ShiftedOperator(np.array([[2.0]]), 1.0)
        y = gd.ShiftedOperator(np.array([[1.0]]), 1.0)
        res = gd.alpha_logdet(-1.0, x, y)
        assert res.value == pytest.approx(math.log(1.5) - 1.0 / 3.0, abs=1e-13)
        assert res.path is gd.LogDetPath.LIMIT_NEG1
        assert res.value == gd.alpha_logdet(1.0, y, x).value


class TestIdentityOfIndiscernibles:
    def test_zero_at_equal_arguments(self):
        rng = np.random.default_rng(42)
        x = gd.ShiftedOperator(rand_spd(rng, 5), 0.8)
        for alpha in (-1.0, -0.4, 0.0, 0.6, 1.0):
            assert abs(gd.alpha_logdet(alpha, x, x).value) <= 1e-10

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            x, y = _pair(rng, int(rng.integers(1, 8)))
            alpha = float(rng.uniform(-1.0, 1.0))
            assert gd.alpha_logdet(alpha, x, y).value >= -1e-10


class TestDualSymmetry:
    def test_exact_on_grid(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            x, y = _pair(rng, int(rng.integers(1, 9)))
            for alpha in (-0.9, -0.5, 0.0, 0.5, 0.9):
                fwd, mirrored = gd.alpha_logdet_dual_check(alpha, x, y)
                assert abs(fwd - mirrored) <= 1e-10

    def test_dual_check_returns_both_values(self):
        rng = np.random.default_rng(1)
        x, y = _pair(rng, 3)
        fwd, mirrored = gd.alpha_logdet_dual_check(0.3, x, y)
        assert fwd == gd.alpha_logdet(0.3, x, y).value
        assert mirrored == gd.alpha_logdet(-0.3, y, x).value


class TestAgainstDenseReference:
    def test_general_path_matches_slogdet_route(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            x, y = _pair(rng, int(rng.integers(1, 8)))
            alpha = float(rng.uniform(-0.95, 0.95))
            got = gd.alpha_logdet(alpha, x, y).value
            assert got == pytest.approx(ref_alpha_logdet(alpha, x, y), abs=1e-10, rel=1e-10)

    def test_equal_shift_path_matches_general_formula(self):
        # Same slogdet reference; only the library takes the simplified branch.
        rng = np.random.default_rng(7)
        for _ in range(20):
            shift = float(rng.uniform(0.5, 2.0))
            x, y = _pair(rng, int(rng.integers(1, 8)), shift_x=shift, shift_y=shift)
            alpha = float(rng.uniform(-0.95, 0.95))
            res = gd.alpha_logdet(alpha, x, y)
            assert res.path is gd.LogDetPath.EQUAL_SHIFT
            assert res.value == pytest.approx(ref_alpha_logdet(alpha, x, y), abs=1e-10, rel=1e-10)

    def test_equal_shifts_reduce_to_finite_dimensional_divergence(self):
        # With one common shift the extended divergence is the classical
        # matrix divergence of the dense operators block + shift*I.
        rng = np.random.default_rng(13)
        for _ in range(15):
            dim = int(rng.integers(1, 8))
            shift = float(rng.uniform(0.4, 1.5))
            x, y = _pair(rng, dim, shift_x=shift, shift_y=shift)
            x_mat = x.block + shift * np.eye(dim)
            y_mat = y.block + shift * np.eye(dim)
            for alpha in (-1.0, -0.6, 0.0, 0.7, 1.0):
                got = gd.alpha_logdet(alpha, x, y).value
                want = dense_alpha_logdet(alpha, x_mat, y_mat)
                assert abs(got - want) <= 1e-9 * (1.0 + abs(want))


class TestEndpointLimits:
    def test_continuity_at_plus_one(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            x, y = _pair(rng, int(rng.integers(1, 7)))
            near = gd.alpha_logdet(1.0 - 1e-6, x, y)
            limit = gd.alpha_logdet(1.0, x, y)
            assert near.path is gd.LogDetPath.GENERAL
            assert abs(near.value - limit.value) < 1e-4

    def test_continuity_at_minus_one(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            x, y = _pair(rng, int(rng.integers(1, 7)))
            near = gd.alpha_logdet(-1.0 + 1e-6, x, y)
            limit = gd.alpha_logdet(-1.0, x, y)
            assert abs(near.value - limit.value) < 1e-4

    def test_dispatch_margin(self):
        x = gd.ShiftedOperator(np.array([[2.0]]), 1.0)
        y = gd.ShiftedOperator(np.array([[1.0]]), 1.0)
        assert gd.alpha_logdet(1.0 - 1e-13, x, y).path is gd.LogDetPath.LIMIT_POS1
        assert gd.alpha_logdet(-1.0 + 1e-13, x, y).path is gd.LogDetPath.LIMIT_NEG1
        assert gd.alpha_logdet(1.0 - 1e-11, x, y).path is gd.LogDetPath.EQUAL_SHIFT


class TestBetaRange:
    def test_beta_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            x, y = _pair(rng, 2, shift_x=float(rng.uniform(0.1, 5.0)), shift_y=float(rng.uniform(0.1, 5.0)))
            alpha = float(rng.uniform(-0.999, 0.999))
            res = gd.alpha_logdet(alpha, x, y)
            assert res.beta is not None
            assert 0.0 < res.beta < 1.0


class TestValidation:
    def test_alpha_out_of_range(self):
        x = gd.shifted_identity(2)
        with pytest.raises(ValueError):
            gd.alpha_logdet(1.5, x, x)
        with pytest.raises(ValueError):
            gd.alpha_logdet(math.nan, x, x)

    def test_dim_mismatch(self):
        with pytest.raises(gd.DimMismatch):
            gd.alpha_logdet(0.0, gd.shifted_identity(2), gd.shifted_identity(3))

    def test_nonpositive_shift(self):
        bad = gd.ShiftedOperator(np.eye(2), 0.0)
        with pytest.raises(gd.NotPositive):
            gd.alpha_logdet(0.0, bad, gd.shifted_identity(2))

    def test_nonpositive_operator_inside_formula(self):
        # Block eigenvalue below -shift: positivity fails inside the logdet.
        bad = gd.ShiftedOperator(np.diag([-2.0]), 1.0)
        with pytest.raises(gd.NotPositive):
            gd.alpha_logdet(0.0, bad, gd.shifted_identity(1))

    def test_rejects_nonsymmetric_blocks(self):
        # alpha_logdet takes self-adjoint operators; the product of two noncommuting
        # ones is not, though its extended determinant still factors.
        x = gd.ShiftedOperator(np.array([[2.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0],
                                         [0.0, 0.0, 0.5, 0.0], [0.0, 0.0, 0.0, 0.1]]), 1.0)
        y = gd.ShiftedOperator(np.diag([0.3, 2.0, 1.0, 0.0]), 0.5)
        product = gd.shifted_mul(x, y)
        rhs = gd.ext_fredholm_logdet(x) + gd.ext_fredholm_logdet(y)
        assert gd.ext_fredholm_logdet(product) == pytest.approx(rhs, rel=1e-12)
        for alpha in (-1.0, 0.0, 0.4, 1.0):
            with pytest.raises(ValueError, match="self-adjoint"):
                gd.alpha_logdet(alpha, product, x)
            with pytest.raises(ValueError, match="self-adjoint"):
                gd.alpha_logdet(alpha, x, product)
