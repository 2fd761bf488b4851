"""Shifted-operator calculus: construction, algebra, determinants, roots."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import gaussdiv as gd
from oracles import rand_orthogonal, rand_spd, ref_extended_logdet


class TestThresholds:
    def test_defaults(self):
        assert gd.PSD_CLIP == 1e-12
        assert gd.SINGULAR_MARGIN == 1e-10
        assert gd.operators._SYM_TOL == 1e-10
        assert gd.operators._EIG_TOL == 1e-9


class TestTraceClassBlock:
    def test_symmetrizes_rounding_noise(self):
        m = np.array([[1.0, 0.5 + 1e-13], [0.5, 2.0]])
        block = gd.TraceClassBlock(m)
        assert_allclose(block.entries, block.entries.T)
        assert not block.entries.flags.writeable

    def test_rejects_genuine_asymmetry(self):
        with pytest.raises(ValueError):
            gd.TraceClassBlock([[0.0, 1.0], [0.0, 0.0]])

    def test_symmetry_tolerance_is_relative_to_the_largest_entry(self):
        # An absolute tolerance would take this for diag(1e-11, 1e-11).
        with pytest.raises(ValueError, match="not symmetric"):
            gd.TraceClassBlock(1e-11 * np.array([[1.0, 0.9], [-0.9, 1.0]]))
        for scale in (1e-300, 1e-11, 1.0, 1e11, 1e300):
            m = scale * np.array([[1.0, 0.5 + 1e-13], [0.5, 2.0]])
            assert_allclose(gd.TraceClassBlock(m).entries, 0.5 * (m + m.T), rtol=0, atol=0)
        assert not gd.TraceClassBlock(np.zeros((3, 3))).entries.any()

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            gd.TraceClassBlock(np.zeros((2, 3)))
        with pytest.raises(gd.NonFinite):
            gd.TraceClassBlock([[np.nan]])


class TestShiftedOperator:
    def test_nonsymmetric_block_kept_verbatim(self):
        block = np.array([[0.0, 1.0], [0.0, 0.0]])
        op = gd.ShiftedOperator(block, 1.0)
        assert_allclose(op.block, block)

    def test_rejects_nonfinite_shift(self):
        with pytest.raises(gd.NonFinite):
            gd.ShiftedOperator(np.zeros((1, 1)), math.inf)


class TestExtendedTrace:
    def test_counts_shift_once(self):
        op = gd.ShiftedOperator(np.diag([1.0, 2.0]), 0.25)
        assert gd.ext_trace(op) == pytest.approx(3.25)

    def test_linear_in_combinations(self):
        rng = np.random.default_rng(42)
        x = gd.ShiftedOperator(rand_spd(rng, 4), 0.7)
        y = gd.ShiftedOperator(rand_spd(rng, 4), 1.3)
        combo = gd.shifted_combine([(0.3, x), (-1.2, y)])
        expected = 0.3 * gd.ext_trace(x) - 1.2 * gd.ext_trace(y)
        assert gd.ext_trace(combo) == pytest.approx(expected, abs=1e-12)


class TestFredholmLogdet:
    def test_rank_one(self):
        op = gd.ShiftedOperator(np.array([[1.0]]), 2.0)
        assert gd.ext_fredholm_logdet(op) == pytest.approx(math.log(3.0), rel=1e-14)

    def test_pure_shift(self):
        op = gd.ShiftedOperator(np.zeros((1, 1)), 0.5)
        assert gd.ext_fredholm_logdet(op) == pytest.approx(math.log(0.5), rel=1e-14)

    def test_diagonal(self):
        op = gd.ShiftedOperator(np.diag([1.0, 2.0]), 1.0)
        assert gd.ext_fredholm_logdet(op) == pytest.approx(math.log(6.0), rel=1e-14)

    def test_product_property_noncommuting(self):
        # Blocks of products are nonsymmetric; the determinant must still factor.
        rng = np.random.default_rng(42)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            x = gd.ShiftedOperator(rand_spd(rng, dim), float(rng.uniform(0.5, 2.0)))
            y = gd.ShiftedOperator(rand_spd(rng, dim), float(rng.uniform(0.5, 2.0)))
            lhs = gd.ext_fredholm_logdet(gd.shifted_mul(x, y))
            rhs = gd.ext_fredholm_logdet(x) + gd.ext_fredholm_logdet(y)
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))

    def test_requires_positive_shift(self):
        with pytest.raises(gd.NotPositive, match="strictly positive shift"):
            gd.ext_fredholm_logdet(gd.ShiftedOperator(np.eye(2), 0.0))
        with pytest.raises(gd.NotPositive, match="strictly positive shift"):
            gd.ext_fredholm_logdet(gd.ShiftedOperator(np.eye(2), -1.0))

    def test_rejects_nonpositive_operator(self):
        with pytest.raises(gd.NotPositive):
            gd.ext_fredholm_logdet(gd.ShiftedOperator(np.diag([-1.0, 0.0]), 1.0))

    def test_symmetric_positivity_is_the_cholesky_factorization(self):
        # Within singular_margin of the boundary the factorization still succeeds, so the value returns.
        op = gd.ShiftedOperator(np.diag([-1.0 + 1e-11, 0.0]), 1.0)
        assert gd.ext_fredholm_logdet(op) == pytest.approx(math.log(1e-11), rel=1e-4)


class TestCarleman:
    def test_scalar(self):
        val = gd.carleman_logdet2(gd.TraceClassBlock([[-0.5]]))
        assert val == pytest.approx(math.log(0.5) + 0.5, rel=1e-14)

    def test_two_eigenvalues(self):
        val = gd.carleman_logdet2(gd.TraceClassBlock(np.diag([0.5, -0.25])))
        expected = (math.log(1.5) - 0.5) + (math.log(0.75) + 0.25)
        assert val == pytest.approx(expected, rel=1e-13)

    def test_identity_with_fredholm(self):
        # log det2(I+T) = log det_X(T + 1*I) - tr_X(T + 1*I) + 1
        rng = np.random.default_rng(42)
        for _ in range(10):
            dim = int(rng.integers(1, 6))
            t = gd.TraceClassBlock(rand_spd(rng, dim, lo=-0.8, hi=3.0))
            op = gd.ShiftedOperator(t, 1.0)
            lhs = gd.carleman_logdet2(t)
            rhs = gd.ext_fredholm_logdet(op) - gd.ext_trace(op) + 1.0
            assert abs(lhs - rhs) <= 1e-10

    def test_nonpositive_for_perturbations(self):
        # log det2(I - S) <= 0 with equality exactly at S = 0.
        rng = np.random.default_rng(7)
        for _ in range(10):
            dim = int(rng.integers(1, 6))
            q = rand_orthogonal(rng, dim)
            alphas = rng.uniform(-1.5, 0.9, dim)
            s = (q * alphas) @ q.T
            val = gd.carleman_logdet2(gd.TraceClassBlock(-0.5 * (s + s.T)))
            assert val < 0.0
        assert gd.carleman_logdet2(gd.TraceClassBlock(np.zeros((3, 3)))) == 0.0

    def test_rejects_singular(self):
        with pytest.raises(gd.NotPositive):
            gd.carleman_logdet2(gd.TraceClassBlock([[-1.0]]))


class TestShiftedAlgebra:
    def test_product_block_and_shift(self):
        m = gd.shifted_mul(gd.ShiftedOperator(np.diag([1.0]), 1.0), gd.ShiftedOperator(np.diag([2.0]), 1.0))
        assert_allclose(m.block, [[5.0]])
        assert m.shift == 1.0

    def test_inverse_block_and_shift(self):
        inv = gd.shifted_inv(gd.ShiftedOperator(np.diag([1.0]), 1.0))
        assert_allclose(inv.block, [[-0.5]])
        assert inv.shift == 1.0

    def test_inverse_involution(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            dim = int(rng.integers(1, 7))
            op = gd.ShiftedOperator(rand_spd(rng, dim), float(rng.uniform(0.3, 2.0)))
            back = gd.shifted_inv(gd.shifted_inv(op))
            assert abs(back.shift - op.shift) <= 1e-12
            assert np.max(np.abs(back.block - op.block)) <= 1e-10

    def test_inverse_times_original_is_identity(self):
        rng = np.random.default_rng(3)
        op = gd.ShiftedOperator(rand_spd(rng, 5), 0.8)
        prod = gd.shifted_mul(gd.shifted_inv(op), op)
        assert prod.shift == pytest.approx(1.0)
        assert np.max(np.abs(prod.block)) <= 1e-10

    def test_inverse_of_nonsymmetric_block(self):
        rng = np.random.default_rng(11)
        x = gd.ShiftedOperator(rand_spd(rng, 4), 1.0)
        y = gd.ShiftedOperator(rand_spd(rng, 4), 0.5)
        prod = gd.shifted_mul(x, y)
        back = gd.shifted_inv(gd.shifted_inv(prod))
        assert np.max(np.abs(back.block - prod.block)) <= 1e-10

    def test_identity(self):
        eye = gd.shifted_identity(3)
        assert eye.shift == 1.0
        assert_allclose(eye.block, np.zeros((3, 3)))

    def test_dim_mismatch(self):
        a = gd.ShiftedOperator(np.zeros((2, 2)), 1.0)
        b = gd.ShiftedOperator(np.zeros((3, 3)), 1.0)
        with pytest.raises(gd.DimMismatch):
            gd.shifted_mul(a, b)
        with pytest.raises(gd.DimMismatch):
            gd.shifted_combine([(1.0, a), (1.0, b)])
        with pytest.raises(ValueError):
            gd.shifted_combine([])

    def test_inverse_requires_positivity(self):
        with pytest.raises(gd.NotPositive):
            gd.shifted_inv(gd.ShiftedOperator(np.eye(2), -1.0))
        with pytest.raises(gd.NotPositive):
            gd.shifted_inv(gd.ShiftedOperator(np.diag([-2.0, 0.0]), 1.0))


class TestSpectralHelpers:
    def test_sym_eigen_descending_orthonormal(self):
        rng = np.random.default_rng(42)
        t = gd.TraceClassBlock(rand_spd(rng, 6, lo=-1.0, hi=3.0))
        spec = gd.sym_eigen(t)
        assert np.all(np.diff(spec.eigenvalues) <= 0)
        assert_allclose(spec.eigenvectors.T @ spec.eigenvectors, np.eye(6), atol=1e-12)
        recon = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.T
        assert_allclose(recon, t.entries, atol=1e-12)

    def test_psd_sqrt_squares_back(self):
        rng = np.random.default_rng(5)
        t = gd.TraceClassBlock(rand_spd(rng, 5, lo=0.0, hi=2.0))
        root = gd.psd_sqrt(t)
        assert_allclose(root.entries @ root.entries, t.entries, atol=1e-12)

    def test_psd_sqrt_clips_rounding_noise(self):
        t = gd.TraceClassBlock(np.diag([1.0, -1e-13]))
        root = gd.psd_sqrt(t)
        assert root.entries[1, 1] == 0.0

    def test_psd_sqrt_rejects_negative(self):
        with pytest.raises(gd.NotPSD):
            gd.psd_sqrt(gd.TraceClassBlock(np.diag([1.0, -0.1])))


class TestSolveLower:
    """``_solve_lower`` gives the bits of ``scipy.linalg.solve_triangular(lower=True)``."""

    @staticmethod
    def factors(dim):
        # cho_factor's Fortran-ordered factor keeps the input above the diagonal; the
        # whitening's base factor is np.tril of it, C-ordered.
        rng = np.random.default_rng(dim)
        factor = gd.operators._shifted_cholesky(rand_spd(rng, dim, lo=0.1, hi=3.0), 0.0)[0]
        return {"F": factor, "C": np.ascontiguousarray(factor), "tril": np.tril(factor)}

    @pytest.mark.parametrize("dim", [1, 20, 60, 200])
    @pytest.mark.parametrize("trans", [0, 1])
    def test_bit_identical_to_solve_triangular(self, dim, trans):
        rng = np.random.default_rng(1000 + dim)
        matrix = rng.standard_normal((dim, dim + 3))
        rhs = {"vector": rng.standard_normal(dim), "C matrix": matrix,
               "F matrix": np.asfortranarray(matrix)}
        for layout, factor in self.factors(dim).items():
            for kind, b in rhs.items():
                want = scipy.linalg.solve_triangular(factor, b, lower=True, trans=trans)
                got = gd.operators._solve_lower(factor, b, trans)
                assert got.shape == want.shape, (layout, kind)
                assert np.array_equal(got, want), (layout, kind)

    @pytest.mark.parametrize("layout", ["F", "C"])
    def test_a_zero_on_the_diagonal_raises(self, layout):
        factor = self.factors(20)[layout].copy()
        factor[7, 7] = 0.0
        with pytest.raises(scipy.linalg.LinAlgError):
            gd.operators._solve_lower(factor, np.ones(20))


@st.composite
def shifted_operators(draw, max_dim=4):
    dim = draw(st.integers(1, max_dim))
    seed = draw(st.integers(0, 2**32 - 1))
    shift = draw(st.floats(0.3, 3.0))
    lo = draw(st.floats(-0.25, 0.0))
    hi = draw(st.floats(0.1, 4.0))
    rng = np.random.default_rng(seed)
    return gd.ShiftedOperator(rand_spd(rng, dim, lo=lo, hi=hi), shift)


@settings(max_examples=60, deadline=None)
@given(shifted_operators())
def test_fredholm_matches_dense_slogdet(op):
    # Independent route: the extended determinant counts the shift once, so it
    # differs from the dense slogdet by (dim - 1) log(shift).
    expected = ref_extended_logdet(op.block, op.shift)
    assert gd.ext_fredholm_logdet(op) == pytest.approx(expected, abs=1e-10, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(shifted_operators(), st.integers(0, 2**32 - 1), st.floats(0.3, 3.0))
def test_fredholm_product_property(x, seed, shift):
    rng = np.random.default_rng(seed)
    y = gd.ShiftedOperator(rand_spd(rng, x.dim, lo=0.05, hi=2.0), shift)
    lhs = gd.ext_fredholm_logdet(gd.shifted_mul(x, y))
    rhs = gd.ext_fredholm_logdet(x) + gd.ext_fredholm_logdet(y)
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))
