"""Shared test helpers: independent closed forms and random problem generators.

The divergence formulas below are written directly against dense matrices
with numpy's ``solve``/``slogdet``, never through the package's whitened
spectral path, so agreement between the two routes is a genuine cross-check
rather than the same arithmetic twice.  The one exception,
:func:`exact_renyi_reference`, follows the whitened path in high-precision
``mpmath`` arithmetic, so it measures the package's float64 rounding error.
"""

import mpmath
import numpy as np
import scipy.stats

from gaussdiv import GaussianMeasure, ShiftedOperator, SpectrumFamily, gen_measure


def rand_orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def rand_spd(rng, dim, lo=0.1, hi=2.0):
    """Random symmetric matrix with eigenvalues uniform in [lo, hi]."""
    q = rand_orthogonal(rng, dim)
    lam = rng.uniform(lo, hi, dim)
    m = (q * lam) @ q.T
    return 0.5 * (m + m.T)


def rand_measure(rng, dim, lo=0.1, hi=2.0, mean_scale=0.5):
    return GaussianMeasure(mean_scale * rng.standard_normal(dim), rand_spd(rng, dim, lo, hi))


def rand_shifted(rng, dim, lo=0.1, hi=2.0, shift=1.0):
    return ShiftedOperator(rand_spd(rng, dim, lo, hi), shift)


def rounded_zero_pair():
    """``N(0.1, I)`` against a dim-4 base with eigenvalues (1, 2, 0, 3) in a Haar frame: the
    zero comes back as the Rayleigh quotient -4.6e-17."""
    v = scipy.stats.ortho_group.rvs(4, random_state=0)
    mu = GaussianMeasure(np.zeros(4), (v * [1.0, 2.0, 0.0, 3.0]) @ v.T)
    return GaussianMeasure(0.1 * np.ones(4), np.eye(4)), mu


def far_pair(offset=1e160):
    """A dim-4 equivalent pair whose means lie about ``offset`` apart (``gen`` seeds 4 and 104):
    at 1e160 every divergence of the pair overflows a double."""
    nu = gen_measure(SpectrumFamily.power_law(4, 1.5), 4, offset)
    return nu, gen_measure(SpectrumFamily.exponential(4, 0.4), 104)


def overflowing_mean_pair():
    """A dim-2 equivalent pair with means at +-1e308, so that ``m_nu - m_mu`` overflows."""
    nu = GaussianMeasure([1e308, -1e308], [[2.0, 0.5], [0.5, 1.0]])
    return nu, GaussianMeasure([-1e308, 1e308], np.eye(2))


def perturbed_pair(rng, dim, s_radius=0.5, mean_scale=0.4):
    """Equivalent pair: nu is mu pushed through I - S with spectrum in [-s_radius, s_radius]."""
    mu = rand_measure(rng, dim, lo=0.2, hi=2.0, mean_scale=0.3)
    w, v = np.linalg.eigh(mu.cov.entries)
    root = (v * np.sqrt(w)) @ v.T
    frame = rand_orthogonal(rng, dim)
    s_mat = (frame * rng.uniform(-s_radius, s_radius, dim)) @ frame.T
    cov = root @ (np.eye(dim) - 0.5 * (s_mat + s_mat.T)) @ root
    shift = root @ (mean_scale * rng.standard_normal(dim))
    return GaussianMeasure(mu.mean + shift, 0.5 * (cov + cov.T)), mu


def kl_closed(m1, c1, m2, c2):
    """Textbook KL(N(m1,c1) || N(m2,c2))."""
    dim = len(m1)
    dm = np.asarray(m1, dtype=float) - np.asarray(m2, dtype=float)
    trace = float(np.trace(np.linalg.solve(c2, c1)))
    quad = float(dm @ np.linalg.solve(c2, dm))
    ld1 = np.linalg.slogdet(c1)[1]
    ld2 = np.linalg.slogdet(c2)[1]
    return 0.5 * (trace - dim + quad + ld2 - ld1)


def renyi_closed(m1, c1, m2, c2, r):
    """Order-r Renyi divergence normalized as -1/(r(1-r)) log integral p^r q^{1-r}."""
    dm = np.asarray(m1, dtype=float) - np.asarray(m2, dtype=float)
    blend = (1.0 - r) * np.asarray(c1) + r * np.asarray(c2)
    quad = 0.5 * float(dm @ np.linalg.solve(blend, dm))
    ldb = np.linalg.slogdet(blend)[1]
    ld1 = np.linalg.slogdet(c1)[1]
    ld2 = np.linalg.slogdet(c2)[1]
    return quad + (ldb - (1.0 - r) * ld1 - r * ld2) / (2.0 * r * (1.0 - r))


def bhatt_closed(m1, c1, m2, c2):
    """Bhattacharyya distance via the averaged covariance."""
    dm = np.asarray(m1, dtype=float) - np.asarray(m2, dtype=float)
    avg = 0.5 * (np.asarray(c1) + np.asarray(c2))
    quad = 0.125 * float(dm @ np.linalg.solve(avg, dm))
    lda = np.linalg.slogdet(avg)[1]
    ld1 = np.linalg.slogdet(c1)[1]
    ld2 = np.linalg.slogdet(c2)[1]
    return quad + 0.5 * (lda - 0.5 * (ld1 + ld2))


def hellinger_closed(m1, c1, m2, c2):
    return float(np.sqrt(2.0 * (1.0 - np.exp(-bhatt_closed(m1, c1, m2, c2)))))


def ref_extended_logdet(block, shift):
    """log shift + log det(block/shift + I) via slogdet; one shift for the whole tail."""
    dim = block.shape[0]
    return float(np.log(shift) + np.linalg.slogdet(block / shift + np.eye(dim))[1])


def ref_alpha_logdet(alpha, x, y):
    """Reference alpha log-det divergence through dense slogdet, mixed shifts allowed."""
    wx, wy = 0.5 * (1.0 - alpha), 0.5 * (1.0 + alpha)
    g, m = x.shift, y.shift
    combo_block = wx * x.block + wy * y.block
    combo_shift = wx * g + wy * m
    beta = (1.0 - alpha) * g / ((1.0 - alpha) * g + (1.0 + alpha) * m)
    bracket = (
        ref_extended_logdet(combo_block, combo_shift)
        - beta * ref_extended_logdet(x.block, g)
        - (1.0 - beta) * ref_extended_logdet(y.block, m)
        + (beta - wx) * np.log(g / m)
    )
    return 4.0 / (1.0 - alpha * alpha) * bracket


def dense_alpha_logdet(alpha, x_mat, y_mat):
    """Finite-dimensional alpha log-det divergence of dense SPD matrices, |alpha| <= 1."""
    if alpha >= 1.0:
        z = np.linalg.solve(y_mat, x_mat)
        return float(np.trace(z) - z.shape[0] - np.linalg.slogdet(z)[1])
    if alpha <= -1.0:
        return dense_alpha_logdet(1.0, y_mat, x_mat)
    wx, wy = 0.5 * (1.0 - alpha), 0.5 * (1.0 + alpha)
    ld_combo = np.linalg.slogdet(wx * x_mat + wy * y_mat)[1]
    ld_x = np.linalg.slogdet(x_mat)[1]
    ld_y = np.linalg.slogdet(y_mat)[1]
    return float(4.0 / (1.0 - alpha * alpha) * (ld_combo - wx * ld_x - wy * ld_y))


def exact_renyi_reference(nu, mu, orders, dps=60):
    """Order -> exact Renyi at each order in (0, 1), from the whitened spectrum in ``mpmath``.

    The inputs are taken at their exact binary values; ``C_mu = L L^T`` by
    Cholesky, ``S = I - L^{-1} C_nu L^{-T}`` by ``eigsy``.  The covariance part
    is written as ``r log(1-a) + log1p(r a/(1-a))``, free of cancellation: the
    naive ``(r-1) log(1-a) + log(1-(1-r) a)`` at 50 digits is itself wrong below
    about ``r = 1e-40``.
    """
    with mpmath.workdps(dps):
        n = nu.dim
        l_inv = mpmath.inverse(mpmath.cholesky(mpmath.matrix(mu.cov.entries.tolist())))
        s = mpmath.eye(n) - l_inv * mpmath.matrix(nu.cov.entries.tolist()) * l_inv.T
        a, v = mpmath.eigsy(0.5 * (s + s.T))
        d_hat = v.T * (l_inv * (mpmath.matrix(nu.mean.tolist()) - mpmath.matrix(mu.mean.tolist())))
        refs = {}
        for r in orders:
            r = mpmath.mpf(r)
            mean = sum(d_hat[k] ** 2 / (1 - (1 - r) * a[k]) for k in range(n)) / 2
            cov = sum(r * mpmath.log(1 - a[k]) + mpmath.log1p(r * a[k] / (1 - a[k]))
                      for k in range(n)) / (2 * r * (1 - r))
            refs[float(r)] = mean + cov
        return refs
