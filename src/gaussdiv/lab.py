"""Experiment harness: seeded generation, sampling, Monte-Carlo oracles, sweeps, CSV.

Reproducibility scheme
----------------------
All randomness flows through Philox, a counter-based generator with 64-bit
words, keyed by the pair ``(seed, stream)``.  Each consumer owns a fixed
stream constant below, so the draws of one operation never depend on how many
draws another operation made.  Uniform variates are built from 53-bit
integers mapped to the open interval (0, 1), and standard normals are their
inverse-CDF images; both choices are bit-stable across platforms.  Derived
seeds for independent sub-experiments come from :func:`split_seed`.  Identical
seeds therefore reproduce identical sample matrices, identical Monte-Carlo
estimates, and byte-identical CSV files.

Sampling runs in blocks of rows on several threads.  A block starts its
generator at the block's first draw, by advancing the Philox counter, so a
sample matrix does not depend on how its rows are split across threads: with
one BLAS thread it equals, byte for byte, the matrix of one serial pass.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import NotPositive
from .gaussian import (
    GaussianMeasure,
    GaussianPair,
    _integral,
    exact_divergence,
    exact_renyi,
    log_radon_nikodym_batch,
)
from .operators import SINGULAR_MARGIN, TraceClassBlock, _for_row_blocks, _spectral_sqrt, sym_eigen

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # splitmix64 increment

# Stream constants; one per randomness consumer.
STREAM_ORTHO = 1  # random orthogonal frame in gen_measure
STREAM_MEAN = 2  # mean vector in gen_measure
STREAM_SAMPLE = 3  # Gaussian sample matrices


def split_seed(seed: int, index: int) -> int:
    """Derive an independent 64-bit seed for sub-experiment ``index``."""
    return (int(seed) + (int(index) + 1) * _GOLDEN) & _MASK64


def _generator(seed: int, stream: int) -> np.random.Generator:
    key = np.array([int(seed) & _MASK64, int(stream) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _normals(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """Draws ``start`` to ``start + count`` of the ``(seed, stream)`` normal sequence.

    Philox makes four 64-bit words per counter step and each draw takes one
    word, so ``start`` must be a multiple of 4.
    """
    gen = _generator(seed, stream)
    gen.bit_generator.advance(start // 4)
    u = gen.integers(0, 1 << 53, size=count, dtype=np.uint64).astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return ndtri(u, out=u)


def standard_normal(seed: int, stream: int, shape) -> np.ndarray:
    """Standard normal variates via inverse CDF on open-interval 53-bit uniforms, in C order,
    in one serial pass: only set-up code (``gen_measure``, ``default_rn_pair``) calls it."""
    return _normals(seed, stream, 0, int(np.prod(shape, dtype=np.int64))).reshape(shape)


# ---------------------------------------------------------------------------
# Synthetic measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumFamily:
    """Eigenvalue profile for synthetic covariances.

    ``powerlaw`` decays as k^(-s) with finite s > 1 (summable, mimicking
    trace-class decay), ``exponential`` as exp(-rate (k-1)) with finite
    rate > 0, ``explicit`` uses the given strictly positive, finite values, sorted
    descending.  ``dim`` is a positive integer, not a bool or a float.  A decay
    that underflows to zero within ``dim`` is rejected.
    """

    kind: str
    dim: int
    s: float = 2.0
    rate: float = 1.0
    values: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("powerlaw", "exponential", "explicit"):
            raise ValueError(f"unknown spectrum family {self.kind!r}")
        if isinstance(self.dim, bool) or not isinstance(self.dim, numbers.Integral) or self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.kind == "powerlaw" and not 1.0 < self.s < math.inf:
            raise ValueError("power-law exponent must satisfy s > 1 and be finite")
        if self.kind == "exponential" and not 0.0 < self.rate < math.inf:
            raise ValueError("exponential rate must be strictly positive and finite")
        if self.kind == "explicit":
            if not self.values:
                raise ValueError("explicit family needs at least one value")
            if len(self.values) != self.dim:
                raise ValueError("explicit family: len(values) must equal dim")
            if min(self.values) <= 0.0:
                raise ValueError("explicit eigenvalues must be strictly positive")
            if not all(map(math.isfinite, self.values)):
                raise ValueError("explicit family: values must be finite")
        elif not float(np.min(self.eigenvalues())) > 0.0:
            raise ValueError(f"{self.kind} eigenvalues underflow to zero at dim {self.dim}")

    @classmethod
    def power_law(cls, dim: int, s: float = 2.0) -> "SpectrumFamily":
        return cls("powerlaw", dim, s=s)

    @classmethod
    def exponential(cls, dim: int, rate: float = 1.0) -> "SpectrumFamily":
        return cls("exponential", dim, rate=rate)

    @classmethod
    def explicit(cls, values) -> "SpectrumFamily":
        vals = tuple(float(v) for v in values)
        return cls("explicit", len(vals), values=vals)

    def eigenvalues(self) -> np.ndarray:
        k = np.arange(1, self.dim + 1, dtype=float)
        if self.kind == "powerlaw":
            return k ** (-self.s)
        if self.kind == "exponential":
            return np.exp(-self.rate * (k - 1.0))
        return np.sort(np.array(self.values, dtype=float))[::-1]


def _haar_frame(seed: int, dim: int) -> np.ndarray:
    """Haar-distributed orthogonal ``dim x dim`` frame: QR of a Gaussian matrix with the sign fix."""
    q, r = np.linalg.qr(standard_normal(seed, STREAM_ORTHO, (dim, dim)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def gen_measure(family: SpectrumFamily, seed: int, mean_scale: float = 0.0) -> GaussianMeasure:
    """Random Gaussian measure with the family's spectrum, deterministic in ``seed``.

    The covariance is ``V diag(lambda) V^T`` for a Haar orthogonal ``V``; the
    mean is ``mean_scale`` times a standard normal vector.
    """
    mean_scale = float(mean_scale)
    if mean_scale < 0:
        raise ValueError("mean_scale must be nonnegative")
    q = _haar_frame(seed, family.dim)
    cov = (q * family.eigenvalues()) @ q.T
    mean = mean_scale * standard_normal(seed, STREAM_MEAN, family.dim)
    return GaussianMeasure(mean, TraceClassBlock(0.5 * (cov + cov.T)))


def sample_gaussian(measure: GaussianMeasure, n: int, seed: int) -> np.ndarray:
    """``n`` rows ``mean + C^{1/2} z`` with fresh standard normal ``z`` per row."""
    if not _integral(n) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    root = _spectral_sqrt(measure.spectrum).entries
    dim = measure.dim
    samples = np.empty((int(n), dim))

    def fill(start: int, stop: int) -> None:
        z = _normals(seed, STREAM_SAMPLE, start * dim, (stop - start) * dim)
        block = np.matmul(z.reshape(stop - start, dim), root, out=samples[start:stop])
        block += measure.mean

    _for_row_blocks(int(n), dim, fill)
    return samples


# ---------------------------------------------------------------------------
# Monte-Carlo oracles
# ---------------------------------------------------------------------------


def _mean_stderr(vals: np.ndarray) -> tuple[float, float]:
    """Sample mean of ``vals`` and its standard error, which needs at least two samples."""
    if vals.size < 2:
        raise ValueError(f"a standard error needs at least 2 samples, got {vals.size}")
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(vals.size))


def mc_kl_check(
    nu: GaussianMeasure,
    mu: GaussianMeasure,
    n: int,
    seed: int,
    *,
    data: GaussianPair | None = None,
) -> tuple[float, float]:
    """Monte-Carlo estimate of KL as the nu-mean of the log density ratio.

    Returns ``(estimate, stderr)``; the estimate is expected within 4 standard
    errors of :func:`~gaussdiv.gaussian.exact_kl`.  ``data``, the
    :class:`~gaussdiv.gaussian.GaussianPair` ``(nu, mu)``, lends its whitening.
    """
    samples = sample_gaussian(nu, n, seed)
    return _mean_stderr(log_radon_nikodym_batch(samples, nu, mu, data=data))


def mc_rn_normalization(
    nu: GaussianMeasure,
    mu: GaussianMeasure,
    n: int,
    seed: int,
    *,
    data: GaussianPair | None = None,
) -> tuple[float, float]:
    """mu-mean of exp(log density ratio); the exact value is 1 (total mass of nu)."""
    samples = sample_gaussian(mu, n, seed)
    return _mean_stderr(np.exp(log_radon_nikodym_batch(samples, nu, mu, data=data)))


def gauss_exp_quadratic(
    measure: GaussianMeasure,
    m_op: TraceClassBlock,
    b: np.ndarray,
) -> float:
    """Closed form of ``integral exp(1/2 <Mx,x> + <b,x>) dN(0, Q)``.

    Equals ``det(I - T)^{-1/2} exp(1/2 ||(I-T)^{-1/2} Q^{1/2} b||^2)`` with
    ``T = Q^{1/2} M Q^{1/2}``, evaluated in the log domain.  Requires a
    centered measure and ``I - T`` positive definite.
    """
    if np.any(measure.mean != 0.0):
        raise ValueError("gauss_exp_quadratic requires a centered measure")
    b = np.asarray(b, dtype=float)
    if b.shape != (measure.dim,):
        raise ValueError(f"b must be a vector of length {measure.dim}")
    if m_op.dim != measure.dim:
        raise ValueError(f"M has dim {m_op.dim}, measure has dim {measure.dim}")
    root = _spectral_sqrt(measure.spectrum).entries
    t_mat = root @ m_op.entries @ root
    spec = sym_eigen(TraceClassBlock(0.5 * (t_mat + t_mat.T)))
    t_eig = spec.eigenvalues
    if t_eig.size and float(np.max(t_eig)) >= 1.0 - SINGULAR_MARGIN:
        raise NotPositive("I - Q^{1/2} M Q^{1/2} is not positive definite")
    b_hat = spec.eigenvectors.T @ (root @ b)
    log_val = -0.5 * float(np.sum(np.log1p(-t_eig))) + 0.5 * float(
        np.sum(b_hat * b_hat / (1.0 - t_eig))
    )
    return math.exp(log_val)


def _moment4(
    measure: GaussianMeasure, a: np.ndarray, b: np.ndarray, n: int, seed: int
) -> tuple[float, float, float]:
    """Fourth-moment Monte Carlo vs closed form, with the estimate's stderr."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    samples = sample_gaussian(measure, n, seed)
    centered = samples - measure.mean
    vals = (centered @ a) ** 2 * (centered @ b) ** 2
    q = measure.cov.entries
    closed = float((a @ q @ a) * (b @ q @ b) + 2.0 * (a @ q @ b) ** 2)
    mc, stderr = _mean_stderr(vals)
    return mc, closed, stderr


def moment4_check(
    measure: GaussianMeasure, a: np.ndarray, b: np.ndarray, n: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo and closed-form values of ``E <x-m,a>^2 <x-m,b>^2``.

    The closed form is ``<a,Qa><b,Qb> + 2<a,Qb>^2`` (so ``3 <a,Qa>^2`` when
    ``a = b``); the pair is the sampler-validation gate's raw material.
    """
    mc, closed, _ = _moment4(measure, a, b, n, seed)
    return mc, closed


# Canonical gate configurations: (measure builder, a, b).
_GATE_CONFIGS = (
    (lambda: GaussianMeasure([0.0, 0.0], np.eye(2)), (1.0, 0.0), (0.0, 1.0)),
    (lambda: GaussianMeasure([0.0, 0.0], np.eye(2)), (1.0, 0.0), (1.0, 0.0)),
    (lambda: GaussianMeasure([0.0], [[2.0]]), (1.0,), (1.0,)),
)


def sampler_gate(n: int, seed: int) -> bool:
    """Fourth-moment sanity gate for the sampler.

    Runs the three canonical ``(a, b)`` configurations on split seeds and
    demands ``|mc - closed| <= 5 stderr`` for each; run this before trusting
    any Radon-Nikodym Monte Carlo.
    """
    for index, (build, a, b) in enumerate(_GATE_CONFIGS):
        mc, closed, stderr = _moment4(build(), np.array(a), np.array(b), n, split_seed(seed, index))
        if not abs(mc - closed) <= 5.0 * stderr:
            return False
    return True


# ---------------------------------------------------------------------------
# Sweeps and CSV output
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRecord:
    """One sweep grid point: parameter, both values, and their disagreement."""

    param: float
    regularized: float
    exact: float
    abs_err: float
    rel_err: float


def _record(param: float, regularized: float, exact: float) -> SweepRecord:
    abs_err = abs(regularized - exact)
    if exact != 0.0:
        rel_err = abs_err / abs(exact)
    else:
        rel_err = 0.0 if abs_err == 0.0 else math.inf
    return SweepRecord(float(param), float(regularized), float(exact), abs_err, rel_err)


def sweep_gamma(
    nu: GaussianMeasure,
    mu: GaussianMeasure,
    kind: str,
    grid,
    r: float | None = None,
) -> list[SweepRecord]:
    """Regularized-vs-exact comparison along a strictly decreasing gamma grid.

    The exact column is constant; for equivalent pairs the abs_err column
    shrinks toward zero as gamma does.  One :class:`GaussianPair` serves the
    whole grid.  At an order routed to a KL limit (``kl``, and Renyi orders
    next to 0 or 1) a grid point adds O(dim) work, not a factorization; every
    other order pays three Cholesky factors per point, of ``C_nu + gamma I``,
    ``C_mu + gamma I`` and the shifted blend.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or np.min(grid) <= 0.0:
        raise ValueError("gamma grid must be nonempty and strictly positive")
    if grid.size > 1 and np.any(np.diff(grid) >= 0.0):
        raise ValueError("gamma grid must be strictly decreasing")
    pair = GaussianPair(nu, mu)
    exact = exact_divergence(nu, mu, kind, r, data=pair)
    return [_record(g, pair.regularized(kind, float(g), r), exact) for g in grid]


def sweep_r(nu: GaussianMeasure, mu: GaussianMeasure, gamma: float, grid) -> list[SweepRecord]:
    """Renyi order sweep; ``gamma = 0`` selects the exact divergences.

    Each record compares the gamma-path value at order r against the exact
    value at the same order; as the grid approaches 1 or 0 the values approach
    the two KL directions.  Records come back sorted by r.
    """
    gamma = float(gamma)
    if not gamma >= 0.0:
        raise ValueError("gamma must be nonnegative (0 selects exact divergences)")
    grid = np.sort(np.asarray(grid, dtype=float))
    if grid.size == 0 or np.min(grid) <= 0.0 or np.max(grid) >= 1.0:
        raise ValueError("r grid must be nonempty and lie strictly inside (0, 1)")
    pair = GaussianPair(nu, mu)
    records = []
    for r in grid:
        exact = exact_renyi(nu, mu, float(r), data=pair)
        value = exact if gamma == 0.0 else pair.regularized("renyi", gamma, float(r))
        records.append(_record(r, value, exact))
    return records


def write_sweep_csv(records: list[SweepRecord], path) -> None:
    """Write sweep records with the fixed header, 17 significant digits, LF endings."""
    with open(path, "w", newline="") as handle:
        handle.write("param,regularized,exact,abs_err,rel_err\n")
        for rec in records:
            handle.write(
                f"{rec.param:.17g},{rec.regularized:.17g},{rec.exact:.17g},"
                f"{rec.abs_err:.17g},{rec.rel_err:.17g}\n"
            )


def default_rn_pair(seed: int) -> tuple[GaussianMeasure, GaussianMeasure]:
    """Built-in equivalent pair for RN checks, deterministic in ``seed``.

    The base is a random power-law measure; the first measure is the base
    whitened-perturbed by an S with spectrum in [-0.5, 0.5] and given a mean
    offset inside the base's Cameron-Martin space.
    """
    mu = gen_measure(SpectrumFamily.power_law(5, 2.0), split_seed(seed, 11), mean_scale=0.3)
    root = _spectral_sqrt(mu.spectrum).entries
    q = _haar_frame(split_seed(seed, 12), 5)
    s_mat = (q * np.linspace(-0.5, 0.5, 5)) @ q.T
    cov = root @ (np.eye(5) - s_mat) @ root
    shift = root @ (0.4 * standard_normal(split_seed(seed, 13), STREAM_MEAN, 5))
    nu = GaussianMeasure(mu.mean + shift, TraceClassBlock(0.5 * (cov + cov.T)))
    return nu, mu
