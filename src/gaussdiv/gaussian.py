"""Divergences between Gaussian measures: regularized, exact, and the log-density ratio.

Argument order is fixed as ``D(nu || mu)``: ``nu`` first, ``mu`` second.  The
regularized forms shift both covariances by ``gamma * I`` and are finite for
every PSD pair; the exact forms require the pair to be equivalent in the
measure-theoretic sense and report mutual singularity as
:class:`~gaussdiv.errors.SingularPair`.

Everything exact runs through :func:`equivalence_data`: whitening by the base
covariance produces the perturbation ``S = I - C0^{-1/2} C C0^{-1/2}`` and the
whitened mean shift ``delta = C0^{-1/2}(m - m0)``, and each divergence is a
closed-form function of the spectrum of ``S`` and of ``delta``.  One
eigendecomposition per pair serves every divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NotPositive, NotPSD, SingularPair
from .logdet import alpha_logdet
from .operators import (
    DEFAULT_TOL,
    ShiftedOperator,
    Spectrum,
    TraceClassBlock,
    psd_inv_sqrt,
    shifted_combine,
    sym_eigen,
)


class GaussianMeasure:
    """Gaussian measure ``N(mean, cov)`` with PSD covariance on the finite carrier."""

    __slots__ = ("mean", "cov")

    def __init__(self, mean, cov):
        m = np.array(mean, dtype=float)
        if m.ndim != 1:
            raise ValueError(f"mean must be a vector, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("mean contains NaN or Inf")
        if not isinstance(cov, TraceClassBlock):
            cov = TraceClassBlock(cov)
        if m.shape[0] != cov.dim:
            raise DimMismatch(f"mean length {m.shape[0]} does not match cov dim {cov.dim}")
        lam_min = float(np.min(np.linalg.eigvalsh(cov.entries))) if cov.dim else 0.0
        if cov.dim and lam_min < -DEFAULT_TOL.psd_clip:
            raise NotPSD("covariance has a genuinely negative eigenvalue")
        m.flags.writeable = False
        self.mean = m
        self.cov = cov

    @property
    def dim(self) -> int:
        return self.cov.dim

    def to_dict(self) -> dict:
        return {"dim": self.dim, "mean": self.mean.tolist(), "cov": self.cov.entries.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "GaussianMeasure":
        measure = cls(data["mean"], np.array(data["cov"], dtype=float))
        if measure.dim != int(data["dim"]):
            raise ValueError("declared dim does not match mean/cov shape")
        return measure

    def __repr__(self) -> str:
        return f"GaussianMeasure(dim={self.dim})"


@dataclass(frozen=True)
class EquivalenceData:
    """Whitened description of ``nu`` relative to ``mu``.

    ``s_block`` is the symmetric perturbation with
    ``nu.cov = mu.cov^{1/2} (I - S) mu.cov^{1/2}``, ``s_spectrum`` its
    eigendecomposition, ``delta`` the whitened mean difference, and
    ``singular`` flags a maximal eigenvalue of ``S`` within
    ``singular_margin`` of 1, i.e. a mutually singular pair.
    ``base_inv_sqrt`` is the whitening matrix ``mu.cov^{-1/2}`` and ``pair``
    the ``(nu, mu)`` the record was built from.
    """

    s_block: TraceClassBlock
    s_spectrum: Spectrum
    delta: np.ndarray
    singular: bool
    base_inv_sqrt: np.ndarray
    pair: tuple[GaussianMeasure, GaussianMeasure]


def equivalence_data(nu: GaussianMeasure, mu: GaussianMeasure) -> EquivalenceData:
    """Whiten ``nu`` against ``mu``: compute ``S``, ``delta``, and the singularity flag.

    Raises
    ------
    Degenerate
        if ``mu.cov`` has an eigenvalue at or below ``psd_clip``.
    DimMismatch
        if the measures live on different spaces.

    Warns :class:`~gaussdiv.errors.IllConditioned` when ``mu.cov`` has a
    condition number beyond ``CONDITION_WARN``.
    """
    if nu.dim != mu.dim:
        raise DimMismatch(f"measure dims differ: {nu.dim} vs {mu.dim}")
    w = psd_inv_sqrt(mu.cov).entries
    s_mat = np.eye(nu.dim) - w @ nu.cov.entries @ w
    s_block = TraceClassBlock(0.5 * (s_mat + s_mat.T))
    s_spectrum = sym_eigen(s_block)
    delta = w @ (nu.mean - mu.mean)
    singular = bool(
        s_spectrum.eigenvalues.size
        and float(s_spectrum.eigenvalues[0]) >= 1.0 - DEFAULT_TOL.singular_margin
    )
    delta.flags.writeable = False
    return EquivalenceData(s_block, s_spectrum, delta, singular, w, (nu, mu))


def _equivalent_data(
    nu: GaussianMeasure, mu: GaussianMeasure, data: EquivalenceData | None
) -> EquivalenceData:
    """``data`` for ``(nu, mu)``, built when absent, for an equivalent pair only.

    Raises ``ValueError`` when ``data`` was built from another pair and
    :class:`~gaussdiv.errors.SingularPair` when the pair is mutually singular.
    """
    if data is None:
        data = equivalence_data(nu, mu)
    elif data.pair[0] is not nu or data.pair[1] is not mu:
        raise ValueError("data was built for a different pair of measures")
    if data.singular:
        raise SingularPair("measures are mutually singular; exact divergence is +inf")
    return data


def _hellinger(d_b: float) -> float:
    """Hellinger distance ``sqrt(2 (1 - exp(-D_B)))`` from a Bhattacharyya distance."""
    return math.sqrt(max(0.0, 2.0 * (1.0 - math.exp(-d_b))))


# ---------------------------------------------------------------------------
# Exact divergences (spectral functions of S and delta)
# ---------------------------------------------------------------------------


def exact_kl(
    nu: GaussianMeasure,
    mu: GaussianMeasure,
    *,
    data: EquivalenceData | None = None,
) -> float:
    """Exact ``D_KL(nu || mu)``: ``1/2 ||delta||^2 - 1/2 sum_k [log(1-a_k) + a_k]``.

    The covariance part is the log Hilbert-Carleman determinant of ``I - S``,
    negated; it is nonpositive, vanishing only for ``S = 0``.
    """
    data = _equivalent_data(nu, mu, data)
    a = data.s_spectrum.eigenvalues
    cov_term = -0.5 * float(np.sum(np.log1p(-a) + a))
    return 0.5 * float(data.delta @ data.delta) + cov_term


def exact_renyi(
    nu: GaussianMeasure,
    mu: GaussianMeasure,
    r: float,
    *,
    data: EquivalenceData | None = None,
) -> float:
    """Exact Renyi divergence of order ``r`` in (0, 1), normalized as
    ``-1/(r(1-r)) log integral (dnu)^r (dmu)^{1-r}``.

    ``r = 1`` and ``r = 0`` redirect to ``exact_kl(nu, mu)`` and
    ``exact_kl(mu, nu)``, the two limits of the family.
    """
    r = float(r)
    if not math.isfinite(r) or not 0.0 <= r <= 1.0:
        raise ValueError(f"r must lie in [0, 1], got {r}")
    if r == 1.0:
        return exact_kl(nu, mu, data=data)
    if r == 0.0:
        return exact_kl(mu, nu)
    data = _equivalent_data(nu, mu, data)
    a = data.s_spectrum.eigenvalues
    weights = 1.0 - (1.0 - r) * a
    if weights.size and float(np.min(weights)) <= DEFAULT_TOL.singular_margin:
        raise NotPositive("I - (1-r) S is not positive definite")
    d_hat = data.s_spectrum.eigenvectors.T @ data.delta
    mean_term = 0.5 * float(np.sum(d_hat * d_hat / weights))
    cov_term = float(np.sum((r - 1.0) * np.log1p(-a) + np.log1p(-(1.0 - r) * a)))
    return mean_term + cov_term / (2.0 * r * (1.0 - r))


def exact_bhattacharyya(
    nu: GaussianMeasure,
    mu: GaussianMeasure,
    *,
    data: EquivalenceData | None = None,
) -> float:
    """Exact Bhattacharyya distance; identically one quarter of the order-1/2 Renyi."""
    return 0.25 * exact_renyi(nu, mu, 0.5, data=data)


def exact_hellinger(
    nu: GaussianMeasure,
    mu: GaussianMeasure,
    *,
    data: EquivalenceData | None = None,
) -> float:
    """Exact Hellinger distance ``sqrt(2 (1 - exp(-D_B)))``, in [0, sqrt(2))."""
    return _hellinger(exact_bhattacharyya(nu, mu, data=data))


def log_radon_nikodym_batch(
    points: np.ndarray,
    nu: GaussianMeasure,
    mu: GaussianMeasure,
    *,
    data: EquivalenceData | None = None,
) -> np.ndarray:
    """Vectorized ``log (dnu/dmu)`` over the rows of ``points`` (n x dim).

    With ``x_t = Q^{-1/2}(x - m_mu)`` expressed in the eigenbasis of ``S``::

        log rn(x) = -1/2 log det(I-S) - 1/2 <x_t, S(I-S)^{-1} x_t>
                    + <x_t, (I-S)^{-1} delta> - 1/2 <delta, (I-S)^{-1} delta>
    """
    data = _equivalent_data(nu, mu, data)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != mu.dim:
        raise DimMismatch(f"points have dim {points.shape[1]}, measures have dim {mu.dim}")
    if not np.all(np.isfinite(points)):
        raise ValueError("points contain NaN or Inf")
    w = data.base_inv_sqrt
    a = data.s_spectrum.eigenvalues
    v = data.s_spectrum.eigenvectors
    one_minus = 1.0 - a
    d_hat = v.T @ data.delta
    x_hat = ((points - mu.mean) @ w) @ v
    const = -0.5 * float(np.sum(np.log1p(-a))) - 0.5 * float(np.sum(d_hat * d_hat / one_minus))
    quad = -0.5 * (x_hat * x_hat) @ (a / one_minus)
    cross = x_hat @ (d_hat / one_minus)
    return const + quad + cross


def log_radon_nikodym(
    x: np.ndarray,
    nu: GaussianMeasure,
    mu: GaussianMeasure,
    *,
    data: EquivalenceData | None = None,
) -> float:
    """Log Radon-Nikodym derivative ``log (dnu/dmu)(x)`` at a single point."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"x must be a vector, got shape {x.shape}")
    return float(log_radon_nikodym_batch(x[None, :], nu, mu, data=data)[0])


# ---------------------------------------------------------------------------
# Regularized divergences (finite for every PSD pair)
# ---------------------------------------------------------------------------


def _shift_pair(
    nu: GaussianMeasure, mu: GaussianMeasure, gamma: float
) -> tuple[ShiftedOperator, ShiftedOperator, np.ndarray]:
    if nu.dim != mu.dim:
        raise DimMismatch(f"measure dims differ: {nu.dim} vs {mu.dim}")
    x = ShiftedOperator(nu.cov, gamma)
    y = ShiftedOperator(mu.cov, gamma)
    return x, y, nu.mean - mu.mean


def _quad_form(op: ShiftedOperator, v: np.ndarray) -> float:
    """``v^T (block + shift I)^{-1} v`` by a dense solve.

    Assembling the split inverse (1/shift tail plus finite correction) and
    applying it would cancel catastrophically for small shifts; the dense
    matrix itself stays well conditioned whenever the block is PD.
    """
    mat = op.block + op.shift * np.eye(op.dim)
    return float(v @ np.linalg.solve(mat, v))


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma <= 0:
        raise NotPositive(f"gamma must be strictly positive, got {gamma}")
    return gamma


def regularized_kl(nu: GaussianMeasure, mu: GaussianMeasure, gamma: float) -> float:
    """Regularized KL: quadratic form in ``(C_mu + gamma I)^{-1}`` plus half the
    alpha = 1 log-det divergence of the shifted covariances.

    Finite for every PSD covariance pair and every ``gamma > 0``; converges to
    :func:`exact_kl` as ``gamma -> 0`` for equivalent pairs.
    """
    gamma = _check_gamma(gamma)
    x, y, dm = _shift_pair(nu, mu, gamma)
    return 0.5 * _quad_form(y, dm) + 0.5 * alpha_logdet(1.0, x, y).value


def regularized_renyi(nu: GaussianMeasure, mu: GaussianMeasure, r: float, gamma: float) -> float:
    """Regularized Renyi of order ``r``: the quadratic form uses the blend
    ``(1-r)(C_nu + gamma I) + r(C_mu + gamma I)`` and the log-det part is
    ``d^{2r-1}/2``.  ``r = 1`` and ``r = 0`` redirect to the two KL directions.
    """
    r = float(r)
    if not math.isfinite(r) or not 0.0 <= r <= 1.0:
        raise ValueError(f"r must lie in [0, 1], got {r}")
    if r == 1.0:
        return regularized_kl(nu, mu, gamma)
    if r == 0.0:
        return regularized_kl(mu, nu, gamma)
    gamma = _check_gamma(gamma)
    x, y, dm = _shift_pair(nu, mu, gamma)
    blend = shifted_combine([(1.0 - r, x), (r, y)])
    return 0.5 * _quad_form(blend, dm) + 0.5 * alpha_logdet(2.0 * r - 1.0, x, y).value


def regularized_bhattacharyya(nu: GaussianMeasure, mu: GaussianMeasure, gamma: float) -> float:
    """Regularized Bhattacharyya distance, one quarter of the order-1/2 Renyi."""
    return 0.25 * regularized_renyi(nu, mu, 0.5, gamma)


def regularized_hellinger(nu: GaussianMeasure, mu: GaussianMeasure, gamma: float) -> float:
    """Regularized Hellinger distance ``sqrt(2 (1 - exp(-D_B^gamma)))``, in [0, sqrt(2))."""
    return _hellinger(regularized_bhattacharyya(nu, mu, gamma))
