"""Linear-Gaussian Bayesian inverse problem: posterior update and its information gain.

The model is ``y = A u + eta`` with ``u ~ N(m0, C0)`` on the state space and
``eta ~ N(0, Gamma)`` on a finite observation space.  Everything is solved in
observation space (``obs_dim x obs_dim`` factorizations); state-space
operators are never inverted.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DimMismatch, NonFinite, NotPositive
from .gaussian import GaussianMeasure, _check_record, _field, _float_array
from .operators import TraceClassBlock, _exact_verdicts, _shifted_cholesky, _spectrum_verdicts


class LinearGaussianModel:
    """Forward map, noise covariance, Gaussian prior, and one observation vector."""

    __slots__ = ("forward", "noise_cov", "prior", "observation", "_solved")

    def __init__(self, forward, noise_cov, prior: GaussianMeasure, observation):
        a = np.array(forward, dtype=float)
        if a.ndim != 2:
            raise ValueError(f"forward map must be a matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise NonFinite("forward map contains NaN or Inf")
        gamma = noise_cov if isinstance(noise_cov, TraceClassBlock) else TraceClassBlock(noise_cov)
        y = np.array(observation, dtype=float)
        if y.ndim != 1:
            raise ValueError(f"observation must be a vector, got shape {y.shape}")
        if not np.all(np.isfinite(y)):
            raise NonFinite("observation contains NaN or Inf")
        obs_dim, dim = a.shape
        if gamma.dim != obs_dim:
            raise DimMismatch(f"noise cov dim {gamma.dim} does not match forward rows {obs_dim}")
        if prior.dim != dim:
            raise DimMismatch(f"prior dim {prior.dim} does not match forward columns {dim}")
        if y.shape[0] != obs_dim:
            raise DimMismatch(f"observation length {y.shape[0]} does not match forward rows {obs_dim}")
        degenerate = _spectrum_verdicts(gamma.entries, 0.0)[0]
        if degenerate or degenerate is None and _exact_verdicts(np.linalg.eigvalsh(gamma.entries))[1]:
            raise NotPositive("noise covariance must be strictly positive definite")
        if prior._verdict("degenerate"):
            raise NotPositive("prior covariance must be strictly positive definite")
        a.flags.writeable = False
        y.flags.writeable = False
        self.forward = a
        self.noise_cov = gamma
        self.prior = prior
        self.observation = y
        self._solved = None

    @property
    def dim(self) -> int:
        return self.forward.shape[1]

    @property
    def obs_dim(self) -> int:
        return self.forward.shape[0]

    def to_dict(self) -> dict:
        return {
            "forward": self.forward.tolist(),
            "noise_cov": self.noise_cov.entries.tolist(),
            "prior": self.prior.to_dict(),
            "observation": self.observation.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LinearGaussianModel":
        """The model of a ``{"forward", "noise_cov", "prior", "observation"}`` record; a missing
        field or one of the wrong type raises ``ValueError`` naming it."""
        _check_record(data, "model")
        return cls(
            _float_array(data, "forward"),
            _float_array(data, "noise_cov"),
            GaussianMeasure.from_dict(_field(data, "prior")),
            _float_array(data, "observation"),
        )

    def __repr__(self) -> str:
        return f"LinearGaussianModel(dim={self.dim}, obs_dim={self.obs_dim})"


def _update(model: LinearGaussianModel):
    """Posterior measure and ``log det(Gamma + A C0 A^T)``, both from one Cholesky factor of
    that matrix, computed on first use and kept by the model: :func:`posterior` and
    :func:`kl_posterior_prior` share one observation-space factorization."""
    if model._solved is not None:
        return model._solved
    a = model.forward
    ac0 = a @ model.prior.cov.entries
    k = model.noise_cov.entries + ac0 @ a.T
    factor, logdet_k = _shifted_cholesky(0.5 * (k + k.T), 0.0)
    innovation = model.observation - a @ model.prior.mean
    mean = model.prior.mean + ac0.T @ scipy.linalg.cho_solve((factor, True), innovation)
    cov = model.prior.cov.entries - ac0.T @ scipy.linalg.cho_solve((factor, True), ac0)
    model._solved = GaussianMeasure(mean, TraceClassBlock._symmetric(0.5 * (cov + cov.T))), logdet_k
    return model._solved


def posterior(model: LinearGaussianModel) -> GaussianMeasure:
    """Posterior measure of ``u`` given ``y``.

    ``m = m0 + C0 A^T (Gamma + A C0 A^T)^{-1} (y - A m0)`` and
    ``C = C0 - C0 A^T (Gamma + A C0 A^T)^{-1} A C0``, both via one
    observation-space Cholesky solve.
    """
    return _update(model)[0]


def kl_posterior_prior(model: LinearGaussianModel) -> float:
    """Closed-form ``D_KL(posterior || prior)`` evaluated in observation space.

    ``1/2 [ log det(Gamma + A C0 A^T) - log det Gamma
            - tr(A C A^T Gamma^{-1}) - <m - m0, A^T Gamma^{-1} (A m - y)> ]``
    with ``(m, C)`` the posterior.  For ``Gamma = I`` the first two terms
    collapse to ``log det(I + A C0 A^T)``.  Agrees with the whitened-spectrum
    KL of the posterior against the prior.
    """
    post, logdet_k = _update(model)
    a = model.forward
    gamma_factor, logdet_gamma = _shifted_cholesky(model.noise_cov.entries, 0.0)
    acat = a @ post.cov.entries @ a.T
    trace_term = float(np.trace(scipy.linalg.cho_solve((gamma_factor, True), acat)))
    residual = a @ post.mean - model.observation
    mean_term = float((post.mean - model.prior.mean) @ (a.T @ scipy.linalg.cho_solve((gamma_factor, True), residual)))
    return 0.5 * (logdet_k - logdet_gamma - trace_term - mean_term)
