"""Divergences between Gaussian measures: regularized, exact, and the log-density ratio.

Argument order is fixed as ``D(nu || mu)``: ``nu`` first, ``mu`` second.  The
regularized forms shift both covariances by ``gamma * I`` and are finite for
every PSD pair; the exact forms require the pair to be equivalent in the
measure-theoretic sense and report mutual singularity as
:class:`~gaussdiv.errors.SingularPair`.

Every divergence of a pair reads the factorizations of one
:class:`GaussianPair`, each computed once on first use and chosen by what the
quantity needs.  Everything exact runs through the Cholesky frame of the base,
``C_mu = L L^T``: the perturbation ``S = I - L^{-1} C_nu L^{-T}`` (so that
``C_nu = L (I - S) L^T``) and the whitened mean shift ``delta = L^{-1}(m_nu - m_mu)``;
each exact divergence is a closed-form function of the spectrum of ``S`` and of
``delta`` in its eigenbasis.  The regularized KL depends on ``gamma`` only
through the base's eigendecomposition, so a KL gamma sweep factorizes once;
every other regularized order takes Cholesky factors at its ``gamma``.
Every divergence kind is a Renyi value passed through a transform, dispatched
by :func:`exact_divergence` and :func:`regularized_divergence`.  A value that
overflows a double (a mean offset near 1e160, say) raises
:class:`~gaussdiv.errors.NonFinite`: ``inf`` is never returned.  The Hellinger
distance is bounded, so for such a pair it is ``sqrt(2)``.
"""

from __future__ import annotations

import math
import numbers
from functools import cached_property

import numpy as np
import scipy.linalg.lapack

from .errors import Degenerate, DimMismatch, NonFinite, NotPositive, NotPSD, SingularPair
from .logdet import LogDetPath, _endpoint_path, _interior, _kl_limit
from .operators import (
    CONDITION_WARN,
    PSD_CLIP,
    SINGULAR_MARGIN,
    Spectrum,
    TraceClassBlock,
    _exact_verdicts,
    _for_row_blocks,
    _shifted_cholesky,
    _shifted_logdet,
    _solve_lower,
    _spectrum_verdicts,
    _warn_ill_conditioned,
    sym_eigen,
)


class _OverflowingMeans(NonFinite):
    """``m_nu - m_mu`` overflows a double, and with it every divergence of the pair."""


def _finite_result(compute, transform=float) -> float:
    """``transform(compute())`` with numpy's overflow warnings silenced and the value
    checked instead, so that ``inf`` stays the outcome of a mutually singular pair alone.

    A Renyi value that overflows a double raises :class:`~gaussdiv.errors.NonFinite`
    unless ``transform`` maps it to a finite value: the Hellinger distance of such a
    pair is ``sqrt(2)`` to double precision.  So is that of a pair whose mean difference
    overflows, where ``D_B >= |m_nu - m_mu|^2 / (8 lambda_max)`` does too; every other
    kind raises the mean difference's error.  A NaN always raises.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            renyi = compute()
    except _OverflowingMeans:
        if not math.isfinite(transform(math.inf)):
            raise
        renyi = math.inf
    value = transform(renyi)
    if math.isnan(renyi) or not math.isfinite(value):
        raise NonFinite(f"the divergence does not fit in a double (computed {renyi})")
    return value


def _check_record(data, what: str) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"a {what} must be an object with named fields, got {type(data).__name__}")


def _field(data: dict, field: str):
    """``data[field]``; a missing field raises ``ValueError`` naming it."""
    try:
        return data[field]
    except KeyError:
        raise ValueError(f"field {field!r} is missing") from None


def _integral(value) -> bool:
    """Whether ``value`` is a whole number: an integer or an integral float, but not a bool."""
    whole = isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    return whole and not isinstance(value, bool)


def _float_array(data: dict, field: str) -> np.ndarray:
    """``data[field]`` as a float array; a missing field or entries that are not numbers
    raise ``ValueError`` naming the field."""
    value = _field(data, field)
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"field {field!r} is not an array of numbers: {exc}") from exc


class GaussianMeasure:
    """Gaussian measure ``N(mean, cov)`` with PSD covariance on the finite carrier.

    From dimension ``_ESTIMATE_MIN_DIM`` (32) on, the covariance is judged once,
    when the measure is built, by the condition estimate of its Cholesky factor (of
    ``cov + PSD_CLIP I`` where that fails or tells nothing, as for a singular one):
    whether an eigenvalue lies below ``-PSD_CLIP`` (:class:`~gaussdiv.errors.NotPSD`),
    whether the smallest is at or below ``PSD_CLIP`` and whether the condition
    number is beyond ``CONDITION_WARN``.  The measure keeps the last two verdicts,
    never the factor.  ``eigenvalues``, the ascending, read-only spectrum of
    ``cov``, settles a verdict that the estimate leaves open, the first at once and
    a kept one when it is first read; it is computed on first use, as is
    ``spectrum``, its eigendecomposition, which whitening against this measure,
    sampling from it and its square root read.
    """

    __slots__ = ("mean", "cov", "_eigenvalues", "_spectrum", "_verdicts")

    def __init__(self, mean, cov):
        m = np.array(mean, dtype=float)
        if m.ndim != 1:
            raise ValueError(f"mean must be a vector, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise NonFinite("mean contains NaN or Inf")
        if not isinstance(cov, TraceClassBlock):
            cov = TraceClassBlock(cov)
        if m.shape[0] != cov.dim:
            raise DimMismatch(f"mean length {m.shape[0]} does not match cov dim {cov.dim}")
        self.mean = m
        self.cov = cov
        self._eigenvalues = self._spectrum = None
        verdicts = _spectrum_verdicts(cov.entries, 0.0, (-PSD_CLIP, PSD_CLIP))
        if verdicts == (None, None, None):  # as where a singular PSD covariance fails to factor
            verdicts = (_spectrum_verdicts(cov.entries, PSD_CLIP, (0.0,))[0], *verdicts[1:])
        self._verdicts = verdicts if verdicts[0] is False else _exact_verdicts(self.eigenvalues, verdicts)
        if self._verdicts[0]:
            raise NotPSD("covariance has a genuinely negative eigenvalue")
        m.flags.writeable = False

    def _verdict(self, name: str) -> bool:
        """Whether ``cov`` is ``"degenerate"``, its smallest eigenvalue at or below ``PSD_CLIP``,
        or ``"ill"``-conditioned, its condition number beyond ``CONDITION_WARN``.  A verdict that
        the condition estimate left open is settled from ``eigenvalues`` on its first read."""
        index = ("not_psd", "degenerate", "ill").index(name)
        if self._verdicts[index] is None:
            self._verdicts = _exact_verdicts(self.eigenvalues, self._verdicts)
        return self._verdicts[index]

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of ``cov`` by ``eigvalsh``, ascending."""
        if self._eigenvalues is None:
            lam = np.linalg.eigvalsh(self.cov.entries)
            lam.flags.writeable = False
            self._eigenvalues = lam
        return self._eigenvalues

    @property
    def spectrum(self) -> Spectrum:
        """Eigendecomposition of ``cov``, eigenvalues descending."""
        if self._spectrum is None:
            self._spectrum = sym_eigen(self.cov)
        return self._spectrum

    @property
    def dim(self) -> int:
        return self.cov.dim

    def to_dict(self) -> dict:
        return {"dim": self.dim, "mean": self.mean.tolist(), "cov": self.cov.entries.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "GaussianMeasure":
        """The measure of a ``{"dim", "mean", "cov"}`` record; a missing field or one of the
        wrong type raises ``ValueError`` naming it."""
        _check_record(data, "measure")
        dim = _field(data, "dim")
        if not _integral(dim):
            raise ValueError(f"field 'dim' must be an integer, got {dim!r}")
        measure = cls(_float_array(data, "mean"), _float_array(data, "cov"))
        if measure.dim != dim:
            raise ValueError("declared dim does not match mean/cov shape")
        return measure

    def __repr__(self) -> str:
        return f"GaussianMeasure(dim={self.dim})"


class GaussianPair:
    """The ordered pair ``(nu, mu)`` with its factorizations, each computed once on first use.

    Every divergence of the pair is a Renyi value of one of two routes, ``_exact(r)``
    or the regularized ``_renyi(r, gamma)``, passed through its kind's transform by
    ``regularized`` or the module's functions.
    Each quantity takes the cheapest factorization that gives it, chosen by the
    order alone, so a sweep record and a standalone call agree exactly.  The
    exact divergences and the log density ratio whiten by ``base_factor``, the
    Cholesky factor ``L`` of ``mu.cov``, taken once ``mu``'s kept verdicts clear the
    base of degeneracy: ``s_block`` is ``S = I - L^{-1} C_nu L^{-T}``, formed by one
    LAPACK ``dsygst`` and exactly symmetric, so ``nu.cov = L (I - S) L^T``, and
    ``delta = L^{-1}(m_nu - m_mu)``; any other whitening changes both by one
    rotation, which no divergence sees.  The pair is mutually singular where the
    top eigenvalue of ``S`` lies within ``SINGULAR_MARGIN`` of 1.  The KL,
    ``singular`` and the log density ratio's test read it from ``s_eigenvalues``;
    every order inside (0, 1) reads ``s_spectrum``, which it needs anyway, for its
    test and its value, and so does the log density ratio for its value.
    Regularized orders routed to a KL limit read gamma-free terms:
    ``nu.eigenvalues`` give the shifted log-determinant of ``C_nu``, and
    ``mu.spectrum``, ``mu.cov = U diag(lambda) U^T``, gives ``lambda`` again as
    Rayleigh quotients (the shifted log-determinant of ``C_mu``), and the trace
    and quadratic form as O(n) sums of ``g = U^T (m_nu - m_mu)`` and
    ``d = diag(U^T C_nu U)``.  Orders routed to the reverse KL limit, near order 0,
    and the exact order 0 read the mirror pair ``(mu, nu)``, built once and kept;
    its mirror is this pair.  Every other order takes Cholesky factors at its gamma:
    of ``C_nu + gamma I`` and ``C_mu + gamma I`` (log-determinants cached per gamma)
    and of the shifted blend ``(1-r) C_nu + r C_mu + gamma I``, whose condition
    estimate decides the :class:`~gaussdiv.errors.IllConditioned` warning (with
    both measures' ``eigenvalues`` where it cannot tell).  Every quantity that
    reads the means reads ``mean_diff``, ``m_nu - m_mu``, which raises
    :class:`~gaussdiv.errors.NonFinite` where it overflows a double.
    """

    def __init__(self, nu: GaussianMeasure, mu: GaussianMeasure):
        if nu.dim != mu.dim:
            raise DimMismatch(f"measure dims differ: {nu.dim} vs {mu.dim}")
        self.nu = nu
        self.mu = mu
        self._logdets: dict[float, tuple[float, float]] = {}

    @cached_property
    def base_factor(self) -> np.ndarray:
        """The lower Cholesky factor ``L`` of ``mu.cov``.

        :class:`~gaussdiv.errors.Degenerate` when ``mu.cov`` has an eigenvalue at or
        below ``PSD_CLIP`` or the factorization fails, and a warning
        :class:`~gaussdiv.errors.IllConditioned` (before a failure, too) when its
        condition number is beyond ``CONDITION_WARN``.  Both verdicts are the ones
        ``mu`` keeps: this only factors.
        """
        if not self.mu._verdict("degenerate"):
            _warn_ill_conditioned(self.mu._verdict("ill"))
            try:
                return np.tril(_shifted_cholesky(self.mu.cov.entries, 0.0)[0])
            except NotPositive:
                pass
        raise Degenerate("matrix has an eigenvalue at or below the clip threshold")

    @cached_property
    def s_block(self) -> TraceClassBlock:
        """``S = I - W``, ``W = L^{-1} C_nu L^{-T}`` by one LAPACK ``dsygst``, which uses the
        symmetry of ``C_nu`` and takes about half the time of two triangular solves.  It
        computes the lower triangle of ``W``; ``S`` mirrors it, so it is exactly symmetric."""
        w, _ = scipy.linalg.lapack.dsygst(self.nu.cov.entries, self.base_factor, lower=1)
        s_mat = np.tril(w, -1)
        s_mat += s_mat.T
        np.negative(s_mat, out=s_mat)
        np.fill_diagonal(s_mat, 1.0 - np.diagonal(w))
        return TraceClassBlock._symmetric(s_mat)

    @cached_property
    def s_eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.s_block.entries)  # ascending

    @cached_property
    def s_spectrum(self) -> Spectrum:
        return sym_eigen(self.s_block)

    @cached_property
    def mean_diff(self) -> np.ndarray:
        """``m_nu - m_mu``; :class:`~gaussdiv.errors.NonFinite` where it overflows a double."""
        with np.errstate(over="ignore"):
            diff = self.nu.mean - self.mu.mean
        if not np.all(np.isfinite(diff)):
            raise _OverflowingMeans("the mean difference m_nu - m_mu does not fit in a double")
        diff.flags.writeable = False
        return diff

    @cached_property
    def delta(self) -> np.ndarray:
        delta = _solve_lower(self.base_factor, self.mean_diff)
        delta.flags.writeable = False
        return delta

    @cached_property
    def singular(self) -> bool:
        """Whether the top of ``s_eigenvalues`` lies within ``SINGULAR_MARGIN`` of 1."""
        return self._singular_at(1.0)

    def _singular_at(self, r: float) -> bool:
        """:attr:`singular` as the exact divergence of order ``r`` decides it: an order inside
        (0, 1) reads the top of ``s_spectrum``, which it needs anyway, the KLs ``s_eigenvalues``."""
        a = self.s_spectrum.eigenvalues[:1] if 0.0 < r < 1.0 else self.s_eigenvalues[-1:]
        return bool(a.size and float(a[0]) >= 1.0 - SINGULAR_MARGIN)

    @cached_property
    def _rn_frame(self) -> np.ndarray:
        """``L^{-T} V``: the row ``x - m_mu`` times it is ``x`` whitened, in the eigenbasis of ``S``."""
        v = self.s_spectrum.eigenvectors
        return _solve_lower(self.base_factor, v, trans=1)

    @cached_property
    def _mirror(self) -> "GaussianPair":
        """The pair ``(mu, nu)``, whose own mirror is this pair."""
        mirror = GaussianPair(self.mu, self.nu)
        mirror._mirror = self
        return mirror

    @cached_property
    def _kl_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``diag(U^T C_mu U)``, ``g = U^T (m_nu - m_mu)`` and ``d = diag(U^T C_nu U)``.

        The first is ``lambda`` recomputed as Rayleigh quotients of the
        computed eigenvectors.  They carry no first-order error from the
        rounding inside ``eigh``, so the small eigenvalues that dominate the
        regularized KL come out about ten times more accurate than the
        eigenvalues ``eigh`` returns, as accurate as a dense solve.
        """
        u = self.mu.spectrum.eigenvectors
        lam = np.einsum("ij,ij->j", u, self.mu.cov.entries @ u)
        d = np.einsum("ij,ij->j", u, self.nu.cov.entries @ u)
        return lam, u.T @ self.mean_diff, d

    def regularized(self, kind: str, gamma: float, r: float | None = None) -> float:
        """:func:`regularized_divergence` of the pair."""
        order, transform = _kind_order(kind, r)
        return _finite_result(lambda: self._renyi(order, gamma), transform)

    def _exact(self, r: float) -> float:
        """:func:`exact_renyi` of the pair at a checked order, unchecked for overflow;
        :class:`~gaussdiv.errors.SingularPair` where ``_singular_at(r)`` says so.  Order 0
        is the mirror's KL, order 1 reads ``s_eigenvalues``, every other ``s_spectrum``."""
        if self._singular_at(r):
            raise SingularPair("measures are mutually singular")
        if r == 0.0:
            return self._mirror._exact(1.0)
        if r == 1.0:
            a = self.s_eigenvalues
            cov_term = -0.5 * float(np.sum(np.log1p(-a) + a))
            return 0.5 * float(self.delta @ self.delta) + cov_term
        a = self.s_spectrum.eigenvalues
        weights = 1.0 - (1.0 - r) * a
        if weights.size and float(np.min(weights)) <= SINGULAR_MARGIN:
            raise NotPositive("I - (1-r) S is not positive definite")
        d_hat = self.s_spectrum.eigenvectors.T @ self.delta
        mean_term = 0.5 * float(np.sum(d_hat * d_hat / weights))
        if r < 0.5:
            x = a / (1.0 - a)
            y = r * x  # log1p(y) / y (1 at y = 0) keeps every digit of x where y is subnormal
            phi = np.divide(np.log1p(y), y, out=np.ones_like(y), where=y != 0.0)
            return mean_term + float(np.sum(np.log1p(-a) + x * phi)) / (2.0 * (1.0 - r))
        cov_term = float(np.sum((r - 1.0) * np.log1p(-a) + np.log1p(-(1.0 - r) * a)))
        return mean_term + cov_term / (2.0 * r * (1.0 - r))

    def _renyi(self, r: float, gamma: float) -> float:
        """:func:`regularized_renyi` of the pair, unchecked for overflow: the quadratic form
        plus half the alpha log-det divergence, ``alpha = 2r - 1``, of the shifted covariances.
        Orders that :mod:`~gaussdiv.logdet` routes to an endpoint limit take the KL of that
        direction, read from ``_kl_terms``.  The interior formula takes plain log-determinants:
        the ``log gamma`` tails of the extended ones cancel between equal shifts."""
        r = _check_order(r)
        alpha = 2.0 * r - 1.0
        path = _endpoint_path(alpha)
        if path is LogDetPath.LIMIT_NEG1:
            return self._mirror._renyi(1.0, gamma)
        gamma = float(gamma)
        if not math.isfinite(gamma) or gamma <= 0:
            raise NotPositive(f"gamma must be strictly positive, got {gamma}")
        if path is None:
            if gamma not in self._logdets:
                covs = (self.nu.cov.entries, self.mu.cov.entries)
                self._logdets[gamma] = tuple(_shifted_cholesky(c, gamma)[1] for c in covs)
            blend = (1.0 - r) * self.nu.cov.entries + r * self.mu.cov.entries
            factor, ld_blend = _shifted_cholesky(blend, gamma)
            result = _interior(alpha, 1.0 - r, r, ld_blend, *self._logdets[gamma], gamma, gamma)
            ill = _spectrum_verdicts(blend, gamma, (), factor)[0]
            if ill is None:
                # Weyl's inequalities bound the shifted blend's condition number by top / bottom.
                lam_nu, lam_mu = self.nu.eigenvalues, self.mu.eigenvalues
                top = (1.0 - r) * float(lam_nu[-1]) + r * float(lam_mu[-1]) + gamma
                bottom = (1.0 - r) * float(lam_nu[0]) + r * float(lam_mu[0]) + gamma
                ill = top > CONDITION_WARN * bottom and _exact_verdicts(np.linalg.eigvalsh(blend) + gamma)[2]
            _warn_ill_conditioned(ill)
            z = _solve_lower(factor, self.mean_diff)
            return 0.5 * float(z @ z) + 0.5 * result.value
        ld_nu = _shifted_logdet(self.nu.eigenvalues, gamma)
        lam, proj, d = self._kl_terms
        ld_mu = _shifted_logdet(lam, gamma)  # a quotient that rounds to -gamma or below raises
        shifted = lam + gamma
        trace = float(np.sum((d + gamma) / shifted)) - self.nu.dim
        result = _kl_limit(alpha, path, ld_nu, ld_mu, trace, gamma, gamma)
        _warn_ill_conditioned(_exact_verdicts(shifted)[2])
        return 0.5 * float(np.sum(proj * proj / shifted)) + 0.5 * result.value


def equivalence_data(nu: GaussianMeasure, mu: GaussianMeasure) -> GaussianPair:
    """The pair ``(nu, mu)``, whitened in the Cholesky frame ``mu.cov = L L^T`` of the base:
    ``S = I - L^{-1} C_nu L^{-T}`` (so ``nu.cov = L (I - S) L^T``), its eigenvalues
    and the singularity flag computed.

    Raises
    ------
    Degenerate
        if ``mu.cov`` has an eigenvalue at or below ``PSD_CLIP``, or its
        Cholesky factorization fails.
    DimMismatch
        if the measures live on different spaces.

    Warns :class:`~gaussdiv.errors.IllConditioned` when ``mu.cov`` has a
    condition number beyond ``CONDITION_WARN``.
    """
    pair = GaussianPair(nu, mu)
    pair.singular  # whitens now, so a degenerate base raises here
    return pair


def _pair_of(nu: GaussianMeasure, mu: GaussianMeasure, data: GaussianPair | None) -> GaussianPair:
    """``data``, or the pair ``(nu, mu)`` built when it is absent; ``ValueError`` when
    ``data`` was built from another pair of measures."""
    if data is None:
        return GaussianPair(nu, mu)
    if data.nu is not nu or data.mu is not mu:
        raise ValueError("data was built for a different pair of measures")
    return data


def _check_order(r: float) -> float:
    r = float(r)
    if not math.isfinite(r) or not 0.0 <= r <= 1.0:
        raise ValueError(f"r must lie in [0, 1], got {r}")
    return r


# ---------------------------------------------------------------------------
# Exact divergences (spectral functions of S and delta)
# ---------------------------------------------------------------------------


def exact_kl(
    nu: GaussianMeasure,
    mu: GaussianMeasure,
    *,
    data: GaussianPair | None = None,
) -> float:
    """Exact ``D_KL(nu || mu)``: ``1/2 ||delta||^2 - 1/2 sum_k [log(1-a_k) + a_k]``.

    The covariance part is the log Hilbert-Carleman determinant of ``I - S``,
    negated; it is nonpositive, vanishing only for ``S = 0``.
    """
    return exact_divergence(nu, mu, "kl", data=data)


def exact_renyi(
    nu: GaussianMeasure,
    mu: GaussianMeasure,
    r: float,
    *,
    data: GaussianPair | None = None,
) -> float:
    """Exact Renyi divergence of order ``r`` in [0, 1], normalized as
    ``-1/(r(1-r)) log integral (dnu)^r (dmu)^{1-r}``.

    ``r = 1`` and ``r = 0`` are the two KLs, ``exact_kl(nu, mu)`` and
    ``exact_kl(mu, nu)``; every order in between is the closed form in the
    spectrum ``a`` of ``S``.  Below ``r = 1/2`` its covariance part is written
    as ``r log(1-a) + log1p(r x)``, ``x = a / (1-a)``, with ``r`` divided out
    before summing, so no order cancels.  After ``r``, every call checks the
    pair itself: ``data`` from another pair raises ``ValueError``.
    """
    r = _check_order(r)
    pair = _pair_of(nu, mu, data)
    return _finite_result(lambda: pair._exact(r))


def exact_bhattacharyya(
    nu: GaussianMeasure,
    mu: GaussianMeasure,
    *,
    data: GaussianPair | None = None,
) -> float:
    """Exact Bhattacharyya distance; identically one quarter of the order-1/2 Renyi."""
    return exact_divergence(nu, mu, "bhatt", data=data)


def exact_hellinger(
    nu: GaussianMeasure,
    mu: GaussianMeasure,
    *,
    data: GaussianPair | None = None,
) -> float:
    """Exact Hellinger distance ``sqrt(2 (1 - exp(-D_B)))``, in [0, sqrt(2)]."""
    return exact_divergence(nu, mu, "hellinger", data=data)


def log_radon_nikodym_batch(
    points: np.ndarray,
    nu: GaussianMeasure,
    mu: GaussianMeasure,
    *,
    data: GaussianPair | None = None,
) -> np.ndarray:
    """Vectorized ``log (dnu/dmu)`` over the rows of ``points`` (n x dim).

    With ``x_t = L^{-1}(x - m_mu)`` expressed in the eigenbasis of ``S``::

        log rn(x) = -1/2 log det(I-S) - 1/2 <x_t, S(I-S)^{-1} x_t>
                    + <x_t, (I-S)^{-1} delta> - 1/2 <delta, (I-S)^{-1} delta>

    A coefficient or a value that overflows a double raises
    :class:`~gaussdiv.errors.NonFinite`, with no numpy warning; the coefficients
    are checked before any row is computed.  Rows are whitened as ``(x - m_mu) L^{-T} V``
    and evaluated by :func:`_log_rn_pass`, as the Monte-Carlo checks' draws are.
    """
    data = _pair_of(nu, mu, data)
    if data.singular:
        raise SingularPair("measures are mutually singular")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.ndim != 2:
        raise ValueError(f"points must be a vector or a matrix, got shape {points.shape}")
    if points.shape[1] != mu.dim:
        raise DimMismatch(f"points have dim {points.shape[1]}, measures have dim {mu.dim}")
    if not np.all(np.isfinite(points)):
        raise NonFinite("points contain NaN or Inf")
    return _log_rn_pass(data, points.shape[0], lambda start, stop, spare: np.subtract(
        points[start:stop], mu.mean, out=spare), ((data._rn_frame, None),))[0]


def _log_rn_pass(pair: GaussianPair, rows: int, source, whitenings) -> tuple[np.ndarray, ...]:
    """The log density ratio of ``rows`` points under each whitening, one row block at a time.

    ``source(start, stop, spare)`` writes the block's rows into ``spare``, an array of the
    calling thread's own, and each ``(matrix, offset)`` of ``whitenings`` whitens them, to
    ``(x - m_mu) L^{-T} V``, as ``spare matrix + offset`` (no add for ``None``) in the
    thread's ``scratch``; ``spare`` holds the rows until the block's last whitening.  The
    coefficients are checked before any row is computed; a coefficient or a value that
    overflows a double raises :class:`~gaussdiv.errors.NonFinite`, with no numpy warning.
    A non-finite entry in a whitening makes its rows' values non-finite, so the last test
    catches it.
    """
    a = pair.s_spectrum.eigenvalues
    one_minus = 1.0 - a
    d_hat = pair.s_spectrum.eigenvectors.T @ pair.delta
    with np.errstate(over="ignore", invalid="ignore"):
        const = -0.5 * float(np.sum(np.log1p(-a))) - 0.5 * float(np.sum(d_hat * d_hat / one_minus))
        weights, pull = a / one_minus, d_hat / one_minus
    if not (math.isfinite(const) and np.all(np.isfinite(weights)) and np.all(np.isfinite(pull))):
        raise NonFinite("the log density ratio does not fit in a double")
    outs = tuple(np.empty(rows) for _ in whitenings)

    def fill(start: int, stop: int, spare: np.ndarray, scratch: np.ndarray) -> None:
        with np.errstate(over="ignore", invalid="ignore"):
            drawn = source(start, stop, spare)
            for (matrix, offset), out in zip(whitenings, outs):
                x_hat = np.matmul(drawn, matrix, out=scratch)
                if offset is not None:
                    x_hat += offset
                cross = x_hat @ pull
                terms = np.multiply(x_hat, x_hat, out=x_hat)
                terms *= -0.5
                value = np.add(const, terms @ weights, out=out[start:stop])
                value += cross

    _for_row_blocks(rows, pair.mu.dim, fill, buffers=2)
    if not all(np.all(np.isfinite(out)) for out in outs):
        raise NonFinite("the log density ratio does not fit in a double")
    return outs


def log_radon_nikodym(
    x: np.ndarray,
    nu: GaussianMeasure,
    mu: GaussianMeasure,
    *,
    data: GaussianPair | None = None,
) -> float:
    """Log Radon-Nikodym derivative ``log (dnu/dmu)(x)`` at a single point."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"x must be a vector, got shape {x.shape}")
    return float(log_radon_nikodym_batch(x[None, :], nu, mu, data=data)[0])


# ---------------------------------------------------------------------------
# Regularized divergences (finite for every PSD pair)
# ---------------------------------------------------------------------------


def regularized_kl(nu: GaussianMeasure, mu: GaussianMeasure, gamma: float) -> float:
    """Regularized KL: quadratic form in ``(C_mu + gamma I)^{-1}`` plus half the
    alpha = 1 log-det divergence of the shifted covariances.

    Finite for every PSD covariance pair and every ``gamma > 0``, or ``NotPositive``
    where an eigenvalue of ``C_mu`` rounds to ``-gamma`` or below; converges to
    :func:`exact_kl` as ``gamma -> 0`` for equivalent pairs.  Warns
    :class:`~gaussdiv.errors.IllConditioned` when ``C_mu + gamma I`` has a
    condition number beyond ``CONDITION_WARN``.
    """
    return regularized_divergence(nu, mu, "kl", gamma)


def regularized_renyi(nu: GaussianMeasure, mu: GaussianMeasure, r: float, gamma: float) -> float:
    """Regularized Renyi of order ``r``: the quadratic form uses the blend
    ``(1-r)(C_nu + gamma I) + r(C_mu + gamma I)`` and the log-det part is
    ``d^{2r-1}/2``.  ``r = 1`` and ``r = 0`` redirect to the two KL directions.
    Warns :class:`~gaussdiv.errors.IllConditioned` when the shifted blend has a
    condition number beyond ``CONDITION_WARN``.
    """
    r = _check_order(r)  # before the pair, as the exact dispatch checks it
    pair = GaussianPair(nu, mu)
    return _finite_result(lambda: pair._renyi(r, gamma))


def regularized_bhattacharyya(nu: GaussianMeasure, mu: GaussianMeasure, gamma: float) -> float:
    """Regularized Bhattacharyya distance, one quarter of the order-1/2 Renyi."""
    return regularized_divergence(nu, mu, "bhatt", gamma)


def regularized_hellinger(nu: GaussianMeasure, mu: GaussianMeasure, gamma: float) -> float:
    """Regularized Hellinger distance ``sqrt(2 (1 - exp(-D_B^gamma)))``, in [0, sqrt(2)]."""
    return regularized_divergence(nu, mu, "hellinger", gamma)


# ---------------------------------------------------------------------------
# Dispatch by divergence kind
# ---------------------------------------------------------------------------

# Every kind is a Renyi value at a fixed order (None: the caller's ``r``)
# passed through a transform.  Only the Hellinger transform maps a Renyi value
# that overflows to a finite one.
_KIND_TABLE = {
    "kl": (1.0, float),
    "renyi": (None, float),
    "bhatt": (0.5, lambda d: 0.25 * d),
    "hellinger": (0.5, lambda d: math.sqrt(max(0.0, 2.0 * (1.0 - math.exp(-(0.25 * d)))))),
}
DIVERGENCE_KINDS = tuple(_KIND_TABLE)


def _kind_order(kind: str, r: float | None):
    """Validate ``(kind, r)``; return the Renyi order and the transform of its value."""
    if kind not in _KIND_TABLE:
        raise ValueError(f"unknown divergence kind {kind!r}; expected one of {DIVERGENCE_KINDS}")
    order, transform = _KIND_TABLE[kind]
    if order is None:
        if r is None or not 0.0 < float(r) < 1.0:
            raise ValueError("the renyi kind needs an order r strictly inside (0, 1)")
        order = float(r)
    elif r is not None:
        raise ValueError(f"order r only applies to renyi, not {kind!r}")
    return order, transform


def exact_divergence(
    nu: GaussianMeasure,
    mu: GaussianMeasure,
    kind: str,
    r: float | None = None,
    *,
    data: GaussianPair | None = None,
) -> float:
    """Exact divergence dispatch by kind (``kl``, ``renyi``, ``bhatt``, ``hellinger``)."""
    order, transform = _kind_order(kind, r)
    pair = _pair_of(nu, mu, data)
    return _finite_result(lambda: pair._exact(order), transform)


def regularized_divergence(
    nu: GaussianMeasure,
    mu: GaussianMeasure,
    kind: str,
    gamma: float,
    r: float | None = None,
) -> float:
    """Regularized divergence dispatch by kind, at shift ``gamma > 0``; the kind and the
    order are checked before the pair, as :func:`exact_divergence` checks them."""
    _kind_order(kind, r)
    return GaussianPair(nu, mu).regularized(kind, gamma, r)
