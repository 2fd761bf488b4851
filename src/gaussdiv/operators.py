"""Finite-block-plus-scalar-shift operator calculus.

An operator on an infinite-dimensional separable Hilbert space of the form
``T + c*I``, with ``T`` a finite-rank symmetric block and ``c`` an exact
scalar on the whole space, admits closed-form extended traces and extended
Fredholm determinants: the infinite tail contributes ``c`` to the trace and a
factor 1 to ``det(T/c + I)``.  Everything in this module is exact for that
representation, up to floating point; nothing here is a truncation of a
series.

The block of a :class:`TraceClassBlock` is symmetrized on construction to
kill asymmetric rounding from upstream arithmetic.  A :class:`ShiftedOperator`
block is stored as given: products of noncommuting symmetric operators are
genuinely nonsymmetric, and forcing symmetry there would break the
determinant product property.
"""

from __future__ import annotations

import os
import sys
import threading
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .errors import (
    DimMismatch,
    EigFailure,
    IllConditioned,
    NonFinite,
    NotPositive,
    NotPSD,
)


# float64 values per row block of the Monte-Carlo passes, 2 MB: a block is
# drawn, whitened and evaluated in one pass over its thread's own buffers,
# so its normals and whitened rows stay in a core's cache.
_BLOCK_VALUES = 1 << 18

# The package's numerical thresholds, the same for every call.
# Eigenvalues in (-PSD_CLIP, 0) count as zero; below is an error.
PSD_CLIP = 1e-12
# How close an eigenvalue may get to a positivity boundary before the operator is singular.
SINGULAR_MARGIN = 1e-10
# Allowed asymmetry of a symmetric matrix, relative to its largest entry.
_SYM_TOL = 1e-10
# Allowed imaginary part of the real spectrum of a product of symmetric operators.
_EIG_TOL = 1e-9
# Inverting a matrix whose condition number is beyond this is numerically
# suspect; results still return, with a warning attached.
CONDITION_WARN = 1e12
# From this dimension on, a Cholesky factor and its condition estimate cost less than
# eigvalsh (at one BLAS thread: 70 against 140 us at dimension 60, 45 against 34 us at 20).
_ESTIMATE_MIN_DIM = 32


def _as_square_matrix(entries, *, what: str) -> np.ndarray:
    m = np.array(entries, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFinite(f"{what} contains NaN or Inf")
    return m


def _is_symmetric(m: np.ndarray) -> bool:
    """Asymmetry within ``_SYM_TOL * max|entries|``, so the same at every scale."""
    if m.size == 0:
        return True
    return float(np.max(np.abs(m - m.T))) <= _SYM_TOL * float(np.max(np.abs(m)))


class TraceClassBlock:
    """Symmetric dim x dim matrix standing for a finite-rank trace-class operator.

    Entries are symmetrized exactly on construction; input asymmetric beyond
    ``_SYM_TOL * max|entries|`` is rejected.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        m = _as_square_matrix(entries, what="TraceClassBlock entries")
        if not _is_symmetric(m):
            raise ValueError("TraceClassBlock entries are not symmetric within tolerance")
        m = 0.5 * (m + m.T)
        m.flags.writeable = False
        self.entries = m

    @classmethod
    def _symmetric(cls, m: np.ndarray) -> "TraceClassBlock":
        """The block of ``m``, which its maker built exactly symmetric, taken as it is: the
        symmetry check and the symmetrization of construction would leave it unchanged.
        Nonfinite entries still raise :class:`NonFinite`."""
        if not np.all(np.isfinite(m)):
            raise NonFinite("TraceClassBlock entries contains NaN or Inf")
        m.flags.writeable = False
        block = cls.__new__(cls)
        block.entries = m
        return block

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self) -> str:
        return f"TraceClassBlock(dim={self.dim})"


class ShiftedOperator:
    """The operator ``block + shift * I`` on the full space.

    ``block`` may be a :class:`TraceClassBlock` or any square matrix; products
    of shifted operators produce nonsymmetric blocks and those are kept as-is.
    Positivity of the operator means ``shift > 0`` and ``block + shift * I``
    positive definite on the finite carrier.
    """

    __slots__ = ("block", "shift")

    def __init__(self, block, shift: float):
        if isinstance(block, TraceClassBlock):
            m = block.entries
        else:
            m = _as_square_matrix(block, what="ShiftedOperator block")
            m.flags.writeable = False
        c = float(shift)
        if not np.isfinite(c):
            raise NonFinite("shift is not finite")
        self.block = m
        self.shift = c

    @property
    def dim(self) -> int:
        return self.block.shape[0]

    def __repr__(self) -> str:
        return f"ShiftedOperator(dim={self.dim}, shift={self.shift!r})"


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in descending order; column k of eigenvectors pairs with eigenvalue k."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eigen(T: TraceClassBlock) -> Spectrum:
    """Full symmetric eigendecomposition, eigenvalues descending."""
    try:
        w, v = np.linalg.eigh(T.entries)
    except np.linalg.LinAlgError as exc:
        raise EigFailure(str(exc)) from exc
    order = slice(None, None, -1)
    w = np.ascontiguousarray(w[order])
    v = np.ascontiguousarray(v[:, order])
    w.flags.writeable = False
    v.flags.writeable = False
    return Spectrum(eigenvalues=w, eigenvectors=v)


def _general_eigvals(block: np.ndarray) -> np.ndarray:
    """Real eigenvalues, ascending, of a nonsymmetric block by general ``eig``: products of
    symmetric positive operators have real spectra, so a complex one is an input error."""
    try:
        w = scipy.linalg.eigvals(block)
    except Exception as exc:
        raise EigFailure(str(exc)) from exc
    if np.max(np.abs(w.imag)) > _EIG_TOL * (1.0 + np.max(np.abs(w.real))):
        raise EigFailure("block has a genuinely complex spectrum")
    return np.sort(w.real)


def ext_trace(op: ShiftedOperator) -> float:
    """Extended trace ``tr(block) + shift``; the tail contributes the bare shift."""
    return float(np.trace(op.block)) + op.shift


def ext_fredholm_logdet(op: ShiftedOperator) -> float:
    """Log of the extended Fredholm determinant of a positive shifted operator.

    For ``block + c*I`` with eigenvalues ``tau_k`` of the block this is
    ``log c + sum_k log(1 + tau_k / c)``: the determinant ``c * det(block/c + I)``
    evaluated in the log domain.  Exact for finite-rank blocks because the
    tail factor of ``det(block/c + I)`` is 1.  A symmetric block takes it from a
    Cholesky factor as ``log det(block + c I) - (dim - 1) log c``; a nonsymmetric
    one, a :func:`shifted_mul` product, from its eigenvalues.

    Raises
    ------
    NotPositive
        if ``shift <= 0``, if the Cholesky factorization of a symmetric
        ``block + c I`` fails, or if any ``1 + tau_k / c`` of a nonsymmetric block
        is at or below ``SINGULAR_MARGIN``.
    """
    c = op.shift
    if c <= 0:
        raise NotPositive("extended determinant requires a strictly positive shift")
    if _is_symmetric(op.block):
        return _shifted_cholesky(op.block, c)[1] - (op.dim - 1) * float(np.log(c))
    return _shifted_logdet(_general_eigvals(op.block), c)


def _shifted_cholesky(matrix: np.ndarray, shift: float) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``matrix + shift I`` (only the lower triangle of ``matrix`` is
    read) and its log-determinant.  The package's one positivity rule for symmetric
    operators: :class:`NotPositive` exactly when the factorization fails."""
    shifted = np.array(matrix, order="F")  # LAPACK's layout, so the factorization runs in place
    shifted.flat[:: shifted.shape[0] + 1] += shift
    try:
        factor = scipy.linalg.cho_factor(shifted, lower=True, overwrite_a=True)[0]
    except scipy.linalg.LinAlgError as exc:
        raise NotPositive("shifted operator is not positive definite") from exc
    return factor, 2.0 * float(np.sum(np.log(np.diag(factor))))


def _solve_lower(factor: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """``scipy.linalg.solve_triangular(factor, b, lower=True, trans=trans)``, bit for bit,
    by one LAPACK ``dtrtrs`` call without the wrapper's checks, which cost several times the
    solve at dimension 20.  Only the lower triangle of ``factor`` is read.  The layout
    rule is the wrapper's: a factor that is not Fortran-ordered is passed transposed, as the
    upper factor of the transposed system.  A zero on the diagonal raises ``LinAlgError``."""
    if factor.flags.f_contiguous:
        x, info = scipy.linalg.lapack.dtrtrs(factor, b, lower=1, trans=trans)
    else:
        x, info = scipy.linalg.lapack.dtrtrs(factor.T, b, lower=0, trans=1 - trans)
    if info > 0:
        raise scipy.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    return x


def _spectrum_verdicts(matrix: np.ndarray, shift: float, floors=(PSD_CLIP,), factor=None) -> tuple:
    """For ``lam = eigvalsh(matrix) + shift``: whether ``lam[0] <= floor``, for each of
    ``floors``, then whether ``lam[-1] > CONDITION_WARN * lam[0]``; each None where the
    condition estimate of the lower Cholesky factor of ``A = matrix + shift I`` (``factor``,
    or taken here) cannot tell, as where that factorization fails.  :func:`_exact_verdicts`
    settles what stays open.

    LAPACK's estimate ``e`` of ``||A^-1||_1`` (``dpocon``, a few triangular solves) is a lower
    bound, so ``lambda_min <= sqrt(n) / e``; it is rarely below the norm by more than a factor
    3, and a factor ``n`` is allowed for, so ``lambda_min >= 1 / (n e)``.  The largest
    eigenvalue lies in ``[||A||_1 / sqrt(n), ||A||_1]``.  Every bound is widened by
    ``n eps ||A||_1`` for the rounding of the factorization and of ``eigvalsh``.  Below
    ``_ESTIMATE_MIN_DIM`` nothing is told or factored: ``eigvalsh`` costs less there.
    That margin times ``CONDITION_WARN`` outgrows ``||A||_1 / sqrt(n)``: from dimension 32 on
    the estimate never calls a base ill-conditioned while clearing it of degeneracy, and from
    about dimension 273 on never calls any matrix ill-conditioned.  So open verdicts settle lazily.
    """
    n, unknown = matrix.shape[0], (None,) * (len(floors) + 1)
    if n < _ESTIMATE_MIN_DIM:
        return unknown
    try:
        factor = _shifted_cholesky(matrix, shift)[0] if factor is None else factor
    except NotPositive:
        return unknown
    norm = float(np.linalg.norm(matrix, 1)) + shift
    rcond, info = scipy.linalg.lapack.dpocon(factor, norm, uplo="L")
    inv_estimate = rcond * norm  # 1 / e
    if info != 0 or not 0.0 < inv_estimate < np.inf:
        return unknown
    root, noise = np.sqrt(n), n * np.finfo(float).eps * norm
    lo, hi = inv_estimate / n - noise, root * inv_estimate + noise
    top_lo, top_hi = norm / root - noise, norm + noise
    ill = True if top_lo > CONDITION_WARN * hi else False if top_hi <= CONDITION_WARN * lo else None
    return (*(True if hi <= floor else False if lo > floor else None for floor in floors), ill)


def _exact_verdicts(lam: np.ndarray, verdicts=(None, None, None)) -> tuple:
    """``verdicts``, ``(not_psd, degenerate, ill)``, with each open one settled from ``lam``,
    the ascending eigenvalues, by the exact rules: an eigenvalue below ``-PSD_CLIP``; none at
    all, or the smallest at or below ``PSD_CLIP``; a spectrum spanning more than
    ``CONDITION_WARN``, where a nonpositive minimum counts as beyond it (this last reads
    ``lam`` in any order)."""
    low = float(lam[0]) if lam.size else 0.0
    ill = bool(lam.size) and float(np.max(lam)) > CONDITION_WARN * float(np.min(lam))
    exact = (low < -PSD_CLIP, low <= PSD_CLIP, ill)
    return tuple(e if v is None else v for v, e in zip(verdicts, exact))


def _shifted_logdet(tau: np.ndarray, c: float) -> float:
    """``log c + sum_k log(1 + tau_k / c)`` from the block eigenvalues ``tau``, for ``c > 0``.

    Where ``tau_k / c`` overflows (a subnormal ``c``), the term is ``log tau_k - log c``,
    which equals ``log1p(tau_k / c)`` in double precision there."""
    with np.errstate(over="ignore"):
        ratios = tau / c
    if ratios.size and np.min(1.0 + ratios) <= SINGULAR_MARGIN:
        raise NotPositive("shifted operator is not positive definite")
    terms = np.log1p(ratios)
    huge = np.isinf(ratios)
    terms[huge] = np.log(tau[huge]) - np.log(c)
    return float(np.log(c) + np.sum(terms))


def carleman_logdet2(T: TraceClassBlock) -> float:
    """Log Hilbert-Carleman determinant ``log det2(I + T) = sum_k [log(1+tau_k) - tau_k]``.

    The trace subtraction makes this continuous in the Hilbert-Schmidt norm;
    passing ``T = -S`` yields ``sum_k [log(1-alpha_k) + alpha_k]``, the
    covariance part of the exact KL divergence.
    """
    try:
        tau = np.linalg.eigvalsh(T.entries)
    except np.linalg.LinAlgError as exc:
        raise EigFailure(str(exc)) from exc
    if tau.size and np.min(1.0 + tau) <= SINGULAR_MARGIN:
        raise NotPositive("I + T is not positive definite")
    return float(np.sum(np.log1p(tau) - tau))


def shifted_combine(coeffs: list[tuple[float, ShiftedOperator]]) -> ShiftedOperator:
    """Linear combination ``sum_i w_i (block_i + shift_i I)``, exact in both parts."""
    if not coeffs:
        raise ValueError("empty combination")
    dim = coeffs[0][1].dim
    block = np.zeros((dim, dim))
    shift = 0.0
    for w, op in coeffs:
        if op.dim != dim:
            raise DimMismatch(f"operator dims differ: {op.dim} vs {dim}")
        block += float(w) * op.block
        shift += float(w) * op.shift
    return ShiftedOperator(block, shift)


def shifted_mul(x: ShiftedOperator, y: ShiftedOperator) -> ShiftedOperator:
    """Product ``(T1+c1 I)(T2+c2 I) = (T1 T2 + c1 T2 + c2 T1) + c1 c2 I``."""
    if x.dim != y.dim:
        raise DimMismatch(f"operator dims differ: {x.dim} vs {y.dim}")
    block = x.block @ y.block + x.shift * y.block + y.shift * x.block
    return ShiftedOperator(block, x.shift * y.shift)


def shifted_inv(op: ShiftedOperator) -> ShiftedOperator:
    """Inverse of a positive shifted operator: shift ``1/c``, block ``(B+cI)^{-1} - I/c``.

    The tail of the inverse is exactly ``(1/c) I``; the finite block is the
    correction on the carrier.
    """
    c = op.shift
    if c <= 0:
        raise NotPositive("inverse requires a strictly positive shift")
    # A symmetric block is factored once: the test reads the eigenvalues of the inverse's eigh.
    spec = sym_eigen(TraceClassBlock(op.block)) if _is_symmetric(op.block) else None
    tau = _general_eigvals(op.block) if spec is None else spec.eigenvalues
    if tau.size and np.min(1.0 + tau / c) <= SINGULAR_MARGIN:
        raise NotPositive("shifted operator is not positive definite")
    if spec is not None:
        v = spec.eigenvectors
        inv_block = (v * (1.0 / (tau + c) - 1.0 / c)) @ v.T
        inv_block = 0.5 * (inv_block + inv_block.T)
    else:
        dim = op.dim
        inv_block = np.linalg.inv(op.block + c * np.eye(dim)) - np.eye(dim) / c
    return ShiftedOperator(inv_block, 1.0 / c)


def shifted_identity(dim: int) -> ShiftedOperator:
    return ShiftedOperator(np.zeros((dim, dim)), 1.0)


def psd_sqrt(T: TraceClassBlock) -> TraceClassBlock:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in ``(-PSD_CLIP, 0)`` are rounding noise and clip to zero;
    anything below ``-PSD_CLIP`` raises :class:`NotPSD`.
    """
    return _spectral_sqrt(sym_eigen(T))


def _spectral_sqrt(spec: Spectrum) -> TraceClassBlock:
    """:func:`psd_sqrt` of the matrix whose eigendecomposition is ``spec``."""
    lam = spec.eigenvalues
    if _exact_verdicts(lam[::-1])[0]:
        raise NotPSD("matrix has a genuinely negative eigenvalue")
    root = (spec.eigenvectors * np.sqrt(np.clip(lam, 0.0, None))) @ spec.eigenvectors.T
    return TraceClassBlock(0.5 * (root + root.T))


def _warn_ill_conditioned(ill: bool) -> None:
    """Warn :class:`IllConditioned` when ``ill``.  The warning points at the line that called
    into this package, so that under Python's default filter each calling line warns once."""
    if ill:
        # The outermost package frame's caller: cached properties interleave functools frames.
        frame, level, stacklevel = sys._getframe(), 1, 2
        while frame is not None:
            if frame.f_globals.get("__name__", "").split(".")[0] == __package__:
                stacklevel = level + 1
            frame, level = frame.f_back, level + 1
        warnings.warn(
            "condition number exceeds 1e12; inverting the matrix is unreliable",
            IllConditioned,
            stacklevel=stacklevel,
        )


def _for_row_blocks(rows: int, width: int, fill, buffers: int = 0) -> None:
    """Call ``fill(start, stop, *scratch)`` over consecutive row ranges covering ``range(rows)``.

    It serves sampling (``lab.sample_gaussian``, ``z C^{1/2}``) and the log
    density ratio (``gaussian._log_rn_pass``) of given rows, ``(x - m) L^{-T} V``,
    or of normals whitened by one product, ``z T``.  A range holds a multiple of
    12 rows, about ``_BLOCK_VALUES`` values of ``width`` each, and the last range
    takes the remainder.  With one BLAS thread, every row of a range's matmul
    then rounds as in one call over all rows: 12 is a multiple of Philox's four
    words per step and of the row panels of OpenBLAS's AVX-512 dgemm, and a
    split job has no short range, which BLAS would multiply with its
    small-matrix or one-row kernels.  The ranges run on up to one thread per
    CPU of the process, the calling thread among them; with one range or one
    CPU it runs them all, in order.  numpy ufuncs, Philox and BLAS release the
    GIL.  Each thread owns ``buffers`` float64 arrays, made on the calling
    thread before any range runs and never handed to another thread;
    ``scratch`` is their first ``stop - start`` rows.  They have room for the
    longest range of any job of this width, so their size does not grow with
    ``rows``.  Every thread is joined before the first exception of ``fill``
    propagates.  ``fill`` writes disjoint rows and calls no traced entry
    point: no public ``gaussdiv`` function and no ``numpy.linalg`` or
    ``scipy.linalg`` one.
    """
    step = max(12, _BLOCK_VALUES // max(width, 1) // 12 * 12)
    count = max(rows // step, 1 if rows else 0)
    ranges = [(i * step, rows if i == count - 1 else (i + 1) * step) for i in range(count)]
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(ranges))
    longest = min(rows, 2 * step - 1)
    owned = [[np.empty((longest, width)) for _ in range(buffers)] for _ in range(max(workers, 1))]
    jobs, lock, errors = iter(ranges), threading.Lock(), []

    def work(scratch: list) -> None:
        while not errors:
            with lock:
                job = next(jobs, None)
            if job is None:
                return
            start, stop = job
            try:
                fill(start, stop, *(buf[: stop - start] for buf in scratch))
            except BaseException as exc:
                errors.append(exc)

    threads = [threading.Thread(target=work, args=(scratch,)) for scratch in owned[1:]]
    for thread in threads:
        thread.start()
    try:
        work(owned[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
