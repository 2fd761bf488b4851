"""Alpha log-determinant divergences between positive shifted operators.

The family interpolates between the two Kullback-Leibler directions
(``alpha = +1`` and ``alpha = -1``) through a Bhattacharyya-type symmetric
point at ``alpha = 0``.  For ``|alpha| < 1`` and operators ``x = A + gamma*I``,
``y = B + mu*I``::

    d^alpha(x, y) = 4/(1-alpha^2) * [ logdet_X(combo)
                                      - beta * logdet_X(x)
                                      - (1-beta) * logdet_X(y)
                                      + (beta - (1-alpha)/2) * log(gamma/mu) ]

with ``combo = (1-alpha)/2 * x + (1+alpha)/2 * y`` and
``beta = (1-alpha)*gamma / ((1-alpha)*gamma + (1+alpha)*mu)``.  The mixed-shift
correction term vanishes when ``gamma = mu`` and the formula collapses to the
familiar finite-dimensional log-det divergence.

At the endpoints the 1/(1-alpha^2) pole forces separate limit formulas.  The
private helpers below hold the arithmetic on the log-determinants, shared with
:class:`~gaussdiv.gaussian.GaussianPair`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimMismatch, NotPositive
from .operators import ShiftedOperator, _is_symmetric, _shifted_cholesky, shifted_combine

# Inside this margin of +-1 the general formula is numerically meaningless;
# route to the closed-form limits instead.
ENDPOINT_MARGIN = 1e-12


class LogDetPath(enum.Enum):
    GENERAL = "general"
    LIMIT_POS1 = "limit_pos1"
    LIMIT_NEG1 = "limit_neg1"
    EQUAL_SHIFT = "equal_shift"


@dataclass(frozen=True)
class LogDetResult:
    """Divergence value plus the route that produced it; beta is None at the endpoints."""

    value: float
    alpha: float
    beta: float | None
    path: LogDetPath


def _endpoint_path(alpha: float) -> LogDetPath | None:
    """The limit that ``alpha`` routes to, or None for the interior formula."""
    if alpha >= 1.0 - ENDPOINT_MARGIN:
        return LogDetPath.LIMIT_POS1
    if alpha <= -1.0 + ENDPOINT_MARGIN:
        return LogDetPath.LIMIT_NEG1
    return None


def _interior(
    alpha: float, w_x: float, w_y: float, ld_combo: float, ld_x: float, ld_y: float,
    g: float, m: float,
) -> LogDetResult:
    """``d^alpha`` from the logdets of ``w_x x + w_y y``, ``x`` and ``y``; shifts ``g``, ``m``."""
    if g == m:
        bracket = ld_combo - w_x * ld_x - w_y * ld_y
        return LogDetResult(bracket / (w_x * w_y), alpha, w_x, LogDetPath.EQUAL_SHIFT)
    beta = w_x * g / (w_x * g + w_y * m)
    bracket = ld_combo - beta * ld_x - (1.0 - beta) * ld_y + (beta - w_x) * math.log(g / m)
    return LogDetResult(bracket / (w_x * w_y), alpha, beta, LogDetPath.GENERAL)


def _kl_limit(
    alpha: float, path: LogDetPath, ld_x: float, ld_y: float, trace: float, g: float, m: float
) -> LogDetResult:
    """KL-direction limit; ``trace = tr_X[y^{-1}x - I]``, ``logdet_X[y^{-1}x] = ld_x - ld_y``."""
    ratio = g / m
    value = (ratio - 1.0) * math.log(ratio) + trace - ratio * (ld_x - ld_y)
    return LogDetResult(value, alpha, None, path)


def alpha_logdet(alpha: float, x: ShiftedOperator, y: ShiftedOperator) -> LogDetResult:
    """Alpha log-determinant divergence ``d^alpha(x, y)`` for ``alpha`` in [-1, 1].

    ``x`` and ``y`` are self-adjoint (symmetric blocks), each factored once by Cholesky,
    as is their combination at interior orders.  ``|alpha| >= 1 - 1e-12`` dispatches
    to the endpoint limit formulas, whose trace solves with ``y``'s factor; equal
    shifts take the simplified equal-shift form (same value as the general path,
    without the shift-ratio correction).  The value of a divergence is nonnegative
    up to rounding; this function reports what it computes and never clamps.

    Raises
    ------
    ValueError
        if a block is not symmetric.
    NotPositive
        if a shift is not strictly positive or a Cholesky factorization fails.
    DimMismatch
        if the operators live on different carriers.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha) or not -1.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [-1, 1], got {alpha}")
    if x.dim != y.dim:
        raise DimMismatch(f"operator dims differ: {x.dim} vs {y.dim}")
    if x.shift <= 0 or y.shift <= 0:
        raise NotPositive("alpha_logdet requires strictly positive shifts")
    if not (_is_symmetric(x.block) and _is_symmetric(y.block)):
        raise ValueError("alpha_logdet takes self-adjoint operators; a block is not symmetric")

    path = _endpoint_path(alpha)
    if path is LogDetPath.LIMIT_NEG1:
        # The alpha = -1 limit is the mirror image of alpha = +1 with the
        # roles of the operators (and their shifts) exchanged.
        x, y = y, x
    # Plain log-determinants on the carrier: the extended ones subtract
    # (dim - 1) log shift, which cancels between equal shifts in both formulas.
    tail = 0.0 if x.shift == y.shift else x.dim - 1.0
    ld_x = _shifted_cholesky(x.block, x.shift)[1] - tail * math.log(x.shift)
    factor_y, ld_y = _shifted_cholesky(y.block, y.shift)
    ld_y -= tail * math.log(y.shift)
    if path is not None:
        # tr_X[y^{-1}x - I]: the carrier's trace, the tail (ratio per dimension) counted once.
        finite = np.trace(scipy.linalg.cho_solve((factor_y, True), x.block + x.shift * np.eye(x.dim)))
        trace = float(finite) - (x.dim - 1) * (x.shift / y.shift) - 1.0
        return _kl_limit(alpha, path, ld_x, ld_y, trace, x.shift, y.shift)

    w_x = 0.5 * (1.0 - alpha)
    w_y = 0.5 * (1.0 + alpha)
    combo = shifted_combine([(w_x, x), (w_y, y)])
    ld_combo = _shifted_cholesky(combo.block, combo.shift)[1] - tail * math.log(combo.shift)
    return _interior(alpha, w_x, w_y, ld_combo, ld_x, ld_y, x.shift, y.shift)


def alpha_logdet_dual_check(
    alpha: float, x: ShiftedOperator, y: ShiftedOperator
) -> tuple[float, float]:
    """Return ``(d^alpha(x, y), d^{-alpha}(y, x))``; the pair agrees to rounding."""
    forward = alpha_logdet(alpha, x, y).value
    mirrored = alpha_logdet(-float(alpha), y, x).value
    return forward, mirrored
