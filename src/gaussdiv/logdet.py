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

At the endpoints the 1/(1-alpha^2) pole forces separate limit formulas.  Their
trace term is evaluated by a dense solve on the finite carrier with the tail
count corrected afterwards: assembling the split inverse (1/shift tail plus
finite correction) and multiplying through cancels catastrophically when the
shift is tiny.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NotPositive
from .operators import ShiftedOperator, ext_fredholm_logdet, shifted_combine

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


def _check_pair(x: ShiftedOperator, y: ShiftedOperator) -> None:
    if x.dim != y.dim:
        raise DimMismatch(f"operator dims differ: {x.dim} vs {y.dim}")
    if x.shift <= 0 or y.shift <= 0:
        raise NotPositive("alpha_logdet requires strictly positive shifts")


def _limit_pos1(x: ShiftedOperator, y: ShiftedOperator) -> float:
    """KL-direction limit: (g/m-1)log(g/m) + tr_X[y^{-1}x - I] - (g/m) logdet_X[y^{-1}x]."""
    ratio = x.shift / y.shift
    # logdet_X of the product equals the difference of logdets (product
    # property); this avoids eigendecomposing the nonsymmetric product.  The
    # logdets also validate positivity of both operators before the solve.
    logdet_term = ext_fredholm_logdet(x) - ext_fredholm_logdet(y)
    # Extended trace of y^{-1}x: dense trace on the carrier, then count the
    # identity tail (ratio per carrier dimension) once instead of n times.
    n = x.dim
    eye = np.eye(n)
    finite = np.trace(np.linalg.solve(y.block + y.shift * eye, x.block + x.shift * eye))
    trace_term = float(finite) - (n - 1) * ratio - 1.0
    return (ratio - 1.0) * math.log(ratio) + trace_term - ratio * logdet_term


def alpha_logdet(alpha: float, x: ShiftedOperator, y: ShiftedOperator) -> LogDetResult:
    """Alpha log-determinant divergence ``d^alpha(x, y)`` for ``alpha`` in [-1, 1].

    ``|alpha| >= 1 - 1e-12`` dispatches to the endpoint limit formulas; equal
    shifts take the simplified equal-shift form (same value as the general
    path, without the shift-ratio correction).  The value of a divergence is
    nonnegative up to rounding; this function reports what it computes and
    never clamps.

    Raises
    ------
    NotPositive
        if either operator fails positivity (shift or block spectrum).
    DimMismatch
        if the operators live on different carriers.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha) or not -1.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [-1, 1], got {alpha}")
    _check_pair(x, y)

    if alpha >= 1.0 - ENDPOINT_MARGIN:
        return LogDetResult(_limit_pos1(x, y), alpha, None, LogDetPath.LIMIT_POS1)
    if alpha <= -1.0 + ENDPOINT_MARGIN:
        # The alpha = -1 limit is the mirror image of alpha = +1 with the
        # roles of the operators (and their shifts) exchanged.
        return LogDetResult(_limit_pos1(y, x), alpha, None, LogDetPath.LIMIT_NEG1)

    w_x = 0.5 * (1.0 - alpha)
    w_y = 0.5 * (1.0 + alpha)
    combo = shifted_combine([(w_x, x), (w_y, y)])
    ld_combo = ext_fredholm_logdet(combo)
    ld_x = ext_fredholm_logdet(x)
    ld_y = ext_fredholm_logdet(y)
    scale = 4.0 / (1.0 - alpha * alpha)

    if x.shift == y.shift:
        bracket = ld_combo - w_x * ld_x - w_y * ld_y
        return LogDetResult(scale * bracket, alpha, w_x, LogDetPath.EQUAL_SHIFT)

    g, m = x.shift, y.shift
    beta = (1.0 - alpha) * g / ((1.0 - alpha) * g + (1.0 + alpha) * m)
    bracket = ld_combo - beta * ld_x - (1.0 - beta) * ld_y + (beta - w_x) * math.log(g / m)
    return LogDetResult(scale * bracket, alpha, beta, LogDetPath.GENERAL)


def alpha_logdet_dual_check(
    alpha: float, x: ShiftedOperator, y: ShiftedOperator
) -> tuple[float, float]:
    """Return ``(d^alpha(x, y), d^{-alpha}(y, x))``; the pair agrees to rounding."""
    forward = alpha_logdet(alpha, x, y).value
    mirrored = alpha_logdet(-float(alpha), y, x).value
    return forward, mirrored
