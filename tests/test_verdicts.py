"""Verdicts from a Cholesky factor and its condition estimate agree with ``eigvalsh``.

Validation reads a Cholesky factor and LAPACK's condition estimate, and falls
back to ``eigvalsh`` only where the estimate cannot settle a verdict.  The
rules below are frozen copies of the ``eigvalsh`` rules that decided every
verdict before: ``NotPSD`` for a measure, ``Degenerate`` and
``IllConditioned`` for the base of a pair, ``NotPositive`` for the noise and
prior of a model and ``IllConditioned`` for the shifted blend of an interior
regularized order.  Every case must end the same way under both, warnings
included.  The cases put the smallest eigenvalue at ``+-PSD_CLIP (1 +- 1e-3)``
and ``(1 +- 1e-1)`` or the condition number at ``CONDITION_WARN (1 +- 1e-2)``,
at scales ``2^k`` for k in [-20, 20] and dims 3 to 60, where the rounding of
``eigvalsh`` itself can decide.  Below dimension 32 every verdict reads
``eigvalsh`` directly, so most cases sit at dims 32 to 60.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussdiv as gd
from gaussdiv.operators import CONDITION_WARN, PSD_CLIP

DIMS = (3, 21, 32, 45, 60)
CLIP_LEVELS = [sign * PSD_CLIP * (1.0 + d) for sign in (1.0, -1.0) for d in (-1e-1, -1e-3, 1e-3, 1e-1)]
CONDITIONS = [CONDITION_WARN * (1.0 + d) for d in (-1e-2, 1e-2)]
# The battery's measures whose smallest eigenvalue sits at or below the clip.
BATTERY = {"soft": ([2, 1e-2, 1e-8, 1e-12], 9), "flat": ([1, 1e-13, 2], 7), "thin": ([1, 1, 1e-16], 5)}


# ---------------------------------------------------------------------------
# The eigvalsh rules, frozen
# ---------------------------------------------------------------------------


def _ill(lam) -> bool:
    return float(np.max(lam)) > CONDITION_WARN * float(np.min(lam))


def frozen_measure(cov):
    lam = np.linalg.eigvalsh(cov)
    return "NotPSD" if lam.size and float(np.min(lam)) < -PSD_CLIP else None


def frozen_base(cov):
    """``(error, warned)`` of the base factor: the eigenvalues decide, then Cholesky."""
    lam = np.linalg.eigvalsh(cov)
    if float(lam[0]) <= PSD_CLIP:
        return "Degenerate", False
    warned = _ill(lam)
    try:
        scipy.linalg.cho_factor(np.array(cov, order="F"), lower=True)
    except scipy.linalg.LinAlgError:
        return "Degenerate", warned
    return None, warned


def frozen_positive(cov) -> bool:
    return float(np.min(np.linalg.eigvalsh(cov))) > PSD_CLIP


def frozen_blend(nu_cov, mu_cov, r, gamma) -> bool:
    """Whether the interior order warned: Weyl's bound first, then ``eigvalsh`` of the blend."""
    lam_nu, lam_mu = np.linalg.eigvalsh(nu_cov), np.linalg.eigvalsh(mu_cov)
    top = (1.0 - r) * lam_nu[-1] + r * lam_mu[-1] + gamma
    if top > CONDITION_WARN * ((1.0 - r) * lam_nu[0] + r * lam_mu[0] + gamma):
        return _ill(np.linalg.eigvalsh((1.0 - r) * nu_cov + r * mu_cov) + gamma)
    return False


# ---------------------------------------------------------------------------
# The package's verdicts
# ---------------------------------------------------------------------------


def _outcome(call):
    """``(error class name or None, whether IllConditioned warned)`` of ``call()``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            call()
            error = None
        except gd.GaussDivError as exc:
            error = type(exc).__name__
    return error, any(issubclass(w.category, gd.IllConditioned) for w in caught)


def verdicts(cov) -> dict:
    """Every verdict on ``cov``, as the package reaches it and as the frozen rules do."""
    dim = cov.shape[0]
    got, want = {}, {}
    got["measure"] = _outcome(lambda: gd.GaussianMeasure(np.zeros(dim), cov))
    want["measure"] = (frozen_measure(cov), False)
    unit = gd.GaussianMeasure(np.zeros(dim), np.eye(dim))
    model = (np.eye(dim), np.eye(dim), unit, np.zeros(dim))
    got["noise"] = _outcome(lambda: gd.LinearGaussianModel(model[0], cov, *model[2:]))
    want["noise"] = (None if frozen_positive(cov) else "NotPositive", False)
    if want["measure"][0] is None:
        got["base"] = _outcome(lambda: gd.GaussianPair(unit, gd.GaussianMeasure(np.zeros(dim), cov))
                               .base_factor)
        want["base"] = frozen_base(cov)
        got["prior"] = _outcome(lambda: gd.LinearGaussianModel(
            model[0], model[1], gd.GaussianMeasure(np.zeros(dim), cov), model[3]))
        want["prior"] = (None if frozen_positive(cov) else "NotPositive", False)
    return {"got": got, "want": want}


def _covariance(spectrum, seed) -> np.ndarray:
    dim = len(spectrum)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    cov = (q * np.asarray(spectrum, dtype=float)) @ q.T
    return gd.TraceClassBlock(0.5 * (cov + cov.T)).entries


def _clip_spectrum(dim, lowest, scale):
    return [lowest, *np.geomspace(1e-3 * scale, scale, dim - 1)]


def _condition_spectrum(dim, condition, scale):
    return [scale, *np.geomspace(scale * condition ** (1.0 / dim), scale * condition, dim - 1)]


def _disagreements(covs) -> list:
    bad = []
    for label, cov in covs:
        record = verdicts(cov)
        if record["got"] != record["want"]:
            bad.append((label, record))
    return bad


@pytest.mark.parametrize("lowest", CLIP_LEVELS, ids=lambda v: f"{v:.4g}")
def test_smallest_eigenvalue_at_the_clip(lowest):
    covs = [((dim, k), _covariance(_clip_spectrum(dim, lowest, 2.0**k), seed=dim * 100 + k + 20))
            for dim in DIMS for k in range(-20, 21)]
    assert _disagreements(covs) == []


@pytest.mark.parametrize("condition", CONDITIONS, ids=lambda v: f"{v:.4g}")
def test_condition_number_at_the_warning_threshold(condition):
    covs = [((dim, k), _covariance(_condition_spectrum(dim, condition, 2.0**k), seed=dim * 100 + k + 20))
            for dim in DIMS for k in range(-20, 21)]
    assert _disagreements(covs) == []


@pytest.mark.parametrize("name", sorted(BATTERY))
def test_battery_measures_at_every_scale(name):
    values, seed = BATTERY[name]
    cov = gd.gen_measure(gd.SpectrumFamily.explicit(values), seed).cov.entries
    covs = [(k, gd.TraceClassBlock(2.0**k * cov).entries) for k in range(-20, 21)]
    assert _disagreements(covs) == []


def test_the_cases_reach_every_verdict():
    # Both sides of every threshold are hit, so agreement above is not vacuous.
    seen = set()
    for lowest in CLIP_LEVELS:
        for k in (-20, 0, 20):
            seen.update(str(v) for v in verdicts(_covariance(_clip_spectrum(40, lowest, 2.0**k), 1))
                        ["want"].items())
    for condition in CONDITIONS:
        seen.update(str(v) for v in verdicts(_covariance(_condition_spectrum(40, condition, 1.0), 1))
                    ["want"].items())
    for want in [("measure", ("NotPSD", False)), ("measure", (None, False)),
                 ("base", ("Degenerate", False)), ("base", (None, True)), ("base", (None, False)),
                 ("noise", ("NotPositive", False)), ("prior", (None, False))]:
        assert str(want) in seen


@pytest.mark.parametrize("condition", CONDITIONS, ids=lambda v: f"{v:.4g}")
@pytest.mark.parametrize("r", [0.3, 0.7])
def test_interior_blend_warns_as_before(condition, r):
    # nu = mu makes the blend the covariance itself, so Weyl's bound is tight; the
    # smallest eigenvalue puts the shifted blend's condition number at the threshold.
    bad = []
    for dim in DIMS:
        for k in range(-20, 21, 4):
            scale = 2.0**k
            gamma = 1e-3 * scale
            spectrum = _condition_spectrum(dim, condition, scale)
            spectrum[0] = (spectrum[-1] + gamma) / condition - gamma
            cov = _covariance(spectrum, dim * 100 + k + 20)
            measure = gd.GaussianMeasure(np.zeros(dim), cov)
            got = _outcome(lambda: gd.GaussianPair(measure, measure).regularized("renyi", gamma, r))
            want = (None, frozen_blend(cov, cov, r, gamma))
            if got != want:
                bad.append((dim, k, got, want))
    assert bad == []


@pytest.mark.parametrize("power", [0.25, 0.5, 0.8], ids=lambda p: f"n^{p}")
def test_an_estimate_far_below_the_norm_changes_no_verdict(monkeypatch, power):
    # The margins allow LAPACK's estimate of ||A^-1||_1 to fall short by a factor n.
    # Shrink the real estimate by n^power: verdicts may fall back to eigvalsh more
    # often, but never change.
    dpocon = scipy.linalg.lapack.dpocon

    def low(a, anorm, uplo="U"):
        rcond, info = dpocon(a, anorm, uplo=uplo)
        return rcond * a.shape[0] ** power, info

    monkeypatch.setattr(scipy.linalg.lapack, "dpocon", low)
    covs = [((dim, k, lowest), _covariance(_clip_spectrum(dim, lowest, 2.0**k), dim + k))
            for dim in (32, 45, 60) for k in range(-20, 21, 5) for lowest in CLIP_LEVELS]
    covs += [((dim, k, c), _covariance(_condition_spectrum(dim, c, 2.0**k), dim + k))
             for dim in (32, 45, 60) for k in range(-20, 21, 5) for c in CONDITIONS]
    assert _disagreements(covs) == []


def _clustered_spectrum(rng, dim, lowest, spread):
    """``lowest`` and eigenvalues up to ``spread`` decades above it: in such a cluster the
    condition estimate is least accurate."""
    return [lowest, *abs(lowest) * 10.0 ** rng.uniform(0.0, spread, dim - 1)]


def test_clustered_spectra_near_the_clip():
    rng = np.random.default_rng(0)
    covs = []
    for case in range(800):
        dim, spread = int(rng.integers(32, 61)), rng.uniform(0.0, 3.0)
        lowest = PSD_CLIP * (1.0 + rng.uniform(-0.9, 0.5)) * (1.0 if case % 4 else -1.0)
        covs.append((case, _covariance(_clustered_spectrum(rng, dim, lowest, spread), case)))
    assert _disagreements(covs) == []


@settings(max_examples=200, deadline=None)
@given(
    dim=st.integers(32, 60),
    k=st.integers(-20, 20),
    offset=st.floats(-0.9, 0.5),
    spread=st.floats(0.0, 14.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_spectra_near_the_clip(dim, k, offset, spread, seed):
    # One eigenvalue at 2^k on top of the cluster sets the scale.
    lowest = PSD_CLIP * (1.0 + offset) * (1.0 if seed % 2 else -1.0)
    rng = np.random.default_rng(seed)
    spectrum = [*_clustered_spectrum(rng, dim - 1, lowest, spread), 2.0**k]
    record = verdicts(_covariance(spectrum, seed))
    assert record["got"] == record["want"]
