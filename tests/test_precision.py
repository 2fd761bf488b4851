"""Regularized and exact divergences against high-precision mpmath references.

The references start from the exact binary values of the float64 inputs, so
they measure the error of the computation alone.  Two groups of pairs:

* well-conditioned pairs, where the regularized KL and Renyi must be accurate
  to relative 1e-9 at every gamma down to 1e-12, and the exact Renyi to 1e-13
  at orders down to the smallest subnormal and up to ``1 - 2**-53``;
* hard pairs (a base of condition number 1e8, and covariances that are
  rank-deficient on both sides), where any float64 route loses accuracy in
  proportion to ``eps * kappa``, with ``kappa`` the largest condition number of
  the shifted covariances.  Each value must stay within that bound (or 1e-9),
  and over each family the cached path must be as accurate as the dense-solve
  route it replaced: the median ratio of their errors is at most 2.  The exact
  Renyi is checked on the condition-1e8 family alone, the one whose pairs are
  equivalent.

The dense-solve route is frozen in this file, eigenvalue log-determinants and
all, so it stays a fixed yardstick while ``alpha_logdet`` changes.  On every
family, ``alpha_logdet`` of the shifted covariances, with the quadratic form
added back, must stay within the same bound, be no less accurate than the
frozen route at the interior orders (median ratio at most 1) and stay within a
factor 2 of it at the KL endpoint.

Pair by pair, each of two backward-stable routes comes out ahead on a good
share of the pairs at the conditioning limit, so the comparison takes the
median over a family's pairs and its three smallest gammas rather than a
per-pair bound.  The KL's Rayleigh quotients are what keep that median near 1;
with the eigenvalues ``eigh`` returns it is 4 to 80.
"""

import warnings

import mpmath
import numpy as np
import pytest

import gaussdiv as gd
from oracles import exact_renyi_reference, rand_measure, rand_orthogonal

GAMMAS = (1e-2, 1e-6, 1e-10, 1e-12)
ORDERS = (1.0, 0.25, 0.5, 0.75)  # order 1 is the KL divergence
EPS = float(np.finfo(float).eps)
# Exact orders at both ends of (0, 1), where dividing by r (1 - r) invites cancellation.
EXACT_ORDERS = (5e-324, 1e-300, 1e-13, 1e-11, 1e-9, 1e-7, 1e-5) + tuple(
    1.0 - e for e in (1e-5, 1e-7, 1e-9, 1e-11, 1e-13, 2.0**-53)
)


def _references(nu, mu, gamma):
    """Order -> regularized Renyi (order 1: KL) at 50 digits."""
    with mpmath.workdps(50):
        n = nu.dim
        shift = mpmath.mpf(gamma) * mpmath.eye(n)
        a = mpmath.matrix(nu.cov.entries.tolist()) + shift
        b = mpmath.matrix(mu.cov.entries.tolist()) + shift
        dm = mpmath.matrix(nu.mean.tolist()) - mpmath.matrix(mu.mean.tolist())
        ld_a, ld_b = mpmath.log(mpmath.det(a)), mpmath.log(mpmath.det(b))
        b_inv = mpmath.inverse(b)
        trace = sum((b_inv * a)[i, i] for i in range(n))
        refs = {1.0: ((trace - n) + (dm.T * b_inv * dm)[0] + ld_b - ld_a) / 2}
        for r in ORDERS[1:]:
            r_mp = mpmath.mpf(r)
            blend = (1 - r_mp) * a + r_mp * b
            quad = (dm.T * mpmath.inverse(blend) * dm)[0]
            logdets = mpmath.log(mpmath.det(blend)) - (1 - r_mp) * ld_a - r_mp * ld_b
            refs[r] = quad / 2 + logdets / (2 * r_mp * (1 - r_mp))
        return refs


def _rel_err(value, ref) -> float:
    with mpmath.workdps(50):
        return float(abs(mpmath.mpf(value) - ref) / abs(ref))


def _extended_logdet(cov, shift):
    """``log shift + sum_k log1p(tau_k / shift)`` over the eigenvalues ``tau`` of ``cov``."""
    return float(np.log(shift) + np.sum(np.log1p(np.linalg.eigvalsh(cov) / shift)))


def _quadratic_form(nu, mu, r, gamma):
    """Half the quadratic form of the mean difference in the shifted blend, by a dense solve."""
    blend = (1.0 - r) * nu.cov.entries + r * mu.cov.entries + gamma * np.eye(nu.dim)
    dm = nu.mean - mu.mean
    return 0.5 * float(dm @ np.linalg.solve(blend, dm))


def _dense_solve_route(nu, mu, r, gamma):
    """The route the cached spectra replaced, frozen here: a dense solve for the
    quadratic form, and the alpha log-det divergence of the shifted covariances
    from eigenvalue log-determinants, with a dense solve for the KL's trace."""
    a, b, n = nu.cov.entries, mu.cov.entries, nu.dim
    ld_a, ld_b = _extended_logdet(a, gamma), _extended_logdet(b, gamma)
    if r == 1.0:
        finite = np.trace(np.linalg.solve(b + gamma * np.eye(n), a + gamma * np.eye(n)))
        logdet = float(finite) - (n - 1) - 1.0 - (ld_a - ld_b)
    else:
        alpha = 2.0 * r - 1.0
        w_a, w_b = 0.5 * (1.0 - alpha), 0.5 * (1.0 + alpha)
        ld_blend = _extended_logdet(w_a * a + w_b * b, w_a * gamma + w_b * gamma)
        logdet = (ld_blend - w_a * ld_a - w_b * ld_b) / (w_a * w_b)
    return _quadratic_form(nu, mu, r, gamma) + 0.5 * logdet


def _condition(nu, mu, r, gamma):
    """Largest condition number among ``C_nu + gamma I``, ``C_mu + gamma I`` and their blend."""
    blend = (1.0 - r) * nu.cov.entries + r * mu.cov.entries
    kappa = 0.0
    for cov in (nu.cov.entries, mu.cov.entries, blend):
        lam = np.linalg.eigvalsh(cov)
        kappa = max(kappa, (lam[-1] + gamma) / (max(lam[0], 0.0) + gamma))
    return kappa


def _well_conditioned_pairs():
    rng = np.random.default_rng(2026)
    return [(rand_measure(rng, d), rand_measure(rng, d)) for d in (2, 3, 4, 5, 6, 6)]


def _rank_deficient(rng, dim):
    """PSD covariance with ``dim // 2`` exact zero eigenvalues in a random frame."""
    lam = rng.uniform(0.1, 1.0, dim)
    lam[: dim // 2] = 0.0
    q = rand_orthogonal(rng, dim)
    cov = (q * lam) @ q.T
    return gd.GaussianMeasure(0.2 * rng.standard_normal(dim), 0.5 * (cov + cov.T))


def _hard_families():
    rng = np.random.default_rng(2027)
    ill, deficient = [], [
        (gd.GaussianMeasure([0.0, 0.0], np.diag([1.0, 0.0])),
         gd.GaussianMeasure([0.0, 0.0], np.diag([0.0, 1.0]))),
    ]
    for _ in range(6):
        dim = int(rng.integers(3, 7))
        q = rand_orthogonal(rng, dim)
        base = (q * np.geomspace(1.0, 1e-8, dim)) @ q.T
        ill.append((rand_measure(rng, dim),
                    gd.GaussianMeasure(0.3 * rng.standard_normal(dim), 0.5 * (base + base.T))))
        dim = int(rng.integers(3, 7))
        deficient.append((_rank_deficient(rng, dim), _rank_deficient(rng, dim)))
    return {"condition 1e8 base": ill, "rank-deficient both sides": deficient}


WELL = _well_conditioned_pairs()
HARD = _hard_families()


@pytest.mark.parametrize("gamma", GAMMAS)
def test_well_conditioned_pairs_to_1e9(gamma):
    for nu, mu in WELL:
        refs = _references(nu, mu, gamma)
        for r in ORDERS:
            assert _rel_err(gd.regularized_renyi(nu, mu, r, gamma), refs[r]) <= 1e-9


@pytest.fixture(scope="module")
def hard_errors():
    """(family, gamma, order) -> [(cached error, dense-solve error, bound)] over the family."""
    errors = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", gd.IllConditioned)
        for family, pairs in HARD.items():
            for gamma in GAMMAS:
                for nu, mu in pairs:
                    refs = _references(nu, mu, gamma)
                    for r in ORDERS:
                        errors.setdefault((family, gamma, r), []).append((
                            _rel_err(gd.regularized_renyi(nu, mu, r, gamma), refs[r]),
                            _rel_err(_dense_solve_route(nu, mu, r, gamma), refs[r]),
                            max(1e-9, EPS * _condition(nu, mu, r, gamma)),
                        ))
    return errors


@pytest.mark.parametrize("family", list(HARD))
@pytest.mark.parametrize("gamma", GAMMAS)
def test_hard_pairs_within_the_conditioning_bound(family, gamma, hard_errors):
    for r in ORDERS:
        for cached, _, bound in hard_errors[(family, gamma, r)]:
            assert cached <= bound, (r, cached, bound)


@pytest.mark.parametrize("family", list(HARD))
@pytest.mark.parametrize("orders", [(1.0,), ORDERS[1:]], ids=["kl", "renyi"])
def test_hard_pairs_as_accurate_as_the_dense_solve_route(family, orders, hard_errors):
    ratios = [
        max(cached, EPS) / max(dense, EPS)
        for gamma in GAMMAS[1:]
        for r in orders
        for cached, dense, _ in hard_errors[(family, gamma, r)]
    ]
    assert np.median(ratios) <= 2.0


@pytest.fixture(scope="module")
def exact_references():
    """Family -> one ``{order: exact Renyi}`` reference per pair, at 60 digits."""
    families = {"well-conditioned": WELL, "condition 1e8 base": HARD["condition 1e8 base"]}
    return {
        family: [exact_renyi_reference(nu, mu, EXACT_ORDERS) for nu, mu in pairs]
        for family, pairs in families.items()
    }


@pytest.mark.parametrize("r", EXACT_ORDERS)
def test_exact_renyi_well_conditioned_to_1e13(r, exact_references):
    for (nu, mu), refs in zip(WELL, exact_references["well-conditioned"]):
        assert _rel_err(gd.exact_renyi(nu, mu, r), refs[r]) <= 1e-13


@pytest.mark.parametrize("r", EXACT_ORDERS)
def test_exact_renyi_condition_1e8_within_the_bound(r, exact_references):
    pairs = HARD["condition 1e8 base"]
    for (nu, mu), refs in zip(pairs, exact_references["condition 1e8 base"]):
        bound = max(1e-9, EPS * _condition(nu, mu, r, 0.0))
        err = _rel_err(gd.exact_renyi(nu, mu, r), refs[r])
        assert err <= bound, (err, bound)


def _operator_route(nu, mu, r, gamma):
    """:func:`gaussdiv.alpha_logdet` of the shifted covariances, ``ShiftedOperator(C, gamma)``,
    with the quadratic form added back."""
    x, y = gd.ShiftedOperator(nu.cov, gamma), gd.ShiftedOperator(mu.cov, gamma)
    return _quadratic_form(nu, mu, r, gamma) + 0.5 * gd.alpha_logdet(2.0 * r - 1.0, x, y).value


OPERATOR_FAMILIES = {"well-conditioned": WELL, **HARD}


@pytest.fixture(scope="module")
def operator_errors():
    """(family, gamma, order) -> [(alpha_logdet error, frozen-route error, bound)] over the family."""
    errors = {}
    for family, pairs in OPERATOR_FAMILIES.items():
        for gamma in GAMMAS:
            for nu, mu in pairs:
                refs = _references(nu, mu, gamma)
                for r in ORDERS:
                    errors.setdefault((family, gamma, r), []).append((
                        _rel_err(_operator_route(nu, mu, r, gamma), refs[r]),
                        _rel_err(_dense_solve_route(nu, mu, r, gamma), refs[r]),
                        max(1e-9, EPS * _condition(nu, mu, r, gamma)),
                    ))
    return errors


@pytest.mark.parametrize("family", list(OPERATOR_FAMILIES))
@pytest.mark.parametrize("gamma", GAMMAS)
def test_alpha_logdet_within_the_conditioning_bound(family, gamma, operator_errors):
    for r in ORDERS:
        for err, _, bound in operator_errors[(family, gamma, r)]:
            assert err <= bound, (r, err, bound)


@pytest.mark.parametrize("family", list(OPERATOR_FAMILIES))
@pytest.mark.parametrize("orders, limit", [((1.0,), 2.0), (ORDERS[1:], 1.0)], ids=["kl", "renyi"])
def test_alpha_logdet_as_accurate_as_the_frozen_route(family, orders, limit, operator_errors):
    # Cholesky log-determinants: no worse than the eigenvalue ones at the interior
    # orders; at the KL endpoint the trace's solve keeps the two routes close.
    ratios = [
        max(err, EPS) / max(frozen, EPS)
        for gamma in GAMMAS[1:]
        for r in orders
        for err, frozen, _ in operator_errors[(family, gamma, r)]
    ]
    assert np.median(ratios) <= limit
