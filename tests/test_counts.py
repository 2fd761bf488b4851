"""Factorization counts of the CLI subcommands.

Counts are deterministic where wall-clock time is not, so they pin the work
each subcommand does: a change that adds or drops an eigendecomposition, a
dense solve, a Cholesky factorization, a condition estimate or a triangular
solve (LAPACK's ``dtrtrs``, which the whitening calls directly) shows up
here.  From dimension 32 on, building a measure takes a Cholesky factor of its
covariance and one condition estimate, and the measure keeps the verdicts;
whitening against it, or a model over it as prior, reads them, so the base
factor is one more Cholesky factor and no estimate.  A measure's eigenvalues
are computed only where a divergence or an open verdict reads them.  Below
dimension 32 (the noise of the ``bayes`` model, the measures of the sampler
gate, the built-in ``rn-check`` pair) ``eigvalsh`` decides at once.  The exact
divergences whiten by a Cholesky factor of the base and take the eigenvalues
of the whitened perturbation; only the orders inside (0, 1) and the log
density ratio need its eigenvectors.  The regularized KL reads the base's
eigendecomposition, which one pair object keeps for a whole sweep; the other
regularized orders take Cholesky factors at each gamma.  No row makes a dense
solve.  In the operator calculus each block is factored once: ``alpha_logdet``
takes one Cholesky factor of each operator and, at interior orders, of their
combination; at the endpoints its trace is a solve with the second operator's
factor.  The inverse and the Carleman determinant read eigenvalues.
"""

import json
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack

import gaussdiv as gd
from gaussdiv.cli import main

COUNTED = (
    (np.linalg, ("eigh", "eigvalsh", "solve")),
    (scipy.linalg, ("cho_factor", "cho_solve")),
    (scipy.linalg.lapack, ("dpocon", "dtrtrs")),
)

DIM = 60

CASES = {
    "div kl": (
        ["div", "--kind", "kl", "--nu", "{nu}", "--mu", "{mu}"],
        {"cho_factor": 3, "dpocon": 2, "eigvalsh": 1, "dtrtrs": 3},
    ),
    "div renyi regularized": (
        ["div", "--kind", "renyi", "--r", "0.3", "--gamma", "1e-4", "--nu", "{nu}", "--mu", "{mu}"],
        {"cho_factor": 5, "dpocon": 3, "dtrtrs": 1},
    ),
    "sweep-gamma kl": (
        ["sweep-gamma", "--kind", "kl", "--from", "1e-1", "--to", "1e-8", "--points", "8",
         "--nu", "{nu}", "--mu", "{mu}", "--out", "{out}"],
        {"cho_factor": 3, "dpocon": 2, "eigh": 1, "eigvalsh": 3, "dtrtrs": 3},
    ),
    "sweep-r regularized": (
        ["sweep-r", "--gamma", "1e-6", "--from", "0.1", "--to", "0.9", "--points", "5",
         "--nu", "{nu}", "--mu", "{mu}", "--out", "{out}"],
        {"cho_factor": 10, "dpocon": 7, "eigh": 1, "eigvalsh": 1, "dtrtrs": 8},
    ),
    "bayes": (
        ["bayes", "--model", "{model}"],
        {"cho_factor": 5, "cho_solve": 4, "dpocon": 2, "eigvalsh": 2, "dtrtrs": 3},
    ),
    "rn-check": (
        ["rn-check", "--n", "2000", "--seed", "7", "--nu", "{nu}", "--mu", "{mu}"],
        {"cho_factor": 3, "dpocon": 2, "eigh": 6, "eigvalsh": 4, "dtrtrs": 4},
    ),
    "rn-check built-in pair": (
        ["rn-check", "--n", "2000", "--seed", "7"],
        {"cho_factor": 1, "eigh": 6, "eigvalsh": 6, "dtrtrs": 4},
    ),
}


@pytest.fixture
def paths(tmp_path):
    # One frame, two decay rates: an equivalent pair close enough for the
    # Monte-Carlo checks of rn-check to pass at n = 2000.
    nu = gd.gen_measure(gd.SpectrumFamily.power_law(DIM, 2.1), 3, mean_scale=0.01)
    mu = gd.gen_measure(gd.SpectrumFamily.power_law(DIM, 2.0), 3)
    rng = np.random.default_rng(11)
    obs_dim = 10
    model = gd.LinearGaussianModel(
        rng.standard_normal((obs_dim, DIM)), 0.5 * np.eye(obs_dim), mu, rng.standard_normal(obs_dim)
    )
    files = {"out": str(tmp_path / "sweep.csv")}
    for name, obj in (("nu", nu), ("mu", mu), ("model", model)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj.to_dict()))
        files[name] = str(path)
    return files


@pytest.fixture
def calls(monkeypatch):
    counter = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            counter[name] += 1
            return fn(*args, **kwargs)

        return counted

    for module, names in COUNTED:
        for name in names:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return counter


@pytest.mark.parametrize("case", list(CASES))
def test_factorization_counts(case, paths, calls):
    template, want = CASES[case]
    calls.clear()
    assert main([arg.format(**paths) for arg in template]) == 0
    assert dict(calls) == want


@pytest.mark.parametrize("kind", [["kl"], ["renyi", "--r", "0.3"]])
def test_gamma_sweep_eigendecompositions_do_not_grow_with_the_grid(kind, paths, calls):
    # The KL limit reads gamma-free spectra, so nothing grows with the grid.  An
    # interior order pays, per grid point, Cholesky factors of C_nu + gamma I,
    # C_mu + gamma I and the shifted blend, the blend's condition estimate and one
    # triangular solve.
    counts = []
    for points in ("3", "8"):
        calls.clear()
        argv = ["sweep-gamma", "--kind", *kind, "--from", "1e-1", "--to", "1e-8",
                "--points", points, "--nu", paths["nu"], "--mu", paths["mu"], "--out", paths["out"]]
        assert main(argv) == 0
        counts.append(dict(calls))
    growth = {name: counts[1][name] - counts[0].get(name, 0) for name in counts[1]}
    per_point = {} if kind == ["kl"] else {"cho_factor": 3, "dpocon": 1, "dtrtrs": 1}
    assert {name: n for name, n in growth.items() if n} == {
        name: 5 * n for name, n in per_point.items()
    }
    assert "solve" not in counts[0]


def test_building_a_positive_definite_measure_takes_one_cholesky_factor(calls):
    # Validation is a Cholesky factor of cov and its condition estimate; the
    # eigenvalues wait until a divergence reads them.
    cov = gd.gen_measure(gd.SpectrumFamily.power_law(DIM, 2.0), 3).cov
    calls.clear()
    measure = gd.GaussianMeasure(np.zeros(DIM), cov)
    assert dict(calls) == {"cho_factor": 1, "dpocon": 1}
    calls.clear()
    measure.eigenvalues
    measure.eigenvalues
    assert dict(calls) == {"eigvalsh": 1}


def test_a_measure_is_judged_once(calls):
    # The verdicts of a measure's one condition estimate serve a model over it
    # as prior and a pair over it as base, which only factors.
    nu = gd.gen_measure(gd.SpectrumFamily.power_law(DIM, 2.1), 3)
    prior = gd.gen_measure(gd.SpectrumFamily.power_law(DIM, 2.0), 3)
    obs_dim = 10  # below dimension 32 the noise is judged by eigvalsh
    calls.clear()
    gd.LinearGaussianModel(np.ones((obs_dim, DIM)), np.eye(obs_dim), prior, np.zeros(obs_dim))
    assert dict(calls) == {"eigvalsh": 1}
    pair = gd.GaussianPair(nu, prior)
    calls.clear()
    pair.base_factor
    assert dict(calls) == {"cho_factor": 1}
    # At condition 1.3e8 the estimate leaves the warning open; eigvalsh settles
    # it when a pair first reads it, not when the measure is built.
    cov = gd.gen_measure(gd.SpectrumFamily.power_law(800, 2.8), 3).cov
    calls.clear()
    measure = gd.GaussianMeasure(np.zeros(800), cov)
    assert dict(calls) == {"cho_factor": 1, "dpocon": 1}
    calls.clear()
    gd.GaussianPair(measure, measure).base_factor
    assert dict(calls) == {"cho_factor": 1, "eigvalsh": 1}


def test_operator_calculus_factors_each_block_once(calls):
    # The positivity test of the inverse reads the eigenvalues of the eigh that
    # builds it, and the Carleman determinant needs eigenvalues only.
    rng = np.random.default_rng(5)
    half = rng.standard_normal((DIM, DIM))
    block = half @ half.T / DIM
    calls.clear()
    gd.shifted_inv(gd.ShiftedOperator(gd.TraceClassBlock(block), 0.5))
    assert dict(calls) == {"eigh": 1}
    calls.clear()
    gd.carleman_logdet2(gd.TraceClassBlock(block))
    assert dict(calls) == {"eigvalsh": 1}


@pytest.mark.parametrize("alpha, want", [
    (0.3, {"cho_factor": 3}),
    (1.0, {"cho_factor": 2, "cho_solve": 1}),
    (-1.0, {"cho_factor": 2, "cho_solve": 1}),
], ids=["interior", "limit +1", "limit -1"])
def test_alpha_logdet_factors_each_operator_once(alpha, want, calls):
    rng = np.random.default_rng(6)
    x, y = (gd.ShiftedOperator(gd.TraceClassBlock(h @ h.T / DIM), 0.5)
            for h in rng.standard_normal((2, DIM, DIM)))
    calls.clear()
    gd.alpha_logdet(alpha, x, y)
    assert dict(calls) == want


def test_symmetric_fredholm_logdet_is_one_cholesky_factor(calls):
    rng = np.random.default_rng(7)
    half = rng.standard_normal((DIM, DIM))
    calls.clear()
    gd.ext_fredholm_logdet(gd.ShiftedOperator(gd.TraceClassBlock(half @ half.T / DIM), 0.5))
    assert dict(calls) == {"cho_factor": 1}
