"""Factorization counts of the CLI subcommands.

Counts are deterministic where wall-clock time is not, so they pin the work
each subcommand does: a change that adds or drops an eigendecomposition, a
dense solve or a Cholesky factorization shows up here.
"""

import json
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

import gaussdiv as gd
from gaussdiv.cli import main

COUNTED = (
    (np.linalg, ("eigh", "eigvalsh", "solve")),
    (scipy.linalg, ("cho_factor", "cho_solve")),
)

DIM = 60

CASES = {
    "div kl": (
        ["div", "--kind", "kl", "--nu", "{nu}", "--mu", "{mu}"],
        {"eigh": 2, "eigvalsh": 2},
    ),
    "div renyi regularized": (
        ["div", "--kind", "renyi", "--r", "0.3", "--gamma", "1e-4", "--nu", "{nu}", "--mu", "{mu}"],
        {"eigvalsh": 5, "solve": 1},
    ),
    "sweep-gamma kl": (
        ["sweep-gamma", "--kind", "kl", "--from", "1e-1", "--to", "1e-8", "--points", "8",
         "--nu", "{nu}", "--mu", "{mu}", "--out", "{out}"],
        {"eigh": 2, "eigvalsh": 18, "solve": 16},
    ),
    "sweep-r regularized": (
        ["sweep-r", "--gamma", "1e-6", "--from", "0.1", "--to", "0.9", "--points", "5",
         "--nu", "{nu}", "--mu", "{mu}", "--out", "{out}"],
        {"eigh": 2, "eigvalsh": 17, "solve": 5},
    ),
    "bayes": (
        ["bayes", "--model", "{model}"],
        {"cho_factor": 3, "cho_solve": 6, "eigh": 2, "eigvalsh": 5},
    ),
    "rn-check": (
        ["rn-check", "--n", "2000", "--seed", "7", "--nu", "{nu}", "--mu", "{mu}"],
        {"eigh": 11, "eigvalsh": 5},
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
