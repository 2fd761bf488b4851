"""Inputs, operation schedules and output checks of the benchmark's workloads.

Every input comes from the workload seed through ``split_seed``.  The pairs of
a pool share one base ``mu``, a power-law (s = 1.5, trace-class) measure from
``gen_measure``; each ``nu`` is ``mu`` whitened-perturbed by an ``S`` with Hilbert-Schmidt spectrum
``a_k = 0.5 (-1)^k / k`` in a seeded frame, with mean shift ``C^{1/2} (c / k)``
inside the Cameron-Martin space, so each pair is equivalent in the
Feldman-Hajek sense.  A singular pair sets ``a_1 = 1``, which gives the
``nu`` covariance a null direction.

Each call's output is checked against a reference computed here with dense
``slogdet``/``solve`` closed forms, never through the package's whitened
spectral path, at the relative tolerance of acceptance criterion 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gaussdiv as gd
from gaussdiv import lab

RTOL = 1e-8
SWEEP_HEADER = "param,regularized,exact,abs_err,rel_err"
SPECTRUM_S = 1.5
MEAN_C = 0.5
KNOWN_SWEEP_R_DEFECT = (
    "sweep-r with gamma > 0 on a mutually singular pair writes exact=inf, rel_err=nan"
)


@dataclass
class Call:
    """One CLI invocation and the check of its exit code and stdout (and CSV, if any)."""

    argv: list
    check: Callable[[int, str], "str | None"]
    bytes_in: int = 0
    out: "Path | None" = None


@dataclass
class Workload:
    cycle_len: int  # the schedule repeats after this many operations
    op: Callable[[int], list]  # operation index -> the calls that make up the operation
    coverage: list  # one operation per subcommand on a dim-5 pair
    # (description, call) of known program defects; run once per run, outside the operations
    probes: list = field(default_factory=list)


@dataclass
class Pair:
    nu: gd.GaussianMeasure
    mu: gd.GaussianMeasure
    args: list
    bytes_in: int
    singular: bool
    logdets: dict = field(default_factory=dict)  # shift -> reference slogdets of nu, mu


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _frame(seed: int, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(lab.standard_normal(seed, lab.STREAM_ORTHO, (dim, dim)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def make_pool(dim: int, seed: int, count: int, singular=()) -> list:
    """``count`` pairs ``(nu_j, mu)`` on one shared base ``mu``.

    Pair ``j`` is mutually singular when ``j`` is in ``singular``.
    """
    mu = lab.gen_measure(lab.SpectrumFamily.power_law(dim, SPECTRUM_S), lab.split_seed(seed, 0))
    root = gd.psd_sqrt(mu.cov).entries
    k = np.arange(1, dim + 1, dtype=float)
    shift = root @ (MEAN_C / k)
    pairs = []
    for j in range(count):
        a = 0.5 * (-1.0) ** k / k
        if j in singular:
            a[0] = 1.0
        frame = _frame(lab.split_seed(seed, 1 + j), dim)
        cov = root @ (np.eye(dim) - (frame * a) @ frame.T) @ root
        pairs.append((gd.GaussianMeasure(mu.mean + shift, 0.5 * (cov + cov.T)), mu))
    return pairs


def make_model(prior: gd.GaussianMeasure, obs_dim: int, seed: int) -> gd.LinearGaussianModel:
    forward = lab.standard_normal(lab.split_seed(seed, 0), lab.STREAM_SAMPLE, (obs_dim, prior.dim))
    noise = np.diag(np.linspace(0.05, 0.2, obs_dim))
    noise_draw = lab.standard_normal(lab.split_seed(seed, 1), lab.STREAM_SAMPLE, obs_dim)
    observation = forward @ prior.mean + np.sqrt(np.diag(noise)) * noise_draw
    return gd.LinearGaussianModel(forward, noise, prior, observation)


def _dump(path: Path, data: dict) -> int:
    text = json.dumps(data)
    path.write_text(text)
    return len(text)


def write_pool(root: Path, dim: int, seed: int, count: int, singular=()) -> list:
    measures = make_pool(dim, seed, count, singular)
    mu_path = root / "mu.json"
    mu_size = _dump(mu_path, measures[0][1].to_dict())
    pool = []
    for j, (nu, mu) in enumerate(measures):
        nu_path = root / f"nu{j}.json"
        size = mu_size + _dump(nu_path, nu.to_dict())
        pool.append(Pair(nu, mu, ["--nu", str(nu_path), "--mu", str(mu_path)], size, j in singular))
    return pool


# ---------------------------------------------------------------------------
# References: textbook dense closed forms
# ---------------------------------------------------------------------------


def _logdet(m: np.ndarray) -> float:
    sign, value = np.linalg.slogdet(m)
    if sign <= 0:
        raise ValueError("reference covariance is not positive definite")
    return float(value)


def _shifted(pair: Pair, gamma: float):
    """Mean difference, both shifted covariances and their log-determinants (cached per shift)."""
    eye = gamma * np.eye(pair.mu.dim)
    c1, c2 = pair.nu.cov.entries + eye, pair.mu.cov.entries + eye
    if gamma not in pair.logdets:
        pair.logdets[gamma] = (_logdet(c1), _logdet(c2))
    return (pair.nu.mean - pair.mu.mean, c1, c2, *pair.logdets[gamma])


def kl_ref(pair: Pair, gamma: float = 0.0) -> float:
    dm, c1, c2, ld1, ld2 = _shifted(pair, gamma)
    trace = float(np.trace(np.linalg.solve(c2, c1)))
    quad = float(dm @ np.linalg.solve(c2, dm))
    return 0.5 * (trace - len(dm) + quad + ld2 - ld1)


def renyi_ref(pair: Pair, r: float, gamma: float = 0.0) -> float:
    dm, c1, c2, ld1, ld2 = _shifted(pair, gamma)
    blend = (1.0 - r) * c1 + r * c2
    quad = 0.5 * float(dm @ np.linalg.solve(blend, dm))
    logdets = _logdet(blend) - (1.0 - r) * ld1 - r * ld2
    return quad + logdets / (2.0 * r * (1.0 - r))


def divergence_ref(pair: Pair, kind: str, r, gamma: float) -> float:
    """Reference value of ``gaussdiv div``; +inf for the exact divergence of a singular pair."""
    if gamma == 0.0 and pair.singular:
        return math.inf
    if kind == "kl":
        return kl_ref(pair, gamma)
    if kind == "renyi":
        return renyi_ref(pair, r, gamma)
    bhatt = 0.25 * renyi_ref(pair, 0.5, gamma)
    if kind == "bhatt":
        return bhatt
    return math.sqrt(2.0 * (1.0 - math.exp(-bhatt)))


# ---------------------------------------------------------------------------
# Checks: each returns None on success, else the reason the call failed
# ---------------------------------------------------------------------------


def _mismatch(got: float, want: float, what: str):
    if not math.isfinite(got):
        return f"{what}: non-finite {got!r}"
    err = abs(got - want) / abs(want) if want else abs(got)
    return None if err <= RTOL else f"{what}: {got!r} vs reference {want!r} (rel err {err:.1e})"


def _key_values(out: str) -> dict:
    return dict(line.split("=", 1) for line in out.split())


def expect_number(want: float):
    def check(code, out):
        text = out.strip()
        if math.isinf(want):
            if (code, text) == (3, "inf"):
                return None
            return f"expected exit 3 and inf, got exit {code} and {text[:40]!r}"
        if code != 0:
            return f"exit {code}"
        try:
            got = float(text)
        except ValueError:
            return f"unparsable value {text[:40]!r}"
        return _mismatch(got, want, "value")

    return check


def expect_sweep(path: Path, params, regularized, exact, singular: bool):
    """Header, one finite row per grid point, and both value columns at reference."""

    def check(code, out):
        if singular and (code, out.strip()) == (3, "inf"):
            return None
        if code != 0:
            return f"exit {code}"
        try:
            lines = path.read_text().split("\n")
        except OSError:
            return "no CSV written"
        if lines[0] != SWEEP_HEADER:
            return f"bad CSV header {lines[0][:60]!r}"
        if lines[-1] != "":
            return "CSV does not end with a newline"
        rows = lines[1:-1]
        if len(rows) != len(params):
            return f"{len(rows)} CSV rows, expected {len(params)}"
        for row, param, reg, ex in zip(rows, params, regularized, exact):
            try:
                cells = [float(cell) for cell in row.split(",")]
            except ValueError:
                return f"malformed CSV row {row[:80]!r}"
            if len(cells) != 5:
                return f"malformed CSV row {row[:80]!r}"
            if not all(math.isfinite(cell) for cell in cells):
                return f"non-finite CSV cell in row {row[:80]!r}"
            for got, want, what in ((cells[0], param, "param"), (cells[1], reg, "regularized"),
                                    (cells[2], ex, "exact")):
                reason = None if math.isinf(want) else _mismatch(got, want, what)
                if reason:
                    return reason
        return None

    return check


def expect_bayes(code, out):
    if code != 0:
        return f"exit {code}"
    try:
        values = _key_values(out)
        closed, whitened = float(values["kl_closed_form"]), float(values["kl_whitened"])
    except (KeyError, ValueError):
        return f"malformed bayes output {out[:80]!r}"
    return _mismatch(closed, whitened, "kl_closed_form vs kl_whitened")


def expect_rn(kl: float):
    def check(code, out):
        if code != 0:
            return f"exit {code}: {' '.join(out.split())[:160]}"
        try:
            got = float(_key_values(out)["kl_exact"])
        except (KeyError, ValueError):
            return f"malformed rn-check output {out[:80]!r}"
        return _mismatch(got, kl, "kl_exact")

    return check


# ---------------------------------------------------------------------------
# Calls
# ---------------------------------------------------------------------------


def div_call(pair: Pair, kind: str, r=None, gamma=None) -> Call:
    argv = ["div", "--kind", kind]
    if r is not None:
        argv += ["--r", repr(r)]
    if gamma is not None:
        argv += ["--gamma", repr(gamma)]
    want = divergence_ref(pair, kind, r, gamma or 0.0)
    return Call(argv + pair.args, expect_number(want), pair.bytes_in)


def sweep_gamma_call(pair: Pair, kind: str, start: float, stop: float, points: int,
                     out: Path) -> Call:
    grid = np.geomspace(start, stop, points)
    regularized = [divergence_ref(pair, kind, None, float(g)) for g in grid]
    exact = [divergence_ref(pair, kind, None, 0.0)] * points
    argv = ["sweep-gamma", "--kind", kind, "--from", repr(start), "--to", repr(stop),
            "--points", str(points), "--out", str(out)] + pair.args
    return Call(argv, expect_sweep(out, grid, regularized, exact, pair.singular),
                pair.bytes_in, out)


def sweep_r_call(pair: Pair, gamma: float, start: float, stop: float, points: int,
                 out: Path) -> Call:
    grid = np.sort(np.linspace(start, stop, points))
    regularized = [divergence_ref(pair, "renyi", float(r), gamma) for r in grid]
    exact = [divergence_ref(pair, "renyi", float(r), 0.0) for r in grid]
    argv = ["sweep-r", "--gamma", repr(gamma), "--from", repr(start), "--to", repr(stop),
            "--points", str(points), "--out", str(out)] + pair.args
    return Call(argv, expect_sweep(out, grid, regularized, exact, pair.singular),
                pair.bytes_in, out)


def bayes_call(root: Path, name: str, prior: gd.GaussianMeasure, obs_dim: int,
               seed: int) -> Call:
    path = root / f"{name}.json"
    size = _dump(path, make_model(prior, obs_dim, seed).to_dict())
    return Call(["bayes", "--model", str(path)], expect_bayes, size)


def rn_call(pair: Pair, n: int, seed: int, kl: float) -> Call:
    argv = ["rn-check", "--n", str(n), "--seed", str(seed)] + pair.args
    return Call(argv, expect_rn(kl), pair.bytes_in)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

DENSE_PAIRS = 2
MC_PAIRS = 4
SMALL_PAIRS = 16
SMALL_MODELS = 4
SMALL_SINGULAR_EVERY = 8  # pairs 7 and 15 are mutually singular


def _coverage(seed: int, root: Path) -> list:
    """One operation per subcommand at dim 5, so every layer runs on every workload."""
    root = root / "coverage"
    root.mkdir(exist_ok=True)
    (pair,) = write_pool(root, 5, lab.split_seed(seed, 1), 1)
    out = root / "sweep.csv"
    return [
        [div_call(pair, "kl")],
        [div_call(pair, "renyi", r=0.5, gamma=1e-4)],
        [sweep_gamma_call(pair, "kl", 1e-1, 1e-3, 2, out)],
        [sweep_r_call(pair, 1e-6, 0.25, 0.75, 2, out)],
        [bayes_call(root, "model", pair.mu, 2, lab.split_seed(seed, 2))],
        [rn_call(pair, 2000, lab.split_seed(seed, 3), kl_ref(pair))],
    ]


def _dense_800(seed: int, root: Path) -> tuple[int, Callable, list]:
    pairs = write_pool(root, 800, lab.split_seed(seed, 10), DENSE_PAIRS)
    bayes = bayes_call(root, "model", pairs[0].mu, 50, lab.split_seed(seed, 20))
    out = root / "sweep.csv"
    studies = [
        [
            div_call(pair, "kl"),
            div_call(pair, "renyi", r=0.5, gamma=1e-4),
            sweep_gamma_call(pair, "kl", 1e-1, 1e-8, 8, out),
            sweep_r_call(pair, 1e-6, 0.1, 0.9, 5, out),
            bayes,
        ]
        for pair in pairs
    ]
    return len(studies), lambda i: studies[i % len(studies)], []


def _montecarlo_200(seed: int, root: Path) -> tuple[int, Callable, list]:
    pairs = write_pool(root, 200, lab.split_seed(seed, 10), MC_PAIRS)
    kls = [kl_ref(pair) for pair in pairs]

    def op(i):
        j = i % MC_PAIRS
        return [rn_call(pairs[j], 20000, lab.split_seed(seed, 1000 + i), kls[j])]

    return MC_PAIRS, op, []


def _small_20(seed: int, root: Path) -> tuple[int, Callable, list]:
    singular = range(SMALL_SINGULAR_EVERY - 1, SMALL_PAIRS, SMALL_SINGULAR_EVERY)
    pairs = write_pool(root, 20, lab.split_seed(seed, 10), SMALL_PAIRS, singular)
    models = [bayes_call(root, f"m{j}", pairs[j].mu, 5, lab.split_seed(seed, 40 + j))
              for j in range(SMALL_MODELS)]
    out = root / "sweep.csv"
    ops = []
    for j, pair in enumerate(pairs):
        for kind, r in (("kl", None), ("renyi", 0.3), ("bhatt", None), ("hellinger", None)):
            ops.append([div_call(pair, kind, r=r)])
            ops.append([div_call(pair, kind, r=r, gamma=1e-6)])
        ops.append([sweep_gamma_call(pair, "kl", 1e-2, 1e-6, 3, out)])
        # An exact sweep on a singular pair takes the SingularPair path (inf, exit 3); a
        # regularized one would hit the known defect, which the probe below reports instead.
        ops.append([sweep_r_call(pair, 0.0 if pair.singular else 1e-6, 0.25, 0.75, 3, out)])
        ops.append([models[j % SMALL_MODELS]])
    probe = sweep_r_call(pairs[SMALL_SINGULAR_EVERY - 1], 1e-6, 0.25, 0.75, 3,
                         root / "probe.csv")
    return len(ops), lambda i: ops[i % len(ops)], [(KNOWN_SWEEP_R_DEFECT, probe)]


BUILDERS = {
    "dense-800": _dense_800,
    "montecarlo-200": _montecarlo_200,
    "small-20": _small_20,
}


def build(name: str, seed: int, root: Path) -> Workload:
    """Write the workload's input files under ``root`` and compute every reference."""
    root.mkdir(parents=True, exist_ok=True)
    cycle_len, op, probes = BUILDERS[name](seed, root)
    return Workload(cycle_len, op, _coverage(seed, root), probes)
