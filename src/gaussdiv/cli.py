"""Command-line interface.

Subcommands::

    div          one divergence value between two measure files
    sweep-gamma  regularized-vs-exact table along a decreasing gamma grid
    sweep-r      Renyi order sweep (gamma = 0 selects the exact path)
    bayes        closed-form and whitened-spectrum KL(posterior || prior)
    rn-check     sampler gate plus Radon-Nikodym Monte-Carlo checks
    gen          write a seeded synthetic measure as JSON

Exit codes: 0 success, 1 a statistical check failed, 2 validation error,
3 the pair is mutually singular (the exact divergence is infinite).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys

import numpy as np
import orjson

from .bayes import LinearGaussianModel, kl_posterior_prior, posterior
from .errors import GaussDivError, SingularPair
from .gaussian import (
    DIVERGENCE_KINDS,
    GaussianMeasure,
    equivalence_data,
    exact_divergence,
    regularized_divergence,
)
from .lab import (
    SpectrumFamily,
    _mean_stderr,
    _sampled_log_rn,
    default_rn_pair,
    gen_measure,
    sampler_gate,
    split_seed,
    sweep_gamma,
    sweep_r,
    write_sweep_csv,
)
from .operators import _one_blas_thread


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _load_json(path: str) -> dict:
    """Decode a measure or model file as strict RFC 8259 JSON: ``NaN``, ``Infinity`` and
    numbers that overflow a double are errors.  ``orjson`` rounds every number to the same
    double as ``json`` does, in about a quarter of the time on a dim-800 measure."""
    with open(path, "rb") as handle:
        return orjson.loads(handle.read())


def _load(path: str, from_dict):
    """``from_dict`` of the record in the JSON file at ``path``; a file that is not strict
    JSON or not such a record raises ``ValueError`` naming the file.

    The cyclic garbage collector is paused meanwhile and then left as it was found: a
    decoded tree has no reference cycles, and each of its row lists would otherwise count
    towards a collection that walks them all (54 per dense-800 study, 72 ms)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return from_dict(_load_json(path))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    finally:
        if enabled:
            gc.enable()


def _load_measure(path: str) -> GaussianMeasure:
    return _load(path, GaussianMeasure.from_dict)


def _measure_pair(args) -> tuple[GaussianMeasure, GaussianMeasure]:
    return _load_measure(args.nu), _load_measure(args.mu)


def _cmd_div(args) -> int:
    nu, mu = _measure_pair(args)
    if args.gamma is not None:
        value = regularized_divergence(nu, mu, args.kind, args.gamma, args.r)
    else:
        value = exact_divergence(nu, mu, args.kind, args.r)
    print(_fmt(value))
    return 0


def _cmd_sweep_gamma(args) -> int:
    nu, mu = _measure_pair(args)
    grid = np.geomspace(args.grid_from, args.grid_to, args.points)
    records = sweep_gamma(nu, mu, args.kind, grid, args.r)
    write_sweep_csv(records, args.out)
    return 0


def _cmd_sweep_r(args) -> int:
    nu, mu = _measure_pair(args)
    grid = np.linspace(args.grid_from, args.grid_to, args.points)
    records = sweep_r(nu, mu, args.gamma, grid)
    write_sweep_csv(records, args.out)
    return 0


def _cmd_bayes(args) -> int:
    model = _load(args.model, LinearGaussianModel.from_dict)
    closed = kl_posterior_prior(model)
    whitened = exact_divergence(posterior(model), model.prior, "kl")
    print(f"kl_closed_form={_fmt(closed)}")
    print(f"kl_whitened={_fmt(whitened)}")
    return 0


# The whole command runs on one numpy BLAS thread, not only its row-block pass: a
# product on OpenBLAS's pool while the measures and the pair are built leaves a pool
# thread spinning on a CPU for about 0.1 s, through the pass.  Unpinned, at dim 200 and
# n = 20000 on 2 CPUs, that took 239 ms against 184 (226 before row blocks ran on one).
@_one_blas_thread()
def _cmd_rn_check(args) -> int:
    if (args.nu is None) != (args.mu is None):
        raise ValueError("provide both --nu and --mu, or neither")
    if args.nu is not None:
        nu, mu = _measure_pair(args)
    else:
        nu, mu = default_rn_pair(args.seed)
    # The exact KL comes first: a singular pair or a degenerate base ends the
    # command before any sampling.
    pair = equivalence_data(nu, mu)
    exact = exact_divergence(nu, mu, "kl", data=pair)
    gate_ok = sampler_gate(args.n, split_seed(args.seed, 1))
    print(f"moment_gate={'pass' if gate_ok else 'fail'}")
    # One draw of normals serves both checks: each is whitened for nu and for mu.
    log_nu, log_mu = _sampled_log_rn((nu, mu), nu, mu, args.n, args.seed, pair)
    estimate, stderr = _mean_stderr(log_nu)
    kl_ok = abs(estimate - exact) <= 4.0 * stderr
    norm, norm_stderr = _mean_stderr(np.exp(log_mu, out=log_mu))
    norm_ok = abs(norm - 1.0) <= 4.0 * norm_stderr
    print(f"kl_exact={_fmt(exact)}")
    print(f"kl_mc={_fmt(estimate)}")
    print(f"kl_mc_stderr={_fmt(stderr)}")
    print(f"kl_mc_ok={'true' if kl_ok else 'false'}")
    print(f"rn_norm_mc={_fmt(norm)}")
    print(f"rn_norm_stderr={_fmt(norm_stderr)}")
    print(f"rn_norm_ok={'true' if norm_ok else 'false'}")
    return 0 if (gate_ok and kl_ok and norm_ok) else 1


def _cmd_gen(args) -> int:
    if args.family == "explicit":
        if not args.values:
            raise ValueError("explicit family needs --values v1,v2,...")
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
        if args.dim is not None and args.dim != len(values):
            raise ValueError("--dim contradicts the number of --values entries")
        family = SpectrumFamily.explicit(values)
    else:
        if args.dim is None:
            raise ValueError(f"--dim is required for the {args.family} family")
        if args.family == "powerlaw":
            family = SpectrumFamily.power_law(args.dim, args.s)
        else:
            family = SpectrumFamily.exponential(args.dim, args.rate)
    measure = gen_measure(family, args.seed, args.mean_scale)
    with open(args.out, "w", newline="") as handle:
        json.dump(measure.to_dict(), handle, indent=2)
        handle.write("\n")
    return 0


def _add_pair_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--nu", required=True, help="JSON file of the first measure")
    sub.add_argument("--mu", required=True, help="JSON file of the second (base) measure")


def _add_grid_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--from", dest="grid_from", type=float, required=True)
    sub.add_argument("--to", dest="grid_to", type=float, required=True)
    sub.add_argument("--points", type=int, required=True)
    sub.add_argument("--out", required=True, help="CSV output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gaussdiv", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    div = subs.add_parser("div", help="one divergence value between two measures")
    div.add_argument("--kind", choices=DIVERGENCE_KINDS, required=True)
    div.add_argument("--r", type=float, default=None, help="Renyi order, kind=renyi only")
    mode = div.add_mutually_exclusive_group()
    mode.add_argument("--gamma", type=float, default=None, help="regularization shift")
    mode.add_argument("--exact", action="store_true", help="exact divergence (default)")
    _add_pair_args(div)
    div.set_defaults(handler=_cmd_div)

    sg = subs.add_parser("sweep-gamma", help="regularized-vs-exact table over gamma")
    sg.add_argument("--kind", choices=DIVERGENCE_KINDS, required=True)
    sg.add_argument("--r", type=float, default=None)
    _add_pair_args(sg)
    _add_grid_args(sg)
    sg.set_defaults(handler=_cmd_sweep_gamma)

    sr = subs.add_parser("sweep-r", help="Renyi order sweep")
    sr.add_argument("--gamma", type=float, default=0.0, help="0 selects the exact path")
    _add_pair_args(sr)
    _add_grid_args(sr)
    sr.set_defaults(handler=_cmd_sweep_r)

    bay = subs.add_parser("bayes", help="KL(posterior || prior) two ways")
    bay.add_argument("--model", required=True, help="JSON model file")
    bay.set_defaults(handler=_cmd_bayes)

    rn = subs.add_parser("rn-check", help="sampler gate and RN Monte-Carlo checks")
    rn.add_argument("--n", type=int, required=True)
    rn.add_argument("--seed", type=int, required=True)
    rn.add_argument("--nu", default=None, help="optional measure file (default: built-in pair)")
    rn.add_argument("--mu", default=None, help="optional measure file (default: built-in pair)")
    rn.set_defaults(handler=_cmd_rn_check)

    gen = subs.add_parser("gen", help="write a seeded synthetic measure")
    gen.add_argument("--family", choices=("powerlaw", "exp", "explicit"), required=True)
    gen.add_argument("--dim", type=int, default=None)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--s", type=float, default=2.0, help="power-law exponent (s > 1)")
    gen.add_argument("--rate", type=float, default=1.0, help="exponential decay rate")
    gen.add_argument("--values", default=None, help="comma-separated explicit eigenvalues")
    gen.add_argument("--mean-scale", dest="mean_scale", type=float, default=0.0)
    gen.set_defaults(handler=_cmd_gen)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reads its arguments with, built on the first call and kept:
    building the six subparsers takes longer than a dim-20 divergence, and parsing does
    not change the parser."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except SingularPair:
        # The modeled infinity of the equivalent-or-singular dichotomy.
        print("inf")
        return 3
    except (GaussDivError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
