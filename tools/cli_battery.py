"""Run a fixed battery of gaussdiv CLI calls and print everything they produce.

Usage::

    python tools/cli_battery.py --src path/to/checkout/src > battery.txt

The battery imports ``gaussdiv`` from ``--src`` and calls ``gaussdiv.cli.main``
in-process.  For every call it prints the arguments, the exit code, stdout,
stderr, the warnings raised (category and message, without the source
location, which moves with the code) and the bytes of every file the call
wrote.  A ``SystemExit`` from ``main`` (argparse's help and usage errors) prints
its code as ``exit=SystemExit(<code>)``; help is formatted for ``COLUMNS=80``.
Any other exception that escapes ``main`` is printed in place of the exit
code, the remaining calls still run, and the battery exits 1.  Two commits
agree on the whole CLI contract when the outputs of their batteries are
byte-identical (``cmp``).

The calls: ``gen`` for every measure; it rejects ``zero`` (a zero
eigenvalue), ``nan_value`` and ``inf_value`` (a value of ``nan`` or ``inf``),
``dim0``, ``s1`` (``--s 1``), ``rate0`` and ``dim_contradicts`` (``--values
1,2 --dim 3``).  Then ``div`` for every kind (Renyi at orders 1e-13, 0.3, 0.9 and
1 - 1e-13), exact and at gamma 1e-2, 1e-6, 1e-10, 1e-14, the subnormals
1e-320 and 5e-324, 0 and nan; ``sweep-gamma`` for every kind; ``sweep-r``
exact and at gamma 1e-3, 1e-8, 1e-14 and 1e-320.  They run over random pairs
of dims 3 to 40 in both directions and over ``p72/e72``, wider than the
64-column blocks in which LAPACK's ``dsygst`` whitens.  Then come a mutually
singular pair, a pair with a degenerate base (``flat``: an eigenvalue of
1e-13, below the clip threshold, so its exact values report ``Degenerate``
and its regularized ones stay finite), an ill-conditioned pair whose
regularized values warn ``IllConditioned`` and a dim-4 pair whose means lie
about 1e160 apart, so every divergence but the Hellinger distance overflows a
double (``far/near``), a dim-2 pair with means at +-1e308, whose mean
difference itself overflows (``top/bottom``, written as files, not by
``gen``; its Hellinger distance is ``sqrt(2)`` too), and a pair of dims 3 and
8 (``p3/e8``), on which every call exits 2.  From
dimension 32 on a verdict comes from a Cholesky factor and its condition
estimate, so four dim-40 measures run against ``p40`` and ``e40`` in both
directions.  The estimate settles the ``Degenerate`` base of
two: ``deg40`` (eigenvalues from 1 to 1e-3, then 1e-14) and ``ill40``
(spread from 1 to 1e-14, condition 1e14).  It leaves two to ``eigvalsh``:
``clip40`` (smallest eigenvalue 2e-12, near the clip) and ``warn40``
(condition 1.2e12, near the warning).  ``rn-check --n 2000`` runs on the
built-in pair at seeds 7 and 42, on the pairs ``p3/e3``, ``p8/e8``,
``p40/e40`` and ``p72/e72`` (the last two fail their normalization check, exit 1), on the
singular, the degenerate, the far and the ``top/bottom`` pair, and with
``--nu`` alone.  The parser: ``--help``, ``div --help`` and two usage errors
(an unknown ``--kind``; ``--gamma`` with ``--exact``), each followed by a valid
``div`` call, so that nothing of one parse carries into the next; the last two
calls give ``p3/e8`` an order with ``--kind kl``: exact, ``div`` reports the
order, at gamma 1e-3 the dims.  ``div``
reads measure files that are not strict JSON (``NaN``, ``Infinity``, ``1e400``,
a 400-digit integer, a trailing comma, an empty file) or not a measure (a
``mean`` object, a ``dim`` of null or a list, a top-level list, no ``cov``).  ``bayes``
runs on two small model files that the battery writes, on one whose noise
covariance is not positive definite, on a JSON string and on a model whose
``forward`` is an object.  Last, ``div`` for every kind, exact and at every
gamma above, runs on pairs of written measures whose covariance entries lie
near 1e308 (``huge3``, ``huge3b``, ``huge40``, ``huge40b``: diagonals whose
doubles overflow, two of them asymmetric within tolerance) and on ``huge3/p3``
and ``e40/huge40``; their covariances must stay finite, and the calls print no
``nan`` and raise no numpy warning.  The last two calls ``gen`` a measure of
eigenvalues ``1.5e308,1,1`` (``huge_gen``), whose covariance product must not
overflow either, and take its exact KL against ``p3``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import warnings

KINDS = (("kl", None), ("bhatt", None), ("hellinger", None),
         ("renyi", "1e-13"), ("renyi", "0.3"), ("renyi", "0.9"), ("renyi", "0.9999999999999"))
DIV_GAMMAS = (None, "1e-2", "1e-6", "1e-10", "1e-14", "1e-320", "5e-324", "0", "nan")
SWEEP_R_GAMMAS = ("0", "1e-3", "1e-8", "1e-14", "1e-320")
R_GRIDS = (("0.05", "0.95", "5"), ("1e-13", "0.9999999999999", "3"))


def _explicit40(top: float, bottom: float, lowest: float) -> str:
    """``--values`` of a dim-40 measure: 39 eigenvalues spaced evenly in log from ``top`` down
    to ``bottom``, then ``lowest``."""
    return ",".join(f"{top * (bottom / top) ** (k / 38):.6g}" for k in range(39)) + f",{lowest:g}"


# name -> gen arguments (the output path is appended)
MEASURES = {
    **{f"p{dim}": ["--family", "powerlaw", "--dim", str(dim), "--seed", str(dim),
                   "--s", "1.5", "--mean-scale", "0.3"] for dim in (3, 8, 20, 40)},
    **{f"e{dim}": ["--family", "exp", "--dim", str(dim), "--seed", str(100 + dim),
                   "--rate", "0.4", "--mean-scale", "0.2"] for dim in (3, 8, 20, 40)},
    "p72": ["--family", "powerlaw", "--dim", "72", "--seed", "72", "--s", "1.5",
            "--mean-scale", "0.3"],
    # a slower decay than e40's, whose 72nd eigenvalue would fall below the clip threshold
    "e72": ["--family", "exp", "--dim", "72", "--seed", "172", "--rate", "0.3",
            "--mean-scale", "0.2"],
    "thin": ["--family", "explicit", "--values", "1,1,1e-16", "--seed", "5"],
    "unit": ["--family", "explicit", "--values", "1,1,1", "--seed", "6"],
    "flat": ["--family", "explicit", "--values", "1,1e-13,2", "--seed", "7"],
    "zero": ["--family", "explicit", "--values", "1,0,2", "--seed", "7"],
    "nan_value": ["--family", "explicit", "--values", "1,nan", "--seed", "7"],
    "inf_value": ["--family", "explicit", "--values", "1,inf", "--seed", "7"],
    "dim0": ["--family", "powerlaw", "--dim", "0", "--seed", "7"],
    "s1": ["--family", "powerlaw", "--dim", "3", "--seed", "7", "--s", "1"],
    "rate0": ["--family", "exp", "--dim", "3", "--seed", "7", "--rate", "0"],
    "dim_contradicts": ["--family", "explicit", "--values", "1,2", "--dim", "3", "--seed", "7"],
    "stiff": ["--family", "explicit", "--values", "1,1e-3,1e-9,1e-13", "--seed", "8",
              "--mean-scale", "0.1"],
    "soft": ["--family", "explicit", "--values", "2,1e-2,1e-8,1e-12", "--seed", "9",
             "--mean-scale", "0.1"],
    "far": ["--family", "powerlaw", "--dim", "4", "--seed", "4", "--s", "1.5",
            "--mean-scale", "1e160"],
    "near": ["--family", "exp", "--dim", "4", "--seed", "104", "--rate", "0.4"],
    **{name: ["--family", "explicit", "--values", _explicit40(*values), "--seed", str(seed)]
       for name, values, seed in (("deg40", (1.0, 1e-3, 1e-14), 41),
                                  ("ill40", (1.0, 1e-13, 1e-14), 42),
                                  ("clip40", (1.0, 1e-3, 2e-12), 43),
                                  ("warn40", (12.0, 1.2e-2, 1e-11), 44))},
}
PAIRS = [(f"p{d}", f"e{d}") for d in (3, 8, 20, 40)] + [(f"e{d}", f"p{d}") for d in (3, 8, 20, 40)]
PAIRS += [("thin", "unit"), ("unit", "flat"), ("stiff", "soft"), ("soft", "stiff"), ("far", "near"),
          ("top", "bottom"), ("p72", "e72"), ("p3", "e8")]
PAIRS += [pair for name in ("deg40", "ill40", "clip40", "warn40") for other in ("p40", "e40")
          for pair in ((name, other), (other, name))]
RN_PAIRS = [("p3", "e3"), ("p8", "e8"), ("p40", "e40"), ("p72", "e72"), ("thin", "unit"),
            ("unit", "flat"), ("far", "near"), ("top", "bottom")]


def _huge_cov(diagonal, off: float, skew: float) -> list:
    """A covariance with ``diagonal`` and ``off`` next to it, each entry below the diagonal
    times ``1 + skew``: an asymmetry within tolerance when ``skew`` is small."""
    dim = len(diagonal)
    return [[diagonal[i] if i == j else off * (1.0 + skew) ** (i > j) if abs(i - j) == 1 else 0.0
             for j in range(dim)] for i in range(dim)]


# name -> a measure written as a file, for pairs that ``gen`` cannot make: means at
# +-1e308, so that their difference overflows a double; and covariances with entries
# near 1e308 (dims 3 and 40), whose sum with their transpose overflows, two of them
# asymmetric within tolerance
WRITTEN_MEASURES = {
    "top": {"dim": 2, "mean": [1e308, -1e308], "cov": [[2.0, 0.5], [0.5, 1.0]]},
    "bottom": {"dim": 2, "mean": [-1e308, 1e308], "cov": [[1.0, 0.0], [0.0, 1.0]]},
    "huge3": {"dim": 3, "mean": [0.0] * 3,
              "cov": _huge_cov([1.6e308, 1.2e308, 9e307], 1e307, 1e-12)},
    "huge3b": {"dim": 3, "mean": [1.0, 0.0, -1.0],
               "cov": _huge_cov([1e308, 1.5e308, 1.3e308], 5e306, 0.0)},
    "huge40": {"dim": 40, "mean": [0.0] * 40,
               "cov": _huge_cov([1.7e308 * (0.6 ** (k / 39)) for k in range(40)], 1e306, 1e-12)},
    "huge40b": {"dim": 40, "mean": [0.5] * 40,
                "cov": _huge_cov([1e308 + 1.5e306 * k for k in range(40)], 2e306, 0.0)},
}
# pairs with a near-overflow covariance, run through ``div`` alone
HUGE_PAIRS = [("huge3", "huge3b"), ("huge3b", "huge3"), ("huge40", "huge40b"),
              ("huge40b", "huge40"), ("huge3", "p3"), ("e40", "huge40")]

# name -> text of a measure file that is not valid JSON or not a measure; each is
# read by ``div --kind kl --nu <name> --mu unit``
_UNIT = '"cov": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]'
BAD_MEASURES = {
    "mean_object": '{"dim": 3, "mean": {}, ' + _UNIT + '}',
    "dim_null": '{"dim": null, "mean": [0.0, 0.0, 0.0], ' + _UNIT + '}',
    "dim_list": '{"dim": [3], "mean": [0.0, 0.0, 0.0], ' + _UNIT + '}',
    "top_list": '[1, 2]',
    "big_int": '{"dim": 3, "mean": [1' + "0" * 400 + ', 0.0, 0.0], ' + _UNIT + '}',
    "nan": '{"dim": 3, "mean": [NaN, 0.0, 0.0], ' + _UNIT + '}',
    "infinity": '{"dim": 3, "mean": [Infinity, 0.0, 0.0], ' + _UNIT + '}',
    "overflow": '{"dim": 3, "mean": [1e400, 0.0, 0.0], ' + _UNIT + '}',
    "trailing_comma": '{"dim": 3, "mean": [0.0, 0.0, 0.0], ' + _UNIT + ',}',
    "empty": '',
    "missing_cov": '{"dim": 3, "mean": [0.0, 0.0, 0.0]}',
}

# name -> model JSON for ``bayes``
_PRIOR = {"dim": 3, "mean": [0.1, 0.0, -0.2],
          "cov": [[1.0, 0.2, 0.0], [0.2, 0.8, 0.1], [0.0, 0.1, 0.5]]}
_MODEL2 = {"forward": [[1.0, 0.0, 0.5], [0.0, 2.0, -1.0]],
           "noise_cov": [[0.05, 0.01], [0.01, 0.2]], "prior": _PRIOR, "observation": [0.3, -0.6]}
MODELS = {
    "model1": {"forward": [[1.0, 0.5, -0.25]], "noise_cov": [[0.1]], "prior": _PRIOR,
               "observation": [0.4]},
    "model2": _MODEL2,
    "noisy": {**_MODEL2, "noise_cov": [[0.05, 0.0], [0.0, -0.01]]},
    "string": "model",
    "forward_object": {**_MODEL2, "forward": {}},
}


def _calls(tmp: str):
    """Yield each call's arguments and the file it writes (None if it writes none)."""
    for name, args in MEASURES.items():
        path = os.path.join(tmp, f"{name}.json")
        yield ["gen", *args, "--out", path], path
    for name, measure in WRITTEN_MEASURES.items():
        with open(os.path.join(tmp, f"{name}.json"), "w") as handle:
            json.dump(measure, handle)
    out = os.path.join(tmp, "out.csv")
    for nu, mu in PAIRS:
        pair = _pair(tmp, nu, mu)
        for kind, r in KINDS:
            yield from _div_calls(pair, kind, r)
            order = [] if r is None else ["--r", r]
            grid = ["--from", "1e-1", "--to", "1e-13", "--points", "7", "--out", out]
            yield ["sweep-gamma", "--kind", kind, *order, *pair, *grid], out
        for gamma in SWEEP_R_GAMMAS:
            for lo, hi, points in R_GRIDS:
                grid = ["--from", lo, "--to", hi, "--points", points, "--out", out]
                yield ["sweep-r", "--gamma", gamma, *pair, *grid], out
    rn_check = ["rn-check", "--n", "2000", "--seed"]
    for seed in ("7", "42"):
        yield [*rn_check, seed], None
    for nu, mu in RN_PAIRS:
        yield [*rn_check, "7", *_pair(tmp, nu, mu)], None
    yield [*rn_check, "7", *_pair(tmp, "p3", "e3")[:2]], None
    for name, text in BAD_MEASURES.items():
        path = os.path.join(tmp, f"bad_{name}.json")
        with open(path, "w") as handle:
            handle.write(text)
        yield ["div", "--kind", "kl", "--nu", path, "--mu", os.path.join(tmp, "unit.json")], None
    for name, model in MODELS.items():
        path = os.path.join(tmp, f"{name}.json")
        with open(path, "w") as handle:
            json.dump(model, handle)
        yield ["bayes", "--model", path], None
    # Each help or usage error is followed by a valid call; the last omits --gamma and
    # --r, which the call before it set.
    p3, p8 = _pair(tmp, "p3", "e3"), _pair(tmp, "p8", "e8")
    yield ["--help"], None
    yield ["div", "--kind", "kl", *p3], None
    yield ["div", "--help"], None
    yield ["div", "--kind", "nope", *p3], None
    yield ["div", "--kind", "renyi", "--r", "0.3", "--gamma", "1e-3", *p3], None
    yield ["div", "--kind", "kl", "--gamma", "1e-3", "--exact", *p3], None
    yield ["div", "--kind", "renyi", "--r", "0.3", "--gamma", "1e-3", *p8], None
    yield ["div", "--kind", "kl", *p8], None
    # An order given to the kl kind: the exact dispatch reports it, the regularized one
    # first reports that the dims differ.
    mismatched = _pair(tmp, "p3", "e8")
    yield ["div", "--kind", "kl", "--r", "0.3", "--exact", *mismatched], None
    yield ["div", "--kind", "kl", "--r", "0.3", "--gamma", "1e-3", *mismatched], None
    for nu, mu in HUGE_PAIRS:
        for kind, r in KINDS:
            yield from _div_calls(_pair(tmp, nu, mu), kind, r)
    path = os.path.join(tmp, "huge_gen.json")
    yield ["gen", "--family", "explicit", "--values", "1.5e308,1,1", "--seed", "1", "--out", path], path
    yield ["div", "--kind", "kl", "--exact", *_pair(tmp, "huge_gen", "p3")], None


def _div_calls(pair: list[str], kind: str, r):
    """``div`` of ``pair`` at order ``r`` (None for none), exact and at each of DIV_GAMMAS."""
    order = [] if r is None else ["--r", r]
    for gamma in DIV_GAMMAS:
        mode = ["--exact"] if gamma is None else ["--gamma", gamma]
        yield ["div", "--kind", kind, *order, *mode, *pair], None


def _pair(tmp: str, nu: str, mu: str) -> list[str]:
    return ["--nu", os.path.join(tmp, f"{nu}.json"), "--mu", os.path.join(tmp, f"{mu}.json")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="the src directory of a checkout")
    src = os.path.abspath(parser.parse_args(argv).src)
    os.environ["COLUMNS"] = "80"  # argparse formats help and usage to the terminal width
    sys.path.insert(0, src)
    import gaussdiv.cli

    if not os.path.abspath(gaussdiv.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"gaussdiv was imported from {gaussdiv.cli.__file__}, not from {src}")
    uncaught = 0
    with tempfile.TemporaryDirectory() as tmp:
        for args, written in _calls(tmp):
            if written is not None and os.path.exists(written):
                os.remove(written)  # a failing call must not show the last call's file
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                try:
                    code = gaussdiv.cli.main(args)
                except SystemExit as exc:
                    code = f"SystemExit({exc.code})"
                except Exception as exc:  # recorded, and the battery fails at its end
                    code = f"uncaught {type(exc).__name__}: {exc}"
                    uncaught += 1
            print("$ gaussdiv " + " ".join(args).replace(tmp, "<tmp>"))
            print(f"exit={code}")
            print("stdout:", stdout.getvalue().replace(tmp, "<tmp>"), sep="\n", end="")
            print("stderr:", stderr.getvalue().replace(tmp, "<tmp>"), sep="\n", end="")
            for w in caught:
                print(f"warning: {w.category.__name__}: {w.message}")
            if written is not None and os.path.exists(written):
                with open(written, "rb") as handle:
                    print(f"file ({os.path.basename(written)}):")
                    sys.stdout.write(handle.read().decode())
    if uncaught:
        print(f"{uncaught} calls raised an exception out of gaussdiv.cli.main", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
