"""Run a fixed battery of gaussdiv CLI calls and print everything they produce.

Usage::

    python tools/cli_battery.py --src path/to/checkout/src > battery.txt

The battery imports ``gaussdiv`` from ``--src`` and calls ``gaussdiv.cli.main``
in-process.  For every call it prints the arguments, the exit code, stdout,
stderr, the warnings raised (category and message, without the source
location, which moves with the code) and the bytes of every file the call
wrote.  An exception that escapes ``main`` is printed in place of the exit
code, the remaining calls still run, and the battery exits 1.  Two commits
agree on the whole CLI contract when the outputs of their batteries are
byte-identical (``cmp``).

The calls: ``gen`` for every measure (``zero``, with a zero eigenvalue, is
rejected); ``div`` for every kind (Renyi at orders 1e-13, 0.3, 0.9 and
1 - 1e-13), exact and at gamma 1e-2, 1e-6, 1e-10, 1e-14, the subnormals
1e-320 and 5e-324, 0 and nan; ``sweep-gamma`` for every kind; ``sweep-r``
exact and at gamma 1e-3, 1e-8, 1e-14 and 1e-320.  They run over random pairs
of dims 3 to 40 in both directions, plus a mutually singular pair, a pair with
a degenerate base (``flat``: an eigenvalue of 1e-13, below the clip
threshold, so its exact values report ``Degenerate`` and its regularized ones
stay finite), an ill-conditioned pair whose regularized values warn
``IllConditioned`` and a dim-4 pair whose means lie about 1e160 apart, so
every divergence but the Hellinger distance overflows a double
(``far/near``).  ``rn-check --n 2000`` runs on the built-in pair at seeds 7
and 42, on the pairs ``p3/e3``, ``p8/e8`` and ``p40/e40`` (the last fails
its normalization check, exit 1), on the singular, the degenerate and the far
pair, and with ``--nu`` alone.  ``div``
reads measure files that are not strict JSON (``NaN``, ``Infinity``, ``1e400``,
a 400-digit integer, a trailing comma, an empty file) or not a measure (a
``mean`` object, a ``dim`` of null or a list, a top-level list, no ``cov``).  ``bayes``
runs on two small model files that the battery writes, on one whose noise
covariance is not positive definite, on a JSON string and on a model whose
``forward`` is an object.
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

# name -> gen arguments (the output path is appended)
MEASURES = {
    **{f"p{dim}": ["--family", "powerlaw", "--dim", str(dim), "--seed", str(dim),
                   "--s", "1.5", "--mean-scale", "0.3"] for dim in (3, 8, 20, 40)},
    **{f"e{dim}": ["--family", "exp", "--dim", str(dim), "--seed", str(100 + dim),
                   "--rate", "0.4", "--mean-scale", "0.2"] for dim in (3, 8, 20, 40)},
    "thin": ["--family", "explicit", "--values", "1,1,1e-16", "--seed", "5"],
    "unit": ["--family", "explicit", "--values", "1,1,1", "--seed", "6"],
    "flat": ["--family", "explicit", "--values", "1,1e-13,2", "--seed", "7"],
    "zero": ["--family", "explicit", "--values", "1,0,2", "--seed", "7"],
    "stiff": ["--family", "explicit", "--values", "1,1e-3,1e-9,1e-13", "--seed", "8",
              "--mean-scale", "0.1"],
    "soft": ["--family", "explicit", "--values", "2,1e-2,1e-8,1e-12", "--seed", "9",
             "--mean-scale", "0.1"],
    "far": ["--family", "powerlaw", "--dim", "4", "--seed", "4", "--s", "1.5",
            "--mean-scale", "1e160"],
    "near": ["--family", "exp", "--dim", "4", "--seed", "104", "--rate", "0.4"],
}
PAIRS = [(f"p{d}", f"e{d}") for d in (3, 8, 20, 40)] + [(f"e{d}", f"p{d}") for d in (3, 8, 20, 40)]
PAIRS += [("thin", "unit"), ("unit", "flat"), ("stiff", "soft"), ("soft", "stiff"), ("far", "near")]
RN_PAIRS = [("p3", "e3"), ("p8", "e8"), ("p40", "e40"), ("thin", "unit"), ("unit", "flat"),
            ("far", "near")]

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
    out = os.path.join(tmp, "out.csv")
    for nu, mu in PAIRS:
        pair = _pair(tmp, nu, mu)
        for kind, r in KINDS:
            order = [] if r is None else ["--r", r]
            for gamma in DIV_GAMMAS:
                mode = ["--exact"] if gamma is None else ["--gamma", gamma]
                yield ["div", "--kind", kind, *order, *mode, *pair], None
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


def _pair(tmp: str, nu: str, mu: str) -> list[str]:
    return ["--nu", os.path.join(tmp, f"{nu}.json"), "--mu", os.path.join(tmp, f"{mu}.json")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="the src directory of a checkout")
    src = os.path.abspath(parser.parse_args(argv).src)
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
