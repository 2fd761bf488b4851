"""Command-line interface: subcommands, output formats, exit codes."""

import gc
import json
import math
import struct
import sys
import warnings

import numpy as np
import pytest

import gaussdiv as gd
from gaussdiv import cli
from gaussdiv.cli import _fmt, _load_json, build_parser, main
from oracles import far_pair, overflowing_mean_pair, rounded_zero_pair


@pytest.fixture
def pair_files(tmp_path):
    nu, mu = gd.default_rn_pair(42)
    nu_path = tmp_path / "nu.json"
    mu_path = tmp_path / "mu.json"
    nu_path.write_text(json.dumps(nu.to_dict()))
    mu_path.write_text(json.dumps(mu.to_dict()))
    return str(nu_path), str(mu_path), nu, mu


@pytest.fixture
def singular_files(tmp_path):
    nu = gd.GaussianMeasure([0.0, 0.0], np.diag([1e-15, 1.0]))
    mu = gd.GaussianMeasure([0.0, 0.0], np.eye(2))
    nu_path = tmp_path / "snu.json"
    mu_path = tmp_path / "smu.json"
    nu_path.write_text(json.dumps(nu.to_dict()))
    mu_path.write_text(json.dumps(mu.to_dict()))
    return str(nu_path), str(mu_path)


class TestGen:
    def test_powerlaw_round_trip(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = main(["gen", "--family", "powerlaw", "--dim", "4", "--seed", "7",
                     "--out", str(out), "--mean-scale", "0.2"])
        assert code == 0
        measure = gd.GaussianMeasure.from_dict(json.loads(out.read_text()))
        assert measure.dim == 4
        want = gd.gen_measure(gd.SpectrumFamily.power_law(4), 7, 0.2)
        np.testing.assert_array_equal(measure.cov.entries, np.array(want.cov.entries))

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "--family", "exp", "--dim", "3", "--seed", "9", "--rate", "0.5"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_explicit_values(self, tmp_path):
        out = tmp_path / "e.json"
        code = main(["gen", "--family", "explicit", "--values", "2.0,0.5,1.0",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        measure = gd.GaussianMeasure.from_dict(json.loads(out.read_text()))
        got = np.sort(np.linalg.eigvalsh(measure.cov.entries))
        np.testing.assert_allclose(got, [0.5, 1.0, 2.0], atol=1e-12)

    def test_validation_failures(self, tmp_path, capsys):
        out = str(tmp_path / "x.json")
        assert main(["gen", "--family", "powerlaw", "--seed", "1", "--out", out]) == 2
        assert main(["gen", "--family", "explicit", "--seed", "1", "--out", out]) == 2
        assert main(["gen", "--family", "explicit", "--values", "1.0,2.0", "--dim", "3",
                     "--seed", "1", "--out", out]) == 2
        assert main(["gen", "--family", "powerlaw", "--dim", "3", "--s", "0.5",
                     "--seed", "1", "--out", out]) == 2
        err = capsys.readouterr().err
        assert "error:" in err

    @pytest.mark.parametrize("args", [
        ["--family", "powerlaw", "--s", "inf"],
        ["--family", "powerlaw", "--s", "2000"],
        ["--family", "exp", "--rate", "inf"],
        ["--family", "exp", "--rate", "1e4"],
    ])
    def test_spectra_without_positive_finite_eigenvalues_exit_2(self, tmp_path, capsys, args):
        out = tmp_path / "x.json"
        assert main(["gen", *args, "--dim", "3", "--seed", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert not out.exists()


class TestDiv:
    def test_exact_is_default(self, pair_files, capsys):
        nu_path, mu_path, nu, mu = pair_files
        assert main(["div", "--kind", "kl", "--nu", nu_path, "--mu", mu_path]) == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(gd.exact_kl(nu, mu), rel=1e-15)

    def test_explicit_exact_flag(self, pair_files, capsys):
        nu_path, mu_path, nu, mu = pair_files
        assert main(["div", "--kind", "bhatt", "--exact", "--nu", nu_path, "--mu", mu_path]) == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(gd.exact_bhattacharyya(nu, mu), rel=1e-15)

    def test_regularized(self, pair_files, capsys):
        nu_path, mu_path, nu, mu = pair_files
        assert main(["div", "--kind", "renyi", "--r", "0.25", "--gamma", "1e-3",
                     "--nu", nu_path, "--mu", mu_path]) == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(gd.regularized_renyi(nu, mu, 0.25, 1e-3), rel=1e-15)

    def test_missing_order(self, pair_files, capsys):
        nu_path, mu_path, _, _ = pair_files
        assert main(["div", "--kind", "renyi", "--nu", nu_path, "--mu", mu_path]) == 2

    def test_missing_file(self, pair_files, capsys):
        _, mu_path, _, _ = pair_files
        assert main(["div", "--kind", "kl", "--nu", "does-not-exist.json", "--mu", mu_path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_kind_rejected_by_parser(self, pair_files):
        nu_path, mu_path, _, _ = pair_files
        with pytest.raises(SystemExit):
            main(["div", "--kind", "tv", "--nu", nu_path, "--mu", mu_path])

    def test_singular_pair_prints_inf(self, singular_files, capsys):
        nu_path, mu_path = singular_files
        assert main(["div", "--kind", "kl", "--nu", nu_path, "--mu", mu_path]) == 3
        assert capsys.readouterr().out.strip() == "inf"

    def test_singular_pair_regularized_r_sweep_prints_inf(self, singular_files, tmp_path, capsys):
        nu_path, mu_path = singular_files
        out = tmp_path / "sweep.csv"
        assert main(["sweep-r", "--gamma", "1e-3", "--nu", nu_path, "--mu", mu_path,
                     "--from", "0.1", "--to", "0.9", "--points", "3", "--out", str(out)]) == 3
        assert capsys.readouterr().out.strip() == "inf"
        assert not out.exists()

    @pytest.mark.parametrize("nu_values, mu_values, code, out", [
        ("1,1,1e-16", "1,1,1", 3, "inf\n"),  # a degenerate first measure: singular pair
        ("1,1,1", "1,1e-13,2", 2, ""),  # a base at the clip threshold: degenerate
    ], ids=["degenerate nu", "base at the clip threshold"])
    def test_order_next_to_zero_reports_like_every_order(
        self, tmp_path, capsys, nu_values, mu_values, code, out
    ):
        paths = [str(tmp_path / "nu.json"), str(tmp_path / "mu.json")]
        for values, seed, path in zip((nu_values, mu_values), ("5", "6"), paths):
            assert main(["gen", "--family", "explicit", "--values", values,
                         "--seed", seed, "--out", path]) == 0
        capsys.readouterr()
        for r in ("1e-13", "0.5"):
            assert main(["div", "--kind", "renyi", "--r", r, "--exact",
                         "--nu", paths[0], "--mu", paths[1]]) == code
            assert capsys.readouterr().out == out

    def test_gamma_below_a_clipped_negative_eigenvalue_exits_2(self, tmp_path, capsys):
        nu = gd.GaussianMeasure([0.0, 0.0], np.diag([1.0, -5e-13]))
        unit = gd.GaussianMeasure([0.0, 0.0], np.eye(2))
        paths = [str(tmp_path / "nu.json"), str(tmp_path / "mu.json")]
        for measure, path in zip((nu, unit), paths):
            with open(path, "w") as handle:
                json.dump(measure.to_dict(), handle)
        pair = ["--nu", paths[0], "--mu", paths[1]]
        assert main(["div", "--kind", "kl", "--gamma", "5e-13", *pair]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert main(["div", "--kind", "kl", "--gamma", "1e-12", *pair]) == 0
        assert float(capsys.readouterr().out) == gd.regularized_kl(nu, unit, 1e-12)

    def test_gamma_below_a_rounded_zero_eigenvalue_exits_2(self, tmp_path, capsys):
        nu, mu = rounded_zero_pair()
        paths = [str(tmp_path / "nu.json"), str(tmp_path / "mu.json")]
        for measure, path in zip((nu, mu), paths):
            with open(path, "w") as handle:
                json.dump(measure.to_dict(), handle)
        pair = ["--nu", paths[0], "--mu", paths[1]]
        with pytest.warns(gd.IllConditioned):
            assert main(["div", "--kind", "kl", "--gamma", "1e-16", *pair]) == 0
        assert float(capsys.readouterr().out) > 0.0
        for gamma in ("1e-18", "1e-300", "1e-320"):
            assert main(["div", "--kind", "kl", "--gamma", gamma, *pair]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: shifted operator is not positive definite\n"

    def test_singular_pair_regularized_is_finite(self, singular_files, capsys):
        nu_path, mu_path = singular_files
        assert main(["div", "--kind", "kl", "--gamma", "1e-3",
                     "--nu", nu_path, "--mu", mu_path]) == 0
        assert np.isfinite(float(capsys.readouterr().out.strip()))


class TestSweepCommands:
    def test_gamma_sweep_file(self, pair_files, tmp_path):
        nu_path, mu_path, nu, mu = pair_files
        out = tmp_path / "sweep.csv"
        code = main(["sweep-gamma", "--kind", "kl", "--nu", nu_path, "--mu", mu_path,
                     "--from", "1e-1", "--to", "1e-6", "--points", "6", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "param,regularized,exact,abs_err,rel_err"
        assert len(lines) == 7
        last = lines[-1].split(",")
        assert float(last[4]) < 1e-4

    def test_gamma_sweep_byte_identical(self, pair_files, tmp_path):
        nu_path, mu_path, _, _ = pair_files
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep-gamma", "--kind", "renyi", "--r", "0.5", "--nu", nu_path,
                "--mu", mu_path, "--from", "1e-2", "--to", "1e-7", "--points", "6"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_r_sweep_exact(self, pair_files, tmp_path):
        nu_path, mu_path, nu, mu = pair_files
        out = tmp_path / "r.csv"
        code = main(["sweep-r", "--nu", nu_path, "--mu", mu_path,
                     "--from", "0.1", "--to", "0.9", "--points", "5", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 5
        for row in rows:
            fields = row.split(",")
            assert fields[1] == fields[2]
            assert float(fields[3]) == 0.0

    def test_r_sweep_regularized(self, pair_files, tmp_path):
        nu_path, mu_path, _, _ = pair_files
        out = tmp_path / "rg.csv"
        code = main(["sweep-r", "--gamma", "1e-6", "--nu", nu_path, "--mu", mu_path,
                     "--from", "0.2", "--to", "0.8", "--points", "4", "--out", str(out)])
        assert code == 0
        for row in out.read_text().splitlines()[1:]:
            assert float(row.split(",")[4]) < 1e-4

    def test_bad_grid(self, pair_files, tmp_path):
        nu_path, mu_path, _, _ = pair_files
        out = str(tmp_path / "bad.csv")
        assert main(["sweep-gamma", "--kind", "kl", "--nu", nu_path, "--mu", mu_path,
                     "--from", "1e-6", "--to", "1e-1", "--points", "4", "--out", out]) == 2


class TestBayes:
    def test_prints_both_routes(self, tmp_path, capsys):
        prior = gd.GaussianMeasure([0.0], [[1.0]])
        model = gd.LinearGaussianModel([[1.0]], [[1.0]], prior, [1.0])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model.to_dict()))
        assert main(["bayes", "--model", str(path)]) == 0
        out = capsys.readouterr().out
        values = dict(line.split("=") for line in out.strip().splitlines())
        assert float(values["kl_closed_form"]) == pytest.approx(0.22157359027997264, abs=1e-10)
        assert float(values["kl_whitened"]) == pytest.approx(0.22157359027997264, abs=1e-8)

    def test_bad_model_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"forward": [[1.0]]}))
        assert main(["bayes", "--model", str(path)]) == 2


class TestRnCheck:
    def test_default_pair_passes(self, capsys):
        assert main(["rn-check", "--n", "20000", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "moment_gate=pass" in out
        assert "kl_mc_ok=true" in out
        assert "rn_norm_ok=true" in out

    def test_explicit_pair(self, pair_files, capsys):
        nu_path, mu_path, _, _ = pair_files
        assert main(["rn-check", "--n", "20000", "--seed", "7",
                     "--nu", nu_path, "--mu", mu_path]) == 0

    @pytest.mark.parametrize("seed, explicit", [(42, False), (7, True), (2**64 - 1, True)])
    def test_both_checks_equal_the_library_checks_at_the_seed(self, pair_files, capsys, seed,
                                                              explicit):
        # One draw of normals serves both checks, so each equals its library call at --seed;
        # 200000 rows of dim 5 make three row blocks.
        nu_path, mu_path, nu, mu = pair_files
        files = ["--nu", nu_path, "--mu", mu_path] if explicit else []
        if not explicit:
            nu, mu = gd.default_rn_pair(seed)
        assert main(["rn-check", "--n", "200000", "--seed", str(seed), *files]) == 0
        lines = capsys.readouterr().out.splitlines()
        kl, kl_stderr = gd.mc_kl_check(nu, mu, 200_000, seed)
        norm, norm_stderr = gd.mc_rn_normalization(nu, mu, 200_000, seed)
        assert lines[2:4] == [f"kl_mc={_fmt(kl)}", f"kl_mc_stderr={_fmt(kl_stderr)}"]
        assert lines[5:7] == [f"rn_norm_mc={_fmt(norm)}", f"rn_norm_stderr={_fmt(norm_stderr)}"]

    def test_one_sample_is_a_validation_error(self, capsys):
        # One sample gives no standard error, so no gate can pass on it.
        assert main(["rn-check", "--n", "1", "--seed", "3"]) == 2
        captured = capsys.readouterr()
        assert "moment_gate=pass" not in captured.out
        assert "error:" in captured.err

    def test_requires_both_measures(self, pair_files, capsys):
        nu_path, _, _, _ = pair_files
        assert main(["rn-check", "--n", "100", "--seed", "1", "--nu", nu_path]) == 2

    def test_singular_pair(self, singular_files, capsys):
        # The exact KL comes before any sampling: no moment_gate line, only inf.
        nu_path, mu_path = singular_files
        assert main(["rn-check", "--n", "100", "--seed", "1",
                     "--nu", nu_path, "--mu", mu_path]) == 3
        assert capsys.readouterr().out == "inf\n"

    def test_degenerate_base(self, tmp_path, capsys):
        paths = []
        for name, cov in (("nu", np.eye(2)), ("mu", np.diag([1.0, 0.0]))):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(gd.GaussianMeasure(np.zeros(2), cov).to_dict()))
            paths.append(str(path))
        assert main(["rn-check", "--n", "100", "--seed", "1",
                     "--nu", paths[0], "--mu", paths[1]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err


def _bits(value):
    """``value`` with every float replaced by its bit pattern, so ``-0.0 != 0.0``."""
    if isinstance(value, list):
        return [_bits(v) for v in value]
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, value)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestDecoder:
    def test_numbers_bit_identical_to_json_load(self, tmp_path):
        rng = np.random.default_rng(18)
        # random bit patterns cover every exponent, subnormals included
        doubles = rng.integers(0, 2**64, size=20000, dtype=np.uint64).view(np.float64)
        doubles = doubles[np.isfinite(doubles)]
        subnormals = rng.integers(1, 2**52, size=2000, dtype=np.uint64).view(np.float64)
        texts = [fmt % x for x in np.concatenate([doubles, subnormals]).tolist()
                 for fmt in ("%r", "%.17g", "%.20e", "%.5g")]
        texts += [f"{d}.{rng.integers(10**12, 10**13)}{rng.integers(10**11, 10**12)}e{e}"
                  for d, e in zip(rng.integers(1, 10, 2000), rng.integers(-330, 300, 2000))]
        texts += ["0.0", "-0.0", "0", "-0", "5e-324", "2.2250738585072014e-308", "1e-400",
                  "1.7976931348623157e308", "9223372036854775807", "-9223372036854775808",
                  "123456789", "-1", "1E5", "1e+5"]
        texts = [t for t in texts if np.isfinite(float(t))]  # 1.7977e+308 rounds to inf
        path = _write(tmp_path, "corpus.json", '{"values": [' + ", ".join(texts) + '], "n": -0.0}')
        with open(path) as handle:
            assert _bits(_load_json(path)) == _bits(json.load(handle))

    def test_gen_file_bit_identical_to_json_load(self, tmp_path):
        path = str(tmp_path / "m.json")
        assert main(["gen", "--family", "powerlaw", "--dim", "200", "--seed", "3",
                     "--mean-scale", "0.3", "--out", path]) == 0
        with open(path) as handle:
            assert _bits(_load_json(path)) == _bits(json.load(handle))

    @pytest.mark.parametrize("text", [
        '{"dim": 1, "mean": [NaN], "cov": [[1.0]]}',
        '{"dim": 1, "mean": [Infinity], "cov": [[1.0]]}',
        '{"dim": 1, "mean": [1e400], "cov": [[1.0]]}',
        '{"dim": 1, "mean": [1' + "0" * 400 + '], "cov": [[1.0]]}',
        '{"dim": 1, "mean": [0.0], "cov": [[1.0]],}',
        "",
    ], ids=["NaN", "Infinity", "1e400", "400-digit integer", "trailing comma", "empty"])
    def test_files_that_are_not_strict_json_exit_2(self, tmp_path, capsys, text):
        nu = _write(tmp_path, "nu.json", text)
        mu = _write(tmp_path, "mu.json", '{"dim": 1, "mean": [0.0], "cov": [[1.0]]}')
        assert main(["div", "--kind", "kl", "--nu", nu, "--mu", mu]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {nu}: ")


class TestCollectorPause:
    """``cli._load`` pauses the cyclic garbage collector from decoding a file to building its
    record, and leaves it as it found it."""

    @pytest.fixture
    def collections_while_loading(self):
        """The generations of the collections that start inside ``cli._load``.  The gen-0
        threshold is 1, so that any container allocated there would start one."""
        seen = []

        def callback(phase, info):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not cli._load.__code__:
                frame = frame.f_back
            if phase == "start" and frame is not None:
                seen.append(info["generation"])

        threshold = gc.get_threshold()
        gc.set_threshold(1, 10**6, 10**6)
        gc.callbacks.append(callback)
        try:
            yield seen
        finally:
            gc.callbacks.remove(callback)
            gc.set_threshold(*threshold)

    @pytest.fixture
    def model_path(self, tmp_path):
        prior = gd.GaussianMeasure([0.1, -0.2], [[1.0, 0.2], [0.2, 0.8]])
        model = gd.LinearGaussianModel([[1.0, 0.5]], [[0.1]], prior, [0.4])
        return _write(tmp_path, "model.json", json.dumps(model.to_dict()))

    @pytest.fixture
    def collector_enabled(self, request):
        """The collector enabled or disabled, as the test's parameter says, and enabled after."""
        (gc.enable if request.param else gc.disable)()
        try:
            yield request.param
        finally:
            gc.enable()

    def test_loading_measure_and_model_files_runs_no_collection(
            self, pair_files, model_path, collections_while_loading, capsys):
        nu_path, mu_path = pair_files[:2]
        assert main(["div", "--kind", "kl", "--nu", nu_path, "--mu", mu_path]) == 0
        assert main(["bayes", "--model", model_path]) == 0
        assert collections_while_loading == []

    @pytest.mark.parametrize("collector_enabled", [True, False], indirect=True,
                             ids=["enabled", "disabled"])
    def test_the_collector_state_is_restored(self, pair_files, model_path, collector_enabled,
                                             capsys):
        nu_path, mu_path = pair_files[:2]
        assert main(["div", "--kind", "kl", "--nu", nu_path, "--mu", mu_path]) == 0
        assert gc.isenabled() is collector_enabled
        assert main(["bayes", "--model", model_path]) == 0
        assert gc.isenabled() is collector_enabled

    @pytest.mark.parametrize("collector_enabled", [True, False], indirect=True,
                             ids=["enabled", "disabled"])
    @pytest.mark.parametrize("text", ['{"dim": 1, "mean": [NaN], "cov": [[1.0]]}',
                                      '{"dim": 1, "mean": [0.0]}'],
                             ids=["not JSON", "no cov"])
    def test_the_collector_state_is_restored_after_a_malformed_file(
            self, tmp_path, collector_enabled, text, capsys):
        nu = _write(tmp_path, "nu.json", text)
        mu = _write(tmp_path, "mu.json", '{"dim": 1, "mean": [0.0], "cov": [[1.0]]}')
        assert main(["div", "--kind", "kl", "--nu", nu, "--mu", mu]) == 2
        assert gc.isenabled() is collector_enabled
        assert main(["bayes", "--model", nu]) == 2
        assert gc.isenabled() is collector_enabled


class TestWrongShapeFiles:
    UNIT = '"cov": [[1.0, 0.0], [0.0, 1.0]]'

    @pytest.mark.parametrize("text, field", [
        ('{"dim": 2, "mean": {}, ' + UNIT + '}', "'mean'"),
        ('{"dim": null, "mean": [0.0, 0.0], ' + UNIT + '}', "'dim'"),
        ('{"dim": [2], "mean": [0.0, 0.0], ' + UNIT + '}', "'dim'"),
        ('{"dim": 2.5, "mean": [0.0, 0.0], ' + UNIT + '}', "'dim'"),
        ('{"dim": 2, "mean": [0.0, 0.0], "cov": [[1.0, {}], [0.0, 1.0]]}', "'cov'"),
        ("[1, 2]", "measure"),
    ], ids=["mean object", "dim null", "dim list", "dim fraction", "cov entry object", "list"])
    def test_measure_file_exits_2_naming_the_field(self, tmp_path, capsys, text, field):
        nu = _write(tmp_path, "nu.json", text)
        mu = _write(tmp_path, "mu.json", '{"dim": 2, "mean": [0.0, 0.0], ' + self.UNIT + '}')
        assert main(["div", "--kind", "kl", "--nu", nu, "--mu", mu]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {nu}: ")
        assert field in err

    @pytest.mark.parametrize("option", ["--nu", "--mu"])
    def test_missing_field_names_the_file_and_the_field(self, tmp_path, capsys, option):
        bad = _write(tmp_path, "bad.json", '{"dim": 2, "mean": [0.0, 0.0]}')
        good = _write(tmp_path, "good.json", '{"dim": 2, "mean": [0.0, 0.0], ' + self.UNIT + '}')
        files = {"--nu": good, "--mu": good, option: bad}
        assert main(["div", "--kind", "kl", "--nu", files["--nu"], "--mu", files["--mu"]]) == 2
        assert capsys.readouterr().err == f"error: {bad}: field 'cov' is missing\n"

    @pytest.mark.parametrize("model, field", [
        ("model", "model"),
        ({"forward": {}, "noise_cov": [[1.0]], "observation": [0.0],
          "prior": {"dim": 1, "mean": [0.0], "cov": [[1.0]]}}, "'forward'"),
        ({"forward": [[1.0]], "noise_cov": [[1.0]], "observation": [0.0], "prior": [1.0]},
         "measure must be an object"),
    ], ids=["string", "forward object", "prior list"])
    def test_model_file_exits_2_naming_the_field(self, tmp_path, capsys, model, field):
        path = _write(tmp_path, "model.json", json.dumps(model))
        assert main(["bayes", "--model", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert field in err


class TestOverflow:
    """A pair whose means lie about 1e160 apart: every divergence overflows a double."""

    @pytest.fixture
    def far_files(self, tmp_path):
        paths = []
        for name, measure in zip(("nu", "mu"), far_pair()):
            paths.append(_write(tmp_path, f"{name}.json", json.dumps(measure.to_dict())))
        return ["--nu", paths[0], "--mu", paths[1]]

    def _run(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the divergence does not fit in a double")
        return code

    @pytest.mark.parametrize("args", [
        ["--kind", "kl"],
        ["--kind", "renyi", "--r", "0.5"],
        ["--kind", "kl", "--gamma", "1e-3"],
        ["--kind", "renyi", "--r", "0.5", "--gamma", "1e-3"],
        ["--kind", "bhatt"],
    ], ids=["kl", "renyi", "kl gamma", "renyi gamma", "bhatt"])
    def test_div_exits_2(self, far_files, capsys, args):
        assert self._run(["div", *args, *far_files], capsys) == 2

    @pytest.mark.parametrize("gamma", [[], ["--gamma", "1e-3"]], ids=["exact", "regularized"])
    def test_hellinger_is_sqrt_2(self, far_files, capsys, gamma):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["div", "--kind", "hellinger", *gamma, *far_files]) == 0
        assert capsys.readouterr() == (f"{math.sqrt(2.0):.17g}\n", "")

    @pytest.mark.parametrize("command", [
        ["sweep-gamma", "--kind", "kl", "--from", "1e-1", "--to", "1e-3"],
        ["sweep-r", "--gamma", "1e-3", "--from", "0.1", "--to", "0.9"],
        ["sweep-r", "--gamma", "0", "--from", "0.1", "--to", "0.9"],
    ], ids=["sweep-gamma", "sweep-r regularized", "sweep-r exact"])
    def test_sweeps_exit_2_and_write_nothing(self, far_files, tmp_path, capsys, command):
        out = tmp_path / "sweep.csv"
        argv = [*command, "--points", "3", "--out", str(out), *far_files]
        assert self._run(argv, capsys) == 2
        assert not out.exists()

    def test_rn_check_exits_2_before_sampling(self, far_files, capsys):
        assert self._run(["rn-check", "--n", "100", "--seed", "1", *far_files], capsys) == 2

    @pytest.mark.parametrize("gamma", [[], ["--gamma", "1e-3"]], ids=["exact", "regularized"])
    def test_an_overflowing_mean_difference(self, tmp_path, capsys, gamma):
        # Means at +-1e308: the Hellinger distance is sqrt(2), every other kind exits 2.
        paths = [_write(tmp_path, f"{name}.json", json.dumps(measure.to_dict()))
                 for name, measure in zip(("nu", "mu"), overflowing_mean_pair())]
        files = ["--nu", paths[0], "--mu", paths[1]]
        assert main(["div", "--kind", "hellinger", *gamma, *files]) == 0
        assert capsys.readouterr() == (f"{math.sqrt(2.0):.17g}\n", "")
        assert main(["div", "--kind", "bhatt", *gamma, *files]) == 2
        assert capsys.readouterr().err.startswith("error: the mean difference m_nu - m_mu")


class TestKeptParser:
    """``main`` parses with one parser per process; it answers as a fresh one does."""

    USAGE = {
        "help": ["--help"],
        "div help": ["div", "--help"],
        "bad kind": ["div", "--kind", "nope", "--nu", "a.json", "--mu", "b.json"],
        "gamma and exact": ["div", "--kind", "kl", "--gamma", "1e-3", "--exact",
                            "--nu", "a.json", "--mu", "b.json"],
        "empty": [],
    }

    @staticmethod
    def _exit(parse, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    @pytest.mark.parametrize("name", list(USAGE))
    def test_help_and_usage_errors_match_a_fresh_parser(self, name, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        argv = self.USAGE[name]
        fresh = self._exit(build_parser().parse_args, argv, capsys)
        assert fresh[0] == (0 if "help" in name else 2)
        for _ in range(2):
            assert self._exit(main, argv, capsys) == fresh

    def test_a_call_after_usage_errors_prints_what_it_prints_alone(self, pair_files, capsys):
        nu_path, mu_path, nu, mu = pair_files
        files = ["--nu", nu_path, "--mu", mu_path]
        exact = ["div", "--kind", "kl", *files]
        regularized = ["div", "--kind", "renyi", "--r", "0.3", "--gamma", "1e-3", *files]
        alone = {}
        for argv in (exact, regularized):
            args = build_parser().parse_args(argv)
            assert args.handler(args) == 0
            alone[argv[2]] = capsys.readouterr()
        assert alone["kl"].out == f"{gd.exact_kl(nu, mu):.17g}\n"
        for argv in (regularized, *self.USAGE.values(), exact, regularized, exact):
            if argv in self.USAGE.values():
                self._exit(main, argv, capsys)
            else:
                # No option of one call, --gamma and --r among them, carries into the next.
                assert main(argv) == 0
                assert capsys.readouterr() == alone[argv[2]]

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()
