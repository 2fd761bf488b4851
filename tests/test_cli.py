"""Command-line interface: subcommands, output formats, exit codes."""

import json

import numpy as np
import pytest

import gaussdiv as gd
from gaussdiv.cli import main
from oracles import rounded_zero_pair


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
