"""``tools/battery_diff.py`` on tiny synthetic battery outputs: only number drift exits 0."""

import pathlib
import runpy

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "battery_diff.py"

BATTERY = """\
$ gaussdiv div --kind kl --gamma 1e-6 --nu <tmp>/p3.json --mu <tmp>/e3.json
exit=0
stdout:
0.4182736451902837
stderr:
$ gaussdiv sweep-gamma --kind kl --nu <tmp>/p3.json --mu <tmp>/e3.json --out <tmp>/out.csv
exit=0
stdout:
moment_gate=pass
stderr:
file (out.csv):
gamma,regularized,exact,abs_err,rel_err
0.1,0.35,0.42,0.07,0.1666
"""


@pytest.fixture
def diff(tmp_path):
    main = runpy.run_path(str(TOOL))["main"]

    def run(old_text, new_text):
        old, new = tmp_path / "old.txt", tmp_path / "new.txt"
        old.write_text(old_text)
        new.write_text(new_text)
        return main([str(old), str(new)])

    return run


def test_identical_outputs_exit_0(diff, capsys):
    assert diff(BATTERY, BATTERY) == 0
    assert capsys.readouterr().out.startswith("# 2 calls; 0 differ")


def test_number_drift_alone_exits_0(diff, capsys):
    assert diff(BATTERY, BATTERY.replace("0.4182736451902837", "0.4182736451902841")) == 0
    assert "max relative drift" in capsys.readouterr().out


@pytest.mark.parametrize("old, new", [
    ("gamma,regularized,exact,abs_err,rel_err", "gamma,regularized,exact,abs_err"),
    ("moment_gate=pass", "moment_gate=fail"),
    ("0.1,0.35,0.42,0.07,0.1666\n", "0.1,0.35,0.42,0.07,0.1666\n0.01,0.4,0.42,0.02,0.05\n"),
], ids=["csv header", "gate word", "extra row"])
def test_text_change_exits_1(diff, capsys, old, new):
    assert diff(BATTERY, BATTERY.replace(old, new)) == 1
    assert "text differs" in capsys.readouterr().out


def test_exit_code_change_exits_1(diff, capsys):
    new = BATTERY.replace("exit=0", "exit=3", 1)
    assert diff(BATTERY, new) == 1
    assert "exit 0 -> 3" in capsys.readouterr().out


def test_added_and_removed_calls_are_listed_and_exit_1(diff, capsys):
    first, second = BATTERY.split("$ gaussdiv sweep-gamma")
    second = "$ gaussdiv sweep-gamma" + second
    assert diff(first, BATTERY) == 1
    out = capsys.readouterr().out
    assert "added (exit 0)" in out
    assert out.splitlines()[-1].endswith("; 1 added, 0 removed")
    assert diff(BATTERY, second) == 1
    out = capsys.readouterr().out
    assert "$ gaussdiv div --kind kl" in out
    assert "removed (exit 0)" in out
    assert out.splitlines()[-1].startswith("# 1 calls; 0 differ")
