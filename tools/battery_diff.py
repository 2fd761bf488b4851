"""Compare two outputs of ``tools/cli_battery.py`` call by call.

Usage::

    python tools/battery_diff.py OLD NEW

For every call whose output differs it prints the call, what differs (exit
code, stderr, warnings, the text around the numbers) and the largest relative
drift of its numbers, with the line where it occurs.  Numbers are compared
token by token in stdout and in the written file, each relative to the
largest finite magnitude on its line in either output: a sweep row's
``abs_err`` and ``rel_err`` are differences of its values, so they drift
relative to those values.  ``inf`` and ``nan`` count as numbers, equal to
themselves.  A last line sums up.  The exit status is 1 when any exit code,
stderr or warning differs, and 0 when only numbers drift.
"""

from __future__ import annotations

import math
import re
import sys

NUMBER = re.compile(r"[-+]?(?:inf|nan|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def parse(path: str) -> list[dict]:
    """The calls of one battery output, in order."""
    calls = []
    section = None
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("$ gaussdiv "):
                calls.append({"args": line[2:], "exit": None, "stdout": [], "stderr": [],
                              "warnings": [], "file": []})
                section = None
            elif line.startswith("exit=") and section is None:
                calls[-1]["exit"] = line[5:]
            elif line in ("stdout:", "stderr:"):
                section = line[:-1]
            elif line.startswith("warning: "):
                calls[-1]["warnings"].append(line[9:])
                section = "warnings"
            elif line.startswith("file (") and line.endswith("):"):
                section = "file"
            elif section in ("stdout", "stderr", "file"):
                calls[-1][section].append(line)
    return calls


def _drift(a: str, b: str, scale: float) -> float:
    x, y = float(a), float(b)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / scale


def compare(old: dict, new: dict) -> tuple[list[str], float, str]:
    """What differs besides numbers, the largest number drift, and the new line holding it."""
    differs = [key for key in ("exit", "stderr", "warnings") if old[key] != new[key]]
    worst, where = 0.0, ""
    old_lines = old["stdout"] + old["file"]
    new_lines = new["stdout"] + new["file"]
    if len(old_lines) != len(new_lines):
        differs.append("text")
        return differs, worst, where
    for old_line, new_line in zip(old_lines, new_lines):
        if NUMBER.sub("#", old_line) != NUMBER.sub("#", new_line):
            if "text" not in differs:
                differs.append("text")
            continue
        pairs = list(zip(NUMBER.findall(old_line), NUMBER.findall(new_line)))
        finite = [abs(float(x)) for pair in pairs for x in pair if math.isfinite(float(x))]
        scale = max(finite, default=0.0)
        for a, b in pairs:
            drift = _drift(a, b, scale)
            if drift > worst:
                worst, where = drift, new_line
    return differs, worst, where


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old_calls, new_calls = parse(argv[0]), parse(argv[1])
    if [c["args"] for c in old_calls] != [c["args"] for c in new_calls]:
        print("the two outputs ran different calls", file=sys.stderr)
        return 2
    contract = drifted = 0
    worst = 0.0
    for old, new in zip(old_calls, new_calls):
        differs, drift, where = compare(old, new)
        if not differs and drift == 0.0:
            continue
        worst = max(worst, drift)
        contract += any(key in differs for key in ("exit", "stderr", "warnings"))
        drifted += drift > 0.0
        print(f"$ {new['args']}")
        if "exit" in differs:
            print(f"  exit {old['exit']} -> {new['exit']}")
        for key in ("stderr", "warnings", "text"):
            if key in differs:
                print(f"  {key} differs")
        if drift > 0.0:
            print(f"  max relative drift {drift:.3g} in: {where}")
    print(f"# {len(new_calls)} calls; {contract} differ in exit code, stderr or warnings; "
          f"{drifted} drift in their numbers, at most {worst:.3g} relative")
    return 1 if contract else 0


if __name__ == "__main__":
    sys.exit(main())
