"""Checks of the benchmark itself; run with ``python3 -m pytest perfbench``.

The traced run's operation list is fixed by the workload, the seed and
``--seconds``, so two traced runs of one seed must report identical counts:
per operation, every linalg call count and every counter.  This pins the
factorization counts that later changes claim to lower.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

COUNT_UNITS = ("calls/op", "rows/op", "count/op", "B/op", "flop/op", "count")


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spans = json.loads((ROOT / ".perfbench_work" / f"spans-{workload}-seed{seed}.json").read_text())
    return result, spans


@pytest.mark.parametrize("workload", ["small-20", "montecarlo-200"])
def test_two_traced_runs_count_the_same(workload):
    first, first_spans = traced_run(workload, 5)
    second, second_spans = traced_run(workload, 5)
    assert first_spans["per_op_counts"] == second_spans["per_op_counts"]
    counts = {name: metric["value"] for name, metric in first["metrics"].items()
              if metric["unit"] in COUNT_UNITS}
    assert counts == {name: second["metrics"][name]["value"] for name in counts}
    assert counts["linalg.eigvalsh.calls"] > 0
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


def test_benchmark_json_lists_every_reported_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == [row[0] for row in tracing.PER_LAYER]
    assert [m["unit"] for m in bench["per_layer"]] == [row[1] for row in tracing.PER_LAYER]
