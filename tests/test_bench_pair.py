"""``tools/bench_pair.py``: its summary reproduces the paired runs recorded in ``BENCH_15.json``,
and each run records its child usage."""

import json
import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
RECORD = json.loads((ROOT / "BENCH_15.json").read_text())
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


@pytest.fixture(scope="module")
def tool():
    return runpy.run_path(str(ROOT / "tools" / "bench_pair.py"))


@pytest.mark.parametrize("workload", sorted(RECORD["workloads"]))
def test_summary_reproduces_the_recorded_medians_quartiles_and_wins(tool, workload):
    record = RECORD["workloads"][workload]
    assert tool["summarize"](record["pairs"], END_TO_END) == record["summary"]


def test_claim_reproduces_the_recorded_verdict(tool):
    recorded = RECORD["claim"]
    spec = next(spec for spec in END_TO_END if spec["name"] == recorded["metric"])
    workload = recorded["workload"]
    assert tool["claim"](RECORD["workloads"][workload], workload, spec) == recorded


def test_claim_not_met_without_a_gain_above_the_spread(tool):
    # dense-800 ops_per_s in the same file: 5 wins of 10, so no claim holds there.
    spec = next(spec for spec in END_TO_END if spec["name"] == "ops_per_s")
    verdict = tool["claim"](RECORD["workloads"]["dense-800"], "dense-800", spec)
    assert verdict["change_wins"] == "5 of 10"
    assert verdict["met"] is False


def test_claim_needs_ten_pairs(tool):
    # Three won pairs of three are not nine of ten.
    spec = next(spec for spec in END_TO_END if spec["name"] == "peak_rss_mb")
    record = dict(RECORD["workloads"]["montecarlo-200"])
    record["pairs"] = record["pairs"][:3]
    record["summary"] = tool["summarize"](record["pairs"], END_TO_END)
    verdict = tool["claim"](record, "montecarlo-200", spec)
    assert verdict["change_wins"] == "3 of 3"
    assert verdict["met"] is False


def test_lower_is_better_counts_a_fall_as_a_gain(tool):
    spec = next(spec for spec in END_TO_END if spec["name"] == "peak_rss_mb")
    verdict = tool["claim"](RECORD["workloads"]["montecarlo-200"], "montecarlo-200", spec)
    assert verdict["change_wins"] == "10 of 10"
    assert verdict["median_gain"] > 0
    assert verdict["met"] is True


def test_schedule_alternates_the_side_that_runs_first(tool):
    for record in RECORD["workloads"].values():
        recorded = [(pair["seed"], pair["first"]) for pair in record["pairs"]]
        assert tool["schedule"](len(recorded)) == recorded
        assert record["held_out"]["seed"] == tool["HELD_OUT_SEED"]


def _traced_stdout(eigvalsh_calls: float, init_ms: float, failed: int = 0) -> list[str]:
    """What ``perfbench/run.py --trace 1`` prints, cut down to two metrics."""
    metrics = {"linalg.eigvalsh.calls": {"value": eigvalsh_calls, "unit": "calls/op"},
               "gaussian.measure_init.ms": {"value": init_ms, "unit": "ms/op"}}
    return ['# meta {"cpu": "x", "nproc": 2}',
            "# traced: 4 coverage operations + 1 cycle(s) of 2 operations; per-op values divide by 2",
            f"linalg.eigvalsh.calls = {eigvalsh_calls:.6g} calls/op",
            f"gaussian.measure_init.ms = {init_ms:.6g} ms/op",
            json.dumps({"correct": 6 - failed, "attempted": 6, "failed": failed,
                        "metrics": metrics})]


def test_traced_records_every_per_layer_metric_of_both_runs(tool):
    outputs = {"parent": _traced_stdout(25.5, 656.79891234), "change": _traced_stdout(8.0, 61.25)}
    record = tool["traced"](outputs, "dense-800", 25)
    assert record["what"].startswith("one traced run per commit: perfbench/run.py --workload "
                                     "dense-800 --seed 3 --seconds 25 --trace 1")
    assert record["metrics"] == {
        "linalg.eigvalsh.calls": {"parent": 25.5, "change": 8.0, "unit": "calls/op"},
        "gaussian.measure_init.ms": {"parent": 656.7989, "change": 61.25, "unit": "ms/op"},
    }
    assert record["runs"]["change"] == {"attempted": 6, "failed": 0, "correct": 6}
    assert tool["run_meta"](outputs["parent"]) == {"cpu": "x", "nproc": 2}


def test_traced_keeps_a_metric_only_one_side_reports(tool):
    parent = _traced_stdout(25.5, 656.8)
    last = json.loads(parent[-1])
    del last["metrics"]["gaussian.measure_init.ms"]
    parent[-1] = json.dumps(last)
    record = tool["traced"]({"parent": parent, "change": _traced_stdout(8.0, 61.25, failed=1)},
                            "dense-800", 25)
    assert record["metrics"]["gaussian.measure_init.ms"] == {"parent": None, "change": 61.25,
                                                             "unit": "ms/op"}
    assert record["runs"]["change"]["failed"] == 1



FAKE_RUN = """
import json, time
pages = bytearray(64 * 2**20)  # zeroed on first touch, page by page
for offset in range(0, len(pages), 4096):
    pages[offset] = 1
spin = time.process_time() + 0.2
while time.process_time() < spin:
    pass
print('# meta {"cpu": "x"}')
print(json.dumps({"correct": 3, "attempted": 3, "failed": 0,
                  "metrics": {name: {"value": 1.0} for name in NAMES}}))
"""


def test_run_records_the_child_usage_of_each_run(tool, tmp_path):
    names = [spec["name"] for spec in END_TO_END]
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(f"NAMES = {names!r}\n" + FAKE_RUN)
    figures, meta = tool["run"](str(tmp_path), "w", 1, 1, END_TO_END)
    assert meta == {"cpu": "x"}
    assert figures == {**{name: 1.0 for name in names}, "attempted": 3, "failed": 0, "correct": 3,
                       **{key: figures[key] for key in tool["USAGE_KEYS"]}}
    assert figures["child_user_s"] > 0.0 and figures["child_sys_s"] >= 0.0
    assert figures["child_user_s"] + figures["child_sys_s"] >= 0.15  # the 0.2 s spin
    assert figures["child_minflt"] >= 64 * 2**20 // 4096  # a fault per touched page at least
