"""Paired end-to-end benchmark runs of two revisions, written as one ``BENCH_<n>.json`` file.

Usage::

    python tools/bench_pair.py --parent HEAD~1 --change HEAD --workload dense-800 \\
        --claim dense-800:ops_per_s --traced dense-800 --out BENCH_<n>.json

Run it from inside the repository.  Each revision is exported with
``git archive`` into a temporary directory outside the repository, and each
tree runs its own ``perfbench/run.py --workload W --seed S --seconds T
--trace 0``, ``T`` being the ``run_seconds`` of ``BENCHMARK.json``, which
both trees must agree on.  On seeds 1 to 10 the parent runs first on odd seeds
and the change first on even seeds; then the held-out seed 7919 runs once,
parent first.  ``--workload`` may be repeated; the workloads run one after
another.  Next to its end-to-end figures each run records ``child_user_s``,
``child_sys_s`` and ``child_minflt``, its CPU seconds and minor page faults as
``getrusage(RUSAGE_CHILDREN)`` deltas around it, which tell where a wall-clock
change comes from.

For every end-to-end metric of the change's ``BENCHMARK.json`` the summary
holds each side's median and quartiles over the paired seeds
(``numpy.percentile``, linear interpolation), the wins of each side (ties count
for neither), the relative change of the median, the parent's IQR and whether
the change is worse than the parent by more than the metric's bound; every
figure is rounded to 4 decimals before the next is computed from it.  A
``--claim WORKLOAD:METRIC`` is met when the change wins at least 9 in 10 of
at least 10 pairs, its median gain exceeds the parent's IQR and it also wins
the held-out seed.  ``--traced W`` (repeatable, with or without ``--workload``)
runs ``perfbench/run.py --workload W --seed 3 --seconds T --trace 1`` once per
tree and records every per-layer metric of both runs under ``traced_W``
(hyphens in ``W`` become underscores).  The tool only reports: it changes no
bound and no workload.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

PAIRS = 10
HELD_OUT_SEED = 7919
TRACED_SEED = 3
RUN_KEYS = ("attempted", "failed", "correct")
USAGE_KEYS = ("child_user_s", "child_sys_s", "child_minflt")


def schedule(pairs: int) -> list[tuple[int, str]]:
    """``(seed, side that runs first)`` for every paired seed."""
    return [(seed, "parent" if seed % 2 else "change") for seed in range(1, pairs + 1)]


def _quartiles(values) -> dict:
    q1, median, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4), "q3": round(float(q3), 4)}


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """The per-metric summary of paired runs; ``end_to_end`` is ``BENCHMARK.json``'s list."""
    summary = {}
    for spec in end_to_end:
        name, sign = spec["name"], (1.0 if spec["better"] == "higher" else -1.0)
        gains = [sign * (pair["change"][name] - pair["parent"][name]) for pair in pairs]
        parent = _quartiles([pair["parent"][name] for pair in pairs])
        change = _quartiles([pair["change"][name] for pair in pairs])
        rel = round((change["median"] - parent["median"]) / parent["median"], 4)
        summary[name] = {
            "parent": parent,
            "change": change,
            "change_wins": sum(gain > 0 for gain in gains),
            "parent_wins": sum(gain < 0 for gain in gains),
            "median_change_rel": rel,
            "parent_iqr": round(parent["q3"] - parent["q1"], 4),
            "bound": spec["bound"],
            "worse_by_more_than_bound": -sign * rel > spec["bound"],
        }
    return summary


def claim(record: dict, workload: str, spec: dict) -> dict:
    """Whether the change improves ``spec``'s metric on ``workload``'s record."""
    name, sign = spec["name"], (1.0 if spec["better"] == "higher" else -1.0)
    figures = record["summary"][name]
    parent, change = figures["parent"]["median"], figures["change"]["median"]
    gain = round(sign * (change - parent), 4)
    held = {side: record["held_out"][side][name] for side in ("parent", "change")}
    wins, pairs = figures["change_wins"], len(record["pairs"])
    return {
        "workload": workload,
        "metric": name,
        "parent_median": parent,
        "change_median": change,
        "change_wins": f"{wins} of {pairs}",
        "median_gain": gain,
        "parent_iqr": figures["parent_iqr"],
        f"held_out_{HELD_OUT_SEED}": held,
        "met": (pairs >= PAIRS and 10 * wins >= 9 * pairs and gain > figures["parent_iqr"]
                and sign * (held["change"] - held["parent"]) > 0),
    }


def export(rev: str, dest: str) -> str:
    """Extract the tree of ``rev`` into ``dest``; return its full commit hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def perfbench(tree: str, workload: str, seed: int, seconds: float, trace: int) -> list[str]:
    """The stdout lines of one ``perfbench/run.py`` run in ``tree``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    print(f"# {os.path.basename(tree)} {workload} seed {seed} trace {trace}", file=sys.stderr,
          flush=True)
    return subprocess.run(argv, cwd=tree, check=True, capture_output=True,
                          text=True).stdout.splitlines()


def child_usage(before, after) -> dict:
    """CPU user and system seconds and minor page faults between two
    ``getrusage(RUSAGE_CHILDREN)`` readings, rounded like the end-to-end figures."""
    return dict(zip(USAGE_KEYS, (round(after.ru_utime - before.ru_utime, 4),
                                 round(after.ru_stime - before.ru_stime, 4),
                                 after.ru_minflt - before.ru_minflt)))


def run(tree: str, workload: str, seed: int, seconds: float, end_to_end: list[dict]) -> tuple:
    """One untraced run in ``tree``: its rounded end-to-end figures, outcome and child usage,
    and its meta."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = perfbench(tree, workload, seed, seconds, 0)
    usage = child_usage(before, resource.getrusage(resource.RUSAGE_CHILDREN))
    last = json.loads(lines[-1])
    figures = {spec["name"]: round(last["metrics"][spec["name"]]["value"], 4) for spec in end_to_end}
    return {**figures, **{key: last[key] for key in RUN_KEYS}, **usage}, run_meta(lines)


def run_meta(lines: list[str]) -> dict:
    """The ``# meta`` record of a run's stdout lines: machine, interpreter and libraries."""
    return next(json.loads(line[len("# meta "):]) for line in lines if line.startswith("# meta "))


def measure(trees: dict, workload: str, seconds: float, end_to_end: list[dict]):
    """Paired runs of one workload, its summary and the held-out run, plus one run's meta."""
    entries = []
    for seed, first in [*schedule(PAIRS), (HELD_OUT_SEED, "parent")]:
        runs = {}
        for side in (first, "change" if first == "parent" else "parent"):
            runs[side], meta = run(trees[side], workload, seed, seconds, end_to_end)
        entries.append({"seed": seed, "first": first, "parent": runs["parent"],
                        "change": runs["change"]})
    paired = entries[:-1]
    return {
        "pairs": paired,
        "summary": summarize(paired, end_to_end),
        "held_out": entries[-1],
        "failed_total": {side: sum(entry[side]["failed"] for entry in paired)
                         for side in ("parent", "change")},
    }, meta


def traced(outputs: dict, workload: str, seconds: float) -> dict:
    """The record of one traced run per side from each run's stdout lines (``side -> lines``):
    every per-layer metric of the runs' last line, rounded, and each run's outcome."""
    lasts = {side: json.loads(lines[-1]) for side, lines in outputs.items()}
    metrics = {}
    for side, last in lasts.items():
        for name, metric in last["metrics"].items():
            entry = metrics.setdefault(name, {"parent": None, "change": None,
                                              "unit": metric["unit"]})
            entry[side] = round(metric["value"], 4)
    return {
        "what": f"one traced run per commit: perfbench/run.py --workload {workload} --seed "
                f"{TRACED_SEED} --seconds {seconds:g} --trace 1; per-operation values",
        "runs": {side: {key: last[key] for key in RUN_KEYS} for side, last in lasts.items()},
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision measured as the parent")
    parser.add_argument("--change", required=True, help="revision measured as the change")
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC whose gain is claimed")
    parser.add_argument("--traced", action="append", default=[],
                        help="workload of one traced run per side, recorded per layer")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if not args.workload and not args.traced:
        parser.error("give at least one --workload or --traced")
    if args.claim is not None:
        claimed_workload, _, claimed_metric = args.claim.partition(":")
        if claimed_workload not in args.workload:
            parser.error(f"--claim names {claimed_workload!r}, which no --workload runs")

    with tempfile.TemporaryDirectory(prefix="bench_pair-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in ("parent", "change")}
        commits = {side: export(getattr(args, side), trees[side]) for side in trees}
        benchmarks = {}
        for side, tree in trees.items():
            with open(os.path.join(tree, "BENCHMARK.json")) as handle:
                benchmarks[side] = json.load(handle)
        run_seconds = {side: benchmark["run_seconds"] for side, benchmark in benchmarks.items()}
        if run_seconds["parent"] != run_seconds["change"]:
            parser.error(f"the trees' BENCHMARK.json differ in run_seconds: {run_seconds}")
        seconds = run_seconds["change"]
        end_to_end = benchmarks["change"]["end_to_end"]
        specs = {spec["name"]: spec for spec in end_to_end}
        if args.claim is not None and claimed_metric not in specs:
            parser.error(f"--claim names {claimed_metric!r}, which is no end-to-end metric")
        workloads, meta = {}, {}
        for workload in args.workload:
            workloads[workload], meta = measure(trees, workload, seconds, end_to_end)
        traced_runs = {}
        for workload in args.traced:
            outputs = {side: perfbench(tree, workload, TRACED_SEED, seconds, 1)
                       for side, tree in trees.items()}
            traced_runs[f"traced_{workload.replace('-', '_')}"] = traced(outputs, workload, seconds)
            meta = run_meta(outputs["change"])

    report = {
        "what": f"Paired end-to-end runs of perfbench/run.py (--trace 0, {seconds:g} s) "
                "on two commits, each from its own tree",
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "machine": {key: meta.get(key) for key in ("cpu", "nproc", "affinity", "python",
                                               "numpy", "scipy", "blas")},
        "method": {
            "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds "
                       f"{seconds:g} --trace 0, from each commit's own tree",
            "blas_threads": "as pinned by each tree's perfbench/run.py",
            "order": f"parent first on odd seeds, change first on even seeds; seeds 1-{PAIRS}, "
                     f"then held-out seed {HELD_OUT_SEED} once (parent first)",
            "quartiles": f"numpy.percentile, linear interpolation, over the {PAIRS} paired seeds",
            "win": "change better than parent on the same seed; ties count for neither",
            "child_usage": "child_user_s, child_sys_s and child_minflt of each run: the CPU "
                           "seconds and minor page faults of the run's process and the "
                           "children it waited for, as getrusage(RUSAGE_CHILDREN) deltas",
        },
    }
    if args.claim is not None:
        report["claim"] = claim(workloads[claimed_workload], claimed_workload, specs[claimed_metric])
    report["workloads"] = workloads
    report.update(traced_runs)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    if args.claim is not None:
        print(f"claim {args.claim}: {'met' if report['claim']['met'] else 'not met'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
