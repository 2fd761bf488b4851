"""gaussdiv benchmark: one client in a closed loop of in-process CLI calls.

Each operation calls ``gaussdiv.cli.main(argv)`` in this process with stdout
captured, so argument parsing, JSON decoding and CSV writing are inside the
measurement while interpreter start-up and import are paid in set-up
(``setup_s``, timed in fresh processes).  Every call's output is checked
against a reference computed in set-up.

    python3 perfbench/run.py --workload small-20 --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the closed loop untraced and prints the end-to-end metrics.
``--trace 1`` runs a fixed list of operations untraced, then the same list
traced, and prints the per-layer metrics.  Every metric is printed as
``name = value unit``; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run exits 0 once it
has measured, and 2 when it cannot run (for example without ``src/gaussdiv``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("dense-800", "montecarlo-200", "small-20")
HELD_OUT_SEED = 7919
SETUP_REPEATS = 3
# One BLAS thread, and never more than the machine has: on a shared 2-core
# box small calls are steadier single-threaded.  Set before numpy is imported.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Untraced seconds of one schedule cycle on a 2-core OpenBLAS box at one BLAS
# thread.  They size the traced run, whose operation list must not depend on
# timing so that its counts repeat exactly.
NOMINAL_CYCLE_S = {"dense-800": 15.0, "montecarlo-200": 3.4, "small-20": 0.6}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help=f"workload seed; seed {HELD_OUT_SEED} is held out for confirming claims")
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_blas_threads() -> dict:
    before = {var: os.environ.get(var) for var in THREAD_VARS}
    threads = str(max(1, min(BLAS_THREADS, os.cpu_count() or 1)))
    for var in THREAD_VARS:
        os.environ[var] = threads
    return before


def cold_import_seconds() -> float:
    """Interpreter start-up plus ``import gaussdiv.cli`` in a fresh process, as a CLI user pays it."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import gaussdiv.cli"], env=env, check=True)
    return time.perf_counter() - start


def metadata(threads_before: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "blas_threads_before": threads_before,
    }


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    seconds: float = 0.0
    failures: list = field(default_factory=list)  # why each failed call failed


def run_call(cli, call, tracer=None, op_id=None) -> tuple[float, "str | None"]:
    if call.out is not None:
        call.out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    crash = None
    if tracer is not None:
        tracer.begin_op(op_id)
        tracer.count("cli.bytes_in", call.bytes_in)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                code = cli.main(call.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # one broken call must not end the run; it is a failure
                code, crash = None, f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.end_op()
    reason = crash or call.check(code, stdout.getvalue())
    if reason and stderr.getvalue().strip():
        reason += f" [stderr: {stderr.getvalue().strip()[:120]}]"
    return elapsed, reason


def run_op(cli, calls, tracer=None, op_id=None) -> OpResult:
    result = OpResult()
    for call in calls:
        elapsed, reason = run_call(cli, call, tracer, op_id)
        result.seconds += elapsed
        if reason:
            result.failures.append(f"{call.argv[0]}: {reason}")
    return result


def closed_loop(cli, workload, seconds: float) -> list:
    results, index = [], 0
    start = time.perf_counter()
    while True:
        results.append(run_op(cli, workload.op(index)))
        index += 1
        if time.perf_counter() - start >= seconds:
            return results


def run_plan(cli, plan, tracer=None) -> list:
    return [run_op(cli, calls, tracer, index) for index, calls in enumerate(plan)]


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def failure_lines(results) -> list:
    tally = {}
    for result in results:
        for reason in result.failures:
            tally[reason[:200]] = tally.get(reason[:200], 0) + 1
    return [f"# failed x{count}: {reason}"
            for reason, count in sorted(tally.items(), key=lambda item: -item[1])]


def probe_lines(cli, workload) -> list:
    """Run each known-defect probe once, outside the operations, and say whether it still fails."""
    lines = []
    for defect, call in workload.probes:
        _, reason = run_call(cli, call)
        lines.append(f"# known defect still present: {defect} ({reason})" if reason
                     else f"# known defect no longer reproduces: {defect}")
    return lines


def verdict(results) -> dict:
    failed = sum(1 for result in results if result.failures)
    return {"correct": failed == 0, "attempted": len(results), "failed": failed}


def end_to_end(results, setup_s: float) -> dict:
    latencies = sorted(result.seconds for result in results)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
        "latency_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
        "latency_p90_ms": {"value": 1e3 * nearest_rank(latencies, 0.9), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def emit(outcome: dict, metrics: dict, notes: list) -> None:
    for line in notes:
        print(line)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({**outcome, "metrics": metrics}))


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def measure(args, cli, workloads, inputs: Path):
    import_times, setup_times = [], []
    for _ in range(SETUP_REPEATS):
        import_times.append(cold_import_seconds())
        start = time.perf_counter()
        workload = workloads.build(args.workload, args.seed, inputs)
        warm = run_plan(cli, workload.coverage)
        setup_times.append(time.perf_counter() - start)
    results = closed_loop(cli, workload, args.seconds)
    n = len(results)
    import_s, build_s = statistics.median(import_times), statistics.median(setup_times)
    notes = [f"# setup: medians of {SETUP_REPEATS}: start-up and import {import_s:.3f} s "
             f"{[round(t, 3) for t in import_times]}, inputs, references and warm-up "
             f"{build_s:.3f} s {[round(t, 3) for t in setup_times]}",
             f"# latency samples: {n} operations"
             + ("" if n >= 100 else "; p90 has fewer than ten samples beyond it")]
    notes += [line.replace("# failed", "# warm-up failed") for line in failure_lines(warm)]
    notes += failure_lines(results) + probe_lines(cli, workload)
    return verdict(results), end_to_end(results, import_s + build_s), notes, {}


def measure_traced(args, cli, workloads, tracing, inputs: Path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op(tracing.SETUP_OP)
        workload = workloads.build(args.workload, args.seed, inputs)
        tracer.end_op()
        run_plan(cli, workload.coverage)
    finally:
        tracer.uninstall()
    cycles = max(1, round(args.seconds / (2.0 * NOMINAL_CYCLE_S[args.workload])))
    n_ops = cycles * workload.cycle_len
    plan = workload.coverage + [workload.op(i) for i in range(n_ops)]
    untraced = run_plan(cli, plan)
    tracer.install()
    try:
        traced = run_plan(cli, plan, tracer)
    finally:
        tracer.uninstall()
    overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in untraced)
    summary = tracer.summary(range(len(plan)))
    setup = tracer.summary([tracing.SETUP_OP])
    metrics = tracing.per_layer_metrics(summary, setup, n_ops, overhead)
    notes = [f"# traced: {len(workload.coverage)} coverage operations + {cycles} cycle(s) of "
             f"{workload.cycle_len} operations; per-op values divide by {n_ops}"]
    notes += failure_lines(traced) + probe_lines(cli, workload)
    spans = {"ops": len(plan), "coverage_ops": len(workload.coverage),
             "spans": tracer.spans, "per_op_counts": tracer.per_op_counts(),
             "totals": summary, "setup_totals": setup}
    return verdict(traced), metrics, notes, spans


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gaussdiv" / "cli.py").is_file():
        print(f"error: {SRC / 'gaussdiv'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    threads_before = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import gaussdiv.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported gaussdiv from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    meta = metadata(threads_before)
    print("# meta " + json.dumps(meta))
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        if args.trace:
            outcome, metrics, notes, spans = measure_traced(args, cli, workloads, tracing,
                                                            run_dir / "inputs")
        else:
            outcome, metrics, notes, spans = measure(args, cli, workloads, run_dir / "inputs")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if spans:
        WORK.mkdir(exist_ok=True)
        report = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        report.write_text(json.dumps({"meta": meta, "workload": args.workload,
                                      "seed": args.seed, **spans}))
        notes.append(f"# spans written to {report.relative_to(ROOT)}")
    emit(outcome, metrics, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
