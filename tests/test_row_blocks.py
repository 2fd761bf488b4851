"""Row-block sampling and log density ratios against frozen serial references.

``sample_gaussian`` and ``log_radon_nikodym_batch`` fill their outputs in row
blocks, on as many threads as the process has CPUs; each block of samples
draws its own window of the normal sequence (``lab._normals``).
``standard_normal`` draws in one serial pass.  The serial versions are frozen
in this file.  Normals pass through no BLAS, so ``standard_normal`` and the
block windows must equal their frozen copy byte for byte here.  Samples and
log density ratios pass through BLAS, whose rounding depends on its own thread
count, so they are compared byte for byte in a subprocess with BLAS pinned to
one thread, and to relative 1e-13 here.  The byte comparisons of the blocks run
at three block sizes: the default, a small one and one block for the whole job.
The small block for normals is the smallest, 12 rows.  For samples and log
density ratios it is 2**14 values: OpenBLAS multiplies blocks of a few rows
with its small-matrix kernels, which round differently from the kernels of one
large call, so with BLAS in the loop 12-row blocks are not bit-identical.
"""

import functools
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import ndtri

import gaussdiv as gd
from gaussdiv import lab, operators
from gaussdiv.gaussian import _pair_of
from gaussdiv.lab import STREAM_SAMPLE
from gaussdiv.operators import _for_row_blocks

HERE = Path(__file__).resolve().parent

# ---------------------------------------------------------------------------
# The serial versions, frozen
# ---------------------------------------------------------------------------


def frozen_standard_normal(seed, stream, shape):
    gen = lab._generator(seed, stream)
    u = gen.integers(0, 1 << 53, size=shape, dtype=np.uint64).astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return ndtri(u, out=u)


def frozen_sample_gaussian(measure, n, seed):
    root = operators._spectral_sqrt(measure.spectrum)
    samples = frozen_standard_normal(seed, STREAM_SAMPLE, (int(n), measure.dim)) @ root.entries
    return np.add(samples, measure.mean, out=samples)


def frozen_log_radon_nikodym_batch(points, nu, mu):
    data = _pair_of(nu, mu, None)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    a = data.s_spectrum.eigenvalues
    one_minus = 1.0 - a
    d_hat = data.s_spectrum.eigenvectors.T @ data.delta
    x_hat = (points - mu.mean) @ data._rn_frame
    const = -0.5 * float(np.sum(np.log1p(-a))) - 0.5 * float(np.sum(d_hat * d_hat / one_minus))
    quad = -0.5 * (x_hat * x_hat) @ (a / one_minus)
    cross = x_hat @ (d_hat / one_minus)
    return const + quad + cross


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

SEEDS = (0, 7, 2**63, 2**64 - 1)

# Scalars, 1-D vectors, zero-size shapes, one inline block, many blocks with a
# ragged remainder, and widths that are not a multiple of 4.
NORMAL_SHAPES = (
    (), 1, 7, 524_291, (0,), (5, 0), (0, 5), (3, 3), (4, 7), (1, 1000),
    (70_001, 5), (21_858, 13), (1_311, 201),
)

# (rows, width) of the block windows: widths below 4, not divisible by 4, and
# 200 and 201; each job splits into several ranges of the default block size.
WINDOW_CASES = ((524_291, 1), (70_001, 13), (5_000, 200), (5_000, 201))

# (dim, n): n = 1 and 1-D measures, one inline block, and several blocks whose
# remainder joins the last one, at widths below 4, not divisible by 4 and at
# the benchmark's dim 200.
SAMPLE_CASES = ((1, 1), (1, 524_291), (3, 262_153), (5, 1), (40, 20_011), (65, 8_077),
                (201, 5_000), (200, 20_000))

NORMAL_BLOCK_VALUES = {"default": operators._BLOCK_VALUES, "12 rows": 1, "one block": 1 << 62}
BLOCK_VALUES = {"default": operators._BLOCK_VALUES, "2**14 values": 1 << 14, "one block": 1 << 62}


@functools.lru_cache(maxsize=None)
def _pair(dim):
    nu = gd.gen_measure(gd.SpectrumFamily.power_law(dim, 2.1), 3, mean_scale=0.1)
    mu = gd.gen_measure(gd.SpectrumFamily.power_law(dim, 2.0), 3)
    return nu, mu


def block_normals(seed, rows, width):
    """``rows x width`` normals drawn one row block at a time, as ``sample_gaussian`` draws them."""
    out = np.empty((rows, width))

    def fill(start, stop):
        draws = lab._normals(seed, STREAM_SAMPLE, start * width, (stop - start) * width)
        out[start:stop] = draws.reshape(stop - start, width)

    _for_row_blocks(rows, width, fill)
    return out


def _sample_and_rn(dim, n, seed):
    """``(name, got, want)`` for the samples and the log density ratios of one case."""
    nu, mu = _pair(dim)
    samples = gd.sample_gaussian(nu, n, seed)
    yield "samples", samples, frozen_sample_gaussian(nu, n, seed)
    for name, points in (("log rn", samples), ("log rn, no rows", samples[:0]),
                         ("log rn, one point", samples[0])):
        want = frozen_log_radon_nikodym_batch(points, nu, mu)
        yield name, gd.log_radon_nikodym_batch(points, nu, mu), want


def pinned_mismatches() -> list[str]:
    """Every case whose bytes differ from the frozen copy; run with one BLAS thread."""
    bad = []
    for label, values in BLOCK_VALUES.items():
        operators._BLOCK_VALUES = values
        for dim, n in SAMPLE_CASES:
            for name, got, want in _sample_and_rn(dim, n, 2**63 + 5):
                if got.shape != want.shape or got.tobytes() != want.tobytes():
                    bad.append(f"{name} dim={dim} n={n} blocks={label}")
    return bad


# ---------------------------------------------------------------------------
# Bit identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("blocks, seed", [
    *((blocks, seed) for blocks in ("default", "one block") for seed in SEEDS),
    ("12 rows", 7), ("12 rows", 2**64 - 1),  # tens of thousands of blocks each
])
def test_standard_normal_equals_the_serial_version_byte_for_byte(monkeypatch, blocks, seed):
    # standard_normal reads no block size; the windows that sampling draws per block do.
    monkeypatch.setattr(operators, "_BLOCK_VALUES", NORMAL_BLOCK_VALUES[blocks])
    for shape in NORMAL_SHAPES:
        got = gd.standard_normal(seed, STREAM_SAMPLE, shape)
        want = frozen_standard_normal(seed, STREAM_SAMPLE, shape)
        assert got.shape == want.shape and got.dtype == want.dtype, shape
        assert got.tobytes() == want.tobytes(), shape
        assert got.flags.c_contiguous
    for rows, width in WINDOW_CASES:
        want = frozen_standard_normal(seed, STREAM_SAMPLE, (rows, width))
        assert block_normals(seed, rows, width).tobytes() == want.tobytes(), (rows, width)


def test_samples_and_log_rn_equal_the_serial_versions_with_one_blas_thread():
    blas = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    code = (
        f"import sys; sys.path[:0] = [{str(HERE.parent / 'src')!r}, {str(HERE)!r}]\n"
        "import test_row_blocks\n"
        "print('\\n'.join(test_row_blocks.pinned_mismatches()) or 'identical')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, **blas},
                          capture_output=True, text=True, timeout=600, check=True)
    assert proc.stdout.strip() == "identical"


def test_samples_and_log_rn_match_the_serial_versions_in_process():
    # With BLAS free to choose its thread count, the serial versions themselves
    # vary in the last bits from one thread count to another.
    for dim, n in SAMPLE_CASES:
        for name, got, want in _sample_and_rn(dim, n, 2**63 + 5):
            assert got.shape == want.shape
            scale = float(np.max(np.abs(want))) if want.size else 0.0
            assert_allclose(got, want, rtol=1e-13, atol=1e-13 * scale, err_msg=f"{name} {dim} {n}")


# ---------------------------------------------------------------------------
# The row-block helper
# ---------------------------------------------------------------------------


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of CPUs the helper sees through the affinity mask."""

    def set_cpus(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    return set_cpus


def _record(rows, width):
    calls, lock = [], threading.Lock()

    def fill(start, stop):
        with lock:
            calls.append((start, stop, threading.get_ident()))

    _for_row_blocks(rows, width, fill)
    return calls


def test_ranges_are_multiples_of_12_rows_and_the_remainder_joins_the_last(cpus):
    cpus(1)
    step = operators._BLOCK_VALUES // 200 // 12 * 12
    calls = _record(3 * step + 7, 200)
    assert [(start, stop) for start, stop, _ in calls] == [
        (0, step), (step, 2 * step), (2 * step, 3 * step + 7)]
    assert _record(step - 1, 200)[0][:2] == (0, step - 1)
    assert _record(5, 1 << 30)[0][:2] == (0, 5)  # a range never has fewer than 12 rows


@pytest.mark.parametrize("rows, width", [(0, 5), (5, 0), (0, 0)])
def test_zero_size_jobs(cpus, rows, width):
    cpus(4)
    assert [call[:2] for call in _record(rows, width)] == ([(0, rows)] if rows else [])


def test_one_range_runs_on_the_calling_thread(cpus):
    cpus(8)
    calls = _record(100, 200)
    assert [call[:2] for call in calls] == [(0, 100)]
    assert calls[0][2] == threading.get_ident()


def test_one_cpu_runs_every_range_on_the_calling_thread(cpus):
    cpus(1)
    calls = _record(20 * 1308, 200)
    assert len(calls) == 20
    assert {call[2] for call in calls} == {threading.get_ident()}


def test_without_an_affinity_mask_the_cpu_count_decides(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    calls = _record(20 * 1308, 200)
    assert {call[2] for call in calls} == {threading.get_ident()}


@pytest.mark.parametrize("cpu_count, ranges", [(3, 2), (3, 10), (16, 5), (2, 40)])
def test_threads_never_outnumber_ranges_or_cpus(cpus, monkeypatch, cpu_count, ranges):
    cpus(cpu_count)
    started = []

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountingThread)
    calls = _record(ranges * 1308, 200)
    assert len(calls) == ranges
    assert len(started) == min(cpu_count, ranges) - 1  # the calling thread is the last one
    assert len({call[2] for call in calls}) <= min(cpu_count, ranges)
    assert not any(thread.is_alive() for thread in started)


def test_an_exception_in_one_range_reaches_the_caller_after_every_join(cpus):
    cpus(4)
    before = threading.active_count()

    def fill(start, stop):
        if start == 3 * 1308:
            raise FloatingPointError(f"rows {start}:{stop}")

    with pytest.raises(FloatingPointError, match="rows 3924:5232"):
        _for_row_blocks(40 * 1308, 200, fill)
    assert threading.active_count() == before


def test_every_range_runs_once_under_thread_switching_stress(cpus):
    # More workers than this machine has cores, and a thread switch every
    # microsecond: a range taken twice or lost breaks the tally.
    cpus(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            tally = np.zeros(200 * 12, dtype=np.int64)

            def fill(start, stop):
                tally[start:stop] += 1

            _for_row_blocks(len(tally), 1 << 16, fill)
            assert np.all(tally == 1)
    finally:
        sys.setswitchinterval(interval)
