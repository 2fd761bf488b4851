"""Row-block sampling, log density ratios and Monte-Carlo checks against frozen serial references.

``sample_gaussian`` and ``log_radon_nikodym_batch`` fill their outputs in row
blocks, on as many threads as the process has CPUs; each block of samples
draws its own window of the normal sequence (``lab._normals``).
``mc_kl_check`` and ``mc_rn_normalization`` draw and whiten each block in one
pass, with no sample matrix: a row ``z C^{1/2} + m`` becomes ``z T + b`` by one
matrix product, ``T = C^{1/2} L^{-T} V`` and ``b = (m - m_mu) L^{-T} V`` (not
added for ``mu``).  ``rn-check`` runs both in one pass, which whitens each
block's one draw for ``nu`` and for ``mu``.  They must equal the mean and
standard error of the frozen log density ratio of the frozen normals whitened
that way, the one pass included, equal the two
public calls in a row (``log_radon_nikodym_batch`` of ``sample_gaussian``) to
1e-12 relative, repeat byte for byte under thread-switching stress, and peak
less than 1 MB higher for 40000 samples at dim 200 than for 20000 (the matrix
would be 32 MB more).
``standard_normal`` draws in one serial pass.  The serial versions are frozen
in this file.  Normals pass through no BLAS, so ``standard_normal`` and the
block windows must equal their frozen copy byte for byte here.  Samples, log
density ratios and the Monte-Carlo checks pass through BLAS, whose rounding
depends on its own thread count, so they are compared byte for byte in a
subprocess with BLAS pinned to one thread, and to relative 1e-13 here.  The
byte comparisons of the blocks run at three block sizes: the default, a small
one and one block for the whole job.
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
import tracemalloc
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
    return frozen_log_rn_of_whitened((points - mu.mean) @ data._rn_frame, data)


def frozen_log_rn_of_whitened(x_hat, data):
    a = data.s_spectrum.eigenvalues
    one_minus = 1.0 - a
    d_hat = data.s_spectrum.eigenvectors.T @ data.delta
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

# Rows of a range of the default block size at width 200.
STEP_200 = operators._BLOCK_VALUES // 200 // 12 * 12

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


@functools.lru_cache(maxsize=None)
def frozen_mc_checks(dim, n, seed):
    """``mc_kl_check`` and ``mc_rn_normalization`` as the mean and standard error of the
    frozen log density ratio of frozen normals whitened by one product, ``z T + b``, of
    ``nu`` and of ``mu``: ``T = C^{1/2} L^{-T} V`` of the sampled measure and
    ``b = (m - m_mu) L^{-T} V``, which ``mu``'s draws do not add."""
    nu, mu = _pair(dim)
    data = _pair_of(nu, mu, None)
    frame = data._rn_frame
    z = frozen_standard_normal(seed, STREAM_SAMPLE, (int(n), dim))
    log_rn = {}
    for m in (nu, mu):
        x_hat = z @ (operators._spectral_sqrt(m.spectrum).entries @ frame)
        if m is nu:
            x_hat += data.mean_diff @ frame
        log_rn[m] = frozen_log_rn_of_whitened(x_hat, data)
    return lab._mean_stderr(log_rn[nu]), lab._mean_stderr(np.exp(log_rn[mu]))


def _sample_and_rn(dim, n, seed):
    """``(name, got, want)`` for the samples, the log density ratios and, from two
    samples on, the Monte-Carlo checks of one case."""
    nu, mu = _pair(dim)
    samples = gd.sample_gaussian(nu, n, seed)
    yield "samples", samples, frozen_sample_gaussian(nu, n, seed)
    for name, points in (("log rn", samples), ("log rn, no rows", samples[:0]),
                         ("log rn, one point", samples[0])):
        want = frozen_log_radon_nikodym_batch(points, nu, mu)
        yield name, gd.log_radon_nikodym_batch(points, nu, mu), want
    if n >= 2:
        kl, norm = frozen_mc_checks(dim, n, seed)
        yield "mc_kl_check", np.array(gd.mc_kl_check(nu, mu, n, seed)), np.array(kl)
        yield "mc_rn_normalization", np.array(gd.mc_rn_normalization(nu, mu, n, seed)), np.array(norm)
        yield "shared pass", np.array(shared_mc_checks(nu, mu, n, seed)), np.array((kl, norm))


def shared_mc_checks(nu, mu, n, seed, data=None):
    """Both Monte-Carlo checks from one pass that whitens each block's one draw for ``nu``
    and for ``mu``, as ``rn-check`` runs them."""
    log_nu, log_mu = lab._sampled_log_rn((nu, mu), nu, mu, n, seed, data)
    return lab._mean_stderr(log_nu), lab._mean_stderr(np.exp(log_mu))


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


def test_monte_carlo_checks_equal_the_two_public_calls_to_1e_12():
    # One product z T + b rounds otherwise than z C^{1/2} + m, then (x - m_mu) L^{-T} V:
    # only the last bits of the log ratios move, a few units of 1e-15 relative.
    seed = 2**63 + 5
    for dim, n in SAMPLE_CASES:
        if n < 2:
            continue
        nu, mu = _pair(dim)
        for check, measure, values in ((gd.mc_kl_check, nu, np.asarray),
                                       (gd.mc_rn_normalization, mu, np.exp)):
            log_rn = gd.log_radon_nikodym_batch(gd.sample_gaussian(measure, n, seed), nu, mu)
            want = lab._mean_stderr(values(log_rn))
            assert_allclose(check(nu, mu, n, seed), want, rtol=1e-12, atol=0, err_msg=f"{dim} {n}")


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
    calls = _record(20 * STEP_200, 200)
    assert len(calls) == 20
    assert {call[2] for call in calls} == {threading.get_ident()}


def test_without_an_affinity_mask_the_cpu_count_decides(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    calls = _record(20 * STEP_200, 200)
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
    calls = _record(ranges * STEP_200, 200)
    assert len(calls) == ranges
    assert len(started) == min(cpu_count, ranges) - 1  # the calling thread is the last one
    assert len({call[2] for call in calls}) <= min(cpu_count, ranges)
    assert not any(thread.is_alive() for thread in started)


def test_an_exception_in_one_range_reaches_the_caller_after_every_join(cpus):
    cpus(4)
    before = threading.active_count()

    def fill(start, stop):
        if start == 3 * STEP_200:
            raise FloatingPointError(f"rows {start}:{stop}")

    with pytest.raises(FloatingPointError, match=f"rows {3 * STEP_200}:{4 * STEP_200}"):
        _for_row_blocks(40 * STEP_200, 200, fill)
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


def test_normal_windows_start_on_a_philox_step():
    # The generator advances by whole counter steps of four draws: a window that
    # started between them would silently repeat the draws before it.
    assert lab._normals(5, 3, 4, 4).tobytes() == lab._normals(5, 3, 0, 8)[4:].tobytes()
    for start in (1, 2, 3, 5, 4 * STEP_200 * 200 + 2):
        with pytest.raises(ValueError, match="multiple of 4"):
            lab._normals(5, 3, start, 4)


# ---------------------------------------------------------------------------
# The Monte-Carlo checks' one pass
# ---------------------------------------------------------------------------


def test_monte_carlo_checks_repeat_byte_for_byte_under_thread_switching_stress(cpus, monkeypatch):
    # Four workers on 49 ranges, and a thread switch every microsecond: a buffer
    # that two ranges wrote at once would change some repeat's bytes.
    cpus(4)
    monkeypatch.setattr(operators, "_BLOCK_VALUES", 1 << 14)
    nu, mu = _pair(40)
    pair = gd.GaussianPair(nu, mu)

    def checks():
        return np.array([gd.mc_kl_check(nu, mu, 20_011, 9, data=pair),
                         gd.mc_rn_normalization(nu, mu, 20_011, 9, data=pair),
                         *shared_mc_checks(nu, mu, 20_011, 9, data=pair)]).tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        first = checks()
        for _ in range(19):
            assert checks() == first
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cpu_count", [1, 2, 4])
def test_monte_carlo_memory_does_not_grow_with_the_sample_matrix(cpus, cpu_count):
    # At dim 200 another 20000 samples are 32 MB as a matrix and 160 kB as log
    # density ratios; each worker's buffers have room for any range of the width.
    # The shared pass keeps the same two buffers a worker (4.2 MB each here) for both
    # whitenings, so it peaks within 2 MB of one check: its second measure adds a root
    # and a T (320 kB each) and a log ratio and its exp (160 kB each).
    cpus(cpu_count)
    nu, mu = _pair(200)
    pair = gd.GaussianPair(nu, mu)
    peaks = {}
    for check in (gd.mc_kl_check, shared_mc_checks):
        check(nu, mu, 100, 1, data=pair)  # fills the pair's caches
        for n in (20_000, 40_000):
            tracemalloc.start()
            try:
                check(nu, mu, n, 1, data=pair)
                peaks[check, n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[check, 40_000] - peaks[check, 20_000] < 1 << 20, check
    assert peaks[shared_mc_checks, 20_000] - peaks[gd.mc_kl_check, 20_000] < 2 << 20
