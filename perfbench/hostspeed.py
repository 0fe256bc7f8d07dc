"""Host-speed reference: a fixed piece of work that uses none of the package.

The benchmark host is a share of a busy machine.  The same code runs up to
about 1.5 times slower for phases of seconds to minutes.  No steal time is
reported and process CPU time follows wall time, so the slowdown is in the
CPU the program gets.  Raw timings then spread by 0.1-0.35 (IQR over
median) between runs of 20-25 s, whatever statistic a run reports.

run.py times this reference (a probe of about 0.55 s) before the first
set-up, after the warm-up iteration and after every timed iteration.  It
scales the set-up times, and the iteration times of the workloads marked
host_scaled, by NOMINAL_S over the median probe of the run: the time the
run would have taken on a host on which the reference takes NOMINAL_S.  The
reference does, in a fixed proportion, the kinds of work the package does:
a Python loop of small numpy operations per frame (the codec recurrences),
FFTs of frames (the STFT) and matrix products at the spiking classifier's
shape.  It reads no file, calls nothing in the package and allocates the
same small arrays every time, so a change to the package cannot change it.
Raw times and probes are kept in the run record.

Which times are scaled follows what was measured on the baseline host
(perfbench/BASELINE.md).  The iteration times of bench_synth and
disk_roundtrip (interpreter-bound) follow the probe.  On a noisy host,
scaling cut their run-to-run spread by half or more; on a calm one it adds
the probe's own noise, about 0.02-0.03.  The set-up (import and input
generation) follows it over longer spans: two sets of ten bench_synth runs
20 minutes apart had raw setup_s medians 17% apart and scaled ones 3%
apart.  The iteration time of train_folds (SNN training, small matrix
products split over two BLAS threads) does not follow the probe, and
scaling made its spread worse, so its iterations are reported unscaled.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median probe over 40 runs on the baseline host (2-vCPU KVM guest, Intel
# Xeon, OpenBLAS SkylakeX kernels, BLAS threads 2), so that scaled times
# read close to raw ones there.
NOMINAL_S = 0.58

_RNG = np.random.default_rng(20250314)
# Every array is made once here, and each temporary is below glibc's mmap
# threshold (128 KiB): the reference must not get faster once the workload
# has grown the heap, as it does by half when its FFT buffers are page-faulted.
_ROWS = _RNG.standard_normal((64, 1500))
_THRESH = np.full(64, 0.5)
_FRAMES = _RNG.standard_normal((8, 1024))
_WINDOW = np.hanning(1024)
_WINDOWED = np.empty_like(_FRAMES)
# One spiking layer step at the classifier's shape: a batch of 32 by 128
# inputs times 128 by 128 weights, large enough that OpenBLAS splits it over
# its threads as it does in training.
_WEIGHTS = _RNG.standard_normal((128, 128)) * 0.1
_BATCH = _RNG.standard_normal((32, 128))
_MEM = np.empty((32, 128))


def _recurrence() -> float:
    base = _ROWS[:, 0].copy()
    fired = 0
    for i in range(1, _ROWS.shape[1]):
        s = np.where(_ROWS[:, i] > base + _THRESH, 1,
                     np.where(_ROWS[:, i] < base - _THRESH, -1, 0))
        base += s * _THRESH
        fired += int(s.any())
    return float(fired)


def _spectra() -> float:
    total = 0.0
    for _ in range(200):
        np.multiply(_FRAMES, _WINDOW, out=_WINDOWED)
        total += float(np.abs(np.fft.rfft(_WINDOWED, axis=1)).sum())
    return total


def _layers() -> float:
    mem = _MEM
    mem.fill(0.0)
    total = 0.0
    for _ in range(300):
        mem *= 0.9
        mem += _BATCH @ _WEIGHTS
        spikes = mem > 1.0
        mem[spikes] = 0.0
        total += spikes.sum()
    return total


def measure(repeats: int = 12) -> float:
    """Wall time of `repeats` passes over the reference work, in seconds."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        _recurrence()
        _spectra()
        _layers()
    return time.perf_counter() - t0


class Clock:
    """Reference probes taken through a run, and the scale they give.

    The reference is timed when the clock is made and at every `mark()`;
    `scale()` is NOMINAL_S over the median probe, the factor that takes the
    run's raw times to the nominal host speed.
    """

    def __init__(self):
        measure(1)  # first-call costs (page faults, FFT plans) stay out
        self.probes = [measure()]

    @property
    def probe_s(self) -> float:
        return self.probes[-1]

    def mark(self) -> None:
        self.probes.append(measure())

    def scale(self) -> float:
        return NOMINAL_S / statistics.median(self.probes)

    def summary(self) -> dict:
        return {"nominal_s": NOMINAL_S, "probe_s": self.probes, "scale": self.scale()}
