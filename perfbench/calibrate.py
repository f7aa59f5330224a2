"""Host-speed calibration for the benchmark's times.

The shared 2-core virtual machines this benchmark was built on switch
between a fast and a slow state within seconds; pure-Python code then
runs up to 1.9x slower and the same workload's median time moves by up
to 46% from run to run.  Every timed sample is therefore paired with a
fixed kernel, run just before and just after it, and reported as

    sample * REFERENCE_S[kernel] / mean(kernel before, kernel after),

that is, in seconds on a host where the kernel takes its REFERENCE_S.  Each
kernel time is the median of a few runs, because the first run after a
long sample is often slow while caches refill.  The two states slow the
kinds of work so21 does by different factors, so there are four
kernels: ``small`` makes many calls on tiny arrays (interpreter and
dispatch bound, like per-element queries), ``large`` makes passes over
arrays larger than the caches (like the character identity's
quadratures), ``fresh`` fills a newly allocated 32 MB array, whose pages
the kernel must first map (like the Haar check, which allocates seven
85 MB element stacks) and ``process`` starts a fresh interpreter that
imports numpy (like the set-up of a workload process, which is mostly
imports).  None calls so21, so a change to so21 cannot move them.
"""

import contextlib
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

REFERENCE_S = {"small": 0.010, "large": 0.010, "fresh": 0.010, "process": 0.100}
TICK_S = 0.5
MIN_TICKS = 6

_SMALL = np.linspace(0.0, 1.0, 128)
_MATRIX = np.eye(3) * 1.0001
_LARGE = np.linspace(0.0, 1.0, 1 << 18)


def _small():
    acc = 0.0
    for _ in range(400):
        acc += float(np.abs(np.exp(1j * _SMALL)).sum())
        acc += float(np.linalg.det(_MATRIX @ _MATRIX))
    return acc


def _large():
    z = np.exp(1j * _LARGE)
    return float(np.arctan2(z.imag, z.real).sum())


def _fresh():
    a = np.ones(1 << 22)  # 32 MB: above the allocator's mmap threshold
    a *= 1.0001
    return float(a.sum())


def process_s(cmd, timeout):
    """Start ``cmd``; returns the seconds to its first line of output, that
    line, and its exit code.  Waits for the process to end."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return elapsed, line, proc.returncode


def _process():
    elapsed, _, code = process_s([sys.executable, "-c", "import numpy; print(flush=True)"], 60)
    if code != 0:
        raise RuntimeError("the process kernel failed")
    return elapsed


def _timed(run):
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


KERNELS = {"small": lambda: _timed(_small), "large": lambda: _timed(_large),
           "fresh": lambda: _timed(_fresh), "process": _process}


def kernel_s(kind) -> float:
    return KERNELS[kind]()


class Calibrated:
    """Scales samples by the kernel times measured around each of them.

    An interval timer also runs the kernel every TICK_S seconds while a
    sample runs inside :meth:`during`, and the sample loses the time spent
    in those runs.  A sample long enough for MIN_TICKS of them is scaled by
    their mean instead: samples of seconds straddle the host's speed
    switches, and the kernel just after such a sample is skewed by the
    memory the sample left behind.  On shorter samples a few runs inside
    read noisier than the medians around them.
    """

    def __init__(self, kind, repeats):
        self.kind = kind
        self.repeats = repeats
        self._before = self._kernel()
        self._ticks: list[float] = []
        self._spent = 0.0
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def _kernel(self):
        return statistics.median(kernel_s(self.kind) for _ in range(self.repeats))

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self._ticks.append(kernel_s(self.kind))
        self._spent += time.perf_counter() - start

    @contextlib.contextmanager
    def during(self):
        """Wrap the timed region of one sample."""
        self._ticks, self._spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def add(self, sample):
        after = self._kernel()
        sample -= self._spent
        if len(self._ticks) >= MIN_TICKS:
            kernel = statistics.mean(self._ticks)
        else:
            kernel = (self._before + after) / 2.0
        self.raw.append(sample)
        self.scaled.append(sample * REFERENCE_S[self.kind] / kernel)
        self._before = after
        self._ticks, self._spent = [], 0.0
