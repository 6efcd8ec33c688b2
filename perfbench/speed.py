"""The machine's momentary speed, for correcting timings on a shared host.

On a small virtual machine that shares its cores with other tenants, a fixed
piece of work can take anywhere from 1x to 2x its quiet time, in bursts that
last from a fraction of a second to many seconds. Uncorrected medians of
20-second runs moved by 20% from one run to the next.

``probe`` times a fixed calibration kernel, best of three; ``Timing`` probes
before and after each timed operation, and the mean of the two probes is the
operation's calibration time ``c``. An operation that took ``t`` is reported as
``t * quiet / c``, where ``quiet`` is the kernel's fixed quiet time: its
duration at the machine's quiet speed. A change to factorkit moves ``t`` and
not ``c``, so it moves the corrected figure by the same factor.

Contention slows interpreter-bound and BLAS-bound code by different factors,
so each operation is probed with the kernel closest to its own work. Neither
kernel calls factorkit.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

import numpy as np

_RNG = np.random.default_rng(0)
_VALUES = [float(v) for v in _RNG.standard_normal(48)]
_ROWS = _RNG.standard_normal((48, 48))
_VECTOR = _RNG.standard_normal(48)
_SQUARE = _RNG.standard_normal((96, 96))
_BLOCK = _RNG.standard_normal((256, 256))


def _interpreter_kernel() -> None:
    """Float ``repr`` and short numpy calls in a Python loop, as in hashing and parsing."""
    for i in range(48):
        repr(_VALUES[i])
        float(_ROWS[i, :i] @ _VECTOR[:i])
        float((_ROWS[i] - 0.5 * _VECTOR).sum())


def _numeric_kernel() -> None:
    """A small matmul and a pass over a 512 KB array, as in rebuilds and substitutions."""
    (_SQUARE @ _SQUARE).sum()
    (_BLOCK * 0.5 + 1.0).sum()


# kernel, and its best-of-three time in ns on a quiet 2-vCPU Xeon (AVX-512),
# the machine this benchmark was tuned on; it fixes only the scale of the
# corrected figures.
KERNELS = {
    "interpreter": (_interpreter_kernel, 200_000),
    "numeric": (_numeric_kernel, 76_000),
}


def probe(kernel: str) -> int:
    """Best-of-three time of a calibration kernel, in nanoseconds."""
    run, _ = KERNELS[kernel]
    best = None
    for _ in range(3):
        start = perf_counter_ns()
        run()
        elapsed = perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


class Timing:
    """Durations of timed operations, each with the machine's slowdown around it."""

    def __init__(self, kernel: str):
        self.kernel = kernel  # the default calibration kernel
        self.raw_ns: list[int] = []
        self.slowdowns: list[float] = []

    def probe(self, kernel: str | None = None) -> int:
        return probe(kernel or self.kernel)

    def measure(self, fn, *args):
        """Probe, run ``fn(*args)``, probe; returns (result, index of the operation)."""
        before = self.probe()
        start = perf_counter_ns()
        result = fn(*args)
        elapsed = perf_counter_ns() - start
        return result, self.record(elapsed, before)

    def record(self, elapsed_ns: int, before_ns: int, kernel: str | None = None) -> int:
        """Record an operation that ran just after probe ``before_ns`` of ``kernel``; probes again."""
        kernel = kernel or self.kernel
        self.raw_ns.append(elapsed_ns)
        self.slowdowns.append((before_ns + probe(kernel)) / 2 / KERNELS[kernel][1])
        return len(self.raw_ns) - 1

    def corrected_ms(self, indices=None) -> list[float]:
        picked = range(len(self.raw_ns)) if indices is None else indices
        return [self.raw_ns[i] / self.slowdowns[i] / 1e6 for i in picked]

    def raw_ms(self, indices=None) -> list[float]:
        picked = range(len(self.raw_ns)) if indices is None else indices
        return [self.raw_ns[i] / 1e6 for i in picked]

    def slowdown(self) -> float:
        """Median slowdown over the quiet machine: how contended the run was."""
        return statistics.median(self.slowdowns)
