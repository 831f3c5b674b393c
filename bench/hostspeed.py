"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of identical code drifts by up to 2x within
seconds, and CPU time drifts with wall time, so neither a run's median nor
its CPU time is comparable between runs. The benchmark therefore times a
fixed kernel, which uses no hfo code, right before and right after every
timed piece of work. The kernel mixes what hfo's jobs do: a bytecode loop,
small tuple allocations, and 20x20 ``expm`` and ``solve`` calls. A time
``t`` measured between kernel blocks ``before`` and ``after`` is reported as

    t * REFERENCE_S / median(before + after)

that is, in seconds of a host on which the kernel takes ``REFERENCE_S``.
A change to hfo moves ``t`` and leaves the kernel alone, so the scaled time
moves by the same share; a change of host speed moves both and cancels.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
from scipy.linalg import expm

REFERENCE_S = 4e-3  # kernel time on a 2-core VM (Python 3.11, numpy 2.4)
BLOCK = 3  # kernel runs per block
LOOP = 20_000
LINALG_CALLS = 40
TUPLES = 3_000
WARMUP_BLOCKS = 5


class HostSpeed:
    """Times the calibration kernel and scales measured times by it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = 0.01 * rng.standard_normal((20, 20))
        g = rng.standard_normal((20, 20))
        self._m = g @ g.T + 20.0 * np.eye(20)
        self._b = rng.standard_normal(20)
        self.kernel_s: list = []  # every kernel time, for the result file
        for _ in range(WARMUP_BLOCKS):
            self._run_block()

    def _kernel(self) -> float:
        t0 = perf_counter()
        acc = 0.0
        for i in range(LOOP):
            acc += (i % 7) * 0.5
        for _ in range(LINALG_CALLS):
            expm(self._a)
            np.linalg.solve(self._m, self._b)
        pairs = [(i, float(i)) for i in range(TUPLES)]
        del pairs
        return perf_counter() - t0

    def _run_block(self) -> list:
        return [self._kernel() for _ in range(BLOCK)]

    def block(self) -> list:
        """Kernel times of one block, recorded in ``kernel_s``."""
        times = self._run_block()
        self.kernel_s.extend(times)
        return times

    @staticmethod
    def scale(before: list, after: list) -> float:
        """Factor from wall seconds between two blocks to reference seconds."""
        return REFERENCE_S / statistics.median(before + after)
