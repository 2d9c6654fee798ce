"""Machine-speed reference for timing on a shared host.

On a shared virtual machine the same code can run 1.3-1.7x slower for
stretches of seconds to minutes, and every op slows alike.  Raw medians
of two runs then differ by the machine's state, not by the program.  A
fixed reference kernel is timed after every 20 ms of op time (after every
op that takes longer) and after every set-up build.
It does small dense linear algebra plus a Python loop, like the library's
ops, and does not call the library.  Every timing is rescaled by
REFERENCE_NS over the median of the reference timings nearest to it.
The result is the time on a machine where the kernel takes exactly 1 ms.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

REFERENCE_NS = 1_000_000
WINDOW = 15   # reference timings per local median: about 0.3 s of ops


class SpeedReference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
        self.samples: list = []   # kernel times in ns, in the order taken

    def sample(self) -> int:
        """Time the kernel once and return the index of that timing."""
        a = self._a
        start = perf_counter_ns()
        for _ in range(3):
            np.linalg.qr(a)
            np.linalg.eigh(a @ a.conj().T)
        acc = 0
        for i in range(2000):
            acc += i * i
        self.samples.append(perf_counter_ns() - start)
        return len(self.samples) - 1

    def factors(self) -> np.ndarray:
        """Rescaling factor for each timing: REFERENCE_NS / local median."""
        x = np.asarray(self.samples, dtype=float)
        half = min(WINDOW, x.size) // 2
        width = 2 * half + 1
        local = np.median(sliding_window_view(np.pad(x, half, mode="edge"), width), axis=1)
        return REFERENCE_NS / local
