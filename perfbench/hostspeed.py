"""Host-speed normalisation of the gated times.

The benchmark host is a few vCPUs of a shared machine, and their speed
is not constant: the same fixed training loop runs anywhere from 300 to
640 steps/s, switching between a fast and a slow mode every few
seconds.  A 20 s run can sit in either mode for most of its time, so raw
throughputs of identical code spread by 20-35% from run to run.

A fixed reference kernel (small numpy products and ``tanh`` in a Python
loop, the same mix of interpreter and ufunc work as the workloads, and
no code of the program under test) slows down with the host by the same
factor.  :class:`SpeedMeter` times the work in short blocks with the
kernel run between them, and scales each block's wall time by
``REFERENCE_KERNEL_S`` over the mean of the kernel times on its two
sides.  The result is the time the block would have taken with the
host at its reference speed: a change to the program moves it in full,
a change of host mode does not.  Raw figures are printed beside the
scaled ones.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

# One kernel call on the reference host (2-vCPU Intel Xeon VM, numpy on
# OpenBLAS with one thread) in its fast mode.  Only a unit: scaled
# figures read as "at this host's fast speed"; a slower machine scales
# every figure by the same factor.
REFERENCE_KERNEL_S = 2.3e-3


class SpeedMeter:
    """Blocks of timed work, each scaled to the reference host speed.

    Call :meth:`start` before the first block and :meth:`mark` at the
    end of each; the kernel runs inside ``mark``, outside every block.
    A block belongs to one *instance* (a set of inputs built from the
    seed); :meth:`rate` gives every instance the same weight.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((64, 64)) * 0.1
        self._x = rng.standard_normal((32, 64))
        for _ in range(5):
            self.kernel_s()
        self.blocks: List[Tuple[int, float, float, float]] = []  # (instance, ops, wall_s, scaled_s)
        self.kernels: List[float] = []
        self._kernel = 0.0
        self._t = 0.0

    def kernel_s(self) -> float:
        """One reference kernel: half small GEMMs and ``tanh``, half pure
        interpreter work.  Either half alone drifts (by about 5%, in
        opposite directions) against the workloads as the host changes
        mode; the mix tracks them within 2%."""
        y, a = self._x, self._a
        counts: dict = {}
        t0 = time.perf_counter()
        for _ in range(100):
            y = np.tanh(y @ a)
        for i in range(10000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        return time.perf_counter() - t0

    def start(self) -> None:
        self._kernel = self.kernel_s()
        self.kernels.append(self._kernel)
        self._t = time.perf_counter()

    def mark(self, ops: float = 1.0, instance: int = 0) -> float:
        """Close the block of ``ops`` operations on ``instance`` begun at
        the last ``start``/``mark``; returns its end time."""
        end = time.perf_counter()
        kernel = self.kernel_s()
        self.kernels.append(kernel)
        wall = end - self._t
        scale = REFERENCE_KERNEL_S / (0.5 * (self._kernel + kernel))
        self.blocks.append((instance, ops, wall, wall * scale))
        self._kernel = kernel
        self._t = time.perf_counter()
        return end

    def time(self, work):
        """Run ``work()`` as one block; returns its result."""
        self.start()
        out = work()
        self.mark()
        return out

    def median_scaled_s(self) -> float:
        return float(np.median([block[3] for block in self.blocks]))

    def _rate(self, column: int) -> float:
        per_instance: Dict[int, List[float]] = {}
        for block in self.blocks:
            per_instance.setdefault(block[0], []).append(block[1] / block[column])
        # Equal work on every instance: the harmonic mean of their rates.
        medians = [float(np.median(rates)) for rates in per_instance.values()]
        return len(medians) / sum(1.0 / m for m in medians)

    def rate(self) -> float:
        """Scaled ops per second: each instance's median block rate,
        combined as if every instance did the same number of ops."""
        return self._rate(3)

    def raw_rate(self) -> float:
        """:meth:`rate` from the unscaled wall times."""
        return self._rate(2)

    def host_speed(self) -> float:
        """Median kernel speed relative to the reference (1 = fast mode)."""
        return REFERENCE_KERNEL_S / float(np.median(self.kernels))
