"""Machine-speed gauge for timing on a shared, noisy host.

On a host shared with other tenants the same code runs up to about 1.8x
slower from one second to the next (contention for the core and its caches,
not preemption: CPU time tracks wall time). A fixed kernel, timed between
ops, samples that speed. Op times are scaled by ``REFERENCE_S / kernel
time``, i.e. reported in milliseconds at the speed at which the kernel takes
``REFERENCE_S``. The kernel is benchmark code only (stdlib and NumPy/SciPy),
so a change to myetrends cannot move it. NumPy and SciPy are imported only
by the kernel that uses them, so that a set-up imports no more than the
program under test does.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction


def _python_kernel() -> None:
    """Interpreter-bound work like design, series handling and the CLI."""
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, i + 1)
    table = {str(i): i for i in range(300)}
    sorted(table, reverse=True)


def _numpy_kernel() -> None:
    """Array work like one batch of the Monte Carlo: bits, uniforms, quantiles, dot."""
    import numpy as np
    from scipy.special import ndtri

    raw = np.random.Philox(key=1).random_raw(1 << 15)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    ndtri(u).reshape(-1, 8) @ np.linspace(-1.0, 1.0, 8)


def _process_kernel() -> None:
    """A bare interpreter start, like every op of cli_cold and every set-up."""
    subprocess.run([sys.executable, "-c", "pass"], stdin=subprocess.DEVNULL, check=True)


# kernel -> (callable, its time in seconds on an uncontended core of the
# reference machine: 2-vCPU Intel Xeon at 2.1 GHz, Python 3.11, NumPy 2.4)
KERNELS = {
    "python": (_python_kernel, 0.30e-3),
    "numpy": (_numpy_kernel, 1.0e-3),
    "process": (_process_kernel, 40e-3),
}


@contextmanager
def one_cpu():
    """Pin this process, and the children it starts, to one CPU.

    A gauge only describes the CPU it runs on; pinning keeps a child and
    the gauge samples around it on the same CPU. Only for work that runs
    one process at a time.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class SpeedGauge:
    """Samples machine speed with one kernel just before and just after each
    op; gives the factor that scales the op's time to the reference speed.

    Each sample lasts 5% of the op's time, and at least 1 ms. The sample
    before an op is sized by that op's time in the previous cycle; the
    sample after the previous op stands in for it when it lasted as long.
    """

    SHARE = 0.05

    def __init__(self, kernel: str) -> None:
        self._kernel, self._reference_s = KERNELS[kernel]
        self._before = 0.0
        self._after = (0.0, 0.0)  # (mean kernel time, sampling time) after the last op

    def sample(self, at_least_s: float) -> tuple[float, float]:
        """Mean kernel time over repeats lasting at least ``at_least_s``,
        and the time those repeats took."""
        n = 0
        t0 = time.perf_counter()
        while True:
            self._kernel()
            n += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= at_least_s:
                return elapsed / n, elapsed

    def before(self, expected_op_s: float) -> None:
        needed = max(1e-3, self.SHARE * expected_op_s)
        kernel_s, sampled_s = self._after
        if sampled_s < needed:
            kernel_s, _ = self.sample(needed)
        self._before = kernel_s

    def factor(self, op_s: float) -> float:
        """Scale factor for an op of ``op_s`` seconds that just ended: the
        reference time over the mean kernel time before and after it."""
        self._after = self.sample(max(1e-3, self.SHARE * op_s))
        return self._reference_s / ((self._before + self._after[0]) / 2)
