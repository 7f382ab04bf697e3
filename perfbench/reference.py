"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared virtual machine the speed of a core drifts with the load of
other tenants: the same call can take 60% longer an hour later, with CPU
time equal to wall time, so neither longer runs nor CPU time remove it. The
benchmark therefore times this kernel in short bursts between the program's
calls and scales the call times to the speed at which the kernel takes
``NOMINAL_S``:

    time at reference speed = measured time * NOMINAL_S / median kernel time

The kernel does not touch ``balance_lab`` and calls no BLAS or LAPACK, so no
change to the program (or to the BLAS threads it sets) moves it. It is
interpreter work and small numpy calls, whose speed tracked that of the
interpreter-bound calls (``grid``, ``test_refit``) better than a pass over a
large array did.
"""

from statistics import median
from time import perf_counter

import numpy as np

# Seconds one kernel takes at reference speed; the scale of every
# normalised time. Near the kernel's time on a quiet 2-vCPU machine.
NOMINAL_S = 0.010
# Share of the time spent in the program that is spent timing the kernel
# after it, so that the kernel's samples cover the run evenly.
SHARE = 0.1

_SMALL = np.random.default_rng(0).standard_normal(1_000)


def kernel() -> None:
    total = 0
    for i in range(90_000):
        total += i * i
    for _ in range(80):
        total += int(np.argsort(_SMALL)[0])


class Reference:
    """Kernel times collected over a run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample_after(self, seconds: float) -> None:
        """Time the kernel for about ``SHARE * seconds``, at least once."""
        deadline = perf_counter() + SHARE * seconds
        while True:
            start = perf_counter()
            kernel()
            now = perf_counter()
            self.samples.append(now - start)
            if now >= deadline:
                return

    def scale(self) -> float:
        """Factor that turns a time measured during the run into one at
        reference speed."""
        return NOMINAL_S / median(self.samples)
