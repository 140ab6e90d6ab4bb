"""Host-speed calibration: a fixed kernel timed between ops.

On a shared host the speed of a core drifts by a third or more for minutes
at a time, so raw op latencies from runs a few minutes apart differ more than
the regressions the benchmark has to catch. The kernel below is owned by the
benchmark and never changes with fransonsim; it mixes the work fransonsim
does (NumPy random draws, index searches, complex exponentials over a grid,
a pure-Python loop). Timing it right before and right after each op (and
each set-up probe) estimates the host's speed around the op, and

    calibrated latency = latency * NOMINAL_S / mean(kernel before, kernel after)

is the op's latency on a host where the kernel takes NOMINAL_S. Raw latencies
are reported beside the calibrated ones.
"""

from time import perf_counter

import numpy as np

# a round figure near the kernel's time on a quiet core of the 2-vCPU Xeon
# host the benchmark was written on; calibrated seconds are seconds on a host
# where the kernel takes this long. Its arrays stay small (1.6 MB) so that
# the kernel does not raise the run's peak memory.
NOMINAL_S = 0.08
ROUNDS = 30


def kernel():
    """Run the fixed kernel once; returns its wall time in seconds."""
    rng = np.random.default_rng(12345)
    start = perf_counter()
    for _ in range(ROUNDS):
        u = rng.random(200_000)
        hits = np.flatnonzero(u < 0.01)
        np.searchsorted(hits, hits[::7] + 3)
        np.exp(1j * np.linspace(0.0, 50.0, 40_000) ** 2).sum()
        s = 0
        for i in range(12_000):
            s += i & 7
    return perf_counter() - start
