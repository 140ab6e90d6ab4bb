"""Shared construction helpers for the test suite."""

import os
import subprocess
import sys

import numpy as np

from fransonsim import FiberSpec, MZIConfig, PathStack, coincidence_rate, stack

DELTA_T_NS = 4.77


def arm_with_dispersion(d_beta2_ps2=0.0, d_beta3_ps3=0.0, delta_t_ns=DELTA_T_NS, phase_rad=0.0):
    """One-segment arm whose differential moments equal the given values.

    A synthetic 1 mm fiber carries the whole target: beta2 in fs^2/mm terms
    is d_beta2_ps2 * 1e6, beta3 is d_beta3_ps3 * 1e9.
    """
    fiber = FiberSpec(
        name="synthetic",
        beta2_fs2_per_mm=d_beta2_ps2 * 1e6,
        beta3_fs3_per_mm=d_beta3_ps3 * 1e9,
    )
    return MZIConfig(
        long=stack((fiber, 1.0)),
        short=PathStack(()),
        delta_t_ns=delta_t_ns,
        phase_rad=phase_rad,
    )


def run_python(code: str, timeout: float = 600) -> str:
    """Run ``code`` in a fresh interpreter and return its standard output.

    A child that outlives ``timeout`` seconds is killed and the call raises.

    The child imports fransonsim from this process's path. BLAS is pinned to
    one thread: OpenBLAS splits long dot products across threads, which moves
    the last bit of the fringe amplitude and hence the printed c_min.
    """
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(p for p in sys.path if p),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=timeout
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loop_fringe_csv(cfg, points: int) -> str:
    """The fringe CSV with one rate quadrature per row, as it was written
    before rows were printed from the fringe amplitude; kept as the reference."""
    lines = ["phi_rad,coincidence_rate\n"]
    for phi in np.linspace(0.0, 2.0 * np.pi, points, endpoint=False):
        lines.append(f"{phi:.8e},{coincidence_rate(cfg, phi):.8e}\n")
    return "".join(lines)


# golden ratio step for the 1D section search
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(f, lo: float, hi: float, tol: float = 1e-12):
    """Locate the maximum of a smooth unimodal function on [lo, hi].

    Returns (x, f(x)). Plain golden-section search; ~60 iterations for
    tol=1e-12 on an O(1) interval.

    A frozen copy of the search the phase sweep ran with a quadrature at
    every step, before Z placed its extrema; the full-scan reference in
    tests/test_interference.py still refines with it.
    """
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)
