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


def rate_tolerance(cfg, phis):
    """A bound on |fringe_rates - coincidence_rate| at each phi in phis.

    Notation: eps = 2^-52, u = eps / 2, n grid points, M = sum |w| S the
    quadrature mass (M >= I, |Z| and |c_min|, up to rounding), P = max
    |phase_k| of the stored summed phase, o the pump offset, phi* =
    cfg.peak_phase, alpha = phi* + pi as the double fringe_rates forms, B
    the largest of |phi| over phis, |phi*| and |alpha|, and E(a) = (I +
    Re[e^{ia} Z]) / 2 the exact grid sum at a = phi + o, with I and Z exact
    sums. Terms are in units of eps M.

    - A rate quadrature at phi is E(fl(phi + o)) within n / 2 + 9 + T / 4,
      T = |phi + o| + P: the Simpson dot gamma_n M, n / 2 in any summation
      order and on any BLAS thread count; cos^2 within 4 ulp, squared and
      times S, 9; theta rounded, with |d cos^2(t/2) / dt| <= 1/2, T / 4.
      Rounding phi + o moves E by |phi + o| / 4 more. This holds at phi for
      coincidence_rate, and at alpha for the anchor c_min.
    - With Y = |Z_c| e^{-i(alpha + o - pi)}, exact algebra gives (I - |Z_c|)
      / 2 + |Z_c| sin^2((phi - alpha) / 2) = (I + Re[e^{i(phi + o)} Y]) / 2
      = G(phi). So the closed form in exact arithmetic is c_min + G(phi) -
      G(alpha), and as |G - E| <= |Y - Z| / 2 everywhere, it is E(phi + o)
      within |Y - Z| plus c_min's error.
    - |Z_c - Z| <= sqrt(2) (n / 2 + 4.5): e^{-i phase} within 4 ulp per
      component, times S, and the dot. |Y - Z_c| <= |Z_c| |alpha + o - pi +
      arg Z_c|, the rounding of arg (4 ulp of at most pi: 4 pi), of fl(pi)
      (1) and of the sums -arg - o and phi* + fl(pi) (B / 2 each).
    - Evaluating the form: phi - alpha rounded, with |d sin^2(x/2) / dx| <=
      1/2, B / 2; the sine within 4 ulp, squared, |Z_c| within 1 ulp and
      the product, 11; the sum with c_min, 1. The clip to [0, 1] is
      1-Lipschitz, and both rates are clipped.

    Together (1 + sqrt(2) / 2) n + 9 + 9 + 4.5 sqrt(2) + 4 pi + 1 + 11 + 1
    plus phase terms of at most 2.5 B + |o| + P / 2; the constants round up
    to 1.71 n + 50, whose spare covers the second-order terms. Underflow
    adds at most 2^-1074 per operation. The same bound holds the sweep's
    extrema: the quadratures at phi* and alpha are each within it of
    sinusoids that peak and dip there exactly, so every rate lies between
    them up to it.
    """
    s = cfg.spectrum
    peak = cfg.peak_phase
    big = max(float(np.abs(np.asarray(phis, dtype=float)).max(initial=0.0)),
              abs(peak), abs(peak + np.pi))
    max_phase = float(np.abs(cfg.summed_phase).max())
    terms = (1.71 * s.weights.size + 50.0 + 2.5 * big
             + abs(cfg.pump_phase_offset_rad) + max_phase / 2.0)
    return np.finfo(float).eps * float(np.abs(s.weights) @ s.density) * terms


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
