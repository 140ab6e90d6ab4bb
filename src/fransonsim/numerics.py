"""Small numeric helpers: symmetric grids, Simpson weights, FWHM measurement.

Everything here operates on plain numpy arrays; physics units live in the
calling modules.
"""

import numpy as np

from .errors import DomainError


def symmetric_grid(half_span: float, n_points: int) -> np.ndarray:
    """Uniform grid over [-half_span, +half_span], exactly mirror-symmetric.

    Built by reflecting the nonnegative half so that grid[i] == -grid[-1-i]
    bit for bit. ``n_points`` is rounded up to the next odd value (composite
    Simpson needs an odd count).
    """
    if half_span <= 0:
        raise DomainError(f"grid half-span must be positive, got {half_span}")
    n = int(n_points)
    if n < 3:
        raise DomainError(f"need at least 3 grid points, got {n}")
    if n % 2 == 0:
        n += 1
    pos = np.linspace(0.0, half_span, (n - 1) // 2 + 1)
    return np.concatenate([-pos[:0:-1], pos])


def simpson_weights(grid: np.ndarray) -> np.ndarray:
    """Composite Simpson weights for a uniform grid with an odd point count."""
    n = len(grid)
    if n < 3 or n % 2 == 0:
        raise DomainError(f"Simpson rule needs an odd number of points >= 3, got {n}")
    h = grid[1] - grid[0]
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def measure_fwhm(x: np.ndarray, y: np.ndarray) -> float:
    """Full width at half maximum of a sampled curve.

    Crossings are located by linear interpolation between samples. When the
    curve is still above half maximum at the end of its support (a truncated
    or hard-filtered profile), the support edge is taken as the crossing.
    """
    m = float(np.max(y))
    if m <= 0:
        raise DomainError("cannot measure FWHM of a nonpositive curve")
    half = m / 2.0
    i = int(np.argmax(y))

    j = i
    while j + 1 < len(y) and y[j + 1] > half:
        j += 1
    if j + 1 >= len(y):
        xr = x[-1]
    else:
        xr = x[j] + (x[j + 1] - x[j]) * (half - y[j]) / (y[j + 1] - y[j])

    j = i
    while j - 1 >= 0 and y[j - 1] > half:
        j -= 1
    if j - 1 < 0:
        xl = x[0]
    else:
        xl = x[j] + (x[j - 1] - x[j]) * (half - y[j]) / (y[j - 1] - y[j])
    return float(xr - xl)
