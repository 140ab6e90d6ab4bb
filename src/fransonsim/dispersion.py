"""Fibers, fiber stacks, and the differential dispersion phase of one arm.

The phase imbalance an unbalanced interferometer imprints on a photon of
detuning omega is a polynomial in omega with no constant or linear term:

    phi(omega) = omega^2/2 * d(beta2 L) + omega^3/6 * d(beta3 L)

where d(beta_n L) is the long-minus-short difference of accumulated n-th
order dispersion. Common delay and the path delay difference are handled
separately by the interferometer configuration, so they never appear here.

Unit conventions (converted at the stack boundary, exact scale factors):
beta2 in fs^2/mm and beta3 in fs^3/mm per fiber, lengths in mm, stack
moments in ps^2 and ps^3, detunings in rad/ps.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError

SPEED_OF_LIGHT_MM_PER_NS = 299.792458

FS2_PER_MM_TO_PS2 = 1e-6  # (fs^2) -> (ps^2)
FS3_PER_MM_TO_PS3 = 1e-9  # (fs^3) -> (ps^3)


@dataclass(frozen=True)
class FiberSpec:
    """Dispersion parameters of one fiber type.

    group_index only matters for delay bookkeeping (the length designer);
    1.468 is a standard telecom value and applies to both stock fibers
    unless overridden.
    """

    name: str
    beta2_fs2_per_mm: float
    beta3_fs3_per_mm: float = 0.0
    group_index: float = 1.468

    def __post_init__(self):
        if not (1.0 < self.group_index < math.inf):
            raise ConfigurationError(
                f"group index must exceed 1 and be finite, got {self.group_index}"
            )
        if not (math.isfinite(self.beta2_fs2_per_mm) and math.isfinite(self.beta3_fs3_per_mm)):
            raise ConfigurationError("dispersion coefficients must be finite")


@dataclass(frozen=True)
class FiberSegment:
    """A physical piece of fiber: a spec and a length in mm."""

    fiber: FiberSpec
    length_mm: float

    def __post_init__(self):
        if self.length_mm < 0:
            raise DomainError(f"segment length must be >= 0, got {self.length_mm}")


@dataclass(frozen=True)
class PathStack:
    """Ordered fiber segments forming one interferometer path."""

    segments: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))

    def beta2_l_ps2(self) -> float:
        return sum(
            s.fiber.beta2_fs2_per_mm * s.length_mm for s in self.segments
        ) * FS2_PER_MM_TO_PS2

    def beta3_l_ps3(self) -> float:
        return sum(
            s.fiber.beta3_fs3_per_mm * s.length_mm for s in self.segments
        ) * FS3_PER_MM_TO_PS3

    def group_delay_ns(self) -> float:
        return sum(
            s.fiber.group_index * s.length_mm for s in self.segments
        ) / SPEED_OF_LIGHT_MM_PER_NS


def stack(*segments) -> PathStack:
    """Convenience constructor: stack((fiber, length_mm), ...)."""
    return PathStack(tuple(FiberSegment(f, l) for f, l in segments))


@dataclass(frozen=True)
class DifferentialDispersion:
    """Long-minus-short accumulated dispersion of one arm."""

    d_beta2_l_ps2: float = 0.0
    d_beta3_l_ps3: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.d_beta2_l_ps2) and math.isfinite(self.d_beta3_l_ps3)):
            raise ConfigurationError("differential dispersion must be finite")


def stack_moments(long: PathStack, short: PathStack) -> DifferentialDispersion:
    """Differential dispersion moments between a long and a short path."""
    return DifferentialDispersion(
        d_beta2_l_ps2=long.beta2_l_ps2() - short.beta2_l_ps2(),
        d_beta3_l_ps3=long.beta3_l_ps3() - short.beta3_l_ps3(),
    )


# omega**3 stays finite below cbrt(DBL_MAX), about 5.6e102
_CUBE_FINITE_BELOW = 5e102


def differential_phase(d: DifferentialDispersion, omega):
    """Spectral phase (rad) at detuning omega (rad/ps); vectorized.

    With d(beta3 L) = +-0.0 the cubic term omega**3 / 6 * d(beta3 L) is a
    signed zero, and omega * d(beta3 L) is the same signed zero without the
    cube, a libm pow per point. Where omega**3 would overflow (or omega is
    NaN) the term is NaN, so the cube is kept there.
    """
    omega = np.asarray(omega, dtype=float)
    d3 = d.d_beta3_l_ps3
    if d3 == 0.0 and np.abs(omega).max(initial=0.0) < _CUBE_FINITE_BELOW:
        cubic = omega * d3
    else:
        cubic = omega**3 / 6.0 * d3
    out = omega**2 / 2.0 * d.d_beta2_l_ps2 + cubic
    return out if out.ndim else float(out)


def temporal_spread(d: DifferentialDispersion, bandwidth_radps: float) -> float:
    """First-order group-delay spread (fs) across a band of the given width.

    |d(beta2 L)| * bandwidth; the quadratic spectral phase walks the group
    delay off by this much between band center and band edge.
    """
    if bandwidth_radps <= 0:
        raise DomainError(f"bandwidth must be positive, got {bandwidth_radps}")
    return abs(d.d_beta2_l_ps2) * bandwidth_radps * 1e3  # ps -> fs


# Stock fibers: standard single-mode fiber and a commercial low-dispersion
# fiber, both at 1560 nm.
SMF = FiberSpec("SMF", beta2_fs2_per_mm=-22.5)
LEAF = FiberSpec("LEAF", beta2_fs2_per_mm=-6.19)

BUILTIN_FIBERS = {"SMF": SMF, "LEAF": LEAF}
