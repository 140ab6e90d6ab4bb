"""Solve fiber segment lengths for a target differential dispersion.

Given a fixed interferometer path delay difference and a known short path,
two long-path fiber types with distinct beta2 give a square linear system:

  delay:       sum_j n_j L_j / c - n_short L_short / c = delta_t
  dispersion:  sum_j beta2_j L_j - beta2_short L_short = target

Solving it is how a fiber arm is built whose differential dispersion is
null (local cancellation) or exactly opposite to the remote arm's (nonlocal
cancellation). Lengths must come out nonnegative to be buildable.
"""

from dataclasses import dataclass

import numpy as np

from .dispersion import SPEED_OF_LIGHT_MM_PER_NS, FiberSpec, stack, stack_moments
from .errors import ConfigurationError, DomainError, InfeasibleDesignError

DISPERSION_RESIDUAL_TOL_PS2 = 1e-5
DELAY_RESIDUAL_TOL_NS = 1e-3  # 1 ps


@dataclass(frozen=True)
class DesignProblem:
    target_d_beta2_l_ps2: float
    delta_t_ns: float
    short_fiber: FiberSpec
    long_fibers: tuple
    short_length_mm: float

    def __post_init__(self):
        object.__setattr__(self, "long_fibers", tuple(self.long_fibers))
        if len(self.long_fibers) != 2:
            raise ConfigurationError(
                f"exactly 2 long-path fiber types required, got {len(self.long_fibers)}"
            )
        if not (0 < self.delta_t_ns < np.inf):
            raise ConfigurationError(f"delta_t must be positive and finite, got {self.delta_t_ns}")
        if not (0 <= self.short_length_mm < np.inf):
            raise DomainError(
                f"short_length_mm must be >= 0 and finite, got {self.short_length_mm}"
            )
        if not np.isfinite(self.target_d_beta2_l_ps2):
            raise DomainError(
                f"target_d_beta2_l_ps2 must be finite, got {self.target_d_beta2_l_ps2}"
            )


@dataclass(frozen=True)
class DesignSolution:
    fibers: tuple  # fiber names, aligned with lengths_mm
    lengths_mm: tuple
    achieved_d_beta2_l_ps2: float
    achieved_delay_ns: float


def solve_lengths(problem: DesignProblem) -> DesignSolution:
    """Solve the 2x2 delay/dispersion system for the long-path lengths.

    Raises ConfigurationError when the system is singular (the two fibers
    are not independent, e.g. equal beta2 with equal group index) and
    InfeasibleDesignError when the unique solution needs a negative length;
    the unconstrained solution rides along on the error for diagnosis.
    """
    f1, f2 = problem.long_fibers
    fs = problem.short_fiber
    c = SPEED_OF_LIGHT_MM_PER_NS

    a = np.array(
        [
            [f1.group_index, f2.group_index],
            [f1.beta2_fs2_per_mm, f2.beta2_fs2_per_mm],
        ]
    )
    rhs = np.array(
        [
            c * problem.delta_t_ns + fs.group_index * problem.short_length_mm,
            problem.target_d_beta2_l_ps2 * 1e6  # ps^2 -> fs^2
            + fs.beta2_fs2_per_mm * problem.short_length_mm,
        ]
    )

    # in Python floats, which overflow to inf without a warning
    (n1, n2), (b1, b2) = a.tolist()
    det = n1 * b2 - n2 * b1
    scale = abs(n1 * b2) + abs(n2 * b1)
    if scale == 0 or abs(det) < 1e-9 * scale:
        raise ConfigurationError(
            f"singular design system: fibers {f1.name!r} and {f2.name!r} do not "
            "span delay and dispersion independently (equal beta2?)"
        )
    lengths = np.linalg.solve(a, rhs)
    if not (scale < np.inf and np.isfinite(lengths).all()):  # past the float range
        raise ConfigurationError(
            f"ill-conditioned design system: group indices and beta2 of {f1.name!r}, "
            f"{f2.name!r} and {fs.name!r} overflow the solve"
        )

    if np.any(lengths < -1e-9):
        raise InfeasibleDesignError(
            f"no nonnegative-length solution: unconstrained lengths are "
            f"{lengths[0]:.3f} mm {f1.name}, {lengths[1]:.3f} mm {f2.name}",
            unconstrained_lengths_mm=(float(lengths[0]), float(lengths[1])),
        )
    lengths = np.maximum(lengths, 0.0)

    long_stack = stack((f1, float(lengths[0])), (f2, float(lengths[1])))
    short_stack = stack((fs, problem.short_length_mm))
    achieved = stack_moments(long_stack, short_stack)
    delay = long_stack.group_delay_ns() - short_stack.group_delay_ns()

    residual = achieved.d_beta2_l_ps2 - problem.target_d_beta2_l_ps2
    # both checks are written so that a NaN residual fails them
    if not abs(residual) <= DISPERSION_RESIDUAL_TOL_PS2:
        raise ConfigurationError(
            f"solver residual {residual:.3e} ps^2 exceeds tolerance; system is badly conditioned"
        )
    if not abs(delay - problem.delta_t_ns) <= DELAY_RESIDUAL_TOL_NS:
        raise ConfigurationError(
            f"delay residual {(delay - problem.delta_t_ns) * 1e3:.3f} ps exceeds 1 ps"
        )

    return DesignSolution(
        fibers=(f1.name, f2.name),
        lengths_mm=(float(lengths[0]), float(lengths[1])),
        achieved_d_beta2_l_ps2=achieved.d_beta2_l_ps2,
        achieved_delay_ns=delay,
    )
