"""Accidental-coincidence visibility penalty and Bell-violation significance.

At a mean generated pair rate of alpha pairs per detector gate, accidental
coincidences from uncorrelated pairs wash the raw fringe down to
V_obs = V_intrinsic * (1 - alpha). The CHSH statistic for a two-photon
interference fringe of visibility V is S = 2*sqrt(2)*V, classical bound 2.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

ROOT8 = 2.0 * np.sqrt(2.0)


@dataclass(frozen=True)
class NoiseModel:
    """Multi-pair/accidental noise level: mean generated pairs per gate."""

    alpha: float

    def __post_init__(self):
        if not (0.0 <= self.alpha < 1.0):
            raise DomainError(f"alpha must be in [0, 1), got {self.alpha}")


@dataclass(frozen=True)
class BellResult:
    s_value: float
    sigma_violation: float

    def __post_init__(self):
        if self.s_value > ROOT8 + 1e-12:
            raise DomainError(f"S = {self.s_value} exceeds the quantum bound 2*sqrt(2)")


def observed_visibility(v_intrinsic: float, noise: NoiseModel) -> float:
    """Raw visibility after the accidental penalty: V * (1 - alpha)."""
    if not (0.0 <= v_intrinsic <= 1.0):
        raise DomainError(f"visibility must be in [0, 1], got {v_intrinsic}")
    return v_intrinsic * (1.0 - noise.alpha)


def alpha_sweep(v_intrinsic: float, alphas) -> list:
    """Observed visibility at each pair rate; returns [(alpha, V), ...]."""
    return [(float(a), observed_visibility(v_intrinsic, NoiseModel(a))) for a in alphas]


def bell_significance(v: float, sigma_v: float) -> BellResult:
    """CHSH violation in standard deviations for a measured visibility.

    S = 2*sqrt(2)*v; the violation significance is (S - 2) / (2*sqrt(2)*sigma_v).
    Zero at v = 1/sqrt(2), negative below it.
    """
    if not (0.0 <= v <= 1.0):
        raise DomainError(f"visibility must be in [0, 1], got {v}")
    if not (0 < sigma_v < np.inf):
        raise DomainError(f"sigma_v must be positive and finite, got {sigma_v}")
    s = ROOT8 * v
    return BellResult(s_value=s, sigma_violation=(s - 2.0) / (ROOT8 * sigma_v))
