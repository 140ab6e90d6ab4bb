"""Two-photon coincidence rate and visibility of a dispersive Franson setup.

Each arm is an unbalanced Mach-Zehnder interferometer; post-selected
coincidences interfere with the summed phase

    theta(omega) = phi_tilde + pump_offset - [phi_s(omega) + phi_i(-omega)]

where phi_tilde is the sum of the two arm phases, the pump offset is the
folded constant carrier phase, and phi_s, phi_i are the arms' differential
dispersion phases evaluated at anticorrelated detunings. The coincidence
rate is the cos^2 average of theta/2 over the biphoton spectral density,

    C(phi_tilde) = integral S(omega) cos^2(theta(omega)/2) domega,

a value in [0, 1]. Fringe visibility is (Cmax - Cmin)/(Cmax + Cmin); it
depends only on the summed dispersion phase, which is what makes nonlocal
cancellation (phi_i = -phi_s) possible, and it is strictly independent of
any dispersion common to both photons before the interferometers.

coincidence_rate runs that quadrature at one phase; fringe_rates, which the
fringe CSV and the Monte Carlo use, gives the same rate at many phases in
closed form.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dispersion import DifferentialDispersion, PathStack, differential_phase, stack_moments
from .errors import ConfigurationError, ContractViolationError, DomainError
from .spectra import JointSpectrum

# the two arms' path delay differences must match to better than the
# biphoton correlation time for the post-selected terms to interfere
DELAY_MATCH_TOL_NS = 1e-3

PHASE_SWEEP = "sweep"
COMPLEX_INTEGRAL = "integral"


@dataclass(frozen=True)
class MZIConfig:
    """One arm: long/short fiber stacks, path delay difference, phase knob."""

    long: PathStack
    short: PathStack
    delta_t_ns: float
    phase_rad: float = 0.0

    def __post_init__(self):
        if not (0 < self.delta_t_ns < math.inf):
            raise ConfigurationError(f"delta_t must be positive and finite, got {self.delta_t_ns}")
        if not math.isfinite(self.phase_rad):
            raise ConfigurationError("arm phase must be finite")

    def differential(self) -> DifferentialDispersion:
        return stack_moments(self.long, self.short)


@dataclass(frozen=True)
class FransonConfig:
    """Full experiment: two arms, the shared spectrum, folded constants.

    The summed dispersion phase on the spectrum grid (``summed_phase``), the
    number of its leading points that determine it (``distinct_points``),
    the fringe amplitude Z (``amplitude``), the phase of the fringe maximum
    (``peak_phase``) and the unclipped rate at the minimum (``anchor_rate``)
    are computed once per config, on first use, and every coincidence rate,
    fringe rate and visibility reads them. They cannot go stale: the config
    and its arms are frozen, the spectrum's arrays are read-only, and
    ``dataclasses.replace`` builds a new instance with an empty cache.

    The spectrum grid mirrors omega bit for bit, so a summed phase with only
    even dispersion orders (no beta3 difference between the arms, as with
    the built-in fibers) is a bitwise palindrome, and its first
    (n + 1) // 2 points determine it. The rate and Z quadratures then take
    their cosine or exponential on those points only and mirror the result;
    otherwise distinct_points is n and nothing is folded. The test compares
    bits, not values: -0.0 == +0.0, but exp(-1j * phi) at phi = -0.0 and
    +0.0 differ in the sign of their imaginary parts.
    """

    signal_arm: MZIConfig
    idler_arm: MZIConfig
    spectrum: JointSpectrum
    pump_phase_offset_rad: float = 0.0
    source_common_dispersion: DifferentialDispersion = field(
        default_factory=DifferentialDispersion
    )

    def __post_init__(self):
        if not math.isfinite(self.pump_phase_offset_rad):
            raise ConfigurationError(
                f"pump_phase_offset_rad must be finite, got {self.pump_phase_offset_rad}"
            )
        mismatch = abs(self.signal_arm.delta_t_ns - self.idler_arm.delta_t_ns)
        if mismatch > DELAY_MATCH_TOL_NS:
            raise ConfigurationError(
                f"arm delays differ by {mismatch * 1e3:.3f} ps; must agree "
                f"within {DELAY_MATCH_TOL_NS * 1e3:.0f} ps"
            )
        if not self.spectrum.is_normalized():
            raise ContractViolationError(
                f"spectrum is not normalized (integral {self.spectrum.integral()!r})"
            )

    def phi_tilde(self) -> float:
        return self.signal_arm.phase_rad + self.idler_arm.phase_rad

    @cached_property
    def summed_phase(self) -> np.ndarray:
        """Read-only total_phase over spectrum.omega."""
        phi = total_phase(self, self.spectrum.omega)
        phi.setflags(write=False)
        return phi

    @cached_property
    def distinct_points(self) -> int:
        """Leading points of summed_phase that determine it by mirroring."""
        bits = self.summed_phase.view(np.int64)
        n = bits.size
        return (n + 1) // 2 if np.array_equal(bits, bits[::-1]) else n

    @cached_property
    def amplitude(self) -> complex:
        """fringe_amplitude of this config."""
        return fringe_amplitude(self)

    @cached_property
    def peak_phase(self) -> float:
        """phi* = -arg Z - offset, the fringe maximum; NaN (a non-finite summed
        phase, every rate a NaN quadrature clipped to 0) raises."""
        peak = float(-np.angle(self.amplitude) - self.pump_phase_offset_rad)
        if not math.isfinite(peak):
            raise ContractViolationError("degenerate fringe: Cmax + Cmin <= 0")
        return peak

    @cached_property
    def anchor_rate(self) -> float:
        """The rate quadrature at peak_phase + pi, not clipped to [0, 1]."""
        return _rate_quadrature(self, self.peak_phase + np.pi)


@dataclass(frozen=True)
class VisibilityResult:
    """Fringe extrema and contrast of the coincidence rate."""

    visibility: float
    c_max: float
    c_min: float
    phase_at_max_rad: float
    method: str


def total_phase(cfg: FransonConfig, omega):
    """Summed dispersion phase phi_s(omega) + phi_i(-omega); vectorized.

    The anticorrelated idler detuning is what cancels odd dispersion orders
    shared by the arms and lets opposite-sign even orders null each other.
    The source_common_dispersion field never enters: a phase common to every
    ket before the interferometers drops out of the coincidence integrand.
    """
    omega = np.asarray(omega, dtype=float)
    phi = differential_phase(cfg.signal_arm.differential(), omega) + differential_phase(
        cfg.idler_arm.differential(), -omega
    )
    return phi if np.ndim(phi) else float(phi)


def _folded(f, cfg: FransonConfig) -> np.ndarray:
    """f(summed_phase) at every grid point, evaluating f on distinct_points only.

    f must act elementwise. The values past distinct_points are the leading
    ones in reverse; with distinct_points = n there are none.
    """
    phase = cfg.summed_phase
    head = f(phase[: cfg.distinct_points])
    out = np.empty(phase.size, dtype=head.dtype)
    out[: head.size] = head
    out[head.size :] = head[: phase.size - head.size][::-1]
    return out


def coincidence_rate(cfg: FransonConfig, phi_tilde: float | None = None) -> float:
    """Post-selected coincidence rate at a summed phase setting, in [0, 1].

    When phi_tilde is omitted the arms' configured phases are summed. The
    cos^2 factor is evaluated on the distinct half of a palindromic summed
    phase and mirrored (see FransonConfig); the quadrature itself always
    runs over the full grid, in grid order.
    """
    if phi_tilde is None:
        phi_tilde = cfg.phi_tilde()
    if not math.isfinite(phi_tilde):
        raise DomainError(f"phi_tilde must be finite, got {phi_tilde}")
    return min(1.0, max(0.0, _rate_quadrature(cfg, phi_tilde)))


def _rate_quadrature(cfg: FransonConfig, phi_tilde: float) -> float:
    """The cos^2 rate integral at phi_tilde, before the clip to [0, 1]."""
    s = cfg.spectrum
    shift = phi_tilde + cfg.pump_phase_offset_rad
    fringe = _folded(lambda phase: np.cos((shift - phase) / 2.0) ** 2, cfg)
    return float(s.weights @ (s.density * fringe))


def fringe_amplitude(cfg: FransonConfig) -> complex:
    """Complex fringe amplitude Z = integral S(omega) e^{-i total_phase}.

    C(phi_tilde) = 1/2 + Re[e^{i(phi_tilde + offset)} Z] / 2, so |Z| is the
    visibility and -arg(Z) - offset locates the fringe maximum. Each call
    runs the quadrature; cfg.amplitude holds its result per config.
    """
    s = cfg.spectrum
    return complex(s.weights @ (s.density * _folded(lambda phase: np.exp(-1j * phase), cfg)))


def fringe_rates(cfg: FransonConfig, phis) -> np.ndarray:
    """coincidence_rate at each finite phi, to rounding, in closed form.

    C(phi) = clip(c_min + |Z| sin^2((phi - phi* - pi) / 2), 0, 1) is the
    sinusoid (I + Re[e^{i(phi + offset)} Z]) / 2 anchored on c_min =
    cfg.anchor_rate, summed directly at phi* + pi: it cancels no digits
    near the dark fringe, and at phi* + pi it is c_min exactly.
    """
    phis = np.asarray(phis, dtype=float)
    if not np.isfinite(phis).all():
        raise DomainError(f"phi_tilde must be finite, got {phis[~np.isfinite(phis)][0]}")
    anchor = cfg.peak_phase + np.pi
    swing = abs(cfg.amplitude) * np.sin((phis - anchor) / 2.0) ** 2
    return np.clip(cfg.anchor_rate + swing, 0.0, 1.0)


def visibility(cfg: FransonConfig, method: str = COMPLEX_INTEGRAL) -> VisibilityResult:
    """Fringe visibility of the coincidence rate as phi_tilde is scanned.

    The rate is exactly sinusoidal in phi_tilde, C(phi) = (I + Re[e^{i(phi +
    offset)} Z]) / 2 (Franson, PRA 45, 3126, 1992), so its extrema lie at
    phi* = -arg Z - offset and phi* + pi, and both methods report
    phase_at_max = phi* mod 2pi, with the same bits; a non-finite phi* raises
    ContractViolationError. Where the rate clips to a plateau at 0 or 1 (a
    rule with negative weights can give |Z| > I), or V is near 0, the
    maximum's phase is not unique; phi* is the one chosen.

    "integral": c_max, c_min = (1 +- |Z|)/2 from the modulus of the complex
    fringe amplitude (one quadrature, cached per config).
    "sweep": mimics a fringe measurement. c_max and c_min are the cos^2 rate
    quadratures at phi* and phi* + pi (cfg.anchor_rate, clipped), two more
    quadratures. The minimum is summed directly, not as a difference of
    nearly equal terms, so a small c_min keeps its digits. The sweep is not
    independent of Z: it takes its phases from Z, and each cos^2 quadrature
    is Z in another form. That the two methods agree to better than 1e-6
    checks the closed form (1 +- |Z|)/2 against the quadrature of the rate,
    not the quadrature of Z itself.
    """
    if method not in (COMPLEX_INTEGRAL, PHASE_SWEEP):
        raise ConfigurationError(f"unknown visibility method {method!r}")
    phase_at_max = float(np.mod(cfg.peak_phase, 2.0 * np.pi))
    if method == PHASE_SWEEP:
        c_max = coincidence_rate(cfg, cfg.peak_phase)
        c_min = min(1.0, max(0.0, cfg.anchor_rate))
        if c_max + c_min <= 0:
            raise ContractViolationError("degenerate fringe: Cmax + Cmin <= 0")
        v = (c_max - c_min) / (c_max + c_min)
        return VisibilityResult(v, c_max, c_min, phase_at_max, PHASE_SWEEP)

    v = min(abs(cfg.amplitude), 1.0)  # quadrature rounding can land a few ulp above 1
    return VisibilityResult(v, (1.0 + v) / 2.0, (1.0 - v) / 2.0, phase_at_max, COMPLEX_INTEGRAL)
