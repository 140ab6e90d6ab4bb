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

_EPS = float(np.finfo(float).eps)


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
    the fringe amplitude Z (``amplitude``) and the config-only terms of the
    rate prediction from Z and of its rounding bounds (``bound_terms``, see
    _rate_bounds) are computed once per config, on first use, and every
    coincidence rate, fringe rate and visibility reads them. They
    cannot go stale: the config and its arms are frozen, the spectrum's
    arrays are read-only, and ``dataclasses.replace`` builds a new instance
    with an empty cache.

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
    def bound_terms(self) -> tuple[float, float, float]:
        """(I, M, max |summed_phase|) of _rate_bounds: the spectrum integral
        sum w S, the quadrature mass sum |w| S and the largest phase magnitude."""
        s = self.spectrum
        mass = float(np.abs(s.weights) @ s.density)
        return s.integral(), mass, float(np.abs(self.summed_phase).max())


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
    s = cfg.spectrum
    shift = phi_tilde + cfg.pump_phase_offset_rad
    fringe = _folded(lambda phase: np.cos((shift - phase) / 2.0) ** 2, cfg)
    rate = float(s.weights @ (s.density * fringe))
    return min(1.0, max(0.0, rate))


def fringe_amplitude(cfg: FransonConfig) -> complex:
    """Complex fringe amplitude Z = integral S(omega) e^{-i total_phase}.

    C(phi_tilde) = 1/2 + Re[e^{i(phi_tilde + offset)} Z] / 2, so |Z| is the
    visibility and -arg(Z) - offset locates the fringe maximum. Each call
    runs the quadrature; cfg.amplitude holds its result per config.
    """
    s = cfg.spectrum
    return complex(s.weights @ (s.density * _folded(lambda phase: np.exp(-1j * phase), cfg)))


def _prediction(cfg: FransonConfig, arg: np.ndarray) -> np.ndarray:
    """P(a) = (I + Re Z cos a - Im Z sin a) / 2 = (I + Re[e^{ia} Z]) / 2."""
    z = cfg.amplitude
    return (cfg.bound_terms[0] + z.real * np.cos(arg) - z.imag * np.sin(arg)) / 2.0


def fringe_rates(cfg: FransonConfig, phis) -> np.ndarray:
    """coincidence_rate at each finite phi from Z, clip(P(phi + offset), 0, 1), inside _rate_bounds."""
    phis = np.asarray(phis, dtype=float)
    if not np.isfinite(phis).all():
        raise DomainError(f"phi_tilde must be finite, got {phis[~np.isfinite(phis)][0]}")
    return np.clip(_prediction(cfg, phis + cfg.pump_phase_offset_rad), 0.0, 1.0)


def _rate_bounds(cfg: FransonConfig, phis: np.ndarray):
    """Bounds (lo, hi) on coincidence_rate(cfg, phi) at each phi, from Z.

    With a = phi + offset (the double coincidence_rate forms), theta_k =
    a - phase_k and the stored phase_k, the exact sums over the grid obey

        sum_k w_k S_k cos^2(theta_k / 2) = (I + Re[e^{ia} Z]) / 2,

    I = sum_k w_k S_k and Z = sum_k w_k S_k e^{-i phase_k}, so the computed
    rate and the computed prediction pred differ only by rounding. In units
    of eps M, with eps = 2^-52, u = eps / 2 the unit roundoff, n grid points,
    M = sum |w| S the quadrature mass and T = max |a| + max |phase| >=
    |theta|:

    - Simpson dot of the rate: gamma_n M, gamma_n = n u / (1 - n u), for any
      summation order, with or without FMA, on any BLAS thread count. The
      summands w_k fl(S_k f_k) have |f_k| <= 1 + 9 eps: n / 2.
    - Its integrand f_k = cos(theta_k / 2)^2. Rounding theta_k moves it by
      u |theta_k| times |d f / d theta| <= 1/2: T / 4. The cosine is assumed
      within 4 ulp (relative 4 eps; libm and NumPy's SIMD kernels are within
      this), squared and rounded: 2 * 4 + 1/2. The product S_k f_k: 1/2.
      Together n / 2 + 9 + T / 4.
    - The I dot: n / 2. The Z dot, per component: each component of
      e^{-i phase} within 4 ulp (4), the product with S (1/2) and the dot
      (n / 2; the zero imaginary parts of the real weights add exact zeros).
    - Re[e^{ia} Z] = Re Z cos a - Im Z sin a with cos a and sin a within
      4 ulp: sqrt(2) (n / 2 + 4.5) from Z and 4 sqrt(2) from the cosine and
      sine, as |Re Z| + |Im Z| <= sqrt(2) |Z| <= sqrt(2) M.
    - The final combination: two products and two sums of terms at most
      sqrt(2), 2 and 1 + sqrt(2) times M, each rounded once: 3. The halving
      is exact, so the prediction's error is half its numerator's,
      (1.21 n + 15) / 2.

    Rate and prediction therefore differ by at most eps M (1.11 n + 16.5 +
    T / 4) <= eps M (1.25 (n + 16) + T / 4). Underflow adds at most 2^-1074
    per operation, nothing next to eps M, as M >= I ~ 1 for a normalized
    spectrum.
    The margin eps M (3 (n + 16) + T) is 2.4 times the first term and 4
    times the second.

    Forming each bound from pred and the margin rounds by at most eps M more,
    inside the margin's spare (3 (n + 16) - 1.25 (n + 16)) eps M >= 28 eps M.

    The bounds are clipped to [0, 1] as coincidence_rate clips; a bound that
    is NaN or infinite before the clip is NaN, which rules nothing out. An
    empty phis gives empty bounds.
    """
    _, mass, max_phase = cfg.bound_terms
    arg = phis + cfg.pump_phase_offset_rad  # the sum coincidence_rate forms
    pred = _prediction(cfg, arg)
    max_theta = np.abs(arg).max(initial=0.0) + max_phase
    margin = _EPS * mass * (3.0 * (cfg.spectrum.weights.size + 16) + max_theta)
    lo, hi = pred - margin, pred + margin
    finite = np.isfinite(lo) & np.isfinite(hi)
    lo, hi = np.where(finite, lo, np.nan), np.where(finite, hi, np.nan)
    return np.clip(lo, 0.0, 1.0), np.clip(hi, 0.0, 1.0)


def formatted_rates(cfg: FransonConfig, phis, fmt) -> list[str]:
    """[fmt(coincidence_rate(cfg, phi)) for phi in phis], quadratures only where needed.

    fmt must map every value between two that it prints alike to the same
    string, as Python's correctly rounded fixed-precision formats do (they
    are monotone in x). A row whose two rate bounds are finite and print
    alike takes that string; every other row runs the quadrature. For any
    such fmt the result equals the list above, and rows are evaluated in
    order, so a phi that coincidence_rate rejects raises at the same row.
    """
    phis = np.asarray(phis, dtype=float)
    lo, hi = _rate_bounds(cfg, phis)
    out = []
    for phi, a, b in zip(phis, lo.tolist(), hi.tolist()):
        text = fmt(a)
        if math.isnan(a) or text != fmt(b):
            text = fmt(coincidence_rate(cfg, phi))
        out.append(text)
    return out


def _sweep_result(cfg: FransonConfig, phi_max: float) -> VisibilityResult:
    """The sweep's result: rate quadratures at phi_max and phi_max + pi."""
    # Z is NaN only when the summed phase is not finite; every rate is then
    # a NaN quadrature clipped to 0, the degenerate fringe below
    if not math.isfinite(phi_max):
        raise ContractViolationError("degenerate fringe: Cmax + Cmin <= 0")
    c_max = coincidence_rate(cfg, phi_max)
    c_min = coincidence_rate(cfg, phi_max + np.pi)
    if c_max + c_min <= 0:
        raise ContractViolationError("degenerate fringe: Cmax + Cmin <= 0")
    v = (c_max - c_min) / (c_max + c_min)
    return VisibilityResult(v, c_max, c_min, float(np.mod(phi_max, 2.0 * np.pi)), PHASE_SWEEP)


def visibility(cfg: FransonConfig, method: str = COMPLEX_INTEGRAL) -> VisibilityResult:
    """Fringe visibility of the coincidence rate as phi_tilde is scanned.

    The rate is exactly sinusoidal in phi_tilde, C(phi) = (I + Re[e^{i(phi +
    offset)} Z]) / 2 (Franson, PRA 45, 3126, 1992), so its extrema lie at
    phi* = -arg Z - offset and phi* + pi, and both methods report
    phase_at_max = phi* mod 2pi, with the same bits. Where the rate clips to
    a plateau at 0 or 1 (a rule with negative weights can give |Z| > I), or
    V is near 0, the maximum's phase is not unique; phi* is the one chosen.

    "integral": c_max, c_min = (1 +- |Z|)/2 from the modulus of the complex
    fringe amplitude (one quadrature, cached per config).
    "sweep": mimics a fringe measurement. c_max and c_min are the cos^2 rate
    quadratures at phi* and phi* + pi, two more quadratures. The minimum is
    summed directly, not as a difference of nearly equal terms, so a small
    c_min keeps its digits. The sweep is not independent of Z: it takes its
    phases from Z, and each cos^2 quadrature is Z in another form. That the
    two methods agree to better than 1e-6 checks the closed form (1 +- |Z|)/2
    against the quadrature of the rate, not the quadrature of Z itself.
    """
    if method not in (COMPLEX_INTEGRAL, PHASE_SWEEP):
        raise ConfigurationError(f"unknown visibility method {method!r}")
    z = cfg.amplitude
    phi_max = float(-np.angle(z) - cfg.pump_phase_offset_rad)
    if method == PHASE_SWEEP:
        return _sweep_result(cfg, phi_max)

    v = min(abs(z), 1.0)  # quadrature rounding can land a few ulp above 1
    c_max = (1.0 + v) / 2.0
    c_min = (1.0 - v) / 2.0
    phase_at_max = float(np.mod(phi_max, 2.0 * np.pi))
    return VisibilityResult(v, c_max, c_min, phase_at_max, COMPLEX_INTEGRAL)
