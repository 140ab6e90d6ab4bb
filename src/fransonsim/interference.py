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

_SWEEP_POINTS = 720

# golden-section step, and the bracket width at which the search stops
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_SECTION_TOL = 1e-12

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class MZIConfig:
    """One arm: long/short fiber stacks, path delay difference, phase knob."""

    long: PathStack
    short: PathStack
    delta_t_ns: float
    phase_rad: float = 0.0

    def __post_init__(self):
        if not (self.delta_t_ns > 0):
            raise ConfigurationError(f"delta_t must be positive, got {self.delta_t_ns}")
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
    rate bounds (``bound_terms``) are computed once per config, on first
    use, and every coincidence rate and visibility reads them. They
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


def _prediction(cfg: FransonConfig, arg: np.ndarray):
    """cos a, sin a and P(a) = (I + Re Z cos a - Im Z sin a) / 2 = (I + Re[e^{ia} Z]) / 2."""
    cos, sin, z = np.cos(arg), np.sin(arg), cfg.amplitude
    return cos, sin, (cfg.bound_terms[0] + z.real * cos - z.imag * sin) / 2.0


def fringe_rates(cfg: FransonConfig, phis) -> np.ndarray:
    """coincidence_rate at each finite phi from Z, clip(P(phi + offset), 0, 1), inside _rate_bounds."""
    phis = np.asarray(phis, dtype=float)
    if not np.isfinite(phis).all():
        raise DomainError(f"phi_tilde must be finite, got {phis[~np.isfinite(phis)][0]}")
    return np.clip(_prediction(cfg, phis + cfg.pump_phase_offset_rad)[2], 0.0, 1.0)


def _rate_bounds(cfg: FransonConfig, phis: np.ndarray, reach: float = 0.0):
    """Bounds (lo, hi) on coincidence_rate(cfg, phi') for every phi' within reach of each phi, from Z.

    With reach 0 they bound the rate at each phi itself. With a = phi +
    offset (the double coincidence_rate forms), theta_k = a - phase_k and
    the stored phase_k, the exact sums over the grid obey

        sum_k w_k S_k cos^2(theta_k / 2) = (I + Re[e^{ia} Z]) / 2,

    I = sum_k w_k S_k and Z = sum_k w_k S_k e^{-i phase_k}, so the computed
    rate and the computed prediction pred differ only by rounding. In units
    of eps M, with eps = 2^-52, u = eps / 2 the unit roundoff, n grid points,
    M = sum |w| S the quadrature mass and T = max |a| + reach + max |phase|
    >= |theta|:

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

    Over a bracket: let r = reach, at most 1/4, and |phi' - phi| <= r. Its
    a' = fl(phi' + offset) is within r + eps (|a| + r) of a, as each sum
    rounds once. P(t) = (I + Re[e^{it} Z]) / 2, exact on the computed I and
    Z, has P'(t) = -Im[e^{it} Z] / 2 and |P''| <= |Z| / 2, so by Taylor

        |P(a') - P(a)| <= |P'(a)| r + |Z| r^2 / 4 + (|Z| / 2) (1 + r) eps (|a| + r).

    The first two terms are the spread added to both bounds. The rate at
    phi' differs from P(a') by the rate's and the I and Z dots' share of
    the error above, and P(a) from pred by the rest of it. The last term is
    at most 0.63 eps M T, which with the rate's T / 4 stays below the
    margin's T. Computing the spread and the two sums of each bound rounds
    by at most 4 eps M, inside the margin's spare (3 (n + 16) - 1.11 n -
    16.5) eps M >= 31 eps M.

    The bounds are clipped to [0, 1] as coincidence_rate clips; a bound that
    is NaN or infinite before the clip is NaN, which rules nothing out. An
    empty phis gives empty bounds.
    """
    _, mass, max_phase = cfg.bound_terms
    z = cfg.amplitude
    arg = phis + cfg.pump_phase_offset_rad  # the sum coincidence_rate forms
    cos, sin, pred = _prediction(cfg, arg)
    spread = 0.0
    if reach:
        spread = (np.abs(z.real * sin + z.imag * cos) / 2.0 + abs(z) * reach / 4.0) * reach
    max_theta = np.abs(arg).max(initial=0.0) + reach + max_phase
    margin = _EPS * mass * (3.0 * (cfg.spectrum.weights.size + 16) + max_theta)
    lo, hi = pred - spread - margin, pred + spread + margin
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


def _first_extremum(cfg: FransonConfig, phis, bounds, sign: float) -> int:
    """Index np.argmax(sign * rates) would give over all of phis.

    A point is skipped only when its upper bound is strictly below the best
    lower bound, so its rate is strictly below the extremum and it can be
    neither the extremum nor tied with it. The survivors are evaluated by
    quadrature and searched in index order, so ties, including those the
    clip to [0, 1] makes, resolve to the first index as in a full scan. A
    NaN bound skips nothing.
    """
    lo, hi = bounds if sign > 0 else (-bounds[1], -bounds[0])
    keep = np.flatnonzero(~(hi < lo.max()))
    rates = [sign * coincidence_rate(cfg, phis[j]) for j in keep]
    return int(keep[np.argmax(rates)])


def _bracket_bounds(cfg: FransonConfig, a: float, b: float) -> tuple[float, float]:
    """_rate_bounds on coincidence_rate(cfg, phi) for every phi in [a, b], b - a <= 1/4.

    They are taken from the centre, which lies in [a, b], with reach b - a;
    a == b bounds the rate at a alone.
    """
    lo, hi = _rate_bounds(cfg, np.array([0.5 * (a + b)]), b - a)
    return float(lo[0]), float(hi[0])


def _golden_section(cfg: FransonConfig, lo: float, hi: float, sign: float):
    """Golden-section search for the maximum of f(p) = sign * coincidence_rate(cfg, p) on [lo, hi].

    A generator: it yields the current bracket (a, b) before each quadrature
    it runs and returns (x, f(x)), step for step the plain search

        c, d = b - g (b - a), a + g (b - a), g = (sqrt(5) - 1) / 2
        while b - a > 1e-12: keep [a, d] if f(c) >= f(d), else [c, b]
        x = (a + b) / 2

    with the same doubles. Each value is held as bounds (lo, hi) on f, equal
    once the quadrature has run: f(c) >= f(d) is true when lo(c) >= hi(d)
    and false when hi(c) < lo(d), and only a comparison the _rate_bounds of
    c and d leave open runs a quadrature, first at c unless its value is
    already exact, then at d. For sign -1 the rate bounds are negated and
    swapped. A NaN bound decides nothing.

    a never falls nor b rises, and every c, d and the final x lie in the
    bracket of their step (the rounded sums are monotone), so x lies in
    every bracket yielded.
    """

    def bounds(p):
        lo, hi = _bracket_bounds(cfg, p, p)
        return (lo, hi) if sign > 0 else (-hi, -lo)

    def value(p):
        f = sign * coincidence_rate(cfg, p)
        return f, f

    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = bounds(c), bounds(d)
    while (b - a) > _SECTION_TOL:
        for _ in range(2):  # at most a quadrature at c, then one at d
            if fc[0] >= fd[1] or fc[1] < fd[0]:
                break
            yield a, b
            if fc[0] != fc[1]:
                fc = value(c)
            else:
                fd = value(d)
        if fc[0] >= fd[1]:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = bounds(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = bounds(d)
    x = 0.5 * (a + b)
    yield a, b
    return x, value(x)[0]


def _finish(search):
    """Run a _golden_section search to the end; its (x, f(x))."""
    while True:
        try:
            next(search)
        except StopIteration as stop:
            return stop.value


def _sweep_searches(cfg: FransonConfig):
    """The sweep's searches for its maximum and minimum, not yet started.

    Each brackets its grid extremum (see _first_extremum) by one grid step
    on either side.
    """
    phis = np.linspace(0.0, 2.0 * np.pi, _SWEEP_POINTS, endpoint=False)
    bounds = _rate_bounds(cfg, phis)
    step = phis[1] - phis[0]
    searches = []
    for sign in (1.0, -1.0):
        i = _first_extremum(cfg, phis, bounds, sign)
        searches.append(_golden_section(cfg, phis[i] - step, phis[i] + step, sign))
    return searches


def _sweep_result(top, bottom) -> VisibilityResult:
    """The sweep's result from the (x, f(x)) of its finished searches."""
    p_max, c_max = top
    c_min = -bottom[1]
    if c_max + c_min <= 0:
        raise ContractViolationError("degenerate fringe: Cmax + Cmin <= 0")
    v = (c_max - c_min) / (c_max + c_min)
    return VisibilityResult(v, c_max, c_min, float(np.mod(p_max, 2.0 * np.pi)), PHASE_SWEEP)


def _visibility_bounds(lo_max, hi_max, lo_min, hi_min):
    """Bounds on the computed (c_max - c_min) / (c_max + c_min) over a box of rates.

    The box is c_max in [lo_max, hi_max] and c_min in [lo_min, hi_min], all
    in [0, 1] as the rate bounds are clipped. The exact V(x, y) = (x - y) /
    (x + y) has dV/dx = 2 y / (x + y)^2 >= 0 and dV/dy = -2 x / (x + y)^2 <=
    0, so V(lo_max, hi_min) <= V <= V(hi_max, lo_min) and |V| <= 1. The
    computed fl(fl(x - y) / fl(x + y)) need not be monotone at the ulp level,
    as the two sums round apart, so the bounds are taken on V: each computed
    quotient is V (1 + d1) (1 + d3) / (1 + d2) with |d_i| <= u = eps / 2 (a
    subnormal sum or difference is exact; a subnormal quotient adds at most
    2^-1075), within 1.6 eps of V. The visibility and each computed end
    therefore differ by at most 3.2 eps beyond V's range, and the slack is
    4 eps.

    (nan, nan) when a bound is NaN or lo_max + lo_min > 0 does not hold, so
    that Cmax + Cmin <= 0 cannot be ruled out.
    """
    if not lo_max + lo_min > 0:
        return math.nan, math.nan
    v_lo = (lo_max - hi_min) / (lo_max + hi_min)
    v_hi = (hi_max - lo_min) / (hi_max + lo_min)
    return v_lo - 4.0 * _EPS, v_hi + 4.0 * _EPS


def formatted_sweep_visibility(cfg: FransonConfig, fmt) -> str:
    """fmt(visibility(cfg, PHASE_SWEEP).visibility), with only the quadratures it needs.

    fmt must be monotone, as in formatted_rates. The two searches are
    stepped only until the values they will end on are bounded tightly
    enough that both ends of _visibility_bounds print alike: a search paused
    at bracket (a, b) will end at an x inside it, so _bracket_bounds of
    (a, b) bound its final rate, and a finished search contributes its exact
    value. Each step runs one quadrature in the search whose bound width,
    weighted by the other extremum (the visibility's sensitivity to it), is
    larger. When the bounds never decide, including when they are not finite
    or cannot rule out Cmax + Cmin <= 0, both searches run to the end and the
    result, or the error, is visibility's.
    """
    searches = _sweep_searches(cfg)
    brackets = [None, None]
    done = [None, None]  # (x, f(x)) of a finished search

    def advance(k):
        try:
            brackets[k] = next(searches[k])
        except StopIteration as stop:
            done[k] = stop.value

    def rate_bounds(k, sign):
        if done[k] is not None:
            rate = sign * done[k][1]
            return rate, rate
        return _bracket_bounds(cfg, *brackets[k])

    advance(0)
    advance(1)
    while done[0] is None or done[1] is None:
        lo_max, hi_max = rate_bounds(0, 1.0)
        lo_min, hi_min = rate_bounds(1, -1.0)
        lo_v, hi_v = _visibility_bounds(lo_max, hi_max, lo_min, hi_min)
        if not math.isnan(lo_v) and fmt(lo_v) == fmt(hi_v):
            return fmt(lo_v)
        weight = [(hi_max - lo_max) * hi_min, (hi_min - lo_min) * hi_max]
        advance(max((k for k in (0, 1) if done[k] is None), key=weight.__getitem__))
    return fmt(_sweep_result(*done).visibility)


def visibility(cfg: FransonConfig, method: str = COMPLEX_INTEGRAL) -> VisibilityResult:
    """Fringe visibility of the coincidence rate as phi_tilde is scanned.

    "integral": modulus of the complex fringe amplitude (one quadrature).
    "sweep": mimics a fringe measurement. It locates the largest and
    smallest rate on a 720-point grid of phi_tilde over [0, 2pi) and refines
    each by golden-section search on the cos^2 quadrature. The grid extrema
    are bracketed with Z: only grid points whose rate Z cannot rule out are
    evaluated by quadrature, and the result is the index a quadrature at
    every point would pick, ties included. With V near 0 nothing can be
    ruled out and every point is evaluated. The golden-section comparisons
    are decided from the same bounds where they can be (_golden_section),
    so a quadrature runs only where the two rates lie within rounding of
    each other, near the end of each search: 78-87 quadratures on the
    presets instead of 108-110, with the same result to the bit.
    formatted_sweep_visibility prints the visibility alone and stops each
    search as soon as its printed digits are fixed.

    The sweep is therefore not independent of Z: each cos^2 quadrature is
    Z in another form. That the two methods agree to better than 1e-6 checks
    the golden-section refinement, the placement of the extrema on the grid
    and the closed form (1 +- |Z|)/2 against the quadrature of the rate, not
    the quadrature of Z itself.
    """
    if method == COMPLEX_INTEGRAL:
        z = cfg.amplitude
        v = min(abs(z), 1.0)  # quadrature rounding can land a few ulp above 1
        c_max = (1.0 + v) / 2.0
        c_min = (1.0 - v) / 2.0
        phase_at_max = float(
            np.mod(-np.angle(z) - cfg.pump_phase_offset_rad, 2.0 * np.pi)
        )
        return VisibilityResult(v, c_max, c_min, phase_at_max, COMPLEX_INTEGRAL)

    if method == PHASE_SWEEP:
        top, bottom = (_finish(search) for search in _sweep_searches(cfg))
        return _sweep_result(top, bottom)

    raise ConfigurationError(f"unknown visibility method {method!r}")
