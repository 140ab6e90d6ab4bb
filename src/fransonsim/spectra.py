"""Biphoton spectral densities in the cw-pump limit.

With a monochromatic pump the signal and idler detunings from degeneracy are
exactly anticorrelated, so the joint spectrum reduces to a single
one-dimensional density S(omega) of the signal detuning, normalized to unit
integral over its span. Detunings are angular frequencies in rad/ps measured
from half the pump frequency.

Supported models: sinc^2 (phase-matching profile with its pedestal side
lobes), Gaussian, and tabulated measured spectra. Densities live on a uniform
symmetric grid together with their composite-Simpson quadrature weights; all
downstream integrals use those weights so normalization and fringe integrals
are mutually consistent.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DataError, DomainError

SPEED_OF_LIGHT_NM_PER_PS = 299792.458

# FWHM of a unit-sigma Gaussian: 2*sqrt(2*ln 2)
GAUSSIAN_FWHM_PER_SIGMA = 2.0 * np.sqrt(2.0 * np.log(2.0))

# positive root of sinc^2(x) = 1/2, i.e. the intensity half-max point; the
# double a bracketing root finder converges to (sinc^2 - 1/2 = -1.1e-16)
SINC2_HALF_MAX_X = 1.3915573782515103

SINC2 = "sinc2"
GAUSSIAN = "gaussian"
TABULATED = "tabulated"

# degenerate wavelength lambda0 of a spectrum that names none
DEFAULT_CENTER_NM = 1560.0
DEFAULT_GRID_POINTS = 2**14 + 1
# largest grid an experiment file may ask for: 64 times the default, so
# 65,537-point convergence checks fit with room to spare, and a few arrays
# of 8 MiB each per config
MAX_GRID_POINTS = 2**20 + 1
# default sinc^2 truncation, per side, in nm equivalent
DEFAULT_SINC2_SPAN_NM = 5.0
# default Gaussian truncation in units of sigma, per side
DEFAULT_GAUSSIAN_SPAN_SIGMAS = 6.0


def wavelength_to_detuning(wavelength_nm: float, center_nm: float) -> float:
    """Angular-frequency detuning (rad/ps) of a wavelength from a center.

    Exact conversion 2*pi*c*(1/lambda - 1/lambda0); shorter wavelengths map
    to positive detunings.
    """
    if not (0 < wavelength_nm < np.inf and 0 < center_nm < np.inf):
        raise DomainError(
            f"wavelengths must be positive and finite, got {wavelength_nm}, {center_nm}"
        )
    return 2.0 * np.pi * SPEED_OF_LIGHT_NM_PER_PS * (1.0 / wavelength_nm - 1.0 / center_nm)


def width_nm_to_radps(width_nm: float, center_nm: float) -> float:
    """Linearized spectral-width conversion, 2*pi*c*dlambda/lambda0^2.

    Used for widths (FWHM, spans, filter bandwidths) so that symmetric
    profiles in detuning correspond to the quoted nm figures.
    """
    if not (0 < width_nm < np.inf and 0 < center_nm < np.inf):
        raise DomainError(
            f"widths and centers must be positive and finite, got {width_nm} at {center_nm}"
        )
    return 2.0 * np.pi * SPEED_OF_LIGHT_NM_PER_PS * width_nm / center_nm**2


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


@dataclass(frozen=True, eq=False)
class JointSpectrum:
    """Normalized biphoton spectral density on a uniform detuning grid.

    Fields
    ------
    model : one of "sinc2", "gaussian", "tabulated"
    center_wavelength_nm : degenerate wavelength lambda0
    fwhm_nm : nominal intensity FWHM (None for tabulated input)
    span_radps : half-width of the grid; density is defined on [-span, +span]
    omega : detuning grid, rad/ps, mirror-symmetric
    density : S(omega), >= 0, unit integral under ``weights``
    weights : composite Simpson weights matching ``omega``
    passband_fraction : cumulative flux fraction surviving bandpass filtering
    """

    model: str
    center_wavelength_nm: float
    fwhm_nm: float | None
    span_radps: float
    omega: np.ndarray
    density: np.ndarray
    weights: np.ndarray
    passband_fraction: float = 1.0

    def __post_init__(self):
        if np.any(self.density < 0):
            raise DataError("spectral density must be nonnegative")
        for arr in (self.omega, self.density, self.weights):
            arr.setflags(write=False)

    def integral(self) -> float:
        """Quadrature of the density over its span (1.0 after normalization)."""
        return float(self.weights @ self.density)

    def is_normalized(self, tol: float = 1e-6) -> bool:
        return abs(self.integral() - 1.0) <= tol


def _carrier_radps(center_nm: float) -> float:
    """Carrier angular frequency 2 pi c / lambda0: the largest detuning a grid may reach."""
    return 2.0 * np.pi * SPEED_OF_LIGHT_NM_PER_PS / center_nm


def _build(model, center_nm, fwhm_nm, values, passband=1.0) -> JointSpectrum:
    grid = values[0]
    carrier = _carrier_radps(center_nm)
    if not grid[-1] < carrier:
        raise ConfigurationError(
            f"the {model} grid reaches {grid[-1]:.6g} rad/ps, at or past the carrier "
            f"angular frequency 2 pi c / lambda0 = {carrier:.6g} rad/ps, where photon "
            "frequencies turn negative"
        )
    dens = np.array(values[1], dtype=float)
    w = simpson_weights(grid)
    total = w @ dens
    if total <= 0:
        raise DataError("spectral density integrates to zero")
    dens /= total
    return JointSpectrum(
        model=model,
        center_wavelength_nm=center_nm,
        fwhm_nm=fwhm_nm,
        span_radps=float(grid[-1]),
        omega=grid,
        density=dens,
        weights=w,
        passband_fraction=passband,
    )


def make_spectrum(
    model: str,
    fwhm_nm: float,
    center_nm: float = DEFAULT_CENTER_NM,
    span_radps: float | None = None,
    n_points: int = DEFAULT_GRID_POINTS,
) -> JointSpectrum:
    """Construct an analytic spectral density with the given intensity FWHM.

    sinc^2: S ~ sinc^2(b*omega), b set so the intensity FWHM matches
    ``fwhm_nm``. Default span is 5 nm equivalent per side, wide enough for
    the main lobe and the first pedestal lobes; pass ``span_radps`` to keep
    more of the pedestal (visibility degradation under dispersion is
    pedestal-sensitive, so wide-band studies should widen this).

    gaussian: S ~ exp(-omega^2/2 sigma^2), sigma = FWHM / (2 sqrt(2 ln 2)).
    Default span is 6 sigma per side.

    The grid, given or default, must stay below the carrier angular
    frequency 2 pi c / lambda0 (1,207 rad/ps at 1560 nm), past which photon
    frequencies on it would be negative; a given span must also be finite.
    """
    if fwhm_nm <= 0:
        raise DomainError(f"fwhm must be positive, got {fwhm_nm}")
    fwhm = width_nm_to_radps(fwhm_nm, center_nm)
    if span_radps is not None:
        carrier = _carrier_radps(center_nm)
        if not (np.isfinite(span_radps) and span_radps < carrier):
            raise ConfigurationError(
                f"span_radps {span_radps!r} must be finite and below the carrier "
                f"angular frequency 2 pi c / lambda0 = {carrier:.6g} rad/ps"
            )

    if model == SINC2:
        b = 2.0 * SINC2_HALF_MAX_X / fwhm
        main_lobe = np.pi / b
        if span_radps is None:
            span_radps = width_nm_to_radps(DEFAULT_SINC2_SPAN_NM, center_nm)
        if span_radps <= main_lobe:
            raise ConfigurationError(
                f"span {span_radps:.4g} rad/ps does not contain the sinc^2 "
                f"main lobe (first zero at {main_lobe:.4g} rad/ps)"
            )
        grid = symmetric_grid(span_radps, n_points)
        x = b * grid
        dens = np.ones_like(x)
        nz = x != 0
        dens[nz] = (np.sin(x[nz]) / x[nz]) ** 2
        return _build(SINC2, center_nm, fwhm_nm, (grid, dens))

    if model == GAUSSIAN:
        sigma = fwhm / GAUSSIAN_FWHM_PER_SIGMA
        if span_radps is None:
            span_radps = DEFAULT_GAUSSIAN_SPAN_SIGMAS * sigma
        if span_radps <= fwhm:
            raise ConfigurationError(
                f"span {span_radps:.4g} rad/ps is narrower than the FWHM "
                f"{fwhm:.4g} rad/ps"
            )
        grid = symmetric_grid(span_radps, n_points)
        dens = np.exp(-(grid**2) / (2.0 * sigma**2))
        return _build(GAUSSIAN, center_nm, fwhm_nm, (grid, dens))

    raise ConfigurationError(f"unknown spectrum model {model!r}")


def load_tabulated(
    rows,
    center_nm: float = DEFAULT_CENTER_NM,
    n_points: int = DEFAULT_GRID_POINTS,
) -> JointSpectrum:
    """Build a spectrum from measured (wavelength_nm, intensity) samples.

    Every sample must be finite; the error names the first that is not by
    its index in ``rows``. Wavelengths must be strictly monotonic;
    intensities nonnegative with at least one positive value. The samples
    are converted to detunings, linearly interpolated onto the uniform
    grid, zero outside the sampled range, and renormalized. The sampled
    detunings must stay below the carrier angular frequency, as every
    spectrum grid must.
    """
    rows = list(rows)
    if len(rows) < 2:
        raise DataError(f"need at least 2 samples, got {len(rows)}")
    lam = np.array([r[0] for r in rows], dtype=float)
    inten = np.array([r[1] for r in rows], dtype=float)
    bad = np.flatnonzero(~(np.isfinite(lam) & np.isfinite(inten)))
    if len(bad):
        i = bad[0]
        raise DataError(f"sample {i} ({lam[i]}, {inten[i]}) is not finite")
    if np.any(lam <= 0):
        raise DataError("wavelengths must be positive")
    d = np.diff(lam)
    if not (np.all(d > 0) or np.all(d < 0)):
        raise DataError("wavelength grid must be strictly monotonic")
    if np.any(inten < 0):
        raise DataError("intensities must be nonnegative")
    if not np.any(inten > 0):
        raise DataError("all intensities are zero")

    om = np.array([wavelength_to_detuning(v, center_nm) for v in lam])
    order = np.argsort(om)
    om, inten = om[order], inten[order]

    span = float(max(abs(om[0]), abs(om[-1])))
    grid = symmetric_grid(span, n_points)
    dens = np.interp(grid, om, inten, left=0.0, right=0.0)
    return _build(TABULATED, center_nm, None, (grid, dens))


FLATTOP = "flattop"


def apply_bandpass(
    spectrum: JointSpectrum,
    filter_fwhm_nm: float,
    shape: str = FLATTOP,
) -> JointSpectrum:
    """Apply a bandpass filter centered on zero detuning and renormalize.

    ``flattop`` is an ideal rectangular transmission of full width
    ``filter_fwhm_nm``; the grid is rebuilt over the passband so the hard
    edges coincide with the integration limits. ``gaussian`` multiplies by a
    Gaussian transmission of that intensity FWHM on the existing grid; a
    FWHM narrower than the grid step is refused.

    The surviving flux fraction is accumulated into ``passband_fraction``
    for loss bookkeeping (narrowband filtering costs pair flux).
    """
    if filter_fwhm_nm <= 0:
        raise DomainError(f"filter fwhm must be positive, got {filter_fwhm_nm}")
    half = width_nm_to_radps(filter_fwhm_nm, spectrum.center_wavelength_nm) / 2.0

    if shape == FLATTOP:
        if half >= spectrum.span_radps:
            return replace(spectrum)  # filter wider than the stored span
        grid = symmetric_grid(half, len(spectrum.omega))
        dens = np.interp(grid, spectrum.omega, spectrum.density)
        w = simpson_weights(grid)
    elif shape == GAUSSIAN:
        grid, w = spectrum.omega, spectrum.weights
        step = grid[1] - grid[0]
        if 2.0 * half < step:  # the grid cannot resolve it, and its sigma^2 may underflow
            raise ConfigurationError(
                f"gaussian filter fwhm {filter_fwhm_nm:.4g} nm ({2.0 * half:.4g} rad/ps) is "
                f"narrower than the spectrum grid step of {step:.4g} rad/ps"
            )
        sigma_f = 2.0 * half / GAUSSIAN_FWHM_PER_SIGMA
        dens = spectrum.density * np.exp(-(grid**2) / (2.0 * sigma_f**2))
    else:
        raise ConfigurationError(f"unknown filter shape {shape!r}")

    fraction = float(w @ dens)  # incoming density is unit-normalized
    return _build(
        spectrum.model,
        spectrum.center_wavelength_nm,
        spectrum.fwhm_nm,
        (grid, dens),
        passband=spectrum.passband_fraction * fraction,
    )
