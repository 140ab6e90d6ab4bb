"""Bundled experiment presets for the four dispersion-handling scenarios.

All four share the same source (frequency-degenerate pairs at 1560 nm,
sinc^2 spectral density of 1.6 nm FWHM), the same 4.77 ns path delay
difference spanning three 628.5 MHz detector gates, a mean pair rate of
0.24% per gate, and stock detector parameters. They differ only in how the
arms' differential dispersion is handled:

  fig4a  no compensation: both arms all-SMF (975 mm long-path surplus)
  fig4b  fig4a plus a 0.36 nm flat-top bandpass on the biphoton
  fig4c  local cancellation: both arms rebuilt from LEAF + SMF so each
         arm's differential dispersion is zero
  fig4d  nonlocal cancellation: signal arm all-SMF, idler arm built with
         opposite-sign differential dispersion (2695 mm LEAF + 180 mm SMF
         long path against a 1900 mm SMF short path)

The sinc^2 density is truncated at +-15 nm equivalent. Visibility loss
under quadratic phase accumulates in the spectral pedestals far outside
the main lobe, and it has not converged at +-15 nm. On fig4a, 1 - V is
0.07% at +-5 nm (the default construction span), 0.49% at +-10 nm, 1.25%
at +-15 nm, 2.02% at +-30 nm, 2.45% at +-120 nm and 2.51% at +-240 nm.
Grids of 16,385 and 65,537 points agree at every span, so the gap is
truncation, not resolution: the tail of sinc^2(b omega) beyond the span
+-Omega holds a fraction 1/(pi b Omega) of the weight, and fig4a's arms
fully dephase it. fig4d's loss grows from 0 to 2.3e-4 at +-240 nm; fig4b
and fig4c stay at 0. The presets keep +-15 nm, so their visibilities are
those of a source whose spectrum ends at +-15 nm.
"""

from .dispersion import LEAF, SMF, stack
from .errors import ConfigurationError
from .expconfig import Experiment, RunSettings
from .interference import FransonConfig, MZIConfig
from .montecarlo import DetectorModel
from .noise import NoiseModel
from .spectra import FLATTOP, SINC2, apply_bandpass, make_spectrum, width_nm_to_radps

PRESET_NAMES = ("fig4a", "fig4b", "fig4c", "fig4d")

CENTER_NM = 1560.0
FWHM_NM = 1.6
PEDESTAL_SPAN_NM = 15.0  # per side
DELTA_T_NS = 4.77
ALPHA = 0.0024
FILTER_FWHM_NM = 0.36

SHORT_SMF_MM = 1900.0
LONG_SMF_MM = 2875.0  # 975 mm surplus: 4.77 ns of group delay at n = 1.468
LEAF_LONG_MM = 2695.0
SMF_TRIM_MM = 180.0
# fig4c's LEAF + SMF long path: the lengths solve_lengths gives for zero
# differential dispersion at DELTA_T_NS against the SHORT_SMF_MM short path
BALANCED_LEAF_MM = 1343.8214947638319
BALANCED_SMF_MM = 1530.299775440528

_PRESET_SUMMARIES = {
    "fig4a": "all-SMF arms, uncompensated differential dispersion",
    "fig4b": "all-SMF arms with 0.36 nm flat-top bandpass filtering",
    "fig4c": "LEAF/SMF arms, differential dispersion zeroed locally",
    "fig4d": "SMF signal arm, opposite-dispersion LEAF/SMF idler arm",
}


def preset_summary(name: str) -> str:
    return _PRESET_SUMMARIES[name]


def _spectrum(filtered: bool):
    s = make_spectrum(
        SINC2,
        FWHM_NM,
        center_nm=CENTER_NM,
        span_radps=width_nm_to_radps(PEDESTAL_SPAN_NM, CENTER_NM),
    )
    if filtered:
        s = apply_bandpass(s, FILTER_FWHM_NM, FLATTOP)
    return s


def _smf_arm():
    return MZIConfig(
        long=stack((SMF, LONG_SMF_MM)),
        short=stack((SMF, SHORT_SMF_MM)),
        delta_t_ns=DELTA_T_NS,
    )


def _balanced_arm():
    return MZIConfig(
        long=stack((LEAF, BALANCED_LEAF_MM), (SMF, BALANCED_SMF_MM)),
        short=stack((SMF, SHORT_SMF_MM)),
        delta_t_ns=DELTA_T_NS,
    )


def _compensating_arm():
    return MZIConfig(
        long=stack((LEAF, LEAF_LONG_MM), (SMF, SMF_TRIM_MM)),
        short=stack((SMF, SHORT_SMF_MM)),
        delta_t_ns=DELTA_T_NS,
    )


def preset_experiment(name: str) -> Experiment:
    """Expand a preset name into a full experiment. Deterministic."""
    if name not in PRESET_NAMES:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )

    spectrum = _spectrum(filtered=(name == "fig4b"))
    if name in ("fig4a", "fig4b"):
        signal, idler = _smf_arm(), _smf_arm()
    elif name == "fig4c":
        signal, idler = _balanced_arm(), _balanced_arm()
    else:  # fig4d
        signal, idler = _smf_arm(), _compensating_arm()

    return Experiment(
        franson=FransonConfig(signal_arm=signal, idler_arm=idler, spectrum=spectrum),
        noise=NoiseModel(alpha=ALPHA),
        detector=DetectorModel(),
        run=RunSettings(),
    )
