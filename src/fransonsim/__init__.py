"""Simulation of fiber-based Franson interferometry with chromatic dispersion.

Analytic coincidence-rate and visibility evaluation for time-energy
entangled photon pairs in unbalanced fiber Mach-Zehnder interferometers,
an event-level Monte Carlo of gated single-photon detection, and a solver
for fiber lengths that cancel differential dispersion locally or nonlocally.
"""

from .designer import DesignProblem, DesignSolution, solve_lengths
from .dispersion import (
    BUILTIN_FIBERS,
    LEAF,
    SMF,
    DifferentialDispersion,
    FiberSegment,
    FiberSpec,
    PathStack,
    differential_phase,
    stack,
    stack_moments,
    temporal_spread,
)
from .errors import (
    ConfigParseError,
    ConfigurationError,
    ContractViolationError,
    DataError,
    DomainError,
    FransonError,
    InfeasibleDesignError,
    StatisticsError,
)
from .expconfig import Experiment, RunSettings, load_fiber_catalog, parse_experiment, parse_experiment_file
from .interference import (
    COMPLEX_INTEGRAL,
    PHASE_SWEEP,
    FransonConfig,
    MZIConfig,
    VisibilityResult,
    coincidence_rate,
    fringe_amplitude,
    total_phase,
    visibility,
)
from .montecarlo import (
    CoincidenceHistogram,
    Detector,
    DetectorModel,
    EventStream,
    VisibilityEstimate,
    count_coincidences,
    estimate_visibility,
    gate_offset,
    simulate_run,
)
from .noise import BellResult, NoiseModel, alpha_sweep, bell_significance, observed_visibility
from .presets import PRESET_NAMES, preset_experiment
from .spectra import (
    FLATTOP,
    GAUSSIAN,
    SINC2,
    TABULATED,
    JointSpectrum,
    apply_bandpass,
    load_tabulated,
    make_spectrum,
    read_spectrum_csv,
    wavelength_to_detuning,
    width_nm_to_radps,
)

__version__ = "0.1.0"
