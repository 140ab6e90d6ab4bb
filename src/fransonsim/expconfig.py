"""Experiment description files: parse, validate, assemble simulation objects.

An experiment file is INI-style structured text with the sections
[spectrum], [signal_arm], [idler_arm], [noise], [detector], [run]. Unknown
sections or keys are rejected, with the offending line number where it can
be recovered. Fiber stacks are written as comma-separated `NAME:length_mm`
segments resolved against the built-in fiber catalog plus an optional
catalog file.
"""

import configparser
from dataclasses import dataclass, field

from .dispersion import (
    BUILTIN_FIBERS,
    DifferentialDispersion,
    PathStack,
    load_fiber_catalog,
    stack,
)
from .errors import ConfigParseError, ConfigurationError
from .interference import COMPLEX_INTEGRAL, PHASE_SWEEP, FransonConfig, MZIConfig
from .montecarlo import MAX_GATES, DetectorModel
from .noise import NoiseModel
from .spectra import (
    DEFAULT_GRID_POINTS,
    FLATTOP,
    GAUSSIAN,
    MAX_GRID_POINTS,
    SINC2,
    TABULATED,
    apply_bandpass,
    load_tabulated,
    make_spectrum,
    read_spectrum_csv,
)


@dataclass(frozen=True)
class RunSettings:
    seed: int = 12345
    gates: int = 1_000_000
    batches: int = 20
    phases: int = 32
    method: str = COMPLEX_INTEGRAL


@dataclass(frozen=True)
class Experiment:
    """Everything one run needs: physics, noise level, detectors, run knobs."""

    franson: FransonConfig
    noise: NoiseModel
    detector: DetectorModel
    run: RunSettings = field(default_factory=RunSettings)


_KNOWN_KEYS = {
    "spectrum": {
        "model",
        "fwhm_nm",
        "center_wavelength_nm",
        "span_radps",
        "points",
        "file",
        "filter_fwhm_nm",
        "filter_shape",
    },
    "signal_arm": {"delta_t_ns", "phase_rad", "long", "short"},
    "idler_arm": {"delta_t_ns", "phase_rad", "long", "short"},
    "noise": {"alpha"},
    "detector": {
        "efficiency",
        "gate_rate_mhz",
        "dark_prob",
        "afterpulse_prob",
        "jitter_rms_ps",
    },
    "run": {
        "seed",
        "gates",
        "batches",
        "phases",
        "method",
        "pump_phase_offset_rad",
        "source_d_beta2_ps2",
        "source_d_beta3_ps3",
        "fiber_catalog",
    },
}

_REQUIRED_SECTIONS = ("spectrum", "signal_arm", "idler_arm")


def _find_line(text: str, section: str, key: str | None = None) -> int | None:
    """Best-effort line number of a section header or a key inside it."""
    in_section = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("["):
            if key is None and line == f"[{section}]":
                return lineno
            in_section = line == f"[{section}]"
            continue
        if key is not None and in_section:
            stem = line.split("=", 1)[0].split(":", 1)[0].strip()
            if stem == key:
                return lineno
    return None


def _getfloat(sec, key, default=None, *, text="", section=""):
    if key not in sec:
        if default is None:
            raise ConfigParseError(
                f"[{section}] missing required key {key!r}",
                line=_find_line(text, section),
            )
        return default
    try:
        return float(sec[key])
    except ValueError:
        raise ConfigParseError(
            f"[{section}] {key} = {sec[key]!r} is not a number",
            line=_find_line(text, section, key),
        )


def _getint(sec, key, default, *, text="", section=""):
    if key not in sec:
        return default
    try:
        return int(sec[key])
    except ValueError:
        raise ConfigParseError(
            f"[{section}] {key} = {sec[key]!r} is not an integer",
            line=_find_line(text, section, key),
        )


def _check_cap(value: int, cap: int, key: str) -> int:
    if value > cap:
        raise ConfigurationError(f"{key} = {value} exceeds the cap of {cap}")
    return value


def _parse_stack(value: str, catalog: dict, *, text: str, section: str, key: str) -> PathStack:
    value = value.strip()
    if not value:
        return PathStack(())
    segments = []
    for item in value.split(","):
        item = item.strip()
        if ":" not in item:
            raise ConfigParseError(
                f"[{section}] {key}: segment {item!r} is not NAME:length_mm",
                line=_find_line(text, section, key),
            )
        name, length = item.split(":", 1)
        name = name.strip()
        if name not in catalog:
            raise ConfigParseError(
                f"[{section}] {key}: unknown fiber {name!r} "
                f"(known: {sorted(catalog)})",
                line=_find_line(text, section, key),
            )
        try:
            length_mm = float(length)
        except ValueError:
            raise ConfigParseError(
                f"[{section}] {key}: bad length {length!r}",
                line=_find_line(text, section, key),
            )
        segments.append((catalog[name], length_mm))
    return stack(*segments)


def parse_experiment(text: str, source: str = "<config>") -> Experiment:
    """Parse experiment text into simulation objects.

    Raises ConfigParseError on syntax problems, unknown sections or keys,
    and non-numeric values; physical validation errors propagate from the
    constructed objects.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text, source=source)
    except configparser.ParsingError as exc:
        line = exc.errors[0][0] if exc.errors else None
        raise ConfigParseError(f"{source}: {exc}", line=line) from exc
    except configparser.Error as exc:
        raise ConfigParseError(f"{source}: {exc}") from exc

    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigParseError(
                f"unknown section [{section}]", line=_find_line(text, section)
            )
        unknown = set(cp[section].keys()) - _KNOWN_KEYS[section]
        if unknown:
            key = sorted(unknown)[0]
            raise ConfigParseError(
                f"[{section}] has unknown key {key!r}",
                line=_find_line(text, section, key),
            )
    for section in _REQUIRED_SECTIONS:
        if section not in cp:
            raise ConfigParseError(f"missing required section [{section}]")

    run_sec = cp["run"] if "run" in cp else {}
    catalog = dict(BUILTIN_FIBERS)
    if "fiber_catalog" in run_sec:
        catalog.update(load_fiber_catalog(run_sec["fiber_catalog"]))

    # spectrum
    sec = cp["spectrum"]
    model = sec.get("model", SINC2).strip().lower()
    center = _getfloat(sec, "center_wavelength_nm", 1560.0, text=text, section="spectrum")
    points = _check_cap(
        _getint(sec, "points", DEFAULT_GRID_POINTS, text=text, section="spectrum"),
        MAX_GRID_POINTS,
        "[spectrum] points",
    )
    span = (
        _getfloat(sec, "span_radps", text=text, section="spectrum")
        if "span_radps" in sec
        else None
    )
    if model == TABULATED:
        if "file" not in sec:
            raise ConfigParseError(
                "[spectrum] tabulated model needs a file",
                line=_find_line(text, "spectrum"),
            )
        spectrum = load_tabulated(read_spectrum_csv(sec["file"]), center_nm=center, n_points=points)
    elif model in (SINC2, GAUSSIAN):
        fwhm = _getfloat(sec, "fwhm_nm", text=text, section="spectrum")
        spectrum = make_spectrum(model, fwhm, center_nm=center, span_radps=span, n_points=points)
    else:
        raise ConfigParseError(
            f"[spectrum] unknown model {model!r}",
            line=_find_line(text, "spectrum", "model"),
        )
    if "filter_fwhm_nm" in sec:
        shape = sec.get("filter_shape", FLATTOP).strip().lower()
        spectrum = apply_bandpass(
            spectrum, _getfloat(sec, "filter_fwhm_nm", text=text, section="spectrum"), shape
        )

    # arms
    def arm(section):
        s = cp[section]
        return MZIConfig(
            long=_parse_stack(s.get("long", ""), catalog, text=text, section=section, key="long"),
            short=_parse_stack(s.get("short", ""), catalog, text=text, section=section, key="short"),
            delta_t_ns=_getfloat(s, "delta_t_ns", text=text, section=section),
            phase_rad=_getfloat(s, "phase_rad", 0.0, text=text, section=section),
        )

    franson = FransonConfig(
        signal_arm=arm("signal_arm"),
        idler_arm=arm("idler_arm"),
        spectrum=spectrum,
        pump_phase_offset_rad=_getfloat(
            run_sec, "pump_phase_offset_rad", 0.0, text=text, section="run"
        ),
        source_common_dispersion=DifferentialDispersion(
            _getfloat(run_sec, "source_d_beta2_ps2", 0.0, text=text, section="run"),
            _getfloat(run_sec, "source_d_beta3_ps3", 0.0, text=text, section="run"),
        ),
    )

    noise = NoiseModel(
        alpha=_getfloat(cp["noise"], "alpha", text=text, section="noise")
        if "noise" in cp
        else 0.0
    )

    det_sec = cp["detector"] if "detector" in cp else {}
    detector = DetectorModel(
        efficiency=_getfloat(det_sec, "efficiency", 0.20, text=text, section="detector"),
        gate_rate_mhz=_getfloat(det_sec, "gate_rate_mhz", 628.5, text=text, section="detector"),
        dark_prob=_getfloat(det_sec, "dark_prob", 2e-6, text=text, section="detector"),
        afterpulse_prob=_getfloat(det_sec, "afterpulse_prob", 0.06, text=text, section="detector"),
        jitter_rms_ps=_getfloat(det_sec, "jitter_rms_ps", 100.0, text=text, section="detector"),
    )

    method = run_sec.get("method", COMPLEX_INTEGRAL).strip().lower() if run_sec else COMPLEX_INTEGRAL
    if method not in (COMPLEX_INTEGRAL, PHASE_SWEEP):
        raise ConfigParseError(
            f"[run] unknown method {method!r}", line=_find_line(text, "run", "method")
        )
    run = RunSettings(
        seed=_getint(run_sec, "seed", 12345, text=text, section="run"),
        gates=_check_cap(
            _getint(run_sec, "gates", 1_000_000, text=text, section="run"),
            MAX_GATES,
            "[run] gates",
        ),
        batches=_getint(run_sec, "batches", 20, text=text, section="run"),
        phases=_getint(run_sec, "phases", 32, text=text, section="run"),
        method=method,
    )

    return Experiment(franson=franson, noise=noise, detector=detector, run=run)


def parse_experiment_file(path) -> Experiment:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_experiment(fh.read(), source=str(path))
