"""Input files: experiments, fiber catalogs, design problems and tabulated spectra.

This module reads every input file of the package, each as UTF-8 text
(`_read_file`); a file that is not UTF-8 is a ConfigParseError naming the
offset of its first bad byte. Experiment files, fiber catalogs and design
problems are INI text in one dialect, read by `_read_ini`. An experiment
file has the sections [spectrum], [signal_arm], [idler_arm], [noise],
[detector] and [run]; a fiber catalog one section per fiber; a design
problem one [problem] section. Fibers, in experiment stacks of
comma-separated `NAME:length_mm` segments and in problems, are named from
the built-in fibers plus an optional catalog file. A tabulated spectrum,
named by an experiment's [spectrum] file, is CSV text of
wavelength_nm,intensity rows (`read_spectrum_csv`).

A section that fills a model takes its keys, their types, their defaults
and which of them are required from the model's dataclass fields
(`_fields`): [signal_arm] and [idler_arm] fill MZIConfig, [noise]
NoiseModel, [detector] DetectorModel, the integer [run] settings
RunSettings, a catalog section FiberSpec and [problem] DesignProblem. An
omitted key takes its field's default; a field without one is a required
key. [spectrum] fills no model, and four [run] keys set fields of other
objects under other names; their keys are listed here. A [spectrum] key
the chosen spectrum never reads is an error on its line.
"""

import configparser
import math
import os
import re
from dataclasses import MISSING, dataclass, field, fields, replace

from .designer import DesignProblem
from .dispersion import (
    BUILTIN_FIBERS,
    DifferentialDispersion,
    FiberSpec,
    PathStack,
    stack,
)
from .errors import ConfigParseError, ConfigurationError, DataError
from .interference import COMPLEX_INTEGRAL, PHASE_SWEEP, FransonConfig, MZIConfig
from .montecarlo import MAX_GATES, MAX_PHASES, MAX_STREAMS, DetectorModel
from .noise import NoiseModel
from .spectra import (
    DEFAULT_CENTER_NM,
    DEFAULT_GRID_POINTS,
    FLATTOP,
    GAUSSIAN,
    MAX_GRID_POINTS,
    SINC2,
    TABULATED,
    apply_bandpass,
    load_tabulated,
    make_spectrum,
)


@dataclass(frozen=True)
class RunSettings:
    seed: int = 12345
    gates: int = 1_000_000
    batches: int = 20
    phases: int = 32
    method: str = COMPLEX_INTEGRAL


# a run setting's (minimum, cap, checked only when a Monte Carlo runs), in the
# order resolve_run checks them; None where there is no bound
_RUN_BOUNDS = {
    "gates": (0, MAX_GATES, False),
    "seed": (0, None, False),
    "phases": (3, MAX_PHASES, False),
    "batches": (2, None, True),
}


def resolve_run(run: RunSettings, flags=None, simulate=False) -> RunSettings:
    """``run`` with ``flags`` laid over it, checked against _RUN_BOUNDS.

    ``flags`` maps seed, gates, batches and phases to a value, or to None
    when unset. With ``simulate`` a Monte Carlo runs, which also needs a
    gate per phase (so gates 0 is refused) and at most MAX_STREAMS streams.
    An error names a value ``--name`` if a flag gave it, else
    ``[run] name =``.
    """
    flags = {name: value for name, value in (flags or {}).items() if value is not None}
    run = replace(run, **flags)

    def key(name):
        return f"--{name}" if name in flags else f"[run] {name} ="

    for name, (low, cap, only_monte_carlo) in _RUN_BOUNDS.items():
        if only_monte_carlo and not simulate:
            continue
        value = getattr(run, name)
        if low is not None and value < low:
            raise ConfigurationError(f"{key(name)} {value} is below the minimum of {low}")
        if cap is not None and value > cap:
            raise ConfigurationError(f"{key(name)} {value} exceeds the cap of {cap}")
    if not simulate:
        return run
    if run.gates // run.phases < 1:
        raise ConfigurationError(
            f"{key('gates')} {run.gates} gives no gate per phase at {key('phases')} {run.phases}"
        )
    if run.batches * run.phases > MAX_STREAMS:
        raise ConfigurationError(
            f"{key('batches')} {run.batches} at {key('phases')} {run.phases} asks for "
            f"{run.batches * run.phases} streams, over the cap of {MAX_STREAMS}"
        )
    return run


@dataclass(frozen=True)
class Experiment:
    """Everything one run needs: physics, noise level, detectors, run knobs."""

    franson: FransonConfig
    noise: NoiseModel
    detector: DetectorModel
    run: RunSettings = field(default_factory=RunSettings)


def _keys(model) -> set:
    """The keys of a section that fills ``model``: its field names."""
    return {f.name for f in fields(model)}


# [spectrum] fills no model; [run] also sets four fields of other objects
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
    "signal_arm": _keys(MZIConfig),
    "idler_arm": _keys(MZIConfig),
    "noise": _keys(NoiseModel),
    "detector": _keys(DetectorModel),
    "run": _keys(RunSettings)
    | {"pump_phase_offset_rad", "source_d_beta2_ps2", "source_d_beta3_ps3", "fiber_catalog"},
}

_REQUIRED_SECTIONS = ("spectrum", "signal_arm", "idler_arm")

_INLINE_COMMENT = re.compile(r"\s[#;]")


class _Ini(configparser.ConfigParser):
    """INI text parsed in the dialect of `_read_ini`; keeps the text so errors can name a line."""

    def __init__(self, text: str):
        # no header matches the default section "", so [DEFAULT] is an ordinary section
        super().__init__(inline_comment_prefixes=("#", ";"), interpolation=None, default_section="")
        self.text = text


def _read_ini(text: str, source: str, keys_of) -> _Ini:
    """Parse ``text`` in the one INI dialect of every fransonsim input file.

    ``#`` and ``;`` start a comment, at the start of a line or after
    whitespace, also after a value. Interpolation is off, so ``%`` is
    literal. A repeated section, or a key repeated in a section, is an
    error. Section names are case-sensitive; key names are not, and read in
    lower case. ``keys_of(section)`` gives the keys a section may hold, or
    None for a section the file kind does not have: any other section or
    key is an error, and ``[DEFAULT]`` is an unknown section in every kind.
    Each error is a ConfigParseError whose ``line`` is the offending line.
    """
    cp = _Ini(text)
    try:
        cp.read_string(text, source=source)
    except configparser.Error as exc:
        errors = getattr(exc, "errors", None)
        line = errors[0][0] if errors else getattr(exc, "lineno", None)
        raise ConfigParseError(f"{source}: {exc}", line=line) from exc
    for section in cp.sections():
        known = keys_of(section) if section != "DEFAULT" else None
        if known is None:
            raise ConfigParseError(f"unknown section [{section}]", line=_find_line(text, section))
        unknown = sorted(set(cp[section]) - known)
        if unknown:
            raise ConfigParseError(
                f"[{section}] has unknown key {unknown[0]!r}", line=_line(cp[section], unknown[0])
            )
    return cp


def _find_line(text: str, section: str, key: str | None = None) -> int | None:
    """Line number of a section header, or of a key inside it, as `_read_ini` reads them."""
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _INLINE_COMMENT.split(raw, maxsplit=1)[0].strip()
        header = _Ini.SECTCRE.match(line)
        if header:
            current = header["header"]
            if key is None and current == section:
                return lineno
        elif key is not None and current == section:
            option = _Ini.OPTCRE.match(line)
            if option and option["option"].lower() == key:
                return lineno
    return None


def _line(sec, key: str | None = None) -> int | None:
    """Line of ``key`` in the parsed section ``sec``, or of its header."""
    return _find_line(sec.parser.text, sec.name, key)


def _required(sec, key) -> str:
    """The text of ``key`` in ``sec``; an error on the section's line when it is missing."""
    if key not in sec:
        raise ConfigParseError(f"[{sec.name}] missing required key {key!r}", line=_line(sec))
    return sec[key]


# the numeric types a key reads as, and what an error calls a value that is not one
_NUMBER = {int: "an integer", float: "a number"}


def _number(sec, key, default=None, kind=float):
    """``key`` of ``sec`` as a ``kind``; ``default`` when it is missing, unless None."""
    what = _NUMBER[kind]
    if key not in sec and default is not None:
        return default
    text = _required(sec, key)
    try:
        return kind(text)
    except ValueError:
        raise ConfigParseError(f"[{sec.name}] {key} = {text!r} is not {what}", line=_line(sec, key))


def _fields(sec, model, skip=()) -> dict:
    """Keyword arguments for ``model`` from the keys of ``sec`` that name its fields.

    The fields are read in their order, each as a number of its type (int
    or float). A field without a default is a required key; an omitted key
    is left out, so it takes the field's default. The fields named in
    ``skip`` are the caller's to read.
    """
    return {
        f.name: _number(sec, f.name, kind=f.type)
        for f in fields(model)
        if f.name not in skip and (f.name in sec or f.default is MISSING)
    }


def _check_cap(value: int, cap: int, key: str) -> int:
    if value > cap:
        raise ConfigurationError(f"{key} = {value} exceeds the cap of {cap}")
    return value


def _read_file(path) -> str:
    """The text of the file at ``path``, decoded as UTF-8, with its line ends read as ``\n``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigParseError(
            f"{path}: not UTF-8: byte 0x{exc.object[exc.start]:02x} at offset {exc.start}"
        ) from None


def read_spectrum_csv(path) -> list:
    """Read `wavelength_nm,intensity` rows from a CSV file.

    Lines starting with `#` are comments; a single leading non-numeric row is
    treated as a header. A nan or inf in either column is an error.
    """
    rows = []
    header_seen = False
    for lineno, raw in enumerate(_read_file(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 2 columns, got {len(parts)}")
        try:
            row = (float(parts[0]), float(parts[1]))
        except ValueError:
            if not rows and not header_seen:
                header_seen = True  # one leading header row allowed
                continue
            raise DataError(f"{path}:{lineno}: non-numeric value {line!r}")
        if not all(map(math.isfinite, row)):
            raise DataError(f"{path}:{lineno}: non-finite value {line!r}")
        rows.append(row)
    return rows


def load_fiber_catalog(path) -> dict:
    """Read a fiber catalog file: one section per fiber, named by its header.

    Required key: beta2_fs2_per_mm. Optional: beta3_fs3_per_mm, group_index.
    Returns {name: FiberSpec}; the built-in fibers are not implied.
    """
    keys = _keys(FiberSpec) - {"name"}
    cp = _read_ini(_read_file(path), str(path), lambda name: keys)
    return {
        name: FiberSpec(name=name, **_fields(cp[name], FiberSpec, skip=("name",)))
        for name in cp.sections()
    }


def _catalog(path) -> dict:
    """The built-in fibers, plus those of the catalog file at ``path`` unless it is None."""
    return {**BUILTIN_FIBERS, **(load_fiber_catalog(path) if path is not None else {})}


def _fiber(name: str, catalog: dict, sec, key: str) -> FiberSpec:
    name = name.strip()
    if name not in catalog:
        raise ConfigParseError(
            f"[{sec.name}] {key}: unknown fiber {name!r} (known: {sorted(catalog)})",
            line=_line(sec, key),
        )
    return catalog[name]


def _parse_stack(sec, key: str, catalog: dict) -> PathStack:
    value = sec.get(key, "").strip()
    if not value:
        return PathStack(())
    segments = []
    for item in value.split(","):
        item = item.strip()
        if ":" not in item:
            raise ConfigParseError(
                f"[{sec.name}] {key}: segment {item!r} is not NAME:length_mm",
                line=_line(sec, key),
            )
        name, length = item.split(":", 1)
        fiber = _fiber(name, catalog, sec, key)
        try:
            length_mm = float(length)
        except ValueError:
            raise ConfigParseError(
                f"[{sec.name}] {key}: bad length {length!r}", line=_line(sec, key)
            )
        segments.append((fiber, length_mm))
    return stack(*segments)


def parse_experiment(text: str, source: str = "<config>", base_dir=None) -> Experiment:
    """Parse experiment text into simulation objects.

    A relative path in the text ([run] fiber_catalog, [spectrum] file)
    names a file in ``base_dir``, or in the working directory when
    ``base_dir`` is None. Raises ConfigParseError on syntax problems, unknown
    sections or keys, and non-numeric values; physical validation errors
    propagate from the constructed objects.
    """
    cp = _read_ini(text, source, _KNOWN_KEYS.get)
    for section in _REQUIRED_SECTIONS:
        if section not in cp:
            raise ConfigParseError(f"missing required section [{section}]")

    def path(value):
        return value if base_dir is None else os.path.join(base_dir, value)

    run_sec = cp["run"] if "run" in cp else {}
    catalog_path = run_sec.get("fiber_catalog")
    catalog = _catalog(None if catalog_path is None else path(catalog_path))

    # spectrum
    sec = cp["spectrum"]
    model = sec.get("model", SINC2).strip().lower()
    center = _number(sec, "center_wavelength_nm", DEFAULT_CENTER_NM)
    points = _check_cap(
        _number(sec, "points", DEFAULT_GRID_POINTS, int), MAX_GRID_POINTS, "[spectrum] points"
    )
    if model not in (TABULATED, SINC2, GAUSSIAN):
        raise ConfigParseError(f"[spectrum] unknown model {model!r}", line=_line(sec, "model"))
    # a key the chosen spectrum never reads is refused, not ignored
    unread = ("fwhm_nm", "span_radps") if model == TABULATED else ("file",)
    unread = dict.fromkeys(unread, f"with model = {model}")
    if "filter_fwhm_nm" not in sec:
        unread["filter_shape"] = "without filter_fwhm_nm"
    for key, reason in unread.items():
        if key in sec:
            raise ConfigParseError(f"[spectrum] {key} is not read {reason}", line=_line(sec, key))
    if model == TABULATED:
        if "file" not in sec:
            raise ConfigParseError("[spectrum] tabulated model needs a file", line=_line(sec))
        rows = read_spectrum_csv(path(sec["file"]))
        spectrum = load_tabulated(rows, center_nm=center, n_points=points)
    else:
        fwhm = _number(sec, "fwhm_nm")
        span = _number(sec, "span_radps") if "span_radps" in sec else None
        spectrum = make_spectrum(model, fwhm, center_nm=center, span_radps=span, n_points=points)
    if "filter_fwhm_nm" in sec:
        shape = sec.get("filter_shape", FLATTOP).strip().lower()
        spectrum = apply_bandpass(spectrum, _number(sec, "filter_fwhm_nm"), shape)

    # arms
    def arm(section):
        s = cp[section]
        return MZIConfig(
            long=_parse_stack(s, "long", catalog),
            short=_parse_stack(s, "short", catalog),
            **_fields(s, MZIConfig, skip=("long", "short")),
        )

    franson = FransonConfig(
        signal_arm=arm("signal_arm"),
        idler_arm=arm("idler_arm"),
        spectrum=spectrum,
        pump_phase_offset_rad=_number(run_sec, "pump_phase_offset_rad", 0.0),
        source_common_dispersion=DifferentialDispersion(
            _number(run_sec, "source_d_beta2_ps2", 0.0),
            _number(run_sec, "source_d_beta3_ps3", 0.0),
        ),
    )

    # without a [noise] section no pairs are generated
    noise = NoiseModel(**_fields(cp["noise"], NoiseModel)) if "noise" in cp else NoiseModel(0.0)
    detector = DetectorModel(**_fields(cp["detector"] if "detector" in cp else {}, DetectorModel))

    method = run_sec.get("method", RunSettings.method).strip().lower()
    if method not in (COMPLEX_INTEGRAL, PHASE_SWEEP):
        raise ConfigParseError(f"[run] unknown method {method!r}", line=_line(run_sec, "method"))
    run = resolve_run(RunSettings(method=method, **_fields(run_sec, RunSettings, skip=("method",))))

    return Experiment(franson=franson, noise=noise, detector=detector, run=run)


def parse_experiment_file(path) -> Experiment:
    """Read an experiment file; relative paths in it name files next to it."""
    return parse_experiment(_read_file(path), source=str(path), base_dir=os.path.dirname(path))


def parse_problem_file(path, catalog_path=None) -> DesignProblem:
    """Read a design-problem file: one [problem] section, every key required.

    Fiber names resolve against the built-in fibers plus the catalog file at
    ``catalog_path``, if one is given.
    """
    catalog = _catalog(catalog_path)
    cp = _read_ini(_read_file(path), str(path), {"problem": _keys(DesignProblem)}.get)
    if "problem" not in cp:
        raise ConfigParseError(f"{path}: missing [problem] section")
    sec = cp["problem"]
    return DesignProblem(
        **_fields(sec, DesignProblem, skip=("short_fiber", "long_fibers")),
        short_fiber=_fiber(_required(sec, "short_fiber"), catalog, sec, "short_fiber"),
        long_fibers=tuple(
            _fiber(name, catalog, sec, "long_fibers")
            for name in _required(sec, "long_fibers").split(",")
        ),
    )
