"""Input file parsing, preset fidelity, CLI behavior and exit codes."""

import dataclasses
import math
import re
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fransonsim.cli
from fransonsim import presets
from fransonsim import (
    PRESET_NAMES,
    ConfigParseError,
    ConfigurationError,
    ContractViolationError,
    DataError,
    DomainError,
    FransonError,
    InfeasibleDesignError,
    StatisticsError,
    load_fiber_catalog,
    observed_visibility,
    parse_experiment,
    preset_experiment,
    solve_lengths,
    visibility,
)
from fransonsim.cli import main
from fransonsim.designer import DesignProblem
from fransonsim.dispersion import LEAF, SMF, DifferentialDispersion, FiberSpec
from fransonsim.expconfig import (
    RunSettings,
    parse_experiment_file,
    parse_problem_file,
    resolve_run,
)
from fransonsim.interference import FransonConfig, MZIConfig
from fransonsim.montecarlo import DetectorModel
from fransonsim.noise import NoiseModel
from fransonsim.spectra import JointSpectrum

from tests.helpers import loop_fringe_csv, run_python

FULL_CONFIG = """\
[spectrum]
model = sinc2
fwhm_nm = 1.6
center_wavelength_nm = 1560
span_radps = 11.6

[signal_arm]
delta_t_ns = 4.77
phase_rad = 0.0
long = SMF:2875.0
short = SMF:1900.0

[idler_arm]
delta_t_ns = 4.77
phase_rad = 0.0
long = LEAF:2695.0, SMF:180.0
short = SMF:1900.0

[noise]
alpha = 0.0024

[detector]
efficiency = 0.2
gate_rate_mhz = 628.5
dark_prob = 2e-6
afterpulse_prob = 0.06

[run]
seed = 7
gates = 100000
batches = 5
phases = 16
method = integral
"""


PROBLEM = """\
[problem]
target_d_beta2_l_ps2 = 0.022018
delta_t_ns = 4.77
short_fiber = SMF
short_length_mm = 1900.0
long_fibers = LEAF, SMF
"""

CATALOG = """\
[DSF]
group_index = 1.47
beta2_fs2_per_mm = -4.0
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def _write_gaussian_csv(path):
    """A measured-spectrum CSV: a 1.6 nm FWHM Gaussian at 1560 nm, 101 rows."""
    lam = np.linspace(1556, 1564, 101)
    sigma = 1.6 / (2 * math.sqrt(2 * math.log(2)))
    rows = "\n".join(f"{l},{math.exp(-((l - 1560.0) ** 2) / (2 * sigma ** 2))}" for l in lam)
    path.write_text("wavelength_nm,intensity\n" + rows + "\n")
    return path


def _tabulated(text, csv):
    """``text`` with its [spectrum] model replaced by the tabulated file ``csv``."""
    return text.replace(
        "model = sinc2\nfwhm_nm = 1.6\ncenter_wavelength_nm = 1560\nspan_radps = 11.6",
        f"model = tabulated\nfile = {csv}\ncenter_wavelength_nm = 1560",
    )


class TestParseExperiment:
    def test_full_document(self):
        exp = parse_experiment(FULL_CONFIG)
        assert exp.noise.alpha == 0.0024
        assert exp.detector.gate_rate_mhz == 628.5
        assert exp.run.seed == 7
        assert exp.run.phases == 16
        sig = exp.franson.signal_arm
        assert sig.delta_t_ns == 4.77
        assert sig.long.segments[0].fiber.name == "SMF"
        assert sig.long.segments[0].length_mm == 2875.0
        idl = exp.franson.idler_arm
        assert [s.fiber.name for s in idl.long.segments] == ["LEAF", "SMF"]
        assert exp.franson.spectrum.model == "sinc2"

    def test_defaults_for_optional_sections(self):
        text = "\n".join(
            FULL_CONFIG.splitlines()[:17]
        )  # spectrum + arms only, drop noise/detector/run
        exp = parse_experiment(text)
        assert exp.noise.alpha == 0.0
        assert exp.detector.efficiency == 0.20
        assert exp.run.method == "integral"

    def test_unknown_key_rejected_with_line(self, tmp_path, capsys):
        # [detector] jitter_rms_ps was a key until its field, which moved no
        # event, was removed
        for line, section, key in [("alpha = 0.0024", "noise", "beta"),
                                   ("afterpulse_prob = 0.06", "detector", "jitter_rms_ps")]:
            bad = FULL_CONFIG.replace(line, f"{line}\n{key} = 1")
            with pytest.raises(ConfigParseError) as exc_info:
                parse_experiment(bad)
            assert f"[{section}] has unknown key {key!r}" in str(exc_info.value)
            assert "line" in str(exc_info.value)
            assert main(["montecarlo", "--config", str(_write(tmp_path, "bad.ini", bad))]) == 2
            assert key in capsys.readouterr().err

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigParseError):
            parse_experiment(FULL_CONFIG + "\n[pump]\npower_mw = 1\n")

    def test_missing_required_section(self):
        with pytest.raises(ConfigParseError):
            parse_experiment("[spectrum]\nmodel = sinc2\nfwhm_nm = 1.6\n")

    def test_non_numeric_value(self):
        with pytest.raises(ConfigParseError):
            parse_experiment(FULL_CONFIG.replace("alpha = 0.0024", "alpha = lots"))

    def test_unknown_fiber(self):
        with pytest.raises(ConfigParseError) as exc_info:
            parse_experiment(FULL_CONFIG.replace("SMF:2875.0", "PCF:2875.0"))
        assert "PCF" in str(exc_info.value)

    def test_tabulated_spectrum_file(self, tmp_path):
        csv = _write_gaussian_csv(tmp_path / "meas.csv")
        exp = parse_experiment(_tabulated(FULL_CONFIG, csv))
        assert exp.franson.spectrum.model == "tabulated"
        assert abs(exp.franson.spectrum.integral() - 1.0) <= 1e-9

    def test_filter_keys(self):
        text = FULL_CONFIG.replace(
            "span_radps = 11.6", "span_radps = 11.6\nfilter_fwhm_nm = 0.36\nfilter_shape = flattop"
        )
        exp = parse_experiment(text)
        assert exp.franson.spectrum.passband_fraction < 0.5


class TestPresetFidelity:
    def test_shared_parameters(self):
        for name in ("fig4a", "fig4b", "fig4c", "fig4d"):
            exp = preset_experiment(name)
            assert exp.franson.signal_arm.delta_t_ns == 4.77
            assert exp.franson.idler_arm.delta_t_ns == 4.77
            assert exp.noise.alpha == 0.0024
            assert exp.detector.efficiency == 0.20
            assert exp.detector.gate_rate_mhz == 628.5
            assert exp.detector.dark_prob == 2e-6
            assert exp.detector.afterpulse_prob == 0.06
            assert exp.franson.spectrum.fwhm_nm == 1.6
            assert exp.franson.spectrum.center_wavelength_nm == 1560.0

    def test_fig4a_arms_all_smf(self):
        exp = preset_experiment("fig4a")
        for arm in (exp.franson.signal_arm, exp.franson.idler_arm):
            assert {s.fiber.name for s in arm.long.segments + arm.short.segments} == {"SMF"}
            d = arm.differential()
            assert d.d_beta2_l_ps2 == pytest.approx(-22.5 * 975.0 * 1e-6, rel=1e-12)

    def test_fig4b_filter(self):
        exp = preset_experiment("fig4b")
        s = exp.franson.spectrum
        assert s.passband_fraction < 0.5
        from fransonsim import width_nm_to_radps

        # a flat-top filter's grid spans its passband, of full width 0.36 nm
        width_nm = 2.0 * s.span_radps / width_nm_to_radps(1.0, 1560.0)
        assert width_nm == pytest.approx(0.36, rel=0.02)

    def test_fig4c_both_arms_null(self):
        exp = preset_experiment("fig4c")
        for arm in (exp.franson.signal_arm, exp.franson.idler_arm):
            assert abs(arm.differential().d_beta2_l_ps2) <= 1e-10

    def test_fig4c_lengths_are_the_solved_ones(self):
        # the stated lengths are bitwise those of the zero-dispersion solve
        sol = solve_lengths(DesignProblem(
            target_d_beta2_l_ps2=0.0, delta_t_ns=presets.DELTA_T_NS, short_fiber=SMF,
            long_fibers=(LEAF, SMF), short_length_mm=presets.SHORT_SMF_MM))
        assert sol.lengths_mm == (presets.BALANCED_LEAF_MM, presets.BALANCED_SMF_MM)
        exp = preset_experiment("fig4c")
        for arm in (exp.franson.signal_arm, exp.franson.idler_arm):
            assert [(s.fiber.name, s.length_mm) for s in arm.long.segments] == [
                ("LEAF", 1343.8214947638319), ("SMF", 1530.299775440528)]

    def test_fig4d_published_lengths(self):
        exp = preset_experiment("fig4d")
        idl = exp.franson.idler_arm
        assert [(s.fiber.name, s.length_mm) for s in idl.long.segments] == [
            ("LEAF", 2695.0),
            ("SMF", 180.0),
        ]
        assert [(s.fiber.name, s.length_mm) for s in idl.short.segments] == [("SMF", 1900.0)]
        assert idl.differential().d_beta2_l_ps2 == pytest.approx(2.201795e-2, rel=1e-12)
        sig = exp.franson.signal_arm
        assert sig.differential().d_beta2_l_ps2 == pytest.approx(-2.19375e-2, rel=1e-12)

    def test_unknown_preset(self):
        from fransonsim import ConfigurationError

        with pytest.raises(ConfigurationError):
            preset_experiment("fig5")


class TestCli:
    def test_import_leaves_pool_and_scipy_unloaded(self):
        # no command needs a thread pool, and concurrent.futures alone would
        # add about 10 ms to every command's start-up; numpy.random, which
        # only the Monte Carlo needs, about 15 ms
        code = ("import sys, fransonsim.cli; print([m for m in "
                "('concurrent.futures', 'scipy', 'numpy.random') if m in sys.modules])")
        assert run_python(code).strip() == "[]"

    def test_presets_list(self, capsys):
        assert main(["presets", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig4a", "fig4b", "fig4c", "fig4d"):
            assert name in out

    def _value(self, out, key):
        for line in out.splitlines():
            if line.startswith(key):
                return float(line.split()[-1])
        raise AssertionError(f"{key} not in output:\n{out}")

    def test_visibility_fig4c(self, capsys):
        assert main(["visibility", "--preset", "fig4c"]) == 0
        out = capsys.readouterr().out
        assert abs(self._value(out, "observed_visibility") - 0.9976) <= 5e-4

    def test_visibility_fig4d_matches_fig4c(self, capsys):
        main(["visibility", "--preset", "fig4c"])
        v_c = self._value(capsys.readouterr().out, "observed_visibility")
        main(["visibility", "--preset", "fig4d"])
        v_d = self._value(capsys.readouterr().out, "observed_visibility")
        assert abs(v_c - v_d) <= 1e-4

    def test_visibility_fig4a_band(self, capsys):
        assert main(["visibility", "--preset", "fig4a"]) == 0
        out = capsys.readouterr().out
        assert 0.980 <= self._value(out, "observed_visibility") <= 0.988

    def test_visibility_reports_passband(self, capsys):
        main(["visibility", "--preset", "fig4b"])
        out = capsys.readouterr().out
        assert "passband_fraction" in out

    def test_config_file_input(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(FULL_CONFIG)
        assert main(["visibility", "--config", str(cfg)]) == 0

    def test_requires_exactly_one_source(self, capsys):
        assert main(["visibility"]) == 2
        assert main(["visibility", "--preset", "fig4a", "--config", "x.ini"]) == 2

    def test_fringe_csv_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["fringe", "--preset", "fig4a", "--points", "64", "--out", str(out1)]) == 0
        assert main(["fringe", "--preset", "fig4a", "--points", "64", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "phi_rad,coincidence_rate"
        assert len(lines) == 65

    @pytest.mark.parametrize("preset", ["fig4a", "fig4c"])
    def test_fringe_stdout_equals_out_file(self, tmp_path, capsys, preset):
        out = tmp_path / "fringe.csv"
        capsys.readouterr()
        assert main(["fringe", "--preset", preset, "--points", "48"]) == 0
        printed = capsys.readouterr().out
        assert main(["fringe", "--preset", preset, "--points", "48", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert printed.encode() == out.read_bytes()
        assert printed.count("\n") == 49

    def test_alpha_sweep_csv_and_fit(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["alpha-sweep", "--preset", "fig4c", "--out", str(out)])
        assert code == 0
        report = capsys.readouterr().out
        slope = self._value(report, "fitted_slope_analytic")
        intercept = self._value(report, "fitted_intercept_analytic")
        assert slope == pytest.approx(-1.0, abs=0.01)
        assert intercept == pytest.approx(1.0, abs=0.001)
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,V_analytic,V_montecarlo,sigma_mc"
        alphas = [float(l.split(",")[0]) for l in lines[1:]]
        assert alphas == sorted(alphas)

    def test_alpha_sweep_empty_list(self, capsys):
        assert main(["alpha-sweep", "--preset", "fig4c", "--alphas", ""]) == 2

    def test_alpha_sweep_fig4a_intercept(self, capsys):
        assert main(["alpha-sweep", "--preset", "fig4a"]) == 0
        out = capsys.readouterr().out
        assert abs(self._value(out, "fitted_intercept_analytic") - 0.987) <= 0.007

    def test_alpha_sweep_montecarlo_columns(self, tmp_path, capsys):
        out = tmp_path / "sweep_mc.csv"
        code = main(
            [
                "alpha-sweep", "--preset", "fig4c", "--montecarlo",
                "--alphas", "0.01,0.04",
                "--gates", "64000", "--batches", "2", "--phases", "8",
                "--seed", "2", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        for line in lines[1:]:
            fields = line.split(",")
            assert "nan" not in fields[2]
        assert "fitted_slope_montecarlo" in capsys.readouterr().out

    def test_montecarlo_exports(self, tmp_path, capsys):
        events = tmp_path / "ev.csv"
        hist = tmp_path / "hist.csv"
        fringe = tmp_path / "fringe.csv"
        code = main(
            [
                "montecarlo", "--preset", "fig4c",
                "--gates", "160000", "--batches", "2", "--phases", "8",
                "--seed", "3",
                "--out", str(fringe), "--events", str(events), "--histogram", str(hist),
            ]
        )
        assert code == 0
        assert events.read_text().startswith("detector,gate_index")
        assert hist.read_text().startswith("offset,counts")
        assert fringe.read_text().startswith("phi_rad,offset_-3")

    def test_montecarlo_warns_on_unphysical_visibility(self, capsys):
        # about 0.3 offset-0 coincidences per (batch, phase) bin
        argv = ["montecarlo", "--preset", "fig4a", "--gates", "320000", "--batches", "2",
                "--seed", "8"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert self._value(captured.out, "V_montecarlo") > 1
        (line,) = captured.err.splitlines()
        assert line.startswith("warning: V_montecarlo 1.32640735e+00 exceeds 1")
        assert "only 19 offset-0 coincidences in 64 (batch, phase) bins" in line

    def test_alpha_sweep_warns_only_for_unphysical_estimates(self, capsys):
        argv = ["alpha-sweep", "--preset", "fig4a", "--montecarlo", "--alphas", "0.0024,0.2",
                "--gates", "320000", "--batches", "2", "--seed", "8"]
        assert main(argv) == 0
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("warning: alpha 2.40000000e-03: V_montecarlo 1.32640735e+00")

    def test_montecarlo_deviation_without_spread(self, capsys):
        # 2 offset-0 coincidences: both batches fit V = 2, so sigma_V is 0,
        # and V lies infinitely many sigmas above the analytic 0.985
        argv = ["montecarlo", "--preset", "fig4a", "--gates", "64000", "--batches", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert self._value(out, "V_montecarlo") == 2.0
        assert self._value(out, "sigma_V") == 0.0
        assert "deviation_sigmas                 inf\n" in out

    @pytest.mark.parametrize("shift, printed", [(0.01, "inf"), (0.0, "0.00000000e+00"),
                                                (-0.5, "-inf")])
    def test_deviation_sign_without_spread(self, monkeypatch, capsys, shift, printed):
        exp = preset_experiment("fig4a")
        v = observed_visibility(visibility(exp.franson).visibility, exp.noise) + shift
        monkeypatch.setattr(fransonsim.montecarlo, "estimate_visibility",
                            lambda *args, **kwargs: SimpleNamespace(v=v, sigma_v=0.0,
                                                                    n_gates_per_phase=1))
        assert main(["montecarlo", "--preset", "fig4a", "--gates", "64", "--batches", "2"]) == 0
        assert f"deviation_sigmas                 {printed}\n" in capsys.readouterr().out

    def test_montecarlo_statistics_error(self, tmp_path, capsys):
        cfg = tmp_path / "quiet.ini"
        cfg.write_text(FULL_CONFIG.replace("alpha = 0.0024", "alpha = 0.0"))
        code = main(
            ["montecarlo", "--config", str(cfg), "--gates", "16000", "--batches", "2"]
        )
        assert code == 5

    def test_design_roundtrip(self, tmp_path, capsys):
        prob = tmp_path / "problem.ini"
        prob.write_text(
            "[problem]\ntarget_d_beta2_l_ps2 = 0.022018\ndelta_t_ns = 4.77\n"
            "short_fiber = SMF\nshort_length_mm = 1900.0\nlong_fibers = LEAF, SMF\n"
        )
        assert main(["design", "--problem", str(prob), "--emit-arm", "idler_arm"]) == 0
        out = capsys.readouterr().out
        assert abs(self._value(out, "residual_d_beta2_l_ps2")) <= 1e-5
        assert "[idler_arm]" in out

    def test_design_infeasible_exit_code(self, tmp_path, capsys):
        prob = tmp_path / "problem.ini"
        prob.write_text(
            "[problem]\ntarget_d_beta2_l_ps2 = 1.0\ndelta_t_ns = 4.77\n"
            "short_fiber = SMF\nshort_length_mm = 1900.0\nlong_fibers = LEAF, SMF\n"
        )
        assert main(["design", "--problem", str(prob)]) == 4

    def test_design_singular_exit_code(self, tmp_path, capsys):
        prob = tmp_path / "problem.ini"
        prob.write_text(
            "[problem]\ntarget_d_beta2_l_ps2 = 0.0\ndelta_t_ns = 4.77\n"
            "short_fiber = SMF\nshort_length_mm = 1900.0\nlong_fibers = SMF, SMF\n"
        )
        assert main(["design", "--problem", str(prob)]) == 3

    @pytest.mark.parametrize(
        "problem, catalog, key",
        [
            (PROBLEM.replace("delta_t_ns = 4.77", "delta_t_ns = -1"), None, "delta_t"),
            # an infinite delay once read as an infeasible design of inf mm (exit 4)
            (PROBLEM.replace("delta_t_ns = 4.77", "delta_t_ns = inf"), None, "delta_t"),
            # both once failed later as "differential dispersion must be finite"
            (PROBLEM.replace("short_length_mm = 1900.0", "short_length_mm = inf"), None,
             "short_length_mm"),
            (PROBLEM.replace("= 0.022018", "= nan"), None, "target_d_beta2_l_ps2"),
            (PROBLEM.replace("LEAF, SMF", "DSF, SMF"), CATALOG.replace("1.47", "0.5"),
             "group index"),
            # once printed achieved_delay_ns nan and exited 0
            (PROBLEM.replace("LEAF, SMF", "DSF, SMF"), CATALOG.replace("1.47", "inf"),
             "group index must exceed 1"),
            # once overflowed the determinant with RuntimeWarnings
            (PROBLEM.replace("LEAF, SMF", "DSF, SMF"), CATALOG.replace("1.47", "1e308"),
             "ill-conditioned design system"),
        ],
        ids=["problem", "problem-delay-inf", "problem-short-inf", "problem-target-nan",
             "catalog", "catalog-group-index-inf", "catalog-group-index-1e308"],
    )
    def test_design_input_validation_exit_code(self, tmp_path, capsys, problem, catalog, key):
        # physical validation exits 3 for every input file kind, as for
        # experiment files, and warns nothing on the way
        argv = ["design", "--problem", str(_write(tmp_path, "problem.ini", problem))]
        if catalog:
            argv += ["--catalog", str(_write(tmp_path, "fibers.ini", catalog))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert key in captured.err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "broken.ini"
        cfg.write_text(FULL_CONFIG.replace("alpha = 0.0024", "alpha = often"))
        assert main(["visibility", "--config", str(cfg)]) == 2
        assert "error" in capsys.readouterr().err

    def test_physics_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "mismatch.ini"
        cfg.write_text(FULL_CONFIG.replace("delta_t_ns = 4.77\nphase_rad = 0.0\nlong = SMF:2875.0", "delta_t_ns = 4.80\nphase_rad = 0.0\nlong = SMF:2875.0"))
        assert main(["visibility", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize(
        "error, code, prefix",
        [
            (ConfigParseError, 2, "error: "),
            (InfeasibleDesignError, 4, "error: infeasible design: "),
            (StatisticsError, 5, "error: statistics: "),
            (ConfigurationError, 3, "error: "),
            (ContractViolationError, 3, "error: "),
            (DataError, 3, "error: "),
            (DomainError, 3, "error: "),
            (FransonError, 3, "error: "),
            (OSError, 2, "error: "),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else None,
    )
    def test_error_exit_codes(self, monkeypatch, capsys, error, code, prefix):
        def fail(name):
            raise error("boom")

        monkeypatch.setattr(fransonsim.cli, "preset_summary", fail)
        assert main(["presets", "list"]) == code
        captured = capsys.readouterr()
        assert captured.err == f"{prefix}boom\n"
        assert captured.out == ""


class TestRunMethod:
    """[run] method chooses the reported extrema; --method overrides it."""

    @pytest.mark.parametrize(
        "in_file, flag, expected",
        [
            (None, None, "integral"),
            ("sweep", None, "sweep"),
            ("integral", None, "integral"),
            (None, "sweep", "sweep"),
            ("sweep", "integral", "integral"),
            ("integral", "sweep", "sweep"),
        ],
    )
    def test_file_and_flag(self, tmp_path, capsys, in_file, flag, expected):
        text = FULL_CONFIG.replace("method = integral\n", f"method = {in_file}\n" if in_file else "")
        path = tmp_path / "exp.ini"
        path.write_text(text)
        argv = ["visibility", "--config", str(path)] + (["--method", flag] if flag else [])
        assert main(argv) == 0
        rows = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
        res = fransonsim.cli.visibility(parse_experiment(text).franson, expected)
        assert rows["method"] == expected
        for key in ("c_max", "c_min", "phase_at_max_rad"):
            assert rows[key] == f"{getattr(res, key):.8e}"
        # both visibilities are printed whichever method is chosen
        sweep = fransonsim.cli.visibility(parse_experiment(text).franson, "sweep")
        assert rows["intrinsic_visibility_sweep"] == f"{sweep.visibility:.8e}"


class TestFringeCsv:
    """Rows printed from the fringe amplitude equal the per-row quadrature loop."""

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_fringe_matches_loop(self, tmp_path, name):
        cfg = preset_experiment(name).franson
        for points in (0, 1, 2, 3, 7, 256, 1024):
            out = tmp_path / f"fringe{points}.csv"
            assert main(["fringe", "--preset", name, "--points", str(points), "--out", str(out)]) == 0
            assert out.read_text(encoding="utf-8") == loop_fringe_csv(cfg, points)
        assert (tmp_path / "fringe0.csv").read_text() == "phi_rad,coincidence_rate\n"

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_visibility_out_matches_loop(self, tmp_path, capsys, name):
        out = tmp_path / "fringe.csv"
        assert main(["visibility", "--preset", name, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == loop_fringe_csv(preset_experiment(name).franson, 256)


class TestParserReuse:
    # a valid command, a usage error, then commands that set or leave at
    # their defaults options an earlier command gave
    RUNS = [
        ["visibility", "--preset", "fig4b", "--method", "sweep", "--sigma-v", "0.01"],
        ["fringe", "--preset", "fig4a", "--points", "many"],
        ["visibility", "--preset", "fig4b"],
        ["fringe", "--preset", "fig4d", "--points", "5"],
        ["fringe", "--preset", "fig4d"],
        ["presets", "list"],
    ]

    def run_all(self, capsys, fresh):
        results = []
        for argv in self.RUNS:
            if fresh:
                fransonsim.cli._parser.cache_clear()
            code = main(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    def test_reused_parser_matches_fresh_parsers(self, capsys, monkeypatch):
        built = []
        original = fransonsim.cli.build_parser
        monkeypatch.setattr(fransonsim.cli, "build_parser", lambda: built.append(1) or original())
        fransonsim.cli._parser.cache_clear()
        reused = self.run_all(capsys, fresh=False)
        assert len(built) == 1
        fresh = self.run_all(capsys, fresh=True)
        assert len(built) == 1 + len(self.RUNS)
        assert [r[0] for r in reused] == [0, 2, 0, 0, 0, 0]
        assert "invalid int value" in reused[1][2]
        assert reused == fresh

    def test_built_on_first_call_not_at_import(self):
        out = run_python(
            "import fransonsim.cli as cli\n"
            "print(cli._parser.cache_info().currsize)\n"
            "cli.main(['presets', 'list'])\n"
            "cli.main(['presets', 'list'])\n"
            "print(cli._parser.cache_info().currsize, cli._parser.cache_info().misses)\n"
        )
        lines = out.splitlines()
        assert lines[0] == "0"
        assert lines[-1] == "1 1"


class TestInputValidation:
    @pytest.mark.parametrize("command", ["fringe", "visibility"])
    @pytest.mark.parametrize("value", ["1e103", "inf", "nan", "1207.5"])
    def test_unphysical_span_rejected(self, tmp_path, capsys, command, value):
        cfg = tmp_path / "span.ini"
        cfg.write_text(FULL_CONFIG.replace("span_radps = 11.6", f"span_radps = {value}"))
        assert main([command, "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert "span_radps" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "5e-324", "2.2e-308"])
    def test_sigma_v_must_be_positive_and_finite(self, capsys, value):
        assert main(["visibility", "--preset", "fig4a", "--sigma-v", value]) == 3
        captured = capsys.readouterr()
        assert "sigma_v must be positive and finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["fringe", "visibility"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_pump_offset_rejected(self, tmp_path, capsys, command, value):
        cfg = tmp_path / "offset.ini"
        cfg.write_text(FULL_CONFIG + f"pump_phase_offset_rad = {value}\n")
        assert main([command, "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert "pump_phase_offset_rad" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command, old, new, csv_row", [
        pytest.param("montecarlo", "gate_rate_mhz = 628.5", "gate_rate_mhz = inf", None,
                     id="gate-rate-inf"),
        # both arms, so that the delays' mismatch is inf - inf = nan
        pytest.param("montecarlo", "delta_t_ns = 4.77", "delta_t_ns = inf", None,
                     id="montecarlo-delay-inf"),
        pytest.param("visibility", "delta_t_ns = 4.77", "delta_t_ns = inf", None,
                     id="visibility-delay-inf"),
        # sinc^2 at the default span: its first zero would lie at pi / 0
        pytest.param("visibility", "fwhm_nm = 1.6\ncenter_wavelength_nm = 1560\nspan_radps = 11.6",
                     "fwhm_nm = inf", None, id="sinc2-fwhm-inf"),
        pytest.param("visibility", "center_wavelength_nm = 1560\nspan_radps = 11.6",
                     "center_wavelength_nm = inf", None, id="sinc2-center-inf"),
        # one row of a tabulated spectrum's CSV (spectrum.csv next to the file)
        pytest.param("visibility", "", "", "1560.0,nan", id="tabulated-intensity-nan"),
        pytest.param("visibility", "", "", "1560.0,inf", id="tabulated-intensity-inf"),
        pytest.param("visibility", "", "", "nan,1.0", id="tabulated-wavelength-nan"),
    ])
    def test_non_finite_input_exits_3(self, tmp_path, capsys, command, old, new, csv_row):
        assert old in FULL_CONFIG
        text = FULL_CONFIG.replace(old, new)
        if csv_row is not None:
            csv = _write_gaussian_csv(tmp_path / "spectrum.csv")
            csv.write_text(csv.read_text() + csv_row + "\n")
            text = _tabulated(text, "spectrum.csv")
        cfg = tmp_path / "input.ini"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("model, key, reason", [
        pytest.param("tabulated", "span_radps = 11.6", "with model = tabulated",
                     id="tabulated-span_radps"),
        pytest.param("tabulated", "fwhm_nm = 1.6", "with model = tabulated",
                     id="tabulated-fwhm_nm"),
        pytest.param("sinc2", "file = spectrum.csv", "with model = sinc2", id="sinc2-file"),
        pytest.param("gaussian", "file = spectrum.csv", "with model = gaussian",
                     id="gaussian-file"),
        pytest.param("sinc2", "filter_shape = gaussian", "without filter_fwhm_nm",
                     id="sinc2-filter_shape"),
        pytest.param("tabulated", "filter_shape = flattop", "without filter_fwhm_nm",
                     id="tabulated-filter_shape"),
    ])
    def test_unread_spectrum_key_exits_2_on_its_line(self, tmp_path, capsys, model, key, reason):
        # the chosen spectrum would never read the key, so it changed nothing
        _write_gaussian_csv(tmp_path / "spectrum.csv")
        text = FULL_CONFIG.replace("model = sinc2", f"model = {model}")
        if model == "tabulated":
            text = _tabulated(FULL_CONFIG, "spectrum.csv")
        text = text.replace("center_wavelength_nm = 1560\n", f"center_wavelength_nm = 1560\n{key}\n")
        cfg = _write(tmp_path, "unread.ini", text)
        assert main(["visibility", "--config", str(cfg)]) == 2
        line = text.splitlines().index(key) + 1
        name = key.split(" = ")[0]
        captured = capsys.readouterr()
        assert captured.err == f"error: line {line}: [spectrum] {name} is not read {reason}\n"
        assert captured.out == ""

    def test_unknown_filter_shape_exits_2_on_its_line(self, tmp_path, capsys):
        key = "filter_shape = triangle"
        text = FULL_CONFIG.replace(
            "span_radps = 11.6", f"span_radps = 11.6\nfilter_fwhm_nm = 0.36\n{key}"
        )
        cfg = _write(tmp_path, "shape.ini", text)
        assert main(["visibility", "--config", str(cfg)]) == 2
        line = text.splitlines().index(key) + 1
        captured = capsys.readouterr()
        assert captured.err == f"error: line {line}: [spectrum] unknown filter_shape 'triangle'\n"
        assert captured.out == ""

    def test_tabulated_grid_past_the_carrier_exits_3(self, tmp_path, capsys):
        # a sample at 500 nm lies 2,560 rad/ps from 1560 nm, past the carrier's 1,207
        csv = _write_gaussian_csv(tmp_path / "spectrum.csv")
        header = "wavelength_nm,intensity\n"
        csv.write_text(csv.read_text().replace(header, header + "500.0,0.0\n"))
        cfg = _write(tmp_path, "wide.ini", _tabulated(FULL_CONFIG, "spectrum.csv"))
        assert main(["visibility", "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert "carrier angular frequency" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("span_radps = 11.6", "span_radps = 11.6\npoints = 1048578", "[spectrum] points"),
            ("gates = 100000", "gates = 67108865", "[run] gates"),
        ],
    )
    def test_config_caps(self, tmp_path, capsys, old, new, key):
        cfg = tmp_path / "big.ini"
        cfg.write_text(FULL_CONFIG.replace(old, new))
        assert main(["visibility", "--config", str(cfg)]) == 3
        assert key in capsys.readouterr().err

    def test_gates_cap_is_inclusive(self):
        exp = parse_experiment(FULL_CONFIG.replace("gates = 100000", "gates = 67108864"))
        assert exp.run.gates == 2**26

    @pytest.mark.parametrize("command", [["montecarlo"], ["alpha-sweep", "--montecarlo"]])
    def test_gates_override_cap(self, capsys, command):
        assert main(command + ["--preset", "fig4a", "--gates", "67108865"]) == 3
        assert "--gates" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fringe", "visibility"])
    @pytest.mark.parametrize("points", ["65537", "-1"])
    def test_fringe_points_cap(self, tmp_path, capsys, command, points):
        out = tmp_path / "fringe.csv"
        assert main([command, "--preset", "fig4a", "--points", points, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert "--points" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", [["montecarlo"], ["alpha-sweep", "--montecarlo"]], ids=["mc", "sweep"]
    )
    @pytest.mark.parametrize(
        "old, new, flags, key",
        [
            ("", "", ["--phases", "0"], "--phases"),
            ("", "", ["--phases", "-3"], "--phases"),
            ("", "", ["--seed", "-1"], "--seed"),
            ("phases = 16", "phases = -3", [], "[run] phases"),
            ("seed = 7", "seed = -4", [], "[run] seed"),
            ("", "", ["--batches", "1"], "--batches 1 is below the minimum of 2"),
            ("batches = 5", "batches = 1", [], "[run] batches = 1 is below the minimum of 2"),
            ("", "", ["--gates", "-5"], "--gates -5 is below the minimum of 0"),
            ("gates = 100000", "gates = -5", [], "[run] gates = -5 is below the minimum of 0"),
        ],
        ids=["flag-phases-0", "flag-phases-neg", "flag-seed-neg", "file-phases-neg", "file-seed-neg",
             "flag-batches-1", "file-batches-1", "flag-gates-neg", "file-gates-neg"],
    )
    def test_run_settings_out_of_range(self, tmp_path, capsys, command, old, new, flags, key):
        cfg = tmp_path / "run.ini"
        cfg.write_text(FULL_CONFIG.replace(old, new))
        assert main(command + ["--config", str(cfg), "--gates", "3200"] + flags) == 3
        captured = capsys.readouterr()
        assert key in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, key", [
        (["visibility", "--config", "RUN"], "[run] gates = -5 is below the minimum of 0"),
        (["alpha-sweep", "--preset", "fig4a", "--gates", "-5", "--alphas", "0.1"],
         "--gates -5 is below the minimum of 0"),
    ], ids=["visibility-file", "alpha-sweep-flag"])
    def test_gates_minimum_without_monte_carlo(self, tmp_path, capsys, argv, key):
        cfg = _write(tmp_path, "run.ini", FULL_CONFIG.replace("gates = 100000", "gates = -5"))
        assert main([str(cfg) if a == "RUN" else a for a in argv]) == 3
        captured = capsys.readouterr()
        assert key in captured.err
        assert captured.out == ""

    def test_batches_minimum_only_when_simulating(self, tmp_path, capsys):
        cfg = _write(tmp_path, "run.ini", FULL_CONFIG.replace("batches = 5", "batches = 1"))
        assert parse_experiment_file(cfg).run.batches == 1
        assert main(["visibility", "--config", str(cfg)]) == 0
        assert main(["alpha-sweep", "--config", str(cfg), "--alphas", "0.1,0.2"]) == 0
        assert main(["alpha-sweep", "--config", str(cfg), "--montecarlo", "--gates", "0"]) == 0
        assert capsys.readouterr().err == ""

    def test_file_checks_name_gates_before_seed(self):
        text = FULL_CONFIG.replace("seed = 7", "seed = -4").replace("gates = 100000", "gates = 67108865")
        with pytest.raises(ConfigurationError, match=r"^\[run\] gates = 67108865 exceeds the cap"):
            parse_experiment(text)

    @pytest.mark.parametrize("montecarlo", [[], ["--montecarlo", "--gates", "3200"]],
                             ids=["analytic", "mc"])
    @pytest.mark.parametrize("alphas", ["0.1,0.1", "0.2,0.1,0.10", "0.1,1e-1,0.3"])
    def test_repeated_alpha_rejected(self, monkeypatch, capsys, montecarlo, alphas):
        def no_estimate(*args, **kwargs):
            raise AssertionError("an estimate ran")

        monkeypatch.setattr(fransonsim.montecarlo, "estimate_visibility", no_estimate)
        argv = ["alpha-sweep", "--preset", "fig4a", "--alphas", alphas] + montecarlo
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: alpha 0.1 is repeated in {alphas!r}\n"
        assert captured.out == ""


class TestRunGrid:
    @pytest.mark.parametrize(
        "command", [["montecarlo"], ["alpha-sweep", "--montecarlo"]], ids=["mc", "sweep"]
    )
    @pytest.mark.parametrize(
        "old, new, flags, key",
        [
            ("", "", ["--phases", "65537"], "--phases"),
            ("phases = 16", "phases = 65537", [], "[run] phases"),
            ("", "", ["--gates", "1000", "--phases", "2000000"], "--phases"),
            ("", "", ["--gates", "1000", "--phases", "65536"], "--gates 1000"),
            ("gates = 100000", "gates = 15", [], "[run] gates = 15"),
        ],
        ids=["flag-cap", "file-cap", "flag-over-cap", "flag-few-gates", "file-few-gates"],
    )
    def test_rejected_before_the_phase_grid(self, tmp_path, capsys, command, old, new, flags,
                                            key):
        # a 2M-point grid alone would take 16 MB; the first call also builds
        # the parser and imports lazily loaded modules
        cfg = tmp_path / "run.ini"
        cfg.write_text(FULL_CONFIG.replace(old, new))
        argv = command + ["--config", str(cfg)] + flags
        assert main(argv) == 3
        tracemalloc.start()
        try:
            assert main(argv) == 3
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        captured = capsys.readouterr()
        assert key in captured.err
        assert captured.out == ""

    def test_phases_cap_is_inclusive(self):
        exp = parse_experiment(FULL_CONFIG.replace("phases = 16", "phases = 65536"))
        assert exp.run.phases == 2**16

    @pytest.mark.parametrize(
        "command", [["montecarlo"], ["alpha-sweep", "--montecarlo"]], ids=["mc", "sweep"]
    )
    @pytest.mark.parametrize(
        "old, new, flags, key",
        [
            ("", "", ["--batches", "4097"], "--batches 4097 at [run] phases = 16"),
            ("batches = 5", "batches = 4097", [], "[run] batches = 4097 at [run] phases = 16"),
            ("", "", ["--batches", "2", "--phases", "32769"], "--batches 2 at --phases 32769"),
            # 32 gates on 32 phases ran 4,000 batches of empty fringes, then exited 5
            ("", "", ["--gates", "32", "--phases", "32", "--batches", "4000"],
             "--batches 4000 at --phases 32 asks for 128000 streams"),
        ],
        ids=["flag-batches", "file-batches", "flag-phases", "few-gates"],
    )
    def test_streams_capped_before_the_histogram(self, tmp_path, capsys, command, old, new,
                                                 flags, key):
        cfg = tmp_path / "run.ini"
        cfg.write_text(FULL_CONFIG.replace(old, new))
        argv = command + ["--config", str(cfg)] + flags
        assert main(argv) == 3
        tracemalloc.start()
        try:
            assert main(argv) == 3
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        captured = capsys.readouterr()
        assert key in captured.err
        assert f"over the cap of {2**16}" in captured.err
        assert captured.out == ""

    def test_streams_cap_is_inclusive(self):
        run = parse_experiment(FULL_CONFIG).run
        flags = dict(seed=None, gates=None, batches=4096, phases=None)
        resolved = resolve_run(run, flags, simulate=True)
        assert (resolved.seed, resolved.gates, resolved.batches, resolved.phases) == (
            7, 100_000, 4096, 16
        )
        flags["batches"] = 4097
        with pytest.raises(ConfigurationError, match="--batches 4097"):
            resolve_run(run, flags, simulate=True)
        # the cap binds only when a Monte Carlo runs
        assert resolve_run(run, flags, simulate=False).batches == 4097

    @pytest.mark.parametrize("export", ["--events", "--histogram"])
    @pytest.mark.parametrize("phase", ["nan", "inf", "-inf"])
    def test_non_finite_phase_rejected_before_any_stream(self, tmp_path, monkeypatch, capsys,
                                                         export, phase):
        def no_stream(*args):
            raise AssertionError("a stream ran")

        monkeypatch.setattr(fransonsim.montecarlo, "_simulate_segments", no_stream)
        out = tmp_path / "export.csv"
        argv = ["montecarlo", "--preset", "fig4a", "--gates", "3200", "--batches", "2",
                f"--phase={phase}", export, str(out)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert f"--phase {float(phase)} must be finite" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_phase_without_export_refused(self, monkeypatch, capsys):
        # --phase sets only an export's phase; without one it was ignored
        def no_stream(*args):
            raise AssertionError("a stream ran")

        monkeypatch.setattr(fransonsim.montecarlo, "_simulate_segments", no_stream)
        argv = ["montecarlo", "--preset", "fig4a", "--gates", "64000", "--batches", "2",
                "--phase", "1.5"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "--phase" in captured.err
        assert captured.out == ""

    def test_export_runs_at_the_arms_phase(self, tmp_path):
        # the arms' phase_rad sets an export's phase unless --phase is given
        def histogram(text, *flags):
            cfg = _write(tmp_path, "arms.ini", text)
            out = tmp_path / "hist.csv"
            argv = ["montecarlo", "--config", str(cfg), "--gates", "400000", "--batches", "2",
                    "--phases", "4", "--histogram", str(out), *flags]
            assert main(argv) == 0
            return out.read_text()

        turned = FULL_CONFIG.replace("phase_rad = 0.0", "phase_rad = 1.5", 1)
        assert turned != FULL_CONFIG
        at_arms = histogram(turned)
        assert at_arms == histogram(FULL_CONFIG, "--phase", "1.5")
        assert at_arms != histogram(FULL_CONFIG)
        assert histogram(turned, "--phase", "0.0") == histogram(FULL_CONFIG)

    M3000_CONFIG = FULL_CONFIG.replace("delta_t_ns = 4.77", "delta_t_ns = 4773.27")

    def test_wide_histogram_runs_at_a_small_size(self, tmp_path, capsys):
        # m = 3000 gates between the paths: 6,001 offsets per (batch, phase);
        # 20 pairs per stream at alpha 0.2 fill the offset-0 fringe
        cfg = tmp_path / "m3000.ini"
        cfg.write_text(self.M3000_CONFIG.replace("alpha = 0.0024", "alpha = 0.2"))
        out = tmp_path / "fringe.csv"
        argv = ["montecarlo", "--config", str(cfg), "--gates", "3200", "--batches", "2",
                "--phases", "32", "--out", str(out)]
        assert main(argv) == 0
        header = out.read_text().splitlines()[0]
        assert header == "phi_rad," + ",".join(f"offset_{o:+d}" for o in range(-3000, 3001))

    @pytest.mark.parametrize("command", [["montecarlo"], ["alpha-sweep", "--montecarlo"]],
                             ids=["mc", "sweep"])
    def test_histogram_cells_capped(self, tmp_path, capsys, command):
        # 1,600 streams x 6,001 offsets = 9.6M cells, 77 MB of int64
        cfg = tmp_path / "m3000.ini"
        cfg.write_text(self.M3000_CONFIG)
        argv = command + ["--config", str(cfg), "--gates", "3200", "--batches", "50",
                          "--phases", "32"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert "1600 streams at gate offset m = 3000" in captured.err
        assert f"exceed the histogram cap of {2**23} cells" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("delay", ["4.77", "1e300"])
    def test_gate_offset_past_the_histogram_cap(self, tmp_path, capsys, delay):
        # at 1e300 MHz the message once printed m as an integer of 298 digits,
        # and with a delay of 1e300 ns the ratio of inf died in round() (exit 1)
        cfg = tmp_path / "fast.ini"
        cfg.write_text(FULL_CONFIG.replace("gate_rate_mhz = 628.5", "gate_rate_mhz = 1e300")
                       .replace("delta_t_ns = 4.77", f"delta_t_ns = {delay}"))
        assert main(["montecarlo", "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "histogram rows" in captured.err
        assert len(captured.err) < 200
        assert captured.out == ""

    def test_histogram_cells_capped_before_the_histogram(self, tmp_path, capsys):
        cfg = tmp_path / "m3000.ini"
        cfg.write_text(self.M3000_CONFIG)
        argv = ["montecarlo", "--config", str(cfg), "--gates", "3200", "--batches", "50",
                "--phases", "32"]
        assert main(argv) == 3
        tracemalloc.start()
        try:
            assert main(argv) == 3
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert "histogram cap" in capsys.readouterr().err

    def test_gate_check_only_when_simulating(self, capsys):
        argv = ["alpha-sweep", "--preset", "fig4c", "--alphas", "0.1,0.2", "--gates", "10"]
        assert main(argv) == 0
        assert main(argv + ["--montecarlo", "--gates", "0"]) == 0
        assert "nan" in capsys.readouterr().out

    @pytest.mark.parametrize("old, new, flags, key", [
        ("", "", ["--gates", "0"], "--gates 0"),
        ("gates = 100000", "gates = 0", [], "[run] gates = 0"),
    ], ids=["flag", "file"])
    def test_montecarlo_names_zero_gates(self, tmp_path, monkeypatch, capsys, old, new, flags,
                                         key):
        # gates 0 skips the Monte Carlo of alpha-sweep, but montecarlo has
        # nothing else to run
        def no_stream(*args):
            raise AssertionError("a stream ran")

        monkeypatch.setattr(fransonsim.montecarlo, "_simulate_segments", no_stream)
        cfg = tmp_path / "run.ini"
        cfg.write_text(FULL_CONFIG.replace(old, new))
        assert main(["montecarlo", "--config", str(cfg), "--batches", "2"] + flags) == 3
        captured = capsys.readouterr()
        assert f"{key} gives no gate per phase" in captured.err
        assert captured.out == ""
        argv = ["alpha-sweep", "--config", str(cfg), "--alphas", "0.1,0.2", "--montecarlo"]
        assert main(argv + flags) == 0
        assert capsys.readouterr().out.count(",nan,nan") == 2


class TestRelativePaths:
    """Files named in an experiment file are found next to it, not in the working directory."""

    @staticmethod
    def dsf_config(catalog):
        return FULL_CONFIG.replace("LEAF:2695.0", "DSF:2695.0") + f"fiber_catalog = {catalog}\n"

    def test_fiber_catalog_next_to_the_file(self, tmp_path, monkeypatch, capsys):
        sub = tmp_path / "sub"
        sub.mkdir()
        catalog = _write(sub, "fibers.ini", CATALOG)
        _write(sub, "exp.ini", self.dsf_config("fibers.ini"))
        monkeypatch.chdir(tmp_path)
        assert main(["visibility", "--config", "sub/exp.ini"]) == 0
        relative = capsys.readouterr().out
        _write(sub, "abs.ini", self.dsf_config(catalog))
        assert main(["visibility", "--config", "sub/abs.ini"]) == 0
        absolute = capsys.readouterr().out.replace("sub/abs.ini", "sub/exp.ini")
        assert relative == absolute
        assert "DSF" in repr(parse_experiment_file(Path("sub/exp.ini")).franson.idler_arm.long)

    def test_spectrum_file_next_to_the_file(self, tmp_path, monkeypatch):
        sub = tmp_path / "sub"
        sub.mkdir()
        _write_gaussian_csv(sub / "meas.csv")
        _write(sub, "exp.ini", _tabulated(FULL_CONFIG, "meas.csv"))
        monkeypatch.chdir(tmp_path)
        assert parse_experiment_file("sub/exp.ini").franson.spectrum.model == "tabulated"
        assert main(["visibility", "--config", "sub/exp.ini"]) == 0

    def test_text_resolves_against_the_working_directory(self, tmp_path, monkeypatch):
        sub = tmp_path / "sub"
        sub.mkdir()
        _write(sub, "fibers.ini", CATALOG)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(FileNotFoundError):
            parse_experiment(self.dsf_config("fibers.ini"))
        parse_experiment(self.dsf_config("sub/fibers.ini"))
        parse_experiment(self.dsf_config("fibers.ini"), base_dir="sub")


# file kind -> (text, its last section, a numeric key in that section, a
# parser returning that key's value from a file path, the CLI argv that
# reads such a file)
DIALECT_KINDS = {
    "experiment": (
        FULL_CONFIG, "run", "gates",
        lambda path: parse_experiment(path.read_text()).run.gates,
        lambda path, tmp_path: ["visibility", "--config", str(path)],
    ),
    "catalog": (
        CATALOG, "DSF", "beta2_fs2_per_mm",
        lambda path: load_fiber_catalog(path)["DSF"].beta2_fs2_per_mm,
        lambda path, tmp_path: [
            "design", "--problem", str(_write(tmp_path, "p.ini", PROBLEM)), "--catalog", str(path)
        ],
    ),
    "problem": (
        PROBLEM, "problem", "delta_t_ns",
        lambda path: parse_problem_file(path).delta_t_ns,
        lambda path, tmp_path: ["design", "--problem", str(path)],
    ),
}

# case -> edit of (text, last section, line of the numeric key)
DIALECT_CASES = {
    "inline_comment": lambda text, sec, line: text.replace(line, line + "  ; a comment"),
    "unknown_key": lambda text, sec, line: text + "colour = blue\n",
    "duplicate_key": lambda text, sec, line: text + line + "\n",
    "duplicate_section": lambda text, sec, line: text + f"[{sec}]\n",
    "percent": lambda text, sec, line: text.replace(line, line + "%"),
    "default_section": lambda text, sec, line: text + "[DEFAULT]\n",
    "mixed_case_key": lambda text, sec, line: text.replace(line, line.title().split("=")[0] + "= abc"),
}


class TestOneDialect:
    """Experiment, catalog and problem files follow one INI dialect."""

    @pytest.mark.parametrize("case", sorted(DIALECT_CASES))
    @pytest.mark.parametrize("kind", sorted(DIALECT_KINDS))
    def test_case(self, tmp_path, capsys, kind, case):
        text, section, key, parse, argv = DIALECT_KINDS[kind]
        key_line = next(line for line in text.splitlines() if line.startswith(key + " ="))
        edited = DIALECT_CASES[case](text, section, key_line)
        path = _write(tmp_path, f"{kind}.ini", edited)
        if case == "inline_comment":
            assert parse(path) == float(key_line.split("=")[1])
            assert main(argv(path, tmp_path)) == 0
            return
        # an edit in place errs on the key's line, an appended line on the last
        in_place = case in ("percent", "mixed_case_key")
        line = text.splitlines().index(key_line) + 1 if in_place else len(edited.splitlines())
        with pytest.raises(ConfigParseError) as exc_info:
            parse(path)
        assert exc_info.value.line == line
        assert main(argv(path, tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line}: ")
        assert "Traceback" not in err


def _readme_example(header):
    """The README's one ```ini block that starts with ``header``."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = [b for b in re.findall(r"```ini\n(.*?)```", readme, re.S) if b.startswith(header)]
    assert len(blocks) == 1
    return blocks[0]


class TestReadmeExamples:
    def test_experiment(self):
        exp = parse_experiment(_readme_example("[spectrum]"))
        assert [s.fiber.name for s in exp.franson.idler_arm.long.segments] == ["LEAF", "SMF"]
        assert exp.run.method == "integral"

    def test_problem(self, tmp_path):
        problem = parse_problem_file(_write(tmp_path, "problem.ini", _readme_example("[problem]")))
        assert [f.name for f in problem.long_fibers] == ["LEAF", "SMF"]

    def test_catalog(self, tmp_path):
        catalog = load_fiber_catalog(_write(tmp_path, "fibers.ini", _readme_example("[DSF]")))
        assert catalog["DSF"].beta2_fs2_per_mm == -2.6


# every key each section accepts, copied from the reader as a literal so that
# a new model field cannot become an input key unnoticed
SCHEMA = {
    "experiment": {
        "spectrum": {
            "model", "fwhm_nm", "center_wavelength_nm", "span_radps", "points", "file",
            "filter_fwhm_nm", "filter_shape",
        },
        "signal_arm": {"delta_t_ns", "phase_rad", "long", "short"},
        "idler_arm": {"delta_t_ns", "phase_rad", "long", "short"},
        "noise": {"alpha"},
        "detector": {"efficiency", "gate_rate_mhz", "dark_prob", "afterpulse_prob"},
        "run": {
            "seed", "gates", "batches", "phases", "method", "pump_phase_offset_rad",
            "source_d_beta2_ps2", "source_d_beta3_ps3", "fiber_catalog",
        },
    },
    "catalog": {"DSF": {"beta2_fs2_per_mm", "beta3_fs3_per_mm", "group_index"}},
    "problem": {
        "problem": {
            "target_d_beta2_l_ps2", "delta_t_ns", "short_fiber", "short_length_mm", "long_fibers",
        },
    },
}

# a key the schema might accept by mistake: any accepted key, any field of a
# model an input fills, and one key no section has
SCHEMA_CANDIDATES = sorted(
    {key for kind in SCHEMA.values() for keys in kind.values() for key in keys}
    | {
        f.name
        for model in (
            DetectorModel, RunSettings, MZIConfig, NoiseModel, FiberSpec, DesignProblem,
            FransonConfig, DifferentialDispersion, JointSpectrum,
        )
        for f in dataclasses.fields(model)
    }
    | {"colour"}
)

SCHEMA_PARSERS = {
    "experiment": parse_experiment_file,
    "catalog": load_fiber_catalog,
    "problem": parse_problem_file,
}

# an input with every optional key omitted: each section absent, or present and empty
MINIMAL_EXPERIMENT = """\
[spectrum]
fwhm_nm = 1.6

[signal_arm]
delta_t_ns = 4.77

[idler_arm]
delta_t_ns = 4.77
"""


class TestSchema:
    """Each file kind accepts exactly its keys, and defaults come from the models."""

    @pytest.mark.parametrize(
        "kind, section", [(kind, section) for kind in SCHEMA for section in SCHEMA[kind]]
    )
    def test_accepted_keys(self, tmp_path, kind, section):
        accepted = set()
        for key in SCHEMA_CANDIDATES:
            path = _write(tmp_path, f"{kind}.ini", f"[{section}]\n{key} = x\n")
            try:
                SCHEMA_PARSERS[kind](path)
            except ConfigParseError as exc:
                if f"[{section}] has unknown key" in str(exc):
                    continue
            except (FransonError, OSError):
                pass
            accepted.add(key)
        assert accepted == SCHEMA[kind][section]

    @pytest.mark.parametrize("empty_sections", [False, True], ids=["absent", "empty"])
    def test_omitted_keys_take_the_model_defaults(self, empty_sections):
        text = MINIMAL_EXPERIMENT + ("[noise]\n[detector]\n[run]\n" if empty_sections else "")
        if empty_sections:
            # [noise] alpha is required once the section is there
            text = text.replace("[noise]\n", "[noise]\nalpha = 0.0\n")
        exp = parse_experiment(text)
        assert exp.detector == DetectorModel()
        assert exp.run == RunSettings()
        assert exp.noise == NoiseModel(0.0)
        assert exp.franson.signal_arm.phase_rad == 0.0
        assert exp.franson.idler_arm.phase_rad == 0.0
        assert exp.franson.spectrum.center_wavelength_nm == 1560.0

    def test_catalog_fiber_defaults(self, tmp_path):
        path = _write(tmp_path, "fibers.ini", "[DSF]\nbeta2_fs2_per_mm = -2.6\n")
        assert load_fiber_catalog(path) == {"DSF": FiberSpec("DSF", -2.6)}

    @pytest.mark.parametrize(
        "kind, text, section, key",
        [("problem", PROBLEM, "problem", key) for key in sorted(SCHEMA["problem"]["problem"])]
        + [
            ("experiment", FULL_CONFIG, "signal_arm", "delta_t_ns"),
            ("experiment", FULL_CONFIG, "idler_arm", "delta_t_ns"),
            ("experiment", FULL_CONFIG, "noise", "alpha"),
            ("catalog", CATALOG, "DSF", "beta2_fs2_per_mm"),
        ],
    )
    def test_required_key_named_on_the_section_line(self, tmp_path, kind, text, section, key):
        lines = text.splitlines(keepends=True)
        header = lines.index(f"[{section}]\n")
        # drop the first line of the section that sets the key
        drop = next(i for i in range(header, len(lines)) if lines[i].startswith(f"{key} ="))
        path = _write(tmp_path, f"{kind}.ini", "".join(lines[:drop] + lines[drop + 1:]))
        with pytest.raises(ConfigParseError) as exc_info:
            SCHEMA_PARSERS[kind](path)
        assert exc_info.value.line == header + 1
        assert str(exc_info.value) == f"line {header + 1}: [{section}] missing required key {key!r}"

    def test_non_integer_run_setting(self, tmp_path, capsys):
        cfg = _write(tmp_path, "run.ini", FULL_CONFIG.replace("gates = 100000", "gates = 1e6"))
        assert main(["montecarlo", "--config", str(cfg)]) == 2
        line = FULL_CONFIG.splitlines().index("gates = 100000") + 1
        assert capsys.readouterr().err == (
            f"error: line {line}: [run] gates = '1e6' is not an integer\n"
        )

    def test_non_integer_run_flag(self, capsys):
        assert main(["montecarlo", "--preset", "fig4a", "--gates", "1e6"]) == 2
        assert "argument --gates: invalid int value: '1e6'" in capsys.readouterr().err



class TestNonUtf8Input:
    """Every input file is read as UTF-8; one that is not exits 2 naming the first bad byte."""

    @pytest.mark.parametrize(
        "kind", ["experiment", "fiber_catalog", "problem", "catalog", "spectrum_csv"]
    )
    def test_exits_2_naming_the_offset(self, tmp_path, capsys, kind):
        bad = tmp_path / "bad"

        def write_bad(text):
            # a first line that is a comment in every kind, holding 0xe9, not UTF-8 alone
            bad.write_bytes(b"# caf\xe9\n" + text.encode())
            return str(bad)

        if kind == "experiment":
            argv = ["visibility", "--config", write_bad(FULL_CONFIG)]
        elif kind == "fiber_catalog":
            exp = f"{FULL_CONFIG}fiber_catalog = {write_bad(CATALOG)}\n"
            argv = ["visibility", "--config", str(_write(tmp_path, "exp.ini", exp))]
        elif kind == "problem":
            argv = ["design", "--problem", write_bad(PROBLEM)]
        elif kind == "catalog":
            problem = _write(tmp_path, "p.ini", PROBLEM)
            argv = ["design", "--problem", str(problem), "--catalog", write_bad(CATALOG)]
        else:
            csv = write_bad(_write_gaussian_csv(tmp_path / "meas.csv").read_text())
            exp = _write(tmp_path, "exp.ini", _tabulated(FULL_CONFIG, csv))
            argv = ["visibility", "--config", str(exp)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {bad}: not UTF-8: byte 0xe9 at offset 5\n"
