"""Coincidence rate, visibility methods, and the nonlocality invariants."""

import contextlib
import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fransonsim.interference
from fransonsim import (
    COMPLEX_INTEGRAL,
    ConfigurationError,
    ContractViolationError,
    DifferentialDispersion,
    DomainError,
    FiberSpec,
    FransonConfig,
    GAUSSIAN,
    JointSpectrum,
    MZIConfig,
    PHASE_SWEEP,
    PRESET_NAMES,
    PathStack,
    SINC2,
    TABULATED,
    apply_bandpass,
    coincidence_rate,
    fringe_amplitude,
    make_spectrum,
    preset_experiment,
    stack,
    total_phase,
    visibility,
    width_nm_to_radps,
)
import fransonsim.cli
from fransonsim.cli import main as cli_main
from fransonsim.interference import VisibilityResult, fringe_rates
from fransonsim.spectra import GAUSSIAN_FWHM_PER_SIGMA, simpson_weights, symmetric_grid

from tests.helpers import (
    arm_with_dispersion,
    golden_section_max,
    loop_fringe_csv,
    rate_tolerance,
)

PEDESTAL_SPAN = width_nm_to_radps(15.0, 1560.0)


def franson(d_signal=0.0, d_idler=0.0, spectrum=None, b3_signal=0.0, b3_idler=0.0, **kw):
    if spectrum is None:
        spectrum = make_spectrum(GAUSSIAN, 1.6)
    return FransonConfig(
        signal_arm=arm_with_dispersion(d_signal, b3_signal),
        idler_arm=arm_with_dispersion(d_idler, b3_idler),
        spectrum=spectrum,
        **kw,
    )


def sinc2_pedestal():
    return make_spectrum(SINC2, 1.6, span_radps=PEDESTAL_SPAN)


class TestTotalPhase:
    def test_zero_without_dispersion(self):
        cfg = franson()
        om = np.linspace(-3, 3, 21)
        assert np.all(total_phase(cfg, om) == 0.0)

    def test_opposite_arms_cancel(self):
        cfg = franson(d_signal=-2.2018e-2, d_idler=+2.2018e-2)
        assert total_phase(cfg, 1.0) == 0.0

    def test_matched_arms_add(self):
        cfg = franson(d_signal=-2.2018e-2, d_idler=-2.2018e-2)
        assert total_phase(cfg, 1.0) == pytest.approx(-2.2018e-2, rel=1e-12)

    def test_cubic_cancels_when_equal(self):
        # anticorrelated detunings null any beta3 shared by both arms
        cfg = franson(b3_signal=5e-3, b3_idler=5e-3)
        om = np.linspace(-4, 4, 33)
        assert np.all(total_phase(cfg, om) == 0.0)


class TestCoincidenceRate:
    def test_cos_squared_law(self):
        cfg = franson()
        assert coincidence_rate(cfg, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert coincidence_rate(cfg, math.pi) == pytest.approx(0.0, abs=1e-12)
        assert coincidence_rate(cfg, math.pi / 2) == pytest.approx(0.5, abs=1e-12)

    def test_pump_offset_shifts_fringe(self):
        cfg = franson(pump_phase_offset_rad=math.pi)
        assert coincidence_rate(cfg, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_uses_arm_phases_by_default(self):
        cfg = FransonConfig(
            signal_arm=arm_with_dispersion(phase_rad=math.pi / 2),
            idler_arm=arm_with_dispersion(phase_rad=math.pi / 2),
            spectrum=make_spectrum(GAUSSIAN, 1.6),
        )
        assert coincidence_rate(cfg) == pytest.approx(0.0, abs=1e-12)

    def test_pedestal_config_value(self):
        # both arms at -2.2018e-2 ps^2 over the wide sinc^2 span
        cfg = franson(-2.2018e-2, -2.2018e-2, spectrum=sinc2_pedestal())
        assert coincidence_rate(cfg, 0.0) == pytest.approx(0.993, abs=0.004)

    def test_periodic(self):
        cfg = franson(-2.2018e-2, -1e-2, spectrum=sinc2_pedestal())
        for phi in (0.3, 2.0, 4.4):
            assert coincidence_rate(cfg, phi) == pytest.approx(
                coincidence_rate(cfg, phi + 2 * math.pi), abs=1e-12
            )

    def test_bounds(self):
        cfg = franson(-5e-2, 3e-2, spectrum=sinc2_pedestal())
        for phi in np.linspace(0, 2 * math.pi, 17):
            assert 0.0 <= coincidence_rate(cfg, phi) <= 1.0


class TestVisibility:
    def test_unity_without_dispersion(self):
        res = visibility(franson())
        assert res.visibility == pytest.approx(1.0, abs=1e-9)
        assert res.c_min == pytest.approx(0.0, abs=1e-9)

    def test_gaussian_closed_form(self):
        # quadratic-phase Gaussian integral:
        # |integral e^{-w^2/2s^2} e^{-i a w^2/2} dw| -> (1 + a^2 s^4)^(-1/4)
        a = -4.4036e-2
        cfg = franson(a / 2, a / 2)
        sigma = width_nm_to_radps(1.6, 1560.0) / GAUSSIAN_FWHM_PER_SIGMA
        expected = (1.0 + a**2 * sigma**4) ** -0.25
        res = visibility(cfg)
        assert abs(res.visibility - expected) < 1e-6
        assert res.visibility == pytest.approx(1.0 - 3.7e-5, abs=2e-6)

    def test_sinc2_pedestal_degradation(self):
        cfg = franson(-2.2018e-2, -2.2018e-2, spectrum=sinc2_pedestal())
        res = visibility(cfg)
        assert res.visibility == pytest.approx(0.987, abs=0.007)

    def test_result_identity(self):
        for method in (COMPLEX_INTEGRAL, PHASE_SWEEP):
            res = visibility(
                franson(-2.2018e-2, -2.2018e-2, spectrum=sinc2_pedestal()), method
            )
            assert 0.0 <= res.c_min <= res.c_max
            ratio = (res.c_max - res.c_min) / (res.c_max + res.c_min)
            assert abs(res.visibility - ratio) < 1e-12

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(),
            dict(d_signal=-2.2018e-2, d_idler=-2.2018e-2),
            dict(d_signal=-3e-2, d_idler=1e-2, b3_signal=2e-3),
            dict(d_signal=-2.2018e-2, d_idler=-2.2018e-2, pump_phase_offset_rad=1.1),
        ],
    )
    def test_methods_agree(self, kwargs):
        offset = kwargs.pop("pump_phase_offset_rad", 0.0)
        cfg = franson(
            spectrum=sinc2_pedestal(), pump_phase_offset_rad=offset, **kwargs
        )
        ri = visibility(cfg, COMPLEX_INTEGRAL)
        rs = visibility(cfg, PHASE_SWEEP)
        assert abs(ri.visibility - rs.visibility) < 1e-6
        assert abs(ri.c_max - rs.c_max) < 1e-6
        assert abs(ri.c_min - rs.c_min) < 1e-6
        if ri.visibility > 0.1:
            dphi = (ri.phase_at_max_rad - rs.phase_at_max_rad) % (2 * math.pi)
            assert min(dphi, 2 * math.pi - dphi) < 1e-5

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            visibility(franson(), "quadrature")


def full_scan_sweep(cfg):
    """The phase sweep with a quadrature at every one of its 720 grid points.

    This is the sweep as it was before Z placed the extrema: the largest and
    smallest grid rate, each refined by golden-section search. It is kept
    verbatim as the reference whose printed visibility
    visibility(cfg, PHASE_SWEEP) must reproduce.
    """
    phis = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    rates = np.array([coincidence_rate(cfg, p) for p in phis])
    step = phis[1] - phis[0]

    def refine(idx, sign):
        lo, hi = phis[idx] - step, phis[idx] + step
        x, fx = golden_section_max(
            lambda p: sign * coincidence_rate(cfg, p), lo, hi
        )
        return x, sign * fx

    p_max, c_max = refine(int(np.argmax(rates)), +1.0)
    p_min, c_min = refine(int(np.argmin(rates)), -1.0)
    if c_max + c_min <= 0:
        raise ContractViolationError("degenerate fringe: Cmax + Cmin <= 0")
    v = (c_max - c_min) / (c_max + c_min)
    return VisibilityResult(
        v, c_max, c_min, float(np.mod(p_max, 2.0 * np.pi)), PHASE_SWEEP
    )


def count_rate_calls(monkeypatch):
    """The phases of every rate quadrature from here on, clipped or not."""
    calls = []
    original = fransonsim.interference._rate_quadrature

    def counting(cfg, phi_tilde):
        calls.append(phi_tilde)
        return original(cfg, phi_tilde)

    monkeypatch.setattr(fransonsim.interference, "_rate_quadrature", counting)
    return calls


# grid phases of the sweep and the midpoints between them: an offset from
# here puts a compensated fringe's extrema on a grid point or exactly
# between two, where the two neighbours tie
GRID_OFFSETS = st.integers(-1440, 1439).map(lambda k: k * math.pi / 720.0)


@st.composite
def analytic_configs(draw):
    """Small-grid Gaussian and sinc^2 configs, filtered or not, from
    compensated to fully dephased arms, with any pump offset."""
    model = draw(st.sampled_from([GAUSSIAN, SINC2]))
    fwhm_nm = draw(st.floats(0.4, 3.0))
    lobes = draw(st.floats(2.0, 12.0) if model == SINC2 else st.floats(1.2, 4.0))
    spectrum = make_spectrum(
        model,
        fwhm_nm,
        span_radps=width_nm_to_radps(lobes * fwhm_nm, 1560.0),
        n_points=draw(st.integers(16, 1024)),
    )
    shape = draw(st.sampled_from([None, "flattop", GAUSSIAN]))
    if shape is not None:
        # a Gaussian filter must span a grid step, or apply_bandpass refuses it
        step_nm = (spectrum.omega[1] - spectrum.omega[0]) / width_nm_to_radps(1.0, 1560.0)
        lo = 0.1 if shape == "flattop" else max(0.1, step_nm * (1 + 1e-9))
        spectrum = apply_bandpass(spectrum, draw(st.floats(lo, max(lo, 2.0))), shape)
    d_signal = draw(st.floats(-0.1, 0.1))
    d_sum = draw(
        st.one_of(st.just(0.0), st.floats(-0.05, 0.05), st.floats(-5.0, 5.0))
    )
    b3_signal = draw(st.one_of(st.just(0.0), st.floats(-0.01, 0.01)))
    b3_idler = draw(st.one_of(st.just(b3_signal), st.floats(-0.01, 0.01)))
    offset = draw(st.one_of(GRID_OFFSETS, st.floats(-10.0, 10.0)))
    return franson(
        d_signal,
        d_sum - d_signal,
        spectrum=spectrum,
        b3_signal=b3_signal,
        b3_idler=b3_idler,
        pump_phase_offset_rad=offset,
    )


def near_zero_visibility_config():
    """Two mirror-image spectral lines whose cubic phases cancel Z to rounding.

    A cubic summed phase is odd in omega, so on this even density Z is real,
    and the secant search on beta3 drives it to a few ulp: every grid rate is
    0.5 up to rounding and Z can rule out no grid point.
    """
    omega = symmetric_grid(4.0, 2049)
    weights = simpson_weights(omega)
    density = np.exp(-(((omega - 2.0) / 0.2) ** 2) / 2) + np.exp(
        -(((omega + 2.0) / 0.2) ** 2) / 2
    )
    spectrum = JointSpectrum(
        model=TABULATED,
        center_wavelength_nm=1560.0,
        fwhm_nm=None,
        span_radps=4.0,
        omega=omega,
        density=density / (weights @ density),
        weights=weights,
    )

    def real_z(b3):
        return fringe_amplitude(franson(b3_signal=b3, spectrum=spectrum)).real

    a, b = 1.0, 1.4
    fa, fb = real_z(a), real_z(b)
    while fb != 0.0 and fa != fb and abs(fb) > 1e-17:
        a, fa, b = b, fb, b - fb * (b - a) / (fb - fa)
        fb = real_z(b)
    return franson(b3_signal=b, spectrum=spectrum)


def negative_weight_config():
    """A rule with a negative weight, as high-order Newton-Cotes rules have,
    gives |Z| = 2 > I = 1: the rate runs from -0.5 to 1.5 before
    coincidence_rate clips it to [0, 1]."""
    spectrum = JointSpectrum(
        model=TABULATED,
        center_wavelength_nm=1560.0,
        fwhm_nm=None,
        span_radps=1.0,
        omega=np.array([-1.0, 0.0, 1.0]),
        density=np.ones(3),
        weights=np.array([-0.25, 1.5, -0.25]),
    )
    return franson(2.0 * math.pi, spectrum=spectrum, pump_phase_offset_rad=1.0)


def sci(x):
    return f"{x:.8e}"


class TestSweepMatchesFullScan:
    """The sweep's extrema are the 720-point scan's, and its phase the integral method's."""

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets(self, name, monkeypatch):
        cfg = preset_experiment(name).franson
        expected = full_scan_sweep(cfg)
        calls = count_rate_calls(monkeypatch)
        got = visibility(cfg, PHASE_SWEEP)
        # one at each extremum; the full scan runs 826
        assert len(calls) == 2
        assert sci(got.visibility) == sci(expected.visibility)
        assert sci(got.c_max) == sci(expected.c_max)
        assert got.phase_at_max_rad == visibility(cfg, COMPLEX_INTEGRAL).phase_at_max_rad
        # the scan's phase is search noise around phi*: the rate is flat
        # to second order there, so rounding decided its last steps
        dphi = (got.phase_at_max_rad - expected.phase_at_max_rad) % (2 * math.pi)
        assert min(dphi, 2 * math.pi - dphi) < 1e-7

    @settings(max_examples=200, deadline=None)
    @given(cfg=analytic_configs())
    def test_random_configs(self, cfg):
        got = visibility(cfg, PHASE_SWEEP)
        assert got.phase_at_max_rad == visibility(cfg, COMPLEX_INTEGRAL).phase_at_max_rad
        # every rate of the scan's grid lies between the sweep's extrema,
        # up to rounding that rate_tolerance bounds
        phis = fringe_phis(720)
        rates = np.array([coincidence_rate(cfg, p) for p in phis])
        margin = rate_tolerance(cfg, phis)
        assert (rates <= got.c_max + margin).all()
        assert (rates >= got.c_min - margin).all()

    def test_near_zero_visibility_evaluates_every_point(self, monkeypatch):
        # Z can rule out no grid point here, so the full scan's picks are
        # rounding alone. The sweep still runs its two quadratures, and its
        # extrema hold every grid point's rate within rate_tolerance.
        cfg = near_zero_visibility_config()
        assert abs(fringe_amplitude(cfg)) < 1e-15
        phis = fringe_phis(720)
        rates = np.array([coincidence_rate(cfg, p) for p in phis])
        assert rates.max() - rates.min() < 1e-15
        calls = count_rate_calls(monkeypatch)
        got = visibility(cfg, PHASE_SWEEP)
        assert len(calls) == 2
        margin = rate_tolerance(cfg, phis)
        assert (rates <= got.c_max + margin).all()
        assert (rates >= got.c_min - margin).all()
        assert got.phase_at_max_rad == visibility(cfg, COMPLEX_INTEGRAL).phase_at_max_rad

    def test_clipped_ties_resolve_to_first_index(self):
        # The clip turns a third of the grid into ties at 1 and another third
        # into ties at 0. The full scan resolves the ties to the first tied
        # index; the sweep lands on the same plateaus at phi* and phi* + pi
        # and reports the same extrema and visibility.
        cfg = negative_weight_config()
        assert abs(fringe_amplitude(cfg)) == pytest.approx(2.0)
        phis = fringe_phis(720)
        rates = np.array([coincidence_rate(cfg, p) for p in phis])
        first = int(np.argmax(rates))
        assert rates[first] == 1.0 and (rates[:first] < 1.0).all()
        expected = full_scan_sweep(cfg)
        # the refined phase lies within a grid step of it, mod 2 pi
        dphi = (expected.phase_at_max_rad - phis[first]) % (2 * math.pi)
        assert min(dphi, 2 * math.pi - dphi) <= phis[1] - phis[0]
        got = visibility(cfg, PHASE_SWEEP)
        assert (got.c_max, got.c_min, got.visibility) == (
            expected.c_max,
            expected.c_min,
            expected.visibility,
        )
        assert coincidence_rate(cfg, got.phase_at_max_rad) == 1.0
        assert coincidence_rate(cfg, got.phase_at_max_rad + math.pi) == 0.0


class TestPrintedSweepVisibility:
    """The sweep's printed visibility is the one the full scan printed."""

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets(self, name):
        cfg = preset_experiment(name).franson
        assert sci(visibility(cfg, PHASE_SWEEP).visibility) == sci(full_scan_sweep(cfg).visibility)

    @settings(max_examples=200, deadline=None)
    @given(cfg=analytic_configs())
    def test_random_configs(self, cfg):
        assert sci(visibility(cfg, PHASE_SWEEP).visibility) == sci(full_scan_sweep(cfg).visibility)

    def test_near_zero_visibility(self):
        # every rate is 0.5 up to rounding, so the printed V is rounding of
        # 0 in both the sweep and the full scan, and need not agree in its
        # digits: both lie within the stated bound. Each extremum is within
        # rate_tolerance of 0.5, which covers the rounding of the rate, of
        # I = 1 and the |Z| < 1e-15 left
        cfg = near_zero_visibility_config()
        assert abs(fringe_amplitude(cfg)) < 1e-15
        phis = fringe_phis(720)
        rates = [coincidence_rate(cfg, p) for p in phis]
        assert max(rates) - min(rates) < 1e-15
        margin = rate_tolerance(cfg, phis)
        for res in (visibility(cfg, PHASE_SWEEP), full_scan_sweep(cfg)):
            assert abs(res.c_max - 0.5) <= margin and abs(res.c_min - 0.5) <= margin
            # (x - y) / (x + y) with x, y within margin of 0.5
            assert abs(res.visibility) <= 4 * margin

    def test_clipped_rates(self):
        # Under negative_weight_config's rule the clip turns a third of the
        # grid into ties at 1 and another third into ties at 0. The full
        # scan took the first tied index; the sweep takes phi*, the centre
        # of the plateau, with the same extrema and visibility.
        cfg = negative_weight_config()
        assert abs(fringe_amplitude(cfg)) == pytest.approx(2.0)
        expected = full_scan_sweep(cfg)
        got = visibility(cfg, PHASE_SWEEP)
        assert (got.c_max, got.c_min, got.visibility) == (1.0, 0.0, 1.0)
        assert (expected.c_max, expected.c_min, expected.visibility) == (1.0, 0.0, 1.0)
        assert got.phase_at_max_rad == visibility(cfg, COMPLEX_INTEGRAL).phase_at_max_rad

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_degenerate_fringe_raises_as_visibility(self, bad, monkeypatch):
        # every rate is a NaN quadrature clipped to 0, so the full scan
        # meets Cmax + Cmin = 0; Z and phi* are NaN, and the sweep raises
        # the same error before it runs a quadrature
        cfg = franson(spectrum=make_spectrum(GAUSSIAN, 1.6, n_points=33))
        phase = np.linspace(-1.0, 1.0, 33)
        phase[5] = bad
        cfg = with_cached_phase(cfg, phase)
        with np.errstate(invalid="ignore"):
            with pytest.raises(ContractViolationError, match="degenerate fringe") as expected:
                full_scan_sweep(cfg)
            calls = count_rate_calls(monkeypatch)
            with pytest.raises(ContractViolationError) as got:
                visibility(cfg, PHASE_SWEEP)
        assert str(got.value) == str(expected.value)
        assert calls == []

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_cli_visibility_quadratures(self, name, monkeypatch, capsys):
        # the sweep's two, at its extrema; Z is not a rate quadrature
        calls = count_rate_calls(monkeypatch)
        assert cli_main(["visibility", "--preset", name]) == 0
        assert len(calls) == 2
        out = capsys.readouterr().out
        cfg = preset_experiment(name).franson
        assert f"intrinsic_visibility_sweep       {sci(full_scan_sweep(cfg).visibility)}\n" in out


def loop_rates(cfg, phis):
    return np.array([coincidence_rate(cfg, phi) for phi in phis])


def fringe_phis(points):
    return np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)


def fringe_csv(cfg, points):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        fransonsim.cli._write_fringe_csv(None, cfg, points)
    return buf.getvalue()


class TestFringeRates:
    """fringe_rates is the quadrature per row, in closed form from one quadrature per config."""

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets(self, name, monkeypatch):
        # every printed row, at the golden digests' 256 points and at 4096
        cfg = preset_experiment(name).franson
        expected = [loop_fringe_csv(cfg, points) for points in (256, 4096)]
        calls = count_rate_calls(monkeypatch)
        assert [fringe_csv(cfg, points) for points in (256, 4096)] == expected
        assert calls == [cfg.peak_phase + np.pi]

    @settings(max_examples=200, deadline=None)
    @given(
        cfg=analytic_configs(),
        points=st.integers(0, 64),
        extra=st.lists(st.floats(-20.0, 20.0), max_size=4),
    )
    def test_random_configs(self, cfg, points, extra):
        phis = np.concatenate([fringe_phis(points), extra])
        got = fringe_rates(cfg, phis)
        assert np.all(np.abs(got - loop_rates(cfg, phis)) <= rate_tolerance(cfg, phis))

    @settings(max_examples=200, deadline=None)
    @given(cfg=analytic_configs(), points=st.integers(0, 64))
    def test_csv_matches_loop(self, cfg, points):
        # each printed rate rounds a closed-form rate to 9 digits, which moves
        # it by at most 5e-9 of its own size
        lines = fringe_csv(cfg, points).splitlines()
        assert lines[0] == "phi_rad,coincidence_rate"
        phis = fringe_phis(points)
        tol = rate_tolerance(cfg, phis)
        for line, phi, rate in zip(lines[1:], phis, loop_rates(cfg, phis)):
            phi_text, rate_text = line.split(",")
            assert phi_text == sci(phi)
            assert abs(float(rate_text) - rate) <= tol + 5e-9 * abs(float(rate_text))
        assert len(lines) == points + 1

    def test_clipped_rates(self):
        # |Z| = 2 > I: the closed form runs from the raw c_min = -0.5 to 1.5,
        # and clips to the quadrature's plateaus exactly
        cfg = negative_weight_config()
        phis = fringe_phis(64)
        expected = loop_rates(cfg, phis)
        got = fringe_rates(cfg, phis)
        assert (expected == 1.0).any() and (expected == 0.0).any()
        plateau = (expected == 0.0) | (expected == 1.0)
        assert np.array_equal(got[plateau], expected[plateau])
        assert np.all(np.abs(got - expected) <= rate_tolerance(cfg, phis))

    def test_anchor_cached_per_config(self, monkeypatch):
        # the raw quadrature at phi* + pi, unclipped, summed once per config
        calls = count_rate_calls(monkeypatch)
        anchors = []
        for cfg in (preset_experiment("fig4c").franson, negative_weight_config()):
            s = cfg.spectrum
            peak = float(-np.angle(fringe_amplitude(cfg)) - cfg.pump_phase_offset_rad)
            theta = peak + np.pi + cfg.pump_phase_offset_rad - total_phase(cfg, s.omega)
            raw = float(s.weights @ (s.density * np.cos(theta / 2.0) ** 2))
            assert cfg.peak_phase == peak
            assert cfg.anchor_rate == raw
            assert fringe_rates(cfg, [peak + np.pi]).tolist() == [min(1.0, max(0.0, raw))]
            fringe_rates(cfg, fringe_phis(16))
            anchors.append(peak + np.pi)
            assert calls == anchors
        assert cfg.anchor_rate == pytest.approx(-0.5)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_summed_phase(self, bad, monkeypatch):
        # every quadrature is NaN, clipped to 0 by coincidence_rate: the
        # degenerate fringe that visibility refuses, refused here alike
        cfg = franson(spectrum=make_spectrum(GAUSSIAN, 1.6, n_points=33))
        phase = np.linspace(-1.0, 1.0, 33)
        phase[5] = bad
        cfg = with_cached_phase(cfg, phase)
        with np.errstate(invalid="ignore"):
            assert set(loop_rates(cfg, fringe_phis(16))) == {0.0}
            calls = count_rate_calls(monkeypatch)
            with pytest.raises(ContractViolationError, match="degenerate fringe"):
                fringe_rates(cfg, fringe_phis(16))
            with pytest.raises(ContractViolationError, match="degenerate fringe"):
                fringe_csv(cfg, 16)
            with pytest.raises(ContractViolationError, match="degenerate fringe"):
                visibility(cfg)
        assert calls == []

    def test_empty(self):
        cfg = preset_experiment("fig4a").franson
        assert fringe_rates(cfg, np.array([])).shape == (0,)
        assert fringe_rates(cfg, []).shape == (0,)
        assert fringe_csv(cfg, 0) == "phi_rad,coincidence_rate\n"

    def test_rejects_non_finite_phase(self):
        cfg = preset_experiment("fig4a").franson
        with pytest.raises(DomainError, match="phi_tilde must be finite, got nan"):
            fringe_rates(cfg, [0.0, 1.0, math.nan, 2.0])


class TestNonlocalityInvariants:
    def test_exchange_symmetry(self):
        # moving quadratic dispersion between arms at fixed sum leaves V alone
        spectrum = sinc2_pedestal()
        total = -4.4036e-2
        rng = np.random.default_rng(3)
        base = visibility(franson(total / 2, total / 2, spectrum=spectrum)).visibility
        for _ in range(8):
            delta = rng.uniform(-0.5, 0.5)
            v = visibility(
                franson(total / 2 + delta, total / 2 - delta, spectrum=spectrum)
            ).visibility
            assert abs(v - base) < 1e-9

    def test_depends_only_on_total_phase(self):
        spectrum = sinc2_pedestal()
        # same beta2 sum, same signal-minus-idler beta3: identical fringes
        a = franson(-1e-2, -3e-2, b3_signal=4e-3, b3_idler=1e-3, spectrum=spectrum)
        b = franson(-2.5e-2, -1.5e-2, b3_signal=6e-3, b3_idler=3e-3, spectrum=spectrum)
        va = visibility(a).visibility
        vb = visibility(b).visibility
        assert abs(va - vb) < 1e-9

    def test_source_dispersion_invariance(self):
        spectrum = sinc2_pedestal()
        vs = []
        for d2 in (-1.0, 0.0, 1.0):
            cfg = franson(
                -2.2018e-2,
                -2.2018e-2,
                spectrum=spectrum,
                source_common_dispersion=DifferentialDispersion(d2, 0.0),
            )
            vs.append(visibility(cfg).visibility)
        assert vs[0] == vs[1] == vs[2]

    def test_arm_swap(self):
        spectrum = sinc2_pedestal()
        fwd = franson(-3e-2, 1e-2, b3_signal=2e-3, spectrum=spectrum)
        rev = franson(1e-2, -3e-2, b3_idler=2e-3, spectrum=spectrum)
        assert abs(visibility(fwd).visibility - visibility(rev).visibility) < 1e-12

    def test_odd_order_self_cancellation(self):
        cfg = franson(b3_signal=5e-3, b3_idler=5e-3, spectrum=sinc2_pedestal())
        assert visibility(cfg).visibility == pytest.approx(1.0, abs=1e-6)

    def test_nonlocal_cancellation_restores_unity(self):
        cfg = franson(-2.2018e-2, +2.2018e-2, spectrum=sinc2_pedestal())
        assert visibility(cfg).visibility == pytest.approx(1.0, abs=1e-9)


class TestPhysicsProperties:
    """The invariants above, over drawn configs."""

    @settings(max_examples=50, deadline=None)
    @given(
        cfg=analytic_configs(),
        phases=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
        shift=st.floats(-10.0, 10.0),
    )
    def test_only_summed_arm_phase_matters(self, cfg, phases, shift):
        def with_phases(a, b):
            return replace(
                cfg,
                signal_arm=replace(cfg.signal_arm, phase_rad=a),
                idler_arm=replace(cfg.idler_arm, phase_rad=b),
            )

        a, b = phases
        shifted = with_phases(a + shift, b - shift)
        # the two sums differ by rounding only: a few ulp of 20 rad
        assert coincidence_rate(with_phases(a, b)) == pytest.approx(
            coincidence_rate(shifted), abs=1e-13
        )
        for method in (COMPLEX_INTEGRAL, PHASE_SWEEP):
            assert visibility(shifted, method) == visibility(cfg, method)

    @settings(max_examples=50, deadline=None)
    @given(
        cfg=analytic_configs(),
        d2_shift=st.floats(-0.1, 0.1),
        b3_shift=st.floats(-0.01, 0.01),
    )
    def test_only_summed_dispersion_phase_matters(self, cfg, d2_shift, b3_shift):
        # beta2 enters the summed phase as signal + idler and beta3 as
        # signal - idler (the idler sees -omega)
        s, i = cfg.signal_arm.differential(), cfg.idler_arm.differential()
        moved = replace(
            cfg,
            signal_arm=arm_with_dispersion(
                s.d_beta2_l_ps2 + d2_shift, s.d_beta3_l_ps3 + b3_shift
            ),
            idler_arm=arm_with_dispersion(
                i.d_beta2_l_ps2 - d2_shift, i.d_beta3_l_ps3 + b3_shift
            ),
        )
        for method in (COMPLEX_INTEGRAL, PHASE_SWEEP):
            a, b = visibility(cfg, method), visibility(moved, method)
            assert a.visibility == pytest.approx(b.visibility, abs=1e-9)
            assert a.c_min == pytest.approx(b.c_min, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        cfg=analytic_configs(),
        d2=st.floats(-100.0, 100.0),
        d3=st.floats(-100.0, 100.0),
    )
    def test_source_dispersion_has_no_effect(self, cfg, d2, d3):
        moved = replace(cfg, source_common_dispersion=DifferentialDispersion(d2, d3))
        assert np.array_equal(moved.summed_phase, cfg.summed_phase)
        for method in (COMPLEX_INTEGRAL, PHASE_SWEEP):
            assert visibility(moved, method) == visibility(cfg, method)

    @settings(max_examples=100, deadline=None)
    @given(cfg=analytic_configs())
    def test_visibility_in_unit_interval(self, cfg):
        for method in (COMPLEX_INTEGRAL, PHASE_SWEEP):
            res = visibility(cfg, method)
            assert 0.0 <= res.visibility <= 1.0
            assert 0.0 <= res.c_min <= res.c_max <= 1.0


class TestSummedPhaseCache:
    def test_differential_phase_evaluated_once_per_arm(self, monkeypatch):
        calls = []
        original = fransonsim.interference.differential_phase

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(fransonsim.interference, "differential_phase", counting)
        cfg = franson(-2.2018e-2, -1e-2, spectrum=sinc2_pedestal())
        visibility(cfg, COMPLEX_INTEGRAL)
        visibility(cfg, PHASE_SWEEP)
        for phi in np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False):
            coincidence_rate(cfg, phi)
        assert len(calls) == 2

    def test_cached_phase_is_read_only(self):
        cfg = franson(-2.2018e-2, -1e-2, spectrum=sinc2_pedestal())
        phi = cfg.summed_phase
        assert cfg.summed_phase is phi
        assert np.array_equal(phi, total_phase(cfg, cfg.spectrum.omega))
        assert not phi.flags.writeable
        with pytest.raises(ValueError):
            phi[0] = 0.0

    def test_replace_starts_with_empty_cache(self):
        cfg = franson(-2.2018e-2, -1e-2, spectrum=sinc2_pedestal())
        cfg.summed_phase
        moved = replace(cfg, idler_arm=arm_with_dispersion(2.2018e-2))
        assert np.all(moved.summed_phase == 0.0)
        assert not np.all(cfg.summed_phase == 0.0)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_matches_uncached_expressions(self, name):
        cfg = preset_experiment(name).franson
        s = cfg.spectrum
        phase = total_phase(cfg, s.omega)
        for phi in (0.0, 1.0, math.pi, 4.5, 2.0 * math.pi - 1e-3):
            theta = phi + cfg.pump_phase_offset_rad - phase
            rate = float(s.weights @ (s.density * np.cos(theta / 2.0) ** 2))
            assert coincidence_rate(cfg, phi) == min(1.0, max(0.0, rate))
        z = complex(s.weights @ (s.density * np.exp(-1j * phase)))
        assert fringe_amplitude(cfg) == z


def frozen_differential_phase(d, omega):
    """differential_phase as it was before the zero cubic term was skipped."""
    return omega**2 / 2.0 * d.d_beta2_l_ps2 + omega**3 / 6.0 * d.d_beta3_l_ps3


def frozen_summed_phase(cfg):
    omega = cfg.spectrum.omega
    return frozen_differential_phase(
        cfg.signal_arm.differential(), omega
    ) + frozen_differential_phase(cfg.idler_arm.differential(), -omega)


def frozen_rate(cfg, phi, phase):
    """coincidence_rate written out directly, at a given summed phase."""
    s = cfg.spectrum
    theta = phi + cfg.pump_phase_offset_rad - phase
    rate = float(s.weights @ (s.density * np.cos(theta / 2.0) ** 2))
    return min(1.0, max(0.0, rate))


def frozen_amplitude(cfg, phase):
    """fringe_amplitude written out directly, at a given summed phase."""
    s = cfg.spectrum
    return complex(s.weights @ (s.density * np.exp(-1j * phase)))


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def assert_matches_frozen(cfg, phis):
    phase = frozen_summed_phase(cfg)
    assert np.array_equal(bits(cfg.summed_phase), bits(phase))
    for phi in phis:
        assert coincidence_rate(cfg, phi) == frozen_rate(cfg, phi, phase)
    assert fringe_amplitude(cfg) == frozen_amplitude(cfg, phase)


def with_cached_phase(cfg, phase):
    """cfg with its summed_phase cache set to ``phase`` (read-only)."""
    phase = np.array(phase, dtype=float)
    phase.setflags(write=False)
    cfg = replace(cfg)
    cfg.__dict__["summed_phase"] = phase
    return cfg


# beta3 of the fiber carrying an arm's dispersion: zeros of either sign,
# where differential_phase skips the cubic term, or any value in +-1e7
CATALOG_BETA3_FS3_PER_MM = st.one_of(
    st.sampled_from([0.0, -0.0]), st.floats(-1e7, 1e7)
)


@st.composite
def catalog_fiber_configs(draw):
    """analytic_configs whose arms each sit on one catalog fiber."""
    cfg = draw(analytic_configs())

    def arm(mzi):
        fiber = FiberSpec(
            "catalog",
            beta2_fs2_per_mm=mzi.differential().d_beta2_l_ps2 * 1e6,
            beta3_fs3_per_mm=draw(CATALOG_BETA3_FS3_PER_MM),
        )
        return replace(mzi, long=stack((fiber, 1.0)))

    return replace(cfg, signal_arm=arm(cfg.signal_arm), idler_arm=arm(cfg.idler_arm))


class TestFoldedQuadratures:
    """The rate and Z quadratures equal the direct expressions bit for bit.

    The summed phase they read equals the one with the cubic term always
    taken, so skipping a zero beta3 changes no bit.
    """

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets(self, name):
        cfg = preset_experiment(name).franson
        assert cfg.summed_phase.size == 16_385
        assert_matches_frozen(cfg, (0.0, 1.0, math.pi, 4.5, 2.0 * math.pi - 1e-3))

    @settings(max_examples=200, deadline=None)
    @given(cfg=catalog_fiber_configs(), phi=st.floats(-10.0, 10.0))
    def test_random_configs(self, cfg, phi):
        assert_matches_frozen(cfg, (phi, 0.0, math.pi))

    def test_cubic_difference_folds_nothing(self):
        cfg = franson(-2.2018e-2, -1e-2, b3_signal=2e-3, spectrum=sinc2_pedestal())
        assert cfg.summed_phase.size == 16_385
        assert_matches_frozen(cfg, (0.0, 1.0, 4.5))


class TestAmplitudeCache:
    def test_one_quadrature_per_config(self, monkeypatch, tmp_path, capsys):
        calls = []
        original = fransonsim.interference.fringe_amplitude

        def counting(cfg):
            calls.append(cfg)
            return original(cfg)

        monkeypatch.setattr(fransonsim.interference, "fringe_amplitude", counting)
        # the integral method, the sweep and a fringe CSV on one config
        out = tmp_path / "fringe.csv"
        argv = ["visibility", "--preset", "fig4b", "--out", str(out), "--points", "16"]
        assert cli_main(argv) == 0
        assert len(calls) == 1
        cfg = calls[0]
        assert cfg.amplitude is cfg.amplitude
        assert cfg.amplitude == original(cfg)


class TestQuadrature:
    def test_grid_refinement_stable(self):
        coarse = make_spectrum(SINC2, 1.6, span_radps=PEDESTAL_SPAN, n_points=2**14 + 1)
        fine = make_spectrum(SINC2, 1.6, span_radps=PEDESTAL_SPAN, n_points=2**15 + 1)
        vs = []
        for spec in (coarse, fine):
            vs.append(visibility(franson(-2.2018e-2, -2.2018e-2, spectrum=spec)).visibility)
        assert abs(vs[0] - vs[1]) / vs[1] < 1e-8


class TestValidation:
    def test_delta_t_positive(self):
        # an infinite delay in both arms would pass the match check as inf - inf = nan
        for delta_t in (0.0, math.inf, math.nan):
            with pytest.raises(ConfigurationError):
                MZIConfig(long=PathStack(()), short=PathStack(()), delta_t_ns=delta_t)

    def test_arm_delay_mismatch(self):
        with pytest.raises(ConfigurationError):
            FransonConfig(
                signal_arm=arm_with_dispersion(delta_t_ns=4.77),
                idler_arm=arm_with_dispersion(delta_t_ns=4.80),
                spectrum=make_spectrum(GAUSSIAN, 1.6),
            )

    def test_sub_ps_mismatch_tolerated(self):
        FransonConfig(
            signal_arm=arm_with_dispersion(delta_t_ns=4.77),
            idler_arm=arm_with_dispersion(delta_t_ns=4.7705),
            spectrum=make_spectrum(GAUSSIAN, 1.6),
        )

    def test_unnormalized_spectrum_rejected(self):
        good = make_spectrum(GAUSSIAN, 1.6)
        bad = JointSpectrum(
            model=GAUSSIAN,
            center_wavelength_nm=1560.0,
            fwhm_nm=1.6,
            span_radps=good.span_radps,
            omega=good.omega.copy(),
            density=good.density * 2.0,
            weights=good.weights.copy(),
        )
        with pytest.raises(ContractViolationError):
            FransonConfig(
                signal_arm=arm_with_dispersion(),
                idler_arm=arm_with_dispersion(),
                spectrum=bad,
            )
