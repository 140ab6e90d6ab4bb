"""Coincidence rate, visibility methods, and the nonlocality invariants."""

import math
from dataclasses import replace

import numpy as np
import pytest

import fransonsim.interference
from fransonsim import (
    COMPLEX_INTEGRAL,
    ConfigurationError,
    ContractViolationError,
    DifferentialDispersion,
    FransonConfig,
    GAUSSIAN,
    JointSpectrum,
    MZIConfig,
    PHASE_SWEEP,
    PRESET_NAMES,
    PathStack,
    SINC2,
    coincidence_rate,
    fringe_amplitude,
    make_spectrum,
    preset_experiment,
    total_phase,
    visibility,
    width_nm_to_radps,
)
from fransonsim.spectra import GAUSSIAN_FWHM_PER_SIGMA

from tests.helpers import arm_with_dispersion

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
        with pytest.raises(ConfigurationError):
            MZIConfig(long=PathStack(()), short=PathStack(()), delta_t_ns=0.0)

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
