"""Spectral density construction, normalization, filtering, tabulated input."""

import math
import warnings

import numpy as np
import pytest

from fransonsim import (
    ConfigurationError,
    DataError,
    DomainError,
    FLATTOP,
    GAUSSIAN,
    SINC2,
    apply_bandpass,
    load_tabulated,
    make_spectrum,
    read_spectrum_csv,
    wavelength_to_detuning,
    width_nm_to_radps,
)
from fransonsim.spectra import (
    GAUSSIAN_FWHM_PER_SIGMA,
    SINC2_HALF_MAX_X,
    SPEED_OF_LIGHT_NM_PER_PS,
)

from tests.helpers import run_python

C = SPEED_OF_LIGHT_NM_PER_PS


def exact_detuning(lam, lam0):
    # independent oracle: 2*pi*c*(1/lam - 1/lam0), c = 299792.458 nm/ps
    return 2.0 * math.pi * 299792.458 * (1.0 / lam - 1.0 / lam0)


class TestWavelengthToDetuning:
    def test_zero_offset(self):
        assert wavelength_to_detuning(1560.0, 1560.0) == 0.0

    def test_blue_side_positive(self):
        # oracle evaluates to +1.23957 rad/ps
        om = wavelength_to_detuning(1558.4, 1560.0)
        assert om == pytest.approx(exact_detuning(1558.4, 1560.0), rel=1e-12)
        assert om == pytest.approx(1.239, abs=0.002)

    def test_red_side_negative_and_asymmetric(self):
        om = wavelength_to_detuning(1561.6, 1560.0)
        assert om == pytest.approx(exact_detuning(1561.6, 1560.0), rel=1e-12)
        assert om == pytest.approx(-1.237, abs=0.002)
        # exact conversion is slightly asymmetric vs the linearized width
        assert abs(om) < wavelength_to_detuning(1558.4, 1560.0)

    @pytest.mark.parametrize("lam,center", [
        (0.0, 1560.0), (-1.0, 1560.0), (1560.0, 0.0),
        (math.inf, 1560.0), (1560.0, math.inf), (math.nan, 1560.0), (1560.0, math.nan),
    ])
    def test_nonpositive_wavelength_rejected(self, lam, center):
        with pytest.raises(DomainError):
            wavelength_to_detuning(lam, center)


class TestMakeSpectrum:
    def test_gaussian_sigma(self):
        s = make_spectrum(GAUSSIAN, 1.6)
        # second moment of a truncated unit-norm Gaussian gives sigma back
        var = float(s.weights @ (s.density * s.omega**2))
        sigma_expected = width_nm_to_radps(1.6, 1560.0) / GAUSSIAN_FWHM_PER_SIGMA
        assert math.sqrt(var) == pytest.approx(sigma_expected, rel=1e-4)
        assert math.sqrt(var) == pytest.approx(0.526, abs=0.002)

    def test_sinc2_half_max_point(self):
        s = make_spectrum(SINC2, 1.6)
        assert s.density[s.omega == 0.0][0] == s.density.max()
        # the density is at half its peak at +-FWHM/2 = +-0.619 rad/ps
        half = width_nm_to_radps(1.6, 1560.0) / 2.0
        assert half == pytest.approx(0.619, rel=0.01)
        at_half = np.interp([-half, half], s.omega, s.density)
        assert at_half == pytest.approx(s.density.max() / 2.0, rel=0.01)
        x = SINC2_HALF_MAX_X
        assert x == 1.3915573782515103
        assert abs((np.sin(x) / x) ** 2 - 0.5) <= 1e-15

    def test_import_leaves_scipy_unloaded(self):
        out = run_python("import sys, fransonsim; print('scipy' in sys.modules)")
        assert out.strip() == "False"

    @pytest.mark.parametrize("model", [SINC2, GAUSSIAN])
    def test_unit_integral(self, model):
        s = make_spectrum(model, 1.6)
        assert abs(s.integral() - 1.0) <= 1e-9

    @pytest.mark.parametrize("model", [SINC2, GAUSSIAN])
    def test_fwhm_matches_request(self, model):
        s = make_spectrum(model, 1.6)
        half = width_nm_to_radps(1.6, 1560.0) / 2.0
        at_half = np.interp([-half, half], s.omega, s.density)
        assert at_half == pytest.approx(s.density.max() / 2.0, rel=0.005)

    @pytest.mark.parametrize("model", [SINC2, GAUSSIAN])
    def test_mirror_symmetry(self, model):
        s = make_spectrum(model, 1.6)
        assert np.array_equal(s.density, s.density[::-1])
        assert np.array_equal(s.omega, -s.omega[::-1])

    def test_span_too_small(self):
        with pytest.raises(ConfigurationError):
            make_spectrum(SINC2, 1.6, span_radps=1.0)  # below the main lobe edge
        with pytest.raises(ConfigurationError):
            make_spectrum(GAUSSIAN, 1.6, span_radps=0.5)

    @pytest.mark.parametrize("model", [SINC2, GAUSSIAN])
    @pytest.mark.parametrize("span", [1e103, math.inf, -math.inf, math.nan])
    def test_unphysical_span_rejected(self, model, span):
        with pytest.raises(ConfigurationError, match="span_radps"):
            make_spectrum(model, 1.6, span_radps=span, n_points=17)

    @pytest.mark.parametrize("model", [SINC2, GAUSSIAN])
    def test_span_capped_at_carrier_frequency(self, model):
        carrier = 2.0 * math.pi * C / 1560.0  # 1,207 rad/ps
        with pytest.raises(ConfigurationError, match="span_radps"):
            make_spectrum(model, 1.6, span_radps=carrier, n_points=17)
        # +-240 nm is 186 rad/ps; the largest span below the cap builds too
        for span in (width_nm_to_radps(240.0, 1560.0), math.nextafter(carrier, 0.0)):
            s = make_spectrum(model, 1.6, span_radps=span, n_points=17)
            assert s.span_radps == span
            assert s.is_normalized()

    def test_default_and_sampled_grids_capped_at_carrier(self):
        # a 700 nm Gaussian's default 6 sigma span is 1,380 rad/ps, and a
        # sample at 500 nm sits 2,560 rad/ps from 1560 nm; the carrier is 1,207
        with pytest.raises(ConfigurationError, match="carrier"):
            make_spectrum(GAUSSIAN, 700.0, n_points=17)
        with pytest.raises(ConfigurationError, match="carrier"):
            load_tabulated([(500.0, 1.0), (1560.0, 1.0)], n_points=17)
        # a 600 nm Gaussian's default span, 1,183 rad/ps, still builds
        assert make_spectrum(GAUSSIAN, 600.0, n_points=17).span_radps < 2.0 * math.pi * C / 1560.0

    def test_bad_fwhm(self):
        # an infinite sinc^2 width, or center, would put its first zero at pi / 0
        for model in (SINC2, GAUSSIAN):
            for fwhm, center in ((-1.6, 1560.0), (math.inf, 1560.0), (math.nan, 1560.0),
                                 (1.6, math.inf), (1.6, math.nan)):
                with pytest.raises(DomainError):
                    make_spectrum(model, fwhm, center)
        with pytest.raises(DomainError):
            width_nm_to_radps(1.6, math.inf)

    def test_unknown_model(self):
        with pytest.raises(ConfigurationError):
            make_spectrum("lorentzian", 1.6)


class TestLoadTabulated:
    def test_two_point_box_is_uniform(self):
        s = load_tabulated([(1559.0, 1.0), (1561.0, 1.0)])
        assert abs(s.integral() - 1.0) <= 1e-9
        inside = s.density[s.density > 0]
        assert inside.max() == pytest.approx(inside.min(), rel=1e-12)

    def test_gaussian_roundtrip_downstream(self):
        # dense wavelength samples of a Gaussian must reproduce the analytic
        # model's visibility under dispersion to 1e-4
        from fransonsim import FransonConfig, MZIConfig, visibility
        from tests.helpers import arm_with_dispersion

        sigma_nm = 1.6 / GAUSSIAN_FWHM_PER_SIGMA
        lam = np.linspace(1555.0, 1565.0, 1001)
        rows = list(zip(lam, np.exp(-((lam - 1560.0) ** 2) / (2 * sigma_nm**2))))
        tab = load_tabulated(rows)
        ana = make_spectrum(GAUSSIAN, 1.6)

        vs = []
        for spec in (tab, ana):
            cfg = FransonConfig(
                signal_arm=arm_with_dispersion(-2.2018e-2),
                idler_arm=arm_with_dispersion(-2.2018e-2),
                spectrum=spec,
            )
            vs.append(visibility(cfg).visibility)
        assert abs(vs[0] - vs[1]) < 1e-4

    def test_negative_intensity_rejected(self):
        with pytest.raises(DataError):
            load_tabulated([(1559.0, 1.0), (1560.0, -0.01), (1561.0, 1.0)])

    def test_non_monotonic_rejected(self):
        with pytest.raises(DataError):
            load_tabulated([(1559.0, 1.0), (1561.0, 1.0), (1560.0, 1.0)])

    def test_all_zero_rejected(self):
        with pytest.raises(DataError):
            load_tabulated([(1559.0, 0.0), (1561.0, 0.0)])

    def test_too_few_rows_rejected(self):
        with pytest.raises(DataError):
            load_tabulated([(1560.0, 1.0)])

    def test_descending_grid_accepted(self):
        s = load_tabulated([(1561.0, 1.0), (1559.0, 1.0)])
        assert abs(s.integral() - 1.0) <= 1e-9


class TestNonFiniteSamples:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", [0, 1])
    def test_refused_naming_the_sample(self, column, value):
        rows = [[1559.0, 0.5], [1560.0, 1.0], [1561.0, 0.5]]
        rows[1][column] = value
        with pytest.raises(DataError, match=r"^sample 1 \(.*\) is not finite$"):
            load_tabulated(rows)


class TestCsvReader:
    def test_header_and_comments(self, tmp_path):
        p = tmp_path / "spec.csv"
        p.write_text(
            "wavelength_nm,intensity\n# comment\n1559.0,0.5\n1560.0,1.0\n1561.0,0.5\n"
        )
        rows = read_spectrum_csv(p)
        assert rows == [(1559.0, 0.5), (1560.0, 1.0), (1561.0, 0.5)]
        s = load_tabulated(rows)
        assert abs(s.integral() - 1.0) <= 1e-9

    @pytest.mark.parametrize("row", ["1560.0,nan", "1560.0,inf", "nan,1.0", "-inf,1.0"])
    def test_non_finite_value(self, tmp_path, row):
        p = tmp_path / "spec.csv"
        p.write_text(f"wavelength_nm,intensity\n1559.0,0.5\n{row}\n")
        with pytest.raises(DataError, match=rf"spec\.csv:3: non-finite value '{row}'"):
            read_spectrum_csv(p)

    def test_bad_column_count(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1559.0,1.0,7.0\n")
        with pytest.raises(DataError):
            read_spectrum_csv(p)


class TestBandpass:
    def test_open_filter_is_identity(self):
        s = make_spectrum(SINC2, 1.6)
        for shape in (FLATTOP, GAUSSIAN):
            f = apply_bandpass(s, 1e6, shape)
            assert np.allclose(f.density, s.density, atol=1e-12)
            assert f.passband_fraction == pytest.approx(1.0, abs=1e-9)

    def test_flattop_sets_fwhm(self):
        s = make_spectrum(SINC2, 1.6)
        f = apply_bandpass(s, 0.36, FLATTOP)
        # the grid is rebuilt over the passband, whose full width is the filter's
        width_nm = 2.0 * f.span_radps / width_nm_to_radps(1.0, 1560.0)
        assert width_nm == pytest.approx(0.36, rel=0.02)

    def test_flattop_passband_fraction(self):
        s = make_spectrum(SINC2, 1.6)
        f = apply_bandpass(s, 0.36, FLATTOP)
        assert f.passband_fraction < 0.5
        assert f.passband_fraction > 0.1
        assert abs(f.integral() - 1.0) <= 1e-9

    @pytest.mark.parametrize("shape,width", [(FLATTOP, 0.36), (GAUSSIAN, 0.8)])
    def test_never_widens_never_negative(self, shape, width):
        s = make_spectrum(SINC2, 1.6)
        f = apply_bandpass(s, width, shape)
        # at the unfiltered half-max points the filtered density is at most
        # half its own peak, so its FWHM is no wider
        half = width_nm_to_radps(1.6, 1560.0) / 2.0
        at_half = np.interp([-half, half], f.omega, f.density, left=0.0, right=0.0)
        assert np.all(at_half <= f.density.max() / 2.0 * (1 + 1e-12))
        assert np.all(f.density >= 0)

    def test_fraction_accumulates(self):
        s = make_spectrum(SINC2, 1.6)
        f1 = apply_bandpass(s, 0.72, FLATTOP)
        f2 = apply_bandpass(f1, 0.36, FLATTOP)
        assert f2.passband_fraction < f1.passband_fraction

    def test_bad_width(self):
        s = make_spectrum(SINC2, 1.6)
        for width in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                apply_bandpass(s, width, FLATTOP)

    def test_gaussian_finer_than_the_grid_refused(self):
        # at 1e-200 nm sigma^2 underflowed to 0, with two RuntimeWarnings
        s = make_spectrum(SINC2, 1.6)
        step = s.omega[1] - s.omega[0]
        resolved = step / width_nm_to_radps(1.0, 1560.0)  # one grid step, in nm
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for width in (1e-200, resolved / 2):
                with pytest.raises(ConfigurationError, match="narrower than the spectrum grid"):
                    apply_bandpass(s, width, GAUSSIAN)
            assert apply_bandpass(s, 2 * resolved, GAUSSIAN).is_normalized()

    def test_bad_shape(self):
        s = make_spectrum(SINC2, 1.6)
        with pytest.raises(ConfigurationError):
            apply_bandpass(s, 0.36, "supergaussian")


class TestImmutability:
    def test_density_not_writable(self):
        s = make_spectrum(SINC2, 1.6)
        with pytest.raises(ValueError):
            s.density[0] = 1.0
