"""Accidental visibility penalty and Bell significance."""

import math

import numpy as np
import pytest

from fransonsim import (
    DomainError,
    NoiseModel,
    alpha_sweep,
    bell_significance,
    observed_visibility,
)


class TestObservedVisibility:
    def test_noise_free(self):
        assert observed_visibility(1.0, NoiseModel(0.0)) == 1.0

    def test_stock_pair_rate(self):
        assert observed_visibility(1.0, NoiseModel(0.0024)) == pytest.approx(0.9976, abs=1e-12)

    def test_composed_with_dispersion_limit(self):
        v = observed_visibility(0.987, NoiseModel(0.0024))
        assert v == pytest.approx(0.987 * 0.9976, rel=1e-12)
        assert v == pytest.approx(0.9846, abs=2e-4)

    def test_monotone(self):
        alphas = np.linspace(0.0, 0.5, 20)
        vs = [observed_visibility(0.9, NoiseModel(a)) for a in alphas]
        assert all(a > b for a, b in zip(vs, vs[1:]))
        intr = np.linspace(0.0, 1.0, 20)
        vs = [observed_visibility(v, NoiseModel(0.1)) for v in intr]
        assert all(a < b for a, b in zip(vs, vs[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            observed_visibility(1.2, NoiseModel(0.0))
        with pytest.raises(DomainError):
            observed_visibility(-0.1, NoiseModel(0.0))
        with pytest.raises(DomainError):
            NoiseModel(1.0)
        with pytest.raises(DomainError):
            NoiseModel(-1e-9)


class TestAlphaSweep:
    def test_single_point(self):
        assert alpha_sweep(1.0, [0.0]) == [(0.0, 1.0)]

    def test_fitted_slope_is_minus_v(self):
        alphas = [0.0024, 0.01, 0.02, 0.04]
        pts = alpha_sweep(1.0, alphas)
        slope, intercept = np.polyfit([a for a, _ in pts], [v for _, v in pts], 1)
        assert slope == pytest.approx(-1.0, abs=1e-9)
        assert intercept == pytest.approx(1.0, abs=1e-9)

    def test_fitted_intercept_is_v(self):
        alphas = [0.0024, 0.01, 0.02, 0.04]
        pts = alpha_sweep(0.987, alphas)
        slope, intercept = np.polyfit([a for a, _ in pts], [v for _, v in pts], 1)
        assert slope == pytest.approx(-0.987, abs=1e-9)
        assert intercept == pytest.approx(0.987, abs=1e-9)

    def test_bad_alpha(self):
        with pytest.raises(DomainError):
            alpha_sweep(1.0, [0.5, 1.5])


class TestBellSignificance:
    def test_classical_boundary(self):
        res = bell_significance(1.0 / math.sqrt(2.0), 0.01)
        assert res.sigma_violation == pytest.approx(0.0, abs=1e-9)
        assert res.s_value == pytest.approx(2.0, abs=1e-12)

    def test_headline_violation(self):
        res = bell_significance(0.996, 0.002)
        assert res.sigma_violation == pytest.approx(144.5, abs=0.5)

    def test_no_violation_below_classical(self):
        assert bell_significance(0.5, 0.01).sigma_violation < 0.0

    def test_quantum_bound(self):
        res = bell_significance(1.0, 0.01)
        assert res.s_value <= 2.0 * math.sqrt(2.0) + 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bell_significance(0.9, 0.0)
        with pytest.raises(DomainError):
            bell_significance(1.1, 0.01)
        # a subnormal sigma_v would overflow the significance to inf
        for sigma_v in (math.inf, math.nan, 5e-324, math.nextafter(np.finfo(float).tiny, 0.0)):
            with pytest.raises(DomainError, match="finite"):
                bell_significance(0.9, sigma_v)
