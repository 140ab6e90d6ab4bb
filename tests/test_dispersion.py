"""Fiber stacks, differential moments, dispersion phase, catalog files."""

import numpy as np
import pytest

from fransonsim import (
    ConfigurationError,
    DifferentialDispersion,
    DomainError,
    FiberSpec,
    LEAF,
    PathStack,
    SMF,
    differential_phase,
    load_fiber_catalog,
    stack,
    stack_moments,
    temporal_spread,
)


class TestStackMoments:
    def test_identical_stacks_are_null(self):
        s = stack((SMF, 1234.5), (LEAF, 67.8))
        d = stack_moments(s, s)
        assert d.d_beta2_l_ps2 == 0.0
        assert d.d_beta3_l_ps3 == 0.0

    def test_leaf_smf_mix(self):
        # 2695 mm LEAF + 180 mm SMF against 1900 mm SMF:
        # (-6.19*2695 - 22.5*180 + 22.5*1900) fs^2 = +22017.95 fs^2
        long = stack((LEAF, 2695.0), (SMF, 180.0))
        short = stack((SMF, 1900.0))
        d = stack_moments(long, short)
        assert d.d_beta2_l_ps2 == pytest.approx(2.201795e-2, rel=1e-12)
        assert d.d_beta2_l_ps2 == pytest.approx(2.2018e-2, abs=1e-7)

    def test_smf_surplus(self):
        # 978.6 mm extra SMF: -22.5 * 978.6 fs^2 = -22018.5 fs^2
        base = stack((SMF, 1900.0))
        long = stack((SMF, 1900.0), (SMF, 978.6))
        d = stack_moments(long, base)
        assert d.d_beta2_l_ps2 == pytest.approx(-2.20185e-2, rel=1e-12)
        assert d.d_beta2_l_ps2 == pytest.approx(-2.2019e-2, abs=1e-6)

    def test_concatenation_additive_and_swap_antisymmetric(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            f1 = FiberSpec("a", rng.uniform(-30, 5), rng.uniform(-1, 1))
            f2 = FiberSpec("b", rng.uniform(-30, 5), rng.uniform(-1, 1))
            la, lb, lc = rng.uniform(0, 3000, 3)
            p = stack((f1, la))
            q = stack((f2, lb))
            r = stack((f1, lc))
            pq = PathStack(p.segments + q.segments)
            d_sum = stack_moments(pq, r)
            assert d_sum.d_beta2_l_ps2 == pytest.approx(
                stack_moments(p, r).d_beta2_l_ps2 + stack_moments(q, PathStack(())).d_beta2_l_ps2,
                rel=1e-12, abs=1e-18,
            )
            fwd = stack_moments(p, q)
            rev = stack_moments(q, p)
            assert fwd.d_beta2_l_ps2 == -rev.d_beta2_l_ps2
            assert fwd.d_beta3_l_ps3 == -rev.d_beta3_l_ps3

    def test_unit_conversion_exact(self):
        one = stack((FiberSpec("u", beta2_fs2_per_mm=1.0, beta3_fs3_per_mm=1.0), 1.0))
        d = stack_moments(one, PathStack(()))
        assert d.d_beta2_l_ps2 == pytest.approx(1e-6, rel=1e-6)
        assert d.d_beta3_l_ps3 == pytest.approx(1e-9, rel=1e-6)


class TestDifferentialPhase:
    def test_zero_at_zero_detuning(self):
        d = DifferentialDispersion(0.5, -0.3)
        assert differential_phase(d, 0.0) == 0.0

    def test_quadratic_term(self):
        d = DifferentialDispersion(d_beta2_l_ps2=2.2018e-2)
        assert differential_phase(d, 1.0) == pytest.approx(1.1009e-2, rel=1e-12)

    def test_cubic_term(self):
        d = DifferentialDispersion(d_beta3_l_ps3=6e-3)
        assert differential_phase(d, 2.0) == pytest.approx(8.0e-3, rel=1e-12)

    def test_even_without_beta3(self):
        d = DifferentialDispersion(d_beta2_l_ps2=-1.7e-2)
        om = np.linspace(0.1, 4.0, 40)
        assert np.array_equal(differential_phase(d, om), differential_phase(d, -om))

    def test_no_constant_or_linear_term(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            d = DifferentialDispersion(rng.uniform(-1, 1), rng.uniform(-1, 1))
            eps = 1e-8
            # quadratic leading order: phi(eps)/eps -> 0
            assert abs(differential_phase(d, eps)) < 1e-15

    def test_vectorized(self):
        d = DifferentialDispersion(1e-2, 0.0)
        om = np.array([0.0, 1.0, 2.0])
        assert np.allclose(differential_phase(d, om), [0.0, 5e-3, 2e-2])

    @pytest.mark.parametrize("d3", [0.0, -0.0, 6e-3, -1e-300])
    @pytest.mark.parametrize("d2", [0.0, -0.0, -2.2018e-2, 1.7e-2])
    def test_bits_match_cubic_expression(self, d2, d3):
        # signed zeros, the grid's magnitudes, and values past cbrt(DBL_MAX)
        # where omega**3 overflows and inf * 0 is NaN
        om = np.array(
            [0.0, -0.0, 1e-300, -1e-300, 0.7, -3.5, 11.6, -11.6,
             4e102, 6e102, -1e103, 1e160, np.inf, -np.inf, np.nan]
        )
        d = DifferentialDispersion(d2, d3)
        with np.errstate(over="ignore", invalid="ignore"):
            # om[:8] stays below the overflow, where a zero d3 skips the cube
            for omega in (om, om[:8], *om):
                omega = np.asarray(omega, dtype=float)
                want = np.asarray(omega**2 / 2.0 * d2 + omega**3 / 6.0 * d3)
                got = np.asarray(differential_phase(d, omega))
                assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestTemporalSpread:
    def test_zero(self):
        assert temporal_spread(DifferentialDispersion(0.0), 1.0) == 0.0

    def test_full_bandwidth(self):
        # 2.2018e-2 ps^2 * 1.238 rad/ps = 27.258 fs
        ts = temporal_spread(DifferentialDispersion(2.2018e-2), 1.238)
        assert ts == pytest.approx(2.2018e-2 * 1.238 * 1e3, rel=1e-12)
        assert ts == pytest.approx(27.3, abs=0.1)

    def test_filtered_bandwidth(self):
        ts = temporal_spread(DifferentialDispersion(2.2018e-2), 0.278)
        assert ts == pytest.approx(6.1, abs=0.05)

    def test_sign_insensitive(self):
        a = temporal_spread(DifferentialDispersion(-2.2018e-2), 1.238)
        b = temporal_spread(DifferentialDispersion(+2.2018e-2), 1.238)
        assert a == b

    def test_bad_bandwidth(self):
        with pytest.raises(DomainError):
            temporal_spread(DifferentialDispersion(1e-2), 0.0)


class TestValidation:
    def test_negative_length_rejected(self):
        with pytest.raises(DomainError):
            stack((SMF, -1.0))

    def test_group_index_must_exceed_one(self):
        with pytest.raises(ConfigurationError):
            FiberSpec("x", -22.5, group_index=0.99)

    @pytest.mark.parametrize("group_index", [np.inf, np.nan])
    def test_group_index_must_be_finite(self, group_index):
        with pytest.raises(ConfigurationError, match="group index must exceed 1 and be finite"):
            FiberSpec("x", -22.5, group_index=group_index)

    def test_nonfinite_beta_rejected(self):
        with pytest.raises(ConfigurationError):
            FiberSpec("x", float("nan"))


class TestCatalog:
    def test_builtin_values(self):
        assert SMF.beta2_fs2_per_mm == -22.5
        assert LEAF.beta2_fs2_per_mm == -6.19
        assert SMF.group_index == 1.468

    def test_load_catalog_file(self, tmp_path):
        p = tmp_path / "fibers.ini"
        p.write_text(
            "[DSF]\nbeta2_fs2_per_mm = -4.0\nbeta3_fs3_per_mm = 0.1\n"
            "group_index = 1.47\n\n[HNLF]\nbeta2_fs2_per_mm = -11.0\n"
        )
        cat = load_fiber_catalog(p)
        assert cat["DSF"].beta2_fs2_per_mm == -4.0
        assert cat["DSF"].beta3_fs3_per_mm == 0.1
        assert cat["DSF"].group_index == 1.47
        assert cat["HNLF"].group_index == 1.468

    def test_catalog_unknown_key(self, tmp_path):
        p = tmp_path / "fibers.ini"
        p.write_text("[DSF]\nbeta2_fs2_per_mm = -4.0\ncolor = blue\n")
        from fransonsim import ConfigParseError

        with pytest.raises(ConfigParseError):
            load_fiber_catalog(p)

    def test_catalog_missing_beta2(self, tmp_path):
        p = tmp_path / "fibers.ini"
        p.write_text("[DSF]\ngroup_index = 1.47\n")
        from fransonsim import ConfigParseError

        with pytest.raises(ConfigParseError):
            load_fiber_catalog(p)
