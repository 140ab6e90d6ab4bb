"""Event-level detection streams, coincidence counting, fringe estimation."""

import json
import math
import threading
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom, chi2

from fransonsim import (
    ConfigurationError,
    ContractViolationError,
    DetectorModel,
    DomainError,
    EventStream,
    FransonConfig,
    GAUSSIAN,
    NoiseModel,
    StatisticsError,
    count_coincidences,
    estimate_visibility,
    gate_offset,
    make_spectrum,
    observed_visibility,
    preset_experiment,
    simulate_run,
    visibility,
)
from fransonsim import interference, montecarlo
from fransonsim.cli import _event_csv, _write_csv, main
from fransonsim.interference import coincidence_rate
from fransonsim.montecarlo import (
    MAX_GATES,
    MAX_HISTOGRAM_CELLS,
    MAX_PHASES,
    MAX_STREAMS,
    _gap_hits,
    _gap_rows,
    _merge_gates,
)

from tests.helpers import arm_with_dispersion, rate_tolerance, run_python

IDEAL = DetectorModel(efficiency=1.0, dark_prob=0.0, afterpulse_prob=0.0)
NO_PAIRS = NoiseModel(0.0)
STOCK_ALPHA = NoiseModel(0.0024)
EMPTY = np.empty(0, dtype=np.int64)


def bernoulli_gates(rng, n, p):
    """Sorted int64 gates in [0, n), each a hit with probability p: one row of the gap sampler."""
    return _gap_hits(_gap_rows([rng], n, p), [rng], n, p, np.zeros(1, dtype=np.int64))[0]


def count_at(hist, offset):
    """A coincidence histogram's count at gate offset ``offset``."""
    return int(hist.counts[hist.offsets.tolist().index(offset)])


def dispersion_free_config(phase_rad=0.0):
    return FransonConfig(
        signal_arm=arm_with_dispersion(phase_rad=phase_rad),
        idler_arm=arm_with_dispersion(),
        spectrum=make_spectrum(GAUSSIAN, 1.6),
    )


class TestGateOffset:
    def test_stock_ratio_is_three_gates(self):
        assert gate_offset(dispersion_free_config(), DetectorModel()) == 3

    def test_non_integer_ratio_rejected(self):
        cfg = FransonConfig(
            signal_arm=arm_with_dispersion(delta_t_ns=4.0),
            idler_arm=arm_with_dispersion(delta_t_ns=4.0),
            spectrum=make_spectrum(GAUSSIAN, 1.6),
        )
        with pytest.raises(ConfigurationError):
            gate_offset(cfg, DetectorModel())

    @pytest.mark.parametrize("gate_rate_mhz, delta_t_ns", [
        (1e300, 4.77),
        (1e300, 1e300),  # a ratio of inf, which round() cannot take
        (1e3 * 2**22 / 4.77, 4.77),  # m = 2**22: rows of 2**23 + 1 cells
    ])
    def test_offset_past_the_histogram_cap_rejected(self, gate_rate_mhz, delta_t_ns):
        cfg = FransonConfig(
            signal_arm=arm_with_dispersion(delta_t_ns=delta_t_ns),
            idler_arm=arm_with_dispersion(delta_t_ns=delta_t_ns),
            spectrum=make_spectrum(GAUSSIAN, 1.6),
        )
        with pytest.raises(ConfigurationError, match="histogram rows") as err:
            gate_offset(cfg, DetectorModel(gate_rate_mhz=gate_rate_mhz))
        assert len(str(err.value)) < 200

    def test_largest_offset_under_the_histogram_cap_accepted(self):
        det = DetectorModel(gate_rate_mhz=1e3 * (2**22 - 1) / 4.77)
        assert gate_offset(dispersion_free_config(), det) == 2**22 - 1

    @pytest.mark.parametrize("field, value", [
        ("gate_rate_mhz", math.inf),  # a gate period of 0 ns
        ("gate_rate_mhz", math.nan),
    ])
    def test_non_finite_detector_rejected(self, field, value):
        with pytest.raises(DomainError, match="finite"):
            DetectorModel(**{field: value})


class TestSimulateRun:
    def test_silent_without_pairs_or_darks(self):
        stream = simulate_run(dispersion_free_config(), NO_PAIRS, IDEAL, 100_000, seed=1)
        assert len(stream) == 0

    def test_dark_only_rate(self):
        det = DetectorModel(efficiency=1.0, dark_prob=2e-6, afterpulse_prob=0.0)
        stream = simulate_run(dispersion_free_config(), NO_PAIRS, det, 10_000_000, seed=3)
        # 2 detectors * 1e7 gates * 2e-6 per gate = 40 expected
        assert abs(len(stream) - 40) <= 26

    def test_fringe_minimum_side_bins(self):
        # at the fringe minimum the interfering class never fires; mixed
        # path combinations still feed the +-3 gate bins at alpha/4 each
        n = 1_000_000
        cfg = dispersion_free_config(phase_rad=math.pi)
        stream = simulate_run(cfg, STOCK_ALPHA, IDEAL, n, seed=7)
        hist = count_coincidences(stream, window_offsets=3)
        expected_side = n * STOCK_ALPHA.alpha / 4
        assert count_at(hist, 0) < 30  # residual cross-pair accidentals only
        for offset in (-3, 3):
            assert abs(count_at(hist, offset) - expected_side) < 5 * math.sqrt(expected_side)

    def test_fringe_maximum_offset_zero(self):
        n = 1_000_000
        cfg = dispersion_free_config(phase_rad=0.0)
        stream = simulate_run(cfg, STOCK_ALPHA, IDEAL, n, seed=7)
        hist = count_coincidences(stream, window_offsets=3)
        expected_zero = n * STOCK_ALPHA.alpha / 2
        assert abs(count_at(hist, 0) - expected_zero) < 5 * math.sqrt(expected_zero)

    def test_efficiency_thins_quadratically(self):
        n = 2_000_000
        half = DetectorModel(efficiency=0.5, dark_prob=0.0, afterpulse_prob=0.0)
        stream = simulate_run(dispersion_free_config(), STOCK_ALPHA, half, n, seed=11)
        hist = count_coincidences(stream, window_offsets=3)
        expected_zero = n * STOCK_ALPHA.alpha / 2 * 0.25
        assert abs(count_at(hist, 0) - expected_zero) < 5 * math.sqrt(expected_zero)

    def test_afterpulse_mechanics(self):
        det = DetectorModel(efficiency=1.0, dark_prob=0.01, afterpulse_prob=0.999999)
        stream = simulate_run(dispersion_free_config(), NO_PAIRS, det, 10_000, seed=5)
        gates = set(stream.signal_gates.tolist())
        # afterpulses do not cascade: a gate with no predecessor is a base
        # detection and must be followed by its (near-certain) afterpulse,
        # while the afterpulse itself owes nothing to the next gate
        for g in list(gates):
            if g - 1 not in gates and g + 1 < 10_000:
                assert g + 1 in gates

    def test_seed_determinism(self):
        a = simulate_run(dispersion_free_config(), STOCK_ALPHA, DetectorModel(), 500_000, seed=9)
        b = simulate_run(dispersion_free_config(), STOCK_ALPHA, DetectorModel(), 500_000, seed=9)
        assert np.array_equal(a.signal_gates, b.signal_gates)
        assert np.array_equal(a.idler_gates, b.idler_gates)
        c = simulate_run(dispersion_free_config(), STOCK_ALPHA, DetectorModel(), 500_000, seed=10)
        assert not (
            np.array_equal(a.signal_gates, c.signal_gates)
            and np.array_equal(a.idler_gates, c.idler_gates)
        )

    def test_gate_indices_within_run(self):
        stream = simulate_run(dispersion_free_config(), STOCK_ALPHA, DetectorModel(), 10_000, seed=2)
        for arr in (stream.signal_gates, stream.idler_gates):
            assert np.all(arr >= 0)
            assert np.all(arr < 10_000)

    def test_bad_n_gates(self):
        with pytest.raises(DomainError):
            simulate_run(dispersion_free_config(), NO_PAIRS, IDEAL, 0, seed=1)


def stream_of(signal, idler, n_gates=None):
    """EventStream of the given signal and idler gates, n_gates past the last by default."""
    signal, idler = np.array(signal, dtype=np.int64), np.array(idler, dtype=np.int64)
    if n_gates is None:
        n_gates = max(signal.tolist() + idler.tolist(), default=-1) + 1
    return EventStream(signal_gates=signal, idler_gates=idler, n_gates=n_gates)


class TestCountCoincidences:
    def test_empty(self):
        hist = count_coincidences(stream_of([], []), window_offsets=3)
        assert hist.counts.sum() == 0

    def test_single_pair_offset(self):
        hist = count_coincidences(stream_of([10], [13]), window_offsets=3)
        assert count_at(hist, 3) == 1
        assert hist.counts.sum() == 1

    def test_negative_offset(self):
        hist = count_coincidences(stream_of([12], [10]), window_offsets=3)
        assert count_at(hist, -2) == 1

    def test_same_gate_counted_once(self):
        hist = count_coincidences(stream_of([5], [5]), window_offsets=3)
        assert count_at(hist, 0) == 1
        assert hist.counts.sum() == 1

    def test_window_clips(self):
        hist = count_coincidences(stream_of([0], [10]), window_offsets=3)
        assert hist.counts.sum() == 0

    @pytest.mark.parametrize("k", [MAX_HISTOGRAM_CELLS // 2, 10**12])
    def test_window_over_the_histogram_cap_refused(self, k):
        # 2k + 1 int64 counts: one past the cap, and 14.6 TiB at k = 10**12
        with pytest.raises(DomainError, match=f"2k \\+ 1 = {2 * k + 1} exceeds the cap of "
                                              f"{MAX_HISTOGRAM_CELLS}"):
            count_coincidences(stream_of([5], [5]), window_offsets=k)

    @pytest.mark.parametrize("dtype", [np.uint64, np.int32])
    def test_gate_dtype_does_not_change_counts(self, dtype):
        sig, idl = np.array([0, 1, 6]), np.array([0, 3, 4, 9])
        expected = count_coincidences(EventStream(sig, idl, 10), window_offsets=3).counts
        stream = EventStream(sig.astype(dtype), idl.astype(dtype), 10)
        assert np.array_equal(count_coincidences(stream, window_offsets=3).counts, expected)

    def test_dark_only_accidental_floor(self):
        det = DetectorModel(efficiency=1.0, dark_prob=2e-6, afterpulse_prob=0.0)
        stream = simulate_run(dispersion_free_config(), NO_PAIRS, det, 10_000_000, seed=13)
        hist = count_coincidences(stream, window_offsets=3)
        # expected n * p^2 = 4e-5 per bin: essentially always zero
        assert hist.counts.sum() <= 3

    @settings(deadline=None)
    @given(
        signal=st.sets(st.integers(0, 40), max_size=20),
        idler=st.sets(st.integers(0, 40), max_size=20),
        k=st.integers(3, 8),
        spare_gates=st.integers(0, 5),
    )
    @example(signal=set(), idler=set(), k=3, spare_gates=0)
    @example(signal={10}, idler={2, 18, 19}, k=8, spare_gates=0)
    def test_matches_brute_force(self, signal, idler, k, spare_gates):
        # oracle: O(n^2) pairing
        sig, idl = sorted(signal), sorted(idler)
        expected = np.zeros(2 * k + 1, dtype=int)
        for s in sig:
            for i in idl:
                if abs(i - s) <= k:
                    expected[i - s + k] += 1
        stream = stream_of(sig, idl, max(sig + idl, default=0) + 1 + spare_gates)
        hist = count_coincidences(stream, window_offsets=k)
        assert np.array_equal(hist.counts, expected)


def segment_gates(k, n_gates, segments):
    """Signal and idler gates of segments of n_gates, stride apart, from their local gate sets."""
    stride = n_gates + k + 1
    sig, idl = ([j * stride + g for j, seg in enumerate(segments) for g in sorted(seg[d])]
                for d in (0, 1))
    return np.array(sig, dtype=np.int64), np.array(idl, dtype=np.int64), stride


@st.composite
def segment_sets(draw):
    """k in [3, 8] and 2-4 segments of local signal and idler gates, with dense clusters."""
    k, n_gates = draw(st.integers(3, 8)), draw(st.integers(1, 40))
    local = st.sets(st.integers(0, n_gates - 1), max_size=n_gates)
    # a window of 2k + 1 gates full on both detectors holds 4k + 2 clicks
    full = st.integers(0, n_gates - 1).map(lambda g: set(range(g, min(g + 2 * k + 1, n_gates))))
    segment = st.tuples(st.one_of(local, full), st.one_of(local, full))
    return k, n_gates, draw(st.lists(segment, min_size=2, max_size=4))


class TestCountSegments:
    @settings(deadline=None, max_examples=300)
    @given(case=segment_sets())
    # every gate of both detectors clicks: each window holds 2k + 1 idlers
    @example(case=(3, 20, [(set(range(20)), set(range(20)))] * 3))
    # clicks on both segment edges, one gate and k gates from the next segment
    @example(case=(8, 9, [({0, 8}, {0, 8}), ({8}, {0}), ({0}, {8})]))
    def test_matches_brute_force_per_segment(self, case):
        k, n_gates, segments = case
        sig, idl, stride = segment_gates(k, n_gates, segments)
        expected = np.zeros((len(segments), 2 * k + 1), dtype=np.int64)
        for j, (local_sig, local_idl) in enumerate(segments):
            for s in local_sig:
                for i in local_idl:
                    if abs(i - s) <= k:
                        expected[j, i - s + k] += 1
        hists = montecarlo._count_segments(sig, idl, k, stride, len(segments))
        assert np.array_equal(hists, expected)


class TestEventStream:
    @pytest.mark.parametrize(
        "signal, idler",
        [([3, 1, 7], [2]), ([2], [4, 4, 9]), ([-1, 2], []), ([], [5, 10]),
         (np.array([1.0, 4.0]), [2]), ([1], np.array([False, True]))],
        ids=["unsorted", "duplicated", "negative", "beyond-n-gates", "float", "bool"],
    )
    def test_invalid_gates_rejected(self, signal, idler):
        def gates(g):  # lists are int64 gates; arrays keep their dtype
            return g if isinstance(g, np.ndarray) else np.array(g, dtype=np.int64)

        with pytest.raises(ContractViolationError):
            EventStream(signal_gates=gates(signal), idler_gates=gates(idler), n_gates=10)

    def test_valid_gates_read_only(self):
        stream = EventStream(
            signal_gates=np.array([0, 9], dtype=np.int64),
            idler_gates=np.array([], dtype=np.int64),
            n_gates=10,
        )
        assert len(stream) == 2
        assert not stream.signal_gates.flags.writeable


class TestEstimateVisibility:
    def test_matches_analytic_pipeline_ideal(self):
        cfg = dispersion_free_config()
        est = estimate_visibility(
            cfg, STOCK_ALPHA, IDEAL, n_gates=1_000_000, batches=20, seed=21
        )
        target = observed_visibility(visibility(cfg).visibility, STOCK_ALPHA)
        assert abs(est.v - target) <= 3 * est.sigma_v
        assert est.sigma_v > 0

    def test_statistics_error_without_pairs(self):
        det = DetectorModel(efficiency=1.0, dark_prob=2e-6, afterpulse_prob=0.0)
        with pytest.raises(StatisticsError):
            estimate_visibility(
                dispersion_free_config(), NO_PAIRS, det, n_gates=320_000, batches=2, seed=1
            )

    def test_deterministic(self):
        cfg = dispersion_free_config()
        a = estimate_visibility(cfg, STOCK_ALPHA, IDEAL, n_gates=320_000, batches=3, seed=5)
        b = estimate_visibility(cfg, STOCK_ALPHA, IDEAL, n_gates=320_000, batches=3, seed=5)
        assert a.v == b.v
        assert a.sigma_v == b.sigma_v
        assert np.array_equal(a.per_phase_histogram, b.per_phase_histogram)

    def test_too_few_batches(self):
        with pytest.raises(DomainError):
            estimate_visibility(
                dispersion_free_config(), STOCK_ALPHA, IDEAL, n_gates=320_000, batches=1, seed=1
            )

    @pytest.mark.parametrize("phases", [2, 0])
    def test_fewer_than_three_phases_rejected(self, monkeypatch, phases):
        # a fit of two phases reads V = 1 and sigma_V = 0: a perfect fringe
        def forbidden(*args):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(montecarlo, "_seed_words", forbidden)
        monkeypatch.setattr(montecarlo, "_stream_generators", forbidden)
        with pytest.raises(DomainError, match=f"need at least 3 phases .* got {phases}"):
            estimate_visibility(dispersion_free_config(), STOCK_ALPHA, IDEAL, n_gates=4_000,
                                phases=phases, batches=2, seed=1)

    def test_three_distinct_phases_accepted(self):
        # the estimate builds the uniform grid over [0, 2pi) itself
        est = estimate_visibility(dispersion_free_config(), STOCK_ALPHA, IDEAL, n_gates=40_000,
                                  phases=3, batches=2, seed=1)
        assert len(est.batch_visibilities) == 2
        assert est.phases.tolist() == np.linspace(0.0, 2.0 * np.pi, 3, endpoint=False).tolist()
        assert est.per_phase_histogram.shape == (3, 7)


PRESETS = ("fig4a", "fig4b", "fig4c", "fig4d")


def quadrature_rate_histograms(cfg, noise, det, n_gates, phases, batches, seed):
    """Per-(batch, phase) offset histograms with one rate quadrature per phase.

    A frozen copy of the estimate before its rates came from Z: every phase
    ran coincidence_rate, and each stream was simulated and counted alone.
    """
    k = max(3, gate_offset(cfg, det))
    per_phase = n_gates // len(phases)
    rates = [coincidence_rate(cfg, float(phi)) for phi in phases]
    return np.array([
        [
            count_coincidences(
                montecarlo._simulate_stream(
                    cfg, noise, det, per_phase, np.random.default_rng([seed, b, j]), rate
                ),
                window_offsets=k,
            ).counts
            for j, rate in enumerate(rates)
        ]
        for b in range(batches)
    ])


def record_batch_rows(monkeypatch):
    """Return the list that estimates append each batch's histogram rows to."""
    rows = []
    real = montecarlo._count_segments
    monkeypatch.setattr(montecarlo, "_count_segments",
                        lambda *args: rows.append(real(*args)) or rows[-1])
    return rows


class TestRunCaps:
    """The library's entry points refuse what resolve_run refuses, before building a stream.

    Without pairs or dark counts an over-cap run would simulate nothing, and
    fail only at the fit.
    """

    def test_simulate_run_gates(self):
        with pytest.raises(DomainError, match=f"n_gates {MAX_GATES + 1} exceeds the cap of {MAX_GATES}"):
            simulate_run(dispersion_free_config(), NO_PAIRS, IDEAL, MAX_GATES + 1, seed=1)

    @pytest.mark.parametrize("n_gates, n_phases, batches, match", [
        (4 * MAX_GATES, 32, 2, f"n_gates {4 * MAX_GATES} exceeds the cap of {MAX_GATES}"),
        (MAX_PHASES + 1, MAX_PHASES + 1, 2, f"phase count {MAX_PHASES + 1} exceeds the cap"),
        (MAX_STREAMS + 2, MAX_STREAMS // 2 + 1, 2,
         f"stream count {MAX_STREAMS + 2} exceeds the cap of {MAX_STREAMS}"),
    ], ids=["gates", "phases", "streams"])
    def test_estimate_visibility(self, monkeypatch, n_gates, n_phases, batches, match):
        def forbidden(*args):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(montecarlo, "_seed_words", forbidden)
        monkeypatch.setattr(montecarlo, "_stream_generators", forbidden)
        with pytest.raises(DomainError, match=match):
            estimate_visibility(dispersion_free_config(), NO_PAIRS, IDEAL, n_gates=n_gates,
                                phases=n_phases, batches=batches, seed=1)


class TestRatesFromAmplitude:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_histograms_match_quadrature_rates_over_many_seeds(self, monkeypatch, preset):
        # 100 pairs per stream at alpha 0.2: about half of an estimate's 6,400
        # pairs meet a survival draw, which flips if a rate moves across it
        exp = preset_experiment(preset)
        noise = replace(exp.noise, alpha=0.2)
        phases = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
        rows = record_batch_rows(monkeypatch)
        for seed in range(100):
            rows.clear()
            est = estimate_visibility(exp.franson, noise, exp.detector, n_gates=16_000,
                                      batches=2, seed=seed)
            new = np.concatenate(rows)
            old = quadrature_rate_histograms(exp.franson, noise, exp.detector, 16_000, phases,
                                             2, seed)
            assert np.array_equal(new.reshape(old.shape), old)
            assert np.array_equal(est.per_phase_histogram, old.sum(axis=0))

    def test_alpha_sweep_matches_quadrature_rates(self, monkeypatch, capsys):
        argv = ["alpha-sweep", "--preset", "fig4c", "--montecarlo", "--alphas", "0.1,0.2",
                "--gates", "64000", "--batches", "3", "--seed", "4"]
        rows = record_batch_rows(monkeypatch)
        assert main(argv) == 0
        new_out, new_rows = capsys.readouterr().out, np.concatenate(rows)
        rows.clear()
        monkeypatch.setattr(montecarlo, "fringe_rates", lambda cfg, phis: np.array(
            [coincidence_rate(cfg, float(phi)) for phi in phis]))
        assert main(argv) == 0
        assert capsys.readouterr().out == new_out
        assert np.array_equal(np.concatenate(rows), new_rows)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_every_rate_lies_inside_its_bounds(self, monkeypatch, preset):
        exp = preset_experiment(preset)
        noise = replace(exp.noise, alpha=0.2)
        phases = np.linspace(0.0, 2.0 * np.pi, 37, endpoint=False)
        seen = []
        real = montecarlo._simulate_segments
        monkeypatch.setattr(montecarlo, "_simulate_segments",
                            lambda *args: seen.append(args[5]) or real(*args))
        estimate_visibility(exp.franson, noise, exp.detector, n_gates=37_000,
                            phases=37, batches=2, seed=3)
        # each stream's rate is its phase's quadrature within rate_tolerance
        rates = np.concatenate(seen)
        quadrature = np.array([coincidence_rate(exp.franson, float(phi)) for phi in phases])
        assert rates.shape == (74,)
        assert np.all(np.abs(rates - np.tile(quadrature, 2)) <= rate_tolerance(exp.franson, phases))

    @pytest.mark.parametrize("argv", [
        ["montecarlo", "--preset", "fig4a", "--gates", "64000", "--batches", "2",
         "--histogram", "HIST"],
        ["alpha-sweep", "--preset", "fig4c", "--montecarlo", "--alphas", "0.1,0.2",
         "--gates", "64000", "--batches", "2"],
    ], ids=["montecarlo", "alpha-sweep"])
    def test_no_rate_quadrature(self, monkeypatch, tmp_path, argv):
        # the rates come from Z and one cached quadrature at the fringe
        # minimum, the anchor; both commands simulate one config
        def forbidden(*args):
            raise AssertionError("coincidence_rate called")

        anchors = []
        quadrature = interference._rate_quadrature
        monkeypatch.setattr(interference, "coincidence_rate", forbidden)
        monkeypatch.setattr(interference, "_rate_quadrature",
                            lambda cfg, phi: anchors.append((cfg, phi)) or quadrature(cfg, phi))
        argv = [str(tmp_path / "h.csv") if a == "HIST" else a for a in argv]
        assert main(argv) == 0
        assert [phi for _, phi in anchors] == [anchors[0][0].peak_phase + np.pi]

    def test_degenerate_fringe_is_refused(self):
        # a non-finite summed phase leaves no fringe; visibility refuses it
        # with this error, and so does every Monte Carlo entry point
        cfg = replace(dispersion_free_config())
        phase = np.zeros(cfg.spectrum.omega.size)
        phase[5] = math.nan
        phase.setflags(write=False)
        cfg.__dict__["summed_phase"] = phase
        with np.errstate(invalid="ignore"):
            with pytest.raises(ContractViolationError, match="degenerate fringe"):
                estimate_visibility(cfg, STOCK_ALPHA, IDEAL, n_gates=3_200, batches=2, seed=1)
            with pytest.raises(ContractViolationError, match="degenerate fringe"):
                simulate_run(cfg, STOCK_ALPHA, IDEAL, 100, seed=1)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_simulate_run_rejects_non_finite_phase(self, phi):
        with pytest.raises(DomainError, match="phi_tilde must be finite"):
            simulate_run(dispersion_free_config(), STOCK_ALPHA, IDEAL, 100, seed=1,
                         phi_tilde=phi)


class TestExports:
    def test_event_csv(self, tmp_path):
        stream = simulate_run(
            dispersion_free_config(), STOCK_ALPHA, DetectorModel(), 200_000, seed=23
        )
        p = tmp_path / "events.csv"
        _write_csv(p, *_event_csv(stream))
        lines = p.read_text().splitlines()
        assert lines[0] == "detector,gate_index"
        assert len(lines) == 1 + len(stream)
        gates = [int(l.split(",")[1]) for l in lines[1:]]
        assert gates == sorted(gates)

    def test_event_csv_signal_first_on_tied_gate(self, tmp_path):
        stream = EventStream(
            signal_gates=np.array([2, 5], dtype=np.int64),
            idler_gates=np.array([1, 5], dtype=np.int64),
            n_gates=6,
        )
        p = tmp_path / "events.csv"
        _write_csv(p, *_event_csv(stream))
        assert p.read_text().splitlines()[1:] == [
            "idler,1", "signal,2", "signal,5", "idler,5"
        ]

    def test_histogram_csv(self, tmp_path, capsys):
        # fig4a's gate offset is 3, so its window is +-3
        p = tmp_path / "hist.csv"
        argv = ["montecarlo", "--preset", "fig4a", "--gates", "1000000", "--batches", "2",
                "--phases", "4", "--seed", "23", "--histogram", str(p)]
        assert main(argv) == 0
        assert capsys.readouterr().out.endswith(f"{'histogram_csv':32s} {p}\n")
        lines = p.read_text().splitlines()
        assert lines[0] == "offset,counts"
        assert len(lines) == 1 + 7
        assert lines[1].startswith("-3,")


def dense_bernoulli(rng, n, p):
    """The earlier per-gate sampler: one uniform per gate, a hit where it falls below p.

    A frozen copy, kept as the reference for the law the gap sampler must
    keep; its draws are no longer the engine's.
    """
    return np.flatnonzero(rng.random(n) < p)


def gap_bernoulli(rng, n, p):
    """A frozen copy of the engine's per-gate Bernoulli draws, walked into one dense mask.

    Blocks of int(n p + 4 sqrt(n p)) + 16 geometric gaps, the first gap
    counted from gate -1, are drawn until a gate reaches n; a zero gap
    counts as 1. Every later rewrite of the gap sampler must make the same
    draws and mark the same gates.
    """
    mask = np.zeros(n, dtype=bool)
    if p:
        mean = n * p
        block = int(mean + 4 * math.sqrt(mean)) + 16
        gate = -1
        while gate < n:
            for gap in rng.geometric(p, block).tolist():
                gate += max(gap, 1)
                if gate >= n:
                    break
                mask[gate] = True
    return np.flatnonzero(mask)


class Scripted:
    """A generator whose draws cycle through fixed values; it records each block's length."""

    def __init__(self, values):
        self.values, self.blocks = values, []

    def standard_exponential(self, out):
        self.blocks.append(len(out))
        np.copyto(out, np.resize(self.values, len(out)))

    def geometric(self, p, size):
        self.blocks.append(size)
        return np.resize(np.array(self.values, dtype=np.int64), size)


class TestBernoulliGates:
    @pytest.mark.parametrize("p", [0.0, 2e-6, 0.0024, 0.5, 1.0])
    # 2**16 - 1 to 3 * 2**16 + 7: the sizes at which the earlier sampler
    # split its uniforms into chunks
    @pytest.mark.parametrize("n", [1, 65_535, 65_536, 65_537, 196_615])
    def test_same_draws_as_one_dense_mask(self, n, p):
        engine, frozen = np.random.default_rng(17), np.random.default_rng(17)
        gates = bernoulli_gates(engine, n, p)
        expected = gap_bernoulli(frozen, n, p).astype(np.int64)
        assert gates.dtype == np.int64
        assert np.array_equal(gates, expected)
        assert engine.bit_generator.state == frozen.bit_generator.state

    def test_stream_memory_scales_with_events_not_gates(self):
        # a dense mask over 4M gates alone would need 32 MB of uniforms
        exp = preset_experiment("fig4a")
        # the warm-up imports numpy's lazily loaded modules and fills the
        # config's phase cache, so the peak below is the stream's own
        simulate_run(exp.franson, exp.noise, exp.detector, 100_000, seed=1)
        tracemalloc.start()
        try:
            stream = simulate_run(exp.franson, exp.noise, exp.detector, 4_000_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(stream) > 0
        assert peak < 4_000_000

    @pytest.mark.parametrize("p", [2e-6, 0.0024, 0.2])
    def test_draws_scale_with_hits_not_gates(self, p):
        class CountingRng:
            def __init__(self):
                self.rng, self.draws = np.random.default_rng(3), 0

            def standard_exponential(self, out):
                self.draws += len(out)
                return self.rng.standard_exponential(out=out)

        rng = CountingRng()
        n = 2**22
        hits = len(bernoulli_gates(rng, n, p))
        # one block of n p + 4 sqrt(n p) + 16 draws, or rarely two
        assert rng.draws <= 2 * (n * p + 4 * math.sqrt(n * p) + 16)
        assert rng.draws < 2 * hits + 100

    def test_zero_and_overflowing_gaps(self):
        # an exponential of exactly 0 inverts to a gap of 0, and one of 1e308
        # overflows the division to inf; neither may repeat a gate, wrap the
        # running sum or warn. At p = 0.2 an exponential of 0.5 is a gap of 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bernoulli_gates(Scripted([0, 0, 0.5, 1e308, 1e308]), 10, 0.2).tolist() == [
                0, 1, 4]
            assert bernoulli_gates(Scripted([1.0]), 2**26, 1e-300).tolist() == []

    def test_later_blocks_continue_from_the_last_hit(self):
        # at p = 1e-9 a block holds 16 gaps, and an exponential of 1e-10 is a
        # gap of 1; gaps of 1 need 7 blocks for 100 gates
        rng = Scripted([1e-10])
        assert bernoulli_gates(rng, 100, 1e-9).tolist() == list(range(100))
        assert rng.blocks == [16] * 7

    def test_rows_continue_and_merge_in_row_order(self):
        # three rows of 100 gates from 0, 200 and 400 at p = 1e-9 (blocks of
        # 16 gaps): rows 0 and 2 take gaps of 1, 1 and then an exponential
        # of 1e308, which closes them in their first block; row 1 takes gaps
        # of 1 only, so it alone draws further blocks, 7 in all
        rngs = [Scripted([1e-10, 1e-10, 1e308]), Scripted([1e-10]),
                Scripted([1e-10, 1e-10, 1e308])]
        n, p = 100, 1e-9
        hits, counts = montecarlo._gap_hits(
            montecarlo._gap_rows(rngs, n, p), rngs, n, p, np.array([0, 200, 400]))
        assert hits.dtype == np.int64
        assert hits.tolist() == [0, 1] + list(range(200, 300)) + [400, 401]
        assert counts.tolist() == [2, 100, 2]
        assert [rng.blocks for rng in rngs] == [[16], [16] * 7, [16]]


def float_gap_hits(gaps, rngs, n, p, starts):
    """A frozen copy of the earlier _gap_hits, whose running sums stayed in float64.

    Its gaps are clipped below at 1 only, as rng.geometric returns them; a
    gap past the float range is inf. Every later rewrite of _gap_hits must
    keep the same hits, counts and draws.
    """
    counts = np.zeros(len(rngs), dtype=np.int64)
    if p == 0:
        return np.empty(0, dtype=np.int64), counts
    rows, ends, last, hits = np.arange(len(rngs)), starts + n, starts - 1, []
    while len(rows):
        if p < 1 / 3:
            with np.errstate(over="ignore"):
                np.divide(gaps, -math.log1p(-p), out=gaps)
            np.ceil(gaps, out=gaps)
        np.maximum(gaps, 1, out=gaps)
        gaps[:, 0] += last
        np.cumsum(gaps, axis=1, out=gaps)
        below = gaps < ends[:, None]
        hits.append(gaps[below])
        counts[rows] += below.sum(axis=1)
        more = below[:, -1]
        rows, ends, last = rows[more], ends[more], gaps[more, -1]
        gaps = gaps[: len(rows)]
        for j, row in zip(rows.tolist(), gaps):
            montecarlo._draw_gaps(rngs[j], p, row)
    merged = np.concatenate(hits, dtype=np.int64, casting="unsafe")
    if len(hits) > 1:
        merged.sort()
    return merged, counts


GAP_P = [1e-300, 2e-6, 0.0024, 0.2, 1 / 3, 0.5, 1.0]


@pytest.mark.parametrize("p", GAP_P)
class TestIntegerGapSums:
    """_gap_hits sums clipped gaps in int64 and keeps every hit, count and draw of float64 sums."""

    @staticmethod
    def both(make_rngs, n, p, starts):
        engine, frozen = make_rngs(), make_rngs()
        got = montecarlo._gap_hits(montecarlo._gap_rows(engine, n, p), engine, n, p, starts)
        want = float_gap_hits(montecarlo._gap_rows(frozen, n, p), frozen, n, p, starts)
        assert got[0].dtype == np.int64
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tolist() == want[1].tolist()
        return engine, frozen

    @pytest.mark.parametrize("n", [1, 17, 31_250])
    def test_same_hits_and_states_as_float_sums(self, p, n):
        starts = np.arange(4) * (n + 4)
        for seed in range(10):
            engine, frozen = self.both(
                lambda: [np.random.default_rng([seed, j]) for j in range(4)], n, p, starts)
            assert ([rng.bit_generator.state for rng in engine]
                    == [rng.bit_generator.state for rng in frozen])

    def test_further_blocks_and_overflowing_gaps(self, p):
        # rows of gaps of 1, which need further blocks below p = 1/3 and at
        # 1/3 and 0.5, and rows that a gap past n + 1 (inf below p = 1/3,
        # 2**62 above) ends after a few gates, or at once
        if p < 1 / 3:
            one, huge = -math.log1p(-p) / 2, 1e308
        else:
            one, huge = 1, 2**62
        scripts = [[one], [one, one, huge], [huge], [one] * 5 + [huge]]
        n = 100
        starts = np.arange(len(scripts)) * 250
        engine, frozen = self.both(lambda: [Scripted(v) for v in scripts], n, p, starts)
        assert [rng.blocks for rng in engine] == [rng.blocks for rng in frozen]
        assert p == 1 or len(engine[0].blocks) > 1


class TestExponentialGaps:
    """Below p = 1/3 the gaps invert NumPy's own exponential draws, bit for bit."""

    @pytest.mark.parametrize(
        "p", [5e-324, 1e-300, 2e-6, 0.0024, 0.1, 0.2, float(np.nextafter(1 / 3, 0))]
    )
    def test_same_gaps_and_state_as_geometric(self, p):
        n, size = montecarlo.MAX_GATES, 5_000
        for seed in range(20):
            engine, numpy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            gaps = np.empty((1, size))
            montecarlo._draw_gaps(engine, p, gaps[0])
            montecarlo._geometric(gaps, p, n)
            expected = numpy_rng.geometric(p, size)
            # the engine's clip to [1, n + 1]
            assert np.array_equal(gaps[0], np.clip(expected, 1, n + 1))
            assert engine.bit_generator.state == numpy_rng.bit_generator.state

    @pytest.mark.parametrize("p", [1 / 3, 0.5, 1.0])
    def test_search_range_draws_geometric(self, p):
        # from p = 1/3 up NumPy searches over one uniform instead of inverting
        # an exponential, so the engine calls rng.geometric itself
        rng = np.random.default_rng(5)
        calls = []
        spy = SimpleNamespace(
            geometric=lambda p, size: calls.append(size) or rng.geometric(p, size))
        gaps = np.empty((1, 1_000))
        montecarlo._draw_gaps(spy, p, gaps[0])
        montecarlo._geometric(gaps, p, montecarlo.MAX_GATES)
        assert calls == [1_000]
        assert np.array_equal(gaps[0], np.random.default_rng(5).geometric(p, 1_000))


LAW_P = [0.0, 5e-324, 1e-300, 2e-6, 0.0024, 0.2, 0.5, 1.0]
TINY_P = LAW_P[1:3]
LAW_N = [1, 2, 17, 31_250, 312_500]
# a law check fails only below this probability under the law it checks
LAW_ALPHA = 1e-6


def law_draws(n, p):
    """Repeated bernoulli_gates(rng, n, p) from one seeded generator, about 2M hits in all."""
    rng = np.random.default_rng([n, round(p * 1e6)])
    reps = int(min(2_000, max(20, 2_000_000 // (n * p + 1))))
    return [bernoulli_gates(rng, n, p) for _ in range(reps)]


@pytest.mark.parametrize("n", LAW_N)
@pytest.mark.parametrize("p", [p for p in LAW_P if p not in TINY_P])
class TestBernoulliLaw:
    """bernoulli_gates(rng, n, p) is the per-gate Bernoulli(p) process on [0, n)."""

    def test_sorted_distinct_gates_in_range(self, n, p):
        # strictly increasing: no gate holds two pairs
        for gates in law_draws(n, p):
            assert gates.dtype == np.int64
            assert np.all(np.diff(gates) > 0)
            assert np.all((gates >= 0) & (gates < n))
            if p == 1:
                assert np.array_equal(gates, np.arange(n))

    def test_hit_counts_are_binomial(self, n, p):
        counts = np.array([len(g) for g in law_draws(n, p)])
        reps, var = len(counts), n * p * (1 - p)
        # the total of reps Binomial(n, p) counts is Binomial(reps n, p)
        total = int(counts.sum())
        assert binom.cdf(total, reps * n, p) > LAW_ALPHA / 2
        assert binom.sf(total - 1, reps * n, p) > LAW_ALPHA / 2
        if reps * var < 100:  # too few hits to measure a spread
            return
        # the sample variance's standard error from the binomial's fourth
        # central moment, n p q (1 + 3 (n - 2) p q); a 5-SE miss has
        # probability below LAW_ALPHA under a normal sample variance
        mu4 = var * (1 + 3 * (n - 2) * p * (1 - p))
        se = math.sqrt((mu4 - var**2 * (reps - 3) / (reps - 1)) / reps)
        assert abs(counts.var(ddof=1) - var) <= 5 * se

    def test_positions_are_uniform(self, n, p):
        draws = law_draws(n, p)
        # bins of whole gates with at least 5 expected hits each
        n_bins = int(min(10, n, len(draws) * n * p // 5))
        if p in (0, 1) or n_bins < 2:
            return  # nothing random to bin: the range check covers it
        edges = np.linspace(0, n, n_bins + 1).astype(np.int64)
        observed = np.histogram(np.concatenate(draws), bins=edges)[0]
        expected = len(draws) * p * np.diff(edges)
        # each bin count is an independent Binomial(reps * width, p)
        stat = float(((observed - expected) ** 2 / (expected * (1 - p))).sum())
        assert chi2.sf(stat, n_bins) > LAW_ALPHA

    def test_gaps_are_geometric(self, n, p):
        draws = law_draws(n, p)
        gaps = np.concatenate([np.diff(g) for g in draws])
        # a gap of g between two hits starts at one of n - g gates:
        # E[count of g] = reps (n - g) p^2 (1 - p)^(g - 1)
        g = np.arange(1, n)
        expected = len(draws) * (n - g) * p**2 * (1 - p) ** (g - 1.0)
        if p in (0, 1) or expected.sum() < 10:
            assert p != 1 or set(gaps.tolist()) <= {1}
            return
        # up to 10 bins of consecutive gaps, by the expected count before
        # each gap; a bin of fewer than 5 expected joins the one before it
        target = expected.sum() / min(10, expected.sum() // 5)
        bin_of = ((np.cumsum(expected) - expected) // target).astype(np.int64)
        o_bins = np.bincount(bin_of[gaps - 1], minlength=bin_of[-1] + 1)
        e_bins = np.bincount(bin_of, weights=expected)
        observed, expected = [o_bins[0]], [e_bins[0]]
        for o, e in zip(o_bins[1:], e_bins[1:]):
            if e < 5:
                observed[-1], expected[-1] = observed[-1] + o, expected[-1] + e
            else:
                observed.append(o)
                expected.append(e)
        observed, expected = np.array(observed), np.array(expected)
        # a bin's count varies by at most (1 + 2 P(bin)) times its mean: a gap
        # correlates positively only with the gap after it
        inflation = 1 + 2 * (expected / expected.sum()).max()
        stat = float(((observed - expected) ** 2 / expected).sum()) / inflation
        assert chi2.sf(stat, len(expected)) > LAW_ALPHA


TINY_P_CHILD = r"""
import json, time
import numpy as np
from fransonsim.montecarlo import _gap_hits, _gap_rows
rng = np.random.default_rng(5)
slowest = 0.0
for p in {tiny}:
    for n in {sizes}:
        for _ in range(200 if n < 2**26 else 1):
            tick = time.perf_counter()
            gates = _gap_hits(_gap_rows([rng], n, p), [rng], n, p, np.zeros(1, dtype=np.int64))[0]
            slowest = max(slowest, time.perf_counter() - tick)
            assert gates.dtype == np.int64 and len(gates) == 0, (p, n, gates)
print(json.dumps(slowest))
"""


def test_tiny_p_draws_nothing_at_once():
    # the gaps at p = 1e-300 or 5e-324 overflow int64; run in a child, so a
    # sampler that loops on them fails at the timeout rather than hanging
    code = TINY_P_CHILD.format(tiny=TINY_P, sizes=LAW_N + [montecarlo.MAX_GATES])
    slowest = json.loads(run_python(code, timeout=120))
    assert slowest < 1.0


def old_engine_stream(cfg, noise, det, n_gates, rng, c_rate):
    """A stream drawn with the earlier per-gate sampler, by the frozen reference."""
    m = gate_offset(cfg, det)
    signal, idler = reference_stream(m, noise.alpha, det, n_gates, rng, c_rate, dense_bernoulli)
    return EventStream(signal_gates=signal, idler_gates=idler, n_gates=n_gates)


def test_old_and_new_samplers_agree_over_many_seeds():
    # the gap sampler keeps the per-gate law: over 300 seeds the mean count
    # at every offset, accidentals and afterpulses included, agrees within
    # 4 standard errors with the earlier one-uniform-per-gate sampler's.
    # Darks at 0.02 per gate click about as often as the pairs, so the
    # counts see the dark draws as well as the births.
    cfg = preset_experiment("fig4c").franson
    noise = SimpleNamespace(alpha=0.05)
    det = DetectorModel(efficiency=0.6, dark_prob=0.02, afterpulse_prob=0.06)
    n_gates, c_rate, seeds = 4_000, 0.7, range(300)

    def hists(engine, stream):  # one offset histogram per seed
        return np.array([
            count_coincidences(
                engine(cfg, noise, det, n_gates, np.random.default_rng([s, stream]), c_rate),
                window_offsets=3,
            ).counts
            for s in seeds
        ])

    old, new = hists(old_engine_stream, 0), hists(montecarlo._simulate_stream, 1)
    se = np.sqrt(old.var(axis=0, ddof=1) / len(old) + new.var(axis=0, ddof=1) / len(new))
    assert np.all(se > 0)
    assert np.all(np.abs(old.mean(axis=0) - new.mean(axis=0)) <= 4 * se)


def reference_merge_gates(*arrays):
    parts = [a for a in arrays if len(a)]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(parts))


def reference_detector_events(rng, photon_gates, n_gates, det, bernoulli):
    dark = bernoulli(rng, n_gates, det.dark_prob)
    base = reference_merge_gates(photon_gates, dark)
    ap = base[rng.random(len(base)) < det.afterpulse_prob] + 1
    ap = ap[ap < n_gates]
    return reference_merge_gates(base, ap)


def reference_stream(m, alpha, det, n_gates, rng, c_rate, bernoulli=gap_bernoulli):
    """Signal and idler gates of one stream, with per-gate Bernoulli draws by ``bernoulli``.

    A frozen copy of the earlier stream code: with gap_bernoulli, every
    later rewrite of _simulate_stream must make the same draws in the same
    order; with dense_bernoulli it draws as the engine did before pair
    births and dark counts were drawn as geometric gaps.
    """
    eta = det.efficiency
    pair_g = bernoulli(rng, n_gates, alpha)
    n_pairs = len(pair_g)

    u = rng.random(n_pairs)
    v = rng.random(n_pairs)
    w = rng.random(n_pairs)
    det_s = rng.random(n_pairs) < eta
    det_i = rng.random(n_pairs) < eta

    sl = u < 0.25
    ls = (u >= 0.25) & (u < 0.5)
    interf = (u >= 0.5) & (v < c_rate)
    late = w < 0.5

    sig_gate = np.where(sl, pair_g, np.where(ls | (interf & late), pair_g + m, pair_g))
    idl_gate = np.where(ls, pair_g, np.where(sl | (interf & late), pair_g + m, pair_g))
    emitted = sl | ls | interf

    sig_photons = sig_gate[emitted & det_s]
    idl_photons = idl_gate[emitted & det_i]
    sig_photons = sig_photons[sig_photons < n_gates]
    idl_photons = idl_photons[idl_photons < n_gates]

    signal = reference_detector_events(rng, sig_photons, n_gates, det, bernoulli)
    idler = reference_detector_events(rng, idl_photons, n_gates, det, bernoulli)
    return signal, idler


def segments_match_reference(cfg, noise, det, n_gates, seeds, rates):
    """Simulate one segment per (seed, rate) and check each against reference_stream."""
    m = gate_offset(cfg, det)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    signal, idler, stride = montecarlo._simulate_segments(cfg, noise, det, n_gates, rngs, rates)
    assert signal.dtype == idler.dtype == np.int64
    total = [0, 0]
    for j, (seed, c_rate, rng) in enumerate(zip(seeds, rates, rngs)):
        ref_rng = np.random.default_rng(seed)
        reference = reference_stream(m, noise.alpha, det, n_gates, ref_rng, c_rate)
        for d, (gates, expected) in enumerate(zip((signal, idler), reference)):
            local = gates[(gates >= j * stride) & (gates < (j + 1) * stride)] - j * stride
            assert np.array_equal(local, expected)
            total[d] += len(expected)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert total == [len(signal), len(idler)]


class TestDrawOrder:
    # alpha 1 lies outside NoiseModel's range; the stream reads only .alpha
    @pytest.mark.parametrize("alpha", [0.0, 2e-6, 0.0024, 0.1, 0.2, 1.0])
    @pytest.mark.parametrize("n_gates", [1, 2, 31_250, 65_537])
    def test_stream_matches_frozen_reference(self, alpha, n_gates):
        cfg = preset_experiment("fig4c").franson
        noise = SimpleNamespace(alpha=alpha)
        combos = [(c, e) for c in (0.0, 0.37, 1.0) for e in (0.0, 0.2, 1.0)]
        for i, (c_rate, eta) in enumerate(combos):
            seed = [round(alpha * 1e6), n_gates, i]
            # darks at 1e-3 make photon/dark and afterpulse/detection
            # collisions common enough for the merges to see repeats; at 0
            # each stream's dark gap blocks are empty and must draw nothing
            for dark_prob in (1e-3, 0.0):
                det = DetectorModel(efficiency=eta, dark_prob=dark_prob, afterpulse_prob=0.06)
                # alone, and as the middle one of three segments at other rates
                segments_match_reference(cfg, noise, det, n_gates, [seed], [c_rate])
                seeds = [seed + [1], seed, seed + [2]]
                segments_match_reference(cfg, noise, det, n_gates, seeds, [0.8, c_rate, 0.1])

    @given(
        parts=st.lists(
            st.lists(st.integers(0, 30), max_size=25).map(lambda g: np.array(g, dtype=np.int64)),
            min_size=1,
            max_size=4,
        )
    )
    @example(parts=[np.empty(0, dtype=np.int64)] * 3)
    @example(parts=[np.array([5, 5, 2], dtype=np.int64), np.empty(0, dtype=np.int64)])
    def test_merge_gates_matches_unique(self, parts):
        merged = _merge_gates(*parts)
        assert merged.dtype == np.int64
        assert np.array_equal(merged, reference_merge_gates(*parts))


def fig4c_at(alpha):
    exp = preset_experiment("fig4c")
    return exp.franson, replace(exp.noise, alpha=alpha), exp.detector


def stub_engine(monkeypatch):
    """Stub the engine and the count; return the list of each engine call's (rngs, rates)."""
    calls = []
    monkeypatch.setattr(montecarlo, "_simulate_segments",
                        lambda cfg, noise, det, n, rngs, rates: calls.append((rngs, rates))
                        or (EMPTY, EMPTY, n + 4))
    monkeypatch.setattr(montecarlo, "_count_segments",
                        lambda sig, idl, k, stride, n: np.ones((n, 2 * k + 1), dtype=np.int64))
    return calls


def traced_peak(run):
    """The tracemalloc peak of run(), called once before to warm caches and imports."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def check_groups(calls, cfg, noise, det, per_phase, n_phases):
    """Check stubbed engine calls against the group bounds and the stream numbering.

    Call i takes the next consecutive streams s = batch * n_phases + phase,
    each with default_rng([1, batch, phase])'s state and its phase's rate;
    it holds at most _GROUP_STREAMS streams, and all but its last fit
    _GROUP_EVENTS expected events.
    """
    rates = interference.fringe_rates(cfg, np.linspace(0.0, 2.0 * np.pi, n_phases, endpoint=False))
    events = per_phase * (noise.alpha + 2 * det.dark_prob)
    start = 0
    for rngs, call_rates in calls:
        streams = np.arange(start, start + len(rngs))
        assert len(rngs) <= montecarlo._GROUP_STREAMS
        assert (len(rngs) - 1) * events <= montecarlo._GROUP_EVENTS
        assert [rng.bit_generator.state for rng in rngs] == [
            np.random.default_rng([1, s // n_phases, s % n_phases]).bit_generator.state
            for s in streams.tolist()
        ]
        assert np.array_equal(call_rates, rates[streams % n_phases])
        start += len(rngs)


class TestChunks:
    @pytest.mark.parametrize("n_phases", [3, 33])
    def test_output_independent_of_chunking(self, monkeypatch, n_phases):
        # chunks of one stream, of 2 streams (800 pairs each), of about 2**14
        # pairs or of a whole engine call, each with the module's group
        # bounds (all 3 batches in one call here), one stream per call, groups
        # of 2 batches' streams and then 1 batch's, groups of 5 streams that
        # cross the batch edges, and all streams in one call, against every
        # stream simulated and counted alone as its own one-segment engine call
        cfg, noise, det = fig4c_at(0.2)
        phases = np.linspace(0.0, 2.0 * np.pi, n_phases, endpoint=False)
        bounds = [(montecarlo._GROUP_EVENTS, montecarlo._GROUP_STREAMS), (1, 2**40),
                  (2**40, 2 * n_phases), (2**40, 5), (2**40, 2**40)]
        results = []
        for chunk in (2**14, 1, 2_000, 2**40):
            for events, streams in bounds:
                monkeypatch.setattr(montecarlo, "_CHUNK_PAIRS", chunk)
                monkeypatch.setattr(montecarlo, "_GROUP_EVENTS", events)
                monkeypatch.setattr(montecarlo, "_GROUP_STREAMS", streams)
                results.append(estimate_visibility(
                    cfg, noise, det, n_gates=n_phases * 4_000, phases=n_phases, batches=3, seed=4
                ))
        ref = results[0]
        for est in results[1:]:
            assert est.v == ref.v
            assert est.sigma_v == ref.sigma_v
            assert np.array_equal(est.batch_visibilities, ref.batch_visibilities)
            assert np.array_equal(est.per_phase_histogram, ref.per_phase_histogram)
        rates = interference.fringe_rates(cfg, phases)
        alone = np.array([
            [count_coincidences(montecarlo._simulate_stream(
                cfg, noise, det, 4_000, np.random.default_rng([4, b, j]), rate)).counts
             for j, rate in enumerate(rates)]
            for b in range(3)
        ])
        assert np.array_equal(ref.per_phase_histogram, alone.sum(axis=0))
        assert ref.batch_visibilities.tolist() == [
            montecarlo._fit_fringe(phases, hist[:, 3]) for hist in alone
        ]

    @pytest.mark.parametrize("preset, alpha, n_gates, sizes", [
        # 751 expected events per stream: all 64 streams in one call
        pytest.param("fig4a", 0.0024, 10_000_000, [64], id="fig4a-0.0024-10000000"),
        # 6,250 per stream: 20 fit the 2**17 budget
        pytest.param("fig4c", 0.2, 1_000_000, [20, 20, 20, 4], id="fig4c-0.2-1000000"),
        # 3,125 per stream: 41 fit
        pytest.param("fig4c", 0.1, 1_000_000, [41, 23], id="fig4c-0.1-1000000"),
    ])
    def test_one_engine_call_per_group(self, monkeypatch, preset, alpha, n_gates, sizes):
        exp = preset_experiment(preset)
        noise = replace(exp.noise, alpha=alpha)
        calls = stub_engine(monkeypatch)
        estimate_visibility(exp.franson, noise, exp.detector, n_gates=n_gates, batches=2, seed=1)
        assert [len(rngs) for rngs, _ in calls] == sizes
        check_groups(calls, exp.franson, noise, exp.detector, n_gates // 32, 32)

    def test_dark_counts_count_toward_the_group_budget(self, monkeypatch):
        # no pairs, and a dark count in half the gates of each detector:
        # 32,000 expected events per stream, so 4 streams fit in 2**17
        cfg, noise, det = fig4c_at(0.0)
        det = replace(det, dark_prob=0.5)
        calls = stub_engine(monkeypatch)
        estimate_visibility(cfg, noise, det, n_gates=96_000,
                            phases=3, batches=4, seed=1)
        assert [len(rngs) for rngs, _ in calls] == [4, 4, 4]
        check_groups(calls, cfg, noise, det, 32_000, 3)

    def test_no_call_holds_more_than_the_group_streams(self, monkeypatch):
        # 2 batches of 600 phases at 2.4 expected events per stream: the
        # stream bound alone splits the 1,200 streams, across the batch edge
        cfg, noise, det = fig4c_at(0.0024)
        calls = stub_engine(monkeypatch)
        estimate_visibility(cfg, noise, det, n_gates=600_000,
                            phases=600, batches=2, seed=1)
        assert [len(rngs) for rngs, _ in calls] == [256] * 4 + [176]
        check_groups(calls, cfg, noise, det, 1_000, 600)

    @pytest.mark.parametrize("alpha", [0.2, 0.5])
    def test_estimate_peak_below_an_export_of_its_gates(self, alpha):
        # An estimate holds one group's clicks as segments and its pair flags
        # a chunk at a time; an export of the same gates holds every pair's
        # flags at once, then its stream and the pairs its count expands
        cfg, noise, det = fig4c_at(alpha)
        n_gates = 32 * 31_250
        estimate = traced_peak(lambda: estimate_visibility(cfg, noise, det, n_gates=n_gates,
                                                           batches=2, seed=1))
        export = traced_peak(
            lambda: count_coincidences(simulate_run(cfg, noise, det, n_gates, seed=1)))
        assert estimate < export

    def test_peak_stops_growing_with_the_phase_count(self):
        # 2 batches of 512 and of 2,048 phases, with 1,000 gates and 500
        # expected pairs per stream: 262 streams would fit 2**17 events, so
        # every engine call holds a full group of _GROUP_STREAMS streams at
        # both sizes, and the group's generators and clicks take the same
        # memory. What grows with the streams is the estimate's own arrays: a
        # histogram row (56 B) and seed words (32 B) per stream, and a few
        # float64 arrays over the phases. A call over more streams than a
        # group would hold each one's generator and clicks at once, so its
        # peak would grow by more than one generator per added stream
        cfg, noise, det = fig4c_at(0.5)
        np.random.default_rng([1, 0, 0])
        tracemalloc.start()
        try:
            rngs = [np.random.default_rng([1, 0, j]) for j in range(montecarlo._GROUP_STREAMS)]
            generator = tracemalloc.get_traced_memory()[0] / len(rngs)
        finally:
            tracemalloc.stop()

        def peak(n_phases):
            return traced_peak(lambda: estimate_visibility(
                cfg, noise, det, n_gates=1_000 * n_phases, phases=n_phases, batches=2, seed=1))

        growth = (peak(2_048) - peak(512)) / (2 * (2_048 - 512))
        assert growth < generator

    def test_memory_does_not_grow_with_the_task_count(self, monkeypatch):
        # 5,000 batches of 3 phases each, with streams and counts stubbed so
        # that only the estimate's own bookkeeping allocates: anything kept
        # per batch (its rows, its generators), at 200 bytes or more each,
        # would push the peak more than 1 MB past the 0.84 MB histogram
        monkeypatch.setattr(montecarlo, "_simulate_segments",
                            lambda cfg, noise, det, n, rngs, rates: (EMPTY, EMPTY, n + 4))
        monkeypatch.setattr(montecarlo, "_count_segments",
                            lambda sig, idl, k, stride, n: np.ones((n, 2 * k + 1), dtype=np.int64))
        cfg, noise, det = fig4c_at(0.5)
        cfg.amplitude  # cached before tracing
        estimate_visibility(cfg, noise, det, n_gates=300, batches=2, seed=1)
        batches = 5_000
        tracemalloc.start()
        try:
            est = estimate_visibility(cfg, noise, det, n_gates=300, phases=3,
                                      batches=batches, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est.per_phase_histogram.tolist() == [[batches] * 7] * 3
        histogram = batches * 3 * 7 * 8
        assert peak < histogram + 1_000_000


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 9, 20260810]


class TestStreamSeeds:
    # streams (b, j) as default_rng([seed, b, j]) seeds them; 2**64 + 3 is
    # three entropy words, five with b and j, past the 4-word pool
    B = np.array([0, 1, 2, 99, 2**16 - 1])
    J = np.array([0, 1, 31, 32, 2**16 - 1])

    def seed_sequence_words(self, seed):
        return np.array([
            [np.random.SeedSequence([seed, int(b), int(j)]).generate_state(4, np.uint64)
             for j in self.J]
            for b in self.B
        ])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_words_match_seed_sequence(self, seed):
        words = montecarlo._seed_words(seed, self.B[:, None], self.J)
        assert words.dtype == np.uint64 and words.shape == (5, 5, 4)
        assert np.array_equal(words, self.seed_sequence_words(seed))

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(0, 2**130 - 1))
    @example(seed=2**128)
    def test_words_match_seed_sequence_for_any_seed(self, seed):
        words = montecarlo._seed_words(seed, self.B[:, None], self.J)
        assert np.array_equal(words, self.seed_sequence_words(seed))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_generators_start_in_default_rng_states(self, seed):
        # stream s = 4 b + j of 3 batches of 4 phases, as an estimate numbers them
        words = montecarlo._seed_words(seed, np.arange(3)[:, None], np.arange(4)).reshape(-1, 4)
        rngs = montecarlo._stream_generators(words)
        assert len(rngs) == 12
        for s, rng in enumerate(rngs):
            ref = np.random.default_rng([seed, s // 4, s % 4])
            assert rng.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(rng.random(5), ref.random(5))

    def test_estimate_makes_no_default_rng_call(self, monkeypatch):
        def no_default_rng(seed=None):
            raise AssertionError("default_rng called")

        monkeypatch.setattr(np.random, "default_rng", no_default_rng)
        estimate_visibility(*fig4c_at(0.0024), n_gates=320_000, batches=2, seed=3)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed must be >= 0"):
            estimate_visibility(*fig4c_at(0.0024), n_gates=320_000, batches=2, seed=-1)

    def test_negative_seed_rejected_by_simulate_run(self, monkeypatch):
        def no_default_rng(seed=None):
            raise AssertionError("default_rng called")

        monkeypatch.setattr(np.random, "default_rng", no_default_rng)
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            simulate_run(*fig4c_at(0.0024), 1_000, seed=-1)


class TestSegments:
    @pytest.mark.parametrize("n_gates", [1, 2, 5, 40])
    @pytest.mark.parametrize("dark_prob", [0.0, 1.0])
    def test_no_pair_crosses_a_segment(self, n_gates, dark_prob):
        # a pair in every gate, every photon detected, and an afterpulse after
        # nearly every click, the one at the last local gate included: each
        # segment must keep its gates in [0, n_gates) and count only its own
        # pairs. With a dark count in every gate, every gate of a segment
        # clicks on both detectors, so offset d counts n_gates - |d| pairs.
        cfg = dispersion_free_config()
        det = DetectorModel(efficiency=1.0, dark_prob=dark_prob, afterpulse_prob=0.999999)
        rngs = [np.random.default_rng([n_gates, j]) for j in range(4)]
        signal, idler, stride = montecarlo._simulate_segments(
            cfg, SimpleNamespace(alpha=1.0), det, n_gates, rngs, [1.0, 0.0, 0.5, 1.0]
        )
        k = max(3, gate_offset(cfg, det))
        assert stride == n_gates + k + 1
        hists = montecarlo._count_segments(signal, idler, k, stride, len(rngs))
        held = 0
        for j in range(len(rngs)):
            seg = [g[(g >= j * stride) & (g < (j + 1) * stride)] - j * stride
                   for g in (signal, idler)]
            held += len(seg[0]) + len(seg[1])
            stream = EventStream(*seg, n_gates=n_gates)  # raises if a gate left [0, n_gates)
            assert np.array_equal(hists[j], count_coincidences(stream, window_offsets=k).counts)
            if dark_prob:
                assert seg[0].tolist() == seg[1].tolist() == list(range(n_gates))
                assert hists[j].tolist() == [max(0, n_gates - abs(d)) for d in range(-k, k + 1)]
        assert held == len(signal) + len(idler)

    def test_contract_check_names_the_segment_bound(self):
        # 4 gates per segment, 9 apart: gate 4 is local gate 4 of segment 0,
        # past its last gate, and gate 22 lies in a third segment
        gates = np.array([0, 4, 9], dtype=np.int64)
        montecarlo._check_gates("signal", gates[[0, 2]], 4, stride=9, n_segments=2)
        with pytest.raises(ContractViolationError, match="each of 2 segments"):
            montecarlo._check_gates("signal", gates, 4, stride=9, n_segments=2)
        with pytest.raises(ContractViolationError):
            montecarlo._check_gates("signal", np.array([9, 22]), 4, stride=9, n_segments=2)


def inject_failure(stream):
    raise ContractViolationError(f"injected failure in stream {stream}")


def check_streams(monkeypatch, seed, batches, check):
    """Call check((batch, phase)) before every stream; a check that raises fails the estimate.

    A stream is recognised by its generator's initial state, which the
    (seed, batch, phase) substream fixes. A group's engine call checks its
    streams in (batch, phase) order before it simulates any of them.
    """
    streams = {
        np.random.default_rng([seed, b, j]).bit_generator.state["state"]["state"]: (b, j)
        for b in range(batches)
        for j in range(32)
    }
    real = montecarlo._simulate_segments

    def simulate(cfg, noise, det, n_gates, rngs, rates):
        for rng in rngs:
            check(streams[rng.bit_generator.state["state"]["state"]])
        return real(cfg, noise, det, n_gates, rngs, rates)

    monkeypatch.setattr(montecarlo, "_simulate_segments", simulate)


class TestBatchErrors:
    ARGS = dict(n_gates=320_000, batches=3, seed=7)  # 24 pairs per stream

    @pytest.mark.parametrize("stream", [1, 3, 7])
    def test_lowest_failed_task_reaches_caller(self, monkeypatch, stream):
        # batch 1 fails at the given stream and batch 2 would fail too: all
        # 96 streams (about 24 expected events each) share one engine call,
        # the caller sees batch 1's error, every stream before it was checked
        # in (batch, phase) order on the caller's thread, and no stream of
        # batch 2 runs
        caller = threading.get_ident()
        checked, threads = [], set()

        def check(key):
            checked.append(key)
            threads.add(threading.get_ident())
            if key in ((1, stream), (2, 0)):
                inject_failure(key)

        check_streams(monkeypatch, 7, 3, check)
        with pytest.raises(ContractViolationError, match=rf"stream \(1, {stream}\)"):
            estimate_visibility(*fig4c_at(0.0024), **self.ARGS)
        assert checked == [(0, j) for j in range(32)] + [(1, j) for j in range(stream + 1)]
        assert threads == {caller}

    def test_cli_exits_with_contract_code(self, monkeypatch, capsys):
        def check(key):
            if key == (1, 5):
                inject_failure(key)

        check_streams(monkeypatch, 7, 2, check)
        argv = ["montecarlo", "--preset", "fig4a", "--gates", "320000", "--batches", "2",
                "--seed", "7"]
        assert main(argv) == 3
        assert "injected failure in stream (1, 5)" in capsys.readouterr().err
