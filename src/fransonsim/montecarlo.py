"""Event-level Monte Carlo of gated-detector Franson measurement.

Detection is resolved per detector gate: the path delay difference spans an
integer number m of gating periods (m = 3 at the stock 628.5 MHz rate and
4.77 ns delay), so a photon pair born in gate g produces clicks at gate g
(short path) or g + m (long path). Pair outcomes per generated pair:

  signal short / idler long   prob 1/4   -> histogram offset +m
  signal long / idler short   prob 1/4   -> histogram offset -m
  both same path (post-selected interference) prob 1/2:
      with probability C(phi_tilde) the pair lands in the same gate
      (offset 0, gate g or g + m with equal odds); otherwise it is lost
      to the destructive ports and produces no clicks.

C(phi_tilde) is the analytic coincidence rate, read from the config's cached
fringe amplitude Z without a quadrature (interference.fringe_rates), so the
offset-0 fringe follows the full dispersive spectral integral while the +-m
side peaks stay phase independent. Detector imperfections: independent
per-photon detection efficiency, per-gate dark counts, and a
single-gate-delayed afterpulse after any detection (no cascades). Detector
timing jitter is carried in the model for reference but does not move events
between gates; at 100 ps rms against the 1.59 ns gate period it cannot.

Streams are reproducible: a run is a pure function of (config, seed). The
draw order is pinned, since every seeded output depends on it. Each stream
has its own generator and draws, in this order: geometric gaps between pair
births; five uniforms per pair (outcome class, interference survival,
placement, signal and idler detection); then per detector, signal first,
geometric gaps between dark counts and one uniform per click for
afterpulses. The gaps give each gate a birth (or a dark count) independently
with probability alpha (or dark_prob), at most one per gate, as one uniform
per gate would, but with draws in proportion to the events rather than the
gates (see _bernoulli_gates). tests/test_montecarlo.py holds a frozen copy of
the stream code to check the order against, and a copy of the earlier
one-uniform-per-gate sampler to check the law against.

One engine, _simulate_segments, simulates several streams at once as
segments of shared gate arrays; the draws stay per generator, in the order
above, and the merges, afterpulse selection and coincidence count run once
over all segments. simulate_run is the one-segment case. estimate_visibility
maps one task per (batch, group of _PHASE_GROUP consecutive phases) over a
pool of one thread per available core, as NumPy's bulk work releases the
GIL. A task owns its generators and returns its histogram rows, which are
read in task order, so the output does not depend on the core count. A task
holds one stream's pair uniforms at a time plus its group's events, and at
most _QUEUED_PER_THREAD tasks per thread are submitted at once.
"""

import math
import os
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError, ContractViolationError, DomainError, StatisticsError
from .interference import FransonConfig, fringe_rates
from .noise import NoiseModel

GATE_RATIO_TOL = 0.01  # max fractional mismatch of delta_t to a whole gate count
# phases per estimate_visibility task. A task holds its group's clicks at
# once: on the dense alpha-sweep, 8 ran as fast as 32 (a whole batch) at the
# peak RSS of one stream per task, while 32 raised it by 3 MB on 2 threads
_PHASE_GROUP = 8
# tasks queued or running per pool thread: enough to keep every thread busy
# while the caller reads rows in task order, and few enough that the pool's
# futures (about 2 KB each) do not grow with the number of tasks
_QUEUED_PER_THREAD = 4
# largest gate count a run may ask for: with a click at every gate on both
# detectors, an exported stream's two int64 gate arrays take 16 B per gate,
# 1 GiB at the cap
MAX_GATES = 2**26
# largest phase grid a run may ask for, as for a fringe's points: the grid and
# its (phase, offset) histogram rows are built before any stream runs
MAX_PHASES = 2**16
# largest (batches, phases, 2k + 1) int64 histogram an estimate allocates,
# 64 MiB: 2**16 streams of 128 cells, so up to m = 63 the stream cap binds
MAX_HISTOGRAM_CELLS = 2**23


class Detector(str, Enum):
    SIGNAL = "signal"
    IDLER = "idler"


@dataclass(frozen=True)
class DetectorModel:
    """Gated single-photon avalanche photodiode parameters."""

    efficiency: float = 0.20
    gate_rate_mhz: float = 628.5
    dark_prob: float = 2e-6
    afterpulse_prob: float = 0.06
    jitter_rms_ps: float = 100.0

    def __post_init__(self):
        if not (0.0 <= self.efficiency <= 1.0):
            raise DomainError(f"efficiency must be in [0, 1], got {self.efficiency}")
        if not (self.gate_rate_mhz > 0):
            raise DomainError(f"gate rate must be positive, got {self.gate_rate_mhz}")
        if not (0.0 <= self.dark_prob <= 1.0):
            raise DomainError(f"dark_prob must be in [0, 1], got {self.dark_prob}")
        if not (0.0 <= self.afterpulse_prob < 1.0):
            raise DomainError(
                f"afterpulse_prob must be in [0, 1), got {self.afterpulse_prob}"
            )
        if self.jitter_rms_ps < 0:
            raise DomainError(f"jitter must be >= 0, got {self.jitter_rms_ps}")

    def gate_period_ns(self) -> float:
        return 1e3 / self.gate_rate_mhz


def _check_gates(name, gates, n_gates, stride=None, n_segments=1):
    """Raise unless gates are integers, strictly increasing, every local gate in [0, n_gates).

    Gate g lies at local gate g - j * stride of segment j < n_segments;
    without a stride there is one segment and the local gate is g.
    """
    if not np.issubdtype(gates.dtype, np.integer):
        raise ContractViolationError(f"{name} gates must have an integer dtype, got {gates.dtype}")
    if not len(gates):
        return
    last = n_gates if stride is None else (n_segments - 1) * stride + n_gates
    valid = (gates[1:] > gates[:-1]).all() and gates[0] >= 0 and gates[-1] < last
    if valid and stride is not None:
        valid = (gates % stride < n_gates).all()
    if not valid:
        where = "" if stride is None else f" in each of {n_segments} segments"
        raise ContractViolationError(
            f"{name} gates must be strictly increasing within [0, {n_gates}){where}"
        )


@dataclass(frozen=True, eq=False)
class EventStream:
    """Detection gates per detector: integers strictly increasing within [0, n_gates)."""

    signal_gates: np.ndarray
    idler_gates: np.ndarray
    n_gates: int

    def __post_init__(self):
        for name, gates in (("signal", self.signal_gates), ("idler", self.idler_gates)):
            _check_gates(name, gates, self.n_gates)
            gates.setflags(write=False)

    def __len__(self):
        return len(self.signal_gates) + len(self.idler_gates)

    def to_csv(self, path):
        """One row per detection, sorted by gate (signal before idler on ties)."""
        gates = np.concatenate([self.signal_gates, self.idler_gates])
        order = np.argsort(gates, kind="stable")
        names = np.where(
            order < len(self.signal_gates), Detector.SIGNAL.value, Detector.IDLER.value
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("detector,gate_index\n")
            fh.writelines(f"{d},{g}\n" for d, g in zip(names.tolist(), gates[order].tolist()))


@dataclass(frozen=True, eq=False)
class CoincidenceHistogram:
    """Pair counts by gate offset d = idler_gate - signal_gate, |d| <= window."""

    offsets: np.ndarray
    counts: np.ndarray
    total_gates: int
    window: int

    def __post_init__(self):
        self.offsets.setflags(write=False)
        self.counts.setflags(write=False)

    def count(self, offset: int) -> int:
        if abs(offset) > self.window:
            raise DomainError(f"offset {offset} outside window +-{self.window}")
        return int(self.counts[offset + self.window])

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("offset,counts\n")
            for off, cnt in zip(self.offsets, self.counts):
                fh.write(f"{off},{cnt}\n")


def gate_offset(cfg: FransonConfig, det: DetectorModel) -> int:
    """Whole number of gates spanned by the path delay difference."""
    ratio = cfg.signal_arm.delta_t_ns / det.gate_period_ns()
    m = round(ratio)
    if m < 1 or abs(ratio - m) > GATE_RATIO_TOL:
        raise ConfigurationError(
            f"path delay of {ratio:.4f} gates is not a whole gate count "
            f"(tolerance {GATE_RATIO_TOL})"
        )
    return m


def _merge_gates(*arrays):
    """Sorted distinct gates of the int64 arrays, as np.unique of their union.

    A sort plus a drop of adjacent repeats: np.unique hashes integers first,
    which costs about ten times as much at stream sizes.
    """
    gates = np.sort(np.concatenate(arrays))
    first = np.empty(len(gates), dtype=bool)
    first[:1] = True
    np.not_equal(gates[1:], gates[:-1], out=first[1:])
    return gates[first]


def _bernoulli_gates(rng, n, p):
    """Sorted int64 gates in [0, n), each present independently with probability p.

    The gaps between successive hits, the first counted from gate -1, are
    geometric(p) (Devroye 1986, ch. X), so draws and memory grow with the
    hits, not with n. Gaps come in blocks of int(n p + 4 sqrt(n p)) + 16
    draws of ``rng.geometric``, until a gate reaches n; the rest of the last
    block is discarded. Each gap is clipped to [1, n + 1]: NumPy's geometric
    returns 0 when its exponential draw is exactly 0 and INT64_MAX when p is
    so small that the gap overflows, and neither clip moves a gate below n.
    A block then sums to at most block * (n + 1), within int64 for n < 2**31.
    """
    if p == 0:
        return np.empty(0, dtype=np.int64)
    mean = n * p
    block = int(mean + 4 * math.sqrt(mean)) + 16
    hits, last = [], -1
    while True:
        gates = rng.geometric(p, block)
        np.maximum(gates, 1, out=gates)
        np.minimum(gates, n + 1, out=gates)
        gates[0] += last
        gates.cumsum(out=gates)
        end = gates.searchsorted(n)
        hits.append(gates[:end])
        if end < block:  # a gate reached n
            return hits[0] if len(hits) == 1 else np.concatenate(hits)
        last = int(gates[-1])


def _simulate_segments(cfg, noise, det, n_gates, rngs, rates):
    """Simulate len(rngs) acquisitions of n_gates each as segments of shared arrays.

    Stream j draws from rngs[j] at coincidence rate rates[j], in the pinned
    order of the module docstring; only the array work between two kinds of
    draws is shared. Its gates are offset by j * stride, with stride =
    n_gates + k + 1 for the counting window k = max(3, m): a photon (at most
    m gates late) or an afterpulse (1 gate late) that would fall past the
    stream's last gate is dropped, and no window of +-k gates reaches from
    one segment into the next. Returns the sorted signal and idler gates and
    the stride.
    """
    m = gate_offset(cfg, det)
    stride = n_gates + max(3, m) + 1
    starts = range(0, len(rngs) * stride, stride)
    eta = det.efficiency

    def per_gate(p):  # each stream's gates whose uniform falls below p
        return np.concatenate(
            [_bernoulli_gates(rng, n_gates, p) + s for rng, s in zip(rngs, starts)]
        )

    def inside(gates):  # drop what fell past the last gate of its segment
        return gates[gates % stride < n_gates]

    def photons(rng, start, c_rate):  # one stream's pairs: births, then one fill
        pair_g = _bernoulli_gates(rng, n_gates, noise.alpha) + start
        # in C order the fill's rows are the draws of five successive
        # rng.random(n_pairs) calls: outcome class, interference survival,
        # short-short vs long-long placement, signal and idler detection
        u, v, w, ds, di = rng.random((5, len(pair_g)))
        sl = u < 0.25
        ls = (u >= 0.25) & (u < 0.5)
        late = (u >= 0.5) & (v < c_rate) & (w < 0.5)  # interfering pair lands long-long
        emitted = (u < 0.5) | (v < c_rate)  # split paths, or same path and not lost
        return (
            (pair_g + m * (ls | late))[emitted & (ds < eta)],
            (pair_g + m * (sl | late))[emitted & (di < eta)],
        )

    # a stream's pair masks are built stream by stream, so that a task holds
    # the uniforms of one stream's pairs, not of its group's
    sig, idl = zip(*map(photons, rngs, starts, rates))
    edges = np.arange(len(rngs) + 1) * stride
    detectors = []
    for gates in (sig, idl):  # signal first: dark counts, then afterpulses
        base = _merge_gates(inside(np.concatenate(gates)), per_gate(det.dark_prob))
        per_stream = np.diff(np.searchsorted(base, edges)).tolist()
        u = np.concatenate([rng.random(n) for rng, n in zip(rngs, per_stream)])
        detectors.append(_merge_gates(base, inside(base[u < det.afterpulse_prob] + 1)))
    return detectors[0], detectors[1], stride


def _simulate_stream(cfg, noise, det, n_gates, rng, c_rate):
    """One acquisition at coincidence rate c_rate: the one-segment case of the engine."""
    signal, idler, _ = _simulate_segments(cfg, noise, det, n_gates, [rng], [c_rate])
    return EventStream(signal_gates=signal, idler_gates=idler, n_gates=n_gates)


def simulate_run(
    cfg: FransonConfig,
    noise: NoiseModel,
    det: DetectorModel,
    n_gates: int,
    seed: int,
    phi_tilde: float | None = None,
) -> EventStream:
    """Simulate one gated acquisition and return the detection stream.

    phi_tilde overrides the summed arm phase when given. Identical arguments
    always produce bit-identical streams.
    """
    if n_gates < 1:
        raise DomainError(f"n_gates must be >= 1, got {n_gates}")
    rate = fringe_rates(cfg, [cfg.phi_tilde() if phi_tilde is None else phi_tilde])[0]
    return _simulate_stream(cfg, noise, det, int(n_gates), np.random.default_rng(seed), rate)


def _count_segments(sig, idl, k, stride=None, n_segments=1):
    """Offset histogram (n_segments, 2k + 1) of sorted signal and idler gates.

    Every signal-idler pair with |idler - signal| <= k counts once, in the
    row of the signal gate's segment (gate // stride); segments must lie
    more than k gates apart. Two binary searches per signal gate find its
    window of idler gates; the windows are expanded into one array of pairs,
    binned once by segment * (2k + 1) + offset + k.
    """
    # signed, so that sig - k cannot wrap below gate 0
    sig, idl = sig.astype(np.int64, copy=False), idl.astype(np.int64, copy=False)
    lo = np.searchsorted(idl, sig - k, side="left")
    n = np.searchsorted(idl, sig + k, side="right") - lo
    # idl[idx] runs through every signal gate's window in turn
    idx = np.arange(n.sum()) + np.repeat(lo - (np.cumsum(n) - n), n)
    key = k - sig
    if n_segments > 1:
        key += sig // stride * (2 * k + 1)
    counts = np.bincount(idl[idx] + np.repeat(key, n), minlength=n_segments * (2 * k + 1))
    return counts.reshape(n_segments, 2 * k + 1)


def count_coincidences(events: EventStream, window_offsets: int = 3) -> CoincidenceHistogram:
    """Histogram signal-idler gate offsets d = idler - signal, |d| <= window.

    Every signal-idler pair of the stream within the window counts once;
    total_gates is the stream's n_gates.
    """
    k = int(window_offsets)
    if k < 3:
        raise DomainError(f"window_offsets must be >= 3, got {k}")
    return CoincidenceHistogram(
        offsets=np.arange(-k, k + 1),
        counts=_count_segments(events.signal_gates, events.idler_gates, k)[0],
        total_gates=events.n_gates,
        window=k,
    )


@dataclass(frozen=True, eq=False)
class VisibilityEstimate:
    """Fringe-fit visibility from batched Monte Carlo runs.

    The fringe estimator is a linear least-squares fit of the offset-0
    counts to A*(1 + V*cos(phi - phi0)); v and sigma_v are the mean and one
    standard deviation of the per-batch fits. per_phase_histogram aggregates
    the full offset histogram over batches for side-peak diagnostics.
    """

    v: float
    sigma_v: float
    batch_visibilities: np.ndarray
    phases: np.ndarray
    per_phase_histogram: np.ndarray
    offsets: np.ndarray
    n_gates_per_phase: int
    fit_method: str = "sinusoidal-least-squares"

    def __iter__(self):  # allow v, sigma = estimate_visibility(...)
        yield self.v
        yield self.sigma_v


def _fit_fringe(phases, counts):
    if not np.any(counts > 0):
        raise StatisticsError("all fringe bins are empty; nothing to fit")
    design = np.column_stack([np.ones_like(phases), np.cos(phases), np.sin(phases)])
    coef, *_ = np.linalg.lstsq(design, counts.astype(float), rcond=None)
    a0, a1, a2 = coef
    if a0 <= 0:
        raise StatisticsError("fringe fit produced a nonpositive mean level")
    return float(np.hypot(a1, a2) / a0)


def _worker_count() -> int:
    """Threads an estimate runs on: the cores this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _ordered_map(pool, fn, items, window):
    """Yield (item, fn(item)) in item order, with at most window calls submitted to pool at once.

    A call that raised raises when its turn comes, after every earlier one
    has returned, so the error is the one a single thread meets first; the
    calls submitted after it are cancelled if they have not started.
    """
    queued = deque()

    def oldest():
        item, future = queued.popleft()
        return item, future.result()

    try:
        for item in items:
            queued.append((item, pool.submit(fn, item)))
            if len(queued) == window:
                yield oldest()
        while queued:
            yield oldest()
    finally:
        for _, future in queued:
            future.cancel()


def estimate_visibility(
    cfg: FransonConfig,
    noise: NoiseModel,
    det: DetectorModel,
    n_gates: int,
    phases=None,
    batches: int = 100,
    seed: int = 0,
) -> VisibilityEstimate:
    """Measure the raw fringe visibility from simulated detection streams.

    Each batch spreads n_gates evenly over the phase grid (default 32
    uniform phases over [0, 2pi)), counts offset-0 coincidences per phase,
    and fits the sinusoidal fringe. Every (batch, phase) stream draws from
    its own substream derived from (seed, batch, phase). One task simulates
    and counts a batch's streams for _PHASE_GROUP consecutive phases as
    segments and returns their rows; the tasks run on a thread pool in a
    window of _QUEUED_PER_THREAD per thread (_ordered_map) and their rows are
    read in task order, so the result does not depend on the core count and
    the lowest failed task's error is raised. A histogram over
    MAX_HISTOGRAM_CELLS cells is refused before it is allocated.
    """
    if batches < 2:
        raise DomainError(f"need at least 2 batches, got {batches}")
    if phases is None:
        phases = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    phases = np.asarray(phases, dtype=float)
    if len(phases) < 3:
        raise DomainError("need at least 3 phase points to fit a fringe")
    per_phase = int(n_gates) // len(phases)
    if per_phase < 1:
        raise DomainError(f"n_gates {n_gates} too small for {len(phases)} phases")

    m = gate_offset(cfg, det)
    k = max(3, m)
    if batches * len(phases) * (2 * k + 1) > MAX_HISTOGRAM_CELLS:
        raise ConfigurationError(f"{batches * len(phases)} streams at gate offset m = {m} "
                                 f"exceed the histogram cap of {MAX_HISTOGRAM_CELLS} cells")
    rates = fringe_rates(cfg, phases)
    hists = np.empty((batches, len(phases), 2 * k + 1), dtype=np.int64)
    groups = range(0, len(phases), _PHASE_GROUP)
    tasks = ((b, slice(g, g + _PHASE_GROUP)) for b in range(batches) for g in groups)

    def simulate(task):
        b, group = task
        rngs = [np.random.default_rng([int(seed), b, j]) for j in range(len(phases))[group]]
        signal, idler, stride = _simulate_segments(cfg, noise, det, per_phase, rngs, rates[group])
        for name, gates in (("signal", signal), ("idler", idler)):
            _check_gates(name, gates, per_phase, stride, len(rngs))
        return _count_segments(signal, idler, k, stride, len(rngs))

    # imported here: at module level it adds about 10 ms and up to 1 MB to
    # every run
    from concurrent.futures import ThreadPoolExecutor

    workers = min(_worker_count(), batches * len(groups))
    with ThreadPoolExecutor(workers) as pool:
        for (b, group), rows in _ordered_map(pool, simulate, tasks, workers * _QUEUED_PER_THREAD):
            hists[b, group] = rows
    batch_vs = np.array([_fit_fringe(phases, hist[:, k]) for hist in hists])

    return VisibilityEstimate(
        v=float(batch_vs.mean()),
        sigma_v=float(batch_vs.std(ddof=1)),
        batch_visibilities=batch_vs,
        phases=phases,
        per_phase_histogram=hists.sum(axis=0),
        offsets=np.arange(-k, k + 1),
        n_gates_per_phase=per_phase,
    )
