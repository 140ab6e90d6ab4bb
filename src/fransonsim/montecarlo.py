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
single-gate-delayed afterpulse after any detection (no cascades).

Streams are reproducible: a run is a pure function of (config, seed). The
draw order is pinned, since every seeded output depends on it. Each stream
has its own generator and draws, in this order: geometric gaps between pair
births; five uniforms per pair (outcome class, interference survival,
placement, signal and idler detection), as one fill; then per detector,
signal first, geometric gaps between dark counts and one uniform per click
for afterpulses. The gaps give each gate a birth (or a dark count)
independently with probability alpha (or dark_prob), at most one per gate,
as one uniform per gate would, but with draws in proportion to the events
rather than the gates (see _bernoulli_gates). They are drawn in blocks, and
a stream whose block ends below its last gate draws another (_gap_hits); at
a rate of 0 a block holds no gaps and draws nothing. A gap is the value
``rng.geometric`` returns, but below p = 1/3 it is taken as NumPy itself
takes it, from one exponential draw, and inverted for a whole block of
streams at once (_draw_gaps, _geometric).
tests/test_montecarlo.py holds a frozen copy of the stream code to check
the order against, and a copy of the earlier one-uniform-per-gate sampler to
check the law against.

One engine, _simulate_segments, simulates several streams at once as
segments of shared gate arrays: the draws stay per generator, in the order
above, and the array work between two kinds of draws runs once per chunk of
streams or once over all of them. simulate_run is the one-segment case.
estimate_visibility simulates all of a batch's phases in one engine call and
counts them in one pass, batch after batch on the calling thread, so the
output is a function of the inputs alone and a failed batch raises before
any later batch runs. Its stream generators are seeded in one vectorized
pass over every (batch, phase) stream (_seed_words), and each starts in the
state default_rng([seed, batch, phase]) would give it, bit for bit.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError, ContractViolationError, DomainError, StatisticsError
from .interference import FransonConfig, fringe_rates
from .noise import NoiseModel

GATE_RATIO_TOL = 0.01  # max fractional mismatch of delta_t to a whole gate count
# expected pairs whose births and pair flags an engine call holds at once: 2
# dense streams. The chunks keep the draw order of the module docstring
_CHUNK_PAIRS = 2**14
# largest gate count a run may ask for: with a click at every gate on both
# detectors, an exported stream's two int64 gate arrays take 16 B per gate,
# 1 GiB at the cap. An estimate holds one batch's clicks, which is less than
# an export of the same gates holds, since it draws its pair flags a chunk at
# a time
MAX_GATES = 2**26
# largest phase grid a run may ask for, as for a fringe's points: the grid and
# its (phase, offset) histogram rows are built before any stream runs
MAX_PHASES = 2**16
# largest batches x phases a run may ask for, the streams of one estimate: its
# histogram, 56 B per stream at k = 3, and its seed words, 32 B per stream, are
# allocated before any stream runs (5.5 MiB at the cap); c08 runs 3,200
MAX_STREAMS = 2**16
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

    def __post_init__(self):
        if not (0.0 <= self.efficiency <= 1.0):
            raise DomainError(f"efficiency must be in [0, 1], got {self.efficiency}")
        if not (0 < self.gate_rate_mhz < math.inf):
            raise DomainError(f"gate rate must be positive and finite, got {self.gate_rate_mhz}")
        if not (0.0 <= self.dark_prob <= 1.0):
            raise DomainError(f"dark_prob must be in [0, 1], got {self.dark_prob}")
        if not (0.0 <= self.afterpulse_prob < 1.0):
            raise DomainError(
                f"afterpulse_prob must be in [0, 1), got {self.afterpulse_prob}"
            )

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


def coincidence_window(m: int) -> int:
    """Half-width k = max(3, m) of the coincidence window at gate offset m.

    The window holds both side peaks at +-m and is never narrower than +-3.
    """
    return max(3, m)


def gate_offset(cfg: FransonConfig, det: DetectorModel) -> int:
    """Whole number of gates spanned by the path delay difference."""
    ratio = cfg.signal_arm.delta_t_ns / det.gate_period_ns()
    m = round(min(ratio, MAX_HISTOGRAM_CELLS))  # round() of an infinite ratio would overflow
    if 2 * coincidence_window(m) + 1 > MAX_HISTOGRAM_CELLS:
        raise ConfigurationError(
            f"path delay of {ratio:.4g} gates needs histogram rows of more than the "
            f"cap of {MAX_HISTOGRAM_CELLS} cells (2m + 1 at gate offset m)"
        )
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
    gates = np.concatenate(arrays)
    gates.sort()
    first = np.empty(len(gates), dtype=bool)
    first[:1] = True
    np.not_equal(gates[1:], gates[:-1], out=first[1:])
    return gates[first]


def _gap_block(n, p):
    """Gaps drawn at once for a Bernoulli(p) process on n gates: int(n p + 4 sqrt(n p)) + 16."""
    if p == 0:
        return 0
    mean = n * p
    return int(mean + 4 * math.sqrt(mean)) + 16


def _draw_gaps(rng, p, out):
    """Fill the float64 row out with the draws of len(out) geometric(p) gaps, for _geometric.

    Below p = 1/3 NumPy's ``rng.geometric(p)`` is the inversion
    ceil(-E / log1p(-p)) of one ``standard_exponential`` draw E, and from
    1/3 up a search over one uniform. So below 1/3 this draws E alone, and
    _geometric inverts whole blocks of rows at once, with log1p(-p) taken
    once; from 1/3 up it calls ``rng.geometric``. Gaps and generator states
    equal those of ``rng.geometric`` bit for bit, as checked on NumPy 2.4.6
    (tests/test_montecarlo.py, TestExponentialGaps). An empty row, the
    block of a rate of 0, leaves the generator's state as it was.
    """
    if p < 1 / 3:
        rng.standard_exponential(out=out)
    else:
        out[:] = rng.geometric(p, len(out))


def _geometric(gaps, p):
    """Rows of _draw_gaps, in place, as the gaps ``rng.geometric(p)`` returns, each at least 1.

    The inversion returns 0 for an exponential of exactly 0, which is
    raised to 1 so that no gate repeats. A gap past the float range is inf
    here and INT64_MAX in NumPy, and either ends its row's gates below n.
    """
    if p < 1 / 3:
        with np.errstate(over="ignore"):  # at tiny p a gap overflows to inf
            np.divide(gaps, -math.log1p(-p), out=gaps)
        np.ceil(gaps, out=gaps)
    return np.maximum(gaps, 1, out=gaps)


def _gap_hits(gaps, rngs, n, p, starts):
    """Bernoulli(p) hits on [0, n) of the rows of _draw_gaps, row j drawn from rngs[j].

    Row j's gates lie in [starts[j], starts[j] + n), and starts increase by
    at least n from row to row, so the rows are disjoint and in order.
    Returns the sorted int64 hits of all rows and each row's hit count.
    Each pass sums the open rows' gaps into gates in place, the first
    counted from the row's last gate (starts[j] - 1 at first), and keeps
    those below the row's end; a row whose block ended below its end draws
    a further block of the same size from its generator. The rest of a
    row's last block is discarded (Devroye 1986, ch. X). The sums stay in
    float64, exact below 2**53: a running sum never falls, so every gate
    kept is exact, and the first gate at or past the end, inf included,
    closes the row.
    """
    counts = np.zeros(len(rngs), dtype=np.int64)
    if p == 0:
        return np.empty(0, dtype=np.int64), counts
    rows, ends, last, hits = np.arange(len(rngs)), starts + n, starts - 1, []
    while len(rows):
        _geometric(gaps, p)
        gaps[:, 0] += last
        np.cumsum(gaps, axis=1, out=gaps)
        below = gaps < ends[:, None]
        hits.append(gaps[below])  # row by row, as the mask is read in row-major order
        counts[rows] += below.sum(axis=1)
        more = below[:, -1]
        rows, ends, last = rows[more], ends[more], gaps[more, -1]
        gaps = gaps[: len(rows)]
        for j, row in zip(rows.tolist(), gaps):  # rare: a block ended below its row's end
            _draw_gaps(rngs[j], p, row)
    merged = np.concatenate(hits, dtype=np.int64, casting="unsafe")
    if len(hits) > 1:  # a later pass's hits lie between the rows of the first
        merged.sort()
    return merged, counts


def _gap_rows(rngs, n, p):
    """One row of _gap_block(n, p) gaps per generator, from _draw_gaps."""
    gaps = np.empty((len(rngs), _gap_block(n, p)))
    for rng, row in zip(rngs, gaps):
        _draw_gaps(rng, p, row)
    return gaps


def _bernoulli_gates(rng, n, p):
    """Sorted int64 gates in [0, n), each present independently with probability p.

    The gaps between successive hits, the first counted from gate -1, are
    geometric(p), so draws and memory grow with the hits, not with n: the
    one-stream case of _gap_hits.
    """
    return _gap_hits(_gap_rows([rng], n, p), [rng], n, p, np.zeros(1, dtype=np.int64))[0]


def _simulate_segments(cfg, noise, det, n_gates, rngs, rates):
    """Simulate len(rngs) acquisitions of n_gates each as segments of shared arrays.

    Stream j draws from rngs[j] at coincidence rate rates[j], in the order
    the module docstring states. Per stream only its draw calls run, into
    preallocated rows; the rest runs once per chunk of consecutive streams
    with at most about _CHUNK_PAIRS expected pairs (births and flags) or
    once over all streams (dark counts, afterpulses), and the chunks do not
    change a draw. Stream j's gates are offset by j * stride, with
    stride = n_gates + k + 1 for the counting window k = coincidence_window(m):
    a photon (at most m gates late) or an afterpulse (1 gate late) that
    would fall past the stream's last gate is dropped, and no window of +-k
    gates reaches from one segment into the next. Returns the sorted signal
    and idler gates and the stride.
    """
    m = gate_offset(cfg, det)
    stride = n_gates + coincidence_window(m) + 1
    starts = np.arange(len(rngs)) * stride
    rates = np.asarray(rates, dtype=float)
    eta, alpha, dark_p = det.efficiency, noise.alpha, det.dark_prob
    # each stream's dark count gaps, the signal's and then the idler's
    dark = np.empty((len(rngs), _gap_block(n_gates, dark_p)))

    def inside(gates):  # drop what fell past the last gate of its segment
        return gates[gates % stride < n_gates]

    def photons(chunk):  # births, then per stream one fill and the signal's dark gaps
        births = _gap_rows(rngs[chunk], n_gates, alpha)
        pair_g, n_pairs = _gap_hits(births, rngs[chunk], n_gates, alpha, starts[chunk])
        del births  # not held next to the flags
        # a stream's fill is five successive rng.random(n_pairs) calls, drawn
        # as the rows of one C-order fill (PCG64 buffers no doubles), each
        # compared with its limit: outcome class (below 0.5 the photons take
        # split paths), interference survival (the stream's rate), long-long
        # placement, signal and idler detection. The class is also compared
        # with 0.25, below which the signal takes the short path
        limits = np.array([[0.5], [0.0], [0.5], [eta], [eta]])
        flags = np.empty((6, len(pair_g)), dtype=bool)
        fill = np.empty(5 * n_pairs.max(initial=0))
        ends = np.cumsum(n_pairs).tolist()
        for rng, a, b, rate, row in zip(rngs[chunk], [0] + ends, ends, rates[chunk], dark[chunk]):
            limits[1] = rate
            u = fill[: 5 * (b - a)].reshape(5, b - a)
            rng.random(out=u)
            np.less(u, limits, out=flags[:5, a:b])
            np.less(u[0], 0.25, out=flags[5, a:b])
            _draw_gaps(rng, dark_p, row)
        split, survive, late, det_s, det_i, sl = flags
        late &= survive
        late &= ~split  # an interfering pair lands long-long
        survive |= split  # emitted: split paths, or same path and not lost
        det_s &= survive
        det_i &= survive
        sl |= late  # the idler's long path; the signal's is sl ^ split
        return tuple(np.compress(keep, pair_g) + m * np.compress(keep, shift)
                     for keep, shift in ((det_s, sl ^ split), (det_i, sl)))

    most = max(1, int(_CHUNK_PAIRS // max(n_gates * alpha, 1.0)))
    sig, idl = zip(*(photons(slice(j, j + most)) for j in range(0, len(rngs), most)))
    detectors = []
    for gates in (sig, idl):  # signal first: dark counts, then afterpulses
        darks, _ = _gap_hits(dark, rngs, n_gates, dark_p, starts)
        base = _merge_gates(inside(np.concatenate(gates)), darks)
        ends = np.searchsorted(base, starts + stride).tolist()
        u = np.empty(len(base))
        for j, (rng, a, b) in enumerate(zip(rngs, [0] + ends, ends)):
            rng.random(out=u[a:b])
            if not detectors:  # the idler's dark gaps follow the signal's afterpulses
                _draw_gaps(rng, dark_p, dark[j])
        detectors.append(_merge_gates(base, inside(base[u < det.afterpulse_prob] + 1)))
    return detectors[0], detectors[1], stride


# NumPy's SeedSequence: hashmix and mix multipliers, and the shift of both
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def _seed_words(seed, b, j):
    """The words SeedSequence([seed, b, j]).generate_state(4, np.uint64) of every (b, j) at once.

    b and j are integer arrays below 2**32 that broadcast together; the
    result has their shape plus an axis of 4 uint64 words, 32 B per
    stream. It runs SeedSequence's algorithm (numpy/random/bit_generator.pyx)
    in uint32 arrays, one row per word of its 4-word pool: the entropy is
    seed's 32-bit words from the lowest ([0] for 0), then b, then j, each
    hashed into the pool, the pool mixed with itself, any entropy past the
    fourth word mixed in, and the pool hashed out to 8 words, read in pairs
    as little-endian uint64. tests/test_montecarlo.py checks it against
    NumPy's own words, and every generator state built from them against
    default_rng's.
    """
    seed = int(seed)
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    entropy = [seed & _MASK32]
    while seed := seed >> 32:
        entropy.append(seed & _MASK32)
    b, j = np.broadcast_arrays(np.asarray(b, dtype=np.uint32), np.asarray(j, dtype=np.uint32))
    entropy += [b, j]
    # each hashmix call takes the next constant of one running sequence
    hash_const = _INIT_A
    pool = np.empty((4,) + b.shape, dtype=np.uint32)
    h, shifted = np.empty(b.shape, dtype=np.uint32), np.empty(b.shape, dtype=np.uint32)

    def hashmix(value):  # into h
        nonlocal hash_const
        np.bitwise_xor(value, hash_const, out=h, dtype=np.uint32)
        hash_const = hash_const * _MULT_A & _MASK32
        np.multiply(h, hash_const, out=h)
        np.right_shift(h, _XSHIFT, out=shifted)
        np.bitwise_xor(h, shifted, out=h)

    def mix(x):  # x = mix(x, h), in place
        x *= _MIX_MULT_L
        np.multiply(h, _MIX_MULT_R, out=h)
        x -= h
        np.right_shift(x, _XSHIFT, out=shifted)
        x ^= shifted

    for dst in range(4):
        hashmix(entropy[dst] if dst < len(entropy) else 0)
        pool[dst] = h
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hashmix(pool[src])
                mix(pool[dst])
    for src in range(4, len(entropy)):
        for dst in range(4):
            hashmix(entropy[src])
            mix(pool[dst])
    out = np.empty(b.shape + (8,), dtype=np.uint32)
    hash_const = _INIT_B
    for dst in range(8):
        word = out[..., dst]
        np.bitwise_xor(pool[dst % 4], hash_const, out=word)
        hash_const = hash_const * _MULT_B & _MASK32
        word *= hash_const
        np.right_shift(word, _XSHIFT, out=shifted)
        word ^= shifted
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _batch_generators(seed, batches, n_streams):
    """An iterator over batches of n_streams generators, stream j of batch b as default_rng([seed, b, j]).

    The seed words of every stream come from one _seed_words call, made
    here; a batch's generators are built when the iterator reaches it. A
    stream's generator is Generator(PCG64) seeded from its row of words
    through a minimal ISeedSequence, so that PCG64 does its own seeding
    from the words SeedSequence would have given it and starts in the same
    state. numpy.random is imported here, not with the module, to keep it
    out of the CLI's start-up.
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        """A stream's seed words, for PCG64's one call generate_state(4, np.uint64)."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    words = _seed_words(seed, np.arange(batches)[:, None], np.arange(n_streams))
    return ([Generator(PCG64(Words(w))) for w in row] for row in words)


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
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    rate = fringe_rates(cfg, [cfg.phi_tilde() if phi_tilde is None else phi_tilde])[0]
    return _simulate_stream(cfg, noise, det, int(n_gates), np.random.default_rng(seed), rate)


def _count_segments(sig, idl, k, stride=None, n_segments=1):
    """Offset histogram (n_segments, 2k + 1) of sorted signal and idler gates.

    Every signal-idler pair with |idler - signal| <= k counts once, in the
    row of the signal gate's segment (gate // stride); segments must lie
    more than k gates apart. Two binary searches per signal gate find its
    window of idler gates; the nonempty windows are expanded into one array
    of pairs, binned once by segment * (2k + 1) + offset + k.
    """
    # signed, so that sig - k cannot wrap below gate 0
    sig, idl = sig.astype(np.int64, copy=False), idl.astype(np.int64, copy=False)
    lo = np.searchsorted(idl, sig - k, side="left")
    n = np.searchsorted(idl, sig + k, side="right")
    n -= lo
    some = np.flatnonzero(n)  # most signal gates of a sparse stream see no idler
    sig, lo, n = sig[some], lo[some], n[some]
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


def _fit_fringe(phases, counts):
    if not np.any(counts > 0):
        raise StatisticsError("all fringe bins are empty; nothing to fit")
    design = np.column_stack([np.ones_like(phases), np.cos(phases), np.sin(phases)])
    coef, *_ = np.linalg.lstsq(design, counts.astype(float), rcond=None)
    a0, a1, a2 = coef
    if a0 <= 0:
        raise StatisticsError("fringe fit produced a nonpositive mean level")
    return float(np.hypot(a1, a2) / a0)


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
    and fits the sinusoidal fringe. Streams are seeded and drawn as the
    module docstring states. The seed words of all streams are computed
    before the histogram is allocated, and a batch's generators are built
    from them when the batch starts. One engine call simulates all of a
    batch's phases as segments, and one pass counts them into the batch's
    rows. The batches run in order on the calling thread, so the first
    failed batch's error is raised and no later batch starts. A histogram
    over MAX_HISTOGRAM_CELLS cells is refused before it is allocated.
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
    k = coincidence_window(m)
    if batches * len(phases) * (2 * k + 1) > MAX_HISTOGRAM_CELLS:
        raise ConfigurationError(f"{batches * len(phases)} streams at gate offset m = {m} "
                                 f"exceed the histogram cap of {MAX_HISTOGRAM_CELLS} cells")
    rates = fringe_rates(cfg, phases)
    # the seed words' temporaries are freed before the histogram is allocated
    generators = _batch_generators(seed, batches, len(phases))
    hists = np.empty((batches, len(phases), 2 * k + 1), dtype=np.int64)
    for b, rngs in enumerate(generators):
        signal, idler, stride = _simulate_segments(cfg, noise, det, per_phase, rngs, rates)
        for name, gates in (("signal", signal), ("idler", idler)):
            _check_gates(name, gates, per_phase, stride, len(rngs))
        hists[b] = _count_segments(signal, idler, k, stride, len(rngs))
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
