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

C(phi_tilde) is the analytic coincidence rate in closed form, from the
config's cached fringe amplitude Z and its one cached rate quadrature at the
fringe minimum (interference.fringe_rates), so the offset-0 fringe follows
the full dispersive spectral integral while the +-m side peaks stay phase
independent. Detector imperfections: independent per-photon detection
efficiency, per-gate dark counts, and a single-gate-delayed afterpulse after
any detection (no cascades).

Streams are reproducible: a run is a pure function of (config, seed). The
draw order is pinned, since every seeded output depends on it. Each stream
has its own generator and draws, in this order: geometric gaps between pair
births; five uniforms per pair (outcome class, interference survival,
placement, signal and idler detection), as one fill; then per detector,
signal first, geometric gaps between dark counts and one uniform per click
for afterpulses. The gaps give each gate a birth (or a dark count)
independently with probability alpha (or dark_prob), at most one per gate,
as one uniform per gate would, but with draws in proportion to the events
rather than the gates (see _gap_hits). They are drawn in blocks, and a
stream whose block ends below its last gate draws another; at a rate of 0
a block holds no gaps and draws nothing. A gap is the value
``rng.geometric`` returns, but below p = 1/3 it is taken as NumPy itself
takes it, from one exponential draw, and inverted for a whole block of
streams at once (_draw_gaps, _geometric). Their sums run in int64, and the
merges and the count exploit sorted runs (_merge_gates, _count_segments).
tests/test_montecarlo.py holds a frozen copy of the stream code to check
the order against, and a copy of the earlier one-uniform-per-gate sampler to
check the law against.

One engine, _simulate_segments, simulates several streams at once as
segments of shared gate arrays: the draws stay per generator, in the order
above, and the array work between two kinds of draws runs once per chunk of
streams or once over all of them. simulate_run is the one-segment case.
estimate_visibility runs its streams, s = batch * phases + phase, in groups
of consecutive streams, the most (at least one) whose expected events fit
_GROUP_EVENTS, and at most _GROUP_STREAMS: one engine call simulates a group
and one pass counts it, which moves no draw. The groups run in order on the
calling thread, so the output is a function of the inputs alone and a failed
stream raises before any later stream runs. Seed words for all streams come
from one vectorized pass (_seed_words), and a group's generators from its
rows, each in the state default_rng([seed, batch, phase]) would give it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolationError, DomainError, StatisticsError
from .interference import FransonConfig, fringe_rates
from .noise import NoiseModel

GATE_RATIO_TOL = 0.01  # max fractional mismatch of delta_t to a whole gate count
# expected pairs whose births and pair flags an engine call holds at once: 2
# dense streams. The chunks keep the draw order of the module docstring
_CHUNK_PAIRS = 2**14
# largest gate count a run may ask for. An exported stream peaks at about
# 32 B per gate at alpha 0.5 and 63 B at alpha 0.99 while it is simulated,
# 4.2 GB at the cap (tracemalloc at 1M and 4M gates): one stream's births,
# pair flags and five uniforms per pair are held at once. An estimate holds
# one group's clicks, and its pair flags a chunk at a time
MAX_GATES = 2**26
# expected events (pair births and dark counts) of the streams an estimate
# runs in one engine call, which holds their clicks: 1.6 MB at 20 streams of
# 6,250 dense events (tracemalloc). One stream over it runs alone
_GROUP_EVENTS = 2**17
# most streams of one such call; their generators take about 0.8 KB each,
# 200 KB in all (tracemalloc)
_GROUP_STREAMS = 2**8
# largest phase grid a run may ask for, as for a fringe's points: the grid and
# its (phase, offset) histogram rows are built before any stream runs
MAX_PHASES = 2**16
# largest batches x phases a run may ask for, the streams of one estimate: its
# histogram, 56 B per stream at k = 3, and its seed words, 32 B per stream, are
# allocated before any stream runs (5.5 MiB at the cap); c08 runs 3,200
MAX_STREAMS = 2**16
# largest int64 histogram a run allocates, an estimate's (batches, phases,
# 2k + 1) or count_coincidences' 2k + 1 offsets, 64 MiB: 2**16 streams of 128
# cells, so up to m = 63 the stream cap binds
MAX_HISTOGRAM_CELLS = 2**23


def _check_cap(what, value, cap):
    """Raise DomainError when ``value`` is over the run cap ``cap``, as resolve_run refuses it."""
    if value > cap:
        raise DomainError(f"{what} {value} exceeds the cap of {cap}")


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
    if valid and stride is not None:  # no gate between a segment's last gate and the next
        starts = np.arange(n_segments) * stride
        valid = np.array_equal(*np.searchsorted(gates, (starts + n_gates, starts + stride)))
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


@dataclass(frozen=True, eq=False)
class CoincidenceHistogram:
    """Pair counts by gate offset d = idler_gate - signal_gate, |d| <= window."""

    offsets: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.offsets.setflags(write=False)
        self.counts.setflags(write=False)


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

    A stable sort, timsort on int64, merges the parts' presorted runs in
    linear time, and adjacent repeats are dropped: np.unique hashes
    integers first, which costs about ten times as much at stream sizes.
    """
    gates = np.concatenate(arrays)
    gates.sort(kind="stable")
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


def _geometric(gaps, p, n):
    """Rows of _draw_gaps, in place, as the gaps rng.geometric(p) returns, clipped to [1, n + 1].

    The inversion returns 0 for an exponential of exactly 0, which is
    raised to 1 so that no gate repeats. A gap of n + 1 or more takes a row
    of n gates past its end on its own, so it is clipped to n + 1: so is a
    gap past the float range, inf here and INT64_MAX in NumPy.
    """
    if p < 1 / 3:
        with np.errstate(over="ignore"):  # at tiny p a gap overflows to inf
            np.divide(gaps, -math.log1p(-p), out=gaps)
        np.ceil(gaps, out=gaps)
    return np.clip(gaps, 1, n + 1, out=gaps)


def _gap_hits(gaps, rngs, n, p, starts):
    """Bernoulli(p) hits on [0, n) of the rows of _draw_gaps, row j drawn from rngs[j].

    Row j's gates lie in [starts[j], starts[j] + n), and starts increase by
    at least n from row to row, so the rows are disjoint and in order.
    Returns the sorted int64 hits of all rows and each row's hit count.
    Each pass sums the open rows' gaps, clipped to [1, n + 1], into int64
    gates, the first counted from the row's last gate (starts[j] - 1 at
    first); a row's hits are its gates below its end, a prefix of the row,
    and a row whose block ended below its end draws a further block of the
    same size from its generator. The rest of a row's last block is
    discarded (Devroye 1986, ch. X). The gates kept, and which rows draw
    again, are those float64 sums of the unclipped gaps give: below the end
    every gap is an integer of at most n and every sum is below 2**53, so
    both are exact, and a gap of n + 1 or more, inf included, ends the row.
    """
    counts = np.zeros(len(rngs), dtype=np.int64)
    if p == 0:
        return np.empty(0, dtype=np.int64), counts
    rows, ends, last = np.arange(len(rngs)), starts + n, starts - 1
    hits, passes = [np.empty(0, dtype=np.int64)], 0  # no hit at all is an empty array
    while len(rows):
        passes += 1
        sums = _geometric(gaps, p, n).astype(np.int64)
        sums[:, 0] += last
        np.cumsum(sums, axis=1, out=sums)
        # clipped at its end, row j lies at or below every later row
        np.minimum(sums, ends[:, None], out=sums)
        kept = np.searchsorted(sums.ravel(), ends) - np.arange(len(rows)) * sums.shape[1]
        hits += [sums[j, :c] for j, c in enumerate(kept.tolist()) if c]  # its gates below its end
        counts[rows] += kept
        more = kept == sums.shape[1]
        rows, ends, last = rows[more], ends[more], sums[more, -1]
        gaps = gaps[: len(rows)]
        for j, row in zip(rows.tolist(), gaps):  # rare: a block ended below its row's end
            _draw_gaps(rngs[j], p, row)
    merged = np.concatenate(hits)
    if passes > 1:  # a later pass's hits lie between the rows of the first
        merged.sort(kind="stable")
    return merged, counts


def _gap_rows(rngs, n, p):
    """One row of _gap_block(n, p) gaps per generator, from _draw_gaps."""
    gaps = np.empty((len(rngs), _gap_block(n, p)))
    for rng, row in zip(rngs, gaps):
        _draw_gaps(rng, p, row)
    return gaps


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

    def inside(gates):  # sorted gates: drop what fell past the last gate of its segment
        lo, hi = np.searchsorted(gates, (starts + n_gates, starts + stride)).tolist()
        past = [np.arange(a, b) for a, b in zip(lo, hi) if a < b]
        return np.delete(gates, np.concatenate(past)) if past else gates

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
        survive |= split  # emitted: split paths, or same path and not lost
        late &= ~split  # an interfering pair lands long-long
        sl |= late  # the idler's long path; the signal's is sl ^ split
        return [pair_g[keep] + m * long[keep] for keep, long in (
            (np.flatnonzero(det_s & survive), sl ^ split), (np.flatnonzero(det_i & survive), sl))]

    most = max(1, int(_CHUNK_PAIRS // max(n_gates * alpha, 1.0)))
    sig, idl = zip(*(photons(slice(j, j + most)) for j in range(0, len(rngs), most)))
    detectors = []
    for gates in (sig, idl):  # signal first: dark counts, then afterpulses
        darks, _ = _gap_hits(dark, rngs, n_gates, dark_p, starts)
        base = inside(_merge_gates(*gates, darks))
        ends = np.searchsorted(base, starts + stride).tolist()
        u = np.empty(len(base))
        for j, (rng, a, b) in enumerate(zip(rngs, [0] + ends, ends)):
            rng.random(out=u[a:b])
            if not detectors:  # the idler's dark gaps follow the signal's afterpulses
                _draw_gaps(rng, dark_p, dark[j])
        ap = np.flatnonzero(u < det.afterpulse_prob)
        gate = base[ap] + 1  # an afterpulse on the next click is that click
        new = gate != base[np.minimum(ap + 1, len(base) - 1)]
        detectors.append(inside(np.insert(base, ap[new] + 1, gate[new])))
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


def _stream_generators(words):
    """One generator per row of seed words from _seed_words, as default_rng([seed, b, j]) seeds it.

    A stream's generator is Generator(PCG64) seeded from its row of words
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

    return [Generator(PCG64(Words(w))) for w in words]


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

    phi_tilde overrides the summed arm phase when given. n_gates is at most
    MAX_GATES. Identical arguments always produce bit-identical streams.
    """
    if n_gates < 1:
        raise DomainError(f"n_gates must be >= 1, got {n_gates}")
    _check_cap("n_gates", n_gates, MAX_GATES)
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    rate = fringe_rates(cfg, [cfg.phi_tilde() if phi_tilde is None else phi_tilde])[0]
    return _simulate_stream(cfg, noise, det, int(n_gates), np.random.default_rng(seed), rate)


def _count_segments(sig, idl, k, stride=None, n_segments=1):
    """Offset histogram (n_segments, 2k + 1) of sorted signal and idler gates.

    Every signal-idler pair with |idler - signal| <= k counts once, in the
    row of the signal gate's segment (gate // stride); segments must lie
    more than k gates apart. One binary search finds each signal gate's
    first idler at or past gate - k, and the scan reads the idlers from
    there, j = 0, 1, ... on, while the j-th lies within gate + k: every
    later one lies further out. A sentinel idler past every window ends
    each scan. The pairs are binned once by segment * (2k + 1) + offset + k.
    """
    # signed, so that sig - k cannot wrap below gate 0
    sig = sig.astype(np.int64, copy=False)
    idl = np.append(idl.astype(np.int64, copy=False), np.iinfo(np.int64).max)
    lo, bins = np.searchsorted(idl, sig - k), []
    while len(sig) or not bins:  # the j-th idler from each gate's first in the window
        d = idl[lo] - sig
        keep = np.flatnonzero(d <= k)
        sig, lo, d = sig[keep], lo[keep] + 1, d[keep] + k
        bins.append(d if n_segments == 1 else d + sig // stride * (2 * k + 1))
    counts = np.bincount(np.concatenate(bins), minlength=n_segments * (2 * k + 1))
    return counts.reshape(n_segments, 2 * k + 1)


def count_coincidences(events: EventStream, window_offsets: int = 3) -> CoincidenceHistogram:
    """Histogram signal-idler gate offsets d = idler - signal, |d| <= window.

    Every signal-idler pair of the stream within the window counts once.
    2k + 1 is held to MAX_HISTOGRAM_CELLS.
    """
    k = int(window_offsets)
    if k < 3:
        raise DomainError(f"window_offsets must be >= 3, got {k}")
    _check_cap(f"window_offsets {k} needs 2k + 1 =", 2 * k + 1, MAX_HISTOGRAM_CELLS)
    return CoincidenceHistogram(
        offsets=np.arange(-k, k + 1),
        counts=_count_segments(events.signal_gates, events.idler_gates, k)[0],
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
    phases: int = 32,
    batches: int = 100,
    seed: int = 0,
) -> VisibilityEstimate:
    """Measure the raw fringe visibility from simulated detection streams.

    Each batch spreads n_gates evenly over a grid of ``phases`` uniform
    phases over [0, 2pi), counts offset-0 coincidences per phase, and fits
    the sinusoidal fringe. Streams are seeded and drawn as the module
    docstring states; stream s is phase s % phases of batch s // phases.
    The seed words of all streams are computed before the histogram is
    allocated, and a group's generators are built from its rows when the
    group starts. One engine call simulates a group's streams as segments,
    and one pass counts them. The groups run in order on the calling
    thread, so the first failed stream's error is raised and no later
    stream starts.
    Fewer than 3 phases, whose fit would read a perfect fringe, are refused.
    n_gates, phases and the batches x phases streams are held to MAX_GATES,
    MAX_PHASES and MAX_STREAMS, and a histogram over MAX_HISTOGRAM_CELLS
    cells is refused, before any of them is built.
    """
    if batches < 2:
        raise DomainError(f"need at least 2 batches, got {batches}")
    if phases < 3:
        raise DomainError(f"need at least 3 phases to fit a fringe, got {phases}")
    _check_cap("phase count", phases, MAX_PHASES)
    per_phase = int(n_gates) // phases
    if per_phase < 1:
        raise DomainError(f"n_gates {n_gates} too small for {phases} phases")
    _check_cap("n_gates", n_gates, MAX_GATES)
    _check_cap("stream count", n_streams := batches * phases, MAX_STREAMS)

    m = gate_offset(cfg, det)
    k = coincidence_window(m)
    if n_streams * (2 * k + 1) > MAX_HISTOGRAM_CELLS:
        raise ConfigurationError(f"{n_streams} streams at gate offset m = {m} "
                                 f"exceed the histogram cap of {MAX_HISTOGRAM_CELLS} cells")
    grid = np.linspace(0.0, 2.0 * np.pi, phases, endpoint=False)
    rates = fringe_rates(cfg, grid)
    events = per_phase * (noise.alpha + 2 * det.dark_prob)  # per stream
    group = max(1, min(int(_GROUP_EVENTS // max(events, 1.0)), _GROUP_STREAMS))
    # the seed words' temporaries are freed before the histogram is allocated
    words = _seed_words(seed, np.arange(batches)[:, None], np.arange(phases)).reshape(-1, 4)
    hists = np.empty((n_streams, 2 * k + 1), dtype=np.int64)
    for s in range(0, n_streams, group):
        rngs = _stream_generators(words[s : s + group])
        signal, idler, stride = _simulate_segments(
            cfg, noise, det, per_phase, rngs, rates[np.arange(s, s + len(rngs)) % phases])
        for name, gates in (("signal", signal), ("idler", idler)):
            _check_gates(name, gates, per_phase, stride, len(rngs))
        hists[s : s + len(rngs)] = _count_segments(signal, idler, k, stride, len(rngs))
    hists = hists.reshape(batches, phases, 2 * k + 1)
    batch_vs = np.array([_fit_fringe(grid, hist[:, k]) for hist in hists])

    return VisibilityEstimate(
        v=float(batch_vs.mean()),
        sigma_v=float(batch_vs.std(ddof=1)),
        batch_visibilities=batch_vs,
        phases=grid,
        per_phase_histogram=hists.sum(axis=0),
        offsets=np.arange(-k, k + 1),
        n_gates_per_phase=per_phase,
    )
