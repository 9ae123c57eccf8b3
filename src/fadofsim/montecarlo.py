"""Monte Carlo timestamp generation for the coincidence experiment.

Pairs arrive as a Poisson process; the signal-idler separation is drawn
from the filtered (two-sided exponential) or unfiltered (round-trip
delta comb) correlation law.  Independent background singles top each
channel up to its measured total rate, so the accidental floor of the
analytic histogram model is reproduced exactly.  Everything is
deterministic under the seed; the generator is numpy's PCG64 and its
name is recorded in the stream metadata.

Each channel is drawn into one buffer, allocated once the pair count n
is drawn: the channel's n pair photons first, then its background
singles, with room for a background count of mean L up to
L + 10 sqrt(L) + 64, a ten-sigma excess.  A count beyond that moves the
pair photons into a buffer of the exact length, one copy.  Pages past
the drawn count are never written, so the spare room is address space,
not resident memory.  The draws are the numbers, in the order, that
``uniform``, ``exponential``, ``integers`` and ``choice`` give:
``uniform(0, d)`` is d * ``random()`` and ``exponential(s)`` is
s * ``standard_exponential()``, both drawn straight into the buffer.  The
separation signs are drawn a chunk at a time, which leaves the generator
where one call leaves it, and applied as a product with 2k - 1 = +-1,
which is exact, -0.0 included.  ``choice(delays, p=p)`` is
``delays[searchsorted(cdf, random(), "right")]`` on the CDF it builds,
``p.cumsum()`` divided by its last value; so the comb draws ``random()``
once, straight into the idler slots, and finds the same indices an eighth
of a chunk at a time through a guide table (Chen & Asau, AIIE Trans. 6,
163 (1974); Devroye, Non-Uniform Random Variate Generation, section
III.2.4 (1986)) instead of ``choice``'s bisection over every tooth.  Each
channel is sorted in place, and channel 2's in-window events are the
slice between two bisections, so generation holds its output plus one
chunk of draws.

Stream-sized temporaries cost more resident memory than their own
bytes.  Concatenating the pair and background arrays and copying
channel 2 through a mask peaked at 1.5 times the output, and glibc's
allocator kept the freed 24-29 MB temporaries on its heap, so what a
later stream of the same process found resident depended on the earlier
streams' counts: the peak RSS of the 300 s ``mc_stream`` benchmark then
ranged from 146.6 to 169.4 MB over the seeds, against 111.9-113.7 MB
with one buffer per channel.  Growing an array in place is no way out:
``ndarray.resize`` copies.  The writer likewise converts each chunk into
one float64 and one u64 buffer of ``_CHUNK_EVENTS`` that both channels
reuse: with three fresh 2 MB temporaries per 2**18-event chunk, a fresh
process's first 300 s stream took 29,933 minor page faults to write,
0.097 s of system time beside 0.040 s of user time, against 993 faults
with the buffers (numpy 2.4, glibc, 2 vCPU), and 225 with buffers of
2**16 events.  The histogram merge reuses its working arrays in the same
way (``mc_histogram``).  With about ten fresh arrays of some 470k entries
per 2**18-start chunk, the first 300 s ``single`` stream of a process
took 50,200 minor page faults to histogram and a whole 300 s
``simulate`` 65k; with the arrays reused and chunks of 2**16 starts the
histogram takes about 950, in 0.09 s against 0.16 s, and ``simulate``
11k, and the merge holds 4.2 MB beside the stream instead of 11.7 MB
(tracemalloc).
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .correlations import HISTOGRAM_SIDE_BINS, DetectorConfig, Histogram, g2_multi_comb
from .opo import OpoConfig

RNG_ALGORITHM = "PCG64"
TIMESTAMP_UNIT_S = 1e-12
# Events per chunk of the histogram merge, the stream writer and the
# drawn separation signs: their working memory is a few arrays of this
# length, not of the stream's.  The guide-table search allocates about
# four arrays of its draws, so the comb separations are found an eighth
# of a chunk at a time.  The merge's six reused arrays hold one chunk's
# starts and stops, about 0.9 MB per int64 array at 2**16 on the default
# rates, so its working set stays near a 2 MB L2 cache.  Peak RSS of
# ``simulate`` on the 300 s ``mc_stream`` benchmark, the merge arrays
# reused, read 119.3, 110.5, 107.5 and 107.4 MB at merge chunks of 2**18,
# 2**17, 2**16 and 2**15 (114.2 MB with fresh arrays at 2**18; 6
# interleaved runs each, 2 vCPU).  At 2**16 rather than 2**18 the writer
# took 0.027 against 0.030 s for one 300 s stream (9/10 runs faster; 225
# minor page faults against 993) and ``simulate`` 1.00 against 1.11 s
# (9/10), its four times as many ``write`` calls notwithstanding.
_CHUNK_EVENTS = 1 << 16


@dataclass
class EventStream:
    """Sorted detection timestamps (seconds) of the two channels."""

    channel1_s: np.ndarray
    channel2_s: np.ndarray
    duration_s: float
    seed: int
    meta: dict = field(default_factory=dict)


def generate_pair_events(
    opo: OpoConfig,
    det: DetectorConfig,
    mode: str,
    seed: int,
    pair_survival: float = 1.0,
) -> EventStream:
    """Simulate one acquisition of ``det.acquisition_s`` seconds.

    ``mode`` selects the pair-separation law: "single" draws from the
    two-sided exponential, "comb" draws a round-trip index from the
    tooth-weight law and sets the separation to exactly n*tau.
    ``pair_survival`` thins pairs as a whole (both photons), modeling a
    resonant blocking cell; background singles are unaffected.  The
    channel-2 electronic offset is added to idler timestamps.  Idler
    events pushed outside the acquisition window are dropped.

    Each channel is drawn into one buffer (see the module docstring), and
    the returned channels are views of those buffers.
    """
    if not 0.0 <= pair_survival <= 1.0:
        raise ValueError("pair survival must lie in [0, 1]")
    duration_s = det.acquisition_s
    bg1 = det.r1_hz - opo.pair_rate_hz
    bg2 = det.r2_hz - opo.pair_rate_hz
    if bg1 < 0 or bg2 < 0:
        raise ValueError("singles rates cannot be below the detected pair rate")
    rng = np.random.default_rng(seed)

    n_pairs = int(rng.poisson(opo.pair_rate_hz * duration_s * pair_survival))
    ch1 = np.empty(n_pairs + _background_reserve(bg1 * duration_s))
    ch2 = np.empty(n_pairs + _background_reserve(bg2 * duration_s))
    t_signal, t_idler = ch1[:n_pairs], ch2[:n_pairs]
    _draw_uniform(rng, duration_s, t_signal)
    # the separations go into the idler slots, then become idler times
    if mode == "single":
        rng.standard_exponential(out=t_idler)
        t_idler *= 1.0 / opo.gamma_sum
        for start in range(0, n_pairs, _CHUNK_EVENTS):
            part = t_idler[start : start + _CHUNK_EVENTS]
            # the sign 2*k - 1 of a draw k in {0, 1}; a product with +-1 is exact
            k = rng.integers(0, 2, part.size)
            k <<= 1
            k -= 1
            part *= k
    elif mode == "comb":
        teeth = g2_multi_comb(opo)
        cdf, guide = _guide_table(teeth.weights / teeth.weights.sum())
        rng.random(out=t_idler)
        step = max(_CHUNK_EVENTS >> 3, 1)
        for start in range(0, n_pairs, step):
            part = t_idler[start : start + step]
            np.take(teeth.delays_s, _guide_search(cdf, guide, part), out=part)
    else:
        raise ValueError(f"unknown generation mode {mode!r}")
    t_idler += t_signal
    t_idler += det.offset_s
    del t_signal, t_idler  # so that a grown buffer frees the first one

    n_bg1 = int(rng.poisson(bg1 * duration_s))
    n_bg2 = int(rng.poisson(bg2 * duration_s))
    ch1 = _draw_background(rng, duration_s, ch1, n_pairs, n_bg1)
    # uniform(0, d) draws are d*u with u < 1, so channel 1 lies in [0, d) already
    ch1.sort()
    ch2 = _draw_background(rng, duration_s, ch2, n_pairs, n_bg2)
    ch2.sort()
    ch2 = ch2[np.searchsorted(ch2, 0.0) : np.searchsorted(ch2, duration_s)]
    return EventStream(
        channel1_s=ch1,
        channel2_s=ch2,
        duration_s=duration_s,
        seed=int(seed),
        meta={
            "rng": RNG_ALGORITHM,
            "mode": mode,
            "pair_rate_hz": opo.pair_rate_hz,
            "r1_hz": det.r1_hz,
            "r2_hz": det.r2_hz,
            "offset_s": det.offset_s,
            "pair_survival": pair_survival,
            "n_pairs_generated": n_pairs,
        },
    )


def _background_reserve(mean: float) -> int:
    """Slots reserved for a Poisson count of this mean: mean + 10 sqrt(mean) + 64."""
    return int(mean + 10.0 * math.sqrt(mean)) + 64


def _draw_uniform(rng: np.random.Generator, duration_s: float, out: np.ndarray) -> None:
    """Fill ``out`` with the numbers ``rng.uniform(0, duration_s, out.size)`` gives."""
    rng.random(out=out)
    out *= duration_s


def _guide_table(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CDF that ``Generator.choice`` searches for weights p, and its guide table.

    The table has nb buckets, nb the power of two at least twice the
    number of teeth; bucket b holds ``searchsorted(cdf, b / nb, "right")``,
    the first index that a draw in [b / nb, (b + 1) / nb) can take.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    nb = 1 << (2 * cdf.size - 1).bit_length()
    return cdf, np.searchsorted(cdf, np.arange(nb) / nb, side="right")


def _guide_search(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``searchsorted(cdf, u, "right")`` for draws u in [0, 1), through the guide table.

    u * nb is exact (nb is a power of two), so a draw's bucket start is at
    most the draw and the bucket's first index at most the answer.  It is
    the answer where its CDF value exceeds the draw; the few others (5 %
    on the default comb, whose tails put up to 73 teeth in one bucket) are
    bisected as ``choice`` bisects them.
    """
    idx = guide[(u * guide.size).astype(np.intp)]
    short = np.flatnonzero(cdf[idx] <= u)
    idx[short] = np.searchsorted(cdf, u[short], side="right")
    return idx


def _draw_background(rng: np.random.Generator, duration_s: float, buffer: np.ndarray,
                     n_pairs: int, n_background: int) -> np.ndarray:
    """The first n_pairs + n_background slots of ``buffer``, background drawn.

    A count beyond the reservation moves the pair times into a buffer of
    the exact length: one copy, and no other buffer of that size.
    """
    n = n_pairs + n_background
    if n > buffer.size:
        grown = np.empty(n)
        grown[:n_pairs] = buffer[:n_pairs]
        buffer = grown
    _draw_uniform(rng, duration_s, buffer[n_pairs:n])
    return buffer[:n]


def mc_histogram(stream: EventStream, det: DetectorConfig,
                 n_side_bins: int = HISTOGRAM_SIDE_BINS) -> Histogram:
    """Start multi-stop coincidence histogram of an event stream.

    Both channels are first digitized against the common internal clock
    (arrival assigned to bin floor(t/t_bin), half-open bins); each
    channel-2 event whose clock-index difference from a channel-1 event
    lies within the window is then counted at that difference.  Bins span
    the channel-offset bin +- n_side_bins, matching the analytic layout.

    The channels are merged one chunk at a time.  A chunk holds at most
    ``_CHUNK_EVENTS`` starts (channel-1 events), fewer where their windows
    would open more than ``_CHUNK_EVENTS`` stops past the first start's,
    and every stop from the first start's window opening to the last
    start's window closing.  Each start's coincidences depend only on the
    stops within its window, so the chunk counts add up to those of one
    merge of the whole stream, and memory is a few arrays of one chunk
    (plus the stops of one window) whatever the stream's length.  The
    chunk edges are found by bisection on the clock bin, which is
    monotone in time.  The merge's working arrays are allocated once per
    call, for 2 ``_CHUNK_EVENTS`` entries, and reused by every chunk; a
    chunk with more entries (the stops of its last window) replaces them
    with arrays of its own length, which the later chunks reuse.
    """
    tb = det.bin_s
    k = det.offset_bin
    w = 2 * n_side_bins
    shift = k - n_side_bins  # channel-1 bins move to the window start
    t1, t2 = stream.channel1_s, stream.channel2_s

    def clock(t):
        return math.floor(t / tb)

    def first(t, b, lo):
        """First index from lo on whose clock bin is at least b."""
        return bisect.bisect_left(t, b, lo, key=clock)

    counts = np.zeros(w + 1, dtype=np.int64)
    words = flags = None
    capacity = min(_CHUNK_EVENTS, t1.size) + min(_CHUNK_EVENTS, t2.size)
    i = lo = 0
    while i < t1.size:
        lo = first(t2, clock(t1[i]) + shift, lo)  # the first start's window opens
        j = min(i + _CHUNK_EVENTS, t1.size)
        if lo + _CHUNK_EVENTS < t2.size:
            # starts whose window opens after the stop _CHUNK_EVENTS on wait
            j = min(j, first(t1, clock(t2[lo + _CHUNK_EVENTS]) - shift + 1, i + 1))
        hi = first(t2, clock(t1[j - 1]) + shift + w + 1, lo)  # the last one's closes
        size = (j - i) + (hi - lo)
        if words is None or size > capacity:
            words = flags = None  # the old arrays go before the new ones come
            capacity = max(capacity, size)
            words, flags = np.empty((3, capacity), dtype=np.int64), np.empty((3, capacity), dtype=bool)
        counts += _merged_counts(t1[i:j], t2[lo:hi], tb, shift, w, words, flags)
        i = j
    return Histogram(
        bin_index=np.arange(k - n_side_bins, k + n_side_bins + 1),
        counts=counts.astype(float),
        bin_s=tb,
        accidental_floor_per_bin=det.accidental_floor_per_bin(stream.duration_s),
    )


def _merged_counts(t1: np.ndarray, t2: np.ndarray, tb: float, shift: int, w: int,
                   words: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Coincidence counts at bin differences 0..w of starts t1 and stops t2.

    One merge of the two channels.  Channel-1 bins are shifted by
    ``shift`` to the window start and every event becomes the key
    2*bin + channel (0 for a start, 1 for a stop), so a coincidence is a
    stop that follows a start in key order by at most w bins; a stop in
    the start's own bin sorts after it, as the window's inclusive lower
    edge requires.  Both channels are sorted, so the stable sort of the
    concatenated keys is one linear merge.  Each start directly followed
    by a stop within w bins is a coincidence at that gap, and one
    bincount over all neighbours gives the bulk of the counts.  A stop
    d > 1 places on needs every entry in between inside the window too,
    so the loop over d = 2, 3, ... walks a candidate set that shrinks
    each step: time is linear in the events plus the coincidences beyond
    the nearest entry.  The keys are int64, so the stream must span fewer
    than 2**62 clock bins (duration / bin_s < 2**62, offset included).

    Every array of the merged length is a row of ``words`` (three int64
    rows) or ``flags`` (three bool rows), each at least t1.size + t2.size
    long, written through ``out=``: the keys, the clock bins as floats
    and then the selected gaps, the gaps; the stops, the starts whose
    next entry is in the window, and a mask.  The values are those of
    the same operations on fresh arrays.  Only the loop's candidates,
    the starts with two or more entries in their window, are allocated
    afresh.
    """
    reach = 2 * w + 1  # key difference of a start and a stop w bins later
    n1 = t1.size
    n = n1 + t2.size
    keys, spare = words[0, :n], words[1, :n]
    gap = words[2, : n - 1]  # n > 0: a chunk holds at least one start
    is_stop, near, mask = flags[0, :n], flags[1, : gap.size], flags[2, : gap.size]
    bins = spare.view(np.float64)
    np.divide(t1, tb, out=bins[:n1])
    np.divide(t2, tb, out=bins[n1:])
    np.floor(bins, out=bins)
    keys[:] = bins
    keys[:n1] += shift
    keys *= 2
    keys[n1:] += 1
    keys.sort(kind="stable")
    np.bitwise_and(keys, 1, out=is_stop, casting="unsafe")
    np.subtract(keys[1:], keys[:-1], out=gap)
    np.less_equal(gap, reach, out=near)
    np.logical_not(is_stop[:-1], out=mask)
    near &= mask  # starts whose next entry is in the window
    np.logical_and(near, is_stop[1:], out=mask)
    # np.compress: boolean indexing is about 3x slower on this dense mask
    nearest = spare[: np.count_nonzero(mask)]
    np.compress(mask, gap, out=nearest)
    nearest >>= 1
    counts = np.bincount(nearest, minlength=w + 1)
    # starts whose entry two places on may still be in the window
    two = mask[:-1]
    np.less_equal(gap[1:], reach, out=two)
    two &= near[:-1]
    cand = np.flatnonzero(two)
    d = 2
    while cand.size:
        cand = cand[cand + d < n]
        span = keys[cand + d] - keys[cand]
        inside = span <= reach
        cand, span = cand[inside], span[inside]
        counts += np.bincount(span[(span & 1) == 1] >> 1, minlength=w + 1)
        d += 1
    return counts


def coincidences_in_window(hist: Histogram, window_s: float) -> tuple[float, int]:
    """Counts within +-window of the peak bin, and the number of bins summed.

    Window 0 is the peak bin only.  Where the window reaches past the
    histogram edge only the bins inside are summed and counted.
    """
    if window_s < 0:
        raise ValueError("window cannot be negative")
    i_pk = int(np.argmax(hist.counts))
    center = hist.bin_index[i_pk]
    inside = np.abs(hist.bin_index - center) * hist.bin_s <= window_s + 1e-15
    return float(hist.counts[inside].sum()), int(inside.sum())


def write_stream(stream: EventStream, directory, prefix: str = "timestamps", extra_meta=None) -> dict:
    """Write the binary timestamp files and their JSON sidecar.

    One file per channel of little-endian unsigned 64-bit integers in
    picoseconds, plus ``<prefix>_meta.json`` describing seed, rates, and
    configuration.  Returns the sidecar dictionary.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    counts = {}
    channels = (("ch1", stream.channel1_s), ("ch2", stream.channel2_s))
    # one chunk of scaled times and of ticks, reused by both channels
    n = min(_CHUNK_EVENTS, max(data.size for _, data in channels))
    scaled, ticks = np.empty(n), np.empty(n, dtype="<u8")
    for ch, data in channels:
        p = directory / f"{prefix}_{ch}.bin"
        with open(p, "wb") as fh:
            for i in range(0, data.size, _CHUNK_EVENTS):
                part = data[i : i + _CHUNK_EVENTS]
                x, t = scaled[: part.size], ticks[: part.size]
                np.divide(part, TIMESTAMP_UNIT_S, out=x)
                np.rint(x, out=x)  # what np.round does at 0 decimals
                t[:] = x
                t.tofile(fh)
        paths[ch] = p.name
        counts[ch] = int(data.size)
    sidecar = {
        "format": "u64-le picoseconds",
        "rng": stream.meta.get("rng", RNG_ALGORITHM),
        "seed": stream.seed,
        "duration_s": stream.duration_s,
        "counts": counts,
        "files": paths,
    }
    for key in ("mode", "pair_rate_hz", "r1_hz", "r2_hz", "offset_s", "pair_survival"):
        if key in stream.meta:
            sidecar[key] = stream.meta[key]
    if extra_meta:
        sidecar.update(extra_meta)
    with open(directory / f"{prefix}_meta.json", "w") as fh:
        json.dump(sidecar, fh, indent=2)
    return sidecar


def read_stream(directory, prefix: str = "timestamps") -> EventStream:
    directory = Path(directory)
    with open(directory / f"{prefix}_meta.json") as fh:
        sidecar = json.load(fh)
    channels = {}
    for ch in ("ch1", "ch2"):
        ticks = np.fromfile(directory / sidecar["files"][ch], dtype="<u8")
        channels[ch] = ticks.astype(float) * TIMESTAMP_UNIT_S
    return EventStream(
        channel1_s=channels["ch1"],
        channel2_s=channels["ch2"],
        duration_s=float(sidecar["duration_s"]),
        seed=int(sidecar["seed"]),
        meta={k: sidecar[k] for k in sidecar if k not in ("files", "counts")},
    )
