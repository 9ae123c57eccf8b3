"""Monte Carlo timestamp generation for the coincidence experiment.

Pairs arrive as a Poisson process; the signal-idler separation is drawn
from the filtered (two-sided exponential) or unfiltered (round-trip
delta comb) correlation law.  Independent background singles top each
channel up to its measured total rate, so the accidental floor of the
analytic histogram model is reproduced exactly.  Everything is
deterministic under the seed; the generator is numpy's PCG64 and its
name is recorded in the stream metadata.
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
# Events per chunk of the histogram merge and the stream writer: their
# working memory is a few arrays of this length, not of the stream's.
_CHUNK_EVENTS = 1 << 20


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
    """
    if not 0.0 <= pair_survival <= 1.0:
        raise ValueError("pair survival must lie in [0, 1]")
    duration_s = det.acquisition_s
    bg1 = det.r1_hz - opo.pair_rate_hz
    bg2 = det.r2_hz - opo.pair_rate_hz
    if bg1 < 0 or bg2 < 0:
        raise ValueError("singles rates cannot be below the detected pair rate")
    rng = np.random.default_rng(seed)

    n_pairs = rng.poisson(opo.pair_rate_hz * duration_s * pair_survival)
    t_signal = rng.uniform(0.0, duration_s, n_pairs)
    if mode == "single":
        separation = rng.exponential(1.0 / opo.gamma_sum, n_pairs)
        sign = rng.integers(0, 2, n_pairs)
        sign *= 2
        sign -= 1
        separation *= sign
        del sign
    elif mode == "comb":
        teeth = g2_multi_comb(opo)
        p = teeth.weights / teeth.weights.sum()
        separation = rng.choice(teeth.delays_s, size=n_pairs, p=p)
    else:
        raise ValueError(f"unknown generation mode {mode!r}")
    # the idler times t_signal + separation + offset, formed in place
    t_idler = separation
    t_idler += t_signal
    t_idler += det.offset_s
    del separation

    n_bg1 = rng.poisson(bg1 * duration_s)
    n_bg2 = rng.poisson(bg2 * duration_s)
    ch1 = np.concatenate([t_signal, rng.uniform(0.0, duration_s, n_bg1)])
    del t_signal
    # uniform(0, d) draws are d*u with u < 1, so channel 1 lies in [0, d) already
    ch1.sort()
    ch2 = np.concatenate([t_idler, rng.uniform(0.0, duration_s, n_bg2)])
    del t_idler
    ch2 = ch2[(ch2 >= 0.0) & (ch2 < duration_s)]
    ch2.sort()
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
            "n_pairs_generated": int(n_pairs),
        },
    )


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
    monotone in time.
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
    i = lo = 0
    while i < t1.size:
        lo = first(t2, clock(t1[i]) + shift, lo)  # the first start's window opens
        j = min(i + _CHUNK_EVENTS, t1.size)
        if lo + _CHUNK_EVENTS < t2.size:
            # starts whose window opens after the stop _CHUNK_EVENTS on wait
            j = min(j, first(t1, clock(t2[lo + _CHUNK_EVENTS]) - shift + 1, i + 1))
        hi = first(t2, clock(t1[j - 1]) + shift + w + 1, lo)  # the last one's closes
        counts += _merged_counts(t1[i:j], t2[lo:hi], tb, shift, w)
        i = j
    return Histogram(
        bin_index=np.arange(k - n_side_bins, k + n_side_bins + 1),
        counts=counts.astype(float),
        bin_s=tb,
        accidental_floor_per_bin=det.accidental_floor_per_bin(stream.duration_s),
    )


def _merged_counts(t1: np.ndarray, t2: np.ndarray, tb: float, shift: int, w: int) -> np.ndarray:
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
    the nearest entry, memory a few int64 arrays of the merged length.
    The keys are int64, so the stream must span fewer than 2**62 clock
    bins (duration / bin_s < 2**62, offset included).
    """
    reach = 2 * w + 1  # key difference of a start and a stop w bins later
    n1 = t1.size
    keys = np.empty(n1 + t2.size, dtype=np.int64)
    keys[:n1] = np.floor(t1 / tb)
    keys[n1:] = np.floor(t2 / tb)
    keys[:n1] += shift
    keys *= 2
    keys[n1:] += 1
    keys.sort(kind="stable")
    is_stop = (keys & 1).astype(bool)
    gap = np.diff(keys)
    near = (gap <= reach) & ~is_stop[:-1]  # starts whose next entry is in the window
    # np.compress: boolean indexing is about 3x slower on this dense mask
    counts = np.bincount(np.compress(near & is_stop[1:], gap) >> 1, minlength=w + 1)
    # starts whose entry two places on may still be in the window
    cand = np.flatnonzero(near[:-1] & (gap[1:] <= reach))
    d = 2
    while cand.size:
        cand = cand[cand + d < keys.size]
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
    for ch, data in (("ch1", stream.channel1_s), ("ch2", stream.channel2_s)):
        p = directory / f"{prefix}_{ch}.bin"
        with open(p, "wb") as fh:
            for i in range(0, data.size, _CHUNK_EVENTS):
                np.round(data[i : i + _CHUNK_EVENTS] / TIMESTAMP_UNIT_S).astype("<u8").tofile(fh)
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
