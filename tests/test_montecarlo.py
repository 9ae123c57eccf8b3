"""Timestamp generation, clock binning, and agreement with the analytic model."""

import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from _oracles import coincidences_by_loop
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from fadofsim import montecarlo
from fadofsim.correlations import DetectorConfig, Histogram, detected_histogram, g2_multi_comb
from fadofsim.montecarlo import (
    EventStream,
    coincidences_in_window,
    generate_pair_events,
    mc_histogram,
    read_stream,
    write_stream,
)
from fadofsim.opo import OpoConfig


def _stream(ch1, ch2, duration=1.0):
    return EventStream(
        channel1_s=np.asarray(ch1, dtype=float),
        channel2_s=np.asarray(ch2, dtype=float),
        duration_s=duration,
        seed=0,
    )


# Chunk lengths that split the few-event streams of the oracle tests.
_SMALL_CHUNKS = (1, 2, 3, 7)


def _chunked(chunk, fn, *args, **kwargs):
    """fn(*args, **kwargs) with the merge and writer chunk set to chunk events."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_CHUNK_EVENTS", chunk)
        return fn(*args, **kwargs)


def _traced_peak(fn, *args, **kwargs):
    """Peak bytes allocated while fn runs, beyond what was live before, and its result."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_generation_deterministic_under_seed():
    opo = OpoConfig(pair_rate_hz=1e3)
    det = DetectorConfig(r1_hz=2e3, r2_hz=2e3, acquisition_s=2.0)
    a = generate_pair_events(opo, det, "single", seed=11)
    b = generate_pair_events(opo, det, "single", seed=11)
    assert np.array_equal(a.channel1_s, b.channel1_s)
    assert np.array_equal(a.channel2_s, b.channel2_s)
    c = generate_pair_events(opo, det, "single", seed=12)
    assert not np.array_equal(a.channel1_s, c.channel1_s)


@pytest.mark.parametrize("mode", ["single", "comb"])
@pytest.mark.parametrize("duration", [0.1, 1.0, 2.0, 300.0])
def test_generated_channels_are_sorted_within_the_acquisition(mode, duration):
    # numpy draws uniform(0, d) as d*u with u at most 1 - 2**-53, which
    # rounds below d for every d; channel 1 is not masked on that basis
    assert duration * (1.0 - 2.0**-53) < duration
    opo = OpoConfig(pair_rate_hz=50.0)
    det = DetectorConfig(r1_hz=200.0, r2_hz=150.0, acquisition_s=duration)
    stream = generate_pair_events(opo, det, mode, seed=7)
    for channel in (stream.channel1_s, stream.channel2_s):
        assert channel.size > 0
        assert np.all(np.diff(channel) >= 0)
        assert channel[0] >= 0.0 and channel[-1] < duration


def test_written_files_byte_identical_across_runs(tmp_path):
    opo = OpoConfig(pair_rate_hz=1e3)
    det = DetectorConfig(r1_hz=2e3, r2_hz=2e3)

    def digest(directory):
        stream = generate_pair_events(opo, det, "comb", seed=9)
        write_stream(stream, directory)
        out = {}
        for name in ("timestamps_ch1.bin", "timestamps_ch2.bin"):
            out[name] = hashlib.sha256((directory / name).read_bytes()).hexdigest()
        return out

    first = digest(tmp_path / "a")
    second = digest(tmp_path / "b")
    assert first == second


def test_clock_binning_semantics():
    # both events in one clock bin land in difference bin 0; crossing a
    # bin edge lands in bin 1 even when the raw delay is under a bin
    det = DetectorConfig(bin_s=1e-9, offset_s=0.0, r1_hz=0.0, r2_hz=0.0)
    same_bin = _stream([5.2e-9], [5.7e-9])
    h = mc_histogram(same_bin, det, n_side_bins=4)
    assert h.counts[h.bin_index == 0][0] == 1.0
    assert h.counts.sum() == 1.0

    next_bin = _stream([5.2e-9], [6.1e-9])
    h = mc_histogram(next_bin, det, n_side_bins=4)
    assert h.counts[h.bin_index == 1][0] == 1.0

    straddle = _stream([5.9e-9], [6.1e-9])
    h = mc_histogram(straddle, det, n_side_bins=4)
    assert h.counts[h.bin_index == 1][0] == 1.0


def test_clock_binning_is_multi_stop():
    det = DetectorConfig(bin_s=1e-9, offset_s=0.0, r1_hz=0.0, r2_hz=0.0)
    # one start, two stops in the window
    h = mc_histogram(_stream([1.1e-9], [1.2e-9, 3.4e-9]), det, n_side_bins=4)
    assert h.counts[h.bin_index == 0][0] == 1.0
    assert h.counts[h.bin_index == 2][0] == 1.0
    # two starts sharing one stop both count
    h = mc_histogram(_stream([1.1e-9, 2.1e-9], [2.5e-9]), det, n_side_bins=4)
    assert h.counts[h.bin_index == 0][0] == 1.0
    assert h.counts[h.bin_index == 1][0] == 1.0
    # events outside the window are ignored
    h = mc_histogram(_stream([1.1e-9], [9.6e-9]), det, n_side_bins=4)
    assert h.counts.sum() == 0.0


# Timestamps on a quarter-bin lattice over 12 bins: repeated values give
# equal timestamps within and across channels, several events share a
# clock bin, windows hold bursts of stops, and 0 puts events at t = 0.
_quarter_ticks = st.lists(st.integers(0, 48), max_size=30).map(sorted)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    ch1=_quarter_ticks,
    ch2=_quarter_ticks,
    bin_s=st.sampled_from([1e-9, 0.3e-9, 2.5e-9]),
    offset_bin=st.integers(-6, 6),
    n_side=st.integers(0, 8),
)
@example(ch1=[], ch2=[0, 5], bin_s=1e-9, offset_bin=0, n_side=2)
@example(ch1=[0, 9], ch2=[], bin_s=1e-9, offset_bin=0, n_side=2)
@example(ch1=[], ch2=[], bin_s=1e-9, offset_bin=0, n_side=0)
@example(ch1=[0, 0, 4], ch2=[0, 0, 1, 3, 4, 4, 6, 9, 12], bin_s=1e-9, offset_bin=0, n_side=0)
@example(ch1=[0, 0], ch2=[0, 0, 2, 5, 8, 13, 21, 27, 30], bin_s=1e-9, offset_bin=1, n_side=4)
# four starts in clock bin 1, split by every small chunk length
@example(ch1=[4, 4, 5, 7, 9], ch2=[3, 4, 6, 7, 9, 12], bin_s=1e-9, offset_bin=0, n_side=1)
# each stop shares the clock bin of the last start of a chunk of 1 or 2
@example(ch1=[1, 5, 9, 13], ch2=[6, 10, 15], bin_s=1e-9, offset_bin=0, n_side=0)
# stops ahead of their starts, and more stops than starts per window
@example(ch1=[8, 9, 20], ch2=[0, 1, 2, 3, 4, 5, 8, 12, 13], bin_s=1e-9, offset_bin=-3, n_side=1)
def test_mc_histogram_matches_loop_oracle(ch1, ch2, bin_s, offset_bin, n_side):
    quarter = bin_s / 4
    t1 = [q * quarter for q in ch1]
    t2 = [q * quarter for q in ch2]
    det = DetectorConfig(bin_s=bin_s, offset_s=offset_bin * bin_s, r1_hz=0.0, r2_hz=0.0)
    assert det.offset_bin == offset_bin
    stream = _stream(t1, t2)
    expected = coincidences_by_loop(t1, t2, bin_s, offset_bin, n_side)
    h = mc_histogram(stream, det, n_side_bins=n_side)
    assert h.bin_index.tolist() == list(range(offset_bin - n_side, offset_bin + n_side + 1))
    assert h.counts.tolist() == expected
    for chunk in _SMALL_CHUNKS:
        h = _chunked(chunk, mc_histogram, stream, det, n_side_bins=n_side)
        assert h.counts.tolist() == expected, f"chunk of {chunk}"


def test_mc_histogram_matches_loop_oracle_on_dense_streams():
    # up to about 200 stops per window, so the match runs hundreds of
    # merged entries deep
    rng = np.random.default_rng(3)
    det = DetectorConfig(bin_s=1e-9, offset_s=-7e-9, r1_hz=0.0, r2_hz=0.0)
    for n_side in (0, 3, 30):
        t1 = np.sort(rng.uniform(0.0, 120e-9, 300))
        t2 = np.sort(rng.uniform(0.0, 120e-9, 400))
        h = mc_histogram(_stream(t1, t2), det, n_side_bins=n_side)
        expected = coincidences_by_loop(t1.tolist(), t2.tolist(), 1e-9, -7, n_side)
        assert h.counts.tolist() == expected
        assert h.counts.sum() > 0
        for chunk in _SMALL_CHUNKS:
            h = _chunked(chunk, mc_histogram, _stream(t1, t2), det, n_side_bins=n_side)
            assert h.counts.tolist() == expected, f"chunk of {chunk}"


@pytest.mark.parametrize("chunk", [2, 4, 7])
def test_merge_buffers_grow_mid_call_for_a_dense_burst(chunk, monkeypatch):
    # a sparse stretch merges in the buffers allocated for the first chunk;
    # bursts of 40 and then 80 stops within one start's window need more
    # entries than a chunk's capacity, so the buffers grow, twice, and the
    # later chunks reuse the grown ones
    bin_s = 1e-9
    rng = np.random.default_rng(chunk)
    sparse = np.arange(0.0, 3000.0, 100.0)
    t1 = np.concatenate([sparse, [3000.0, 4000.0], 5000.0 + sparse])
    t2 = np.sort(np.concatenate([
        sparse + 1.25,
        3000.0 + rng.integers(-12, 13, 40) / 4,
        4000.0 + rng.integers(-12, 13, 80) / 4,
        5000.0 + sparse + 2.5,
    ]))
    t1, t2 = t1 * 1e-9, t2 * 1e-9
    det = DetectorConfig(bin_s=bin_s, offset_s=0.0, r1_hz=0.0, r2_hz=0.0)
    buffers = []
    merge = montecarlo._merged_counts

    def spy(t1, t2, tb, shift, w, words, flags):
        assert words.shape[1] == flags.shape[1] >= t1.size + t2.size
        buffers.append(words)
        return merge(t1, t2, tb, shift, w, words, flags)

    monkeypatch.setattr(montecarlo, "_merged_counts", spy)
    h = _chunked(chunk, mc_histogram, _stream(t1, t2, 6e-6), det, n_side_bins=3)
    expected = coincidences_by_loop(t1.tolist(), t2.tolist(), bin_s, 0, 3)
    assert h.counts.tolist() == expected
    assert sum(expected) >= 40 + 80
    sizes = [words.shape[1] for words in buffers]
    # the float times put a few of a burst's stops outside its window
    assert sizes == sorted(sizes) and sizes.count(2 * chunk) > 2 and sizes[-1] > 64
    # one allocation per size: reused until a chunk needs more
    assert len({id(words) for words in buffers}) == len(set(sizes)) == 3


@pytest.mark.parametrize("n_stops", [8, 64, 512])
def test_mc_histogram_memory_is_bounded_by_the_chunk(n_stops):
    # 64 chunks of starts against 8, 64 or 512 chunks of stops: either
    # channel may be the one that sets the chunk edges
    chunk = 1 << 10
    rng = np.random.default_rng(n_stops)
    t1 = np.sort(rng.uniform(0.0, 5.0, 64 * chunk))
    t2 = np.sort(rng.uniform(0.0, 5.0, n_stops * chunk))
    det = DetectorConfig(bin_s=1e-9, offset_s=50e-9, r1_hz=0.0, r2_hz=0.0)
    peak, _ = _traced_peak(_chunked, chunk, mc_histogram, _stream(t1, t2, 5.0), det)
    assert peak < 16 * 8 * chunk, f"{peak} bytes traced for {t1.nbytes + t2.nbytes} of stream"


@pytest.mark.parametrize("mode", ["single", "comb"])
def test_generation_memory_is_about_twice_its_output(mode):
    opo = OpoConfig(pair_rate_hz=1e4)
    det = DetectorConfig(offset_s=50e-9, r1_hz=1.5e4, r2_hz=1.2e4, acquisition_s=10.0)
    # a first call pays the lazy imports of seeding, which are no working set
    generate_pair_events(opo, replace(det, acquisition_s=1e-3), mode, seed=1)
    peak, stream = _traced_peak(generate_pair_events, opo, det, mode, seed=49)
    output_bytes = stream.channel1_s.nbytes + stream.channel2_s.nbytes
    assert peak < 2 * output_bytes, f"{peak} bytes traced for {output_bytes} of output"


@pytest.mark.parametrize("mode", ["single", "comb"])
def test_generation_memory_is_its_output_plus_a_few_chunks(mode):
    chunk = 1 << 12
    opo = OpoConfig(pair_rate_hz=1e4)
    det = DetectorConfig(offset_s=50e-9, r1_hz=1.5e4, r2_hz=1.2e4, acquisition_s=10.0)
    # a first call pays the lazy imports of seeding, which are no working set
    generate_pair_events(opo, replace(det, acquisition_s=1e-3), mode, seed=1)
    peak, stream = _traced_peak(_chunked, chunk, generate_pair_events, opo, det, mode, seed=49)
    output_bytes = stream.channel1_s.nbytes + stream.channel2_s.nbytes
    # the background reservation's 10 sqrt(mean) + 64 spare slots per
    # channel (31 kB here) count against the chunks
    assert peak < output_bytes + 4 * 8 * chunk, f"{peak} bytes traced for {output_bytes} of output"


def _digest(array, dtype):
    return hashlib.sha256(np.asarray(array).astype(dtype).tobytes()).hexdigest()


# Short acquisitions: (OPO pair rate, detector, mode, pair survival, seed).
_GOLDEN_CASES = {
    "single": (1e4, DetectorConfig(acquisition_s=2.0), "single", 1.0, 3),
    "comb": (1e4, DetectorConfig(acquisition_s=2.0), "comb", 1.0, 5),
    "half_survival": (1e4, DetectorConfig(acquisition_s=2.0), "single", 0.5, 7),
    "no_pairs": (0.0, DetectorConfig(acquisition_s=2.0), "single", 1.0, 11),
    "no_background": (1e4, DetectorConfig(r1_hz=1e4, r2_hz=1e4, acquisition_s=2.0), "comb", 1.0, 13),
    # idlers of the first quarter second fall below 0, or of the last past the end
    "idlers_before_start": (1e4, DetectorConfig(offset_s=-0.25), "single", 1.0, 17),
    "idlers_after_end": (1e4, DetectorConfig(offset_s=0.25), "comb", 1.0, 19),
}
# Event counts, sha256 of the little-endian float64 channels and of the
# int64 histogram counts (32 side bins), their total, and the pairs drawn.
# Taken before generation drew into reserved buffers; they hold numpy's
# Generator algorithms as well as this module's code.
_GOLDEN_STREAMS = {
    "single": (29761, 23673, "ab592b39485dd970ba5b3ff518337374371c8494d76bff893ffdd3acd506c7cb",
               "ed8c54fafd6d30b035a69c9b758958cd728d45f90c450b963489323b732187bd",
               "6b73727c77b4302d1f080c8d8862ba46a65aa4a737532dc44a9ca99fe691d0d9", 16165, 19766),
    "comb": (29934, 24135, "a123ca41dd7b3784d5e5383afba2bb04becc91f1c543427aff9e61e8b6bc89ba",
             "504741336dead9abae1451c4e119c12d9f78220fb97abb44a289551b59affe73",
             "c040aed15502793704b6f8abaa081103679b042402f529858e6f33ee1d61a56b", 16553, 20137),
    "half_survival": (20128, 14091, "25406acbc45b0b2ad2ada9a7105e820dfbfe1fc82a0092dbc5865bffabef4b93",
                      "b687b270ee483355e03c3e37c4f7930f71f05798ea7835a9297111ca09ac8e46",
                      "ce3bb9479aabda6481c18ed8b9c2e6a350ae0c2cbe8804bdc23c357c3ed9753d", 8218, 10036),
    "no_pairs": (29774, 24045, "0436c50f238e5f93dd6acac896c570a42a39761fe0c77ef552a1c5dc2dcf2b44",
                 "7ce90213f6c95eeeb308fd16f2ab8bfdd7d544e177d2c1a5bcb1561621d2d390",
                 "9821332be8797c8439e57f15ba45e3d258b94d3a1ab752309b92de594dfbd3d6", 21, 0),
    "no_background": (20179, 20179, "08be2181dfcbf10891c62ac12da25fb947e30527218518797c5a220d35f57622",
                      "02fdd9ba5fe5e536a924488c472f2378753dc4d2c6a237edfdda16f94fa30451",
                      "05f6bdef61f7f707bcb4fe4f44395d5dc874f28028086920b35525ca30093ff9", 16633, 20179),
    "idlers_before_start": (15111, 9611, "f58c593112105d4e6b01512801a9f3abb7bab2b135bad6e9ba7b84ba50337418",
                            "5be354c3b14289071eecdedfd8ccbbfb2d30f549d8b11d2bfa7fe546ab002f9b",
                            "9b708e63036c27be4e44da1940caffc08483e36b0e9f5d433b0f9a73c9c91876", 6208, 10115),
    "idlers_after_end": (14898, 9407, "ada1553142ec7f02c7c74c612e8d73053d24f8af7db377e93e4df53782ee9819",
                         "2357d957cc602532dfd55834e78eab49a264d87ac862d8af687d500b81c26430",
                         "8d5a618498ceea3cb4d5068f4d0fdf8686dd2c1503e0bdd92096d58805963862", 6155, 9977),
}


def _golden_digests(case):
    rate, det, mode, survival, seed = _GOLDEN_CASES[case]
    stream = generate_pair_events(OpoConfig(pair_rate_hz=rate), det, mode, seed, survival)
    hist = mc_histogram(stream, det, n_side_bins=32)
    return (
        stream.channel1_s.size,
        stream.channel2_s.size,
        _digest(stream.channel1_s, "<f8"),
        _digest(stream.channel2_s, "<f8"),
        _digest(hist.counts, "<i8"),
        int(hist.counts.sum()),
        stream.meta["n_pairs_generated"],
    )


@pytest.mark.parametrize("case", sorted(_GOLDEN_CASES))
def test_streams_and_histograms_match_their_golden_digests(case):
    assert _golden_digests(case) == _GOLDEN_STREAMS[case]


@pytest.mark.parametrize("case", sorted(_GOLDEN_CASES))
def test_a_background_count_beyond_the_reservation_grows_the_buffer(case, monkeypatch):
    # no slot reserved: every channel with background grows its buffer once
    monkeypatch.setattr(montecarlo, "_background_reserve", lambda mean: 0)
    assert _golden_digests(case) == _GOLDEN_STREAMS[case]


@pytest.mark.parametrize("mode", ["single", "comb"])
def test_chunked_draws_give_the_unchunked_streams(mode):
    # the signs are drawn in chunks of _CHUNK_EVENTS, the comb delays in
    # eighths of it; both loops meet their edges around n_pairs
    opo = OpoConfig(pair_rate_hz=1e4)
    det = DetectorConfig(acquisition_s=0.2)
    whole = _chunked(1 << 62, generate_pair_events, opo, det, mode, seed=23)
    n = whole.meta["n_pairs_generated"]
    assert n > 1000
    for chunk in (1, 7, n - 1, n, n + 1, 8 * (n - 1), 8 * n, 8 * (n + 1)):
        stream = _chunked(chunk, generate_pair_events, opo, det, mode, seed=23)
        for got, want in ((stream.channel1_s, whole.channel1_s), (stream.channel2_s, whole.channel2_s)):
            assert got.tobytes() == want.tobytes(), f"chunk of {chunk}"


# Tooth weights: the default comb's 263, zeros at either end and inside,
# one tooth, and teeth far lighter than a guide bucket is wide.
_TOOTH_WEIGHTS = {
    "default_comb": g2_multi_comb(OpoConfig(pair_rate_hz=1e4)).weights,
    "leading_zeros": np.array([0.0, 0.0, 1.0, 2.0, 3.0]),
    "interior_zeros": np.array([1.0, 0.0, 0.0, 2.0, 0.0, 3.0]),
    "trailing_zeros": np.array([3.0, 2.0, 1.0, 0.0, 0.0]),
    "one_tooth": np.array([2.5]),
    "light_tails": np.concatenate([np.full(50, 1e-9), [1.0], np.full(50, 1e-9)]),
}


def _search_probes(cdf, nb):
    """Draws in [0, 1) at every edge of a guide search: 0, 1 - 2**-53,
    the bucket edges and the CDF values, each with its float neighbours."""
    edges = np.concatenate([[0.0, 1.0 - 2.0**-53], np.arange(nb) / nb, cdf])
    u = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    return u[(u >= 0.0) & (u < 1.0)]


@pytest.mark.parametrize("weights", sorted(_TOOTH_WEIGHTS))
def test_guide_search_is_searchsorted_right(weights):
    p = _TOOTH_WEIGHTS[weights] / _TOOTH_WEIGHTS[weights].sum()
    cdf, guide = montecarlo._guide_table(p)
    assert guide.size >= 2 * p.size and guide.size & (guide.size - 1) == 0
    rng = np.random.default_rng(p.size)
    u = np.concatenate([_search_probes(cdf, guide.size), rng.random(10_000)])
    got = montecarlo._guide_search(cdf, guide, u)
    np.testing.assert_array_equal(got, np.searchsorted(cdf, u, side="right"))
    # the CDF is Generator.choice's: the same draws pick the same teeth
    chosen = np.random.default_rng(7).choice(p.size, size=10_000, p=p)
    drawn = montecarlo._guide_search(cdf, guide, np.random.default_rng(7).random(10_000))
    np.testing.assert_array_equal(drawn, chosen)


def test_pair_separations_follow_two_sided_exponential():
    # background-free stream; each start's nearest stop is its partner
    opo = OpoConfig(pair_rate_hz=1e4)
    det = DetectorConfig(offset_s=50e-9, r1_hz=1e4, r2_hz=1e4, acquisition_s=100.0)
    stream = generate_pair_events(opo, det, "single", seed=41)
    idx = np.searchsorted(stream.channel2_s, stream.channel1_s)
    idx = np.clip(idx, 1, stream.channel2_s.size - 1)
    left = stream.channel2_s[idx - 1]
    right = stream.channel2_s[idx]
    nearest = np.where(
        np.abs(left - stream.channel1_s) < np.abs(right - stream.channel1_s), left, right
    )
    deltas = nearest - stream.channel1_s - det.offset_s
    result = stats.kstest(deltas, stats.laplace(scale=1.0 / opo.gamma_sum).cdf)
    assert result.pvalue > 1e-3


def test_mc_histogram_matches_analytic_single():
    opo = OpoConfig(pair_rate_hz=1e4)
    det = DetectorConfig(offset_s=50e-9, r1_hz=1.5e4, r2_hz=1.2e4, acquisition_s=10.0)
    stream = generate_pair_events(opo, det, "single", seed=42)
    observed = mc_histogram(stream, det, n_side_bins=128)
    expected = detected_histogram(opo, det, "single", n_side_bins=128)
    keep = expected.counts >= 10.0
    stat = np.sum((observed.counts[keep] - expected.counts[keep]) ** 2 / expected.counts[keep])
    p = stats.chi2.sf(stat, df=int(keep.sum()))
    assert p > 1e-3


def test_mc_histogram_matches_analytic_comb():
    opo = OpoConfig(pair_rate_hz=1e4)
    det = DetectorConfig(offset_s=50e-9, r1_hz=5e4, r2_hz=5e4, acquisition_s=10.0)
    stream = generate_pair_events(opo, det, "comb", seed=43)
    observed = mc_histogram(stream, det, n_side_bins=300)
    expected = detected_histogram(opo, det, "comb", n_side_bins=300)
    keep = expected.counts >= 10.0
    assert keep.all()
    stat = np.sum((observed.counts[keep] - expected.counts[keep]) ** 2 / expected.counts[keep])
    p = stats.chi2.sf(stat, df=int(keep.sum()))
    assert p > 1e-3


def test_zero_pair_rate_gives_flat_floor():
    opo = OpoConfig(pair_rate_hz=0.0)
    det = DetectorConfig(offset_s=50e-9, r1_hz=2e4, r2_hz=2e4, acquisition_s=5.0)
    stream = generate_pair_events(opo, det, "single", seed=44)
    hist = mc_histogram(stream, det, n_side_bins=64)
    floor = hist.accidental_floor_per_bin
    assert hist.counts.mean() == pytest.approx(floor, rel=0.15)
    assert hist.counts.max() < floor + 6.0 * np.sqrt(floor)


def test_coincidence_window_coverage():
    # a +-50 ns window captures 1 - exp(-gamma * 50 ns) of the true pairs
    opo = OpoConfig(pair_rate_hz=1e4)
    det = DetectorConfig(offset_s=50e-9, r1_hz=1e4, r2_hz=1e4, acquisition_s=20.0)
    stream = generate_pair_events(opo, det, "single", seed=45)
    hist = mc_histogram(stream, det, n_side_bins=256)
    n_pairs = stream.meta["n_pairs_generated"]
    captured, n_bins = coincidences_in_window(hist, 50e-9)
    assert n_bins == 101
    expected_frac = 1.0 - np.exp(-opo.gamma_sum * 50e-9)
    assert expected_frac == pytest.approx(0.9286, abs=2e-4)
    assert captured / n_pairs == pytest.approx(expected_frac, rel=0.02)


def test_coincidences_in_window_edges():
    hist = Histogram(
        bin_index=np.arange(46, 55),
        counts=np.array([1.0, 2, 3, 4, 10, 4, 3, 2, 1]),
        bin_s=1e-9,
    )
    assert coincidences_in_window(hist, 0.0) == (10.0, 1)
    assert coincidences_in_window(hist, 1e-9) == (18.0, 3)
    # a window past the histogram edges sums and counts only the bins inside
    assert coincidences_in_window(hist, 1e-6) == (hist.counts.sum(), 9)
    with pytest.raises(ValueError, match="window"):
        coincidences_in_window(hist, -1e-9)


def test_coincidences_in_window_clipped_at_one_edge():
    hist = Histogram(
        bin_index=np.arange(46, 55),
        counts=np.array([1.0, 2, 3, 4, 5, 6, 7, 8, 10]),
        bin_s=1e-9,
    )
    # the peak is the last bin: of a +-2-bin window only 3 bins lie inside
    assert coincidences_in_window(hist, 2e-9) == (25.0, 3)


def test_pair_survival_thins_pairs_only():
    opo = OpoConfig(pair_rate_hz=2e4)
    det = DetectorConfig(offset_s=50e-9, r1_hz=2e4, r2_hz=2e4, acquisition_s=10.0)
    full = generate_pair_events(opo, det, "single", seed=46)
    kept = generate_pair_events(opo, det, "single", seed=46, pair_survival=0.25)
    n_full = full.meta["n_pairs_generated"]
    n_kept = kept.meta["n_pairs_generated"]
    assert n_kept < 0.3 * n_full
    assert n_kept == pytest.approx(0.25 * n_full, rel=0.05)


def test_generation_validation():
    opo = OpoConfig(pair_rate_hz=1e4)
    det = DetectorConfig(r1_hz=1.5e4, r2_hz=1.2e4)
    with pytest.raises(ValueError, match="survival"):
        generate_pair_events(opo, det, "single", seed=1, pair_survival=-0.1)
    with pytest.raises(ValueError, match="acquisition time"):
        generate_pair_events(opo, DetectorConfig(acquisition_s=0.0), "single", seed=1)
    with pytest.raises(ValueError, match="singles rates"):
        generate_pair_events(opo, DetectorConfig(r1_hz=5e3, r2_hz=1.2e4), "single", 1)
    with pytest.raises(ValueError, match="unknown generation mode"):
        generate_pair_events(opo, det, "pairs", seed=1)


@pytest.mark.parametrize("n_events", [0, 1, 6, 7, 8, 31])
def test_write_stream_bytes_around_the_chunk_length(tmp_path, n_events):
    # chunks of 7 events: none, one short, one exact, one and a bit, four and a bit
    rng = np.random.default_rng(n_events)
    stream = _stream(np.sort(rng.uniform(0.0, 300.0, n_events)),
                     np.sort(rng.uniform(0.0, 300.0, n_events + 7)), 300.0)
    sidecar = _chunked(7, write_stream, stream, tmp_path)
    for ch, data in (("ch1", stream.channel1_s), ("ch2", stream.channel2_s)):
        expected = np.round(data / 1e-12).astype("<u8").tobytes()
        assert (tmp_path / sidecar["files"][ch]).read_bytes() == expected
        assert sidecar["counts"][ch] == data.size


def _ticks_at_half():
    """Times whose quotient by the 1 ps tick is exactly k + 1/2, even and odd k."""
    times = [t for t in ((k + 0.5) * 1e-12 for k in range(1, 400)) if (t / 1e-12) % 1 == 0.5]
    assert {int(t / 1e-12) % 2 for t in times} == {0, 1}
    return times


@pytest.mark.parametrize("longer", ["ch1", "ch2"])
def test_write_stream_rounds_as_np_round_at_zeros_ties_and_the_last_tick(tmp_path, longer):
    # zeros, half-tick ties (rounded to even) and the largest time below
    # 300 s, written in chunks of 7 with either channel the longer one
    special = np.array([0.0, 0.0, *_ticks_at_half(), np.nextafter(300.0, 0.0)])
    short = np.array([0.0, 1.5e-12, np.nextafter(300.0, 0.0)])
    ch1, ch2 = (special, short) if longer == "ch1" else (short, special)
    stream = _stream(ch1, ch2, 300.0)
    sidecar = _chunked(7, write_stream, stream, tmp_path)
    for ch, data in (("ch1", ch1), ("ch2", ch2)):
        expected = np.round(data / 1e-12).astype("<u8").tobytes()
        assert (tmp_path / sidecar["files"][ch]).read_bytes() == expected


def test_write_read_round_trip(tmp_path):
    opo = OpoConfig(pair_rate_hz=1e3)
    det = DetectorConfig(r1_hz=2e3, r2_hz=2e3, acquisition_s=2.0)
    stream = generate_pair_events(opo, det, "comb", seed=48)
    sidecar = write_stream(stream, tmp_path, extra_meta={"note": "round trip"})
    assert sidecar["format"] == "u64-le picoseconds"
    assert sidecar["rng"] == "PCG64"
    assert sidecar["counts"]["ch1"] == stream.channel1_s.size
    assert sidecar["note"] == "round trip"
    raw = np.fromfile(tmp_path / sidecar["files"]["ch1"], dtype="<u8")
    assert raw.size == stream.channel1_s.size

    loaded = read_stream(tmp_path)
    assert loaded.seed == 48
    assert loaded.duration_s == 2.0
    assert loaded.meta["mode"] == "comb"
    # picosecond quantization bounds the round-trip error
    assert np.abs(loaded.channel1_s - stream.channel1_s).max() <= 0.5e-12
    assert np.abs(loaded.channel2_s - stream.channel2_s).max() <= 0.5e-12
