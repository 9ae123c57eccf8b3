"""Pair correlation functions, coincidence histograms, and their estimators."""

import numpy as np
import pytest

from fadofsim import correlations
from fadofsim.correlations import (
    DetectorConfig,
    Histogram,
    detected_histogram,
    g2_multi_comb,
    g2_multi_exact,
    g2_single,
    g2_single_fwhm,
    histogram_envelope_fwhm,
    tooth_modulation,
)
from fadofsim.opo import OpoConfig

OPO = OpoConfig()
TAU = OPO.roundtrip_s


def test_g2_single_shape():
    t = np.linspace(-100e-9, 100e-9, 2001)
    g = g2_single(t, OPO)
    assert g2_single(0.0, OPO) == 1.0
    assert np.array_equal(g, g2_single(-t, OPO))
    assert np.allclose(g, np.exp(-np.abs(t) * OPO.gamma_sum), rtol=1e-15)


def test_g2_single_fwhm_value():
    # 2 ln2 over the summed cavity decay rates
    assert g2_single_fwhm(OPO) == pytest.approx(26.266142875315666e-9, rel=1e-12)
    half = 0.5 * g2_single_fwhm(OPO)
    assert g2_single(half, OPO) == pytest.approx(0.5, rel=1e-12)


def test_g2_multi_exact_peaks_at_round_trips():
    n_modes = 5
    m = 2 * n_modes + 1
    delays = np.array([-2.0, 0.0, 1.0, 3.0]) * TAU
    g = g2_multi_exact(delays, OPO, n_modes)
    assert np.allclose(g, m * g2_single(delays, OPO), rtol=1e-9)


def test_g2_multi_exact_minimum_between_peaks():
    # halfway between round trips the squared kernel is 1, so the
    # correlation drops to envelope / (2N+1)
    n_modes = 5
    m = 2 * n_modes + 1
    delays = np.array([0.5, 1.5, -2.5]) * TAU
    g = g2_multi_exact(delays, OPO, n_modes)
    assert np.allclose(g, g2_single(delays, OPO) / m, rtol=1e-9)


def test_g2_multi_exact_period_average_is_envelope():
    # the squared Dirichlet factor averages to one over a period; uniform
    # sampling is exact for trigonometric polynomials
    n_modes = 7
    k = 4096
    t = (np.arange(k) / k - 0.5) * TAU
    ratio = g2_multi_exact(t, OPO, n_modes) / g2_single(t, OPO)
    assert ratio.mean() == pytest.approx(1.0, rel=1e-12)


def test_g2_multi_exact_validates_mode_count():
    with pytest.raises(ValueError, match="mode"):
        g2_multi_exact(np.zeros(3), OPO, 0)


def test_comb_teeth_weights_and_truncation():
    teeth = g2_multi_comb(OPO)
    n_cut = (teeth.delays_s.size - 1) // 2
    assert n_cut == 131
    i0 = n_cut
    assert teeth.weights[i0] == 1.0
    assert np.array_equal(teeth.weights, teeth.weights[::-1])
    n = np.arange(-n_cut, n_cut + 1)
    assert np.allclose(teeth.delays_s, n * TAU)
    assert np.allclose(teeth.weights, np.exp(-np.abs(n) * TAU * OPO.gamma_sum), rtol=1e-12)


def test_comb_teeth_weight_sum_matches_geometric_series():
    teeth = g2_multi_comb(OPO)
    x = TAU * OPO.gamma_sum
    assert teeth.weights.sum() == pytest.approx(1.0 / np.tanh(0.5 * x), rel=1e-3)


def test_detector_config_offset_split():
    det = DetectorConfig(bin_s=1e-9, offset_s=50.3e-9)
    assert det.offset_bin == 50
    det = DetectorConfig(bin_s=1e-9, offset_s=49.7e-9)
    assert det.offset_bin == 50


def test_detector_config_validation():
    with pytest.raises(ValueError, match="bin width"):
        DetectorConfig(bin_s=0.0)
    with pytest.raises(ValueError, match="bin width"):
        DetectorConfig(acquisition_s=-1.0)
    with pytest.raises(ValueError, match="singles"):
        DetectorConfig(r1_hz=-1.0)


def test_histogram_accidental_floor():
    det = DetectorConfig(bin_s=1e-9, r1_hz=1.5e4, r2_hz=1.2e4, acquisition_s=2.0)
    hist = detected_histogram(OPO, det, "single", n_side_bins=512)
    assert hist.accidental_floor_per_bin == pytest.approx(0.36, rel=1e-12)
    assert det.accidental_floor_per_bin(det.acquisition_s) == hist.accidental_floor_per_bin
    # 512 bins out the true-coincidence tail is negligible
    far = hist.counts[0]
    assert far == pytest.approx(hist.accidental_floor_per_bin, rel=1e-6)


def test_histogram_normalization_single():
    det = DetectorConfig(r1_hz=0.0, r2_hz=0.0)
    hist = detected_histogram(OPO, det, "single", n_side_bins=512)
    total = hist.counts.sum()
    expected = OPO.pair_rate_hz * det.acquisition_s
    assert total == pytest.approx(expected, rel=1e-9)


def test_histogram_normalization_comb():
    det = DetectorConfig(r1_hz=0.0, r2_hz=0.0)
    hist = detected_histogram(OPO, det, "comb", n_side_bins=600)
    total = hist.counts.sum()
    expected = OPO.pair_rate_hz * det.acquisition_s
    # tents fully inside the window partition unity
    assert total == pytest.approx(expected, rel=1e-12)


def test_histogram_single_tooth_splits_between_bins(monkeypatch):
    # with a tooth cutoff keeping only the central tooth, a channel
    # offset of 0.3 bins splits the coincidences 70/30 between two bins
    monkeypatch.setattr(correlations, "COMB_TOOTH_CUTOFF", 0.95)
    det = DetectorConfig(offset_s=50.3e-9, r1_hz=0.0, r2_hz=0.0)
    hist = detected_histogram(OPO, det, "comb", n_side_bins=4)
    nonzero = hist.counts > 0
    assert list(hist.bin_index[nonzero]) == [50, 51]
    total = OPO.pair_rate_hz * det.acquisition_s
    assert hist.counts[nonzero][0] == pytest.approx(0.7 * total, rel=1e-9)
    assert hist.counts[nonzero][1] == pytest.approx(0.3 * total, rel=1e-9)


def test_histogram_matches_brute_force_clock_binning():
    # both channels are digitized against the same free-running clock;
    # the analytic histogram must match direct quadrature of that model
    det = DetectorConfig(offset_s=50.3e-9, r1_hz=0.0, r2_hz=0.0)
    hist = detected_histogram(OPO, det, "single", n_side_bins=6)
    g = OPO.gamma_sum
    tb = det.bin_s
    d = np.linspace(det.offset_s - 400e-9, det.offset_s + 400e-9, 2_000_001)
    lap = 0.5 * g * np.exp(-g * np.abs(d - det.offset_s))
    x = d / tb
    brute = []
    for j in hist.bin_index:
        w = np.clip(np.minimum(1.0, j + 1 - x) - np.maximum(0.0, j - x), 0.0, None)
        brute.append(np.trapezoid(lap * w, d))
    brute = np.array(brute) * OPO.pair_rate_hz * det.acquisition_s
    assert np.allclose(hist.counts, brute, rtol=1e-7)


def test_histogram_mirror_symmetry_on_bin_boundary():
    # an offset on a bin edge makes the histogram symmetric about the
    # offset bin in both detection modes
    det = DetectorConfig(offset_s=50e-9, r1_hz=0.0, r2_hz=0.0)
    hs = detected_histogram(OPO, det, "single", n_side_bins=40)
    assert np.allclose(hs.counts, hs.counts[::-1], rtol=1e-12)
    hc = detected_histogram(OPO, det, "comb", n_side_bins=40)
    assert np.allclose(hc.counts, hc.counts[::-1], rtol=1e-12)


def test_histogram_commensurate_round_trip_leaves_gaps():
    # a round trip of exactly two bins puts every tooth on an even bin;
    # odd bins hold nothing but accidentals
    opo = OpoConfig(roundtrip_s=2e-9, fsr_hz=500e6)
    det = DetectorConfig(offset_s=50e-9, r1_hz=0.0, r2_hz=0.0)
    hist = detected_histogram(opo, det, "comb", n_side_bins=8)
    odd = hist.counts[hist.bin_index % 2 == 1]
    even = hist.counts[hist.bin_index % 2 == 0]
    assert odd.max() < 1e-6
    assert even.min() > 100.0


def test_histogram_mode_validation():
    det = DetectorConfig()
    with pytest.raises(ValueError, match="unknown histogram mode"):
        detected_histogram(OPO, det, "both")


def test_histogram_delay_property_and_csv(tmp_path):
    det = DetectorConfig(r1_hz=0.0, r2_hz=0.0)
    hist = detected_histogram(OPO, det, "single", n_side_bins=4)
    assert np.allclose(hist.delay_s, (hist.bin_index + 0.5) * det.bin_s)
    path = tmp_path / "hist.csv"
    hist.to_csv(path, header_lines=("model: test",))
    lines = path.read_text().splitlines()
    assert lines[0] == "# model: test"
    assert lines[1] == "bin_index,delay_ns,expected_counts"
    assert lines[2] == "46,46.500000,2.1371936717e+02"
    assert len(lines) == 2 + hist.counts.size


def test_envelope_fwhm_from_single_mode_flanks():
    det = DetectorConfig(r1_hz=1.5e4, r2_hz=1.2e4)
    hist = detected_histogram(OPO, det, "single", n_side_bins=128)
    fwhm = histogram_envelope_fwhm(hist)
    # digitization does not bias the flank decay fit
    assert fwhm == pytest.approx(g2_single_fwhm(OPO), rel=1e-9)


def test_envelope_fwhm_from_comb_flanks_is_coarse():
    # teeth drifting across bins wobble the flank fit at the ten
    # percent level; the estimate still tracks the envelope
    det = DetectorConfig(r1_hz=1.5e4, r2_hz=1.2e4)
    hist = detected_histogram(OPO, det, "comb", n_side_bins=300)
    fwhm = histogram_envelope_fwhm(hist)
    assert fwhm == pytest.approx(g2_single_fwhm(OPO), rel=0.15)


def test_envelope_fwhm_rejects_edge_peak():
    hist = Histogram(
        bin_index=np.arange(5),
        counts=np.array([0.1, 0.2, 0.4, 0.8, 1.6]),
        bin_s=1e-9,
    )
    with pytest.raises(ValueError, match="window edge"):
        histogram_envelope_fwhm(hist)


def test_envelope_fwhm_rejects_short_flank():
    hist = Histogram(
        bin_index=np.arange(5),
        counts=np.array([0.001, 0.002, 1.0, 0.002, 0.001]),
        bin_s=1e-9,
    )
    with pytest.raises(ValueError, match="flank too short"):
        histogram_envelope_fwhm(hist)


def test_envelope_fwhm_rejects_rising_flanks():
    counts = np.array([0.7, 0.6, 0.5, 0.9, 1.0, 0.9, 0.5, 0.6, 0.7])
    hist = Histogram(bin_index=np.arange(9), counts=counts, bin_s=1e-9)
    with pytest.raises(ValueError, match="do not decay"):
        histogram_envelope_fwhm(hist)


def test_tooth_modulation_separates_detection_modes():
    det = DetectorConfig(r1_hz=1.5e4, r2_hz=1.2e4)
    smooth = detected_histogram(OPO, det, "single", n_side_bins=64)
    assert tooth_modulation(smooth) < 0.01
    comb = detected_histogram(OPO, det, "comb", n_side_bins=64)
    assert tooth_modulation(comb) > 1.0


def test_tooth_beat_washes_out_away_from_center():
    # teeth at 1.99 ns on a 1 ns clock drift half a bin every fifty
    # round trips, so the even/odd contrast fades away from the center
    det = DetectorConfig(offset_s=50e-9, r1_hz=0.0, r2_hz=0.0)
    hist = detected_histogram(OPO, det, "comb", n_side_bins=256)
    vals = hist.counts
    i_pk = int(np.argmax(vals))

    def contrast(center, half=10):
        seg = vals[center - half : center + half + 1]
        mids = seg[1:-1]
        sides = 0.5 * (seg[:-2] + seg[2:])
        ok = sides > 0
        return np.max(np.abs(mids[ok] - sides[ok]) / sides[ok])

    near = contrast(i_pk + 16)
    far = contrast(i_pk + 100)
    assert near > 10.0
    assert far < 0.5
    assert near > 20.0 * far


def test_tooth_modulation_needs_usable_bins():
    counts = np.zeros(9)
    counts[4] = 1.0
    hist = Histogram(bin_index=np.arange(9), counts=counts, bin_s=1e-9)
    with pytest.raises(ValueError, match="usable bins"):
        tooth_modulation(hist)
