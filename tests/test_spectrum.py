"""Spectrum container validation, grid construction, and metric extraction."""

import numpy as np
import pytest

from fadofsim.spectrum import (
    BoundaryPeakError,
    Spectrum,
    filter_metrics,
    make_frequency_grid,
)


def _triangle(width_hz=1e9, peak=1.0, floor=0.0, half_span_hz=10e9, step_hz=10e6):
    """Symmetric triangular peak on a flat floor; FWHM equals width_hz."""
    freq = make_frequency_grid(0.0, half_span_hz, step_hz)
    vals = np.maximum(peak * (1.0 - np.abs(freq) / width_hz), floor)
    return Spectrum(frequency_hz=freq, value=vals)


def test_spectrum_rejects_bad_grids():
    with pytest.raises(ValueError, match="1-D"):
        Spectrum(frequency_hz=np.zeros((2, 2)), value=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="two points"):
        Spectrum(frequency_hz=np.array([1.0]), value=np.array([0.5]))
    with pytest.raises(ValueError, match="matching shapes"):
        Spectrum(frequency_hz=np.arange(4.0), value=np.zeros(3))
    with pytest.raises(ValueError, match="strictly increasing"):
        Spectrum(frequency_hz=np.array([0.0, 1.0, 1.0]), value=np.zeros(3))
    with pytest.raises(ValueError, match="strictly increasing"):
        Spectrum(frequency_hz=np.array([0.0, 2.0, 1.0]), value=np.zeros(3))
    with pytest.raises(ValueError, match="uniformly spaced"):
        Spectrum(frequency_hz=np.array([0.0, 1.0, 3.0]), value=np.zeros(3))


def test_spectrum_transmission_range_checked():
    freq = np.arange(3.0)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        Spectrum(frequency_hz=freq, value=np.array([0.0, 1.5, 0.0]))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        Spectrum(frequency_hz=freq, value=np.array([0.0, -0.1, 0.0]))
    # other kinds carry unbounded values (optical depth, counts)
    od = Spectrum(frequency_hz=freq, value=np.array([0.0, 35.0, 0.0]), kind="od")
    assert od.value.max() == 35.0


def test_make_frequency_grid_endpoints_and_count():
    grid = make_frequency_grid(100.0, 10.0, 2.0)
    assert grid[0] == 90.0
    assert grid[-1] == 110.0
    assert grid.size == 11
    assert np.allclose(np.diff(grid), 2.0)


def test_make_frequency_grid_validates():
    with pytest.raises(ValueError, match="positive"):
        make_frequency_grid(0.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        make_frequency_grid(0.0, 1.0, 0.0)


def test_filter_metrics_triangle_exact():
    s = _triangle(width_hz=1e9)
    m = filter_metrics(s)
    assert m.peak_frequency_hz == 0.0
    assert m.peak_transmission == 1.0
    # linear flanks make the interpolated half-max crossings exact
    assert m.fwhm_hz == pytest.approx(1e9, rel=1e-12)


def test_filter_metrics_rejection_against_flat_floor():
    floor = 1e-5
    s = _triangle(width_hz=1e9, peak=0.5, floor=floor)
    m = filter_metrics(s)
    assert m.rejection_db == pytest.approx(10.0 * np.log10(0.5 / floor), rel=1e-9)


def test_filter_metrics_zero_floor_gives_infinite_rejection():
    s = _triangle(width_hz=1e9, peak=0.5, floor=0.0)
    assert filter_metrics(s).rejection_db == np.inf


def test_filter_metrics_constant_spectrum_rejected():
    freq = make_frequency_grid(0.0, 1e9, 1e8)
    s = Spectrum(frequency_hz=freq, value=np.full(freq.size, 0.3))
    with pytest.raises(BoundaryPeakError, match="boundary"):
        filter_metrics(s)


def test_filter_metrics_boundary_peak_rejected():
    freq = make_frequency_grid(0.0, 1e9, 1e8)
    vals = np.linspace(0.0, 1.0, freq.size)
    with pytest.raises(BoundaryPeakError, match="boundary"):
        filter_metrics(Spectrum(frequency_hz=freq, value=vals))


def test_filter_metrics_unreached_half_maximum_rejected():
    # peak in the middle but the flanks never fall below half maximum
    freq = make_frequency_grid(0.0, 1e9, 1e8)
    vals = 0.8 - 0.2 * np.abs(freq) / 1e9
    with pytest.raises(BoundaryPeakError, match="half-maximum"):
        filter_metrics(Spectrum(frequency_hz=freq, value=vals))


def test_filter_metrics_needs_out_of_band_region():
    # the exclusion window swallows the whole grid
    s = _triangle(width_hz=1e9, half_span_hz=2e9)
    with pytest.raises(BoundaryPeakError, match="out-of-band"):
        filter_metrics(s)


def test_filter_metrics_first_peak_wins_on_tie():
    freq = make_frequency_grid(0.0, 5e9, 1e8)
    vals = np.maximum(
        np.maximum(1.0 - np.abs(freq + 2e9) / 5e8, 1.0 - np.abs(freq - 2e9) / 5e8), 0.0
    )
    m = filter_metrics(s := Spectrum(frequency_hz=freq, value=vals))
    assert s.value.max() == 1.0
    assert m.peak_frequency_hz == -2e9


def test_to_csv_round_trip(tmp_path):
    s = _triangle(width_hz=1e9, half_span_hz=2e9, step_hz=5e8)
    path = tmp_path / "spec.csv"
    s.to_csv(path, header_lines=("config sha256: deadbeef", "model: test"))
    text = path.read_text().splitlines()
    assert text[0] == "# config sha256: deadbeef"
    assert text[1] == "# model: test"
    assert text[2] == "frequency_Hz,transmission"
    assert text[3] == "-2000000000.000000,0.000000000000e+00"
    data = np.loadtxt(path, delimiter=",", skiprows=3)
    assert np.allclose(data[:, 0], s.frequency_hz, rtol=0, atol=1e-6)
    assert np.allclose(data[:, 1], s.value, rtol=1e-10)


def test_to_csv_custom_column(tmp_path):
    freq = np.arange(3.0)
    s = Spectrum(frequency_hz=freq, value=np.array([1.0, 2.0, 3.0]), kind="od")
    path = tmp_path / "od.csv"
    s.to_csv(path, value_column="optical_depth")
    assert "frequency_Hz,optical_depth" in path.read_text()
