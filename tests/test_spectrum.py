"""Spectrum container validation, grid construction, and metric extraction."""

import numpy as np
import pytest
from _oracles import csv_rows_by_percent
from hypothesis import given, settings
from hypothesis import strategies as st

from fadofsim.spectrum import (
    _CSV_CHUNK_ROWS,
    BoundaryPeakError,
    Spectrum,
    filter_metrics,
    make_frequency_grid,
    write_csv,
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
    s = Spectrum(frequency_hz=freq, value=np.array([1.0, 2.0, 3.0]), kind="optical_depth")
    path = tmp_path / "od.csv"
    s.to_csv(path)
    assert "frequency_Hz,optical_depth" in path.read_text()


# Every per-value format the package writes, besides %d.
_CSV_FORMATS = ("%.6f", "%.3f", "%.12e", "%.10e", "%.9e", "%.8e", "%.6e")


def _csv_body(path, columns) -> str:
    """The data rows write_csv gives for ``columns``, a list of (values, fmt)."""
    names = [f"c{i}" for i in range(len(columns))]
    write_csv(path, ("test",), dict(zip(names, columns)))
    text = path.read_text()
    head = "# test\n" + ",".join(names) + "\n"
    assert text.startswith(head)
    return text[len(head) :]


def _assert_same_rows(body: str, expected: str) -> None:
    """body == expected, reported at the first differing row.

    Diffing two whole CSV bodies of thousands of rows takes pytest minutes;
    the split lines are equal exactly when the bodies are.
    """
    got, want = body.split("\n"), expected.split("\n")
    row = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert row is None, f"row {row}: {got[row]!r} != {want[row]!r}"
    assert len(got) == len(want), f"{len(got) - 1} rows written, {len(want) - 1} expected"


def _signed(values):
    return st.tuples(values, st.booleans()).map(lambda v: -v[0] if v[1] else v[0])


# Decimals one digit past a rounding position and ending in 5: their
# doubles lie within half an ulp of a tie, at every exponent.
_near_ties = st.builds(
    lambda digits, exp: float(f"{digits}5e{exp}"),
    st.text("0123456789", min_size=1, max_size=14),
    st.integers(-330, 300),
)
# Runs of nines, which round up into the next decade.
_decade_tops = st.builds(
    lambda nines, exp: float("9" * nines + f"e{exp}"), st.integers(1, 17), st.integers(-330, 300)
)
# st.floats() draws NaN, +-inf, +-0 and subnormals as well.
_csv_floats = st.one_of(st.floats(), _signed(_near_ties), _signed(_decade_tops), st.floats(-1e4, 1e4))


@st.composite
def _csv_columns(draw):
    n_rows = draw(st.integers(0, 20))
    fmts = draw(st.lists(st.sampled_from(_CSV_FORMATS), min_size=1, max_size=3))
    rows = st.lists(_csv_floats, min_size=n_rows, max_size=n_rows)
    columns = [(np.array(draw(rows), dtype=float), fmt) for fmt in fmts]
    ints = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n_rows, max_size=n_rows))
    columns.insert(draw(st.integers(0, len(columns))), (np.array(ints, dtype=np.int64), "%d"))
    return columns


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(columns=_csv_columns())
def test_write_csv_matches_percent_oracle(tmp_path_factory, columns):
    path = tmp_path_factory.getbasetemp() / "oracle.csv"
    _assert_same_rows(_csv_body(path, columns), csv_rows_by_percent(columns))


_FIXED_VALUES = {
    "exact ties": [0.5, 2.5, 0.125, -0.125, 0.375, 2.675, 1.0005, 0.0625],
    "next decade": [
        9.9999999999995, 9.99999999999996, 99.999999999999, 9.9999996, 999.9999999, 0.99999995,
    ],
    # log10 rounds these up to the next decade
    "below a power of ten": [float(f"9.999999999999{d}e{e}") for d in (4, 6, 9) for e in (99, 199, 299, 307)],
    "3-digit exponents": [
        1e-300, 1e300, -1e-300, 1.5e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
    ],
    "specials": [0.0, -0.0, 5e-324, -2.5e-310, np.nan, np.inf, -np.inf],
    "grid frequencies": make_frequency_grid(3.77e14, 2e9, 0.5e6).tolist(),
}


@pytest.mark.parametrize("name", sorted(_FIXED_VALUES))
@pytest.mark.parametrize("fmt", [*_CSV_FORMATS, "%.2f"])
def test_write_csv_fixed_examples_match_oracle(tmp_path, name, fmt):
    values = np.array(_FIXED_VALUES[name])
    columns = [(values, fmt), (-values, fmt)]
    _assert_same_rows(_csv_body(tmp_path / "t.csv", columns), csv_rows_by_percent(columns))


@pytest.mark.parametrize("n_rows", [0, 1, _CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1])
def test_write_csv_row_counts_around_the_chunk_length(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    columns = [
        (np.arange(n_rows) - n_rows // 2, "%d"),
        (3.77e14 + 0.5e6 * np.arange(n_rows), "%.6f"),
        (rng.lognormal(-8.0, 4.0, n_rows), "%.12e"),
    ]
    body = _csv_body(tmp_path / "t.csv", columns)
    assert body.count("\n") == n_rows
    _assert_same_rows(body, csv_rows_by_percent(columns))


def test_write_csv_other_formats_and_types_match_oracle(tmp_path):
    x = np.array([0.5, -1.25, 3e10, 7.0, 1e-7])
    columns = [
        (x, "%.3g"),
        (x, "%d"),
        (x.astype(np.float32), "%.8e"),
        (np.array([True, False, True, True, False]), "%.3f"),
        (np.array([0, 2**63, 2**64 - 1, 5, 2**63 - 1], dtype=np.uint64), "%d"),
        (np.array([-(2**63), 2**63 - 1, -1, 0, 10], dtype=np.int64), "%d"),
        (x.reshape(5, 1), "%.0f"),
        (x, "%.13e"),
    ]
    _assert_same_rows(_csv_body(tmp_path / "t.csv", columns), csv_rows_by_percent(columns))


def test_write_csv_rejects_columns_of_unequal_length(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=r"differ in length: \{'a': 3, 'b': 2\}"):
        write_csv(path, (), {"a": (np.zeros(3), "%.3f"), "b": (np.zeros(2), "%.3f")})
    assert not path.exists()
