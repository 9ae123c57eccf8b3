"""Frequency-grid spectra, figure-of-merit extraction, and the CSV writer."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class BoundaryPeakError(ValueError):
    """The spectrum's maximum sits on (or its half-max reaches) the grid edge."""


@dataclass
class Spectrum:
    """Values sampled on a strictly increasing, uniformly spaced frequency grid."""

    frequency_hz: np.ndarray
    value: np.ndarray
    kind: str = "transmission"

    def __post_init__(self):
        self.frequency_hz = np.asarray(self.frequency_hz, dtype=float)
        self.value = np.asarray(self.value, dtype=float)
        if self.frequency_hz.ndim != 1 or self.frequency_hz.size < 2:
            raise ValueError("frequency grid must be 1-D with at least two points")
        if self.frequency_hz.shape != self.value.shape:
            raise ValueError("grid and values must have matching shapes")
        steps = np.diff(self.frequency_hz)
        if np.any(steps <= 0):
            raise ValueError("frequency grid must be strictly increasing")
        if (steps.max() - steps.min()) > 1e-6 * steps.mean():
            raise ValueError("frequency grid must be uniformly spaced")
        if self.kind == "transmission" and (
            self.value.min() < -1e-12 or self.value.max() > 1.0 + 1e-12
        ):
            raise ValueError("transmission values must lie in [0, 1]")

    def to_csv(self, path, value_column: str = "transmission", header_lines=()) -> None:
        write_csv(path, header_lines, {
            "frequency_Hz": (self.frequency_hz, "%.6f"), value_column: (self.value, "%.12e"),
        })


_CSV_CHUNK_ROWS = 4096


def write_csv(path, header_lines, columns: dict) -> None:
    """Write ``# `` header lines, the column-name line, then the data rows.

    ``columns`` maps each column name to ``(values, fmt)``: equally long
    arrays (raveled in C order) and a %-format for one value.  Rows are
    formatted from Python scalars in chunks, which keeps memory flat on
    large grids.
    """
    values = [np.ravel(v) for v, _ in columns.values()]
    row_fmt = ",".join(fmt for _, fmt in columns.values()) + "\n"
    with open(path, "w") as fh:
        fh.writelines(f"# {line}\n" for line in header_lines)
        fh.write(",".join(columns) + "\n")
        for start in range(0, values[0].size, _CSV_CHUNK_ROWS):
            rows = zip(*(v[start : start + _CSV_CHUNK_ROWS].tolist() for v in values))
            fh.writelines(row_fmt % row for row in rows)


def make_frequency_grid(center_hz: float, half_span_hz: float, step_hz: float) -> np.ndarray:
    """Uniform grid center +- half_span, inclusive of both ends."""
    if half_span_hz <= 0 or step_hz <= 0:
        raise ValueError("span and step must be positive")
    n = int(round(half_span_hz / step_hz))
    return center_hz + step_hz * np.arange(-n, n + 1)


# Rejection is measured outside this many full widths around the peak.
EXCLUSION_FWHM = 5.0


@dataclass(frozen=True)
class FilterMetrics:
    peak_frequency_hz: float
    peak_transmission: float
    fwhm_hz: float
    rejection_db: float


def _half_crossing(freq, vals, i_peak, half, direction):
    """Frequency where vals first crosses ``half`` walking from the peak."""
    i = i_peak
    while 0 <= i < len(vals):
        if vals[i] < half:
            f1, f2 = freq[i - direction], freq[i]
            v1, v2 = vals[i - direction], vals[i]
            return f1 + (half - v1) * (f2 - f1) / (v2 - v1)
        i += direction
    raise BoundaryPeakError("half-maximum not reached inside the frequency grid")


def filter_metrics(spectrum: Spectrum) -> FilterMetrics:
    """Peak position/height, interpolated FWHM, and out-of-band rejection.

    The peak is the first grid maximum; a maximum on the grid boundary
    raises BoundaryPeakError since its width cannot be measured.
    Rejection compares the peak against the median transmission outside
    EXCLUSION_FWHM full widths around the peak.
    """
    freq, vals = spectrum.frequency_hz, spectrum.value
    i_peak = int(np.argmax(vals))
    if i_peak == 0 or i_peak == len(vals) - 1:
        raise BoundaryPeakError("spectrum maximum lies on the grid boundary")
    peak = float(vals[i_peak])
    half = 0.5 * peak
    f_lo = _half_crossing(freq, vals, i_peak, half, -1)
    f_hi = _half_crossing(freq, vals, i_peak, half, +1)
    fwhm = float(f_hi - f_lo)
    f_peak = float(freq[i_peak])
    outside = np.abs(freq - f_peak) > EXCLUSION_FWHM * fwhm
    if not np.any(outside):
        raise BoundaryPeakError("no out-of-band region left on the grid")
    floor = float(np.median(vals[outside]))
    rejection_db = 10.0 * np.log10(peak / floor) if floor > 0 else float("inf")
    return FilterMetrics(
        peak_frequency_hz=f_peak,
        peak_transmission=peak,
        fwhm_hz=fwhm,
        rejection_db=rejection_db,
    )
