"""Frequency-grid spectra, figure-of-merit extraction, and the CSV writer."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np


class BoundaryPeakError(ValueError):
    """The spectrum's maximum sits on (or its half-max reaches) the grid edge."""


@dataclass
class Spectrum:
    """Values sampled on a strictly increasing, uniformly spaced frequency grid.

    ``kind`` names the value column of ``to_csv``; "transmission" values
    must lie in [0, 1].
    """

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

    def to_csv(self, path, header_lines=()) -> None:
        write_csv(path, header_lines, {
            "frequency_Hz": (self.frequency_hz, "%.6f"), self.kind: (self.value, "%.12e"),
        })


_CSV_CHUNK_ROWS = 16384

# ASCII digits of 0..9999, four bytes per entry, gathered as one uint32
# each (built in uint16, whose temporaries stay small at import).
_DIGIT_GROUPS = (
    np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10
    + ord("0")
).astype(np.uint8)
_DIGIT_GROUPS_U32 = _DIGIT_GROUPS.view(np.uint32).ravel()
# Correctly rounded 10**k for k in [-308, 308], indexed by k + 308.
_POW10 = np.array([float(f"1e{k}") for k in range(-308, 309)])
_INT_POW10 = 10 ** np.arange(19, dtype=np.int64)
# Half-unit ties closer than this fraction of the scaled value go through
# % formatting: the scaling makes at most four roundings, 4 * 2**-53
# relative, so any tie it cannot settle lies inside the guard.
_TIE_GUARD = 2.0**-50
_FLOAT_SPEC = re.compile(r"%\.(\d+)([ef])\Z")


def _byte(char: str) -> np.ndarray:
    return np.frombuffer(char.encode(), np.uint8).reshape(1, 1)


_DOT, _COMMA, _NEWLINE, _E = _byte("."), _byte(","), _byte("\n"), _byte("e")


def write_csv(path, header_lines, columns: dict) -> None:
    """Write ``# `` header lines, the column-name line, then the data rows.

    ``columns`` maps each column name to ``(values, fmt)``: equally long
    arrays (raveled in C order) and a %-format for one value.  The bytes
    are those of ``fmt % value`` for every value, joined by ``,`` with one
    row per line.

    Rows are formatted in chunks of ``_CSV_CHUNK_ROWS``, which keeps memory
    flat on large grids, and laid out in a NUL-padded byte matrix whose
    NULs are dropped on writing; the file is opened in binary mode, so no
    text layer decodes and re-encodes each chunk.  ``%.Ne`` and ``%.Nf``
    columns of real numbers (1 <= N <= 12) are formatted by numpy: the
    decimal mantissa is ``rint`` of the value scaled by a power of ten,
    and its digits come from a table of 4-digit groups.  A value goes
    through ``fmt % value`` instead when the double arithmetic cannot
    settle its rounding, that is when the scaled value lies within
    ``2**-50`` of itself of a half-unit tie (the scaling errs by at most
    ``4 * 2**-53``); when ``%.Ne`` rounding would carry into the next
    decade, or ``log10`` put it in the wrong decade; when its ``%.Ne``
    exponent has three digits; when it is not finite, ±0 or subnormal; or
    when its integer part is outside the int64 range.  Columns of any
    other format or type, ``%d`` included, go through ``fmt % value``
    whole.
    """
    values = [np.ravel(v) for v, _ in columns.values()]
    lengths = {name: v.size for name, v in zip(columns, values)}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"CSV columns differ in length: {lengths}")
    n_rows = values[0].size if values else 0
    fmts = [fmt for _, fmt in columns.values()]
    with open(path, "wb") as fh:
        head = [f"# {line}\n" for line in header_lines] + [",".join(columns) + "\n"]
        fh.write("".join(head).encode())
        for start in range(0, n_rows, _CSV_CHUNK_ROWS):
            chunk = slice(start, start + _CSV_CHUNK_ROWS)
            pieces = []
            for v, fmt in zip(values, fmts):
                pieces += [_cells(v[chunk], fmt), _COMMA]
            pieces[-1] = _NEWLINE
            n = min(_CSV_CHUNK_ROWS, n_rows - start)
            fh.write(_hstack(pieces, n).tobytes().replace(b"\0", b""))


def _hstack(pieces, n: int) -> np.ndarray:
    """Byte matrices side by side in ``n`` rows; a one-row piece repeats on every row."""
    return np.hstack([np.broadcast_to(piece, (n, piece.shape[1])) for piece in pieces])


def _cells(col: np.ndarray, fmt: str) -> np.ndarray:
    """``fmt % value`` for every value of ``col`` as one NUL-padded (rows, bytes) matrix."""
    spec = _FLOAT_SPEC.match(fmt)
    if not (spec and 1 <= int(spec[1]) <= 12 and col.dtype.kind in "biuf" and col.dtype.itemsize <= 8):
        return _text([fmt % value for value in col.tolist()], 0)
    x = col.astype(float)
    a = np.abs(x)
    fallback = ~np.isfinite(a) | (a < np.finfo(float).tiny)
    if spec[2] == "f":
        fallback |= a >= 2.0**63
    a[fallback] = 1.0
    body, settled = (_exp_digits if spec[2] == "e" else _fixed_digits)(a, int(spec[1]))
    fallback |= ~settled
    cells = _hstack([*_sign(x < 0), *body], x.size)
    rows = np.flatnonzero(fallback)
    if rows.size:
        text = _text([fmt % value for value in col[rows].tolist()], cells.shape[1])
        if text.shape[1] > cells.shape[1]:
            cells = np.pad(cells, ((0, 0), (0, text.shape[1] - cells.shape[1])))
        cells[rows] = text
    return cells


def _exp_digits(a, n_dec):
    """Unsigned ``%.{n_dec}e`` pieces of positive normal ``a``, and where they are settled."""
    exp = np.floor(np.log10(a)).astype(np.int64)
    # k leaves the table only for three-digit exponents, which fall back
    scaled = a * _POW10[np.clip(n_dec - exp, -308, 308) + 308]
    mantissa = np.rint(scaled)
    exp_abs = np.abs(exp)
    settled = (
        (scaled >= 10.0**n_dec)
        & (mantissa < 10.0 ** (n_dec + 1))
        & (np.abs(np.abs(scaled - mantissa) - 0.5) > _TIE_GUARD * scaled)
        & (exp_abs < 100)
    )
    mantissa[~settled] = 10.0**n_dec
    digits = _digits(mantissa.astype(np.int64), n_dec + 1)
    exp_digits = _DIGIT_GROUPS_U32[exp_abs].view(np.uint8).reshape(-1, 4)[:, 2:]
    exp_sign = (exp < 0).view(np.uint8) * np.uint8(ord("-") - ord("+")) + np.uint8(ord("+"))
    return [digits[:, :1], _DOT, digits[:, 1:], _E, exp_sign[:, None], exp_digits], settled


def _fixed_digits(a, n_dec):
    """Unsigned ``%.{n_dec}f`` pieces of positive ``a`` below 2**63, and where they are settled."""
    whole = np.floor(a)
    scaled = (a - whole) * _POW10[n_dec + 308]
    fraction = np.rint(scaled)
    settled = np.abs(np.abs(scaled - fraction) - 0.5) > _TIE_GUARD * scaled
    fraction = fraction.astype(np.int64)
    carry = fraction // 10**n_dec
    fraction_digits = _digits(fraction - carry * 10**n_dec, n_dec)
    return [_int_digits(whole.astype(np.int64) + carry), _DOT, fraction_digits], settled


def _int_digits(m):
    """Decimal digits of non-negative int64 ``m``, right-aligned after leading NULs."""
    n_digits = np.maximum(np.searchsorted(_INT_POW10, m, side="right"), 1)
    width = int(n_digits.max())
    digits = _digits(m, width)
    if (n_digits < width).any():
        digits[np.arange(width) < (width - n_digits)[:, None]] = 0
    return digits


def _digits(m, width):
    """ASCII digits of non-negative int64 ``m`` below 10**width, zero-padded."""
    groups = -(-width // 4)
    index = np.empty((m.size, groups), np.intp)
    for g in range(groups - 1, -1, -1):
        quotient = m // 10_000
        index[:, g] = m - quotient * 10_000
        m = quotient
    return _DIGIT_GROUPS_U32[index].view(np.uint8)[:, 4 * groups - width :]


def _sign(negative):
    """A ``-``/NUL piece, or none when no value is negative."""
    return [negative.view(np.uint8)[:, None] * np.uint8(ord("-"))] if negative.any() else []


def _text(strings, width):
    """Strings as a NUL-padded uint8 matrix at least ``width`` bytes wide."""
    raw = [s.encode() for s in strings]
    width = max(width, *map(len, raw)) if raw else width
    return np.frombuffer(b"".join(r.ljust(width, b"\0") for r in raw), np.uint8).reshape(len(raw), width)


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


def _median(values: np.ndarray) -> float:
    """``np.median`` of a nonempty 1-D float array, bit for bit, without importing ``numpy.ma``.

    ``np.median`` imports ``numpy.ma`` on its first call (about 18 ms and
    0.5 MB).  This is its computation: the same partition, the mean of the
    middle one or two elements, and the NaN that the partition puts last
    where the array holds any.
    """
    n = values.size
    half = n // 2
    part = np.partition(values, [half, -1] if n % 2 else [half - 1, half, -1])
    if np.isnan(part[-1]):
        return float(part[-1])
    return float(part[half - 1 + n % 2 : half + 1].mean())


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
    floor = _median(vals[outside])
    rejection_db = 10.0 * np.log10(peak / floor) if floor > 0 else float("inf")
    return FilterMetrics(
        peak_frequency_hz=f_peak,
        peak_transmission=peak,
        fwhm_hz=fwhm,
        rejection_db=rejection_db,
    )
