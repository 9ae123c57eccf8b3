"""Independent numerical oracles shared by the test modules.

These deliberately avoid the code paths under test: the Faddeeva oracle
integrates the defining Doppler-convolution integral directly by
composite Simpson quadrature after subtracting a closed-form part, instead
of calling any library Faddeeva routine; the coincidence oracle compares
every start with every stop in plain Python; the CSV oracle formats each
row with one Python ``%`` call; the mode-window oracle tests one mode at a
time against the grid ends.
"""

from __future__ import annotations

import math

import numpy as np

SQRT_PI = np.sqrt(np.pi)


def faddeeva_by_quadrature(x, a: float, half_width: float = 12.0, nodes: int = 32769):
    """w(x + i a) from its integral definition, for a > 0.

    w(z) = (i/pi) * integral over real t of exp(-t^2) / (z - t).

    A part whose quotient with (z - t) integrates in closed form over
    [-W, W] is subtracted from exp(-t^2), and the remainder is integrated
    by composite Simpson.  For a < 1 that part is the constant exp(-z^2):
    the remainder then has no pole at t = z, so Simpson needs no nodes at
    the scale a, and |exp(-z^2)| = exp(a^2 - x^2) < e costs no digits.
    For a >= 1 it is the first-order Taylor expansion of exp(-t^2) about
    t = x, since exp(-z^2) grows as exp(a^2); the pole then lies at least
    one unit off the real axis, where the nodes resolve it.  The Gaussian
    tail beyond |t| = W is below 1e-60 for W = 12, far under the
    quadrature error.
    """
    if a <= 0:
        raise ValueError("requires a > 0")
    if nodes % 2 == 0:
        raise ValueError("Simpson rule needs an odd node count")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    w_half = float(half_width)
    t = np.linspace(-w_half, w_half, nodes)
    h = t[1] - t[0]
    simpson = np.ones(nodes)
    simpson[1:-1:2] = 4.0
    simpson[2:-1:2] = 2.0
    simpson *= h / 3.0

    gauss = np.exp(-t * t)
    out = np.empty(x.shape, dtype=complex)
    chunk = 64
    for lo in range(0, x.size, chunk):
        xs = x[lo : lo + chunk, None]
        z = xs + 1j * a
        # integral of 1 / (z - t) over [-W, W]
        lam = np.log(z + w_half) - np.log(z - w_half)
        if a < 1.0:
            subtracted = np.exp(-z * z)
            analytic = subtracted * lam
        else:
            ex = np.exp(-xs * xs)
            subtracted = ex * (1.0 + 2.0 * xs * xs - 2.0 * xs * t[None, :])
            analytic = ex * ((1.0 + 2.0 * xs * xs - 2.0 * xs * z) * lam + 4.0 * xs * w_half)
        residual = ((gauss[None, :] - subtracted) / (z - t[None, :]) * simpson).sum(axis=1)
        out[lo : lo + chunk] = (1j / np.pi) * (residual + analytic[:, 0])
    return out


def wigner_3j(j1, j2, j3, m1, m2, m3) -> float:
    """Exact Wigner 3j symbol by the Racah sum, in rational arithmetic.

    Arguments may be integers or half-integers.  Returns 0 for any
    selection-rule violation.
    """
    from fractions import Fraction
    from math import factorial

    vals = [j1, j2, j3, m1, m2, m3]
    twice = [round(2 * v) for v in vals]
    if any(abs(2 * v - tv) > 1e-9 for v, tv in zip(vals, twice)):
        raise ValueError("arguments must be integers or half-integers")
    tj1, tj2, tj3, tm1, tm2, tm3 = twice
    if tm1 + tm2 + tm3 != 0:
        return 0.0
    if not (abs(tj1 - tj2) <= tj3 <= tj1 + tj2):
        return 0.0
    if (tj1 + tj2 + tj3) % 2 != 0:
        return 0.0
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm3) > tj3:
        return 0.0
    if (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tj3 + tm3) % 2:
        return 0.0

    def f(two_n: int) -> int:
        if two_n % 2:
            raise ValueError("non-integer factorial argument")
        n = two_n // 2
        if n < 0:
            raise ValueError("negative factorial argument")
        return factorial(n)

    # triangle coefficient squared, as an exact rational
    tri = Fraction(
        f(tj1 + tj2 - tj3) * f(tj1 - tj2 + tj3) * f(-tj1 + tj2 + tj3),
        f(tj1 + tj2 + tj3 + 2),
    )
    pre = (
        tri
        * f(tj1 - tm1) * f(tj1 + tm1)
        * f(tj2 - tm2) * f(tj2 + tm2)
        * f(tj3 - tm3) * f(tj3 + tm3)
    )
    k_min = max(0, (tj2 - tj3 - tm1) // 2, (tj1 - tj3 + tm2) // 2)
    k_max = min(
        (tj1 + tj2 - tj3) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2
    )
    total = Fraction(0)
    for k in range(k_min, k_max + 1):
        denom = (
            factorial(k)
            * f(tj1 + tj2 - tj3 - 2 * k)
            * f(tj1 - tm1 - 2 * k)
            * f(tj2 + tm2 - 2 * k)
            * f(tj3 - tj2 + tm1 + 2 * k)
            * f(tj3 - tj1 - tm2 + 2 * k)
        )
        total += Fraction((-1) ** k, denom)
    sign = (-1) ** ((tj1 - tj2 - tm3) // 2)
    value = sign * total * Fraction(1)
    return float(value) * float(pre) ** 0.5


def coincidences_by_loop(ch1_s, ch2_s, bin_s: float, offset_bin: int, n_side_bins: int) -> list[int]:
    """Start multi-stop coincidence counts from a loop over every start and stop.

    Each timestamp gets the clock index floor(t / bin_s); a stop whose
    index minus the start's lies in offset_bin +- n_side_bins is counted at
    that difference.  Entry j of the result counts the difference
    offset_bin - n_side_bins + j.
    """
    counts = [0] * (2 * n_side_bins + 1)
    stops = [math.floor(t / bin_s) for t in ch2_s]
    for t in ch1_s:
        start = math.floor(t / bin_s)
        for stop in stops:
            j = stop - start - offset_bin + n_side_bins
            if 0 <= j <= 2 * n_side_bins:
                counts[j] += 1
    return counts


def csv_rows_by_percent(columns) -> str:
    """CSV data rows from one ``row_fmt % row`` per row.

    ``columns`` is a sequence of ``(values, fmt)``; each column's values
    become Python scalars in C order, and ``row_fmt`` joins the formats
    with ``,`` and ends the row with a newline.
    """
    values = [np.ravel(v).tolist() for v, _ in columns]
    row_fmt = ",".join(fmt for _, fmt in columns) + "\n"
    out = []
    for row in zip(*values):
        out.append(row_fmt % row)
    return "".join(out)


def modes_off_grid(indices, frequencies_hz, half_window_hz: float, grid_hz) -> list[int]:
    """Indices of the modes whose window f0 +- half_window leaves the grid.

    Each mode is tested on its own against the first and last grid points,
    in the order given.
    """
    off = []
    for n, f0 in zip(indices, frequencies_hz):
        if f0 - half_window_hz < grid_hz[0] or f0 + half_window_hz > grid_hz[-1]:
            off.append(int(n))
    return off


def excess_noise_with_cross_term(model) -> float:
    """Excess quadrature noise of a ``cvnoise.NoiseModel`` keeping the dt*da term.

    2 Re(conj(t a) (a dt + t da + dt da)) times the attenuator's power
    transmission: the first-order model plus the cross term it drops.
    """
    t, dt = model.mean_transmission, model.transmission_noise
    a, da = model.mean_field, model.field_noise
    beat = a * dt + t * da + dt * da
    return model.attenuation_amplitude**2 * 2.0 * float(np.real(np.conj(t * a) * beat))


def pair_map_by_mode(freq, vals, frequencies_hz, mode_fwhm_hz: float, window_linewidths: float):
    """Mode-averaged transmission of every mode, one ``np.trapezoid`` pair per mode.

    The per-mode loop ``pairs.pair_transmission_map`` ran before it took
    the modes with equally long windows as the rows of one array: each
    mode's unit-area Lorentzian over its +-window on the grid, with the
    transmission integrated by the trapezoid rule and renormalized.
    """
    hwhm = 0.5 * mode_fwhm_hz
    half_window = window_linewidths * mode_fwhm_hz
    etas = np.empty(len(frequencies_hz))
    for j, f0 in enumerate(frequencies_hz):
        sl = slice(
            np.searchsorted(freq, f0 - half_window),
            np.searchsorted(freq, f0 + half_window, side="right"),
        )
        f = freq[sl]
        lor = hwhm / np.pi / ((f - f0) ** 2 + hwhm**2)
        etas[j] = np.trapezoid(lor * vals[sl], f) / np.trapezoid(lor, f)
    return etas
