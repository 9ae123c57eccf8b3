"""Complex susceptibility of a thermal alkali vapor near one fine-structure line.

The lineshape kernel is the complex Voigt profile expressed through the
Faddeeva function w(z); its real part is the Doppler-broadened absorption
profile and its imaginary part the matching dispersion.  The kernel
evaluates w(z) in two zones of |z|, on one code path:

- |z| <= 14: Weideman's rational approximation with N = 40 terms (SIAM J.
  Numer. Anal. 31, 1497 (1994)), within 1.8e-14 of ``scipy.special.wofz``
  for |z| <= 7 and 2.7e-14 for 7 < |z| <= 14 (random points, Lorentzian
  widths from 1e-6 to 13.9 Doppler widths);
- |z| > 14: the four-term asymptotic series (Abramowitz & Stegun 7.1.23),
  4.5e-9 relative to ``wofz``.

Both zones use numpy alone, need no complex division and run their
polynomials through one in-place Horner routine (``_horner``).  The far
zone keeps its 4.5e-9 truncation because the filter transmissions pinned
by the benchmark reference were taken with it: the rational is within
2.5e-15 of ``wofz`` for 14 < |z| <= 1e4, but a kernel exact there moves
10 of the 801 sampled rows of the 160,001-point spectrum by up to 4.1e-9,
beyond the reference's 1e-9 tolerance, so that change waits for a re-take
of the reference.  numpy rounds an in-place complex product on a
one-element array differently from the same product inside a longer
array, so a zone that holds exactly one point is evaluated on two copies
of it (``_points``): every point gets the same value bit for bit in any
array that holds it.

The susceptibility of one isotope is one sum over the Zeeman components
of all its lines, chi(x) = sum_k c_k i w(x - delta_k + i a), with the
offsets delta_k formed from the reference frequency, never as absolute
frequencies.  It is evaluated in one of two ways, both on the points in
ascending order (sorted once when they are not already, and returned in
the caller's order, so that a permutation of any finite input permutes
its values bit for bit):

- The direct sum (``_add_direct``), on every input that is no lattice: a
  single point, an empty array or points with unequal differences.  Every
  point of every component goes through the kernel, at most 2**15 points
  a call so that the working set stays bounded on any grid, and the
  components' terms are added in order in real arithmetic.  The tests
  take it as their oracle.
- The correlation (``_add_lattice``), on a lattice.

A lattice is an input of at least two points whose consecutive
differences, in ascending order, are bitwise equal (``_lattice_step``),
as every CLI grid is; two points are enough, so that every slice of a
lattice of two or more points is one.  A point's offset from the
reference frequency is phase + N D for a lattice of step D Hz, with N an
integer and 0 <= phase < D the same at every point, exactly within a
factor of two of the reference.

The working lattice.  With h the step of the heaviest isotope in Doppler
widths, r = floor(0.012 / h), one value per input.  Where r >= 1 the
working lattice is every r-th point, N = 0 (mod r): the points
themselves at r = 1 (steps from about 2 to 4 MHz at 365 K, as the default
2 MHz grid), a sublattice at r > 1.  Where r = 0 (steps above about 4 MHz
at 365 K) it has q = ceil(h / 0.012) nodes per step: node W = q N is
point N, worked in integer indices with the same phase, and every q-th
value is kept; no finer float grid is built.  Either way its spacing lies
in (0.006, 0.012] Doppler widths for the heaviest isotope and within a
factor sqrt(87 / 85) of that for the other.

The correlation.  All components of an isotope share its Lorentzian width
a, so on the working lattice of spacing h_t each needs w at the nodes of
one table, T[j] = i w(j h_t + i a) for every integer j, in both of the
kernel's zones.  Component k at node W lies theta_k past table node
W + b_k, and its value there is the 8-tap Lagrange stencil of the table
nodes W + b_k - 3 .. W + b_k + 4.  So chi at node W is sum_j D[j] T[W + j],
the table correlated with the line distribution D, which holds each
component's eight tap weights times its strength c_k: the discrete
integral transform of spectral synthesis (van den Bekerom & Pannier,
JQSRT 261, 107476 (2021)).  It is taken by overlap-save on output
segments of S = 3584 nodes anchored at absolute indices, W // S.  The
table segment of output segment s starts at s S + lo, lo the lowest tap
of D rounded down to a multiple of 256, and has the least power-of-two
length n >= S + the span of D (8,192 on the default grids).  Its FFT is
one kernel call and one FFT, kept for its (a, h_t, start, n) in a cache
of 12 entries per thread (``_table_segment``).  On the default scan lo is
the same for every field and both polarizations, so one entry serves all
of them at one temperature, and the 12 entries hold that temperature's
segments.  ``pairs.optimize_filter`` evaluates each temperature's fields
in one task on one thread, so the default 7 x 7 scan builds each of its
72 segments once, at any thread count; a shared cache let the scan's two
threads evict each other's segments, so that the number of kernel calls
changed from run to run.  Per call D takes one FFT and each isotope one
batched inverse FFT over its segments.  A node's value depends only on
its segment, D and the table segment, so it is the same bit for bit in
any slice or grid block of two or more points that holds it.  The FFT's rounding follows numpy's FFT
backend, so a numpy upgrade can move a last printed digit.

The seams.  chi is as smooth as w except at each component's seams,
|z| = 14, where the kernel changes zone and jumps by 4.5e-9 relative; a
stencil whose taps straddle one would move T by about 1e-8.  So both
stages of the stencil are corrected there, through one routine
(``_correct_seams``, one kernel call per isotope and stage): the points
whose taps may straddle a seam gain c_k i (w at the point - the stencil of
w at the taps), the seams' terms added point by point in a fixed order.
On the working lattice these are, for each component and each of its two
seams, the seven nodes whose table taps straddle it, found exactly from
the kernel's own zone test at the table nodes.  Where r > 1, point
N = r M + j then takes chi from the working nodes M - 3..M + 4 with the
stencil's weights at the fraction j / r (``_interpolate``), in real
arithmetic on float views; at j = 0 that is the node's value itself.  The
points of the nine sublattice rows about each seam, whose taps may
straddle it, are corrected the same way (``_correct_interpolation``).
A point's nodes, weights and corrections depend on N alone.

Measured against the direct sum, chi on a lattice is within 9.5e-15 of
max |chi| (600 random lattices, 0.89 million points, steps from 10 kHz to
100 MHz, 300-450 K, 0-1 T, buffer widths to 500 MHz); without the
corrections on the working lattice the default 7 x 7 scan's
transmissions moved by up to 1.24e-8.  Against the grouped far-field
series and ring of per-component kernel calls that came before, the
transmissions moved by at most 9.9e-14 on the default 7 x 7 scan and
3.4e-14 on the 160,001-point grid and its mirror (``tools/layer_ab.py``).
By the same tool (medians of 10 rounds, 2 vCPU) the 49 scan spectra took
0.76 s against 0.85 s before, 0.55 against 0.89 s on a 4.2 MHz grid
(q = 2) and 0.37 against 0.23 s on a 20 MHz grid (q = 5), where the
correlation works on five nodes per point.
"""

from __future__ import annotations

import functools
import math
import threading
from typing import TYPE_CHECKING

import numpy as np

from .constants import BOLTZMANN, SPEED_OF_LIGHT, TORR_TO_PA
from .lines import AtomicLineTable, zeeman_components

if TYPE_CHECKING:
    from .vapor import VaporCell

# The zone radius, compared as x^2 + a^2 against its square: beyond it
# the four-term series is within 4.5e-9 of wofz, inside it the rational
# approximation within 2.7e-14.
_ASYMPTOTIC_RADIUS = 14.0
_FAR_TERMS = 4
_RATIONAL_TERMS = 40
_SQRT_PI = np.sqrt(np.pi)
# w(z) ~ (i / (sqrt(pi) z)) sum_n c_n z^(-2n) with c_n = (2n-1)!! / 2^n
# (Abramowitz & Stegun 7.1.23)
_SERIES_COEFFS = np.cumprod([1.0] + [(2 * n - 1) / 2.0 for n in range(1, _FAR_TERMS)])

# The working lattice (see the module docstring): nodes at most
# _TABLE_SPACING Doppler widths apart, and the stencil's taps, the nodes
# m + _FIRST_TAP..m + _LAST_TAP for a point at m + theta, 0 <= theta < 1.
_TABLE_SPACING = 0.012
_FIRST_TAP, _LAST_TAP = -3, 4
_TAPS = np.arange(_FIRST_TAP, _LAST_TAP + 1)
_TAP_DENOMINATORS = np.array([math.prod(float(t - s) for s in _TAPS if s != t) for t in _TAPS])
# The overlap-save correlation: output segments of _SEGMENT working nodes,
# anchored at multiples of _SEGMENT, and table segments that start a
# multiple of _PAD nodes from them, so that one serves many fields.  With
# S = 3584 the default 2 MHz grid's Rb87 distribution, about 3,850 nodes
# plus the pad, fits a table segment of 8,192 nodes; at S = 4096 some
# fields took 16,384, and the 49 scan spectra took 0.76 s against 0.60 s
# (one process, medians of 4, 2 vCPU).
_SEGMENT = 3584
_PAD = 256
# Most points in one kernel call of the direct sum.
_CHUNK = 2**15
# Each thread's cache of table segments (see _table_segment).
_THREAD = threading.local()


def _rational_coefficients(n_terms):
    """Weideman's polynomial coefficients, highest power first, and his L.

    a_n = (1 / 2M) sum_k f(t_k) cos(n theta_k) for n = 1..N, with
    M = 2N, theta_k = k pi / M for |k| < M, t_k = L tan(theta_k / 2),
    f(t) = exp(-t^2) (L^2 + t^2) and L = sqrt(N / sqrt(2)): the cosine
    sum his FFT evaluates.
    """
    m = 2 * n_terms
    length = np.sqrt(n_terms / np.sqrt(2.0))
    theta = np.arange(1 - m, m) * (np.pi / m)
    t = length * np.tan(theta / 2.0)
    f = np.exp(-t * t) * (length * length + t * t)
    coeffs = (np.cos(np.outer(np.arange(1, n_terms + 1), theta)) * f).sum(axis=1) / (2 * m)
    return coeffs[::-1], length


_RATIONAL_COEFFS, _RATIONAL_L = _rational_coefficients(_RATIONAL_TERMS)


def _horner(z, coeffs):
    """(((coeffs[0] z + coeffs[1]) z + ...) + coeffs[-1]) z, in place after the first product."""
    s = z * coeffs[0]
    for c in coeffs[1:]:
        s += c
        s *= z
    return s


def _points(mask):
    """``mask``, or the index of its point twice where it holds one (see the module docstring)."""
    return np.repeat(mask.nonzero()[0], 2) if np.count_nonzero(mask) == 1 else mask


def _rational(x, a):
    """Weideman's N-term rational approximation of w(x + i a), a > 0.

    w(z) = 2 p(Z) / (L - i z)^2 + 1 / (sqrt(pi) (L - i z)) with
    Z = (L + i z) / (L - i z) and p of degree N - 1 (SIAM J. Numer. Anal.
    31, 1497 (1994)).  L - i z = (L + a) - i x, so 1 / (L - i z) needs
    only a real division.
    """
    u = np.empty(x.shape, dtype=complex)
    d = x * x
    d += (_RATIONAL_L + a) ** 2
    np.divide(1.0, d, out=d)
    np.multiply(d, _RATIONAL_L + a, out=u.real)
    np.multiply(x, d, out=u.imag)
    z_map = np.empty(x.shape, dtype=complex)
    z_map.real = _RATIONAL_L - a
    z_map.imag = x
    z_map *= u
    p = _horner(z_map, _RATIONAL_COEFFS[:-1])
    p += _RATIONAL_COEFFS[-1]
    p *= u
    p *= 2.0
    p += 1.0 / _SQRT_PI
    p *= u
    return p


def _asymptotic_series(x, a, d):
    """The four-term A&S 7.1.23 series of w(x + i a).

    ``d`` is 1 / (x^2 + a^2), so 1/z = (x - i a) d needs no complex division.
    """
    inv = np.empty(x.shape, dtype=complex)
    np.multiply(x, d, out=inv.real)
    np.multiply(d, -a, out=inv.imag)
    s = _horner(inv * inv, _SERIES_COEFFS[:0:-1])
    s += _SERIES_COEFFS[0]
    s *= inv
    s *= 1j / _SQRT_PI
    return s


def _voigt_zones(x, a):
    """w(x + i a) on one-dimensional ``x``, each zone's series on its own points.

    A zone that holds no point is not evaluated.
    """
    r2 = x * x
    r2 += a * a
    far = r2 > _ASYMPTOTIC_RADIUS**2
    d = np.divide(1.0, r2, out=r2)
    out = np.empty(x.shape, dtype=complex)
    if far.any():
        at = _points(far)
        out[at] = _asymptotic_series(x[at], a, d[at])
    if not far.all():
        at = _points(~far)
        out[at] = _rational(x[at], a)
    return out


def complex_voigt(x, a):
    """Complex Voigt kernel w(x + i a) for Lorentzian half-width ``a``.

    ``x`` is detuning and ``a`` the Lorentzian HWHM, both in units of the
    1/e Doppler half-width.  Re is the absorption shape (area sqrt(pi) in
    ``x``), Im the dispersion shape.  Requires a > 0.
    """
    x = np.asarray(x, dtype=float)
    return _voigt_zones(x.ravel(), a).reshape(x.shape)


def vapor_pressure_torr(temperature_k: float) -> float:
    """Saturated rubidium vapor pressure from the empirical Antoine-type fit."""
    t = float(temperature_k)
    if t <= 0:
        raise ValueError("temperature must be positive")
    if t >= 312.46:  # liquid phase
        exponent = 15.88253 - 4529.635 / t + 0.00058663 * t - 2.99138 * np.log10(t)
    else:
        exponent = -94.04826 - 1961.258 / t - 0.03771687 * t + 42.57526 * np.log10(t)
    return float(10.0**exponent)


def vapor_density(temperature_k: float) -> float:
    """Total alkali number density (all isotopes) in m^-3 at temperature T."""
    p_pa = vapor_pressure_torr(temperature_k) * TORR_TO_PA
    return p_pa / (BOLTZMANN * temperature_k)


def wavevector(table: AtomicLineTable) -> float:
    """Vacuum wavevector 2 pi nu / c of the table's reference line, in rad/m."""
    return 2.0 * np.pi * table.reference_frequency_hz / SPEED_OF_LIGHT


def _lattice_step(freq):
    """The common difference of one-dimensional ``freq``, or None.

    None unless ``freq`` has at least two points and all its consecutive
    differences are bitwise equal, finite and non-zero.
    """
    if freq.size < 2:
        return None
    diff = np.diff(freq)
    step = diff[0]
    if step == 0.0 or not np.isfinite(step) or not (diff == step).all():
        return None
    return float(step)


def _exact_divmod(value, step):
    """(n, r) with value = n step + r exactly and 0 <= r < step; r rounded once."""
    vn, vd = value.as_integer_ratio()
    sn, sd = step.as_integer_ratio()
    n, rem = divmod(vn * sd, sn * vd)
    return n, rem / (vd * sd)


def _table_fft(a, spacing, start, size):
    """The FFT of i w(j spacing + i a) for j = start..start + size - 1, read-only; one kernel call."""
    table = complex_voigt(np.arange(start, start + size) * spacing, a)
    table *= 1j
    table = np.fft.fft(table)
    table.flags.writeable = False
    return table


def _table_segment(a, spacing, start, size):
    """``_table_fft``, kept for the next calls with the same arguments in this thread.

    Each thread keeps the last 12 segments it used in its own LRU cache:
    the blocks of one grid, both polarizations and, in ``optimize``'s scan,
    every field of one temperature, which one thread evaluates in turn,
    read one, and no thread evicts another's, so the number of kernel calls
    does not depend on how a scan's temperatures fall to its threads.
    """
    cache = getattr(_THREAD, "tables", None)
    if cache is None:
        cache = _THREAD.tables = functools.lru_cache(maxsize=12)(_table_fft)
    return cache(a, spacing, start, size)


def _stencil_weights(theta):
    """Lagrange weights (K, 8) of the nodes ``_TAPS`` at the points ``theta`` (K,).

    The weight of tap t is the product of (theta - s) over the other taps
    s, the products left and right of t, over its denominator; at
    theta = 0 the weights are exactly 0 and 1.
    """
    diff = theta[:, None] - _TAPS
    ones = np.ones((theta.size, 1))
    left = np.cumprod(np.hstack([ones, diff[:, :-1]]), axis=1)
    right = np.cumprod(np.hstack([ones, diff[:, :0:-1]]), axis=1)[:, ::-1]
    return left * right / _TAP_DENOMINATORS


def _add_direct(chi, x, a, offsets, weights):
    """Add sum_k weights[k] i w(x - offsets[k] + i a) to ``chi``, point by point.

    ``x`` and ``offsets`` are in Doppler units.  The kernel runs on at
    most ``_CHUNK`` points a call (all components of one point at least),
    and the components' terms are added in order in real arithmetic.
    """
    size = max(1, _CHUNK // offsets.size)
    for s in range(0, x.size, size):
        w = _voigt_zones((x[s : s + size] - offsets[:, None]).ravel(), a)
        w = w.view(float).reshape(offsets.size, -1, 2)
        total = w[0] * weights[0]
        for k in range(1, offsets.size):
            total += w[k] * weights[k]
        part = chi[s : s + size]
        part.real -= total[:, 1]
        part.imag += total[:, 0]


def _correct_seams(chi, index, x, nodes, weights, a, c):
    """Add c i (w at the points - the stencil of w at their taps) to ``chi``.

    One column per component and seam: ``x`` (R r, C) holds the points,
    row by row and within a row by fraction, ``nodes`` (R + 7, C) their
    taps, the points of row p taking nodes p..p + 7 with ``weights``
    (r, 8, C or 1), ``index`` (R r, C) their places in ``chi`` (-1 where
    it holds none) and ``c`` (C,) the components' strengths.  One kernel
    call; each point's terms are added in column order.
    """
    keep = (index >= 0).any(axis=0)
    if not keep.any():
        return
    weights = np.broadcast_to(weights, (weights.shape[0], _TAPS.size, c.size))[..., keep]
    x, nodes, index, c = x[:, keep], nodes[:, keep], index[:, keep], c[keep]
    w = _voigt_zones(np.concatenate([x.ravel(), nodes.ravel()]), a)
    at, taps = w[: x.size].reshape(x.shape), w[x.size :].reshape(nodes.shape)
    rows = nodes.shape[0] - _TAPS.size + 1
    stencil = weights[:, 0] * taps[:rows, None]
    for t in range(1, _TAPS.size):
        stencil += weights[:, t] * taps[t : t + rows, None]
    # a purely imaginary factor rounds each part once
    term = (at - stencil.reshape(x.shape)) * (1j * c)
    inside = index.T >= 0
    np.add.at(chi, index.T[inside], term.T[inside])


def _add_lattice(chi, nodes, work_step, phase, a, ku, shifts, weights):
    """Add one isotope's sum_k weights[k] i w to ``chi`` at the working nodes ``nodes``.

    Node W (ascending, absolute) lies at phase + W work_step Hz from the
    reference, and component k at ``shifts[k]`` Hz with strength
    ``weights[k]``.  chi is the table correlated with the line
    distribution D, segment by segment (``_table_segment``), and then
    corrected where a component's taps straddle its |z| = 14 seam.
    """
    spacing = float(work_step * 2.0 * np.pi / ku)
    # component k at node W lies theta[k] past table node W + base[k]
    pos = (phase - shifts) / work_step
    base = np.floor(pos)
    stencil = _stencil_weights(pos - base)
    base = base.astype(np.int64)
    taps = base[:, None] + _TAPS
    lo = int(taps.min()) // _PAD * _PAD
    size = 1 << (_SEGMENT + int(taps.max()) - lo - 1).bit_length()
    line = np.zeros(size)
    np.add.at(line, (taps - lo).ravel(), (stencil * weights[:, None]).ravel())
    line = np.fft.fft(line).conj()
    # the output segments that hold a node, each the correlation of its
    # table segment with D
    segment = nodes // _SEGMENT
    starts = np.flatnonzero(np.diff(segment, prepend=segment[0] - 1))
    values = np.empty((starts.size, size), dtype=complex)
    for row, s in zip(values, segment[starts].tolist()):
        np.multiply(_table_segment(a, spacing, s * _SEGMENT + lo, size), line, out=row)
    np.fft.ifft(values, out=values)
    chi += values[np.repeat(np.arange(starts.size), np.diff(starts, append=nodes.size)), nodes % _SEGMENT]
    room = _ASYMPTOTIC_RADIUS**2 - a * a
    if room <= 0.0:
        return
    # the last table node inside the kernel's radius, by its own test; the
    # seams lie between nodes m and m + 1 for m = reach and -reach - 1, and
    # node W's taps straddle one where W + base lies in m - 3..m + 3
    reach = int(math.sqrt(room) / spacing) + 1
    while (reach * spacing) * (reach * spacing) + a * a > _ASYMPTOTIC_RADIUS**2:
        reach -= 1
    m = np.repeat([reach, -reach - 1], shifts.size)
    rows = m - np.tile(base, 2) + np.arange(-3, 4)[:, None]
    index = np.searchsorted(nodes, rows)
    index[nodes[np.minimum(index, nodes.size - 1)] != rows] = -1
    x = (phase + rows * work_step) * (2.0 * np.pi) / ku - np.tile(2.0 * np.pi * shifts / ku, 2)
    at = (m + np.arange(-6, 8)[:, None]) * spacing
    _correct_seams(chi, index, x, at, np.tile(stencil.T, 2)[None], a, np.tile(weights, 2))


def _sublattice_ratio(h):
    """r = floor(``_TABLE_SPACING`` / h) for a lattice of h Doppler widths; 0 means a finer working lattice."""
    return int(_TABLE_SPACING // h)


def _interpolate(coarse, first, n, r):
    """chi at the lattice points N = first..first + n - 1 from its values on N = 0 (mod r).

    ``coarse`` holds the nodes M = first // r - 3 .. (first + n - 1) // r + 4
    along its first axis, for one lattice or for one in each column;
    point N = r M + j takes the stencil of nodes M - 3..M + 4 at the
    fraction j / r, its weighted taps added in order in real arithmetic.
    """
    rows = (first + n - 1) // r - first // r + 1
    weights = _stencil_weights(np.arange(r) / r)[:, :, None, None]
    nodes = coarse.view(float).reshape(coarse.shape[0], -1)
    # by fraction, then by row M: each product is one weight times a
    # contiguous run of nodes
    acc = np.empty((r, rows, nodes.shape[1]))
    tmp = np.empty_like(acc)
    for t in range(_TAPS.size):
        np.multiply(weights[:, t], nodes[t : t + rows], out=tmp if t else acc)
        if t:
            acc += tmp
    del tmp
    acc = acc.view(complex).reshape(r, rows, *coarse.shape[1:])
    fine = np.empty((rows, r, *coarse.shape[1:]), dtype=complex)
    fine.swapaxes(0, 1)[...] = acc
    return fine.reshape(rows * r, *coarse.shape[1:])[first % r : first % r + n]


def _correct_interpolation(chi, first, step, phase, r, a, ku, shifts, weights):
    """Correct ``_interpolate``'s chi where a component's stencil straddles its |z| = 14 seam.

    Point i of ``chi`` is lattice point N = first + i, at phase + N step
    Hz from the reference; the sublattice is N = 0 (mod r).  For each
    component and each of its two seams the points of the nine sublattice
    rows about it, whose taps may straddle it, are corrected
    (``_correct_seams``).
    """
    room = _ASYMPTOTIC_RADIUS**2 - a * a
    if room <= 0.0:
        return
    delta = np.tile(2.0 * np.pi * shifts / ku, 2)
    # the sublattice interval (m, m + 1) of each seam; the taps of rows
    # m - 3..m + 3 straddle it, and rounding moves m by at most one
    seams = (delta + np.repeat([-math.sqrt(room), math.sqrt(room)], shifts.size)) * ku / (2.0 * np.pi)
    m = np.floor((seams - phase) / (r * step)).astype(np.int64)
    # the points N of rows m - 4..m + 4, then the nodes N = r M of their
    # taps, M = m - 7..m + 8
    points = r * (m - 4) + np.arange(9 * r)[:, None]
    x = (phase + np.vstack([points, r * (m - 7 + np.arange(16)[:, None])]) * step) * (2.0 * np.pi) / ku - delta
    index = np.where((points >= first) & (points < first + chi.size), points - first, -1)
    weights_r = _stencil_weights(np.arange(r) / r)[:, :, None]
    _correct_seams(chi, index, x[: 9 * r], x[9 * r :], weights_r, a, np.tile(weights, 2))


def complex_susceptibility(freq_hz, polarization: int, b_field_t: float, cell: VaporCell) -> np.ndarray:
    """Linear susceptibility chi(nu) of ``cell`` for one circular polarization.

    Sums Voigt responses of every Zeeman-shifted hyperfine component,
    weighted by transition strength and isotope abundance, at the
    saturated vapor density of the cell temperature.  ``freq_hz`` is
    absolute optical frequency, finite at every point; ``polarization``
    is +1 or -1 for sigma+/sigma-.  The cell length does not enter.  The
    points are evaluated in ascending order and returned in the caller's.
    On a lattice (``_lattice_step``) each isotope's sum is its kernel
    table correlated with its line distribution on the working lattice
    (``_add_lattice``), interpolated where that lattice is a sublattice;
    any other input takes the direct sum (``_add_direct``).
    """
    if polarization not in (-1, 1):
        raise ValueError("polarization must be +1 or -1")
    freq = np.asarray(freq_hz, dtype=float)
    shape = freq.shape
    freq = freq.ravel()
    if not np.isfinite(freq).all():
        raise ValueError("frequencies must be finite")
    order = None
    if (freq[1:] < freq[:-1]).any():
        order = np.argsort(freq, kind="stable")
        freq = freq[order]
    table = cell.table
    ref = table.reference_frequency_hz
    n_total = vapor_density(cell.temperature_k)

    lam = SPEED_OF_LIGHT / ref
    k_wave = wavevector(table)
    gamma_natural = 2.0 * np.pi * table.natural_fwhm_hz
    # angular Lorentzian HWHM: natural plus collisional
    gamma_l = np.pi * (table.natural_fwhm_hz + cell.buffer_fwhm_hz)

    # the working nodes W, at phase + W work_step from the reference, that
    # chi is taken at; None takes it at every point
    nodes, r = None, 0
    step = _lattice_step(freq)
    if step is not None:
        # the heaviest isotope has the largest step in Doppler widths
        mass = max(iso.mass_kg for iso in table.isotopes.values() if iso.abundance)
        h = step * 2.0 * np.pi / (k_wave * np.sqrt(2.0 * BOLTZMANN * cell.temperature_k / mass))
        r = _sublattice_ratio(h)
        # point i sits at phase + (i + first) step from the reference,
        # exactly: read at the point nearest the reference, whose offset
        # from it is exact
        nearest = int(np.clip(np.rint((ref - freq[0]) / step), 0, freq.size - 1))
        n_nearest, phase = _exact_divmod(float(freq[nearest] - ref), step)
        first = n_nearest - nearest
        last = first + freq.size - 1
        if r > 1:
            nodes, work_step = np.arange(first // r + _FIRST_TAP, last // r + _LAST_TAP + 1), r * step
        else:
            # q working nodes per step where the step is coarser than the table's
            q = 1 if r else math.ceil(h / _TABLE_SPACING)
            nodes, work_step = q * np.arange(first, last + 1), step / q
    chi = np.zeros(freq.size if nodes is None else nodes.size, dtype=complex)
    isotopes = []
    for iso in table.isotopes.values():
        if iso.abundance == 0.0:
            continue
        n_iso = iso.abundance * n_total
        u = np.sqrt(2.0 * BOLTZMANN * cell.temperature_k / iso.mass_kg)
        ku = k_wave * u
        a = float(gamma_l / ku)
        # strength * N * d^2 * sqrt(pi) / (2*(2I+1) * hbar * eps0 * k * u),
        # with the D1 reduced dipole moment d^2 = 9*eps0*hbar*Gamma*lam^3/(8*pi^2)
        prefactor = (
            9.0
            * gamma_natural
            * lam**4
            * n_iso
            * _SQRT_PI
            / (16.0 * np.pi**3 * u * 2.0 * (2.0 * iso.nuclear_spin + 1.0))
        )
        lines = [line for line in table.lines if line.isotope == iso.name]
        parts = [zeeman_components(line, b_field_t, polarization) for line in lines]
        shifts = np.concatenate([line.offset_hz + part.offsets_hz for line, part in zip(lines, parts)])
        weights = prefactor * np.concatenate([part.weights for part in parts])
        if nodes is None:
            # freq - reference is exact within a factor of two of the reference
            x = freq - ref
            x *= 2.0 * np.pi
            x /= ku
            _add_direct(chi, x, a, 2.0 * np.pi * shifts / ku, weights)
        else:
            _add_lattice(chi, nodes, work_step, phase, a, ku, shifts, weights)
        isotopes.append((a, ku, shifts, weights))
    if r > 1:
        chi = _interpolate(chi, first, freq.size, r)
        for a, ku, shifts, weights in isotopes:
            _correct_interpolation(chi, first, step, phase, r, a, ku, shifts, weights)
    if order is not None:
        chi[order] = chi.copy()
    return chi.reshape(shape)
