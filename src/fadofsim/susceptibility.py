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
- The correlation (``_add_correlation``), on a lattice.

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
changed from run to run.  Per grid block D takes one FFT and each
isotope one batched inverse FFT over its segments, whose nodes are one
strided slice of each row (``_add_correlation``).  A node's value
depends only on its segment, D and the table segment, so it is the same
bit for bit in any slice or grid block of two or more points that holds
it.  The FFT's rounding follows numpy's FFT backend, so a numpy upgrade
can move a last printed digit.

The seams.  chi is as smooth as w except at each component's seams,
|z| = 14, where the kernel changes zone and jumps by 4.5e-9 relative; a
stencil whose taps straddle one would move T by about 1e-8.  So both
stages of the stencil are corrected there, through one routine
(``_seam_terms``, one kernel call per isotope and stage): the points
whose taps may straddle a seam gain c_k i (w at the point - the stencil of
w at the taps), the seams' terms added point by point in a fixed order.
On the working lattice these are, for each component and each of its two
seams, the seven nodes whose table taps straddle it, found exactly from
the kernel's own zone test at the table nodes.  Where r > 1, point
N = r M + j then takes chi from the working nodes M - 3..M + 4 with the
stencil's weights at the fraction j / r (``_interpolate``), in real
arithmetic on float views; at j = 0 that is the node's value itself.  The
points of the nine sublattice rows about each seam, whose taps may
straddle it, are corrected the same way.  A point's nodes, weights and
corrections depend on N alone, and ``_correct_seams`` adds each point's
terms in column order, component by component.

The line side and the point side (``LineSide``).  What does not depend
on the points is prepared once per grid for every (field, polarization)
named, each field one row of the same arrays: the working lattice, the
Zeeman components, and on a lattice D and the seam terms of both stages,
one kernel call per isotope and stage.  The point side, ``LineSide.chi``,
is one field on one range of the sorted grid: D's FFT, the products with
the table segments, the inverse FFT, the seam terms and the
interpolation, so its working set does not grow with the number of
fields.  Every line-side value is computed elementwise (the kernel gives
a point the same value in any array), so a field's row holds the bytes
that field gets alone, and ``complex_susceptibility`` is the one-field
case.

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
    """Lagrange weights (..., 8) of the nodes ``_TAPS`` at the points ``theta`` (...).

    The weight of tap t is the product of (theta - s) over the other taps
    s, the products left and right of t, over its denominator; at
    theta = 0 the weights are exactly 0 and 1.
    """
    diff = theta[..., None] - _TAPS
    ones = np.ones((*theta.shape, 1))
    left = np.cumprod(np.concatenate([ones, diff[..., :-1]], axis=-1), axis=-1)
    right = np.cumprod(np.concatenate([ones, diff[..., :0:-1]], axis=-1), axis=-1)[..., ::-1]
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


def _seam_terms(x, nodes, weights, a, c, out):
    """c i (w at the points - the stencil of w at their taps), one column per component and seam.

    ``x`` (..., R r, C) holds the points, row by row and within a row by
    fraction, ``nodes`` (..., R + 7, C) their taps, the points of row p
    taking nodes p..p + 7 with ``weights`` (..., r, 8, C or 1), and ``c``
    (..., 1, C) the components' strengths; the leading axes, one per
    field, broadcast.  One kernel call; every term depends on its own
    point, taps, weights and strength alone.
    """
    w = _voigt_zones(np.concatenate([x.ravel(), nodes.ravel()]), a)
    at, taps = w[: x.size].reshape(x.shape), w[x.size :].reshape(nodes.shape)
    rows = nodes.shape[-2] - _TAPS.size + 1
    stencil = weights[..., 0, :] * taps[..., :rows, None, :]
    for t in range(1, _TAPS.size):
        stencil += weights[..., t, :] * taps[..., t : t + rows, None, :]
    # a purely imaginary factor rounds each part once
    return np.multiply(at - stencil.reshape(x.shape), 1j * c, out=out)


def _correct_seams(chi, index, terms):
    """Add the seam ``terms`` to ``chi`` at ``index`` (-1 where it holds no point), column by column."""
    inside = index.T >= 0
    np.add.at(chi, index.T[inside], terms.T[inside])


def _lattice_side(lattice, a, ku, shifts, weights):
    """One isotope's line side on ``lattice`` for every field: components at ``shifts`` Hz (F, K), strengths ``weights``.

    Per field: the start offset and length of its table segments, D as
    its taps and their weights, and the seam terms of both stages with
    the first working node and lattice point of their rows, for every
    component and both its seams.  Every field is one row of the same
    arrays, and each stage's seam terms take one kernel call.
    """
    step, phase, _, r, _, work_step = lattice
    spacing = float(work_step * 2.0 * np.pi / ku)
    # component k at node W lies theta[k] past table node W + base[k]
    pos = (phase - shifts) / work_step
    base = np.floor(pos)
    stencil = _stencil_weights(pos - base)
    base = base.astype(np.int64)
    taps = base[..., None] + _TAPS
    tap_weights = stencil * weights[..., None]
    # one column per component and seam: the components for one seam, then
    # for the other; none where the Lorentzian width reaches past the
    # kernel's radius, so that no component has a seam
    room = _ASYMPTOTIC_RADIUS**2 - a * a
    cols = np.tile(np.arange(shifts.shape[1]), 2)[: None if room > 0.0 else 0]
    head = np.arange(cols.size) < shifts.shape[1]
    reach = 0
    if room > 0.0:
        # the last table node inside the kernel's radius, by its own test; the
        # seams lie between nodes m and m + 1 for m = reach and -reach - 1, and
        # node W's taps straddle one where W + base lies in m - 3..m + 3
        reach = int(math.sqrt(room) / spacing) + 1
        while (reach * spacing) * (reach * spacing) + a * a > _ASYMPTOTIC_RADIUS**2:
            reach -= 1
    # the results first, below the temporaries in the heap
    m = np.where(head, reach, -reach - 1)
    low = m - base[:, cols] - 3
    terms = np.empty((shifts.shape[0], 7, cols.size), dtype=complex)
    fine_terms = np.empty((shifts.shape[0], 9 * r if r > 1 else 0, cols.size), dtype=complex)
    lo = taps.min(axis=(1, 2)) // _PAD * _PAD
    sizes = [1 << (_SEGMENT + int(top) - int(bottom) - 1).bit_length() for top, bottom in zip(taps.max(axis=(1, 2)), lo)]
    taps -= lo[:, None, None]
    delta, c = (2.0 * np.pi * shifts / ku)[:, None, cols], weights[:, None, cols]
    x = (phase + (low[:, None] + np.arange(7)[:, None]) * work_step) * (2.0 * np.pi) / ku - delta
    at = (m + np.arange(-6, 8)[:, None]) * spacing
    _seam_terms(x, at, stencil[:, cols].swapaxes(1, 2)[:, None, None], a, c, terms)
    fine_low = low
    if r > 1:
        # the sublattice interval (m, m + 1) of each seam; the taps of rows
        # m - 3..m + 3 straddle it, and rounding moves m by at most one, so
        # the points N of rows m - 4..m + 4 are corrected, from the nodes
        # N = r M of their taps, M = m - 7..m + 8
        radius = math.sqrt(max(room, 0.0))
        seams = (delta + np.where(head, -radius, radius)) * ku / (2.0 * np.pi)
        m = np.floor((seams - phase) / (r * step)).astype(np.int64)
        points = r * (m - 4) + np.arange(9 * r)[:, None]
        x = (phase + np.concatenate([points, r * (m - 7 + np.arange(16)[:, None])], axis=1) * step) * (2.0 * np.pi) / ku - delta
        fine_low = r * (m[:, 0] - 4)
        _seam_terms(x[:, : 9 * r], x[:, 9 * r :], _stencil_weights(np.arange(r) / r)[:, :, None], a, c, fine_terms)
    return [(a, spacing, int(lo[f]), sizes[f], taps[f].ravel(), tap_weights[f].ravel(), low[f], terms[f], fine_low[f],
             fine_terms[f]) for f in range(shifts.shape[0])]


def _add_correlation(chi, first, stride, a, spacing, start, size, taps, tap_weights):
    """Add the table correlated with D to ``chi``, whose point i is working node first + stride i.

    D of ``size`` nodes holds ``tap_weights`` at ``taps``, and the table
    segments start ``start`` nodes past their output segments
    (``_table_segment``); each output segment that holds a node is the
    correlation of its table segment with D, and its nodes are one
    strided slice of it.
    """
    last = first + stride * (chi.size - 1)
    # the first point of each output segment that holds one
    starts = sorted({0, *(-(-(s * _SEGMENT - first) // stride) for s in range(first // _SEGMENT + 1, last // _SEGMENT + 1))})
    line = np.zeros(size)
    np.add.at(line, taps, tap_weights)
    line = np.fft.fft(line)
    np.conjugate(line, out=line)
    values = np.empty((len(starts), size), dtype=complex)
    for row, i in zip(values, starts):
        np.multiply(_table_segment(a, spacing, (first + stride * i) // _SEGMENT * _SEGMENT + start, size), line, out=row)
    np.fft.ifft(values, out=values)
    for row, i, j in zip(values, starts, starts[1:] + [chi.size]):
        chi[i:j] += row[(first + stride * i) % _SEGMENT :: stride][: j - i]


class LineSide:
    """The line side of chi on one grid, for each (field, polarization) of ``fields``.

    Every field must be finite.  ``freq_hz`` is absolute optical
    frequency, finite at every point, in any order; ``freq`` holds its
    points in ascending order, and ``unsorted`` puts values at them back
    in the caller's order.  Whether the grid is a lattice, and its working
    lattice, are decided once for the whole grid.  Per field and isotope
    the side holds the Zeeman components, and on a lattice D and the seam
    terms of both stages (``_lattice_side``); ``chi`` is the point side,
    one field on one range of ``freq`` at a time (see the module
    docstring).
    """

    def __init__(self, freq_hz, cell: VaporCell, fields):
        self.grid = np.asarray(freq_hz, dtype=float)
        freq = self.grid.reshape(-1)
        if not np.isfinite(freq).all():
            raise ValueError("frequencies must be finite")
        if not all(math.isfinite(b) for b, _ in fields):
            raise ValueError("magnetic fields must be finite")
        self.order = None
        if (freq[1:] < freq[:-1]).any():
            self.order = np.argsort(freq, kind="stable")
            freq = freq[self.order]
        self.freq, self.cell, self.fields = freq, cell, fields
        table = cell.table
        ref = table.reference_frequency_hz
        n_total = vapor_density(cell.temperature_k)

        lam = SPEED_OF_LIGHT / ref
        k_wave = wavevector(table)
        gamma_natural = 2.0 * np.pi * table.natural_fwhm_hz
        # angular Lorentzian HWHM: natural plus collisional
        gamma_l = np.pi * (table.natural_fwhm_hz + cell.buffer_fwhm_hz)

        # (step, phase, first, r, q, work_step): point i of ``freq`` sits at
        # phase + (i + first) step from the reference and working node W at
        # phase + W work_step; None takes chi at every point
        self.lattice = None
        step = _lattice_step(freq)
        if step is not None:
            # the heaviest isotope has the largest step in Doppler widths
            mass = max(iso.mass_kg for iso in table.isotopes.values() if iso.abundance)
            h = step * 2.0 * np.pi / (k_wave * np.sqrt(2.0 * BOLTZMANN * cell.temperature_k / mass))
            r = _sublattice_ratio(h)
            # read at the point nearest the reference, whose offset from it
            # is exact
            nearest = int(np.clip(np.rint((ref - freq[0]) / step), 0, freq.size - 1))
            n_nearest, phase = _exact_divmod(float(freq[nearest] - ref), step)
            # q working nodes per step where the step is coarser than the table's
            q = 1 if r else math.ceil(h / _TABLE_SPACING)
            self.lattice = (step, phase, n_nearest - nearest, r, q, r * step if r > 1 else step / q)
        b_values = np.array([b for b, _ in fields], dtype=float)
        plus = np.array([q == 1 for _, q in fields])[:, None]
        self.isotopes = [[] for _ in fields]
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
            # each field's components, both polarizations at every field
            # (their weights do not depend on the field, and sigma- has as
            # many components as sigma+), one row per field
            both = []
            for polarization in (1, -1):
                parts = [zeeman_components(line, b_values, polarization) for line in lines]
                both.append((np.concatenate([line.offset_hz + part.offsets_hz for line, part in zip(lines, parts)], axis=1),
                             prefactor * np.concatenate([part.weights for part in parts])))
            shifts, weights = (np.where(plus, *pair) for pair in zip(*both))
            if self.lattice is None:
                sides = [(a, ku, 2.0 * np.pi * row / ku, w) for row, w in zip(shifts, weights)]
            else:
                sides = _lattice_side(self.lattice, a, ku, shifts, weights)
            for side, part in zip(self.isotopes, sides):
                side.append(part)

    def chi(self, field: int, block: slice = slice(None)) -> np.ndarray:
        """chi of the ``field``-th (field, polarization) at the points ``freq[block]``, a range of them.

        On a lattice each isotope's table is correlated with its D on the
        block's working nodes, output segment by output segment, and the
        seam terms of the nodes, and then of the points, that the block
        holds are added; otherwise each isotope's direct sum.
        """
        lo, hi, _ = block.indices(self.freq.size)
        if self.lattice is None:
            chi = np.zeros(hi - lo, dtype=complex)
            for a, ku, offsets, weights in self.isotopes[field]:
                # freq - reference is exact within a factor of two of the reference
                x = self.freq[lo:hi] - self.cell.table.reference_frequency_hz
                x *= 2.0 * np.pi
                x /= ku
                _add_direct(chi, x, a, offsets, weights)
            return chi
        _, _, first, r, q, _ = self.lattice
        first += lo
        last = first + hi - lo - 1
        # chi[i] at working node w0 + stride i
        if r > 1:
            w0, count, stride = first // r + _FIRST_TAP, last // r - first // r + _LAST_TAP - _FIRST_TAP + 1, 1
        else:
            w0, count, stride = q * first, hi - lo, q
        chi = np.zeros(count, dtype=complex)
        for a, spacing, start, size, taps, tap_weights, low, terms, _, _ in self.isotopes[field]:
            _add_correlation(chi, w0, stride, a, spacing, start, size, taps, tap_weights)
            index, off = np.divmod(low + np.arange(7)[:, None] - w0, stride)
            _correct_seams(chi, np.where((off == 0) & (index >= 0) & (index < count), index, -1), terms)
        if r > 1:
            chi = _interpolate(chi, first, hi - lo, r)
            for *_, low, terms in self.isotopes[field]:
                points = low + np.arange(terms.shape[0])[:, None]
                _correct_seams(chi, np.where((points >= first) & (points <= last), points - first, -1), terms)
        return chi

    def unsorted(self, values: np.ndarray) -> np.ndarray:
        """``values`` at the points of ``freq``, put in the caller's order in place."""
        if self.order is not None:
            values[self.order] = values.copy()
        return values


def complex_susceptibility(freq_hz, polarization: int, b_field_t: float, cell: VaporCell) -> np.ndarray:
    """Linear susceptibility chi(nu) of ``cell`` for one circular polarization.

    Sums Voigt responses of every Zeeman-shifted hyperfine component,
    weighted by transition strength and isotope abundance, at the
    saturated vapor density of the cell temperature.  ``freq_hz`` is
    absolute optical frequency, finite at every point; ``polarization``
    is +1 or -1 for sigma+/sigma-.  The cell length does not enter.  The
    points are evaluated in ascending order and returned in the caller's.
    On a lattice (``_lattice_step``) each isotope's sum is its kernel
    table correlated with its line distribution on the working lattice,
    interpolated where that lattice is a sublattice; any other input takes
    the direct sum (``_add_direct``).  The one-field case of ``LineSide``.
    """
    if polarization not in (-1, 1):
        raise ValueError("polarization must be +1 or -1")
    side = LineSide(freq_hz, cell, [(b_field_t, polarization)])
    return side.unsorted(side.chi(0)).reshape(side.grid.shape)
