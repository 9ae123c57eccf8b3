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
array, so a zone, or a group's far set below, that holds exactly one
point is evaluated on two copies of it (``_points``): every point gets
the same value bit for bit in any array that holds it.

The susceptibility groups the Zeeman components by their line's ground
level (isotope, F).  Offsets are formed from the reference frequency,
never as absolute frequencies.  A group's components lie within s
Doppler widths of its centre, the midpoint of their offsets; at every
point farther than 14 + s from that centre each component is in the
four-term zone, and their weighted sum is one series
sum_p A_p (z - centre)^(-p).  A_p re-expands every pole of the four-term
series about the centre through the weighted offset moments.  The order
P is the least with C(P, 6) rho^(P - 6) < 1e-17, rho = s / (s + 14): that
bounds the first dropped term of the z^(-7) pole's expansion, and the
dropped terms of the lower poles are smaller.  One component gives
P = 7, the four-term series itself; a group that would need more than
64 terms (s above about 8) takes no far field.  Against the direct sum of
the kernel over 3,000 random groups of 1-12 components within 2 Doppler
widths of each other, weights from 1e-3 to 1e3 and widths from 1e-6 to 1,
the series is within 1.3e-15 relative at all 7.0 million far points; on
the default 7 x 7 scan and the 160,001-point grid the transmissions
moved by at most 4.1e-14.  Every other point of a group, its near set,
takes each component's kernel value; a group with no near point, as in
a block of the grid's far wings, makes no kernel call.  The points are
evaluated in ascending order, sorted once when they are not already and
returned in the caller's order, so that every near set is one slice and
a permutation of any finite input permutes its values bit for bit.  One
routine (``_add_groups``) adds every input's groups: first each group's
far field, then the near sets.

A lattice is an input of at least two points whose consecutive
differences, in ascending order, are bitwise equal (``_lattice_step``),
as every CLI grid is.  All components of an isotope share its
Lorentzian width a, so on a lattice of step D Hz each component k needs
w at the points x_i - delta_k + i a of one lattice of spacing
h = 2 pi D / ku, shifted by the same fraction of h at every point.  Per isotope the kernel is
evaluated once, on the table nodes y = j h_t for every j with
(j h_t)^2 + a^2 <= 14^2, by the kernel's own test: h_t = h / q with q the
least integer giving h_t <= 0.012.  The table depends on a and h_t
alone.  A point's offset from the reference frequency is phase + N D,
with N an integer and 0 <= phase < D the same at every point, exactly
within a factor of two of the reference, where every near point lies.
Component k's point N then sits at the fraction theta_k past node
m_k + q N, with m_k and theta_k fixed per component and found the same
way in every slice of the lattice.  Where all eight taps m - 3 .. m + 4
are table nodes, the component's value is the sum of the eight taps
with its Lagrange weights: eight strided slices of the table, no
gather.  Every node lies inside |z| <= 14, so no stencil reaches across
the four-term seam.  The rest of the near set, the ring within the
stencil's reach of |z| = 14 or beyond it, takes the kernel's zones,
batched over the isotope in calls of at most 2**15 points
(``_ring_values``): one call on the default grids.  The stencil is
within 1.3e-15 of the kernel and 1.9e-15 of ``wofz`` (absolute, 400
random points for each of ten widths from 1e-6 to 13 and spacings from
0.001 to 0.012); on the default 7 x 7 scan the transmissions moved by at
most 2.7e-14.  A table holds at most
2**16 nodes, 1 MB: on finer lattices (steps below about 140 kHz at
365 K), and on every input that is no lattice, the whole near set is
ring.  Tables are kept for their (a, h_t) (``_lattice_table``), so the
blocks of one grid, both polarizations and the scan points of one
temperature read one.  The kernel evaluates a zone only when it holds a
point.
"""

from __future__ import annotations

import functools
import math
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
# A group's far field: the four-term series of each component k, about
# its own offset delta_k from the group's centre, re-expanded in powers of
# 1 / (z - centre).  The order P is the least with
# C(P, m - 1) rho^(P - m + 1) < _FAR_TRUNCATION, the first dropped term of
# the highest pole z^(-m), m = 7, with rho = s / (s + _ASYMPTOTIC_RADIUS)
# and s the largest |delta_k|; _FAR_MARGIN keeps every far point beyond
# the kernel's own radius after rounding.
_MAX_FAR_ORDER = 64
_FAR_TRUNCATION = 1e-17
_FAR_MARGIN = 1e-9
_FAR_POLE = 2 * _FAR_TERMS - 1
_FAR_ORDERS = np.arange(_FAR_POLE, _MAX_FAR_ORDER + 1)
_FAR_ORDER_BINOMIAL = np.array([math.comb(int(p), _FAR_POLE - 1) for p in _FAR_ORDERS], dtype=float)
# C(q, 2n) for q < _MAX_FAR_ORDER and n < _FAR_TERMS: since
# (z - delta)^(-m) = sum_j C(m - 1 + j, j) delta^j z^(-m - j), the far
# series has A_(q+1) = sum_n c_n C(q, 2n) M_(q-2n) with the weighted
# offset moments M_j = sum_k w_k delta_k^j
_FAR_BINOMIALS = np.array(
    [[math.comb(q, 2 * n) for n in range(_FAR_TERMS)] for q in range(_MAX_FAR_ORDER)], dtype=float
)


# The lattice table (see the module docstring): nodes at most
# _TABLE_SPACING Doppler widths apart, at most _TABLE_MAX_NODES of them
# (1 MB), and the stencil's taps, the nodes m + _FIRST_TAP..m + _LAST_TAP
# for a point at m + theta, 0 <= theta < 1.
_TABLE_SPACING = 0.012
_TABLE_MAX_NODES = 2**16
_FIRST_TAP, _LAST_TAP = -3, 4
_TAPS = np.arange(_FIRST_TAP, _LAST_TAP + 1)
_TAP_DENOMINATORS = np.array([math.prod(float(t - s) for s in _TAPS if s != t) for t in _TAPS])
# Most ring points evaluated in one kernel call (see _ring_values).
_RING_CHUNK = 2**15


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


def _reciprocal(x, a, d):
    """1 / (x + i a) = (x - i a) d for d = 1 / (x^2 + a^2)."""
    inv = np.empty(x.shape, dtype=complex)
    np.multiply(x, d, out=inv.real)
    np.multiply(d, -a, out=inv.imag)
    return inv


def _asymptotic_series(x, a, d):
    """The four-term A&S 7.1.23 series of w(x + i a).

    ``d`` is 1 / (x^2 + a^2), so 1/z needs no complex division.
    """
    inv = _reciprocal(x, a, d)
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


def _far_coefficients(delta, weights):
    """A_1..A_P of sum_k weights[k] w(z - delta[k]) ~ (i / sqrt(pi)) sum_p A_p z^(-p).

    ``delta`` are the offsets from the group's centre.  One component at
    delta = 0 gives P = 7 and the four-term series itself.  Returns None
    where P would exceed ``_MAX_FAR_ORDER``.
    """
    spread = np.abs(delta).max()
    ratio = spread / (spread + _ASYMPTOTIC_RADIUS)
    fits = _FAR_ORDER_BINOMIAL * ratio ** (_FAR_ORDERS - _FAR_POLE + 1) < _FAR_TRUNCATION
    if not fits.any():
        return None
    order = _FAR_ORDERS[fits.argmax()]
    moments = (delta ** np.arange(order)[:, None] * weights).sum(axis=1)
    coeffs = np.zeros(order, dtype=moments.dtype)
    for n in range(_FAR_TERMS):
        coeffs[2 * n :] += _SERIES_COEFFS[n] * _FAR_BINOMIALS[2 * n : order, n] * moments[: order - 2 * n]
    return coeffs


def _add_far_field(out, x, a, offsets, weights):
    """Add one group's far field, sum_k weights[k] w(x - offsets[k] + i a), to ``out``.

    ``x`` (one-dimensional) and ``offsets`` are in Doppler units.  Takes
    the points farther than ``_ASYMPTOTIC_RADIUS + s`` (plus
    ``_FAR_MARGIN``) from the group's centre, the midpoint of its
    offsets, with s the largest offset from it, and returns their mask.
    The sum there is one series in 1 / (z - centre), evaluated on all of
    ``x`` at once: ``vapor.fadof_transmission`` hands over one grid block
    at a time, and that block bounds the series' temporaries.
    """
    centre = 0.5 * (offsets.min() + offsets.max())
    delta = offsets - centre
    coeffs = _far_coefficients(delta, weights)
    if coeffs is None:
        return np.zeros(x.shape, dtype=bool)
    radius = _ASYMPTOTIC_RADIUS + np.abs(delta).max() + _FAR_MARGIN
    xc = x - centre
    r2 = xc * xc
    r2 += a * a
    far = r2 > radius**2
    # a lone far point is indexed twice; out[at] += s adds its value once
    at = _points(far)
    s = _horner(_reciprocal(xc[at], a, np.divide(1.0, r2[at])), coeffs[::-1])
    s *= 1j / _SQRT_PI
    out[at] += s
    return far


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


def _table_reach(a, spacing):
    """The largest J with every node j spacing, |j| <= J, in the kernel's radius.

    The kernel's own test, y^2 + a^2 <= 14^2, decides.  None where the
    table would hold more than ``_TABLE_MAX_NODES`` nodes or too few for
    one stencil.
    """
    room = _ASYMPTOTIC_RADIUS**2 - a * a
    if room <= 0.0:
        return None
    reach = int(math.sqrt(room) / spacing) + 1
    if 2 * reach + 1 > _TABLE_MAX_NODES:
        return None
    while reach >= 0:
        y = reach * spacing
        if y * y + a * a <= _ASYMPTOTIC_RADIUS**2:
            break
        reach -= 1
    return reach if 2 * reach + 1 >= _TAPS.size else None


@functools.lru_cache(maxsize=16)
def _lattice_table(a, spacing, reach):
    """i w(j spacing + i a) for j = -reach..reach, as a read-only (2 reach + 1, 2) float array.

    One kernel call.  The table is a pure function of its arguments and
    is kept for the next calls with the same ones: the blocks of one grid
    and both polarizations read one table.
    """
    table = complex_voigt(np.arange(-reach, reach + 1) * spacing, a)
    table *= 1j
    table = table.view(float).reshape(-1, 2)
    table.flags.writeable = False
    return table


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


def _ring_values(x, a, pieces):
    """i w(x[s:e] - offset + i a) for each piece (s, e, offset) in turn.

    The kernel's zones run on consecutive pieces concatenated, at most
    ``_RING_CHUNK`` points at a time (or one longer piece): one call for
    a lattice's usual ring, and a bounded working set where the whole
    near set is ring, on an input with no table or where a strong field
    spreads a group's components over the whole grid.
    """
    first = 0
    while first < len(pieces):
        last, size = first + 1, pieces[first][1] - pieces[first][0]
        while last < len(pieces) and size + pieces[last][1] - pieces[last][0] <= _RING_CHUNK:
            size += pieces[last][1] - pieces[last][0]
            last += 1
        values = _voigt_zones(np.concatenate([x[s:e] - offset for s, e, offset in pieces[first:last]]), a)
        values *= 1j
        values = values.view(float).reshape(-1, 2)
        at = 0
        for s, e, _ in pieces[first:last]:
            yield values[at : at + e - s]
            at += e - s
        first = last


def _add_groups(chi, x, a, groups, lattice):
    """Add one isotope's groups to ``chi`` on ascending ``x``.

    Each group is (offsets, weights, base, theta): the component offsets
    in Doppler units and their real weights (chi gains weight * i w).
    ``lattice`` is the isotope's table as (spacing, reach, q), or None;
    with a table, base and theta give each component's node and fraction,
    point i lying theta past node base + q i.  A group's far field is
    ``_add_far_field``'s.  Its other points, the near set, are one slice
    of the ascending ``x``: each component takes those whose taps all lie
    in the table from the stencil and the rest, its ring, from
    ``_ring_values`` for the whole isotope.
    """
    spacing, reach, q = lattice or (None, None, None)
    todo = []
    pieces = []
    for offsets, weights, base, theta in groups:
        near = ~_add_far_field(chi, x, a, offsets, 1j * weights)
        lo = int(near.argmax())
        hi = lo + int(np.count_nonzero(near))
        if hi == lo:
            continue
        spans = [(hi, hi)] * offsets.size
        taps = None
        if lattice is not None:
            spans = []
            for b in base.tolist():
                # the points whose taps all lie in -reach..reach
                start = max(lo, -((reach + _FIRST_TAP + b) // q))
                stop = min(hi, (reach - _LAST_TAP - b) // q + 1)
                spans.append((start, stop) if start < stop else (hi, hi))
            taps = _stencil_weights(theta) * weights[:, None]
        for (start, stop), offset in zip(spans, offsets):
            pieces += [(s, e, offset) for s, e in ((lo, start), (stop, hi)) if e > s]
        todo.append((lo, hi, spans, weights, base, taps))
    if not todo:
        return
    ring = _ring_values(x, a, pieces)
    table = None if lattice is None else _lattice_table(a, spacing, reach)
    for lo, hi, spans, weights, base, taps in todo:
        total = np.zeros(hi - lo, dtype=complex)
        sums = total.view(float).reshape(-1, 2)
        acc = np.empty_like(sums)
        tmp = np.empty_like(sums)
        for k, ((start, stop), weight) in enumerate(zip(spans, weights.tolist())):
            for s, e in ((lo, start), (stop, hi)):
                if e > s:
                    np.multiply(next(ring), weight, out=tmp[: e - s])
                    sums[s - lo : e - lo] += tmp[: e - s]
            n = stop - start
            if not n:
                continue
            first = reach + int(base[k]) + q * start + _FIRST_TAP
            for t in range(_TAPS.size):
                nodes = table[first + t : first + t + q * (n - 1) + 1 : q]
                np.multiply(nodes, taps[k, t], out=acc[:n] if t == 0 else tmp[:n])
                if t:
                    acc[:n] += tmp[:n]
            sums[start - lo : stop - lo] += acc[:n]
        chi[lo:hi] += total


def complex_susceptibility(freq_hz, polarization: int, b_field_t: float, cell: VaporCell) -> np.ndarray:
    """Linear susceptibility chi(nu) of ``cell`` for one circular polarization.

    Sums Voigt responses of every Zeeman-shifted hyperfine component,
    weighted by transition strength and isotope abundance, at the
    saturated vapor density of the cell temperature.  ``freq_hz`` is
    absolute optical frequency, finite at every point; ``polarization``
    is +1 or -1 for sigma+/sigma-.  The cell length does not enter.  The
    points are evaluated in ascending order and returned in the caller's.
    The components of one ground level (isotope, F) form a group, added
    by ``_add_groups``; on a lattice (``_lattice_step``) each isotope's
    near sets read its table where one fits.
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
    step = _lattice_step(freq)
    if step is not None:
        # point i sits at phase + (i + shift) step from the reference,
        # exactly: read at the point nearest the reference, whose offset
        # from it is exact
        nearest = int(np.clip(np.rint((ref - freq[0]) / step), 0, freq.size - 1))
        n_nearest, phase = _exact_divmod(float(freq[nearest] - ref), step)
        shift = n_nearest - nearest
    n_total = vapor_density(cell.temperature_k)

    lam = SPEED_OF_LIGHT / ref
    k_wave = wavevector(table)
    gamma_natural = 2.0 * np.pi * table.natural_fwhm_hz
    # angular Lorentzian HWHM: natural plus collisional
    gamma_l = np.pi * (table.natural_fwhm_hz + cell.buffer_fwhm_hz)

    chi = np.zeros(freq.size, dtype=complex)
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
        # freq - reference is exact within a factor of two of the reference
        x = freq - ref
        x *= 2.0 * np.pi
        x /= ku
        lattice = None
        if step is not None:
            q = max(1, math.ceil(step * 2.0 * np.pi / ku / _TABLE_SPACING))
            spacing = float(step / q * 2.0 * np.pi / ku)
            reach = _table_reach(a, spacing)
            if reach is not None:
                lattice = (spacing, reach, q)
        levels: dict[float, tuple[list, list]] = {}
        for line in table.lines:
            if line.isotope == iso.name:
                parts = zeeman_components(line, b_field_t, polarization)
                shifts, weights = levels.setdefault(line.fg, ([], []))
                shifts.append(line.offset_hz + parts.offsets_hz)
                weights.append(parts.weights)
        groups = []
        for shifts, weights in levels.values():
            shifts = np.concatenate(shifts)
            base = theta = None
            if lattice is not None:
                # component k at lattice point N lies nodes[k] + q N table
                # nodes from its line; grid point i is N = i + shift
                nodes = (phase - shifts) / (step / q)
                base = np.floor(nodes)
                base, theta = base.astype(np.int64) + q * shift, nodes - base
            groups.append((2.0 * np.pi * shifts / ku, prefactor * np.concatenate(weights), base, theta))
        _add_groups(chi, x, a, groups, lattice)
    if order is not None:
        chi[order] = chi.copy()
    return chi.reshape(shape)
