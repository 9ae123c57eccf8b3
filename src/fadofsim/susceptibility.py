"""Complex susceptibility of a thermal alkali vapor near one fine-structure line.

The lineshape kernel is the complex Voigt profile expressed through the
Faddeeva function w(z); its real part is the Doppler-broadened absorption
profile and its imaginary part the matching dispersion.  Far from every
resonance the kernel is evaluated with the standard asymptotic
continued-series of w(z), which is indistinguishable from the direct
evaluation at the switchover radius but orders of magnitude faster on
wide frequency grids.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from scipy.special import wofz

from .constants import BOLTZMANN, SPEED_OF_LIGHT, TORR_TO_PA
from .lines import AtomicLineTable, zeeman_components

if TYPE_CHECKING:
    from .vapor import VaporCell

# |z| beyond which the asymptotic series replaces wofz.  At radius 14 the
# four-term series agrees with wofz to better than 1e-8 relative.
_ASYMPTOTIC_RADIUS = 14.0
_SQRT_PI = np.sqrt(np.pi)


def complex_voigt(x, a):
    """Complex Voigt kernel w(x + i a) for Lorentzian half-width ``a``.

    ``x`` is detuning and ``a`` the Lorentzian HWHM, both in units of the
    1/e Doppler half-width.  Re is the absorption shape (area sqrt(pi) in
    ``x``), Im the dispersion shape.  Requires a > 0.
    """
    x = np.asarray(x, dtype=float)
    z = x + 1j * a
    out = np.empty(z.shape, dtype=complex)
    far = np.abs(z) > _ASYMPTOTIC_RADIUS
    near = ~far
    if np.any(near):
        out[near] = wofz(z[near])
    if np.any(far):
        zf = z[far]
        inv2 = 1.0 / (zf * zf)
        series = 1.0 + inv2 * (0.5 + inv2 * (0.75 + inv2 * 1.875))
        out[far] = (1j / _SQRT_PI) * series / zf
    return out


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
                chi += (prefactor * weight) * 1j * complex_voigt(x, a)
    return chi
