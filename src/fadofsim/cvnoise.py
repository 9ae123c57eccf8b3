"""Continuous-variable noise budget of a probe beam behind the filter.

Convention used throughout: "x dB of squeezing" means a quadrature
variance of 10**(-x/10) relative to shot noise, so bigger numbers are
deeper squeezing and 0 dB is the shot-noise limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import PLANCK, SPEED_OF_LIGHT


@dataclass(frozen=True)
class NoiseModel:
    """First-order field model behind the filter.

    A probe of mean amplitude ``mean_field`` with fluctuation
    ``field_noise`` passes a filter of mean amplitude transmission
    ``mean_transmission`` with fluctuation ``transmission_noise``, then
    an optional neutral-density attenuator of amplitude transmission
    ``attenuation_amplitude`` acting on the probe (mean and fluctuation)
    but not on the filter fluctuation.  All amplitudes are dimensionless
    complex numbers; shot noise of the detected beam is normalized to 1.
    """

    mean_transmission: complex
    transmission_noise: complex = 0.0
    mean_field: complex = 0.0
    field_noise: complex = 0.0
    attenuation_amplitude: float = 1.0

    def __post_init__(self):
        if np.any(np.abs(np.asarray(self.mean_transmission)) > 1.0 + 1e-12):
            raise ValueError("mean transmission amplitude cannot exceed 1")
        t_nd = np.asarray(self.attenuation_amplitude)
        if np.any(t_nd <= 0.0) or np.any(t_nd > 1.0):
            raise ValueError("attenuation amplitude must lie in (0, 1]")


def excess_noise(model: NoiseModel) -> float | np.ndarray:
    """Quadrature variance above shot noise (variance minus 1).

    2 Re(conj(t a) (a dt + t da)) with the attenuated probe; the
    attenuator scales probe mean and fluctuation alike, so it factors
    out of the excess as an exact power of two.  The cross term of
    order dt*da is dropped.
    """
    t = np.asarray(model.mean_transmission)
    dt = np.asarray(model.transmission_noise)
    a = np.asarray(model.mean_field)
    da = np.asarray(model.field_noise)
    correction = 2.0 * np.real(np.conj(t * a) * (a * dt + t * da))
    out = model.attenuation_amplitude**2 * correction
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class NoiseFit:
    """Constant + linear decomposition of noise power versus probe power."""

    shot_noise: float
    linear_coefficient: float
    residuals: np.ndarray = field(repr=False, default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        if not self.shot_noise > 0:
            raise ValueError("fitted shot-noise constant must be positive")


def noise_vs_power_fit(powers, noise_powers) -> NoiseFit:
    """Least-squares fit noise = a + b*power over measured points."""
    p = np.asarray(powers, dtype=float)
    y = np.asarray(noise_powers, dtype=float)
    if p.shape != y.shape or p.ndim != 1:
        raise ValueError("powers and noise values must be matching 1-D arrays")
    if p.size < 3:
        raise ValueError("fit needs at least 3 points")
    if np.any(p < 0):
        raise ValueError("probe powers cannot be negative")
    if np.ptp(p) == 0:
        raise ValueError("all probe powers are equal, fit is degenerate")
    design = np.column_stack([np.ones_like(p), p])
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    a, b = float(coef[0]), float(coef[1])
    return NoiseFit(shot_noise=a, linear_coefficient=b, residuals=y - (a + b * p))


def squeezing_through_loss(squeezing_db: float, transmission: float) -> float:
    """Degrade squeezing by a passive loss of power transmission T.

    The lossy channel mixes the squeezed variance with vacuum:
    V_out = T*V_in + (1 - T), then converts back to dB below shot noise.
    """
    t = np.asarray(transmission, dtype=float)
    s = np.asarray(squeezing_db, dtype=float)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("power transmission must lie in [0, 1]")
    if np.any(s < 0.0):
        raise ValueError("input squeezing must be >= 0 dB (below shot noise)")
    out = -10.0 * np.log10(t * 10.0 ** (-s / 10.0) + (1.0 - t))
    return float(out) if np.ndim(out) == 0 else out


def photon_flux(power_w: float, wavelength_m: float) -> float:
    """Photons per second carried by an optical power at a wavelength."""
    if power_w < 0:
        raise ValueError("power cannot be negative")
    if wavelength_m <= 0:
        raise ValueError("wavelength must be positive")
    return power_w * wavelength_m / (PLANCK * SPEED_OF_LIGHT)
