"""Sub-threshold OPO output: longitudinal mode comb and emission spectrum.

The cavity emits photon pairs into a comb of longitudinal modes spaced by
the free spectral range, symmetric about the degenerate mode, under a
sinc^2 phase-matching envelope.  Each mode is a Lorentzian of width set
by the total cavity decay rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lines import AtomicLineTable
from .spectrum import Spectrum

# The reference operating point: the degenerate frequency sits on the
# calculated transmission peak of the default filter, given relative to
# the line-center reference.
DEFAULT_OPERATING_OFFSET_HZ = -3.9259e9
# Half width, in mode linewidths, of the window over which a mode's
# filter transmission is averaged; a mode is usable only when its whole
# window lies on the frequency grid.
MODE_WINDOW_LINEWIDTHS = 50.0
# Envelope weight, relative to the degenerate mode, below which the comb
# is truncated.
MODE_WEIGHT_CUTOFF = 1e-3

# argument where sinc^2(x) = 1/2, i.e. sin(x)/x = 1/sqrt(2)
_SINC_SQ_HALF = 1.3915573810029747


def _default_degenerate_hz() -> float:
    return AtomicLineTable.rubidium_d1().reference_frequency_hz + DEFAULT_OPERATING_OFFSET_HZ


@dataclass
class OpoConfig:
    """Cavity and pump parameters of the pair source.

    ``gamma1`` and ``gamma2`` are angular decay rates (rad/s); only their
    sum enters the observables here.  ``pair_rate_hz`` is the detected
    pair rate (all detection efficiencies already folded in).
    """

    gamma1: float = 2.0 * np.pi * 6.3e6
    gamma2: float = 2.0 * np.pi * 2.1e6
    roundtrip_s: float = 1.99e-9
    fsr_hz: float = 501e6
    envelope_fwhm_hz: float = 150e9
    degenerate_frequency_hz: float = field(default_factory=_default_degenerate_hz)
    pair_rate_hz: float = 1e4

    def __post_init__(self):
        if self.gamma1 <= 0 or self.gamma2 <= 0:
            raise ValueError("decay rates must be positive")
        if self.roundtrip_s <= 0 or self.fsr_hz <= 0:
            raise ValueError("round-trip time and FSR must be positive")
        if self.pair_rate_hz < 0:
            raise ValueError("pair rate cannot be negative")
        if not self.envelope_fwhm_hz > 0:
            raise ValueError("phase-matching envelope FWHM must be positive")
        product = self.fsr_hz * self.roundtrip_s
        if abs(product - 1.0) > 0.01:
            raise ValueError(
                f"FSR x round-trip = {product:.4f}; inconsistent beyond 1%"
            )
        if self.mode_fwhm_hz >= self.fsr_hz:
            raise ValueError("mode width must be far below the mode spacing")

    @property
    def gamma_sum(self) -> float:
        return self.gamma1 + self.gamma2

    @property
    def mode_fwhm_hz(self) -> float:
        return self.gamma_sum / (2.0 * np.pi)


@dataclass
class ModeComb:
    indices: np.ndarray
    frequencies_hz: np.ndarray
    weights: np.ndarray

    @property
    def n_max(self) -> int:
        return self.indices.size // 2

    def __post_init__(self):
        # mode n sits at position n + n_max, so a reversed per-mode array
        # holds the mirror modes -n
        if not np.array_equal(self.indices, np.arange(-self.n_max, self.n_max + 1)):
            raise ValueError("mode indices must be symmetric and ordered -N..N")
        if self.weights[self.n_max] != 1.0:
            raise ValueError("degenerate-mode weight must be 1")


def mode_comb(cfg: OpoConfig, max_modes: int | None = None) -> ModeComb:
    """Retained cavity modes under the phase-matching envelope.

    The envelope is sinc^2 with the configured FWHM, normalized to 1 at
    the degenerate mode.  Modes are retained symmetrically out to the
    first index whose weight drops below MODE_WEIGHT_CUTOFF (sidelobe
    revivals beyond that point are not re-admitted).  ``max_modes`` caps
    the index; it is mandatory for an infinite envelope.
    """
    cap = np.inf if max_modes is None else max_modes
    if cap < 0:
        raise ValueError("mode cap cannot be negative")
    # weight(n) = sinc^2(beta n); beta is zero for an infinite envelope
    beta = 2.0 * _SINC_SQ_HALF * cfg.fsr_hz / cfg.envelope_fwhm_hz
    if beta == 0 and max_modes is None:
        raise ValueError("an infinite envelope requires an explicit mode cap")
    n_max = 0
    while n_max < cap and _sinc_sq(beta * (n_max + 1)) >= MODE_WEIGHT_CUTOFF:
        n_max += 1
    idx = np.arange(-n_max, n_max + 1)
    return ModeComb(
        indices=idx,
        frequencies_hz=cfg.degenerate_frequency_hz + idx * cfg.fsr_hz,
        weights=_sinc_sq(beta * idx),
    )


class ModeOutsideGridError(ValueError):
    def __init__(self, index: int, detail: str = ""):
        super().__init__(f"mode {index}: Lorentzian window not covered by the filter grid{detail}")
        self.index = index


def modes_within_grid(cfg: OpoConfig, grid_hz, degenerate_hz: float) -> int:
    """Largest n for which the averaging windows of modes -n..n lie on a grid.

    ``grid_hz`` is the grid that was built and ``degenerate_hz`` the comb
    center.  Mode n is kept when both windows,
    degenerate -+ n*FSR -+ MODE_WINDOW_LINEWIDTHS*linewidth, lie within
    ``grid_hz[0]`` and ``grid_hz[-1]``.  A grid that cannot hold even the
    degenerate mode's window raises ModeOutsideGridError for mode 0,
    stating the smallest grid half span that would.
    """
    window = MODE_WINDOW_LINEWIDTHS * cfg.mode_fwhm_hz
    lo, hi = grid_hz[0], grid_hz[-1]

    def fits(n: int) -> bool:
        step = n * cfg.fsr_hz
        return degenerate_hz - step - window >= lo and degenerate_hz + step + window <= hi

    if not fits(0):
        offset = degenerate_hz - 0.5 * (lo + hi)
        raise ModeOutsideGridError(0, (
            f"; the degenerate mode at {offset / 1e9:+.4g} GHz from the grid center, with its "
            f"+-{window / 1e6:.4g} MHz window, needs a half span of at least "
            f"{(abs(offset) + window) / 1e9:.4g} GHz; the grid half span of "
            f"{0.5 * (hi - lo) / 1e9:.4g} GHz is too small"))
    n = 0
    while fits(n + 1):
        n += 1
    return n


def _sinc_sq(x):
    return np.sinc(np.asarray(x) / np.pi) ** 2


def output_spectrum(comb: ModeComb, cfg: OpoConfig, freq_hz) -> Spectrum:
    """Emission power spectral density: weighted unit-area mode Lorentzians.

    Every mode of ``comb`` is summed; callers pass a comb truncated by
    modes_within_grid, so each mode lies on the grid.
    """
    freq = np.asarray(freq_hz, dtype=float)
    hwhm = 0.5 * cfg.mode_fwhm_hz
    psd = np.zeros(freq.shape)
    # one reused scratch array; the operations keep the order of
    # psd += w * (hwhm / pi) / ((freq - f0)**2 + hwhm**2)
    term = np.empty(freq.shape)
    for f0, w in zip(comb.frequencies_hz, comb.weights):
        np.subtract(freq, f0, out=term)
        np.square(term, out=term)
        term += hwhm**2
        np.divide(w * (hwhm / np.pi), term, out=term)
        psd += term
    return Spectrum(frequency_hz=freq, value=psd, kind="density_per_hz")
