"""Transmission of rubidium vapor cells: Faraday filter and resonant blocker.

The Faraday filter is a vapor cell in an axial magnetic field between
crossed polarizers.  The field splits the sigma+/sigma- refractive
indices, the differential phase rotates the polarization, and the output
polarizer converts that rotation into a narrow transmission peak while
rejecting everything else down to the polarizer extinction floor.

The blocking cell is the same vapor without polarizers or field, heated
until it is opaque over the filter passband; buffer-gas collisions give
its absorption Lorentzian wings wide enough to swallow the passband.

``fadof_transmission`` evaluates the filter in blocks of the grid, so
its working set is one block's susceptibilities and amplitudes whatever
the grid's length.  A grid of n points is split evenly into
ceil(n / ``_GRID_BLOCK``) blocks of consecutive points, whose lengths
differ by at most one.  Every value is computed point by point, so the blocks
change no rule, only which points share an array.  Splitting evenly
keeps every block of a longer grid above half ``_GRID_BLOCK``, so no
block holds a single point: a one-point block is no lattice, so it would
take the kernel's zones in place of the table and move that point's
value in the last bits.  (The kernel itself gives a lone point the value
it gets in any array; see ``susceptibility``.)
``_GRID_BLOCK`` is 2**15 so that the 20,001-point spectra of
``optimize`` and ``simulate`` stay one block, computed on the same
arrays as one whole-grid call.  On a 160,001-point grid (2 vCPU, numpy
2.4, medians of 11 in one process, before the lattice table below)
blocks of 2**15 took 0.21-0.22 s, the whole grid at once 0.22 s and
blocks of 2**13 0.27-0.29 s, about 30 % slower, as the per-call cost of
the component loop comes to dominate.

Every block of a lattice grid, one whose consecutive differences are
bitwise equal in ascending order, is a lattice too:
``make_frequency_grid``'s grids and the mirror grid of ``cmd_spectrum``
are.  On a lattice ``complex_susceptibility`` reads each isotope's
kernel values from one table (see ``susceptibility``), which the blocks
and both polarizations share, so the kernel runs once per isotope per
filter evaluation beside its rings; a point gets the same value in any
block.  A lattice finer than 0.006 Doppler widths (steps below about
2 MHz at 365 K, such as the 0.25 MHz grid) is evaluated on its
sublattice of every r-th point, anchored at absolute lattice indices,
and interpolated, so that a block of it evaluates about 1/r of its
points; each component's |z| = 14 seam is corrected point by point.  A
grid with unequal differences or a single point takes the kernel's
zones at every near point, batched per isotope, through the same
routine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lines import AtomicLineTable
from .spectrum import Spectrum
from .susceptibility import complex_susceptibility, wavevector

# Most grid points per block of fadof_transmission (see the module docstring).
_GRID_BLOCK = 2**15


@dataclass
class VaporCell:
    """A rubidium vapor cell; ``table`` holds its isotopic composition."""

    temperature_k: float
    length_m: float
    buffer_fwhm_hz: float = 0.0
    table: AtomicLineTable = field(default_factory=AtomicLineTable.rubidium_d1)

    def __post_init__(self):
        if self.temperature_k <= 0:
            raise ValueError("temperature must be positive")
        if self.length_m <= 0:
            raise ValueError("cell length must be positive")
        if self.buffer_fwhm_hz < 0:
            raise ValueError("buffer-gas broadening cannot be negative")


@dataclass
class FilterConfig(VaporCell):
    # Defaults reproducing the reference operating point.  The length is a
    # calibration product: at 4.5 mT and 365 K, 0.30 m gives the targets of
    # README "Notes on the defaults", a peak transmission near 0.70 with a
    # 510 MHz FWHM.  The calibration used the natural-abundance line table;
    # such a cell cannot put its peak where acceptance criterion 9 wants it
    # (see tools/criterion09_scan.py).
    temperature_k: float = 365.0
    length_m: float = 0.30
    b_field_t: float = 4.5e-3
    extinction: float = 1.8e-6

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.extinction < 1.0:
            raise ValueError("extinction must lie in [0, 1)")


@dataclass
class HotCellConfig(VaporCell):
    temperature_k: float = 420.0
    length_m: float = 0.10
    buffer_fwhm_hz: float = 200e6


def circular_amplitudes(cfg: FilterConfig, freq_hz) -> tuple[np.ndarray, np.ndarray]:
    """Complex field transmission t+- of the cell for sigma+- light.

    t = exp(i k n L) with n = 1 + chi/2; the common vacuum phase factor
    exp(i k L) carries no polarization information and is dropped.
    """
    k = wavevector(cfg.table)
    amps = []
    for q in (+1, -1):
        chi = complex_susceptibility(freq_hz, q, cfg.b_field_t, cfg)
        amps.append(np.exp(0.5j * k * cfg.length_m * chi))
    return amps[0], amps[1]


def _grid_blocks(n: int) -> list[slice]:
    """ceil(n / ``_GRID_BLOCK``) slices of consecutive points covering ``range(n)``.

    Their lengths differ by at most one, so a grid longer than one block
    gives no block below half ``_GRID_BLOCK``.
    """
    count = max(1, -(-n // _GRID_BLOCK))
    edges = [n * i // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


def fadof_transmission(cfg: FilterConfig, freq_hz) -> Spectrum:
    """Crossed-polarizer Faraday filter intensity transmission spectrum.

    T = |t+ - t-|^2 / 4, with the finite polarizer extinction folded in
    incoherently: T_total = T + extinction * (1 - T), clipped to [0, 1].
    t+- and T are computed one block of the grid at a time
    (``_grid_blocks``) into one preallocated output, so the working set,
    the susceptibility's temporaries included, is one block's whatever the
    grid's length; a grid of at most ``_GRID_BLOCK`` points is one block.
    """
    freq = np.asarray(freq_hz, dtype=float)
    total = np.empty(freq.size)
    for block in _grid_blocks(freq.size):
        t_plus, t_minus = circular_amplitudes(cfg, freq[block])
        t_pol = 0.25 * np.abs(t_plus - t_minus) ** 2
        total[block] = t_pol + cfg.extinction * (1.0 - t_pol)
    np.clip(total, 0.0, 1.0, out=total)
    return Spectrum(freq, total)


def optical_depth(cfg: HotCellConfig, freq_hz) -> np.ndarray:
    """Resonant optical depth of the blocking cell (no field, no polarizers)."""
    chi = complex_susceptibility(freq_hz, +1, 0.0, cfg)
    return wavevector(cfg.table) * cfg.length_m * chi.imag


def hot_cell_transmission(cfg: HotCellConfig, freq_hz) -> Spectrum:
    """Intensity transmission exp(-OD) of the blocking cell."""
    return Spectrum(np.asarray(freq_hz, dtype=float), np.exp(-optical_depth(cfg, freq_hz)))
