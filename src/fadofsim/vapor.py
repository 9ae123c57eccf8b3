"""Transmission of rubidium vapor cells: Faraday filter and resonant blocker.

The Faraday filter is a vapor cell in an axial magnetic field between
crossed polarizers.  The field splits the sigma+/sigma- refractive
indices, the differential phase rotates the polarization, and the output
polarizer converts that rotation into a narrow transmission peak while
rejecting everything else down to the polarizer extinction floor.

The blocking cell is the same vapor without polarizers or field, heated
until it is opaque over the filter passband; buffer-gas collisions give
its absorption Lorentzian wings wide enough to swallow the passband.

The filter is computed in two steps.  ``filter_line_side`` prepares,
once per grid, the line side of the susceptibility for every field the
caller names, both polarizations each (see ``susceptibility.LineSide``):
``optimize`` prepares one for all the fields of a temperature, and one
per field where that overflows.
``fadof_transmission`` is the point side, one field at a time, in blocks
of the grid sorted in ascending order, so its working set is one block's
susceptibilities and amplitudes whatever the grid's length and however
many fields share the line side; without a line side it prepares one for
its own field.  A grid of n points is split evenly into
ceil(n / ``_GRID_BLOCK``) blocks of consecutive points, whose lengths
differ by at most one.  Every value is computed point by point, so the
blocks change no rule, only which points share an array: whether the
grid is a lattice, and its working lattice, are decided once for the
whole grid, and every block of a lattice of two or more points reads the
same nodes with the same weights as the whole grid would.
``_GRID_BLOCK`` is 2**15 so that the 20,001-point spectra of
``optimize`` and ``simulate`` stay one block, computed on the same
arrays as one whole-grid call.  On a 160,001-point grid (2 vCPU, numpy
2.4, medians of 11 in one process, before the lattice table below)
blocks of 2**15 took 0.21-0.22 s, the whole grid at once 0.22 s and
blocks of 2**13 0.27-0.29 s, about 30 % slower, as the per-call cost of
the component loop comes to dominate.

A lattice grid is one whose consecutive differences are bitwise equal in
ascending order: ``make_frequency_grid``'s grids and the mirror grid of
``cmd_spectrum`` are.  On a lattice each isotope's sum is its kernel
table correlated with its line distribution, on a working lattice of
spacing between 0.006 and 0.012 Doppler widths: every r-th point of a
lattice of steps below about 4 MHz at 365 K (every point of the default
2 MHz grid), interpolated to the others where r > 1, or q nodes per
point of a coarser one (see ``susceptibility``).  The correlation runs
on output segments anchored at absolute lattice indices, whose table
FFTs the blocks, both polarizations and a temperature's fields share, so
a point gets the same value in any block.  A grid with unequal
differences or a single point takes the direct sum of the kernel over
every component, batched per isotope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lines import AtomicLineTable
from .spectrum import Spectrum
from .susceptibility import LineSide, complex_susceptibility, wavevector

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


def filter_line_side(cfg: FilterConfig, freq_hz, b_values_t) -> LineSide:
    """The line side of the filter's susceptibility on the grid ``freq_hz`` at every field of ``b_values_t``.

    Fields 2 j and 2 j + 1 of the side are sigma+ and sigma- at the j-th
    field; ``cfg.b_field_t`` does not enter.
    """
    return LineSide(freq_hz, cfg, [(b, q) for b in b_values_t for q in (1, -1)])


def _amplitudes(side: LineSide, index: int, block: slice = slice(None)) -> list[np.ndarray]:
    """t+ and t- at the ``index``-th field of ``side``, at the sorted points ``block`` of its grid."""
    k = wavevector(side.cell.table)
    return [np.exp(0.5j * k * side.cell.length_m * side.chi(2 * index + j, block)) for j in (0, 1)]


def circular_amplitudes(cfg: FilterConfig, freq_hz) -> tuple[np.ndarray, np.ndarray]:
    """Complex field transmission t+- of the cell for sigma+- light.

    t = exp(i k n L) with n = 1 + chi/2; the common vacuum phase factor
    exp(i k L) carries no polarization information and is dropped.
    """
    side = filter_line_side(cfg, freq_hz, [cfg.b_field_t])
    t_plus, t_minus = (side.unsorted(t).reshape(side.grid.shape) for t in _amplitudes(side, 0))
    return t_plus, t_minus


def _grid_blocks(n: int) -> list[slice]:
    """ceil(n / ``_GRID_BLOCK``) slices of consecutive points covering ``range(n)``.

    Their lengths differ by at most one, so a grid longer than one block
    gives no block below half ``_GRID_BLOCK``.
    """
    count = max(1, -(-n // _GRID_BLOCK))
    edges = [n * i // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


def fadof_transmission(cfg: FilterConfig, freq_hz, line_side: LineSide | None = None) -> Spectrum:
    """Crossed-polarizer Faraday filter intensity transmission spectrum at ``cfg.b_field_t``.

    T = |t+ - t-|^2 / 4, with the finite polarizer extinction folded in
    incoherently: T_total = T + extinction * (1 - T), clipped to [0, 1].
    This is the point side: ``line_side`` is ``filter_line_side`` of the
    cell on the grid ``freq_hz`` with ``cfg.b_field_t`` among its fields,
    prepared here for that field alone when not given.  t+- and T are
    computed one block of the sorted grid at a time (``_grid_blocks``)
    into one preallocated output, so the working set, the susceptibility's
    temporaries included, is one block's whatever the grid's length; a
    grid of at most ``_GRID_BLOCK`` points is one block.
    """
    side = filter_line_side(cfg, freq_hz, [cfg.b_field_t]) if line_side is None else line_side
    index = [b for b, _ in side.fields[::2]].index(cfg.b_field_t)
    total = np.empty(side.freq.size)
    for block in _grid_blocks(total.size):
        t_plus, t_minus = _amplitudes(side, index, block)
        t_pol = 0.25 * np.abs(t_plus - t_minus) ** 2
        total[block] = t_pol + cfg.extinction * (1.0 - t_pol)
    np.clip(total, 0.0, 1.0, out=total)
    return Spectrum(side.grid, side.unsorted(total))


def optical_depth(cfg: HotCellConfig, freq_hz) -> np.ndarray:
    """Resonant optical depth of the blocking cell (no field, no polarizers)."""
    chi = complex_susceptibility(freq_hz, +1, 0.0, cfg)
    return wavevector(cfg.table) * cfg.length_m * chi.imag


def hot_cell_transmission(cfg: HotCellConfig, freq_hz) -> Spectrum:
    """Intensity transmission exp(-OD) of the blocking cell."""
    return Spectrum(np.asarray(freq_hz, dtype=float), np.exp(-optical_depth(cfg, freq_hz)))
