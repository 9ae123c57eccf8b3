"""Pair transmission through the filter and spectral-purity bookkeeping.

Signal and idler of a pair sit in mirror modes +n/-n about the degenerate
mode.  The filter transmits a pair with probability eta_n * eta_{-n},
where eta_n is the filter transmission averaged over the Lorentzian
profile of mode n.  The per-mode record is the comb (indices -N..N and
weights w_n) and the eta array in the same order.  The weighted pair
transmissions w_n * eta_n * eta_{-n} give the fraction of transmitted
pairs that are degenerate, and the figure of merit for tuning the filter,
degenerate-pair transmission against total non-degenerate pair leakage:

    FOM = w_0 * eta_0^2 / sum_{n != 0} w_n * eta_n * eta_{-n}

``optimize_filter`` prepares the filter's line side once for all the
fields of a temperature (``vapor.filter_line_side``), and each point's
spectrum is its point side (``vapor.fadof_transmission``); where that
batch overflows, each point prepares its own field's side, so that it
keeps its own reason.
"""

from __future__ import annotations

import contextvars
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .opo import (MODE_WINDOW_LINEWIDTHS, ModeComb, ModeOutsideGridError, OpoConfig, mode_comb,
                  modes_within_grid)
from .spectrum import BoundaryPeakError, Spectrum, filter_metrics, make_frequency_grid, write_csv
from .vapor import FilterConfig, fadof_transmission, filter_line_side

# Largest distance of the filter peak from the line reference that the
# optimizer accepts; the comb is truncated so that it stays on the grid
# wherever within this bound the peak sits.
MAX_PEAK_OFFSET_HZ = 6e9


def pair_transmission_map(spectrum: Spectrum, comb: ModeComb, opo: OpoConfig) -> np.ndarray:
    """Mode-averaged filter transmission eta_n of every comb mode.

    Returns a float64 array in comb order, modes -N..N, so eta_n sits at
    index n + comb.n_max and eta[::-1] holds the mirror partners eta_-n.
    eta_n is the transmission weighted by the unit-area mode Lorentzian,
    truncated at +-50 linewidths and renormalized over the truncation
    window, integrated by the trapezoid rule on the spectrum grid.  When
    modes_within_grid keeps fewer modes than the comb holds, the first
    comb mode, -N, is named in ModeOutsideGridError; when not even the
    degenerate window fits, that function's own error names mode 0.
    """
    freq = spectrum.frequency_hz
    vals = spectrum.value
    if modes_within_grid(opo, freq, comb.frequencies_hz[comb.n_max]) < comb.n_max:
        raise ModeOutsideGridError(-comb.n_max)
    hwhm = 0.5 * opo.mode_fwhm_hz
    half_window = MODE_WINDOW_LINEWIDTHS * opo.mode_fwhm_hz
    f0 = comb.frequencies_hz
    lo = np.searchsorted(freq, f0 - half_window)
    length = np.searchsorted(freq, f0 + half_window, side="right") - lo
    etas = np.empty(comb.indices.shape)
    # the modes whose windows hold equally many points, as the rows of one
    # array; np.trapezoid along a row is its trapezoid on that row alone
    # (a set, as np.unique imports numpy.ma: 18 ms and 0.5 MB)
    for n in set(length.tolist()):
        modes = np.flatnonzero(length == n)
        window = lo[modes, None] + np.arange(n)
        f = freq[window]
        lor = hwhm / np.pi / ((f - f0[modes, None]) ** 2 + hwhm**2)
        etas[modes] = np.trapezoid(lor * vals[window], f) / np.trapezoid(lor, f)
    return etas


def weighted_pair_terms(comb: ModeComb, eta: np.ndarray) -> np.ndarray:
    """w_n * eta_n * eta_-n for every comb mode, in comb order; the
    degenerate term w_0 * eta_0^2 sits at index comb.n_max."""
    return comb.weights * eta * eta[::-1]


def resonant_degenerate_fraction(comb: ModeComb, eta: np.ndarray) -> float:
    """Fraction of transmitted pairs that belong to the degenerate mode."""
    terms = weighted_pair_terms(comb, eta)
    total = terms.sum()
    if total <= 0:
        raise ValueError("no transmitted pairs")
    return terms[comb.n_max] / total


def spectral_purity(hot_cell_counts: float, filtered_counts: float) -> float:
    """Heralded single-photon spectral purity P = 1 - c_blocked / c_filtered.

    ``hot_cell_counts`` are pair coincidences with the resonant blocking
    cell inserted, ``filtered_counts`` with the filter alone.
    """
    if filtered_counts <= 0:
        raise ValueError("filtered coincidence counts must be positive")
    if hot_cell_counts < 0:
        raise ValueError("coincidence counts cannot be negative")
    return 1.0 - hot_cell_counts / filtered_counts


def spectral_purity_stderr(hot_cell_counts: float, filtered_counts: float,
                           hot_cell_var: float, filtered_var: float) -> float:
    """First-order standard error of ``spectral_purity`` from its counts' variances.

    dP/dB = -1/F and dP/dF = B/F^2, so sigma_P = sqrt(var_B + (B/F)^2 var_F) / F.
    """
    if filtered_counts <= 0:
        raise ValueError("filtered coincidence counts must be positive")
    ratio = hot_cell_counts / filtered_counts
    return (hot_cell_var + ratio * ratio * filtered_var) ** 0.5 / filtered_counts


def overall_degenerate_fraction(resonant_fraction: float, leakage: float) -> float:
    """Degenerate fraction including out-of-band leakage pairs.

    ``leakage`` is the fraction of detected pairs that bypass the filter
    line entirely (e.g. through the polarizer extinction); those pairs
    are never degenerate, so they scale the resonant fraction by
    (1 - leakage).
    """
    if not 0 <= resonant_fraction <= 1:
        raise ValueError("resonant fraction must lie in [0, 1]")
    if not 0 <= leakage <= 1:
        raise ValueError("leakage must lie in [0, 1]")
    return resonant_fraction * (1.0 - leakage)


def extinction_leakage_estimate(comb: ModeComb, eta: np.ndarray, extinction: float) -> float:
    """Out-of-band pair leakage implied by the polarizer extinction alone.

    Broadband pairs reach the blocked port with probability extinction
    per photon; relative to the degenerate-pair transmission this gives
    extinction^2 * sum(w) / (w0 * eta0^2).  Real setups are typically
    dominated by technical leakage well above this bound.
    """
    degenerate = float(weighted_pair_terms(comb, eta)[comb.n_max])
    if degenerate <= 0:
        raise ValueError("degenerate-pair transmission vanishes")
    return min(1.0, extinction**2 * float(comb.weights.sum()) / degenerate)


@dataclass
class OptimizationResult:
    b_values_t: np.ndarray
    temperatures_k: np.ndarray
    fom: np.ndarray
    eta0: np.ndarray
    sum_nondegenerate: np.ndarray
    peak_offset_hz: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def best_index(self) -> tuple[int, int]:
        """(B, temperature) index of the largest figure of merit; ties
        resolve to the first point in scan order."""
        i, j = np.unravel_index(np.nanargmax(self.fom), self.fom.shape)
        return int(i), int(j)

    @property
    def best_b_t(self) -> float:
        return float(self.b_values_t[self.best_index[0]])

    @property
    def best_temperature_k(self) -> float:
        return float(self.temperatures_k[self.best_index[1]])

    @property
    def best_fom(self) -> float:
        return float(self.fom[self.best_index])

    @property
    def best_peak_offset_hz(self) -> float:
        """Filter-peak offset from the reference at the best point, where
        the source's degenerate frequency must be tuned."""
        return float(self.peak_offset_hz[self.best_index])

    def to_csv(self, path, header_lines=()) -> None:
        b, t = np.meshgrid(self.b_values_t, self.temperatures_k, indexing="ij")
        write_csv(path, header_lines, {
            "B_T": (b, "%.6e"), "temperature_K": (t, "%.3f"), "fom": (self.fom, "%.8e"),
            "eta0": (self.eta0, "%.8e"), "sum_nondegenerate": (self.sum_nondegenerate, "%.8e"),
        })


def optimize_filter(
    base: FilterConfig,
    opo: OpoConfig,
    b_values_t,
    temperatures_k,
    grid_half_span_hz: float,
    grid_step_hz: float,
    threads: int = 1,
) -> OptimizationResult:
    """Exhaustive grid search of the pair-blocking figure of merit.

    For each (B, T) the filter spectrum is computed, the comb is centered
    on the filter's own transmission peak (the source is tuned to the
    filter in operation), and FOM = w0*eta0^2 / sum_{n!=0} w_n*eta_n*eta_-n.
    The comb is truncated by modes_within_grid with its center
    MAX_PEAK_OFFSET_HZ above the reference; the grid is symmetric about
    the reference, so those windows fit for any peak within that bound
    and every point sees the same mode set.  Points where any stage
    overflows or meets an invalid operation, whose spectrum has no usable
    peak, or whose peak lies beyond that bound, are flagged invalid (NaN)
    and excluded from the maximum; ``meta["invalid_reasons"]`` counts the
    points that failed for each reason that occurred.  Ties resolve to the
    first point in index order (B outer, temperature inner).  The frequency
    grid, reference +- ``grid_half_span_hz`` in steps of ``grid_step_hz``,
    comes from the caller.  Each temperature is one task on a pool of
    ``threads`` worker threads, in a copy of the caller's context under one
    floating-point policy: it prepares the line side of all its fields at
    once, field by field if that overflows, and evaluates its fields in
    order, so that its thread builds each of that temperature's
    susceptibility table segments once (``susceptibility._table_segment``)
    however the tasks fall to the threads.  Any other exception propagates
    from the first temperature, in the order given, whose task raised one.
    """
    b_values_t = np.asarray(b_values_t, dtype=float)
    temperatures_k = np.asarray(temperatures_k, dtype=float)
    grid = make_frequency_grid(
        base.table.reference_frequency_hz, grid_half_span_hz, grid_step_hz
    )
    max_modes = modes_within_grid(
        opo, grid, base.table.reference_frequency_hz + MAX_PEAK_OFFSET_HZ
    )
    invalid = (np.nan,) * 4
    fields = b_values_t.tolist()
    # the comb's weights do not depend on where it is centred
    template = mode_comb(opo, max_modes=max_modes)

    def evaluate(cfg, side):
        try:
            spec = fadof_transmission(cfg, grid, side)
            peak = filter_metrics(spec).peak_frequency_hz
            if abs(peak - base.table.reference_frequency_hz) > MAX_PEAK_OFFSET_HZ:
                # peak escaped the central margin; comb would leave the grid
                return invalid, f"had their peak more than {MAX_PEAK_OFFSET_HZ / 1e9:g} GHz from the reference"
            comb = replace(template, frequencies_hz=peak + template.indices * opo.fsr_hz)
            eta = pair_transmission_map(spec, comb, opo)
            terms = weighted_pair_terms(comb, eta)
            s_nd = np.delete(terms, comb.n_max).sum()
            f = terms[comb.n_max] / s_nd if s_nd > 0 else np.inf
        except BoundaryPeakError:
            return invalid, "had no usable transmission peak"
        except FloatingPointError:
            return invalid, "overflowed or met an invalid operation"
        return (peak - base.table.reference_frequency_hz, eta[comb.n_max], s_nd, f), None

    def evaluate_temperature(temperature):
        cell = replace(base, temperature_k=temperature)
        try:
            side = filter_line_side(cell, grid, fields)
        except FloatingPointError:
            # each point prepares its own field's side, and keeps its own reason
            side = None
        return [evaluate(replace(cell, b_field_t=b), side) for b in fields]

    # numpy's error state is a context variable; one context cannot be
    # entered by two threads at once, so each temperature runs in its own copy
    with np.errstate(over="raise", invalid="raise"), ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(contextvars.copy_context().run, evaluate_temperature, t)
                   for t in temperatures_k.tolist()]
        columns = [future.result() for future in futures]
    results = [result for row in zip(*columns) for result in row]
    shape = (b_values_t.size, temperatures_k.size, 4)
    values = np.array([row for row, _ in results]).reshape(shape)
    peak_off, eta0, nondeg, fom = np.moveaxis(values, -1, 0)
    if np.all(np.isnan(fom)):
        raise ValueError("no valid points in the optimization range")
    return OptimizationResult(
        b_values_t=b_values_t,
        temperatures_k=temperatures_k,
        fom=fom,
        eta0=eta0,
        sum_nondegenerate=nondeg,
        peak_offset_hz=peak_off,
        meta={"n_invalid": int(np.isnan(fom).sum()), "max_modes": max_modes,
              "invalid_reasons": Counter(reason for _, reason in results if reason)},
    )
