"""Second-order correlation functions of the pair source and their detection.

Filtered to a single mode, the signal-idler cross-correlation is a
two-sided exponential of rate gamma1+gamma2.  Unfiltered, all N retained
mode pairs beat: the exponential is multiplied by a squared Dirichlet
kernel peaked at multiples of the cavity round trip.  Detection smears
each feature over the coincidence bin and adds a flat accidental floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .opo import OpoConfig, mode_comb
from .spectrum import write_csv

# The delta-comb approximation of the multimode correlation holds only
# when the comb keeps at least this many modes per side.
DELTA_COMB_MIN_MODES = 50
# Bins on each side of the histogram peak searched for tooth modulation.
MODULATION_BINS = 20
# Comb teeth weighing less than this fraction of the central tooth are dropped.
COMB_TOOTH_CUTOFF = 1e-6
# Comb teeth on each side of the central one, at most.  The comb histogram
# holds about three bins x teeth float matrices at once, 17 MB each at this
# bound with the default 129 bins (51 MB traced), where decays of 1e-300 MHz,
# which the loader accepts, would ask for 5.5e302 teeth a side.  The
# defaults keep 131.
COMB_MAX_SIDE_TEETH = 1 << 13
# Default bins on each side of the channel-offset bin of a coincidence histogram.
HISTOGRAM_SIDE_BINS = 64


@dataclass
class DetectorConfig:
    """Coincidence electronics: binning, channel offset, singles rates.

    ``offset_s`` is the electronic delay T0 between the two channels; it
    need not be a multiple of the bin.  ``r1_hz`` and ``r2_hz`` are the
    measured total singles rates of the two detectors, which set the
    accidental floor t_bin * R1 * R2.
    """

    bin_s: float = 1e-9
    offset_s: float = 50e-9
    r1_hz: float = 1.5e4
    r2_hz: float = 1.2e4
    acquisition_s: float = 1.0

    def __post_init__(self):
        if self.bin_s <= 0 or self.acquisition_s <= 0:
            raise ValueError("bin width and acquisition time must be positive")
        if self.r1_hz < 0 or self.r2_hz < 0:
            raise ValueError("singles rates cannot be negative")

    @property
    def offset_bin(self) -> int:
        """Index k of the bin the channel offset falls into, T0 = k*t_bin + delta."""
        return int(np.round(self.offset_s / self.bin_s))

    def accidental_floor_per_bin(self, duration_s: float) -> float:
        """Expected accidental coincidences per bin, t_bin * R1 * R2 * duration."""
        return self.bin_s * self.r1_hz * self.r2_hz * duration_s


def g2_single(delay_s, cfg: OpoConfig) -> np.ndarray:
    """Normalized correlation envelope of one filtered mode pair: exp(-|T|(g1+g2))."""
    return np.exp(-np.abs(np.asarray(delay_s, dtype=float)) * cfg.gamma_sum)


def g2_single_fwhm(cfg: OpoConfig) -> float:
    return 2.0 * np.log(2.0) / cfg.gamma_sum


def g2_multi_exact(delay_s, cfg: OpoConfig, n_modes: int) -> np.ndarray:
    """Multimode correlation: envelope times the squared Dirichlet kernel.

    ``n_modes`` is the per-side mode count N; the kernel order is
    M = 2N+1.  At delays equal to multiples of the round trip the
    removable singularity evaluates to M, so the peaks are M times the
    envelope.  Evaluated through numpy's sinc for stability near the
    peaks.
    """
    if n_modes < 1:
        raise ValueError("need at least one mode per side")
    m = 2 * n_modes + 1
    theta = np.pi * np.asarray(delay_s, dtype=float) / cfg.roundtrip_s
    delta = theta - np.pi * np.round(theta / np.pi)
    ratio = m * np.sinc(m * delta / np.pi) / np.sinc(delta / np.pi)
    return g2_single(delay_s, cfg) * ratio**2 / m


@dataclass
class CombTeeth:
    """Delta-comb approximation of the multimode correlation.

    One tooth per round trip at delay n*tau with weight equal to the
    envelope there; weights are later normalized by consumers.  The
    picture applies only where ``delta_comb_applies`` holds.
    """

    delays_s: np.ndarray
    weights: np.ndarray


def delta_comb_applies(cfg: OpoConfig) -> bool:
    """Whether the phase-matching envelope keeps DELTA_COMB_MIN_MODES
    modes per side, as the delta-comb approximation needs."""
    return mode_comb(cfg, max_modes=DELTA_COMB_MIN_MODES).n_max >= DELTA_COMB_MIN_MODES


def g2_multi_comb(cfg: OpoConfig) -> CombTeeth:
    """Teeth (n*tau, envelope(n*tau)) truncated where the envelope falls
    below COMB_TOOTH_CUTOFF of the peak.

    Raises ValueError, before any array is built, where that keeps more
    than COMB_MAX_SIDE_TEETH teeth on each side.
    """
    # the envelope falls by exp(-decay) per round trip
    depth, decay = float(np.log(1.0 / COMB_TOOTH_CUTOFF)), cfg.roundtrip_s * cfg.gamma_sum
    if not depth < (COMB_MAX_SIDE_TEETH + 1) * decay:
        raise ValueError(
            f"the comb envelope falls by exp(-{decay:.4g}) per round trip, so more than "
            f"{COMB_MAX_SIDE_TEETH} teeth on each side stay above {COMB_TOOTH_CUTOFF:g} of the peak"
        )
    n_cut = int(np.floor(depth / decay))
    n = np.arange(-n_cut, n_cut + 1)
    delays = n * cfg.roundtrip_s
    return CombTeeth(delays_s=delays, weights=g2_single(delays, cfg))


@dataclass
class Histogram:
    """Expected coincidence counts per delay bin.

    Bin ``i`` covers measured delays [i*t_bin, (i+1)*t_bin); ``counts``
    are expectation values (not integers).  ``accidental_floor_per_bin``
    is the flat accidental level included in every bin.
    """

    bin_index: np.ndarray
    counts: np.ndarray
    bin_s: float
    accidental_floor_per_bin: float = 0.0

    @property
    def delay_s(self) -> np.ndarray:
        """Bin-center delays."""
        return (self.bin_index + 0.5) * self.bin_s

    def to_csv(self, path, header_lines=()) -> None:
        write_csv(path, header_lines, {
            "bin_index": (self.bin_index, "%d"), "delay_ns": (self.delay_s * 1e9, "%.6f"),
            "expected_counts": (self.counts, "%.10e"),
        })


def _tent(x):
    return np.maximum(0.0, 1.0 - np.abs(x))


def _laplace_cdf_integral(w, gamma):
    """Antiderivative of the two-sided-exponential CDF, continuous at 0."""
    w = np.asarray(w, dtype=float)
    neg = np.exp(gamma * np.minimum(w, 0.0)) / (2.0 * gamma)
    pos = np.maximum(w, 0.0) + np.exp(-gamma * np.maximum(w, 0.0)) / (2.0 * gamma)
    return np.where(w < 0, neg, pos)


def detected_histogram(
    opo: OpoConfig,
    det: DetectorConfig,
    mode: str,
    n_side_bins: int = HISTOGRAM_SIDE_BINS,
) -> Histogram:
    """Expected coincidence histogram around the channel-offset bin.

    ``mode`` is "single" (filter passing one mode pair: smooth two-sided
    exponential) or "comb" (unfiltered multimode source in the delta-comb
    approximation).  Every correlation feature is averaged over the
    signal detection time within a bin, which smears it over neighboring
    bins as a tent-function overlap; the accidental floor
    t_bin * R1 * R2 is added uniformly.  True-coincidence counts sum to
    pair rate x acquisition time (up to the tail outside the window).
    """
    tb = det.bin_s
    k = det.offset_bin
    bins = np.arange(k - n_side_bins, k + n_side_bins + 1)
    t0 = det.offset_s
    if mode == "single":
        gamma = opo.gamma_sum
        y_hi = (bins + 1) * tb - t0
        y_lo = bins * tb - t0
        q = _laplace_cdf_integral
        true_frac = (
            q(y_hi, gamma) - q(y_hi - tb, gamma) - q(y_lo, gamma) + q(y_lo - tb, gamma)
        ) / tb
    elif mode == "comb":
        teeth = g2_multi_comb(opo)
        norm = teeth.weights / teeth.weights.sum()
        pos = (t0 + teeth.delays_s) / tb
        true_frac = (norm[None, :] * _tent(pos[None, :] - bins[:, None])).sum(axis=1)
    else:
        raise ValueError(f"unknown histogram mode {mode!r}")
    true_counts = opo.pair_rate_hz * det.acquisition_s * true_frac
    floor = det.accidental_floor_per_bin(det.acquisition_s)
    return Histogram(bin_index=bins, counts=true_counts + floor, bin_s=tb,
                     accidental_floor_per_bin=floor)


def histogram_envelope_fwhm(hist: Histogram) -> float:
    """Envelope FWHM recovered from the exponential flank decay.

    Digitizing both arrival times broadens the histogram around its
    cusp, but beyond it the per-bin decay stays exactly
    exp(-gamma_sum*t_bin), so a log-linear fit of the two flanks (floor
    subtracted, cusp region excluded) returns the width of the
    underlying correlation envelope without digitization bias.
    """
    vals = hist.counts - hist.accidental_floor_per_bin
    i_pk = int(np.argmax(vals))
    if i_pk in (0, len(vals) - 1):
        raise ValueError("histogram peak on window edge; widen the window")
    peak = vals[i_pk]
    slopes = []
    for direction in (-1, +1):
        dist = np.arange(2, len(vals))
        idx = i_pk + direction * dist
        keep = (idx >= 0) & (idx < len(vals))
        dist, idx = dist[keep], idx[keep]
        flank = vals[idx]
        # between-teeth and noise-dominated bins carry no envelope signal
        usable = flank > 0.05 * peak
        if usable.sum() < 3:
            raise ValueError("flank too short for a decay fit; widen the window")
        slope = np.polyfit(dist[usable], np.log(flank[usable]), 1)[0]
        slopes.append(-slope)
    gamma_bin = 0.5 * (slopes[0] + slopes[1])
    if gamma_bin <= 0:
        raise ValueError("flanks do not decay; no envelope to measure")
    return float(2.0 * np.log(2.0) * hist.bin_s / gamma_bin)


def tooth_modulation(hist: Histogram) -> float:
    """Largest second-difference contrast within MODULATION_BINS of the peak.

    Compares each bin against the mean of its two neighbors after floor
    subtraction; a smooth envelope gives a value of order (gamma*t_bin)^2
    while round-trip teeth under coarse binning give order-one values.
    """
    vals = hist.counts - hist.accidental_floor_per_bin
    i_pk = int(np.argmax(vals))
    lo = max(1, i_pk - MODULATION_BINS)
    hi = min(len(vals) - 1, i_pk + MODULATION_BINS)
    mids = vals[lo:hi]
    sides = 0.5 * (vals[lo - 1 : hi - 1] + vals[lo + 1 : hi + 1])
    # the envelope peak itself is a cusp, not tooth structure
    mask = (sides > 0) & (np.abs(np.arange(lo, hi) - i_pk) > 2)
    if not np.any(mask):
        raise ValueError("no usable bins for modulation estimate")
    return float(np.max(np.abs(mids[mask] - sides[mask]) / sides[mask]))
