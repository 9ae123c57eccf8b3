"""Command-line front end.

Each subcommand reads one INI config, runs a reproducible computation,
and writes data files (CSV/JSON/binary) into the output directory; no
plots are produced.  Every output embeds the sha256 hash of the resolved
configuration.  Exit status is 0 only when all outputs were written and
no validity flag was raised (e.g. a degenerate spectrum or a failed
model cross-check); config errors exit with status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import correlations, montecarlo, pairs
from .config import ConfigError, ExperimentConfig, load_config
from .cvnoise import excess_noise, noise_vs_power_fit, squeezing_through_loss
from .opo import ModeComb, ModeOutsideGridError, mode_comb, modes_within_grid, output_spectrum
from .spectrum import BoundaryPeakError, Spectrum, filter_metrics, make_frequency_grid, write_csv
from .vapor import fadof_transmission

CHI_SQUARE_MIN_EXPECTED = 5.0
# Bins on each side of the hot-cell purity histogram, offset_ns / bin_ns,
# at most as many as one histogram merge chunk holds events (2**18): its
# count arrays then stay within the chunk-sized working memory of
# montecarlo.mc_histogram (each merge bincounts all 2 n + 1 bins), where
# the window of the loader's largest offset, 1e15 bins a side at 1 ns,
# could not be allocated at all.
HOT_CELL_MAX_SIDE_BINS = 1 << 18


def _write_json(path: Path, cfg: ExperimentConfig, payload: dict) -> None:
    """Write ``payload`` as JSON, with the config hash as its first key."""
    with open(path, "w") as fh:
        json.dump({"config_hash": cfg.config_hash, **payload}, fh, indent=2)
        fh.write("\n")


def _hash_header(cfg: ExperimentConfig) -> list[str]:
    return [f"config_hash: {cfg.config_hash}"]


def _filter_on_grid(cfg: ExperimentConfig) -> tuple[Spectrum, ModeComb]:
    """The filter on the [spectrum] grid, and the comb whose mode windows fit that grid."""
    ref = cfg.filter.table.reference_frequency_hz
    grid = make_frequency_grid(ref, cfg.grid_half_span_hz, cfg.grid_step_hz)
    try:
        max_modes = modes_within_grid(cfg.opo, grid, cfg.opo.degenerate_frequency_hz)
    except ModeOutsideGridError as exc:
        raise ConfigError(
            f"[filter] center_offset_GHz vs [spectrum] half_span_GHz: {exc}"
        ) from exc
    return fadof_transmission(cfg.filter, grid), mode_comb(cfg.opo, max_modes=max_modes)


def _delta_comb_flags(cfg: ExperimentConfig) -> list[str]:
    """The delta-comb model's validity flag; a comb too long to build is a config error."""
    try:
        correlations.g2_multi_comb(cfg.opo)
    except ValueError as exc:
        raise ConfigError(f"[opo] cavity_decay1_MHz, cavity_decay2_MHz and roundtrip_ns: {exc}") from exc
    if correlations.delta_comb_applies(cfg.opo):
        return []
    return [
        f"the comb keeps fewer than {correlations.DELTA_COMB_MIN_MODES} modes per side; "
        "the delta-comb model does not apply"
    ]


def cmd_spectrum(cfg: ExperimentConfig, out: Path) -> list[str]:
    """Filter, mirrored-filter, product, source, and filtered-source spectra.

    Each CSV is written as soon as its values exist, in the order filter,
    mirror, pair product, source, filtered source.  The pair product
    overwrites the written mirror values and the filtered source the
    written source (the same products, bit for bit), and each array is
    dropped once written; only the grid and the filter values live
    through the whole command.
    """
    fadof, comb = _filter_on_grid(cfg)
    grid = fadof.frequency_hz
    hdr = _hash_header(cfg)
    fadof.to_csv(out / "fadof_spectrum.csv", header_lines=hdr)

    center = cfg.opo.degenerate_frequency_hz
    # mirror partner of each grid frequency about the source center,
    # evaluated directly (not interpolated), copied into grid order
    values = fadof_transmission(cfg.filter, (2.0 * center - grid)[::-1]).value[::-1].copy()
    Spectrum(grid, values).to_csv(out / "mirror_spectrum.csv", header_lines=hdr)
    values *= fadof.value
    Spectrum(grid, values).to_csv(out / "pair_product_spectrum.csv", header_lines=hdr)
    del values

    source = output_spectrum(comb, cfg.opo, grid)
    source.to_csv(out / "opo_spectrum.csv", header_lines=hdr)
    source.value *= fadof.value
    Spectrum(grid, source.value, kind="density_per_hz").to_csv(
        out / "filtered_opo_spectrum.csv", header_lines=hdr
    )
    del source

    dirty: list[str] = []
    payload: dict = {
        "boundary_peak": False,
        "grid_half_span_hz": cfg.grid_half_span_hz,
        "grid_step_hz": cfg.grid_step_hz,
    }
    ref = cfg.filter.table.reference_frequency_hz
    try:
        m = filter_metrics(fadof)
        payload.update(
            peak_frequency_hz=m.peak_frequency_hz,
            peak_offset_ghz=(m.peak_frequency_hz - ref) / 1e9,
            peak_transmission=m.peak_transmission,
            fwhm_mhz=m.fwhm_hz / 1e6,
            rejection_db=m.rejection_db,
        )
        print(
            f"filter peak {payload['peak_offset_ghz']:+.3f} GHz from reference, "
            f"transmission {m.peak_transmission:.3f}, FWHM {m.fwhm_hz / 1e6:.1f} MHz"
        )
    except BoundaryPeakError as exc:
        payload["boundary_peak"] = True
        payload["detail"] = str(exc)
        dirty.append("spectrum has no interior transmission peak")
    _write_json(out / "filter_metrics.json", cfg, payload)
    return dirty


def _g2_metric(what: str, measure, hist, dirty: list[str]):
    """``measure(hist)``, or None plus a validity flag when the histogram has no such feature."""
    try:
        return measure(hist)
    except ValueError as exc:
        dirty.append(f"{what} not measurable: {exc}")
        return None


def cmd_g2(cfg: ExperimentConfig, out: Path, mode: str) -> list[str]:
    """Analytic detected-coincidence histograms, filter on and/or off."""
    hdr = _hash_header(cfg)
    # the comb's flag, or its config error, comes before any file is written
    comb_flags = [] if mode == "on" else _delta_comb_flags(cfg)
    payload: dict = {
        "expected_envelope_fwhm_ns": correlations.g2_single_fwhm(cfg.opo) * 1e9,
        "bin_ns": cfg.detector.bin_s * 1e9,
        "roundtrip_ns": cfg.opo.roundtrip_s * 1e9,
    }
    dirty: list[str] = []
    for label, hist_mode in (("on", "single"), ("off", "comb")):
        if mode not in (label, "both"):
            continue
        hist = correlations.detected_histogram(cfg.opo, cfg.detector, mode=hist_mode)
        hist.to_csv(out / f"g2_{label}_histogram.csv", header_lines=hdr)
        fwhm_s = _g2_metric(
            f"filter {label} envelope FWHM", correlations.histogram_envelope_fwhm, hist, dirty
        )
        fwhm = None if fwhm_s is None else fwhm_s * 1e9
        contrast = _g2_metric(
            f"filter {label} tooth modulation", correlations.tooth_modulation, hist, dirty
        )
        payload[f"{label}_envelope_fwhm_ns"] = fwhm
        payload[f"{label}_tooth_modulation"] = contrast
        fwhm_text = "n/a" if fwhm is None else f"{fwhm:.2f}"
        contrast_text = "n/a" if contrast is None else f"{contrast:.3g}"
        print(f"filter {label}: envelope FWHM {fwhm_text} ns, tooth modulation {contrast_text}")
    _write_json(out / "g2_metrics.json", cfg, payload)
    return dirty + comb_flags


def chi_square_sf(stat: float, dof: int) -> float:
    """Chi-square tail probability Q(stat; dof) for an integer ``dof`` >= 1.

    With y = stat / 2, even dof gives exp(-y) sum_{j < dof/2} y^j / j!,
    and odd dof gives erfc(sqrt(y)) plus
    sqrt(2/pi) exp(-y) sum_{j=1}^{(dof-1)/2} stat^(j-1/2) / (2j-1)!!.
    Every term is positive, so nothing cancels.
    """
    if dof < 1:
        raise ValueError("chi-square needs at least one degree of freedom")
    half = stat / 2.0
    if dof % 2 == 0:
        term = total = math.exp(-half)
        for j in range(1, dof // 2):
            term *= half / j
            total += term
        return total
    term = math.sqrt(2.0 * stat / math.pi) * math.exp(-half)
    total = math.erfc(math.sqrt(half))
    for j in range(1, (dof + 1) // 2):
        total += term
        term *= stat / (2 * j + 1)
    return total


def _chi_square(mc_hist, an_hist) -> dict:
    """Pearson chi-square over the bins expecting at least CHI_SQUARE_MIN_EXPECTED counts.

    With no such bin the p-value is None (JSON ``null``).
    """
    expected = an_hist.counts
    observed = mc_hist.counts
    usable = expected >= CHI_SQUARE_MIN_EXPECTED
    dof = int(usable.sum())
    stat = float(np.sum((observed[usable] - expected[usable]) ** 2 / expected[usable]))
    p = chi_square_sf(stat, dof) if dof else None
    return {
        "chi_square": stat,
        "bins_used": dof,
        "p_value": p,
        "mc_counts_in_used_bins": float(observed[usable].sum()),
        "expected_counts_in_used_bins": float(expected[usable].sum()),
    }


def _mc_run(cfg: ExperimentConfig, det: correlations.DetectorConfig, out: Path, label: str,
            gen_mode: str, seed: int, n_side_bins: int = correlations.HISTOGRAM_SIDE_BINS,
            pair_survival: float = 1.0) -> correlations.Histogram:
    """Generate, write and histogram one Monte Carlo stream.

    Only the histogram outlives the call, so ``simulate`` holds one
    stream at a time.
    """
    stream = montecarlo.generate_pair_events(
        cfg.opo, det, gen_mode, int(seed), pair_survival=pair_survival
    )
    montecarlo.write_stream(stream, out, prefix=f"timestamps_{label}",
                            extra_meta={"config_hash": cfg.config_hash})
    return montecarlo.mc_histogram(stream, det, n_side_bins=n_side_bins)


def _purity_flags(cfg: ExperimentConfig, fadof: Spectrum, true_filtered: float,
                  true_hot_cell: float) -> list[str]:
    """Why the hot-cell purity of these true coincidence counts is no purity."""
    reasons = []
    if cfg.opo.pair_rate_hz == 0:
        reasons.append("the pair rate is 0")
    try:
        filter_metrics(fadof)
    except BoundaryPeakError as exc:
        reasons.append(f"no filter passband on the [spectrum] grid ({exc})")
    if true_filtered <= 0:
        reasons.append(f"filtered true count {true_filtered:.4g} is not positive")
    if true_hot_cell < 0:
        reasons.append(f"hot-cell true count {true_hot_cell:.4g} is negative")
    return reasons


def cmd_simulate(cfg: ExperimentConfig, out: Path, seed: int) -> list[str]:
    """Monte Carlo streams, their histograms, model cross-check, purity."""
    # the purity window and operating-point checks come before any stream is written
    window = cfg.detector.offset_s  # coincidence window around the offset peak
    side_bins = round(window / cfg.detector.bin_s)
    if cfg.hot_cell_enabled and window < 0:
        raise ConfigError("[detector] offset_ns: the hot-cell purity window cannot be negative")
    if cfg.hot_cell_enabled and side_bins > HOT_CELL_MAX_SIDE_BINS:
        raise ConfigError(
            f"[detector] offset_ns: the hot-cell purity window spans {side_bins:.4g} bins of "
            f"[detector] bin_ns each side, more than {HOT_CELL_MAX_SIDE_BINS}"
        )
    fadof, comb = _filter_on_grid(cfg)
    det = replace(cfg.detector, acquisition_s=cfg.mc_duration_s)
    children = np.random.SeedSequence(seed).generate_state(4)
    dirty = _delta_comb_flags(cfg)
    hdr = _hash_header(cfg)

    report: dict = {"seed": seed, "rng": montecarlo.RNG_ALGORITHM}
    for label, gen_mode, child in (("on", "single", children[0]), ("off", "comb", children[1])):
        mc_hist = _mc_run(cfg, det, out, label, gen_mode, child)
        mc_hist.to_csv(out / f"mc_{label}_histogram.csv", header_lines=hdr)
        an_hist = correlations.detected_histogram(cfg.opo, det, mode=gen_mode)
        check = _chi_square(mc_hist, an_hist)
        report[label] = check
        if check["p_value"] is None:
            dirty.append(f"chi-square cross-check not possible for filter-{label} case: "
                         f"no bin expects {CHI_SQUARE_MIN_EXPECTED:g} counts")
        elif not check["p_value"] > 0.001:
            dirty.append(f"chi-square cross-check failed for filter-{label} case")
    _write_json(out / "chi_square_report.json", cfg, report)

    # purity branch: analytic resonant fraction sets the hot-cell pair
    # survival; two Monte Carlo runs close the loop through the counters
    eta = pairs.pair_transmission_map(fadof, comb, cfg.opo)
    resonant = pairs.resonant_degenerate_fraction(comb, eta)
    leakage = cfg.out_of_band_leakage
    if leakage is None:
        leakage = pairs.extinction_leakage_estimate(comb, eta, cfg.filter.extinction)
    payload: dict = {
        "resonant_degenerate_fraction": resonant,
        "out_of_band_leakage": leakage,
        "overall_degenerate_fraction": pairs.overall_degenerate_fraction(resonant, leakage),
        "retained_modes_per_side": comb.n_max,
        "hot_cell_enabled": cfg.hot_cell_enabled,
    }
    if cfg.hot_cell_enabled:
        n_side = max(correlations.HISTOGRAM_SIDE_BINS, side_bins)
        runs = []  # (coincidences, accidentals subtracted) of each run
        for label, child, survival in (("filtered", children[2], 1.0),
                                       ("hotcell", children[3], 1.0 - resonant)):
            hist = _mc_run(cfg, det, out, label, "single", child, n_side, survival)
            # each run subtracts the floor of the bins its own window sums
            counts, n_bins = montecarlo.coincidences_in_window(hist, window)
            runs.append((counts, hist.accidental_floor_per_bin * n_bins))
        (c_f, acc_f), (c_b, acc_b) = runs
        purity = stderr = None
        reasons = _purity_flags(cfg, fadof, c_f - acc_f, c_b - acc_b)
        if not reasons:
            purity = pairs.spectral_purity(c_b - acc_b, c_f - acc_f)
            if not 0.0 <= purity <= 1.0:
                purity, reasons = None, [f"value {purity:.4g} lies outside [0, 1]"]
            else:
                # Poisson variance of each run's coincidences; the accidentals are known
                stderr = pairs.spectral_purity_stderr(c_b - acc_b, c_f - acc_f, c_b, c_f)
        dirty += [f"spectral purity (MC) is not a purity: {r}" for r in reasons]
        payload.update(
            coincidence_window_ns=window * 1e9,
            coincidences_filtered=c_f,
            coincidences_hot_cell=c_b,
            accidentals_subtracted_per_run=acc_f,
            spectral_purity_mc=purity,
            spectral_purity_mc_stderr=stderr,
        )
        purity_text = "n/a" if purity is None else f"{purity:.4f} +- {stderr:.4f}"
        print(f"spectral purity (MC): {purity_text} (analytic resonant fraction {resonant:.4f})")
    _write_json(out / "purity.json", cfg, payload)
    print(f"overall degenerate fraction: {payload['overall_degenerate_fraction']:.4f}")
    return dirty


def cmd_optimize(cfg: ExperimentConfig, out: Path, threads: int) -> list[str]:
    """Figure-of-merit surface over the (B, temperature) scan grid."""
    try:
        result = pairs.optimize_filter(
            cfg.filter,
            cfg.opo,
            cfg.optimize_b_t,
            cfg.optimize_temperatures_k,
            grid_half_span_hz=cfg.optimize_half_span_hz,
            grid_step_hz=cfg.optimize_step_hz,
            threads=threads,
        )
    except ModeOutsideGridError as exc:
        raise ConfigError(f"[optimize] half_span_GHz: {exc}") from exc
    result.to_csv(out / "fom_surface.csv", header_lines=_hash_header(cfg))
    payload = {
        "best_b_mT": result.best_b_t * 1e3,
        "best_temperature_K": result.best_temperature_k,
        "best_fom": result.best_fom,
        "best_peak_offset_ghz": result.best_peak_offset_hz / 1e9,
        "invalid_points": result.meta["n_invalid"],
        "modes_per_side": result.meta["max_modes"],
    }
    _write_json(out / "optimize_result.json", cfg, payload)
    print(
        f"best figure of merit {result.best_fom:.3g} at "
        f"B = {result.best_b_t * 1e3:.2f} mT, T = {result.best_temperature_k:.1f} K"
    )
    reasons = ", ".join(f"{n} {reason}" for reason, n in result.meta["invalid_reasons"].items())
    return [f"{result.meta['n_invalid']} scan points invalid: {reasons}"] if reasons else []


def cmd_noise(cfg: ExperimentConfig, out: Path) -> list[str]:
    """Attenuation sweep of the quadrature noise plus the loss table."""
    amplitude = abs(cfg.noise.mean_field)
    if not 0.0 < amplitude * amplitude < math.inf:
        raise ConfigError("[noise] field_amplitude: the probe power is not a positive finite number")
    t_nd = np.linspace(1.0 / cfg.noise_tnd_points, 1.0, cfg.noise_tnd_points)
    variances = 1.0 + excess_noise(replace(cfg.noise, attenuation_amplitude=t_nd))
    power_proxy = (t_nd * amplitude) ** 2
    write_csv(out / "noise_sweep.csv", _hash_header(cfg), {
        "t_nd": (t_nd, "%.6f"), "power_proxy": (power_proxy, "%.9e"),
        "variance": (variances, "%.9e"),
    })

    fit = noise_vs_power_fit(power_proxy, variances)
    table = [
        {
            "input_db": s_db,
            "transmission": t,
            "output_db": squeezing_through_loss(s_db, t),
        }
        for s_db, t in cfg.squeezing_table
    ]
    payload = {
        "shot_noise": fit.shot_noise,
        "linear_coefficient": fit.linear_coefficient,
        "max_abs_residual": float(np.max(np.abs(fit.residuals))),
        "squeezing_through_loss": table,
    }
    _write_json(out / "noise_fit.json", cfg, payload)
    print(
        f"noise fit: shot noise {fit.shot_noise:.6f}, "
        f"linear coefficient {fit.linear_coefficient:.6g} per power unit"
    )
    for row in table:
        print(
            f"squeezing {row['input_db']:.2f} dB through T={row['transmission']:.2f}"
            f" -> {row['output_db']:.2f} dB"
        )
    return []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fadofsim",
        description="Atomic-filter and photon-pair simulation toolkit",
    )
    parser.add_argument("--config", metavar="PATH", help="INI config file (defaults built in)")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--seed", type=int, metavar="U64", help="override the config seed")
    parser.add_argument("--threads", type=int, default=1, metavar="N",
                        help="worker threads for grid sweeps")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("spectrum", help="filter and source spectra plus metrics")
    g2 = sub.add_parser("g2", help="analytic coincidence histograms")
    g2.add_argument("--mode", choices=("on", "off", "both"), default="both",
                    help="filter on (single mode), off (full comb), or both")
    sub.add_parser("simulate", help="Monte Carlo streams and cross-checks")
    sub.add_parser("optimize", help="filter working-point scan")
    sub.add_parser("noise", help="quadrature-noise budget and loss table")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.threads < 1:
            raise ConfigError("--threads must be at least 1")
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed must be non-negative")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else Path(cfg.output_dir)
    seed = args.seed if args.seed is not None else cfg.seed
    # commands are looked up when called, so rebinding a cmd_* takes effect
    commands = {
        "spectrum": lambda: cmd_spectrum(cfg, out),
        "g2": lambda: cmd_g2(cfg, out, args.mode),
        "simulate": lambda: cmd_simulate(cfg, out, seed),
        "optimize": lambda: cmd_optimize(cfg, out, args.threads),
        "noise": lambda: cmd_noise(cfg, out),
    }
    try:
        out.mkdir(parents=True, exist_ok=True)
        # an overflow or an invalid operation ends the command with its message
        with np.errstate(over="raise", invalid="raise"):
            dirty = commands[args.command]()
    except (ValueError, OSError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for flag in dirty:
        print(f"validity flag: {flag}", file=sys.stderr)
    return 1 if dirty else 0


if __name__ == "__main__":
    sys.exit(main())
