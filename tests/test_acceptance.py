"""Release gate: one test per acceptance criterion, run at the stated tolerance.

Each test prints a single "criterion NN: PASS/FAIL (...)" line with the
computed values, then asserts.  A criterion the physics model cannot reach
fails here with the computed value in the message; it is never tightened,
loosened, or calibrated away silently.
"""

import json
import sys
import time

import numpy as np
from scipy import stats
from scipy.integrate import simpson

from fadofsim.cli import main
from fadofsim.correlations import (
    DetectorConfig,
    detected_histogram,
    g2_multi_comb,
    g2_multi_exact,
    g2_single_fwhm,
    tooth_modulation,
)
from fadofsim.cvnoise import (
    NoiseModel,
    excess_noise,
    photon_flux,
    squeezing_through_loss,
)
from fadofsim.montecarlo import generate_pair_events, mc_histogram
from fadofsim.opo import OpoConfig, mode_comb
from fadofsim.pairs import (
    overall_degenerate_fraction,
    pair_transmission_map,
    resonant_degenerate_fraction,
    spectral_purity,
)
from fadofsim.spectrum import filter_metrics, make_frequency_grid
from fadofsim.susceptibility import complex_voigt
from fadofsim.vapor import FilterConfig, fadof_transmission

from _oracles import faddeeva_by_quadrature


def _criterion(n: int, ok: bool, detail: str) -> str:
    line = f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def test_criterion_01_correlation_envelope_width(tmp_path):
    opo = OpoConfig()
    fwhm_ns = g2_single_fwhm(opo) * 1e9
    expected_ns = 2.0 * np.log(2.0) / opo.gamma_sum * 1e9

    start = time.perf_counter()
    rc = main(["--out", str(tmp_path), "g2", "--mode", "on"])
    elapsed = time.perf_counter() - start
    reported = json.loads((tmp_path / "g2_metrics.json").read_text())["on_envelope_fwhm_ns"]

    ok = (
        round(fwhm_ns, 1) == 26.3
        and rc == 0
        and abs(reported - expected_ns) <= 0.5
        and elapsed < 1.0
    )
    line = _criterion(
        1,
        ok,
        f"analytic FWHM {fwhm_ns:.4f} ns, CLI reports {reported:.4f} ns "
        f"vs 2ln2/(g1+g2) = {expected_ns:.4f} ns, runtime {elapsed:.2f} s",
    )
    assert ok, line


def test_criterion_02_comb_teeth_and_filtered_smoothness():
    start = time.perf_counter()
    opo = OpoConfig(roundtrip_s=1.99e-9, fsr_hz=501e6)
    consistency = abs(opo.fsr_hz * opo.roundtrip_s - 1.0)

    det = DetectorConfig(bin_s=1e-9, offset_s=50e-9, r1_hz=1e4, r2_hz=1e4)
    on = detected_histogram(opo, det, "single", n_side_bins=256)
    off = detected_histogram(opo, det, "comb", n_side_bins=256)
    mod_on = tooth_modulation(on)
    mod_off = tooth_modulation(off)

    # even/odd beat: 1.99 ns teeth under 1 ns bins favor even bins near the
    # peak and drift out of phase about 100 bins later
    def beat_contrast(center: int) -> float:
        sl = slice(center - 8, center + 9)
        counts = off.counts[sl]
        parity = off.bin_index[sl] % 2
        floor = off.counts.min()
        even = counts[parity == 0].mean() - floor
        odd = counts[parity == 1].mean() - floor
        return even / odd

    i_pk = int(np.argmax(off.counts))
    near = beat_contrast(i_pk + 16)
    far = beat_contrast(i_pk + 100)
    elapsed = time.perf_counter() - start

    ok = (
        consistency <= 0.01
        and mod_off > 1.0
        and near > 10.0
        and far < 1.5
        and near > 8.0 * far
        and mod_on < 0.01
        and elapsed < 1.0
    )
    line = _criterion(
        2,
        ok,
        f"FSR*tau off by {consistency:.4f}, off-histogram modulation {mod_off:.1f} "
        f"with even/odd beat {near:.1f} near peak vs {far:.2f} at +100 bins, "
        f"on-histogram modulation {mod_on:.5f}, runtime {elapsed:.2f} s",
    )
    assert ok, line


def test_criterion_03_dirichlet_kernel_vs_delta_comb():
    start = time.perf_counter()
    opo = OpoConfig()
    n_modes = 200
    teeth = g2_multi_comb(opo)
    tau = opo.roundtrip_s

    worst = 0.0
    for n in range(-20, 21):
        window = n * tau + np.linspace(-tau / 2, tau / 2, 16385)
        integral = simpson(g2_multi_exact(window, opo, n_modes), x=window) / tau
        k = int(np.argmin(np.abs(teeth.delays_s - n * tau)))
        worst = max(worst, abs(integral - teeth.weights[k]) / teeth.weights[k])
    elapsed = time.perf_counter() - start

    ok = worst < 0.01 and elapsed < 10.0
    line = _criterion(
        3,
        ok,
        f"worst per-tooth mismatch {worst:.2e} over |n| <= 20 at N = {n_modes}, "
        f"runtime {elapsed:.2f} s",
    )
    assert ok, line


def test_criterion_04_monte_carlo_matches_analytic():
    start = time.perf_counter()
    opo = OpoConfig(pair_rate_hz=2e5)
    det = DetectorConfig(offset_s=50e-9, r1_hz=2e5, r2_hz=2e5, acquisition_s=5.0)
    seed = 2026

    p_values = {}
    n_pairs = 0
    for mode, n_side in (("single", 128), ("comb", 300)):
        stream = generate_pair_events(opo, det, mode, seed=seed)
        n_pairs = stream.meta["n_pairs_generated"]
        observed = mc_histogram(stream, det, n_side_bins=n_side)
        expected = detected_histogram(opo, det, mode, n_side_bins=n_side)
        keep = expected.counts >= 10.0
        stat = np.sum(
            (observed.counts[keep] - expected.counts[keep]) ** 2 / expected.counts[keep]
        )
        p_values[mode] = float(stats.chi2.sf(stat, df=int(keep.sum())))

    again = generate_pair_events(opo, det, "single", seed=seed)
    once = generate_pair_events(opo, det, "single", seed=seed)
    deterministic = np.array_equal(again.channel1_s, once.channel1_s) and np.array_equal(
        again.channel2_s, once.channel2_s
    )
    elapsed = time.perf_counter() - start

    ok = (
        n_pairs >= 1_000_000 * 0.99
        and p_values["single"] > 0.001
        and p_values["comb"] > 0.001
        and deterministic
        and elapsed < 60.0
    )
    line = _criterion(
        4,
        ok,
        f"{n_pairs} pairs, chi-square p single {p_values['single']:.3f} / "
        f"comb {p_values['comb']:.3f}, deterministic {deterministic}, "
        f"runtime {elapsed:.1f} s",
    )
    assert ok, line


def test_criterion_05_spectral_purity_arithmetic():
    purity = spectral_purity(2.0, 100.0)
    fraction = overall_degenerate_fraction(0.98, 0.02)
    ok = purity == 0.98 and abs(fraction - 0.9604) < 1e-12 and round(fraction, 2) == 0.96
    line = _criterion(
        5,
        ok,
        f"purity(2, 100) = {purity!r}, fraction(0.98, 0.02) = {fraction:.6f} "
        f"reported as {round(fraction, 2)}",
    )
    assert ok, line


def test_criterion_06_squeezing_through_loss():
    value = squeezing_through_loss(6.0, 0.70)

    rng = np.random.default_rng(606)
    s = rng.uniform(0.0, 20.0, 10_000)
    t1 = rng.uniform(1e-6, 1.0, 10_000)
    t2 = rng.uniform(1e-6, 1.0, 10_000)
    out = squeezing_through_loss(s, t1)
    identity = np.abs(squeezing_through_loss(s, np.ones_like(t1)) - s).max()
    dead = np.abs(squeezing_through_loss(np.zeros_like(s), t1)).max()
    bounded = bool(np.all(out >= 0.0) and np.all(out <= s))
    chained = squeezing_through_loss(out, t2)
    direct = squeezing_through_loss(s, t1 * t2)
    composition = np.abs(chained - direct).max()

    ok = (
        abs(value - 3.22) <= 0.01
        and identity < 1e-12
        and dead == 0.0
        and bounded
        and composition < 1e-10
    )
    line = _criterion(
        6,
        ok,
        f"(6 dB, T = 0.70) -> {value:.4f} dB; over 1e4 samples: identity "
        f"{identity:.1e}, zero-input {dead:.1e}, bounded {bounded}, "
        f"composition gap {composition:.1e}",
    )
    assert ok, line


def test_criterion_07_attenuator_scaling_identity():
    rng = np.random.default_rng(707)
    n = 10_000

    def draw() -> np.ndarray:
        return rng.normal(size=n) + 1j * rng.normal(size=n)

    raw = draw()
    t_mean = raw / np.abs(raw).max() * rng.uniform(0.1, 1.0)
    dt, alpha, dalpha = 0.01 * draw(), 10.0 * draw(), 0.1 * draw()
    t_nd = rng.uniform(0.05, 1.0, n)

    base = excess_noise(
        NoiseModel(t_mean, dt, alpha, dalpha, attenuation_amplitude=np.ones(n))
    )
    attenuated = excess_noise(NoiseModel(t_mean, dt, alpha, dalpha, attenuation_amplitude=t_nd))
    substituted = excess_noise(
        NoiseModel(t_mean, dt, t_nd * alpha, t_nd * dalpha, attenuation_amplitude=np.ones(n))
    )

    scale = np.abs(base).max()
    factored = np.abs(attenuated - t_nd**2 * base).max() / scale
    rewritten = np.abs(substituted - t_nd**2 * base).max() / scale

    ok = factored == 0.0 and rewritten < 1e-13
    line = _criterion(
        7,
        ok,
        f"excess variance vs t_nd^2 scaling over 1e4 random draws: attenuator "
        f"path deviation {factored:.1e}, substitution path {rewritten:.1e}",
    )
    assert ok, line


def test_criterion_08_photon_flux():
    flux = photon_flux(10e-9, 794.7e-9)
    ok = abs(flux - 4.0e10) <= 0.01 * 4.0e10
    line = _criterion(8, ok, f"10 nW at 794.7 nm -> {flux:.4e} photons/s vs 4.0e10 +- 1%")
    assert ok, line


def test_criterion_09_filter_spectrum_boxes():
    cfg = FilterConfig()
    ref = cfg.table.reference_frequency_hz
    grid = make_frequency_grid(ref, 20e9, 2e6)
    metrics = filter_metrics(fadof_transmission(cfg, grid))
    offset_ghz = (metrics.peak_frequency_hz - ref) / 1e9
    peak = metrics.peak_transmission
    fwhm_mhz = metrics.fwhm_hz / 1e6
    far = fadof_transmission(cfg, np.array([ref - 100e9, ref + 100e9]))
    floor_ratio = float(far.value.max() / cfg.extinction)
    rejection_db = 10.0 * np.log10(peak / far.value.max())

    peak_ok = abs(peak - 0.70) <= 0.15
    fwhm_ok = abs(fwhm_mhz - 445.0) <= 150.0
    floor_ok = 0.5 <= floor_ratio <= 2.0
    position_ok = abs(offset_ghz - (-2.7)) <= 0.5
    ok = peak_ok and fwhm_ok and floor_ok and position_ok
    line = _criterion(
        9,
        ok,
        f"peak offset {offset_ghz:.3f} GHz vs -2.7 +- 0.5 ({'ok' if position_ok else 'MISS'}), "
        f"transmission {peak:.3f} vs 0.70 +- 0.15 ({'ok' if peak_ok else 'MISS'}), "
        f"FWHM {fwhm_mhz:.1f} MHz vs 445 +- 150 ({'ok' if fwhm_ok else 'MISS'}), "
        f"floor {floor_ratio:.2f}x extinction vs factor 2 ({'ok' if floor_ok else 'MISS'}), "
        f"rejection {rejection_db:.1f} dB",
    )
    assert peak_ok, line
    assert fwhm_ok, line
    assert floor_ok, line
    # the box covers the 87Rb F=2 -> F'=1,2 lines, where a natural-abundance
    # cell is opaque (T <= 0.0238 over 3-9 mT, 20-300 mm, 330-400 K); a
    # pure-85Rb cell reaches the box with the same line model
    # (tools/criterion09_scan.py).  Reported as computed.
    assert position_ok, line


def test_criterion_10_pair_blocking_asymmetry():
    cfg = FilterConfig()
    opo = OpoConfig()
    comb = mode_comb(opo)
    grid = make_frequency_grid(cfg.table.reference_frequency_hz, 168.5e9, 2e6)
    eta = pair_transmission_map(fadof_transmission(cfg, grid), comb, opo)

    pair = eta * eta[::-1]
    eta0_sq = pair[comb.n_max]
    nondegenerate = pair[comb.n_max + 1:].max()
    suppression = eta0_sq / nondegenerate
    fraction = resonant_degenerate_fraction(comb, eta)

    ok = suppression >= 20.0 and fraction >= 0.95
    line = _criterion(
        10,
        ok,
        f"best nondegenerate pair {suppression:.0f}x below the degenerate one "
        f"over {comb.indices.size} modes, resonant fraction {fraction:.4f}",
    )
    assert ok, line


def test_criterion_11_voigt_kernel_vs_quadrature():
    start = time.perf_counter()
    doppler_fwhm = 2.0 * np.sqrt(np.log(2.0))
    x = np.linspace(-10 * doppler_fwhm, 10 * doppler_fwhm, 10_000)
    worst = 0.0
    for a in (8.55e-3, 0.306):
        got = complex_voigt(x, a)
        want = faddeeva_by_quadrature(x, a, half_width=14.0, nodes=32769)
        worst = max(worst, float((np.abs(got - want) / np.abs(want)).max()))
    elapsed = time.perf_counter() - start

    ok = worst < 1e-6 and elapsed < 30.0
    line = _criterion(
        11,
        ok,
        f"worst relative error {worst:.2e} over +-10 Doppler widths, "
        f"1e4 points, runtime {elapsed:.1f} s",
    )
    assert ok, line


if __name__ == "__main__":
    sys.exit(__import__("pytest").main([__file__, "-v", "-s"]))
