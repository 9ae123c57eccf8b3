"""Per-mode pair transmission, purity bookkeeping, and filter optimization."""

import hashlib
import warnings
from dataclasses import replace

import numpy as np
import pytest
from _oracles import modes_off_grid, pair_map_by_mode
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fadofsim import pairs, susceptibility, vapor
from fadofsim.cli import _filter_on_grid
from fadofsim.config import load_config
from fadofsim.opo import MODE_WINDOW_LINEWIDTHS, ModeComb, OpoConfig, mode_comb, modes_within_grid
from fadofsim.pairs import (
    MAX_PEAK_OFFSET_HZ,
    ModeOutsideGridError,
    extinction_leakage_estimate,
    optimize_filter,
    overall_degenerate_fraction,
    pair_transmission_map,
    resonant_degenerate_fraction,
    spectral_purity,
    spectral_purity_stderr,
    weighted_pair_terms,
)
from fadofsim.spectrum import Spectrum, make_frequency_grid
from fadofsim.vapor import FilterConfig

OPO = OpoConfig()
REF_HZ = FilterConfig().table.reference_frequency_hz


def _sha256(values):
    """sha256 of an array's float64 bytes in C order."""
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def _toy_comb(weights):
    idx = np.arange(-(len(weights) // 2), len(weights) // 2 + 1)
    return ModeComb(indices=idx, frequencies_hz=idx * 5e8, weights=np.array(weights))


# a five-mode comb and its eta array, both in comb order -2..2
TOY_COMB = _toy_comb([0.25, 0.5, 1.0, 0.5, 0.25])
TOY_ETA = np.array([0.1, 0.2, 0.5, 0.3, 0.4])


def test_map_mirror_pair_arithmetic():
    comb, eta = TOY_COMB, TOY_ETA
    n0 = comb.n_max
    assert eta[n0 + 1] == 0.3
    assert eta[n0 - 1] == 0.2
    pair = eta * eta[::-1]
    assert pair[n0 + 1] == pytest.approx(0.06, rel=1e-15)
    assert pair[n0 - 1] == pair[n0 + 1]
    assert pair[n0] == pytest.approx(0.25, rel=1e-15)
    terms = weighted_pair_terms(comb, eta)
    assert np.array_equal(terms, comb.weights * pair)
    assert terms.sum() == pytest.approx(0.33, rel=1e-12)
    assert np.delete(terms, n0).sum() == pytest.approx(0.08, rel=1e-12)
    assert resonant_degenerate_fraction(comb, eta) == pytest.approx(0.25 / 0.33, rel=1e-12)


def test_transparent_filter_passes_every_mode():
    grid = make_frequency_grid(OPO.degenerate_frequency_hz, 5e9, 1e6)
    spec = Spectrum(frequency_hz=grid, value=np.ones(grid.size))
    comb = mode_comb(OPO, max_modes=5)
    eta = pair_transmission_map(spec, comb, OPO)
    assert eta.shape == comb.indices.shape
    assert np.allclose(eta, 1.0, rtol=1e-12)
    # with every eta equal the degenerate share is w0 over the weight sum
    assert resonant_degenerate_fraction(comb, eta) == pytest.approx(
        1.0 / comb.weights.sum(), rel=1e-12
    )


def test_top_hat_filter_blocks_neighbor_modes():
    # a pass window of one free spectral range transmits the degenerate
    # mode and only Lorentzian wing tails of its neighbors
    f0 = OPO.degenerate_frequency_hz
    grid = make_frequency_grid(f0, 5e9, 1e6)
    vals = (np.abs(grid - f0) <= 0.5 * OPO.fsr_hz).astype(float)
    comb = mode_comb(OPO, max_modes=5)
    eta = pair_transmission_map(Spectrum(frequency_hz=grid, value=vals), comb, OPO)
    n0 = comb.n_max
    assert eta[n0] > 0.99
    assert eta[n0 + 1] < 5e-3
    assert eta[n0 + 2] == 0.0
    terms = weighted_pair_terms(comb, eta)
    ratio = np.delete(terms, n0).sum() / (eta[n0] * eta[n0])
    assert ratio < 1e-4
    assert resonant_degenerate_fraction(comb, eta) > 0.9999


def test_scaling_filter_leaves_resonant_fraction_unchanged():
    grid = make_frequency_grid(OPO.degenerate_frequency_hz, 5e9, 1e6)
    rng = np.random.default_rng(3)
    base_vals = 0.2 + 0.6 * rng.random(grid.size)
    comb = mode_comb(OPO, max_modes=4)
    full = pair_transmission_map(Spectrum(frequency_hz=grid, value=base_vals), comb, OPO)
    half = pair_transmission_map(Spectrum(frequency_hz=grid, value=0.5 * base_vals), comb, OPO)
    assert np.allclose(half, 0.5 * full, rtol=1e-12)
    assert resonant_degenerate_fraction(comb, half) == pytest.approx(
        resonant_degenerate_fraction(comb, full), rel=1e-12
    )


def _off_grid(opo, grid, degenerate_hz, n):
    """Modes of the comb -n..n about ``degenerate_hz`` whose window leaves the grid, by the oracle."""
    comb = mode_comb(replace(opo, degenerate_frequency_hz=degenerate_hz), max_modes=n)
    assert comb.n_max == n
    half_window = MODE_WINDOW_LINEWIDTHS * opo.mode_fwhm_hz
    return modes_off_grid(comb.indices, comb.frequencies_hz, half_window, grid)


def test_mode_window_must_fit_grid():
    grid = make_frequency_grid(OPO.degenerate_frequency_hz, 1e9, 1e6)
    spec = Spectrum(frequency_hz=grid, value=np.ones(grid.size))
    comb = mode_comb(OPO, max_modes=2)
    with pytest.raises(ModeOutsideGridError, match="mode -2") as err:
        pair_transmission_map(spec, comb, OPO)
    assert err.value.index == -2
    assert _off_grid(OPO, grid, OPO.degenerate_frequency_hz, 2) == [-2, 2]

    # the truncation rule keeps 31 modes per side on the default
    # spectrum/simulate grid and 27 on the optimize grid, whose peak may
    # sit anywhere within MAX_PEAK_OFFSET_HZ of the reference
    cfg = load_config(None)
    ref = cfg.filter.table.reference_frequency_hz
    grid = make_frequency_grid(ref, cfg.grid_half_span_hz, cfg.grid_step_hz)
    assert modes_within_grid(OPO, grid, cfg.opo.degenerate_frequency_hz) == 31
    optimize_grid = make_frequency_grid(ref, cfg.optimize_half_span_hz, cfg.optimize_step_hz)
    assert modes_within_grid(OPO, optimize_grid, ref + MAX_PEAK_OFFSET_HZ) == 27
    # at any offset every retained window lies on the grid, one more mode does not
    spec = Spectrum(frequency_hz=grid, value=np.ones(grid.size))
    for offset in np.linspace(-19.5e9, 19.5e9, 53):
        opo = replace(OPO, degenerate_frequency_hz=ref + offset)
        n = modes_within_grid(opo, grid, ref + offset)
        assert _off_grid(opo, grid, ref + offset, n) == []
        assert _off_grid(opo, grid, ref + offset, n + 1) != []
        pair_transmission_map(spec, mode_comb(opo, max_modes=n), opo)
        with pytest.raises(ModeOutsideGridError) as err:
            pair_transmission_map(spec, mode_comb(opo, max_modes=n + 1), opo)
        assert err.value.index == -(n + 1)
    with pytest.raises(ModeOutsideGridError, match="half span of at least 20.32 GHz") as err:
        modes_within_grid(OPO, grid, ref + 19.9e9)
    assert err.value.index == 0
    assert _off_grid(OPO, grid, ref + 19.9e9, 0) == [0]

    # a half span off the step multiples: the grid ends at 6.85 GHz, not
    # 6.8511, which leaves room for 4 modes per side, not 5
    odd = make_frequency_grid(ref, 6.8511e9, 2.5e6)
    assert odd[-1] - ref == pytest.approx(6.85e9, abs=1e-3)
    n = modes_within_grid(OPO, odd, OPO.degenerate_frequency_hz)
    assert n == 4
    assert _off_grid(OPO, odd, OPO.degenerate_frequency_hz, n + 1) == [-5]


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    half_span_hz=st.floats(0.3e9, 30e9),
    steps_per_half_span=st.floats(2.0, 3000.0),
    offset_fraction=st.floats(-1.1, 1.1),
)
@example(half_span_hz=6.8511e9, steps_per_half_span=6.8511e9 / 2.5e6, offset_fraction=-3.9259 / 6.8511)
@example(half_span_hz=921e6, steps_per_half_span=921.0, offset_fraction=0.0)
def test_modes_within_grid_matches_per_mode_oracle(half_span_hz, steps_per_half_span, offset_fraction):
    # the step need not divide the half span, so the grid ends short of it
    grid = make_frequency_grid(REF_HZ, half_span_hz, half_span_hz / steps_per_half_span)
    degenerate = REF_HZ + offset_fraction * half_span_hz
    try:
        n = modes_within_grid(OPO, grid, degenerate)
    except ModeOutsideGridError as err:
        assert err.index == 0
        assert _off_grid(OPO, grid, degenerate, 0) == [0]
        return
    assert _off_grid(OPO, grid, degenerate, n) == []
    assert _off_grid(OPO, grid, degenerate, n + 1) != []


def test_spectral_purity_values_and_validation():
    assert spectral_purity(2.0, 100.0) == pytest.approx(0.98, abs=0)
    assert spectral_purity(0.0, 50.0) == 1.0
    with pytest.raises(ValueError, match="positive"):
        spectral_purity(1.0, 0.0)
    with pytest.raises(ValueError, match="negative"):
        spectral_purity(-1.0, 10.0)


def test_spectral_purity_stderr_matches_poisson_scatter():
    # coincidences Poisson about their means, accidentals known: the
    # first-order error is the scatter of the purity over many draws
    acc_b, acc_f, mean_b, mean_f = 20.0, 20.0, 520.0, 10_020.0
    rng = np.random.default_rng(7)
    c_b = rng.poisson(mean_b, 20_000)
    c_f = rng.poisson(mean_f, 20_000)
    scatter = np.std(1.0 - (c_b - acc_b) / (c_f - acc_f))
    stderr = spectral_purity_stderr(mean_b - acc_b, mean_f - acc_f, mean_b, mean_f)
    assert stderr == pytest.approx(scatter, rel=0.03)
    # sqrt(var_B + (B/F)^2 var_F) / F, term by term
    assert spectral_purity_stderr(3.0, 4.0, 9.0, 16.0) == pytest.approx(
        np.sqrt(9.0 + (3.0 / 4.0) ** 2 * 16.0) / 4.0, rel=1e-15
    )
    assert spectral_purity_stderr(0.0, 100.0, 0.0, 100.0) == 0.0
    with pytest.raises(ValueError, match="positive"):
        spectral_purity_stderr(1.0, 0.0, 1.0, 1.0)


def test_overall_fraction_discounts_leakage():
    assert overall_degenerate_fraction(0.98, 0.02) == pytest.approx(0.9604, rel=1e-15)
    assert overall_degenerate_fraction(1.0, 0.0) == 1.0
    with pytest.raises(ValueError, match="resonant"):
        overall_degenerate_fraction(1.2, 0.0)
    with pytest.raises(ValueError, match="leakage"):
        overall_degenerate_fraction(0.5, -0.1)


def test_extinction_leakage_estimate_behaviour():
    lo = extinction_leakage_estimate(TOY_COMB, TOY_ETA, 1e-6)
    hi = extinction_leakage_estimate(TOY_COMB, TOY_ETA, 1e-4)
    assert 0 < lo < hi < 1
    assert hi == pytest.approx(lo * 1e4, rel=1e-9)
    assert extinction_leakage_estimate(TOY_COMB, TOY_ETA, 1.0) == 1.0
    with pytest.raises(ValueError, match="vanishes"):
        extinction_leakage_estimate(_toy_comb([1.0, 1.0, 1.0]), np.array([0.5, 0.0, 0.5]), 1e-6)


def test_purity_fractions_composition():
    resonant = resonant_degenerate_fraction(TOY_COMB, TOY_ETA)
    assert resonant == pytest.approx(0.25 / 0.33, rel=1e-12)
    assert overall_degenerate_fraction(resonant, 0.02) == pytest.approx(resonant * 0.98, rel=1e-15)


def test_per_mode_record_matches_its_golden_values():
    # at the default config's filter and comb: the eta array, the two
    # fractions read from it, and a 2x2 optimize scan, as computed with
    # the two-zone kernel; a change in any operation or summation order
    # moves these digests
    cfg = load_config(None)
    spec, comb = _filter_on_grid(cfg)
    eta = pair_transmission_map(spec, comb, cfg.opo)
    assert eta.dtype == np.float64 and eta.size == 63
    assert _sha256(eta) == "9da5d67f250e0836ba87c8aad74eef340a0028fd3d7614d453605d2f0b5801aa"
    assert repr(resonant_degenerate_fraction(comb, eta)) == "np.float64(0.9690176659400845)"
    assert repr(extinction_leakage_estimate(comb, eta, cfg.filter.extinction)) == "4.133315696046593e-10"
    scan = optimize_filter(FilterConfig(), OPO, [4.0e-3, 5.0e-3], [360.0, 370.0], 8e9, 4e6)
    assert _sha256(scan.fom) == "d51edfa48b69fceaa8cbc70a80116c245d135d06d810a87c1fc4a82a76b533ae"
    assert _sha256(scan.eta0) == "751bbd43e86310da25a602265e0fe9c0af192c9ce323158aa75b583912b171eb"
    assert _sha256(scan.sum_nondegenerate) == (
        "a02177d52fad8a0a707af21cf32fb1d03cec93b84d0278a4410a5fabd6970f5f")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(step_hz=st.floats(0.5e6, 5e6), offset_hz=st.floats(-2e9, 2e9), seed=st.integers(0, 2**32 - 1))
def test_pair_map_equals_the_per_mode_oracle_bit_for_bit(step_hz, offset_hz, seed):
    # uniform grids whose steps make the mode windows differ in length: the
    # rows of one window length give each mode the per-mode trapezoid's bytes
    freq = make_frequency_grid(REF_HZ, 8e9, step_hz)
    vals = np.random.default_rng(seed).uniform(0.0, 1.0, freq.size)
    comb = mode_comb(replace(OPO, degenerate_frequency_hz=REF_HZ + offset_hz),
                     max_modes=modes_within_grid(OPO, freq, REF_HZ + 2e9))
    eta = pair_transmission_map(Spectrum(freq, vals), comb, OPO)
    oracle = pair_map_by_mode(freq, vals, comb.frequencies_hz, OPO.mode_fwhm_hz, MODE_WINDOW_LINEWIDTHS)
    assert eta.tobytes() == oracle.tobytes()


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    fields=st.lists(st.sampled_from([0.0, -2e-3, 4.5e-3, 4.5e-3, 1e-3, 0.02, 1.0]), min_size=1, max_size=5),
    temperature_k=st.sampled_from([300.0, 367.0, 380.0]),
    step_hz=st.sampled_from([1e6, 2e6, 5e6]),
    points=st.sampled_from([2, 3001, vapor._GRID_BLOCK + 7]),
)
@example(fields=[4.5e-3, 0.0, 1.0], temperature_k=380.0, step_hz=2e6, points=vapor._GRID_BLOCK + 7)
@example(fields=[-2e-3, 4.5e-3], temperature_k=367.0, step_hz=2e6, points=3001)
@example(fields=[0.02, 0.0], temperature_k=300.0, step_hz=5e6, points=3001)
def test_a_temperatures_line_side_gives_each_field_its_own_bytes(fields, temperature_k, step_hz, points):
    # r = 1 at 2 MHz and 367 K, 2 at 2 MHz and 380 K and at 1 MHz, 0 at
    # 5 MHz; grids of one block and of two
    cell = replace(FilterConfig(), temperature_k=temperature_k)
    freq = REF_HZ - 3e9 + step_hz * np.arange(points)
    side = vapor.filter_line_side(cell, freq, fields)
    for b in fields:
        got = vapor.fadof_transmission(replace(cell, b_field_t=b), freq, side).value
        alone = vapor.fadof_transmission(replace(cell, b_field_t=b), freq).value
        assert got.tobytes() == alone.tobytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_one_overflowing_field_leaves_the_others_values(threads):
    # a temperature whose batch overflows is prepared again field by field:
    # the 1e300 T point alone is invalid, once, and every other point keeps
    # the values of a scan without it
    kwargs = dict(grid_half_span_hz=8e9, grid_step_hz=4e6, threads=threads)
    clean = optimize_filter(FilterConfig(), OPO, [4.0e-3, 5.0e-3], [360.0, 370.0], **kwargs)
    mixed = optimize_filter(FilterConfig(), OPO, [4.0e-3, 1e300, 5.0e-3], [360.0, 370.0], **kwargs)
    assert dict(mixed.meta["invalid_reasons"]) == {"overflowed or met an invalid operation": 2}
    assert np.isnan(mixed.fom[1]).all()
    for name in ("fom", "eta0", "sum_nondegenerate", "peak_offset_hz"):
        assert getattr(mixed, name)[[0, 2]].tobytes() == getattr(clean, name).tobytes()


def test_optimize_single_point_matches_defaults():
    res = optimize_filter(
        FilterConfig(),
        OPO,
        [4.5e-3],
        [365.0],
        grid_half_span_hz=8e9,
        grid_step_hz=2e6,
    )
    assert res.best_b_t == 4.5e-3
    assert res.best_temperature_k == 365.0
    assert res.best_fom == res.fom[0, 0]
    assert res.best_fom > 100.0
    assert res.eta0[0, 0] == pytest.approx(0.699, rel=1e-2)
    assert res.peak_offset_hz[0, 0] == pytest.approx(-3.926e9, abs=4e6)
    assert res.best_peak_offset_hz == res.peak_offset_hz[0, 0]
    assert res.meta["n_invalid"] == 0


def test_optimize_threads_bitwise_equal():
    kwargs = dict(grid_half_span_hz=8e9, grid_step_hz=4e6)
    serial = optimize_filter(FilterConfig(), OPO, [4.0e-3, 5.0e-3], [360.0, 370.0], **kwargs)
    parallel = optimize_filter(
        FilterConfig(), OPO, [4.0e-3, 5.0e-3], [360.0, 370.0], threads=2, **kwargs
    )
    assert np.array_equal(serial.fom, parallel.fom, equal_nan=True)
    assert np.array_equal(serial.eta0, parallel.eta0, equal_nan=True)
    assert serial.best_fom == parallel.best_fom


def test_optimize_builds_each_table_segment_once_at_any_thread_count(monkeypatch):
    # one task per temperature: its thread builds that temperature's table
    # segments once for both fields and polarizations (r = 1 at 350 and
    # 365 K, r = 2 at 380 K on the 2 MHz grid), so the kernel's calls and
    # nodes do not depend on how the tasks fall to the threads
    voigt, table_fft = susceptibility.complex_voigt, susceptibility._table_fft
    counts = {}
    for threads in (1, 2, 3):
        sizes, keys = [], []
        monkeypatch.setattr(susceptibility, "complex_voigt",
                            lambda x, a: sizes.append(np.size(x)) or voigt(x, a))
        monkeypatch.setattr(susceptibility, "_table_fft",
                            lambda *key: keys.append(key) or table_fft(*key))
        susceptibility._THREAD.__dict__.clear()
        optimize_filter(FilterConfig(), OPO, [4.0e-3, 5.0e-3], [350.0, 365.0, 380.0], 8e9, 2e6,
                        threads=threads)
        assert keys and len(set(keys)) == len(keys)
        counts[threads] = (len(sizes), sum(sizes))
    assert counts[1] == counts[2] == counts[3]


def test_optimize_flags_flat_spectrum_points():
    # at zero field the spectrum is the flat extinction floor: no peak
    res = optimize_filter(
        FilterConfig(),
        OPO,
        [0.0, 4.5e-3],
        [365.0],
        grid_half_span_hz=8e9,
        grid_step_hz=4e6,
    )
    assert res.meta["n_invalid"] == 1
    assert np.isnan(res.fom[0, 0])
    assert res.best_b_t == 4.5e-3


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("stage", ["fadof_transmission", "filter_metrics", "pair_transmission_map"])
def test_optimize_overflow_in_any_stage_makes_the_point_invalid(monkeypatch, stage, threads):
    # an overflow in one stage of the second point: that point alone is
    # invalid, with either pool size, and no warning escapes
    fadof_transmission = pairs.fadof_transmission

    def tagged(cfg, grid, *line_side):
        spec = fadof_transmission(cfg, grid, *line_side)
        spec.overflows = cfg.b_field_t == 5.0e-3
        return spec

    monkeypatch.setattr(pairs, "fadof_transmission", tagged)
    inner = getattr(pairs, stage)

    def overflowing(*args):
        out = inner(*args)
        if (out if stage == "fadof_transmission" else args[0]).overflows:
            np.array([1e300]) * 1e300
        return out

    monkeypatch.setattr(pairs, stage, overflowing)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = optimize_filter(FilterConfig(), OPO, [4.0e-3, 5.0e-3], [365.0],
                              grid_half_span_hz=8e9, grid_step_hz=4e6, threads=threads)
    assert res.meta["n_invalid"] == 1
    assert np.isnan(res.fom[1, 0]) and np.isnan(res.eta0[1, 0]) and np.isfinite(res.fom[0, 0])


def test_optimize_counts_each_reason_a_point_is_invalid(monkeypatch):
    # zero field leaves no usable peak, 1e300 T overflows, and with the
    # margin cut to 3 GHz the 4.5 mT peak near -3.9 GHz lies beyond it
    monkeypatch.setattr(pairs, "MAX_PEAK_OFFSET_HZ", 3e9)
    res = optimize_filter(FilterConfig(), OPO, [0.0, 2e-3, 4.5e-3, 1e300], [365.0],
                          grid_half_span_hz=8e9, grid_step_hz=4e6)
    assert res.meta["n_invalid"] == 3
    assert dict(res.meta["invalid_reasons"]) == {
        "had no usable transmission peak": 1,
        "had their peak more than 3 GHz from the reference": 1,
        "overflowed or met an invalid operation": 1,
    }
    assert np.isfinite(res.fom[1, 0]) and np.isnan(res.fom[[0, 2, 3], 0]).all()


def test_optimize_all_invalid_raises():
    with pytest.raises(ValueError, match="no valid points"):
        optimize_filter(
            FilterConfig(),
            OPO,
            [0.0],
            [365.0],
            grid_half_span_hz=8e9,
            grid_step_hz=4e6,
        )


def test_optimize_fom_decreases_with_extinction():
    kwargs = dict(grid_half_span_hz=8e9, grid_step_hz=2e6)
    clean = optimize_filter(FilterConfig(extinction=1.8e-6), OPO, [4.5e-3], [365.0], **kwargs)
    leaky = optimize_filter(FilterConfig(extinction=1.8e-4), OPO, [4.5e-3], [365.0], **kwargs)
    assert leaky.best_fom < clean.best_fom


def test_optimize_csv_export(tmp_path):
    res = optimize_filter(
        FilterConfig(),
        OPO,
        [4.0e-3, 5.0e-3],
        [365.0],
        grid_half_span_hz=8e9,
        grid_step_hz=4e6,
    )
    path = tmp_path / "scan.csv"
    res.to_csv(path, header_lines=("scan: test",))
    lines = path.read_text().splitlines()
    assert lines[0] == "# scan: test"
    assert lines[1] == "B_T,temperature_K,fom,eta0,sum_nondegenerate"
    assert lines[2] == "4.000000e-03,365.000,5.04357545e+02,6.60268571e-01,8.64376056e-04"
    assert len(lines) == 2 + 2
