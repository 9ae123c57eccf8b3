"""Faraday filter and blocking-cell transmission physics."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fadofsim import susceptibility, vapor
from fadofsim.opo import DEFAULT_OPERATING_OFFSET_HZ, OpoConfig
from fadofsim.spectrum import filter_metrics, make_frequency_grid
from fadofsim.vapor import (
    FilterConfig,
    HotCellConfig,
    VaporCell,
    circular_amplitudes,
    fadof_transmission,
    hot_cell_transmission,
    optical_depth,
)

REF_HZ = FilterConfig().table.reference_frequency_hz
BLOCK = vapor._GRID_BLOCK


def test_default_center_is_reference_plus_operating_offset():
    cfg = OpoConfig()
    assert cfg.degenerate_frequency_hz == REF_HZ - 3.9259e9
    custom = OpoConfig(degenerate_frequency_hz=REF_HZ)
    assert custom.degenerate_frequency_hz == REF_HZ


def test_zero_field_transmission_is_exactly_extinction():
    # without Zeeman splitting both circular components see the same
    # index, no polarization rotates, and only polarizer leakage passes
    cfg = FilterConfig(b_field_t=0.0)
    grid = make_frequency_grid(REF_HZ, 10e9, 50e6)
    t_plus, t_minus = circular_amplitudes(cfg, grid)
    # the polarizations sum the same Zeeman components in different
    # order, so they agree to rounding rather than bitwise
    assert np.allclose(t_plus, t_minus, rtol=1e-12)
    spec = fadof_transmission(cfg, grid)
    assert np.abs(spec.value - cfg.extinction).max() < 1e-20


def test_transmission_is_passive_for_random_configs():
    rng = np.random.default_rng(7)
    grid = make_frequency_grid(REF_HZ, 15e9, 250e6)
    for _ in range(20):
        cfg = FilterConfig(
            b_field_t=rng.uniform(0.0, 10e-3),
            temperature_k=rng.uniform(320.0, 400.0),
            length_m=rng.uniform(0.05, 0.5),
            extinction=rng.uniform(0.0, 1e-3),
            buffer_fwhm_hz=rng.uniform(0.0, 500e6),
        )
        spec = fadof_transmission(cfg, grid)
        assert spec.value.min() >= 0.0
        assert spec.value.max() <= 1.0


def test_field_reversal_leaves_transmission_unchanged():
    grid = make_frequency_grid(REF_HZ, 10e9, 100e6)
    fwd = fadof_transmission(FilterConfig(b_field_t=4.5e-3), grid)
    rev = fadof_transmission(FilterConfig(b_field_t=-4.5e-3), grid)
    assert np.allclose(fwd.value, rev.value, rtol=1e-9)


def test_transmission_monotone_in_extinction():
    grid = make_frequency_grid(REF_HZ, 15e9, 500e6)
    lo = fadof_transmission(FilterConfig(extinction=1e-6), grid)
    hi = fadof_transmission(FilterConfig(extinction=1e-4), grid)
    assert np.all(hi.value >= lo.value)


def test_default_filter_calibration_pins():
    # regression pins for the default operating point on the standard grid
    cfg = FilterConfig()
    grid = make_frequency_grid(OpoConfig().degenerate_frequency_hz, 20e9, 2e6)
    m = filter_metrics(fadof_transmission(cfg, grid))
    assert abs(m.peak_frequency_hz - (REF_HZ - 3.9259e9)) <= 2 * 2e6
    assert m.peak_transmission == pytest.approx(0.7088764709065762, rel=1e-6)
    assert m.fwhm_hz == pytest.approx(510538746.6875, rel=1e-6)
    assert m.rejection_db == pytest.approx(31.491, rel=1e-3)


def test_operating_offset_is_computed_default_peak():
    # DEFAULT_OPERATING_OFFSET_HZ is hard-coded; it must stay on the peak
    # that the default filter computes on the spectrum command's grid
    step = 2e6
    spec = fadof_transmission(FilterConfig(), make_frequency_grid(REF_HZ, 20e9, step))
    peak = filter_metrics(spec).peak_frequency_hz - REF_HZ
    assert abs(peak - DEFAULT_OPERATING_OFFSET_HZ) <= step, (
        f"the default filter peaks at {peak / 1e9:+.4f} GHz, not at "
        f"DEFAULT_OPERATING_OFFSET_HZ = {DEFAULT_OPERATING_OFFSET_HZ / 1e9:+.4f} GHz; "
        "the runner-up window at -0.058 GHz was only 1.6e-4 below the -3.926 GHz "
        "peak, so a small model or cell change can move the peak there"
    )


def test_filter_floor_reaches_extinction_far_out():
    # the crossed-polarizer floor is still 2x extinction at 50 GHz and
    # settles to within 10% of extinction only around 100 GHz detuning
    cfg = FilterConfig()
    at_50 = fadof_transmission(cfg, np.array([REF_HZ - 50e9, REF_HZ + 50e9])).value
    at_100 = fadof_transmission(cfg, np.array([REF_HZ - 100e9, REF_HZ + 100e9])).value
    assert at_50.max() == pytest.approx(2.228 * cfg.extinction, rel=1e-2)
    assert np.all(at_100 > cfg.extinction)
    assert np.all(at_100 < 1.10 * cfg.extinction)


def test_hot_cell_opaque_over_filter_passband():
    cfg = FilterConfig()
    grid = make_frequency_grid(OpoConfig().degenerate_frequency_hz, 20e9, 2e6)
    m = filter_metrics(fadof_transmission(cfg, grid))
    hot = HotCellConfig()
    passband = make_frequency_grid(m.peak_frequency_hz, 0.5 * m.fwhm_hz, 5e6)
    od = optical_depth(hot, passband)
    assert od.min() >= 20.0
    spec = hot_cell_transmission(hot, passband)
    assert spec.value.max() < 1e-8


def test_hot_cell_far_wing_transparency():
    # collisional Lorentzian wings keep about 2% absorption at 100 GHz;
    # transmission exceeds 0.99 around 200 GHz detuning
    hot = HotCellConfig()
    at_100 = hot_cell_transmission(hot, np.array([REF_HZ - 100e9, REF_HZ + 100e9])).value
    at_200 = hot_cell_transmission(hot, np.array([REF_HZ - 200e9, REF_HZ + 200e9])).value
    assert at_100.min() == pytest.approx(0.97872, rel=1e-3)
    assert np.all(at_200 > 0.99)


def test_hot_cell_empty_is_transparent(monkeypatch):
    monkeypatch.setattr(susceptibility, "vapor_density", lambda temperature_k: 0.0)
    hot = HotCellConfig()
    grid = make_frequency_grid(REF_HZ, 5e9, 500e6)
    spec = hot_cell_transmission(hot, grid)
    assert np.all(spec.value == 1.0)


def test_optical_depth_scales_with_length():
    grid = make_frequency_grid(REF_HZ, 5e9, 500e6)
    one = optical_depth(HotCellConfig(length_m=0.1), grid)
    two = optical_depth(HotCellConfig(length_m=0.2), grid)
    assert np.allclose(two, 2.0 * one, rtol=1e-12)


def test_config_validation():
    # the cell checks live in VaporCell and hold for both cells
    for cell in (VaporCell, FilterConfig, HotCellConfig):
        kwargs = {"temperature_k": 365.0, "length_m": 0.1}
        with pytest.raises(ValueError, match="cell length"):
            cell(**{**kwargs, "length_m": 0.0})
        with pytest.raises(ValueError, match="cell length"):
            cell(**{**kwargs, "length_m": -0.1})
        with pytest.raises(ValueError, match="temperature"):
            cell(**{**kwargs, "temperature_k": 0.0})
        with pytest.raises(ValueError, match="temperature"):
            cell(**{**kwargs, "temperature_k": -1.0})
        with pytest.raises(ValueError, match="broadening"):
            cell(**kwargs, buffer_fwhm_hz=-1.0)
        cell(**kwargs, buffer_fwhm_hz=0.0)
    with pytest.raises(ValueError, match="extinction"):
        FilterConfig(extinction=1.0)
    with pytest.raises(ValueError, match="extinction"):
        FilterConfig(extinction=-1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_field_is_named_where_the_line_side_is_prepared(bad):
    # before, a NaN field's side was prepared and its lookup in the side's
    # fields raised "nan is not in list"
    grid = make_frequency_grid(REF_HZ, 2e9, 10e6)
    cfg = FilterConfig()
    for fields in ([bad], [4.5e-3, bad]):
        with pytest.raises(ValueError, match="magnetic fields must be finite"):
            vapor.filter_line_side(cfg, grid, fields)
    with pytest.raises(ValueError, match="magnetic fields must be finite"):
        fadof_transmission(replace(cfg, b_field_t=bad), grid)
    with pytest.raises(ValueError, match="magnetic fields must be finite"):
        susceptibility.complex_susceptibility(grid, +1, bad, cfg)


def _whole_grid_transmission(cfg, freq):
    """The filter from one ``circular_amplitudes`` call over the whole grid."""
    t_plus, t_minus = circular_amplitudes(cfg, freq)
    t_pol = 0.25 * np.abs(t_plus - t_minus) ** 2
    return np.clip(t_pol + cfg.extinction * (1.0 - t_pol), 0.0, 1.0)


@pytest.mark.parametrize("n", [2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 5 * BLOCK + 3])
def test_blocked_transmission_matches_the_whole_grid(n):
    cfg = FilterConfig()
    freq = np.linspace(REF_HZ - 20e9, REF_HZ + 20e9, n)
    blocked = fadof_transmission(cfg, freq)
    assert blocked.frequency_hz.shape == (n,)
    assert np.abs(blocked.value - _whole_grid_transmission(cfg, freq)).max() <= 1e-15


@pytest.mark.parametrize("n", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 5 * BLOCK + 3, 1_600_001])
def test_grid_blocks_split_evenly(n):
    blocks = vapor._grid_blocks(n)
    sizes = [b.stop - b.start for b in blocks]
    assert len(blocks) == -(-n // BLOCK)
    assert blocks[0].start == 0 and blocks[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    assert max(sizes) <= BLOCK and max(sizes) - min(sizes) <= 1
    assert min(sizes) >= min(n, BLOCK // 2)


def test_transmission_memory_is_its_output_plus_a_few_blocks():
    cfg = FilterConfig()
    freq = np.linspace(REF_HZ - 20e9, REF_HZ + 20e9, 8 * BLOCK)
    fadof_transmission(cfg, freq[:2])
    tracemalloc.start()
    try:
        spec = fadof_transmission(cfg, freq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block's chi, amplitudes and kernel temporaries came to at most
    # 15 complex blocks on any span; the whole 8-block grid at once to 38
    block_bytes = 16 * BLOCK
    assert peak < spec.value.nbytes + 20 * block_bytes, f"{peak} bytes traced"
