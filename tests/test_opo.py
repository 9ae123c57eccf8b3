"""Cavity mode comb and emission spectrum of the pair source."""

import numpy as np
import pytest

from fadofsim.opo import MODE_WEIGHT_CUTOFF, ModeComb, OpoConfig, mode_comb, output_spectrum
from fadofsim.spectrum import make_frequency_grid


def test_default_mode_count_and_symmetry():
    cfg = OpoConfig()
    comb = mode_comb(cfg)
    assert comb.n_max == 327
    assert comb.indices.size == 2 * 327 + 1
    assert comb.indices.size > 200
    # envelope is even in mode index
    assert np.array_equal(comb.weights, comb.weights[::-1])
    assert comb.weights[comb.indices == 0][0] == 1.0
    assert np.all(comb.weights >= 1e-3)
    assert np.all(comb.weights <= 1.0)


def test_mode_frequencies_are_fsr_spaced():
    cfg = OpoConfig()
    comb = mode_comb(cfg)
    assert np.allclose(np.diff(comb.frequencies_hz), cfg.fsr_hz)
    center = comb.frequencies_hz[comb.indices == 0][0]
    assert center == cfg.degenerate_frequency_hz


def test_mode_comb_cutoff_shrinks_comb():
    # a narrow envelope reaches the weight cutoff within a few modes
    cfg = OpoConfig(envelope_fwhm_hz=5e9)
    tight = mode_comb(cfg)
    assert tight.n_max < 327
    assert np.all(tight.weights >= MODE_WEIGHT_CUTOFF)
    # one more mode out would fall below the cutoff
    beta = comb_beta(cfg)
    assert np.sinc(beta * (tight.n_max + 1) / np.pi) ** 2 < MODE_WEIGHT_CUTOFF


def comb_beta(cfg):
    # argument scale such that weight(n) = sinc^2(beta n)
    return 2.0 * 1.3915573810029747 * cfg.fsr_hz / cfg.envelope_fwhm_hz


def test_mode_comb_max_modes_caps_index():
    comb = mode_comb(OpoConfig(), max_modes=10)
    assert comb.n_max == 10
    assert comb.indices.size == 21
    with pytest.raises(ValueError, match="negative"):
        mode_comb(OpoConfig(), max_modes=-1)


def test_infinite_envelope_requires_cap():
    cfg = OpoConfig(envelope_fwhm_hz=np.inf)
    with pytest.raises(ValueError, match="cap"):
        mode_comb(cfg)
    comb = mode_comb(cfg, max_modes=5)
    assert np.all(comb.weights == 1.0)
    assert comb.indices.size == 11


def test_mode_width_from_decay_rates():
    cfg = OpoConfig()
    assert cfg.gamma_sum == pytest.approx(2.0 * np.pi * 8.4e6, rel=1e-12)
    assert cfg.mode_fwhm_hz == pytest.approx(8.4e6, rel=1e-12)


def test_fsr_roundtrip_consistency_enforced():
    cfg = OpoConfig()
    assert cfg.fsr_hz * cfg.roundtrip_s == pytest.approx(0.99699, rel=1e-9)
    with pytest.raises(ValueError, match="inconsistent"):
        OpoConfig(fsr_hz=450e6)


def test_mode_width_must_stay_below_spacing():
    with pytest.raises(ValueError, match="mode width"):
        OpoConfig(gamma1=2.0 * np.pi * 400e6, gamma2=2.0 * np.pi * 200e6)


def test_opo_config_validation():
    with pytest.raises(ValueError, match="decay rates"):
        OpoConfig(gamma1=0.0)
    with pytest.raises(ValueError, match="decay rates"):
        OpoConfig(gamma2=-1.0)
    with pytest.raises(ValueError, match="positive"):
        OpoConfig(roundtrip_s=0.0, fsr_hz=501e6)
    with pytest.raises(ValueError, match="pair rate"):
        OpoConfig(pair_rate_hz=-1.0)


def test_mode_comb_requires_unit_degenerate_weight():
    idx = np.arange(-1, 2)
    with pytest.raises(ValueError, match="weight"):
        ModeComb(indices=idx, frequencies_hz=idx * 5e8, weights=np.array([0.5, 0.9, 0.5]))


def test_mode_comb_requires_symmetric_ordered_indices():
    for idx in (np.array([-1, 0, 2]), np.array([1, 0, -1]), np.array([-2, 0, 2])):
        with pytest.raises(ValueError, match="symmetric"):
            ModeComb(indices=idx, frequencies_hz=idx * 5e8, weights=np.ones(3))


def test_output_spectrum_single_mode_lorentzian():
    cfg = OpoConfig()
    comb = mode_comb(cfg, max_modes=0)
    assert comb.indices.size == 1
    f0 = cfg.degenerate_frequency_hz
    grid = make_frequency_grid(f0, 100e6, 0.2e6)
    spec = output_spectrum(comb, cfg, grid)
    hwhm = 0.5 * cfg.mode_fwhm_hz
    peak = 1.0 / (np.pi * hwhm)
    assert spec.value.max() == pytest.approx(peak, rel=1e-12)
    # half maximum reached one half-width out
    i = np.argmin(np.abs(grid - (f0 + hwhm)))
    assert spec.value[i] == pytest.approx(0.5 * peak, rel=1e-3)


def test_output_spectrum_integral_matches_total_weight():
    cfg = OpoConfig()
    comb = mode_comb(cfg, max_modes=3)
    grid = make_frequency_grid(cfg.degenerate_frequency_hz, 3 * cfg.fsr_hz + 2e9, 0.5e6)
    spec = output_spectrum(comb, cfg, grid)
    area = np.trapezoid(spec.value, grid)
    # unit-area Lorentzians, truncated tails cost a few parts in 1e3
    assert area == pytest.approx(comb.weights.sum(), rel=5e-3)
