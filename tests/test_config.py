"""INI configuration loading, unit conversion, validation, and hashing."""

import dataclasses
import re

import numpy as np
import pytest

from fadofsim.config import _KEYS, ConfigError, load_config
from fadofsim.correlations import DetectorConfig
from fadofsim.opo import OpoConfig
from fadofsim.vapor import FilterConfig, HotCellConfig

from test_lines import BAD_RECORDS, MINIMAL_TABLE


def test_defaults_without_file():
    cfg = load_config(None)
    assert cfg.filter.b_field_t == pytest.approx(4.5e-3)
    assert cfg.filter.temperature_k == 365.0
    assert cfg.filter.length_m == pytest.approx(0.300)
    assert cfg.filter.extinction == 1.8e-6
    assert cfg.hot_cell_enabled is True
    assert cfg.hot_cell.temperature_k == 420.0
    assert cfg.hot_cell.length_m == pytest.approx(0.100)
    assert cfg.hot_cell.buffer_fwhm_hz == pytest.approx(200e6)
    assert cfg.opo.gamma1 == pytest.approx(2 * np.pi * 6.3e6)
    assert cfg.opo.gamma2 == pytest.approx(2 * np.pi * 2.1e6)
    assert cfg.opo.fsr_hz == 501e6
    assert cfg.opo.pair_rate_hz == 1e4
    assert cfg.opo.degenerate_frequency_hz == OpoConfig().degenerate_frequency_hz
    assert cfg.detector.bin_s == pytest.approx(1e-9)
    assert cfg.detector.offset_s == pytest.approx(50e-9)
    assert cfg.detector.r1_hz == 1.5e4
    assert cfg.detector.r2_hz == 1.2e4
    assert cfg.mc_duration_s == 1.0
    assert cfg.seed == 20260816
    assert cfg.noise.mean_transmission == 0.842 + 0j
    assert cfg.grid_half_span_hz == 20e9
    assert cfg.grid_step_hz == 2e6
    assert np.allclose(cfg.optimize_b_t, np.linspace(3e-3, 6e-3, 7))
    assert np.allclose(cfg.optimize_temperatures_k, np.linspace(350.0, 380.0, 7))
    assert cfg.out_of_band_leakage == 0.02
    assert cfg.squeezing_table == [(6.0, 0.70), (6.0, 1.0), (3.0, 0.70)]
    assert cfg.noise_tnd_points == 21
    assert cfg.output_dir == "fadofsim_out"


def test_units_scaled_to_si(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "[filter]\n"
        "magnetic_field_mT = 5.2\n"
        "cell_length_mm = 250\n"
        "buffer_fwhm_MHz = 150\n"
        "[detector]\n"
        "bin_ns = 2\n"
        "offset_ns = 40\n"
        "[opo]\n"
        "roundtrip_ns = 2.0\n"
        "fsr_MHz = 500\n"
    )
    cfg = load_config(path)
    assert cfg.filter.b_field_t == pytest.approx(5.2e-3)
    assert cfg.filter.length_m == pytest.approx(0.250)
    assert cfg.filter.buffer_fwhm_hz == pytest.approx(150e6)
    assert cfg.detector.bin_s == pytest.approx(2e-9)
    assert cfg.detector.offset_s == pytest.approx(40e-9)
    assert cfg.opo.roundtrip_s == pytest.approx(2e-9)
    assert cfg.opo.fsr_hz == pytest.approx(500e6)


def test_center_offset_override(tmp_path):
    ref = load_config(None).filter.table.reference_frequency_hz
    path = tmp_path / "c.cfg"
    path.write_text("[filter]\ncenter_offset_GHz = -2.5\n")
    cfg = load_config(path)
    assert cfg.opo.degenerate_frequency_hz == pytest.approx(ref - 2.5e9)
    assert load_config(None).opo.degenerate_frequency_hz == pytest.approx(ref - 3.9259e9)


def test_line_data_relative_to_config(tmp_path):
    (tmp_path / "lines.txt").write_text(MINIMAL_TABLE)
    path = tmp_path / "exp.cfg"
    path.write_text("[filter]\nline_data = lines.txt\n")
    cfg = load_config(path)
    assert cfg.filter.table.reference_frequency_hz == 377.100e12
    missing = tmp_path / "missing.cfg"
    missing.write_text("[filter]\nline_data = nowhere.txt\n")
    with pytest.raises(ConfigError, match="nowhere.txt"):
        load_config(missing)


@pytest.mark.parametrize("old, new, message", BAD_RECORDS)
def test_malformed_line_data_names_the_key_the_file_and_the_line(tmp_path, old, new, message):
    table = tmp_path / "lines.txt"
    table.write_text(MINIMAL_TABLE.replace(old, new))
    path = tmp_path / "exp.cfg"
    path.write_text("[filter]\nline_data = lines.txt\n")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value).startswith(f"[filter] line_data: {table}: {message}")


def test_errors_name_section_and_key(tmp_path):
    cases = [
        ("[filter]\nmagnetic_field_mT = strong\n", r"\[filter\] magnetic_field_mT"),
        ("[filter]\nextinction = 1.0\n", r"\[filter\]"),
        ("[filter]\nbuffer_fwhm_MHz = -1\n", r"\[filter\] buffer-gas broadening"),
        ("[hot_cell]\nbuffer_fwhm_MHz = -5\n", r"\[hot_cell\] buffer-gas broadening"),
        ("[filter]\nmagnetic_feild_mT = 9\n", r"\[filter\] magnetic_feild_mt: unknown key"),
        ("[DEFAULT]\nseeed = 3\n[montecarlo]\n", r"\[DEFAULT\] seeed: unknown key"),
        ("[opo]\nfsr_MHz = 450\n", r"\[opo\]"),
        ("[detector]\nsingles1_hz = 5e3\n", r"\[detector\] singles1_hz"),
        ("[detector]\nsingles2_hz = 5e3\n", r"\[detector\] singles2_hz"),
        ("[montecarlo]\nduration_s = 0\n", r"\[montecarlo\] duration_s"),
        ("[montecarlo]\nseed = -4\n", r"\[montecarlo\] seed"),
        ("[montecarlo]\nseed = 1.5\n", r"\[montecarlo\] seed"),
        ("[noise]\ntransmission_amplitude = big\n", r"\[noise\] transmission_amplitude"),
        ("[noise]\ntnd_points = 2\n", r"\[noise\] tnd_points"),
        ("[noise]\nsqueezing_table = 6-0.7\n", r"\[noise\] squeezing_table"),
        ("[noise]\nsqueezing_table = -1:0.5\n", r"\[noise\] squeezing_table"),
        ("[noise]\nsqueezing_table = nan:0.5\n", r"\[noise\] squeezing_table"),
        ("[spectrum]\nstep_MHz = 50000\n", r"\[spectrum\]"),
        ("[spectrum]\nstep_MHz = -1\n", r"\[spectrum\] step_MHz"),
        ("[optimize]\nb_min_mT = 7\n", r"\[optimize\] b_min_mT"),
        ("[optimize]\nb_points = 0\n", r"\[optimize\] b_points"),
        ("[optimize]\ntemperature_points = 0\n", r"\[optimize\] temperature_points"),
        ("[optimize]\nstep_MHz = 0\n", r"\[optimize\] step_MHz"),
        ("[optimize]\nhalf_span_GHz = -1\n", r"\[optimize\] half_span_GHz"),
        ("[optimize]\nstep_MHz = 50000\n", r"\[optimize\] half_span_GHz"),
        ("[optimize]\ntemperature_min_K = 0\n", r"\[optimize\] temperature_min_K"),
        # non-finite numbers, including a finite one that overflows on scaling
        ("[detector]\nbin_ns = nan\n", r"\[detector\] bin_ns: not a finite number"),
        ("[filter]\ntemperature_K = nan\n", r"\[filter\] temperature_K: not a finite number"),
        ("[filter]\ncenter_offset_GHz = inf\n", r"\[filter\] center_offset_GHz: not a finite"),
        ("[opo]\nenvelope_fwhm_GHz = 1e300\n", r"\[opo\] envelope_fwhm_GHz: not a finite"),
        ("[opo]\nenvelope_fwhm_GHz = 0\n", r"\[opo\] phase-matching envelope FWHM must be positive"),
        ("[opo]\nenvelope_fwhm_GHz = -150\n", r"\[opo\] phase-matching envelope FWHM must be positive"),
        ("[noise]\nfield_noise = nan+1j\n", r"\[noise\] field_noise: not a finite number"),
        ("[output]\ndirectory = 50%\n", r"\[output\] directory"),
        ("[purity]\nout_of_band_leakage = 1.5\n", r"\[purity\] out_of_band_leakage"),
        ("[purity]\nout_of_band_leakage = maybe\n", r"\[purity\] out_of_band_leakage"),
    ]
    for i, (text, pattern) in enumerate(cases):
        path = tmp_path / f"bad{i}.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match=pattern):
            load_config(path)


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "u.cfg"
    path.write_text("[laser]\npower = 1\n")
    with pytest.raises(ConfigError, match="unknown config sections.*laser"):
        load_config(path)


def test_default_section_keys_reach_every_reading_section(tmp_path):
    # [DEFAULT] keys appear in every section; one read by some section is known
    listed = tmp_path / "d.cfg"
    listed.write_text("[DEFAULT]\ntemperature_K = 370\n[filter]\n[hot_cell]\n[opo]\n")
    # and they reach the sections the file leaves out too
    absent = tmp_path / "a.cfg"
    absent.write_text("[DEFAULT]\ntemperature_K = 370\n")
    for path in (listed, absent):
        cfg = load_config(path)
        assert cfg.filter.temperature_k == 370.0
        assert cfg.hot_cell.temperature_k == 370.0
    assert load_config(absent).config_hash == load_config(listed).config_hash
    assert load_config(absent).config_hash != load_config(None).config_hash


def test_loader_defaults_match_the_dataclasses():
    cfg = load_config(None)
    for loaded, cls in (
        (cfg.filter, FilterConfig),
        (cfg.hot_cell, HotCellConfig),
        (cfg.opo, OpoConfig),
        (cfg.detector, DetectorConfig),
    ):
        reference = cls()
        for item in dataclasses.fields(cls):
            if item.name == "table":  # both the bundled rubidium D1 table
                continue
            expected = getattr(reference, item.name)
            # the loader scales a value given in mT or ns, one ulp off at most
            assert getattr(loaded, item.name) == pytest.approx(expected, rel=1e-15), item.name


def test_default_file_lists_every_key():
    # active "key = value" lines and commented-out "#key = value" lines
    listed, section = [], None
    for line in open("configs/default.cfg"):
        if line.startswith("["):
            section = line.strip()[1:-1]
        elif match := re.match(r"#?\s*(\w+)\s*=", line):
            listed.append((section, match.group(1)))
    assert sorted(listed) == sorted((section, key) for section, key, *_ in _KEYS)


def test_unparsable_file_and_missing_file(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("not an ini file at all\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(path)
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.cfg")


def test_purity_auto_selects_estimate(tmp_path):
    path = tmp_path / "auto.cfg"
    path.write_text("[purity]\nout_of_band_leakage = auto\n")
    assert load_config(path).out_of_band_leakage is None


def test_hot_cell_can_be_disabled(tmp_path):
    path = tmp_path / "h.cfg"
    path.write_text("[hot_cell]\nenabled = off\n")
    assert load_config(path).hot_cell_enabled is False


def test_config_hash_stability_and_sensitivity(tmp_path):
    base = load_config(None)
    again = load_config(None)
    assert base.config_hash == again.config_hash
    assert len(base.config_hash) == 64

    # the shipped default file restates the built-in defaults exactly
    shipped = load_config("configs/default.cfg")
    assert shipped.config_hash == base.config_hash

    path = tmp_path / "tweak.cfg"
    path.write_text("[filter]\nmagnetic_field_mT = 4.6\n")
    assert load_config(path).config_hash != base.config_hash
