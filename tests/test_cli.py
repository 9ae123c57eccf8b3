"""End-to-end command-line interface behavior and output schemas."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.special import chdtrc
from scipy.stats import chi2

from fadofsim.cli import HOT_CELL_MAX_SIDE_BINS, chi_square_sf, main
from fadofsim.config import load_config
from fadofsim.cvnoise import squeezing_through_loss
from fadofsim.montecarlo import coincidences_in_window, mc_histogram, read_stream

from test_lines import BAD_RECORDS, MINIMAL_TABLE

HASH = load_config(None).config_hash
ROOT = Path(__file__).resolve().parents[1]


def _load_csv(path, skip=2):
    return np.loadtxt(path, delimiter=",", skiprows=skip)


def test_spectrum_outputs(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "spectrum"])
    assert rc == 0
    for name in (
        "fadof_spectrum.csv",
        "mirror_spectrum.csv",
        "pair_product_spectrum.csv",
        "opo_spectrum.csv",
        "filtered_opo_spectrum.csv",
        "filter_metrics.json",
    ):
        assert (tmp_path / name).exists()
    lines = (tmp_path / "fadof_spectrum.csv").read_text().splitlines()
    assert lines[0] == f"# config_hash: {HASH}"
    # the row layout is exact (%.6f,%.12e); the far-wing value is held to
    # 1e-15 absolute, so a one-ulp move of the kernel does not trip it
    frequency, transmission = lines[2].split(",")
    assert frequency == "377087407311000.000000"
    assert re.fullmatch(r"\d\.\d{12}e[+-]\d{2}", transmission)
    assert float(transmission) == pytest.approx(9.820658918040e-05, rel=0, abs=1e-15)

    metrics = json.loads((tmp_path / "filter_metrics.json").read_text())
    assert metrics["config_hash"] == HASH
    assert metrics["boundary_peak"] is False
    assert metrics["peak_offset_ghz"] == pytest.approx(-3.926, abs=0.01)
    assert metrics["peak_transmission"] == pytest.approx(0.7089, abs=2e-4)
    assert metrics["fwhm_mhz"] == pytest.approx(510.5, abs=1.0)
    assert "filter peak" in capsys.readouterr().out

    # the pair product column is the filter curve times its mirror image
    fadof = _load_csv(tmp_path / "fadof_spectrum.csv")
    mirror = _load_csv(tmp_path / "mirror_spectrum.csv")
    product = _load_csv(tmp_path / "pair_product_spectrum.csv")
    assert np.array_equal(fadof[:, 0], product[:, 0])
    assert np.allclose(product[:, 1], fadof[:, 1] * mirror[:, 1], rtol=1e-9, atol=1e-18)


def test_spectrum_flat_field_flagged(tmp_path, capsys):
    cfg = tmp_path / "flat.cfg"
    cfg.write_text("[filter]\nmagnetic_field_mT = 0\n")
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "spectrum"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "validity flag" in err
    metrics = json.loads((tmp_path / "o" / "filter_metrics.json").read_text())
    assert metrics["boundary_peak"] is True


def test_config_errors_exit_2(tmp_path, capsys):
    missing_lines = tmp_path / "m.cfg"
    missing_lines.write_text("[filter]\nline_data = nowhere.txt\n")
    assert main(["--config", str(missing_lines), "--out", str(tmp_path), "spectrum"]) == 2
    assert "nowhere.txt" in capsys.readouterr().err

    unknown = tmp_path / "u.cfg"
    unknown.write_text("[laser]\npower = 1\n")
    assert main(["--config", str(unknown), "--out", str(tmp_path), "g2"]) == 2
    assert "config error" in capsys.readouterr().err

    # negative buffer widths, misspelt keys, non-finite numbers and bad
    # optimize scans, named by section before any command runs
    for text, command, prefix in (
        ("[filter]\nbuffer_fwhm_MHz = -1\n", "spectrum", "config error: [filter] "),
        ("[hot_cell]\nbuffer_fwhm_MHz = -5\n", "spectrum", "config error: [hot_cell] "),
        ("[filter]\nmagnetic_feild_mT = 9\n", "spectrum",
         "config error: [filter] magnetic_feild_mt"),
        ("[detector]\nbin_ns = nan\n", "g2", "config error: [detector] bin_ns: not a finite"),
        ("[filter]\ntemperature_K = nan\n", "spectrum",
         "config error: [filter] temperature_K: not a finite"),
        ("[optimize]\nstep_MHz = 0\n", "optimize", "config error: [optimize] step_MHz"),
        ("[optimize]\nhalf_span_GHz = -1\n", "optimize",
         "config error: [optimize] half_span_GHz"),
        ("[optimize]\ntemperature_min_K = 0\n", "optimize",
         "config error: [optimize] temperature_min_K"),
    ):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        assert main(["--config", str(bad), "--out", str(tmp_path), command]) == 2
        assert capsys.readouterr().err.startswith(prefix)

    assert main(["--out", str(tmp_path), "--threads", "0", "noise"]) == 2
    assert "--threads" in capsys.readouterr().err
    for command in ("simulate", "g2"):
        never = tmp_path / f"seed-{command}"
        assert main(["--out", str(never), "--seed", "-1", command]) == 2
        assert capsys.readouterr().err == "config error: --seed must be non-negative\n"
        assert not never.exists()

    # an operating point whose degenerate-mode window leaves the grid
    off_grid = tmp_path / "c.cfg"
    off_grid.write_text("[filter]\ncenter_offset_GHz = 19.9\n")
    for command in ("spectrum", "simulate"):
        assert main(["--config", str(off_grid), "--out", str(tmp_path / command), command]) == 2
        err = capsys.readouterr().err
        assert "center_offset_GHz" in err
        assert "grid half span of 20 GHz" in err
        assert "Traceback" not in err


def _one_error_line(capsys, *names):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(("config error: ", "error: ")), err
    for name in names:
        assert name in err, err


def test_malformed_line_tables_exit_2_naming_the_path(tmp_path, capsys):
    for i, (old, new, message) in enumerate(BAD_RECORDS):
        table = tmp_path / f"lines{i}.txt"
        table.write_text(MINIMAL_TABLE.replace(old, new))
        cfg = tmp_path / f"c{i}.cfg"
        cfg.write_text(f"[filter]\nline_data = {table.name}\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "spectrum"]) == 2
        _one_error_line(capsys, f"config error: [filter] line_data: {table}: {message}")


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    existing = tmp_path / "results"
    existing.write_text("")
    for out in (existing, existing / "sub"):
        assert main(["--out", str(out), "noise"]) == 2
        _one_error_line(capsys, "error: ", str(existing))


@pytest.mark.parametrize("text, command, prefix", [
    ("[filter]\nmagnetic_field_mT = 1e300\n", "spectrum", "config error: [filter] magnetic_field_mT: "),
    ("[filter]\ntemperature_K = 1e300\n", "spectrum", "config error: [filter] temperature_K: "),
    ("[detector]\nbin_ns = 1e-300\n", "simulate", "config error: [detector] bin_ns: "),
    ("[detector]\noffset_ns = 1e300\n", "simulate", "config error: [detector] offset_ns: "),
])
def test_values_beyond_the_model_name_their_key(tmp_path, capsys, text, command, prefix):
    # values beyond where the model or its arithmetic stops: the loader
    # names the key before any output is written
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), command]) == 2
    _one_error_line(capsys, prefix)
    assert not out.exists()


def test_negative_hot_cell_window_exits_2_before_any_stream(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[detector]\noffset_ns = -50\n[montecarlo]\nduration_s = 0.05\n")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 2
    _one_error_line(capsys, "error: [detector] offset_ns: ")
    assert not any(out.iterdir())
    # g2 and a simulate without the hot cell read no purity window
    assert main(["--config", str(cfg), "--out", str(out), "g2"]) == 0
    cfg.write_text(cfg.read_text() + "[hot_cell]\nenabled = off\n")
    assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 0
    assert capsys.readouterr().err == ""


def test_hot_cell_window_of_too_many_bins_exits_2_before_any_stream(tmp_path, capsys):
    # offset_ns = 1e15 is 1e15 bins a side at 1 ns: an allocation failure that named no key
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[detector]\noffset_ns = 1e15\n[montecarlo]\nduration_s = 0.05\n")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 2
    _one_error_line(capsys, "error: [detector] offset_ns: ", "bin_ns", str(HOT_CELL_MAX_SIDE_BINS))
    assert not any(out.iterdir())
    # one bin past the bound is refused, the bound itself histogrammed
    for side_bins, statuses in ((HOT_CELL_MAX_SIDE_BINS + 1, (2,)), (HOT_CELL_MAX_SIDE_BINS, (0, 1))):
        cfg.write_text(f"[detector]\noffset_ns = {side_bins}\n[montecarlo]\nduration_s = 0.05\n")
        assert main(["--config", str(cfg), "--out", str(out), "simulate"]) in statuses
        capsys.readouterr()
    hotcell = read_stream(out, "timestamps_hotcell")
    assert hotcell.meta["offset_s"] == HOT_CELL_MAX_SIDE_BINS * 1e-9


@pytest.mark.parametrize("amplitude", ["0", "0j", "1e-200", "1e200"])
def test_probe_without_a_usable_power_exits_2_naming_the_key(tmp_path, capsys, amplitude):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"[noise]\nfield_amplitude = {amplitude}\n")
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "noise"]) == 2
    _one_error_line(capsys, "error: [noise] field_amplitude: ")
    assert not any(out.iterdir())


def test_g2_mode_selection(tmp_path):
    on_dir = tmp_path / "on"
    rc = main(["--out", str(on_dir), "g2", "--mode", "on"])
    assert rc == 0
    assert (on_dir / "g2_on_histogram.csv").exists()
    assert not (on_dir / "g2_off_histogram.csv").exists()
    payload = json.loads((on_dir / "g2_metrics.json").read_text())
    assert payload["on_envelope_fwhm_ns"] == pytest.approx(
        payload["expected_envelope_fwhm_ns"], abs=0.01
    )
    assert payload["on_tooth_modulation"] < 0.01
    assert "off_envelope_fwhm_ns" not in payload

    both_dir = tmp_path / "both"
    rc = main(["--out", str(both_dir), "g2"])
    assert rc == 0
    both = json.loads((both_dir / "g2_metrics.json").read_text())
    assert (both_dir / "g2_on_histogram.csv").exists()
    assert (both_dir / "g2_off_histogram.csv").exists()
    # unfiltered light shows round-trip teeth, filtered light does not
    assert both["off_tooth_modulation"] > 1.0
    assert both["on_tooth_modulation"] < 0.01


def test_g2_zero_pair_rate_flags_unmeasurable_envelope(tmp_path, capsys):
    # a flat histogram has no envelope: named validity flags and JSON
    # nulls, not an error exit
    cfg = tmp_path / "dark.cfg"
    cfg.write_text("[opo]\npair_rate_hz = 0\n")
    for label in ("on", "off"):
        out = tmp_path / label
        assert main(["--config", str(cfg), "--out", str(out), "g2", "--mode", label]) == 1
        err = capsys.readouterr().err
        assert (
            f"validity flag: filter {label} envelope FWHM not measurable: "
            "histogram peak on window edge" in err
        )
        assert f"validity flag: filter {label} tooth modulation not measurable" in err
        payload = json.loads((out / "g2_metrics.json").read_text())
        assert payload[f"{label}_envelope_fwhm_ns"] is None
        assert payload[f"{label}_tooth_modulation"] is None
        assert (out / f"g2_{label}_histogram.csv").exists()


def test_g2_deterministic_output_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(a), "g2", "--mode", "off"]) == 0
    assert main(["--out", str(b), "g2", "--mode", "off"]) == 0
    assert (a / "g2_off_histogram.csv").read_bytes() == (b / "g2_off_histogram.csv").read_bytes()
    assert (a / "g2_metrics.json").read_bytes() == (b / "g2_metrics.json").read_bytes()


@pytest.fixture(scope="module")
def quick_cfg_text():
    return "[montecarlo]\nduration_s = 0.25\n"


def test_simulate_at_zero_pair_rate_writes_strict_json(tmp_path, capsys):
    # no bin expects 5 counts: the p-value is null and the flag says why
    cfg = tmp_path / "dark.cfg"
    cfg.write_text("[opo]\npair_rate_hz = 0\n[montecarlo]\nduration_s = 2\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 1
    err = capsys.readouterr().err
    assert "chi-square cross-check failed" not in err

    def no_constant(name):
        raise ValueError(f"{name} is not JSON")

    for path in sorted(out.glob("*.json")):
        json.loads(path.read_text(), parse_constant=no_constant)
    report = json.loads((out / "chi_square_report.json").read_text())
    for label in ("on", "off"):
        assert report[label]["bins_used"] == 0 and report[label]["p_value"] is None
        assert (f"validity flag: chi-square cross-check not possible for filter-{label} case: "
                "no bin expects 5 counts") in err


def test_simulate_outputs_and_cross_checks(tmp_path, quick_cfg_text, capsys):
    cfg = tmp_path / "quick.cfg"
    cfg.write_text(quick_cfg_text)
    out = tmp_path / "sim"
    rc = main(["--config", str(cfg), "--out", str(out), "simulate"])
    assert rc == 0
    for prefix in ("timestamps_on", "timestamps_off", "timestamps_filtered", "timestamps_hotcell"):
        assert (out / f"{prefix}_ch1.bin").exists()
        assert (out / f"{prefix}_ch2.bin").exists()
        meta = json.loads((out / f"{prefix}_meta.json").read_text())
        assert meta["format"] == "u64-le picoseconds"
        assert meta["config_hash"] != ""
    report = json.loads((out / "chi_square_report.json").read_text())
    assert report["on"]["p_value"] > 0.001
    assert report["off"]["p_value"] > 0.001
    for label in ("on", "off"):
        block = report[label]
        # the closed-form tail, not scipy's, writes the report: 1e-12 covers
        # the 2.8e-13 by which chdtrc and the closed form differ below 300 bins
        assert block["p_value"] == pytest.approx(
            chi2.sf(block["chi_square"], block["bins_used"]), rel=1e-12, abs=0
        )
    purity = json.loads((out / "purity.json").read_text())
    assert purity["resonant_degenerate_fraction"] == pytest.approx(0.969, abs=0.002)
    assert purity["overall_degenerate_fraction"] == pytest.approx(
        purity["resonant_degenerate_fraction"] * 0.98, rel=1e-12
    )
    assert 0.94 < purity["spectral_purity_mc"] < 0.99
    assert "spectral purity" in capsys.readouterr().out
    # binary timestamps parse as monotone u64 picoseconds
    raw = np.fromfile(out / "timestamps_on_ch1.bin", dtype="<u8")
    assert raw.size > 1000
    assert np.all(np.diff(raw.astype(np.int64)) >= 0)


def test_simulate_subtracts_only_the_summed_window_bins(tmp_path):
    # at offset 150.5 ns the histograms span bins 0..300 around offset bin
    # 150; at seed 0 the filtered peak lands on bin 151, so its +-150.5 ns
    # window sums 300 bins, not 301, and only those 300 carry accidentals
    cfg = tmp_path / "clip.cfg"
    cfg.write_text("[detector]\noffset_ns = 150.5\n[montecarlo]\nduration_s = 5\n")
    out = tmp_path / "clip"
    assert main(["--config", str(cfg), "--out", str(out), "--seed", "0", "simulate"]) == 0
    purity = json.loads((out / "purity.json").read_text())
    det = load_config(cfg).detector
    floor = det.accidental_floor_per_bin(5.0)
    assert purity["accidentals_subtracted_per_run"] == floor * 300
    true_counts = []
    for prefix in ("timestamps_filtered", "timestamps_hotcell"):
        hist = mc_histogram(read_stream(out, prefix), det, n_side_bins=150)
        counts, n_bins = coincidences_in_window(hist, det.offset_s)
        true_counts.append(counts - floor * n_bins)
    assert purity["spectral_purity_mc"] == 1.0 - true_counts[1] / true_counts[0]


def test_delta_comb_validity_flag_thresholds(tmp_path, capsys):
    # 20 GHz keeps 43 modes per side, 23 GHz keeps the 50 the delta comb needs
    for envelope_ghz, expected_rc in ((20, 1), (23, 0)):
        cfg = tmp_path / f"env{envelope_ghz}.cfg"
        cfg.write_text(f"[opo]\nenvelope_fwhm_GHz = {envelope_ghz}\n"
                       "[montecarlo]\nduration_s = 0.25\n")
        for command in (["g2", "--mode", "off"], ["simulate"]):
            out = tmp_path / f"{envelope_ghz}_{command[0]}"
            assert main(["--config", str(cfg), "--out", str(out), *command]) == expected_rc
            err = capsys.readouterr().err
            assert ("delta-comb" in err) == (expected_rc == 1)
        # the filtered single-mode model does not rest on the comb
        assert main(["--config", str(cfg), "--out", str(tmp_path / "on"), "g2", "--mode", "on"]) == 0


def test_simulate_seed_control(tmp_path, quick_cfg_text):
    cfg = tmp_path / "quick.cfg"
    cfg.write_text(quick_cfg_text)

    def run(seed, name):
        out = tmp_path / name
        assert main(["--config", str(cfg), "--out", str(out), "--seed", str(seed), "simulate"]) == 0
        return (out / "timestamps_on_ch1.bin").read_bytes()

    first = run(7, "s7a")
    again = run(7, "s7b")
    other = run(8, "s8")
    assert first == again
    assert first != other


def test_optimize_scan(tmp_path):
    cfg = tmp_path / "opt.cfg"
    cfg.write_text(
        "[optimize]\n"
        "b_min_mT = 4.3\nb_max_mT = 4.7\nb_points = 2\n"
        "temperature_min_K = 365\ntemperature_max_K = 365\ntemperature_points = 1\n"
        "half_span_GHz = 8\nstep_MHz = 4\n"
    )
    out = tmp_path / "scan"
    rc = main(["--config", str(cfg), "--out", str(out), "optimize"])
    assert rc == 0
    result = json.loads((out / "optimize_result.json").read_text())
    assert result["invalid_points"] == 0
    assert result["best_b_mT"] in (4.3, 4.7)
    assert result["best_fom"] > 100.0
    assert result["best_peak_offset_ghz"] == pytest.approx(-3.936, abs=0.01)
    rows = (out / "fom_surface.csv").read_text().splitlines()
    assert rows[1] == "B_T,temperature_K,fom,eta0,sum_nondegenerate"
    assert rows[2] == "4.300000e-03,365.000,4.03199751e+02,6.88880118e-01,1.17697448e-03"
    assert len(rows) == 2 + 2

    # a second run with worker threads reproduces the result exactly
    out2 = tmp_path / "scan2"
    rc = main(["--config", str(cfg), "--out", str(out2), "--threads", "2", "optimize"])
    assert rc == 0
    assert (out2 / "fom_surface.csv").read_bytes() == (out / "fom_surface.csv").read_bytes()


def test_optimize_grid_too_narrow_names_the_key(tmp_path, capsys):
    # the comb must fit with the filter peak 6 GHz from the reference, so
    # the grid needs that plus the degenerate mode's +-420 MHz window
    scan = ("[optimize]\nb_min_mT = 4.5\nb_max_mT = 4.5\nb_points = 1\n"
            "temperature_min_K = 365\ntemperature_max_K = 365\ntemperature_points = 1\n")
    for half_span, expected_rc in (("6", 2), ("6.42", 0)):
        cfg = tmp_path / f"span{half_span}.cfg"
        cfg.write_text(scan + f"half_span_GHz = {half_span}\n")
        out = tmp_path / f"span{half_span}"
        assert main(["--config", str(cfg), "--out", str(out), "optimize"]) == expected_rc
        err = capsys.readouterr().err
        if expected_rc == 2:
            assert err.startswith("error: [optimize] half_span_GHz: ")
            assert "half span of at least 6.42 GHz" in err
            assert "Traceback" not in err
            assert not (out / "optimize_result.json").exists()
        else:
            assert err == ""
            assert json.loads((out / "optimize_result.json").read_text())["modes_per_side"] == 0


def test_optimize_flag_names_why_the_points_are_invalid(tmp_path, capsys):
    # the point at 1e300 mT overflows; it has a peak no more than any other
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text("[optimize]\nb_min_mT = 4.5\nb_max_mT = 1e300\nb_points = 2\n"
                   "temperature_min_K = 365\ntemperature_max_K = 365\ntemperature_points = 1\n")
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert main(["--config", str(cfg), "--out", str(out), "--threads", threads, "optimize"]) == 1
        err = capsys.readouterr().err
        assert err == "validity flag: 1 scan points invalid: 1 overflowed or met an invalid operation\n"
        assert json.loads((out / "optimize_result.json").read_text())["invalid_points"] == 1


def test_simulate_on_a_half_span_off_the_step_multiples(tmp_path, capsys):
    # 6.8511 GHz rounds to a 6.85 GHz grid at 2.5 MHz steps; the comb is cut
    # to the modes whose windows fit that grid, not the configured span
    cfg = tmp_path / "odd.cfg"
    cfg.write_text("[spectrum]\nhalf_span_GHz = 6.8511\nstep_MHz = 2.5\n"
                   "[montecarlo]\nduration_s = 1\n")
    out = tmp_path / "odd"
    rc = main(["--config", str(cfg), "--out", str(out), "simulate"])
    err = capsys.readouterr().err
    assert rc in (0, 1)
    assert all(line.startswith("validity flag: ") for line in err.splitlines())
    assert (rc == 1) == bool(err)
    assert "Lorentzian window" not in err
    purity = json.loads((out / "purity.json").read_text())
    assert purity["retained_modes_per_side"] == 4


@pytest.mark.parametrize("cfg_text, seed, reason", [
    # the hot-cell run counts 9 against 18.18 accidentals subtracted
    ("[spectrum]\nhalf_span_GHz = 6.8511\nstep_MHz = 2.5\n", None,
     "hot-cell true count -9.18 is negative"),
    ("[opo]\npair_rate_hz = 0\n", None, "the pair rate is 0"),
    ("[filter]\nmagnetic_field_mT = 0\n", None, "no filter passband on the [spectrum] grid"),
    ("[opo]\npair_rate_hz = 1\n[montecarlo]\nduration_s = 0.25\n", 3,
     "filtered true count -1.465 is not positive"),
    # the degenerate mode sits 8 GHz off the passband: the two runs differ by noise only
    ("[filter]\ncenter_offset_GHz = 8\n[montecarlo]\nduration_s = 0.25\n", 0,
     "value -0.006049 lies outside [0, 1]"),
])
def test_simulate_flags_values_that_are_not_purities(tmp_path, capsys, cfg_text, seed, reason):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(cfg_text)
    seed_args = [] if seed is None else ["--seed", str(seed)]
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), *seed_args, "simulate"]) == 1
    captured = capsys.readouterr()
    assert f"validity flag: spectral purity (MC) is not a purity: {reason}" in captured.err
    assert "spectral purity (MC): n/a" in captured.out
    purity = json.loads((out / "purity.json").read_text())
    assert purity["spectral_purity_mc"] is None
    assert purity["spectral_purity_mc_stderr"] is None


@pytest.mark.parametrize("cfg_text, seed, counts, purity, stderr_range", [
    # 6 and 4 coincidences, each run less about 2.9 accidentals
    ("[opo]\npair_rate_hz = 1\n[montecarlo]\nduration_s = 0.25\n", 0, (6.0, 4.0),
     0.6211, (0.5, 1.0)),
    ("", None, (9249.0, 326.0), 0.9667, (1e-3, 3e-3)),
])
def test_simulate_reports_the_purity_stderr(tmp_path, cfg_text, seed, counts, purity,
                                            stderr_range):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    seed_args = [] if seed is None else ["--seed", str(seed)]
    out = tmp_path / "out"
    main(["--config", str(cfg), "--out", str(out), *seed_args, "simulate"])
    report = json.loads((out / "purity.json").read_text())
    assert (report["coincidences_filtered"], report["coincidences_hot_cell"]) == counts
    assert report["spectral_purity_mc"] == pytest.approx(purity, abs=1e-4)
    # first-order Poisson error of both counts, the accidentals known; the
    # report holds the filtered run's subtraction, and B / F = 1 - purity
    c_f, c_b = counts
    true_f = c_f - report["accidentals_subtracted_per_run"]
    ratio = 1.0 - report["spectral_purity_mc"]
    expected = np.sqrt(c_b + ratio**2 * c_f) / true_f
    assert report["spectral_purity_mc_stderr"] == pytest.approx(expected, rel=1e-12)
    assert stderr_range[0] < report["spectral_purity_mc_stderr"] < stderr_range[1]


def test_cli_import_and_config_load_leave_scipy_unloaded():
    code = ("import sys, fadofsim.cli; from fadofsim.config import load_config; "
            "load_config(None); print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_every_tracer_target_resolves_after_importing_the_cli():
    # bench/tracer.py wraps these names for `bench/run.py --trace 1`; the
    # file is only read here, in a fresh interpreter that imports the CLI
    code = textwrap.dedent(f"""
        import importlib.util, json, sys
        import fadofsim.cli
        spec = importlib.util.spec_from_file_location("tracer", {str(ROOT / "bench" / "tracer.py")!r})
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        missing = []
        for owner_path, attr, name, _ in tracer.TARGETS:
            owner = sys.modules.get("fadofsim." + owner_path.split(".")[0])
            for part in owner_path.split(".")[1:]:
                owner = getattr(owner, part, None)
            if not callable(getattr(owner, attr, None)):
                missing.append(name)
        print(json.dumps({{"targets": len(tracer.TARGETS), "missing": missing}}))
    """)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    result = json.loads(proc.stdout)
    assert result["targets"] > 0
    assert result["missing"] == []


def test_traced_optimize_writes_the_untraced_bytes_and_counts_the_scan(tmp_path):
    # bench/tracer.py counts the scan from optimize_filter's positional
    # B and temperature arrays and result.meta["n_invalid"], and one
    # pair_transmission_map call per valid point; the file is only run
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(
        "[optimize]\n"
        "b_min_mT = 0\nb_max_mT = 4.5\nb_points = 2\n"
        "temperature_min_K = 360\ntemperature_max_K = 370\ntemperature_points = 2\n"
        "half_span_GHz = 8\nstep_MHz = 4\n"
    )
    args = ["--config", str(cfg), "--threads", "2", "optimize"]
    plain, traced, spans = tmp_path / "plain", tmp_path / "traced", tmp_path / "spans.json"
    # zero field leaves no usable peak: two of the four points are flagged
    assert main(["--out", str(plain), *args]) == 1
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), str(spans), "--",
         "--out", str(traced), *args],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    names = sorted(p.name for p in plain.iterdir())
    assert names == ["fom_surface.csv", "optimize_result.json"]
    assert sorted(p.name for p in traced.iterdir()) == names
    for name in names:
        assert (traced / name).read_bytes() == (plain / name).read_bytes()
    recorded = json.loads(spans.read_text())["spans"]
    scan = [(s["points"], s["valid"]) for s in recorded if s["name"] == "pairs.optimize_filter"]
    assert scan == [(4, 2)]
    assert sum(s["name"] == "pairs.pair_transmission_map" for s in recorded) == 2


def test_chi_square_sf_against_chdtrc():
    worst = 0.0
    for dof in range(1, 301):
        # from the bulk out to tails of 1e-15, plus the origin
        stats = [0.0, *chi2.isf(np.logspace(-15, -1e-6, 25), dof)]
        for stat in stats:
            want = chdtrc(dof, stat)
            worst = max(worst, abs(chi_square_sf(float(stat), dof) - want) / want)
    assert worst <= 1e-12


@pytest.mark.parametrize("stat", [0.0, 1e-12, 0.3, 1.0, 7.5, 40.0, 300.0])
def test_chi_square_sf_low_dof_identities(stat):
    assert chi_square_sf(stat, 1) == pytest.approx(math.erfc(math.sqrt(stat / 2.0)),
                                                   rel=1e-15, abs=0)
    assert chi_square_sf(stat, 2) == pytest.approx(math.exp(-stat / 2.0), rel=1e-15, abs=0)
    with pytest.raises(ValueError, match="degree of freedom"):
        chi_square_sf(stat, 0)


def test_every_json_report_leads_with_the_config_hash(tmp_path):
    cfg = tmp_path / "quick.cfg"
    cfg.write_text("[montecarlo]\nduration_s = 0.25\n"
                   "[optimize]\nb_points = 1\ntemperature_points = 1\n")
    digest = load_config(cfg).config_hash
    out = tmp_path / "out"
    for command in ("spectrum", "g2", "simulate", "optimize", "noise"):
        assert main(["--config", str(cfg), "--out", str(out), command]) == 0
    reports = sorted(p.name for p in out.glob("*.json") if not p.name.endswith("_meta.json"))
    assert reports == ["chi_square_report.json", "filter_metrics.json", "g2_metrics.json",
                       "noise_fit.json", "optimize_result.json", "purity.json"]
    for name in reports:
        payload = json.loads((out / name).read_text())
        assert list(payload)[0] == "config_hash", name
        assert payload["config_hash"] == digest
    # the timestamp sidecars carry it after their stream keys
    sidecars = list(out.glob("*_meta.json"))
    assert len(sidecars) == 4
    for path in sidecars:
        assert json.loads(path.read_text())["config_hash"] == digest


def test_noise_budget(tmp_path):
    out = tmp_path / "noise"
    rc = main(["--out", str(out), "noise"])
    assert rc == 0
    rows = (out / "noise_sweep.csv").read_text().splitlines()
    assert rows[0] == f"# config_hash: {HASH}"
    assert rows[1] == "t_nd,power_proxy,variance"
    assert rows[2] == "0.047619,2.267573696e-03,1.000054262e+00"
    assert len(rows) == 2 + 21
    fit = json.loads((out / "noise_fit.json").read_text())
    assert fit["shot_noise"] == pytest.approx(1.0, rel=1e-6)
    assert fit["max_abs_residual"] < 1e-9
    table = {
        (row["input_db"], row["transmission"]): row["output_db"]
        for row in fit["squeezing_through_loss"]
    }
    assert table[(6.0, 0.70)] == pytest.approx(squeezing_through_loss(6.0, 0.70), rel=1e-12)
    assert table[(6.0, 1.0)] == pytest.approx(6.0, rel=1e-12)


def test_default_output_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["noise"]) == 0
    assert (tmp_path / "fadofsim_out" / "noise_fit.json").exists()


def test_console_script_installed(tmp_path):
    """Installing the package gives a working ``fadofsim`` console script.

    The source tree is installed with its build backend into ``tmp_path``;
    the script generated from ``[project.scripts]`` then runs with only that
    install on ``PYTHONPATH``, so the package discovery and the package data
    declared in ``pyproject.toml`` are checked along with the entry point.
    """
    pytest.importorskip("setuptools", minversion="61")
    lib, bin_dir = tmp_path / "lib", tmp_path / "bin"
    subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()", "-q",
         "egg_info", "--egg-base", str(tmp_path),
         "build", "--build-base", str(tmp_path / "build"),
         "install", "--single-version-externally-managed",
         "--record", str(tmp_path / "record.txt"),
         "--install-lib", str(lib), "--install-scripts", str(bin_dir)],
        cwd=ROOT,
        capture_output=True,
        check=True,
        timeout=120,
    )
    exe = shutil.which("fadofsim", path=str(bin_dir))
    assert exe is not None
    proc = subprocess.run(
        [exe, "--out", str(tmp_path / "out"), "g2", "--mode", "on"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(lib)},
    )
    assert proc.returncode == 0
    assert "envelope FWHM" in proc.stdout
    assert (tmp_path / "out" / "g2_metrics.json").exists()
