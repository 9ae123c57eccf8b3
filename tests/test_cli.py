"""End-to-end command-line interface behavior and output schemas."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

from fadofsim.cli import main
from fadofsim.config import load_config
from fadofsim.cvnoise import squeezing_through_loss
from fadofsim.montecarlo import coincidences_in_window, mc_histogram, read_stream

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
    assert lines[2] == "377087407311000.000000,9.820658918040e-05"

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
        ("[optimize]\nstep_MHz = 0\n", "optimize", "config error: [optimize] half_span_GHz"),
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


def test_g2_deterministic_output_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(a), "g2", "--mode", "off"]) == 0
    assert main(["--out", str(b), "g2", "--mode", "off"]) == 0
    assert (a / "g2_off_histogram.csv").read_bytes() == (b / "g2_off_histogram.csv").read_bytes()
    assert (a / "g2_metrics.json").read_bytes() == (b / "g2_metrics.json").read_bytes()


@pytest.fixture(scope="module")
def quick_cfg_text():
    return "[montecarlo]\nduration_s = 0.25\n"


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
        assert block["p_value"] == chi2.sf(block["chi_square"], block["bins_used"])
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
