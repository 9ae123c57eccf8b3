"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest bench/selfcheck.py

The file name keeps these tests out of the repository's default test run:
they start about twenty fadofsim processes and take about a minute.
"""

from __future__ import annotations

import functools
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import WORK_COUNTS, layer_stats  # noqa: E402
from workloads import (  # noqa: E402
    BENCH_DIR, CLI, DEFAULT_SEED, WORKLOADS, check_reference, child_env, invoke,
)

ROOT = BENCH_DIR.parent
ENV = child_env(ROOT)
WORK = ROOT / ".bench_work"


def _scratch() -> Path:
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=WORK))


@pytest.fixture
def scratch():
    path = _scratch()
    yield path
    shutil.rmtree(path, ignore_errors=True)


@functools.cache
def _runs(name: str):
    """One untraced and two traced --threads 1 invocations at the default seed."""
    workload = WORKLOADS[name]
    untraced = invoke(workload, DEFAULT_SEED, 1, _scratch(), ENV, check=True)
    traced = [invoke(workload, DEFAULT_SEED, 1, _scratch(), ENV, traced=True)
              for _ in range(2)]
    return untraced, traced


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_matches_reference(name):
    untraced, _ = _runs(name)
    assert untraced.returncode == 0
    assert untraced.errors == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_artifacts_identical_to_untraced(name):
    untraced, traced = _runs(name)
    for inv in traced:
        assert inv.errors == []
        assert inv.digests == untraced.digests


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_sum_to_traced_wall(name):
    untraced, traced = _runs(name)
    for inv in traced:
        stats = layer_stats(inv.trace["spans"], threads=1)
        overhead = inv.wall_s - untraced.wall_s
        gap = inv.trace["wall_s"] - stats["trace.self_sum_s"]
        # the gap is the tracer's own set-up, part of the tracing overhead;
        # 10 ms allow for the noise in a single overhead measurement
        assert 0.0 <= gap <= max(overhead, 0.0) + 0.01


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_work_counts_repeat_exactly(name):
    _, (first, second) = _runs(name)
    counts = [{k: v for k, v in layer_stats(inv.trace["spans"], 1).items()
               if k.rsplit(".", 1)[-1] in ("calls", *WORK_COUNTS)}
              for inv in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["susceptibility.complex_voigt.points"] > 0


def test_scan_worker_spans_attach_to_the_scan():
    inv = invoke(WORKLOADS["filter_scan"], DEFAULT_SEED, 2, _scratch(), ENV, traced=True)
    spans = inv.trace["spans"]
    scan = next(s for s in spans if s["name"] == "pairs.optimize_filter")
    workers = [s for s in spans if s["name"] == "vapor.fadof_transmission"]
    assert len(workers) == 49
    assert all(s["parent"] == scan["id"] for s in workers)
    assert len({s["thread"] for s in workers}) == 2
    assert 0.5 < layer_stats(spans, 2)["pairs.optimize_filter.busy_frac"] <= 1.0


def test_layer_stats_self_time_excludes_overlapping_children():
    spans = [
        {"id": 0, "name": "pairs.optimize_filter", "parent": None, "start": 0.0, "end": 10.0,
         "points": 2, "valid": 1},
        {"id": 1, "name": "vapor.fadof_transmission", "parent": 0, "start": 1.0, "end": 6.0},
        {"id": 2, "name": "vapor.fadof_transmission", "parent": 0, "start": 2.0, "end": 8.0},
    ]
    stats = layer_stats(spans, threads=2)
    assert stats["pairs.optimize_filter.self_s"] == pytest.approx(3.0)
    assert stats["pairs.optimize_filter.busy_frac"] == pytest.approx(11.0 / 20.0)
    assert stats["pairs.optimize_filter.valid_frac"] == 0.5
    assert stats["vapor.fadof_transmission.time_s"] == pytest.approx(11.0)
    assert stats["trace.self_sum_s"] == pytest.approx(14.0)


def _cli(workload, out: Path) -> None:
    subprocess.run([sys.executable, "-c", CLI, *workload.argv(out, DEFAULT_SEED, 1)],
                   env=ENV, check=True, stdout=subprocess.DEVNULL)


def test_check_flags_a_transmission_beyond_tolerance(scratch):
    workload = WORKLOADS["spectrum_export"]
    _cli(workload, scratch)
    path = scratch / "fadof_spectrum.csv"
    lines = path.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if line[0].isdigit())

    def shift(delta):
        freq, value = lines[first].split(",")
        edited = lines[:first] + [f"{freq},{float(value) + delta:.12e}"] + lines[first + 1:]
        path.write_text("\n".join(edited) + "\n")

    shift(5e-10)
    assert check_reference(workload, scratch, DEFAULT_SEED) == []
    shift(2e-9)
    assert check_reference(workload, scratch, DEFAULT_SEED) != []


def test_check_flags_a_changed_stream_at_the_default_seed(scratch):
    workload = WORKLOADS["mc_stream"]
    _cli(workload, scratch)
    assert check_reference(workload, scratch, DEFAULT_SEED) == []
    with open(scratch / "timestamps_on_ch1.bin", "r+b") as fh:
        fh.seek(8)
        fh.write(b"\x01")
    errors = check_reference(workload, scratch, DEFAULT_SEED)
    assert errors == [f"timestamps_on_ch1.bin: sha256 differs from the reference at seed "
                      f"{DEFAULT_SEED}"]


def test_refuses_a_directory_without_the_source(scratch):
    shutil.copytree(BENCH_DIR, scratch / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "filter_scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=scratch, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
