"""fadofsim benchmark: end-to-end and per-layer numbers for three CLI workloads.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``):

- ``filter_scan``: ``optimize`` over the default 7x7 (B, T) scan, run
  alternately with ``--threads 1`` and ``--threads 2``;
- ``mc_stream``: ``simulate`` with a 300 s acquisition, ``--seed (N mod 100)``;
- ``spectrum_export``: ``spectrum`` on a 160 001-point grid.

One client runs the workload's command as a fresh ``fadofsim`` process,
one at a time (a closed loop), until S seconds have passed.  Before each
invocation a fresh interpreter times ``import fadofsim.cli`` plus
``load_config(None)`` (``setup_s``).  Every invocation's artifacts are
hashed; the first is compared with ``bench/reference.json`` and every
later one must be byte-identical to it.  Outputs go to ``.bench_work/``
in the checkout and are deleted after each invocation.

``--trace 0`` reports the end-to-end metrics, medians over the loop of
the ``--threads 1`` invocations.  ``--trace 1`` alternates an untraced
invocation with traced ones (``tracer.py``) and reports per-layer
numbers; ``trace.overhead_s`` is the traced minus the untraced wall time.
A table of every metric goes to stdout; the last line is one JSON object
with the metrics that ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import WORK_COUNTS, layer_stats
from workloads import WORKLOADS, child_env, invoke, program_seed, setup_probe

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "items_per_s": "1/s",
}

# Per-layer metrics of the JSON line: counts, plus times of layers every
# workload reaches.  The table printed above it has every layer.
PER_LAYER_UNITS = {
    "setup.import_s": "s",
    "config.load_config.time_s": "s",
    "susceptibility.complex_voigt.calls": "count",
    "susceptibility.complex_voigt.points": "count",
    "susceptibility.complex_voigt.time_s": "s",
    "susceptibility.complex_susceptibility.self_s": "s",
    "vapor.fadof_transmission.calls": "count",
    "vapor.fadof_transmission.points": "count",
    "vapor.fadof_transmission.self_s": "s",
    "opo.mode_comb.time_s": "s",
    "pairs.optimize_filter.points": "count",
    "pairs.pair_transmission_map.calls": "count",
    "spectrum.Spectrum.to_csv.rows": "count",
    "spectrum.Spectrum.to_csv.bytes": "count",
    "montecarlo.generate_pair_events.events": "count",
    "montecarlo.mc_histogram.events": "count",
    "montecarlo.write_stream.bytes": "count",
    "cli.chi_square.calls": "count",
    "writers.time_s": "s",
    "writers.bytes": "count",
    "cli.command.self_s": "s",
    "trace.overhead_s": "s",
}


def fingerprint(root: Path, work: Path) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True).stdout.strip() or "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit, "output_dir": str(work), "output_fs": filesystem_type(work)}


def filesystem_type(path: Path) -> str:
    """Type of the file system holding ``path``, from the mount table."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1]
                if str(path).startswith(mount.rstrip("/") + "/") and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


class Run:
    """The invocations of one benchmark run and their failures."""

    def __init__(self, workload, seed: int, work: Path, env: dict):
        self.workload, self.seed, self.work, self.env = workload, seed, work, env
        self.invocations = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests = None

    def invoke(self, threads: int, traced: bool = False):
        self.attempted += 1
        scratch = Path(tempfile.mkdtemp(dir=self.work))
        inv = invoke(self.workload, self.seed, threads, scratch, self.env, traced=traced,
                     check=self.digests is None)
        if not inv.errors:
            if self.digests is None:
                self.digests = inv.digests
            elif inv.digests != self.digests:
                changed = sorted(k for k in set(inv.digests) | set(self.digests)
                                 if inv.digests.get(k) != self.digests.get(k))
                inv.errors.append(f"artifacts differ from the run's first invocation: {changed}")
        self.failed += bool(inv.errors)
        tag = f"threads={threads}{' traced' if traced else ''}"
        self.errors += [f"{tag}: {e}" for e in inv.errors]
        self.invocations.append(inv)
        return inv

    def setup_probe(self) -> list[float]:
        self.attempted += 1
        try:
            return [setup_probe(self.env)]
        except (subprocess.SubprocessError, ValueError) as exc:
            self.failed += 1
            self.errors.append(f"setup probe: {exc}")
            return []

    def select(self, threads: int, traced: bool):
        return [i for i in self.invocations if i.threads == threads and i.traced == traced]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure(run: Run, seconds: float) -> dict:
    setup = []
    start = time.perf_counter()
    while True:
        for threads in run.workload.threads:
            setup += run.setup_probe()
            run.invoke(threads)
        if time.perf_counter() - start >= seconds:
            break
    one = run.select(1, False)
    samples = {
        "setup_s": setup,
        "wall_s": [i.wall_s for i in one],
        "cpu_s": [i.cpu_s for i in one],
        "peak_rss_mb": [i.peak_rss_mb for i in one],
    }
    for threads in run.workload.threads[1:]:
        samples[f"wall_s_threads{threads}"] = [i.wall_s for i in run.select(threads, False)]
    metrics = {name: _median(values) for name, values in samples.items()}
    metrics["items_per_s"] = max(i.items for i in one) / metrics["wall_s"]
    return {"metrics": metrics, "samples": samples}


def trace(run: Run, seconds: float) -> dict:
    start = time.perf_counter()
    while True:
        run.invoke(1)
        for threads in run.workload.threads:
            run.invoke(threads, traced=True)
        if time.perf_counter() - start >= seconds:
            break
    columns = {}
    for threads in run.workload.threads:
        traced = [i for i in run.select(threads, True) if i.trace]
        columns[threads] = table = {}
        if not traced:  # every traced invocation failed; run.errors says why
            continue
        stats = [layer_stats(i.trace["spans"], threads) for i in traced]
        for name in sorted(set().union(*stats)):
            values = [s.get(name, 0) for s in stats]
            if name.rsplit(".", 1)[-1] in ("calls", *WORK_COUNTS):
                if len(set(values)) > 1:
                    run.errors.append(f"threads={threads}: {name} differs between repeats: "
                                      f"{values}")
                table[name] = values[0]
            else:
                table[name] = statistics.median(values)
        table["trace.wall_s"] = statistics.median(i.wall_s for i in traced)
        table["trace.inprocess_wall_s"] = statistics.median(i.trace["wall_s"] for i in traced)
    if columns[1]:
        untraced = statistics.median(i.wall_s for i in run.select(1, False))
        columns[1]["trace.overhead_s"] = columns[1]["trace.wall_s"] - untraced
    metrics = {name: columns[1].get(name, 0) for name in PER_LAYER_UNITS}
    return {"metrics": metrics, "columns": columns}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload, args, info: dict, result: dict, run: Run, trace_mode: bool) -> None:
    print(f"fadofsim benchmark: workload {workload.name}, seed {args.seed} "
          f"(program seed {run.seed}), {args.seconds} s, trace {int(trace_mode)}")
    for key, value in info.items():
        print(f"  {key}: {value}")
    print("  outputs are deleted after each invocation; real disk behaviour is out of scope")
    if trace_mode:
        columns = result["columns"]
        print(f"{'layer metric':52s}" + "".join(f" {f'threads={t}':>14s}" for t in columns))
        for name in sorted(set().union(*columns.values())):
            print(f"{name:52s}" + "".join(f" {_fmt(c[name]) if name in c else '-':>14s}"
                                         for c in columns.values()))
    else:
        alias = {"scan_points": "scan_points_per_s", "mc_events": "mc_events_per_s",
                 "grid_points": "grid_points_per_s"}[workload.items]
        print(f"{'metric':18s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>3s}")
        samples = result["samples"]
        for name in (*END_TO_END_UNITS, *sorted(samples.keys() - END_TO_END_UNITS.keys())):
            values = samples.get(name) or [result["metrics"][name]]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            label = f"{name} ({alias})" if name == "items_per_s" else name
            print(f"{label:18s} {END_TO_END_UNITS.get(name, 's'):6s} "
                  f"{_fmt(result['metrics'][name]):>12s} {_fmt(q1):>12s} {_fmt(q3):>12s} "
                  f"{len(values):>3d}")
        p_values = [i.chi_square_p for i in run.invocations if i.chi_square_p]
        if p_values:
            print(f"chi-square p-values (on, off) per invocation: {p_values}")
    print(f"failed_frac        ratio  {run.failed / run.attempted:.6g} "
          f"({run.failed}/{run.attempted})")
    for error in run.errors:
        print(f"FAILED: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fadofsim" / "cli.py").is_file():
        print(f"error: {root} holds no fadofsim source tree (src/fadofsim); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    work = root / ".bench_work"
    work.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    seed = program_seed(args.seed) if workload.seeded else args.seed
    run = Run(workload, seed, Path(tempfile.mkdtemp(dir=work)), child_env(root))
    try:
        result = trace(run, args.seconds) if args.trace else measure(run, args.seconds)
        info = fingerprint(root, work)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass
    report(workload, args, info, result, run, bool(args.trace))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
