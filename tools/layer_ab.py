"""Time one layer of fadofsim in fresh interpreters, alternating between two source trees.

Layers:

``filter``
    The ``spectrum`` command's two filter evaluations on the
    ``bench/configs/spectrum_export.cfg`` grid (160,001 points): the filter
    and its mirror about the source centre, as ``cli.cmd_spectrum`` computes
    them.
``scan``
    The ``fadof_transmission`` spectra of the config's ``optimize`` scan, on
    one thread and in the command's order, temperature outer and field
    inner (one ``optimize`` task per temperature): by default the built-in
    scan (7 fields x 7 temperatures, 20,001 points each), since
    ``spectrum_export.cfg`` sets only ``[spectrum]``.
``optimize``
    ``pairs.optimize_filter`` on the config's ``optimize`` scan (by default
    the built-in 7 x 7 scan), on one thread, as ``cli.cmd_optimize`` calls
    it.  The output check says whether ``fom``, ``eta0`` and
    ``sum_nondegenerate`` are identical bit for bit in both trees.
``csv``
    ``Spectrum.to_csv`` of the ``spectrum`` command's filter on the
    ``spectrum_export.cfg`` grid (160,001 rows) into a temporary file, the
    transmission computed before the clock starts.  The output check
    compares the files' sha256.
``mc``
    One 300 s ``single`` and one ``comb`` stream of
    ``bench/configs/mc_stream.cfg`` at the first two seeds ``simulate``
    derives from the config seed, each generated, written and histogrammed
    as ``cli._mc_run`` does; the three stages of each mode are timed apart,
    and each stage's minor page faults (``<stage>.minor_faults``, the
    child's ``getrusage`` delta) and the child's peak RSS at the end
    (``peak_rss_mb``, which includes the interpreter and numpy) are
    compared as well.
``startup``
    ``import fadofsim.cli`` and ``load_config`` of the built-in config (or
    of the file given with ``--config``), timed apart; the child also
    reports its thread count from ``/proc/self/status`` where that file
    exists.

Every other child reads the layer's bench config named above, or the file
given with ``--config``.  Each round runs the layer once in each tree, every run
a fresh ``python3`` process with ``PYTHONPATH`` set to that tree's
``src``; which tree runs first alternates from round to round.  A run
times the layer's stages with ``time.perf_counter`` (imports and config
loading excluded, Voigt tables cold as in a CLI command).  For each stage
the script prints each tree's median and quartiles, the rounds in which
``b`` read lower, and the median of the per-round ratios b / a.  The first round also
keeps each tree's output, and the script prints the largest |T_b - T_a| of
the transmissions, whether the sha256 of every stream file and histogram
is the same in both trees, or each tree's thread count after startup::

    python3 tools/layer_ab.py --layer filter --a /path/to/parent --b . --rounds 10
    python3 tools/layer_ab.py --layer scan --config coarse.cfg --a /path/to/parent --b .
    python3 tools/layer_ab.py --layer startup --a /path/to/parent --b .
    python3 tools/layer_ab.py --layer optimize --a /path/to/parent --b .
    python3 tools/layer_ab.py --layer csv --a /path/to/parent --b .
    python3 tools/layer_ab.py --layer mc --a /path/to/parent --b .

The trees are only read; the outputs go to a temporary directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# Each child gets a config path as its first argument, by default the layer's
# bench config named below ("" for the built-in config), and prints one
# "stage seconds" line per stage (the mc child also "stage.minor_faults
# count" lines and one "peak_rss_mb MB" line); with a path argument it also saves its
# output there: the transmissions (one row per spectrum), the JSON of the mc
# digests, or the JSON of its thread count (null where it cannot be read).
CONFIG = {"filter": "spectrum_export.cfg", "scan": "spectrum_export.cfg", "optimize": "spectrum_export.cfg",
          "csv": "spectrum_export.cfg", "mc": "mc_stream.cfg", "startup": None}
CHILD = {
    "filter": """
import sys, time
import numpy as np
from fadofsim.config import load_config
from fadofsim.spectrum import make_frequency_grid
from fadofsim.vapor import fadof_transmission
cfg = load_config(sys.argv[1])
grid = make_frequency_grid(cfg.filter.table.reference_frequency_hz, cfg.grid_half_span_hz, cfg.grid_step_hz)
mirror = (2.0 * cfg.opo.degenerate_frequency_hz - grid)[::-1]
t0 = time.perf_counter()
values = [fadof_transmission(cfg.filter, grid).value, fadof_transmission(cfg.filter, mirror).value]
print("filter", time.perf_counter() - t0)
if len(sys.argv) > 2:
    np.save(sys.argv[2], np.array(values))
""",
    "scan": """
import sys, time
from dataclasses import replace
import numpy as np
from fadofsim.config import load_config
from fadofsim.spectrum import make_frequency_grid
from fadofsim.vapor import fadof_transmission
cfg = load_config(sys.argv[1])
grid = make_frequency_grid(cfg.filter.table.reference_frequency_hz, cfg.optimize_half_span_hz, cfg.optimize_step_hz)
cells = [replace(cfg.filter, b_field_t=b, temperature_k=t)
         for t in cfg.optimize_temperatures_k.tolist() for b in cfg.optimize_b_t.tolist()]
t0 = time.perf_counter()
values = [fadof_transmission(cell, grid).value for cell in cells]
print("scan", time.perf_counter() - t0)
if len(sys.argv) > 2:
    np.save(sys.argv[2], np.array(values))
""",
    "optimize": """
import sys, time
import numpy as np
from fadofsim.config import load_config
from fadofsim.pairs import optimize_filter
cfg = load_config(sys.argv[1])
t0 = time.perf_counter()
r = optimize_filter(cfg.filter, cfg.opo, cfg.optimize_b_t, cfg.optimize_temperatures_k,
                    grid_half_span_hz=cfg.optimize_half_span_hz, grid_step_hz=cfg.optimize_step_hz, threads=1)
print("optimize", time.perf_counter() - t0)
if len(sys.argv) > 2:
    np.save(sys.argv[2], np.array([r.fom, r.eta0, r.sum_nondegenerate]))
""",
    "csv": """
import hashlib, json, sys, tempfile, time
from pathlib import Path
from fadofsim.config import load_config
from fadofsim.spectrum import make_frequency_grid
from fadofsim.vapor import fadof_transmission
cfg = load_config(sys.argv[1])
grid = make_frequency_grid(cfg.filter.table.reference_frequency_hz, cfg.grid_half_span_hz, cfg.grid_step_hz)
spec = fadof_transmission(cfg.filter, grid)
with tempfile.TemporaryDirectory() as out:
    path = Path(out) / "fadof_spectrum.csv"
    t0 = time.perf_counter()
    spec.to_csv(path, header_lines=("layer_ab csv",))
    print("csv", time.perf_counter() - t0)
    if len(sys.argv) > 2:
        Path(sys.argv[2]).write_text(json.dumps({path.name: hashlib.sha256(path.read_bytes()).hexdigest()}))
""",
    "mc": """
import hashlib, json, resource, sys, tempfile, time
from dataclasses import replace
from pathlib import Path
import numpy as np
from fadofsim import montecarlo
from fadofsim.config import load_config
cfg = load_config(sys.argv[1])
det = replace(cfg.detector, acquisition_s=cfg.mc_duration_s)
seeds = np.random.SeedSequence(cfg.seed).generate_state(2)
digests = {}

def mark():
    return time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt

with tempfile.TemporaryDirectory() as out:
    for mode, seed in zip(("single", "comb"), seeds):
        m0 = mark()
        stream = montecarlo.generate_pair_events(cfg.opo, det, mode, int(seed))
        m1 = mark()
        montecarlo.write_stream(stream, out, prefix=mode)
        m2 = mark()
        hist = montecarlo.mc_histogram(stream, det)
        m3 = mark()
        del stream
        for stage, (a, b) in zip(("generate", "write", "histogram"), ((m0, m1), (m1, m2), (m2, m3))):
            print(f"{mode}.{stage}", b[0] - a[0])
            print(f"{mode}.{stage}.minor_faults", b[1] - a[1])
        for path in sorted(Path(out).glob(f"{mode}_*")):
            if len(sys.argv) > 2:
                digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
            path.unlink()
        digests[f"{mode} histogram"] = hashlib.sha256(hist.counts.tobytes()).hexdigest()
print("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
if len(sys.argv) > 2:
    Path(sys.argv[2]).write_text(json.dumps(digests))
""",
    "startup": """
import json, sys, time
from pathlib import Path
t0 = time.perf_counter()
import fadofsim.cli
from fadofsim.config import load_config
t1 = time.perf_counter()
load_config(sys.argv[1] or None)
t2 = time.perf_counter()
print("import", t1 - t0)
print("load_config", t2 - t1)
status = Path("/proc/self/status")
threads = None
if status.exists():
    threads = next(int(line.split()[1]) for line in status.read_text().splitlines() if line.startswith("Threads:"))
if len(sys.argv) > 2:
    Path(sys.argv[2]).write_text(json.dumps(threads))
""",
}


def run(tree: Path, layer: str, config: Path | None, save: Path | None) -> dict[str, float]:
    """Seconds of each stage of one run of the layer in the tree on the config."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-c", CHILD[layer], str(config or "")]
    if save is not None:
        argv.append(str(save))
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return {stage: float(seconds) for stage, seconds in map(str.split, proc.stdout.splitlines())}


def unit(stage: str) -> str:
    """The unit of a stage's numbers: a fault count, megabytes or seconds."""
    return "faults" if stage.endswith(".minor_faults") else "MB" if stage.endswith("_mb") else "s"


def summary(label: str, values: np.ndarray, unit: str) -> str:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    digits = 0 if unit == "faults" else 2 if unit == "MB" else 4
    return f"  {label}: median {median:.{digits}f} {unit}, quartiles {q1:.{digits}f} / {q3:.{digits}f} {unit}"


def output_check(layer: str, saved: dict[str, Path]) -> str:
    """How the two trees' outputs of the first round compare."""
    if layer in ("mc", "startup", "csv"):
        a, b = (json.loads(saved[side].read_text()) for side in ("a", "b"))
    if layer == "csv":
        return "sha256 of the CSV: " + ("identical" if a == b else "moved")
    if layer == "optimize":
        a, b = (np.load(saved[side]) for side in ("a", "b"))
        return "fom, eta0 and sum_nondegenerate: " + (
            "identical" if a.tobytes() == b.tobytes() else f"moved, largest |b - a| {np.nanmax(np.abs(b - a)):.3g}")
    if layer == "startup":
        return f"threads after startup: a {a}, b {b}" if a is not None else "thread count not available"
    if layer == "mc":
        moved = sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))
        return f"sha256 of {len(a)} stream files and histograms: " + (
            f"moved {', '.join(moved)}" if moved else "all identical")
    delta = np.abs(np.load(saved["b"]) - np.load(saved["a"])).max()
    return f"largest |T_b - T_a| {delta:.3g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--layer", choices=sorted(CHILD), required=True)
    parser.add_argument("--a", type=Path, required=True, help="baseline source tree")
    parser.add_argument("--b", type=Path, required=True, help="changed source tree")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--config", type=Path, help="config file for every child (default: the layer's bench config)")
    args = parser.parse_args(argv)
    trees = {"a": args.a.resolve(), "b": args.b.resolve()}
    default = CONFIG[args.layer] and ROOT / "bench" / "configs" / CONFIG[args.layer]
    config = args.config or default
    config = config and config.resolve()
    times: dict[str, list[dict[str, float]]] = {"a": [], "b": []}
    with tempfile.TemporaryDirectory() as tmp:
        suffix = ".npy" if args.layer in ("filter", "scan", "optimize") else ".json"  # np.save appends .npy to other names
        saved = {side: Path(tmp) / f"{side}{suffix}" for side in trees}
        for i in range(args.rounds):
            for side in ("a", "b") if i % 2 == 0 else ("b", "a"):
                times[side].append(run(trees[side], args.layer, config, saved[side] if i == 0 else None))
        check = output_check(args.layer, saved) if args.rounds else None
    print(f"layer {args.layer}, {args.rounds} rounds on {config or 'the built-in config'}; a {trees['a']}, b {trees['b']}")
    for stage in times["a"][0] if args.rounds else ():
        a = np.array([stages[stage] for stages in times["a"]])
        b = np.array([stages[stage] for stages in times["b"]])
        print(stage)
        print(summary("a", a, unit(stage)))
        print(summary("b", b, unit(stage)))
        print(f"  b lower in {int((b < a).sum())}/{args.rounds} rounds, median ratio b/a {np.median(b / a):.3f}")
    if check:
        print(check)
    return 0


if __name__ == "__main__":
    sys.exit(main())
