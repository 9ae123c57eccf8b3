"""Time one layer of fadofsim in fresh interpreters, alternating between two source trees.

Layers:

``filter``
    The ``spectrum`` command's two filter evaluations on the
    ``bench/configs/spectrum_export.cfg`` grid (160,001 points): the filter
    and its mirror about the source centre, as ``cli.cmd_spectrum`` computes
    them.
``scan``
    The ``fadof_transmission`` spectra of the config's ``optimize`` scan, on
    one thread: by default the built-in scan (7 fields x 7 temperatures,
    20,001 points each), since ``spectrum_export.cfg`` sets only
    ``[spectrum]``.
``mc``
    One 300 s ``single`` and one ``comb`` stream of
    ``bench/configs/mc_stream.cfg`` at the first two seeds ``simulate``
    derives from the config seed, each generated, written and histogrammed
    as ``cli._mc_run`` does; the three stages of each mode are timed apart.

Every child reads the layer's bench config named above, or the file given
with ``--config``.  Each round runs the layer once in each tree, every run
a fresh ``python3`` process with ``PYTHONPATH`` set to that tree's
``src``; which tree runs first alternates from round to round.  A run
times the layer's stages with ``time.perf_counter`` (imports and config
loading excluded, Voigt tables cold as in a CLI command).  For each stage
the script prints each tree's median and quartiles, the rounds that ``b``
won, and the median of the per-round ratios b / a.  The first round also
keeps each tree's output, and the script prints the largest |T_b - T_a| of
the transmissions, or whether the sha256 of every stream file and
histogram is the same in both trees::

    python3 tools/layer_ab.py --layer filter --a /path/to/parent --b . --rounds 10
    python3 tools/layer_ab.py --layer scan --config coarse.cfg --a /path/to/parent --b .

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
# bench config named below, and prints one "stage seconds" line per stage;
# with a path argument it also saves its output there: the transmissions
# (one row per spectrum), or the JSON of the mc digests.
CONFIG = {"filter": "spectrum_export.cfg", "scan": "spectrum_export.cfg", "mc": "mc_stream.cfg"}
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
         for b in cfg.optimize_b_t.tolist() for t in cfg.optimize_temperatures_k.tolist()]
t0 = time.perf_counter()
values = [fadof_transmission(cell, grid).value for cell in cells]
print("scan", time.perf_counter() - t0)
if len(sys.argv) > 2:
    np.save(sys.argv[2], np.array(values))
""",
    "mc": """
import hashlib, json, sys, tempfile, time
from dataclasses import replace
from pathlib import Path
import numpy as np
from fadofsim import montecarlo
from fadofsim.config import load_config
cfg = load_config(sys.argv[1])
det = replace(cfg.detector, acquisition_s=cfg.mc_duration_s)
seeds = np.random.SeedSequence(cfg.seed).generate_state(2)
digests = {}
with tempfile.TemporaryDirectory() as out:
    for mode, seed in zip(("single", "comb"), seeds):
        t0 = time.perf_counter()
        stream = montecarlo.generate_pair_events(cfg.opo, det, mode, int(seed))
        t1 = time.perf_counter()
        montecarlo.write_stream(stream, out, prefix=mode)
        t2 = time.perf_counter()
        hist = montecarlo.mc_histogram(stream, det)
        t3 = time.perf_counter()
        del stream
        print(f"{mode}.generate", t1 - t0)
        print(f"{mode}.write", t2 - t1)
        print(f"{mode}.histogram", t3 - t2)
        for path in sorted(Path(out).glob(f"{mode}_*")):
            if len(sys.argv) > 2:
                digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
            path.unlink()
        digests[f"{mode} histogram"] = hashlib.sha256(hist.counts.tobytes()).hexdigest()
if len(sys.argv) > 2:
    Path(sys.argv[2]).write_text(json.dumps(digests))
""",
}


def run(tree: Path, layer: str, config: Path, save: Path | None) -> dict[str, float]:
    """Seconds of each stage of one run of the layer in the tree on the config."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-c", CHILD[layer], str(config)]
    if save is not None:
        argv.append(str(save))
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return {stage: float(seconds) for stage, seconds in map(str.split, proc.stdout.splitlines())}


def summary(label: str, seconds: np.ndarray) -> str:
    q1, median, q3 = np.percentile(seconds, [25, 50, 75])
    return f"  {label}: median {median:.4f} s, quartiles {q1:.4f} / {q3:.4f} s"


def output_check(layer: str, saved: dict[str, Path]) -> str:
    """How the two trees' outputs of the first round compare."""
    if layer == "mc":
        a, b = (json.loads(saved[side].read_text()) for side in ("a", "b"))
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
    config = (args.config or ROOT / "bench" / "configs" / CONFIG[args.layer]).resolve()
    times: dict[str, list[dict[str, float]]] = {"a": [], "b": []}
    with tempfile.TemporaryDirectory() as tmp:
        suffix = ".json" if args.layer == "mc" else ".npy"  # np.save appends .npy to other names
        saved = {side: Path(tmp) / f"{side}{suffix}" for side in trees}
        for i in range(args.rounds):
            for side in ("a", "b") if i % 2 == 0 else ("b", "a"):
                times[side].append(run(trees[side], args.layer, config, saved[side] if i == 0 else None))
        check = output_check(args.layer, saved) if args.rounds else None
    print(f"layer {args.layer}, {args.rounds} rounds on {config}; a {trees['a']}, b {trees['b']}")
    for stage in times["a"][0] if args.rounds else ():
        a = np.array([stages[stage] for stages in times["a"]])
        b = np.array([stages[stage] for stages in times["b"]])
        print(stage)
        print(summary("a", a))
        print(summary("b", b))
        print(f"  b faster in {int((b < a).sum())}/{args.rounds} rounds, median ratio b/a {np.median(b / a):.3f}")
    if check:
        print(check)
    return 0


if __name__ == "__main__":
    sys.exit(main())
