"""Time one layer of fadofsim in fresh interpreters, alternating between two source trees.

Layers:

``filter``
    The ``spectrum`` command's two filter evaluations on the
    ``bench/configs/spectrum_export.cfg`` grid (160,001 points): the filter
    and its mirror about the source centre, as ``cli.cmd_spectrum`` computes
    them.
``scan``
    The 49 ``fadof_transmission`` spectra of the built-in ``optimize`` scan
    (7 fields x 7 temperatures, 20,001 points each), on one thread.

Each round runs the layer once in each tree, every run a fresh ``python3``
process with ``PYTHONPATH`` set to that tree's ``src``; which tree runs
first alternates from round to round.  A run times the layer alone with
``time.perf_counter`` (imports and config loading excluded, Voigt tables
cold as in a CLI command).  The first round also keeps each tree's
transmissions, and the script prints the largest |T_b - T_a| between the
trees besides each tree's median and quartiles, the rounds that ``b``
won, and the median of the per-round ratios b / a::

    python3 tools/layer_ab.py --layer filter --a /path/to/parent --b . --rounds 10

The trees are only read; the transmissions go to a temporary directory.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# Each child prints the layer's seconds; with a path argument it also
# saves the transmissions there (one row per spectrum).
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
print(time.perf_counter() - t0)
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
cfg = load_config(None)
grid = make_frequency_grid(cfg.filter.table.reference_frequency_hz, cfg.optimize_half_span_hz, cfg.optimize_step_hz)
cells = [replace(cfg.filter, b_field_t=b, temperature_k=t)
         for b in cfg.optimize_b_t.tolist() for t in cfg.optimize_temperatures_k.tolist()]
t0 = time.perf_counter()
values = [fadof_transmission(cell, grid).value for cell in cells]
print(time.perf_counter() - t0)
if len(sys.argv) > 2:
    np.save(sys.argv[2], np.array(values))
""",
}


def run(tree: Path, layer: str, save: Path | None) -> float:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-c", CHILD[layer], str(ROOT / "bench" / "configs" / "spectrum_export.cfg")]
    if save is not None:
        argv.append(str(save))
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return float(proc.stdout.split()[-1])


def summary(label: str, seconds: list[float]) -> str:
    q1, median, q3 = np.percentile(seconds, [25, 50, 75])
    return f"{label}: median {median:.4f} s, quartiles {q1:.4f} / {q3:.4f} s"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--layer", choices=sorted(CHILD), required=True)
    parser.add_argument("--a", type=Path, required=True, help="baseline source tree")
    parser.add_argument("--b", type=Path, required=True, help="changed source tree")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    trees = {"a": args.a.resolve(), "b": args.b.resolve()}
    times: dict[str, list[float]] = {"a": [], "b": []}
    with tempfile.TemporaryDirectory() as tmp:
        saved = {side: Path(tmp) / f"{side}.npy" for side in trees}
        for i in range(args.rounds):
            for side in ("a", "b") if i % 2 == 0 else ("b", "a"):
                times[side].append(run(trees[side], args.layer, saved[side] if i == 0 else None))
        if args.rounds:
            delta = np.abs(np.load(saved["b"]) - np.load(saved["a"])).max()
    a, b = np.array(times["a"]), np.array(times["b"])
    print(f"layer {args.layer}, {args.rounds} rounds")
    print(summary(f"a {trees['a']}", a))
    print(summary(f"b {trees['b']}", b))
    if args.rounds:
        print(f"b faster in {int((b < a).sum())}/{args.rounds} rounds, median ratio b/a {np.median(b / a):.3f}")
        print(f"largest |T_b - T_a| {delta:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
