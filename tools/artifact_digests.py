"""Print the sha256 of every artifact of every fadofsim command.

Runs ``spectrum``, ``g2`` (``--mode on``, ``off`` and ``both``),
``simulate``, ``optimize`` (with one thread and with ``--threads 2``) and
``noise`` on the built-in config and on each
``bench/configs/*.cfg``, every run as a fresh process on the ``src`` tree
of this checkout with its own temporary output directory.  Prints one line
per artifact::

    config command file sha256

and one ``config command exit_status N`` line per run.  ``config`` is
``default`` or the config file's stem.  Running the script at two commits
and diffing the outputs shows every artifact a change moved::

    python3 tools/artifact_digests.py > after.txt

The configs are only read.  The whole set takes about a minute on one core
and writes about 0.5 GB of timestamp streams to the temporary directory,
one run at a time.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = {
    "spectrum": ["spectrum"],
    "g2-on": ["g2", "--mode", "on"],
    "g2-off": ["g2", "--mode", "off"],
    "g2-both": ["g2", "--mode", "both"],
    "simulate": ["simulate"],
    "optimize": ["optimize"],
    "optimize-threads2": ["--threads", "2", "optimize"],
    "noise": ["noise"],
}


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 22):
            h.update(chunk)
    return h.hexdigest()


def main() -> int:
    configs = {"default": []}
    for path in sorted((ROOT / "bench" / "configs").glob("*.cfg")):
        configs[path.stem] = ["--config", str(path)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for label, config_args in configs.items():
        for name, command in COMMANDS.items():
            with tempfile.TemporaryDirectory() as out:
                proc = subprocess.run(
                    [sys.executable, "-m", "fadofsim.cli", *config_args, "--out", out, *command],
                    env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                )
                print(f"{label} {name} exit_status {proc.returncode}")
                for path in sorted(Path(out).iterdir()):
                    print(f"{label} {name} {path.name} {sha256(path)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
