"""Write bench/reference.json from the current source tree.

Usage, from the repository root::

    python3 bench/make_reference.py

Runs each workload once (one thread, the default Monte Carlo seed) and
stores the values that ``workloads.check_reference`` compares, then runs
the seeded workload at every seed of ``DIGEST_SEEDS`` for its stream
digests (about four minutes).  Rewrite
the reference only in a change that means to move the outputs, and say
so in its description.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import (
    BENCH_DIR, CHECKED, CLI, DEFAULT_SEED, DIGEST_SEEDS, SEEDED_DIGESTS, WORKLOADS, child_env,
    digests, reference_entry,
)


def _run(workload, out: Path, seed: int, env: dict) -> None:
    subprocess.run([sys.executable, "-c", CLI, *workload.argv(out, seed, 1)],
                   env=env, check=True, stdout=subprocess.DEVNULL)


def main() -> int:
    root = Path.cwd()
    env = child_env(root)
    reference = {}
    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=root) as tmp:
            out = Path(tmp)
            _run(workload, out, DEFAULT_SEED, env)
            spec = CHECKED[name]
            reference[name] = {"any_seed": reference_entry(spec, out)}
            if "default_seed" in spec:
                reference[name]["default_seed"] = reference_entry(spec["default_seed"], out)
        if name in SEEDED_DIGESTS:
            table = reference[name]["sha256"] = {}
            for seed in DIGEST_SEEDS:
                with tempfile.TemporaryDirectory(dir=root) as tmp:
                    _run(workload, Path(tmp), seed, env)
                    found = digests(Path(tmp))
                table[str(seed)] = {f: found[f] for f in SEEDED_DIGESTS[name]}
    text = json.dumps(reference, indent=1)
    # one line per innermost list (a CSV row or a column list)
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]",
                  lambda m: "[" + ", ".join(v.strip() for v in m.group(1).split(",")) + "]", text)
    (BENCH_DIR / "reference.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
