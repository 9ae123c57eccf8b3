"""Run the fadofsim CLI in-process with timing spans around its layers.

Usage (from the repository root, with ``src`` on PYTHONPATH)::

    python3 bench/tracer.py SPANS.json -- [fadofsim arguments]

The script imports ``fadofsim.cli``, wraps the public functions of each
module the CLI reaches (every module binding of each function, so that
``cli.fadof_transmission``, ``pairs.fadof_transmission`` and
``vapor.fadof_transmission`` all record), calls ``fadofsim.cli.main`` and
exits with its status.  Spans are kept in memory and written to
SPANS.json when the command ends.  A span records its name, start, end,
parent span, thread id and the work counts of its call.  Work submitted
to a thread pool inherits the submitter's span, so worker-thread spans of
``optimize --threads 2`` attach to the ``pairs.optimize_filter`` span.

``layer_stats`` turns such a span list into per-layer numbers; it is
imported by ``run.py`` and has no side effects.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path


# ---- work counts taken at each boundary: (args, kwargs, result) -> dict

def _points(position):
    def count(args, kwargs, result):
        import numpy as np

        return {"points": int(np.size(args[position]))}
    return count


def _scan(args, kwargs, result):
    points = len(args[2]) * len(args[3])
    return {"points": points, "valid": points - int(result.meta["n_invalid"])}


def _events_out(args, kwargs, result):
    return {"events": int(result.channel1_s.size + result.channel2_s.size)}


def _events_in(args, kwargs, result):
    stream = args[0]
    return {"events": int(stream.channel1_s.size + stream.channel2_s.size)}


def _csv(rows):
    def count(args, kwargs, result):
        return {"rows": int(rows(args[0])), "bytes": os.path.getsize(args[1])}
    return count


def _stream_bytes(args, kwargs, result):
    directory = Path(args[1])
    prefix = kwargs.get("prefix", args[2] if len(args) > 2 else "timestamps")
    names = list(result["files"].values()) + [f"{prefix}_meta.json"]
    return {"bytes": sum(os.path.getsize(directory / n) for n in names)}


def _json_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _chi_square(args, kwargs, result):
    return {"p_value": result["p_value"]}


# The CLI commands the workloads run; each gets a span "cli.<command>".
COMMANDS = ("optimize", "simulate", "spectrum")

# Work counts a span may carry besides its call count.
WORK_COUNTS = ("points", "valid", "events", "rows", "bytes")

# (owner, attribute, span name, work counter).  The owner is a module or a
# class inside one; every fadofsim module attribute bound to the same
# function object is rebound to the wrapper too.
TARGETS = [
    ("config", "load_config", "config.load_config", None),
    ("susceptibility", "complex_voigt", "susceptibility.complex_voigt", _points(0)),
    ("susceptibility", "complex_susceptibility", "susceptibility.complex_susceptibility", _points(0)),
    ("vapor", "fadof_transmission", "vapor.fadof_transmission", _points(1)),
    ("spectrum", "filter_metrics", "spectrum.filter_metrics", None),
    ("spectrum.Spectrum", "to_csv", "spectrum.Spectrum.to_csv", _csv(lambda s: s.frequency_hz.size)),
    ("opo", "mode_comb", "opo.mode_comb", None),
    ("opo", "output_spectrum", "opo.output_spectrum", _points(2)),
    ("pairs", "optimize_filter", "pairs.optimize_filter", _scan),
    ("pairs", "pair_transmission_map", "pairs.pair_transmission_map", None),
    ("pairs.OptimizationResult", "to_csv", "pairs.OptimizationResult.to_csv",
     _csv(lambda r: r.b_values_t.size * r.temperatures_k.size)),
    ("correlations", "detected_histogram", "correlations.detected_histogram", None),
    ("correlations.Histogram", "to_csv", "correlations.Histogram.to_csv", _csv(lambda h: h.counts.size)),
    ("montecarlo", "generate_pair_events", "montecarlo.generate_pair_events", _events_out),
    ("montecarlo", "mc_histogram", "montecarlo.mc_histogram", _events_in),
    ("montecarlo", "write_stream", "montecarlo.write_stream", _stream_bytes),
    ("cli", "_chi_square", "cli.chi_square", _chi_square),
    ("cli", "_write_json", "cli.write_json", _json_bytes),
    *(("cli", f"cmd_{command}", f"cli.{command}", None) for command in COMMANDS),
]

# Spans that write output files; their sum is the ``writers`` layer.
WRITERS = (
    "spectrum.Spectrum.to_csv",
    "pairs.OptimizationResult.to_csv",
    "correlations.Histogram.to_csv",
    "montecarlo.write_stream",
    "cli.write_json",
)


class Tracer:
    """In-memory span recorder; the current span follows the context."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._current = contextvars.ContextVar("span", default=None)

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._current.get()
            token = self._current.set(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._current.reset(token)
            record = {"id": span_id, "name": name, "parent": parent,
                      "thread": threading.get_ident(), "start": start, "end": end}
            if count is not None:
                record.update(count(args, kwargs, result))
            self.spans.append(record)
            return result
        return traced

    def record(self, name, start, end):
        self.spans.append({"id": next(self._ids), "name": name, "parent": None,
                           "thread": threading.get_ident(), "start": start, "end": end})


def _propagate_context_to_pool():
    """Run work submitted to a thread pool in the submitter's context."""
    from concurrent.futures import ThreadPoolExecutor

    submit = ThreadPoolExecutor.submit

    def submit_in_context(self, fn, /, *args, **kwargs):
        return submit(self, contextvars.copy_context().run, fn, *args, **kwargs)

    ThreadPoolExecutor.submit = submit_in_context


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind it in every fadofsim module."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "fadofsim" or n.startswith("fadofsim."))]
    for owner_path, attr, name, count in TARGETS:
        owner = sys.modules["fadofsim." + owner_path.split(".")[0]]
        for part in owner_path.split(".")[1:]:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, count)
        setattr(owner, attr, wrapper)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    _propagate_context_to_pool()


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def layer_stats(spans: list[dict], threads: int) -> dict:
    """Per-layer numbers of one traced command.

    For each span name: ``calls``, ``time_s`` (summed duration),
    ``self_s`` (duration not covered by child spans), ``first_call_s``
    and the summed work counts.  Derived entries: ``writers.*``,
    ``pairs.optimize_filter.valid_frac`` and ``.busy_frac`` (summed
    duration of the scan's child spans over threads x scan span), the
    command's own code as ``cli.command.self_s``, the import time
    ``setup.import_s`` and the sum of all self times ``trace.self_sum_s``.
    ``first_call_s`` is kept only for layers called more than once.
    """
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    stats: dict = {}
    self_sum = 0.0
    for s in sorted(spans, key=lambda s: s["start"]):
        duration = s["end"] - s["start"]
        covered = _union_length(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], ()))
        own = duration - covered
        self_sum += own
        entry = stats.setdefault(s["name"], {"calls": 0, "time_s": 0.0, "self_s": 0.0,
                                             "first_call_s": duration})
        entry["calls"] += 1
        entry["time_s"] += duration
        entry["self_s"] += own
        for key in WORK_COUNTS:
            if key in s:
                entry[key] = entry.get(key, 0) + s[key]
        if "p_value" in s:
            entry.setdefault("p_values", []).append(s["p_value"])
        if s["name"] == "pairs.optimize_filter":
            busy = sum(c["end"] - c["start"] for c in children.get(s["id"], ()))
            entry["busy_frac"] = busy / (threads * duration)
    flat = {f"{name}.{key}": value for name, entry in stats.items()
            for key, value in entry.items()
            if key != "p_values" and (key != "first_call_s" or entry["calls"] > 1)}
    scan = stats.get("pairs.optimize_filter")
    if scan:
        flat["pairs.optimize_filter.valid_frac"] = scan["valid"] / scan["points"]
    chi = stats.get("cli.chi_square")
    if chi:
        if chi["calls"] > 1:  # the first call pays the lazy scipy.stats import
            flat["cli.chi_square.steady_call_s"] = (
                (chi["time_s"] - chi["first_call_s"]) / (chi["calls"] - 1))
        for label, p in zip(("on", "off"), chi["p_values"]):
            flat[f"cli.chi_square.p_{label}"] = p
    flat["writers.time_s"] = sum(stats[w]["time_s"] for w in WRITERS if w in stats)
    flat["writers.bytes"] = sum(stats[w].get("bytes", 0) for w in WRITERS if w in stats)
    flat["cli.command.self_s"] = sum(stats[f"cli.{c}"]["self_s"] for c in COMMANDS
                                     if f"cli.{c}" in stats)
    flat["setup.import_s"] = stats["setup.import"]["time_s"] if "setup.import" in stats else 0.0
    flat["trace.self_sum_s"] = self_sum
    return flat


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- [fadofsim arguments]", file=sys.stderr)
        return 2
    tracer = Tracer()
    import fadofsim.cli as cli

    tracer.record("setup.import", start, time.perf_counter())
    install(tracer)
    try:
        return tracer.wrap("cli.main", cli.main)(argv[2:])
    finally:
        wall = time.perf_counter() - start
        with open(argv[0], "w") as fh:
            json.dump({"wall_s": wall, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
