"""INI experiment configuration for the command-line tools.

Keys carry their unit in the name (magnetic_field_mT, bin_ns, ...) and
are converted to SI on load.  Every value has a default, so an empty or
absent file describes the calibrated reference experiment.  The resolved
settings are hashed (sha256) and the hash is embedded in all outputs so
a result file can be traced back to its exact inputs.
"""

from __future__ import annotations

import configparser
import hashlib
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .correlations import DetectorConfig
from .cvnoise import NoiseModel
from .lines import AtomicLineTable
from .opo import DEFAULT_OPERATING_OFFSET_HZ, OpoConfig
from .vapor import FilterConfig, HotCellConfig


class ConfigError(ValueError):
    """Bad configuration value, reported with its section and key."""


def _fail(section: str, key: str, message: str):
    raise ConfigError(f"[{section}] {key}: {message}")


# One row per INI key: (section, key, field, default in the key's unit,
# scale to SI), plus an operator and a limit in the key's unit where the
# loader itself bounds the key.  The value takes the default's type (float,
# int, complex, bool or str); only floats are scaled.  Each field names the
# argument the loader passes on, mostly a dataclass field; a dataclass
# checks its own fields, so a lower bound sits only on keys that fill none.
# An upper bound, or a lower one beyond a dataclass's own check, marks
# where the model or its arithmetic stops:
# - magnetic_field_mT within 1 T: the Zeeman shifts are linear in B, off
#   the Breit-Rabi levels by 6.3 GHz at 0.3 T already (ROADMAP item 10);
#   far beyond, the component offsets overflow the lattice's node indices
# - temperature_K up to 961 K, the normal boiling point of rubidium: the
#   vapour-pressure fit is for saturated vapour over the liquid, and the
#   dilute-vapour susceptibility has long stopped holding there
# - bin_ns at least 1e-3, one 1 ps timestamp tick (montecarlo
#   TIMESTAMP_UNIT_S): a finer bin cannot be resolved
# - offset_ns within 1e15 (1e6 s): with bins of at least one tick the
#   offset's bin index stays below 2**60, inside the int64 keys of
#   montecarlo._merged_counts
_KEYS = [
    ("filter", "line_data", "line_data", "", 1),
    ("filter", "center_offset_GHz", "center_offset_hz", np.nan, 1e9),
    ("filter", "magnetic_field_mT", "b_field_t", 4.5, 1e-3, "within", 1000.0),
    ("filter", "temperature_K", "temperature_k", 365.0, 1, "<=", 961.0),
    ("filter", "cell_length_mm", "length_m", 300.0, 1e-3),
    ("filter", "extinction", "extinction", 1.8e-6, 1),
    ("filter", "buffer_fwhm_MHz", "buffer_fwhm_hz", 0.0, 1e6),
    ("hot_cell", "enabled", "enabled", True, 1),
    ("hot_cell", "temperature_K", "temperature_k", 420.0, 1, "<=", 961.0),
    ("hot_cell", "length_mm", "length_m", 100.0, 1e-3),
    ("hot_cell", "buffer_fwhm_MHz", "buffer_fwhm_hz", 200.0, 1e6),
    ("opo", "cavity_decay1_MHz", "gamma1", 6.3, 1e6),
    ("opo", "cavity_decay2_MHz", "gamma2", 2.1, 1e6),
    ("opo", "roundtrip_ns", "roundtrip_s", 1.99, 1e-9),
    ("opo", "fsr_MHz", "fsr_hz", 501.0, 1e6),
    ("opo", "envelope_fwhm_GHz", "envelope_fwhm_hz", 150.0, 1e9),
    ("opo", "pair_rate_hz", "pair_rate_hz", 1e4, 1),
    ("detector", "bin_ns", "bin_s", 1.0, 1e-9, ">=", 1e-3),
    ("detector", "offset_ns", "offset_s", 50.0, 1e-9, "within", 1e15),
    ("detector", "singles1_hz", "r1_hz", 1.5e4, 1),
    ("detector", "singles2_hz", "r2_hz", 1.2e4, 1),
    ("detector", "acquisition_s", "acquisition_s", 1.0, 1),
    ("montecarlo", "duration_s", "duration_s", 1.0, 1, ">", 0),
    ("montecarlo", "seed", "seed", 20260816, 1, ">=", 0),
    ("noise", "transmission_amplitude", "mean_transmission", 0.842 + 0j, 1),
    ("noise", "transmission_noise", "transmission_noise", 0.01 + 0j, 1),
    ("noise", "field_amplitude", "mean_field", 1.0 + 0j, 1),
    ("noise", "field_noise", "field_noise", 0.005 + 0j, 1),
    ("noise", "tnd_points", "tnd_points", 21, 1, ">=", 3),
    ("noise", "squeezing_table", "squeezing_table", "6:0.70, 6:1.0, 3:0.70", 1),
    ("spectrum", "half_span_GHz", "half_span_hz", 20.0, 1e9),
    ("spectrum", "step_MHz", "step_hz", 2.0, 1e6, ">", 0),
    ("optimize", "b_min_mT", "b_min_t", 3.0, 1e-3),
    ("optimize", "b_max_mT", "b_max_t", 6.0, 1e-3),
    ("optimize", "b_points", "b_points", 7, 1, ">=", 1),
    ("optimize", "temperature_min_K", "t_min_k", 350.0, 1, ">", 0),
    ("optimize", "temperature_max_K", "t_max_k", 380.0, 1),
    ("optimize", "temperature_points", "t_points", 7, 1, ">=", 1),
    ("optimize", "half_span_GHz", "half_span_hz", 20.0, 1e9),
    ("optimize", "step_MHz", "step_hz", 2.0, 1e6, ">", 0),
    ("purity", "out_of_band_leakage", "out_of_band_leakage", "0.02", 1),
    ("output", "directory", "directory", "fadofsim_out", 1),
]

_KINDS = {float: "a number", int: "an integer", complex: "a complex number", bool: "a boolean"}
_BOUNDS = {">": operator.gt, ">=": operator.ge, "<=": operator.le,
           "within": lambda value, limit: abs(value) <= limit}


def _read(parser: configparser.ConfigParser, section: str, key: str, default, scale):
    """One key's value in SI units; the default when the file does not set it."""
    # a section absent from the file still sees the [DEFAULT] keys
    name = section if parser.has_section(section) else parser.default_section
    kind = type(default)
    if not parser.has_option(name, key):
        return default * scale if kind is float else default
    try:
        raw = parser.get(name, key).strip()
    except configparser.InterpolationError as exc:
        _fail(section, key, str(exc))
    if kind is str:
        return raw
    try:
        if kind is bool:
            return parser.BOOLEAN_STATES[raw.lower()]
        if kind is int:
            return int(raw)
        value = complex(raw.replace(" ", "")) if kind is complex else float(raw) * scale
    except (ValueError, KeyError):
        _fail(section, key, f"not {_KINDS[kind]}: {raw!r}")
    if not np.isfinite(value):
        _fail(section, key, "not a finite number")
    return value


def _read_keys(parser: configparser.ConfigParser) -> tuple[dict, dict]:
    """Every ``_KEYS`` value by section and field, and the resolved strings."""
    values: dict = {section: {} for section, *_ in _KEYS}
    unknown = set(parser.sections()) - set(values)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    resolved: dict = {}
    for section, key, name, default, scale, *bound in _KEYS:
        value = _read(parser, section, key, default, scale)
        if bound and not _BOUNDS[bound[0]](value, bound[1] * scale):
            _fail(section, key, f"must be {bound[0]} {'+-' * (bound[0] == 'within')}{bound[1]:g}")
        values[section][name] = value
        resolved[f"{section}.{key}"] = value if isinstance(value, str) else repr(value)
    # configparser lower-cases option names and copies [DEFAULT] into every
    # section, so a [DEFAULT] key only has to be read by some section
    known = {(section, key.lower()) for section, key, *_ in _KEYS}
    defaults = set(parser.defaults())
    for section in parser.sections():
        for key in sorted(set(parser.options(section)) - defaults):
            if (section, key) not in known:
                _fail(section, key, "unknown key")
    for key in sorted(defaults - {key for _, key in known}):
        _fail("DEFAULT", key, "unknown key")
    return values, resolved


def _build(section: str, cls, **fields):
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


@dataclass
class ExperimentConfig:
    """All settings of one experiment run, resolved to SI units."""

    filter: FilterConfig
    hot_cell: HotCellConfig
    hot_cell_enabled: bool
    opo: OpoConfig
    detector: DetectorConfig
    noise: NoiseModel
    # frequency grid for spectra and pair-transmission averaging
    grid_half_span_hz: float
    grid_step_hz: float
    # Monte Carlo
    mc_duration_s: float
    seed: int
    # optimizer scan ranges
    optimize_b_t: np.ndarray
    optimize_temperatures_k: np.ndarray
    optimize_half_span_hz: float
    optimize_step_hz: float
    # purity bookkeeping: fraction of detected pairs that bypass the
    # filter out of band; None selects the extinction-based estimate
    out_of_band_leakage: float | None
    # (squeezing dB, power transmission) pairs for the loss table
    squeezing_table: list[tuple[float, float]]
    noise_tnd_points: int
    output_dir: str
    config_hash: str
    meta: dict = field(default_factory=dict)


def _parse_squeezing_table(raw: str) -> list[tuple[float, float]]:
    pairs = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) != 2:
            _fail("noise", "squeezing_table", f"expected 'dB:transmission' pairs, got {item!r}")
        try:
            s_db, t = float(parts[0]), float(parts[1])
        except ValueError:
            _fail("noise", "squeezing_table", f"not numeric: {item!r}")
        if not (0.0 <= t <= 1.0 and 0.0 <= s_db < np.inf):
            _fail("noise", "squeezing_table", f"entry out of range: {s_db}:{t}")
        pairs.append((s_db, t))
    return pairs


def _scan(key: str, low: float, high: float, points: int) -> np.ndarray:
    """``points`` scan values from ``low`` to ``high``; a count numpy cannot allocate names ``key``."""
    try:
        return np.linspace(low, high, points)
    except (ValueError, MemoryError) as exc:
        _fail("optimize", key, str(exc))


def load_config(path: str | Path | None = None) -> ExperimentConfig:
    """Read an INI file (or defaults when ``path`` is None)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    values, resolved = _read_keys(parser)
    flt, hot, opo, det, mc, noise, spec, opt = (values[section] for section in (
        "filter", "hot_cell", "opo", "detector", "montecarlo", "noise", "spectrum", "optimize"))
    line_data = flt.pop("line_data")
    if line_data:
        table_path = Path(line_data)
        if not table_path.is_absolute() and path is not None:
            table_path = path.parent / table_path
        if not table_path.is_file():
            _fail("filter", "line_data", f"file not found: {table_path}")
        try:
            table = AtomicLineTable.from_file(table_path)
        except (OSError, ValueError) as exc:
            _fail("filter", "line_data", f"{table_path}: {exc}")
    else:
        table = AtomicLineTable.rubidium_d1()
    # operating point (pair degeneracy frequency); unset selects the default
    center_off = flt.pop("center_offset_hz")
    if np.isnan(center_off):
        center_off = DEFAULT_OPERATING_OFFSET_HZ
    flt = _build("filter", FilterConfig, table=table, **flt)
    hot_enabled = hot.pop("enabled")
    hot = _build("hot_cell", HotCellConfig, table=table, **hot)
    # the decay rates are read as frequencies; OpoConfig takes angular rates
    for name in ("gamma1", "gamma2"):
        opo[name] = 2.0 * np.pi * opo[name]
    opo["degenerate_frequency_hz"] = table.reference_frequency_hz + center_off
    opo = _build("opo", OpoConfig, **opo)
    det = _build("detector", DetectorConfig, **det)
    for key, rate in (("singles1_hz", det.r1_hz), ("singles2_hz", det.r2_hz)):
        if rate < opo.pair_rate_hz:
            _fail("detector", key, "channel singles rate cannot be below the pair rate")
    tnd_points = noise.pop("tnd_points")
    table_raw = noise.pop("squeezing_table")
    noise = _build("noise", NoiseModel, **noise)
    squeezing_table = _parse_squeezing_table(table_raw)
    for section, grid in (("spectrum", spec), ("optimize", opt)):
        if not grid["step_hz"] <= grid["half_span_hz"]:
            _fail(section, "half_span_GHz", "must be at least the step")
    if opt["b_min_t"] > opt["b_max_t"]:
        _fail("optimize", "b_min_mT", "minimum exceeds maximum")
    if opt["t_min_k"] > opt["t_max_k"]:
        _fail("optimize", "temperature_min_K", "minimum exceeds maximum")
    leak_raw = values["purity"]["out_of_band_leakage"]
    if leak_raw.lower() == "auto":
        leakage = None
    else:
        try:
            leakage = float(leak_raw)
        except ValueError:
            _fail("purity", "out_of_band_leakage", f"expected a number or 'auto': {leak_raw!r}")
        if not 0.0 <= leakage < 1.0:
            _fail("purity", "out_of_band_leakage", "must lie in [0, 1)")
    digest = hashlib.sha256(
        "\n".join(f"{k}={v}" for k, v in sorted(resolved.items())).encode()
    ).hexdigest()
    return ExperimentConfig(
        filter=flt,
        hot_cell=hot,
        hot_cell_enabled=hot_enabled,
        opo=opo,
        detector=det,
        noise=noise,
        grid_half_span_hz=spec["half_span_hz"],
        grid_step_hz=spec["step_hz"],
        mc_duration_s=mc["duration_s"],
        seed=mc["seed"],
        optimize_b_t=_scan("b_points", opt["b_min_t"], opt["b_max_t"], opt["b_points"]),
        optimize_temperatures_k=_scan("temperature_points", opt["t_min_k"], opt["t_max_k"],
                                      opt["t_points"]),
        optimize_half_span_hz=opt["half_span_hz"],
        optimize_step_hz=opt["step_hz"],
        out_of_band_leakage=leakage,
        squeezing_table=squeezing_table,
        noise_tnd_points=tnd_points,
        output_dir=values["output"]["directory"],
        config_hash=digest,
        meta={"resolved": resolved},
    )
