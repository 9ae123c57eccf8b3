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


_BOOLEANS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


class _Section:
    """Typed reader for one INI section; remembers which keys were read."""

    def __init__(self, parser: configparser.ConfigParser, name: str, resolved: dict):
        self.parser = parser
        self.name = name
        self.resolved = resolved

    def _raw(self, key: str):
        if self.parser.has_option(self.name, key):
            return self.parser.get(self.name, key).strip()
        return None

    def _typed(self, key: str, default, convert, kind: str):
        raw = self._raw(key)
        if raw is None:
            value = default
        else:
            try:
                value = convert(raw)
            except (ValueError, KeyError):
                _fail(self.name, key, f"not {kind}: {raw!r}")
        self.resolved[f"{self.name}.{key}"] = repr(value)
        return value

    def float(self, key: str, default: float, scale: float = 1.0) -> float:
        return self._typed(key, default * scale, lambda raw: float(raw) * scale, "a number")

    def int(self, key: str, default: int) -> int:
        return self._typed(key, default, int, "an integer")

    def complex(self, key: str, default: complex) -> complex:
        return self._typed(
            key, complex(default), lambda raw: complex(raw.replace(" ", "")), "a complex number"
        )

    def bool(self, key: str, default: bool) -> bool:
        return self._typed(key, default, lambda raw: _BOOLEANS[raw.lower()], "a boolean")

    def string(self, key: str, default: str) -> str:
        raw = self._raw(key)
        value = default if raw is None else raw
        self.resolved[f"{self.name}.{key}"] = value
        return value


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
    source_path: str | None
    meta: dict = field(default_factory=dict)


_KNOWN_SECTIONS = {
    "filter",
    "hot_cell",
    "opo",
    "detector",
    "montecarlo",
    "noise",
    "spectrum",
    "optimize",
    "purity",
    "output",
}


def _parse_squeezing_table(raw: str, section: str, key: str) -> list[tuple[float, float]]:
    pairs = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) != 2:
            _fail(section, key, f"expected 'dB:transmission' pairs, got {item!r}")
        try:
            s, t = float(parts[0]), float(parts[1])
        except ValueError:
            _fail(section, key, f"not numeric: {item!r}")
        pairs.append((s, t))
    return pairs


def load_config(path: str | Path | None = None) -> ExperimentConfig:
    """Read an INI file (or defaults when ``path`` is None)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    source = None
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
        source = str(path)
    unknown = set(parser.sections()) - _KNOWN_SECTIONS
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    resolved: dict = {}

    sec = _Section(parser, "filter", resolved)
    line_data = sec.string("line_data", "")
    if line_data:
        table_path = Path(line_data)
        if not table_path.is_absolute() and source is not None:
            table_path = Path(source).parent / table_path
        if not table_path.is_file():
            _fail("filter", "line_data", f"file not found: {table_path}")
        table = AtomicLineTable.from_file(table_path)
    else:
        table = AtomicLineTable.rubidium_d1()
    # operating point (pair degeneracy frequency); unset selects the default
    center_off = sec.float("center_offset_GHz", np.nan, 1e9)
    if np.isnan(center_off):
        center_off = DEFAULT_OPERATING_OFFSET_HZ
    try:
        flt = FilterConfig(
            b_field_t=sec.float("magnetic_field_mT", 4.5, 1e-3),
            temperature_k=sec.float("temperature_K", 365.0),
            length_m=sec.float("cell_length_mm", 300.0, 1e-3),
            extinction=sec.float("extinction", 1.8e-6),
            buffer_fwhm_hz=sec.float("buffer_fwhm_MHz", 0.0, 1e6),
            table=table,
        )
    except ValueError as exc:
        raise ConfigError(f"[filter] {exc}") from exc

    sec = _Section(parser, "hot_cell", resolved)
    hot_enabled = sec.bool("enabled", True)
    try:
        hot = HotCellConfig(
            temperature_k=sec.float("temperature_K", 420.0),
            length_m=sec.float("length_mm", 100.0, 1e-3),
            buffer_fwhm_hz=sec.float("buffer_fwhm_MHz", 200.0, 1e6),
            table=table,
        )
    except ValueError as exc:
        raise ConfigError(f"[hot_cell] {exc}") from exc

    sec = _Section(parser, "opo", resolved)
    try:
        opo = OpoConfig(
            gamma1=2.0 * np.pi * sec.float("cavity_decay1_MHz", 6.3, 1e6),
            gamma2=2.0 * np.pi * sec.float("cavity_decay2_MHz", 2.1, 1e6),
            roundtrip_s=sec.float("roundtrip_ns", 1.99, 1e-9),
            fsr_hz=sec.float("fsr_MHz", 501.0, 1e6),
            envelope_fwhm_hz=sec.float("envelope_fwhm_GHz", 150.0, 1e9),
            degenerate_frequency_hz=table.reference_frequency_hz + center_off,
            pair_rate_hz=sec.float("pair_rate_hz", 1e4),
        )
    except ValueError as exc:
        raise ConfigError(f"[opo] {exc}") from exc

    sec = _Section(parser, "detector", resolved)
    try:
        det = DetectorConfig(
            bin_s=sec.float("bin_ns", 1.0, 1e-9),
            offset_s=sec.float("offset_ns", 50.0, 1e-9),
            r1_hz=sec.float("singles1_hz", 1.5e4),
            r2_hz=sec.float("singles2_hz", 1.2e4),
            acquisition_s=sec.float("acquisition_s", 1.0),
        )
    except ValueError as exc:
        raise ConfigError(f"[detector] {exc}") from exc
    if det.r1_hz < opo.pair_rate_hz or det.r2_hz < opo.pair_rate_hz:
        _fail("detector", "singles1_hz", "channel singles rates cannot be below the pair rate")

    sec = _Section(parser, "montecarlo", resolved)
    duration = sec.float("duration_s", 1.0)
    if duration <= 0:
        _fail("montecarlo", "duration_s", "must be positive")
    seed = sec.int("seed", 20260816)
    if seed < 0:
        _fail("montecarlo", "seed", "must be non-negative")

    sec = _Section(parser, "noise", resolved)
    try:
        noise = NoiseModel(
            mean_transmission=sec.complex("transmission_amplitude", 0.842),
            transmission_noise=sec.complex("transmission_noise", 0.01),
            mean_field=sec.complex("field_amplitude", 1.0),
            field_noise=sec.complex("field_noise", 0.005),
        )
    except ValueError as exc:
        raise ConfigError(f"[noise] {exc}") from exc
    tnd_points = sec.int("tnd_points", 21)
    if tnd_points < 3:
        _fail("noise", "tnd_points", "need at least 3 sweep points")
    table_raw = sec.string("squeezing_table", "6:0.70, 6:1.0, 3:0.70")
    squeezing_table = _parse_squeezing_table(table_raw, "noise", "squeezing_table")
    for s_db, t in squeezing_table:
        if not 0.0 <= t <= 1.0 or s_db < 0:
            _fail("noise", "squeezing_table", f"entry out of range: {s_db}:{t}")

    sec = _Section(parser, "spectrum", resolved)
    half_span = sec.float("half_span_GHz", 20.0, 1e9)
    step = sec.float("step_MHz", 2.0, 1e6)
    if half_span <= 0 or step <= 0 or step > half_span:
        _fail("spectrum", "half_span_GHz", "span and step must be positive, step < span")

    sec = _Section(parser, "optimize", resolved)
    b_min = sec.float("b_min_mT", 3.0, 1e-3)
    b_max = sec.float("b_max_mT", 6.0, 1e-3)
    b_points = sec.int("b_points", 7)
    t_min = sec.float("temperature_min_K", 350.0)
    t_max = sec.float("temperature_max_K", 380.0)
    t_points = sec.int("temperature_points", 7)
    if b_min > b_max:
        _fail("optimize", "b_min_mT", "minimum exceeds maximum")
    if t_min > t_max:
        _fail("optimize", "temperature_min_K", "minimum exceeds maximum")
    if b_points < 1 or t_points < 1:
        _fail("optimize", "b_points", "point counts must be at least 1")
    opt_half_span = sec.float("half_span_GHz", 20.0, 1e9)
    opt_step = sec.float("step_MHz", 2.0, 1e6)

    sec = _Section(parser, "purity", resolved)
    leak_raw = sec.string("out_of_band_leakage", "0.02")
    if leak_raw.lower() == "auto":
        leakage = None
    else:
        try:
            leakage = float(leak_raw)
        except ValueError:
            _fail("purity", "out_of_band_leakage", f"expected a number or 'auto': {leak_raw!r}")
        if not 0.0 <= leakage < 1.0:
            _fail("purity", "out_of_band_leakage", "must lie in [0, 1)")

    sec = _Section(parser, "output", resolved)
    output_dir = sec.string("directory", "fadofsim_out")

    # configparser lower-cases option names and copies [DEFAULT] into every
    # section, so a [DEFAULT] key only has to be read by some section
    known = {name.lower() for name in resolved}
    defaults = set(parser.defaults())
    for name in parser.sections():
        for key in sorted(set(parser.options(name)) - defaults):
            if f"{name}.{key}" not in known:
                _fail(name, key, "unknown key")
    for key in sorted(defaults):
        if not any(name.endswith(f".{key}") for name in known):
            _fail("DEFAULT", key, "unknown key")

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
        grid_half_span_hz=half_span,
        grid_step_hz=step,
        mc_duration_s=duration,
        seed=seed,
        optimize_b_t=np.linspace(b_min, b_max, b_points),
        optimize_temperatures_k=np.linspace(t_min, t_max, t_points),
        optimize_half_span_hz=opt_half_span,
        optimize_step_hz=opt_step,
        out_of_band_leakage=leakage,
        squeezing_table=squeezing_table,
        noise_tnd_points=tnd_points,
        output_dir=output_dir,
        config_hash=digest,
        source_path=source,
        meta={"resolved": resolved},
    )
