"""Atomic line data: file format, validation, and Zeeman substructure.

The line table lives in a versioned plain-text file.  Header statements
give the reference optical frequency, the natural linewidth, and one
``isotope`` record per species (abundance, mass, nuclear spin).  Each
``line`` record is one hyperfine component: isotope, ground F, excited F,
frequency offset from the reference, relative strength, and the
weak-field Lande g-factors of both levels.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constants import BOHR_MAGNETON, PLANCK, ATOMIC_MASS

_SUPPORTED_VERSIONS = (1,)


class LineDataError(ValueError):
    """Raised when a line-data file is malformed or inconsistent."""


@dataclass(frozen=True)
class Isotope:
    name: str
    abundance: float
    mass_kg: float
    nuclear_spin: float


@dataclass(frozen=True)
class LineComponent:
    """One hyperfine transition Fg -> Fe of one isotope."""

    isotope: str
    fg: float
    fe: float
    offset_hz: float
    strength: float
    gf_ground: float
    gf_excited: float


@dataclass(frozen=True)
class ZeemanComponents:
    """Magnetic substructure of one hyperfine line for one circular polarization.

    ``offsets_hz`` are shifts added to the parent line offset; ``weights``
    sum to the parent line strength.
    """

    offsets_hz: np.ndarray
    weights: np.ndarray


class AtomicLineTable:
    def __init__(
        self,
        reference_frequency_hz: float,
        natural_fwhm_hz: float,
        isotopes: dict[str, Isotope],
        lines: list[LineComponent],
    ):
        self.reference_frequency_hz = reference_frequency_hz
        self.natural_fwhm_hz = natural_fwhm_hz
        self.isotopes = isotopes
        self.lines = lines
        self._validate()

    def _validate(self) -> None:
        if not self.lines:
            raise LineDataError("line table contains no transitions")
        if self.reference_frequency_hz <= 0 or self.natural_fwhm_hz <= 0:
            raise LineDataError("reference frequency and linewidth must be positive")
        total = sum(iso.abundance for iso in self.isotopes.values())
        if abs(total - 1.0) > 1e-6:
            raise LineDataError(f"isotope abundances sum to {total}, expected 1")
        for ln in self.lines:
            if ln.isotope not in self.isotopes:
                raise LineDataError(f"line references unknown isotope {ln.isotope!r}")
            if ln.strength <= 0:
                raise LineDataError("line strengths must be positive")
            if ln.fg < 0 or ln.fe < 0 or abs(ln.fg - ln.fe) > 1:
                raise LineDataError(f"invalid F quantum numbers {ln.fg} -> {ln.fe}")

    @classmethod
    def from_text(cls, text: str) -> "AtomicLineTable":
        """Parse a line table; a bad record raises ``LineDataError`` naming its line."""
        version = None
        ref = None
        fwhm = None
        isotopes: dict[str, Isotope] = {}
        lines: list[LineComponent] = []
        for number, raw in enumerate(text.splitlines(), 1):
            stripped = raw.split("#", 1)[0].strip()
            if not stripped:
                continue
            tok = stripped.split()
            key = tok[0]
            try:
                if key == "format_version":
                    version = int(tok[1])
                    if version not in _SUPPORTED_VERSIONS:
                        raise LineDataError(f"unsupported format_version {version}")
                elif key == "reference_frequency_hz":
                    ref = float(tok[1])
                elif key == "natural_linewidth_fwhm_hz":
                    fwhm = float(tok[1])
                elif key == "isotope":
                    fields = dict(zip(tok[2::2], tok[3::2]))
                    isotopes[tok[1]] = Isotope(
                        name=tok[1],
                        abundance=float(fields["abundance"]),
                        mass_kg=float(fields["mass_amu"]) * ATOMIC_MASS,
                        nuclear_spin=float(fields["nuclear_spin"]),
                    )
                elif key == "line":
                    if len(tok) != 8:
                        raise LineDataError(f"malformed line record, {len(tok)} fields, not 8")
                    lines.append(
                        LineComponent(
                            isotope=tok[1],
                            fg=float(tok[2]),
                            fe=float(tok[3]),
                            offset_hz=float(tok[4]),
                            strength=float(tok[5]),
                            gf_ground=float(tok[6]),
                            gf_excited=float(tok[7]),
                        )
                    )
                else:
                    raise LineDataError(f"unknown statement {key!r}")
            except IndexError as exc:
                raise LineDataError(f"line {number}: {key} record has no value") from exc
            except KeyError as exc:
                raise LineDataError(f"line {number}: {key} record has no {exc}") from exc
            except ValueError as exc:
                raise LineDataError(f"line {number}: {exc}: {stripped!r}") from exc
        if version is None:
            raise LineDataError("missing format_version")
        if ref is None or fwhm is None:
            raise LineDataError("missing reference frequency or natural linewidth")
        return cls(ref, fwhm, isotopes, lines)

    @classmethod
    def from_file(cls, path: str | Path) -> "AtomicLineTable":
        return cls.from_text(Path(path).read_text())

    @classmethod
    def rubidium_d1(cls) -> "AtomicLineTable":
        """The bundled rubidium D1 table."""
        res = importlib.resources.files("fadofsim.data").joinpath("rb_d1_lines.txt")
        return cls.from_text(res.read_text())


def _sigma_weights(fg: float, fe: float, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Relative strengths of m -> m+q sublevel transitions of one line.

    Standard dipole transition-strength ratios for a, q = +-1; any common
    (F, F')-dependent factor cancels in the normalization applied by the
    caller.  Returns (m_ground values, unnormalized weights).
    """
    m = np.arange(-fg, fg + 1)
    me = m + q
    if fe == fg + 1:
        w = (fe + q * me) * (fe + q * me - 1)
    elif fe == fg:
        w = (fg - q * m) * (fg + q * m + 1)
    elif fe == fg - 1:
        w = (fg - q * m) * (fg - q * m - 1)
    else:
        raise LineDataError(f"dipole-forbidden line F={fg} -> F'={fe}")
    valid = (np.abs(me) <= fe) & (w > 0)
    w = np.where(valid, w, 0.0).astype(float)
    if w.sum() <= 0:
        raise LineDataError(f"no allowed sublevel transitions for F={fg} -> F'={fe}")
    return m, w


def zeeman_components(line: LineComponent, b_field_t: float, q: int) -> ZeemanComponents:
    """Split one hyperfine line into its sigma+ (q=+1) or sigma- (q=-1) pieces.

    Weak-field linear Zeeman shifts: each ground sublevel m couples to
    m+q, shifted by mu_B*B*(gF'*(m+q) - gF*m)/h.  Weights sum to the
    parent line strength, so at B=0 both polarizations reproduce the
    unsplit line exactly.
    """
    if q not in (-1, 1):
        raise ValueError("polarization index q must be +1 or -1")
    m, w = _sigma_weights(line.fg, line.fe, q)
    keep = w > 0
    m, w = m[keep], w[keep]
    shifts = (BOHR_MAGNETON * b_field_t / PLANCK) * (
        line.gf_excited * (m + q) - line.gf_ground * m
    )
    return ZeemanComponents(offsets_hz=shifts, weights=line.strength * w / w.sum())
