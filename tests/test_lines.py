"""Line-table parsing, validation, and Zeeman substructure."""

import numpy as np
import pytest

from fadofsim.constants import ATOMIC_MASS, BOHR_MAGNETON, PLANCK
from fadofsim.lines import (
    AtomicLineTable,
    LineComponent,
    LineDataError,
    zeeman_components,
)

from _oracles import wigner_3j

MINIMAL_TABLE = """
format_version 1
reference_frequency_hz 3.771e14
natural_linewidth_fwhm_hz 5.75e6
isotope A abundance 0.6 mass_amu 85.0 nuclear_spin 2.5
isotope B abundance 0.4 mass_amu 87.0 nuclear_spin 1.5
line A 2 3 1.0e9 0.7 -0.3 0.1
line B 1 1 -2.0e9 0.3 -0.5 -0.2
"""


def test_bundled_table_loads_and_validates():
    t = AtomicLineTable.rubidium_d1()
    assert t.reference_frequency_hz == pytest.approx(377.107e12, rel=1e-4)
    assert t.natural_fwhm_hz == pytest.approx(5.75e6)
    assert set(t.isotopes) == {"Rb85", "Rb87"}
    assert t.isotopes["Rb85"].abundance == pytest.approx(0.7217)
    assert t.isotopes["Rb87"].abundance == pytest.approx(0.2783)
    assert sum(i.abundance for i in t.isotopes.values()) == pytest.approx(1.0, abs=1e-9)
    assert t.isotopes["Rb85"].nuclear_spin == 2.5
    assert t.isotopes["Rb87"].nuclear_spin == 1.5
    assert len(t.lines) == 8
    # D1: both ground hyperfine levels couple to both excited levels
    for iso, fg_pair in (("Rb85", (2, 3)), ("Rb87", (1, 2))):
        combos = {(ln.fg, ln.fe) for ln in t.lines if ln.isotope == iso}
        assert combos == {(a, b) for a in fg_pair for b in fg_pair}
    # total strength out of each ground level scales with its multiplicity
    for iso, fg_pair in (("Rb85", (2, 3)), ("Rb87", (1, 2))):
        sums = {
            fg: sum(ln.strength for ln in t.lines if ln.isotope == iso and ln.fg == fg)
            for fg in fg_pair
        }
        ratio = sums[fg_pair[1]] / sums[fg_pair[0]]
        expected = (2 * fg_pair[1] + 1) / (2 * fg_pair[0] + 1)
        assert ratio == pytest.approx(expected, rel=1e-6)


def test_minimal_table_round_trip():
    t = AtomicLineTable.from_text(MINIMAL_TABLE)
    assert t.reference_frequency_hz == 3.771e14
    assert t.isotopes["A"].mass_kg == pytest.approx(85.0 * ATOMIC_MASS)
    assert len(t.lines) == 2
    assert t.lines[0].offset_hz == 1.0e9


def test_from_file(tmp_path):
    p = tmp_path / "lines.txt"
    p.write_text(MINIMAL_TABLE)
    t = AtomicLineTable.from_file(p)
    assert len(t.lines) == 2


def test_comments_and_blank_lines_ignored():
    text = MINIMAL_TABLE.replace(
        "format_version 1", "# leading comment\n\nformat_version 1  # trailing"
    )
    t = AtomicLineTable.from_text(text)
    assert len(t.lines) == 2


@pytest.mark.parametrize(
    "mangle,match",
    [
        (lambda s: s.replace("format_version 1", "format_version 2"), "format_version"),
        (lambda s: s.replace("format_version 1\n", ""), "format_version"),
        (lambda s: s.replace("reference_frequency_hz 3.771e14\n", ""), "missing"),
        (lambda s: s + "\nmystery 12", "unknown statement"),
        (lambda s: s + "\nline A 2 3 0.0 0.5", "malformed"),
        (lambda s: s + "\nline C 2 3 0.0 0.5 0.1 0.1", "unknown isotope"),
        (lambda s: s.replace("0.7 -0.3", "-0.7 -0.3"), "positive"),
        (lambda s: s.replace("line A 2 3", "line A 1 3"), "quantum numbers"),
        (lambda s: s.replace("abundance 0.6", "abundance 0.7"), "abundances"),
    ],
)
def test_malformed_tables_rejected(mangle, match):
    with pytest.raises(LineDataError, match=match):
        AtomicLineTable.from_text(mangle(MINIMAL_TABLE))


# a bad record of each kind, as (text, replacement) in MINIMAL_TABLE, and
# the message that names its line
BAD_RECORDS = [
    ("nuclear_spin 2.5", "", "line 5: isotope record has no 'nuclear_spin'"),
    ("format_version 1", "format_version 2", "line 2: unsupported format_version 2"),
    ("3.771e14", "abc", "line 3: could not convert string to float: 'abc'"),
    ("-0.3 0.1", "-0.3", "line 7: malformed line record, 7 fields, not 8"),
    ("format_version 1", "format_version", "line 2: format_version record has no value"),
]


@pytest.mark.parametrize("old, new, message", BAD_RECORDS)
def test_bad_records_name_their_line(old, new, message):
    with pytest.raises(LineDataError) as info:
        AtomicLineTable.from_text(MINIMAL_TABLE.replace(old, new))
    assert str(info.value).startswith(message)


def test_empty_table_rejected():
    header = "\n".join(MINIMAL_TABLE.strip().splitlines()[:5])
    with pytest.raises(LineDataError, match="no transitions"):
        AtomicLineTable.from_text(header)


def test_zeeman_polarization_index_validated():
    line = AtomicLineTable.rubidium_d1().lines[0]
    with pytest.raises(ValueError, match="polarization"):
        zeeman_components(line, 1e-3, 0)


def test_zeeman_zero_field_reproduces_parent_line():
    for line in AtomicLineTable.rubidium_d1().lines:
        for q in (+1, -1):
            parts = zeeman_components(line, 0.0, q)
            assert np.all(parts.offsets_hz == 0.0)
            assert parts.weights.sum() == pytest.approx(line.strength, rel=1e-12)
            assert np.all(parts.weights > 0)


def test_zeeman_shifts_linear_in_field():
    line = AtomicLineTable.rubidium_d1().lines[1]
    one = zeeman_components(line, 2e-3, +1)
    two = zeeman_components(line, 4e-3, +1)
    assert np.allclose(two.offsets_hz, 2.0 * one.offsets_hz, rtol=1e-12)
    assert np.array_equal(one.weights, two.weights)


def test_zeeman_shift_magnitude():
    # single stretched sublevel m -> m+1 of a known line, against the
    # weak-field formula mu_B*B*(gF'*(m+1) - gF*m)/h evaluated by hand
    line = LineComponent("A", 1.0, 2.0, 0.0, 1.0, -0.5, 0.25)
    b = 3e-3
    parts = zeeman_components(line, b, +1)
    scale = BOHR_MAGNETON * b / PLANCK
    m = np.arange(-1.0, 2.0)
    expected = scale * (0.25 * (m + 1) - (-0.5) * m)
    assert np.allclose(parts.offsets_hz, expected, rtol=1e-12)


def test_zeeman_weights_match_angular_momentum_oracle():
    """Sublevel weights against exact Wigner 3j ratios."""
    for fg, fe in [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)]:
        line = LineComponent("A", float(fg), float(fe), 0.0, 1.0, 0.1, 0.2)
        for q in (+1, -1):
            parts = zeeman_components(line, 1e-3, q)
            m_ground = np.arange(-fg, fg + 1.0)
            oracle = np.array(
                [wigner_3j(fg, 1, fe, m, q, -(m + q)) ** 2 for m in m_ground]
            )
            oracle = oracle[oracle > 0]
            oracle /= oracle.sum()
            assert parts.weights.size == oracle.size
            assert np.allclose(parts.weights, oracle, atol=1e-12)


def test_zeeman_sigma_pair_mirror_symmetry():
    # sigma+ weights at m equal sigma- weights at -m; shifts negate
    for line in AtomicLineTable.rubidium_d1().lines:
        plus = zeeman_components(line, 2.5e-3, +1)
        minus = zeeman_components(line, 2.5e-3, -1)
        assert np.allclose(plus.weights, minus.weights[::-1], rtol=1e-12)
        assert np.allclose(plus.offsets_hz, -minus.offsets_hz[::-1], rtol=1e-12)


def test_forbidden_line_rejected():
    line = LineComponent("A", 0.0, 0.0, 0.0, 1.0, 0.0, 0.1)
    with pytest.raises(LineDataError, match="no allowed"):
        zeeman_components(line, 1e-3, +1)
