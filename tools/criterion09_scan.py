"""Measurements behind the standing failure of acceptance criterion 9.

Criterion 9 (``tests/test_acceptance.py``) wants the filter peak within
-2.7 +- 0.5 GHz of the line-table reference, together with the transmission,
width and out-of-band boxes.  This script prints, with the current model:

* the four box values of the default cell, of two pure-85Rb cells and of a
  pure-87Rb cell at the default 4.5 mT;
* the largest transmission anywhere in the position box for a
  natural-abundance cell over B 3-9 mT, 20-300 mm and 330-400 K (a coarse
  scan, then a fine one around the coarse maximum);
* the four highest transmission windows of the default spectrum.

Run from the repository root (about 30 s on one core)::

    PYTHONPATH=src python3 tools/criterion09_scan.py
"""

import itertools
from dataclasses import replace

import numpy as np

from fadofsim.lines import AtomicLineTable
from fadofsim.spectrum import filter_metrics, make_frequency_grid
from fadofsim.vapor import FilterConfig, fadof_transmission

REF = FilterConfig().table.reference_frequency_hz
BOX_HZ = (-3.2e9, -2.2e9)


def pure(isotope):
    """The bundled line table with every atom of one isotope."""
    t = AtomicLineTable.rubidium_d1()
    isotopes = {
        name: replace(iso, abundance=float(name == isotope)) for name, iso in t.isotopes.items()
    }
    return AtomicLineTable(t.reference_frequency_hz, t.natural_fwhm_hz, isotopes, t.lines)


def boxes(cfg):
    """Peak offset (GHz), peak transmission, FWHM (MHz), rejection (dB)."""
    m = filter_metrics(fadof_transmission(cfg, make_frequency_grid(REF, 20e9, 2e6)))
    far = fadof_transmission(cfg, np.array([REF - 100e9, REF + 100e9])).value.max()
    return (
        f"{(m.peak_frequency_hz - REF) / 1e9:.3f} GHz, T {m.peak_transmission:.3f}, "
        f"FWHM {m.fwhm_hz / 1e6:.0f} MHz, {10 * np.log10(m.peak_transmission / far):.1f} dB"
    )


def box_maximum(fields_t, lengths_m, temperatures_k, step_hz):
    """Largest in-box transmission of a natural-abundance cell, and where."""
    freqs = REF + np.arange(BOX_HZ[0], BOX_HZ[1] + 1.0, step_hz)
    best = (0.0, None)
    for b, length, temp in itertools.product(fields_t, lengths_m, temperatures_k):
        cfg = FilterConfig(b_field_t=b, length_m=length, temperature_k=temp)
        t = float(fadof_transmission(cfg, freqs).value.max())
        if t > best[0]:
            best = (t, (b, length, temp))
    return best


def main():
    print("default cell:", boxes(FilterConfig()))
    for length, temp in ((0.10, 365.0), (0.05, 380.0)):
        cfg = FilterConfig(length_m=length, temperature_k=temp, table=pure("Rb85"))
        print(f"85Rb {length * 1e3:.0f} mm {temp:.0f} K:", boxes(cfg))
    print("87Rb 100 mm:", boxes(FilterConfig(length_m=0.10, table=pure("Rb87"))))

    coarse = box_maximum(
        np.arange(3e-3, 9.01e-3, 0.5e-3),
        (0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30),
        np.arange(330.0, 400.1, 5.0),
        2e6,
    )
    b, length, temp = coarse[1]
    fine = box_maximum(
        np.arange(max(b - 1e-3, 3e-3), min(b + 1e-3, 9e-3) + 1e-6, 0.25e-3),
        np.arange(max(length - 0.05, 0.02), min(length + 0.05, 0.30) + 1e-6, 0.01),
        np.arange(max(temp - 5.0, 330.0), min(temp + 15.0, 400.0) + 0.1, 1.0),
        1e6,
    )
    for label, (t, (b, length, temp)) in (("coarse", coarse), ("fine", fine)):
        print(
            f"natural abundance, {label} scan: in-box maximum {t:.4f} at "
            f"{b * 1e3:.2f} mT, {length * 1e3:.0f} mm, {temp:.0f} K"
        )

    grid = make_frequency_grid(REF, 20e9, 2e6)
    v = fadof_transmission(FilterConfig(), grid).value
    peaks = [i for i in range(1, len(v) - 1) if v[i] >= v[i - 1] and v[i] > v[i + 1]]
    for i in sorted(peaks, key=lambda i: -v[i])[:4]:
        print(f"default window {(grid[i] - REF) / 1e9:.3f} GHz: T {v[i]:.5f}")


if __name__ == "__main__":
    main()
