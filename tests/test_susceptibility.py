"""Voigt kernel accuracy, vapor thermodynamics, and susceptibility structure."""

import hashlib
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import wofz

from fadofsim import susceptibility, vapor
from fadofsim.lines import AtomicLineTable
from fadofsim.susceptibility import (
    complex_susceptibility,
    complex_voigt,
    vapor_density,
    vapor_pressure_torr,
)
from fadofsim.spectrum import make_frequency_grid
from fadofsim.vapor import FilterConfig, VaporCell, fadof_transmission

from _oracles import faddeeva_by_quadrature

TABLE = AtomicLineTable.rubidium_d1()
# the susceptibility does not depend on the cell length
CELL = VaporCell(temperature_k=365.0, length_m=0.1, table=TABLE)


# Lorentzian-to-Doppler width ratio of the bundled line at the default
# cell temperature; the hot-cell value includes 200 MHz of collisions.
A_FADOF_CELL = 8.55e-3
A_HOT_CELL = 0.306


def test_voigt_kernel_against_quadrature_oracle():
    x = np.linspace(-10.0, 10.0, 2001)
    ours = complex_voigt(x, A_FADOF_CELL)
    oracle = faddeeva_by_quadrature(x, A_FADOF_CELL, nodes=16385)
    rel = np.abs(ours - oracle) / np.abs(oracle)
    assert rel.max() < 1e-6


def test_voigt_kernel_oracle_broad_lorentzian():
    x = np.linspace(-10.0, 10.0, 401)
    ours = complex_voigt(x, A_HOT_CELL)
    oracle = faddeeva_by_quadrature(x, A_HOT_CELL, nodes=16385)
    rel = np.abs(ours - oracle) / np.abs(oracle)
    assert rel.max() < 1e-6


# Lorentzian widths from far below the Doppler width to beyond the
# inner zone radius of the kernel
A_VALUES = (1e-6, A_FADOF_CELL, A_HOT_CELL, 1.0, 4.0, 6.9, 7.5, 13.9)


def test_voigt_asymptotic_seam_continuous():
    # the rational zone holds across |z| = 7 and the four-term series
    # takes over from it at |z| = 14; the kernel must agree with wofz
    # across both radii
    for radius, tolerance in ((7.0, 1e-13), (14.0, 1e-8)):
        for a in (A_FADOF_CELL, A_HOT_CELL):
            x = np.linspace(radius - 1.5, radius + 2.0, 3001)
            ours = complex_voigt(x, a)
            ref = wofz(x + 1j * a)
            rel = np.abs(ours - ref) / np.abs(ref)
            assert rel.max() < tolerance


def test_voigt_matches_wofz_within_asymptotic_radius():
    x = np.linspace(-15.0, 15.0, 30001)
    for a in A_VALUES:
        inside = x * x + a * a <= 14.0**2
        ours = complex_voigt(x[inside], a)
        ref = wofz(x[inside] + 1j * a)
        assert np.max(np.abs(ours - ref) / np.abs(ref)) <= 1e-13, a


@pytest.mark.parametrize("a", (1e-6, 1e-3, A_FADOF_CELL, A_HOT_CELL, 1.0, 4.0, 6.9))
def test_voigt_rational_zone_against_quadrature_oracle(a):
    # |z| up to 7.5, on both sides of |z| = 7: the 40-term rational zone
    x_max = np.sqrt(7.5**2 - a * a)
    x = np.linspace(-x_max, x_max, 201)
    radius = np.hypot(x, a)
    assert np.any(radius < 7.0) and np.any(radius > 7.0)
    ours = complex_voigt(x, a)
    oracle = faddeeva_by_quadrature(x, a, half_width=14.0, nodes=32769)
    assert np.max(np.abs(ours - oracle) / np.abs(oracle)) <= 5e-14


def test_voigt_rational_zone_against_wofz():
    rng = np.random.default_rng(2024)
    for a in np.geomspace(1e-6, 6.9, 40):
        x_max = np.sqrt(49.0 - a * a)
        # random points inside |z| = 7 and a dense band across the seam
        seam = np.sqrt(np.maximum(np.linspace(6.99, 7.01, 201) ** 2 - a * a, 0.0))
        x = np.concatenate([rng.uniform(-x_max, x_max, 2000), seam, -seam])
        ours = complex_voigt(x, a)
        ref = wofz(x + 1j * a)
        assert np.max(np.abs(ours - ref) / np.abs(ref)) <= 5e-14, a


def test_voigt_far_zone_is_the_four_term_series():
    # the benchmark reference transmissions were taken with this truncation
    x = np.linspace(-200.0, 200.0, 40001)
    for a in A_VALUES:
        z = x[x * x + a * a > 14.0**2] + 1j * a
        inv2 = 1.0 / (z * z)
        closed = (1j / np.sqrt(np.pi)) * (1.0 + inv2 * (0.5 + inv2 * (0.75 + inv2 * 1.875))) / z
        ours = complex_voigt(z.real, a)
        assert np.max(np.abs(ours - closed) / np.abs(closed)) <= 1e-14, a


def test_voigt_input_shape_and_order():
    # one grid through both zones
    x = np.linspace(-20.0, 20.0, 4000)
    ref = complex_voigt(x, A_HOT_CELL)
    order = np.random.default_rng(0).permutation(x.size)
    unsorted = complex_voigt(x[order], A_HOT_CELL)
    np.testing.assert_allclose(unsorted, ref[order], rtol=1e-14, atol=0)
    grid = complex_voigt(x.reshape(40, 100), A_HOT_CELL)
    assert grid.shape == (40, 100)
    np.testing.assert_allclose(grid, ref.reshape(40, 100), rtol=1e-14, atol=0)
    for i in (0, 1300, 1800, 2000):  # far, near, near, near
        scalar = complex_voigt(x[i], A_HOT_CELL)
        assert scalar.shape == ()
        assert scalar == pytest.approx(ref[i], rel=1e-14)


def test_voigt_evaluates_each_point_in_its_own_zone_only(monkeypatch):
    x = np.linspace(-20.0, 20.0, 4001)
    ref = complex_voigt(x, A_HOT_CELL)
    sizes = []
    for name in ("_asymptotic_series", "_rational"):
        zone = getattr(susceptibility, name)
        monkeypatch.setattr(susceptibility, name,
                            lambda x, *args, zone=zone: sizes.append(x.size) or zone(x, *args))
    out = complex_voigt(x, A_HOT_CELL)
    # the far and near points, each zone evaluated once on its own
    assert sizes == [1202, 2799]
    assert out.tobytes() == ref.tobytes()
    # a zone's values do not depend on the other zone's points
    r2 = x * x + A_HOT_CELL**2
    for inside in (r2 <= 196.0, r2 > 196.0):
        assert complex_voigt(x[inside], A_HOT_CELL).tobytes() == ref[inside].tobytes()


def test_voigt_skips_a_zone_with_no_point(monkeypatch):
    # an all-far input does not call the rational zone
    x = np.linspace(-40.0, -20.0, 201)
    ref = complex_voigt(x, A_HOT_CELL)
    calls = []
    for name in ("_asymptotic_series", "_rational"):
        zone = getattr(susceptibility, name)
        monkeypatch.setattr(susceptibility, name,
                            lambda x, *args, zone=zone, name=name: calls.append(name) or zone(x, *args))
    out = complex_voigt(x, A_HOT_CELL)
    assert calls == ["_asymptotic_series"]
    assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("a", (1e-6, A_FADOF_CELL, A_HOT_CELL, 1.0, 6.9, 13.9))
def test_voigt_one_point_equals_the_point_in_an_array(a):
    # numpy rounds an in-place complex product on a one-element array
    # differently from the same product in a longer one: the kernel
    # evaluates a lone point as two copies of it
    x = np.concatenate([np.random.default_rng(5).uniform(-30.0, 30.0, 400), [0.0, 14.0, -14.0]])
    whole = complex_voigt(x, a)
    r2 = x * x + a * a
    assert np.any(r2 <= 196.0) and np.any(r2 > 196.0)
    for i in range(x.size):
        assert complex_voigt(x[i : i + 1], a).tobytes() == whole[i : i + 1].tobytes(), x[i]
        assert complex_voigt(x[i], a) == whole[i]


def test_voigt_raises_no_floating_point_warnings():
    x = np.concatenate([np.linspace(-30.0, 30.0, 6001), [0.0, 7.0, 14.0, 1e6]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in A_VALUES:
            assert np.all(np.isfinite(complex_voigt(x, a)))


def test_voigt_normalization():
    # area of the absorption shape in x is sqrt(pi); the Lorentzian wings
    # beyond the truncation carry 2a/(sqrt(pi) X) and are added back
    a, x_max = 0.05, 100.0
    x = np.linspace(-x_max, x_max, 400001)
    area = np.trapezoid(complex_voigt(x, a).real, x)
    tail = 2.0 * a / (np.sqrt(np.pi) * x_max)
    assert area + tail == pytest.approx(np.sqrt(np.pi), rel=1e-5)


def test_vapor_pressure_frozen_values():
    assert vapor_pressure_torr(365.0) == pytest.approx(1.0517182667306377e-4, rel=1e-12)
    assert vapor_density(365.0) == pytest.approx(2.782443087733357e18, rel=1e-12)
    assert vapor_density(420.0) == pytest.approx(7.219453885159797e19, rel=1e-12)


def test_vapor_pressure_branches_meet_at_melting_point():
    liquid = vapor_pressure_torr(312.46)
    solid = vapor_pressure_torr(312.4599)
    assert liquid == pytest.approx(solid, rel=1e-2)


def test_vapor_pressure_monotone_and_validated():
    temps = np.linspace(280.0, 450.0, 35)
    values = [vapor_pressure_torr(t) for t in temps]
    assert all(b > a for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        vapor_pressure_torr(0.0)


def _grid(half_ghz=8.0, step_mhz=20.0):
    ref = TABLE.reference_frequency_hz
    n = int(half_ghz * 1e9 / (step_mhz * 1e6))
    return ref + np.arange(-n, n + 1) * step_mhz * 1e6


def test_susceptibility_zero_field_polarizations_identical():
    grid = _grid()
    plus = complex_susceptibility(grid, +1, 0.0, CELL)
    minus = complex_susceptibility(grid, -1, 0.0, CELL)
    assert np.allclose(plus, minus, rtol=1e-12, atol=0)


def test_susceptibility_field_reversal_swaps_polarizations():
    grid = _grid(4.0, 50.0)
    plus = complex_susceptibility(grid, +1, 4.5e-3, CELL)
    minus = complex_susceptibility(grid, -1, -4.5e-3, CELL)
    assert np.allclose(plus, minus, rtol=1e-9)


def test_susceptibility_passive_absorber():
    grid = _grid()
    for b in (0.0, 4.5e-3, 9e-3):
        chi = complex_susceptibility(grid, +1, b, CELL)
        assert chi.imag.min() >= 0.0


def test_susceptibility_far_wing_small():
    # the absorptive part falls off Gaussian-fast, but the dispersive part
    # decays only as one over detuning, so the magnitude bound is looser
    ref = TABLE.reference_frequency_hz
    near = complex_susceptibility(_grid(4.0, 10.0), +1, 0.0, CELL)
    far = complex_susceptibility(np.array([ref - 100e9, ref + 100e9]), +1, 0.0, CELL)
    assert far.imag.max() < 1e-3 * near.imag.max()
    assert np.abs(far).max() < 1e-2 * np.abs(near).max()


def test_susceptibility_absorption_peaks_near_strongest_line():
    # brute-force scan: Im chi maximal within one Doppler width of a
    # strongest abundance-weighted component (two components tie; the
    # winner sits in the cluster that overlaps a second strong line)
    grid = _grid(6.0, 5.0)
    chi = complex_susceptibility(grid, +1, 0.0, CELL)
    f_max = grid[np.argmax(chi.imag)]
    weights = [ln.strength * TABLE.isotopes[ln.isotope].abundance for ln in TABLE.lines]
    best = max(weights)
    candidates = [
        TABLE.reference_frequency_hz + ln.offset_hz
        for ln, w in zip(TABLE.lines, weights)
        if w >= 0.999 * best
    ]
    assert len(candidates) >= 1
    doppler_width_hz = 0.34e9  # ku/(2 pi) at 365 K, generously rounded up
    assert min(abs(f_max - f) for f in candidates) < doppler_width_hz


def test_susceptibility_scales_linearly_with_density(monkeypatch):
    grid = _grid(2.0, 100.0)
    monkeypatch.setattr(susceptibility, "vapor_density", lambda temperature_k: 1e18)
    one = complex_susceptibility(grid, +1, 2e-3, CELL)
    monkeypatch.setattr(susceptibility, "vapor_density", lambda temperature_k: 2e18)
    two = complex_susceptibility(grid, +1, 2e-3, CELL)
    assert np.allclose(two, 2.0 * one, rtol=1e-12)


def _pure(isotope):
    isotopes = {
        name: replace(iso, abundance=float(name == isotope)) for name, iso in TABLE.isotopes.items()
    }
    table = AtomicLineTable(TABLE.reference_frequency_hz, TABLE.natural_fwhm_hz, isotopes, TABLE.lines)
    return replace(CELL, table=table)


def test_susceptibility_abundance_override():
    grid = _grid(2.0, 100.0)
    natural = complex_susceptibility(grid, +1, 0.0, CELL)
    pure85 = complex_susceptibility(grid, +1, 0.0, _pure("Rb85"))
    pure87 = complex_susceptibility(grid, +1, 0.0, _pure("Rb87"))
    mix = 0.7217 * pure85 + 0.2783 * pure87
    assert np.allclose(natural, mix, rtol=1e-10)


def test_susceptibility_input_validation():
    grid = _grid(1.0, 100.0)
    with pytest.raises(ValueError, match="polarization"):
        complex_susceptibility(grid, 0, 0.0, CELL)
    # a non-finite point would split a group's near set
    for bad in (np.nan, np.inf, -np.inf):
        grid[7] = bad
        with pytest.raises(ValueError, match="frequencies must be finite"):
            complex_susceptibility(grid, +1, 4.5e-3, CELL)


# ---- one far-field series per group of components


def _kernel_sum(x, a, offsets, weights):
    return sum(weight * complex_voigt(x - offset, a) for offset, weight in zip(offsets, weights))


def _kernel_radius2(x, a):
    # the kernel's own comparison for its four-term zone
    r2 = x * x
    r2 += a * a
    return r2


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    offsets=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=12),
    weights=st.lists(st.floats(1e-3, 1e3), min_size=12, max_size=12),
    log_a=st.floats(-6.0, 0.0),
    shift=st.floats(-40.0, 40.0),
)
@example(offsets=[0.0], weights=[1.0] * 12, log_a=-6.0, shift=0.0)
@example(offsets=[-2.0, 2.0], weights=[1.0] * 12, log_a=0.0, shift=12.5)
@example(offsets=[2.0] * 12, weights=[1e-3] + [1e3] * 11, log_a=-2.07, shift=-7.0)
# the next float beyond 14 + s is inside the kernel's radius for a component
@example(offsets=[0.155, 0.299], weights=[1.0] * 12, log_a=-5.77, shift=-0.76)
def test_far_field_matches_the_kernel_sum(offsets, weights, log_a, shift):
    # random groups at a random place: the far field handles only points
    # in every component's four-term zone, and there matches the direct
    # sum of the kernel
    offsets = np.array(offsets) + shift
    weights = np.array(weights[: offsets.size])
    a = 10.0**log_a
    centre = 0.5 * (offsets.min() + offsets.max())
    radius = 14.0 + np.abs(offsets - centre).max()
    edge = np.sqrt(radius**2 - a * a)
    steps = np.array([0.0, 1e-12, 1e-9, 2e-9, 1e-6, 1e-3])
    x = np.concatenate([
        np.linspace(-120.0, 120.0, 2401) + shift,
        centre + edge + steps,
        centre - edge - steps,
        [centre + np.nextafter(edge, np.inf)],
    ])
    out = np.zeros(x.shape, dtype=complex)
    far = susceptibility._add_far_field(out, x, a, offsets, weights)
    assert far.sum() > 2000 and not out[~far].any()
    series = out[far]
    for offset in offsets:
        assert np.all(_kernel_radius2(x[far] - offset, a) > 14.0**2)
    direct = _kernel_sum(x[far], a, offsets, weights)
    assert np.max(np.abs(series - direct) / np.abs(direct)) <= 2e-15


def test_far_coefficients_of_one_component_are_the_four_term_series():
    coeffs = susceptibility._far_coefficients(np.zeros(1), np.array([2.5]))
    assert np.array_equal(coeffs, 2.5 * np.array([1.0, 0.0, 0.5, 0.0, 0.75, 0.0, 1.875]))


@pytest.mark.parametrize("spread", [1e-3, 0.66, 1.35, 2.0, 5.0, 8.0])
def test_far_series_order_is_the_least_that_meets_the_truncation(spread):
    rho = spread / (spread + 14.0)
    order = 7
    while math.comb(order, 6) * rho ** (order - 6) >= 1e-17:
        order += 1
    coeffs = susceptibility._far_coefficients(np.array([-spread, 0.3 * spread, spread]), np.ones(3))
    assert coeffs.size == order


def test_far_field_takes_no_point_beyond_the_largest_order():
    # a group spread too wide for 64 terms: every point goes to the kernel
    offsets = np.array([-10.0, 0.0, 10.0])
    assert susceptibility._far_coefficients(offsets, np.ones(3)) is None
    out = np.zeros(101, dtype=complex)
    far = susceptibility._add_far_field(out, np.linspace(-200.0, 200.0, 101), 0.01, offsets, np.ones(3))
    assert not far.any() and not out.any()


def _all_near(monkeypatch):
    def no_far_field(out, x, a, offsets, weights):
        return np.zeros(x.shape, dtype=bool)

    monkeypatch.setattr(susceptibility, "_add_far_field", no_far_field)


def test_susceptibility_matches_the_kernel_at_every_point(monkeypatch):
    # the far field changes the values only by rounding: against the same
    # sum with every point sent through the kernel
    grid = _grid(30.0, 7.0)
    for b in (0.0, 4.5e-3, 0.05):
        grouped = complex_susceptibility(grid, -1, b, CELL)
        with monkeypatch.context() as m:
            _all_near(m)
            direct = complex_susceptibility(grid, -1, b, CELL)
        assert np.max(np.abs(grouped - direct) / np.abs(direct)) <= 1e-14, b


def test_susceptibility_does_not_depend_on_the_order_of_the_points():
    # the points are evaluated sorted, so any order of them, a lattice's
    # too, gives the same values bit for bit
    rng = np.random.default_rng(3)
    lattice = _grid(12.0, 3.0)
    whole = complex_susceptibility(lattice, +1, 4.5e-3, CELL)
    order = rng.permutation(lattice.size)
    assert complex_susceptibility(lattice[order], +1, 4.5e-3, CELL).tobytes() == whole[order].tobytes()
    grid = TABLE.reference_frequency_hz + rng.uniform(-25e9, 25e9, 5000)
    grid[:100] = grid[-100:]
    grid.sort()
    ref = complex_susceptibility(grid, +1, 4.5e-3, CELL)
    order = rng.permutation(grid.size)
    assert complex_susceptibility(grid[order], +1, 4.5e-3, CELL).tobytes() == ref[order].tobytes()
    assert complex_susceptibility(grid[::-1], +1, 4.5e-3, CELL).tobytes() == ref[::-1].tobytes()
    # one point is no lattice: it takes the kernel's zones where the
    # lattice reads its table, so its value may differ in the last bits
    for i in (0, 1234, 4999):
        one = complex_susceptibility(grid[i : i + 1], +1, 4.5e-3, CELL)
        assert one.shape == (1,) and one[0] == pytest.approx(ref[i], rel=1e-15)
        scalar = complex_susceptibility(grid[i], +1, 4.5e-3, CELL)
        assert scalar.shape == () and scalar == one[0]


@pytest.mark.parametrize("a", (A_FADOF_CELL, A_HOT_CELL, 3.0))
def test_far_field_of_a_lone_far_point_equals_its_value_in_a_longer_array(a):
    # beside a point at the group's centre, each far point is the only
    # point of the far set; it is evaluated as two copies and added once,
    # so it gets the value it gets in a longer array bit for bit
    offsets = np.array([-1.0, 0.2, 0.9])
    weights = np.array([1.0, 2.0, 0.5])
    rng = np.random.default_rng(8)
    far = rng.uniform(20.0, 200.0, 200) * rng.choice([-1.0, 1.0], 200)
    whole = np.zeros(far.size, dtype=complex)
    assert susceptibility._add_far_field(whole, far, a, offsets, weights).all()
    for i in range(far.size):
        out = np.zeros(2, dtype=complex)
        mask = susceptibility._add_far_field(out, np.array([0.0, far[i]]), a, offsets, weights)
        assert mask.tolist() == [False, True] and out[0] == 0.0
        assert out[1:].tobytes() == whole[i : i + 1].tobytes(), far[i]


def test_susceptibility_on_the_outer_boundary_of_a_group(monkeypatch):
    # points at and around 14 + s from each group's centre, alone and
    # together, against the kernel sum
    seen = []
    add_far_field = susceptibility._add_far_field

    def spy(out, x, a, offsets, weights):
        seen.append((x, a, offsets))
        return add_far_field(out, x, a, offsets, weights)

    ref = TABLE.reference_frequency_hz
    probe = np.array([ref + 1e9])
    monkeypatch.setattr(susceptibility, "_add_far_field", spy)
    complex_susceptibility(probe, +1, 4.5e-3, CELL)
    monkeypatch.undo()
    assert len(seen) == 4  # (Rb85, F=2), (Rb85, F=3), (Rb87, F=1), (Rb87, F=2)
    points = []
    for x, a, offsets in seen:
        hz_per_unit = (probe[0] - ref) / x[0]
        centre = 0.5 * (offsets.min() + offsets.max())
        edge = np.sqrt((14.0 + np.abs(offsets - centre).max()) ** 2 - a * a)
        for side in (-1.0, 1.0):
            for step in (-1e-6, 0.0, 1e-9, 2e-9, 1e-6):
                points.append(ref + (centre + side * (edge + step)) * hz_per_unit)
    points = np.array(points)
    together = complex_susceptibility(points, +1, 4.5e-3, CELL)
    alone = np.array([complex_susceptibility(points[i : i + 1], +1, 4.5e-3, CELL)[0]
                      for i in range(points.size)])
    _all_near(monkeypatch)
    direct = complex_susceptibility(points, +1, 4.5e-3, CELL)
    for values in (together, alone):
        assert np.max(np.abs(values - direct) / np.abs(direct)) <= 1e-14


# ---- one kernel table per isotope on a frequency lattice


def _per_component(freq, polarization, b_field_t, cell):
    """The susceptibility with every point of every component through the kernel: no table, no far field."""
    with pytest.MonkeyPatch.context() as m:
        _all_near(m)
        m.setattr(susceptibility, "_table_reach", lambda a, spacing: None)
        m.setattr(susceptibility, "_sublattice_ratio", lambda h: 1)
        return complex_susceptibility(freq, polarization, b_field_t, cell)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    log_step=st.floats(4.0, 8.0),
    origin=st.integers(-12_000_000_000, 8_000_000_000),
    n=st.integers(2, 3000),
    descending=st.booleans(),
    b_field_t=st.floats(0.0, 0.05),
    temperature_k=st.floats(300.0, 450.0),
    buffer_fwhm_hz=st.floats(0.0, 500e6),
    polarization=st.sampled_from([1, -1]),
    isotope=st.sampled_from([None, "Rb85", "Rb87"]),
)
@example(log_step=math.log10(2e6), origin=-10_000_000_000, n=10_001, descending=False,
         b_field_t=4.5e-3, temperature_k=365.0, buffer_fwhm_hz=0.0, polarization=1, isotope=None)
@example(log_step=math.log10(250e3), origin=-3_000_000_000, n=20_000, descending=True,
         b_field_t=0.05, temperature_k=450.0, buffer_fwhm_hz=500e6, polarization=-1, isotope="Rb87")
@example(log_step=8.0, origin=-12_000_000_000, n=300, descending=False,
         b_field_t=0.0, temperature_k=300.0, buffer_fwhm_hz=0.0, polarization=1, isotope="Rb85")
def test_lattice_table_matches_the_per_component_kernel(
    log_step, origin, n, descending, b_field_t, temperature_k, buffer_fwhm_hz, polarization, isotope
):
    # integer-Hz lattices from 10 kHz to 100 MHz: the table path against
    # the per-component kernel on the same points
    step = float(round(10.0**log_step))
    freq = TABLE.reference_frequency_hz + origin + step * np.arange(n)
    if descending:
        freq = freq[::-1]
    cell = VaporCell(temperature_k=temperature_k, length_m=0.1, buffer_fwhm_hz=buffer_fwhm_hz,
                     table=TABLE if isotope is None else _pure(isotope).table)
    table = complex_susceptibility(freq, polarization, b_field_t, cell)
    kernel = _per_component(freq, polarization, b_field_t, cell)
    assert np.abs(table - kernel).max() <= 1e-13 * np.abs(kernel).max()


def test_lattice_ring_is_evaluated_in_bounded_chunks(monkeypatch):
    # at 0.3 T a group's components spread over the whole grid and it
    # takes no far field: its ring runs through the kernel's zones in
    # chunks of at most _RING_CHUNK points, against the per-component sum
    freq = _grid(40.0, 2.5)
    kernel = _per_component(freq, +1, 0.3, CELL)
    sizes = []
    zones = susceptibility._voigt_zones
    monkeypatch.setattr(susceptibility, "_voigt_zones", lambda x, a: sizes.append(x.size) or zones(x, a))
    table = complex_susceptibility(freq, +1, 0.3, CELL)
    assert len(sizes) > 4 and max(sizes) <= susceptibility._RING_CHUNK
    assert np.abs(table - kernel).max() <= 1e-13 * np.abs(kernel).max()


def test_lattice_values_do_not_depend_on_the_slice():
    # every slice of a lattice reads the same nodes with the same weights
    freq = _grid(12.0, 3.0) + 17.0
    whole = complex_susceptibility(freq, +1, 4.5e-3, CELL)
    for lo, hi in ((0, 2000), (1234, 4567), (3999, 4001), (5000, freq.size)):
        assert complex_susceptibility(freq[lo:hi], +1, 4.5e-3, CELL).tobytes() == whole[lo:hi].tobytes()
    assert complex_susceptibility(freq[::-1], +1, 4.5e-3, CELL).tobytes() == whole[::-1].tobytes()
    # and the filter's blocks give the whole grid's transmission
    cfg = FilterConfig()
    grid = make_frequency_grid(TABLE.reference_frequency_hz, 20e9, 250e3)
    t_plus, t_minus = vapor.circular_amplitudes(cfg, grid)
    t_pol = 0.25 * np.abs(t_plus - t_minus) ** 2
    whole = np.clip(t_pol + cfg.extinction * (1.0 - t_pol), 0.0, 1.0)
    assert len(vapor._grid_blocks(grid.size)) == 5
    assert fadof_transmission(cfg, grid).value.tobytes() == whole.tobytes()


def test_lattice_table_is_one_kernel_call_per_isotope_per_filter(monkeypatch):
    cfg = FilterConfig(temperature_k=361.5)
    voigt = susceptibility.complex_voigt
    sizes = []
    monkeypatch.setattr(susceptibility, "complex_voigt",
                        lambda x, a: sizes.append(np.size(x)) or voigt(x, a))
    susceptibility._lattice_table.cache_clear()
    # five blocks, two polarizations, two isotopes: one table each, on the
    # sublattice of every 15th point, whose spacing lies in (0.006, 0.012]
    # Doppler widths for the isotope of the largest step (Rb87) and within
    # a factor sqrt(87 / 85) of that for the other
    fadof_transmission(cfg, make_frequency_grid(TABLE.reference_frequency_hz, 20e9, 250e3))
    assert len(sizes) == 2 and max(sizes) <= 2 * 14.0 / 0.006 * math.sqrt(87 / 85) + 1
    # unequal differences: no table; every near point of every component
    # goes through the kernel's zones once, in each isotope's ring
    tables = []
    lattice_table = susceptibility._lattice_table
    monkeypatch.setattr(susceptibility, "_lattice_table",
                        lambda *args: tables.append(args) or lattice_table(*args))
    near = []
    add_far_field = susceptibility._add_far_field

    def spy(out, x, a, offsets, weights):
        far = add_far_field(out, x, a, offsets, weights)
        near.append(offsets.size * np.count_nonzero(~far))
        return far

    monkeypatch.setattr(susceptibility, "_add_far_field", spy)
    rings = []
    zones = susceptibility._voigt_zones
    monkeypatch.setattr(susceptibility, "_voigt_zones", lambda x, a: rings.append(x.size) or zones(x, a))
    sizes.clear()
    freq = make_frequency_grid(TABLE.reference_frequency_hz, 20e9, 2e6)
    freq[7] += 1.0
    fadof_transmission(cfg, freq)
    assert not tables and not sizes
    assert sum(rings) == sum(near) and max(rings) <= susceptibility._RING_CHUNK


def test_lattice_transmission_memory_is_its_output_plus_a_few_blocks():
    # the bound of tests/test_vapor.py, on an integer-Hz lattice of eight
    # blocks whose two tables are computed inside the traced call
    block = vapor._GRID_BLOCK
    cfg = FilterConfig()
    freq = make_frequency_grid(TABLE.reference_frequency_hz, (4 * block - 1) * 150e3, 150e3)
    assert freq.size == 8 * block - 1
    fadof_transmission(cfg, freq[:2])
    susceptibility._lattice_table.cache_clear()
    tracemalloc.start()
    try:
        spec = fadof_transmission(cfg, freq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert susceptibility._lattice_table.cache_info().misses == 2
    assert peak < spec.value.nbytes + 20 * 16 * block, f"{peak} bytes traced"


# ---- fine lattices: chi on the sublattice, interpolated, seams corrected


def _seam_windows(freq, polarization, b_field_t, cell):
    """chi, and the indices whose value the seam correction moves."""
    chi = complex_susceptibility(freq, polarization, b_field_t, cell)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(susceptibility, "_correct_seams", lambda *args: None)
        plain = complex_susceptibility(freq, polarization, b_field_t, cell)
    return chi, np.flatnonzero(chi != plain), plain


@pytest.mark.parametrize("step_hz, temperature_k, b_field_t, lo_ghz, hi_ghz, ratio", [
    (1.9e6, 380.0, 0.0, -10.0, 10.0, 2),
    (1e6, 365.0, 4.5e-3, 1.0, 3.5, 3),
    (250e3, 365.0, 4.5e-3, 1.0, 3.5, 15),
    (25e3, 380.0, 0.02, 1.5, 2.7, 162),
])
def test_fine_lattice_matches_the_per_component_kernel_in_its_seam_windows(
    monkeypatch, step_hz, temperature_k, b_field_t, lo_ghz, hi_ghz, ratio
):
    # stretches of lattice across components' |z| = 14 seams, evaluated
    # on every ratio-th point: the interpolated chi against the kernel at
    # every point of every component; without the seam correction the
    # stencils that straddle a seam miss by about 1e-11
    cell = replace(CELL, temperature_k=temperature_k)
    ref = TABLE.reference_frequency_hz
    freq = ref + lo_ghz * 1e9 + step_hz * np.arange(round((hi_ghz - lo_ghz) * 1e9 / step_hz) + 1)
    ratios = []
    interpolate = susceptibility._interpolate
    monkeypatch.setattr(susceptibility, "_interpolate", lambda *args: ratios.append(args[-1]) or interpolate(*args))
    chi, seams, plain = _seam_windows(freq, -1, b_field_t, cell)
    assert set(ratios) == {ratio}
    kernel = _per_component(freq, -1, b_field_t, cell)
    scale = np.abs(kernel).max()
    assert seams.size > 100
    assert np.abs(chi - kernel).max() <= 1e-14 * scale
    assert np.abs(plain - kernel)[seams].max() > 1e-12 * scale


def test_fine_lattice_values_do_not_depend_on_the_slice():
    # the sublattice nodes are anchored at absolute lattice indices: any
    # slice of two or more points, in a seam window or not, reads the same
    # nodes with the same weights and the same corrections
    freq = TABLE.reference_frequency_hz + 1e9 + 17.0 + 250e3 * np.arange(12_000)
    whole, seams, _ = _seam_windows(freq, +1, 4.5e-3, CELL)
    assert seams.size > 100
    rng = np.random.default_rng(29)
    starts = np.concatenate([seams[[0, 1, -2, -1]], seams[[0, -1]] - 1, rng.choice(seams, 20)])
    for i in starts.tolist():
        for n in (2, 3):
            got = complex_susceptibility(freq[i : i + n], +1, 4.5e-3, CELL)
            assert got.tobytes() == whole[i : i + n].tobytes(), (i, n)
        # one point is no lattice and takes the kernel
        assert abs(complex_susceptibility(freq[i], +1, 4.5e-3, CELL) - whole[i]) <= 1e-14 * np.abs(whole).max()
    for lo, hi in ((0, 5000), (1234, 4567), (seams[0] - 7, seams[0] + 30), (5000, freq.size)):
        assert complex_susceptibility(freq[lo:hi], +1, 4.5e-3, CELL).tobytes() == whole[lo:hi].tobytes()
    assert complex_susceptibility(freq[::-1], +1, 4.5e-3, CELL).tobytes() == whole[::-1].tobytes()


def test_a_lattice_of_one_table_spacing_keeps_its_bytes(monkeypatch):
    # 2 MHz is 0.0060006 Rb87 Doppler widths at 367.0 K: every point is a
    # sublattice node, and chi keeps the bytes the table alone gave it;
    # at 367.1 K the step is below 0.006 and every second point is
    # interpolated
    grid = make_frequency_grid(TABLE.reference_frequency_hz, 10e9, 2e6)
    interpolate = susceptibility._interpolate
    ratios = {}
    for temperature_k in (367.0, 367.1):
        calls = ratios.setdefault(temperature_k, [])
        monkeypatch.setattr(susceptibility, "_interpolate",
                            lambda *args, calls=calls: calls.append(args[-1]) or interpolate(*args))
        cell = replace(CELL, temperature_k=temperature_k)
        chi = np.concatenate([complex_susceptibility(grid, q, 4.5e-3, cell) for q in (1, -1)])
        if temperature_k == 367.0:
            assert hashlib.sha256(chi.tobytes()).hexdigest() == (
                "11623733fb772cda3a50ed8957b439c56aa142a3c0e8659b0f2214d1137d2406")
    assert ratios[367.0] == [] and set(ratios[367.1]) == {2}
