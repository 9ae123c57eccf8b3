"""Quadrature noise model, noise-power fits, squeezing loss, photon flux."""

import numpy as np
import pytest
from _oracles import excess_noise_with_cross_term

from fadofsim.constants import PLANCK, SPEED_OF_LIGHT
from fadofsim.cvnoise import (
    NoiseFit,
    NoiseModel,
    excess_noise,
    noise_vs_power_fit,
    photon_flux,
    squeezing_through_loss,
)


def test_quiet_model_sits_at_shot_noise():
    model = NoiseModel(mean_transmission=0.842)
    assert excess_noise(model) == 0.0
    assert 1.0 + excess_noise(model) == 1.0


def test_excess_noise_linear_form():
    model = NoiseModel(
        mean_transmission=0.8,
        transmission_noise=0.01,
        mean_field=2.0,
        field_noise=0.005,
    )
    t, dt, a, da = 0.8, 0.01, 2.0, 0.005
    expected = 2.0 * np.real(np.conj(t * a) * (a * dt + t * da))
    assert excess_noise(model) == pytest.approx(expected, rel=1e-15)
    exact = 2.0 * np.real(np.conj(t * a) * (a * dt + t * da + dt * da))
    assert excess_noise_with_cross_term(model) == pytest.approx(exact, rel=1e-15)


def test_excess_noise_complex_phases_matter():
    model = NoiseModel(
        mean_transmission=0.8 * np.exp(0.3j),
        transmission_noise=0.01j,
        mean_field=1.5 * np.exp(-0.2j),
        field_noise=0.004 * np.exp(1.1j),
    )
    t, dt = model.mean_transmission, model.transmission_noise
    a, da = model.mean_field, model.field_noise
    expected = 2.0 * np.real(np.conj(t * a) * (a * dt + t * da))
    assert excess_noise(model) == pytest.approx(expected, rel=1e-14)


def test_attenuator_scales_excess_noise_exactly_quadratically():
    # the attenuated model's excess is stored in factored form, so the
    # quadratic scaling holds to the last bit, not merely approximately
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(10_000):
        t = rng.uniform(0.1, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        dt = 0.02 * rng.normal() + 0.02j * rng.normal()
        a = rng.uniform(0.1, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        da = 0.01 * rng.normal() + 0.01j * rng.normal()
        t_nd = rng.uniform(0.05, 1.0)
        base = NoiseModel(t, dt, a, da)
        cut = NoiseModel(t, dt, a, da, attenuation_amplitude=t_nd)
        deviation = excess_noise(cut) - t_nd**2 * excess_noise(base)
        worst = max(worst, abs(deviation))
    assert worst == 0.0


def test_attenuator_scaling_against_substituted_model():
    # cross-check the factored form: attenuating the probe amplitude and
    # its fluctuation by hand gives the same excess to rounding
    rng = np.random.default_rng(13)
    for _ in range(200):
        t = rng.uniform(0.1, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        dt = 0.02 * (rng.normal() + 1j * rng.normal())
        a = rng.uniform(0.1, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        da = 0.01 * (rng.normal() + 1j * rng.normal())
        t_nd = rng.uniform(0.05, 1.0)
        cut = NoiseModel(t, dt, a, da, attenuation_amplitude=t_nd)
        manual = NoiseModel(t, dt, t_nd * a, t_nd * da)
        assert excess_noise(cut) == pytest.approx(excess_noise(manual), rel=1e-13, abs=1e-18)


def test_exact_mode_adds_second_order_cross_term():
    t, dt, a, da = 0.9, 0.02, 1.0, 0.01
    model = NoiseModel(t, dt, a, da, attenuation_amplitude=0.5)
    linear = excess_noise(model)
    exact = excess_noise_with_cross_term(model)
    cross = 0.5**2 * 2.0 * np.real(np.conj(t * a) * (dt * da))
    assert exact - linear == pytest.approx(cross, rel=1e-12)


def test_noise_model_validation():
    with pytest.raises(ValueError, match="mean transmission"):
        NoiseModel(mean_transmission=1.1)
    with pytest.raises(ValueError, match="attenuation"):
        NoiseModel(mean_transmission=0.5, attenuation_amplitude=0.0)
    with pytest.raises(ValueError, match="attenuation"):
        NoiseModel(mean_transmission=0.5, attenuation_amplitude=1.2)


def test_noise_fit_recovers_exact_line():
    powers = np.linspace(0.0, 10.0, 21)
    noise = 0.75 + 0.031 * powers
    fit = noise_vs_power_fit(powers, noise)
    assert fit.shot_noise == pytest.approx(0.75, rel=1e-12)
    assert fit.linear_coefficient == pytest.approx(0.031, rel=1e-12)
    assert np.abs(fit.residuals).max() < 1e-12


def test_noise_fit_validation():
    with pytest.raises(ValueError, match="matching"):
        noise_vs_power_fit(np.arange(4.0), np.arange(5.0))
    with pytest.raises(ValueError, match="3 points"):
        noise_vs_power_fit(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="negative"):
        noise_vs_power_fit(np.array([-1.0, 0.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError, match="degenerate"):
        noise_vs_power_fit(np.ones(5), np.ones(5))
    with pytest.raises(ValueError, match="shot-noise"):
        NoiseFit(shot_noise=0.0, linear_coefficient=1.0)


def test_noise_fit_self_consistent_on_model_sweep():
    # sweep the probe power of a noise model; variance grows linearly in
    # power and the fit must recover the zero-power intercept of one
    t, dt = 0.842, 0.008
    powers = np.linspace(0.5, 8.0, 16)
    variances = []
    for p in powers:
        a = np.sqrt(p)
        variances.append(1.0 + excess_noise(NoiseModel(t, dt, a, 0.0)))
    fit = noise_vs_power_fit(powers, np.asarray(variances))
    assert fit.shot_noise == pytest.approx(1.0, rel=1e-9)
    assert fit.linear_coefficient == pytest.approx(2.0 * t * dt, rel=1e-9)


def test_squeezing_through_loss_frozen_value():
    assert squeezing_through_loss(6.0, 0.70) == pytest.approx(3.225463089177449, rel=1e-12)


def test_squeezing_through_loss_fixed_points():
    assert squeezing_through_loss(6.0, 1.0) == pytest.approx(6.0, rel=1e-12)
    assert squeezing_through_loss(0.0, 0.3) == 0.0
    assert squeezing_through_loss(12.0, 0.0) == 0.0


def test_squeezing_through_loss_monotone_and_bounded():
    rng = np.random.default_rng(21)
    s = rng.uniform(0.0, 20.0, 10_000)
    t = rng.uniform(0.0, 1.0, 10_000)
    out = squeezing_through_loss(s, t)
    assert np.all(out >= 0.0)
    assert np.all(out <= s + 1e-12)
    # more loss always hurts
    deeper = squeezing_through_loss(s, np.clip(t + 0.05, 0.0, 1.0))
    assert np.all(deeper >= out - 1e-12)


def test_squeezing_through_loss_composes():
    # two lossy stages equal one stage with the product transmission
    rng = np.random.default_rng(22)
    s = rng.uniform(0.0, 15.0, 10_000)
    t1 = rng.uniform(0.05, 1.0, 10_000)
    t2 = rng.uniform(0.05, 1.0, 10_000)
    stage = squeezing_through_loss(squeezing_through_loss(s, t1), t2)
    direct = squeezing_through_loss(s, t1 * t2)
    assert np.allclose(stage, direct, rtol=1e-12)


def test_squeezing_through_loss_validation():
    with pytest.raises(ValueError, match="transmission"):
        squeezing_through_loss(6.0, 1.5)
    with pytest.raises(ValueError, match="squeezing"):
        squeezing_through_loss(-1.0, 0.5)


def test_photon_flux_frozen_value():
    flux = photon_flux(10e-9, 794.7e-9)
    assert flux == pytest.approx(40006124362.26192, rel=1e-12)
    assert flux == pytest.approx(4.0e10, rel=1e-2)


def test_photon_flux_round_trip_and_zero():
    assert photon_flux(0.0, 780e-9) == 0.0
    # the power of 1e9 photons per second, from the photon energy h c / lambda
    p = 1e9 * PLANCK * SPEED_OF_LIGHT / 794.7e-9
    assert photon_flux(p, 794.7e-9) == pytest.approx(1e9, rel=1e-12)


def test_photon_flux_validation():
    with pytest.raises(ValueError, match="power"):
        photon_flux(-1.0, 794.7e-9)
    with pytest.raises(ValueError, match="wavelength"):
        photon_flux(1.0, 0.0)
