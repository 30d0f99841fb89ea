"""Structural property suite: every solver invariant on small grids."""

import numpy as np
import pytest

from waveqed import (
    DisorderModel,
    EnsembleSpec,
    PulseWaveform,
    average_observable,
    atom_dynamics,
    detuning_grid,
    propagate_pulse,
    synthesize_pulse,
    time_grid,
    transfer_bidirectional,
    transfer_cavity,
    transfer_unidirectional,
    CavitySpec,
)


@pytest.fixture(scope="module")
def pulse():
    return synthesize_pulse(time_grid(256.0, 2 ** 12), 3.0, 0.2,
                            carrier_detuning=2.0, photon_number=1.0, start=2.0)


@pytest.fixture(scope="module")
def medium(pulse):
    return transfer_unidirectional(pulse.detunings(), EnsembleSpec.from_od(5.0, beta=0.01))


def rescaled(pulse, envelope):
    energy = float(np.sum(np.abs(envelope) ** 2) * pulse.dt)
    return PulseWaveform(pulse.t, envelope, pulse.carrier_detuning, energy, pulse.switch_off)


def test_linearity(pulse, medium):
    out = propagate_pulse(pulse, medium)
    for c in (2.0, 0.3 - 0.8j, -1j):
        out_scaled = propagate_pulse(rescaled(pulse, c * pulse.envelope), medium)
        err = np.max(np.abs(out_scaled.envelope - c * out.envelope))
        assert err / np.max(np.abs(c * out.envelope)) < 1e-12


def test_time_invariance(pulse, medium):
    out = propagate_pulse(pulse, medium)
    for shift in (1, 173, 1024):
        out_shifted = propagate_pulse(rescaled(pulse, np.roll(pulse.envelope, shift)), medium)
        err = np.max(np.abs(out_shifted.envelope - np.roll(out.envelope, shift)))
        assert err / np.max(np.abs(out.envelope)) < 1e-12


def test_causality(pulse):
    medium = transfer_unidirectional(pulse.detunings(), EnsembleSpec.from_od(8.0, beta=0.01))
    out = propagate_pulse(pulse, medium)
    onset = 2.0 - 0.636 * 0.2 / 0.474
    pre = pulse.t < onset
    assert np.sum(out.power()[pre]) / np.sum(out.power()) < 1e-9


def test_passivity_random_configurations():
    rng = np.random.default_rng(31)
    grid = detuning_grid(40.0, 256)
    for _ in range(10):
        n = int(rng.integers(1, 80))
        ens = EnsembleSpec(beta=rng.uniform(0.005, 0.5, n),
                           phase=rng.uniform(0, 2 * np.pi, n),
                           shift=np.zeros(n))
        t_spec, r_spec = transfer_bidirectional(grid, ens)
        assert np.max(t_spec.power() + r_spec.power()) <= 1.0 + 1e-12


def test_energy_bound(pulse):
    rng = np.random.default_rng(32)
    for od in (0.5, 3.0, 12.0):
        medium = transfer_unidirectional(pulse.detunings(), EnsembleSpec.from_od(od, beta=0.01))
        out = propagate_pulse(pulse, medium)
        assert out.energy() <= pulse.energy() * (1 + 1e-12)
    # ring-dressed medium stays passive too
    medium = transfer_unidirectional(pulse.detunings(), EnsembleSpec.from_od(3.0, beta=0.01))
    ring = transfer_cavity(medium, CavitySpec(t_rt=0.9, t_c=0.8, tau_rt=5.0, phi0=0.4))
    assert propagate_pulse(pulse, ring).energy() <= pulse.energy() * (1 + 1e-12)


def test_gamma_coll_weighted_average_identity(pulse):
    traj = atom_dynamics(pulse, EnsembleSpec.uniform(30, 0.03))
    dp = np.gradient(traj.traces, pulse.dt, axis=1)
    window = (traj.t > pulse.switch_off + 0.1) & (traj.t < pulse.switch_off + 3.0)
    weighted = -np.sum(dp[:, window], axis=0) / traj.energy[window]
    err = np.abs(weighted - traj.gamma_coll[window]) / np.abs(traj.gamma_coll[window])
    assert np.max(err) < 1e-6


def test_fit_self_consistency():
    from waveqed import fit_pulse_decay

    t = np.linspace(0.0, 5.0, 5000)
    trace = 2.3 * np.exp(-4.2 * t)
    fit = fit_pulse_decay(t, trace, 0.0, 3.0, settle_delay=0.0)
    refit = fit_pulse_decay(t, fit.model(t), 0.0, 3.0, settle_delay=0.0)
    assert abs(refit.rate - fit.rate) / fit.rate < 1e-9
    assert fit.rate == pytest.approx(4.2, rel=1e-9)


def test_monte_carlo_determinism():
    model = DisorderModel(n_atoms=12, beta_mean=0.05, seed=21)
    grid = detuning_grid(4.0, 8)

    def observable(ens):
        t_spec, r_spec = transfer_bidirectional(grid, ens)
        return np.concatenate([t_spec.power(), r_spec.power()])

    runs = [average_observable(model, 48, observable, n_workers=w) for w in (1, 2, 4)]
    for mean, err in runs[1:]:
        assert np.array_equal(mean, runs[0][0])
        assert np.array_equal(err, runs[0][1])


def test_monte_carlo_error_scaling():
    model = DisorderModel(n_atoms=10, beta_mean=0.1, seed=3)
    grid = detuning_grid(4.0, 1)

    def observable(ens):
        t_spec, _ = transfer_bidirectional(grid, ens)
        return t_spec.power()

    errs = [float(average_observable(model, m, observable)[1][0])
            for m in (100, 1000, 10000)]
    assert errs[0] / errs[1] == pytest.approx(np.sqrt(10.0), rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(np.sqrt(10.0), rel=0.2)


def test_edge_shape_sensitivity_is_small():
    # the measured edge duration constrains the ramp only loosely; quantify
    # how much the extracted rates move when the 10-90% width is halved or
    # doubled around its nominal 850 ps
    from waveqed import Units, fit_initial_decay
    from waveqed.fitting import SETTLE_DELAY, WINDOW_SHORT
    from waveqed import collective_rate_at_switchoff

    units = Units()
    duration = units.time_from_si(150e-9)
    t = time_grid(2048.0, 2 ** 16)
    ens = EnsembleSpec.from_od(19.3)
    rates, gammas = [], []
    for rise_ps in (425.0, 850.0, 1700.0):
        pulse = synthesize_pulse(t, duration, units.time_from_si(rise_ps * 1e-12),
                                 carrier_detuning=3.8, photon_number=2.0)
        out = propagate_pulse(pulse, transfer_unidirectional(pulse.detunings(), ens))
        fit = fit_initial_decay(out.t, out.power(), pulse.switch_off,
                                WINDOW_SHORT, SETTLE_DELAY)
        traj = atom_dynamics(pulse, ens, trace_atoms=())
        rates.append(fit.rate)
        gammas.append(collective_rate_at_switchoff(traj, pulse.switch_off))
    assert (max(rates) - min(rates)) / rates[1] < 0.06
    assert (max(gammas) - min(gammas)) / gammas[1] < 0.06
