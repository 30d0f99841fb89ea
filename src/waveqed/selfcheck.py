"""Structural invariants of the solver stack, each stated once.

Each check exercises one property on small grids: transform linearity and
shift covariance, causality, passivity and energy conservation, the
cascade's energy balance behind the collective rate, fit consistency, and
Monte Carlo determinism with 1/sqrt(M) error scaling.  The ``check`` CLI subcommand runs
ALL_CHECKS in order; the acceptance suite runs each one as its own case
(criterion C8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disorder import DisorderModel, average_observable, sample_configuration
from .fitting import fit_pulse_decay, ring_multipass
from .physics import CavitySpec, EnsembleSpec
from .pulses import (
    atom_dynamics,
    atom_spectra,
    propagate_pulse,
    synthesize_pulse,
    time_grid,
)
from .spectra import detuning_grid, transfer_bidirectional, transfer_unidirectional


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _pulse():
    return synthesize_pulse(time_grid(256.0, 2 ** 12), 3.0, 0.2, carrier_detuning=2.0,
                            photon_number=1.0, start=2.0)


def _medium(pulse, od=5.0):
    return transfer_unidirectional(pulse.detunings(), EnsembleSpec.from_od(od, beta=0.01))


def _two_way_powers(grid):
    """Observable: transmitted then reflected power on grid, concatenated."""
    def observable(ens):
        t_spec, r_spec = transfer_bidirectional(grid, ens)
        return np.concatenate([t_spec.power(), r_spec.power()])
    return observable


def check_linearity() -> CheckResult:
    pulse = _pulse()
    medium = _medium(pulse)
    out = propagate_pulse(pulse, medium).envelope
    worst = 0.0
    for c in (0.37 - 1.21j, 2.0, 0.3 - 0.8j, -1j):
        scaled = propagate_pulse(pulse.with_envelope(c * pulse.envelope), medium).envelope
        worst = max(worst, np.max(np.abs(scaled - c * out)) / np.max(np.abs(c * out)))
    return CheckResult("linearity", bool(worst < 1e-12), f"max relative deviation {worst:.2e}")


def check_time_invariance() -> CheckResult:
    pulse = _pulse()
    medium = _medium(pulse)
    out = propagate_pulse(pulse, medium).envelope
    worst = 0.0
    for shift in (1, 173, 257, 1024):
        rolled = pulse.with_envelope(np.roll(pulse.envelope, shift))
        err = np.max(np.abs(propagate_pulse(rolled, medium).envelope - np.roll(out, shift)))
        worst = max(worst, err / np.max(np.abs(out)))
    return CheckResult("time_invariance", bool(worst < 1e-12),
                       f"max relative deviation {worst:.2e}")


def check_causality() -> CheckResult:
    pulse = _pulse()
    power = propagate_pulse(pulse, _medium(pulse, od=8.0)).power()
    onset = pulse.t[np.flatnonzero(pulse.envelope)[0]]  # first nonzero input sample
    fraction = float(np.sum(power[pulse.t < onset]) / np.sum(power))
    return CheckResult("causality", fraction < 1e-9, f"pre-onset energy fraction {fraction:.2e}")


def check_passivity() -> CheckResult:
    # 24 random ensembles on |delta| < 40: (seed, grid points, ensembles,
    # atom-number bound, smallest beta), one beta per ensemble drawn up to 0.5
    worst = 0.0
    for seed, points, count, max_atoms, beta_min in ((5, 512, 6, 40, 0.01),
                                                     (31, 256, 10, 80, 0.005),
                                                     (13, 256, 8, 60, 0.01)):
        rng = np.random.default_rng(seed)
        grid = detuning_grid(40.0, points)
        for _ in range(count):
            n = int(rng.integers(1, max_atoms))
            ens = EnsembleSpec(beta=rng.uniform(beta_min, 0.5),
                               phase=rng.uniform(0, 2 * math.pi, n))
            t_spec, r_spec = transfer_bidirectional(grid, ens)
            worst = max(worst, float(np.max(t_spec.power() + r_spec.power())))
    return CheckResult("passivity", worst <= 1.0 + 1e-12, f"max |t|^2+|r|^2 = {worst:.12f}")


def check_energy_bound() -> CheckResult:
    pulse = _pulse()
    outputs = [propagate_pulse(pulse, _medium(pulse, od)).energy() for od in (0.5, 3.0, 12.0)]
    # the ring the CLI runs (fig5), around the OD-3 medium: what it couples
    # out over its window stays below the input too
    ring = ring_multipass(pulse, EnsembleSpec.from_od(3.0, beta=0.01),
                          CavitySpec(t_rt=0.9, t_c=0.8, tau_rt=5.0, phi0=0.4), roundtrips=6,
                          start=2.0, settle_delay=0.0)
    outputs.append(float(np.sum(ring.cavity_power)) * pulse.dt)
    ratio = max(outputs) / pulse.energy()
    return CheckResult("energy_bound", ratio <= 1.0 + 1e-12,
                       f"max output/input energy {ratio:.6f}")


def check_gamma_identity() -> CheckResult:
    # atom_dynamics takes Gamma_coll from the cascade's energy balance
    # dE/dt = P_in - P_out - (1 - beta) E, solving it for E by one FFT;
    # check E and Gamma_coll against the independent sum of the N per-atom
    # populations of atom_spectra and its centered-difference rate.
    pulse = _pulse()
    ensembles = (EnsembleSpec.uniform(40, 0.02), EnsembleSpec.uniform(30, 0.03))
    energy_err = gamma_err = 0.0
    for ens in ensembles:
        traj = atom_dynamics(pulse, ens)
        stored = sum(np.abs(np.fft.ifft(q)) ** 2 for q in atom_spectra(pulse, ens))
        peak = float(np.max(stored))
        energy_err = max(energy_err, float(np.max(np.abs(traj.energy - stored))) / peak)
        late = np.flatnonzero((traj.t > pulse.switch_off + 0.1)
                              & (traj.t < pulse.switch_off + 3.0) & traj.valid)
        gamma = -(stored[late + 1] - stored[late - 1]) / (2.0 * pulse.dt) / stored[late]
        gamma_err = max(gamma_err, float(np.max(np.abs(traj.gamma_coll[late] - gamma)
                                                / np.abs(gamma))))
    passed = energy_err < 1e-6 and gamma_err < 1e-3
    return CheckResult("gamma_identity", passed,
                       f"flux balance vs sum of traces {energy_err:.1e} of peak, "
                       f"Gamma_coll max relative deviation {gamma_err:.1e}")


def check_fit_consistency() -> CheckResult:
    # (amplitude, rate, trace end, samples, switch-off, window length)
    worst = 0.0
    for amplitude, rate, t_end, n, t_off, window in ((0.8, 1.7, 3.0, 2000, -0.05, 2.5),
                                                     (2.3, 4.2, 5.0, 5000, 0.0, 3.0),
                                                     (0.7, 3.3, 4.0, 4000, 0.0, 1.0)):
        t = np.linspace(0.0, t_end, n)
        fit = fit_pulse_decay(t, amplitude * np.exp(-rate * t), t_off, window, settle_delay=0.0)
        refit = fit_pulse_decay(t, fit.model(t), t_off, window, settle_delay=0.0)
        worst = max(worst, abs(refit.rate - fit.rate) / fit.rate, abs(fit.rate - rate) / rate)
    return CheckResult("fit_consistency", worst < 1e-9, f"max rate deviation {worst:.2e}")


def check_mc_determinism() -> CheckResult:
    model = DisorderModel(n_atoms=12, beta_mean=0.05, seed=21)
    observable = _two_way_powers(detuning_grid(4.0, 8))
    identical = True
    for n_configs in (48, 70):  # 70 leaves a short last chunk
        mean, err = average_observable(model, n_configs, observable)
        for n_workers in (2, 3, 4):
            mean_w, err_w = average_observable(model, n_configs, observable, n_workers=n_workers)
            identical &= np.array_equal(mean, mean_w) and np.array_equal(err, err_w)
    rep = sample_configuration(model, 7)
    again = sample_configuration(model, 7)
    stable = np.array_equal(rep.phase, again.phase)
    return CheckResult("mc_determinism", identical and stable,
                       "bitwise stable across worker counts" if identical and stable
                       else "results differ across workers or repeats")


def check_mc_error_scaling() -> CheckResult:
    model = DisorderModel(n_atoms=10, beta_mean=0.1, seed=3)
    observable = _two_way_powers(detuning_grid(4.0, 1))
    errs = np.array([average_observable(model, m, observable)[1] for m in (100, 1000, 10000)])
    ratios = errs[:-1] / errs[1:] / math.sqrt(10.0)  # rows: 10x steps; columns: T, R
    ok = bool(np.all(np.abs(ratios - 1.0) < 0.2))
    return CheckResult("mc_error_scaling", ok,
                       f"stderr ratios / sqrt(10): T {ratios[0, 0]:.3f}, {ratios[1, 0]:.3f}; "
                       f"R {ratios[0, 1]:.3f}, {ratios[1, 1]:.3f}")


ALL_CHECKS = (
    check_linearity,
    check_time_invariance,
    check_causality,
    check_passivity,
    check_energy_bound,
    check_gamma_identity,
    check_fit_consistency,
    check_mc_determinism,
    check_mc_error_scaling,
)
