import math

import numpy as np
import pytest
from scipy.signal import find_peaks

from waveqed import (
    EnsembleSpec,
    TransferSpectrum,
    Units,
    atom_dynamics,
    atom_spectra,
    collective_rate_at_switchoff,
    config_from_dict,
    fit_pulse_decay,
    od_to_atom_number,
    propagate_pulse,
    strided_power,
    synthesize_pulse,
    time_grid,
    transfer_unidirectional,
)
from waveqed.pulses import ENERGY_FLOOR
from waveqed.scenarios import _pulse as scenario_pulse

from oracles import ode_cascade_populations, uniform_cascade_output

UNITS = Units()
NS = UNITS.time_from_si(1e-9)


def small_pulse(carrier=0.0, duration=3.0, rise=0.2, photon=1.0, span=256.0, n=2 ** 12):
    return synthesize_pulse(time_grid(span, n), duration, rise,
                            carrier_detuning=carrier, photon_number=photon, start=2.0)


class TestSynthesize:
    def test_boxcar_limit_plateau(self):
        pulse = synthesize_pulse(time_grid(256.0, 2 ** 12), 3.0, 0.0,
                                 photon_number=1.0, start=2.0)
        plateau = math.sqrt(1.0 / 3.0)
        assert np.max(np.abs(pulse.envelope)) == pytest.approx(plateau, rel=5e-3)

    def test_experimental_pulse_plateau(self):
        dur, rise = 150 * NS, 0.85 * NS
        pulse = synthesize_pulse(time_grid(1024.0, 2 ** 15), dur, rise, photon_number=2.0)
        assert pulse.power().max() == pytest.approx(2.0 / dur, rel=0.01)
        assert pulse.energy() == pytest.approx(2.0, rel=1e-9)

    def test_power_rise_width_matches_request(self):
        dur, rise = 150 * NS, 0.85 * NS
        pulse = synthesize_pulse(time_grid(1024.0, 2 ** 15), dur, rise, photon_number=2.0)
        power = pulse.power()
        peak = power.max()
        i10 = np.argmax(power > 0.1 * peak)
        i90 = np.argmax(power > 0.9 * peak)
        assert (i90 - i10) * pulse.dt == pytest.approx(rise, abs=1.5 * pulse.dt)

    def test_duration_between_half_power_points(self):
        pulse = small_pulse(duration=4.0, rise=0.4)
        power = pulse.power()
        half = 0.5 * power.max()
        above = np.nonzero(power >= half)[0]
        measured = (above[-1] - above[0]) * pulse.dt
        assert measured == pytest.approx(4.0, abs=2 * pulse.dt)

    def test_under_resolved_edges_rejected(self):
        t = time_grid(64.0, 2 ** 11)  # dt ~ 0.049
        with pytest.raises(ValueError, match="under-resolved"):
            synthesize_pulse(t, 5.0, 0.2, start=3.0)

    def test_rise_must_be_shorter_than_duration(self):
        with pytest.raises(ValueError):
            small_pulse(duration=1.0, rise=1.5)

    def test_window_padding_enforced(self):
        t = time_grid(256.0, 2 ** 9)  # only ~6.3 natural units long
        with pytest.raises(ValueError, match="window"):
            synthesize_pulse(t, 3.0, 0.2, start=2.0)

    def test_switch_off_metadata(self):
        # trailing ramp completes 50%-point + f50 * ramp after the plateau
        pulse = small_pulse(duration=3.0, rise=0.2)
        assert pulse.switch_off == pytest.approx(2.0 + 3.0 + 0.6359 * 0.2 / 0.4744, rel=1e-3)


class TestPropagate:
    def test_identity_round_trip(self):
        pulse = small_pulse(carrier=1.5)
        unity = TransferSpectrum(pulse.detunings(), np.ones(pulse.t.size, dtype=complex))
        out = propagate_pulse(pulse, unity)
        err = np.max(np.abs(out.envelope - pulse.envelope)) / np.max(np.abs(pulse.envelope))
        assert err < 1e-12

    def test_single_atom_steady_state(self):
        # settle for many lifetimes so the transient has fully decayed
        pulse = synthesize_pulse(time_grid(256.0, 2 ** 14), 30.0, 0.2,
                                 carrier_detuning=0.0, photon_number=1.0, start=2.0)
        ens = EnsembleSpec.uniform(1, 0.0055)
        out = propagate_pulse(pulse, transfer_unidirectional(pulse.detunings(), ens))
        sel = (pulse.t > 25.0) & (pulse.t < 30.0)
        fraction = out.power()[sel].mean() / pulse.power()[sel].mean()
        assert fraction == pytest.approx((1 - 2 * 0.0055) ** 2, rel=1e-4)

    def test_grid_mismatch_rejected(self):
        pulse = small_pulse(carrier=1.5)
        wrong = TransferSpectrum(pulse.detunings() + 0.5,
                                 np.ones(pulse.t.size, dtype=complex))
        with pytest.raises(ValueError, match="grid mismatch"):
            propagate_pulse(pulse, wrong)

    def test_nan_response_rejected(self):
        # the response constructs (|NaN| <= 1 is not false), the output's energy check stops it
        pulse = small_pulse(carrier=1.5)
        amplitude = np.ones(pulse.t.size, dtype=complex)
        amplitude[100] = np.nan
        medium = TransferSpectrum(pulse.detunings(), amplitude)
        with pytest.raises(ValueError, match="finite"):
            propagate_pulse(pulse, medium)

    @pytest.mark.parametrize("extra", [0, 8], ids=["same-length", "longer"])
    @pytest.mark.parametrize("shift", [1e-6, 0.5], ids=["1e-6-step", "half-step"])
    def test_shifted_grid_rejected(self, shift, extra):
        # 256 points: 1e-6 of a step is about 4x the window's tolerance, but below 10x
        pulse = synthesize_pulse(time_grid(16.0, 2 ** 8), 6.0, 1.6, start=4.0)
        expected = pulse.detunings()
        step = expected[1] - expected[0]
        grid = expected[0] + step * (np.arange(-extra, expected.size + extra) + shift)
        medium = TransferSpectrum(grid, np.ones(grid.size, dtype=complex))
        with pytest.raises(ValueError, match="grid mismatch"):
            propagate_pulse(pulse, medium)

    def test_union_grid_window_equals_the_sliced_response(self):
        # the pulse's grid sits 5 whole steps into a longer one
        pulse = small_pulse(carrier=1.5)
        expected = pulse.detunings()
        union = expected[0] + (expected[1] - expected[0]) * np.arange(-5, expected.size + 3)
        medium = transfer_unidirectional(union, EnsembleSpec.from_od(3.0, beta=0.01))
        window = slice(5, 5 + expected.size)
        sliced = TransferSpectrum(union[window], medium.amplitude[window])
        out = propagate_pulse(pulse, medium)
        assert out.envelope.tobytes() == propagate_pulse(pulse, sliced).envelope.tobytes()
        assert out.photon_number < pulse.photon_number

    def test_aliasing_guard_trips_on_hard_boxcar(self):
        # a 1/Gamma0 boxcar has ~omega^-2 spectral tails well above the guard
        pulse = synthesize_pulse(time_grid(256.0, 2 ** 12), 1.0, 0.0,
                                 photon_number=1.0, start=2.0)
        unity = TransferSpectrum(pulse.detunings(), np.ones(pulse.t.size, dtype=complex))
        with pytest.raises(ValueError, match="aliasing"):
            propagate_pulse(pulse, unity)

    def test_transmitted_energy_recorded(self):
        pulse = small_pulse()
        ens = EnsembleSpec.from_od(2.0, beta=0.01)
        out = propagate_pulse(pulse, transfer_unidirectional(pulse.detunings(), ens))
        assert out.photon_number == pytest.approx(out.energy(), rel=1e-12)
        assert out.photon_number < pulse.photon_number


@pytest.fixture(scope="module")
def fig2_trace():
    dur, rise = 150 * NS, 0.85 * NS
    pulse = synthesize_pulse(time_grid(1024.0, 2 ** 15), dur, rise,
                             carrier_detuning=17.3, photon_number=2.0)
    ens = EnsembleSpec.from_od(19.3)
    out = propagate_pulse(pulse, transfer_unidirectional(pulse.detunings(), ens))
    return pulse, out


class TestCollectiveTransmission:
    """Time-resolved transmission through a thick ensemble at OD 19.3."""

    def test_rabi_oscillation_frequency(self, fig2_trace):
        pulse, out = fig2_trace
        power = out.power()
        sel = slice(np.searchsorted(pulse.t, 1.2), np.searchsorted(pulse.t, pulse.switch_off - 0.1))
        peaks, _ = find_peaks(power[sel])
        spacing = np.median(np.diff(pulse.t[sel][peaks]))
        assert spacing == pytest.approx(2 * math.pi / 17.3, rel=0.05)

    def test_oscillation_contrast_revival(self, fig2_trace):
        pulse, out = fig2_trace
        power = out.power()
        sel = slice(np.searchsorted(pulse.t, 1.2), np.searchsorted(pulse.t, pulse.switch_off - 0.1))
        seg = power[sel]
        peaks, _ = find_peaks(seg)
        troughs, _ = find_peaks(-seg)
        m = min(peaks.size, troughs.size)
        contrast = np.abs(seg[peaks[:m]] - seg[troughs[:m]])
        k = int(np.argmin(contrast))
        assert 0 < k < contrast.size - 1, "contrast minimum should be interior"
        assert contrast[:k].max() > 10 * contrast[k]
        assert contrast[k:].max() > 10 * contrast[k], "no revival after the contrast node"


def populations(pulse, ensemble, atoms=None):
    """p_n(t) on pulse.t from atom_spectra, one row per atom (0-based atoms
    listed, or all)."""
    return np.array([np.abs(np.fft.ifft(q)) ** 2
                     for n, q in enumerate(atom_spectra(pulse, ensemble))
                     if atoms is None or n in atoms])


class TestAtomDynamics:
    def test_single_atom_decays_at_intrinsic_rate(self):
        dur, rise = 150 * NS, 0.85 * NS
        pulse = synthesize_pulse(time_grid(1024.0, 2 ** 15), dur, rise, photon_number=2.0)
        p_1 = populations(pulse, EnsembleSpec.uniform(1, 0.0055))[0]
        fit = fit_pulse_decay(pulse.t, p_1, pulse.switch_off, 30 * NS, NS)
        assert fit.rate == pytest.approx(1.0, rel=5e-3)

    def test_matches_ode_cascade(self):
        pulse = small_pulse(carrier=2.0, duration=4.0, rise=0.3, photon=1.5)
        beta, n = 0.05, 30
        p = populations(pulse, EnsembleSpec.uniform(n, beta))
        reference = ode_cascade_populations(pulse, beta, n)
        deviation = np.max(np.abs(p - reference)) / np.max(reference)
        assert deviation < 5e-4

    def test_first_atom_universal(self):
        pulse = small_pulse(carrier=1.0)
        p_alone = populations(pulse, EnsembleSpec.uniform(1, 0.02))[0]
        p_in_chain = populations(pulse, EnsembleSpec.uniform(40, 0.02), atoms=(0,))[0]
        assert np.array_equal(p_alone, p_in_chain)

    def test_probabilities_bounded(self):
        pulse = small_pulse(carrier=0.5, photon=2.0)
        p = populations(pulse, EnsembleSpec.uniform(25, 0.02))
        assert np.all(p >= 0)
        assert np.all(p <= 1.0)

    def test_energy_vanishes_at_window_end(self):
        pulse = small_pulse()
        traj = atom_dynamics(pulse, EnsembleSpec.uniform(10, 0.02))
        assert traj.energy[-1] < 1e-9 * traj.energy.max()

    @pytest.mark.parametrize("stride", [2, 4, 8, 3])
    def test_strided_traces_match_full_resolution(self, stride):
        # 2, 4 and 8 divide the 2^12-point grid and fold the spectrum; 3 does not
        pulse = small_pulse(carrier=1.0)
        ens = EnsembleSpec.uniform(20, 0.03)
        strided = np.array([strided_power(q, stride) for q in atom_spectra(pulse, ens)])
        full = populations(pulse, ens)[:, ::stride]
        assert strided.shape == full.shape
        assert np.max(np.abs(strided - full)) <= 1e-15 * full.max()

    def test_uniform_beta_energy_needs_no_per_atom_transform(self, monkeypatch):
        calls = []
        ifft = np.fft.ifft

        def counted(*args, **kwargs):
            calls.append(1)
            return ifft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", counted)
        pulse = small_pulse(carrier=1.0)
        counts = []
        for n_atoms in (10, 300):
            calls.clear()
            atom_dynamics(pulse, EnsembleSpec.uniform(n_atoms, 0.02))
            counts.append(len(calls))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("beta", [0.03], ids=["flux_balance"])
    def test_rate_masked_before_onset_and_in_far_tail(self, beta):
        pulse = small_pulse(carrier=1.0)
        traj = atom_dynamics(pulse, EnsembleSpec.uniform(20, beta))
        onset = pulse.t[np.flatnonzero(pulse.envelope)[0]]
        outside = (traj.t < onset) | (traj.t > pulse.switch_off + 30.0)
        assert np.count_nonzero(outside) > 1000
        assert not np.any(traj.valid[outside])
        assert np.all(np.isnan(traj.gamma_coll[outside]))
        assert np.all(np.isfinite(traj.gamma_coll[traj.valid]))

    def test_phase_reversal_along_array(self):
        # atoms deep in the array flip their oscillation phase during the
        # plateau while the first atom stays locked to the drive
        dur, rise = 150 * NS, 0.85 * NS
        pulse = synthesize_pulse(time_grid(1024.0, 2 ** 15), dur, rise,
                                 carrier_detuning=17.3, photon_number=2.0)
        ens = EnsembleSpec.from_od(19.3)
        p = populations(pulse, ens, atoms=(0, 99, 599))
        dc = 17.3

        def max_drift(trace):
            smooth = np.convolve(trace, np.ones(33) / 33, mode="same")
            z = (trace - smooth) * np.exp(1j * dc * pulse.t)
            kern = np.hanning(int(round(4 * math.pi / dc / pulse.dt)))
            z = np.convolve(z, kern / kern.sum(), mode="same")
            lo = np.searchsorted(pulse.t, 1.3)
            hi = np.searchsorted(pulse.t, pulse.switch_off - 0.05)
            phase = np.unwrap(np.angle(z[lo:hi]))
            return np.max(np.abs(phase - phase[8]))

        assert max_drift(p[0]) < 0.5          # 1st atom: locked
        assert max_drift(p[1]) > 2.0          # 100th: reverses
        assert max_drift(p[2]) > 3.0          # 600th: fully reversed


class TestCollectiveRate:
    def test_single_atom_rate_is_one(self):
        pulse = small_pulse()
        traj = atom_dynamics(pulse, EnsembleSpec.uniform(1, 0.0055))
        assert collective_rate_at_switchoff(traj, pulse.switch_off) == pytest.approx(1.0, rel=1e-4)

    def test_reads_every_fig3_od(self):
        # the energy floor sits far below the stored energy at switch-off
        config = config_from_dict({"scenario": "fig3"})
        pulse = scenario_pulse(config, config.detuning)
        for od in config.od_values:
            traj = atom_dynamics(pulse, EnsembleSpec.from_od(od, config.beta))
            gamma = collective_rate_at_switchoff(traj, pulse.switch_off)
            idx = np.searchsorted(traj.t, pulse.switch_off + 0.02)
            assert np.isfinite(gamma) and gamma > 0
            assert traj.energy[idx] > 1e3 * ENERGY_FLOOR * traj.energy.max()

    @pytest.mark.parametrize("scenario", ["fig2", "fig3"])
    def test_transmitted_power_bitwise_equal_to_propagate_pulse(self, scenario):
        config = config_from_dict({"scenario": scenario})
        pulse = scenario_pulse(config, config.detuning)
        for od in config.od_values if scenario == "fig3" else [config.od]:
            ens = EnsembleSpec.from_od(od, config.beta)
            medium = transfer_unidirectional(pulse.detunings(), ens)
            assert np.array_equal(atom_dynamics(pulse, ens).transmitted_power,
                                  propagate_pulse(pulse, medium).power())

    def test_error_outside_window(self):
        pulse = small_pulse()
        traj = atom_dynamics(pulse, EnsembleSpec.uniform(1, 0.0055))
        with pytest.raises(ValueError):
            collective_rate_at_switchoff(traj, pulse.t[-1] + 1.0)


def test_propagation_matches_analytic_cascade_at_fig3_od34():
    # N = 1537 identical atoms at carrier 3.8: the Laguerre impulse response
    # convolved in the time domain converges at second order in dt to the
    # FFT propagation through t^N; it shares no code with the FFT path
    beta = 0.0055
    n_atoms = od_to_atom_number(34.0, beta)
    errors = []
    for k in range(3):  # dt = pi/1024, pi/2048, pi/4096 on the same window
        pulse = synthesize_pulse(time_grid(1024.0 * 2 ** k, 2 ** (15 + k)), 150 * NS,
                                 0.85 * NS, carrier_detuning=3.8, photon_number=2.0)
        ens = EnsembleSpec.uniform(n_atoms, beta)
        power = propagate_pulse(pulse, transfer_unidirectional(pulse.detunings(), ens)).power()
        reference = np.abs(uniform_cascade_output(pulse, beta, n_atoms)) ** 2
        window = pulse.t <= pulse.switch_off + 15.0
        errors.append(np.max(np.abs(power - reference)[window]) / power.max())
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((ratios >= 3.8) & (ratios <= 4.2)), ratios
    assert errors[-1] < 2e-5
