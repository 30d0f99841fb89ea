import math

import numpy as np
import pytest

from waveqed import (
    CavitySpec,
    DisorderModel,
    EnsembleSpec,
    TransferSpectrum,
    Units,
    atom_dynamics,
    average_observable,
    backward_decay_sweep,
    collective_decay_vs_od,
    collective_rate_at_switchoff,
    config_from_dict,
    fit_initial_decay,
    fit_pulse_decay,
    propagate_pulse,
    residual_spectrum,
    run_scenario,
    synthesize_pulse,
    time_grid,
    transfer_bidirectional,
    transfer_cavity,
    transfer_unidirectional,
)
from waveqed import fitting, scenarios
from waveqed.disorder import sample_configuration
from waveqed.fitting import FLASH_WINDOW, SETTLE_DELAY

UNITS = Units()
NS = UNITS.time_from_si(1e-9)
WINDOW_SHORT = UNITS.time_from_si(15e-9)  # the fig4 forward window
WINDOW_LONG = UNITS.time_from_si(30e-9)   # the fig4 backward window


def exp_trace(rate=1.0, amp=1.0, t_end=4.0, n=4000):
    t = np.linspace(0.0, t_end, n)
    return t, amp * np.exp(-rate * t)


class TestFitPulseDecay:
    def test_exact_exponential(self):
        t, y = exp_trace(rate=1.0)
        fit = fit_pulse_decay(t, y, t_off=-0.01, window_len=3.0, settle_delay=0.0)
        assert fit.rate == pytest.approx(1.0, abs=1e-6)
        assert fit.rms_residual < 1e-12

    def test_window_placement(self):
        t, y = exp_trace(rate=2.0, t_end=6.0)
        fit = fit_pulse_decay(t, y, t_off=1.0, window_len=2.0, settle_delay=0.5)
        assert fit.window[0] > 1.5
        assert fit.window[1] <= 3.5 + (t[1] - t[0])
        assert fit.rate == pytest.approx(2.0, rel=1e-9)

    def test_window_choice_invariance_for_pure_exponential(self):
        t, y = exp_trace(rate=1.7, t_end=8.0, n=8000)
        rates = [fit_pulse_decay(t, y, 0.0, w, settle_delay=0.0).rate
                 for w in (1.0, 2.5, 5.0)]
        assert max(rates) - min(rates) < 1e-9

    def test_rejects_nonpositive_samples(self):
        t = np.linspace(0.0, 2.0, 500)
        y = np.exp(-t)
        y[100] = 0.0
        with pytest.raises(ValueError, match="non-positive"):
            fit_pulse_decay(t, y, 0.0, 1.0, settle_delay=0.0)

    def test_rejects_short_window(self):
        t, y = exp_trace()
        with pytest.raises(ValueError, match="samples"):
            fit_pulse_decay(t, y, 0.0, 1e-4, settle_delay=0.0)

    def test_rejects_rising_trace(self):
        t = np.linspace(0.0, 2.0, 500)
        with pytest.raises(ValueError, match="decay"):
            fit_pulse_decay(t, np.exp(+t), 0.0, 1.0, settle_delay=0.0)

    def test_initial_decay_tracks_fast_start(self):
        # fast flash into a slow shoulder: the adaptive window reports the
        # flash rate, a long fixed window is dragged toward the shoulder
        t = np.linspace(0.0, 3.0, 6000)
        y = np.exp(-12.0 * t) + 0.05 * np.exp(-0.5 * t)
        fast = fit_initial_decay(t, y, 0.0, window_cap=1.0, settle_delay=0.0)
        slow = fit_pulse_decay(t, y, 0.0, 1.0, settle_delay=0.0)
        assert fast.rate == pytest.approx(12.0, rel=0.15)
        assert slow.rate < 0.5 * fast.rate


class TestResidualSpectrum:
    def test_pure_exponential_has_no_peak(self):
        # residuals sit at the machine-noise floor and no single feature
        # concentrates the in-band power
        t, y = exp_trace(rate=1.0, t_end=3.0, n=3000)
        fit = fit_pulse_decay(t, y, 0.0, 2.5, settle_delay=0.0)
        assert fit.rms_residual < 1e-12
        spec = residual_spectrum(fit)
        band = spec.frequency >= spec.min_frequency
        assert spec.peak_prominence < 0.1 * np.sum(spec.psd[band])

    def test_synthetic_beat_detected_within_one_bin(self):
        f0 = 11.0
        t = np.linspace(0.0, 4.0, 8000)
        y = np.exp(-t) * (1.0 + 0.05 * np.cos(f0 * t))
        fit = fit_pulse_decay(t, y, 0.0, 3.5, settle_delay=0.0)
        spec = residual_spectrum(fit)
        bin_width = 2 * math.pi / (fit.t[-1] - fit.t[0])
        assert abs(spec.peak_frequency - f0) <= bin_width
        band = spec.frequency >= spec.min_frequency
        assert spec.peak_prominence > 0.3 * np.sum(spec.psd[band])

    def test_hyperfine_scale_beat_detected(self):
        # 48.1 Gamma0 corresponds to a ~250 MHz beat at the default linewidth
        f0 = 48.1
        assert f0 * UNITS.gamma0_hz == pytest.approx(250e6, rel=2e-3)
        t = np.arange(0.0, 30 * NS, 1e-3)
        y = np.exp(-t) * (1.0 + 0.05 * np.cos(f0 * t))
        fit = fit_pulse_decay(t, y, 0.0, 30 * NS, settle_delay=0.0)
        spec = residual_spectrum(fit)
        bin_width = 2 * math.pi / (fit.t[-1] - fit.t[0])
        assert abs(spec.peak_frequency - f0) <= bin_width

    def test_min_frequency_window_guard(self):
        t, y = exp_trace(rate=1.0, t_end=2.0)
        fit = fit_pulse_decay(t, y, 0.0, 1.0, settle_delay=0.0)
        with pytest.raises(ValueError, match="4 periods"):
            residual_spectrum(fit, min_frequency=1.0)


class TestBackwardSweep:
    def test_single_atom_both_directions_intrinsic(self):
        pulse = synthesize_pulse(time_grid(256.0, 2 ** 12), 3.0, 0.2)
        sweep = backward_decay_sweep(pulse, 1, [0.0], 0.0055, n_configs=2, seed=1,
                                     forward_window=WINDOW_SHORT, backward_window=WINDOW_LONG,
                                     settle_delay=SETTLE_DELAY)
        assert sweep[0].forward.rate == pytest.approx(1.0, rel=5e-3)
        assert sweep[0].backward.rate == pytest.approx(1.0, rel=5e-3)


# Small sweep: 40 atoms, 2^12 points with step 2 * 256 / 2^12 = 0.125.
SMALL_BETA = 0.05
SMALL_ATOMS = 40
SMALL_GRID = {"span": 256.0, "grid_points": 2 ** 12, "duration": 3.0, "rise_fall": 0.2}


def small_pulses(carriers, grid_points=SMALL_GRID["grid_points"]):
    t = time_grid(SMALL_GRID["span"], grid_points)
    return [synthesize_pulse(t, SMALL_GRID["duration"], SMALL_GRID["rise_fall"],
                             carrier_detuning=c) for c in carriers]


def per_carrier_reference(carriers, n_configs, seed):
    """Mean traces and rates with one transfer_bidirectional per carrier and configuration."""
    model = DisorderModel(n_atoms=SMALL_ATOMS, beta_mean=SMALL_BETA, seed=seed)
    traces, rates = [], []
    for pulse in small_pulses(carriers):
        def both_directions(ens, pulse=pulse):
            t_spec, r_spec = transfer_bidirectional(pulse.detunings(), ens)
            return np.stack([propagate_pulse(pulse, t_spec).power(),
                             propagate_pulse(pulse, r_spec).power()])

        mean, _ = average_observable(model, n_configs, both_directions)
        traces.append(mean)
        rates.append([fit_initial_decay(pulse.t, mean[0], pulse.switch_off,
                                        WINDOW_SHORT).rate,
                      fit_initial_decay(pulse.t, mean[1], pulse.switch_off,
                                        WINDOW_LONG).rate])
    return np.array(traces), np.array(rates)


class TestSharedGridSweep:
    @pytest.mark.parametrize("carriers, n_groups", [
        ((0.5, 1.5, 3.0), 1),     # all on the 0.125 step
        ((0.5, 1.3, 3.0), 2),     # 1.3 is 10.4 steps from 0.5
        ((-2.0, 0.5, 4.0), 1),    # negative carrier
        ((1.5, 0.5, 1.5), 1),     # duplicated carrier
    ])
    def test_matches_per_carrier_recursion(self, monkeypatch, carriers, n_groups):
        n_configs, seed = 3, 5
        ref_traces, ref_rates = per_carrier_reference(carriers, n_configs, seed)

        model = DisorderModel(n_atoms=SMALL_ATOMS, beta_mean=SMALL_BETA, seed=seed)
        observable = fitting._directional_powers(small_pulses(carriers))
        traces, _ = average_observable(model, n_configs, observable)
        assert traces.shape == ref_traces.shape
        assert np.max(np.abs(traces - ref_traces)) <= 1e-9

        calls = []
        recursion = fitting._recursion

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return recursion(*args, **kwargs)

        monkeypatch.setattr(fitting, "_recursion", counted)
        sweep = backward_decay_sweep(small_pulses(carriers[:1])[0], SMALL_ATOMS, carriers,
                                     SMALL_BETA, n_configs, seed, WINDOW_SHORT, WINDOW_LONG,
                                     SETTLE_DELAY)
        assert len(calls) == n_configs * n_groups
        rates = np.array([[r.forward.rate, r.backward.rate] for r in sweep])
        assert np.all(np.abs(rates / ref_rates - 1.0) <= 1e-12)
        assert [r.detuning for r in sweep] == list(carriers)

    def test_powers_bitwise_equal_to_propagate_pulse(self):
        # the pipeline's unchecked propagation rounds exactly as the public
        # one; at 2^15 points numpy multiplies into an unnamed temporary with
        # the operands swapped, so an expression written otherwise would not
        n = 2 ** 15
        pulses = small_pulses((0.5, 1.5, -0.25), n)
        ens = sample_configuration(DisorderModel(SMALL_ATOMS, SMALL_BETA, seed=3), 0)
        powers = fitting._directional_powers(pulses)(ens)
        (grid, members), = fitting._shared_grids(pulses)
        t_prod, s = fitting._recursion(grid, ens, fitting.RECURSION_EPS)
        for i, start in members:
            for row, amplitude in enumerate((t_prod, s)):
                medium = TransferSpectrum(grid[start:start + n], amplitude[start:start + n])
                assert np.array_equal(powers[i, row], propagate_pulse(pulses[i], medium).power())

    def test_forward_average_bitwise_equal_to_propagate_pulse(self):
        pulse, = small_pulses((0.5,), 2 ** 15)
        _, mean, _ = fitting.disorder_averaged_forward(pulse, SMALL_ATOMS, SMALL_BETA, 1, seed=3)
        ens = sample_configuration(DisorderModel(SMALL_ATOMS, SMALL_BETA, seed=3), 0)
        t_spec, _ = transfer_bidirectional(pulse.detunings(), ens)
        assert np.array_equal(mean, propagate_pulse(pulse, t_spec).power())

    def test_union_grid_spans_the_group(self):
        pulses = small_pulses((0.5, 1.5, -0.25))
        (grid, members), = fitting._shared_grids(pulses)
        n = SMALL_GRID["grid_points"]
        assert grid.size == n + 14  # offsets 0, +8 and -6 steps
        for (i, start), pulse in zip(members, pulses):
            assert np.allclose(grid[start:start + n], pulse.detunings(), rtol=0.0, atol=1e-12)
        assert np.array_equal(grid[members[0][1]:members[0][1] + n], pulses[0].detunings())

    def test_distant_carrier_gets_its_own_grid(self):
        # 600 is a whole number of steps away but its grid misses [-256, 256)
        groups = fitting._shared_grids(small_pulses((0.5, 600.5)))
        assert [len(members) for _, members in groups] == [1, 1]
        assert all(grid.size == SMALL_GRID["grid_points"] for grid, _ in groups)


class TestOdSweep:
    def test_matches_per_od_atom_dynamics_with_one_complex_log(self, monkeypatch):
        # fig3's pulse and windows; the ODs unsorted, repeated, and one of
        # them (2, 90 atoms) below numpy's repeated-multiplication limit
        config = config_from_dict({"scenario": "fig3"})
        pulse = scenarios._pulse(config, config.detuning)
        ods, beta, threshold = (34.0, 2.0, 34.0, 5.0), config.beta, config.fit_od_threshold
        long_cap, short_cap = (scenarios._ns(config, config.fit_window_ns),
                               scenarios._ns(config, config.fit_window_short_ns))
        settle = scenarios._ns(config, config.settle_ns)
        logs = []
        log = np.log

        def counted(x, *args, **kwargs):
            if np.iscomplexobj(x):
                logs.append(np.shape(x))
            return log(x, *args, **kwargs)

        monkeypatch.setattr(np, "log", counted)
        points = collective_decay_vs_od(pulse, ods, beta, long_cap, short_cap, threshold,
                                        settle)
        assert logs == [pulse.t.shape]  # log t once per sweep, not once per OD
        monkeypatch.undo()

        assert [p.od for p in points] == list(ods)
        for point, od in zip(points, ods):
            ens = EnsembleSpec.from_od(od, beta)
            traj = atom_dynamics(pulse, ens)
            cap = long_cap if od <= threshold else short_cap
            fit = fit_initial_decay(pulse.t, traj.transmitted_power, pulse.switch_off, cap,
                                    settle)
            assert point.n_atoms == ens.n_atoms
            assert (point.pulse_fit.rate, point.pulse_fit.amplitude, point.pulse_fit.window,
                    point.pulse_fit.rms_residual) == (fit.rate, fit.amplitude, fit.window,
                                                      fit.rms_residual)
            assert np.array_equal(point.pulse_fit.residuals, fit.residuals)
            assert point.gamma_coll == collective_rate_at_switchoff(traj, pulse.switch_off)
        assert points[1].n_atoms < 100 <= points[3].n_atoms


class TestRingMultipass:
    def test_fig5_matches_the_closed_form_ring(self, tmp_path):
        # fig5 at its defaults (echo sum, 2^16 points) against the closed-form
        # ring response on 2^20 points, whose window outlasts the ring's leak-out
        config = config_from_dict({"scenario": "fig5", "output": {"directory": str(tmp_path)}})
        files = run_scenario(config)
        read = lambda stem: np.genfromtxt(files[stem], delimiter=",", skip_header=1,
                                          names=True)
        trace, rates = read("cavity_trace"), read("roundtrip_rates")

        units = Units(config.gamma0_hz)
        ns = lambda x: units.time_from_si(x * 1e-9)
        pulse = synthesize_pulse(time_grid(config.span, 2 ** 20), ns(config.duration_ns),
                                 ns(config.rise_fall_ns), carrier_detuning=config.detuning,
                                 photon_number=config.photon_number, start=ns(config.start_ns))
        shift = round(ns(config.roundtrip_ns) / pulse.dt)
        tau = shift * pulse.dt
        cavity = CavitySpec(t_rt=config.cavity_t_rt, t_c=config.cavity_t_c, tau_rt=tau,
                            phi0=config.cavity_phi0)
        delta = pulse.detunings()
        media = (transfer_unidirectional(delta, EnsembleSpec.from_od(config.od, config.beta)),
                 TransferSpectrum(delta, np.ones(delta.size)))
        power, no_atom = (propagate_pulse(pulse, transfer_cavity(medium, cavity)).power()
                          for medium in media)

        rows = np.arange(trace.size) * config.time_stride
        assert np.array_equal(trace["time_ns"], units.time_to_si(pulse.t[rows]) * 1e9)
        per_ns = 1e-9 / units.time_to_si(1.0)
        for column, closed in (("outcoupled_power_photons_per_ns", power),
                               ("no_atom_power_photons_per_ns", no_atom)):
            expected = closed[rows] * per_ns
            assert np.max(np.abs(trace[column] - expected)) <= 1e-9 * np.max(expected)

        start = ns(config.start_ns)
        lo0 = int(np.searchsorted(pulse.t, start - 0.5))
        for m, rate, flash in zip(rates["roundtrip"].astype(int), rates["cavity_rate_gamma0"],
                                  rates["flash_to_plateau_ratio"]):
            t_off = pulse.switch_off + m * tau
            fit = fit_pulse_decay(pulse.t, power, t_off, FLASH_WINDOW, ns(config.settle_ns),
                                  min_points=6)
            assert rate == pytest.approx(fit.rate, rel=1e-8)
            lo = lo0 + m * shift
            post = power[int(np.searchsorted(pulse.t, t_off)):lo + shift]
            assert flash == pytest.approx(post.max() / no_atom[lo:lo + shift].max(), rel=1e-8)
