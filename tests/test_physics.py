import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from waveqed import (
    CavitySpec,
    DecayFit,
    DisorderModel,
    EnsembleSpec,
    Units,
    atom_dynamics,
    average_observable,
    collective_rate_at_switchoff,
    detuning_grid,
    fit_initial_decay,
    fit_pulse_decay,
    od_to_atom_number,
    resonant_od,
    sample_configuration,
    single_atom_coefficients,
    synthesize_pulse,
    time_grid,
)


class TestUnits:
    def test_lifetime_scale(self):
        units = Units()
        # one natural time unit is 1/Gamma0 ~ 30.6 ns at the default linewidth
        assert units.time_to_si(1.0) == pytest.approx(1.0 / (2 * math.pi * 5.2e6))

    def test_round_trip_exact(self):
        units = Units(gamma0_hz=5.2e6)
        for t in (1.0, 3.7e-9, 152.4, 1e6):
            assert units.time_from_si(units.time_to_si(t)) == pytest.approx(t, rel=1e-14)

    def test_rejects_nonpositive_linewidth(self):
        with pytest.raises(ValueError):
            Units(gamma0_hz=0.0)


class TestSingleAtom:
    def test_resonance_values(self):
        t, r = single_atom_coefficients(0.0, 0.0055)
        assert t == pytest.approx(0.989)
        assert r == pytest.approx(-0.011)

    def test_full_coupling_extinction(self):
        t, r = single_atom_coefficients(0.0, 0.5)
        assert t == pytest.approx(0.0)
        assert r == pytest.approx(-1.0)

    def test_detuned_value_against_exact_arithmetic(self):
        # |t|^2 = ((1/2-beta)^2 + delta^2) / (1/4 + delta^2) evaluated with
        # rational arithmetic at delta=10, beta=0.0055
        beta = Fraction(55, 10000)
        expected = float(((Fraction(1, 2) - beta) ** 2 + 100) / (Fraction(1, 4) + 100))
        t, r = single_atom_coefficients(10.0, 0.0055)
        assert abs(t) ** 2 == pytest.approx(expected, rel=1e-14)
        assert 1.0 - abs(t) ** 2 - abs(r) ** 2 >= 0.0

    def test_t_minus_r_is_one(self):
        rng = np.random.default_rng(0)
        delta = rng.uniform(-50, 50, 100)
        beta = rng.uniform(1e-4, 0.5, 100)
        t, r = single_atom_coefficients(delta, beta)
        assert np.allclose(t - r, 1.0, rtol=0, atol=1e-14)

    def test_loss_fraction_in_unit_interval(self):
        rng = np.random.default_rng(1)
        delta = rng.uniform(-100, 100, 500)
        for beta in (0.001, 0.0055, 0.2, 0.5):
            t, r = single_atom_coefficients(delta, beta)
            loss = 1.0 - np.abs(t) ** 2 - np.abs(r) ** 2
            assert np.all(loss >= -1e-14)
            assert np.all(loss <= 1.0)
            if beta == 0.5:
                assert np.allclose(loss, 0.0, atol=1e-14)

    def test_transmission_monotone_in_detuning(self):
        delta = np.linspace(0.0, 60.0, 400)
        t, _ = single_atom_coefficients(delta, 0.0055)
        assert np.all(np.diff(np.abs(t)) > 0)

    def test_rejects_bad_beta(self):
        for beta in (0.0, -0.1, 0.500001, 1.0):
            with pytest.raises(ValueError):
                single_atom_coefficients(0.0, beta)


class TestAtomNumberCalibration:
    def test_zero_od(self):
        assert od_to_atom_number(0.0, 0.0055) == 0

    def test_reference_points(self):
        assert od_to_atom_number(19.3, 0.0055) == 872
        assert od_to_atom_number(14.0, 0.0055) == 633
        assert od_to_atom_number(26.0, 0.0055) == 1175

    def test_resonant_transmission_consistency(self):
        # |t(0)|^(2N) should reproduce exp(-19.3) at the percent level
        n = od_to_atom_number(19.3, 0.0055)
        t0, _ = single_atom_coefficients(0.0, 0.0055)
        assert abs(t0) ** (2 * n) == pytest.approx(math.exp(-19.3), rel=0.01)

    def test_identity_with_resonant_od(self):
        for n in (1, 17, 872, 5000):
            for beta in (0.001, 0.0055, 0.1):
                assert od_to_atom_number(resonant_od(n, beta), beta) == n

    def test_rejects_singular_and_invalid(self):
        with pytest.raises(ValueError):
            od_to_atom_number(10.0, 0.5)
        with pytest.raises(ValueError):
            od_to_atom_number(-1.0, 0.0055)


class TestEnsembleSpec:
    def test_uniform_constructor(self):
        ens = EnsembleSpec.uniform(5, beta=0.01)
        assert ens.n_atoms == 5
        assert ens.beta == 0.01
        assert np.array_equal(ens.phase, np.zeros(5))

    def test_from_od(self):
        ens = EnsembleSpec.from_od(19.3)
        assert ens.n_atoms == 872

    def test_phases_wrapped(self):
        ens = EnsembleSpec(beta=0.01, phase=[7.0, -1.0])
        assert np.all((ens.phase >= 0) & (ens.phase < 2 * math.pi))

    @pytest.mark.parametrize("beta", [[0.01, 0.01], np.full(2, 0.01), [0.01]])
    def test_beta_sequence_rejected(self, beta):
        # one coupling per ensemble: a per-atom array is an error, not broadcast
        with pytest.raises(ValueError, match="beta must be one number"):
            EnsembleSpec(beta=beta, phase=[0.0, 0.0])

    def test_beta_range_enforced(self):
        with pytest.raises(ValueError):
            EnsembleSpec.uniform(3, beta=0.6)
        with pytest.raises(ValueError):
            EnsembleSpec.uniform(0)


def _pulse(duration=3.0, rise_fall=0.2, photon_number=1.0):
    return synthesize_pulse(time_grid(256.0, 2 ** 12), duration, rise_fall,
                            photon_number=photon_number, start=2.0)


NAN = float("nan")


# a decaying trace with samples every 0.01, switched off at 1.0
_T = np.arange(1000) * 0.01
_DECAY = np.exp(-np.clip(_T - 1.0, 0.0, None))


def _rate_at_switchoff(**overrides):
    pulse = _pulse()
    traj = atom_dynamics(pulse, EnsembleSpec.uniform(10, 0.01))
    return collective_rate_at_switchoff(traj, **{"t_off": pulse.switch_off, **overrides})


def _fit(**overrides):
    fit = DecayFit(rate=1.0, amplitude=1.0, window=(0.0, 1.0), rms_residual=0.0,
                   t=np.array([0.0, 1.0]), residuals=np.zeros(2))
    return replace(fit, **overrides)


@pytest.mark.parametrize("name, build", [
    pytest.param("beta", lambda: EnsembleSpec.uniform(3, NAN), id="ensemble-beta-nan"),
    pytest.param("phase", lambda: replace(EnsembleSpec.uniform(2, 0.01),
                                          phase=np.array([0.0, NAN])), id="phase-nan"),
    pytest.param("phase", lambda: replace(EnsembleSpec.uniform(2, 0.01),
                                          phase=np.array([math.inf, 0.0])), id="phase-inf"),
    pytest.param("beta", lambda: single_atom_coefficients(0.0, NAN), id="single-atom-beta-nan"),
    pytest.param("t_c", lambda: CavitySpec(t_rt=0.9, t_c=NAN, tau_rt=1.0), id="t_c-nan"),
    pytest.param("phi0", lambda: CavitySpec(t_rt=0.9, t_c=0.5, tau_rt=1.0, phi0=NAN),
                 id="phi0-nan"),
    pytest.param("tau_rt", lambda: CavitySpec(t_rt=0.9, t_c=0.5, tau_rt=math.inf),
                 id="tau_rt-inf"),
    pytest.param("photon_number", lambda: replace(_pulse(), photon_number=NAN),
                 id="photon_number-nan"),
    pytest.param("photon_number", lambda: replace(_pulse(), photon_number=math.inf),
                 id="photon_number-inf"),
    pytest.param("photon_number", lambda: _pulse(photon_number=-1.0),
                 id="photon_number-negative"),
    pytest.param("carrier_detuning", lambda: replace(_pulse(), carrier_detuning=NAN),
                 id="carrier-nan"),
    pytest.param("duration", lambda: _pulse(duration=NAN), id="duration-nan"),
    pytest.param("rise_fall", lambda: _pulse(rise_fall=NAN), id="rise_fall-nan"),
    pytest.param("optical depth od", lambda: od_to_atom_number(math.inf), id="od-inf"),
    pytest.param("optical depth od", lambda: od_to_atom_number(NAN), id="od-nan"),
    pytest.param("gamma0_hz", lambda: Units(gamma0_hz=math.inf), id="gamma0_hz-inf"),
    pytest.param("span", lambda: detuning_grid(math.inf, 8), id="detuning-span-inf"),
    pytest.param("span", lambda: time_grid(NAN, 8), id="time-span-nan"),
    pytest.param("rate", lambda: _fit(rate=math.inf), id="fit-rate-inf"),
    pytest.param("amplitude", lambda: _fit(amplitude=NAN), id="fit-amplitude-nan"),
    pytest.param("amplitude", lambda: _fit(amplitude=math.inf), id="fit-amplitude-inf"),
    pytest.param("rms_residual", lambda: _fit(rms_residual=NAN), id="fit-rms-nan"),
    pytest.param("rms_residual", lambda: _fit(rms_residual=math.inf), id="fit-rms-inf"),
    pytest.param("window_len", lambda: fit_pulse_decay(_T, _DECAY, 1.0, NAN),
                 id="fit-window_len-nan"),
    pytest.param("window_cap", lambda: fit_initial_decay(_T, _DECAY, 1.0, NAN),
                 id="fit-window_cap-nan"),
    pytest.param("t_off", lambda: fit_pulse_decay(_T, _DECAY, NAN, 1.0), id="fit-t_off-nan"),
    pytest.param("t_off", lambda: _rate_at_switchoff(t_off=NAN), id="switchoff-t_off-nan"),
    pytest.param("settle_delay", lambda: _rate_at_switchoff(settle_delay=NAN),
                 id="switchoff-settle_delay-nan"),
    pytest.param("switch_off", lambda: replace(_pulse(), switch_off=NAN), id="switch_off-nan"),
    pytest.param("switch_off", lambda: replace(_pulse(), switch_off=math.inf),
                 id="switch_off-inf"),
    pytest.param("start", lambda: synthesize_pulse(time_grid(256.0, 2 ** 12), 3.0, 0.2,
                                                   start=NAN), id="start-nan"),
])
def test_nan_and_inf_rejected_naming_the_parameter(name, build):
    with pytest.raises(ValueError, match=name):
        build()


def _average(n_configs=2, n_workers=1):
    return average_observable(DisorderModel(n_atoms=2), n_configs, lambda ens: ens.phase,
                              n_workers=n_workers)


@pytest.mark.parametrize("name, build", [
    pytest.param("n_atoms", lambda: EnsembleSpec.uniform(2.5), id="uniform-float"),
    pytest.param("n_atoms", lambda: EnsembleSpec.uniform(True), id="uniform-bool"),
    pytest.param("n_atoms", lambda: EnsembleSpec.uniform(NAN), id="uniform-nan"),
    pytest.param("n_atoms", lambda: resonant_od(2.5, 0.01), id="resonant_od-float"),
    pytest.param("n_atoms", lambda: DisorderModel(n_atoms=NAN), id="model-n_atoms-nan"),
    pytest.param("n_atoms", lambda: DisorderModel(n_atoms=2.5), id="model-n_atoms-float"),
    pytest.param("seed", lambda: DisorderModel(n_atoms=2, seed=1.5), id="model-seed-float"),
    pytest.param("index", lambda: sample_configuration(DisorderModel(n_atoms=2), 1.5),
                 id="configuration-index-float"),
    pytest.param("n_configs", lambda: _average(n_configs=2.5), id="n_configs-float"),
    pytest.param("n_workers", lambda: _average(n_workers=2.5), id="n_workers-float"),
    pytest.param("n_workers", lambda: _average(n_workers=NAN), id="n_workers-nan"),
])
def test_non_integer_counts_rejected_naming_the_parameter(name, build):
    # int() would truncate 2.5 to 2 and take True as 1
    with pytest.raises(ValueError, match=name):
        build()


@pytest.mark.parametrize("name, build", [
    pytest.param("n_workers", lambda: _average(n_workers=0), id="n_workers-zero"),
    pytest.param("n_workers", lambda: _average(n_workers=-4), id="n_workers-negative"),
    pytest.param("n_atoms", lambda: resonant_od(0, 0.01), id="resonant_od-zero"),
    pytest.param("n_atoms", lambda: resonant_od(-3, 0.01), id="resonant_od-negative"),
])
def test_non_positive_counts_rejected_naming_the_parameter(name, build):
    # zero or fewer workers would run serially, and zero or fewer atoms give an OD <= 0
    with pytest.raises(ValueError, match=name):
        build()


def test_numpy_integer_counts_accepted():
    assert EnsembleSpec.uniform(np.int32(3)).n_atoms == 3
    assert resonant_od(np.uint8(3), 0.01) == resonant_od(3, 0.01)
    model = DisorderModel(n_atoms=np.int64(2), seed=np.uint64(7))
    assert np.array_equal(sample_configuration(model, np.int16(1)).phase,
                          sample_configuration(DisorderModel(n_atoms=2, seed=7), 1).phase)
    assert np.array_equal(_average(np.int64(3), np.int8(2))[0], _average(3, 2)[0])


def test_switch_off_may_stay_unknown_and_the_valid_calls_still_run():
    assert replace(_pulse(), switch_off=None).switch_off is None
    assert _rate_at_switchoff() > 0
    assert fit_initial_decay(_T, _DECAY, 1.0, 1.0).rate == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: time_grid(256.0, 4096.9), id="time-float"),
    pytest.param(lambda: time_grid(1.0, True), id="time-bool"),
    pytest.param(lambda: detuning_grid(1.0, 8.0), id="detuning-float"),
    pytest.param(lambda: detuning_grid(1.0, np.True_), id="detuning-numpy-bool"),
])
def test_grid_length_must_be_an_integer(build):
    with pytest.raises(ValueError, match="grid length"):
        build()
    assert time_grid(1.0, np.int64(8)).size == detuning_grid(1.0, np.uint32(8)).size == 8
