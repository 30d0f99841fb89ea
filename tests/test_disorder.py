import math

import numpy as np
import pytest
from scipy import stats

from waveqed import (
    DisorderModel,
    average_observable,
    detuning_grid,
    sample_configuration,
    transfer_bidirectional,
)


class TestSampling:
    def test_deterministic_per_index(self):
        model = DisorderModel(n_atoms=100, seed=12345)
        a = sample_configuration(model, 42)
        b = sample_configuration(model, 42)
        assert np.array_equal(a.phase, b.phase)
        assert np.array_equal(a.beta, b.beta)
        c = sample_configuration(model, 43)
        assert not np.array_equal(a.phase, c.phase)
        # the stream itself: uniform phases keyed by SeedSequence((seed, index))
        ens = sample_configuration(DisorderModel(n_atoms=7, beta_mean=0.02, seed=3), 5)
        rng = np.random.default_rng(np.random.SeedSequence((3, 5)))
        assert np.array_equal(ens.phase, rng.uniform(0.0, 2 * math.pi, 7))
        assert np.all(ens.beta == 0.02)

    def test_phase_uniformity(self):
        model = DisorderModel(n_atoms=100000, seed=7)
        phases = sample_configuration(model, 0).phase
        result = stats.kstest(phases / (2 * math.pi), "uniform")
        assert result.pvalue > 0.01

    def test_beta_fixed_by_default(self):
        model = DisorderModel(n_atoms=50, beta_mean=0.0055, seed=2)
        ens = sample_configuration(model, 5)
        assert np.all(ens.beta == 0.0055)

    def test_validation(self):
        with pytest.raises(ValueError):
            DisorderModel(n_atoms=0)
        with pytest.raises(ValueError):
            DisorderModel(n_atoms=5, seed=-1)
        model = DisorderModel(n_atoms=5)
        with pytest.raises(ValueError):
            sample_configuration(model, -1)


def reflectivity_observable(grid):
    def observable(ens):
        _, r_spec = transfer_bidirectional(grid, ens)
        return r_spec.power()
    return observable


class TestAveraging:
    def test_single_config_mean(self):
        model = DisorderModel(n_atoms=8, beta_mean=0.05, seed=4)
        grid = detuning_grid(4.0, 16)
        observable = reflectivity_observable(grid)
        mean, stderr = average_observable(model, 1, observable)
        assert np.array_equal(mean, observable(sample_configuration(model, 0)))
        assert np.all(stderr == 0.0)

    def test_constant_observable_zero_stderr(self):
        model = DisorderModel(n_atoms=3, seed=4)
        mean, stderr = average_observable(model, 25, lambda ens: np.array([2.5, -1.0]))
        assert np.allclose(mean, [2.5, -1.0])
        assert np.allclose(stderr, 0.0, atol=1e-12)

    def test_stderr_of_offset_observable_matches_two_pass(self):
        # stderr about 1e-9 of the mean: a one-pass sum of squares cancels to
        # noise (it gave 0 and 0.139 against 0.050)
        model = DisorderModel(n_atoms=3, seed=5)
        observable = lambda ens: 1e8 + np.cos(ens.phase)
        _, stderr = average_observable(model, 200, observable)
        values = np.array([observable(sample_configuration(model, i)) for i in range(200)])
        expected = values.std(axis=0, ddof=1) / math.sqrt(200)
        assert np.allclose(stderr, expected, rtol=1e-6, atol=0.0)

    def test_shape_mismatch_rejected(self):
        model = DisorderModel(n_atoms=3, seed=4)
        calls = []

        def unstable(ens):
            calls.append(0)
            return np.zeros(2 if len(calls) % 5 else 3)

        with pytest.raises(ValueError, match="shape"):
            average_observable(model, 10, unstable)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_observable_called_once_per_configuration(self, n_workers):
        model = DisorderModel(n_atoms=3, seed=4)
        seen = []

        def observable(ens):
            seen.append(float(ens.phase[0]))
            return ens.phase

        average_observable(model, 70, observable, n_workers=n_workers)
        assert sorted(seen) == sorted(float(sample_configuration(model, i).phase[0])
                                      for i in range(70))

    def test_averaged_forward_spectrum_matches_cascade(self):
        # disorder-averaged two-way forward power transmission reproduces the
        # position-independent cascade pointwise over |delta| <= 30 at OD 19.3
        from waveqed import EnsembleSpec, transfer_unidirectional

        grid = detuning_grid(64.0, 2048)
        ens = EnsembleSpec.from_od(19.3)
        cascade = transfer_unidirectional(grid, ens).power()
        model = DisorderModel(n_atoms=ens.n_atoms, seed=11)

        def forward_power(sample):
            t_spec, _ = transfer_bidirectional(grid, sample)
            return t_spec.power()

        mean, _ = average_observable(model, 100, forward_power)
        band = np.abs(grid) <= 30.0
        assert np.max(np.abs(mean - cascade)[band]) < 0.01
