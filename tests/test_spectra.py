import decimal
import json
import math
import re
import warnings

import numpy as np
import pytest

from waveqed import (
    CavitySpec,
    DegenerateDenominatorWarning,
    EnsembleSpec,
    TransferSpectrum,
    detuning_grid,
    excitation_amplitudes,
    od_to_atom_number,
    propagate_pulse,
    single_atom_coefficients,
    synthesize_pulse,
    time_grid,
    transfer_bidirectional,
    transfer_cavity,
    transfer_unidirectional,
)
from waveqed import fitting, scenarios, spectra
from waveqed.disorder import DisorderModel, sample_configuration
from waveqed.spectra import (
    RECURSION_EPS,
    _certified_polynomial,
    _homogeneous_recursion,
    _point_degrees,
    _polynomial_coefficients,
    _recursion,
    _screened_recursion,
    _truncation_degree,
)

from golden import GOLDEN
from oracles import linear_system_solution, transfer_matrix_solution


def random_ensemble(rng, n, beta_max=0.35):
    return EnsembleSpec(beta=rng.uniform(0.01, beta_max), phase=rng.uniform(0.0, 2 * math.pi, n))


def per_atom_beta(ens):
    """The ensemble's coupling as the per-atom array the oracles take."""
    return np.full(ens.n_atoms, ens.beta)


def assert_spectra_match(value, reference, rtol=1e-10, scale_floor=1e-3):
    """Relative agreement where the reference is well scaled, absolute at
    its interference zeros (both amplitudes live on the unit scale)."""
    diff = np.abs(value - reference)
    assert np.max(diff) < rtol
    ref = np.abs(reference)
    conditioned = ref > scale_floor
    if np.any(conditioned):
        assert np.max(diff[conditioned] / ref[conditioned]) < rtol


class TestGridAndSpectrum:
    def test_grid_shape(self):
        g = detuning_grid(8.0, 16)
        assert g.size == 16
        assert g[8] == 0.0
        assert g[0] == -8.0
        assert np.allclose(np.diff(g), 1.0)

    def test_grid_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            detuning_grid(8.0, 12)

    def test_spectrum_validation(self):
        g = detuning_grid(4.0, 8)
        with pytest.raises(ValueError):
            TransferSpectrum(g, 1.5 * np.ones(8, dtype=complex))
        for grid in (np.delete(g, 3), [0.0, 1.0, math.inf], [0.0, math.inf], [0.0, math.nan]):
            with pytest.raises(ValueError, match="uniform"):
                TransferSpectrum(grid, np.ones(len(grid), dtype=complex))
        # any uniform grid constructs; only a pulse's own grid propagates it
        seven = TransferSpectrum(g[:7], np.ones(7, dtype=complex))
        pulse = synthesize_pulse(time_grid(256.0, 2 ** 12), 3.0, 0.2, start=2.0)
        with pytest.raises(ValueError, match="grid mismatch"):
            propagate_pulse(pulse, seven)


class TestUnidirectional:
    def test_single_atom_reduction(self):
        g = detuning_grid(16.0, 64)
        spec = transfer_unidirectional(g, EnsembleSpec.uniform(1, 0.0055))
        t, _ = single_atom_coefficients(g, 0.0055)
        assert np.allclose(spec.amplitude, t, rtol=1e-15)

    def test_uniform_resonant_closed_form(self):
        g = detuning_grid(4.0, 8)
        i0 = 4
        for n in (3, 50, 872):
            spec = transfer_unidirectional(g, EnsembleSpec.uniform(n, 0.0055))
            assert spec.amplitude[i0].real == pytest.approx((1 - 2 * 0.0055) ** n, rel=1e-12)

    def test_od_attenuation(self):
        g = detuning_grid(4.0, 8)
        spec = transfer_unidirectional(g, EnsembleSpec.from_od(19.3))
        assert abs(spec.amplitude[4]) ** 2 == pytest.approx(math.exp(-19.3), rel=0.01)

    def test_phase_independent(self):
        g = detuning_grid(16.0, 64)
        rng = np.random.default_rng(3)
        a = transfer_unidirectional(g, EnsembleSpec.uniform(20, 0.01))
        b = transfer_unidirectional(
            g, EnsembleSpec(beta=0.01, phase=rng.uniform(0, 6, 20)))
        assert np.array_equal(a.amplitude, b.amplitude)


class TestIntegerPower:
    def test_equals_numpy_power_bitwise(self):
        # numpy's t ** n is libm's exp(n log t) from n = 100 on and repeated
        # multiplication below: a property of numpy and libm, so bitwise only
        # under the numpy that wrote the pinned outputs (test_golden.py)
        config = scenarios.config_from_dict({"scenario": "fig3"})
        counts = [od_to_atom_number(od, config.beta) for od in config.od_values]
        assert len(counts) == 12 and min(counts) < 100 < max(counts)
        grid = detuning_grid(config.span, config.grid_points)
        t = single_atom_coefficients(grid, config.beta)[0]
        single = TransferSpectrum(grid, t)
        pinned = json.loads(GOLDEN.read_text())["numpy"] == np.__version__
        for n in [0, 1, 2, 99, spectra._LOG_POWER_MIN, 101] + counts:
            power, expected = single ** n, t ** n
            assert power.delta is single.delta
            if pinned:
                assert power.amplitude.tobytes() == expected.tobytes(), n
            else:
                assert np.allclose(power.amplitude, expected, rtol=1e-10, atol=0.0), n

    def test_zero_transmission_is_a_quiet_positive_zero(self):
        # beta = 1/2 on resonance: t = 0, whose log is -inf
        t = single_atom_coefficients(np.array([-1.0, 0.0, 1.0]), 0.5)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            power = (TransferSpectrum([-1.0, 0.0, 1.0], t) ** 150).amplitude
        assert power[1:2].tobytes() == (t[1:2] ** 150).tobytes() == np.zeros(1, complex).tobytes()
        assert np.allclose(power, t ** 150, rtol=1e-12, atol=0.0)
        assert transfer_unidirectional(detuning_grid(1.0, 8),
                                       EnsembleSpec.uniform(150, 0.5)).amplitude[4] == 0

    @pytest.mark.parametrize("n", [-1, 2.0, True])
    def test_exponent_must_be_a_non_negative_integer(self, n):
        with pytest.raises(ValueError, match="exponent"):
            TransferSpectrum([0.0, 1.0], [0.5, 0.5]) ** n


class TestExcitationAmplitudes:
    def test_first_atom_modulus(self):
        beta = 0.0055
        for delta in (0.0, 2.5, 10.0):
            phi = excitation_amplitudes(delta, EnsembleSpec.uniform(4, beta))
            expected = 2 * math.sqrt(beta) / math.sqrt(1 + 4 * delta ** 2)
            assert abs(phi[0]) == pytest.approx(expected, rel=1e-12)

    def test_geometric_ratio(self):
        delta = 3.2
        ens = EnsembleSpec.uniform(6, 0.02)
        phi = excitation_amplitudes(delta, ens)
        t, _ = single_atom_coefficients(delta, 0.02)
        ratios = np.abs(phi[1:] / phi[:-1])
        assert np.allclose(ratios, abs(t), rtol=1e-12)

    def test_far_detuned_vanishes(self):
        phi = excitation_amplitudes(1e6, EnsembleSpec.uniform(5, 0.0055))
        assert np.all(np.abs(phi) < 1e-5)

    def test_array_detuning_shape(self):
        g = detuning_grid(8.0, 16)
        phi = excitation_amplitudes(g, EnsembleSpec.uniform(3, 0.01))
        assert phi.shape == (3, 16)


class TestBidirectional:
    @pytest.mark.parametrize("active", [0, 1], ids=["transmission", "reflection"])
    def test_each_response_checked_for_passivity(self, monkeypatch, active):
        # passive atoms keep both |T| and |s| <= 1, so feed the check an active one
        recursion = spectra._recursion

        def amplified(*args):
            responses = list(recursion(*args))
            responses[active] = 1.5 * np.ones_like(responses[active])
            return tuple(responses)

        monkeypatch.setattr(spectra, "_recursion", amplified)
        with pytest.raises(ValueError, match="passive"):
            transfer_bidirectional(detuning_grid(4.0, 8), EnsembleSpec.uniform(3, 0.1))

    def test_single_atom_reduction(self):
        g = detuning_grid(16.0, 64)
        for theta in (0.0, 1.1, 4.0):
            ens = EnsembleSpec(beta=0.0055, phase=[theta])
            t_spec, r_spec = transfer_bidirectional(g, ens)
            t, r = single_atom_coefficients(g, 0.0055)
            assert np.allclose(t_spec.amplitude, t, rtol=1e-13)
            assert np.allclose(np.abs(r_spec.amplitude), np.abs(r), rtol=1e-13)

    def test_matches_transfer_matrix_oracle(self):
        rng = np.random.default_rng(42)
        g = detuning_grid(30.0, 1024)
        for _ in range(6):
            n = int(rng.integers(1, 13))
            ens = random_ensemble(rng, n)
            t_spec, r_spec = transfer_bidirectional(g, ens)
            t_ref, r_ref = transfer_matrix_solution(g, per_atom_beta(ens), ens.phase)
            assert_spectra_match(t_spec.amplitude, t_ref)
            assert_spectra_match(r_spec.amplitude, r_ref)

    def test_matches_oracle_full_beta_range(self):
        # with beta up to 0.5 the transmission cancels to ~0 at resonance and
        # the 1/t transfer-matrix entries blow up; the oracle's t_N = 1/m22
        # keeps full accuracy there (m11 + m12 r_N lost ~9 digits)
        rng = np.random.default_rng(9)
        g = detuning_grid(30.0, 256)
        for _ in range(6):
            n = int(rng.integers(1, 13))
            ens = random_ensemble(rng, n, beta_max=0.5)
            t_spec, r_spec = transfer_bidirectional(g, ens)
            t_ref, r_ref = transfer_matrix_solution(g, per_atom_beta(ens), ens.phase)
            assert np.max(np.abs(t_spec.amplitude - t_ref)) < 1e-12
            assert np.max(np.abs(r_spec.amplitude - r_ref)) < 1e-12

    def test_matches_dense_linear_system(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 5):
            ens = random_ensemble(rng, n)
            for delta in (-4.3, 0.0, 2.7):
                g = detuning_grid(abs(delta) + 1.0, 2)
                t_spec, r_spec = transfer_bidirectional(np.array([delta, delta + 1.0]), ens)
                t_ref, r_ref = linear_system_solution(delta, per_atom_beta(ens), ens.phase)
                assert abs(t_spec.amplitude[0] - t_ref) < 1e-12
                assert abs(r_spec.amplitude[0] - r_ref) < 1e-12

    def test_bragg_reflection_enhanced(self):
        n = 50
        ens = EnsembleSpec.uniform(n, 0.0055)
        g = detuning_grid(2.0, 64)
        t_spec, r_spec = transfer_bidirectional(g, ens)
        t_ref, r_ref = transfer_matrix_solution(g, per_atom_beta(ens), ens.phase)
        assert np.max(np.abs(r_spec.amplitude - r_ref)) < 1e-10
        i0 = np.argmin(np.abs(g))
        _, r1 = single_atom_coefficients(0.0, 0.0055)
        assert abs(r_spec.amplitude[i0]) ** 2 > n * abs(r1) ** 2

    def test_global_phase_shift_invariance(self):
        rng = np.random.default_rng(12)
        g = detuning_grid(10.0, 128)
        ens = random_ensemble(rng, 15)
        t_a, r_a = transfer_bidirectional(g, ens)
        shifted = EnsembleSpec(beta=ens.beta, phase=ens.phase + 1.234)
        t_b, r_b = transfer_bidirectional(g, shifted)
        assert np.allclose(t_a.amplitude, t_b.amplitude, rtol=1e-12)
        assert np.allclose(np.abs(r_a.amplitude), np.abs(r_b.amplitude), rtol=1e-12)

    def test_degenerate_denominators_counted(self, monkeypatch):
        # two fully coupled atoms at equal phases: the recursion's denominators
        # are 1/2 + i delta (far atom) and i delta (1 + i delta) / (1/2 + i delta)
        # (near atom), which vanishes at delta = 0
        g = detuning_grid(4.0, 64)
        ens = EnsembleSpec.uniform(2, 0.5)
        base = 0.5 + 1j * g
        den = np.concatenate([base, 1j * g * (1.0 + 1j * g) / base])
        moduli = np.abs(den)
        degenerate = moduli < RECURSION_EPS
        assert np.count_nonzero(degenerate) == 1
        message = re.escape(f"1 grid point(s) with scattering denominator below 1e-12 "
                            f"(min |den| = {moduli[degenerate].min():.3e})")
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.warns(DegenerateDenominatorWarning, match=f"^{message}$") as record:
                t_spec, _ = transfer_bidirectional(g, ens)
        at_zero = g == 0.0
        assert np.all(np.isnan(t_spec.amplitude[at_zero]))
        assert np.all(np.isfinite(t_spec.amplitude[~at_zero]))
        # the warning points at the caller of transfer_bidirectional
        assert [w.filename for w in record] == [__file__]

        # a wider floor flags several points by their modulus, some of which
        # have |Re den| below the floor but |den| above it
        floor = 0.3
        monkeypatch.setattr(spectra, "RECURSION_EPS", floor)
        degenerate = moduli < floor
        assert np.count_nonzero(degenerate) == 3
        assert np.count_nonzero(np.abs(den.real) < floor) > 3
        message = re.escape(f"3 grid point(s) with scattering denominator below 0.3 "
                            f"(min |den| = {moduli[degenerate].min():.3e})")
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.warns(DegenerateDenominatorWarning, match=f"^{message}$"):
                transfer_bidirectional(g, ens)


def default_configuration(scenario, index=0):
    """A scenario's recursion grid at its defaults (fig4: the union grid of
    its carriers) and disorder configuration number index."""
    config = scenarios.config_from_dict({"scenario": scenario})
    pulse = scenarios._pulse(config, config.detuning if scenario == "s1" else 0.0)
    if scenario == "fig4":
        (grid, _), = fitting._shared_grids([pulse.at_carrier(c) for c in config.detunings])
    else:
        grid = pulse.detunings()
    model = DisorderModel(n_atoms=scenarios._ensemble(config).n_atoms,
                          beta_mean=config.beta, seed=config.seed)
    return grid, sample_configuration(model, index)


class TestHomogeneousRecursion:
    """The division-free recursion against the screened loop and the oracle."""

    def test_matches_screened_loop_at_fig4_size(self):
        grid, ens = default_configuration("fig4")
        assert (ens.n_atoms, grid.size) == (1175, 16428)
        t_prod, s = _recursion(grid, ens)
        t_ref, s_ref = _screened_recursion(grid, ens)
        assert np.max(np.abs(t_prod - t_ref)) <= 1e-13
        assert np.max(np.abs(s - s_ref)) <= 1e-13

    def test_screened_loop_only_at_or_near_full_coupling(self, monkeypatch):
        calls = []
        screened = spectra._screened_recursion
        monkeypatch.setattr(spectra, "_screened_recursion",
                            lambda *args: calls.append(args[1].beta) or screened(*args))
        g = detuning_grid(4.0, 64)
        with warnings.catch_warnings(), np.errstate(invalid="ignore", divide="ignore"):
            warnings.simplefilter("ignore", DegenerateDenominatorWarning)
            for beta in (0.0055, 0.49, 0.5 - 1e-9, 0.5 - 3e-12, 0.5 - 1e-12, 0.5):
                transfer_bidirectional(g, EnsembleSpec.uniform(3, beta))
        assert calls == [0.5 - 1e-12, 0.5]

    def test_matches_transfer_matrix_on_random_chains(self):
        # up to 130 atoms, so seven or more rescaled blocks of 16
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        grid = np.linspace(-19.5, 19.5, 64)
        chain = st.integers(1, 130).flatmap(lambda n: st.tuples(
            st.floats(0.001, 0.49),
            st.lists(st.floats(0.0, 2 * math.pi), min_size=n, max_size=n)))
        sizes = []

        def law(params):
            beta, phase = params[0], np.array(params[1])
            sizes.append(phase.size)
            t_prod, s = _recursion(grid, EnsembleSpec(beta, phase))
            t_ref, s_ref = transfer_matrix_solution(grid, np.full(phase.size, beta), phase)
            assert np.max(np.abs(t_prod - t_ref)) <= 1e-12
            assert np.max(np.abs(s - s_ref)) <= 1e-12

        settings = hypothesis.settings(derandomize=True, max_examples=50, deadline=None,
                                       database=None)
        settings(hypothesis.given(chain))(law)()
        assert max(sizes) > 6 * 16

    @pytest.mark.parametrize("margin", [1e-9, 3e-12])
    def test_finite_and_passive_next_to_full_coupling(self, margin):
        # on resonance each atom scales y by up to 1/margin, which overflows
        # within a few dozen atoms unless every block is rescaled
        rng = np.random.default_rng(5)
        n = 2000
        ens = EnsembleSpec(0.5 - margin, rng.uniform(0.0, 2 * math.pi, n))
        g = detuning_grid(64.0, 4096)
        t_prod, s = _recursion(g, ens)
        assert np.all(np.isfinite(t_prod)) and np.all(np.isfinite(s))
        assert np.max(np.abs(t_prod) ** 2 + np.abs(s) ** 2) <= 1.0 + 1e-12


def long_double_recursion(delta, ens):
    """(prod_n t_n, s_1) of the homogeneous step in long double, from the
    float64 values of e^{i theta_n} that the kernels use."""
    beta = np.longdouble(ens.beta)
    a = beta / ((np.longdouble(0.5) - beta) + 1j * delta.astype(np.longdouble))
    x = np.zeros(delta.size, dtype=np.clongdouble)
    y = np.ones(delta.size, dtype=np.clongdouble)
    for e in np.exp(1j * ens.phase).astype(np.clongdouble)[::-1]:
        p = a * (x + e * y)
        x -= p
        y += p * np.conj(e)
    return (1 / y).astype(complex), (x / y).astype(complex)


def long_double_coefficients(ens, degree):
    """The coefficients of _polynomial_coefficients in long double, step by step."""
    a_max = np.longdouble(ens.beta) / (np.longdouble(0.5) - np.longdouble(ens.beta))
    x = np.zeros(degree + 1, dtype=np.clongdouble)
    y = np.zeros(degree + 1, dtype=np.clongdouble)
    y[0] = 1
    for k, e in enumerate(np.exp(1j * ens.phase).astype(np.clongdouble)[::-1]):
        m = min(k + 1, degree)
        w = a_max * (x[:m] + e * y[:m])
        x[1:m + 1] -= w
        y[1:m + 1] += w * np.conj(e)
    return np.array([x, y])


def exponential_tail(bound, degree):
    """sum_{j > degree} bound^j / j!, to 120 digits."""
    with decimal.localcontext() as context:
        context.prec = 120
        r, term, head = decimal.Decimal(float(bound)), decimal.Decimal(1), decimal.Decimal(1)
        for j in range(1, degree + 1):
            term = term * r / j
            head += term
        return r.exp() - head


class TestPolynomialRecursion:
    """The two-way recursion as a truncated polynomial in z, its bound and fallbacks."""

    BETA = 0.0055

    def ensemble(self, n, seed):
        return EnsembleSpec(self.BETA, np.random.default_rng(seed).uniform(0, 2 * math.pi, n))

    def test_matches_homogeneous_recursion_at_fig4_size(self):
        grid, ens = default_configuration("fig4")
        t_prod, s = _recursion(grid, ens)
        t_ref, s_ref = _homogeneous_recursion(grid, ens)
        assert np.max(np.abs(t_prod - t_ref) / np.abs(t_ref)) <= 1e-12
        assert np.max(np.abs(s - s_ref)) <= 1e-12

    @pytest.mark.parametrize("od", [5.0, 19.3, 26.0, 40.0])
    def test_certified_against_long_double(self, od):
        # relative error of T and absolute error of s, both under 1e-12 and
        # under the per-point bound, which stays below the fallback tolerance
        grid = detuning_grid(40.0, 2048)
        for seed in range(3):
            ens = self.ensemble(od_to_atom_number(od, self.BETA), seed)
            t_prod, s, bound = _certified_polynomial(grid, ens)
            t_ref, s_ref = long_double_recursion(grid, ens)
            error = np.maximum(np.abs(t_prod - t_ref) / np.abs(t_ref), np.abs(s - s_ref))
            assert np.max(error) <= 1e-12
            assert np.all(error <= bound)
            assert np.max(bound) <= spectra._POLY_TOL

    def test_bound_holds_on_random_short_chains(self):
        # below ~300 atoms a small coefficient can miss its own modulus by
        # more than N eps, but its weight in the sum keeps the bound above
        # the error (2x at the closest of these 300 chains)
        rng = np.random.default_rng(123)
        grid = detuning_grid(40.0, 256)
        chains = 0
        while chains < 300:
            n, beta = int(rng.integers(1, 200)), float(rng.uniform(0.001, 0.45))
            if 2 * n * beta / (0.5 - beta) > spectra._POLY_CAP:
                continue
            chains += 1
            ens = EnsembleSpec(beta, rng.uniform(0.0, 2 * math.pi, n))
            t_prod, s, bound = _certified_polynomial(grid, ens)
            t_ref, s_ref = long_double_recursion(grid, ens)
            error = np.maximum(np.abs(t_prod - t_ref) / np.abs(t_ref), np.abs(s - s_ref))
            assert np.all(error <= bound)

    def test_bound_is_the_running_error_of_horner_and_the_recurrence(self):
        # eps (N + D) sum_j (|X_j| + |Y_j|) |z|^j |T|, rebuilt from the coefficients
        grid = detuning_grid(40.0, 256)
        ens = self.ensemble(400, 3)
        a_max = ens.beta / (0.5 - ens.beta)
        degree = _truncation_degree(2 * ens.n_atoms * a_max, ens.n_atoms)
        coef = _polynomial_coefficients(ens.phase, a_max, degree)
        z = (0.5 - ens.beta) / ((0.5 - ens.beta) + 1j * grid)
        t_prod, _, bound = _certified_polynomial(grid, ens)
        size = np.polynomial.polynomial.polyval(np.abs(z), np.abs(coef).sum(axis=0))
        expected = np.finfo(float).eps * (ens.n_atoms + degree) * size * np.abs(t_prod)
        assert np.allclose(bound, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("scenario", ["fig4", "s1"])
    def test_coefficients_within_n_eps_of_long_double(self, scenario):
        # the fact behind the N term of the bound: each coefficient of the
        # recurrence is within N eps of its own modulus
        _, ens = default_configuration(scenario)
        a_max = ens.beta / (0.5 - ens.beta)
        degree = _truncation_degree(2 * ens.n_atoms * a_max, ens.n_atoms)
        coef = _polynomial_coefficients(ens.phase, a_max, degree)
        reference = long_double_coefficients(ens, degree)
        error = np.abs(coef - reference.astype(complex))
        assert np.all(error <= ens.n_atoms * np.finfo(float).eps * np.abs(reference))

    @pytest.mark.parametrize("bound, n_atoms", [(0.011, 2000), (2.0, 2000), (19.3, 2000),
                                                (26.13751263902932, 1175), (64.0, 4000),
                                                (26.0, 60)])
    def test_truncation_degree_is_the_smallest_with_a_tail_below_1e_20(self, bound, n_atoms):
        degree = _truncation_degree(bound, n_atoms)
        if degree == n_atoms:
            assert exponential_tail(bound, n_atoms - 1) >= spectra._POLY_TAIL
        else:
            assert exponential_tail(bound, degree) < spectra._POLY_TAIL
            assert exponential_tail(bound, degree - 1) >= spectra._POLY_TAIL
        assert _truncation_degree(26.13751263902932, 1175) == 106  # fig4

    def test_exact_polynomial_on_short_chains(self):
        # below ~60 atoms nothing is truncated, so every coefficient counts
        rng = np.random.default_rng(8)
        grid = np.linspace(-19.5, 19.5, 64)
        for n in (1, 2, 7, 30):
            for beta in (0.01, 0.2, 0.4):
                ens = EnsembleSpec(beta, rng.uniform(0.0, 2 * math.pi, n))
                t_prod, s, _ = _certified_polynomial(grid, ens)
                t_ref, s_ref = transfer_matrix_solution(grid, per_atom_beta(ens), ens.phase)
                assert np.max(np.abs(t_prod - t_ref)) <= 1e-12
                assert np.max(np.abs(s - s_ref)) <= 1e-12

    @staticmethod
    def spy(monkeypatch):
        calls = []
        homogeneous = spectra._homogeneous_recursion
        monkeypatch.setattr(spectra, "_homogeneous_recursion",
                            lambda delta, *args: calls.append(delta) or homogeneous(delta, *args))
        return calls

    def test_fallback_on_the_whole_grid_above_the_cap(self, monkeypatch):
        ens = self.ensemble(3000, 1)
        assert 2 * ens.n_atoms * ens.beta / (0.5 - ens.beta) > spectra._POLY_CAP
        grid = detuning_grid(40.0, 256)
        calls = self.spy(monkeypatch)
        _recursion(grid, ens)
        assert len(calls) == 1 and np.array_equal(calls[0], grid)

    def test_fallback_on_the_points_that_fail_the_bound(self, monkeypatch):
        # OD 60: the bound passes 1e-10 near resonance only
        grid = detuning_grid(40.0, 2048)
        ens = self.ensemble(od_to_atom_number(60.0, self.BETA), 0)
        t_poly, s_poly, bound = _certified_polynomial(grid, ens)
        bad = bound > spectra._POLY_TOL
        assert 0 < np.count_nonzero(bad) < grid.size // 10
        calls = self.spy(monkeypatch)
        t_prod, s = _recursion(grid, ens)
        assert len(calls) == 1 and np.array_equal(calls[0], grid[bad])
        t_ref, s_ref = _homogeneous_recursion(grid[bad], ens)
        assert np.array_equal(t_prod[bad], t_ref) and np.array_equal(s[bad], s_ref)
        assert np.array_equal(t_prod[~bad], t_poly[~bad])
        assert np.array_equal(s[~bad], s_poly[~bad])

    @pytest.mark.parametrize("scenario", ["fig4", "s1"])
    def test_no_fallback_at_defaults(self, monkeypatch, scenario):
        calls = self.spy(monkeypatch)
        for index in range(2):
            grid, ens = default_configuration(scenario, index)
            _recursion(grid, ens)
        assert calls == []


def atom_major_coefficients(phase, a_max, degree):
    """The coefficients of _polynomial_coefficients by one 2 x 2 product per
    atom on every degree at once: the reference for its degree-major loop."""
    e = np.exp(1j * phase[::-1])
    step = np.empty((e.size, 2, 2), dtype=complex)
    step[:, 0, 0] = -a_max
    step[:, 0, 1] = -a_max * e
    step[:, 1, 0] = a_max * e.conj()
    step[:, 1, 1] = a_max
    coef = np.zeros((2, degree + 1), dtype=complex)
    coef[1, 0] = 1.0
    head = min(degree, e.size)
    for k in range(head):
        coef[:, 1:k + 2] += step[k] @ coef[:, :k + 1]
    low, high = coef[:, :degree], coef[:, 1:]
    for p in step[head:]:
        high += p @ low
    return coef


def full_degree_horner(delta, ens):
    """(T, s) from the same coefficients as _certified_polynomial, by Horner
    to the full degree D at every point."""
    margin = 0.5 - ens.beta
    a_max = ens.beta / margin
    degree = _truncation_degree(2 * ens.n_atoms * a_max, ens.n_atoms)
    coef = _polynomial_coefficients(ens.phase, a_max, degree)
    z = margin / (margin + 1j * delta)
    x, y = (np.polynomial.polynomial.polyval(z, c) for c in coef)
    return 1.0 / y, x / y


class TestPerPointDegree:
    """Horner to each point's own degree, and the degree-major coefficients."""

    @staticmethod
    def degrees(grid, ens):
        margin = 0.5 - ens.beta
        bound = 2 * ens.n_atoms * ens.beta / margin
        abs_z = np.abs(margin / (margin + 1j * grid))
        return bound, abs_z, _point_degrees(abs_z, bound, ens.n_atoms)

    @pytest.mark.parametrize("scenario", ["fig4", "s1"])
    def test_each_point_meets_the_tail_criterion_at_its_own_degree(self, scenario):
        grid, ens = default_configuration(scenario)
        bound, abs_z, degrees = self.degrees(grid, ens)
        assert degrees.max() == _truncation_degree(bound, ens.n_atoms)
        # the tail grows with |z|, so the largest |z| of a degree stands for
        # all its points, and the smallest for how far past need it goes:
        # at most to the degree of twice its |z|, the width of a bin
        for degree in np.unique(degrees):
            at = abs_z[degrees == degree]
            assert exponential_tail(float(bound * at.max()), int(degree)) < spectra._POLY_TAIL
            assert degree <= _truncation_degree(bound * min(2 * at.min(), 1.0), ens.n_atoms)
        assert degrees.mean() < 0.15 * degrees.max()

    @pytest.mark.parametrize("scenario", ["fig4", "s1"])
    def test_matches_full_degree_horner_at_defaults(self, scenario):
        grid, ens = default_configuration(scenario)
        t_prod, s, _ = _certified_polynomial(grid, ens)
        t_ref, s_ref = full_degree_horner(grid, ens)
        assert np.max(np.abs(t_prod - t_ref) / np.abs(t_ref)) <= 1e-14
        assert np.max(np.abs(s - s_ref)) <= 1e-15

    @pytest.mark.parametrize("grid", [np.linspace(3.0, 40.0, 999), np.linspace(-40.0, -0.5, 1000),
                                      np.linspace(-7.3, 31.0, 777), np.array([0.25])])
    def test_matches_full_degree_horner_on_grids_off_centre(self, grid):
        # the span of each degree where |z| does not peak inside the grid
        ens = EnsembleSpec(0.0055, np.random.default_rng(11).uniform(0.0, 2 * math.pi, 1175))
        _, _, degrees = self.degrees(grid, ens)
        assert degrees.size == 1 or degrees.min() < degrees.max()
        t_prod, s, _ = _certified_polynomial(grid, ens)
        t_ref, s_ref = full_degree_horner(grid, ens)
        assert np.max(np.abs(t_prod - t_ref) / np.abs(t_ref)) <= 1e-14
        assert np.max(np.abs(s - s_ref)) <= 1e-15

    @pytest.mark.parametrize("scenario", ["fig4", "s1"])
    def test_coefficients_within_n_eps_of_the_atom_major_loop(self, scenario):
        _, ens = default_configuration(scenario)
        a_max = ens.beta / (0.5 - ens.beta)
        degree = _truncation_degree(2 * ens.n_atoms * a_max, ens.n_atoms)
        coef = _polynomial_coefficients(ens.phase, a_max, degree)
        reference = atom_major_coefficients(ens.phase, a_max, degree)
        error = np.abs(coef - reference)
        assert np.all(error <= ens.n_atoms * np.finfo(float).eps * np.abs(reference))


class TestCavity:
    def test_validation(self):
        with pytest.raises(ValueError):
            CavitySpec(t_rt=0.0, t_c=0.9, tau_rt=1.0)
        with pytest.raises(ValueError):
            CavitySpec(t_rt=0.9, t_c=1.2, tau_rt=1.0)
        with pytest.raises(ValueError):
            CavitySpec(t_rt=0.9, t_c=0.9, tau_rt=-1.0)

    def test_unit_coupler_bypasses_ring(self):
        g = detuning_grid(8.0, 256)
        unity = TransferSpectrum(g, np.ones(256, dtype=complex))
        for t_c in (1.0, -1.0):
            cav = CavitySpec(t_rt=0.8, t_c=t_c, tau_rt=2.0, phi0=0.3)
            out = transfer_cavity(unity, cav)
            assert np.allclose(np.abs(out.amplitude), 1.0, atol=1e-12)

    def test_lossless_ring_all_pass(self):
        g = detuning_grid(8.0, 256)
        unity = TransferSpectrum(g, np.ones(256, dtype=complex))
        cav = CavitySpec(t_rt=1.0, t_c=0.6, tau_rt=2.0, phi0=0.17)
        out = transfer_cavity(unity, cav)
        assert np.allclose(np.abs(out.amplitude), 1.0, atol=1e-12)

    def test_lossless_ring_all_pass_for_random_rings(self):
        # t_rt = 1 around a unit-modulus medium: |amplitude| = 1 for real t_c;
        # |t_c| <= 0.99 keeps the denominator >= 0.01, so rounding stays < 1e-12
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        g = detuning_grid(8.0, 64)
        ring = st.tuples(st.floats(-0.99, 0.99), st.floats(0.1, 10.0),
                         st.floats(0.0, 2 * math.pi),
                         st.lists(st.floats(0.0, 2 * math.pi), min_size=64, max_size=64))

        def law(params):
            t_c, tau_rt, phi0, medium_phase = params
            medium = TransferSpectrum(g, np.exp(1j * np.array(medium_phase)))
            out = transfer_cavity(medium, CavitySpec(t_rt=1.0, t_c=t_c, tau_rt=tau_rt,
                                                     phi0=phi0))
            assert np.max(np.abs(np.abs(out.amplitude) - 1.0)) <= 1e-12

        settings = hypothesis.settings(derandomize=True, max_examples=50, deadline=None,
                                       database=None)
        settings(hypothesis.given(ring))(law)()

    def test_resonant_dip_value(self):
        # pick tau so that the zero-detuning grid point is exactly resonant
        g = detuning_grid(8.0, 256)
        unity = TransferSpectrum(g, np.ones(256, dtype=complex))
        t_rt, t_c = 0.7, 0.9
        cav = CavitySpec(t_rt=t_rt, t_c=t_c, tau_rt=3.0, phi0=0.0)
        out = transfer_cavity(unity, cav)
        i0 = np.argmin(np.abs(g))
        expected = ((t_rt - t_c) / (t_rt * t_c - 1.0)) ** 2
        assert abs(out.amplitude[i0]) ** 2 == pytest.approx(expected, rel=1e-12)

    def test_gain_threshold_diagnostic(self):
        g = detuning_grid(2.0, 8)
        unity = TransferSpectrum(g, np.ones(8, dtype=complex))
        cav = CavitySpec(t_rt=1.0, t_c=1.0, tau_rt=math.pi / 2.0, phi0=0.0)
        with pytest.warns(DegenerateDenominatorWarning):
            transfer_cavity(unity, cav)


def for_random_chains(law):
    """Check law(beta, phase) on 50 derandomized chains of up to 40 atoms."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    chain = st.integers(1, 40).flatmap(lambda n: st.tuples(
        st.floats(0.005, 0.45),
        st.lists(st.floats(0.0, 2 * math.pi), min_size=n, max_size=n)))
    settings = hypothesis.settings(derandomize=True, max_examples=50, deadline=None,
                                   database=None)
    settings(hypothesis.given(chain))(lambda c: law(c[0], np.array(c[1])))()


class TestRandomChainLaws:
    """Oracle-free laws of the two-way recursion on random passive chains."""

    GRID = np.linspace(-19.5, 19.5, 64)

    def test_reciprocity(self):
        # the mirrored chain sits at x' = L - x, so theta' = -theta up to a
        # global phase, which leaves the transmission unchanged
        def law(beta, phase):
            forward, _ = transfer_bidirectional(self.GRID, EnsembleSpec(beta, phase))
            mirrored, _ = transfer_bidirectional(self.GRID, EnsembleSpec(beta, (-phase)[::-1]))
            assert np.max(np.abs(mirrored.amplitude - forward.amplitude)) <= 1e-12

        for_random_chains(law)

    def test_passivity(self):
        def law(beta, phase):
            t_spec, r_spec = transfer_bidirectional(self.GRID, EnsembleSpec(beta, phase))
            assert np.max(t_spec.power() + r_spec.power()) <= 1.0 + 1e-12

        for_random_chains(law)

    def test_reflection_certificate(self):
        # each atom with beta <= 1/2 is passive, so the far-end reflection
        # the recursion carries stays in the unit disc at every step, with
        # any phases; the screen in _recursion relies on it
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        chain = st.integers(1, 30).flatmap(lambda n: st.tuples(
            st.floats(0.001, 0.5),
            st.lists(st.floats(0.0, 2 * math.pi), min_size=n, max_size=n)))

        def law(params):
            beta, phase = params[0], np.array(params[1])
            t_prod, s = _recursion(self.GRID, EnsembleSpec(beta, phase))
            assert np.max(np.abs(s)) <= 1.0 + 1e-12
            assert np.max(np.abs(t_prod) ** 2 + np.abs(s) ** 2) <= 1.0 + 1e-12

        settings = hypothesis.settings(derandomize=True, max_examples=50, deadline=None,
                                       database=None)
        settings(hypothesis.given(chain))(law)()
