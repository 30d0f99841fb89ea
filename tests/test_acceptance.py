"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Run `pytest tests/test_acceptance.py -v -s` for one printed line per
criterion.  The disorder-averaged tiers take a few minutes; the 10^4
configuration tier is behind the `slow` marker.

Two sub-clauses are marked strict-xfail because they are provably
incompatible with the model: after switch-off the stored energy obeys
dE/dt = -(1-beta) E - beta |sum_n c_n|^2, so the collective rate is bounded
by 1 + beta (N-1) ~ 9.2 over this OD range and can never reach the >= 10
pulse-flash rate; and at the seventh ring roundtrip (OD_tot = 98) the
initial flash lasts < 2 ns before the re-excitation shoulder, so no
windowed exponential fit returns ~17 there (the ~17 rate occurs at
roundtrips 4-5, matching the "up to" phrasing).
"""

import math

import numpy as np
import pytest

from waveqed import (
    EnsembleSpec,
    Units,
    atom_spectra,
    config_from_dict,
    detuning_grid,
    disorder_averaged_forward,
    fit_pulse_decay,
    od_to_atom_number,
    propagate_pulse,
    resonant_od,
    run_scenario,
    selfcheck,
    synthesize_pulse,
    time_grid,
    transfer_bidirectional,
    transfer_unidirectional,
)
from oracles import transfer_matrix_solution

UNITS = Units()
NS = UNITS.time_from_si(1e-9)
BETA = 0.55e-2


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


def read_columns(path):
    """A scenario CSV by column name; repr floats read back exactly."""
    return np.genfromtxt(path, delimiter=",", skip_header=1, names=True)


def run_columns(out_dir, raw, csv_name):
    """Run a scenario as the CLI does, into out_dir, and read one CSV back."""
    output = {**raw.get("output", {}), "directory": str(out_dir)}
    run_scenario(config_from_dict({**raw, "output": output}))
    return read_columns(out_dir / csv_name)


# --------------------------------------------------------------------------
# 1. resonant attenuation closed form


def test_c1_resonant_attenuation():
    grid = detuning_grid(4.0, 8)
    i0 = int(np.argmin(np.abs(grid)))
    worst = 0.0
    for n in (1, 10, 100, 872, 2000, 10000):
        spec = transfer_unidirectional(grid, EnsembleSpec.uniform(n, BETA))
        od = resonant_od(n, BETA)
        rel = abs(abs(spec.amplitude[i0]) ** 2 - math.exp(-od)) / math.exp(-od)
        worst = max(worst, rel)
    assert worst < 1e-12
    report(1, f"|t_N(0)|^2 vs exp(-OD) worst relative error {worst:.2e} up to N=10^4")


# --------------------------------------------------------------------------
# 2. small-system oracle


def test_c2_small_system_oracle():
    rng = np.random.default_rng(2024)
    grid = detuning_grid(30.0, 1024)
    worst_t = worst_r = 0.0
    for _ in range(8):
        n = int(rng.integers(1, 13))
        ens = EnsembleSpec(beta=rng.uniform(0.01, 0.3), phase=rng.uniform(0, 2 * math.pi, n))
        t_spec, r_spec = transfer_bidirectional(grid, ens)
        t_ref, r_ref = transfer_matrix_solution(grid, np.full(n, ens.beta), ens.phase)
        worst_t = max(worst_t, float(np.max(np.abs(t_spec.amplitude - t_ref) / np.abs(t_ref))))
        # reflection has exact interference zeros where a relative measure is
        # undefined; compare relative where conditioned, absolute at the zeros
        r_err = np.abs(r_spec.amplitude - r_ref)
        worst_r = max(worst_r, float(np.max(r_err)))
        conditioned = np.abs(r_ref) > 1e-3
        if np.any(conditioned):
            worst_r = max(worst_r, float(np.max(r_err[conditioned] / np.abs(r_ref[conditioned]))))
    assert worst_t < 1e-10
    assert worst_r < 1e-10
    report(2, f"recursion vs transfer-matrix oracle, worst error t {worst_t:.1e}, r {worst_r:.1e}")


# --------------------------------------------------------------------------
# 3. disorder-averaged forward equivalence


def _s1_deviation(n_configs, n_workers=1):
    pulse = synthesize_pulse(time_grid(1024.0, 2 ** 14), 150 * NS, 0.85 * NS,
                             carrier_detuning=17.3, photon_number=2.0)
    p_uni, mean, _ = disorder_averaged_forward(pulse, od_to_atom_number(19.3, BETA), BETA,
                                               n_configs, seed=11, n_workers=n_workers)
    return float(np.max(np.abs(mean - p_uni)) / p_uni.max())


def test_c3_uni_bi_equivalence():
    deviation = _s1_deviation(1000)
    assert deviation < 0.01
    report(3, f"10^3-configuration average deviates from the cascade by "
              f"{deviation:.2e} of peak (< 1% everywhere)")


@pytest.mark.slow
def test_c3_uni_bi_equivalence_full_tier():
    deviation = _s1_deviation(10000, n_workers=2)
    assert deviation < 0.01
    report(3, f"10^4-configuration average deviates by {deviation:.2e} of peak")


# --------------------------------------------------------------------------
# 4. single-atom limit


def test_c4_single_atom_limit():
    pulse = synthesize_pulse(time_grid(1024.0, 2 ** 15), 150 * NS, 0.85 * NS,
                             carrier_detuning=0.0, photon_number=2.0)
    ens = EnsembleSpec.uniform(1, BETA)
    out = propagate_pulse(pulse, transfer_unidirectional(pulse.detunings(), ens))
    fit_out = fit_pulse_decay(out.t, out.power(), pulse.switch_off, 30 * NS, NS)
    p_first = np.abs(np.fft.ifft(next(atom_spectra(pulse, ens)))) ** 2
    fit_atom = fit_pulse_decay(pulse.t, p_first, pulse.switch_off, 30 * NS, NS)
    assert fit_out.rate == pytest.approx(1.0, rel=5e-3)
    assert fit_atom.rate == pytest.approx(1.0, rel=5e-3)
    report(4, f"transmitted rate {fit_out.rate:.6f}, first-atom rate "
              f"{fit_atom.rate:.6f} (both within 0.5% of the intrinsic rate)")


# --------------------------------------------------------------------------
# 5. pulse decay rate and collective rate vs OD


@pytest.fixture(scope="module")
def od_sweep(tmp_path_factory):
    """fig3 at its defaults: ODs 2 to 34 at carrier 3.8."""
    d = run_columns(tmp_path_factory.mktemp("fig3"), {"scenario": "fig3"}, "decay_rate_vs_od.csv")
    return d["od"], d["pulse_decay_rate_gamma0"], d["gamma_coll_gamma0"]


def test_c5_rate_trend_with_od(od_sweep):
    ods, rates, gammas = od_sweep

    assert np.all(np.diff(rates) > 0), "fitted rate must increase with OD"
    slope, intercept = np.polyfit(ods, rates, 1)
    predicted = slope * ods + intercept
    r2 = 1.0 - np.sum((rates - predicted) ** 2) / np.sum((rates - rates.mean()) ** 2)
    assert r2 > 0.95
    assert rates[-1] >= 10.0
    small = ods <= 5.0
    agreement = np.max(np.abs(rates[small] - gammas[small]) / gammas[small])
    assert agreement < 0.10
    report(5, f"monotone, R^2 = {r2:.4f}, top rate {rates[-1]:.2f} Gamma0, "
              f"rate vs Gamma_coll within {agreement:.1%} for OD <= 5")


@pytest.mark.xfail(
    strict=True,
    reason="after switch-off dE/dt = -(1-beta) E - beta |sum c_n|^2 bounds the "
           "collective rate by 1 + beta (N-1) ~ 9.2 over this OD range, below "
           "the >= 10 flash rate required above; the stated ordering is "
           "unattainable in the model",
)
def test_c5_gamma_ordering_as_stated(od_sweep):
    ods, rates, gammas = od_sweep
    large = ods >= 26.0
    rates, gammas = rates[large], gammas[large]
    print(f"ACCEPTANCE 5 (ordering clause): gamma_coll {np.round(gammas, 2)} vs "
          f"pulse rate {np.round(rates, 2)} at OD >= 26")
    assert np.all(gammas >= rates)


# --------------------------------------------------------------------------
# 6. forward/backward asymmetry


def test_c6_directional_asymmetry(tmp_path):
    detunings = (0.5, 2.5, 4.5, 6.5)
    d = run_columns(tmp_path, {"scenario": "fig4", "detunings": list(detunings),
                               "disorder": {"n_configs": 48, "seed": 20}},
                    "decay_rate_vs_detuning.csv")
    backward, forward = d["backward_rate_gamma0"], d["forward_rate_gamma0"]
    assert abs(backward[0] - 1.0) < 0.30
    assert forward[0] > 5.0
    assert np.all(np.diff(backward) > 0), "backward rate must grow with |detuning|"
    report(6, f"near resonance backward {backward[0]:.2f} Gamma0 vs forward "
              f"{forward[0]:.1f} Gamma0; backward rises monotonically to "
              f"{backward[-1]:.2f} at |delta| = {detunings[-1]}")


# --------------------------------------------------------------------------
# 7. ring-resonator multi-pass equivalence


@pytest.fixture(scope="module")
def cavity_run(tmp_path_factory):
    """fig5 at its defaults; at time stride 1 the overlays are the full roundtrip segments."""
    out = tmp_path_factory.mktemp("fig5")
    overlay = run_columns(out, {"scenario": "fig5", "output": {"time_stride": 1}},
                          "roundtrip_comparison.csv")
    rates = read_columns(out / "roundtrip_rates.csv")
    diff = np.abs(overlay["cavity_power_normalized"] - overlay["single_pass_power_normalized"])
    mismatch = [float(np.max(diff[overlay["roundtrip"] == m])) for m in rates["roundtrip"]]
    return np.array(mismatch), rates["cavity_rate_gamma0"], rates["flash_to_plateau_ratio"]


def test_c7_roundtrip_equivalence(cavity_run):
    mismatch, rates, flash = cavity_run
    assert np.all(mismatch < 0.02), f"per-roundtrip mismatch {mismatch}"
    report(7, f"roundtrips 1..7 match single passes at OD_tot = m*14 within "
              f"{mismatch.max():.1%} of peak")


def test_c7_superflash_progression(cavity_run):
    _, _, flash = cavity_run
    assert np.all(flash[3:] > 1.0), f"superflash missing for m >= 4: {flash}"
    assert np.all(flash[:3] < 1.0), f"superflash too early: {flash}"
    report(7, f"post-switch-off peak exceeds the no-atom pulse level exactly "
              f"from roundtrip 4 on: ratios {np.round(flash, 2)}")


def test_c7_peak_rate_magnitude(cavity_run):
    _, rates, _ = cavity_run
    peak = rates.max()
    assert peak == pytest.approx(17.0, rel=0.15)
    report(7, f"fitted flash rate reaches {peak:.1f} Gamma0 "
              f"(~17x the intrinsic rate, at roundtrip {int(rates.argmax()) + 1})")


@pytest.mark.xfail(
    strict=True,
    reason="at roundtrip 7 (OD_tot = 98) the initial flash decays for < 2 ns "
           "before the re-excitation shoulder; no windowed exponential fit "
           "yields ~17 Gamma0 there; the ~17x rate occurs at roundtrips 4-5",
)
def test_c7_rate_at_seventh_roundtrip_as_stated(cavity_run):
    _, rates, _ = cavity_run
    print(f"ACCEPTANCE 7 (m=7 clause): fitted rates per roundtrip {np.round(rates, 2)}")
    assert rates[6] == pytest.approx(17.0, rel=0.15)


# --------------------------------------------------------------------------
# 8. property suite


@pytest.mark.parametrize("check", selfcheck.ALL_CHECKS,
                         ids=lambda check: check.__name__.removeprefix("check_"))
def test_c8_property_suite(check):
    result = check()
    assert result.passed, f"{result.name}: {result.detail}"
    report(8, f"{result.name}: {result.detail}")
