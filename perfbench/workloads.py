"""Benchmark workloads: scenario configs, units of work and output checks.

Every workload is a closed loop: one client runs one operation at a time,
and an operation runs the workload's scenarios through
``config_from_dict`` and ``run_scenario``, the code the command line ships.
Checks read the files the scenarios wrote.  They combine laws that hold at
any seed with reference values recorded at the seed commit
(``references.json``), which are compared only at full size and, for
disorder workloads, only at ``DEFAULT_SEED``.  A check returns a summary
of the outputs; the reference file holds the summary keys that are
compared, and diagnostics such as R^2 are recorded but not compared.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1
REFERENCES = Path(__file__).with_name("references.json")

# Relative tolerance on reference values.  Known legitimate changes move
# outputs by far less: flux-balance energies move Gamma_coll by ~1e-4
# relative (hence its own tolerance), carrier reuse moves spectra by
# ~7e-10 absolute, and a new variance reduction changes only the stderr
# column, which is not compared.
REL_TOL = 1e-6
GAMMA_COLL_REL_TOL = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    scenarios: callable    # (seed, smoke, threads) -> list of raw config dicts
    work: callable         # {scenario: ScenarioConfig} -> units of work per operation
    check: callable        # ({scenario: out_dir}, configs, seed, smoke) -> (failures, summary)
    uses_seed: bool


def read_csv(path) -> dict:
    """Columns of a scenario CSV by header name (first line is a comment)."""
    path = Path(path)
    with path.open(encoding="utf-8") as handle:
        handle.readline()
        names = handle.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(names)}


def _compare(summary, reference, failures, tolerances=None):
    for key, expected in reference.items():
        got = summary.get(key)
        tol = (tolerances or {}).get(key, REL_TOL)
        if (got is None or np.shape(got) != np.shape(expected)
                or not np.allclose(got, expected, rtol=tol, atol=0.0)):
            failures.append(f"{key}: {got} differs from reference {expected} (rel tol {tol:g})")


def _reference(workload, seed, smoke):
    if smoke or (WORKLOADS[workload].uses_seed and seed != DEFAULT_SEED):
        return None
    return json.loads(REFERENCES.read_text(encoding="utf-8")).get(workload)


# ---------------------------------------------------------------- od_sweep

def _od_sweep_scenarios(seed, smoke, threads):
    if smoke:
        # the C5 points: both ODs <= 5, where the pulse rate meets
        # Gamma_coll, and OD 34, the only default OD whose rate exceeds 10
        return [{"scenario": "fig3", "od_values": [2.0, 5.0, 34.0], "grid": {"points": 2 ** 14}}]
    return [{"scenario": "fig3"}]


def _check_od_sweep(outs, configs, seed, smoke):
    d = read_csv(outs["fig3"] / "decay_rate_vs_od.csv")
    ods, rates, gammas = d["od"], d["pulse_decay_rate_gamma0"], d["gamma_coll_gamma0"]
    failures = []
    if not np.all(np.diff(rates) > 0):
        failures.append(f"pulse rate does not rise with OD: {rates}")
    slope, intercept = np.polyfit(ods, rates, 1)
    r2 = 1.0 - np.sum((rates - (slope * ods + intercept)) ** 2) / np.sum((rates - rates.mean()) ** 2)
    if not r2 > 0.95:
        failures.append(f"rate vs OD R^2 {r2:.4f} <= 0.95")
    if not rates[-1] >= 10.0:
        failures.append(f"top rate {rates[-1]:.3f} < 10")
    small = ods <= 5.0
    agreement = float(np.max(np.abs(rates[small] - gammas[small]) / gammas[small]))
    if not agreement < 0.10:
        failures.append(f"rate vs Gamma_coll differ by {agreement:.1%} at OD <= 5")
    summary = {"n_atoms": d["n_atoms"].tolist(), "pulse_decay_rate": rates.tolist(),
               "gamma_coll": gammas.tolist(), "r2": float(r2)}
    reference = _reference("od_sweep", seed, smoke)
    if reference:
        _compare(summary, reference, failures, {"gamma_coll": GAMMA_COLL_REL_TOL})
    return failures, summary


# ----------------------------------------------------------- carrier_sweep

# Fewer configurations make the backward fit fail for some seeds: the mean
# of a few speckle patterns need not decay.  Over seeds 0..40, seed 39
# still fails at 13 configurations; from 14 on none does.
CARRIER_SWEEP_CONFIGS = 16


def _carrier_sweep_scenarios(seed, smoke, threads):
    raw = {"scenario": "fig4", "disorder": {"seed": seed, "n_configs": CARRIER_SWEEP_CONFIGS},
           "threads": 1}
    if smoke:
        raw["disorder"]["n_configs"] = 2
        raw["detunings"] = [0.5, 6.0]
    return [raw]


def _check_carrier_sweep(outs, configs, seed, smoke):
    d = read_csv(outs["fig4"] / "decay_rate_vs_detuning.csv")
    fwd, bwd = d["forward_rate_gamma0"], d["backward_rate_gamma0"]
    failures = []
    rates = np.concatenate([fwd, bwd])
    if not np.all(np.isfinite(rates) & (rates > 0)):
        failures.append(f"rates not finite and positive: forward {fwd}, backward {bwd}")
    near = d["detuning_gamma0"] == 0.5
    if not np.any(near) or not np.all(fwd[near] > 5.0):
        failures.append(f"forward rate at carrier 0.5 is not > 5: {fwd[near]}")
    summary = {"forward_rate": fwd.tolist(), "backward_rate": bwd.tolist()}
    reference = _reference("carrier_sweep", seed, smoke)
    if reference:
        _compare(summary, reference, failures)
    return failures, summary


# ---------------------------------------------------------- config_average

CONFIG_AVERAGE_CONFIGS = 32


def _config_average_scenarios(seed, smoke, threads):
    return [{"scenario": "s1",
             "disorder": {"seed": seed, "n_configs": 2 if smoke else CONFIG_AVERAGE_CONFIGS},
             "threads": threads}]


def _check_config_average(outs, configs, seed, smoke):
    d = read_csv(outs["s1"] / "uni_vs_bi.csv")
    uni = d["unidirectional_power_photons_per_ns"]
    mean = d["bidirectional_mean_power_photons_per_ns"]
    deviation = float(np.max(np.abs(mean - uni)) / np.max(uni))
    failures = []
    if not deviation < 0.01:
        failures.append(f"disorder mean deviates from the cascade by {deviation:.2e} of peak")
    summary = {"deviation": deviation, "unidirectional_sum": float(np.sum(uni)),
               "mean_sum": float(np.sum(mean))}
    reference = _reference("config_average", seed, smoke)
    if reference:
        _compare(summary, reference, failures)
    return failures, summary


# --------------------------------------------------------------- trace_map

def _trace_map_scenarios(seed, smoke, threads):
    if smoke:
        return [{"scenario": "fig2", "grid": {"points": 2 ** 14}},
                {"scenario": "fig5", "grid": {"points": 2 ** 17}}]
    return [{"scenario": "fig2"}, {"scenario": "fig5"}]


def _flux_balance_energy(config):
    """Stored excitation E(t) from dE/dt = P_in - P_out - (1 - beta) E.

    An exact identity of the cascade with uniform beta, solved with one
    FFT; it shares no code with the per-atom sum it is compared against.
    """
    import waveqed as wq

    units = wq.Units(config.gamma0_hz)
    ns = lambda x: units.time_from_si(x * 1e-9)
    pulse = wq.synthesize_pulse(wq.time_grid(config.span, config.grid_points),
                                ns(config.duration_ns), ns(config.rise_fall_ns),
                                carrier_detuning=config.detuning,
                                photon_number=config.photon_number, start=ns(config.start_ns))
    ens = wq.EnsembleSpec.from_od(config.od, config.beta)
    out = wq.propagate_pulse(pulse, wq.transfer_unidirectional(pulse.detunings(), ens))
    omega = 2.0 * math.pi * np.fft.fftfreq(pulse.t.size, d=pulse.dt)
    drive = np.fft.fft(pulse.power() - out.power())
    energy = np.fft.ifft(drive / (1j * omega + (1.0 - config.beta))).real
    return energy, units.time_to_si(pulse.dt) * 1e9


def _check_trace_map(outs, configs, seed, smoke):
    failures = []
    fig2 = configs["fig2"]
    cmap = read_csv(outs["fig2"] / "atom_colormap.csv")
    times = np.unique(cmap["time_ns"])
    stored = np.bincount(np.searchsorted(times, cmap["time_ns"]),
                         weights=cmap["excited_probability_probability"])
    energy, dt_ns = _flux_balance_energy(fig2)
    expected = energy[np.rint(times / dt_ns).astype(int)]
    energy_error = float(np.max(np.abs(stored - expected)) / np.max(expected))
    if not energy_error < 1e-6:
        failures.append(f"fig2 sum of atom traces differs from the stored energy "
                        f"by {energy_error:.2e} of peak")

    cmp_rows = read_csv(outs["fig5"] / "roundtrip_comparison.csv")
    diff = np.abs(cmp_rows["cavity_power_normalized"] - cmp_rows["single_pass_power_normalized"])
    mismatch = [float(np.max(diff[cmp_rows["roundtrip"] == m]))
                for m in np.unique(cmp_rows["roundtrip"])]
    if not max(mismatch) < 0.02:
        failures.append(f"fig5 roundtrip vs single-pass mismatch {max(mismatch):.2%} >= 2%")

    rates = read_csv(outs["fig5"] / "roundtrip_rates.csv")
    power = read_csv(outs["fig2"] / "transmitted_power.csv")
    summary = {
        "fig2_energy_error": energy_error,
        "fig2_transmitted_sum": float(np.sum(power["transmitted_power_photons_per_ns"])),
        "fig2_stored_energy_sum": float(np.sum(stored)),
        "fig5_mismatch": mismatch,
        "fig5_cavity_rate": rates["cavity_rate_gamma0"].tolist(),
        "fig5_single_pass_rate": rates["single_pass_rate_gamma0"].tolist(),
        "fig5_flash_to_plateau": rates["flash_to_plateau_ratio"].tolist(),
    }
    reference = _reference("trace_map", seed, smoke)
    if reference:
        _compare(summary, reference, failures)
    return failures, summary


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("od_sweep", "OD points", _od_sweep_scenarios,
             lambda c: len(c["fig3"].od_values), _check_od_sweep, uses_seed=False),
    Workload("carrier_sweep", "configuration x carrier evaluations", _carrier_sweep_scenarios,
             lambda c: c["fig4"].n_configs * len(c["fig4"].detunings), _check_carrier_sweep,
             uses_seed=True),
    Workload("config_average", "configurations", _config_average_scenarios,
             lambda c: c["s1"].n_configs, _check_config_average, uses_seed=True),
    Workload("trace_map", "scenarios", _trace_map_scenarios, len, _check_trace_map,
             uses_seed=False),
)}
