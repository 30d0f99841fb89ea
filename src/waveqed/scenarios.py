"""Scenario runner: strict configuration parsing and CSV/manifest emission.

Configurations are JSON with nested sections; unknown keys are errors.
All physical inputs are SI at this boundary (durations in ns) and are
converted to natural units through Units before any computation.  Output
files are CSV with a provenance comment line, written atomically; the
manifest records every resolved parameter so reruns are bitwise
identical.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .disorder import DisorderModel, average_observable
from .fitting import backward_decay_sweep, collective_decay_vs_od, fit_pulse_decay
from .physics import EnsembleSpec, Units
from .pulses import atom_dynamics, propagate_pulse, synthesize_pulse, time_grid
from .spectra import (
    CavitySpec,
    TransferSpectrum,
    transfer_bidirectional,
    transfer_cavity,
    transfer_unidirectional,
)

SCENARIOS = ("fig2", "fig3", "fig4", "fig5", "s1", "custom")

FLASH_WINDOW = 0.1  # fit window (1/Gamma0) resolving the initial collective flash


class ConfigError(ValueError):
    """Configuration problem, carrying the dotted field path."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario parameters (flat view of the config file)."""

    scenario: str
    gamma0_hz: float
    beta: float
    od: float | None
    n_atoms: int | None
    detuning: float | None
    detunings: tuple | None
    od_values: tuple | None
    duration_ns: float
    rise_fall_ns: float
    photon_number: float
    start_ns: float
    span: float
    grid_points: int
    seed: int
    n_configs: int
    roundtrip_ns: float
    cavity_t_rt: float
    cavity_t_c: float
    cavity_phi0: float
    roundtrips: int
    fit_window_ns: float
    fit_window_short_ns: float
    fit_od_threshold: float
    settle_ns: float
    out_dir: str
    time_stride: int
    trace_atoms: tuple
    threads: int


_BASE_DEFAULTS = {
    "gamma0_hz": 5.2e6,
    "beta": 0.55e-2,
    "od": None,
    "n_atoms": None,
    "detuning": None,
    "detunings": None,
    "od_values": None,
    "pulse": {
        "duration_ns": 150.0,
        "rise_fall_ns": 0.85,
        "photon_number": 2.0,
        "start_ns": 30.0,
    },
    "grid": {"span": 1024.0, "points": 2 ** 15},
    "disorder": {"seed": 1, "n_configs": 1000},
    "cavity": {
        "roundtrip_ns": 220.0,
        "t_rt": 0.85,
        "t_c": 0.9,
        "phi0": 0.0,
        "roundtrips": 7,
    },
    "fit": {
        "window_ns": 30.0,
        "window_short_ns": 15.0,
        "od_threshold": 20.7,
        "settle_ns": 1.0,
    },
    "output": {"directory": None, "time_stride": 8, "trace_atoms": [1, 100, 600]},
    "threads": 1,
}

_SCENARIO_DEFAULTS = {
    "fig2": {"od": 19.3, "detuning": 17.3},
    "fig3": {
        "detuning": 3.8,
        "od_values": [2.0, 5.0, 8.0, 11.0, 14.0, 17.0, 20.0, 23.0, 26.0, 29.0, 32.0, 34.0],
    },
    "fig4": {
        "od": 26.0,
        "detunings": [0.5, 1.5, 3.0, 4.5, 6.0],
        "pulse": {"photon_number": 1.0},
        "grid": {"points": 2 ** 14},
        "disorder": {"n_configs": 64},
    },
    "fig5": {
        "od": 14.0,
        "detuning": 8.7,
        "pulse": {"duration_ns": 120.0, "photon_number": 1.0},
        "grid": {"span": 2048.0, "points": 2 ** 20},
    },
    "s1": {
        "od": 19.3,
        "detuning": 17.3,
        "grid": {"points": 2 ** 14},
    },
    "custom": {"od": 1.0, "detuning": 0.0},
}


def _deep_merge(base, override):
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def scenario_defaults(scenario: str) -> dict:
    """Built-in nested config dict for a scenario."""
    if scenario not in SCENARIOS:
        raise ConfigError("scenario", f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    merged = _deep_merge(_BASE_DEFAULTS, _SCENARIO_DEFAULTS[scenario])
    merged["scenario"] = scenario
    return merged


def _require(cond, field, message):
    if not cond:
        raise ConfigError(field, message)


def _check_number(value, field, minimum=None, integer=False):
    if integer:
        _require(isinstance(value, int) and not isinstance(value, bool),
                 field, f"expected an integer, got {value!r}")
        value = int(value)
    else:
        _require(isinstance(value, (int, float)) and not isinstance(value, bool),
                 field, f"expected a number, got {value!r}")
        value = float(value)
        _require(math.isfinite(value), field, f"must be finite, got {value}")
    if minimum is not None:
        _require(value >= minimum, field, f"must be >= {minimum}, got {value}")
    return value


def _get_number(section, key, path, minimum=None, allow_none=False, integer=False):
    value = section.get(key)
    if value is None:
        _require(allow_none, f"{path}{key}", "value required")
        return None
    return _check_number(value, f"{path}{key}", minimum, integer)


def _get_numbers(section, key, path, what, minimum=None, integer=False):
    """Non-empty list field, each element checked as _get_number checks a scalar."""
    values = section.get(key)
    if values is None:
        return None
    _require(isinstance(values, (list, tuple)) and len(values) > 0,
             f"{path}{key}", f"expected a non-empty list of {what}")
    return tuple(_check_number(v, f"{path}{key}[{i}]", minimum, integer)
                 for i, v in enumerate(values))


def _check_keys(section, allowed, path):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{path}{key}", "unknown key")


def config_from_dict(raw: dict) -> ScenarioConfig:
    """Validate a nested config dict (strict keys) into a ScenarioConfig."""
    _require(isinstance(raw, dict), "", "config must be a JSON object")
    scenario = raw.get("scenario")
    _require(scenario in SCENARIOS, "scenario",
             f"must be one of {SCENARIOS}, got {scenario!r}")
    merged = _deep_merge(scenario_defaults(scenario), raw)

    _check_keys(merged, {"scenario", "gamma0_hz", "beta", "od", "n_atoms", "detuning",
                         "detunings", "od_values", "pulse", "grid", "disorder",
                         "cavity", "fit", "output", "threads"}, "")
    _check_keys(merged["pulse"], {"duration_ns", "rise_fall_ns", "photon_number", "start_ns"},
                "pulse.")
    _check_keys(merged["grid"], {"span", "points"}, "grid.")
    _check_keys(merged["disorder"], {"seed", "n_configs"}, "disorder.")
    _check_keys(merged["cavity"], {"roundtrip_ns", "t_rt", "t_c", "phi0", "roundtrips"},
                "cavity.")
    _check_keys(merged["fit"], {"window_ns", "window_short_ns", "od_threshold", "settle_ns"},
                "fit.")
    _check_keys(merged["output"], {"directory", "time_stride", "trace_atoms"}, "output.")

    gamma0_hz = _get_number(merged, "gamma0_hz", "", minimum=1e-12)
    beta = _get_number(merged, "beta", "")
    _require(0.0 < beta < 0.5, "beta", f"must lie in (0, 0.5), got {beta}")

    od = merged.get("od")
    n_atoms = merged.get("n_atoms")
    if od is not None:
        od = _get_number(merged, "od", "", minimum=0.0)
    if n_atoms is not None:
        n_atoms = _get_number(merged, "n_atoms", "", minimum=1, integer=True)
    if scenario == "fig3":
        _require(od is None and n_atoms is None, "od",
                 "fig3 sizes ensembles from od_values; leave od/n_atoms unset")
    else:
        _require((od is None) != (n_atoms is None), "od",
                 "exactly one of od / n_atoms must be set")

    detuning = merged.get("detuning")
    if detuning is not None:
        detuning = _get_number(merged, "detuning", "")
    detunings = _get_numbers(merged, "detunings", "", "numbers")
    od_values = _get_numbers(merged, "od_values", "", "optical depths", minimum=0.0)

    if scenario == "fig3":
        _require(od_values is not None, "od_values", "required for fig3")
    if scenario == "fig4":
        _require(detunings is not None, "detunings", "required for fig4")
    if scenario in ("fig2", "fig5", "s1", "custom"):
        _require(detuning is not None, "detuning", "required for this scenario")

    pulse = merged["pulse"]
    duration_ns = _get_number(pulse, "duration_ns", "pulse.", minimum=1e-12)
    rise_fall_ns = _get_number(pulse, "rise_fall_ns", "pulse.", minimum=0.0)
    _require(rise_fall_ns < duration_ns, "pulse.rise_fall_ns",
             "must be shorter than duration_ns")
    photon_number = _get_number(pulse, "photon_number", "pulse.", minimum=0.0)
    start_ns = _get_number(pulse, "start_ns", "pulse.", minimum=0.0)

    grid = merged["grid"]
    span = _get_number(grid, "span", "grid.", minimum=1e-12)
    points = _get_number(grid, "points", "grid.", minimum=2, integer=True)
    _require(points & (points - 1) == 0, "grid.points", "must be a power of two")

    disorder = merged["disorder"]
    seed = _get_number(disorder, "seed", "disorder.", minimum=0, integer=True)
    n_configs = _get_number(disorder, "n_configs", "disorder.", minimum=1, integer=True)

    cavity = merged["cavity"]
    roundtrip_ns = _get_number(cavity, "roundtrip_ns", "cavity.", minimum=1e-12)
    t_rt = _get_number(cavity, "t_rt", "cavity.")
    _require(0.0 < t_rt <= 1.0, "cavity.t_rt", f"must lie in (0, 1], got {t_rt}")
    t_c = _get_number(cavity, "t_c", "cavity.")
    _require(abs(t_c) <= 1.0, "cavity.t_c", f"|t_c| must be <= 1, got {t_c}")
    phi0 = _get_number(cavity, "phi0", "cavity.")
    roundtrips = _get_number(cavity, "roundtrips", "cavity.", minimum=1, integer=True)

    fit = merged["fit"]
    window_ns = _get_number(fit, "window_ns", "fit.", minimum=1e-12)
    window_short_ns = _get_number(fit, "window_short_ns", "fit.", minimum=1e-12)
    od_threshold = _get_number(fit, "od_threshold", "fit.", minimum=0.0)
    settle_ns = _get_number(fit, "settle_ns", "fit.", minimum=0.0)

    output = merged["output"]
    directory = output.get("directory")
    if directory is None:
        directory = f"out/{scenario}"
    _require(isinstance(directory, str) and directory, "output.directory",
             "expected a non-empty path")
    time_stride = _get_number(output, "time_stride", "output.", minimum=1, integer=True)
    trace_atoms = _get_numbers(output, "trace_atoms", "output.", "1-based atom numbers",
                               minimum=1, integer=True)
    _require(trace_atoms is not None, "output.trace_atoms", "value required")

    threads = _get_number(merged, "threads", "", minimum=1, integer=True)

    return ScenarioConfig(
        scenario=scenario, gamma0_hz=gamma0_hz, beta=beta, od=od, n_atoms=n_atoms,
        detuning=detuning, detunings=detunings, od_values=od_values,
        duration_ns=duration_ns, rise_fall_ns=rise_fall_ns,
        photon_number=photon_number, start_ns=start_ns, span=span,
        grid_points=points, seed=seed, n_configs=n_configs,
        roundtrip_ns=roundtrip_ns, cavity_t_rt=t_rt, cavity_t_c=t_c,
        cavity_phi0=phi0, roundtrips=roundtrips, fit_window_ns=window_ns,
        fit_window_short_ns=window_short_ns, fit_od_threshold=od_threshold,
        settle_ns=settle_ns, out_dir=directory, time_stride=time_stride,
        trace_atoms=trace_atoms, threads=threads,
    )


def config_to_dict(config: ScenarioConfig) -> dict:
    """Nested dict form of a config (inverse of config_from_dict)."""
    return {
        "scenario": config.scenario,
        "gamma0_hz": config.gamma0_hz,
        "beta": config.beta,
        "od": config.od,
        "n_atoms": config.n_atoms,
        "detuning": config.detuning,
        "detunings": list(config.detunings) if config.detunings is not None else None,
        "od_values": list(config.od_values) if config.od_values is not None else None,
        "pulse": {
            "duration_ns": config.duration_ns,
            "rise_fall_ns": config.rise_fall_ns,
            "photon_number": config.photon_number,
            "start_ns": config.start_ns,
        },
        "grid": {"span": config.span, "points": config.grid_points},
        "disorder": {"seed": config.seed, "n_configs": config.n_configs},
        "cavity": {
            "roundtrip_ns": config.roundtrip_ns,
            "t_rt": config.cavity_t_rt,
            "t_c": config.cavity_t_c,
            "phi0": config.cavity_phi0,
            "roundtrips": config.roundtrips,
        },
        "fit": {
            "window_ns": config.fit_window_ns,
            "window_short_ns": config.fit_window_short_ns,
            "od_threshold": config.fit_od_threshold,
            "settle_ns": config.settle_ns,
        },
        "output": {
            "directory": config.out_dir,
            "time_stride": config.time_stride,
            "trace_atoms": list(config.trace_atoms),
        },
        "threads": config.threads,
    }


def parse_config(path) -> ScenarioConfig:
    """Load and strictly validate a JSON config file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError("", f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"malformed JSON in {path}: {exc}") from exc
    return config_from_dict(raw)


def emit_config(config: ScenarioConfig, path) -> Path:
    """Write a config back to JSON; parse_config(emit_config(c)) == c."""
    path = Path(path)
    _atomic_write(path, json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n")
    return path


def _atomic_write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _format(value) -> str:
    return repr(float(value))


def write_csv(path: Path, scenario: str, columns):
    """CSV with a provenance comment, one (name, unit, values) per column."""
    names = [f"{name}_{unit}" if unit else name for name, unit, _ in columns]
    arrays = [np.asarray(values) for _, _, values in columns]
    n = arrays[0].size
    if any(a.size != n for a in arrays):
        raise ValueError("columns must have equal lengths")
    lines = [f"# scenario: {scenario}", ",".join(names)]
    for i in range(n):
        lines.append(",".join(_format(a[i]) for a in arrays))
    _atomic_write(path, "\n".join(lines) + "\n")
    return path


@dataclass(frozen=True)
class _Workspace:
    """Natural-unit view of a ScenarioConfig."""

    units: Units
    duration: float
    rise_fall: float
    start: float
    tau_rt: float
    window: float
    window_short: float
    settle: float

    @classmethod
    def build(cls, config: ScenarioConfig):
        units = Units(config.gamma0_hz)
        ns = lambda x: units.time_from_si(x * 1e-9)
        return cls(
            units=units,
            duration=ns(config.duration_ns),
            rise_fall=ns(config.rise_fall_ns),
            start=ns(config.start_ns),
            tau_rt=ns(config.roundtrip_ns),
            window=ns(config.fit_window_ns),
            window_short=ns(config.fit_window_short_ns),
            settle=ns(config.settle_ns),
        )


def _ensemble(config: ScenarioConfig) -> EnsembleSpec:
    if config.n_atoms is not None:
        return EnsembleSpec.uniform(config.n_atoms, config.beta)
    return EnsembleSpec.from_od(config.od, config.beta)


def _pulse(config: ScenarioConfig, ws: _Workspace, carrier):
    t = time_grid(config.span, config.grid_points)
    return synthesize_pulse(t, ws.duration, ws.rise_fall, carrier_detuning=carrier,
                            photon_number=config.photon_number, start=ws.start)


def _per_ns(ws: _Workspace) -> float:
    # photon flux per natural time -> photons per ns
    return 1e-9 / ws.units.time_to_si(1.0)


def _crop(t, t_max, stride):
    idx = np.arange(0, int(np.searchsorted(t, t_max)), stride)
    return idx


def _run_fig2(config: ScenarioConfig, ws: _Workspace, out: Path) -> dict:
    ens = _ensemble(config)
    pulse = _pulse(config, ws, config.detuning)
    medium = transfer_unidirectional(pulse.detunings(), ens)
    transmitted = propagate_pulse(pulse, medium)
    traj = atom_dynamics(pulse, ens, trace_stride=max(1, config.time_stride // 2))

    t_ns = ws.units.time_to_si(pulse.t) * 1e9
    per_ns = _per_ns(ws)
    idx = _crop(pulse.t, pulse.switch_off + 15.0, config.time_stride)
    files = {}
    files["transmitted_power"] = write_csv(
        out / "transmitted_power.csv", config.scenario,
        [("time", "ns", t_ns[idx]),
         ("input_power", "photons_per_ns", pulse.power()[idx] * per_ns),
         ("transmitted_power", "photons_per_ns", transmitted.power()[idx] * per_ns)])

    labels = [min(a, ens.n_atoms) for a in config.trace_atoms]
    rows = [np.searchsorted(traj.atom_indices, a - 1) for a in labels]
    tr_idx = _crop(traj.trace_t, pulse.switch_off + 15.0, 1)
    columns = [("time", "ns", ws.units.time_to_si(traj.trace_t[tr_idx]) * 1e9)]
    for label, row in zip(labels, rows):
        columns.append((f"p_atom_{label}", "probability", traj.traces[row][tr_idx]))
    files["atom_traces"] = write_csv(out / "atom_traces.csv", config.scenario, columns)

    cm_idx = tr_idx[:: max(1, config.time_stride)]
    atom_col, time_col, p_col = [], [], []
    cm_t_ns = ws.units.time_to_si(traj.trace_t[cm_idx]) * 1e9
    for row, atom in enumerate(traj.atom_indices):
        atom_col.append(np.full(cm_idx.size, atom + 1.0))
        time_col.append(cm_t_ns)
        p_col.append(traj.traces[row][cm_idx])
    files["atom_colormap"] = write_csv(
        out / "atom_colormap.csv", config.scenario,
        [("atom", "index", np.concatenate(atom_col)),
         ("time", "ns", np.concatenate(time_col)),
         ("excited_probability", "probability", np.concatenate(p_col))])
    return files


def _run_fig3(config: ScenarioConfig, ws: _Workspace, out: Path) -> dict:
    points = collective_decay_vs_od(
        config.od_values, config.detuning, beta=config.beta,
        duration=ws.duration, rise_fall=ws.rise_fall,
        photon_number=config.photon_number, span=config.span,
        grid_points=config.grid_points, window_long=ws.window,
        window_short=ws.window_short, window_short_od=config.fit_od_threshold,
        settle_delay=ws.settle)
    return {"decay_rate_vs_od": write_csv(
        out / "decay_rate_vs_od.csv", config.scenario,
        [("od", "", [p.od for p in points]),
         ("n_atoms", "", [float(p.n_atoms) for p in points]),
         ("pulse_decay_rate", "gamma0", [p.pulse_fit.rate for p in points]),
         ("gamma_coll", "gamma0", [p.gamma_coll for p in points]),
         ("fit_rms_residual", "photons_per_time", [p.pulse_fit.rms_residual for p in points])])}


def _run_fig4(config: ScenarioConfig, ws: _Workspace, out: Path) -> dict:
    sweep = backward_decay_sweep(
        config.od, config.detunings, beta=config.beta,
        n_configs=config.n_configs, seed=config.seed,
        duration=ws.duration, rise_fall=ws.rise_fall,
        photon_number=config.photon_number, span=config.span,
        grid_points=config.grid_points, forward_window=ws.window_short,
        backward_window=ws.window, settle_delay=ws.settle,
        n_workers=config.threads)
    return {"decay_rate_vs_detuning": write_csv(
        out / "decay_rate_vs_detuning.csv", config.scenario,
        [("detuning", "gamma0", [r.detuning for r in sweep]),
         ("forward_rate", "gamma0", [r.forward.rate for r in sweep]),
         ("backward_rate", "gamma0", [r.backward.rate for r in sweep])])}


def _run_fig5(config: ScenarioConfig, ws: _Workspace, out: Path) -> dict:
    ens = _ensemble(config)
    pulse = _pulse(config, ws, config.detuning)
    t = pulse.t
    delta = pulse.detunings()
    # snap the roundtrip to the grid so per-roundtrip overlays are not
    # blurred by sub-sample misalignment
    shift = max(1, round(ws.tau_rt / pulse.dt))
    tau = shift * pulse.dt
    single = transfer_unidirectional(delta, ens)
    cavity = CavitySpec(t_rt=config.cavity_t_rt, t_c=config.cavity_t_c,
                        tau_rt=tau, phi0=config.cavity_phi0)
    out_cav = propagate_pulse(pulse, transfer_cavity(single, cavity))
    unity = TransferSpectrum(delta, np.ones(delta.size, dtype=complex))
    ref_cav = propagate_pulse(pulse, transfer_cavity(unity, cavity))
    P, R = out_cav.power(), ref_cav.power()

    per_ns = _per_ns(ws)
    t_ns = ws.units.time_to_si(t) * 1e9
    files = {}
    idx = _crop(t, ws.start + (config.roundtrips + 1) * tau, config.time_stride)
    files["cavity_trace"] = write_csv(
        out / "cavity_trace.csv", config.scenario,
        [("time", "ns", t_ns[idx]),
         ("outcoupled_power", "photons_per_ns", P[idx] * per_ns),
         ("no_atom_power", "photons_per_ns", R[idx] * per_ns)])

    pre = 0.5
    lo0 = int(np.searchsorted(t, ws.start - pre))
    cum = np.ones(delta.size, dtype=complex)
    rt_col, rate_cav, rate_sp, flash_ratio = [], [], [], []
    cmp_rows = {"roundtrip": [], "local_time": [], "cavity": [], "single_pass": []}
    for m in range(1, config.roundtrips + 1):
        cum = cum * single.amplitude
        p_sp = propagate_pulse(pulse, TransferSpectrum(delta, cum)).power()
        lo = lo0 + m * shift
        seg_cav = P[lo:lo + shift]
        seg_sp = p_sp[lo0:lo0 + shift]
        t_off = pulse.switch_off + m * tau
        fit_cav = fit_pulse_decay(t, P, t_off, FLASH_WINDOW, ws.settle, min_points=6)
        fit_sp = fit_pulse_decay(t, p_sp, pulse.switch_off, FLASH_WINDOW, ws.settle,
                                 min_points=6)
        post = P[int(np.searchsorted(t, t_off)):lo + shift]
        rt_col.append(float(m))
        rate_cav.append(fit_cav.rate)
        rate_sp.append(fit_sp.rate)
        flash_ratio.append(float(post.max() / R[lo:lo + shift].max()))
        sel = np.arange(0, shift, config.time_stride)
        cmp_rows["roundtrip"].append(np.full(sel.size, float(m)))
        cmp_rows["local_time"].append(ws.units.time_to_si(t[lo0 + sel] - ws.start) * 1e9)
        cmp_rows["cavity"].append(seg_cav[sel] / seg_cav.max())
        cmp_rows["single_pass"].append(seg_sp[sel] / seg_sp.max())

    files["roundtrip_rates"] = write_csv(
        out / "roundtrip_rates.csv", config.scenario,
        [("roundtrip", "", rt_col),
         ("od_total", "", [config.od * m for m in rt_col]),
         ("cavity_rate", "gamma0", rate_cav),
         ("single_pass_rate", "gamma0", rate_sp),
         ("flash_to_plateau", "ratio", flash_ratio)])
    files["roundtrip_comparison"] = write_csv(
        out / "roundtrip_comparison.csv", config.scenario,
        [("roundtrip", "", np.concatenate(cmp_rows["roundtrip"])),
         ("local_time", "ns", np.concatenate(cmp_rows["local_time"])),
         ("cavity_power", "normalized", np.concatenate(cmp_rows["cavity"])),
         ("single_pass_power", "normalized", np.concatenate(cmp_rows["single_pass"]))])
    return files


def _run_s1(config: ScenarioConfig, ws: _Workspace, out: Path) -> dict:
    ens = _ensemble(config)
    pulse = _pulse(config, ws, config.detuning)
    delta = pulse.detunings()
    p_uni = propagate_pulse(pulse, transfer_unidirectional(delta, ens)).power()
    model = DisorderModel(n_atoms=ens.n_atoms, beta_mean=config.beta, seed=config.seed)

    def forward_power(sample, _pulse=pulse, _delta=delta):
        t_spec, _ = transfer_bidirectional(_delta, sample)
        return propagate_pulse(_pulse, t_spec).power()

    mean, stderr = average_observable(model, config.n_configs, forward_power,
                                      n_workers=config.threads)
    per_ns = _per_ns(ws)
    t_ns = ws.units.time_to_si(pulse.t) * 1e9
    idx = _crop(pulse.t, pulse.switch_off + 15.0, config.time_stride)
    return {"uni_vs_bi": write_csv(
        out / "uni_vs_bi.csv", config.scenario,
        [("time", "ns", t_ns[idx]),
         ("unidirectional_power", "photons_per_ns", p_uni[idx] * per_ns),
         ("bidirectional_mean_power", "photons_per_ns", mean[idx] * per_ns),
         ("bidirectional_stderr", "photons_per_ns", stderr[idx] * per_ns)])}


def _run_custom(config: ScenarioConfig, ws: _Workspace, out: Path) -> dict:
    ens = _ensemble(config)
    pulse = _pulse(config, ws, config.detuning)
    transmitted = propagate_pulse(pulse, transfer_unidirectional(pulse.detunings(), ens))
    per_ns = _per_ns(ws)
    t_ns = ws.units.time_to_si(pulse.t) * 1e9
    idx = _crop(pulse.t, pulse.switch_off + 15.0, config.time_stride)
    return {"transmitted_power": write_csv(
        out / "transmitted_power.csv", config.scenario,
        [("time", "ns", t_ns[idx]),
         ("input_power", "photons_per_ns", pulse.power()[idx] * per_ns),
         ("transmitted_power", "photons_per_ns", transmitted.power()[idx] * per_ns)])}


_RUNNERS = {
    "fig2": _run_fig2,
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "s1": _run_s1,
    "custom": _run_custom,
}


def run_scenario(config: ScenarioConfig) -> dict:
    """Execute a scenario, returning {name: path} including the manifest.

    Reruns with an identical config produce bitwise-identical files; the
    manifest records every parameter needed to reproduce them.
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = _RUNNERS[config.scenario](config, _Workspace.build(config), out)
    manifest = {
        "code_version": __version__,
        "config": config_to_dict(config),
        "files": sorted(p.name for p in files.values()),
    }
    manifest_path = out / "manifest.json"
    _atomic_write(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    files["manifest"] = manifest_path
    return files
