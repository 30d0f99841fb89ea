"""Scenario runner: strict configuration parsing and CSV/manifest emission.

Configurations are JSON with nested sections; unknown keys, and keys the
scenario does not read, are errors.  All physical inputs are SI at this
boundary (durations in ns) and are converted to natural units through
Units before any computation.  Output files are CSV with a provenance
comment line, written atomically; the manifest records every parameter
the scenario reads, so reruns are bitwise identical.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .fitting import (
    backward_decay_sweep,
    collective_decay_vs_od,
    disorder_averaged_forward,
    ring_multipass,
    roundtrip_samples,
)
from .physics import BETA_DEFAULT, GAMMA0_HZ, EnsembleSpec, Units, od_to_atom_number, resonant_od
from .pulses import (
    _strided_power,
    atom_dynamics,
    atom_spectra,
    propagate_pulse,
    synthesize_pulse,
    time_grid,
)
from .spectra import CavitySpec, transfer_unidirectional

SCENARIOS = ("fig2", "fig3", "fig4", "fig5", "s1", "custom")


class ConfigError(ValueError):
    """Configuration problem, carrying the dotted field path."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


def _field(path, default, kind=float, minimum=None, readers=SCENARIOS, nullable=False):
    """Schema entry: dotted path in the config file, base default, type, minimum, readers.

    kind is float, int, str, or tuple[float, ...] / tuple[int, ...] for a
    non-empty list.  Only the readers, the scenarios that read the field,
    accept, default and record it; it is None in every other scenario's
    config.  Only a nullable field may be null.
    """
    return field(metadata={"path": path, "default": default, "kind": kind, "minimum": minimum,
                           "readers": readers, "nullable": nullable})


_SIZED = ("fig2", "fig4", "fig5", "s1", "custom")  # one ensemble, sized by od or n_atoms


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario parameters (flat view of the config file).

    The field metadata is the config schema: the base defaults, the strict
    key check, the loader and config_to_dict are all derived from it.
    """

    scenario: str = _field("scenario", None, str)
    gamma0_hz: float = _field("gamma0_hz", GAMMA0_HZ, minimum=1e-12)
    beta: float = _field("beta", BETA_DEFAULT)
    od: float | None = _field("od", None, minimum=0.0, readers=_SIZED, nullable=True)
    n_atoms: int | None = _field("n_atoms", None, int, minimum=1, readers=_SIZED, nullable=True)
    detuning: float | None = _field("detuning", None,
                                    readers=("fig2", "fig3", "fig5", "s1", "custom"))
    detunings: tuple | None = _field("detunings", None, tuple[float, ...], readers=("fig4",))
    od_values: tuple | None = _field("od_values", None, tuple[float, ...], minimum=0.0,
                                     readers=("fig3",))
    duration_ns: float = _field("pulse.duration_ns", 150.0, minimum=1e-12)
    rise_fall_ns: float = _field("pulse.rise_fall_ns", 0.85, minimum=0.0)
    photon_number: float = _field("pulse.photon_number", 2.0, minimum=1e-12)
    start_ns: float = _field("pulse.start_ns", 30.0, minimum=0.0)
    span: float = _field("grid.span", 1024.0, minimum=1e-12)
    grid_points: int = _field("grid.points", 2 ** 15, int, minimum=2)
    seed: int = _field("disorder.seed", 1, int, minimum=0, readers=("fig4", "s1"))
    n_configs: int = _field("disorder.n_configs", 1000, int, minimum=1, readers=("fig4", "s1"))
    roundtrip_ns: float = _field("cavity.roundtrip_ns", 220.0, minimum=1e-12, readers=("fig5",))
    cavity_t_rt: float = _field("cavity.t_rt", 0.85, readers=("fig5",))
    cavity_t_c: float = _field("cavity.t_c", 0.9, readers=("fig5",))
    cavity_phi0: float = _field("cavity.phi0", 0.0, readers=("fig5",))
    roundtrips: int = _field("cavity.roundtrips", 7, int, minimum=1, readers=("fig5",))
    fit_window_ns: float = _field("fit.window_ns", 30.0, minimum=1e-12, readers=("fig3", "fig4"))
    fit_window_short_ns: float = _field("fit.window_short_ns", 15.0, minimum=1e-12,
                                        readers=("fig3", "fig4"))
    fit_od_threshold: float = _field("fit.od_threshold", 20.7, minimum=0.0, readers=("fig3",))
    settle_ns: float = _field("fit.settle_ns", 1.0, minimum=0.0, readers=("fig3", "fig4", "fig5"))
    out_dir: str = _field("output.directory", None, str, nullable=True)
    time_stride: int = _field("output.time_stride", 8, int, minimum=1,
                              readers=("fig2", "fig5", "s1", "custom"))
    trace_atoms: tuple = _field("output.trace_atoms", (1, 100, 600), tuple[int, ...], minimum=1,
                                readers=("fig2",))
    threads: int = _field("threads", 1, int, minimum=1, readers=("fig4", "s1"))


# fig3 and fig4 start the pulse at 1/Gamma0 (exactly, at the default
# gamma0_hz), where their rates were recorded; starting at 30 ns instead
# moves the samples the fits and Gamma_coll read, and the rates by up to 0.7%.
_START_1_OVER_GAMMA0_NS = 30.60671982536449

# each scenario's departures from the base defaults, by dotted path
_SCENARIO_DEFAULTS = {
    "fig2": {"od": 19.3, "detuning": 17.3},
    "fig3": {"detuning": 3.8, "pulse.start_ns": _START_1_OVER_GAMMA0_NS,
             "od_values": (2.0, 5.0, 8.0, 11.0, 14.0, 17.0, 20.0, 23.0, 26.0, 29.0, 32.0, 34.0)},
    "fig4": {"od": 26.0, "detunings": (0.5, 1.5, 3.0, 4.5, 6.0), "disorder.n_configs": 64,
             "pulse.start_ns": _START_1_OVER_GAMMA0_NS, "pulse.photon_number": 1.0,
             "grid.points": 2 ** 14},
    "fig5": {"od": 14.0, "detuning": 8.7, "pulse.duration_ns": 120.0, "pulse.photon_number": 1.0,
             "grid.span": 2048.0, "grid.points": 2 ** 16},
    "s1": {"od": 19.3, "detuning": 17.3, "grid.points": 2 ** 14},
    "custom": {"od": 1.0, "detuning": 0.0},
}


def _nest(pairs) -> dict:
    """Nested config dict from (dotted path, value) pairs; tuples become lists."""
    out = {}
    for path, value in pairs:
        *sections, key = path.split(".")
        node = out
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = list(value) if isinstance(value, tuple) else value
    return out


def _flat_defaults(scenario: str) -> dict:
    """Defaults by dotted path, of exactly the fields the scenario reads."""
    flat = {f.metadata["path"]: f.metadata["default"] for f in fields(ScenarioConfig)
            if scenario in f.metadata["readers"]}
    flat.update(_SCENARIO_DEFAULTS[scenario], scenario=scenario)
    return flat


def scenario_defaults(scenario: str) -> dict:
    """Built-in nested config dict for a scenario: exactly the keys it reads."""
    if scenario not in SCENARIOS:
        raise ConfigError("scenario", f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    return _nest(_flat_defaults(scenario).items())


def _require(cond, field, message):
    if not cond:
        raise ConfigError(field, message)


def _check_number(value, field, minimum=None, integer=False):
    if integer:
        # every integer field is a count, an index or a seed: unsigned 64-bit
        _require(isinstance(value, int) and not isinstance(value, bool) and value < 2 ** 64,
                 field, f"expected an integer below 2**64, got {value!r}")
        value = int(value)
    else:
        _require(isinstance(value, (int, float)) and not isinstance(value, bool),
                 field, f"expected a number, got {value!r}")
        value = float(value)
        _require(math.isfinite(value), field, f"must be finite, got {value}")
    if minimum is not None:
        _require(value >= minimum, field, f"must be >= {minimum}, got {value}")
    return value


def _check_value(value, meta):
    """One field's value checked against its schema entry."""
    path, kind, minimum = meta["path"], meta["kind"], meta["minimum"]
    if value is None:
        _require(meta["nullable"], path, "value required")
        return None
    if kind is str:
        _require(isinstance(value, str) and value, path, "expected a non-empty string")
        return value
    if typing.get_origin(kind) is tuple:
        integer = typing.get_args(kind)[0] is int
        _require(isinstance(value, (list, tuple)) and len(value) > 0, path,
                 f"expected a non-empty list of {'integers' if integer else 'numbers'}")
        return tuple(_check_number(v, f"{path}[{i}]", minimum, integer)
                     for i, v in enumerate(value))
    return _check_number(value, path, minimum, kind is int)


def _given(section, schema, scenario, prefix=""):
    """The {dotted path: value} pairs a raw config sets.  Unknown keys, keys the
    scenario does not read (schema leaves hold the readers) and non-objects
    where the schema has a section are errors."""
    given = {}
    for key, value in section.items():
        path = prefix + key
        _require(key in schema, path, "unknown key")
        if isinstance(schema[key], dict):
            _require(isinstance(value, dict), path, "expected a JSON object")
            given.update(_given(value, schema[key], scenario, path + "."))
        else:
            _require(scenario in schema[key], path,
                     f"not read by {scenario}; read only by {', '.join(schema[key])}")
            given[path] = value
    return given


def config_from_dict(raw: dict) -> ScenarioConfig:
    """Validate a nested config dict (strict keys) into a ScenarioConfig;
    a key the scenario does not read is an error, and its field is None."""
    _require(isinstance(raw, dict), "", "config must be a JSON object")
    scenario = raw.get("scenario")
    _require(scenario in SCENARIOS, "scenario",
             f"must be one of {SCENARIOS}, got {scenario!r}")
    flat = _flat_defaults(scenario)
    flat.update(_given(raw, _nest((f.metadata["path"], f.metadata["readers"])
                                  for f in fields(ScenarioConfig)), scenario))
    v = {f.name: _check_value(flat[f.metadata["path"]], f.metadata)
         if f.metadata["path"] in flat else None for f in fields(ScenarioConfig)}

    _require(0.0 < v["beta"] < 0.5, "beta", f"must lie in (0, 0.5), got {v['beta']}")
    if "od" in flat:
        _require((v["od"] is None) != (v["n_atoms"] is None), "od",
                 "exactly one of od / n_atoms must be set")
    # an OD below one atom's worth rounds to an empty ensemble
    ods = [] if v["od"] is None else [("od", v["od"])]
    ods += [(f"od_values[{i}]", od) for i, od in enumerate(v["od_values"] or ())]
    for path, od in ods:
        _require(od_to_atom_number(od, v["beta"]) >= 1, path,
                 f"sizes zero atoms at beta = {v['beta']}, got {od}")
    _require(v["rise_fall_ns"] < v["duration_ns"], "pulse.rise_fall_ns",
             "must be shorter than duration_ns")
    points = v["grid_points"]
    _require(points & (points - 1) == 0, "grid.points", "must be a power of two")
    if scenario == "fig5":
        _require(0.0 < v["cavity_t_rt"] <= 1.0, "cavity.t_rt",
                 f"must lie in (0, 1], got {v['cavity_t_rt']}")
        _require(abs(v["cavity_t_c"]) <= 1.0, "cavity.t_c",
                 f"|t_c| must be <= 1, got {v['cavity_t_c']}")
        # ring_multipass reads the grid up to start + (roundtrips + 1) snapped roundtrips
        units, dt = Units(v["gamma0_hz"]), math.pi / v["span"]
        tau = roundtrip_samples(units.time_from_si(v["roundtrip_ns"] * 1e-9), dt) * dt
        t_end = units.time_from_si(v["start_ns"] * 1e-9) + (v["roundtrips"] + 1) * tau
        needed = 2 ** math.ceil(math.log2(t_end / dt + 1.0))
        _require(t_end <= (points - 1) * dt, "grid.points",
                 f"the ring window ends at {t_end:.4g} (1/Gamma0), past the grid's "
                 f"{(points - 1) * dt:.4g}; needs >= {needed} points at span {v['span']:g}")
    if v["out_dir"] is None:
        v["out_dir"] = f"out/{scenario}"
    return ScenarioConfig(**v)


def config_to_dict(config: ScenarioConfig) -> dict:
    """Nested dict of the fields the config's scenario reads (inverse of config_from_dict)."""
    return _nest((f.metadata["path"], getattr(config, f.name)) for f in fields(config)
                 if config.scenario in f.metadata["readers"])


def read_config_json(path) -> dict:
    """Read a JSON config file into its raw dict; the fields are not yet checked."""
    path = Path(path)
    if not path.exists():
        raise ConfigError("", f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"malformed JSON in {path}: {exc}") from exc
    _require(isinstance(raw, dict), "", "config must be a JSON object")
    return raw


def parse_config(path) -> ScenarioConfig:
    """Load and strictly validate a JSON config file."""
    return config_from_dict(read_config_json(path))


def _atomic_write(path: Path, chunks):
    """Write the text chunks in turn to a temp file beside path, then move it
    onto path; on any error the temp file is removed and path is untouched."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _column_text(a):
    """repr(float(v)) of every value, called once per distinct float64 bit
    pattern (not per value: 0.0 and -0.0 compare equal but print differently)."""
    bits, inverse = np.unique(a.astype(float).view(np.int64), return_inverse=True)
    text = np.array([repr(float(v)) for v in bits.view(np.float64)], dtype=object)
    return text[inverse]


# write_csv formats and writes this many rows at a time, so its memory does
# not grow with the table: no full-length text column or file text exists
_CSV_BLOCK_ROWS = 4096


def write_csv(path: Path, scenario: str, columns):
    """CSV with a provenance comment, one (name, unit, values) per column."""
    names = [f"{name}_{unit}" if unit else name for name, unit, _ in columns]
    arrays = [np.asarray(values) for _, _, values in columns]
    if not arrays:
        raise ValueError("a CSV table needs at least one column")
    n = arrays[0].size
    if any(a.size != n for a in arrays):
        raise ValueError("columns must have equal lengths")

    def chunks():
        yield f"# scenario: {scenario}\n{','.join(names)}\n"
        for start in range(0, n, _CSV_BLOCK_ROWS):
            block = slice(start, start + _CSV_BLOCK_ROWS)
            rows = zip(*[_column_text(a[block]) for a in arrays])
            yield "\n".join(map(",".join, rows)) + "\n"

    _atomic_write(path, chunks())
    return path


# the time-resolved tables end this long after switch-off, in 1/Gamma0
_TAIL = 15.0


def _ns(config: ScenarioConfig, value_ns):
    """A duration in ns in natural time units (1/Gamma0)."""
    return Units(config.gamma0_hz).time_from_si(value_ns * 1e-9)


def _ns_column(config: ScenarioConfig, t):
    """Natural times as a column in ns."""
    return Units(config.gamma0_hz).time_to_si(t) * 1e9


def _ensemble(config: ScenarioConfig) -> EnsembleSpec:
    if config.n_atoms is not None:
        return EnsembleSpec.uniform(config.n_atoms, config.beta)
    return EnsembleSpec.from_od(config.od, config.beta)


def _od(config: ScenarioConfig) -> float:
    """The configured OD, or the resonant OD of the configured atom number."""
    if config.od is not None:
        return config.od
    return resonant_od(config.n_atoms, config.beta)


def _pulse(config: ScenarioConfig, carrier):
    t = time_grid(config.span, config.grid_points)
    pulse = synthesize_pulse(t, _ns(config, config.duration_ns),
                             _ns(config, config.rise_fall_ns), carrier_detuning=carrier,
                             photon_number=config.photon_number,
                             start=_ns(config, config.start_ns))
    # the aliasing guard, spectrum and detunings run before the scenario's
    # work, so the arrays the pulse keeps sit below its temporaries on the heap
    _ = pulse.spectrum, pulse.detunings()
    return pulse


def _crop(t, t_max, stride):
    return np.arange(0, int(np.searchsorted(t, t_max)), stride)


def _power_columns(config: ScenarioConfig, t, t_max, powers):
    """Time in ns and (name, trace) power columns in photons per ns, cropped at t_max."""
    idx = _crop(t, t_max, config.time_stride)
    per_ns = 1e-9 / Units(config.gamma0_hz).time_to_si(1.0)  # flux per natural time -> per ns
    return ([("time", "ns", _ns_column(config, t[idx]))]
            + [(name, "photons_per_ns", power[idx] * per_ns) for name, power in powers])


def _transmitted(config: ScenarioConfig, pulse, power) -> dict:
    return {"transmitted_power": _power_columns(
        config, pulse.t, pulse.switch_off + _TAIL,
        [("input_power", pulse.power()), ("transmitted_power", power)])}


def _run_fig2(config: ScenarioConfig) -> dict:
    ens = _ensemble(config)
    pulse = _pulse(config, config.detuning)
    traj = atom_dynamics(pulse, ens)
    tables = _transmitted(config, pulse, traj.transmitted_power)

    # the traces hold every trace_stride-th grid sample and the colormap every
    # map_stride-th, each only those before switch-off + _TAIL
    trace_stride = max(1, config.time_stride // 2)
    map_stride = config.time_stride * trace_stride
    trace_t = pulse.t[_crop(pulse.t, pulse.switch_off + _TAIL, trace_stride)]
    map_t = pulse.t[_crop(pulse.t, pulse.switch_off + _TAIL, map_stride)]
    # atoms past N clip to N; a label listed twice would repeat a column name
    labels = list(dict.fromkeys(min(a, ens.n_atoms) for a in config.trace_atoms))
    traces = {}
    colormap = np.empty((ens.n_atoms, map_t.size))
    # each atom's u * phi_n, transformed only at the samples written
    for n, q in enumerate(atom_spectra(pulse, ens), start=1):
        colormap[n - 1] = _strided_power(q, map_stride)[:map_t.size]
        if n in labels:
            traces[n] = _strided_power(q, trace_stride)[:trace_t.size]

    tables["atom_traces"] = [("time", "ns", _ns_column(config, trace_t))] + [
        (f"p_atom_{label}", "probability", traces[label]) for label in labels]
    tables["atom_colormap"] = [
        ("atom", "index", np.repeat(np.arange(1.0, ens.n_atoms + 1), map_t.size)),
        ("time", "ns", np.tile(_ns_column(config, map_t), ens.n_atoms)),
        ("excited_probability", "probability", colormap.ravel())]
    return tables


def _run_fig3(config: ScenarioConfig) -> dict:
    points = collective_decay_vs_od(
        _pulse(config, config.detuning), config.od_values, config.beta,
        _ns(config, config.fit_window_ns), _ns(config, config.fit_window_short_ns),
        config.fit_od_threshold, _ns(config, config.settle_ns))
    return {"decay_rate_vs_od": [
        ("od", "", [p.od for p in points]),
        ("n_atoms", "", [float(p.n_atoms) for p in points]),
        ("pulse_decay_rate", "gamma0", [p.pulse_fit.rate for p in points]),
        ("gamma_coll", "gamma0", [p.gamma_coll for p in points]),
        ("fit_rms_residual", "photons_per_time", [p.pulse_fit.rms_residual for p in points])]}


def _run_fig4(config: ScenarioConfig) -> dict:
    sweep = backward_decay_sweep(
        _pulse(config, 0.0), _ensemble(config).n_atoms, config.detunings, config.beta,
        config.n_configs, config.seed, _ns(config, config.fit_window_short_ns),
        _ns(config, config.fit_window_ns), _ns(config, config.settle_ns),
        n_workers=config.threads)
    return {"decay_rate_vs_detuning": [
        ("detuning", "gamma0", [r.detuning for r in sweep]),
        ("forward_rate", "gamma0", [r.forward.rate for r in sweep]),
        ("backward_rate", "gamma0", [r.backward.rate for r in sweep])]}


def _run_fig5(config: ScenarioConfig) -> dict:
    pulse = _pulse(config, config.detuning)
    start = _ns(config, config.start_ns)
    cavity = CavitySpec(t_rt=config.cavity_t_rt, t_c=config.cavity_t_c,
                        tau_rt=_ns(config, config.roundtrip_ns), phi0=config.cavity_phi0)
    ring = ring_multipass(pulse, _ensemble(config), cavity, config.roundtrips, start,
                          _ns(config, config.settle_ns))
    rt_col = [float(m) for m in range(1, config.roundtrips + 1)]
    sel = np.arange(0, ring.period, config.time_stride)

    def overlay(segments):
        return np.concatenate([seg[sel] / seg.max() for seg in segments])

    return {
        "cavity_trace": _power_columns(
            config, pulse.t, start + (config.roundtrips + 1) * ring.tau,
            [("outcoupled_power", ring.cavity_power), ("no_atom_power", ring.no_atom_power)]),
        "roundtrip_rates": [
            ("roundtrip", "", rt_col),
            ("od_total", "", [_od(config) * m for m in rt_col]),
            ("cavity_rate", "gamma0", ring.cavity_rate),
            ("single_pass_rate", "gamma0", ring.single_pass_rate),
            ("flash_to_plateau", "ratio", ring.flash_ratio)],
        "roundtrip_comparison": [
            ("roundtrip", "", np.repeat(rt_col, sel.size)),
            ("local_time", "ns", np.tile(_ns_column(config, ring.local_time[sel]),
                                         config.roundtrips)),
            ("cavity_power", "normalized", overlay(ring.cavity_segments)),
            ("single_pass_power", "normalized", overlay(ring.single_pass_segments))],
    }


def _run_s1(config: ScenarioConfig) -> dict:
    pulse = _pulse(config, config.detuning)
    p_uni, mean, stderr = disorder_averaged_forward(
        pulse, _ensemble(config).n_atoms, config.beta, config.n_configs, config.seed,
        n_workers=config.threads)
    return {"uni_vs_bi": _power_columns(
        config, pulse.t, pulse.switch_off + _TAIL,
        [("unidirectional_power", p_uni), ("bidirectional_mean_power", mean),
         ("bidirectional_stderr", stderr)])}


def _run_custom(config: ScenarioConfig) -> dict:
    pulse = _pulse(config, config.detuning)
    medium = transfer_unidirectional(pulse.detunings(), _ensemble(config))
    return _transmitted(config, pulse, propagate_pulse(pulse, medium).power())


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

    Each runner returns its tables as {file stem: columns}; this is the one
    place that writes them, as out_dir/<stem>.csv, next to the manifest.
    Reruns with an identical config produce bitwise-identical files; the
    manifest records every parameter the scenario reads, which reproduces them.
    """
    out = Path(config.out_dir)
    tables = _RUNNERS[config.scenario](config)
    files = {stem: write_csv(out / f"{stem}.csv", config.scenario, columns)
             for stem, columns in tables.items()}
    manifest = {
        "code_version": __version__,
        "config": config_to_dict(config),
        "files": sorted(p.name for p in files.values()),
    }
    manifest_path = out / "manifest.json"
    _atomic_write(manifest_path, [json.dumps(manifest, indent=2, sort_keys=True) + "\n"])
    files["manifest"] = manifest_path
    return files
