import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from waveqed import (
    ConfigError,
    ScenarioConfig,
    Units,
    backward_decay_sweep,
    collective_decay_vs_od,
    config_from_dict,
    config_to_dict,
    excitation_amplitudes,
    od_to_atom_number,
    parse_config,
    resonant_od,
    run_scenario,
    scenario_defaults,
    selfcheck,
    synthesize_pulse,
    time_grid,
)
from waveqed import fitting, pulses, scenarios, spectra
from waveqed.cli import main
from waveqed.scenarios import SCENARIOS


def tiny_custom(out_dir, drop=(), **overrides):
    """custom at a tiny size; overrides replace keys or update sections, and
    drop removes the top-level keys another scenario does not read."""
    raw = {
        "scenario": "custom",
        "od": 1.5,
        "detuning": 1.0,
        "pulse": {"duration_ns": 90.0, "rise_fall_ns": 4.0, "photon_number": 1.0},
        "grid": {"span": 256.0, "points": 4096},
        "output": {"directory": str(out_dir)},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(raw.get(key), dict):
            raw[key].update(value)
        else:
            raw[key] = value
    for key in drop:
        del raw[key]
    return raw


class TestConfigParsing:
    def test_minimal_fig2_fills_defaults(self, tmp_path):
        path = tmp_path / "fig2.json"
        path.write_text(json.dumps({"scenario": "fig2"}))
        config = parse_config(path)
        assert config.od == 19.3
        assert config.detuning == 17.3
        assert config.beta == 0.55e-2
        assert config.duration_ns == 150.0
        assert config.rise_fall_ns == 0.85
        assert config.trace_atoms == (1, 100, 600)

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scenario": "fig2", "betta": 0.01}))
        with pytest.raises(ConfigError, match="betta"):
            parse_config(path)

    def test_nested_unknown_key_has_path(self):
        with pytest.raises(ConfigError, match="disorder.sead"):
            config_from_dict({"scenario": "s1", "disorder": {"sead": 3}})

    def test_od_and_n_atoms_exclusive(self):
        with pytest.raises(ConfigError, match="exactly one"):
            config_from_dict({"scenario": "fig2", "od": 19.3, "n_atoms": 900})
        config = config_from_dict({"scenario": "fig2", "od": None, "n_atoms": 900})
        assert config.n_atoms == 900

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="malformed"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "absent.json")

    def test_out_of_range_values(self):
        with pytest.raises(ConfigError, match="beta"):
            config_from_dict({"scenario": "fig2", "beta": 0.7})
        with pytest.raises(ConfigError, match="grid.points"):
            config_from_dict({"scenario": "fig2", "grid": {"points": 1000}})
        with pytest.raises(ConfigError, match="rise_fall"):
            config_from_dict({"scenario": "fig2",
                              "pulse": {"duration_ns": 1.0, "rise_fall_ns": 2.0}})

    @pytest.mark.parametrize("raw, field", [
        ({"scenario": "fig4", "detunings": [0.5, True, 3.0]}, "detunings[1]"),
        ({"scenario": "fig4", "detunings": [0.5, 1.5, "3.0"]}, "detunings[2]"),
        ({"scenario": "fig4", "detunings": [0.5, float("nan")]}, "detunings[1]"),
        ({"scenario": "fig3", "od_values": [2.0, True]}, "od_values[1]"),
        ({"scenario": "fig3", "od_values": ["5"]}, "od_values[0]"),
        ({"scenario": "fig3", "od_values": [2.0, float("inf")]}, "od_values[1]"),
        ({"scenario": "fig3", "od_values": [2.0, -1.0]}, "od_values[1]"),
        ({"scenario": "fig2", "output": {"trace_atoms": [1, True]}}, "output.trace_atoms[1]"),
        ({"scenario": "fig2", "output": {"trace_atoms": ["100"]}}, "output.trace_atoms[0]"),
        ({"scenario": "fig2", "output": {"trace_atoms": [1, float("nan")]}},
         "output.trace_atoms[1]"),
        ({"scenario": "fig2", "output": {"trace_atoms": [0]}}, "output.trace_atoms[0]"),
        ({"scenario": "fig2", "detuning": float("nan")}, "detuning"),
        # every output is linear in the photon number: zero photons leaves nothing to fit
        ({"scenario": "fig3", "pulse": {"photon_number": 0.0}}, "pulse.photon_number"),
        ({"scenario": "s1", "disorder": {"seed": 2 ** 64}}, "disorder.seed"),
        ({"scenario": "fig2", "n_atoms": 2 ** 64, "od": None}, "n_atoms"),
    ])
    def test_bad_number_named_with_index(self, raw, field):
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict(raw)
        assert excinfo.value.field == field

    @pytest.mark.parametrize("raw, field", [
        ({"scenario": "fig2", "pulse": 5}, "pulse"),
        ({"scenario": "fig2", "output": None}, "output"),
        ({"scenario": "fig4", "grid": [1024.0, 2 ** 14]}, "grid"),
        ({"scenario": "s1", "disorder": "seed"}, "disorder"),
    ])
    def test_non_object_section_named(self, raw, field):
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict(raw)
        assert excinfo.value.field == field

    @pytest.mark.parametrize("raw, field", [
        ({"scenario": "fig3", "od_values": None}, "od_values"),
        ({"scenario": "fig4", "detunings": None}, "detunings"),
        ({"scenario": "custom", "detuning": None}, "detuning"),
        ({"scenario": "s1", "od": None}, "od"),  # neither od nor n_atoms
    ])
    def test_required_field_named(self, raw, field):
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict(raw)
        assert excinfo.value.field == field

    @pytest.mark.parametrize("raw, field", [
        # every one is read by some other scenario; a manifest written before
        # scenarios recorded only the keys they read (fig3's "od": null) is one
        ({"scenario": "fig2", "detunings": [1.0], "od_values": [3.0], "cavity": {"t_c": 0.5},
          "disorder": {"seed": 7}, "threads": 4}, "detunings"),
        ({"scenario": "fig2", "disorder": {"seed": 7}}, "disorder.seed"),
        ({"scenario": "fig2", "cavity": {"t_c": 1.5}}, "cavity.t_c"),
        ({"scenario": "fig2", "fit": {"window_ns": 20.0}}, "fit.window_ns"),
        ({"scenario": "fig3", "od": None}, "od"),
        ({"scenario": "fig3", "disorder": {"n_configs": 10}}, "disorder.n_configs"),
        ({"scenario": "fig3", "cavity": {"roundtrips": 3}}, "cavity.roundtrips"),
        ({"scenario": "fig3", "output": {"time_stride": 4}}, "output.time_stride"),
        ({"scenario": "fig4", "detuning": 1.0}, "detuning"),
        ({"scenario": "fig4", "cavity": {"phi0": 0.1}}, "cavity.phi0"),
        ({"scenario": "fig4", "fit": {"od_threshold": 10.0}}, "fit.od_threshold"),
        ({"scenario": "fig4", "output": {"time_stride": 2}}, "output.time_stride"),
        ({"scenario": "fig5", "threads": 2}, "threads"),
        ({"scenario": "fig5", "disorder": {"seed": 3}}, "disorder.seed"),
        ({"scenario": "fig5", "fit": {"window_short_ns": 10.0}}, "fit.window_short_ns"),
        ({"scenario": "fig5", "output": {"trace_atoms": [1]}}, "output.trace_atoms"),
        ({"scenario": "s1", "od_values": [2.0]}, "od_values"),
        ({"scenario": "s1", "cavity": {"t_rt": 0.5}}, "cavity.t_rt"),
        ({"scenario": "s1", "fit": {"settle_ns": 2.0}}, "fit.settle_ns"),
        ({"scenario": "s1", "output": {"trace_atoms": [1]}}, "output.trace_atoms"),
        ({"scenario": "custom", "detunings": [0.5]}, "detunings"),
        ({"scenario": "custom", "disorder": {"seed": 5}}, "disorder.seed"),
        ({"scenario": "custom", "cavity": {"roundtrip_ns": 100.0}}, "cavity.roundtrip_ns"),
        ({"scenario": "custom", "fit": {"od_threshold": 5.0}}, "fit.od_threshold"),
        ({"scenario": "custom", "output": {"trace_atoms": [1]}}, "output.trace_atoms"),
    ])
    def test_key_the_scenario_does_not_read_named(self, raw, field):
        with pytest.raises(ConfigError, match="not read by") as excinfo:
            config_from_dict(raw)
        assert excinfo.value.field == field

    def test_each_scenario_accepts_and_records_only_what_it_reads(self):
        read = {s: {f.metadata["path"] for f in fields(ScenarioConfig)
                    if s in f.metadata["readers"] and f.name != "scenario"} for s in SCENARIOS}
        counts = {s: len(paths) for s, paths in read.items()}
        assert counts == {"fig2": 14, "fig3": 15, "fig4": 18, "fig5": 19, "s1": 16, "custom": 13}

        def paths(nested, prefix=""):
            return {p for k, v in nested.items() for p in (
                paths(v, f"{prefix}{k}.") if isinstance(v, dict) else {prefix + k})}

        for scenario in SCENARIOS:
            config = config_from_dict({"scenario": scenario})
            assert paths(scenario_defaults(scenario)) == read[scenario] | {"scenario"}
            assert paths(config_to_dict(config)) == read[scenario] | {"scenario"}
            unread = [f.name for f in fields(config) if scenario not in f.metadata["readers"]]
            assert all(getattr(config, name) is None for name in unread)

    @pytest.mark.parametrize("raw, needed", [
        ({"scenario": "fig5", "grid": {"points": 2 ** 15}}, 2 ** 16),
        ({"scenario": "fig5", "cavity": {"roundtrips": 13}}, 2 ** 17),
        ({"scenario": "fig5", "pulse": {"start_ns": 1400.0}}, 2 ** 17),
    ])
    def test_fig5_grid_must_hold_the_ring_window(self, raw, needed):
        # fig5 reads start + (roundtrips + 1) roundtrips of the grid; a shorter
        # grid is named, not cropped or wrapped around
        with pytest.raises(ConfigError, match=f"needs >= {needed} points") as excinfo:
            config_from_dict(raw)
        assert excinfo.value.field == "grid.points"

    def test_default_configs_pinned(self):
        # recorded from the built-in defaults: a renamed key, a changed
        # default or an int turned float changes the manifest and shows here
        expected = json.loads((Path(__file__).parent / "default_configs.json").read_text())
        assert sorted(expected) == sorted(SCENARIOS)
        for scenario in SCENARIOS:
            actual = config_to_dict(config_from_dict({"scenario": scenario}))
            assert json.dumps(actual, sort_keys=True) == json.dumps(expected[scenario],
                                                                    sort_keys=True)

    def test_round_trip(self):
        for scenario in ("fig2", "fig3", "fig4", "fig5", "s1", "custom"):
            config = config_from_dict(scenario_defaults(scenario))
            assert config_from_dict(json.loads(json.dumps(config_to_dict(config)))) == config

    def test_every_scenario_has_defaults(self):
        for scenario in ("fig2", "fig3", "fig4", "fig5", "s1", "custom"):
            config = config_from_dict({"scenario": scenario})
            assert config.scenario == scenario


# each scenario at a tiny size: its overrides of tiny_custom and the file stems it writes
TINY_RUNS = {
    "fig2": ({}, {"transmitted_power", "atom_traces", "atom_colormap"}),
    "fig3": ({"drop": ("od",), "od_values": [2.0, 5.0]}, {"decay_rate_vs_od"}),
    "fig4": ({"drop": ("detuning",), "detunings": [0.5], "disorder": {"n_configs": 2}},
             {"decay_rate_vs_detuning"}),
    "fig5": ({"cavity": {"roundtrips": 2}},
             {"cavity_trace", "roundtrip_rates", "roundtrip_comparison"}),
    "s1": ({"disorder": {"n_configs": 4}}, {"uni_vs_bi"}),
    "custom": ({}, {"transmitted_power"}),
}


class TestRunScenario:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_outputs_and_manifest(self, tmp_path, scenario):
        extra, stems = TINY_RUNS[scenario]
        # the files returned, the CSVs on disk and the manifest list agree
        config = config_from_dict(tiny_custom(tmp_path / "run", scenario=scenario, **extra))
        files = run_scenario(config)
        assert set(files) == stems | {"manifest"}
        csvs = {f"{stem}.csv" for stem in stems}
        assert {path.name for name, path in files.items() if name != "manifest"} == csvs
        assert {p.name for p in (tmp_path / "run").glob("*.csv")} == csvs
        manifest = json.loads(files["manifest"].read_text())
        assert manifest["files"] == sorted(csvs)
        assert "code_version" in manifest
        # the manifest alone reproduces the run
        assert config_from_dict(manifest["config"]) == config

    def test_fig5_runs_the_longest_ring_window_its_grid_holds(self, tmp_path):
        # 12 roundtrips end at 94.5 (1/Gamma0), inside the default 2^16 grid's
        # 100.5; 13 are rejected (test_fig5_grid_must_hold_the_ring_window)
        files = run_scenario(config_from_dict({"scenario": "fig5", "cavity": {"roundtrips": 12},
                                               "output": {"directory": str(tmp_path)}}))
        rates = np.genfromtxt(files["roundtrip_rates"], delimiter=",", skip_header=2)
        assert rates.shape == (12, 5)
        assert np.all(np.isfinite(rates) & (rates > 0))

    def test_rerun_bitwise_identical(self, tmp_path):
        config_a = config_from_dict(tiny_custom(tmp_path / "a"))
        config_b = config_from_dict(tiny_custom(tmp_path / "b"))
        files_a = run_scenario(config_a)
        files_b = run_scenario(config_b)
        a = files_a["transmitted_power"].read_bytes()
        b = files_b["transmitted_power"].read_bytes()
        assert a == b

    def test_csv_layout(self, tmp_path):
        config = config_from_dict(tiny_custom(tmp_path / "csv"))
        files = run_scenario(config)
        lines = files["transmitted_power"].read_text().splitlines()
        assert lines[0] == "# scenario: custom"
        header = lines[1].split(",")
        assert header[0] == "time_ns"
        data = np.genfromtxt(files["transmitted_power"], delimiter=",", skip_header=2)
        assert data.shape[1] == len(header)
        assert np.all(np.isfinite(data))

    def test_write_csv_prints_every_value_by_its_repr(self, tmp_path):
        # repeated values share one repr; 0.0 and -0.0 compare equal but print differently
        x = np.array([0.0, -0.0, 0.0, 0.1 + 0.2, np.nan, np.inf, -np.inf, 5e-324, -0.0])
        k = np.array([3, 1, 3, 3, 0, 1, 2, 2, 1])
        path = scenarios.write_csv(tmp_path / "t.csv", "custom", [("x", "", x), ("k", "ns", k)])
        rows = [f"{float(a)!r},{float(b)!r}" for a, b in zip(x, k)]
        assert path.read_text() == "\n".join(["# scenario: custom", "x,k_ns", *rows]) + "\n"
        empty = scenarios.write_csv(tmp_path / "e.csv", "custom", [("x", "", [])])
        assert empty.read_text() == "# scenario: custom\nx\n"

        # rows go out in blocks: 0.0 and -0.0 meet at each block boundary, and
        # the last block holds three rows
        block = scenarios._CSV_BLOCK_ROWS
        x = np.random.default_rng(3).choice([0.1, 2.5e-7, -1e300, 1 / 3], 2 * block + 3)
        x[[block - 1, block, 2 * block - 1, 2 * block]] = [0.0, -0.0, -0.0, 0.0]
        x[[1, block + 1, -1]] = [np.nan, np.inf, -np.inf]
        k = np.arange(x.size) % 7 - 3
        path = scenarios.write_csv(tmp_path / "b.csv", "custom", [("x", "", x), ("k", "", k)])
        rows = [f"{float(a)!r},{float(b)!r}" for a, b in zip(x, k)]
        assert path.read_text() == "\n".join(["# scenario: custom", "x,k", *rows]) + "\n"

    def test_write_csv_without_columns_raises_a_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="at least one column"):
            scenarios.write_csv(tmp_path / "t.csv", "custom", [])
        assert list(tmp_path.iterdir()) == []

    def test_write_csv_memory_does_not_grow_with_the_table(self, tmp_path):
        # formatted whole, this table's text takes about 17 MB of traced
        # allocations; one block of 4096 rows takes about 1.7 MB
        rng = np.random.default_rng(4)
        columns = [(name, "", rng.random(50_000)) for name in "abc"]
        tracemalloc.start()
        try:
            scenarios.write_csv(tmp_path / "t.csv", "custom", columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_write_csv_failing_mid_table_keeps_the_old_file(self, tmp_path):
        # the second block holds a value that is no number
        path = tmp_path / "t.csv"
        path.write_text("old\n")
        values = np.array([0.5] * (scenarios._CSV_BLOCK_ROWS + 1) + ["x"], dtype=object)
        with pytest.raises(ValueError, match="could not convert"):
            scenarios.write_csv(path, "custom", [("x", "", values)])
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_fig2_clipped_trace_atoms_one_column_each(self, tmp_path):
        # the default trace atoms 1, 100 and 600 clip to 1, 50 and 50
        raw = tiny_custom(tmp_path / "fig2", scenario="fig2", od=None, n_atoms=50)
        files = run_scenario(config_from_dict(raw))
        header = files["atom_traces"].read_text().splitlines()[1].split(",")
        assert header == ["time_ns", "p_atom_1_probability", "p_atom_50_probability"]

    @pytest.mark.parametrize("time_stride, map_points, trace_points", [
        # the colormap folds onto 4096 / 32 bins and the traces onto 4096 / 4
        pytest.param(8, 128, 1024, id="folded"),
        # 3 does not divide the grid: the colormap is sliced from full transforms
        pytest.param(3, 4096, 4096, id="sliced"),
    ])
    def test_fig2_samples_each_atoms_full_resolution_excitation(
            self, tmp_path, monkeypatch, time_stride, map_points, trace_points):
        config = config_from_dict(tiny_custom(tmp_path, scenario="fig2",
                                              output={"time_stride": time_stride}))
        pulse, ens = scenarios._pulse(config, config.detuning), scenarios._ensemble(config)
        drawn, transforms = [], []
        cascade, ifft = spectra._cascade_amplitudes, np.fft.ifft

        def counted_cascade(*args):
            for q in cascade(*args):
                drawn.append(1)
                yield q

        def counted_ifft(a, *args, **kwargs):
            transforms.append(np.shape(a)[-1])
            return ifft(a, *args, **kwargs)

        monkeypatch.setattr(pulses, "_cascade_amplitudes", counted_cascade)
        monkeypatch.setattr(np.fft, "ifft", counted_ifft)
        files = run_scenario(config)
        monkeypatch.undo()

        # one walk of the cascade: one transform per atom at the colormap's
        # stride, one more per labeled atom, and the propagation and energy solve
        labels = [1, ens.n_atoms]  # the default atoms 1, 100 and 600, clipped
        assert len(drawn) <= ens.n_atoms
        assert Counter(transforms) == Counter({pulse.t.size: 2}) + Counter(
            {map_points: ens.n_atoms}) + Counter({trace_points: len(labels)})

        # p_n(t) at every grid sample, from the cascade amplitudes of spectra
        phi = excitation_amplitudes(pulse.carrier_detuning + pulse.omega, ens)
        p = np.abs(np.fft.ifft(pulse.spectrum * phi, axis=1)) ** 2
        before_tail = int(np.count_nonzero(pulse.t < pulse.switch_off + scenarios._TAIL))
        t_ns = scenarios._ns_column(config, pulse.t)
        trace_stride = max(1, time_stride // 2)

        cm_idx = np.arange(0, before_tail, time_stride * trace_stride)
        atom, time, excited = np.genfromtxt(files["atom_colormap"], delimiter=",",
                                            skip_header=2).T
        assert np.array_equal(atom, np.repeat(np.arange(1, ens.n_atoms + 1), cm_idx.size))
        assert np.array_equal(time, np.tile(t_ns[cm_idx], ens.n_atoms))
        expected = p[:, cm_idx].ravel()
        assert np.max(np.abs(excited - expected)) <= 1e-14 * np.max(excited)

        tr_idx = np.arange(0, before_tail, trace_stride)
        header = files["atom_traces"].read_text().splitlines()[1].split(",")
        assert header == ["time_ns"] + [f"p_atom_{a}_probability" for a in labels]
        traces = np.genfromtxt(files["atom_traces"], delimiter=",", skip_header=2).T
        assert np.array_equal(traces[0], t_ns[tr_idx])
        for label, trace in zip(labels, traces[1:]):
            expected = p[label - 1, tr_idx]
            assert np.max(np.abs(trace - expected)) <= 1e-14 * np.max(trace)

    @pytest.mark.parametrize("scenario, extra, cascades", [
        pytest.param("fig2", {}, 1, id="fig2"),
        pytest.param("fig3", {"drop": ("od",), "od_values": [1.0, 1.5, 2.0]}, 3, id="fig3"),
    ])
    def test_each_cascade_propagated_once(self, tmp_path, monkeypatch, scenario, extra,
                                          cascades):
        # the transmitted power comes from atom_dynamics, not from a second propagation
        calls = []
        propagate = pulses._propagate

        def counted(*args):
            calls.append(args[0].t.size)
            return propagate(*args)

        for module in (fitting, pulses):
            monkeypatch.setattr(module, "_propagate", counted)
        run_scenario(config_from_dict(tiny_custom(tmp_path, scenario=scenario, **extra)))
        assert len(calls) == cascades

    @pytest.mark.parametrize("scenario, extra", [
        ("fig4", {"drop": ("detuning",), "detunings": [0.5, 3.0], "disorder": {"n_configs": 2}}),
        ("fig5", {"cavity": {"roundtrips": 2}}),
    ])
    def test_n_atoms_sizes_like_its_resonant_od(self, tmp_path, scenario, extra):
        # n_atoms in place of od gives the CSVs of the resonant OD of that many atoms
        by_atoms = run_scenario(config_from_dict(
            tiny_custom(tmp_path / "n", scenario=scenario, od=None, n_atoms=40, **extra)))
        by_od = run_scenario(config_from_dict(
            tiny_custom(tmp_path / "od", scenario=scenario, od=resonant_od(40, 0.55e-2), **extra)))
        assert sorted(by_atoms) == sorted(by_od)
        for name, path in by_atoms.items():
            if name != "manifest":
                assert path.read_bytes() == by_od[name].read_bytes()

    @pytest.mark.parametrize("scenario, extra", [
        ("fig3", {"od_values": [2.0, 5.0], "grid": {"points": 2 ** 14}}),
        ("fig4", {"detunings": [0.5], "disorder": {"n_configs": 2}}),
    ])
    def test_sweeps_honour_pulse_start(self, tmp_path, scenario, extra):
        # the rates of a pulse started at 60 ns, not at the default start
        config = config_from_dict({"scenario": scenario, "pulse": {"start_ns": 60.0},
                                   "output": {"directory": str(tmp_path)}, **extra})
        files = run_scenario(config)
        ns = lambda x: Units(config.gamma0_hz).time_from_si(x * 1e-9)
        pulse = synthesize_pulse(time_grid(config.span, config.grid_points),
                                 ns(config.duration_ns), ns(config.rise_fall_ns),
                                 carrier_detuning=config.detuning or 0.0,
                                 photon_number=config.photon_number, start=ns(60.0))
        if scenario == "fig3":
            points = collective_decay_vs_od(pulse, config.od_values, config.beta, ns(30.0),
                                            ns(15.0), config.fit_od_threshold, ns(1.0))
            expected = {"pulse_decay_rate_gamma0": [p.pulse_fit.rate for p in points],
                        "gamma_coll_gamma0": [p.gamma_coll for p in points]}
            csv = files["decay_rate_vs_od"]
        else:
            sweep = backward_decay_sweep(pulse, od_to_atom_number(config.od, config.beta),
                                         config.detunings, config.beta, config.n_configs,
                                         config.seed, ns(15.0), ns(30.0), ns(1.0))
            expected = {"forward_rate_gamma0": [r.forward.rate for r in sweep],
                        "backward_rate_gamma0": [r.backward.rate for r in sweep]}
            csv = files["decay_rate_vs_detuning"]
        written = np.genfromtxt(csv, delimiter=",", skip_header=1, names=True)
        for name, rates in expected.items():
            assert np.atleast_1d(written[name]).tolist() == rates  # repr floats: exact

    def test_s1_small_run(self, tmp_path):
        raw = {
            "scenario": "s1",
            "od": 2.0,
            "detuning": 3.0,
            "pulse": {"duration_ns": 90.0, "rise_fall_ns": 4.0},
            "grid": {"span": 256.0, "points": 4096},
            "disorder": {"seed": 3, "n_configs": 4},
            "output": {"directory": str(tmp_path / "s1")},
        }
        files = run_scenario(config_from_dict(raw))
        data = np.genfromtxt(files["uni_vs_bi"], delimiter=",", skip_header=2)
        peak = data[:, 1].max()
        assert np.max(np.abs(data[:, 1] - data[:, 2])) < 0.05 * peak


# Run in a fresh process: the pytest process already holds scipy (tests/oracles.py).
_IMPORT_PROBE = """
import json, sys
import waveqed
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
from test_scenarios import TINY_RUNS, tiny_custom
configs = [waveqed.config_from_dict(tiny_custom(f"{sys.argv[1]}/{scenario}",
                                                scenario=scenario, **extra))
           for scenario, (extra, _) in TINY_RUNS.items()]
before = set(sys.modules)
for config in configs:
    waveqed.run_scenario(config)
print(json.dumps({"scipy": scipy, "run": sorted(set(sys.modules) - before)}))
"""


def test_import_loads_no_scipy_and_runs_import_nothing(tmp_path):
    # scipy.signal costs about 1 s of start-up; a module that a run loads lazily
    # lands inside the run's time instead of the import's
    tests = Path(__file__).resolve().parent
    paths = [str(tests.parent / "src"), str(tests)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded == {"scipy": [], "run": []}


class TestCli:
    def test_run_with_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_custom(tmp_path / "cli_run")))
        assert main(["run", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "manifest" in out
        assert (tmp_path / "cli_run" / "manifest.json").exists()

    def test_run_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_custom(tmp_path / "ignored", scenario="s1",
                                               disorder={"n_configs": 2})))
        out_dir = tmp_path / "override"
        assert main(["run", "--config", str(path), "--out", str(out_dir),
                     "--seed", "9", "--threads", "2"]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["disorder"]["seed"] == 9
        assert manifest["config"]["threads"] == 2

    @pytest.mark.parametrize("flags, field", [
        (["--seed", "5"], "disorder.seed"),
        (["--threads", "3"], "threads"),
    ])
    def test_disorder_flags_rejected_where_unread(self, tmp_path, capsys, flags, field):
        # custom has no disorder average: the flag is named, not ignored
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_custom(tmp_path / "out")))
        assert main(["run", "--config", str(path), *flags]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"]["type"] == "ConfigError"
        assert payload["error"]["field"] == field
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_seed_beyond_64_bits_named(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_custom(tmp_path / "out", scenario="s1",
                                               disorder={"seed": 2 ** 64, "n_configs": 2})))
        assert main(["run", "--config", str(path)]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"]["type"] == "ConfigError"
        assert payload["error"]["field"] == "disorder.seed"

    def test_structured_error_on_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scenario": "fig2", "betta": 1}))
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["error"]["type"] == "ConfigError"
        assert "betta" in payload["error"]["field"]

    @pytest.mark.parametrize("raw, field", [
        ({"scenario": "custom", "od": 0.0}, "od"),
        ({"scenario": "custom", "od": 0.01}, "od"),  # rounds to 0 atoms at beta = 0.55%
        ({"scenario": "fig3", "od_values": [0.0, 2.0]}, "od_values[0]"),
    ])
    def test_od_sizing_zero_atoms_named(self, tmp_path, capsys, raw, field):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"]["type"] == "ConfigError"
        assert payload["error"]["field"] == field

    @pytest.mark.parametrize("overrides, flags, field", [
        ({"pulse": 5}, [], "pulse"),
        ({"output": None}, ["--out", "elsewhere"], "output.directory"),
    ])
    def test_structured_error_on_non_object_section(self, tmp_path, capsys,
                                                    overrides, flags, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scenario": "fig2", **overrides}))
        assert main(["run", "--config", str(path), *flags]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == {"type": "ConfigError", "field": field,
                                    "message": payload["error"]["message"]}

    def test_sweep_writes_per_value_dirs(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_custom(tmp_path / "sweep")))
        assert main(["sweep", "--config", str(path), "--param", "detuning",
                     "--values", "0.5,2.0"]) == 0
        assert (tmp_path / "sweep" / "detuning=0.5" / "manifest.json").exists()
        assert (tmp_path / "sweep" / "detuning=2.0" / "manifest.json").exists()
        m = json.loads((tmp_path / "sweep" / "detuning=2.0" / "manifest.json").read_text())
        assert m["config"]["detuning"] == 2.0

    def test_sweep_rejects_value_leaving_its_directory(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_custom(tmp_path / "base")))
        assert main(["sweep", "--config", str(path), "--param", "output.directory",
                     "--values", "ok,a/../../../x"]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"]["type"] == "ConfigError"
        assert payload["error"]["field"] == "output.directory"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]  # nothing ran

    def test_sweep_rejects_a_key_the_scenario_does_not_read(self, tmp_path, capsys):
        assert main(["sweep", "--scenario", "fig2", "--out", str(tmp_path / "sweep"),
                     "--param", "disorder.seed", "--values", "1,2"]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"]["type"] == "ConfigError"
        assert payload["error"]["field"] == "disorder.seed"
        assert list(tmp_path.iterdir()) == []  # nothing ran

    @pytest.mark.parametrize("second_passes, code, tail", [
        (False, 1, ["FAIL second: off by one", "1/2 checks passed"]),
        (True, 0, ["PASS second: off by one", "2/2 checks passed"]),
    ])
    def test_check_reports_every_check(self, monkeypatch, capsys, second_passes, code, tail):
        checks = (lambda: selfcheck.CheckResult("first", True, "ok"),
                  lambda: selfcheck.CheckResult("second", second_passes, "off by one"))
        monkeypatch.setattr(selfcheck, "ALL_CHECKS", checks)
        assert main(["check"]) == code
        assert capsys.readouterr().out.splitlines() == ["PASS first: ok"] + tail
