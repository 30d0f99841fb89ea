"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import waveqed  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, _self_time, layer_metrics  # noqa: E402


def test_self_time_counts_overlapping_children_once():
    parent = {"start": 0.0, "end": 10.0}
    children = [{"start": 1.0, "end": 4.0}, {"start": 3.0, "end": 6.0},
                {"start": 8.0, "end": 12.0}]
    assert _self_time(parent, children) == 3.0


def test_install_wraps_every_binding_and_uninstall_restores():
    original = waveqed.fitting.backward_decay_sweep
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = waveqed.scenarios.backward_decay_sweep
        assert wrapped is not original
        assert waveqed.fitting.backward_decay_sweep is wrapped
        assert waveqed.backward_decay_sweep is wrapped
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    assert waveqed.scenarios.backward_decay_sweep is original
    assert waveqed.backward_decay_sweep is original


def test_pool_threads_report_the_average_as_parent():
    model = waveqed.DisorderModel(n_atoms=3, seed=5)
    tracer = Tracer()
    tracer.install()
    try:
        waveqed.average_observable(model, 40, lambda ens: np.cos(ens.phase), n_workers=2)
    finally:
        tracer.uninstall()
    (average,) = [s for s in tracer.spans if s["name"] == "average_observable"]
    inner = [s for s in tracer.spans if s["name"] in ("observable", "sample_configuration")]
    assert len({s["thread"] for s in inner}) > 1
    assert all(s["parent"] == average["id"] for s in inner)
    table = layer_metrics(tracer.spans, [])
    assert table["disorder.evaluations"] == 41
    assert table["disorder.useful_ratio"] == 40 / 41


def test_degenerate_warnings_are_counted_on_every_call():
    grid = waveqed.detuning_grid(2.0, 8)
    unity = waveqed.TransferSpectrum(grid, np.ones(8, dtype=complex))
    at_threshold = waveqed.CavitySpec(t_rt=1.0, t_c=1.0, tau_rt=math.pi / 2.0, phi0=0.0)
    with Tracer() as tracer:
        for _ in range(3):
            waveqed.transfer_cavity(unity, at_threshold)
    table = layer_metrics(tracer.spans, tracer.warnings)
    assert table["spectra.degenerate_warnings"] == 3
    assert table["spectra.cavity_calls"] == 3


def test_a_crashing_or_late_worker_is_a_failed_operation(tmp_path):
    args = ["--seed", "1", "--threads", "1", "--out", str(tmp_path)]
    crashed = run._child(["--workload", "no_such_workload", "--setup-only"] + args,
                         time.monotonic() + 60)
    assert "exited with 1" in crashed["failures"][0]
    # a full-size fig3 takes many times the shortest timeout a worker gets, one second
    late = run._child(["--workload", "od_sweep"] + args, time.monotonic())
    assert "deadline" in late["failures"][0]


def test_smoke_mode_reports_every_metric_and_passes_checks():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
