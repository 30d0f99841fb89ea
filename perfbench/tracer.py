"""Span tracer that wraps waveqed's public functions from outside the package.

``Tracer.install`` replaces every attribute of a ``waveqed.*`` module that
*is* one of the target functions, so a function moved to another module,
or bound there under another name, is still traced.  A target that no
module binds is reported in ``absent``.  ``numpy.fft.fft``, ``ifft`` and
``rfft`` are wrapped the same way as the kernel under ``pulses``.

A span records its name, layer, start, end, parent and thread.  Parents
follow a per-thread stack.  ``average_observable`` also wraps its
``observable`` argument, so evaluations on pool threads record that call
as their parent, and a span opened on a pool thread outside any
evaluation (configuration sampling) is adopted by the innermost open
``average_observable``.  Used as a context manager, the tracer installs
itself and records the category of every warning raised on any thread,
each one, until exit.  Spans stay in memory; ``layer_metrics`` reduces
them to the per-layer table.
"""

import functools
import inspect
import itertools
import os
import sys
import threading
import time
import types
import warnings

# (layer, function name) of every target.  Layers are the package modules;
# the sweeps count as fitting wherever they live.
TARGETS = (
    ("scenarios", "run_scenario"),
    ("scenarios", "write_csv"),
    ("fitting", "collective_decay_vs_od"),
    ("fitting", "backward_decay_sweep"),
    ("fitting", "fit_pulse_decay"),
    ("fitting", "fit_initial_decay"),
    ("fitting", "residual_spectrum"),
    ("disorder", "average_observable"),
    ("disorder", "sample_configuration"),
    ("spectra", "transfer_unidirectional"),
    ("spectra", "transfer_bidirectional"),
    ("spectra", "transfer_cavity"),
    ("spectra", "excitation_amplitudes"),
    ("pulses", "synthesize_pulse"),
    ("pulses", "propagate_pulse"),
    ("pulses", "atom_dynamics"),
    ("pulses", "collective_rate_at_switchoff"),
)
FFT_FUNCTIONS = ("fft", "ifft", "rfft")
FITS = ("fit_pulse_decay", "fit_initial_decay")
# the recursion's state, s and the running product (complex128), read and
# written once per atom and grid point; computed from array sizes
BIDIRECTIONAL_BYTES_PER_ATOM_POINT = 2 * 2 * 16


def _size_of(bound, grid_arg):
    value = bound.arguments[grid_arg]
    return value.t.size if hasattr(value, "t") else len(value)


# counts a target's span carries, from its bound arguments and result
_ATTRS = {
    "write_csv": lambda b, r: {"bytes": os.path.getsize(r)},
    "transfer_bidirectional": lambda b, r: {
        "atom_points": b.arguments["ensemble"].n_atoms * _size_of(b, "delta")},
    "atom_dynamics": lambda b, r: {
        "atom_points": b.arguments["ensemble"].n_atoms * _size_of(b, "pulse")},
    "propagate_pulse": lambda b, r: {"points": _size_of(b, "pulse")},
    "average_observable": lambda b, r: {
        "requested": int(b.arguments["n_configs"]),
        "workers": int(b.arguments.get("n_workers", 1))},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.warnings = []
        self.absent = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._adopters = []
        self._patches = []

    # ------------------------------------------------------------ spans
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, layer, parent=None):
        stack = self._stack()
        if parent is None:
            parent = stack[-1]["id"] if stack else (self._adopters[-1] if self._adopters else None)
        span = {"id": next(self._ids), "name": name, "layer": layer,
                "parent": parent, "thread": threading.get_ident(),
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack().pop()

    def _wrap(self, fn, name, layer):
        tracer = self
        signature = inspect.signature(fn)
        attrs = _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs) if attrs or name == "average_observable" else None
            span = tracer._open(name, layer)
            try:
                if name == "average_observable":
                    bound.arguments["observable"] = tracer._wrap_observable(
                        bound.arguments["observable"], span["id"])
                    tracer._adopters.append(span["id"])
                    try:
                        result = fn(*bound.args, **bound.kwargs)
                    finally:
                        tracer._adopters.remove(span["id"])
                else:
                    result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if attrs:
                bound.apply_defaults()
                span.update(attrs(bound, result))
            return result

        return traced

    def _wrap_observable(self, observable, parent):
        tracer = self

        @functools.wraps(observable)
        def evaluation(*args, **kwargs):
            span = tracer._open("observable", "observable", parent=parent)
            try:
                return observable(*args, **kwargs)
            finally:
                tracer._close(span)

        return evaluation

    def _wrap_fft(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            span = tracer._open(name, "fft")
            try:
                return fn(a, *args, **kwargs)
            finally:
                tracer._close(span)
                span["points"] = int(getattr(a, "size", None) or len(a))

        return traced

    # ---------------------------------------------------------- install
    def _patch(self, module, attr, value):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self):
        """Wrap every target wherever a loaded waveqed module binds it."""
        import numpy.fft

        self.absent = []
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "waveqed" or key.startswith("waveqed."))]
        for layer, name in TARGETS:
            originals = {id(f): f for m in modules
                         for f in [getattr(m, name, None)]
                         if isinstance(f, types.FunctionType) and f.__module__.startswith("waveqed")}
            if not originals:
                self.absent.append(name)
            for original in originals.values():
                wrapper = self._wrap(original, name, layer)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        for name in FFT_FUNCTIONS:
            original = getattr(numpy.fft, name)
            wrapper = self._wrap_fft(original, name)
            for module in [numpy.fft] + modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def uninstall(self):
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    def __enter__(self):
        """Install, and record every warning raised on any thread until exit."""
        self._recording = warnings.catch_warnings(record=True)
        self._caught = self._recording.__enter__()
        warnings.simplefilter("always")
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        self._recording.__exit__(*exc)
        self.warnings = [w.category.__name__ for w in self._caught]
        return False


# ------------------------------------------------------------- reduction

def _self_time(span, children):
    """Span duration minus the union of its children's intervals."""
    covered, cursor = 0.0, span["start"]
    for child in sorted(children, key=lambda c: c["start"]):
        lo, hi = max(child["start"], cursor), min(child["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span["end"] - span["start"] - covered


def layer_metrics(spans, warning_names):
    """Per-layer table of closed spans and the category names of warnings raised."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def total(name, key=None):
        return sum((s.get(key, 0) if key else dur(s)) for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(layer):
        return sum(_self_time(s, children.get(s["id"], ())) for s in spans if s["layer"] == layer)

    def per_point_ns(name):
        points = total(name, "atom_points")
        return total(name) / points * 1e9 if points else 0.0

    ids = {s["id"]: s for s in spans}
    outer_fits = [s for s in spans if s["name"] in FITS
                  and ids.get(s["parent"], {}).get("name") not in FITS]
    pool = by_name.get("average_observable", ())
    evaluations = calls("observable")
    busy = total("observable")
    capacity = sum(s["workers"] * dur(s) for s in pool)
    roots = by_name.get("run_scenario", ())
    root_wall = sum(dur(s) for s in roots)
    covered = sum(dur(c) for r in roots for c in children.get(r["id"], ()))
    return {
        "scenarios.self_s": self_s("scenarios"),
        "scenarios.write_csv_s": total("write_csv"),
        "scenarios.write_csv_calls": calls("write_csv"),
        "scenarios.csv_bytes": total("write_csv", "bytes"),
        "fitting.self_s": self_s("fitting"),
        "fitting.fit_s": sum(dur(s) for s in outer_fits),
        "fitting.fit_calls": len(outer_fits),
        "disorder.self_s": self_s("disorder"),
        "disorder.sample_s": total("sample_configuration"),
        "disorder.sample_calls": calls("sample_configuration"),
        "disorder.evaluations": evaluations,
        "disorder.useful_ratio": total("average_observable", "requested") / evaluations
        if evaluations else 0.0,
        "disorder.busy_s": busy,
        "disorder.parallel_efficiency": busy / capacity if capacity else 0.0,
        "spectra.bidirectional_s": total("transfer_bidirectional"),
        "spectra.bidirectional_calls": calls("transfer_bidirectional"),
        "spectra.bidirectional_atom_points": total("transfer_bidirectional", "atom_points"),
        "spectra.bidirectional_ns_per_atom_point": per_point_ns("transfer_bidirectional"),
        "spectra.bidirectional_bytes_computed":
            total("transfer_bidirectional", "atom_points") * BIDIRECTIONAL_BYTES_PER_ATOM_POINT,
        "spectra.degenerate_warnings": sum(1 for name in warning_names
                                           if name == "DegenerateDenominatorWarning"),
        "spectra.unidirectional_s": total("transfer_unidirectional"),
        "spectra.unidirectional_calls": calls("transfer_unidirectional"),
        "spectra.cavity_s": total("transfer_cavity"),
        "spectra.cavity_calls": calls("transfer_cavity"),
        "pulses.synthesize_s": total("synthesize_pulse"),
        "pulses.propagate_s": total("propagate_pulse"),
        "pulses.propagate_calls": calls("propagate_pulse"),
        "pulses.propagate_points": total("propagate_pulse", "points"),
        "pulses.atom_dynamics_s": total("atom_dynamics"),
        "pulses.atom_dynamics_calls": calls("atom_dynamics"),
        "pulses.atom_dynamics_atom_points": total("atom_dynamics", "atom_points"),
        "pulses.atom_dynamics_ns_per_atom_point": per_point_ns("atom_dynamics"),
        "fft.calls": sum(calls(n) for n in FFT_FUNCTIONS),
        "fft.points": sum(total(n, "points") for n in FFT_FUNCTIONS),
        "fft.s": sum(total(n) for n in FFT_FUNCTIONS),
        "trace.coverage": covered / root_wall if root_wall else 0.0,
    }
