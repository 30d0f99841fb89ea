"""Mutation gate: every mutant of src/ must make one of its named tests fail.

    python tests/mutants.py       # from the repository root; prints each survivor

A mutant is (file under src/, exact snippet, replacement, test node ids).
For each one, src/ is copied to a temporary directory, the snippet (which
must occur exactly once) is replaced, and the named tests run with
PYTHONPATH pointing at the copy.  A mutant whose tests all pass survives.
The named tests must pass on an unmutated copy first, or a failure would
prove nothing.  The exit status is 1 if anything survived, else 0.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = (
    ("the running product starts one atom late",
     "src/waveqed/spectra.py",
     "q = (t - 1.0) * (1j / math.sqrt(ensemble.beta))",
     "q = (t - 1.0) * t * (1j / math.sqrt(ensemble.beta))",
     ("tests/test_spectra.py::TestExcitationAmplitudes",
      "tests/test_pulses.py::TestAtomDynamics::test_matches_ode_cascade")),
    ("the weight is dropped",
     "src/waveqed/spectra.py",
     "        q *= weight\n",
     "        pass\n",
     ("tests/test_scenarios.py::TestRunScenario::"
      "test_fig2_samples_each_atoms_full_resolution_excitation",)),
    ("the colormap is folded at the trace stride",
     "src/waveqed/scenarios.py",
     "strided_power(q, map_stride)",
     "strided_power(q, trace_stride)",
     ("tests/test_scenarios.py::TestRunScenario::"
      "test_fig2_samples_each_atoms_full_resolution_excitation",)),
    ("exp(N log t) from N = 50, where numpy still multiplies repeatedly",
     "src/waveqed/spectra.py",
     "_LOG_POWER_MIN = 100",
     "_LOG_POWER_MIN = 50",
     ("tests/test_spectra.py::TestIntegerPower",)),
    ("the integer check lets 2.5 pass",
     "src/waveqed/physics.py",
     "not isinstance(value, (int, np.integer))",
     "not isinstance(value, (int, float, np.integer))",
     ("tests/test_physics.py::test_non_integer_counts_rejected_naming_the_parameter",)),
    ("the flux balance adds the output flux",
     "src/waveqed/pulses.py",
     "flux -= transmitted",
     "flux += transmitted",
     ("tests/test_acceptance.py::test_c8_property_suite[gamma_identity]",)),
    ("atom_spectra drops the carrier",
     "src/waveqed/pulses.py",
     "pulse.carrier_detuning + pulse.omega",
     "pulse.omega",
     ("tests/test_pulses.py::TestAtomDynamics::test_matches_ode_cascade",)),
    ("the folded power is divided by the stride, not its square",
     "src/waveqed/pulses.py",
     "/ stride ** 2",
     "/ stride",
     ("tests/test_pulses.py::TestAtomDynamics::test_strided_traces_match_full_resolution",)),
    ("the CSV reprs are keyed on the value, not its bits, so -0.0 prints as 0.0",
     "src/waveqed/scenarios.py",
     "np.unique(a.astype(float).view(np.int64), return_inverse=True)",
     "np.unique(a.astype(float), return_inverse=True)",
     ("tests/test_scenarios.py::TestRunScenario::test_write_csv_prints_every_value_by_its_repr",)),
    ("each CSV block drops its last row",
     "src/waveqed/scenarios.py",
     "slice(start, start + _CSV_BLOCK_ROWS)",
     "slice(start, start + _CSV_BLOCK_ROWS - 1)",
     ("tests/test_scenarios.py::TestRunScenario::test_write_csv_prints_every_value_by_its_repr",)),
    ("a failed atomic write leaves its temp file",
     "src/waveqed/scenarios.py",
     "            os.unlink(tmp)\n",
     "            pass\n",
     ("tests/test_scenarios.py::TestRunScenario::"
      "test_write_csv_failing_mid_table_keeps_the_old_file",)),
    ("the n_workers check lets 0 workers pass",
     "src/waveqed/physics.py",
     "if least is not None and value < least:",
     "if least is not None and value < least - 1:",
     ("tests/test_physics.py::test_non_positive_counts_rejected_naming_the_parameter",)),
    ("each point's degree read from the bottom of its |z| bin, not the top",
     "src/waveqed/spectra.py",
     "math.ldexp(bound, -k)",
     "math.ldexp(bound, -k - 1)",
     ("tests/test_spectra.py::TestPerPointDegree::"
      "test_each_point_meets_the_tail_criterion_at_its_own_degree",)),
    ("an inclusive prefix sum over the chain, not the exclusive one",
     "src/waveqed/spectra.py",
     "out=prefix[:, 1:]",
     "out=prefix[:, :-1]",
     ("tests/test_spectra.py::TestPerPointDegree::"
      "test_coefficients_within_n_eps_of_the_atom_major_loop",)),
    ("Horner drops the last coefficient",
     "src/waveqed/spectra.py",
     "range(top, -1, -1)",
     "range(top - 1, -1, -1)",
     ("tests/test_spectra.py::TestPolynomialRecursion::test_exact_polynomial_on_short_chains",)),
    ("the truncation degree is D - 10",
     "src/waveqed/spectra.py",
     "            return degree\n",
     "            return degree - 10\n",
     ("tests/test_spectra.py::TestPolynomialRecursion::"
      "test_truncation_degree_is_the_smallest_with_a_tail_below_1e_20",)),
    ("the kernel builds coefficients to D - 10",
     "src/waveqed/spectra.py",
     "_polynomial_coefficients(ensemble.phase, a_max, degree)",
     "_polynomial_coefficients(ensemble.phase, a_max, degree - 10)",
     ("tests/test_spectra.py::TestPerPointDegree::test_matches_full_degree_horner_at_defaults",)),
    ("the bound loses its N term",
     "src/waveqed/spectra.py",
     "(n_atoms + degree)",
     "(degree)",
     ("tests/test_spectra.py::TestPolynomialRecursion::"
      "test_bound_is_the_running_error_of_horner_and_the_recurrence",)),
    ("propagate_pulse matches a medium's window to 10x the tolerance",
     "src/waveqed/pulses.py",
     "tol = 1e-9 * (abs(expected[0])",
     "tol = 1e-8 * (abs(expected[0])",
     ("tests/test_pulses.py::TestPropagate::test_shifted_grid_rejected",)),
    ("propagate_pulse's window in a longer grid starts one point late",
     "src/waveqed/pulses.py",
     "start = round((expected[0] - delta[0])",
     "start = 1 + round((expected[0] - delta[0])",
     ("tests/test_pulses.py::TestPropagate::test_union_grid_window_equals_the_sliced_response",)),
    ("with_envelope lets a NaN energy pass",
     "src/waveqed/pulses.py",
     "    if not energy < math.inf:  # NaN fails too\n"
     "        raise InputError(\"envelope\", f\"envelope energy must be finite, got {energy}\")\n",
     "",
     ("tests/test_pulses.py::TestPropagate::test_nan_response_rejected",)),
    ("TransferSpectrum ** n leaves exp(-inf + NaN j) where the amplitude is 0",
     "src/waveqed/spectra.py",
     "        power[self.amplitude == 0] = 0",
     "        pass",
     ("tests/test_spectra.py::TestIntegerPower::"
      "test_zero_transmission_is_a_quiet_positive_zero",)),
    ("transfer_bidirectional scales an active reflection down instead of rejecting it",
     "src/waveqed/spectra.py",
     "_response(delta, t_prod), _response(delta, s)",
     "_response(delta, t_prod), _response(delta, s / max(1.0, np.abs(s).max()))",
     ("tests/test_spectra.py::TestBidirectional::test_each_response_checked_for_passivity",)),
    ("the homogeneous pair is rescaled after the last atom only, not every 16",
     "src/waveqed/spectra.py",
     "if count % 16 == 0 or n == 0:",
     "if n == 0:",
     ("tests/test_spectra.py::TestHomogeneousRecursion::"
      "test_finite_and_passive_next_to_full_coupling",)),
    ("the homogeneous pair skips T's update in its last block",
     "src/waveqed/spectra.py",
     "            t_prod /= y\n",
     "            t_prod /= y if n else 1.0\n",
     ("tests/test_spectra.py::TestPolynomialRecursion::"
      "test_matches_homogeneous_recursion_at_fig4_size",)),
    ("the ring window ends with the output table, before the last flash fit",
     "src/waveqed/fitting.py",
     "    return max(start + (roundtrips + 1) * tau,\n"
     "               switch_off + roundtrips * tau + settle_delay + FLASH_WINDOW)\n",
     "    return start + (roundtrips + 1) * tau\n",
     ("tests/test_scenarios.py::TestConfigParsing::test_fig5_grid_must_hold_the_ring_window",)),
    ("the screen counts points by |Re den|, not |den|",
     "src/waveqed/spectra.py",
     "degenerate += int(np.count_nonzero(den_mod < RECURSION_EPS))",
     "degenerate += int(np.count_nonzero(np.abs(den.real) < RECURSION_EPS))",
     ("tests/test_spectra.py::TestBidirectional::test_degenerate_denominators_counted",)),
    ("the screen counts one point per atom with any degenerate point",
     "src/waveqed/spectra.py",
     "degenerate += int(np.count_nonzero(den_mod < RECURSION_EPS))",
     "degenerate += 1",
     ("tests/test_spectra.py::TestBidirectional::test_degenerate_denominators_counted",)),
    ("the coupling rule rejects beta = 1/2",
     "src/waveqed/physics.py",
     "0.0 < beta <= 0.5",
     "0.0 < beta < 0.5",
     ("tests/test_physics.py::TestSingleAtom::test_full_coupling_extinction",)),
    ("the field table swaps cavity.t_rt and cavity.t_c",
     "src/waveqed/scenarios.py",
     '"t_rt": "cavity.t_rt", "t_c": "cavity.t_c"',
     '"t_rt": "cavity.t_c", "t_c": "cavity.t_rt"',
     ("tests/test_scenarios.py::TestConfigParsing::test_each_broken_rule_names_its_field",)),
    ("the boxcar mapping is removed: a run's pulse rules raise the InputError unmapped",
     "src/waveqed/scenarios.py",
     "        raise _config_error(exc) from None\n    return pulse\n",
     "        raise\n    return pulse\n",
     ("tests/test_scenarios.py::TestRunScenario::"
      "test_boxcar_breaking_the_aliasing_guard_names_rise_fall",)),
    ("numpy.random is loaded by the first run, not by the import",
     "src/waveqed/disorder.py",
     "import numpy.random  # noqa: F401",
     "import numpy  # noqa: F401",
     ("tests/test_scenarios.py::test_import_loads_no_scipy_and_runs_import_nothing",)),
)


def _copy_src(directory: Path) -> Path:
    shutil.copytree(ROOT / "src", directory / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return directory / "src"


def _run_tests(src: Path, node_ids) -> bool:
    """True if every named test passes against the waveqed in src."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]),
        "PYTHONDONTWRITEBYTECODE": "1"}
    where = subprocess.run([sys.executable, "-c", "import waveqed; print(waveqed.__file__)"],
                           env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    if not Path(where.stdout.strip()).is_relative_to(src):
        raise RuntimeError(f"waveqed imports from {where.stdout.strip()}, not from {src}")
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                             *node_ids], env=env, cwd=ROOT, capture_output=True, text=True)
    return result.returncode == 0


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        node_ids = sorted({node for *_, nodes in MUTANTS for node in nodes})
        if not _run_tests(_copy_src(Path(tmp) / "unmutated"), node_ids):
            print("the named tests fail on unmutated src/; no mutant can be judged")
            return 1
        survivors = []
        for i, (name, file, snippet, replacement, nodes) in enumerate(MUTANTS):
            src = _copy_src(Path(tmp) / str(i))
            path = src.parent / file
            text = path.read_text(encoding="utf-8")
            if text.count(snippet) != 1:
                raise RuntimeError(f"{name}: snippet found {text.count(snippet)} times in {file}")
            path.write_text(text.replace(snippet, replacement), encoding="utf-8")
            killed = not _run_tests(src, nodes)
            print(f"{'killed' if killed else 'SURVIVED'}: {name}")
            if not killed:
                survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    for name in survivors:
        print(f"survivor: {name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
