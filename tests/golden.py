"""Pinned scenario outputs: record them, check a run against them, compare two runs.

    PYTHONPATH=src python tests/golden.py record         # rewrite golden_outputs.json
    PYTHONPATH=src python tests/golden.py compare A B    # column drift from directory A to B

golden_outputs.json holds, per scenario at its defaults (s1 at GOLDEN_OVERRIDES),
each CSV's sha256 and row count and, per column, the sha256 of its float64
values and its maximum |value|, plus the numpy version that wrote them.  A
change that moves outputs on purpose re-records the file and lists the
``compare`` table of the moved files with it.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from waveqed.scenarios import SCENARIOS, config_from_dict, run_scenario

GOLDEN = Path(__file__).with_name("golden_outputs.json")
# s1 averages 1000 configurations by default; 100 keep the pinned run short
GOLDEN_OVERRIDES = {"s1": {"disorder": {"n_configs": 100}}}


def run_defaults(scenario, directory) -> Path:
    """Run a scenario at its golden settings, writing into directory."""
    raw = {"scenario": scenario, "output": {"directory": str(directory)},
           **GOLDEN_OVERRIDES.get(scenario, {})}
    run_scenario(config_from_dict(raw))
    return Path(directory)


def read_columns(path) -> dict:
    """{column name: float64 values} of a scenario CSV (its first line is a comment)."""
    path = Path(path)
    with path.open(encoding="utf-8") as handle:
        handle.readline()
        names = handle.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(names)}


def summarize(directory) -> dict:
    """Per CSV of directory: sha256, row count, and per-column sha256 and max |value|."""
    summary = {}
    for path in sorted(Path(directory).glob("*.csv")):
        columns = read_columns(path)
        summary[path.name] = {
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "rows": int(next(iter(columns.values())).size),
            "columns": {name: {"sha256": hashlib.sha256(values.tobytes()).hexdigest(),
                               "max_abs": float(np.max(np.abs(values)))}
                        for name, values in columns.items()},
        }
    return summary


def moved_columns(recorded: dict, actual: dict) -> list[str]:
    """One line per column of one CSV whose values differ from the recorded ones."""
    if recorded["rows"] != actual["rows"]:
        return [f"rows {recorded['rows']} -> {actual['rows']}"]
    lines = []
    for name in sorted(set(recorded["columns"]) | set(actual["columns"])):
        old, new = recorded["columns"].get(name), actual["columns"].get(name)
        if old is None or new is None:
            lines.append(f"{name}: {'added' if old is None else 'removed'}")
        elif old["sha256"] != new["sha256"]:
            change = new["max_abs"] - old["max_abs"]
            lines.append(f"{name}: max |value| {old['max_abs']!r} -> {new['max_abs']!r} "
                         f"({change:+.3g}, {change / max(old['max_abs'], 1e-300):+.3g} relative)")
    return lines


def compare(dir_a, dir_b) -> list[tuple]:
    """(file, column, max |b - a|, that over the column's max |a|, rows changed, rows)
    for every column of the CSVs present in both directories."""
    rows = []
    for path_a in sorted(Path(dir_a).glob("*.csv")):
        path_b = Path(dir_b) / path_a.name
        if not path_b.exists():
            continue
        a, b = read_columns(path_a), read_columns(path_b)
        for name, col_a in a.items():
            col_b = b.get(name)
            if col_b is None or col_b.shape != col_a.shape:
                rows.append((path_a.name, name, None, None, None, col_a.size))
                continue
            diff = np.abs(col_b - col_a)
            scale = float(np.max(np.abs(col_a)))
            max_diff = float(np.max(diff)) if diff.size else 0.0
            rows.append((path_a.name, name, max_diff, max_diff / scale if scale else 0.0,
                         int(np.count_nonzero(diff)), col_a.size))
    return rows


def format_table(rows) -> str:
    lines = ["| file | column | max abs diff | / column max | rows changed |",
             "|---|---|---|---|---|"]
    for file, column, diff, rel, changed, n in rows:
        if diff is None:
            lines.append(f"| {file} | {column} | missing or reshaped | | of {n} |")
        else:
            lines.append(f"| {file} | {column} | {diff:.3g} | {rel:.3g} | {changed} of {n} |")
    return "\n".join(lines)


def record(scenarios=SCENARIOS):
    """Re-run the given scenarios and rewrite their entries of golden_outputs.json."""
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"outputs": {}}
    golden["numpy"] = np.__version__
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in scenarios:
            golden["outputs"][scenario] = summarize(run_defaults(scenario, Path(tmp) / scenario))
    golden["outputs"] = dict(sorted(golden["outputs"].items()))
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


def main(argv):
    if argv[:1] == ["record"]:
        record(argv[1:] or SCENARIOS)
    elif argv[:1] == ["compare"] and len(argv) == 3:
        print(format_table(compare(argv[1], argv[2])))
    else:
        print(__doc__.strip())
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
