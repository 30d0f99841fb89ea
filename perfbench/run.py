#!/usr/bin/env python3
"""waveqed benchmark: run named workloads and print their metrics.

    python3 perfbench/run.py --workload od_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                 # every workload of BENCHMARK.json in turn
    python3 perfbench/run.py --smoke         # every workload and traced run, tiny sizes

Run from the root of a source checkout: the benchmark imports waveqed
from ``src/`` and fails without it.  A run is a closed loop of
operations, one at a time, each in a fresh process (``worker.py``) with
BLAS/OpenMP pools pinned to one thread, as a command-line user runs a
scenario.  Scenario outputs go to a scratch directory under
``.perfbench_out/``, which also keeps one record per run (and the spans of
a traced run).  The last line of standard output is the result as JSON.
A worker that crashes, or is still running ``RUN_SLACK`` seconds after
``--seconds`` have passed, counts as a failed operation.  ``config_average``
is not declared in BENCHMARK.json and runs only by name or in ``--smoke``.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 9         # set-up is the median of at least this many fresh processes
MAX_OPS = 50
RUN_SLACK = 150.0         # seconds a run may take beyond --seconds before its worker is killed
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared_metrics():
    """{0: end-to-end units, 1: per-layer units} by name, from BENCHMARK.json."""
    bench = _declared()
    return {trace: {m["name"]: m["unit"] for m in bench[key]}
            for trace, key in ((0, "end_to_end"), (1, "per_layer"))}


def _cache_size(level):
    """Bytes of the level-``level`` cache of CPU 0 as the kernel reports it."""
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            if int((index / "level").read_text()) == level:
                text = (index / "size").read_text().strip()
                return int(text[:-1]) * 1024 if text.endswith("K") else int(text)
        except (OSError, ValueError):
            continue
    return None


def provenance(seed, threads):
    sha = None  # a plain source tree; src_sha256 still identifies the code
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "waveqed").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "seed": seed,
            "nproc": os.cpu_count(), "workload_threads": threads,
            "l2_bytes": _cache_size(2), "l3_bytes": _cache_size(3)}


def _child(args, deadline):
    """Result of one worker process; a crash or a timeout is a failed operation."""
    env = dict(os.environ)
    env.update({k: "1" for k in PINNED})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    command = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"failures": [f"worker killed at the run's deadline: {' '.join(args)}"]}
    try:
        if proc.returncode == 0:
            return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        pass
    return {"failures": [f"worker exited with {proc.returncode} without a result:\n"
                         f"{proc.stderr[-4000:]}"]}


def _operations(common, seconds, trace, deadline):
    """Closed loop of operations, each in a fresh process, for ``seconds``.

    Stops before an operation that would end after ``seconds``, but runs at
    least one untraced operation and, when tracing, one traced one; traced
    operations alternate with untraced ones.  Stops at the first failure.
    """
    ops, durations = [], []
    end = time.monotonic() + seconds
    while True:
        traced = trace and len(ops) % 2 == 1
        started = time.monotonic()
        op = _child(common + ["--trace", str(int(traced))] + ([] if ops else ["--check"]),
                    deadline)
        durations.append(time.monotonic() - started)
        op["traced"] = traced
        if ops and op.get("digest") != ops[0].get("digest") and not op["failures"]:
            op["failures"] = [f"operation {len(ops) + 1} wrote different files than operation 1"]
        ops.append(op)
        done = any(not o["traced"] for o in ops) and (not trace or any(o["traced"] for o in ops))
        if op["failures"] or len(ops) >= MAX_OPS or (
                done and time.monotonic() + statistics.median(durations) > end):
            return ops


def _sample_setups(common, count, setups, ops, deadline):
    """Top ``setups`` up to ``count`` from set-up-only processes; a failure joins ``ops``."""
    while len(setups) < count and not (ops and ops[-1]["failures"]):
        sample = _child(common + ["--setup-only"], deadline)
        if sample.get("failures"):
            ops.append({**sample, "traced": False})
        else:
            setups.append(sample["setup"])


def run_workload(name, seed, seconds, trace, smoke=False):
    """One run of one workload; returns (result line, full record)."""
    deadline = time.monotonic() + seconds + RUN_SLACK
    threads = min(2, os.cpu_count() or 1)
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    common = ["--workload", name, "--seed", str(seed), "--threads", str(threads),
              "--out", str(scratch)] + (["--smoke"] if smoke else [])
    needed = 1 if smoke else SETUP_SAMPLES
    try:
        # set-up speed drifts with the host over seconds, so half of the
        # set-up-only samples precede the operations and the rest follow
        ops, setups = [], []
        _sample_setups(common, needed // 2, setups, ops, deadline)
        if not ops:
            ops = _operations(common, seconds, trace, deadline)
            setups += [op["setup"] for op in ops if "setup" in op]
            _sample_setups(common, needed, setups, ops, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    plain = [op for op in ops if not op["traced"] and "wall_s" in op]
    traced = [op for op in ops if op["traced"] and "layers" in op]
    failed = sum(1 for op in ops if op["failures"])
    units = declared_metrics()[trace]
    if trace:
        values = {key: statistics.median(op["layers"][key] for op in traced)
                  for key in (traced[0]["layers"] if traced else ())}
        if traced and plain:
            values["trace.overhead_frac"] = (statistics.median(op["wall_s"] for op in traced)
                                             / statistics.median(op["wall_s"] for op in plain) - 1)
        if setups:
            values["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
            values["setup.config_s"] = statistics.median(s["config_s"] for s in setups)
    else:
        wall = statistics.median(op["wall_s"] for op in plain) if plain else None
        values = {
            "wall_s": wall,
            "cpu_s": statistics.median(op["cpu_s"] for op in plain) if plain else None,
            "setup_s": statistics.median(s["import_s"] + s["config_s"] for s in setups)
            if setups else None,
            "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in plain) if plain else None,
            "work_per_s": ops[0]["work"] / wall if wall else None,
        }
    metrics = {key: {"value": value, "unit": units[key]}
               for key, value in values.items() if value is not None}
    line = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}

    record = {"workload": name, "trace": trace, "smoke": smoke, "seconds": seconds,
              "provenance": {**provenance(seed, threads), "versions": ops[0].get("versions"),
                             "threads_env": ops[0].get("threads_env")},
              "result": line, "error_rate": failed / len(ops),
              "walls": [op.get("wall_s") for op in plain], "cpus": [op.get("cpu_s") for op in plain],
              "setups": setups, "work_per_op": ops[0].get("work"), "summary": ops[0].get("summary"),
              "failures": [f for op in ops for f in op["failures"]],
              "absent": traced[0]["absent"] if traced else None}
    stem = f"{name}-seed{seed}" + ("-smoke" if smoke else "") + ("-trace" if trace else "")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if traced:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            for number, op in enumerate(traced):
                for span in op["spans"]:
                    handle.write(json.dumps({"operation": number, **span}) + "\n")
    return line, record


def describe(name, line, record):
    print(f"# {name}: seed {record['provenance']['seed']}, "
          f"{len(record['walls'])} untraced operation(s), work unit: "
          f"{WORKLOADS[name].work_unit}")
    for key, metric in line["metrics"].items():
        print(f"  {key:42s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'error_rate':42s} {record['error_rate']:.6g} "
          f"({line['failed']} of {line['attempted']} operations failed)")
    for failure in record["failures"]:
        print("  FAILED: " + failure.strip().replace("\n", "\n    "))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "waveqed" / "__init__.py").is_file():
        print(f"waveqed sources not found under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    bench = _declared()
    names = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    lines = {}
    for name in names:
        line, record = run_workload(name, args.seed, seconds, args.trace)
        describe(name, line, record)
        lines[name] = line
    print(json.dumps(lines[names[0]] if args.workload else lines))
    return 0


def smoke():
    """Every workload untraced and traced at tiny size; all metrics, all checks."""
    expected = declared_metrics()
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            line, record = run_workload(name, 1, 0, trace, smoke=True)
            describe(name, line, record)
            if set(expected[trace]) != set(line["metrics"]):
                problems.append(f"{name} trace={trace}: metrics {sorted(line['metrics'])} "
                                f"are not those declared: {sorted(expected[trace])}")
            if not line["correct"]:
                problems.append(f"{name} trace={trace}: checks failed")
    for problem in problems:
        print("SMOKE: " + problem)
    print(json.dumps({"smoke_ok": not problems}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
