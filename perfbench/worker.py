"""One operation of a workload in a fresh process; started by run.py.

The process times ``import waveqed`` and ``config_from_dict`` (set-up),
then runs the workload's scenarios once with ``run_scenario`` into the
given directory, as one CLI run would, and times that (the operation).
With ``--check`` it then checks the files; with ``--trace 1`` it traces
the operation and reduces the spans to the per-layer table.  The result
is one JSON line on standard output; with ``--setup-only`` it holds only
the set-up times.
"""

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _digest(directories):
    h = hashlib.sha256()
    for directory in directories:
        for path in sorted(directory.iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import waveqed
    t1 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    raws = workload.scenarios(args.seed, args.smoke, args.threads)
    out = Path(args.out)
    t2 = time.perf_counter()
    configs = {raw["scenario"]: waveqed.config_from_dict(
        {**raw, "output": {"directory": str(out / raw["scenario"])}}) for raw in raws}
    t3 = time.perf_counter()
    result = {"setup": {"import_s": t1 - t0, "config_s": t3 - t2}}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    import numpy
    import scipy
    from tracer import Tracer, layer_metrics

    tracer = Tracer() if args.trace else None
    failures = []
    with tracer or contextlib.nullcontext():
        try:
            w0, c0 = time.perf_counter(), time.process_time()
            for config in configs.values():
                waveqed.run_scenario(config)
            result["wall_s"] = time.perf_counter() - w0
            result["cpu_s"] = time.process_time() - c0
        except Exception:
            failures = [traceback.format_exc(limit=3)]

    if not failures:
        outs = {name: Path(c.out_dir) for name, c in configs.items()}
        result["digest"] = _digest(outs.values())
        if args.check:
            try:
                failures, result["summary"] = workload.check(outs, configs, args.seed, args.smoke)
            except Exception:  # unreadable or malformed outputs fail the operation
                failures = [traceback.format_exc(limit=3)]
        if tracer:
            result["layers"] = layer_metrics(tracer.spans, tracer.warnings)
            result["absent"] = tracer.absent
            result["spans"] = tracer.spans
    result.update({
        "failures": failures,
        "work": workload.work(configs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                     "python": sys.version.split()[0], "waveqed": waveqed.__version__},
        "threads_env": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
