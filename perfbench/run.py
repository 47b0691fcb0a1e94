"""Repository benchmark: ingest, cold full scan, selective scan, shared serving.

Run from the root of a checkout::

    python3 perfbench/run.py --workload full_scan --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the workload with tracing off and prints every
end-to-end metric. ``--trace 1`` runs the traced passes instead (see
``layers.py``), prints every per-layer metric and writes its spans to
``perfbench/out/trace-<workload>-<seed>.json``. The last line of standard
output is always one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The lines before it give the host fingerprint and, for a traced
run, the untraced and traced end-to-end metrics side by side. Times are at
the nominal host speed; the fingerprint's ``ref_ms`` (this run's median
Python and NumPy reference timings) beside ``ref_nominal_ms`` shows how far
this run's host speed was from it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")


def _import_benchmark():
    """The library comes from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        sys.exit(f"error: no library source at {os.path.relpath(SOURCE)}; "
                 "run from the root of a full checkout")
    sys.path[:0] = [p for p in (SOURCE, HERE) if p not in sys.path]
    import host
    import layers
    import workloads

    return host, layers, workloads


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, sizes=None) -> int:
    host, layers, workloads = _import_benchmark()
    args = parse_args(argv, sorted(workloads.WORKLOADS))
    sizes = sizes or workloads.Sizes()
    fingerprint = host.fingerprint()
    if args.trace:
        attempted, failed, metrics, report, tracer = layers.traced_run(
            args.workload, args.seed, args.seconds, sizes
        )
    else:
        workload = workloads.WORKLOADS[args.workload](args.seed, sizes)
        workload.setup()
        records = workloads.measure(workload, args.seconds)
        metrics = workloads.e2e_metrics(workload, records)
        attempted = sum(r.attempted for r in records)
        failed = sum(r.failed for r in records)
        fingerprint.update(
            ref_ms=[statistics.median(r.ref_before[i] for r in records) * 1e3 for i in (0, 1)],
            ref_nominal_ms=[s * 1e3 for s in host.REF_NOMINAL_SECONDS],
        )
        print(json.dumps({"data": workload.properties()}))
    ref = host.numpy_ref_gb_s()
    fingerprint.update(loadavg_end=host.load_average(), numpy_ref_gb_s=ref)
    if args.trace:
        metrics["host.numpy_ref_gb_s"] = (ref, "GB/s")
        path = os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.json")
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "host": fingerprint, **report})
        print(json.dumps({"data": report.pop("data")}))
        print(json.dumps({"e2e_untraced_vs_traced": report}))
    print(json.dumps({"host": fingerprint}))
    print(f"{args.workload}: {failed} of {attempted} operations failed")
    correct = failed == 0 and all(math.isfinite(v) for v, _unit in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # str and bytes hashing is randomized per process, and the library's
    # dictionary-heavy paths run several percent faster or slower with it.
    # One fixed hash seed keeps runs comparable; --seed still varies the data.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
