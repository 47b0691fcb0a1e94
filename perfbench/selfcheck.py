"""Self-check of the benchmark at tiny scale.

Run from the root of a checkout::

    python3 perfbench/selfcheck.py

It checks that every end-to-end and per-layer metric is printed with its
unit and a finite value, that the printed names match ``BENCHMARK.json``,
that every layer metric names the end-to-end metric it should move, that a
wrong answer or an exception is counted as a failed operation, that a
second seed gives the same data properties, and that the command refuses
to run without the library source. Exits 1 on any failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

import run

host, layers, workloads = run._import_benchmark()

TINY = workloads.Sizes(
    lake_rows=256,
    selective_rows=4096,
    selective_block=128,
    selective_cycles=1,
    serve_tables=2,
    serve_rows=512,
    serve_block=128,
    serve_requests=10,
    serve_batches=2,
    setups=1,
)
BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
failures: "list[str]" = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def run_command(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)],
            sizes=TINY,
        )
    expect(code == 0, f"{workload} trace={trace}: exit code 0")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_metrics(result: dict, declared: "list[dict]", label: str) -> None:
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{label}: correct, {result['failed']} of {result['attempted']} failed")
    metrics = result["metrics"]
    names = [m["name"] for m in declared]
    expect(sorted(metrics) == sorted(names),
           f"{label}: printed names match BENCHMARK.json "
           f"(missing {sorted(set(names) - set(metrics))}, extra {sorted(set(metrics) - set(names))})")
    for spec in declared:
        got = metrics.get(spec["name"])
        if got is None:
            continue
        value = got["value"]
        finite = isinstance(value, (int, float)) and math.isfinite(value)
        expect(finite and got["unit"] == spec["unit"],
               f"{label}: {spec['name']} = {value} {got['unit']}")


def perturbed(relation):
    """The relation with one value of its first non-empty numeric column changed."""
    columns = list(relation.columns)
    for i, column in enumerate(columns):
        if column.ctype is not workloads.ColumnType.STRING and len(column):
            data = column.data.copy()
            data[0] = data[0] + 1
            columns[i] = workloads.Column(column.name, column.ctype, data, column.nulls)
            return workloads.Relation(relation.name, columns)
    return None


def wrong_answer(w, result):
    """Corrupt one operation's result the way a broken library would."""
    if w.name == "ingest":
        store = result
        table = store.keys()[0].split("/", 1)[0]
        relation = next(r for r in w.relations if r.name == table)
        workloads.commit(store, perturbed(relation))
        return store
    if w.name == "serve_mixed":
        batch, delta = result
        for response in batch["responses"]:
            wrong = perturbed(response.relation)
            if wrong is not None:
                response.relation = wrong
                return batch, delta
        raise AssertionError("no response with a numeric value to corrupt")
    scanned, delta = result
    return perturbed(scanned), delta


def check_failures_counted(name: str) -> None:
    w = workloads.WORKLOADS[name](5, TINY)
    w.setup()
    first = w.cycle()[0]
    original = w.run

    def corrupt(op):
        result = original(op)
        return wrong_answer(w, result) if op is first else result

    records = workloads.measure(w, 0.0, run=corrupt)
    expect(sum(r.failed for r in records) >= 1,
           f"{name}: an injected wrong answer counts as failed")

    def explode(op):
        if op is first:
            raise RuntimeError("injected")
        return original(op)

    records = workloads.measure(w, 0.0, run=explode)
    expect(records[0].failed == records[0].attempted,
           f"{name}: an exception counts as failed")


def check_seed_invariance(name: str) -> None:
    """Block counts, selectivity classes and zero rejections on two seeds."""
    found = []
    for seed in (5, 6):
        w = workloads.WORKLOADS[name](seed, TINY)
        w.setup()
        workloads.measure(w, 0.0)
        found.append(w.properties())
    expect(found[0] == found[1] and found[0].get("classes_in_band", True)
           and found[0].get("rejected", 0) == 0,
           f"{name}: seeds 5 and 6 give the same data properties {found}")


def check_bare_directory() -> None:
    """Without the library source the command fails and prints no result."""
    bare = os.path.join(run.HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCHMARK, bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0 and '"correct"' not in done.stdout,
           f"bare directory: exit code {done.returncode}, no result printed")


def main() -> int:
    with open(BENCHMARK, encoding="utf-8") as handle:
        declared = json.load(handle)
    expect({w["name"] for w in declared["workloads"]} <= set(workloads.WORKLOADS),
           "BENCHMARK.json names only the benchmark's workloads")
    expect(sorted(m["name"] for m in declared["per_layer"]) == sorted(layers.LAYER_TARGETS),
           "every per-layer metric has a target end-to-end metric and workload")
    for name in workloads.WORKLOADS:
        check_metrics(run_command(name, 0), declared["end_to_end"], f"{name} untraced")
        check_metrics(run_command(name, 1), declared["per_layer"], f"{name} traced")
        check_failures_counted(name)
        check_seed_invariance(name)
    check_bare_directory()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
