"""The traced run: per-layer metrics from spans around public layer calls.

Each workload has a traced pass. It runs the same operations as the
untraced loop, but the benchmark makes the layer calls itself, one span
around each: ``compress_column`` per column and ``TableWriter.write`` for
ingest; ``RemoteTable.open`` and each stage of ``RemoteTable.scan_steps``
(the generator ``scan`` drives) for the scans; ``serve_workload`` for
serving. Work that a fused call hides is replayed piecewise outside the
operation span (``compute_block_stats``, ``column_to_bytes``, and for the
full scan ``get_chunked`` -> ``column_from_bytes`` -> ``verify_column`` ->
``decompress_column`` plus ``decompress_block`` per block). Counters come
from the library's metrics registry, diffed around each pass.

A traced run makes a full-length pass of its own workload and a short pass
of every other one, so every layer metric is measured on the workload it is
meant to move (``LAYER_TARGETS``). ``unattributed_frac`` and
``trace.overhead_frac`` belong to the run's own workload.
"""

from __future__ import annotations

import cProfile
import pstats
import statistics
from collections import defaultdict
from dataclasses import replace

import numpy as np

from repro import column_from_bytes, compress_column, decompress_block
from repro.cloud import RemoteTable, SimulatedObjectStore, TableWriter
from repro.core.blocks import CompressedRelation
from repro.core.blockstats import compute_block_stats
from repro.core.compressor import iter_block_ranges
from repro.core.config import BtrBlocksConfig
from repro.core.decompressor import decompress_column
from repro.core.file_format import column_to_bytes, verify_column
from repro.observe import get_registry
from repro.serve import serve_workload
from repro.types import ColumnType

from spans import Tracer
from workloads import PROJECTION, QUERY_CLASSES, WORKLOADS, e2e_metrics, measure

TYPE_NAMES = {ColumnType.INTEGER: "int", ColumnType.DOUBLE: "double", ColumnType.STRING: "string"}

#: Root schemes the selector picks for the largest-five tables at the
#: benchmark's size (the same on every seed).
DECODE_SCHEMES = (
    ("int", "dictionary"),
    ("int", "fastbp128"),
    ("int", "fastpfor"),
    ("int", "rle"),
    ("double", "dictionary"),
    ("double", "frequency"),
    ("double", "pseudodecimal"),
    ("double", "uncompressed"),
    ("string", "dictionary"),
    ("string", "fsst"),
)
SELECTOR_SCHEMES = (
    "fastbp128", "fastpfor", "rle", "dictionary", "frequency",
    "fsst", "pseudodecimal", "one_value", "uncompressed",
)

#: Layer metric -> (end-to-end metric, workload) it should move.
LAYER_TARGETS = {
    "selector.seconds_frac": ("ingest_mb_s", "ingest"),
    **{f"selector.chosen.{s}": ("ingest_mb_s", "ingest") for s in SELECTOR_SCHEMES},
    "encode.int_mb_s": ("ingest_mb_s", "ingest"),
    "encode.double_mb_s": ("ingest_mb_s", "ingest"),
    "encode.string_mb_s": ("ingest_mb_s", "ingest"),
    "blockstats.seconds_frac": ("ingest_mb_s", "ingest"),
    "format.serialize_mb_s": ("ingest_mb_s", "ingest"),
    "store.put_requests": ("setup_s", "ingest"),
    "store.put_mb": ("ingest_mb_s", "ingest"),
    "profile.encode_distinct_frac": ("ingest_mb_s", "ingest"),
    "profile.fsst_frac": ("ingest_mb_s", "ingest"),
    "format.parse_mb_s": ("scan_mb_s", "full_scan"),
    "format.crc_mb_s": ("scan_mb_s", "full_scan"),
    "store.get_seconds_frac": ("scan_mb_s", "full_scan"),
    "decode.int_mb_s": ("scan_mb_s", "full_scan"),
    "decode.double_mb_s": ("scan_mb_s", "full_scan"),
    "decode.string_mb_s": ("scan_mb_s", "full_scan"),
    **{f"decode.{t}.{s}.ns_per_value": ("scan_mb_s", "full_scan") for t, s in DECODE_SCHEMES},
    "profile.strutil_gather_frac": ("scan_mb_s", "full_scan"),
    "profile.block_checksum_frac": ("scan_mb_s", "full_scan"),
    "store.get_requests_per_query": ("query_kb_fetched", "selective_scan"),
    "table.open_ms": ("query_p50_ms", "selective_scan"),
    "table.filter_ms": ("query_p50_ms", "selective_scan"),
    "table.materialise_ms": ("query_p90_ms", "selective_scan"),
    "scan.pruned_blocks_frac": ("query_kb_fetched", "selective_scan"),
    "cdomain.rows_decoded_frac": ("query_p90_ms", "selective_scan"),
    "cdomain.pages_skipped_frac": ("query_p90_ms", "selective_scan"),
    **{f"query.{c}.p50_ms": ("query_p90_ms", "selective_scan") for c, _s, _n in QUERY_CLASSES},
    "serve.decode_cache_hit_rate": ("serve_req_per_s", "serve_mixed"),
    "serve.column_cache_hit_rate": ("serve_req_per_s", "serve_mixed"),
    "pipeline.fetch_s": ("serve_req_per_s", "serve_mixed"),
    "pipeline.decode_s": ("serve_req_per_s", "serve_mixed"),
    "pipeline.overlap_frac": ("serve_req_per_s", "serve_mixed"),
    "serve.sim_p50_s": ("serve_req_per_s", "serve_mixed"),
    "serve.sim_p99_s": ("serve_req_per_s", "serve_mixed"),
    "serve.queue_peak": ("serve_req_per_s", "serve_mixed"),
    "serve.rejected": ("serve_req_per_s", "serve_mixed"),
    "unattributed_frac": ("every e2e metric", "the run's workload"),
    "trace.overhead_frac": ("every e2e metric", "the run's workload"),
    "host.numpy_ref_gb_s": ("none: the runner's speed", "every workload"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class _Counters:
    """Diff of the library's metrics registry across one pass."""

    def __init__(self) -> None:
        self._before = get_registry().snapshot()

    def delta(self, name: str) -> float:
        return get_registry().get(name) - self._before["counters"].get(name, 0)

    def timer_delta(self, name: str) -> float:
        before = self._before["timers"].get(name, {"seconds": 0.0})["seconds"]
        return get_registry().timer_seconds(name) - before


def _drive(tracer, store, steps):
    """Run a ``scan_steps`` generator like ``RemoteTable.scan`` does, with
    one span per stage."""
    while True:
        with tracer.span("stage") as span:
            try:
                step = next(steps)
            except StopIteration as stop:
                span["name"] = "stage.return"
                return stop.value
        span["name"] = f"stage.{step.kind}"
        store.clock.sleep(step.clock_seconds)


def _op_seconds(tracer, workload: str) -> "list[float]":
    return [s["end"] - s["start"] for s in tracer.select(workload, "op")]


def _children_seconds(tracer, workload: str, names) -> float:
    """Seconds of the named spans whose parent is an ``op`` span."""
    ops = {s["id"] for s in tracer.select(workload, "op")}
    return sum(
        s["end"] - s["start"]
        for s in tracer.spans
        if s["workload"] == workload and s["parent"] in ops and s["name"] in names
    )


# -- ingest -------------------------------------------------------------------


def trace_ingest(w, tracer, seconds):
    config = BtrBlocksConfig()
    acc = defaultdict(float)

    def run(relation):
        with tracer.op():
            columns = []
            for column in relation.columns:
                kind = TYPE_NAMES[column.ctype]
                with tracer.span(f"encode.{kind}") as span:
                    columns.append(compress_column(column, config))
                acc[f"encode_s.{kind}"] += span["end"] - span["start"]
                acc[f"raw.{kind}"] += column.nbytes
            store = SimulatedObjectStore()
            with tracer.span("store.write"):
                TableWriter(store).write(CompressedRelation(relation.name, columns))
        acc["put_requests"] += store.stats.put_requests
        acc["put_bytes"] += store.stats.bytes_uploaded
        with tracer.span("replay"):
            for column, compressed in zip(relation.columns, columns):
                for _index, start, stop in iter_block_ranges(len(column), config.block_size):
                    chunk = column.slice(start, stop)
                    with tracer.span("blockstats"):
                        compute_block_stats(chunk, config.stats_bloom_max_distinct)
                with tracer.span("format.serialize"):
                    acc["serialized_bytes"] += len(column_to_bytes(compressed))
        return store

    counters = _Counters()
    records = measure(w, seconds, run=run)
    name = w.name
    op_seconds = sum(_op_seconds(tracer, name))
    # SchemeSelector.selection_seconds adds nested picks inside their
    # parent's clock; the registry's outer-pick timer counts each second once.
    selection = counters.timer_delta("selection.outer")
    ops = len(records)
    cycles = ops / len(w.cycle())
    metrics = {
        "selector.seconds_frac": (selection / op_seconds, "frac"),
        **{
            f"selector.chosen.{s}": (counters.delta(f"selector.chosen.{s}") / cycles, "count")
            for s in SELECTOR_SCHEMES
        },
        **{
            f"encode.{k}_mb_s": (acc[f"raw.{k}"] / 1e6 / acc[f"encode_s.{k}"], "MB/s")
            for k in ("int", "double", "string")
        },
        "blockstats.seconds_frac": (tracer.seconds(name, "blockstats") / op_seconds, "frac"),
        "format.serialize_mb_s": (
            acc["serialized_bytes"] / 1e6 / tracer.seconds(name, "format.serialize"),
            "MB/s",
        ),
        "store.put_requests": (acc["put_requests"] / ops, "count"),
        "store.put_mb": (acc["put_bytes"] / 1e6 / ops, "MB"),
    }
    attributed = _children_seconds(
        tracer, name, {"encode.int", "encode.double", "encode.string", "store.write"}
    )
    return records, metrics, 1 - attributed / op_seconds


# -- full scan ----------------------------------------------------------------


def trace_full_scan(w, tracer, seconds):
    acc = defaultdict(float)
    store = w.store

    def run(relation):
        before = (store.stats.bytes_downloaded, store.stats.get_requests)
        with tracer.op():
            with tracer.span("table.open"):
                table = RemoteTable.open(store, relation.name)
            result = _drive(tracer, store, table.scan_steps())
        delta = w.get_delta(store, before)
        with tracer.span("replay"):
            for name in table.column_names():
                key = table.column_entry(name)["file"]
                with tracer.span("store.get"):
                    payload = store.get_chunked(key)
                with tracer.span("format.parse"):
                    compressed = column_from_bytes(payload)
                with tracer.span("format.crc"):
                    verify_column(compressed)
                kind = TYPE_NAMES[compressed.ctype]
                with tracer.span(f"decode.{kind}") as span:
                    column = decompress_column(compressed)
                acc[f"decode_s.{kind}"] += span["end"] - span["start"]
                acc[f"raw.{kind}"] += column.nbytes
                acc["compressed_bytes"] += len(payload)
                for block in compressed.blocks:
                    with tracer.span("decode.block") as span:
                        decompress_block(block.data, compressed.ctype)
                    scheme = (kind, block.root_scheme_name)
                    acc[scheme] += span["end"] - span["start"]
                    acc[("values",) + scheme] += block.count
        return result, delta

    records = measure(w, seconds, run=run)
    name = w.name
    op_seconds = sum(_op_seconds(tracer, name))
    compressed_mb = acc["compressed_bytes"] / 1e6
    metrics = {
        "format.parse_mb_s": (compressed_mb / tracer.seconds(name, "format.parse"), "MB/s"),
        "format.crc_mb_s": (compressed_mb / tracer.seconds(name, "format.crc"), "MB/s"),
        "store.get_seconds_frac": (tracer.seconds(name, "store.get") / op_seconds, "frac"),
        **{
            f"decode.{k}_mb_s": (acc[f"raw.{k}"] / 1e6 / acc[f"decode_s.{k}"], "MB/s")
            for k in ("int", "double", "string")
        },
        **{
            f"decode.{t}.{s}.ns_per_value": (
                _ratio(acc[(t, s)] * 1e9, acc[("values", t, s)]),
                "ns",
            )
            for t, s in DECODE_SCHEMES
        },
    }
    replayed = sum(
        tracer.seconds(name, n)
        for n in ("table.open", "store.get", "format.parse", "format.crc",
                  "decode.int", "decode.double", "decode.string")
    )
    return records, metrics, 1 - replayed / op_seconds


# -- selective scan -----------------------------------------------------------


def trace_selective(w, tracer, seconds):
    store = w.store
    per_query = []

    def run(query):
        before = (store.stats.bytes_downloaded, store.stats.get_requests)
        with tracer.op() as op:
            with tracer.span("table.open") as open_span:
                table = RemoteTable.open(store, "clustered")
            first = len(tracer.spans)
            result = _drive(
                tracer, store, table.scan_steps(columns=PROJECTION, where=query.where)
            )
        stages = defaultdict(float)
        for span in tracer.spans[first:]:
            stages[span["name"]] += span["end"] - span["start"]
        per_query.append(
            (query.label, op["end"] - op["start"], open_span["end"] - open_span["start"],
             stages["stage.filter"], stages["stage.materialise"])
        )
        return result, w.get_delta(store, before)

    counters = _Counters()
    records = measure(w, seconds, run=run)
    name = w.name
    blocks = -(-w.sizes.selective_rows // w.sizes.selective_block)
    by_class = defaultdict(list)
    for label, op_s, *_ in per_query:
        by_class[label].append(op_s)
    metrics = {
        "store.get_requests_per_query": (
            sum(r.get_requests for r in records) / len(records), "count"
        ),
        "table.open_ms": (statistics.median(q[2] for q in per_query) * 1e3, "ms"),
        "table.filter_ms": (statistics.median(q[3] for q in per_query) * 1e3, "ms"),
        "table.materialise_ms": (statistics.median(q[4] for q in per_query) * 1e3, "ms"),
        "scan.pruned_blocks_frac": (
            _ratio(
                counters.delta("cloud.scan.pruned_blocks"),
                counters.delta("cloud.scan.zonemap.consulted") * blocks,
            ),
            "frac",
        ),
        "cdomain.rows_decoded_frac": (
            _ratio(
                counters.delta("query.cdomain.filtered.rows_selected"),
                counters.delta("query.cdomain.filtered.rows_total"),
            ),
            "frac",
        ),
        "cdomain.pages_skipped_frac": (
            _ratio(
                counters.delta("query.cdomain.pages_skipped"),
                counters.delta("query.cdomain.pages"),
            ),
            "frac",
        ),
        **{
            f"query.{c}.p50_ms": (statistics.median(by_class[c]) * 1e3, "ms")
            for c, _s, _n in QUERY_CLASSES
        },
    }
    op_seconds = sum(_op_seconds(tracer, name))
    attributed = _children_seconds(
        tracer, name, {"table.open", "stage.filter", "stage.materialise", "stage.return"}
    )
    return records, metrics, 1 - attributed / op_seconds


# -- serving ------------------------------------------------------------------


def trace_serve(w, tracer, seconds):
    store = w.store
    runs = []

    def run(spec):
        before = (store.stats.bytes_downloaded, store.stats.get_requests)
        with tracer.op():
            with tracer.span("serve.serve_workload"):
                result = serve_workload(
                    store, w.profiles, spec, queue_limit=w.requests(spec)
                )
        runs.append(result)
        return result, w.get_delta(store, before)

    counters = _Counters()
    records = measure(w, seconds, run=run)
    name = w.name
    latencies = [r.latency_seconds for run in runs for r in run["responses"]]
    pipelined = counters.delta("cloud.scan.pipeline.scans")
    fetch = counters.delta("cloud.scan.pipeline.fetch_seconds")
    decode = counters.delta("cloud.scan.pipeline.decode_seconds")

    def hit_rate(prefix):
        hits, misses = counters.delta(f"{prefix}.hit"), counters.delta(f"{prefix}.miss")
        return _ratio(hits, hits + misses)

    metrics = {
        "serve.decode_cache_hit_rate": (hit_rate("decode.cache"), "frac"),
        "serve.column_cache_hit_rate": (hit_rate("server.column_cache"), "frac"),
        "pipeline.fetch_s": (_ratio(fetch, pipelined), "s"),
        "pipeline.decode_s": (_ratio(decode, pipelined), "s"),
        "pipeline.overlap_frac": (
            _ratio(counters.delta("cloud.scan.pipeline.overlap_seconds"), fetch + decode),
            "frac",
        ),
        "serve.sim_p50_s": (float(np.percentile(latencies, 50)), "s"),
        "serve.sim_p99_s": (float(np.percentile(latencies, 99)), "s"),
        "serve.queue_peak": (max(run["server"].queue_peak for run in runs), "count"),
        "serve.rejected": (sum(len(run["rejected"]) for run in runs), "count"),
    }
    op_seconds = sum(_op_seconds(tracer, name))
    attributed = _children_seconds(tracer, name, {"serve.serve_workload"})
    return records, metrics, 1 - attributed / op_seconds


TRACERS = {
    "ingest": trace_ingest,
    "full_scan": trace_full_scan,
    "selective_scan": trace_selective,
    "serve_mixed": trace_serve,
}


# -- profiled hot functions ---------------------------------------------------


def _profile_share(w, seconds: float, functions) -> "dict[str, float]":
    """Cumulative time of each ``(file suffix, function or None)`` as a share
    of the profiled wall time of plain untraced operations; ``None`` sums
    the self time of every function in the file. The profiler runs only
    inside the operations, not in their checks or the reference kernel."""
    profiler = cProfile.Profile()

    def profiled(op):
        profiler.enable()
        try:
            return w.run(op)
        finally:
            profiler.disable()

    wall = sum(r.seconds for r in measure(w, seconds, run=profiled))
    stats = pstats.Stats(profiler).stats
    shares = {}
    for metric, (suffix, function) in functions.items():
        total = 0.0
        for (filename, _line, funcname), (_cc, _nc, tottime, cumtime, _callers) in stats.items():
            if filename.replace("\\", "/").endswith(suffix):
                if function is None:
                    total += tottime
                elif funcname == function:
                    total += cumtime
        shares[metric] = (total / wall, "frac")
    return shares


PROFILED = {
    "ingest": {
        "profile.encode_distinct_frac": ("repro/encodings/strutil.py", "encode_distinct"),
        "profile.fsst_frac": ("repro/encodings/fsst.py", None),
    },
    "full_scan": {
        "profile.strutil_gather_frac": ("repro/encodings/strutil.py", "gather"),
        "profile.block_checksum_frac": ("repro/core/file_format.py", "block_checksum"),
    },
}


def traced_run(primary_name: str, seed: int, seconds: float, sizes):
    """Untraced then traced passes of ``primary_name``, short traced passes
    of every other workload, and the profiled passes.

    Returns ``(attempted, failed, layer metrics, report, tracer)``;
    ``report`` holds the data properties and the untraced and traced
    end-to-end metrics side by side.
    """
    tracer = Tracer()
    # One set-up per workload: the traced run reports layer metrics, and its
    # end-to-end figures only measure the tracing overhead. For the same
    # reason the untraced and the traced pass split ``seconds`` between
    # them. This keeps the traced run well inside the time limit of a run.
    sizes = replace(sizes, setups=1)
    primary = WORKLOADS[primary_name](seed, sizes)
    primary.setup()
    untraced_records = measure(primary, seconds / 2)
    untraced = e2e_metrics(primary, untraced_records)
    metrics = {}
    attempted = failed = 0
    report = {
        "data": primary.properties(),
        "untraced": {k: v for k, (v, _u) in untraced.items()},
    }
    for name, tracer_fn in TRACERS.items():
        if name == primary_name:
            w, budget = primary, seconds / 2
        else:
            w, budget = WORKLOADS[name](seed, sizes), 0.0
            w.setup()
        tracer.workload = name
        records, layer_metrics, unattributed = tracer_fn(w, tracer, budget)
        metrics.update(layer_metrics)
        attempted += sum(r.attempted for r in records)
        failed += sum(r.failed for r in records)
        if name in PROFILED:
            metrics.update(_profile_share(w, 1.0, PROFILED[name]))
        if name == primary_name:
            traced_ops = _op_seconds(tracer, name)
            for record, op_seconds in zip(records, traced_ops):
                record.seconds = op_seconds
            traced = e2e_metrics(w, records)
            report["traced"] = {k: v for k, (v, _u) in traced.items()}
            metrics["unattributed_frac"] = (unattributed, "frac")
            metrics["trace.overhead_frac"] = (
                untraced["query_qps"][0] / traced["query_qps"][0] - 1, "frac"
            )
    attempted += sum(r.attempted for r in untraced_records)
    failed += sum(r.failed for r in untraced_records)
    return attempted, failed, metrics, report, tracer

