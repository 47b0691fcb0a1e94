"""The four benchmark workloads: seeded inputs, timed operations, oracles.

Every workload is a single-process, single-client closed loop through the
library's public default path: the next operation starts only after the
previous one returned and was checked. Inputs are generated here from the
workload seed; the library under test only ever receives the generated
relations. Oracles run outside the timed region. Every timed operation,
set-up and commit is reported at the nominal host speed, rescaled by the
reference kernels timed just before and just after it (``host``).
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import host
from repro import BtrBlocksConfig, Column, Relation, columns_equal, compress_relation
from repro.cloud import RemoteTable, SimulatedObjectStore, TableWriter
from repro.datagen.distributions import city_names, price_doubles, zipf_int
from repro.datagen.publicbi import largest_five
from repro.query import Between, Equals, In
from repro.serve import TableProfile, WorkloadSpec, serve_workload
from repro.types import ColumnType


@dataclass(frozen=True)
class Sizes:
    """Input sizes. The defaults are the benchmark; the self-check shrinks them."""

    #: ``largest_five(rows=...)``; every table holds twice this many rows.
    lake_rows: int = 8192
    #: The clustered table of ``selective_scan``: 32 blocks per column.
    selective_rows: int = 65_536
    selective_block: int = 2048
    #: Repeats of the fixed 20-query class schedule per query cycle.
    selective_cycles: int = 3
    serve_tables: int = 4
    serve_rows: int = 8192
    serve_block: int = 1024
    serve_requests: int = 100
    #: Batches per cycle, each a fresh server with its own workload seed.
    serve_batches: int = 4
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int = 7


#: Query classes of ``selective_scan`` with their share of one 20-query
#: schedule. The counts place p50 inside the ``mid`` band and p90 inside the
#: ``half`` band, so neither percentile sits on the edge between two classes.
QUERY_CLASSES = (
    ("tiny", 0.001, 3),
    ("low", 0.01, 3),
    ("mid", 0.10, 6),
    ("half", 0.50, 4),
    ("str_eq", None, 2),
    ("int_in", None, 2),
)
PROJECTION = ("key", "city", "price")
SERVE_TENANTS = 2
#: ``Workload.python_share`` of a full scan: decode follows the NumPy
#: reference kernel more than the Python one.
SCAN_PYTHON_SHARE = 0.25
#: A run stops after this many wall seconds even if ``--seconds`` of timed
#: work is not done yet, so it ends well inside its time limit.
MAX_WALL_SECONDS = 120.0
#: Share of rows one ``str_eq`` city and one ``int_in`` value may match.
STR_EQ_SHARE = (0.002, 0.02)
INT_IN_SHARE = (0.001, 0.005)


def blocks(rows: int, block_size: int) -> int:
    return -(-rows // block_size)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stored_bytes(store: SimulatedObjectStore) -> int:
    return sum(store.object_size(key) for key in store.keys())


def commit(store: SimulatedObjectStore, relation: Relation, config=None) -> None:
    TableWriter(store).write(compress_relation(relation, config))


def relations_equal(got: Relation, expected: Relation) -> bool:
    return len(got.columns) == len(expected.columns) and all(
        a.name == b.name and columns_equal(a, b)
        for a, b in zip(got.columns, expected.columns)
    )


@dataclass
class OpRecord:
    """What one timed operation did; the loop fills ``seconds`` and the
    reference timings around it."""

    seconds: float = 0.0
    #: ``host.reference_seconds()`` just before and just after the operation.
    ref_before: "tuple[float, float] | None" = None
    ref_after: "tuple[float, float] | None" = None
    attempted: int = 1
    failed: int = 0
    #: Raw (decoded) bytes the operation produced or consumed.
    raw_bytes: int = 0
    get_bytes: int = 0
    get_requests: int = 0
    #: ``ingest`` only: bytes committed and seconds of the read-back check,
    #: at the nominal host speed.
    stored_bytes: int = 0
    readback_seconds: float = 0.0


class Workload:
    """Base: ``setup`` builds the inputs, ``cycle`` lists one round of
    operations, ``run`` is the timed call and ``check`` the oracle."""

    name = ""
    #: Weight of the Python reference kernel in the host slowdown that
    #: rescales this workload's operations (``host.at_nominal_speed``).
    #: Set-ups generate and compress data, and always use 1.
    python_share = 1.0

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes
        #: Seconds of each set-up, at the nominal host speed.
        self.setup_seconds: "list[float]" = []
        #: Per table: raw bytes and the seconds of each set-up's commit, at
        #: the nominal host speed.
        self.commits: "dict[str, tuple[int, list[float]]]" = {}
        self.raw_bytes = 0
        self.stored_bytes = 0

    def setup(self) -> None:
        """Run the set-up ``sizes.setups`` times; keep the last state."""
        for _ in range(self.sizes.setups):
            clock = host.NominalClock()
            self._setup_once(clock)
            clock.lap()
            self.setup_seconds.append(clock.total)

    def _commit_timed(self, clock, store, relations, config=None) -> None:
        """Commit each relation in its own lap of ``clock``."""
        clock.lap()
        for relation in relations:
            commit(store, relation, config)
            self.commits.setdefault(relation.name, (relation.nbytes, []))[1].append(clock.lap())
        self.raw_bytes = sum(r.nbytes for r in relations)
        self.stored_bytes = stored_bytes(store)

    def _setup_once(self, clock) -> None:
        raise NotImplementedError

    def cycle(self) -> list:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def requests(self, op) -> int:
        """Requests one operation makes; each is attempted and checked."""
        return 1

    def properties(self) -> dict:
        """Data properties that must not depend on the seed."""
        raise NotImplementedError

    def check(self, op, result, record: OpRecord) -> None:
        """Fill ``record``; count every wrong answer in ``record.failed``."""
        raise NotImplementedError

    def get_delta(self, store, before) -> "tuple[int, int]":
        """GET bytes and requests since ``before`` (bytes, requests)."""
        return (
            store.stats.bytes_downloaded - before[0],
            store.stats.get_requests - before[1],
        )


class _Lake(Workload):
    """The largest-five tables, one operation per table."""

    def _setup_once(self, clock) -> None:
        self.relations = largest_five(rows=self.sizes.lake_rows, seed=self.seed)

    def cycle(self) -> list:
        return self.relations

    def properties(self) -> dict:
        block_size = BtrBlocksConfig().block_size
        return {
            "tables": len(self.relations),
            "blocks": sum(
                blocks(len(c), block_size) for r in self.relations for c in r.columns
            ),
        }


class Ingest(_Lake):
    """compress_relation + TableWriter.write of the largest-five tables."""

    name = "ingest"

    def run(self, relation):
        store = SimulatedObjectStore()
        TableWriter(store).write(compress_relation(relation))
        return store

    def check(self, relation, store, record: OpRecord) -> None:
        record.stored_bytes = stored_bytes(store)
        before = (store.stats.bytes_downloaded, store.stats.get_requests)
        clock = host.NominalClock(SCAN_PYTHON_SHARE)
        back = RemoteTable.open(store, relation.name).scan()
        record.readback_seconds = clock.lap()
        record.raw_bytes = relation.nbytes
        record.get_bytes, record.get_requests = self.get_delta(store, before)
        record.failed = int(not relations_equal(back, relation))


class FullScan(_Lake):
    """Fresh-handle ``RemoteTable.open(...).scan()`` of every column."""

    name = "full_scan"
    python_share = SCAN_PYTHON_SHARE

    def _setup_once(self, clock) -> None:
        super()._setup_once(clock)
        self.store = SimulatedObjectStore()
        self._commit_timed(clock, self.store, self.relations)

    def run(self, relation):
        before = (self.store.stats.bytes_downloaded, self.store.stats.get_requests)
        result = RemoteTable.open(self.store, relation.name).scan()
        return result, self.get_delta(self.store, before)

    def check(self, relation, result, record: OpRecord) -> None:
        scanned, (record.get_bytes, record.get_requests) = result
        record.raw_bytes = relation.nbytes
        record.failed = int(not relations_equal(scanned, relation))


@dataclass(frozen=True)
class Query:
    label: str
    where: dict
    mask: np.ndarray


def _values_with_share(values: np.ndarray, counts: np.ndarray, n: int, lo: float, hi: float):
    """Values whose frequency share lies in ``[lo, hi]``; the closest to the
    middle of the band when none does."""
    share = counts / n
    inside = values[(share >= lo) & (share <= hi)]
    if inside.size:
        return inside
    return values[np.argsort(np.abs(share - (lo + hi) / 2))[:3]]


class SelectiveScan(Workload):
    """Fresh-handle ``scan(columns=3, where=...)`` over a clustered table."""

    name = "selective_scan"

    def _setup_once(self, clock) -> None:
        n = self.sizes.selective_rows
        rng = np.random.default_rng([self.seed, 1])
        key = np.cumsum(rng.integers(1, 16, n)).astype(np.int32)
        city = city_names(n, rng)
        price = price_doubles(n, rng)
        zipf = zipf_int(n, rng, distinct=1000)
        self.relation = Relation(
            "clustered",
            [
                Column.ints("key", key),
                Column.strings("city", city),
                Column.doubles("price", price),
                Column.ints("zipf", zipf),
            ],
        )
        self.key, self.price, self.zipf = key, price, zipf
        self.city = np.array([s.encode() for s in city], dtype=object)
        self.store = SimulatedObjectStore()
        self._commit_timed(
            clock, self.store, [self.relation],
            BtrBlocksConfig(block_size=self.sizes.selective_block),
        )
        self.queries = self._make_queries(np.random.default_rng([self.seed, 2]))

    def _make_queries(self, rng) -> "list[Query]":
        n = len(self.key)
        cities, city_counts = np.unique(self.city, return_counts=True)
        common_cities = _values_with_share(cities, city_counts, n, *STR_EQ_SHARE)
        zipf_values, zipf_counts = np.unique(self.zipf, return_counts=True)
        tail_values = _values_with_share(zipf_values, zipf_counts, n, *INT_IN_SHARE)
        labels = [
            label
            for label, _share, count in QUERY_CLASSES
            for _ in range(count * self.sizes.selective_cycles)
        ]
        rng.shuffle(labels)
        shares = {label: share for label, share, _count in QUERY_CLASSES}
        queries = []
        for label in labels:
            if label == "str_eq":
                value = common_cities[int(rng.integers(len(common_cities)))]
                where = {"city": Equals(value)}
                mask = self.city == value
            elif label == "int_in":
                picks = rng.choice(tail_values, size=min(3, len(tail_values)), replace=False)
                where = {"zipf": In(tuple(int(v) for v in picks))}
                mask = np.isin(self.zipf, picks)
            else:
                rows = max(1, round(shares[label] * n))
                start = int(rng.integers(0, n - rows + 1))
                low, high = int(self.key[start]), int(self.key[start + rows - 1])
                where = {"key": Between(low, high)}
                mask = (self.key >= low) & (self.key <= high)
            queries.append(Query(label, where, mask))
        return queries

    def cycle(self) -> list:
        return self.queries

    def properties(self) -> dict:
        n = len(self.key)
        shares = {label: share for label, share, _count in QUERY_CLASSES}

        def in_band(query: Query) -> bool:
            matched = int(query.mask.sum())
            if query.label == "str_eq":
                return STR_EQ_SHARE[0] <= matched / n <= STR_EQ_SHARE[1]
            if query.label == "int_in":
                values = len(query.where["zipf"].values)
                return values * INT_IN_SHARE[0] <= matched / n <= values * INT_IN_SHARE[1]
            return matched == max(1, round(shares[query.label] * n))

        return {
            "blocks_per_column": blocks(n, self.sizes.selective_block),
            "queries": len(self.queries),
            "classes_in_band": all(in_band(q) for q in self.queries),
        }

    def run(self, query: Query):
        before = (self.store.stats.bytes_downloaded, self.store.stats.get_requests)
        result = RemoteTable.open(self.store, "clustered").scan(
            columns=PROJECTION, where=query.where
        )
        return result, self.get_delta(self.store, before)

    def expected_ok(self, query: Query, result: Relation) -> bool:
        mask = query.mask
        if [c.name for c in result.columns] != list(PROJECTION):
            return False
        key, city, price = result.columns
        if any(c.nulls is not None and len(c.nulls) for c in result.columns):
            return False
        return (
            np.array_equal(key.data, self.key[mask])
            and np.array_equal(price.data.view(np.uint64), self.price[mask].view(np.uint64))
            and city.data.to_pylist() == self.city[mask].tolist()
        )

    def check(self, query: Query, result, record: OpRecord) -> None:
        scanned, (record.get_bytes, record.get_requests) = result
        record.raw_bytes = sum(c.nbytes for c in scanned.columns)
        record.failed = int(not self.expected_ok(query, scanned))


class ServeMixed(Workload):
    """Batches of a seeded Zipfian workload through ``serve_workload``."""

    name = "serve_mixed"
    python_share = 0.5

    def _setup_once(self, clock) -> None:
        sizes = self.sizes
        rows = sizes.serve_rows
        self.inputs: "dict[str, dict]" = {}
        relations, profiles = [], []
        for index in range(sizes.serve_tables):
            rng = np.random.default_rng([self.seed, 3, index])
            codes = zipf_int(rows, rng, distinct=100)
            cities = city_names(rows, rng, pool_size=50)
            prices = price_doubles(rows, rng)
            ids = np.arange(rows, dtype=np.int32)
            name = f"served-{index:02d}"
            relations.append(
                Relation(
                    name,
                    [
                        Column.ints("code", codes),
                        Column.strings("city", cities),
                        Column.doubles("price", prices),
                        Column.ints("id", ids),
                    ],
                )
            )
            self.inputs[name] = {
                "code": codes,
                "city": np.array([s.encode() for s in cities], dtype=object),
                "price": prices,
                "id": ids,
            }
            profiles.append(
                TableProfile(
                    name=name,
                    columns=("code", "city", "price", "id"),
                    point_values={
                        "code": tuple(int(v) for v in np.unique(codes)[:8]),
                        "city": tuple(sorted(set(cities))[:8]),
                    },
                )
            )
        self.profiles = profiles
        self.rejected = 0
        self.store = SimulatedObjectStore()
        self._commit_timed(
            clock, self.store, relations, BtrBlocksConfig(block_size=sizes.serve_block)
        )
        # Several independently drawn batches per cycle average out how the
        # seed splits requests between point reads, scans and tables.
        self.specs = [
            WorkloadSpec(
                tenants=SERVE_TENANTS,
                requests_per_tenant=sizes.serve_requests,
                point_fraction=0.75,
                scan_columns=2,
                seed=self.seed * sizes.serve_batches + batch,
            )
            for batch in range(sizes.serve_batches)
        ]

    def cycle(self) -> list:
        return self.specs

    def properties(self) -> dict:
        return {
            "tables": self.sizes.serve_tables,
            "blocks_per_column": blocks(self.sizes.serve_rows, self.sizes.serve_block),
            "rejected": self.rejected,
        }

    def requests(self, spec: WorkloadSpec) -> int:
        return spec.tenants * spec.requests_per_tenant

    def run(self, spec: WorkloadSpec):
        before = (self.store.stats.bytes_downloaded, self.store.stats.get_requests)
        # A queue as long as the whole batch never rejects: the workload
        # measures serving cost, not admission control.
        result = serve_workload(
            self.store, self.profiles, spec, queue_limit=self.requests(spec)
        )
        return result, self.get_delta(self.store, before)

    def response_ok(self, response) -> bool:
        request = response.request
        data = self.inputs[request.table]
        relation = response.relation
        if relation is None or [c.name for c in relation.columns] != list(request.columns):
            return False
        if request.where:
            (column, predicate), = request.where.items()
            value = predicate.value
            if column == "city":
                value = value.encode() if isinstance(value, str) else value
            mask = data[column] == value
        else:
            mask = slice(None)
        for got in relation.columns:
            expected = data[got.name][mask]
            if got.nulls is not None and len(got.nulls):
                return False
            if got.ctype is ColumnType.STRING:
                ok = got.data.to_pylist() == expected.tolist()
            elif got.ctype is ColumnType.DOUBLE:
                ok = np.array_equal(got.data.view(np.uint64), expected.view(np.uint64))
            else:
                ok = np.array_equal(got.data, expected)
            if not ok:
                return False
        return True

    def check(self, spec: WorkloadSpec, result, record: OpRecord) -> None:
        run, (record.get_bytes, record.get_requests) = result
        self.rejected += len(run["rejected"])
        correct = sum(self.response_ok(r) for r in run["responses"])
        record.failed = record.attempted - correct
        record.raw_bytes = sum(
            sum(c.nbytes for c in r.relation.columns)
            for r in run["responses"]
            if r.relation is not None
        )


WORKLOADS = {w.name: w for w in (Ingest, FullScan, SelectiveScan, ServeMixed)}


def measure(workload: Workload, seconds: float, run=None):
    """Closed loop over whole cycles until ``seconds`` of timed work.

    ``run`` replaces ``workload.run`` (the traced pass). An exception in an
    operation or its check counts as one failed operation. Whole cycles
    keep the operation mix, and so the exact metrics, independent of speed.
    The reference kernels run after each operation, before its check; that
    timing is also the ``ref_before`` of the next operation.
    """
    run = run or workload.run
    records: "list[OpRecord]" = []
    timed = 0.0
    started = time.perf_counter()
    ref = host.reference_seconds()
    while True:
        for op in workload.cycle():
            record = OpRecord(attempted=workload.requests(op), ref_before=ref)
            t0 = time.perf_counter()
            try:
                result = run(op)
                record.seconds = time.perf_counter() - t0
                record.ref_after = ref = host.reference_seconds()
                workload.check(op, result, record)
            except Exception:  # a failed operation, not a crash
                record.seconds = record.seconds or time.perf_counter() - t0
                record.ref_after = record.ref_after or host.reference_seconds()
                ref = record.ref_after
                record.failed = record.attempted
                traceback.print_exc(file=sys.stderr)
            timed += record.seconds
            records.append(record)
        if timed >= seconds or time.perf_counter() - started >= MAX_WALL_SECONDS:
            return records


def percentile_ms(values, q: float) -> float:
    return float(np.percentile(np.asarray(values) * 1e3, q))


def median_cycle_seconds(per_op) -> float:
    """One cycle's seconds, built from each operation's median repeat."""
    return sum(statistics.median(times) for times in per_op)


def e2e_metrics(workload: Workload, records: "list[OpRecord]") -> dict:
    """Every end-to-end metric, defined for each workload (see README).

    ``records`` holds whole cycles, so position ``i`` of every cycle is the
    same operation, with the same bytes and requests. Every time is at the
    nominal host speed.
    """

    def nominal(seconds: float, record: OpRecord) -> float:
        return host.at_nominal_speed(
            seconds, record.ref_before, record.ref_after, workload.python_share
        )

    width = len(workload.cycle())
    cycle = records[:width]
    seconds = median_cycle_seconds(
        [nominal(r.seconds, r) for r in records[i::width]] for i in range(width)
    )
    requests = sum(r.attempted for r in cycle)
    raw = sum(r.raw_bytes for r in cycle)
    completed = 1 - sum(r.failed for r in records) / sum(r.attempted for r in records)
    if workload.name == "serve_mixed":
        latencies = [nominal(r.seconds, r) / r.attempted for r in records]
    else:
        latencies = [nominal(r.seconds, r) for r in records]
    if workload.name == "ingest":
        ingest_mb_s = raw / 1e6 / seconds
        readback = median_cycle_seconds(
            [r.readback_seconds for r in records[i::width]] for i in range(width)
        )
        scan_mb_s = raw / 1e6 / readback
        ratio = raw / sum(r.stored_bytes for r in cycle)
    else:
        ingest_mb_s = sum(raw_bytes for raw_bytes, _ in workload.commits.values()) / 1e6 / (
            median_cycle_seconds(times for _, times in workload.commits.values())
        )
        scan_mb_s = raw / 1e6 / seconds
        ratio = workload.raw_bytes / workload.stored_bytes
    return {
        "setup_s": (statistics.median(workload.setup_seconds), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ingest_mb_s": (ingest_mb_s, "MB/s"),
        "compression_ratio": (ratio, "x"),
        "scan_mb_s": (scan_mb_s, "MB/s"),
        "query_p50_ms": (percentile_ms(latencies, 50), "ms"),
        "query_p90_ms": (percentile_ms(latencies, 90), "ms"),
        "query_qps": (requests / seconds, "1/s"),
        "query_kb_fetched": (sum(r.get_bytes for r in cycle) / 1e3 / requests, "KB"),
        "serve_req_per_s": (completed * requests / seconds, "1/s"),
    }
