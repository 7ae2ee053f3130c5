"""Span tracing installed from outside the engine, and the per-layer metrics.

The benchmark never edits the program to trace it.  :class:`Tracer` swaps
the public functions of each layer for thin wrappers (``setattr`` on the
class or on the module where the caller looks the function up) that record
a span -- name, start, end, parent, root -- into an in-memory list, and
swaps the originals back afterwards.  The benchmark opens one *op* span per
operation it issues (a read batch, an insert batch, a served request); every
span below it carries the op's id as its root, so per-op sums and the op's
request or row count give the ``*_per_query`` and ``*_per_row`` metrics.

A span's self time is its duration minus that of its direct children.  Self
time of the benchmark's op spans and of the ``Database`` facade
(``engine.*``) is glue no layer accounts for; its share of the op time is
``trace.unattributed_share``, so the layer shares plus that share add up to
the whole.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

import repro.core.hermit as hermit_module
import repro.engine.database as database_module
import repro.engine.executor as executor_module
from repro.cache.result_cache import ResultCache
from repro.core.hermit import HermitIndex
from repro.core.outliers import OutlierBuffer
from repro.core.trs_tree import TRSTree
from repro.durability.wal import WriteAheadLog
from repro.engine.database import Database
from repro.engine.epochs import EpochManager
from repro.engine.planner import Planner
from repro.index.bptree import BPlusTree
from repro.serving.server import Server
from repro.storage.table import Table

now = time.perf_counter

# (owner, attribute, span name).  segmented_unique is wrapped in the modules
# that imported it by name, because that is where their calls look it up.
PROBES = [
    (Database, "execute_many", "engine.execute_many"),
    (Database, "insert_many", "engine.insert_many"),
    (Database, "update", "engine.update"),
    (Database, "delete", "engine.delete"),
    (ResultCache, "get_many", "cache.probe"),
    (ResultCache, "put_many", "cache.fill"),
    (Planner, "plan_many", "planner.plan_many"),
    (database_module, "execute_plan_many", "executor.execute_plan_many"),
    (HermitIndex, "candidate_tids_many", "core.candidates"),
    (HermitIndex, "insert_many", "core.insert"),
    (TRSTree, "lookup_many", "core.trs_lookup"),
    (OutlierBuffer, "lookup_many", "core.outlier_lookup"),
    (BPlusTree, "range_search_segmented", "index.probe"),
    (BPlusTree, "insert_many", "index.insert"),
    (hermit_module, "segmented_unique", "segments.dedup"),
    (executor_module, "segmented_unique", "segments.dedup"),
    (Table, "in_range_mask", "storage.validate"),
    (Table, "filter_in_range", "storage.validate"),
    (Table, "insert_many", "storage.append"),
    (WriteAheadLog, "append", "durability.wal_append"),
    (WriteAheadLog, "flush", "durability.wal_flush"),
]

# Span-name prefixes whose self time no layer accounts for.
GLUE_PREFIXES = ("op.", "engine.")
# Root spans that stand for one read op (closed loop) or one served batch;
# a served request's root is its ``serving.submit`` span.
READ_OPS = ("op.read", "serving.batch")
INSERT_OPS = ("op.insert",)

# Every per-layer metric: (name, unit, better, the end-to-end metric and
# workload it should move).  BENCHMARK.json's per_layer list mirrors it.
LAYER_METRICS = [
    ("serving.submit_us", "us", "lower", "read_p50_ms, read_p99_ms on serve-zipf"),
    ("serving.queue_wait_us", "us", "lower", "read_p50_ms, read_p99_ms on serve-zipf"),
    ("serving.fanout_us", "us", "lower", "read_p50_ms, read_p99_ms on serve-zipf"),
    ("serving.mean_batch", "requests", "higher", "read_p50_ms, read_p99_ms on serve-zipf"),
    ("cache.hit_ratio", "fraction", "higher",
     "read_p50_ms on serve-zipf; cost without benefit on ingest-mixed; off on batch-range"),
    ("cache.probe_us", "us", "lower", "read_p50_ms on serve-zipf"),
    ("cache.fill_us", "us", "lower", "read_p50_ms on serve-zipf"),
    ("cache.stale_evictions", "count", "lower", "read_p50_ms on ingest-mixed"),
    ("cache.bytes", "B", "lower", "peak_rss_mb on serve-zipf"),
    ("epochs.read_wait_us", "us", "lower", "read_p99_ms on ingest-mixed"),
    ("epochs.write_hold_ms", "ms", "lower", "write_p50_ms on ingest-mixed"),
    ("planner.plan_us_per_query", "us", "lower", "read_qps on batch-range"),
    ("planner.groups_per_batch", "groups", "lower", "read_qps on batch-range"),
    ("planner.cache_hit_ratio", "fraction", "higher", "read_qps on batch-range"),
    ("executor.self_us_per_query", "us", "lower", "read_qps on batch-range"),
    ("core.candidates_us_per_query", "us", "lower",
     "read_qps on batch-range; read_p50_ms on ingest-mixed"),
    ("core.trs_lookup_us_per_query", "us", "lower", "read_qps on batch-range"),
    ("core.outlier_lookup_us_per_query", "us", "lower",
     "read_qps on batch-range; read_p50_ms on ingest-mixed"),
    ("core.insert_us_per_row", "us", "lower", "write_rows_per_s on ingest-mixed"),
    ("core.fp_ratio", "fraction", "lower", "read_qps on batch-range"),
    ("core.trs_leaves", "count", "lower", "index_bytes_per_row on every workload"),
    ("core.outliers", "count", "lower", "index_bytes_per_row; read_p50_ms on ingest-mixed"),
    ("core.pending_reorgs", "count", "lower", "read_p50_ms on ingest-mixed"),
    ("index.host_probe_us_per_query", "us", "lower",
     "read_qps on batch-range; read_p50_ms on ingest-mixed (flat-view rebuilds)"),
    ("index.insert_us_per_row", "us", "lower", "write_rows_per_s on ingest-mixed"),
    ("segments.dedup_us_per_query", "us", "lower", "read_qps on batch-range"),
    ("storage.validate_us_per_query", "us", "lower", "read_qps on batch-range"),
    ("storage.append_us_per_row", "us", "lower", "write_rows_per_s on ingest-mixed"),
    ("durability.wal_append_us", "us", "lower",
     "write_p99_ms, write_rows_per_s on ingest-mixed"),
    ("durability.wal_bytes_per_row", "B/row", "lower", "write_rows_per_s on ingest-mixed"),
    ("durability.fsyncs", "count", "lower", "write_p99_ms on ingest-mixed"),
    ("loadgen.send_lag_p99_ms", "ms", "lower", "validity of the serve-zipf run"),
    ("trace.unattributed_share", "fraction", "lower", "validity of the traced run"),
    ("trace.overhead", "fraction", "lower", "validity of the traced run"),
]

# Per-op sums of a span's inclusive time, normalised by the op's requests.
PER_QUERY = {
    "planner.plan_us_per_query": "planner.plan_many",
    "core.candidates_us_per_query": "core.candidates",
    "core.trs_lookup_us_per_query": "core.trs_lookup",
    "core.outlier_lookup_us_per_query": "core.outlier_lookup",
    "index.host_probe_us_per_query": "index.probe",
    "segments.dedup_us_per_query": "segments.dedup",
    "storage.validate_us_per_query": "storage.validate",
}
# The same over insert ops, normalised by the op's rows.
PER_ROW = {
    "core.insert_us_per_row": "core.insert",
    "index.insert_us_per_row": "index.insert",
    "storage.append_us_per_row": "storage.append",
}
# Median duration of one call.
PER_CALL = {
    "serving.submit_us": "serving.submit",
    "cache.probe_us": "cache.probe",
    "cache.fill_us": "cache.fill",
    "epochs.read_wait_us": "epochs.read_wait",
    "durability.wal_append_us": "durability.wal_append",
}


def median(values) -> float:
    """Median of ``values``; 0.0 when there are none (an idle layer)."""
    return float(np.median(values)) if len(values) else 0.0


class Tracer:
    """Installs the layer wrappers and keeps the spans they record.

    ``spans`` holds ``(id, name, start, end, parent, root)`` tuples and
    ``ops`` maps each op span's id -- the batch or request id its spans
    share as their root -- to ``(name, units)``, units being the op's
    request or row count.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.ops: dict[int, tuple[str, int]] = {}
        self.write_holds: list[tuple[int, float]] = []
        self.queue_waits: list[float] = []
        self._submitted: dict[int, float] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._installed = False
        self._patches = [(owner, attribute, self._wrap(owner, attribute, name))
                         for owner, attribute, name in PROBES]
        self._patches += [
            (EpochManager, "read", self._epoch_probe(EpochManager.read, "read")),
            (EpochManager, "write", self._epoch_probe(EpochManager.write, "write")),
            (Server, "submit", self._submit_probe(Server.submit)),
            (Server, "_run_batch", self._batch_probe(Server._run_batch)),
        ]
        self._originals = [(owner, attribute, owner.__dict__[attribute])
                           for owner, attribute, _ in self._patches]

    # ------------------------------------------------------------ install

    def install(self) -> None:
        if not self._installed:
            for owner, attribute, wrapper in self._patches:
                setattr(owner, attribute, wrapper)
            self._installed = True

    def uninstall(self) -> None:
        if self._installed:
            for owner, attribute, original in self._originals:
                setattr(owner, attribute, original)
            self._installed = False

    @contextmanager
    def op(self, name: str, units: int) -> Iterator[None]:
        """Record one benchmark op as a root span."""
        span = self._enter()
        self.ops[span[0]] = (name, units)
        start = now()
        try:
            yield
        finally:
            self._exit(span, name, start, now())

    # ------------------------------------------------------------ recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> tuple[int, int, int]:
        """Open a span on this thread; returns (id, parent id, root id)."""
        stack = self._stack()
        span_id = next(self._ids)
        parent, root = stack[-1] if stack else (0, span_id)
        stack.append((span_id, root))
        return span_id, parent, root

    def _exit(self, span: tuple[int, int, int], name: str, start: float,
              end: float) -> None:
        self._stack().pop()
        self.spans.append((span[0], name, start, end, span[1], span[2]))

    def _call(self, name: str, function: Callable, args, kwargs):
        span = self._enter()
        start = now()
        try:
            return function(*args, **kwargs)
        finally:
            self._exit(span, name, start, now())

    def _current_root(self) -> int:
        stack = self._stack()
        return stack[-1][1] if stack else 0

    # ------------------------------------------------------------ wrappers

    def _wrap(self, owner, attribute: str, name: str) -> Callable:
        original = owner.__dict__[attribute]
        call = self._call

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return call(name, original, args, kwargs)

        return wrapper

    def _epoch_probe(self, original: Callable, side: str) -> Callable:
        """Span the acquisition; for the write side also time the hold.

        The hold is kept apart from the spans: it encloses the whole DML
        body, and as a span it would swallow every layer below it.
        """
        tracer = self

        @contextmanager
        def probe(manager):
            context = original(manager)
            epoch = tracer._call(f"epochs.{side}_wait", context.__enter__, (), {})
            acquired = now()
            try:
                yield epoch
            finally:
                context.__exit__(None, None, None)
                if side == "write":
                    tracer.write_holds.append((tracer._current_root(),
                                               now() - acquired))

        return probe

    def _submit_probe(self, original: Callable) -> Callable:
        tracer = self

        def submit(server, request):
            # Each request is a root op; its span id is the request id.
            start = now()
            with tracer.op("serving.submit", 1):
                future = original(server, request)
            tracer._submitted[id(future)] = start
            return future

        return submit

    def _batch_probe(self, original: Callable) -> Callable:
        """The worker's batch is a root op; its self time is the fan-out."""
        tracer = self

        def run_batch(server, batch):
            started = now()
            for _, future in batch:
                submitted = tracer._submitted.pop(id(future), None)
                if submitted is not None:
                    tracer.queue_waits.append(started - submitted)
            with tracer.op("serving.batch", len(batch)):
                return original(server, batch)

        return run_batch

    # ------------------------------------------------------------ analysis

    def summary(self) -> tuple[dict[str, float], dict[str, float]]:
        """Span-derived per-layer metrics, and each layer's self-time share.

        Spans whose root is not an op (calls that raced the swapping of the
        wrappers, or bookkeeping outside any op) are left out.
        """
        ops = self.ops
        spans = [span for span in self.spans if span[5] in ops]
        names = {span[0]: span[1] for span in spans}
        children: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in spans:
            children[parent] += end - start
        inclusive = defaultdict(lambda: defaultdict(float))
        own = defaultdict(lambda: defaultdict(float))
        calls = defaultdict(list)
        own_calls = defaultdict(list)
        layer_time: dict[str, float] = defaultdict(float)
        groups: dict[int, int] = defaultdict(int)
        planned: set[int] = set()
        root_time = 0.0
        for span_id, name, start, end, parent, root in spans:
            duration = end - start
            self_time = duration - children[span_id]
            inclusive[root][name] += duration
            own[root][name] += self_time
            calls[name].append(duration)
            own_calls[name].append(self_time)
            layer = ("unattributed" if name.startswith(GLUE_PREFIXES)
                     else name.split(".")[0])
            layer_time[layer] += self_time
            if span_id == root:
                root_time += duration
            if names.get(parent) == "engine.execute_many":
                if name == "executor.execute_plan_many":
                    groups[parent] += 1
                elif name == "planner.plan_many":
                    planned.add(parent)

        def per_op(kinds, span_name, table=inclusive) -> float:
            # Over the ops that reached the layer: served batches answered
            # wholly from the result cache never plan or execute.
            return median([table[root][span_name] / units * 1e6
                           for root, (kind, units) in ops.items()
                           if kind in kinds and span_name in table[root]])

        metrics = {metric: per_op(READ_OPS, span_name)
                   for metric, span_name in PER_QUERY.items()}
        metrics.update({metric: per_op(INSERT_OPS, span_name)
                        for metric, span_name in PER_ROW.items()})
        metrics.update({metric: median(calls[span_name]) * 1e6
                        for metric, span_name in PER_CALL.items()})
        metrics["executor.self_us_per_query"] = per_op(
            READ_OPS, "executor.execute_plan_many", own)
        metrics["serving.fanout_us"] = median(own_calls["serving.batch"]) * 1e6
        metrics["serving.queue_wait_us"] = median(self.queue_waits) * 1e6
        metrics["planner.groups_per_batch"] = median(
            [groups[parent] for parent in planned])
        metrics["epochs.write_hold_ms"] = median([
            hold for root, hold in self.write_holds
            if root in ops and ops[root][0] in INSERT_OPS
        ]) * 1e3
        shares = {layer: value / root_time if root_time else 0.0
                  for layer, value in sorted(layer_time.items())}
        metrics["trace.unattributed_share"] = shares.pop("unattributed", 0.0)
        return metrics, shares

    def write_spans(self, path: str) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, root in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "root": root,
                    "op": self.ops.get(root, ("",))[0],
                }) + "\n")
