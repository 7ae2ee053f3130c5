"""The benchmark's workloads, run against the public ``repro`` API.

Every workload loads Synthetic-Linear (``repro.workloads.synthetic``, 1 %
noise) with the pre-existing B+-tree on ``colB`` and builds Hermit on
``colC`` hosted by it.  Inputs come from the seed alone; the engine only
sees the generated requests and rows.

* ``batch-range`` -- closed loop, one caller, result cache off: each op is
  one ``Database.execute_many`` of 256 ``colC`` requests (1/2 ranges at
  selectivity 1e-4, 1/4 points, 1/4 ``colC`` and ``colB`` conjunctions).
  Planner, TRS translation, host probe, dedup and validation do the work.
* ``serve-zipf`` -- open loop at a fixed offered rate through a
  default-config ``repro.serving.Server`` with the result cache on.  A
  schedule of Poisson arrivals drawing Zipf(1.1) from a pool of distinct
  ``colC`` points and ranges is fixed up front; one thread sends on it,
  completions are timestamped as they resolve, and latency runs from each
  request's due time.
* ``ingest-mixed`` -- closed loop, one caller, WAL on (``FsyncPolicy.BATCH``)
  and result cache on: each step inserts 500 correlated rows with 5 % noise,
  updates and deletes a few random rows, expires the oldest rows so that as
  many leave as came in, then reads 64 ``colC`` ranges.

BENCHMARK.json lists serve-zipf and ingest-mixed.  batch-range runs the same
way but is left out of it: a CPU-bound closed loop of ~10 ms ops, its
per-run median moves by up to 2x on a shared 2-core machine whose speed
changes for seconds at a time, more than any bound could absorb.

The two read-only workloads give two fifths of the measured time to a
closed loop of 500-row ``insert_many`` batches (1 % noise), each followed by
the expiry of the 500 oldest rows, so that every workload reports the write
metrics, after every read is timed.  Batches of 100 rows were
overhead-bound, and their p50 moved by a quarter between runs where the
500-row one held within a few per cent.  One contiguous phase, not two at
either end of the run: this machine runs for minutes in a fast or a slow
state, and the p50 of writes drawn from both jumps between the two modes.

Every write loop keeps the live table at its loaded size.  A table that grew
through the run made each op dearer than the last (ingest-mixed's reads rose
by half over a 40 s run), so a run's medians depended on how many ops the
host got through.
"""

from __future__ import annotations

import functools
import gc
import itertools
import os
import platform
import resource
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.cache.result_cache import ResultCacheConfig
from repro.durability.config import DurabilityConfig, FsyncPolicy
from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.engine.query import QueryRequest, RangePredicate
from repro.errors import ReproError
from repro.serving.server import Server
from repro.workloads.synthetic import (
    TABLE_NAME,
    TARGET_DOMAIN,
    correlation_for,
    generate_synthetic,
    load_synthetic,
)

from oracle import Shadow, matches
from tracing import LAYER_METRICS, Tracer, median

now = time.perf_counter
HERMIT_INDEX = "idx_colC"
SELECTIVITY = 1e-4
ZIPF_EXPONENT = 1.1
FSYNC = FsyncPolicy.BATCH
# Open-loop requests still unanswered this long after the last one was due
# count as failed.
GRACE_S = 5.0
HOST_FUNCTION = correlation_for("linear")


@dataclass(frozen=True)
class Size:
    """Scale of a run; ``FULL`` is what is measured, ``TINY`` is for tests."""

    rows: int
    setups: int
    warmup_s: float
    warmup_steps: int
    batch: int
    batches: int
    pool: int
    rate: float
    insert_rows: int
    step_reads: int
    updates: int
    deletes: int
    write_share: float
    check_every: int
    check_limit: int


# ingest-mixed warms up by steps: its first ~50 steps at 300k rows read
# through per-range B+-tree walks, until the skipped work pays for the host
# tree's flat leaf view, which every later read after a write rebuilds.
FULL = Size(rows=300_000, setups=3, warmup_s=1.0, warmup_steps=64, batch=256,
            batches=256, pool=4096, rate=500.0, insert_rows=500,
            step_reads=64, updates=2, deletes=2, write_share=0.4,
            check_every=4, check_limit=1_024)
TINY = Size(rows=6_000, setups=2, warmup_s=0.2, warmup_steps=4, batch=32,
            batches=8, pool=128, rate=300.0, insert_rows=50,
            step_reads=8, updates=2, deletes=2, write_share=0.2,
            check_every=2, check_limit=256)


@dataclass
class Run:
    """What one workload run measured."""

    end_to_end: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    shares: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    meta: dict = field(default_factory=dict)
    tracer: Tracer | None = None


# ---------------------------------------------------------------- set-up


@dataclass
class Loaded:
    database: Database
    columns: dict[str, np.ndarray]
    setup_s: list[float]
    wal_dir: str | None
    gc_collections: list[int] = field(default_factory=list)


def set_up(size: Size, seed: int, *, cache: bool,
           workdir: str | None = None) -> Loaded:
    """Build the database ``size.setups`` times and keep the last build.

    Each build is timed from data generation to the end of the Hermit
    build.  ``workdir`` turns the write-ahead log on, in a fresh directory
    per build.
    """
    setup_s: list[float] = []
    loaded: Loaded | None = None
    for _ in range(size.setups):
        if loaded is not None:
            discard(loaded)
            loaded = None
            gc.collect()
        wal_dir = (tempfile.mkdtemp(prefix="wal-", dir=workdir)
                   if workdir is not None else None)
        started = now()
        dataset = generate_synthetic(size.rows, "linear", noise_fraction=0.01,
                                     seed=seed)
        database = Database(
            durability=(DurabilityConfig(wal_dir, fsync=FSYNC)
                        if wal_dir is not None else None),
            result_cache=ResultCacheConfig() if cache else None,
        )
        load_synthetic(database, dataset)
        database.create_index(HERMIT_INDEX, TABLE_NAME, "colC",
                              method=IndexMethod.HERMIT, host_column="colB")
        setup_s.append(now() - started)
        loaded = Loaded(database, dataset.columns, setup_s, wal_dir)
    freeze_heap()
    loaded.gc_collections = gc_collections()
    return loaded


def freeze_heap() -> None:
    """Move every live object out of the cyclic GC's reach.

    The built database holds millions of objects; a full GC pass over them
    stalls the process for 0.1-0.3 s, and whether one lands in the timed
    window is chance.  Freezing after set-up and after warm-up keeps those
    passes out of the measurements; objects made while measuring are still
    collected, and the run record counts the collections.
    """
    gc.collect()
    gc.freeze()


def gc_collections() -> list[int]:
    return [generation["collections"] for generation in gc.get_stats()]


def discard(loaded: Loaded) -> None:
    """Close the database and delete its write-ahead log, if any."""
    loaded.database.close()
    if loaded.wal_dir is not None:
        shutil.rmtree(loaded.wal_dir, ignore_errors=True)


def range_width() -> float:
    low, high = TARGET_DOMAIN
    return (high - low) * SELECTIVITY


def random_lows(rng: np.random.Generator, count: int) -> np.ndarray:
    low, high = TARGET_DOMAIN
    return rng.uniform(low, high - range_width(), size=count)


def range_request(low: float) -> QueryRequest:
    return QueryRequest.range(TABLE_NAME, "colC", low, low + range_width())


# ---------------------------------------------------------------- metrics


def percentiles_ms(latencies) -> tuple[float, float]:
    values = np.asarray(latencies) * 1e3
    return float(np.percentile(values, 50)), float(np.percentile(values, 99))


def read_metrics(queries: int, latencies: list[float]) -> dict[str, float]:
    """Closed loop: queries over the time spent in read calls."""
    p50, p99 = percentiles_ms(latencies)
    return {"read_qps": queries / sum(latencies), "read_p50_ms": p50,
            "read_p99_ms": p99}


def index_bytes_per_row(database: Database) -> float:
    """Hermit's bytes per live row.

    Each workload takes it at a fixed point of its run (before its timed
    writes, or after its warm-up writes), so that it depends on the seed
    alone and not on how many ops the host got through.
    """
    report = database.memory_report(TABLE_NAME)
    live = database.table(TABLE_NAME).num_rows
    return report.components["new_indexes"] / live


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def hermit_gauges(database: Database) -> dict[str, float]:
    entry = database.catalog.table_entry(TABLE_NAME).indexes[HERMIT_INDEX]
    tree = entry.mechanism.trs_tree
    return {"core.trs_leaves": float(tree.num_leaves),
            "core.outliers": float(tree.num_outliers),
            "core.pending_reorgs": float(tree.pending_reorganizations)}


class FalsePositives:
    """Observed Hermit false-positive ratio over the results of a run.

    Requests of one plan group share one breakdown object, counted once per
    ``add`` (object ids are only unique among live objects); cache hits
    carry no plan and did no candidate work.
    """

    def __init__(self) -> None:
        self.candidates = 0
        self.results = 0

    def add(self, results) -> None:
        seen: set[int] = set()
        for result in results:
            breakdown = result.breakdown
            if (result.plan is None or result.used_index != HERMIT_INDEX
                    or id(breakdown) in seen):
                continue
            seen.add(id(breakdown))
            self.candidates += breakdown.candidates
            self.results += breakdown.results

    @property
    def ratio(self) -> float:
        if not self.candidates:
            return 0.0
        return (self.candidates - self.results) / self.candidates


class Counters:
    """Deltas of the engine's own counters since construction."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self.cache = database.result_cache_info()
        self.planner = database.planner_cache_stats()
        self.wal = database.durability_stats()

    def layers(self, rows_written: int) -> dict[str, float]:
        cache = self.database.result_cache_info()
        planner = self.database.planner_cache_stats()
        wal = self.database.durability_stats()
        hits = cache.hits - self.cache.hits
        probes = hits + cache.misses - self.cache.misses
        plan_hits = planner.hits - self.planner.hits
        plans = plan_hits + planner.misses - self.planner.misses
        wal_bytes = wal.wal_bytes - self.wal.wal_bytes
        return {
            "cache.hit_ratio": hits / probes if probes else 0.0,
            "cache.stale_evictions": float(cache.stale_evictions
                                           - self.cache.stale_evictions),
            "cache.bytes": float(cache.bytes),
            "planner.cache_hit_ratio": plan_hits / plans if plans else 0.0,
            "durability.wal_bytes_per_row": (wal_bytes / rows_written
                                             if rows_written else 0.0),
            "durability.fsyncs": float(wal.fsyncs - self.wal.fsyncs),
        }


def finish_layers(run: Run, tracer: Tracer, extra: dict[str, float]) -> None:
    """Every per-layer metric: 0 for a layer the workload leaves idle."""
    spans, run.shares = tracer.summary()
    run.layers = {name: 0.0 for name, *_ in LAYER_METRICS}
    run.layers.update(spans)
    run.layers.update(extra)
    run.tracer = tracer


# ---------------------------------------------------------------- closed loops


class Alternator:
    """Closed-loop op timing; with a tracer every other step runs traced.

    Interleaving traced and untraced steps on the same evolving state makes
    the ratio of their mean times the tracing overhead.  The wrappers are
    swapped in and out outside the timed interval.
    """

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.steps = 0
        self.step_times: dict[bool, list[float]] = {False: [], True: []}

    def tracing(self) -> bool:
        return self.tracer is not None and self.steps % 2 == 1

    def call(self, name: str, units: int, database: Database, method: str,
             *args):
        """Run one ``Database`` call as an op.

        The method is looked up after the wrappers are swapped in.  Returns
        ``(result or the ReproError raised, seconds)``.
        """
        traced = self.tracing()
        if traced:
            self.tracer.install()
        started = now()
        try:
            if traced:
                with self.tracer.op(name, units):
                    result = getattr(database, method)(*args)
            else:
                result = getattr(database, method)(*args)
        except ReproError as error:
            result = error
        elapsed = now() - started
        if traced:
            self.tracer.uninstall()
        return result, elapsed

    def step_done(self, seconds: float) -> None:
        self.step_times[self.tracing()].append(seconds)
        self.steps += 1

    def overhead(self) -> float:
        plain, traced = self.step_times[False], self.step_times[True]
        if not plain or not traced:
            return 0.0
        return float(np.mean(traced) / np.mean(plain) - 1.0)


class Session:
    """A loaded database, its oracle, and the run's op accounting.

    Every DML call goes through here so that the shadow follows exactly the
    changes the engine accepted.
    """

    def __init__(self, loaded: Loaded, rng: np.random.Generator,
                 size: Size) -> None:
        self.database = loaded.database
        self.shadow = Shadow(loaded.columns)
        self.rng = rng
        self.size = size
        self.run = Run()
        self.next_key = size.rows
        self.next_expiry = 0
        self.insert_latencies: list[float] = []
        self.rows_written = 0
        self.dml_seconds = 0.0

    def tally(self, result, count: int = 1) -> bool:
        """Count ``count`` ops as attempted; True when they failed."""
        self.run.attempted += count
        if isinstance(result, ReproError):
            self.run.failed += count
            return True
        return False

    def insert(self, loop: Alternator, count: int, noise: float) -> float:
        rows = generate_synthetic(count, "linear", noise_fraction=noise,
                                  seed=int(self.rng.integers(2**31))).columns
        rows["colA"] = np.arange(self.next_key, self.next_key + count,
                                 dtype=np.float64)
        self.next_key += count
        locations, elapsed = loop.call("op.insert", count, self.database,
                                       "insert_many", TABLE_NAME, rows)
        self.dml_seconds += elapsed
        if not self.tally(locations):
            self.shadow.insert(locations, rows)
            self.insert_latencies.append(elapsed)
            self.rows_written += count
        return elapsed

    def expire(self, loop: Alternator, count: int) -> float:
        """Delete the ``count`` oldest live rows, one ``delete`` call each.

        Every write loop expires as many rows as it adds, so the live table
        keeps its size: each op then costs the same at any point of a run,
        and how many ops a run gets through does not move its metrics.  The
        expiry is the benchmark's housekeeping, not part of a workload's
        writes: the write metrics leave it out.  Returns its seconds.
        """
        total = 0.0
        for _ in range(count):
            while not self.shadow.is_live(self.next_expiry):
                self.next_expiry += 1
            location = self.next_expiry
            outcome, elapsed = loop.call("op.expire", 1, self.database,
                                         "delete", TABLE_NAME, location)
            total += elapsed
            if not self.tally(outcome):
                self.shadow.delete(location)
        return total

    def live_location(self) -> int:
        while True:
            location = int(self.rng.integers(self.shadow.num_slots))
            if self.shadow.is_live(location):
                return location

    def update(self, loop: Alternator) -> float:
        """Move a row to a new ``colC`` value and its correlated ``colB``."""
        location = self.live_location()
        target = float(self.rng.uniform(*TARGET_DOMAIN))
        changes = {"colC": target, "colB": float(HOST_FUNCTION(target))}
        outcome, elapsed = loop.call("op.update", 1, self.database, "update",
                                     TABLE_NAME, location, changes)
        self.dml_seconds += elapsed
        if not self.tally(outcome):
            self.shadow.update(location, changes)
        return elapsed

    def delete(self, loop: Alternator) -> float:
        location = self.live_location()
        outcome, elapsed = loop.call("op.delete", 1, self.database, "delete",
                                     TABLE_NAME, location)
        self.dml_seconds += elapsed
        if not self.tally(outcome):
            self.shadow.delete(location)
        return elapsed

    def restart_write_accounting(self) -> None:
        self.insert_latencies.clear()
        self.rows_written = 0
        self.dml_seconds = 0.0

    def check(self, requests, results) -> None:
        """Compare results with the oracle (outside any timed interval)."""
        self.run.wrong += self.shadow.count_wrong(requests, results)

    def write_phase(self, loop: Alternator, seconds: float) -> None:
        """Closed loop of inserts, each followed by the expiry of as many
        old rows, then one checked read of what they wrote."""
        measured = 0.0
        while measured < seconds:
            elapsed = self.insert(loop, self.size.insert_rows, noise=0.01)
            elapsed += self.expire(loop, self.size.insert_rows)
            loop.step_done(elapsed)
            measured += elapsed
        requests = [range_request(low) for low in
                    random_lows(self.rng, self.size.step_reads).tolist()]
        results = self.database.execute_many(requests)
        self.run.attempted += len(requests)
        self.check(requests, results)

    def write_metrics(self) -> dict[str, float]:
        """Rows inserted over the time spent in the workload's DML calls
        (expiry left out); latency per ``insert_many``."""
        p50, p99 = percentiles_ms(self.insert_latencies)
        return {"write_rows_per_s": self.rows_written / self.dml_seconds,
                "write_p50_ms": p50, "write_p99_ms": p99}

    def meta(self, seed: int, seconds: float, loaded: Loaded) -> dict:
        """Run metadata shared by every workload."""
        return {
            "seed": seed, "seconds": seconds, "rows": self.size.rows,
            "setups": self.size.setups, "setup_s_samples": loaded.setup_s,
            "selectivity": SELECTIVITY,
            "write_samples": len(self.insert_latencies),
            "gc_collections_per_generation_after_setup": [
                count - before for count, before
                in zip(gc_collections(), loaded.gc_collections)],
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
        }


# ---------------------------------------------------------------- batch-range


def make_batch(rng: np.random.Generator, targets: np.ndarray,
               count: int) -> list[QueryRequest]:
    """1/2 ranges, 1/4 points on stored values, 1/4 conjunctions, shuffled."""
    quarter = count // 4
    kinds = rng.permutation(np.repeat([0, 1, 2],
                                      [count - 2 * quarter, quarter, quarter]))
    lows = random_lows(rng, count)
    points = targets[rng.integers(0, targets.size, size=count)]
    width = range_width()
    requests = []
    for kind, low, point in zip(kinds.tolist(), lows.tolist(), points.tolist()):
        if kind == 0:
            requests.append(range_request(low))
        elif kind == 1:
            requests.append(QueryRequest.point(TABLE_NAME, "colC", point))
        else:
            # A colB range around the correlated image of the colC range,
            # widened so that noisy rows can fall on either side.
            requests.append(QueryRequest.conjunctive(TABLE_NAME, [
                RangePredicate("colC", low, low + width),
                RangePredicate("colB", float(HOST_FUNCTION(low)) - width,
                               float(HOST_FUNCTION(low + width)) + width),
            ]))
    return requests


def make_batches(rng: np.random.Generator, loaded: Loaded,
                 size: Size) -> list[list[QueryRequest]]:
    # Batches are drawn once and cycled: building requests costs a third
    # of executing them, and with the result cache off the engine keeps
    # nothing per request.
    return [make_batch(rng, loaded.columns["colC"], size.batch)
            for _ in range(size.batches)]


def warm_read_paths(database: Database,
                    batches: list[list[QueryRequest]], size: Size) -> None:
    """Run batch-range batches for ``size.warmup_s``, untimed.

    Lazy structures of the read path (the host B+-tree's flat leaf view is
    built only once enough batch work has gone through it) are then in
    place before anything is timed.
    """
    warm_until = now() + size.warmup_s
    for batch in itertools.cycle(batches):
        if now() >= warm_until:
            break
        database.execute_many(batch)


def batch_range(size: Size, seed: int, seconds: float, trace: bool,
                workdir: str) -> Run:
    del workdir  # no write-ahead log
    loaded = set_up(size, seed, cache=False)
    session = Session(loaded, np.random.default_rng([seed, 1]), size)
    database, run = session.database, session.run
    batches = make_batches(session.rng, loaded, size)
    warm_read_paths(database, batches, size)
    freeze_heap()

    tracer = Tracer() if trace else None
    loop = Alternator(tracer)
    counters = Counters(database)
    false_positives = FalsePositives()
    latencies: list[float] = []
    kept: list[tuple] = []
    measured = 0.0
    while measured < seconds * (1 - size.write_share):
        requests = batches[loop.steps % len(batches)]
        results, elapsed = loop.call("op.read", len(requests),
                                     database, "execute_many", requests)
        loop.step_done(elapsed)
        measured += elapsed
        if session.tally(results, len(requests)):
            continue
        latencies.append(elapsed)
        false_positives.add(results)
        if loop.steps % size.check_every == 0 and len(kept) < size.check_limit:
            # A fixed sample: every 16th request, at a rotating offset.
            offset = (loop.steps // size.check_every) % 16
            kept.extend(zip(requests[offset::16], results[offset::16]))
    if kept:
        session.check(*zip(*kept))
    index_bytes = index_bytes_per_row(database)
    session.write_phase(loop, seconds * size.write_share)

    run.end_to_end = {
        "setup_s": median(loaded.setup_s),
        **read_metrics(size.batch * len(latencies), latencies),
        **session.write_metrics(),
        "index_bytes_per_row": index_bytes, "peak_rss_mb": peak_rss_mb(),
    }
    run.meta = {**session.meta(seed, seconds, loaded),
                "loop": "closed, 1 caller", "warmup_s": size.warmup_s,
                "batch_requests": size.batch, "distinct_batches": size.batches,
                "write_phase_insert_rows": size.insert_rows,
                "write_phase_share": size.write_share,
                "result_cache": False, "fsync": None,
                "read_samples": len(latencies), "checked_requests": len(kept)}
    if tracer is not None:
        finish_layers(run, tracer, {
            **counters.layers(session.rows_written), **hermit_gauges(database),
            "core.fp_ratio": false_positives.ratio,
            "trace.overhead": loop.overhead(),
        })
    discard(loaded)
    return run


# ---------------------------------------------------------------- serve-zipf


def make_pool(rng: np.random.Generator, targets: np.ndarray,
              count: int) -> list[QueryRequest]:
    """Distinct requests: half points on stored values, half ranges."""
    points = rng.choice(np.unique(targets), size=count // 2, replace=False)
    lows = random_lows(rng, count - count // 2)
    return ([QueryRequest.point(TABLE_NAME, "colC", value)
             for value in points.tolist()]
            + [range_request(low) for low in lows.tolist()])


def zipf_schedule(rng: np.random.Generator, pool_size: int, rate: float,
                  duration: float) -> tuple[np.ndarray, np.ndarray]:
    """Poisson arrival times in [0, duration) and Zipf(1.1) pool picks."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.5) + 64)
    due = np.cumsum(gaps)
    due = due[due < duration]
    weights = (rng.permutation(pool_size) + 1.0) ** -ZIPF_EXPONENT
    picks = rng.choice(pool_size, size=due.size, p=weights / weights.sum())
    return due, picks


def serve_zipf(size: Size, seed: int, seconds: float, trace: bool,
               workdir: str) -> Run:
    del workdir  # no write-ahead log
    loaded = set_up(size, seed, cache=True)
    session = Session(loaded, np.random.default_rng([seed, 2]), size)
    database, run = session.database, session.run
    index_bytes = index_bytes_per_row(database)
    pool = make_pool(session.rng, loaded.columns["colC"], size.pool)
    read_seconds = seconds * (1 - size.write_share)
    due, picks = zipf_schedule(session.rng, len(pool), size.rate,
                               size.warmup_s + read_seconds)
    tracer = Tracer() if trace else None
    # Build the lazy read-path structures first; the open-loop warm-up
    # that follows fills the result cache with the Zipf head.
    warm_read_paths(database, make_batches(session.rng, loaded, size), size)
    freeze_heap()
    count = due.size
    # The second half of the measured window runs traced.
    trace_from = size.warmup_s + read_seconds / 2 if trace else np.inf
    sent = np.full(count, np.nan)
    done = np.full(count, np.nan)
    results: list = [None] * count
    unresolved = [count]
    lock = threading.Lock()
    all_resolved = threading.Event()
    snapshots: dict = {}
    server = Server(database)
    first_measured = int(np.searchsorted(due, size.warmup_s))
    start = now() + 0.05

    def resolved(position: int, future) -> None:
        # Runs on the thread that resolves the future, the moment it does:
        # a collector thread blocked on each future would only wake once
        # the server's worker yields the interpreter lock, adding up to a
        # switch interval to every measured latency.  Only a sample of the
        # results is kept for the oracle: holding every one would make each
        # cyclic-GC pass, and so the latency tail, grow with the run.
        if future.exception() is None:
            done[position] = now()
            if position % size.check_every == 0:
                results[position] = future.result()
        with lock:
            unresolved[0] -= 1
            if unresolved[0] == 0:
                all_resolved.set()

    def generate() -> None:
        for position in range(count):
            if position == first_measured:
                snapshots["counters"] = Counters(database)
                snapshots["server"] = server.stats()
            delay = start + due[position] - now()
            if delay > 0:
                time.sleep(delay)
            sent[position] = now()
            request = pool[picks[position]]
            if due[position] >= trace_from:
                tracer.install()
            future = server.submit(request)
            future.add_done_callback(functools.partial(resolved, position))

    generator = threading.Thread(target=generate, name="perfbench-generator")
    generator.start()
    generator.join()
    # Requests unanswered by then, or never sent, count as failed.
    all_resolved.wait(timeout=max(0.0, start + due[-1] + GRACE_S - now()))
    server_stats = server.stats()
    if tracer is not None:
        tracer.uninstall()
        read_counters = snapshots["counters"].layers(0)
    server.close()

    measured = due >= size.warmup_s
    answered = measured & ~np.isnan(done)
    latency = done - (start + due)
    run.attempted += int(measured.sum())
    run.failed += int((measured & np.isnan(done)).sum())
    # The oracle answers every pool entry once; the kept sample of served
    # answers is checked, and then the whole pool once more through the
    # engine.
    answers = [session.shadow.answer(request.query) for request in pool]
    served = [position for position in range(count)
              if results[position] is not None]
    run.wrong += sum(not matches(results[position], answers[picks[position]])
                     for position in served)
    sweep = database.execute_many(pool)
    run.attempted += len(pool)
    run.wrong += sum(not matches(result, expected)
                     for result, expected in zip(sweep, answers))
    session.write_phase(Alternator(tracer), seconds * size.write_share)

    p50, p99 = percentiles_ms(latency[answered])
    read_span = np.nanmax(done[measured]) - (start + size.warmup_s)
    run.end_to_end = {
        "setup_s": median(loaded.setup_s),
        "read_qps": float(answered.sum() / read_span),
        "read_p50_ms": p50, "read_p99_ms": p99,
        **session.write_metrics(),
        "index_bytes_per_row": index_bytes, "peak_rss_mb": peak_rss_mb(),
    }
    send_lag_p99 = float(np.percentile((sent - (start + due))[measured], 99)
                         * 1e3)
    run.meta = {**session.meta(seed, seconds, loaded),
                "loop": "open, Poisson arrivals", "warmup_s": size.warmup_s,
                "offered_qps": size.rate, "pool_requests": size.pool,
                "write_phase_insert_rows": size.insert_rows,
                "write_phase_share": size.write_share,
                "zipf_exponent": ZIPF_EXPONENT, "result_cache": True,
                "fsync": None, "server": "ServerConfig() defaults",
                "read_samples": int(answered.sum()),
                "send_lag_p99_ms": send_lag_p99,
                "checked_requests": len(served) + len(pool)}
    if tracer is not None:
        before = snapshots["server"]
        batches = server_stats.batches - before.batches
        false_positives = FalsePositives()
        false_positives.add([results[position] for position in served
                             if due[position] >= size.warmup_s])
        traced = answered & (due >= trace_from)
        plain = answered & (due < trace_from)
        finish_layers(run, tracer, {
            **read_counters, **hermit_gauges(database),
            "serving.mean_batch": ((server_stats.requests - before.requests)
                                   / batches if batches else 0.0),
            "core.fp_ratio": false_positives.ratio,
            "loadgen.send_lag_p99_ms": send_lag_p99,
            "trace.overhead": float(latency[traced].mean()
                                    / latency[plain].mean() - 1.0),
        })
    discard(loaded)
    return run


# ---------------------------------------------------------------- ingest-mixed


def ingest_mixed(size: Size, seed: int, seconds: float, trace: bool,
                 workdir: str) -> Run:
    loaded = set_up(size, seed, cache=True, workdir=workdir)
    session = Session(loaded, np.random.default_rng([seed, 3]), size)
    database, run = session.database, session.run
    checked = 0

    def step(loop: Alternator, read_latencies: list[float]) -> tuple[float, list]:
        """One insert batch, a few updates and deletes, one read batch.

        Returns the step's time in engine calls and its read results.
        """
        nonlocal checked
        total = session.insert(loop, size.insert_rows, noise=0.05)
        for _ in range(size.updates):
            total += session.update(loop)
        for _ in range(size.deletes):
            total += session.delete(loop)
        total += session.expire(loop, size.insert_rows - size.deletes)
        requests = [range_request(low) for low in
                    random_lows(session.rng, size.step_reads).tolist()]
        results, elapsed = loop.call("op.read", len(requests),
                                     database, "execute_many", requests)
        total += elapsed
        loop.step_done(total)
        if session.tally(results, len(requests)):
            return total, []
        read_latencies.append(elapsed)
        if loop.steps % size.check_every == 0:
            checked += len(requests)
            session.check(requests, results)
        return total, results

    warm_loop = Alternator(None)
    for _ in range(size.warmup_steps):
        step(warm_loop, [])
    session.restart_write_accounting()
    index_bytes = index_bytes_per_row(database)
    freeze_heap()

    tracer = Tracer() if trace else None
    loop = Alternator(tracer)
    read_latencies: list[float] = []
    counters = Counters(database)
    false_positives = FalsePositives()
    measured = 0.0
    while measured < seconds:
        elapsed, results = step(loop, read_latencies)
        measured += elapsed
        false_positives.add(results)

    run.end_to_end = {
        "setup_s": median(loaded.setup_s),
        **read_metrics(size.step_reads * len(read_latencies), read_latencies),
        **session.write_metrics(),
        "index_bytes_per_row": index_bytes, "peak_rss_mb": peak_rss_mb(),
    }
    run.meta = {**session.meta(seed, seconds, loaded),
                "loop": "closed, 1 caller", "warmup_steps": size.warmup_steps,
                "insert_rows": size.insert_rows, "insert_noise": 0.05,
                "updates_per_step": size.updates,
                "deletes_per_step": size.deletes,
                "expired_rows_per_step": size.insert_rows - size.deletes,
                "read_ranges_per_step": size.step_reads,
                "result_cache": True, "fsync": FSYNC.value,
                "fsync_interval": database.durability.config.fsync_interval,
                "steps": loop.steps, "read_samples": len(read_latencies),
                "checked_requests": checked}
    if tracer is not None:
        finish_layers(run, tracer, {
            **counters.layers(session.rows_written), **hermit_gauges(database),
            "core.fp_ratio": false_positives.ratio,
            "trace.overhead": loop.overhead(),
        })
    discard(loaded)
    return run


WORKLOADS = {
    "batch-range": batch_range,
    "serve-zipf": serve_zipf,
    "ingest-mixed": ingest_mixed,
}
