"""Local multi-worker MapReduce runtime.

A job is map -> shuffle -> reduce over in-process workers. The engine
enforces the MapReduce contract: user functions communicate only through the
shuffle, the broadcast store, and accumulators; no reducer starts before all
mappers finish. Output is deterministic for any worker count: map emissions
are collected in task order, shuffle groups are sorted by key, and values
within a group are sorted by their serialized form before reduction.

Map tasks run on a thread pool, at most one thread per core, and each task
still runs as its worker, when the job asks for it (JobSpec.parallel); else
one worker after another on the caller's thread.
Reducers run on the caller's thread in one pass in key order, each with its
shard-named worker as current_worker().

Shuffle volume is measured by really serializing every mapper-emitted record
(pickle protocol 5), so byte counts are comparable across shard strategies.
"""

from __future__ import annotations

import contextvars
import gc
import os
import pickle
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Iterable, NamedTuple

__all__ = [
    "KeyedRecord",
    "JobSpec",
    "JobMetrics",
    "Accumulator",
    "BroadcastStore",
    "JobError",
    "BroadcastError",
    "run_job",
    "current_worker",
    "serialize_record",
    "METRICS_CSV_HEADER",
]


class KeyedRecord(NamedTuple):
    key: Any
    value: Any


class JobError(RuntimeError):
    """A user function raised; carries the stage and the failing key/record."""

    def __init__(self, stage, key, cause):
        super().__init__(f"{stage} failed on key {key!r}: {cause!r}")
        self.stage = stage
        self.key = key
        self.cause = cause


class BroadcastError(RuntimeError):
    pass


class Accumulator:
    """Thread-safe counter for user functions to report scalar work."""

    def __init__(self):
        self._n = 0
        self._lock = threading.Lock()

    def add(self, n=1):
        with self._lock:
            self._n += int(n)

    @property
    def value(self):
        return self._n


class BroadcastStore:
    """Write-once named payloads visible identically to every worker.

    A name is written at most once; a new payload takes a new store (or a
    new name), so a worker never sees a payload change under it.
    """

    def __init__(self):
        self._values = {}
        self._lock = threading.Lock()

    def put(self, name, payload):
        with self._lock:
            if name in self._values:
                raise BroadcastError(f"name {name!r} already broadcast")
            self._values[name] = payload

    def get(self, name):
        try:
            return self._values[name]
        except KeyError:
            raise BroadcastError(f"no broadcast payload named {name!r}") from None


@dataclass
class JobSpec:
    """One map-shuffle-reduce stage.

    mapper(record) and reducer(key, values) must be deterministic pure
    functions returning iterables of (key, value) pairs; shard_fn places each
    key group on a worker in [0, workers). map_affinity optionally pins input
    records to the worker where they already reside (modeling data locality
    from a previous stage); by default input is split into contiguous chunks.
    """

    mapper: Callable[[Any], Iterable[tuple]]
    reducer: Callable[[Any, list], Iterable[tuple]]
    shard_fn: Callable[[Any], int]
    workers: int = 1
    name: str = "job"
    ops: Accumulator | None = None
    map_affinity: Callable[[Any], int] | None = None
    # Run map tasks on real threads, at most one thread per core, and each
    # task still runs as its worker. Only map work coarse enough to amortize
    # GIL handoffs gains from it (in mrmul, the summation stage of a chunky
    # product); False runs the tasks one at a time on the caller's thread
    # with the same worker placement, metrics, and output. Reducers always
    # run on the caller's thread, one key at a time.
    parallel: bool = True


@dataclass
class JobMetrics:
    """Measured per-stage quantities; timings in milliseconds."""

    stage: str
    workers: int
    shuffle_bytes: int = 0
    cross_worker_bytes: int = 0
    records_per_worker: list = field(default_factory=list)
    map_ms: float = 0.0
    shuffle_ms: float = 0.0
    reduce_ms: float = 0.0
    scalar_ops: int = 0

    def to_csv_row(self):
        return (f"{self.stage},{self.shuffle_bytes},{self.map_ms:.3f},"
                f"{self.shuffle_ms:.3f},{self.reduce_ms:.3f},{self.scalar_ops},{self.workers}")


METRICS_CSV_HEADER = "stage,shuffle_bytes,map_ms,shuffle_ms,reduce_ms,scalar_ops,workers"

_worker_ctx = threading.local()


def current_worker():
    """Index of the worker running the current map/reduce task, else None."""
    return getattr(_worker_ctx, "worker", None)


def serialize_record(key, value) -> bytes:
    """The instrumented shuffle serializer; shuffle_bytes sums its output sizes."""
    return pickle.dumps((key, value), protocol=5)


def _map_task(chunk, mapper, stage, worker):
    _worker_ctx.worker = worker
    out = []
    append = out.append
    try:
        for rec in chunk:
            try:
                emitted = mapper(rec)
            except Exception as exc:
                raise JobError(f"{stage}/map", rec, exc) from exc
            if emitted:
                for key, value in emitted:
                    append((serialize_record(key, value), key, value))
    finally:
        _worker_ctx.worker = None
    return worker, out


def _run_tasks(task_fn, n_workers, args_per_worker, parallel):
    if n_workers == 1 or not parallel:
        return [task_fn(*args) for args in args_per_worker]
    # each task runs in a copy of the caller's context, so context-scoped
    # settings such as numpy's errstate hold on the pool's threads as well
    with ThreadPoolExecutor(max_workers=min(n_workers, os.cpu_count() or 1)) as pool:
        futures = [pool.submit(contextvars.copy_context().run, task_fn, *args)
                   for args in args_per_worker]
        return [f.result() for f in futures]


def _sorted_keys(groups, stage):
    """The group keys in ascending order. Keys that cannot be ordered against
    each other raise a JobError naming one of them."""
    try:
        return sorted(groups)
    except TypeError as exc:
        first = bad = next(iter(groups))
        for key in groups:
            try:
                first < key  # raises for the first key unorderable against the first
            except TypeError:
                bad = key
                break
        raise JobError(stage, bad, exc) from exc


def run_job(spec: JobSpec, records) -> tuple[list[KeyedRecord], JobMetrics]:
    """Execute one job; returns key-sorted output and stage metrics.

    The output equals the sequential reference semantics (map everything,
    group by key, reduce each group in key order) for every worker count.
    """
    # A job allocates a few tuples per record and frees them by reference
    # counting. Those allocations would start the cyclic collector every few
    # hundred records, only for it to rescan the job's live records, so it
    # waits until the job ends.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(spec, records)
    finally:
        if collecting:
            gc.enable()


def _run(spec: JobSpec, records) -> tuple[list[KeyedRecord], JobMetrics]:
    if spec.workers < 1:
        raise ValueError("workers must be >= 1")
    records = records if isinstance(records, list) else list(records)
    nw = spec.workers
    ops_before = spec.ops.value if spec.ops is not None else 0

    t0 = time.perf_counter()
    # Only workers that get input have a chunk, so the map stage's memory
    # does not grow with the worker count. Without an affinity, the n records
    # are cut into contiguous chunks: worker w maps n*w//nw up to n*(w+1)//nw.
    chunks = {}
    for i, rec in enumerate(records):
        w = spec.map_affinity(rec) if spec.map_affinity else ((i + 1) * nw - 1) // len(records)
        if not 0 <= w < nw:
            raise JobError(f"{spec.name}/map", rec, ValueError(f"affinity {w} outside 0..{nw - 1}"))
        chunks.setdefault(w, []).append(rec)
    map_out = _run_tasks(_map_task, nw, [(chunks[w], spec.mapper, spec.name, w) for w in sorted(chunks)],
                         spec.parallel)
    t1 = time.perf_counter()

    # Shuffle: a key's worker is a pure function of the key, so it is fixed
    # when the key's group is created; a record's bytes change workers when
    # the worker that emitted it is not its key's.
    groups: dict[Any, tuple] = {}
    shuffle_bytes = cross_worker_bytes = 0
    for src_worker, out in map_out:
        for blob, key, value in out:
            group = groups.get(key)
            if group is None:
                group = groups[key] = (spec.shard_fn(key), [])
            group[1].append((blob, value))
            shuffle_bytes += len(blob)
            if group[0] != src_worker:
                cross_worker_bytes += len(blob)
    ordered_keys = _sorted_keys(groups, f"{spec.name}/shuffle")
    records_per_worker = [0] * nw
    for key in ordered_keys:
        dest, bucket = groups[key]
        if not 0 <= dest < nw:
            raise JobError(f"{spec.name}/shuffle", key, ValueError(f"shard {dest} outside 0..{nw - 1}"))
        records_per_worker[dest] += len(bucket)
        bucket.sort(key=itemgetter(0))
        groups[key] = (dest, [value for _, value in bucket])
    t2 = time.perf_counter()

    # Reducers run one key at a time in key order, each on its key's worker,
    # so a failure names the first failing key whatever the worker count.
    output = []
    try:
        for key in ordered_keys:
            _worker_ctx.worker, values = groups[key]
            try:
                output.extend(KeyedRecord(k, v) for k, v in spec.reducer(key, values))
            except Exception as exc:
                raise JobError(f"{spec.name}/reduce", key, exc) from exc
    finally:
        _worker_ctx.worker = None
    t3 = time.perf_counter()

    metrics = JobMetrics(
        stage=spec.name,
        workers=nw,
        shuffle_bytes=shuffle_bytes,
        cross_worker_bytes=cross_worker_bytes,
        records_per_worker=records_per_worker,
        map_ms=(t1 - t0) * 1e3,
        shuffle_ms=(t2 - t1) * 1e3,
        reduce_ms=(t3 - t2) * 1e3,
        scalar_ops=(spec.ops.value - ops_before) if spec.ops is not None else 0,
    )
    return output, metrics
