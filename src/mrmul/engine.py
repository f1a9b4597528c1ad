"""Local multi-worker MapReduce runtime.

A job is map -> shuffle -> reduce over in-process workers. The engine
enforces the MapReduce contract: user functions communicate only through the
shuffle, the broadcast store, and accumulators; no reducer starts before all
mappers finish. Output is deterministic for any worker count: map emissions
are collected in task order, shuffle groups are sorted by key, and values
within a group are sorted by their serialized form (in a batch job, by their
order column) before reduction.

A mapper emits its records in one of two forms. (key, value) pairs are
pickled one by one (protocol 5), and each key group is reduced by its own
reducer call. A RecordBatch holds many records as columns: int64 keys, an
int64 order column, and the start and count of each record's payload in
shared payload arrays, so records may share entries. A batch job's records
are placed by one vectorised shard_fn call over the key columns, sorted by
(key, order) with one stable sort, and each worker's records are reduced by
one reducer call, in key order; the sort and placement move keys, order,
starts and counts, never an entry. A repeated (key, order) is refused, so no
value order comes from arrival order.

Both paths stay because each is the faster one for its jobs. A job of a few
records pays a batch's fixed cost in array set-up and sorting: the broadcast
multiply's job, the pair path's one user in mrmul, rewritten as a batch job
of one record per block, took 2.2 to 2.5 times as long as on pairs, 198
against 80 to 90 us a call (a 500x300 sparse by 300x1 product on 2 workers,
best of 40 runs of 200 calls, 2-core Xeon), each call cutting the operand
anew. Cut once into row blocks, as the solvers now cut their fixed operand,
the call on pairs takes 50 to 58 us on the same measure, against 77 to 85
us with the cut made on every call, so a batch job's fixed cost would weigh
more still. A job of many small records pays pickling and a reducer call
per key on pairs: both jobs of the partition-summation product run as batch
jobs, the partition job's records sharing each sub-block's entries, and its
partition stage fell from about 20 to 4 ms on the multiply-sparse
benchmark's operands.

Map tasks run on a thread pool, at most one thread per core, and each task
still runs as its worker, when the job asks for it (JobSpec.parallel); else
one worker after another on the caller's thread. Reducers run on the
caller's thread, one key or one worker's batch at a time in key order, each
with its shard-named worker as current_worker(); a failure names the first
failing key in key order at any worker count.

Shuffle volume is measured on the bytes that really travel: a pair's pickled
form, or a batch record's key and order int64s plus its slice of every
payload column, counted once per record even where records share entries.
So byte counts are comparable across shard strategies.
"""

from __future__ import annotations

import contextvars
import gc
import os
import pickle
import reprlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Iterable, NamedTuple

import numpy as np

from .sparse import csr_indptr, csr_spans

__all__ = [
    "KeyedRecord",
    "RecordBatch",
    "JobSpec",
    "JobMetrics",
    "Accumulator",
    "BroadcastStore",
    "JobError",
    "BroadcastError",
    "run_job",
    "current_worker",
    "serialize_record",
]


class KeyedRecord(NamedTuple):
    key: Any
    value: Any


class RecordBatch(NamedTuple):
    """Records as columns. Record r has the key keys[r], an int64 row of
    the key width, and the value-order order[r]; its payload is entries
    starts[r] up to starts[r] + counts[r] of each column. Records may share
    entries, and the engine's sort and placement move only keys, order,
    starts and counts."""

    keys: np.ndarray      # (n, w) int64
    order: np.ndarray     # (n,) int64
    starts: np.ndarray    # (n,) int64
    counts: np.ndarray    # (n,) int64
    columns: tuple        # 1-D arrays of one length

    def entries(self):
        """Each column's payload entries of the records, record after record."""
        at = csr_spans(self.starts, self.counts)
        return tuple(c[at] for c in self.columns)


# A map failure's "key" is its input record, which may be a worker's whole
# input, so a JobError's message shows reprlib's abridged repr of it, cut to
# this many characters.
_KEY_REPR_CAP = 200


class JobError(RuntimeError):
    """A user function raised; carries the stage and the failing key/record.
    The message abridges the key onto one line and keeps the cause's own
    text."""

    def __init__(self, stage, key, cause):
        shown = " ".join(reprlib.repr(key).split())  # numpy splits an array's repr over lines
        if len(shown) > _KEY_REPR_CAP:
            shown = shown[:_KEY_REPR_CAP - 3] + "..."
        super().__init__(f"{stage} failed on key {shown}: {cause!r}")
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
    """One map-shuffle-reduce stage, in one of two forms; either way its user
    functions must be deterministic and pure.

    A pair job: mapper(record) and reducer(key, values) return iterables of
    (key, value) pairs, and shard_fn(key) places each key group on a worker
    in [0, workers).

    A batch job: mapper(record) returns one RecordBatch (or nothing),
    shard_fn(key_columns) takes the tuple of the key columns of all records
    and returns the worker of every record as an int array, and
    reducer(batch) is called once per worker that holds records, with those
    records sorted by (key, order), and returns a RecordBatch, whose records
    may share the entries of its input's. The job's output is the reducers'
    batches merged into one, sorted by (key, order), or [] when it has no
    records; read its entries side by side through RecordBatch.entries().

    map_affinity optionally pins input records to the worker where they
    already reside (modeling data locality from a previous stage); by
    default input is split into contiguous chunks.
    """

    mapper: Callable[[Any], Iterable[tuple] | RecordBatch | None]
    reducer: Callable[[Any, list], Iterable[tuple]] | Callable[[RecordBatch], RecordBatch]
    shard_fn: Callable[[Any], int] | Callable[[tuple], np.ndarray]
    workers: int = 1
    name: str = "job"
    ops: Accumulator | None = None
    map_affinity: Callable[[Any], int] | None = None
    # Run map tasks on real threads, at most one thread per core, and each
    # task still runs as its worker. Only map work coarse enough to amortize
    # GIL handoffs gains from it (in mrmul, the summation stage of a chunky
    # product); False runs the tasks one at a time on the caller's thread
    # with the same worker placement, metrics, and output. Reducers always
    # run on the caller's thread.
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


_worker_ctx = threading.local()


def current_worker():
    """Index of the worker running the current map/reduce task, else None."""
    return getattr(_worker_ctx, "worker", None)


def serialize_record(key, value) -> bytes:
    """The instrumented shuffle serializer; shuffle_bytes sums its output sizes."""
    return pickle.dumps((key, value), protocol=5)


def _map_task(chunk, mapper, stage, worker):
    _worker_ctx.worker = worker
    out, batches = [], []
    append = out.append
    try:
        for rec in chunk:
            try:
                emitted = mapper(rec)
            except Exception as exc:
                raise JobError(f"{stage}/map", rec, exc) from exc
            if isinstance(emitted, RecordBatch):
                batches.append(emitted)
            elif emitted:
                for key, value in emitted:
                    append((serialize_record(key, value), key, value))
    finally:
        _worker_ctx.worker = None
    return worker, out, batches


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


def run_job(spec: JobSpec, records) -> tuple[list[KeyedRecord] | RecordBatch, JobMetrics]:
    """Execute one job; returns key-sorted output and stage metrics.

    The output equals the sequential reference semantics (map everything,
    group by key, reduce each group in key order) for every worker count.
    A batch job's output is one RecordBatch, or [] when it has no records.
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


def _run(spec: JobSpec, records) -> tuple[list[KeyedRecord] | RecordBatch, JobMetrics]:
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

    if any(batches for _, _, batches in map_out):
        plan, shuffle_bytes, cross_worker_bytes, records_per_worker = _shuffle_batches(spec, map_out)
        t2 = time.perf_counter()
        output = _reduce_batches(spec, plan)
    else:
        plan, shuffle_bytes, cross_worker_bytes, records_per_worker = _shuffle_pairs(spec, map_out)
        t2 = time.perf_counter()
        output = _reduce_pairs(spec, plan)
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


def _shuffle_pairs(spec, map_out):
    """Group the pairs by key. Returns the (key, worker, values) of every
    group in key order, each group's values in serialized order, with the
    byte totals and the records per worker."""
    nw = spec.workers
    # A key's worker is a pure function of the key, so it is fixed when the
    # key's group is created; a record's bytes change workers when the worker
    # that emitted it is not its key's.
    groups: dict[Any, tuple] = {}
    shuffle_bytes = cross_worker_bytes = 0
    for src_worker, out, _ in map_out:
        for blob, key, value in out:
            group = groups.get(key)
            if group is None:
                group = groups[key] = (spec.shard_fn(key), [])
            group[1].append((blob, value))
            shuffle_bytes += len(blob)
            if group[0] != src_worker:
                cross_worker_bytes += len(blob)
    plan = []
    records_per_worker = [0] * nw
    for key in _sorted_keys(groups, f"{spec.name}/shuffle"):
        dest, bucket = groups[key]
        if not 0 <= dest < nw:
            raise JobError(f"{spec.name}/shuffle", key, ValueError(f"shard {dest} outside 0..{nw - 1}"))
        records_per_worker[dest] += len(bucket)
        bucket.sort(key=itemgetter(0))
        plan.append((key, dest, [value for _, value in bucket]))
    return plan, shuffle_bytes, cross_worker_bytes, records_per_worker


def _reduce_pairs(spec, plan):
    # Reducers run one key at a time in key order, each on its key's worker,
    # so a failure names the first failing key whatever the worker count.
    output = []
    try:
        for key, _worker_ctx.worker, values in plan:
            try:
                output.extend(KeyedRecord(k, v) for k, v in spec.reducer(key, values))
            except Exception as exc:
                raise JobError(f"{spec.name}/reduce", key, exc) from exc
    finally:
        _worker_ctx.worker = None
    return output


def _key_of(keys, r):
    return tuple(keys[r].tolist())


def _runs(rows):
    """Bounds of the runs of equal rows of the 2-D array rows: [0, ends...]."""
    starts = np.ones(rows.shape[0], dtype=bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=starts[1:])
    return np.flatnonzero(starts).tolist() + [rows.shape[0]]


def _concat(batches):
    """One batch of the records of batches, in turn; batches is emptied.
    Batches that share a columns tuple share its entries, so each distinct
    tuple is joined once, and each column's pieces are freed once joined."""
    if len(batches) == 1:
        return batches.pop()
    pieces = {id(b.columns): list(b.columns) for b in batches}
    base = dict(zip(pieces, csr_indptr([len(p[0]) if p else 0 for p in pieces.values()])))
    meta = [np.concatenate([b.keys for b in batches]), np.concatenate([b.order for b in batches]),
            np.concatenate([b.starts + base[id(b.columns)] for b in batches]),
            np.concatenate([b.counts for b in batches])]
    batches.clear()
    first, *rest = pieces.values()
    for f in range(len(first) if rest else 0):
        first[f] = np.concatenate([first[f]] + [p[f] for p in rest])
        for p in rest:
            p[f] = None
    return RecordBatch(*meta, tuple(first))


def _take(batch, at):
    """The records `at` (indices or a slice) of batch, sharing its entries."""
    return RecordBatch(batch.keys[at], batch.order[at], batch.starts[at], batch.counts[at],
                       batch.columns)


def _key_order(batch, stage):
    """The stable permutation that sorts batch's records by (key, order). A
    repeated (key, order) raises a JobError naming the key, as its records'
    order would otherwise be their arrival order."""
    perm = np.lexsort((batch.order, *batch.keys.T[::-1]))
    keys, order = batch.keys[perm], batch.order[perm]
    repeated = (keys[1:] == keys[:-1]).all(axis=1) & (order[1:] == order[:-1])
    if repeated.any():
        r = int(np.argmax(repeated))
        raise JobError(stage, _key_of(keys, r), ValueError(f"order {order[r]} repeated"))
    return perm


def _shuffle_batches(spec, map_out):
    """Join the mappers' RecordBatches, then place and sort their records.
    Returns the records sorted by (worker, key, order) and the worker of
    each, with the byte totals and the records per worker."""
    nw = spec.workers
    stage = f"{spec.name}/shuffle"
    if any(pairs for _, pairs, _ in map_out):
        raise JobError(f"{spec.name}/map", None,
                       TypeError("mappers returned both pairs and RecordBatches"))
    src = np.repeat([w for w, _, batches in map_out for _ in batches],
                    [b.counts.size for _, _, batches in map_out for b in batches])
    batches = [b for _, _, out in map_out for b in out]
    map_out.clear()  # so the mappers' columns are freed as they are joined
    whole = _concat(batches)
    perm = _key_order(whole, stage)
    keys = whole.keys[perm]
    dest = np.asarray(spec.shard_fn(tuple(keys.T)), dtype=np.int64)
    outside = (dest < 0) | (dest >= nw)
    if outside.any():
        r = int(np.argmax(outside))
        raise JobError(stage, _key_of(keys, r), ValueError(f"shard {dest[r]} outside 0..{nw - 1}"))
    nbytes = 8 * (keys.shape[1] + 1) + whole.counts[perm] * sum(c.itemsize for c in whole.columns)
    by_worker = np.argsort(dest, kind="stable")  # keeps each worker's records in key order
    return ((_take(whole, perm[by_worker]), dest[by_worker]), int(nbytes.sum()),
            int(nbytes[dest != src[perm]].sum()), np.bincount(dest, minlength=nw).tolist())


def _reduce_batches(spec, plan):
    """One reducer call per worker that holds records, in worker order, on
    a slice of the sorted records; the outputs merged in (key, order)."""
    whole, workers = plan
    bounds = _runs(workers[:, None])
    outs = []
    try:
        for lo, hi in zip(bounds, bounds[1:]):
            _worker_ctx.worker = int(workers[lo])
            part = _take(whole, slice(lo, hi))
            try:
                outs.append(spec.reducer(part))
            except Exception as exc:
                _raise_first_failure(spec, whole, workers, part, exc)
    finally:
        _worker_ctx.worker = None
    merged = _concat(outs) if outs else None
    if merged is None or merged.counts.size == 0:
        return []
    return _take(merged, _key_order(merged, f"{spec.name}/reduce"))


def _raise_first_failure(spec, whole, workers, failed, exc):
    """A worker's reducer call raised exc on its records `failed`: rerun
    every key's records alone, in key order, each on its worker, and raise a
    JobError naming the first key that fails, so the key named does not
    depend on how keys fall on workers."""
    stage = f"{spec.name}/reduce"
    perm = np.lexsort(whole.keys.T[::-1])  # stable: a key's records stay in order
    whole, workers = _take(whole, perm), workers[perm]
    bounds = _runs(whole.keys)
    for lo, hi in zip(bounds, bounds[1:]):
        _worker_ctx.worker = int(workers[lo])
        try:
            spec.reducer(_take(whole, slice(lo, hi)))
        except Exception as key_exc:
            raise JobError(stage, _key_of(whole.keys, lo), key_exc) from key_exc
    raise JobError(stage, _key_of(failed.keys, 0), exc) from exc
