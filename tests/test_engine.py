import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrmul.engine import (
    Accumulator,
    BroadcastError,
    BroadcastStore,
    JobError,
    JobSpec,
    RecordBatch,
    current_worker,
    run_job,
)


def _record(key, order, value):
    """One record of key (key,) and order `order`, one payload entry."""
    return RecordBatch(np.array([[key]], dtype=np.int64), np.array([order], dtype=np.int64),
                       np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64),
                       (np.array([value]),))


def _key_sums(batch):
    """One record per key of batch: its entries summed in (key, order)."""
    (values,) = batch.entries()
    first = np.flatnonzero(np.r_[True, (batch.keys[1:] != batch.keys[:-1]).any(axis=1)])
    n = first.size
    return RecordBatch(batch.keys[first], np.zeros(n, dtype=np.int64), np.arange(n),
                       np.ones(n, dtype=np.int64), (np.add.reduceat(values, first),))


def _sums(out):
    """A key-sum job's output as a list of (key, sum), in output order."""
    if not isinstance(out, RecordBatch):
        return []
    return list(zip(out.keys[:, 0].tolist(), out.entries()[0].tolist()))


def _counted(keys):
    """Input records (key, order, 1): record i counts one of keys[i]."""
    return [(key, i, 1) for i, key in enumerate(keys)]


def sum_spec(workers, reducer=_key_sums, mapper=None, shard=None, **kw):
    """A per-key sum: input (key, order, value) is one record, placed by
    key modulo the worker count unless a shard is given."""
    return JobSpec(mapper or (lambda rec: _record(*rec)), reducer,
                   shard or (lambda cols: cols[0] % workers), workers=workers, **kw)


class TestRunJob:
    def test_word_count(self):
        out, metrics = run_job(sum_spec(1), _counted(map(ord, "aba")))
        assert _sums(out) == [(ord("a"), 2), (ord("b"), 1)]
        assert metrics.records_per_worker == [3]

    def test_worker_count_invariance(self):
        results = {}
        for w in (1, 2, 4, 8):
            out, _ = run_job(sum_spec(w), _counted(map(ord, "abracadabra")))
            results[w] = _sums(out)
        assert results[1] == results[2] == results[4] == results[8]

    def test_empty_mapper_output(self):
        spec = sum_spec(2, mapper=lambda rec: None)
        out, metrics = run_job(spec, [1, 2, 3])
        assert out == []
        assert metrics.shuffle_bytes == metrics.cross_worker_bytes == 0
        assert metrics.records_per_worker == [0, 0]

    def test_output_is_key_sorted(self):
        out, _ = run_job(sum_spec(3), _counted([5, 1, 4, 2, 3]))
        assert out.keys[:, 0].tolist() == [1, 2, 3, 4, 5]

    def test_records_per_worker_sums_to_total(self):
        _, metrics = run_job(sum_spec(4), _counted(map(ord, "mississippi")))
        assert sum(metrics.records_per_worker) == len("mississippi")

    def test_reduce_runs_on_sharded_worker(self):
        # every key must be reduced on the worker its shard names
        seen = {}

        def reducer(batch):
            for key in batch.keys[:, 0].tolist():
                seen[key] = current_worker()
            return _key_sums(batch)

        run_job(sum_spec(4, reducer), _counted(range(8)))
        assert seen == {k: k % 4 for k in range(8)}

    def test_map_affinity_pins_input(self):
        placed = {}

        def mapper(rec):
            placed[rec[0]] = current_worker()
            return _record(*rec)

        spec = sum_spec(3, mapper=mapper, shard=lambda cols: cols[0] * 0,
                        map_affinity=lambda rec: rec[0] % 3)
        run_job(spec, _counted(range(6)))
        assert placed == {r: r % 3 for r in range(6)}

    def test_cross_worker_bytes_zero_when_aligned(self):
        # shard destination equals the mapping worker for every record
        spec = sum_spec(2, map_affinity=lambda rec: rec[0] % 2)
        _, metrics = run_job(spec, _counted([0, 1, 2, 3]))
        assert metrics.cross_worker_bytes == 0
        assert metrics.shuffle_bytes == 4 * (8 + 8 + 8)  # key, order, one int64 entry

    def test_barrier_no_reducer_before_all_mappers(self):
        done = []
        lock = threading.Lock()

        def mapper(rec):
            with lock:
                done.append(rec)
            return _record(*rec)

        observed = []

        def reducer(batch):
            observed.append(len(done))
            return batch

        run_job(sum_spec(2, reducer, mapper), _counted(range(10)))
        assert len(observed) == 2 and all(n == 10 for n in observed)

    def test_reducer_sees_deterministically_ordered_values(self):
        # the records of one key arrive from mappers in reverse of their
        # order column, and reach the reducer in that column's order
        seen = []

        def reducer(batch):
            seen.append((batch.order.tolist(), batch.entries()[0].tolist()))
            return batch

        values = [3, 1, 4, 1, 5, 9, 2, 6]
        for w in (1, 2, 4):
            run_job(sum_spec(w, reducer, shard=lambda cols: cols[0] * 0),
                    [(0, 7 - i, v) for i, v in enumerate(values)])
        assert seen == [(list(range(8)), values[::-1])] * 3

    def test_mapper_failure_attaches_record(self):
        def mapper(rec):
            if rec == "boom":
                raise RuntimeError("bad record")
            return _record(0, 0, 1)

        with pytest.raises(JobError) as exc:
            run_job(sum_spec(1, mapper=mapper), ["ok", "boom"])
        assert (exc.value.stage, exc.value.key) == ("job/map", "boom")

    def test_mapper_failure_message_bounded(self):
        # the failing record's repr passes a megabyte; the message abridges
        # it and keeps the cause's own text, while the error holds it whole
        record = list(range(200_000))

        def mapper(rec):
            raise MemoryError("no room for the record")

        with pytest.raises(JobError) as exc:
            run_job(sum_spec(2, mapper=mapper, name="big"), [record])
        assert len(repr(record)) > 1 << 20 and exc.value.key is record
        message = str(exc.value)
        assert message.startswith("big/map failed on key [0, 1, 2, ")
        assert message.endswith(": MemoryError('no room for the record')")
        assert len(message) <= 1024

    def test_reducer_failure_attaches_key(self):
        def reducer(batch):
            if (batch.keys[:, 0] == ord("b")).any():
                raise ValueError("cannot reduce b")
            return batch

        with pytest.raises(JobError) as exc:
            run_job(sum_spec(2, reducer, shard=lambda cols: cols[0] * 0), _counted(map(ord, "ab")))
        assert exc.value.key == (ord("b"),)

    def test_reducer_failure_names_first_key_for_any_worker_count(self):
        # keys 1 and 2 both fail; whatever worker each key lands on, the
        # error names key 1 every time
        def reducer(batch):
            bad = np.isin(batch.keys[:, 0], (1, 2))
            if bad.any():
                raise ValueError(f"cannot reduce {batch.keys[bad][0]}")
            return batch

        for workers in (1, 2, 3, 8):
            with pytest.raises(JobError) as exc:
                run_job(sum_spec(workers, reducer, name="fails"), _counted([0, 1, 2, 3]))
            assert (exc.value.stage, exc.value.key) == ("fails/reduce", (1,)), workers

    def test_shard_out_of_range_rejected(self):
        spec = sum_spec(2, shard=lambda cols: cols[0] * 0 + 7, name="placed")
        with pytest.raises(JobError) as exc:
            run_job(spec, _counted([1]))
        assert (exc.value.stage, exc.value.key) == ("placed/shuffle", (1,))

    def test_scalar_ops_accumulator(self):
        ops = Accumulator()

        def mapper(rec):
            ops.add(rec[0])
            return _record(*rec)

        _, metrics = run_job(sum_spec(2, mapper=mapper, ops=ops), _counted([1, 2, 3]))
        assert metrics.scalar_ops == 6

    @settings(max_examples=30, deadline=None)
    @given(records=st.lists(st.integers(0, 20), max_size=40),
           workers=st.sampled_from([1, 2, 3, 4, 8]))
    def test_sequential_semantics_property(self, records, workers):
        out, _ = run_job(sum_spec(workers), [(r % 5, i, r) for i, r in enumerate(records)])
        expected = {}
        for r in records:
            expected[r % 5] = expected.get(r % 5, 0) + r
        assert _sums(out) == sorted(expected.items())

    def test_parallel_flags_do_not_change_results(self):
        records = _counted(map(ord, "abracadabra"))
        outs = []
        for parallel in (True, False):
            out, metrics = run_job(sum_spec(3, parallel=parallel), records)
            outs.append((_sums(out), metrics.records_per_worker))
        assert all(o == outs[0] for o in outs[1:])


class TestBroadcastStore:
    def test_payload_visible_to_all_workers(self):
        store = BroadcastStore()
        payload = np.arange(9).reshape(3, 3)
        store.put("C", payload)

        def mapper(rec):
            return current_worker(), store.get("C")

        out, _ = run_job(JobSpec(mapper, workers=4), list(range(4)))
        assert [w for w, _ in out] == [0, 1, 2, 3]
        assert all(got is payload for _, got in out)

    def test_rebroadcast_same_epoch_rejected(self):
        store = BroadcastStore()
        store.put("C", 1)
        with pytest.raises(BroadcastError):
            store.put("C", 2)

    def test_missing_name(self):
        store = BroadcastStore()
        with pytest.raises(BroadcastError):
            store.get("missing")


class TestCallerContext:
    def test_errstate_holds_on_pool_threads(self):
        # map tasks on the pool's threads run in a copy of the caller's
        # context, so an errstate set around run_job reaches them
        def mapper(rec):
            return float(np.float64(1e308) * np.float64(rec + 10))

        spec = JobSpec(mapper, workers=3, parallel=True)
        with np.errstate(over="raise"):
            with pytest.raises(JobError) as info:
                run_job(spec, [0, 1, 2])
        assert isinstance(info.value.cause, FloatingPointError)
        with np.errstate(over="ignore"):
            out, _ = run_job(spec, [0, 1, 2])
        assert out == [np.inf] * 3


def _batch(keys, order, starts, counts, ints, floats):
    return RecordBatch(np.array(keys, dtype=np.int64).reshape(-1, 2), np.array(order, dtype=np.int64),
                       np.array(starts, dtype=np.int64), np.array(counts, dtype=np.int64),
                       (np.array(ints, dtype=np.int32), np.array(floats, dtype=np.float64)))


def _identity_reducer(batch):
    return batch


class TestBatchJobs:
    """Jobs whose mappers return a RecordBatch: one vectorised placement,
    one sort by (key, order), one reducer call per worker."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), records=st.lists(st.integers(0, 30), max_size=30),
           workers=st.integers(1, 8), fanout=st.integers(0, 3), parallel=st.booleans(),
           pinned=st.booleans(), shared=st.booleans())
    def test_matches_sequential_reference(self, data, records, workers, fanout, parallel,
                                          pinned, shared):
        table = np.array(data.draw(st.lists(st.integers(0, workers - 1), min_size=12,
                                            max_size=12))).reshape(3, 4)
        place = data.draw(st.lists(st.integers(0, workers - 1), min_size=31, max_size=31))
        calls = []

        def emitted(rec):
            # record j of input record (i, v): key (v % 3, (v + j) % 4), an
            # order unique to it, and v % 3 + j entries, or v % 3 when shared
            i, v = rec
            size = [v % 3 + (0 if shared else j) for j in range(v % (fanout + 1))]
            return [((v % 3, (v + j) % 4), 4 * i + j, list(range(size[j])),
                     [v * 0.5 + e for e in range(size[j])]) for j in range(len(size))]

        def mapper(rec):
            out = emitted(rec)
            if not out:
                return None
            keys, order, ints, floats = zip(*out)
            counts = np.array([len(e) for e in ints])
            if shared:  # the records repeat one payload, stored once
                return _batch(keys, order, [0] * len(out), counts, ints[0], floats[0])
            return _batch(keys, order, np.cumsum(counts) - counts, counts, sum(ints, []),
                          sum(floats, []))

        def reducer(batch):
            calls.append(current_worker())
            return batch

        spec = JobSpec(mapper, reducer, lambda cols: table[cols[0], cols[1]], workers=workers,
                       parallel=parallel,
                       map_affinity=(lambda rec: place[rec[1]]) if pinned else None)
        inputs = list(enumerate(records))
        out, metrics = run_job(spec, inputs)

        if pinned:
            source = [place[v] for v in records]
        else:  # contiguous chunks of the input, one per worker
            bounds = [len(records) * w // workers for w in range(workers + 1)]
            source = [w for w in range(workers) for _ in range(bounds[w], bounds[w + 1])]
        reference = sorted((key, order, ints, floats, src)
                           for rec, src in zip(inputs, source)
                           for key, order, ints, floats in emitted(rec))
        if not reference:
            assert out == [] and calls == []
        else:
            assert [tuple(k) for k in out.keys.tolist()] == [r[0] for r in reference]
            assert out.order.tolist() == [r[1] for r in reference]
            assert out.counts.tolist() == [len(r[2]) for r in reference]
            ints, floats = out.entries()
            assert ints.tolist() == sum((r[2] for r in reference), [])
            assert floats.tolist() == sum((r[3] for r in reference), [])
            # one reducer call per worker that holds records, in worker order
            assert calls == sorted({int(table[r[0]]) for r in reference})
        per_worker = [0] * workers
        for r in reference:
            per_worker[table[r[0]]] += 1
        assert metrics.records_per_worker == per_worker
        nbytes = [8 * (2 + 1) + len(r[2]) * (4 + 8) for r in reference]
        assert metrics.shuffle_bytes == sum(nbytes)
        assert metrics.cross_worker_bytes == sum(b for b, r in zip(nbytes, reference)
                                                 if table[r[0]] != r[4])

    def test_repeated_order_rejected(self):
        def mapper(rec):
            return _batch([(1, 2), (0, 5), (1, 2)], [7, 3, 7], [0, 1, 2], [1, 1, 1], [1, 2, 3],
                          [0.5] * 3)

        spec = JobSpec(mapper, _identity_reducer, lambda cols: cols[0] * 0, name="dup")
        with pytest.raises(JobError) as exc:
            run_job(spec, [0])
        assert (exc.value.stage, exc.value.key) == ("dup/shuffle", (1, 2))

    def test_shard_out_of_range_rejected(self):
        # keys (0, 9) and (0, 5) are both placed out of range, (0, 9) mapped
        # first: the error names the smaller key at every worker count
        def mapper(rec):
            return _batch([(0, rec)], [0], [0], [1], [rec], [0.0])

        for workers in (1, 2, 3, 8):
            spec = JobSpec(mapper, _identity_reducer,
                           lambda cols: np.select([cols[1] == 9, cols[1] == 5], [-1, 100], 0),
                           workers=workers, name="placed")
            with pytest.raises(JobError) as exc:
                run_job(spec, [9, 2, 5, 0])
            assert (exc.value.stage, exc.value.key) == ("placed/shuffle", (0, 5)), workers

    def test_reducer_failure_names_first_failing_key(self):
        # keys (0, 2) and (0, 4) both fail. From 2 workers on, (0, 4) is on
        # worker 0, whose call fails first, and (0, 2) on the last worker; the
        # keys are rerun one at a time in key order, so (0, 2) is named
        def mapper(rec):
            return _batch([(0, rec)], [0], [0], [1], [rec], [0.0])

        def reducer(batch):
            bad = np.isin(batch.keys[:, 1], (2, 4))
            if bad.any():
                raise ValueError(f"cannot reduce {batch.keys[bad][0]}")
            return batch

        for workers in (1, 2, 3):
            spec = JobSpec(mapper, reducer, lambda cols: (workers - 1) * (cols[1] != 4),
                           workers=workers, name="fails")
            with pytest.raises(JobError) as exc:
                run_job(spec, [5, 4, 3, 2, 1, 0])
            assert (exc.value.stage, exc.value.key) == ("fails/reduce", (0, 2)), workers
            assert isinstance(exc.value.cause, ValueError)

    def test_reduce_runs_on_sharded_worker(self):
        seen = []

        def mapper(rec):
            return _batch([(rec % 2, rec)], [0], [0], [1], [rec], [0.0])

        def reducer(batch):
            seen.append((current_worker(), (batch.keys[:, 1] % 4).tolist()))
            return batch

        spec = JobSpec(mapper, reducer, lambda cols: cols[1] % 4, workers=4)
        run_job(spec, list(range(10)))
        assert seen == [(w, [w] * len(range(w, 10, 4))) for w in range(4)]

    @pytest.mark.parametrize("workers", [1, 3, 64])
    def test_returned_input_joined_once(self, workers):
        # every reducer returns its input's records, which share the joined
        # columns of the shuffle: the output joins them once, not per worker
        def mapper(rec):
            return _batch([(rec % 7, rec)], [0], [0], [3], [rec] * 3, [rec * 0.5] * 3)

        spec = JobSpec(mapper, _identity_reducer, lambda cols: cols[1] % workers,
                       workers=workers)
        out, _ = run_job(spec, list(range(200)))
        assert all(c.size <= 3 * 200 for c in out.columns)
        ints, floats = out.entries()
        expected = sorted(range(200), key=lambda v: (v % 7, v))
        assert ints.tolist() == [v for v in expected for _ in range(3)]
        assert floats.tolist() == [v * 0.5 for v in expected for _ in range(3)]

    def test_pairs_and_batches_not_mixed(self):
        # a mapper of a job with a reducer returns a RecordBatch or None;
        # anything else, such as a list of pairs, is refused naming its record
        for bad in ([(1, 1)], [], 0):
            def mapper(rec):
                return bad if rec else _batch([(0, 0)], [0], [0], [1], [0], [0.0])

            for workers in (1, 2, 3):
                spec = JobSpec(mapper, _identity_reducer, lambda cols: cols[0] * 0,
                               workers=workers, name="mixed")
                with pytest.raises(JobError) as exc:
                    run_job(spec, [0, 1])
                assert (exc.value.stage, exc.value.key) == ("mixed/map", 1), (bad, workers)
                assert isinstance(exc.value.cause, TypeError)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_reducer_returning_none_keeps_no_record(self, workers):
        def mapper(rec):
            return _batch([(0, rec)], [0], [0], [1], [rec], [0.0])

        spec = JobSpec(mapper, lambda batch: None, lambda cols: cols[1] % workers,
                       workers=workers)
        out, metrics = run_job(spec, [0, 1, 2])
        assert out == [] and sum(metrics.records_per_worker) == 3
        # a worker whose reducer keeps nothing adds nothing to the others'
        spec.reducer = lambda batch: batch if batch.keys[0, 1] == 0 else None
        out, _ = run_job(spec, [0, 1, 2])
        assert out.keys.tolist() == [[0, k] for k in range(3) if k % workers == 0]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_reducer_returning_other_value_refused(self, workers):
        # the reducer of a batch holding key (0, 2) returns a list: the keys
        # are rerun one at a time, and (0, 2) is named at every worker count
        def mapper(rec):
            return _batch([(0, rec)], [0], [0], [1], [rec], [0.0])

        def reducer(batch):
            return [] if (batch.keys[:, 1] == 2).any() else batch

        spec = JobSpec(mapper, reducer, lambda cols: cols[1] % workers, workers=workers,
                       name="listed")
        with pytest.raises(JobError) as exc:
            run_job(spec, [0, 1, 2])
        assert (exc.value.stage, exc.value.key) == ("listed/reduce", (0, 2))
        assert isinstance(exc.value.cause, TypeError)


class TestMapOnlyJobs:
    """Jobs with no reducer: each mapper's value stays on its worker, and
    the output is the values in worker order, then input order."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), records=st.lists(st.integers(0, 30), max_size=40),
           workers=st.integers(1, 8), parallel=st.booleans(), pinned=st.booleans())
    def test_matches_sequential_reference(self, data, records, workers, parallel, pinned):
        place = data.draw(st.lists(st.integers(0, workers - 1), min_size=31, max_size=31))

        def mapper(rec):
            return (rec, current_worker(), [rec * 0.5] * (rec % 3))

        spec = JobSpec(mapper, workers=workers, parallel=parallel,
                       map_affinity=place.__getitem__ if pinned else None)
        out, metrics = run_job(spec, records)

        if pinned:
            source = [place[rec] for rec in records]
        else:  # contiguous chunks of the input, one per worker
            bounds = [len(records) * w // workers for w in range(workers + 1)]
            source = [w for w in range(workers) for _ in range(bounds[w], bounds[w + 1])]
        by_worker = [[(rec, w, [rec * 0.5] * (rec % 3)) for rec, src in zip(records, source)
                      if src == w] for w in range(workers)]
        assert out == [value for values in by_worker for value in values]
        assert metrics.records_per_worker == [len(values) for values in by_worker]
        assert sum(metrics.records_per_worker) == len(records)
        assert metrics.shuffle_bytes == metrics.cross_worker_bytes == 0
        assert metrics.shuffle_ms == metrics.reduce_ms == 0

    @settings(max_examples=40, deadline=None)
    @given(records=st.lists(st.integers(0, 30), min_size=1, max_size=40, unique=True),
           data=st.data(), workers=st.integers(1, 8), parallel=st.booleans())
    def test_raising_mapper_names_its_record(self, records, data, workers, parallel):
        bad = data.draw(st.sampled_from(records))

        def mapper(rec):
            if rec == bad:
                raise ValueError("bad record")
            return rec

        with pytest.raises(JobError) as exc:
            run_job(JobSpec(mapper, workers=workers, parallel=parallel), records)
        assert exc.value.stage == "job/map"
        assert exc.value.key == bad
        assert isinstance(exc.value.cause, ValueError)

    def test_values_are_not_copied(self):
        arrays = [np.arange(3.0), np.ones((2, 2))]
        out, _ = run_job(JobSpec(arrays.__getitem__, workers=2), [0, 1])
        assert out[0] is arrays[0] and out[1] is arrays[1]

    def test_falsy_values_are_kept(self):
        values = [None, [], 0, np.empty(0)]
        out, metrics = run_job(JobSpec(values.__getitem__, workers=3), [0, 1, 2, 3])
        assert len(out) == 4 and out[0] is None and out[1] == [] and out[2] == 0
        assert out[3] is values[3]
        assert metrics.records_per_worker == [1, 1, 2]

    def test_empty_input(self):
        out, metrics = run_job(JobSpec(lambda rec: rec, workers=4), [])
        assert out == []
        assert metrics.records_per_worker == [0] * 4
        assert metrics.shuffle_bytes == metrics.cross_worker_bytes == 0

    def test_scalar_ops_counted(self):
        ops = Accumulator()

        def mapper(rec):
            ops.add(rec)
            return rec

        _, metrics = run_job(JobSpec(mapper, workers=2, ops=ops), [1, 2, 3])
        assert metrics.scalar_ops == 6

    def test_reducer_without_shard_fn_refused(self):
        spec = JobSpec(lambda rec: _record(rec, 0, 1), _key_sums, workers=2)
        with pytest.raises(ValueError, match="shard_fn"):
            run_job(spec, [1, 2])
