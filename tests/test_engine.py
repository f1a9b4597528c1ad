import pickle
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
    KeyedRecord,
    current_worker,
    run_job,
    serialize_record,
)


def word_count_spec(workers, parallel=True):
    return JobSpec(
        mapper=lambda rec: [(rec, 1)],
        reducer=lambda key, values: [(key, sum(values))],
        shard_fn=lambda key: sum(key.encode()) % workers,
        workers=workers,
        name="wordcount",
        parallel=parallel,
    )


class TestRunJob:
    def test_word_count(self):
        out, metrics = run_job(word_count_spec(1), ["a", "b", "a"])
        assert out == [KeyedRecord("a", 2), KeyedRecord("b", 1)]
        assert metrics.records_per_worker == [3]

    def test_worker_count_invariance(self):
        results = {}
        for w in (1, 2, 4, 8):
            out, _ = run_job(word_count_spec(w), list("abracadabra"))
            results[w] = sorted(out)
        assert results[1] == results[2] == results[4] == results[8]

    def test_empty_mapper_output(self):
        spec = JobSpec(lambda rec: [], lambda k, v: [(k, v)], lambda k: 0, workers=2)
        out, metrics = run_job(spec, [1, 2, 3])
        assert out == []
        assert metrics.shuffle_bytes == 0

    def test_output_is_key_sorted(self):
        spec = JobSpec(lambda rec: [(rec, rec)], lambda k, v: [(k, v)],
                       lambda k: k % 3, workers=3)
        out, _ = run_job(spec, [5, 1, 4, 2, 3])
        assert [r.key for r in out] == [1, 2, 3, 4, 5]

    def test_shuffle_bytes_match_instrumented_serializer(self):
        records = ["x", "y", "x", "z"]
        spec = word_count_spec(2)
        _, metrics = run_job(spec, records)
        expected = sum(len(serialize_record(r, 1)) for r in records)
        assert metrics.shuffle_bytes == expected

    def test_records_per_worker_sums_to_total(self):
        spec = word_count_spec(4)
        _, metrics = run_job(spec, list("mississippi"))
        assert sum(metrics.records_per_worker) == len("mississippi")

    def test_reduce_runs_on_sharded_worker(self):
        # every key group must be reduced on the worker its shard names
        seen = {}

        def reducer(key, values):
            seen[key] = current_worker()
            return [(key, len(values))]

        spec = JobSpec(lambda rec: [(rec, 1)], reducer,
                       shard_fn=lambda key: key % 4, workers=4)
        run_job(spec, [0, 1, 2, 3, 4, 5, 6, 7])
        assert seen == {k: k % 4 for k in range(8)}

    def test_map_affinity_pins_input(self):
        placed = {}

        def mapper(rec):
            placed[rec] = current_worker()
            return [(rec, 1)]

        spec = JobSpec(mapper, lambda k, v: [(k, v)], lambda k: 0, workers=3,
                       map_affinity=lambda rec: rec % 3)
        run_job(spec, [0, 1, 2, 3, 4, 5])
        assert placed == {r: r % 3 for r in range(6)}

    def test_cross_worker_bytes_zero_when_aligned(self):
        # shard destination equals the mapping worker for every record
        spec = JobSpec(lambda rec: [(rec, 1)], lambda k, v: [(k, v)],
                       shard_fn=lambda key: key % 2, workers=2,
                       map_affinity=lambda rec: rec % 2)
        _, metrics = run_job(spec, [0, 1, 2, 3])
        assert metrics.cross_worker_bytes == 0

    def test_barrier_no_reducer_before_all_mappers(self):
        done = []
        lock = threading.Lock()

        def mapper(rec):
            with lock:
                done.append(rec)
            return [(rec % 2, rec)]

        observed = []

        def reducer(key, values):
            observed.append(len(done))
            return [(key, values)]

        spec = JobSpec(mapper, reducer, lambda k: k % 2, workers=2)
        run_job(spec, list(range(10)))
        assert observed and all(n == 10 for n in observed)

    def test_reducer_sees_deterministically_ordered_values(self):
        orders = []

        def reducer(key, values):
            orders.append(tuple(values))
            return []

        for w in (1, 2, 4):
            spec = JobSpec(lambda rec: [("k", rec)], reducer, lambda k: 0, workers=w)
            run_job(spec, [3, 1, 4, 1, 5, 9, 2, 6])
        assert orders[0] == orders[1] == orders[2]

    def test_mapper_failure_attaches_record(self):
        def mapper(rec):
            if rec == "boom":
                raise RuntimeError("bad record")
            return [(rec, 1)]

        spec = JobSpec(mapper, lambda k, v: [(k, v)], lambda k: 0, workers=1)
        with pytest.raises(JobError) as exc:
            run_job(spec, ["ok", "boom"])
        assert exc.value.key == "boom"

    def test_reducer_failure_attaches_key(self):
        def reducer(key, values):
            if key == "b":
                raise ValueError("cannot reduce b")
            return [(key, 1)]

        spec = JobSpec(lambda rec: [(rec, 1)], reducer, lambda k: 0, workers=2)
        with pytest.raises(JobError) as exc:
            run_job(spec, ["a", "b"])
        assert exc.value.key == "b"

    def test_reducer_failure_names_first_key_for_any_worker_count(self):
        # keys 1 and 2 both fail; reducers run in key order whatever worker
        # each key lands on, so the error names key 1 every time
        def reducer(key, values):
            if key in (1, 2):
                raise ValueError(f"cannot reduce {key}")
            return [(key, len(values))]

        for workers in (1, 2, 3, 8):
            spec = JobSpec(lambda rec: [(rec, 1)], reducer, lambda k: k % workers,
                           workers=workers, name="fails")
            with pytest.raises(JobError) as exc:
                run_job(spec, [0, 1, 2, 3])
            assert (exc.value.stage, exc.value.key) == ("fails/reduce", 1), workers

    def test_shard_out_of_range_rejected(self):
        spec = JobSpec(lambda rec: [(rec, 1)], lambda k, v: [(k, v)],
                       shard_fn=lambda key: 7, workers=2)
        with pytest.raises(JobError):
            run_job(spec, [1])
        # keys 9 and 5 are both out of range, 9 mapped first: the error names
        # the smaller key at every worker count
        for workers in (1, 2, 3, 8):
            spec = JobSpec(lambda rec: [(rec, 1)], lambda k, v: [(k, v)],
                           shard_fn=lambda key: {9: -1, 5: 100}.get(key, 0),
                           workers=workers, name="placed")
            with pytest.raises(JobError) as exc:
                run_job(spec, [9, 2, 5, 0])
            assert (exc.value.stage, exc.value.key) == ("placed/shuffle", 5), workers

    def test_unorderable_keys_rejected(self):
        spec = JobSpec(lambda rec: [(rec, 1)], lambda k, v: [(k, v)],
                       shard_fn=lambda key: 0, workers=2, name="mixed")
        with pytest.raises(JobError) as exc:
            run_job(spec, [1, "a", 2])
        assert exc.value.stage == "mixed/shuffle"
        assert exc.value.key == "a"
        assert isinstance(exc.value.cause, TypeError)

    def test_scalar_ops_accumulator(self):
        ops = Accumulator()

        def mapper(rec):
            ops.add(rec)
            return [(0, rec)]

        spec = JobSpec(mapper, lambda k, v: [(k, sum(v))], lambda k: 0,
                       workers=2, ops=ops)
        _, metrics = run_job(spec, [1, 2, 3])
        assert metrics.scalar_ops == 6

    @settings(max_examples=30, deadline=None)
    @given(records=st.lists(st.integers(0, 20), max_size=40),
           workers=st.sampled_from([1, 2, 3, 4, 8]))
    def test_sequential_semantics_property(self, records, workers):
        spec = JobSpec(lambda rec: [(rec % 5, rec)],
                       lambda k, v: [(k, sum(v))],
                       lambda k: k % workers, workers=workers)
        out, _ = run_job(spec, records)
        expected = {}
        for r in records:
            expected[r % 5] = expected.get(r % 5, 0) + r
        assert dict(out) == expected
        assert [r.key for r in out] == sorted(expected)

    def test_parallel_flags_do_not_change_results(self):
        records = list("abracadabra")
        outs = []
        for parallel in (True, False):
            spec = JobSpec(lambda rec: [(rec, 1)],
                           lambda k, v: [(k, sum(v))],
                           lambda k: sum(k.encode()) % 3, workers=3,
                           parallel=parallel)
            out, metrics = run_job(spec, records)
            outs.append((out, metrics.records_per_worker))
        assert all(o == outs[0] for o in outs[1:])


class TestChain:
    def test_chained_partition_summation_matches_product_oracle(self):
        # a hand-built two-job multiply pipeline: job 1 groups (row of A,
        # col of B) cell pairs, job 2 sums the per-cell products
        rng = np.random.default_rng(77)
        A = rng.random((5, 4)) * (rng.random((5, 4)) < 0.7)
        B = rng.random((4, 6)) * (rng.random((4, 6)) < 0.7)

        def pair_mapper(rec):
            which, i, j, v = rec
            if which == "A":
                return [(((i, jj), j), ("A", v)) for jj in range(B.shape[1])]
            return [(((ii, j), i), ("B", v)) for ii in range(A.shape[0])]

        def pair_reducer(key, values):
            tags = dict(values)
            if len(values) == 2 and len(tags) == 2:
                return [(key[0], tags["A"] * tags["B"])]
            return []

        def sum_reducer(key, values):
            return [(key, sum(sorted(values)))]

        records = [("A", i, j, A[i, j]) for i in range(5) for j in range(4) if A[i, j]]
        records += [("B", i, j, B[i, j]) for i in range(4) for j in range(6) if B[i, j]]
        pairs, pair_metrics = run_job(
            JobSpec(pair_mapper, pair_reducer, lambda k: hash(k) % 3, workers=3), records)
        out, sum_metrics = run_job(
            JobSpec(lambda rec: [rec], sum_reducer, lambda k: k[0] % 3, workers=3), pairs)
        metrics = [pair_metrics, sum_metrics]
        C = np.zeros((5, 6))
        for (i, j), v in out:
            C[i, j] = v
        np.testing.assert_allclose(C, A @ B, atol=1e-12)
        assert len(metrics) == 2


class TestBroadcastStore:
    def test_payload_visible_to_all_workers(self):
        store = BroadcastStore()
        payload = np.arange(9).reshape(3, 3)
        store.put("C", payload)
        seen = []

        def mapper(rec):
            seen.append(store.get("C"))
            return [(rec, 1)]

        run_job(JobSpec(mapper, lambda k, v: [(k, v)], lambda k: 0, workers=4),
                list(range(4)))
        assert len(seen) == 4
        assert all(got is payload for got in seen)

    def test_rebroadcast_same_epoch_rejected(self):
        store = BroadcastStore()
        store.put("C", 1)
        with pytest.raises(BroadcastError):
            store.put("C", 2)

    def test_missing_name(self):
        store = BroadcastStore()
        with pytest.raises(BroadcastError):
            store.get("missing")


class TestMetricsCsv:
    def test_csv_row_shape(self):
        _, metrics = run_job(word_count_spec(2), ["a", "b"])
        row = metrics.to_csv_row()
        parts = row.split(",")
        assert parts[0] == "wordcount"
        assert parts[-1] == "2"
        assert len(parts) == 7


class TestRunJobProperty:
    """run_job against the sequential reference: map every record, group by
    key, keys ascending, each group's values in serialized order, reduce."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), records=st.lists(st.integers(0, 30), max_size=40),
           workers=st.integers(1, 8), fanout=st.integers(0, 3), keys=st.integers(1, 12),
           parallel=st.booleans(), pinned=st.booleans())
    def test_matches_sequential_reference(self, data, records, workers, fanout, keys,
                                          parallel, pinned):
        shard = data.draw(st.lists(st.integers(0, workers - 1), min_size=keys, max_size=keys))
        place = data.draw(st.lists(st.integers(0, workers - 1), min_size=31, max_size=31))

        def mapper(rec):
            return [((rec * 7 + j) % keys, (rec, j, -rec * 0.5)) for j in range(rec % (fanout + 1))]

        def reducer(key, values):
            return [(key, len(values)), (key, tuple(values))]

        spec = JobSpec(mapper, reducer, shard.__getitem__, workers=workers, parallel=parallel,
                       map_affinity=place.__getitem__ if pinned else None)
        out, metrics = run_job(spec, records)

        emitted = [kv for rec in records for kv in mapper(rec)]
        groups = {}
        for key, value in emitted:
            groups.setdefault(key, []).append(value)
        expected = []
        for key in sorted(groups):
            ordered = sorted(groups[key], key=lambda v: pickle.dumps((key, v), protocol=5))
            expected.extend(reducer(key, ordered))
        assert out == expected
        assert sum(metrics.records_per_worker) == len(emitted)
        assert metrics.shuffle_bytes == sum(len(serialize_record(k, v)) for k, v in emitted)


class TestCrossWorkerBytes:
    """cross_worker_bytes against a sequential reference: the summed
    serialize_record sizes of the emitted records whose source worker (the
    worker whose map task emitted them) differs from shard_fn(key)."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), records=st.lists(st.integers(0, 30), max_size=40),
           workers=st.integers(1, 64), fanout=st.integers(0, 3), keys=st.integers(1, 12),
           parallel=st.booleans(), pinned=st.booleans())
    def test_matches_sequential_reference(self, data, records, workers, fanout, keys,
                                          parallel, pinned):
        shard = data.draw(st.lists(st.integers(0, workers - 1), min_size=keys, max_size=keys))
        place = data.draw(st.lists(st.integers(0, workers - 1), min_size=31, max_size=31))

        def mapper(rec):
            return [((rec * 5 + j) % keys, ("v" * (rec % 7), j, rec * 0.25))
                    for j in range(1 + rec % (fanout + 1))]

        spec = JobSpec(mapper, lambda k, v: [(k, len(v))], shard.__getitem__, workers=workers,
                       parallel=parallel, map_affinity=place.__getitem__ if pinned else None)
        _, metrics = run_job(spec, records)

        if pinned:
            source = [place[rec] for rec in records]
        else:  # contiguous chunks of the input, one per worker
            bounds = [len(records) * w // workers for w in range(workers + 1)]
            source = [w for w in range(workers) for _ in range(bounds[w], bounds[w + 1])]
        expected = sum(len(serialize_record(key, value))
                       for rec, src in zip(records, source)
                       for key, value in mapper(rec) if src != shard[key])
        assert metrics.cross_worker_bytes == expected
        assert metrics.shuffle_bytes == sum(len(serialize_record(k, v))
                                            for rec in records for k, v in mapper(rec))


class TestCallerContext:
    def test_errstate_holds_on_pool_threads(self):
        # map tasks on the pool's threads run in a copy of the caller's
        # context, so an errstate set around run_job reaches them
        def mapper(rec):
            return [(rec, float(np.float64(1e308) * np.float64(rec + 10)))]

        spec = JobSpec(mapper, lambda k, v: [(k, v[0])], lambda k: k % 3, workers=3,
                       parallel=True)
        with np.errstate(over="raise"):
            with pytest.raises(JobError) as info:
                run_job(spec, [0, 1, 2])
        assert isinstance(info.value.cause, FloatingPointError)
        with np.errstate(over="ignore"):
            out, _ = run_job(spec, [0, 1, 2])
        assert [v for _, v in out] == [np.inf] * 3
