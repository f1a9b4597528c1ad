import hashlib
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mrmul.engine import serialize_record
from mrmul.multiply import (
    PartitionSchema,
    ShardFunction,
    _mix_array,
    _splitmix64_array,
    _Splitter,
    broadcast_multiply,
    partition_multiply,
    suggest_schema,
)
from mrmul.sparse import DenseMatrix, SparseMatrix

from conftest import dense_product_oracle, random_sparse, triple_loop_product


# The SplitMix64 finalizer of each wrap-edge input, and the mix of
# (top, x, reversed x), as the scalar Python form of the hash gave them.
_TOP = 2**64 - 1
_WRAP_EDGES = [0, 1, 2**63 - 1, 2**63, 2**63 + 1] + [_TOP - d for d in (0, 1, 2, 7919, 2**32)]
_WRAP_SPLITMIX64 = [
    0xE220A8397B1DCDAF, 0x910A2DEC89025CC1, 0x2A67D7552E039EA7, 0x481EC0A212A9F3DB,
    0xDC29F439BCBDDA2A, 0xE4D971771B652C20, 0xF3203E9039F4A821, 0xF75F04CBB5A1A1DD,
    0x3126C02519678805, 0x19BA2418AFBBFAE1]
_WRAP_MIX = [
    0xB485F6B757629CDF, 0x89E0DB7674340EF2, 0x81F1397CF8EFB740, 0x3A42753B9C3884AA,
    0x2DFF9AC6AEC44002, 0x7865C3CBF5109C45, 0xAAEFDE90D6297422, 0xB59E7A11DA6441B7,
    0xF96FBE0BBAE5176E, 0xB74527611B85BE78]

# sha256 of block_table(m, k, n) then row_table over 97 rows split m ways, as
# int64 bytes, for each of _TABLE_SCHEMAS in turn; taken from the scalar
# per-key form of both shards, which the tables replaced.
_TABLE_SCHEMAS = ((1, 1, 1), (5, 3, 4), (7, 2, 11), (20, 6, 20))
_TABLE_DIGESTS = {
    ("naive", 1): "15081696a808075e9a79aa6cbf4ccbc942aad139ecc0d9f27142e48de536b339",
    ("rand", 1): "15081696a808075e9a79aa6cbf4ccbc942aad139ecc0d9f27142e48de536b339",
    ("naive", 3): "8703cadf22621b6956012119895f7e866d62c06fa6931a90e996dbeb7da046ef",
    ("rand", 3): "83627146985a9212fe777cb2d434d59e84d96c5e6d538a6238c51962816989ea",
    ("naive", 8): "2fd0d93d1efa8bbca94ee9c1c98224dd80f19dfb988043369d59c303cce30b53",
    ("rand", 8): "c3332c877c000d20f479ae272e4cb1e7f91a27b8fe379d1ce70dd358b6d763f3",
}


class TestShardFunctions:
    def test_naive_examples(self):
        assert ShardFunction("naive", 4).block_table(6, 10, 3)[5, 9, 2] == 1
        assert ShardFunction("naive", 7).block_table(1, 4, 8)[0, 3, 7] == 0
        assert ShardFunction("naive", 5).block_table(14, 1, 1)[13, 0, 0] == 3

    def test_naive_depends_on_alpha_only(self):
        table = ShardFunction("naive", 4).block_table(8, 10, 10)
        assert (table == np.arange(8)[:, None, None] % 4).all()

    def test_rand_deterministic(self):
        shard = ShardFunction("rand", 8)
        assert np.array_equal(shard.block_table(7, 6, 7), shard.block_table(7, 6, 7))
        # a key's worker does not depend on the schema it is read from
        assert shard.block_table(5, 6, 7)[4, 5, 6] == shard.block_table(9, 9, 9)[4, 5, 6]

    def test_rand_single_worker(self):
        shard = ShardFunction("rand", 1)
        assert not shard.block_table(10, 10, 10).any()
        assert not shard.row_table(_Splitter(97, 10).block_of(np.arange(97))).any()

    def test_rand_uniformity_chi_square(self):
        p = 8
        table = ShardFunction("rand", p).block_table(25, 20, 20)  # 10,000 distinct keys
        counts = np.bincount(table.ravel(), minlength=p)
        expected = table.size / p
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < stats.chi2.ppf(0.999, p - 1), f"chi2={chi2:.1f}"

    def test_splitmix64_known_vector(self):
        # first output of the published sequence for seed 0
        assert _splitmix64_array(np.zeros(1, dtype=np.uint64)).tolist() == [0xE220A8397B1DCDAF]

    @pytest.mark.parametrize("p", [1, 3, 8])
    def test_placement_tables_pinned(self, p):
        for kind in ("naive", "rand"):
            shard = ShardFunction(kind, p)
            h = hashlib.sha256()
            for m, n, k in _TABLE_SCHEMAS:
                table = shard.block_table(m, k, n)
                assert table.shape == (m, k, n) and table.dtype == np.int64
                h.update(table.tobytes())
                h.update(shard.row_table(_Splitter(97, m).block_of(np.arange(97))).tobytes())
            assert h.hexdigest() == _TABLE_DIGESTS[kind, p], kind

    def test_splitmix64_array_wraps_pinned(self):
        x = np.array(_WRAP_EDGES, dtype=np.uint64)
        assert _splitmix64_array(x).tolist() == _WRAP_SPLITMIX64
        assert _mix_array(_TOP, x, x[::-1]).tolist() == _WRAP_MIX

    def test_shard_function_validation(self):
        with pytest.raises(ValueError):
            ShardFunction("other", 2)
        with pytest.raises(ValueError):
            ShardFunction("naive", 0)


class TestSplitter:
    def test_block_of_matches_ranges(self):
        for total, parts in [(10, 3), (7, 7), (100, 6), (5, 1)]:
            s = _Splitter(total, parts)
            for b in range(parts):
                lo, hi = s.range(b)
                assert lo < hi
                for i in range(lo, hi):
                    assert s.block_of(i) == b
            assert s.range(parts - 1)[1] == total


class TestPartitionMultiply:
    def test_identity_times_random(self):
        I = SparseMatrix.from_dense(np.eye(8))
        B = random_sparse(8, 8, 0.5, seed=3)
        C, _ = partition_multiply(I, B, PartitionSchema(2, 2, 2), "naive", 2)
        assert C == B

    def test_hand_two_by_two(self):
        a = [[1.0, 2.0], [3.0, 4.0]]
        b = [[5.0, 6.0], [7.0, 8.0]]
        expected = triple_loop_product(a, b)
        assert expected == [[19.0, 22.0], [43.0, 50.0]]
        C, _ = partition_multiply(SparseMatrix.from_dense(a), SparseMatrix.from_dense(b),
                                  PartitionSchema(1, 1, 1), "naive", 1)
        assert C.to_dense().tolist() == expected

    def test_triple_loop_agrees_with_dense_oracle(self):
        A = random_sparse(6, 5, 0.6, seed=1)
        B = random_sparse(5, 7, 0.6, seed=2)
        ref = np.array(triple_loop_product(A.to_dense().tolist(), B.to_dense().tolist()))
        np.testing.assert_allclose(dense_product_oracle(A, B), ref, rtol=1e-13)

    def test_paper_schema_256(self):
        A = random_sparse(256, 256, 2.0 ** -5, seed=21)
        B = random_sparse(256, 256, 2.0 ** -5, seed=22)
        C, _ = partition_multiply(A, B, PartitionSchema(20, 6, 20), "rand", 4)
        oracle = dense_product_oracle(A, B)
        assert np.allclose(C.to_dense(), oracle, rtol=1e-10, atol=1e-12)

    def test_zero_matrix(self):
        Z = SparseMatrix.from_coo(6, 6, [], [], [])
        B = random_sparse(6, 6, 0.8, seed=5)
        C, metrics = partition_multiply(Z, B, PartitionSchema(2, 2, 2), "naive", 2)
        assert C.nnz == 0
        assert metrics[1].shuffle_bytes == 0

    def test_rectangular_shapes(self):
        A = random_sparse(31, 17, 0.4, seed=6)
        B = random_sparse(17, 23, 0.4, seed=7)
        for schema in (PartitionSchema(1, 1, 1), PartitionSchema(5, 3, 4),
                       PartitionSchema(31, 17, 23)):
            C, _ = partition_multiply(A, B, schema, "rand", 3)
            assert np.allclose(C.to_dense(), dense_product_oracle(A, B),
                               rtol=1e-10, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        A = random_sparse(4, 5, 0.5, seed=1)
        B = random_sparse(4, 5, 0.5, seed=2)
        with pytest.raises(ValueError, match="shape mismatch"):
            partition_multiply(A, B, PartitionSchema(1, 1, 1))

    def test_schema_out_of_bounds_rejected(self):
        A = random_sparse(4, 5, 0.5, seed=1)
        B = random_sparse(5, 4, 0.5, seed=2)
        with pytest.raises(ValueError, match="out of bounds"):
            partition_multiply(A, B, PartitionSchema(5, 1, 1))

    def test_partition_ships_one_record_per_sub_block(self):
        A = random_sparse(60, 50, 0.15, seed=81)
        B = random_sparse(50, 70, 0.15, seed=82)
        m, n, k = 5, 3, 4
        _, metrics = partition_multiply(A, B, PartitionSchema(m, n, k), "rand", 2)

        def nonempty_blocks(M, row_parts, col_parts):
            i, j = np.nonzero(M.to_dense())
            return len(set(zip(i * row_parts // M.rows, j * col_parts // M.cols)))

        a_blocks = nonempty_blocks(A, m, n)
        b_blocks = nonempty_blocks(B, n, k)
        records = sum(metrics[0].records_per_worker)
        assert records == a_blocks * k + b_blocks * m <= 2 * m * n * k
        # the work count does not depend on how the partition stage batches
        # its records: this is the total of the row-piece implementation
        assert sum(x.scalar_ops for x in metrics) == 16942

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_schema_property(self, data):
        rows = data.draw(st.integers(1, 24), label="rows")
        inner = data.draw(st.integers(1, 24), label="inner")
        cols = data.draw(st.integers(1, 24), label="cols")
        m = data.draw(st.integers(1, rows), label="m")
        n = data.draw(st.integers(1, inner), label="n")
        k = data.draw(st.integers(1, cols), label="k")
        seed = data.draw(st.integers(0, 500), label="seed")
        shard = data.draw(st.sampled_from(["naive", "rand"]), label="shard")
        workers = data.draw(st.sampled_from([1, 2, 4]), label="workers")
        A = random_sparse(rows, inner, 0.4, seed)
        B = random_sparse(inner, cols, 0.4, seed + 1)
        C, _ = partition_multiply(A, B, PartitionSchema(m, n, k), shard, workers)
        assert np.allclose(C.to_dense(), dense_product_oracle(A, B),
                           rtol=1e-10, atol=1e-12)


class TestDeterminism:
    def test_bit_exact_across_shards_and_workers(self):
        A = random_sparse(48, 40, 0.3, seed=31)
        B = random_sparse(40, 52, 0.3, seed=32)
        schema = PartitionSchema(6, 4, 5)
        base, _ = partition_multiply(A, B, schema, "naive", 1)
        for kind in ("naive", "rand"):
            for w in (1, 2, 4, 8):
                C, _ = partition_multiply(A, B, schema, kind, w)
                assert C == base, f"differs for {kind} w={w}"

    def test_schemas_agree_within_tolerance(self):
        A = random_sparse(40, 40, 0.4, seed=41)
        B = random_sparse(40, 40, 0.4, seed=42)
        ref, _ = partition_multiply(A, B, PartitionSchema(1, 1, 1), "naive", 1)
        for schema in (PartitionSchema(2, 3, 4), PartitionSchema(20, 6, 20),
                       PartitionSchema(40, 40, 40)):
            C, _ = partition_multiply(A, B, schema, "naive", 1)
            assert np.allclose(C.to_dense(), ref.to_dense(), rtol=1e-10, atol=1e-13)


class TestShuffleAccounting:
    def test_a_payload_duplicated_k_times(self):
        A = random_sparse(24, 24, 0.5, seed=8)
        Z = SparseMatrix.from_coo(24, 24, [], [], [])  # no B payload at all
        base, _ = partition_multiply(A, Z, PartitionSchema(3, 2, 1), "naive", 1)
        _, m1 = partition_multiply(A, Z, PartitionSchema(3, 2, 1), "naive", 1)
        _, mk = partition_multiply(A, Z, PartitionSchema(3, 2, 4), "naive", 1)
        ratio = mk[0].shuffle_bytes / m1[0].shuffle_bytes
        assert abs(ratio - 4) < 0.05 * 4

    def test_b_payload_duplicated_m_times(self):
        B = random_sparse(24, 24, 0.5, seed=9)
        Z = SparseMatrix.from_coo(24, 24, [], [], [])
        _, m1 = partition_multiply(Z, B, PartitionSchema(1, 2, 3), "naive", 1)
        _, mm = partition_multiply(Z, B, PartitionSchema(5, 2, 3), "naive", 1)
        ratio = mm[0].shuffle_bytes / m1[0].shuffle_bytes
        assert abs(ratio - 5) < 0.05 * 5

    def test_intermediate_volume_on_dense_input(self):
        # with fully dense operands every block emits every row: the count of
        # pre-summation partials is n times the output-row x block-col pairs
        A = random_sparse(24, 24, 1.0, seed=10)
        B = random_sparse(24, 24, 1.0, seed=11)
        m, n, k = 3, 2, 4
        _, metrics = partition_multiply(A, B, PartitionSchema(m, n, k), "naive", 2)
        partial_records = sum(metrics[1].records_per_worker)
        assert partial_records == n * (24 * k)

    def test_sparse_intermediate_volume_bounded(self):
        A = random_sparse(32, 32, 0.1, seed=12)
        B = random_sparse(32, 32, 0.1, seed=13)
        m, n, k = 4, 2, 4
        _, metrics = partition_multiply(A, B, PartitionSchema(m, n, k), "naive", 1)
        assert sum(metrics[1].records_per_worker) <= n * (32 * k)


class TestLocality:
    def test_naive_summation_stays_local(self):
        A = random_sparse(64, 64, 0.3, seed=14)
        B = random_sparse(64, 64, 0.3, seed=15)
        _, metrics = partition_multiply(A, B, PartitionSchema(8, 3, 8), "naive", 4)
        assert metrics[1].cross_worker_bytes == 0

    def test_rand_summation_crosses_workers(self):
        A = random_sparse(64, 64, 0.3, seed=14)
        B = random_sparse(64, 64, 0.3, seed=15)
        _, metrics = partition_multiply(A, B, PartitionSchema(8, 3, 8), "rand", 4)
        assert metrics[1].cross_worker_bytes > 0

    def test_larger_schema_more_intermediate_bytes(self):
        A = random_sparse(128, 128, 0.25, seed=16)
        B = random_sparse(128, 128, 0.25, seed=17)
        _, m20 = partition_multiply(A, B, PartitionSchema(20, 6, 20), "rand", 4)
        _, m40 = partition_multiply(A, B, PartitionSchema(40, 6, 40), "rand", 4)
        assert m40[1].cross_worker_bytes > m20[1].cross_worker_bytes > 0


class TestSparseBatching:
    def test_row_batched_expansion_identical(self, monkeypatch):
        # sparse blocks above the scratch bound are processed in row batches;
        # rows are independent so the batched result must be bit-identical
        import mrmul.multiply as mm
        A = random_sparse(40, 40, 0.2, seed=61)
        B = random_sparse(40, 40, 0.2, seed=62)
        schema = PartitionSchema(1, 1, 1)
        whole, _ = partition_multiply(A, B, schema, "naive", 1)
        monkeypatch.setattr(mm, "_SPARSE_BATCH_PRODUCTS", 64)
        monkeypatch.setattr(mm, "_DENSE_WORK_FACTOR", 0)  # forbid the dense path
        batched, _ = partition_multiply(A, B, schema, "naive", 1)
        assert batched == whole


def _product_bytes(A, B, schema, shard, workers, batch=None, dense_factor=None,
                   scratch=None):
    """C's CSR bytes, with summation batches of at most `batch` summed size
    (0: every block multiplied alone), the given dense-path
    threshold (see _takes_dense_path) and sparse-path scratch bound."""
    import mrmul.multiply as mm
    with pytest.MonkeyPatch.context() as mp:
        for name, value in (("_SUMMATION_BATCH", batch), ("_DENSE_WORK_FACTOR", dense_factor),
                            ("_SPARSE_BATCH_PRODUCTS", scratch)):
            if value is not None:
                mp.setattr(mm, name, value)
        C, _ = partition_multiply(A, B, schema, shard, workers)
    return C.indptr.tobytes(), C.indices.tobytes(), C.values.tobytes()


@st.composite
def mixed_operands(draw):
    """A (rows x inner) and B (inner x cols) whose row and column bands are
    sparse, dense or empty, so one worker's blocks differ in density and some
    have no products."""
    rows, inner, cols = (draw(st.integers(1, 40), label=d) for d in ("rows", "inner", "cols"))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    levels = st.sampled_from([0.0, 0.1, 0.3, 1.0])
    a_rows = np.array(draw(st.lists(levels, min_size=rows, max_size=rows), label="A rows"))
    b_cols = np.array(draw(st.lists(levels, min_size=cols, max_size=cols), label="B cols"))
    b_inner = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=inner,
                                     max_size=inner), label="B rows kept"))
    A = rng.uniform(-1, 1, (rows, inner)) * (rng.random((rows, inner)) < a_rows[:, None])
    B = rng.uniform(-1, 1, (inner, cols)) * (rng.random((inner, cols)) < b_cols[None, :])
    B *= b_inner[:, None]  # empty B rows leave some A entries without products
    return SparseMatrix.from_dense(A), SparseMatrix.from_dense(B)


class TestBatchedSummation:
    @settings(max_examples=60, deadline=None)
    @given(operands=mixed_operands(), data=st.data())
    def test_byte_identical_to_per_block_products(self, operands, data):
        A, B = operands
        m = data.draw(st.integers(1, A.rows), label="m")
        n = data.draw(st.integers(1, A.cols), label="n")
        k = data.draw(st.integers(1, B.cols), label="k")
        schema = PartitionSchema(m, n, k)
        # blocks this small mostly take the dense path at the default factor;
        # 0 sends every block down the sparse path, 1 and 3 mix the two
        factor = data.draw(st.sampled_from([None, 0, 1, 3]), label="dense factor")
        # 0 multiplies every block alone: a sparse-path block as a stack of
        # one through _sparse_product, a dense-path one through _dense_product
        reference = _product_bytes(A, B, schema, "naive", 1, batch=0, dense_factor=factor)
        # small bounds cut a worker's blocks into batches between blocks, and
        # a stack's expansion into row batches
        batch = data.draw(st.sampled_from([None, 40, 150, 600]), label="batch")
        scratch = data.draw(st.sampled_from([None, 64]), label="scratch")
        for shard in ("naive", "rand"):
            for workers in (1, 2, 3, 8):
                assert _product_bytes(A, B, schema, shard, workers, batch, factor,
                                      scratch) == reference

    def test_summation_job_shape(self, monkeypatch):
        import mrmul.multiply as mm
        real_run_job, jobs = mm.run_job, []

        def recording_run_job(spec, records):
            out, m = real_run_job(spec, records)
            jobs.append((spec, records, m))
            return out, m

        monkeypatch.setattr(mm, "run_job", recording_run_job)
        A = random_sparse(60, 50, 0.15, seed=81)
        B = random_sparse(50, 70, 0.15, seed=82)
        partition_multiply(A, B, PartitionSchema(5, 3, 4), "rand", 3)
        spec, records, m = jobs[1]
        assert m.stage == "summation"
        # at most one input record per worker, each pinned to its own worker
        placed = [spec.map_affinity(rec) for rec in records]
        assert len(placed) == len(set(placed)) <= 3
        # the records the blocks emit are those of one product per block
        assert m.records_per_worker == [238, 198, 235]
        assert m.shuffle_bytes == 82927
        assert m.cross_worker_bytes == 57438

    def test_memory_bounded(self):
        A = random_sparse(1000, 1000, 2.0 ** -7, seed=91)
        B = random_sparse(1000, 1000, 2.0 ** -7, seed=92)
        tracemalloc.start()
        try:
            partition_multiply(A, B, PartitionSchema(20, 6, 20), "rand", 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # multiplying every block alone peaks at about 23.1 MB here; batching
        # must stay within 10% of that
        assert peak <= 1.1 * 23.1e6, f"peak {peak / 1e6:.1f} MB"


class TestBroadcastMultiply:
    def test_identity_rhs(self):
        A = random_sparse(12, 6, 0.5, seed=18)
        R = broadcast_multiply(A, DenseMatrix(np.eye(6)), 2)
        assert R == DenseMatrix(A.to_dense())

    def test_hand_dot_product(self):
        A = SparseMatrix.from_dense([[1.0, 2.0]])
        B = DenseMatrix([[3.0], [4.0]])
        R = broadcast_multiply(A, B, 1)
        assert R.to_dense().tolist() == [[11.0]]

    def test_random_against_oracle(self, rng):
        A = random_sparse(512, 16, 0.3, seed=19)
        B = DenseMatrix(rng.random((16, 16)))
        R = broadcast_multiply(A, B, 4)
        expected = A.to_dense() @ B.values
        np.testing.assert_allclose(R.to_dense(), expected, atol=1e-12)

    def test_worker_invariance(self):
        B = DenseMatrix(np.arange(18, dtype=float).reshape(9, 2) + 1)
        holes = random_sparse(33, 9, 0.4, seed=20).to_dense()
        holes[[0, 7, 8, 20, 31, 32]] = 0.0  # empty rows, the last two trailing
        for A in (random_sparse(33, 9, 0.4, seed=20), SparseMatrix.from_dense(holes),
                  random_sparse(3, 9, 0.4, seed=21)):  # fewer rows than workers
            base = broadcast_multiply(A, B, 1)
            for w in (2, 4, 8):
                assert broadcast_multiply(A, B, w) == base

    @pytest.mark.parametrize(
        "rows,workers,dense",
        [(33, 1, False), (33, 2, False), (33, 8, False), (3, 8, False), (33, 2, True), (3, 8, True)],
        ids=["33-1", "33-2", "33-8", "3-8", "33-2-dense", "3-8-dense"])
    def test_ships_one_record_per_row_block(self, monkeypatch, rows, workers, dense):
        import mrmul.multiply as mm
        real_run_job, metrics = mm.run_job, []

        def recording_run_job(spec, records):
            out, m = real_run_job(spec, records)
            metrics.append(m)
            return out, m

        monkeypatch.setattr(mm, "run_job", recording_run_job)
        A = random_sparse(rows, 9, 0.4, seed=22)
        if dense:
            A = DenseMatrix(A.to_dense())
        B = DenseMatrix(np.arange(18, dtype=float).reshape(9, 2) + 1)
        R = broadcast_multiply(A, B, workers)
        assert isinstance(R, DenseMatrix)
        (m,) = metrics
        blocks = min(workers, rows)
        assert m.stage == "broadcast-multiply"
        # one record per block, shuffled to the worker that computed it
        assert m.records_per_worker == [1] * blocks + [0] * (workers - blocks)
        assert m.cross_worker_bytes == 0
        # each record is (block, the block's product as float64 bytes)
        split = _Splitter(rows, blocks)
        assert m.shuffle_bytes == sum(
            len(serialize_record(b, bytes(8 * (hi - lo) * B.cols)))
            for b, (lo, hi) in enumerate(map(split.range, range(blocks))))
        np.testing.assert_allclose(R.to_dense(), A.to_dense() @ B.values, atol=1e-12)

    def test_product_bits_pinned(self):
        # A has leading, inner and trailing empty rows; each product hashes
        # to the digest of the product whose blocks were shipped as arrays
        # and gathered with fancy indexing, at any worker count
        holes = random_sparse(50, 40, 0.3, seed=71).to_dense()
        holes[[0, 1, 17, 18, 30, 48, 49]] = 0.0
        A = SparseMatrix.from_dense(holes)
        rng = np.random.default_rng(72)
        B1 = DenseMatrix(rng.uniform(-1.0, 1.0, (40, 1)))
        B8 = DenseMatrix(rng.uniform(-1.0, 1.0, (40, 8)))
        D = DenseMatrix(rng.uniform(-1.0, 1.0, (37, 40)))
        pinned = [
            (A, B1, "f11193de425f33ac12c205c1dec126399a461fd3ba21eb4d565bc9a5df7757eb"),
            (A, B8, "57eb8fc6241b11f9310f6b10094094637f7f9cde22bbfd927c58fa437c53ae34"),
            (D, B8, "11133cdb2bf8da60f95417f783eda89726b1f3e218bde7f6266f977ecada2e51"),
        ]
        for L, R, digest in pinned:
            for workers in (1, 2, 3):
                out = broadcast_multiply(L, R, workers).values
                assert hashlib.sha256(out.tobytes()).hexdigest() == digest, (R.cols, workers)

    def test_shape_mismatch(self):
        A = random_sparse(4, 5, 0.5, seed=1)
        with pytest.raises(ValueError, match="shape mismatch"):
            broadcast_multiply(A, DenseMatrix(np.eye(4)), 1)


def _csr_bytes(M):
    if isinstance(M, DenseMatrix):
        return M.values.tobytes()
    return M.indptr.tobytes(), M.indices.tobytes(), M.values.tobytes()


@st.composite
def broadcast_operands(draw):
    """A with rows of 0, 1, 9 and 140 entries (beyond the 128-wide pairwise
    blocks of numpy's summation), optionally empty first and last rows,
    stored as a SparseMatrix or a DenseMatrix, and a dense right-hand side of
    width 1, 3 or 8."""
    cols = 150
    counts = draw(st.lists(st.sampled_from([0, 1, 9, 140]), min_size=1, max_size=12))
    counts = ([0] if draw(st.booleans()) else []) + counts + ([0] if draw(st.booleans()) else [])
    width = draw(st.sampled_from([1, 3, 8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = np.zeros((len(counts), cols))
    for r, c in enumerate(counts):
        dense[r, rng.choice(cols, size=c, replace=False)] = rng.uniform(-1.0, 1.0, size=c)
    A = DenseMatrix(dense) if draw(st.booleans()) else SparseMatrix.from_dense(dense)
    return A, DenseMatrix(rng.uniform(-1.0, 1.0, (cols, width)))


class TestBroadcastKernel:
    @settings(max_examples=60, deadline=None)
    @given(broadcast_operands())
    def test_byte_identical_across_workers(self, operands):
        A, B = operands
        base = broadcast_multiply(A, B, 1)
        for w in (2, 3, 8):
            assert _csr_bytes(broadcast_multiply(A, B, w)) == _csr_bytes(base)
        # each row is that row's product computed alone: a segmented sum of
        # its own products (sparse), or an einsum of the one row (dense)
        out = base.to_dense()
        for r in range(A.rows):
            if isinstance(A, DenseMatrix):
                alone = np.einsum("ij,jk->ik", A.values[r:r + 1], B.values)[0]
            else:
                cols, vals = A.row(r)
                if not cols.size:
                    continue
                alone = np.add.reduceat(vals[:, None] * B.values[cols], [0], axis=0)[0]
            assert out[r].tobytes() == alone.tobytes()
        np.testing.assert_allclose(out, A.to_dense() @ B.values, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("holes", [False, True], ids=["full", "empty-ends"])
    @pytest.mark.parametrize("width", [1, 8])
    def test_row_batches_bit_identical(self, monkeypatch, width, holes):
        import mrmul.multiply as mm
        A = random_sparse(40, 40, 0.2, seed=63)
        if holes:
            dense = A.to_dense()
            dense[[0, -1]] = 0.0
            A = SparseMatrix.from_dense(dense)
        B = DenseMatrix(np.random.default_rng(64).random((40, width)))
        whole = broadcast_multiply(A, B, 2)
        # about 8 x width scratch values per row against a bound of 32:
        # batches of about four rows at width 1, of one row at width 8
        real_batches, batches = mm._bounded_batches, []

        def recording_batches(end, bound):
            for span in real_batches(end, bound):
                batches.append(span)
                yield span

        monkeypatch.setattr(mm, "_SPARSE_BATCH_PRODUCTS", 32)
        monkeypatch.setattr(mm, "_bounded_batches", recording_batches)
        assert _csr_bytes(broadcast_multiply(A, B, 2)) == _csr_bytes(whole)
        assert len(batches) > 2 * 2  # each of the 2 blocks is cut into several


class TestSuggestSchema:
    def test_single_worker_tiny(self):
        assert suggest_schema(3, 3, 3, 5, 5, 1) == PartitionSchema(1, 1, 1)

    def test_covers_workers_with_minimal_inner(self):
        s = suggest_schema(1000, 1000, 1000, 10**6, 10**6, 4)
        assert s.m * s.k >= 4
        assert s.n == 1

    def test_never_splits_finer_than_length(self):
        s = suggest_schema(2, 5, 2, 10, 10, 64)
        assert s.m <= 2 and s.n <= 5 and s.k <= 2

    def test_inner_grows_under_budget_pressure(self):
        s = suggest_schema(100, 100, 100, 10**8, 10**8, 2, budget_bytes=1 << 20)
        assert s.n > 1 and s.n <= 100


class TestSummationPaths:
    def test_product_bits_pinned(self):
        # the test_memory_bounded operands: C's arrays hash to the digest of
        # the product before batches were decoded from raw payloads, at any
        # worker count
        A = random_sparse(1000, 1000, 2.0 ** -7, seed=91)
        B = random_sparse(1000, 1000, 2.0 ** -7, seed=92)
        for workers in (1, 2, 3):
            C, _ = partition_multiply(A, B, PartitionSchema(20, 6, 20), "rand", workers)
            h = hashlib.sha256()
            for arr in (C.indptr, C.indices, C.values):
                h.update(arr.tobytes())
            assert h.hexdigest() == (
                "46f7815ba7e3f9e9abd7d160c0c0ecedb73dfe1957aab1a1cff2b2e32aaad278"), workers

    def test_accumulator_sums_left_to_right(self, monkeypatch):
        import mrmul.multiply as mm
        # one 8 x 8 output block from about 12 products per cell: too few
        # products for the dense path, but far more than cells, so the block
        # sums into the dense accumulator
        A = random_sparse(8, 400, 0.1, seed=101)
        B = random_sparse(400, 8, 0.3, seed=102)
        paths, real_expand = [], mm._expand_rows

        def expand(*args):
            paths.append(args[-1])  # accumulate
            return real_expand(*args)

        monkeypatch.setattr(mm, "_expand_rows", expand)
        C, _ = partition_multiply(A, B, PartitionSchema(1, 1, 1), "naive", 1)
        assert paths and all(paths)
        out, b = C.to_dense(), B.to_dense()
        regrouped = 0
        for i in range(A.rows):
            cols, vals = A.row(i)
            for j in range(B.cols):
                # the cell's products in A-entry order, added left to right
                prods = [a * b[k, j] for k, a in zip(cols, vals) if b[k, j] != 0.0]
                total = 0.0
                for p in prods:
                    total += p
                assert out[i, j].tobytes() == np.float64(total).tobytes(), (i, j)
                regrouped += np.add.reduceat(prods, [0])[0] != total if prods else 0
        # the sort path's reduceat groups some of these sums otherwise
        assert regrouped

    def test_wide_block_allocates_no_cell_array(self, monkeypatch):
        # one block of 3000 x 3000 output cells from 3000 products: the sort
        # path, which must not allocate an array of one entry per cell
        n = 3000
        A = SparseMatrix.from_dense(np.linspace(1.0, 2.0, n).reshape(n, 1))
        b = np.zeros((1, n))
        b[0, 7] = 3.0
        B = SparseMatrix.from_dense(b)
        sizes, real_zeros, real_bincount = [], np.zeros, np.bincount

        def zeros(shape, *args, **kwargs):
            sizes.append(int(np.prod(shape)))
            return real_zeros(shape, *args, **kwargs)

        def bincount(x, weights=None, minlength=0):
            sizes.append(minlength)
            return real_bincount(x, weights, minlength)

        monkeypatch.setattr(np, "zeros", zeros)
        monkeypatch.setattr(np, "bincount", bincount)
        C, _ = partition_multiply(A, B, PartitionSchema(1, 1, 1), "naive", 1)
        monkeypatch.undo()
        assert sizes and max(sizes) <= n + 1
        np.testing.assert_array_equal(C.to_dense(), A.to_dense() @ b)


class TestThreadedStages:
    def test_chunky_summation_map_runs_on_threads(self, monkeypatch):
        # the TestNoFloatingPointWarnings product: 64000 products in 3 dense
        # blocks, chunky enough for the summation map to go to the pool,
        # while the partition map stays on the caller's thread
        import mrmul.engine as engine
        real_run_tasks, calls = engine._run_tasks, []

        def spy(task_fn, n_workers, args_per_worker, parallel):
            calls.append((args_per_worker[0][2], n_workers, parallel))
            return real_run_tasks(task_fn, n_workers, args_per_worker, parallel)

        rng = np.random.default_rng(17)
        A = SparseMatrix.from_dense(rng.random((40, 40)) + 0.5)
        monkeypatch.setattr(engine, "_run_tasks", spy)
        C, _ = partition_multiply(A, A, PartitionSchema(1, 1, 3), "rand", 3)
        monkeypatch.undo()
        assert calls == [("partition", 3, False), ("summation", 3, True)]
        np.testing.assert_allclose(C.to_dense(), A.to_dense() @ A.to_dense(), rtol=1e-12)


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started while the test runs."""
    started, real_start = [], threading.Thread.start

    def start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


class TestWorkersPlaceWork:
    """--workers places keys on workers; it sizes neither the shuffle's
    per-key memory nor the thread pool."""

    def test_shuffle_memory_independent_of_workers(self, thread_starts):
        # a 200^2 product of 3,833 summation records, too fine-grained to
        # start threads: 2,000 workers cost the shuffle no memory per key,
        # and the workers without input no chunk, task or output list
        A = random_sparse(200, 200, 0.05, seed=93)
        B = random_sparse(200, 200, 0.05, seed=94)
        schema = PartitionSchema(10, 2, 10)
        # the unmeasured first product also makes numpy's one-time
        # allocations, which would otherwise count in the first peak only
        reference, _ = partition_multiply(A, B, schema, "rand", 2)
        peaks = {}
        for workers in (2, 2000):
            tracemalloc.start()
            try:
                C, _ = partition_multiply(A, B, schema, "rand", workers)
                _, peaks[workers] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert C == reference
        assert thread_starts == []
        assert peaks[2000] <= 1.1 * peaks[2], peaks

    def test_threads_at_most_one_per_core(self, thread_starts):
        # a chunky dense product whose summation map goes to the pool: 16
        # workers share at most one thread per core, with the same bits
        rng = np.random.default_rng(19)
        A = SparseMatrix.from_dense(rng.random((100, 100)) + 0.5)
        schema = PartitionSchema(4, 1, 4)
        C, _ = partition_multiply(A, A, schema, "rand", 16)
        assert 1 <= len(thread_starts) <= (os.cpu_count() or 1)
        assert C == partition_multiply(A, A, schema, "rand", 1)[0]
