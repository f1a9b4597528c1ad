import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mrmul.io import ParseError, read_matrix, write_matrix
from mrmul.multiply import PartitionSchema, partition_multiply
from mrmul.sparse import (
    DenseMatrix,
    DenseVector,
    GeneratorParams,
    SparseMatrix,
    elementwise_update,
    generate_random,
    sorted_distinct,
    transpose,
)

from conftest import random_sparse


class TestSortedDistinct:
    """The label reader's dedupe gives np.unique's values and bits: -0.0 and
    0.0 collapse to the one np.unique keeps."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-2**62, 2**62) | st.sampled_from([0, 1, 7])))
    def test_integers_match_unique(self, xs):
        x = np.array(xs, dtype=np.int64)
        got = sorted_distinct(x)
        assert got.dtype == np.int64 and got.tolist() == np.unique(x).tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, 1.0])))
    def test_floats_match_unique_bits(self, xs):
        x = np.array(xs, dtype=np.float64)
        assert sorted_distinct(x).tobytes() == np.unique(x).tobytes()


class TestConstruction:
    def test_rejects_empty_shape(self):
        with pytest.raises(ValueError, match="shape must be positive"):
            SparseMatrix(0, 0, [0], [], [])
        with pytest.raises(ValueError):
            DenseMatrix(np.zeros((0, 3)))

    def test_rejects_descending_columns(self):
        with pytest.raises(ValueError, match="strictly ascending"):
            SparseMatrix(1, 4, [0, 2], [2, 1], [1.0, 3.0])

    def test_rejects_duplicate_columns(self):
        with pytest.raises(ValueError, match="strictly ascending"):
            SparseMatrix(1, 4, [0, 2], [2, 2], [1.0, 3.0])

    def test_rejects_out_of_range_column(self):
        with pytest.raises(ValueError, match="column index out of range"):
            SparseMatrix(1, 2, [0, 1], [2], [1.0])

    def test_explicit_zeros_dropped(self):
        M = SparseMatrix(2, 3, [0, 2, 3], [0, 1, 2], [1.0, 0.0, 4.0])
        assert M.nnz == 2
        assert M.to_dense()[0, 1] == 0.0

    def test_from_coo_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseMatrix.from_coo(2, 2, [0, 0], [1, 1], [1.0, 2.0])

    def test_nnz_is_sum_of_row_lengths(self):
        M = random_sparse(17, 31, 0.3, seed=4)
        assert M.nnz == int(M.row_nonzero_counts().sum())


class TestIO:
    def test_read_documented_example(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("4 4 2\n0\t1:2.5\n3\t0:1.0\n")
        M = read_matrix(p)
        assert (M.rows, M.cols, M.nnz) == (4, 4, 2)
        assert M.to_dense()[0, 1] == 2.5
        assert M.to_dense()[3, 0] == 1.0

    def test_read_empty_body(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("3 3 0\n")
        M = read_matrix(p)
        assert (M.rows, M.cols, M.nnz) == (3, 3, 0)

    def test_read_rejects_descending_columns(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 4 2\n0\t2:1 1:3\n")
        with pytest.raises(ParseError, match="ascending"):
            read_matrix(p)

    def test_read_rejects_nnz_mismatch(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2 2 3\n0\t0:1\n")
        with pytest.raises(ParseError, match="nnz"):
            read_matrix(p)

    def test_parse_error_carries_line_number(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2 2 1\n0\tnot-a-pair\n")
        with pytest.raises(ParseError) as exc:
            read_matrix(p)
        assert exc.value.lineno == 2

    def test_identity_round_trip(self, tmp_path):
        M = SparseMatrix.from_dense(np.eye(3))
        p = tmp_path / "i.txt"
        write_matrix(M, p)
        assert read_matrix(p) == M

    def test_random_round_trip(self, tmp_path):
        M = random_sparse(64, 64, 0.1, seed=7)
        p = tmp_path / "r.txt"
        write_matrix(M, p)
        back = read_matrix(p)
        assert back == M  # bit-exact

    @settings(max_examples=30, deadline=None)
    @given(rows=st.integers(1, 12), cols=st.integers(1, 12),
           delta=st.sampled_from([0.0, 0.2, 0.7, 1.0]), seed=st.integers(0, 999))
    def test_round_trip_property(self, tmp_path_factory, rows, cols, delta, seed):
        M = random_sparse(rows, cols, delta, seed)
        p = tmp_path_factory.mktemp("rt") / "m.txt"
        write_matrix(M, p)
        assert read_matrix(p) == M


class TestTranspose:
    def test_hand_case(self):
        M = SparseMatrix.from_dense([[1, 2], [0, 3]])
        assert transpose(M).to_dense().tolist() == [[1, 0], [2, 3]]

    def test_symmetric_fixed_point(self):
        M = SparseMatrix.from_dense([[2, 5], [5, 1]])
        assert transpose(M) == M

    def test_involution_preserves_nnz(self):
        M = random_sparse(100, 37, 0.15, seed=3)
        T = transpose(M)
        assert T.nnz == M.nnz
        assert transpose(T) == M

    @settings(max_examples=25, deadline=None)
    @given(rows=st.integers(1, 20), cols=st.integers(1, 20), seed=st.integers(0, 99))
    def test_involution_property(self, rows, cols, seed):
        M = random_sparse(rows, cols, 0.4, seed)
        assert transpose(transpose(M)) == M


def random_dense(rows, cols, seed):
    return DenseMatrix(random_sparse(rows, cols, 1.0, seed).to_dense())


class TestElementwiseUpdate:
    def test_scalar_case(self):
        H = DenseMatrix([[1.0]])
        X = DenseMatrix([[8.0]])
        Y = DenseMatrix([[4.0]])
        out = elementwise_update(H, X, Y, eps=0.0)
        assert out.to_dense()[0, 0] == 2.0

    def test_fixed_point_when_x_equals_y(self):
        H = random_dense(6, 8, seed=1)
        X = random_dense(6, 8, seed=2)
        out = elementwise_update(H, X, X, eps=0.0)
        np.testing.assert_allclose(out.to_dense(), H.to_dense(), rtol=1e-15)

    def test_zero_denominator_guarded(self):
        H = DenseMatrix([[3.0]])
        X = DenseMatrix([[2.0]])
        Y = DenseMatrix([[0.0]])
        out = elementwise_update(H, X, Y, eps=1e-12)
        v = out.to_dense()[0, 0]
        assert np.isfinite(v) and v == 6.0 / 1e-12

    def test_product_identity(self):
        # out * Y == H * X entrywise when eps = 0 and Y positive
        H = random_dense(10, 10, seed=5)
        X = random_dense(10, 10, seed=6)
        Y = random_dense(10, 10, seed=7)
        out = elementwise_update(H, X, Y, eps=0.0)
        lhs = out.to_dense() * Y.to_dense()
        rhs = H.to_dense() * X.to_dense()
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_dense_variant(self):
        H = DenseMatrix([[1.0, 2.0]])
        X = DenseMatrix([[8.0, 3.0]])
        Y = DenseMatrix([[4.0, 6.0]])
        out = elementwise_update(H, X, Y, eps=0.0)
        np.testing.assert_allclose(out.values, [[2.0, 1.0]])

    def test_shape_mismatch(self):
        H = DenseMatrix(np.zeros((2, 2)))
        X = DenseMatrix(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            elementwise_update(H, X, X, 0.0)

    def test_sparse_operand_rejected(self):
        H = DenseMatrix([[1.0]])
        with pytest.raises(TypeError):
            elementwise_update(H, SparseMatrix.from_dense([[8.0]]), H, 0.0)


class TestGenerator:
    def test_full_density(self):
        M = generate_random(GeneratorParams(4, 4, 1.0, seed=0))
        assert M.nnz == 16
        assert np.all((M.values > 0) & (M.values < 1))

    def test_zero_density(self):
        M = generate_random(GeneratorParams(5, 5, 0.0, seed=0))
        assert M.nnz == 0

    def test_binomial_nnz(self):
        p = GeneratorParams(1000, 1000, 2.0 ** -7, seed=42)
        M = generate_random(p)
        mean = 1000 * 1000 * p.delta
        sigma = np.sqrt(1000 * 1000 * p.delta * (1 - p.delta))
        assert abs(M.nnz - mean) <= 4 * sigma

    def test_row_counts_chi_square(self):
        p = GeneratorParams(1000, 1000, 2.0 ** -7, seed=42)
        M = generate_random(p)
        counts = M.row_nonzero_counts()
        binom = stats.binom(1000, p.delta)
        # bin the per-row counts, merging tails so expected counts stay >= 5
        lo, hi = 2, 14
        edges = list(range(lo, hi + 1))
        observed = [np.sum(counts < lo)] + \
                   [np.sum(counts == e) for e in edges] + [np.sum(counts > hi)]
        expected = [binom.cdf(lo - 1)] + \
                   [binom.pmf(e) for e in edges] + [binom.sf(hi)]
        expected = np.array(expected) * 1000
        assert expected.min() >= 1.0
        chi2 = float(np.sum((np.array(observed) - expected) ** 2 / expected))
        dof = len(observed) - 1
        assert chi2 < stats.chi2.ppf(0.999, dof), f"chi2={chi2:.1f}"

    def test_worker_count_invariance(self):
        p = GeneratorParams(97, 53, 0.2, seed=11)
        base = generate_random(p, workers=1)
        for w in (2, 4, 8):
            assert generate_random(p, workers=w) == base

    def test_starts_no_thread(self, monkeypatch):
        import threading

        def refuse(thread):
            raise AssertionError("generate_random started a thread")

        p = GeneratorParams(64, 40, 0.2, seed=12)
        base = generate_random(p, workers=1)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert generate_random(p, workers=4) == base

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            GeneratorParams(4, 4, 1.5, seed=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            GeneratorParams(4, 4, 0.5, seed=-1)


class TestVectors:
    def test_dense_vector_len(self):
        v = DenseVector([1.0, 2.0])
        assert len(v) == 2

    def test_dense_vector_rejects_empty(self):
        with pytest.raises(ValueError):
            DenseVector([])


# Every SparseMatrix builder, as tmp_path -> (matrix, the arrays the caller
# handed it). Each one goes through the one constructor.
def _from_caller_arrays(tmp_path):
    arrays = [np.array([0, 2, 2, 4]), np.array([0, 3, 1, 2]), np.array([1.5, -2.0, 0.0, 4.0])]
    return SparseMatrix(3, 4, *arrays), arrays


def _from_coo(tmp_path):
    arrays = [np.array([2, 0, 0]), np.array([1, 3, 0]), np.array([4.0, -2.0, 1.5])]
    return SparseMatrix.from_coo(3, 4, *arrays), arrays


def _from_dense(tmp_path):
    arr = np.array([[1.5, 0.0, 0.0, -2.0], [0.0, 0.0, 0.0, 0.0], [0.0, 4.0, 0.0, 0.0]])
    return SparseMatrix.from_dense(arr), [arr]


def _read_matrix(tmp_path):
    path = tmp_path / "m.txt"
    write_matrix(random_sparse(6, 5, 0.4, seed=3), path)
    return read_matrix(path), []


def _partition_product(tmp_path):
    A, B = random_sparse(9, 7, 0.3, seed=4), random_sparse(7, 8, 0.3, seed=5)
    C, _ = partition_multiply(A, B, PartitionSchema(2, 2, 3), "rand", workers=2)
    return C, []


BUILDERS = {
    "constructor": _from_caller_arrays,
    "from_coo": _from_coo,
    "from_dense": _from_dense,
    "transpose": lambda tmp_path: (transpose(random_sparse(5, 7, 0.3, seed=2)), []),
    "transpose_all_zero": lambda tmp_path: (transpose(SparseMatrix.from_coo(3, 5, [], [], [])), []),
    "generate_delta_0": lambda tmp_path: (generate_random(GeneratorParams(4, 6, 0.0, 1)), []),
    "generate_delta_1": lambda tmp_path: (generate_random(GeneratorParams(4, 6, 1.0, 1)), []),
    "read_matrix": _read_matrix,
    "partition_multiply": _partition_product,
}


@pytest.mark.parametrize("builder", list(BUILDERS))
def test_every_builder_goes_through_the_constructor(tmp_path, builder):
    M, caller_arrays = BUILDERS[builder](tmp_path)
    arrays = (M.indptr, M.indices, M.values)
    assert not any(a.flags.writeable for a in arrays)
    assert M.indptr.dtype == M.indices.dtype == np.int64 and M.values.dtype == np.float64
    assert np.all(M.values != 0.0)
    before = [a.copy() for a in arrays]
    for a in caller_arrays:
        a[...] = 7
    assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
    rebuilt = SparseMatrix(M.rows, M.cols, *arrays)
    assert rebuilt == M
    assert not any(np.shares_memory(a, b) for a, b in zip(arrays, (rebuilt.indptr,
                                                                   rebuilt.indices,
                                                                   rebuilt.values)))
