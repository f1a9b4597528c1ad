"""Sparse and dense matrix types plus the seeded random-matrix generator.

All values are float64. SparseMatrix is row-compressed (CSR-style arrays)
with strictly ascending column indices per row and no explicit zeros. It has
one constructor, and every builder (from_coo, from_dense, transpose,
generate_random, the file readers, PageRank's link matrix and the multiply's
assembly) goes through it: it copies the arrays it is given into arrays of
its own, validates them, drops explicit zeros and makes them read-only, so
instances are immutable and safe to share across workers. csr_indptr and
csr_rows are the format's two index idioms, row pointers from row counts and
the row of each stored entry, for every module that works on the arrays;
csr_spans gathers rows, or any spans of entries, that need not be adjacent.
Both matrix types also carry one private slot, _row_blocks, in which
broadcast_multiply keeps the matrix cut into row blocks per worker count,
filled on first use and valid for the matrix's life because it is immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SparseMatrix",
    "DenseMatrix",
    "DenseVector",
    "GeneratorParams",
    "csr_indptr",
    "csr_rows",
    "csr_spans",
    "transpose",
    "elementwise_update",
    "generate_random",
]


def csr_indptr(counts):
    """Row pointers (int64, one longer than counts) of rows holding counts[i]
    entries each."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def csr_rows(indptr):
    """The row index of every stored entry, from the row pointers."""
    return np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))


def csr_spans(starts, counts):
    """The index of every entry of the spans [starts[i], starts[i] +
    counts[i]), span after span."""
    # entry t of the result, in span i, is starts[i] + t - (entries before span i)
    return np.repeat(starts - csr_indptr(counts)[:-1], counts) + np.arange(np.sum(counts))


class SparseMatrix:
    """Row-compressed sparse real matrix.

    Stored as CSR triplet arrays (indptr, indices, values). The constructor,
    which every builder calls, copies the three arrays, validates shape
    bounds and per-row strictly ascending column indices, drops explicit
    zero values so that nnz counts only true nonzeros, and makes its arrays
    read-only.
    """

    __slots__ = ("rows", "cols", "indptr", "indices", "values", "_row_blocks")

    def __init__(self, rows, cols, indptr, indices, values):
        rows = int(rows)
        cols = int(cols)
        if rows < 1 or cols < 1:
            raise ValueError(f"matrix shape must be positive, got {rows}x{cols}")
        indptr = np.array(indptr, dtype=np.int64)
        indices = np.array(indices, dtype=np.int64)
        values = np.array(values, dtype=np.float64)
        if indptr.shape != (rows + 1,):
            raise ValueError("indptr length must be rows + 1")
        if indptr[0] != 0 or indptr[-1] != len(indices) or len(indices) != len(values):
            raise ValueError("inconsistent CSR arrays")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if np.any((indices < 0) | (indices >= cols)):
            raise ValueError("column index out of range")
        row_id = csr_rows(indptr)
        if np.any((np.diff(indices) <= 0) & (row_id[1:] == row_id[:-1])):
            raise ValueError("column indices must be strictly ascending within a row")
        keep = values != 0.0
        if not keep.all():
            indptr = csr_indptr(np.bincount(row_id[keep], minlength=rows))
            indices = indices[keep]
            values = values[keep]
        self.rows = rows
        self.cols = cols
        self.indptr = indptr
        self.indices = indices
        self.values = values
        self._row_blocks = {}
        for a in (indptr, indices, values):
            a.setflags(write=False)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_coo(cls, rows, cols, row_ids, col_ids, vals):
        """Build from coordinate triples; duplicate (row, col) pairs are an error."""
        row_ids = np.asarray(row_ids, dtype=np.int64)
        col_ids = np.asarray(col_ids, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        order = np.lexsort((col_ids, row_ids))
        row_ids, col_ids, vals = row_ids[order], col_ids[order], vals[order]
        dup = (np.diff(row_ids) == 0) & (np.diff(col_ids) == 0)
        if np.any(dup):
            j = int(np.flatnonzero(dup)[0])
            raise ValueError(f"duplicate entry at ({row_ids[j]}, {col_ids[j]})")
        if np.any((row_ids < 0) | (row_ids >= rows)):
            raise ValueError("row index out of range")
        return cls(rows, cols, csr_indptr(np.bincount(row_ids, minlength=rows)), col_ids, vals)

    @classmethod
    def from_dense(cls, arr):
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        rows, cols = arr.shape
        ii, jj = np.nonzero(arr)
        return cls(rows, cols, csr_indptr(np.bincount(ii, minlength=rows)), jj, arr[ii, jj])

    # -- accessors ------------------------------------------------------

    @property
    def nnz(self):
        return int(self.indptr[-1])

    @property
    def shape(self):
        return (self.rows, self.cols)

    def row(self, i):
        """(column indices, values) views of row i."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    def row_nonzero_counts(self):
        return np.diff(self.indptr)

    def to_dense(self):
        out = np.zeros((self.rows, self.cols), dtype=np.float64)
        out[csr_rows(self.indptr), self.indices] = self.values
        return out

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.nnz))

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


class DenseMatrix:
    """Small dense real matrix, row-major; the broadcast-side operand type."""

    __slots__ = ("rows", "cols", "values", "_row_blocks")

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("DenseMatrix requires a 2-D value grid")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("matrix shape must be positive")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        self.rows, self.cols = arr.shape
        self.values = arr
        self._row_blocks = {}

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def nnz(self):
        return int(np.count_nonzero(self.values))

    def to_dense(self):
        return self.values.copy()

    def __eq__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.values, other.values)

    def __repr__(self):
        return f"DenseMatrix({self.rows}x{self.cols})"


class DenseVector:
    """Dense real vector (labels, dual variables, rank scores)."""

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64).reshape(-1)
        if arr.size < 1:
            raise ValueError("vector must be non-empty")
        arr.setflags(write=False)
        self.values = arr

    def __len__(self):
        return self.values.size

    def __eq__(self, other):
        if not isinstance(other, DenseVector):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __repr__(self):
        return f"DenseVector(len={len(self)})"


@dataclass(frozen=True)
class GeneratorParams:
    """Random sparse matrix description: shape, nonzero fraction, RNG seed."""

    m: int
    n: int
    delta: float
    seed: int = 0

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("generator shape must be positive")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def transpose(M: SparseMatrix) -> SparseMatrix:
    """Transpose; an involution that preserves nnz."""
    row_id = csr_rows(M.indptr)
    # entries are stored row by row, so a stable sort by column alone leaves
    # each column's entries in row order
    order = np.argsort(M.indices, kind="stable")
    indptr = csr_indptr(np.bincount(M.indices, minlength=M.cols))
    return SparseMatrix(M.cols, M.rows, indptr, row_id[order], M.values[order])


def elementwise_update(H, X, Y, eps=0.0):
    """Multiplicative update step: out[i,j] = H[i,j] * X[i,j] / (Y[i,j] + eps).

    All three operands must be DenseMatrix of one shape. With nonnegative
    inputs the output is nonnegative; eps guards division where Y has zeros.
    """
    if not all(isinstance(M, DenseMatrix) for M in (H, X, Y)):
        raise TypeError("operands must all be DenseMatrix")
    if H.shape != X.shape or H.shape != Y.shape:
        raise ValueError(f"shape mismatch: {H.shape}, {X.shape}, {Y.shape}")
    return DenseMatrix(H.values * X.values / (Y.values + float(eps)))


def _generate_row(seed, i, n, delta):
    # Independent stream per (seed, row), so a row's values depend on its
    # seed and index alone.
    rng = np.random.default_rng((int(seed), int(i)))
    mask = rng.random(n) < delta
    cols = np.flatnonzero(mask).astype(np.int64)
    vals = rng.random(cols.size)
    vals = np.where(vals == 0.0, 0.5, vals)  # keep values in the open interval
    return cols, vals


def generate_random(p: GeneratorParams, workers: int = 1) -> SparseMatrix:
    """Random sparse matrix: each cell nonzero with probability delta,
    values uniform in (0, 1). Deterministic in p.seed.

    Each row draws from its own RNG stream. workers (>= 1) names the worker
    count of the run the matrix is made for and changes nothing: generation
    starts no thread, and the matrix has the same bits for every count.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    cols, vals = zip(*[_generate_row(p.seed, i, p.n, p.delta) for i in range(p.m)])
    return SparseMatrix(p.m, p.n, csr_indptr([c.size for c in cols]),
                        np.concatenate(cols), np.concatenate(vals))
