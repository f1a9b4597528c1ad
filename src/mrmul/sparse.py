"""Sparse and dense matrix types plus the parallel random-matrix generator.

All values are float64. SparseMatrix is row-compressed (CSR-style arrays)
with strictly ascending column indices per row and no explicit zeros;
instances are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SparseMatrix",
    "DenseMatrix",
    "DenseVector",
    "GeneratorParams",
    "transpose",
    "elementwise_update",
    "generate_random",
]

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)


class SparseMatrix:
    """Row-compressed sparse real matrix.

    Stored as CSR triplet arrays (indptr, indices, values). Construction
    validates shape bounds and per-row strictly ascending column indices,
    and drops explicit zero values so that nnz counts only true nonzeros.
    """

    __slots__ = ("rows", "cols", "indptr", "indices", "values")

    def __init__(self, rows, cols, indptr, indices, values, copy=True, validate=True):
        rows = int(rows)
        cols = int(cols)
        if rows < 1 or cols < 1:
            raise ValueError(f"matrix shape must be positive, got {rows}x{cols}")
        indptr = np.array(indptr, dtype=np.int64, copy=copy)
        indices = np.array(indices, dtype=np.int64, copy=copy)
        values = np.array(values, dtype=np.float64, copy=copy)
        if validate:
            if indptr.shape != (rows + 1,):
                raise ValueError("indptr length must be rows + 1")
            if indptr[0] != 0 or indptr[-1] != len(indices) or len(indices) != len(values):
                raise ValueError("inconsistent CSR arrays")
            if np.any(np.diff(indptr) < 0):
                raise ValueError("indptr must be non-decreasing")
            if len(indices):
                if indices.min() < 0 or indices.max() >= cols:
                    raise ValueError("column index out of range")
                row_id = np.repeat(np.arange(rows, dtype=np.int64), np.diff(indptr))
                same_row = row_id[1:] == row_id[:-1]
                if np.any((np.diff(indices) <= 0) & same_row):
                    raise ValueError("column indices must be strictly ascending within a row")
            if np.any(values == 0.0):
                keep = values != 0.0
                counts = np.bincount(
                    np.repeat(np.arange(rows, dtype=np.int64), np.diff(indptr))[keep],
                    minlength=rows,
                )
                indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
                indices = indices[keep]
                values = values[keep]
        self.rows = rows
        self.cols = cols
        self.indptr = indptr
        self.indices = indices
        self.values = values
        for a in (indptr, indices, values):
            a.setflags(write=False)

    # -- constructors ---------------------------------------------------

    @classmethod
    def empty(cls, rows, cols):
        return cls(rows, cols, np.zeros(rows + 1, dtype=np.int64), _EMPTY_I64, _EMPTY_F64,
                   copy=False, validate=False)

    @classmethod
    def from_rows(cls, rows, cols, row_entries):
        """Build from an iterable of per-row [(col, value), ...] lists."""
        row_entries = list(row_entries)
        if len(row_entries) != rows:
            raise ValueError(f"expected {rows} rows, got {len(row_entries)}")
        indptr = np.zeros(rows + 1, dtype=np.int64)
        cols_parts = []
        vals_parts = []
        for i, entries in enumerate(row_entries):
            entries = list(entries)
            indptr[i + 1] = indptr[i] + len(entries)
            if entries:
                cols_parts.append(np.array([c for c, _ in entries], dtype=np.int64))
                vals_parts.append(np.array([v for _, v in entries], dtype=np.float64))
        indices = np.concatenate(cols_parts) if cols_parts else _EMPTY_I64
        values = np.concatenate(vals_parts) if vals_parts else _EMPTY_F64
        return cls(rows, cols, indptr, indices, values, copy=False)

    @classmethod
    def from_coo(cls, rows, cols, row_ids, col_ids, vals):
        """Build from coordinate triples; duplicate (row, col) pairs are an error."""
        row_ids = np.asarray(row_ids, dtype=np.int64)
        col_ids = np.asarray(col_ids, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        order = np.lexsort((col_ids, row_ids))
        row_ids, col_ids, vals = row_ids[order], col_ids[order], vals[order]
        if len(row_ids) > 1:
            dup = (np.diff(row_ids) == 0) & (np.diff(col_ids) == 0)
            if np.any(dup):
                j = int(np.flatnonzero(dup)[0])
                raise ValueError(f"duplicate entry at ({row_ids[j]}, {col_ids[j]})")
        if len(row_ids) and (row_ids.min() < 0 or row_ids.max() >= rows):
            raise ValueError("row index out of range")
        indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(row_ids, minlength=rows)))
        ).astype(np.int64)
        return cls(rows, cols, indptr, col_ids, vals, copy=False)

    @classmethod
    def from_dense(cls, arr):
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        rows, cols = arr.shape
        ii, jj = np.nonzero(arr)
        indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(ii, minlength=rows)))
        ).astype(np.int64)
        return cls(rows, cols, indptr, jj.astype(np.int64), arr[ii, jj], copy=False,
                   validate=False)

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
        if self.nnz:
            row_id = np.repeat(np.arange(self.rows, dtype=np.int64),
                               np.diff(self.indptr))
            out[row_id, self.indices] = self.values
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

    __slots__ = ("rows", "cols", "values")

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
    if M.nnz == 0:
        return SparseMatrix.empty(M.cols, M.rows)
    row_id = np.repeat(np.arange(M.rows, dtype=np.int64), np.diff(M.indptr))
    order = np.lexsort((row_id, M.indices))
    indptr = np.concatenate(
        ([0], np.cumsum(np.bincount(M.indices, minlength=M.cols)))
    ).astype(np.int64)
    return SparseMatrix(M.cols, M.rows, indptr, row_id[order], M.values[order],
                        copy=False, validate=False)


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
    # Independent stream per (seed, row) so output does not depend on how
    # rows are assigned to workers.
    rng = np.random.default_rng((int(seed), int(i)))
    mask = rng.random(n) < delta
    cols = np.flatnonzero(mask).astype(np.int64)
    vals = rng.random(cols.size)
    vals = np.where(vals == 0.0, 0.5, vals)  # keep values in the open interval
    return cols, vals


def generate_random(p: GeneratorParams, workers: int = 1) -> SparseMatrix:
    """Random sparse matrix: each cell nonzero with probability delta,
    values uniform in (0, 1). Deterministic in p.seed for any worker count."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    slots = [None] * p.m

    def fill(lo, hi):
        for i in range(lo, hi):
            slots[i] = _generate_row(p.seed, i, p.n, p.delta)

    if workers == 1 or p.m < 2 * workers:
        fill(0, p.m)
    else:
        bounds = [p.m * w // workers for w in range(workers + 1)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(fill, bounds[w], bounds[w + 1]) for w in range(workers)]
            for f in futures:
                f.result()

    indptr = np.zeros(p.m + 1, dtype=np.int64)
    for i, (cols, _) in enumerate(slots):
        indptr[i + 1] = indptr[i] + cols.size
    indices = np.concatenate([c for c, _ in slots]) if p.m else _EMPTY_I64
    values = np.concatenate([v for _, v in slots]) if p.m else _EMPTY_F64
    return SparseMatrix(p.m, p.n, indptr, indices, values, copy=False, validate=False)
