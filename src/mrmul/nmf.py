"""Gaussian NMF by multiplicative updates, composed from the two multiply models.

Each step updates H then W:

    H <- H .* (Wt A) ./ (Wt W H + eps)
    W <- W .* (A Ht) ./ (W H Ht + eps)

The large products (Wt A, Wt W, A Ht, H Ht) run through partition_multiply
with schemas that never split the short k dimension. The triple products go
through broadcast_multiply: W H Ht is row-local in W directly, while Wt W H is
computed transposed, row by row of Ht against the small square matrix, because
the row-format layout only gives efficient access to whole rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .multiply import PartitionSchema, broadcast_multiply, partition_multiply
from .sparse import DenseMatrix, GeneratorParams, SparseMatrix, elementwise_update, generate_random, transpose

__all__ = ["NmfState", "nmf_init", "nmf_step", "nmf_divergence", "run_nmf",
           "COMPONENT_X", "COMPONENT_Y", "COMPONENT_H"]

DIVISION_EPS = 1e-12

COMPONENT_X = "X=WtA"
COMPONENT_Y = "Y=WtWH"
COMPONENT_H = "H=H.*X./Y"


@dataclass(frozen=True)
class NmfState:
    """Factor pair plus the reconstruction-error history."""

    W: SparseMatrix
    H: SparseMatrix
    k: int
    divergence_history: tuple = ()

    def __post_init__(self):
        if self.k > min(self.W.rows, self.H.cols):
            raise ValueError(f"k={self.k} exceeds min(m, n)")
        if self.W.cols != self.k or self.H.rows != self.k:
            raise ValueError("factor shapes inconsistent with k")
        if (self.W.nnz and self.W.values.min() < 0) or (self.H.nnz and self.H.values.min() < 0):
            raise ValueError("factors must be nonnegative")


# Fixed split count so schemas (and therefore the floating-point summation
# grouping) never depend on the worker count; blocks are spread over workers
# by the rand shard instead.
_SPLIT = 8


def nmf_init(A: SparseMatrix, k: int, seed: int = 0) -> NmfState:
    """Uniform random positive factors in (0, 1), deterministic in seed."""
    if not 1 <= k <= min(A.rows, A.cols):
        raise ValueError(f"k must lie in 1..min(m, n), got {k}")
    W = generate_random(GeneratorParams(A.rows, k, 1.0, seed))
    H = generate_random(GeneratorParams(k, A.cols, 1.0, seed + 1))
    return NmfState(W, H, k, (nmf_divergence(A, W, H),))


def nmf_divergence(A: SparseMatrix, W: SparseMatrix, H: SparseMatrix) -> float:
    """Squared Frobenius reconstruction error of the factorization."""
    if W.rows != A.rows or H.cols != A.cols or W.cols != H.rows:
        raise ValueError("shape mismatch")
    diff = A.to_dense() - W.to_dense() @ H.to_dense()
    return float(np.sum(diff * diff))


def _small_dense(M: SparseMatrix, transposed=False) -> DenseMatrix:
    d = M.to_dense()
    return DenseMatrix(d.T if transposed else d)


def nmf_step(A: SparseMatrix, state: NmfState, workers: int = 1, eps: float = DIVISION_EPS,
             timing_sink=None) -> NmfState:
    """One full multiplicative update (H then W); appends the new divergence."""
    if A.rows != state.W.rows or A.cols != state.H.cols:
        raise ValueError("A inconsistent with factor shapes")
    W, H = state.W, state.H
    # Split the long dimensions only; k stays whole so no schema ever cuts
    # across the short edge of the factors.
    rows_split = min(_SPLIT, A.rows)
    cols_split = min(_SPLIT, A.cols)

    t0 = time.perf_counter()
    Wt = transpose(W)
    X, _ = partition_multiply(Wt, A, PartitionSchema(1, rows_split, cols_split), "rand", workers)
    t1 = time.perf_counter()
    Cww, _ = partition_multiply(Wt, W, PartitionSchema(1, rows_split, 1), "rand", workers)
    # Y = (Wt W) H computed transposed: rows of Ht times the small square,
    # so every worker only ever reads whole rows.
    Yt = broadcast_multiply(transpose(H), _small_dense(Cww, transposed=True), workers)
    Y = transpose(Yt)
    t2 = time.perf_counter()
    H_new = elementwise_update(H, X, Y, eps)
    t3 = time.perf_counter()

    Ht = transpose(H_new)
    Xw, _ = partition_multiply(A, Ht, PartitionSchema(rows_split, cols_split, 1), "rand", workers)
    Chh, _ = partition_multiply(H_new, Ht, PartitionSchema(1, cols_split, 1), "rand", workers)
    Yw = broadcast_multiply(W, _small_dense(Chh), workers)
    W_new = elementwise_update(W, Xw, Yw, eps)

    div = nmf_divergence(A, W_new, H_new)
    if timing_sink is not None:
        timing_sink.append((COMPONENT_X, (t1 - t0) * 1e3))
        timing_sink.append((COMPONENT_Y, (t2 - t1) * 1e3))
        timing_sink.append((COMPONENT_H, (t3 - t2) * 1e3))
    return NmfState(W_new, H_new, state.k,
                    state.divergence_history + (div,))


def run_nmf(A: SparseMatrix, k: int, iters: int, workers: int = 1, seed: int = 0,
            timing_sink=None) -> NmfState:
    """Factorize A with `iters` multiplicative updates from a seeded init."""
    if iters < 0:
        raise ValueError("iters must be >= 0")
    state = nmf_init(A, k, seed)
    for _ in range(iters):
        state = nmf_step(A, state, workers, timing_sink=timing_sink)
    return state
