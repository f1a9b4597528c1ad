"""Gaussian NMF by multiplicative updates, composed from the broadcast model.

From a strictly positive random start, each step updates H then W:

    H <- H .* (Wt A) ./ (Wt W H + eps)
    W <- W .* (A Ht) ./ (W H Ht + eps)

W (m x k) and H (k x n) are dense, and k is much smaller than m and n. Every
product of a step has one thin operand of at most (m + n) k values, the
paper's large x small case, so all six run through broadcast_multiply with
that operand broadcast: Wt A as (At W)t, the Grams Wt W and H Ht, the triple
products as (Wt W) H and W (H Ht), and A Ht. No product forms an m x n array.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# partition_multiply is no longer called here; the name stays bound because
# perfbench/tracer.py patches it on this module.
from .multiply import broadcast_multiply, partition_multiply  # noqa: F401
from .sparse import DenseMatrix, SparseMatrix, elementwise_update, transpose

__all__ = ["NmfState", "nmf_init", "nmf_step", "nmf_divergence", "run_nmf",
           "COMPONENT_X", "COMPONENT_Y", "COMPONENT_H"]

DIVISION_EPS = 1e-12

COMPONENT_X = "X=WtA"
COMPONENT_Y = "Y=WtWH"
COMPONENT_H = "H=H.*X./Y"

# Cells of W H formed at once by nmf_divergence: 1 << 18 float64 cells is 2 MB.
_DIVERGENCE_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True)
class NmfState:
    """Dense factor pair plus the reconstruction-error history. A
    SparseMatrix factor is stored as its DenseMatrix."""

    W: DenseMatrix
    H: DenseMatrix
    k: int
    divergence_history: tuple = ()

    def __post_init__(self):
        for name in ("W", "H"):
            M = getattr(self, name)
            if isinstance(M, SparseMatrix):
                object.__setattr__(self, name, DenseMatrix(M.to_dense()))
        if self.k > min(self.W.rows, self.H.cols):
            raise ValueError(f"k={self.k} exceeds min(m, n)")
        if self.W.cols != self.k or self.H.rows != self.k:
            raise ValueError("factor shapes inconsistent with k")
        if self.W.values.min() < 0 or self.H.values.min() < 0:
            raise ValueError("factors must be nonnegative")


def nmf_init(A: SparseMatrix, k: int, seed: int = 0) -> NmfState:
    """Dense factors uniform in (0, 1], W then H from one stream seeded by seed."""
    if not 1 <= k <= min(A.rows, A.cols):
        raise ValueError(f"k must lie in 1..min(m, n), got {k}")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    W = DenseMatrix(1.0 - rng.random((A.rows, k)))
    H = DenseMatrix(1.0 - rng.random((k, A.cols)))
    return NmfState(W, H, k, (nmf_divergence(A, W, H),))


def nmf_divergence(A: SparseMatrix, W: DenseMatrix | SparseMatrix,
                   H: DenseMatrix | SparseMatrix) -> float:
    """Squared Frobenius reconstruction error of the factorization.

    W H is formed a row block at a time, A's stored entries are subtracted
    from it in place, and the block's squares are summed, so memory stays
    bounded by the block. Summing every cell's square directly, not through
    the expanded identity, keeps the value free of cancellation.
    """
    if W.rows != A.rows or H.cols != A.cols or W.cols != H.rows:
        raise ValueError("shape mismatch")
    Wd, Hd = W.to_dense(), H.to_dense()
    step = max(1, _DIVERGENCE_BLOCK_CELLS // A.cols)
    total = 0.0
    for lo in range(0, A.rows, step):
        hi = min(lo + step, A.rows)
        R = Wd[lo:hi] @ Hd
        p_lo, p_hi = A.indptr[lo], A.indptr[hi]
        rows = np.repeat(np.arange(hi - lo), np.diff(A.indptr[lo:hi + 1]))
        R[rows, A.indices[p_lo:p_hi]] -= A.values[p_lo:p_hi]
        total += float(np.sum(np.square(R, out=R)))
    return total


def nmf_step(A: SparseMatrix, state: NmfState, workers: int = 1, eps: float = DIVISION_EPS,
             timing_sink=None) -> NmfState:
    """One full multiplicative update (H then W); appends the new divergence."""
    if A.rows != state.W.rows or A.cols != state.H.cols:
        raise ValueError("A inconsistent with factor shapes")
    W, H = state.W, state.H

    t0 = time.perf_counter()
    X = DenseMatrix(broadcast_multiply(transpose(A), W, workers).values.T)
    t1 = time.perf_counter()
    Cww = broadcast_multiply(DenseMatrix(W.values.T), W, workers)
    Y = broadcast_multiply(Cww, H, workers)
    t2 = time.perf_counter()
    H_new = elementwise_update(H, X, Y, eps)
    t3 = time.perf_counter()

    Ht = DenseMatrix(H_new.values.T)
    Xw = broadcast_multiply(A, Ht, workers)
    Chh = broadcast_multiply(H_new, Ht, workers)
    Yw = broadcast_multiply(W, Chh, workers)
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
