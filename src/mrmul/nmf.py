"""Gaussian NMF by multiplicative updates, composed from the broadcast model.

From a strictly positive random start, each step updates H then W:

    H <- H .* (Wt A) ./ (Wt W H + eps)
    W <- W .* (A Ht) ./ (W H Ht + eps)

W (m x k) and H (k x n) are dense, and k is much smaller than m and n. Every
product of a step has one thin operand of at most (m + n) k values, the
paper's large x small case, so all six run through broadcast_multiply with
that operand broadcast: Wt A as (At W)t, the Grams Wt W and H Ht, the triple
products as (Wt W) H and W (H Ht), and A Ht. No product forms an m x n array.
run_nmf transposes the constant A once and hands At to every step, so
broadcast_multiply's row blocks of A and At, kept on the matrices, serve
every step.

The divergence ||A - W H||^2 is summed one row block Wb of W at a time, with
H H^T formed once per call. A block of nonnegative factors whose support S in
A is sparse enough that gathering factor rows for it costs less than forming
Wb H (A fills under 1/16 of its cells, and the 2 k gathered values per entry
fill under one block) takes

    sum_S (a - (W H)_S)^2 + (tr((Wb^T Wb)(H H^T)) - sum_S (W H)_S^2)

in O(nnz_b k + rows k^2), with (W H)_S sampled on S alone. Every term of the
trace and of sum_S (W H)_S^2 is nonnegative, so each sum is rounded by a few
units in its last place, about 1e-16 ||Wb H||^2. The block keeps the value
only when it is at least 2^-8 of ||Wb H||^2, so that rounding stays under
about 1e-13 of it and the value is positive; a fit within about 1/16 of Wb H
in norm, a denser block, and any block of signed factors form their rows of
W H, subtract A's stored entries and sum each square.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# partition_multiply is no longer called here; the name stays bound because
# perfbench/tracer.py patches it on this module.
from .multiply import broadcast_multiply, partition_multiply  # noqa: F401
from .sparse import DenseMatrix, SparseMatrix, csr_rows, elementwise_update, transpose

__all__ = ["NmfState", "nmf_init", "nmf_step", "nmf_divergence", "run_nmf",
           "COMPONENT_X", "COMPONENT_Y", "COMPONENT_H"]

DIVISION_EPS = 1e-12

COMPONENT_X = "X=WtA"
COMPONENT_Y = "Y=WtWH"
COMPONENT_H = "H=H.*X./Y"

# Cells of W H formed at once by nmf_divergence: 1 << 18 float64 cells is 2 MB.
_DIVERGENCE_BLOCK_CELLS = 1 << 18
# Least share of ||Wb H||^2 a block's sampled identity must come to for
# nmf_divergence to keep it rather than sum the block directly.
_IDENTITY_MIN_SHARE = 2.0 ** -8


@dataclass(frozen=True)
class NmfState:
    """Dense factor pair plus the reconstruction-error history; the rank k
    is W's column count."""

    W: DenseMatrix
    H: DenseMatrix
    divergence_history: tuple = ()

    def __post_init__(self):
        if not (isinstance(self.W, DenseMatrix) and isinstance(self.H, DenseMatrix)):
            raise TypeError("factors must be DenseMatrix")
        if self.k > min(self.W.rows, self.H.cols):
            raise ValueError(f"k={self.k} exceeds min(m, n)")
        if self.H.rows != self.k:
            raise ValueError("factor shapes inconsistent with k")
        if self.W.values.min() < 0 or self.H.values.min() < 0:
            raise ValueError("factors must be nonnegative")

    @property
    def k(self) -> int:
        return self.W.cols


def nmf_init(A: SparseMatrix, k: int, seed: int = 0) -> NmfState:
    """Dense factors uniform in (0, 1], W then H from one stream seeded by seed."""
    if not 1 <= k <= min(A.rows, A.cols):
        raise ValueError(f"k must lie in 1..min(m, n), got {k}")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    W = DenseMatrix(1.0 - rng.random((A.rows, k)))
    H = DenseMatrix(1.0 - rng.random((k, A.cols)))
    return NmfState(W, H, (nmf_divergence(A, W, H),))


def nmf_divergence(A: SparseMatrix, W: DenseMatrix, H: DenseMatrix) -> float:
    """Squared Frobenius reconstruction error of the factorization.

    Summed a row block at a time, with memory bounded by the block. A sparse
    block of nonnegative factors takes the sampled identity of the module
    docstring, not forming its rows of W H, and keeps it when the value is
    at least _IDENTITY_MIN_SHARE of ||Wb H||^2; any other block forms them,
    subtracts A's stored entries in place and sums the squares. Either way
    the value is never negative.
    """
    if not (isinstance(W, DenseMatrix) and isinstance(H, DenseMatrix)):
        raise TypeError("factors must be DenseMatrix")
    if W.rows != A.rows or H.cols != A.cols or W.cols != H.rows:
        raise ValueError("shape mismatch")
    Wd, Hd = W.values, H.values
    with np.errstate(over="ignore"):  # an overflowed trace sends blocks to the direct sum
        Ht, HHt = np.ascontiguousarray(Hd.T), Hd @ Hd.T
    sampled = min(Wd.min(initial=0.0), Hd.min(initial=0.0)) >= 0
    # a gathered value costs several times a value of the dense product: a
    # block is sampled when A fills under 1/16 of it and the 2 k values
    # gathered per entry fill under one block
    per_entry = max(2 * Wd.shape[1], 16)
    step = max(1, _DIVERGENCE_BLOCK_CELLS // A.cols)
    total = 0.0
    for lo in range(0, A.rows, step):
        hi = min(lo + step, A.rows)
        p_lo, p_hi = A.indptr[lo], A.indptr[hi]
        rows = csr_rows(A.indptr[lo:hi + 1])
        cols, Wb = A.indices[p_lo:p_hi], Wd[lo:hi]
        if sampled and (p_hi - p_lo) * per_entry < (hi - lo) * A.cols:
            with np.errstate(over="ignore", invalid="ignore"):
                on_s = _sampled_product(Wb, Ht, rows, cols)
                on_s_sq = float(on_s @ on_s)
                block_sq = float(np.vdot(Wb.T @ Wb, HHt))  # ||Wb H||^2
            resid = A.values[p_lo:p_hi] - on_s
            value = float(resid @ resid) + (block_sq - on_s_sq)
            # no square overflowed, and rounding cannot have cancelled the value
            if block_sq < np.inf and value >= _IDENTITY_MIN_SHARE * block_sq:
                total += value
                continue
        total += _direct_sum(Wb, Hd, rows, cols, A.values[p_lo:p_hi])
    return total


def _direct_sum(Wb, Hd, rows, cols, values):
    """||A_b - Wb H||^2 by forming Wb H, subtracting A's stored entries in
    place and summing every square."""
    R = Wb @ Hd
    R.reshape(-1)[rows * R.shape[1] + cols] -= values
    return float(np.sum(np.square(R, out=R)))


def _sampled_product(Wb, Ht, rows, cols):
    """(Wb H)[rows, cols] from Ht = H^T: one row-wise dot per entry."""
    return np.einsum("ij,ij->i", Wb.take(rows, axis=0), Ht.take(cols, axis=0))


def nmf_step(A: SparseMatrix, state: NmfState, workers: int = 1, eps: float = DIVISION_EPS,
             timing_sink=None, At: SparseMatrix | None = None) -> NmfState:
    """One full multiplicative update (H then W); appends the new divergence.

    At, when given, must be transpose(A); a caller that steps many times
    passes it to save transposing the constant A on every step."""
    if A.rows != state.W.rows or A.cols != state.H.cols:
        raise ValueError("A inconsistent with factor shapes")
    W, H = state.W, state.H

    t0 = time.perf_counter()
    if At is None:
        At = transpose(A)
    X = DenseMatrix(broadcast_multiply(At, W, workers).values.T)
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
    return NmfState(W_new, H_new, state.divergence_history + (div,))


def run_nmf(A: SparseMatrix, k: int, iters: int, workers: int = 1, seed: int = 0,
            timing_sink=None) -> NmfState:
    """Factorize A with `iters` multiplicative updates from a seeded init."""
    if iters < 0:
        raise ValueError("iters must be >= 0")
    state = nmf_init(A, k, seed)
    At = transpose(A)
    for _ in range(iters):
        state = nmf_step(A, state, workers, timing_sink=timing_sink, At=At)
    return state
