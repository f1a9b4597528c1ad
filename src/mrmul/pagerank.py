"""PageRank by the damped power method over row-local multiplication.

The transition matrix P is column-stochastic: P[i, j] = 1/L(j) when j links
to i, with dangling columns (no outlinks) repaired to the uniform column 1/N.
Each iteration computes

    pi <- d * (P pi) + (1 - d)/N

where P pi runs through broadcast_multiply: the current vector is broadcast
to every worker, each worker forms the dot products of its one contiguous
block of P's rows, and ships the block's products as one record.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .multiply import broadcast_multiply
from .sparse import DenseMatrix, DenseVector, SparseMatrix

__all__ = ["PagerankProblem", "PagerankError", "pagerank_build", "pagerank"]

_COLUMN_SUM_TOL = 1e-12
_PROBABILITY_TOL = 1e-10


class PagerankError(RuntimeError):
    pass


@dataclass(frozen=True)
class PagerankProblem:
    """Column-stochastic transition matrix with damping and node count."""

    P: SparseMatrix
    d: float
    N: int
    outdeg: np.ndarray  # outlink count per node, before dangling repair

    def __post_init__(self):
        if not 0.0 <= self.d <= 1.0:
            raise ValueError("damping factor must lie in [0, 1]")
        if self.P.rows != self.N or self.P.cols != self.N:
            raise ValueError("P must be N x N")


def _column_sums(P: SparseMatrix) -> np.ndarray:
    sums = np.zeros(P.cols)
    np.add.at(sums, P.indices, P.values)
    return sums


def pagerank_build(edges, d: float, N: int) -> PagerankProblem:
    """Build the transition matrix from (src, dst) links.

    Duplicate edges collapse to one link; a node with no outlinks becomes a
    uniform column so every column sums to one. An edge outside 0..N-1 is
    rejected, naming the first such edge in input order.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not 0.0 <= d <= 1.0:
        raise ValueError("damping factor must lie in [0, 1]")
    try:
        pairs = np.fromiter(chain.from_iterable(edges), dtype=np.int64).reshape(-1, 2)
        bad = pairs[((pairs < 0) | (pairs >= N)).any(axis=1)]
    except OverflowError:  # an id beyond int64: find the first bad edge in Python
        bad = [e for e in edges if not (0 <= e[0] < N and 0 <= e[1] < N)]
    if len(bad):
        src, dst = bad[0]
        raise ValueError(f"edge ({int(src)}, {int(dst)}) outside 0..{N - 1}")
    src, dst = np.divmod(np.unique(pairs[:, 0] * N + pairs[:, 1]), N)
    outdeg = np.bincount(src, minlength=N)

    dangling = np.flatnonzero(outdeg == 0)
    rows_ids = np.concatenate((dst, np.tile(np.arange(N), dangling.size)))
    cols_ids = np.concatenate((src, np.repeat(dangling, N)))
    vals = np.concatenate((1.0 / outdeg[src], np.full(dangling.size * N, 1.0 / N)))
    P = SparseMatrix.from_coo(N, N, rows_ids, cols_ids, vals)

    sums = _column_sums(P)
    if np.max(np.abs(sums - 1.0)) > _COLUMN_SUM_TOL:
        raise PagerankError("column sums deviate from 1 beyond tolerance")
    return PagerankProblem(P, d, N, outdeg)


def pagerank(prob: PagerankProblem, tol: float = 1e-8, max_iters: int = 100,
             workers: int = 1, residual_sink=None) -> tuple[DenseVector, int]:
    """Iterate the damped power method from the uniform vector until the L1
    step difference drops below tol (or max_iters). Returns (pi, iterations).

    The returned vector is a probability distribution at every iteration, and
    on convergence it is invariant under one more iteration within tol.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    sums = _column_sums(prob.P)
    if sums.size and np.max(np.abs(sums - 1.0)) > _COLUMN_SUM_TOL:
        raise PagerankError("transition matrix is not column-stochastic")

    N, d = prob.N, prob.d
    pi = np.full(N, 1.0 / N)
    teleport = (1.0 - d) / N
    iterations = 0
    for _ in range(max_iters):
        flow = broadcast_multiply(prob.P, DenseMatrix(pi.reshape(-1, 1)), workers).to_dense()[:, 0]
        pi_next = d * flow + teleport
        iterations += 1
        if abs(pi_next.sum() - 1.0) > _PROBABILITY_TOL:
            raise PagerankError("rank vector drifted off the probability simplex")
        diff = float(np.abs(pi_next - pi).sum())
        if residual_sink is not None:
            residual_sink.append(diff)
        pi = pi_next
        if diff < tol:
            break
    return DenseVector(pi), iterations
