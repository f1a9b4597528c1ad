"""PageRank by the damped power method over row-local multiplication.

The link matrix L holds one entry per distinct link: L[i, j] = 1/outdeg(j)
when j links to i, outdeg(j) being j's outlink count. A dangling node (no
outlinks) has an empty column in L; the Google matrix treats it as the
uniform column 1/N, so its rank is spread over every node as one rank-one
term (Langville & Meyer, "Deeper Inside PageRank", 2004). Each iteration
computes

    pi <- d * (L pi + sum_{j dangling} pi_j / N) + (1 - d)/N

where L pi runs through broadcast_multiply: the current vector is broadcast
to every worker, each worker forms the dot products of its one contiguous
block of L's rows, and ships the block's products as one record. L is cut
into those blocks once per call, and they stay on their workers across
iterations. The dangling mass is one scalar, summed outside the engine. The
column-stochastic matrix P with the dangling columns filled in is derived
from L on request, for oracles and tests; the iteration never forms it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .multiply import RowBlocks, broadcast_multiply
from .sparse import DenseMatrix, DenseVector, SparseMatrix, csr_indptr, csr_rows

__all__ = ["PagerankProblem", "PagerankError", "pagerank_build", "pagerank"]

_COLUMN_SUM_TOL = 1e-12
_PROBABILITY_TOL = 1e-10
_MAX_NODES = np.iinfo(np.int64).max  # node ids are int64


class PagerankError(RuntimeError):
    pass


@dataclass(frozen=True)
class PagerankProblem:
    """Link matrix and damping of a PageRank problem.

    `links` holds the real links only, each non-empty column summing to 1;
    N and `outdeg` derive from it. A node with an empty column is dangling,
    its column of the transition matrix uniform; `P` derives that full
    matrix, N entries per dangling column, for oracles and tests.
    """

    links: SparseMatrix
    d: float

    def __post_init__(self):
        L = self.links
        if L.rows != L.cols:
            raise ValueError("links must be square")
        if not 0.0 <= self.d <= 1.0:
            raise ValueError("damping factor must lie in [0, 1]")
        sums = np.bincount(L.indices, weights=L.values, minlength=L.cols)
        if not np.all(np.abs(sums - 1.0)[self.outdeg > 0] <= _COLUMN_SUM_TOL):
            raise PagerankError("transition matrix is not column-stochastic")

    @property
    def N(self) -> int:
        return self.links.rows

    @property
    def outdeg(self) -> np.ndarray:
        """Outlink count per node, its column's entry count; 0 marks a dangling node."""
        return np.bincount(self.links.indices, minlength=self.N)

    @property
    def P(self) -> SparseMatrix:
        """The column-stochastic transition matrix: `links` plus a uniform
        column 1/N for each dangling node. Built anew on every access."""
        N, L = self.N, self.links
        dangling = np.flatnonzero(self.outdeg == 0)
        rows_ids = np.concatenate((csr_rows(L.indptr),
                                   np.tile(np.arange(N), dangling.size)))
        cols_ids = np.concatenate((L.indices, np.repeat(dangling, N)))
        vals = np.concatenate((L.values, np.full(dangling.size * N, 1.0 / N)))
        return SparseMatrix.from_coo(N, N, rows_ids, cols_ids, vals)


def pagerank_build(edges, d: float, N: int) -> PagerankProblem:
    """Build the link matrix from (src, dst) links.

    Duplicate edges collapse to one link; a node with no outlinks is left
    dangling, with an empty column. An edge outside 0..N-1 is rejected,
    naming the first such edge in input order.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > _MAX_NODES:
        raise ValueError(f"N must be <= {_MAX_NODES}")
    try:
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        bad = pairs[((pairs < 0) | (pairs >= N)).any(axis=1)]
    except OverflowError:  # an id beyond int64: find the first bad edge in Python
        bad = [e for e in edges if not (0 <= e[0] < N and 0 <= e[1] < N)]
    if len(bad):
        src, dst = bad[0]
        raise ValueError(f"edge ({int(src)}, {int(dst)}) outside 0..{N - 1}")
    # one sort into L's CSR order (row dst, then column src), then drop each
    # link equal to its neighbour
    order = np.lexsort((pairs[:, 0], pairs[:, 1]))
    src, dst = pairs[order, 0], pairs[order, 1]
    keep = np.ones(src.size, dtype=bool)
    keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    src, dst = src[keep], dst[keep]
    outdeg = np.bincount(src, minlength=N)
    links = SparseMatrix(N, N, csr_indptr(np.bincount(dst, minlength=N)), src, 1.0 / outdeg[src])
    return PagerankProblem(links, d)


def pagerank(prob: PagerankProblem, tol: float = 1e-8, max_iters: int = 100,
             workers: int = 1, residual_sink=None) -> tuple[DenseVector, int]:
    """Iterate the damped power method from the uniform vector until the L1
    step difference drops below tol (or max_iters). Returns (pi, iterations).

    The returned vector is a probability distribution at every iteration, and
    on convergence it is invariant under one more iteration within tol. The
    links are cut into row blocks for `workers` once, before the first
    iteration, and every iteration's product reuses them.
    """
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0")

    N, d = prob.N, prob.d
    links = RowBlocks(prob.links, workers)
    dangling = np.flatnonzero(prob.outdeg == 0)
    pi = np.full(N, 1.0 / N)
    teleport = (1.0 - d) / N
    iterations = 0
    for _ in range(max_iters):
        flow = broadcast_multiply(links, DenseMatrix(pi.reshape(-1, 1)), workers).values[:, 0]
        pi_next = d * (flow + pi[dangling].sum() / N) + teleport
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
