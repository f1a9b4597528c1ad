"""Fixed-bias soft-margin SVM trained by projected gradient ascent on the dual.

The dual objective

    W(alpha) = sum_i alpha_i - 1/2 sum_ij y_i y_j alpha_i alpha_j K(x_i, x_j)

is maximized subject to the box 0 <= alpha_i <= C; the bias is held at zero so
no equality constraint applies. The kernel is linear, K = T Tt, and training
never forms it: each ascent step's one product K q, with q = y .* alpha, runs
as T (Tt q), two broadcast_multiply calls with the small vector broadcast to
all workers, in O(nnz(T)) time and memory, never O(examples^2). The problem
transposes T once, on first use, and prediction's w = Tt q reuses that Tt.
broadcast_multiply cuts T and Tt into row blocks once per worker count and
keeps them on the matrices, so every step of a solve multiplies the same
resident blocks and only q and w move. The product also gives the objective
value before the step.
svm_build_kernel still forms K (a partition multiply) for callers that want
it; nothing here reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .io import read_svm_file
from .multiply import PartitionSchema, broadcast_multiply, partition_multiply
from .sparse import DenseMatrix, DenseVector, SparseMatrix, transpose

__all__ = ["SvmProblem", "SvmState", "svm_build_kernel", "svm_gradient",
           "svm_objective", "svm_train", "svm_predict", "read_svm_file", "accuracy"]


@dataclass(frozen=True)
class SvmProblem:
    """Training matrix (rows are examples), labels in {-1,+1}, box bound C,
    and ascent step size eta."""

    T: SparseMatrix
    y: DenseVector
    C: float = 1.0
    eta: float = 0.001

    def __post_init__(self):
        if len(self.y) != self.T.rows:
            raise ValueError(f"{len(self.y)} labels for {self.T.rows} examples")
        if not np.all(np.isin(self.y.values, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if not (np.isfinite(self.C) and self.C >= 0):
            raise ValueError(f"C must be finite and >= 0, got {self.C}")
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be finite and > 0, got {self.eta}")

    @cached_property
    def Tt(self) -> SparseMatrix:
        """transpose(T), formed once per problem and shared by training and
        prediction."""
        return transpose(self.T)


@dataclass
class SvmState:
    """Dual variables, a Gram matrix the caller built (svm_train builds none,
    and no function here reads it), and the objective history."""

    alpha: DenseVector
    K: DenseMatrix | None
    objective_history: list = field(default_factory=list)


def svm_build_kernel(T: SparseMatrix, workers: int = 1) -> DenseMatrix:
    """Linear kernel K = T Tt, dense; symmetric, diagonal holds squared row norms.

    The schema splits only the example dimension (never the features, which
    form the inner dimension) and is independent of the worker count so the
    kernel is bit-identical however many workers run the build.
    """
    side = min(8, T.rows)
    K, _ = partition_multiply(T, transpose(T), PartitionSchema(side, 1, side), "rand", workers)
    return DenseMatrix(K.to_dense())


def svm_gradient(state: SvmState, prob: SvmProblem, workers: int = 1) -> DenseVector:
    """Ascent direction g_i = eta * (1 - y_i * sum_j y_j alpha_j K_ij), with
    K q computed as T (Tt q); a state.K is not read."""
    kq = broadcast_multiply(prob.T, _weights(state, prob, workers), workers)
    return DenseVector(prob.eta * (1.0 - prob.y.values * kq.values[:, 0]))


def _weights(state: SvmState, prob: SvmProblem, workers: int) -> DenseMatrix:
    """The primal weights w = Tt (y .* alpha), a features x 1 column."""
    q = prob.y.values * state.alpha.values
    return broadcast_multiply(prob.Tt, DenseMatrix(q.reshape(-1, 1)), workers)


def svm_objective(alpha: np.ndarray, y: np.ndarray, K: np.ndarray) -> float:
    q = y * alpha
    return float(alpha.sum() - 0.5 * q @ (K @ q))


def svm_train(prob: SvmProblem, iters: int, workers: int = 1) -> SvmState:
    """Projected gradient ascent from alpha = 0, clipping into [0, C] each step.
    As y .* (K q) = 1 - g / eta, each gradient also gives W(alpha) =
    sum(alpha) / 2 + alpha . g / (2 eta); one last gradient gives W(alpha_iters)."""
    if iters < 0:
        raise ValueError("iters must be >= 0")
    state = SvmState(DenseVector(np.zeros(prob.T.rows)), None)
    for step in range(iters + 1):
        alpha = state.alpha.values
        g = svm_gradient(state, prob, workers).values
        state.objective_history.append(float(alpha.sum() / 2 + alpha @ g / (2 * prob.eta)))
        if step < iters:
            state.alpha = DenseVector(np.clip(alpha + g, 0.0, prob.C))
    return state


def svm_predict(state: SvmState, prob: SvmProblem, Q: SparseMatrix,
                workers: int = 1) -> DenseVector:
    """Raw decision scores f(q) = sum_j alpha_j y_j <x_j, q> (bias fixed at 0);
    classify by sign. Scoring the training set with Q = prob.T reuses the
    row blocks its solve cut."""
    if Q.cols != prob.T.cols:
        raise ValueError(f"query width {Q.cols} != training width {prob.T.cols}")
    # w = Tt (y .* alpha), then scores = Q w: two row-local products.
    scores = broadcast_multiply(Q, _weights(state, prob, workers), workers)
    # + 0.0 turns a score whose every term is a signed zero into 0.0, so a
    # score file never reads -0.0
    return DenseVector(scores.values[:, 0] + 0.0)


def accuracy(scores: DenseVector, y: DenseVector) -> float:
    """Fraction of sign agreements; a zero score counts as the negative class."""
    pred = np.where(scores.values > 0, 1.0, -1.0)
    return float(np.mean(pred == y.values))
