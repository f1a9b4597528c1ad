"""Shared oracles and generators for the test suite.

The multiply oracle is a dense matmul over densified operands; its own
correctness is anchored by the literal triple-loop transcription below, which
the dense path must match on small cases.
"""

import numpy as np
import pytest

from mrmul.sparse import GeneratorParams, SparseMatrix, generate_random


def triple_loop_product(a, b):
    """Literal triple-loop definition of the matrix product; tiny inputs only."""
    n, m = len(a), len(a[0])
    k = len(b[0])
    out = [[0.0] * k for _ in range(n)]
    for i in range(n):
        for j in range(k):
            s = 0.0
            for t in range(m):
                s += a[i][t] * b[t][j]
            out[i][j] = s
    return out


def dense_product_oracle(A: SparseMatrix, B: SparseMatrix) -> np.ndarray:
    """Independent reference: densify and multiply with numpy."""
    return A.to_dense() @ B.to_dense()


def random_sparse(rows, cols, delta, seed) -> SparseMatrix:
    return generate_random(GeneratorParams(rows, cols, delta, seed))


def assert_relative_close(actual: np.ndarray, expected: np.ndarray, rtol, label=""):
    scale = np.maximum(np.abs(expected), 1.0)
    err = np.max(np.abs(actual - expected) / scale)
    assert err <= rtol, f"{label} relative error {err:.3e} > {rtol:g}"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def cuts(monkeypatch):
    """Every (matrix, workers) that broadcast_multiply cuts into row blocks
    from here on, in order."""
    import mrmul.multiply as mm
    real_cut, cut = mm._cut_row_blocks, []

    def recording_cut(A, workers):
        cut.append((A, workers))
        return real_cut(A, workers)

    monkeypatch.setattr(mm, "_cut_row_blocks", recording_cut)
    return cut
