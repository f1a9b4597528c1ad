import tracemalloc

import numpy as np
import pytest

from mrmul.nmf import (
    DIVISION_EPS,
    NmfState,
    nmf_divergence,
    nmf_init,
    nmf_step,
    run_nmf,
)
from mrmul.sparse import DenseMatrix, SparseMatrix

from conftest import random_sparse


def reference_step(Ad, Wd, Hd, eps=DIVISION_EPS):
    """Straight-line single-threaded multiplicative update (H first, then W
    against the fresh H), the oracle the pipeline must reproduce."""
    X = Wd.T @ Ad
    Y = (Wd.T @ Wd) @ Hd
    Hd = Hd * X / (Y + eps)
    Xw = Ad @ Hd.T
    Yw = Wd @ (Hd @ Hd.T)
    Wd = Wd * Xw / (Yw + eps)
    return Wd, Hd


class TestDivergence:
    def test_exact_factorization_is_zero(self):
        W = random_sparse(6, 3, 1.0, seed=1)
        H = random_sparse(3, 8, 1.0, seed=2)
        A = SparseMatrix.from_dense(W.to_dense() @ H.to_dense())
        assert nmf_divergence(A, W, H) < 1e-24

    def test_scalar_case(self):
        A = SparseMatrix.from_dense([[1.0]])
        Z = SparseMatrix.from_dense([[0.0]])
        assert nmf_divergence(A, Z, Z) == 1.0

    def test_matches_naive_dense_sum(self):
        A = random_sparse(7, 9, 0.5, seed=3)
        W = random_sparse(7, 4, 1.0, seed=4)
        H = random_sparse(4, 9, 1.0, seed=5)
        naive = 0.0
        Ad, Wd, Hd = A.to_dense(), W.to_dense(), H.to_dense()
        R = Wd @ Hd
        for i in range(7):
            for j in range(9):
                naive += (Ad[i, j] - R[i, j]) ** 2
        assert abs(nmf_divergence(A, W, H) - naive) < 1e-12


class TestStep:
    def test_scalar_hand_case(self):
        # A=[4], W=[2], H=[1]: H'=1*(2*4)/(2*2*1)=2, then W'=2*(4*2)/(2*2*2)=2
        A = SparseMatrix.from_dense([[4.0]])
        state = NmfState(SparseMatrix.from_dense([[2.0]]),
                         SparseMatrix.from_dense([[1.0]]), 1)
        out = nmf_step(A, state, eps=0.0)
        assert out.H.to_dense()[0, 0] == 2.0
        assert out.W.to_dense()[0, 0] == 2.0
        assert out.divergence_history[-1] == 0.0

    def test_exact_factorization_is_fixed_point(self):
        rng = np.random.default_rng(8)
        Wd = 0.5 + 0.5 * rng.random((12, 4))
        Hd = 0.5 + 0.5 * rng.random((4, 10))
        A = SparseMatrix.from_dense(Wd @ Hd)
        state = NmfState(SparseMatrix.from_dense(Wd), SparseMatrix.from_dense(Hd), 4)
        out = nmf_step(A, state)
        assert out.divergence_history[-1] < 1e-12
        assert np.max(np.abs(out.W.to_dense() - Wd)) < 1e-12
        assert np.max(np.abs(out.H.to_dense() - Hd)) < 1e-12

    def test_factors_stay_nonnegative(self):
        A = random_sparse(30, 20, 0.4, seed=9)
        state = nmf_init(A, 5, seed=1)
        for _ in range(10):
            state = nmf_step(A, state, workers=2)
        assert state.W.nnz == 0 or state.W.values.min() >= 0.0
        assert state.H.nnz == 0 or state.H.values.min() >= 0.0

    def test_divergence_monotone_and_matches_reference(self):
        A = random_sparse(50, 40, 0.3, seed=10)
        state = nmf_init(A, 6, seed=2)
        Ad = A.to_dense()
        Wd, Hd = state.W.to_dense(), state.H.to_dense()
        for _ in range(40):
            state = nmf_step(A, state, workers=2)
            Wd, Hd = reference_step(Ad, Wd, Hd)
        hist = state.divergence_history
        assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))
        assert np.max(np.abs(state.W.to_dense() - Wd)) < 1e-8
        assert np.max(np.abs(state.H.to_dense() - Hd)) < 1e-8

    def test_worker_invariance_bit_exact(self):
        A = random_sparse(24, 18, 0.5, seed=11)
        outs = []
        for w in (1, 2, 4, 8):
            state = nmf_init(A, 4, seed=3)
            for _ in range(3):
                state = nmf_step(A, state, workers=w)
            outs.append(state)
        for other in outs[1:]:
            assert other.W == outs[0].W and other.H == outs[0].H

    def test_rejects_negative_factors(self):
        with pytest.raises(ValueError):
            NmfState(SparseMatrix.from_dense([[-1.0]]),
                     SparseMatrix.from_dense([[1.0]]), 1)

    def test_shape_mismatch(self):
        A = random_sparse(5, 5, 0.5, seed=1)
        state = nmf_init(A, 2, seed=0)
        B = random_sparse(6, 5, 0.5, seed=2)
        with pytest.raises(ValueError):
            nmf_step(B, state)

    def test_timing_sink_components(self):
        A = random_sparse(10, 10, 0.5, seed=12)
        state = nmf_init(A, 2, seed=0)
        sink = []
        nmf_step(A, state, timing_sink=sink)
        assert [c for c, _ in sink] == ["X=WtA", "Y=WtWH", "H=H.*X./Y"]


class TestStructure:
    def test_six_broadcast_jobs_per_step(self, monkeypatch):
        import mrmul.multiply as mm
        real_run_job, jobs = mm.run_job, []

        def recording_run_job(spec, records):
            out, metrics = real_run_job(spec, records)
            jobs.append((spec.name, metrics.cross_worker_bytes))
            return out, metrics

        A = random_sparse(30, 20, 0.4, seed=14)
        state = nmf_init(A, 3, seed=0)
        monkeypatch.setattr(mm, "run_job", recording_run_job)
        state = nmf_step(A, state, workers=3)
        # every product has a factor-sized operand, so none needs a partition job
        assert jobs == [("broadcast-multiply", 0)] * 6
        assert isinstance(state.W, DenseMatrix) and isinstance(state.H, DenseMatrix)

    def test_step_memory_bounded_by_nnz_and_factors(self):
        # one dense 4000 x 4000 array alone would take 122 MB
        A = random_sparse(4000, 4000, 1e-3, seed=15)
        state = nmf_init(A, 4, seed=0)
        tracemalloc.start()
        try:
            nmf_step(A, state, workers=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestRun:
    def test_run_appends_one_divergence_per_iteration(self):
        A = random_sparse(15, 12, 0.4, seed=13)
        state = run_nmf(A, 3, iters=7, workers=1, seed=5)
        assert len(state.divergence_history) == 8  # init + 7 updates

    def test_k_bounds_enforced(self):
        A = random_sparse(4, 6, 0.5, seed=1)
        with pytest.raises(ValueError):
            nmf_init(A, 5, seed=0)
