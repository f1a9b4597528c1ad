import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrmul import nmf
from mrmul.nmf import (
    DIVISION_EPS,
    NmfState,
    nmf_divergence,
    nmf_init,
    nmf_step,
    run_nmf,
)
from mrmul import sparse
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
        W = DenseMatrix(random_sparse(6, 3, 1.0, seed=1).to_dense())
        H = DenseMatrix(random_sparse(3, 8, 1.0, seed=2).to_dense())
        A = SparseMatrix.from_dense(W.values @ H.values)
        assert nmf_divergence(A, W, H) < 1e-24

    def test_scalar_case(self):
        A = SparseMatrix.from_dense([[1.0]])
        Z = DenseMatrix([[0.0]])
        assert nmf_divergence(A, Z, Z) == 1.0

    def test_matches_naive_dense_sum(self):
        A = random_sparse(7, 9, 0.5, seed=3)
        W = DenseMatrix(random_sparse(7, 4, 1.0, seed=4).to_dense())
        H = DenseMatrix(random_sparse(4, 9, 1.0, seed=5).to_dense())
        naive = 0.0
        Ad, Wd, Hd = A.to_dense(), W.to_dense(), H.to_dense()
        R = Wd @ Hd
        for i in range(7):
            for j in range(9):
                naive += (Ad[i, j] - R[i, j]) ** 2
        assert abs(nmf_divergence(A, W, H) - naive) < 1e-12

    @staticmethod
    def _banded(seed, noise):
        # k = 2 factors, each row of W on one of them and each factor on 3 of
        # H's 96 columns: W H fills 1/32 of its cells, all of them stored in
        # A = (W H) (1 + noise), so every block is sparse enough to sample
        rng = np.random.default_rng(seed)
        w_mask = np.kron(np.eye(2), np.ones((6, 1)))
        h_mask = np.hstack([np.kron(np.eye(2), np.ones((1, 3))), np.zeros((2, 90))])
        Wd, Hd = rng.random((12, 2)) * w_mask, rng.random((2, 96)) * h_mask
        Ad = Wd @ Hd * (1.0 + noise * rng.standard_normal((12, 96)))
        return np.maximum(Ad, 0.0), Wd, Hd

    def test_exact_block_diagonal_factorization_is_zero(self):
        # all of W H lies on A's support: the sampled identity subtracts two
        # equal sums and its value is rounding noise of either sign, so the
        # block must be summed directly
        for seed in range(200):
            Ad, Wd, Hd = self._banded(seed, 0.0)
            div = nmf_divergence(SparseMatrix.from_dense(Ad), DenseMatrix(Wd), DenseMatrix(Hd))
            assert 0 <= div < 1e-24, f"seed {seed}: {div!r}"

    def test_fitting_block_takes_the_identity(self, monkeypatch):
        # a fit within 20% of A leaves the identity's value well clear of its
        # rounding, so the block is kept and not formed densely
        def refuse(*args):
            raise AssertionError("a fitting sparse block was summed directly")

        for seed in range(20):
            Ad, Wd, Hd = self._banded(seed, 0.2)
            expected = np.sum((Ad - Wd @ Hd) ** 2)
            with monkeypatch.context() as mp:
                mp.setattr(nmf, "_direct_sum", refuse)
                div = nmf_divergence(SparseMatrix.from_dense(Ad), DenseMatrix(Wd), DenseMatrix(Hd))
            assert div == pytest.approx(expected, rel=1e-12), f"seed {seed}"

    def test_mixed_sign_factors_sum_directly(self):
        # W H is O(1) while W^T W is O(1e24): the trace of (W^T W)(H H^T)
        # would cancel to noise, so signed factors take the direct sum
        Wd = 1e12 * np.tile([1.0, -1.0], (50, 1))
        for seed in range(20):
            rng = np.random.default_rng(seed)
            Hd = np.vstack([1.0 + 1e-12 * rng.random(40), np.ones(40)])
            Ad = np.where(rng.random((50, 40)) < 0.05, rng.random((50, 40)), 0.0)
            expected = np.sum((Ad - Wd @ Hd) ** 2)
            div = nmf_divergence(SparseMatrix.from_dense(Ad), DenseMatrix(Wd), DenseMatrix(Hd))
            assert div == pytest.approx(expected, rel=1e-12), f"seed {seed}"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("w, h, h_cols", [
        (1e100, 1e100, 1), (1e160, 1e-160, 64), (1e-160, 1e160, 64),
    ], ids=["square-of-a-stored-entry", "gram-of-w", "gram-of-h"])
    def test_overflowing_square_sums_directly(self, w, h, h_cols):
        # A stores (W H)_00 + 1 at one cell of 64. A stored 1e200 squares to
        # inf in both sums of the identity, leaving inf - inf; W^T W or H H^T
        # = 1e320 makes the trace inf while W H is 1. Each block is summed
        # directly, and nothing warns of an overflow the direct sum lacks
        Wd, Hd, Ad = np.full((1, 1), w), np.zeros((1, 64)), np.zeros((1, 64))
        Hd[0, :h_cols] = h
        Ad[0, 0] = w * h + 1.0
        expected = np.sum((Ad - Wd @ Hd) ** 2)
        div = nmf_divergence(SparseMatrix.from_dense(Ad), DenseMatrix(Wd), DenseMatrix(Hd))
        assert div == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 40), n=st.integers(1, 40), k=st.integers(1, 6),
           delta=st.sampled_from([0.0, 0.01, 0.03, 0.06, 0.1, 0.3, 0.5, 1.0]),
           block_cells=st.sampled_from([1 << 18, 64, 5]), seed=st.integers(0, 2**32 - 1))
    def test_matches_numpy_on_both_sides_of_the_switch(self, m, n, k, delta, block_cells, seed):
        rng = np.random.default_rng(seed)
        Ad = np.where(rng.random((m, n)) < delta, 1.0 - rng.random((m, n)), 0.0)
        Wd, Hd = rng.random((m, k)), rng.random((k, n))
        Wd[rng.random((m, k)) < 0.2] = 0.0
        expected = float(np.sum((Ad - Wd @ Hd) ** 2))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nmf, "_DIVERGENCE_BLOCK_CELLS", block_cells)
            div = nmf_divergence(SparseMatrix.from_dense(Ad), DenseMatrix(Wd), DenseMatrix(Hd))
        assert div >= 0
        assert abs(div - expected) <= 1e-12 * expected + 1e-300


class TestStep:
    def test_scalar_hand_case(self):
        # A=[4], W=[2], H=[1]: H'=1*(2*4)/(2*2*1)=2, then W'=2*(4*2)/(2*2*2)=2
        A = SparseMatrix.from_dense([[4.0]])
        state = NmfState(DenseMatrix([[2.0]]), DenseMatrix([[1.0]]))
        out = nmf_step(A, state, eps=0.0)
        assert out.H.to_dense()[0, 0] == 2.0
        assert out.W.to_dense()[0, 0] == 2.0
        assert out.divergence_history[-1] == 0.0

    def test_exact_factorization_is_fixed_point(self):
        rng = np.random.default_rng(8)
        Wd = 0.5 + 0.5 * rng.random((12, 4))
        Hd = 0.5 + 0.5 * rng.random((4, 10))
        A = SparseMatrix.from_dense(Wd @ Hd)
        state = NmfState(DenseMatrix(Wd), DenseMatrix(Hd))
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
            NmfState(DenseMatrix([[-1.0]]), DenseMatrix([[1.0]]))

    def test_rejects_sparse_factors(self):
        W, H = SparseMatrix.from_dense([[2.0]]), DenseMatrix([[1.0]])
        with pytest.raises(TypeError, match="DenseMatrix"):
            NmfState(W, H)
        with pytest.raises(TypeError, match="DenseMatrix"):
            nmf_divergence(SparseMatrix.from_dense([[1.0]]), H, W)

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

    def test_step_runs_no_map_task_on_threads(self, monkeypatch):
        # a block's product is too short to repay a thread, so every job of
        # a step runs its map tasks on the caller's thread
        import mrmul.engine as engine
        real_run_tasks, calls = engine._run_tasks, []

        def spy(task_fn, n_workers, args_per_worker, parallel):
            calls.append((task_fn.__name__, n_workers, parallel))
            return real_run_tasks(task_fn, n_workers, args_per_worker, parallel)

        # the benchmark's k on 600 columns: Y = Cww·H and Chh = H·Hᵀ have
        # 4800 products per row
        A = random_sparse(600, 600, 0.02, seed=16)
        state = nmf_init(A, 8, seed=0)
        monkeypatch.setattr(engine, "_run_tasks", spy)
        nmf_step(A, state, workers=3)
        assert calls == [("_map_task", 3, False)] * 6

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


class TestDivergenceBlocks:
    """A block whose support is under the switch is never formed densely."""

    @staticmethod
    def _peak(A, k):
        state = nmf_init(A, k, seed=0)
        tracemalloc.start()
        try:
            nmf_divergence(A, state.W, state.H)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_sparse_support_forms_no_dense_block(self):
        A = random_sparse(2000, 2000, 1e-3, seed=17)
        step = nmf._DIVERGENCE_BLOCK_CELLS // A.cols
        block_bytes = step * A.cols * 8  # one dense row block of W H: 2 MB
        # the dense factor copies alone take 3 * 2000 * 4 * 8 bytes
        assert self._peak(A, 4) < block_bytes / 4

    def test_dense_support_takes_the_direct_path(self, monkeypatch):
        A = random_sparse(300, 200, 0.8, seed=18)
        state = nmf_init(A, 4, seed=0)

        def refuse(*args):
            raise AssertionError("a block with dense support was sampled")

        monkeypatch.setattr(nmf, "_sampled_product", refuse)
        expected = np.sum((A.to_dense() - state.W.values @ state.H.values) ** 2)
        assert nmf_divergence(A, state.W, state.H) == pytest.approx(expected, rel=1e-12)


class TestRun:
    def test_run_appends_one_divergence_per_iteration(self):
        A = random_sparse(15, 12, 0.4, seed=13)
        state = run_nmf(A, 3, iters=7, workers=1, seed=5)
        assert len(state.divergence_history) == 8  # init + 7 updates

    def test_transposes_a_once(self, monkeypatch):
        A = random_sparse(15, 12, 0.4, seed=13)
        expected = nmf_init(A, 3, seed=5)
        for _ in range(4):
            expected = nmf_step(A, expected)
        real_transpose, calls = nmf.transpose, []

        def counting_transpose(M):
            calls.append(M)
            return real_transpose(M)

        monkeypatch.setattr(nmf, "transpose", counting_transpose)
        assert run_nmf(A, 3, iters=4, seed=5) == expected
        assert calls == [A]

    def test_k_bounds_enforced(self):
        A = random_sparse(4, 6, 0.5, seed=1)
        with pytest.raises(ValueError):
            nmf_init(A, 5, seed=0)


class TestInit:
    def test_dense_draw_without_the_sparse_generator(self, monkeypatch):
        A = random_sparse(30, 20, 0.3, seed=2)

        def refuse(*args):
            raise AssertionError("nmf_init called the sparse generator")

        monkeypatch.setattr(sparse, "_generate_row", refuse)
        first, again = nmf_init(A, 4, seed=3), nmf_init(A, 4, seed=3)
        for M in (first.W, first.H):
            assert isinstance(M, DenseMatrix)
            assert M.values.min() > 0 and M.values.max() <= 1
        assert (first.W.shape, first.H.shape) == ((30, 4), (4, 20))
        assert np.array_equal(first.W.values, again.W.values)
        assert np.array_equal(first.H.values, again.H.values)
        assert not np.array_equal(first.W.values, nmf_init(A, 4, seed=4).W.values)

    def test_negative_seed_rejected(self):
        A = random_sparse(5, 4, 0.5, seed=1)
        with pytest.raises(ValueError, match="seed"):
            nmf_init(A, 2, seed=-1)
