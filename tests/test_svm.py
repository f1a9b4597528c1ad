import tracemalloc

import numpy as np
import pytest

from mrmul.io import ParseError
from mrmul.sparse import DenseVector, SparseMatrix
from mrmul.svm import (
    SvmProblem,
    SvmState,
    accuracy,
    read_svm_file,
    svm_build_kernel,
    svm_gradient,
    svm_objective,
    svm_predict,
    svm_train,
)

from conftest import random_sparse


def toy_problem():
    """Two separable points on the number line: +1 at x=1, -1 at x=-1."""
    T = SparseMatrix.from_dense([[1.0], [-1.0]])
    return SvmProblem(T, DenseVector([1.0, -1.0]), C=10.0, eta=0.1)


def random_problem(seed, l=12, width=6):
    rng = np.random.default_rng(seed)
    Td = rng.random((l, width)) * (rng.random((l, width)) < 0.7)
    if not Td.any():
        Td[0, 0] = 1.0
    y = np.where(rng.random(l) < 0.5, -1.0, 1.0)
    return SvmProblem(SparseMatrix.from_dense(Td), DenseVector(y), C=1.0, eta=0.01)


class TestKernel:
    def test_one_hot_rows_give_identity(self):
        T = SparseMatrix.from_dense(np.eye(4))
        K = svm_build_kernel(T)
        np.testing.assert_array_equal(K.to_dense(), np.eye(4))

    def test_hand_case(self):
        T = SparseMatrix.from_dense([[1.0, 1.0], [1.0, 0.0]])
        K = svm_build_kernel(T)
        assert K.to_dense().tolist() == [[2.0, 1.0], [1.0, 1.0]]

    def test_symmetric_and_matches_dense_oracle(self):
        T = random_sparse(120, 30, 0.3, seed=1)
        K = svm_build_kernel(T, workers=2)
        Kd = K.to_dense()
        assert np.max(np.abs(Kd - Kd.T)) < 1e-12
        np.testing.assert_allclose(Kd, T.to_dense() @ T.to_dense().T, atol=1e-12)

    def test_diagonal_is_squared_row_norms(self):
        T = random_sparse(20, 10, 0.5, seed=2)
        K = svm_build_kernel(T)
        norms = (T.to_dense() ** 2).sum(axis=1)
        np.testing.assert_allclose(np.diag(K.to_dense()), norms, rtol=1e-12)


class TestGradient:
    def test_zero_alpha_gives_eta(self):
        prob = random_problem(3)
        K = svm_build_kernel(prob.T)
        state = SvmState(DenseVector(np.zeros(prob.T.rows)), K)
        g = svm_gradient(state, prob)
        np.testing.assert_allclose(g.values, prob.eta)

    def test_scalar_expansion(self):
        # l=1, y=+1, K=[[kappa]]: g = eta * (1 - a*kappa)
        T = SparseMatrix.from_dense([[2.0]])  # kappa = 4
        prob = SvmProblem(T, DenseVector([1.0]), C=5.0, eta=0.5)
        state = SvmState(DenseVector([0.75]), svm_build_kernel(T))
        g = svm_gradient(state, prob)
        assert g.values[0] == pytest.approx(0.5 * (1 - 0.75 * 4.0), abs=1e-15)

    def test_matches_finite_differences(self):
        for seed in range(5):
            prob = random_problem(seed, l=15)
            K = svm_build_kernel(prob.T)
            rng = np.random.default_rng(seed + 100)
            alpha = rng.random(prob.T.rows) * 0.4
            state = SvmState(DenseVector(alpha), K)
            g = svm_gradient(state, prob, workers=2).values / prob.eta
            Kd = K.to_dense()
            h = 1e-5
            fd = np.zeros(len(alpha))
            for i in range(len(alpha)):
                up, dn = alpha.copy(), alpha.copy()
                up[i] += h
                dn[i] -= h
                fd[i] = (svm_objective(up, prob.y.values, Kd)
                         - svm_objective(dn, prob.y.values, Kd)) / (2 * h)
            denom = np.maximum(np.abs(fd), 1e-9)
            assert np.max(np.abs(g - fd) / denom) < 1e-6

    @pytest.mark.parametrize("l,width,density", [(12, 6, 0.7), (9, 40, 0.2), (30, 3, 0.5)])
    def test_factored_product_matches_dense_kernel(self, l, width, density):
        # tall and wide (more features than examples) problems, each with an
        # example that has no features
        rng = np.random.default_rng(l * width)
        for _ in range(5):
            Td = rng.random((l, width)) * (rng.random((l, width)) < density)
            Td[rng.integers(l)] = 0.0
            y = np.where(rng.random(l) < 0.5, -1.0, 1.0)
            prob = SvmProblem(SparseMatrix.from_dense(Td), DenseVector(y), C=1.0, eta=0.01)
            alpha = rng.random(l)
            g = svm_gradient(SvmState(DenseVector(alpha), None), prob, workers=2).values
            expected = prob.eta * (1.0 - y * ((Td @ Td.T) @ (y * alpha)))
            assert np.max(np.abs(g - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestTrain:
    def test_zero_iterations_leaves_alpha_zero(self):
        prob = toy_problem()
        state = svm_train(prob, 0)
        assert np.all(state.alpha.values == 0.0)
        assert state.objective_history == [0.0]

    def test_toy_convergence_and_classification(self):
        prob = toy_problem()
        state = svm_train(prob, 200, workers=2)
        # dual optimum for this kernel is alpha = (0.5, 0.5)
        np.testing.assert_allclose(state.alpha.values, [0.5, 0.5], atol=1e-6)
        scores = svm_predict(state, prob, prob.T)
        assert accuracy(scores, prob.y) == 1.0

    def test_alpha_stays_in_box(self):
        prob = random_problem(7, l=20)
        K = svm_build_kernel(prob.T)
        alpha = np.zeros(prob.T.rows)
        state = SvmState(DenseVector(alpha), K, [])
        for _ in range(50):
            g = svm_gradient(state, prob)
            alpha = np.clip(state.alpha.values + g.values, 0.0, prob.C)
            state.alpha = DenseVector(alpha)
            assert alpha.min() >= 0.0 and alpha.max() <= prob.C

    def test_objective_nondecreasing_with_small_eta(self):
        prob = random_problem(9, l=16)
        prob = SvmProblem(prob.T, prob.y, C=1.0, eta=0.001)
        state = svm_train(prob, 100)
        hist = state.objective_history
        assert all(hist[i + 1] >= hist[i] - 1e-9 for i in range(len(hist) - 1))

    def test_worker_invariance_bit_exact(self):
        prob = random_problem(11, l=18)
        base = svm_train(prob, 25, workers=1)
        for w in (2, 3, 4, 8):
            st = svm_train(prob, 25, workers=w)
            assert st.alpha.values.tobytes() == base.alpha.values.tobytes()
            assert st.objective_history == base.objective_history

    def test_memory_grows_with_nnz_not_examples_squared(self):
        # 4x the examples and 4x the nonzeros: a held K = T Tt would grow 16x
        def problem(l):
            rng = np.random.default_rng(l)
            Td = rng.random((l, 50)) * (rng.random((l, 50)) < 0.1)
            y = np.where(rng.random(l) < 0.5, -1.0, 1.0)
            return SvmProblem(SparseMatrix.from_dense(Td), DenseVector(y), C=1.0, eta=0.001)

        def peak(prob):
            tracemalloc.start()
            try:
                svm_train(prob, 3, workers=2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(problem(400))  # warm up imports and lazy set-up
        small = peak(problem(400))
        assert peak(problem(1600)) < 6 * small

    @pytest.mark.parametrize("iters", [0, 1, 5, 25])
    def test_history_ends_at_reference_objective(self, iters):
        # each step's value comes from the gradient's product, not svm_objective
        prob = random_problem(17, l=20)
        state = svm_train(prob, iters)
        assert len(state.objective_history) == iters + 1
        ref = svm_objective(state.alpha.values, prob.y.values,
                            svm_build_kernel(prob.T).to_dense())
        assert state.objective_history[-1] == pytest.approx(ref, rel=1e-12)

    def test_one_kernel_product_per_step(self, monkeypatch):
        import mrmul.multiply as mm
        real_run_job, stages = mm.run_job, []

        def recording_run_job(spec, records):
            stages.append(spec.name)
            return real_run_job(spec, records)

        monkeypatch.setattr(mm, "run_job", recording_run_job)
        state = svm_train(random_problem(19, l=14), 25, workers=2)
        assert state.K is None
        # K q = T (Tt q), two broadcasts per step plus two for W(alpha_25)
        assert stages == ["broadcast-multiply"] * 52

    @pytest.mark.parametrize("iters", [0, 1, 25])
    def test_examples_cut_once_per_solve(self, monkeypatch, iters):
        import mrmul.multiply as mm
        real_init, cut = mm.RowBlocks.__init__, []

        def recording_init(self, A, workers):
            cut.append((A, workers))
            real_init(self, A, workers)

        monkeypatch.setattr(mm.RowBlocks, "__init__", recording_init)
        prob = random_problem(20, l=14)
        svm_train(prob, iters, workers=3)
        assert len(cut) == 2
        assert cut[0][0] is prob.T and cut[1][0] is prob.Tt
        assert [w for _, w in cut] == [3, 3]


class TestPredict:
    def test_zero_alpha_zero_scores(self):
        prob = toy_problem()
        state = svm_train(prob, 0)
        scores = svm_predict(state, prob, prob.T)
        assert np.all(scores.values == 0.0)

    def test_single_support_vector_norm(self):
        T = SparseMatrix.from_dense([[3.0, 4.0]])
        prob = SvmProblem(T, DenseVector([1.0]), C=2.0)
        state = SvmState(DenseVector([1.0]), svm_build_kernel(T))
        scores = svm_predict(state, prob, T)
        assert scores.values[0] == pytest.approx(25.0, abs=1e-12)

    def test_matches_dense_oracle(self):
        prob = random_problem(13, l=20, width=8)
        state = svm_train(prob, 40)
        Q = random_sparse(9, 8, 0.5, seed=99)
        scores = svm_predict(state, prob, Q, workers=2)
        coef = prob.y.values * state.alpha.values
        expected = Q.to_dense() @ (prob.T.to_dense().T @ coef)
        np.testing.assert_allclose(scores.values, expected, atol=1e-10)

    def test_query_width_mismatch(self):
        prob = toy_problem()
        state = svm_train(prob, 1)
        with pytest.raises(ValueError, match="width"):
            svm_predict(state, prob, random_sparse(2, 3, 1.0, seed=1))


class TestDataFile:
    def test_reads_plus_minus_labels(self, tmp_path):
        p = tmp_path / "d.svm"
        p.write_text("+1 0:1.5 2:2.0\n-1 1:1.0\n")
        T, y = read_svm_file(p)
        assert (T.rows, T.cols) == (2, 3)
        assert y.values.tolist() == [1.0, -1.0]

    def test_maps_arbitrary_binary_labels(self, tmp_path):
        p = tmp_path / "d.svm"
        p.write_text("3 0:1\n7 0:2\n3 1:1\n")
        _, y = read_svm_file(p)
        assert y.values.tolist() == [-1.0, 1.0, -1.0]

    def test_signed_zero_labels_are_one_value(self, tmp_path):
        p = tmp_path / "d.svm"
        p.write_text("-0.0 0:1\n2 0:2\n0 1:1\n")
        _, y = read_svm_file(p)
        assert y.values.tolist() == [-1.0, 1.0, -1.0]

    def test_rejects_three_labels(self, tmp_path):
        p = tmp_path / "d.svm"
        p.write_text("1 0:1\n2 0:1\n3 0:1\n")
        with pytest.raises(ParseError, match="two label"):
            read_svm_file(p)

    def test_rejects_unsorted_indices(self, tmp_path):
        p = tmp_path / "d.svm"
        p.write_text("1 2:1 1:1\n")
        with pytest.raises(ParseError, match="ascending"):
            read_svm_file(p)

    def test_problem_validation(self):
        T = SparseMatrix.from_dense([[1.0]])
        with pytest.raises(ValueError):
            SvmProblem(T, DenseVector([2.0]))  # label not in {-1, +1}
        with pytest.raises(ValueError):
            SvmProblem(T, DenseVector([1.0, 1.0]))  # count mismatch
