import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrmul.pagerank import PagerankError, PagerankProblem, pagerank, pagerank_build
from mrmul.sparse import SparseMatrix


def random_graph(seed, n, avg_out=3, dangling=True):
    rng = np.random.default_rng(seed)
    edges = []
    for src in range(n):
        if dangling and rng.random() < 0.1:
            continue  # leave this node with no outlinks
        for dst in rng.choice(n, size=rng.integers(1, 2 * avg_out), replace=False):
            edges.append((src, int(dst)))
    return edges


def dense_damped_power(P, d, n, iters):
    """Independent oracle: the same damped iteration over a dense matrix."""
    x = np.full(n, 1.0 / n)
    for _ in range(iters):
        x = d * (P @ x) + (1.0 - d) / n
    return x


class TestBuild:
    def test_two_node_cycle(self):
        prob = pagerank_build([(0, 1), (1, 0)], 0.85, 2)
        assert prob.P.to_dense().tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert prob.outdeg.tolist() == [1, 1]

    def test_two_outlinks_split_evenly(self):
        prob = pagerank_build([(0, 1), (0, 2)], 0.85, 3)
        col = prob.P.to_dense()[:, 0]
        assert col.tolist() == [0.0, 0.5, 0.5]

    def test_dangling_column_uniform(self):
        prob = pagerank_build([(0, 1)], 0.85, 2)
        col = prob.P.to_dense()[:, 1]
        np.testing.assert_allclose(col, 0.5)

    def test_duplicate_edges_collapse(self):
        prob = pagerank_build([(0, 1), (0, 1), (0, 2)], 0.85, 3)
        assert prob.outdeg[0] == 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_repeated_shuffled_edges_build_the_distinct_links(self, seed):
        distinct = random_graph(seed, 60)
        rng = np.random.default_rng(seed)
        repeated = [distinct[i] for i in rng.integers(0, len(distinct), size=len(distinct))]
        edges = [distinct[i] for i in rng.permutation(len(distinct))] + repeated
        edges = [edges[i] for i in rng.permutation(len(edges))]
        want = pagerank_build(distinct, 0.85, 60).links
        got = pagerank_build(edges, 0.85, 60).links
        for field in ("indptr", "indices", "values"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             max_size=60))))
    def test_links_are_built_from_the_set_of_edges(self, graph):
        N, edges = graph
        distinct = sorted(set(edges))
        outdeg = np.bincount([s for s, _ in distinct], minlength=N)
        want = SparseMatrix.from_coo(N, N, [t for _, t in distinct], [s for s, _ in distinct],
                                     [1.0 / outdeg[s] for s, _ in distinct])
        got = pagerank_build(edges, 0.85, N).links
        for field in ("indptr", "indices", "values"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()

    def test_columns_sum_to_one(self):
        edges = random_graph(5, 40)
        prob = pagerank_build(edges, 0.85, 40)
        sums = prob.P.to_dense().sum(axis=0)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError, match="outside"):
            pagerank_build([(0, 5)], 0.85, 3)

    def test_rejects_bad_damping(self):
        with pytest.raises(ValueError):
            pagerank_build([(0, 1)], 1.5, 2)


class TestBuildArrays:
    def test_hand_graph_exact_arrays(self):
        # 0 -> 1, 2 (0 -> 1 twice), 1 -> 3, 2 -> 0, 1, 4; nodes 3 and 4 dangle
        edges = [(0, 1), (2, 0), (0, 2), (1, 3), (2, 1), (0, 1), (2, 4)]
        prob = pagerank_build(edges, 0.85, 5)
        third, fifth = 1 / 3, 1 / 5
        assert prob.outdeg.tolist() == [2, 1, 3, 0, 0]
        assert prob.P.indptr.tolist() == [0, 3, 7, 10, 13, 16]
        assert prob.P.indices.tolist() == [2, 3, 4, 0, 2, 3, 4, 0, 3, 4, 1, 3, 4, 2, 3, 4]
        assert prob.P.values.tolist() == [third, fifth, fifth,
                                          0.5, third, fifth, fifth,
                                          0.5, fifth, fifth,
                                          1.0, fifth, fifth,
                                          third, fifth, fifth]

    @pytest.mark.parametrize("edges,first_bad", [
        ([(0, 1), (5, 0), (1, 2), (3, 1)], "(5, 0)"),
        ([(0, 1), (1, -1), (2**70, 0)], "(1, -1)"),
        ([(0, 1), (0, 2**70), (4, 0)], f"(0, {2**70})"),
    ])
    def test_first_bad_edge_in_input_order_reported(self, edges, first_bad):
        with pytest.raises(ValueError) as exc:
            pagerank_build(edges, 0.85, 3)
        assert str(exc.value) == f"edge {first_bad} outside 0..2"

    def test_no_edges_gives_uniform_matrix(self):
        prob = pagerank_build([], 0.85, 3)
        assert prob.outdeg.tolist() == [0, 0, 0]
        assert prob.P.to_dense().tolist() == [[1 / 3] * 3] * 3


class TestPagerank:
    def test_two_node_cycle_undamped(self):
        prob = pagerank_build([(0, 1), (1, 0)], 1.0, 2)
        pi, iters = pagerank(prob, tol=1e-12)
        assert pi.values.tolist() == [0.5, 0.5]

    def test_three_node_cycle_matches_oracle(self):
        prob = pagerank_build([(0, 1), (1, 2), (2, 0)], 0.85, 3)
        pi, iters = pagerank(prob, tol=1e-10, max_iters=200)
        oracle = dense_damped_power(prob.P.to_dense(), 0.85, 3, iters)
        np.testing.assert_allclose(pi.values, oracle, atol=1e-12)

    def test_random_graphs_match_oracle(self):
        for seed in range(6):
            n = 30 + 7 * seed
            prob = pagerank_build(random_graph(seed, n), 0.85, n)
            pi, iters = pagerank(prob, tol=1e-10, max_iters=300)
            oracle = dense_damped_power(prob.P.to_dense(), 0.85, n, iters)
            np.testing.assert_allclose(pi.values, oracle, atol=1e-10)

    def test_probability_vector_every_iteration(self):
        n = 50
        prob = pagerank_build(random_graph(9, n), 0.85, n)
        residuals = []
        pi, _ = pagerank(prob, tol=1e-10, max_iters=120, residual_sink=residuals)
        assert abs(pi.values.sum() - 1.0) <= 1e-10
        assert pi.values.min() >= 0.0
        assert all(np.isfinite(residuals))

    def test_converged_vector_is_fixed_point_within_tol(self):
        n = 40
        tol = 1e-9
        prob = pagerank_build(random_graph(3, n), 0.85, n)
        pi, _ = pagerank(prob, tol=tol, max_iters=500)
        Pd = prob.P.to_dense()
        next_pi = 0.85 * (Pd @ pi.values) + 0.15 / n
        assert np.abs(next_pi - pi.values).sum() < tol

    def test_residuals_shrink(self):
        n = 60
        prob = pagerank_build(random_graph(4, n), 0.85, n)
        residuals = []
        pagerank(prob, tol=1e-12, max_iters=40, residual_sink=residuals)
        assert residuals[-1] < residuals[0]

    def test_worker_invariance_bit_exact(self):
        n = 45
        prob = pagerank_build(random_graph(6, n), 0.85, n)
        base, base_iters = pagerank(prob, tol=1e-10, workers=1)
        for w in (2, 4, 8):
            pi, iters = pagerank(prob, tol=1e-10, workers=w)
            assert iters == base_iters
            assert np.array_equal(pi.values, base.values)

    def test_rejects_non_stochastic_matrix(self):
        P = SparseMatrix.from_dense([[0.5, 0.0], [0.0, 0.5]])
        with pytest.raises(PagerankError, match="stochastic"):
            PagerankProblem(P, 0.85)

    def test_problem_derives_n_and_outdeg(self):
        L = SparseMatrix.from_dense([[0.0, 1.0, 0.0], [0.5, 0.0, 0.0], [0.5, 0.0, 0.0]])
        prob = PagerankProblem(L, 0.85)
        assert prob.N == 3
        assert prob.outdeg.tolist() == [2, 1, 0]
        with pytest.raises(ValueError, match="square"):
            PagerankProblem(SparseMatrix.from_dense([[1.0, 0.0]]), 0.85)
        with pytest.raises(ValueError, match="damping"):
            PagerankProblem(L, 1.5)

    def test_max_iters_caps_iterations(self):
        n = 80
        prob = pagerank_build(random_graph(7, n), 0.85, n)
        _, iters = pagerank(prob, tol=1e-16, max_iters=5)
        assert iters == 5


class TestStructure:
    """The iteration runs over the link matrix alone: each dangling node is
    one scalar term, never a stored column of N entries."""

    def test_links_hold_one_entry_per_distinct_link(self):
        edges = random_graph(11, 70)
        edges += edges[::3]  # repeated links collapse
        prob = pagerank_build(edges, 0.85, 70)
        assert prob.links.nnz == len(set(edges))
        assert (prob.outdeg == 0).any()

    def test_every_product_is_over_the_links(self, monkeypatch):
        module = importlib.import_module("mrmul.pagerank")  # the package rebinds the name
        prob = pagerank_build(random_graph(12, 60), 0.85, 60)
        original, sizes = module.broadcast_multiply, []

        def spy(A, B_small, workers=1):
            sizes.append(A.nnz)
            return original(A, B_small, workers)

        monkeypatch.setattr(module, "broadcast_multiply", spy)
        _, iters = pagerank(prob, tol=1e-10, max_iters=50, workers=2)
        assert sizes == [prob.links.nnz] * iters

    def test_memory_stays_linear_in_links(self):
        # 1000 dangling columns of 4000 entries would be 4M stored entries
        # (32 MB of values alone); the links are 9000
        N, n_dangling = 4000, 1000
        rng = np.random.default_rng(12)
        edges = [(src, int(dst)) for src in range(n_dangling, N)
                 for dst in rng.choice(N, size=3, replace=False)]
        tracemalloc.start()
        try:
            prob = pagerank_build(edges, 0.85, N)
            _, iters = pagerank(prob, tol=1e-16, max_iters=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert iters == 5
        assert prob.links.nnz == 9000
        assert peak < 16 * 2**20
