"""Plain numpy/scipy oracle for each workload.

`load` parses the generated inputs, `reference` computes the same result the
command computes (its time is ref.numpy_s) and returns what `check` needs,
and `check` returns the list of ways a command's output files are wrong.
The parsers here are the benchmark's own, independent of mrmul.io.
"""

from __future__ import annotations

import os

import numpy as np
import scipy.sparse as sp

from workloads import (NMF_ITERS, NMF_K, PR_DAMPING, PR_NODES, SVM_C, SVM_ETA, SVM_ITERS)


def read_rows(path) -> sp.csr_matrix:
    """Parse a row-format matrix file into a scipy CSR matrix."""
    with open(path, encoding="ascii") as fh:
        rows, cols, nnz = (int(t) for t in fh.readline().split())
        r, c, v = [], [], []
        for line in fh:
            head, _, rest = line.partition("\t")
            i = int(head)
            for tok in rest.split():
                col, _, val = tok.partition(":")
                r.append(i)
                c.append(int(col))
                v.append(float(val))
    if len(v) != nnz:
        raise ValueError(f"{path}: header says nnz={nnz}, file has {len(v)}")
    return sp.csr_matrix((v, (r, c)), shape=(rows, cols))


def _read_history(path):
    """Values of an `iter,value` CSV file."""
    with open(path, encoding="ascii") as fh:
        fh.readline()
        return np.array([float(line.split(",")[1]) for line in fh if line.strip()])


class MultiplySparse:
    def load(self, d):
        return read_rows(os.path.join(d, "A.txt")), read_rows(os.path.join(d, "B.txt"))

    def reference(self, operands):
        A, B = operands
        C = (A @ B).tocsr()
        C.sort_indices()
        return C

    def check(self, ref, out):
        C = read_rows(os.path.join(out, "C.txt"))
        if C.shape != ref.shape or C.nnz != ref.nnz:
            return [f"C is {C.shape} nnz={C.nnz}, A@B is {ref.shape} nnz={ref.nnz}"]
        if not (np.array_equal(C.indptr, ref.indptr) and np.array_equal(C.indices, ref.indices)):
            return ["C's nonzero pattern differs from A@B"]
        if not np.allclose(C.data, ref.data, rtol=1e-10, atol=0.0):
            return [f"C differs from A@B by up to {np.max(np.abs(C.data - ref.data)):.3e}"]
        return []


class Nmf:
    def load(self, d):
        return read_rows(os.path.join(d, "A.txt")).toarray()

    def reference(self, A):
        """The same multiplicative updates and divergences in dense numpy from
        a fixed init. Only its time is used; the check needs just A."""
        rng = np.random.default_rng(0)
        W, H = rng.random((A.shape[0], NMF_K)), rng.random((NMF_K, A.shape[1]))
        divergence = [float(np.sum((A - W @ H) ** 2))]
        for _ in range(NMF_ITERS):
            H = H * (W.T @ A) / (W.T @ W @ H + 1e-12)
            W = W * (A @ H.T) / (W @ H @ H.T + 1e-12)
            divergence.append(float(np.sum((A - W @ H) ** 2)))
        return A

    def check(self, A, out):
        errors = []
        hist = _read_history(os.path.join(out, "nmf_divergence.csv"))
        if hist.size != NMF_ITERS + 1:
            return [f"divergence history has {hist.size} values, expected {NMF_ITERS + 1}"]
        if np.any(np.diff(hist) > 0):
            errors.append("divergence history increases")
        W = read_rows(os.path.join(out, "nmf_W.txt")).toarray()
        H = read_rows(os.path.join(out, "nmf_H.txt")).toarray()
        if W.min() < 0 or H.min() < 0:
            errors.append("negative factor entry")
        div = float(np.sum((A - W @ H) ** 2))
        if not np.isclose(hist[-1], div, rtol=1e-9, atol=0.0):
            errors.append(f"last divergence {hist[-1]!r} != {div!r} recomputed from W and H")
        return errors


class PagerankDangling:
    def load(self, d):
        return np.loadtxt(os.path.join(d, "edges.txt"), dtype=np.int64, ndmin=2)

    def reference(self, edges):
        """Power iteration to a 1e-13 step on the same Google matrix. Dangling
        columns enter as their exact uniform mass rather than stored columns:
        the dense iteration without an N x N array."""
        N, d = PR_NODES, PR_DAMPING
        src, dst = edges[:, 0], edges[:, 1]
        outdeg = np.bincount(src, minlength=N).astype(np.float64)
        links = sp.csr_matrix((1.0 / outdeg[src], (dst, src)), shape=(N, N))
        dangling = outdeg == 0
        pi = np.full(N, 1.0 / N)
        for _ in range(10_000):
            nxt = d * (links @ pi + pi[dangling].sum() / N) + (1.0 - d) / N
            step = np.abs(nxt - pi).sum()
            pi = nxt
            if step < 1e-13:
                break
        return pi

    def check(self, ref, out):
        with open(os.path.join(out, "pr_pi.csv"), encoding="ascii") as fh:
            pi = np.array([float(line.split(",")[1]) for line in fh if line.strip()])
        if pi.size != ref.size:
            return [f"pi has {pi.size} entries for {ref.size} nodes"]
        errors = []
        if abs(pi.sum() - 1.0) > 1e-9:
            errors.append(f"pi sums to {pi.sum()!r}")
        l1 = float(np.abs(pi - ref).sum())
        if l1 > 1e-6:
            errors.append(f"pi is {l1:.3e} (L1) from the reference power iteration")
        return errors


class SvmDenseKernel:
    def load(self, d):
        labels, r, c, v = [], [], [], []
        with open(os.path.join(d, "train.svm"), encoding="ascii") as fh:
            for i, line in enumerate(fh):
                toks = line.split()
                labels.append(float(toks[0]))
                for tok in toks[1:]:
                    col, _, val = tok.partition(":")
                    r.append(i)
                    c.append(int(col))
                    v.append(float(val))
        T = sp.csr_matrix((v, (r, c)), shape=(len(labels), max(c) + 1))
        return T, np.array(labels)

    def reference(self, operands):
        """Projected gradient ascent on the dual with a dense numpy kernel,
        objective included; returns the operands and the training accuracy
        the reference reaches."""
        T, y = operands
        K = (T @ T.T).toarray()
        alpha = np.zeros(T.shape[0])
        objective = [0.0]
        for _ in range(SVM_ITERS):
            alpha = np.clip(alpha + SVM_ETA * (1.0 - y * (K @ (y * alpha))), 0.0, SVM_C)
            q = y * alpha
            objective.append(alpha.sum() - 0.5 * q @ (K @ q))
        return T, y, _accuracy(T, y, alpha)

    def check(self, ref, out):
        T, y, ref_acc = ref
        alpha = np.loadtxt(os.path.join(out, "svm_alpha.txt"), ndmin=1)
        if alpha.size != y.size:
            return [f"{alpha.size} alphas for {y.size} examples"]
        errors = []
        if alpha.min() < 0.0 or alpha.max() > SVM_C:
            errors.append(f"alpha outside [0, {SVM_C}]")
        if np.any(np.diff(_read_history(os.path.join(out, "svm_objective.csv"))) < 0):
            errors.append("dual objective decreases")
        acc = _accuracy(T, y, alpha)
        if acc < ref_acc:
            errors.append(f"training accuracy {acc} below the reference's {ref_acc}")
        return errors


def _accuracy(T, y, alpha):
    scores = T @ (T.T @ (y * alpha))
    return float(np.mean(np.where(scores > 0, 1.0, -1.0) == y))


ORACLES = {"multiply-sparse": MultiplySparse(), "nmf": Nmf(),
           "pagerank-dangling": PagerankDangling(), "svm-dense-kernel": SvmDenseKernel()}
