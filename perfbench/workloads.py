"""The four benchmark workloads: their seeded inputs and the mrmul command
line that consumes them. The oracle that checks the outputs is oracle.py.

Inputs are generated here with numpy alone, not with mrmul's own generator,
so a change to the program cannot change what it is measured on, and the
set-up process imports nothing beyond what mrmul itself imports. The program
only ever sees the files written by `generate`.
"""

from __future__ import annotations

import os

import numpy as np

WORKERS = 2

# multiply-sparse: the paper's partition-summation model at its headline
# sparsity; nearly all of its time is per-record engine work.
MUL_N = 1000
MUL_DELTA = 2.0 ** -7
MUL_SCHEMA = "20x6x20"

# nmf: many short partition jobs over dense factors stored as CSR.
NMF_M, NMF_N, NMF_DELTA, NMF_K, NMF_ITERS = 1100, 800, 0.01, 8, 5

# pagerank-dangling: 3% of the nodes have no outlinks, as on real web
# graphs; the others link to 1 + Zipf(2) distinct other nodes, capped at 200.
# Starting the degrees at 2 and dropping self-links leaves no closed link
# cycle, so every seed converges in the same number of iterations (28-29); a
# plain Zipf(2) start at 1 swings between 45 and 85 iterations by seed.
PR_NODES, PR_ZIPF, PR_MAX_DEG, PR_DANGLING = 2500, 2.0, 200, 0.03
PR_DAMPING, PR_TOL = 0.85, 1e-8

# svm-dense-kernel: the Gram matrix of the examples is dense, so every
# broadcast row is as wide as the training set.
SVM_EXAMPLES, SVM_FEATURES, SVM_DELTA, SVM_ITERS = 500, 300, 0.1, 100
SVM_C, SVM_ETA = 1.0, 0.001


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def random_rows(rng, rows, cols, delta):
    """CSR arrays (indptr, cols, values) of a rows x cols matrix whose cells
    are nonzero with probability delta, values uniform in (0, 1)."""
    r, c = np.nonzero(rng.random((rows, cols)) < delta)
    vals = rng.random(r.size)
    vals[vals == 0.0] = 0.5  # keep every stored value nonzero
    indptr = np.concatenate(([0], np.cumsum(np.bincount(r, minlength=rows))))
    return indptr, c, vals


def _write_rows(path, rows, cols, csr):
    """Write CSR arrays in mrmul's row format (shortest round-trip decimals)."""
    indptr, c, v = csr
    c, v = c.tolist(), v.tolist()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{rows} {cols} {len(v)}\n")
        for i in range(rows):
            lo, hi = indptr[i], indptr[i + 1]
            if lo < hi:
                fh.write(f"{i}\t" + " ".join(f"{a}:{b!r}" for a, b in zip(c[lo:hi], v[lo:hi]))
                         + "\n")


class MultiplySparse:
    name = "multiply-sparse"
    inputs = ("A.txt", "B.txt")
    outputs = ("C.txt",)

    def generate(self, seed, d):
        for stream, name in ((1, "A.txt"), (2, "B.txt")):
            _write_rows(os.path.join(d, name), MUL_N, MUL_N,
                        random_rows(_rng(seed, stream), MUL_N, MUL_N, MUL_DELTA))

    def argv(self, d, out):
        return ["multiply", "--a", os.path.join(d, "A.txt"), "--b", os.path.join(d, "B.txt"),
                "--schema", MUL_SCHEMA, "--shard", "rand", "--workers", str(WORKERS),
                "--out", os.path.join(out, "C.txt")]


class Nmf:
    name = "nmf"
    inputs = ("A.txt",)
    outputs = ("nmf_W.txt", "nmf_H.txt", "nmf_divergence.csv")

    def generate(self, seed, d):
        _write_rows(os.path.join(d, "A.txt"), NMF_M, NMF_N,
                    random_rows(_rng(seed, 3), NMF_M, NMF_N, NMF_DELTA))

    def argv(self, d, out):
        return ["nmf", "--input", os.path.join(d, "A.txt"), "--k", str(NMF_K),
                "--iters", str(NMF_ITERS), "--workers", str(WORKERS),
                "--out-prefix", os.path.join(out, "nmf_")]


class PagerankDangling:
    name = "pagerank-dangling"
    inputs = ("edges.txt",)
    outputs = ("pr_pi.csv", "pr_ranks.csv", "pr_residuals.csv")

    def generate(self, seed, d):
        rng = _rng(seed, 4)
        deg = np.minimum(rng.zipf(PR_ZIPF, PR_NODES) + 1, PR_MAX_DEG)
        deg[rng.choice(PR_NODES, round(PR_DANGLING * PR_NODES), replace=False)] = 0
        with open(os.path.join(d, "edges.txt"), "w", encoding="ascii") as fh:
            for src in range(PR_NODES):
                dst = rng.choice(PR_NODES - 1, int(deg[src]), replace=False)
                dst[dst >= src] += 1
                fh.writelines(f"{src}\t{t}\n" for t in sorted(dst.tolist()))

    def argv(self, d, out):
        return ["pagerank", "--edges", os.path.join(d, "edges.txt"), "--nodes", str(PR_NODES),
                "--damping", str(PR_DAMPING), "--tol", str(PR_TOL), "--workers", str(WORKERS),
                "--out-prefix", os.path.join(out, "pr_")]


class SvmDenseKernel:
    name = "svm-dense-kernel"
    inputs = ("train.svm",)
    outputs = ("svm_alpha.txt", "svm_objective.csv")

    def generate(self, seed, d):
        rng = _rng(seed, 5)
        indptr, c, v = random_rows(rng, SVM_EXAMPLES, SVM_FEATURES, SVM_DELTA)
        # labels from a random hyperplane through the origin, which the
        # zero-bias SVM can represent
        w = rng.standard_normal(SVM_FEATURES)
        rows = np.repeat(np.arange(SVM_EXAMPLES), np.diff(indptr))
        scores = np.bincount(rows, weights=v * w[c], minlength=SVM_EXAMPLES)
        c, v = c.tolist(), v.tolist()
        with open(os.path.join(d, "train.svm"), "w", encoding="ascii") as fh:
            for i in range(SVM_EXAMPLES):
                lo, hi = indptr[i], indptr[i + 1]
                feats = " ".join(f"{a}:{b!r}" for a, b in zip(c[lo:hi], v[lo:hi]))
                fh.write(f"{1 if scores[i] > 0 else -1} {feats}\n")

    def argv(self, d, out):
        return ["svm-train", "--data", os.path.join(d, "train.svm"), "--iters", str(SVM_ITERS),
                "--c", str(SVM_C), "--eta", str(SVM_ETA), "--workers", str(WORKERS),
                "--out-prefix", os.path.join(out, "svm_")]


WORKLOADS = {w.name: w for w in (MultiplySparse(), Nmf(), PagerankDangling(), SvmDenseKernel())}
