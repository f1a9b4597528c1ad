"""Command-line front end: generation, multiplication, the three solvers, and
the scaling benchmark grid.

All numeric flags take decimals; sparsity flags also accept power notation
like 2^-7. An optional config file of key=value lines (keys mirror the long
flag names) supplies defaults that explicit flags override. Result files are
byte-identical across reruns with the same inputs and flags; metrics and
timing files are excluded from that guarantee.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import io as mio
from .bench import BenchConfig, run_scaling
from .engine import METRICS_CSV_HEADER
from .io import read_svm_file
from .multiply import PartitionSchema, partition_multiply
from .nmf import run_nmf
from .pagerank import pagerank, pagerank_build
from .sparse import GeneratorParams, SparseMatrix, generate_random
from .svm import SvmProblem, accuracy, svm_predict, svm_train

__all__ = ["main"]


def parse_sparsity(text: str) -> float:
    """Accept plain decimals or 2^-k power notation."""
    text = text.strip()
    if "^" in text:
        base, _, exp = text.partition("^")
        value = float(base) ** float(exp)
    else:
        value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"sparsity {text!r} outside [0, 1]")
    return value


def parse_schema(text: str) -> PartitionSchema:
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"schema must be MxNxK, got {text!r}")
    try:
        m, n, k = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"schema must be MxNxK, got {text!r}") from None
    return PartitionSchema(m, n, k)


def _int_list(text):
    return tuple(int(t) for t in text.split(",") if t)


def _sparsity_list(text):
    return tuple(parse_sparsity(t) for t in text.split(",") if t)


def _schema_list(text):
    return tuple(parse_schema(t) for t in text.split(",") if t)


def _shard_list(text):
    kinds = tuple(t.strip() for t in text.split(",") if t.strip())
    for kind in kinds:
        if kind not in ("naive", "rand"):
            raise argparse.ArgumentTypeError(f"unknown shard kind {kind!r}")
    return kinds


def _write_history(path, values):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("iter,value\n")
        for i, v in enumerate(values):
            fh.write(f"{i},{float(v)!r}\n")


def _write_vector(path, values):
    with open(path, "w", encoding="ascii") as fh:
        for v in values:
            fh.write(f"{float(v)!r}\n")


def _require_finite(outputs):
    """Refuse to write any of (path, values) when one holds nan or inf."""
    for path, values in outputs:
        if not np.all(np.isfinite(values)):
            raise ValueError(f"non-finite values in the result for {path}; nothing written")


def cmd_generate(args):
    params = GeneratorParams(args.m, args.n, args.delta, args.seed)
    M = generate_random(params, args.workers)
    mio.write_matrix(M, args.out)
    print(f"wrote {args.out}: {M.rows}x{M.cols} nnz={M.nnz}")
    return 0


def cmd_multiply(args):
    A = mio.read_matrix(args.a)
    B = mio.read_matrix(args.b)
    if A.cols != B.rows:
        print(f"error: cannot multiply {args.a} ({A.rows}x{A.cols}) by "
              f"{args.b} ({B.rows}x{B.cols}): inner dimensions differ", file=sys.stderr)
        return 1
    C, metrics = partition_multiply(A, B, args.schema, args.shard, args.workers)
    _require_finite([(args.out, C.values)])
    mio.write_matrix(C, args.out)
    if args.metrics:
        with open(args.metrics, "w", encoding="ascii") as fh:
            fh.write(METRICS_CSV_HEADER + ",schema,shard\n")
            for m in metrics:
                fh.write(f"{m.to_csv_row()},{args.schema},{args.shard}\n")
    print(f"wrote {args.out}: nnz={C.nnz}")
    return 0


def cmd_nmf(args):
    A = mio.read_matrix(args.input)
    timings = []
    state = run_nmf(A, args.k, args.iters, args.workers, args.seed, timing_sink=timings)
    prefix = args.out_prefix
    _require_finite([(f"{prefix}W.txt", state.W.values), (f"{prefix}H.txt", state.H.values),
                     (f"{prefix}divergence.csv", state.divergence_history)])
    mio.write_matrix(SparseMatrix.from_dense(state.W.values), f"{prefix}W.txt")
    mio.write_matrix(SparseMatrix.from_dense(state.H.values), f"{prefix}H.txt")
    _write_history(f"{prefix}divergence.csv", state.divergence_history)
    with open(f"{prefix}timings.csv", "w", encoding="ascii") as fh:
        fh.write("iter,component,ms\n")
        per_iter = 3
        for j, (component, ms) in enumerate(timings):
            fh.write(f"{j // per_iter},{component},{ms:.3f}\n")
    print(f"final divergence {float(state.divergence_history[-1])!r} after {args.iters} iterations")
    return 0


def cmd_svm_train(args):
    T, y = read_svm_file(args.data)
    prob = SvmProblem(T, y, C=args.c, eta=args.eta)
    state = svm_train(prob, args.iters, args.workers)
    prefix = args.out_prefix
    _require_finite([(f"{prefix}alpha.txt", state.alpha.values),
                     (f"{prefix}objective.csv", state.objective_history)])
    _write_vector(f"{prefix}alpha.txt", state.alpha.values)
    _write_history(f"{prefix}objective.csv", state.objective_history)
    scores = svm_predict(state, prob, T, args.workers)
    acc = accuracy(scores, y)
    print(f"training accuracy {acc:.4f} over {T.rows} examples")
    # projected ascent with a small enough step never lowers the dual objective
    fell = np.flatnonzero(np.diff(state.objective_history) < 0)
    if fell.size:
        i = int(fell[0]) + 1
        print(f"warning: the dual objective fell at iteration {i} "
              f"({state.objective_history[i - 1]!r} -> {state.objective_history[i]!r}); "
              f"the ascent diverges, try a --eta smaller than {args.eta!r}", file=sys.stderr)
    return 0


def cmd_svm_predict(args):
    T, y = read_svm_file(args.data)
    alphas = []
    with open(args.alpha, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                alpha = float(line)
            except ValueError:
                raise mio.ParseError(args.alpha, lineno, f"bad alpha {line.strip()!r}") from None
            if not (np.isfinite(alpha) and alpha >= 0):
                raise mio.ParseError(args.alpha, lineno,
                                     f"alpha must be finite and >= 0, got {line.strip()}")
            alphas.append(alpha)
    if len(alphas) != T.rows:
        print(f"error: {args.alpha} has {len(alphas)} values for {T.rows} "
              f"examples in {args.data}", file=sys.stderr)
        return 1
    from .sparse import DenseVector
    from .svm import SvmState
    # prediction reads only the alphas, the labels and the examples
    state = SvmState(DenseVector(np.array(alphas)), None)
    prob = SvmProblem(T, y)
    Q, _ = read_svm_file(args.query, cols=T.cols)
    scores = svm_predict(state, prob, Q, args.workers)
    _require_finite([(args.out, scores.values)])
    _write_vector(args.out, scores.values)
    print(f"wrote {args.out}: {len(scores)} scores")
    return 0


def cmd_pagerank(args):
    edges = mio.read_edges(args.edges)
    n = args.nodes
    if n is None:
        n = max((max(s, t) for s, t in edges), default=-1) + 1
        if n < 1:
            print("error: empty graph and no --nodes given", file=sys.stderr)
            return 1
    prob = pagerank_build(edges, args.damping, n)
    residuals = []
    pi, iters = pagerank(prob, args.tol, args.max_iters, args.workers, residual_sink=residuals)
    prefix = args.out_prefix
    with open(f"{prefix}pi.csv", "w", encoding="ascii") as fh:
        for i, v in enumerate(pi.values):
            fh.write(f"{i},{float(v)!r}\n")
    order = np.lexsort((np.arange(n), -pi.values))
    with open(f"{prefix}ranks.csv", "w", encoding="ascii") as fh:
        for i in order:
            fh.write(f"{i},{float(pi.values[i])!r}\n")
    _write_history(f"{prefix}residuals.csv", residuals)
    print(f"converged={residuals[-1] < args.tol if residuals else False} "
          f"iterations={iters} sum={float(pi.values.sum())!r}")
    return 0


def cmd_bench_scaling(args):
    cfg = BenchConfig(sizes=args.sizes, deltas=args.deltas, schemas=args.schemas,
                      shards=args.shards, workers=args.workers_list, seed=args.seed,
                      out_dir=Path(args.out_dir))
    rows, fits = run_scaling(cfg)
    for line in fits:
        print(line)
    print(f"wrote {args.out_dir}/runs.csv ({len(rows)} rows) and fits.csv")
    return 0


def _add_common(p, out_default=None):
    p.add_argument("--workers", type=int, default=1, help="worker count (default 1)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--config", default=None,
                   help="key=value file supplying defaults for these flags")


def build_parser():
    top = argparse.ArgumentParser(
        prog="mrmul",
        description="Multi-worker multiplicative models: block matrix multiplication, "
                    "NMF, SVM, and PageRank with a scaling benchmark harness.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a random sparse matrix")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=parse_sparsity, required=True,
                   help="nonzero fraction; accepts 2^-7 notation")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("multiply", help="block matrix multiply two row-format files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--schema", type=parse_schema, default=PartitionSchema(1, 1, 1),
                   help="partition schema MxNxK (default 1x1x1)")
    p.add_argument("--shard", choices=("naive", "rand"), default="naive")
    p.add_argument("--out", required=True)
    p.add_argument("--metrics", default=None, help="also write a metrics CSV here")
    _add_common(p)
    p.set_defaults(fn=cmd_multiply)

    p = sub.add_parser("nmf", help="factorize a matrix with multiplicative updates")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--out-prefix", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_nmf)

    p = sub.add_parser("svm-train", help="train the fixed-bias dual SVM")
    p.add_argument("--data", required=True, help="label-prefixed sparse examples")
    p.add_argument("--c", type=float, default=1.0, help="box bound C (default 1)")
    p.add_argument("--eta", type=float, default=0.001, help="step size (default 0.001)")
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--out-prefix", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_svm_train)

    p = sub.add_parser("svm-predict", help="score query examples with trained alphas")
    p.add_argument("--data", required=True, help="training examples used to fit")
    p.add_argument("--alpha", required=True, help="alpha file from svm-train")
    p.add_argument("--query", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_svm_predict)

    p = sub.add_parser("pagerank", help="rank an edge-list graph")
    p.add_argument("--edges", required=True)
    p.add_argument("--nodes", type=int, default=None, help="node count (default max id + 1)")
    p.add_argument("--damping", type=float, default=0.85)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--out-prefix", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_pagerank)

    p = sub.add_parser("bench-scaling", help="run the scaling experiment grid")
    p.add_argument("--sizes", type=_int_list, default=(256, 512, 1024))
    p.add_argument("--deltas", type=_sparsity_list, default=(2.0 ** -7,))
    p.add_argument("--schemas", type=_schema_list, default=(PartitionSchema(20, 6, 20),))
    p.add_argument("--shards", type=_shard_list, default=("naive",))
    p.add_argument("--workers-list", type=_int_list, default=(1,))
    p.add_argument("--out-dir", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_bench_scaling)
    return top


def _extract_config(argv):
    rest, cfg_path = [], None
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--config" and i + 1 < len(argv):
            cfg_path = argv[i + 1]
            i += 2
        elif tok.startswith("--config="):
            cfg_path = tok.split("=", 1)[1]
            i += 1
        else:
            rest.append(tok)
            i += 1
    return rest, cfg_path


def _config_args(path):
    extra = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        extra.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return extra


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    rest, cfg_path = _extract_config(argv)
    if cfg_path:
        try:
            extra = _config_args(cfg_path)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 1
        # config defaults go right after the subcommand so explicit flags win
        if rest and not rest[0].startswith("-"):
            rest = [rest[0]] + extra + rest[1:]
        else:
            rest = extra + rest
    parser = build_parser()
    args = parser.parse_args(rest)
    try:
        return args.fn(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
