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
from .bench import JOB_COLUMNS, BenchConfig, job_fields, run_scaling
from .io import read_svm_file
from .multiply import SHARD_KINDS, PartitionSchema, partition_multiply
from .nmf import run_nmf
from .pagerank import pagerank, pagerank_build
from .sparse import DenseVector, GeneratorParams, SparseMatrix, generate_random
from .svm import SvmProblem, SvmState, accuracy, svm_predict, svm_train

__all__ = ["main"]

# Every job sizes one list by the worker count, so a bound here caps that
# list at 8 MB; the library itself takes any count >= 1.
MAX_WORKERS = 2 ** 20


def parse_sparsity(text: str) -> float:
    """Accept plain decimals or 2^-k power notation."""
    text = text.strip()
    base, caret, exp = text.partition("^")
    try:
        value = float(base) ** float(exp) if caret else float(text)
    except (OverflowError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"sparsity {text!r} is not a finite number") from None
    # a negative base to a fractional power is complex, so not in [0, 1] either
    if not (isinstance(value, float) and 0.0 <= value <= 1.0):
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


def _shard_kind(text):
    if text not in SHARD_KINDS:
        raise argparse.ArgumentTypeError(f"unknown shard kind {text!r}")
    return text


def _list_of(parse):
    """An argparse type reading a comma-separated list, each item by parse;
    empty items are skipped."""
    def parse_list(text):
        items = (t.strip() for t in text.split(","))
        return tuple(parse(t) for t in items if t)
    parse_list.__name__ = f"{parse.__name__} list"
    return parse_list


def _column(values, index=None, header=None):
    """One float per line, as its repr, each after "i," when index gives the
    i's, under a header line when one is given."""
    values = np.asarray(values, dtype=np.float64).tolist()
    if index is None:
        lines = [f"{v!r}\n" for v in values]
    else:
        lines = [f"{i},{v!r}\n" for i, v in zip(np.asarray(index).tolist(), values)]
    return "".join([header + "\n"] + lines if header else lines)


def _write_files(files):
    """Write each (path, content) in turn: a SparseMatrix by write_matrix,
    text as it is. When a write raises, the files that the earlier ones
    wrote are removed, so a command that fails leaves none of its files."""
    written = []
    try:
        for path, content in files:
            if isinstance(content, str):
                Path(path).write_text(content, encoding="ascii")
            else:
                mio.write_matrix(content, path)
            written.append(path)
    except BaseException:
        for path in written:
            Path(path).unlink(missing_ok=True)
        raise


def _require_finite(outputs):
    """Refuse to write any of (path, values) when one holds nan or inf."""
    for path, values in outputs:
        if not np.all(np.isfinite(values)):
            raise ValueError(f"non-finite values in the result for {path}; nothing written")


def cmd_generate(args):
    params = GeneratorParams(args.m, args.n, args.delta, args.seed)
    M = generate_random(params)
    mio.write_matrix(M, args.out)
    print(f"wrote {args.out}: {M.rows}x{M.cols} nnz={M.nnz}")
    return 0


def cmd_multiply(args):
    A = mio.read_matrix(args.a)
    B = mio.read_matrix(args.b)
    if A.cols != B.rows:
        raise ValueError(f"cannot multiply {args.a} ({A.rows}x{A.cols}) by "
                         f"{args.b} ({B.rows}x{B.cols}): inner dimensions differ")
    C, metrics = partition_multiply(A, B, args.schema, args.shard, args.workers)
    _require_finite([(args.out, C.values)])
    files = [(args.out, C)]
    if args.metrics:
        run = [str(args.workers), str(args.schema), args.shard]
        lines = [[*JOB_COLUMNS, "workers", "schema", "shard"]]
        lines += [job_fields(m) + run for m in metrics]
        files.append((args.metrics, "".join(",".join(line) + "\n" for line in lines)))
    _write_files(files)
    print(f"wrote {args.out}: nnz={C.nnz}")
    return 0


def cmd_nmf(args):
    A = mio.read_matrix(args.input)
    timings = []
    state = run_nmf(A, args.k, args.iters, args.workers, args.seed, timing_sink=timings)
    prefix, history = args.out_prefix, state.divergence_history
    _require_finite([(f"{prefix}W.txt", state.W.values), (f"{prefix}H.txt", state.H.values),
                     (f"{prefix}divergence.csv", history)])
    per_iter = 3
    timing_lines = [f"{j // per_iter},{component},{ms:.3f}\n"
                    for j, (component, ms) in enumerate(timings)]
    _write_files([(f"{prefix}W.txt", SparseMatrix.from_dense(state.W.values)),
                  (f"{prefix}H.txt", SparseMatrix.from_dense(state.H.values)),
                  (f"{prefix}divergence.csv", _column(history, range(len(history)), "iter,value")),
                  (f"{prefix}timings.csv", "".join(["iter,component,ms\n"] + timing_lines))])
    print(f"final divergence {float(history[-1])!r} after {args.iters} iterations")
    return 0


def cmd_svm_train(args):
    T, y = read_svm_file(args.data)
    prob = SvmProblem(T, y, C=args.c, eta=args.eta)
    state = svm_train(prob, args.iters, args.workers)
    prefix, history = args.out_prefix, state.objective_history
    _require_finite([(f"{prefix}alpha.txt", state.alpha.values),
                     (f"{prefix}objective.csv", history)])
    scores = svm_predict(state, prob, T, args.workers)
    _write_files([(f"{prefix}alpha.txt", _column(state.alpha.values)),
                  (f"{prefix}objective.csv", _column(history, range(len(history)), "iter,value"))])
    acc = accuracy(scores, y)
    print(f"training accuracy {acc:.4f} over {T.rows} examples")
    # projected ascent with a small enough step never lowers the dual objective
    fell = np.flatnonzero(np.diff(history) < 0)
    if fell.size:
        i = int(fell[0]) + 1
        print(f"warning: the dual objective fell at iteration {i} "
              f"({history[i - 1]!r} -> {history[i]!r}); "
              f"the ascent diverges, try a --eta smaller than {args.eta!r}", file=sys.stderr)
    return 0


def cmd_svm_predict(args):
    T, y = read_svm_file(args.data)
    alphas = []
    for lineno, line in mio.data_lines(args.alpha):
        try:
            alpha = float(line)
        except ValueError:
            raise mio.ParseError(args.alpha, lineno, f"bad alpha {line.strip()!r}") from None
        if not (np.isfinite(alpha) and alpha >= 0):
            raise mio.ParseError(args.alpha, lineno,
                                 f"alpha must be finite and >= 0, got {line.strip()}")
        alphas.append(alpha)
    if len(alphas) != T.rows:
        raise ValueError(f"{args.alpha} has {len(alphas)} values for {T.rows} "
                         f"examples in {args.data}")
    # prediction reads only the alphas, the labels and the examples
    state = SvmState(DenseVector(np.array(alphas)), None)
    prob = SvmProblem(T, y)
    Q, _ = read_svm_file(args.query, cols=T.cols)
    scores = svm_predict(state, prob, Q, args.workers)
    _require_finite([(args.out, scores.values)])
    _write_files([(args.out, _column(scores.values))])
    print(f"wrote {args.out}: {len(scores)} scores")
    return 0


def cmd_pagerank(args):
    edges = mio.read_edges(args.edges)
    n = args.nodes
    if n is None:
        n = int(np.max(edges, initial=-1)) + 1
        if n < 1:
            raise ValueError("empty graph and no --nodes given")
    prob = pagerank_build(edges, args.damping, n)
    residuals = []
    pi, iters = pagerank(prob, args.tol, args.max_iters, args.workers, residual_sink=residuals)
    prefix = args.out_prefix
    pi_csv = _column(pi.values, range(n))
    lines = pi_csv.splitlines(keepends=True)  # ranks.csv reorders them, formatting none
    order = np.lexsort((np.arange(n), -pi.values)).tolist()
    _write_files([(f"{prefix}pi.csv", pi_csv),
                  (f"{prefix}ranks.csv", "".join([lines[i] for i in order])),
                  (f"{prefix}residuals.csv",
                   _column(residuals, range(len(residuals)), "iter,value"))])
    print(f"converged={residuals[-1] < args.tol if residuals else False} "
          f"iterations={iters} sum={float(pi.values.sum())!r}")
    return 0


def cmd_bench_scaling(args):
    cfg = BenchConfig(sizes=args.sizes, deltas=args.deltas, schemas=args.schemas,
                      shards=args.shards, workers=args.workers_list, seed=args.seed,
                      out_dir=Path(args.out_dir))
    rows, fits, failures = run_scaling(cfg)
    for line in fits:
        print(line)
    print(f"wrote {args.out_dir}/runs.csv ({len(rows)} rows) and fits.csv")
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _add_common(p, workers=True, seed=False):
    """Add --workers and --seed to the subcommands that read them."""
    if workers:
        p.add_argument("--workers", type=int, default=1,
                       help=f"worker count, 1 to {MAX_WORKERS} (default 1)")
    if seed:
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")


def _config_parser():
    """The parser of --config alone: main reads it off the whole line first,
    and every subcommand lists it as a parent so that --help shows it."""
    p = argparse.ArgumentParser(prog="mrmul", add_help=False, allow_abbrev=False)
    p.add_argument("--config", default=None,
                   help="key=value file supplying defaults for these flags")
    return p


def _generate_args(p):
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=parse_sparsity, required=True,
                   help="nonzero fraction; accepts 2^-7 notation")
    p.add_argument("--out", required=True)
    _add_common(p, workers=False, seed=True)
    p.set_defaults(fn=cmd_generate)


def _multiply_args(p):
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--schema", type=parse_schema, default=PartitionSchema(1, 1, 1),
                   help="partition schema MxNxK (default 1x1x1)")
    p.add_argument("--shard", choices=SHARD_KINDS, default="naive")
    p.add_argument("--out", required=True)
    p.add_argument("--metrics", default=None, help="also write a metrics CSV here")
    _add_common(p)
    p.set_defaults(fn=cmd_multiply)


def _nmf_args(p):
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--out-prefix", required=True)
    _add_common(p, seed=True)
    p.set_defaults(fn=cmd_nmf)


def _svm_train_args(p):
    p.add_argument("--data", required=True, help="label-prefixed sparse examples")
    p.add_argument("--c", type=float, default=1.0, help="box bound C (default 1)")
    p.add_argument("--eta", type=float, default=0.001, help="step size (default 0.001)")
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--out-prefix", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_svm_train)


def _svm_predict_args(p):
    p.add_argument("--data", required=True, help="training examples used to fit")
    p.add_argument("--alpha", required=True, help="alpha file from svm-train")
    p.add_argument("--query", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_svm_predict)


def _pagerank_args(p):
    p.add_argument("--edges", required=True)
    p.add_argument("--nodes", type=int, default=None, help="node count (default max id + 1)")
    p.add_argument("--damping", type=float, default=0.85)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--out-prefix", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_pagerank)


def _bench_scaling_args(p):
    p.add_argument("--sizes", type=_list_of(int), default=(256, 512, 1024))
    p.add_argument("--deltas", type=_list_of(parse_sparsity), default=(2.0 ** -7,))
    p.add_argument("--schemas", type=_list_of(parse_schema), default=(PartitionSchema(20, 6, 20),))
    p.add_argument("--shards", type=_list_of(_shard_kind), default=("naive",))
    p.add_argument("--workers-list", type=_list_of(int), default=(1,))
    p.add_argument("--out-dir", required=True)
    _add_common(p, workers=False, seed=True)
    p.set_defaults(fn=cmd_bench_scaling)


# Each subcommand's summary and the function that adds its arguments.
_SUBCOMMANDS = {
    "generate": ("generate a random sparse matrix", _generate_args),
    "multiply": ("block matrix multiply two row-format files", _multiply_args),
    "nmf": ("factorize a matrix with multiplicative updates", _nmf_args),
    "svm-train": ("train the fixed-bias dual SVM", _svm_train_args),
    "svm-predict": ("score query examples with trained alphas", _svm_predict_args),
    "pagerank": ("rank an edge-list graph", _pagerank_args),
    "bench-scaling": ("run the scaling experiment grid", _bench_scaling_args),
}


def build_parser(command=None):
    """The parser of the whole command line. Every subcommand is listed, so
    help and usage read the same whichever is built; when command names a
    subcommand, only its subparser gets its arguments, as only it will parse
    any."""
    top = argparse.ArgumentParser(
        prog="mrmul", allow_abbrev=False,
        description="Multi-worker multiplicative models: block matrix multiplication, "
                    "NMF, SVM, and PageRank with a scaling benchmark harness.")
    sub = top.add_subparsers(dest="command", required=True)
    config = _config_parser()
    for name, (summary, add_arguments) in _SUBCOMMANDS.items():
        # a flag or a config key matches only when spelled in full
        p = sub.add_parser(name, help=summary, parents=[config], allow_abbrev=False)
        if command not in _SUBCOMMANDS or command == name:
            add_arguments(p)
    return top


def _config_args(path):
    """The config file's key=value lines, read by text_lines as a data file's
    are, as flags; a malformed line, a config= line or a byte that is not
    UTF-8 is a ParseError naming path:line."""
    extra = []
    for lineno, line in mio.text_lines(path, "utf-8"):
        line = line.strip()
        if line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise mio.ParseError(path, lineno, f"expected key=value, got {line!r}")
        flag = key.strip().replace('_', '-')
        if flag == "config":
            raise mio.ParseError(path, lineno, "a config file cannot name another config file")
        extra.append(f"--{flag}={value.strip()}")
    return extra


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    known, rest = _config_parser().parse_known_args(argv)
    if known.config:
        try:
            extra = _config_args(known.config)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        # config defaults go right after the subcommand so explicit flags win
        if rest and not rest[0].startswith("-"):
            rest = [rest[0]] + extra + rest[1:]
        else:
            rest = extra + rest
    args = build_parser(rest[0] if rest else None).parse_args(rest)
    try:
        workers = getattr(args, "workers_list", ()) + (getattr(args, "workers", 1),)
        if max(workers) > MAX_WORKERS:
            raise ValueError(f"workers must be <= {MAX_WORKERS}")
        # an overflow or a nan shows up in the result, which the commands
        # check (_require_finite) before they write it; numpy's own warning
        # would only repeat that, with a source line
        with np.errstate(all="ignore"):
            return args.fn(args)
    # MemoryError: a size no host can allocate, like pagerank --nodes 10^12
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
