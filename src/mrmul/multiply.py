"""The two multiplicative models.

partition_multiply: block matrix multiplication as two cascaded jobs. Stage
one splits both operands into block groups keyed by (alpha, beta, gamma) and
ships each group to the worker chosen by the shard function; stage two
multiplies the paired sub-blocks where they landed and sums partial rows per
output row, ascending gamma, so results are bit-identical for any worker
count and shard choice.

broadcast_multiply: row-wise product c_i = r_i * B with the small right-hand
operand replicated to every worker through the broadcast store. The large
operand is cut into one contiguous row block per worker; each block's product
is one segmented sum over its rows, shipped as one record to the worker that
computed it. Each row is still formed from that row's products alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .engine import Accumulator, BroadcastStore, JobSpec, broadcast, run_job
from .sparse import DenseMatrix, SparseMatrix

__all__ = [
    "BlockKey",
    "PartitionSchema",
    "ShardFunction",
    "shard_naive",
    "shard_rand",
    "splitmix64",
    "partition_multiply",
    "broadcast_multiply",
    "suggest_schema",
]

_U64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """SplitMix64 finalizer: a fixed published 64-bit mixing function."""
    x = (x + 0x9E3779B97F4A7C15) & _U64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64
    return x ^ (x >> 31)


def _mix(*parts) -> int:
    h = 0
    for p in parts:
        h = splitmix64(h ^ splitmix64(int(p)))
    return h


class BlockKey(NamedTuple):
    """Identifies one block-multiplication task of the partition stage."""

    alpha: int  # block-row of the output, in [0, m)
    beta: int   # block-col of the output, in [0, k)
    gamma: int  # inner summation index, in [0, n)


@dataclass(frozen=True)
class PartitionSchema:
    """Block split counts: m over A's rows, n over the inner dimension,
    k over B's columns."""

    m: int
    n: int
    k: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1 or self.k < 1:
            raise ValueError(f"schema counts must be >= 1, got {self}")

    def validate_for(self, A: SparseMatrix, B: SparseMatrix):
        if self.m > A.rows or self.n > A.cols or self.k > B.cols:
            raise ValueError(
                f"schema {self.m}x{self.n}x{self.k} out of bounds for "
                f"{A.rows}x{A.cols} times {B.rows}x{B.cols}")

    def __str__(self):
        return f"{self.m}x{self.n}x{self.k}"


def shard_naive(key, p: int) -> int:
    """Locality-preserving shard: alpha mod p."""
    if p < 1:
        raise ValueError("worker count must be >= 1")
    return key[0] % p


def shard_rand(key, p: int) -> int:
    """Load-uniform shard: deterministic hash of (alpha, beta, gamma) mod p."""
    if p < 1:
        raise ValueError("worker count must be >= 1")
    return _mix(key[0], key[1], key[2]) % p


# Salt separating row-level placement from block-level placement so the two
# hash streams are uncorrelated.
_ROW_SALT = 0x5AB1E5


@dataclass(frozen=True)
class ShardFunction:
    """A shard policy bound to a worker count: 'naive' (alpha mod p) or
    'rand' (hash of the whole identifier mod p)."""

    kind: str
    p: int

    def __post_init__(self):
        if self.kind not in ("naive", "rand"):
            raise ValueError(f"unknown shard kind {self.kind!r}")
        if self.p < 1:
            raise ValueError("worker count must be >= 1")

    def block(self, key) -> int:
        if self.kind == "naive":
            return shard_naive(key, self.p)
        return shard_rand(key, self.p)

    def row(self, key) -> int:
        """Placement of the summation group for output row key=(alpha, i)."""
        if self.kind == "naive":
            return key[0] % self.p
        return _mix(_ROW_SALT, key[0], key[1]) % self.p

    def __call__(self, key):
        return self.block(key)


class _Splitter:
    """Balanced contiguous split of a length into `parts` blocks."""

    __slots__ = ("total", "parts", "starts")

    def __init__(self, total, parts):
        self.total = total
        self.parts = parts
        # start of block b is ceil(b * total / parts); block_of below is its inverse
        self.starts = np.array(
            [(b * total + parts - 1) // parts for b in range(parts + 1)], dtype=np.int64)

    def block_of(self, i):
        return i * self.parts // self.total

    def range(self, b):
        return int(self.starts[b]), int(self.starts[b + 1])


class _Block(NamedTuple):
    """A paired sub-block group ready for multiplication (CSR triplets with
    block-local column indices)."""

    alpha: int
    beta: int
    gamma: int
    row_ids: np.ndarray     # global A-row index per local row
    a_indptr: np.ndarray
    a_cols: np.ndarray
    a_vals: np.ndarray
    b_indptr: np.ndarray    # over the gamma-chunk width
    b_cols: np.ndarray
    b_vals: np.ndarray
    gamma_width: int
    beta_width: int
    col_off: int            # global column of the beta chunk start


_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)

# Switch to a dense BLAS product when the multiply work is close to the dense
# output size; keeps huge sparse expansions off the argsort path.
_DENSE_WORK_FACTOR = 20
_DENSE_BYTES_CAP = 48 << 20
# Bound on the product-expansion scratch of the sparse path and of the
# broadcast kernel; bigger blocks are processed in row batches (rows are
# independent, so results are unchanged).
_SPARSE_BATCH_PRODUCTS = 2 << 20
# A summation task must be at least this chunky (products per block) before
# real thread parallelism pays for the GIL handoffs it causes.
_PARALLEL_MIN_BLOCK_WORK = 16384


def _row_batches(row_end):
    """Cut rows into consecutive [lo, hi) batches whose scratch stays within
    _SPARSE_BATCH_PRODUCTS; row_end[r] is the scratch through the end of row
    r. A row larger than the bound is a batch of its own."""
    lo, n = 0, row_end.size
    while lo < n:
        base = row_end[lo - 1] if lo else 0
        hi = int(np.searchsorted(row_end, base + _SPARSE_BATCH_PRODUCTS, side="right"))
        hi = min(max(hi, lo + 1), n)
        yield lo, hi
        lo = hi


def _expand_rows(blk, b_row_nnz, lo_row, hi_row, bw):
    """Sparse-path product of local rows [lo_row, hi_row): expand every
    a[i,k]*b[k,j] product, then segment-sum by (row, col)."""
    p_lo, p_hi = blk.a_indptr[lo_row], blk.a_indptr[hi_row]
    a_cols = blk.a_cols[p_lo:p_hi]
    a_vals = blk.a_vals[p_lo:p_hi]
    ra = np.repeat(np.arange(lo_row, hi_row, dtype=np.int64),
                   np.diff(blk.a_indptr[lo_row:hi_row + 1]))
    len_k = b_row_nnz[a_cols]
    tot = int(len_k.sum())
    if tot == 0:
        return _EMPTY_I64, _EMPTY_F64
    cs = np.cumsum(len_k)
    base = np.arange(tot, dtype=np.int64) - np.repeat(cs - len_k, len_k)
    src = np.repeat(blk.b_indptr[a_cols], len_k) + base
    prod_cols = blk.b_cols[src]
    prod_vals = np.repeat(a_vals, len_k) * blk.b_vals[src]
    prod_rows = np.repeat(ra, len_k)

    key = prod_rows * bw + prod_cols
    order = np.argsort(key, kind="stable")
    key_s = key[order]
    seg = np.concatenate(([0], np.flatnonzero(np.diff(key_s)) + 1))
    return key_s[seg], np.add.reduceat(prod_vals[order], seg)


def _block_matmul(blk: _Block):
    """Multiply one sub-block pair, skipping structural zeros.

    Returns (indptr, local cols, values, product count). Sparse blocks go
    through a vectorized row-expansion and segmented sum; dense-ish blocks are
    multiplied as dense arrays. Both paths are deterministic functions of the
    block content alone.
    """
    nr = blk.row_ids.size
    gw, bw = blk.gamma_width, blk.beta_width
    b_row_nnz = np.diff(blk.b_indptr)
    len_k = b_row_nnz[blk.a_cols]
    tot = int(len_k.sum())
    if tot == 0:
        return np.zeros(nr + 1, dtype=np.int64), _EMPTY_I64, _EMPTY_F64, 0

    dense_bytes = 8 * (nr * gw + gw * bw + nr * bw)
    if tot * _DENSE_WORK_FACTOR >= nr * gw * bw and dense_bytes <= _DENSE_BYTES_CAP:
        ra = np.repeat(np.arange(nr, dtype=np.int64), np.diff(blk.a_indptr))
        Ad = np.zeros((nr, gw))
        Ad[ra, blk.a_cols] = blk.a_vals
        Bd = np.zeros((gw, bw))
        rb = np.repeat(np.arange(gw, dtype=np.int64), b_row_nnz)
        Bd[rb, blk.b_cols] = blk.b_vals
        Cd = Ad @ Bd
        rr, cc = np.nonzero(Cd)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rr, minlength=nr)))).astype(np.int64)
        return indptr, cc.astype(np.int64), Cd[rr, cc], tot

    if tot <= _SPARSE_BATCH_PRODUCTS:
        uniq, sums = _expand_rows(blk, b_row_nnz, 0, nr, bw)
    else:
        cum = np.concatenate(([0], np.cumsum(len_k)))
        row_end = cum[blk.a_indptr[1:]]  # products through the end of each local row
        parts = [_expand_rows(blk, b_row_nnz, lo, hi, bw) for lo, hi in _row_batches(row_end)]
        uniq = np.concatenate([u for u, _ in parts])
        sums = np.concatenate([s for _, s in parts])
    out_rows = uniq // bw
    indptr = np.concatenate(([0], np.cumsum(np.bincount(out_rows, minlength=nr)))).astype(np.int64)
    return indptr, uniq % bw, sums, tot


def _row_block(M: SparseMatrix, lo, hi):
    """CSR of rows [lo, hi) of M with indptr rebased to 0, plus lo."""
    p_lo, p_hi = M.indptr[lo], M.indptr[hi]
    return M.indptr[lo:hi + 1] - p_lo, M.indices[p_lo:p_hi], M.values[p_lo:p_hi], lo


def _cut_columns(indptr, cols, vals, split: _Splitter):
    """Cut a CSR row block at the column bounds of `split`. Yields
    (column block, local row per entry, block-local cols, vals) for each
    column block holding an entry, entries in row-major order."""
    if cols.size == 0:
        return
    rows = np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))
    part = split.block_of(cols)
    order = np.argsort(part, kind="stable")
    for sel in np.split(order, np.flatnonzero(np.diff(part[order])) + 1):
        b = int(part[sel[0]])
        yield b, rows[sel], cols[sel] - split.starts[b], vals[sel]


def _indptr(counts):
    return np.concatenate(([0], np.cumsum(counts))).astype(np.int64)


def _unpack(blobs):
    """Arrays of a shipped sub-block: int64 index arrays, then float64 values."""
    *index_blobs, val_blob = blobs
    return ([np.frombuffer(b, dtype=np.int64) for b in index_blobs]
            + [np.frombuffer(val_blob, dtype=np.float64)])


def _assemble(rows, cols, row_payloads):
    """Build a SparseMatrix from (row index, col bytes, value bytes) triples
    arriving in ascending row order."""
    indptr = np.zeros(rows + 1, dtype=np.int64)
    col_blobs, val_blobs = [], []
    for i, cb, vb in row_payloads:
        indptr[i + 1] = len(cb) >> 3
        col_blobs.append(cb)
        val_blobs.append(vb)
    np.cumsum(indptr, out=indptr)
    indices = np.frombuffer(b"".join(col_blobs), dtype=np.int64)
    values = np.frombuffer(b"".join(val_blobs), dtype=np.float64)
    return SparseMatrix(rows, cols, indptr, indices, values)


def partition_multiply(A: SparseMatrix, B: SparseMatrix, schema: PartitionSchema,
                       shard="naive", workers: int = 1):
    """Block matrix product A x B over the two-stage partition/summation
    pipeline. Returns (C, [partition metrics, summation metrics])."""
    if A.cols != B.rows:
        raise ValueError(f"shape mismatch: {A.rows}x{A.cols} times {B.rows}x{B.cols}")
    if isinstance(shard, str):
        shard = ShardFunction(shard, workers)
    elif shard.p != workers:
        raise ValueError(f"shard bound to p={shard.p} but job has {workers} workers")
    schema.validate_for(A, B)

    m, n, k = schema.m, schema.n, schema.k
    asplit = _Splitter(A.rows, m)
    isplit = _Splitter(A.cols, n)
    csplit = _Splitter(B.cols, k)
    ops = Accumulator()

    # Input records are row blocks: A cut by alpha, B by gamma. Each emits one
    # CSR sub-block per non-empty column block, duplicated once per block it
    # pairs with. Keys are plain (alpha, beta, gamma) tuples: equal and
    # hash-compatible with BlockKey, but cheaper to serialize.
    def partition_mapper(rec):
        tag, blk, indptr, cols, vals, first_row = rec
        out = []
        if tag == "A":
            for gamma, rows, lcols, lvals in _cut_columns(indptr, cols, vals, isplit):
                row_ids, counts = np.unique(rows, return_counts=True)
                payload = ("A", (row_ids + first_row).tobytes(), _indptr(counts).tobytes(),
                           lcols.tobytes(), lvals.tobytes())
                out += [((blk, beta, gamma), payload) for beta in range(k)]
            ops.add(cols.size * k)
        else:
            gw = indptr.size - 1
            for beta, rows, lcols, lvals in _cut_columns(indptr, cols, vals, csplit):
                b_indptr = _indptr(np.bincount(rows, minlength=gw))
                payload = ("B", b_indptr.tobytes(), lcols.tobytes(), lvals.tobytes())
                out += [((alpha, beta, blk), payload) for alpha in range(m)]
            ops.add(cols.size * m)
        return out

    # A key receives at most one A and one B sub-block; both arrive with
    # block-local column indices.
    def partition_reducer(key, pieces):
        ops.add(sum(len(p[-2]) for p in pieces) >> 3)  # column entries received
        by_tag = {p[0]: p[1:] for p in pieces}
        if len(by_tag) < 2:
            return []
        alpha, beta, gamma = key
        glo, ghi = isplit.range(gamma)
        blo, bhi = csplit.range(beta)
        return [(key, _Block(alpha, beta, gamma, *_unpack(by_tag["A"]), *_unpack(by_tag["B"]),
                             ghi - glo, bhi - blo, blo))]

    def summation_mapper(rec):
        key, blk = rec
        indptr, loc_cols, vals, tot = _block_matmul(blk)
        ops.add(tot)
        out = []
        alpha, beta, gamma = blk.alpha, blk.beta, blk.gamma
        gcols = loc_cols + blk.col_off
        bounds = indptr.tolist()
        ids = blk.row_ids.tolist()
        for r, gi in enumerate(ids):
            lo, hi = bounds[r], bounds[r + 1]
            if lo == hi:
                continue
            out.append(((alpha, gi),
                        (beta, gamma, gcols[lo:hi].tobytes(), vals[lo:hi].tobytes())))
        return out

    def summation_reducer(key, partials):
        if len(partials) == 1:
            _, _, cb, vb = partials[0]
            ops.add(len(vb) // 8)
            return [(key, (cb, vb))]
        partials = sorted(partials, key=lambda p: (p[1], p[0]))  # ascending gamma
        cat_cols = np.frombuffer(b"".join(cb for _, _, cb, _ in partials), dtype=np.int64)
        cat_vals = np.frombuffer(b"".join(vb for _, _, _, vb in partials), dtype=np.float64)
        ops.add(cat_vals.size)
        ucols, inv = np.unique(cat_cols, return_inverse=True)
        sums = np.zeros(ucols.size, dtype=np.float64)
        np.add.at(sums, inv, cat_vals)  # in-order accumulation per column
        return [(key, (ucols.tobytes(), sums.tobytes()))]

    records = [("A", alpha, *_row_block(A, *asplit.range(alpha))) for alpha in range(m)]
    records += [("B", gamma, *_row_block(B, *isplit.range(gamma))) for gamma in range(n)]

    # Partition tasks are a few row-block cuts plus record serialization,
    # mostly Python-level, so threads would only add GIL handoffs. Summation
    # tasks run in parallel when the per-block multiply work is chunky enough
    # to profit.
    total_products = int(np.diff(B.indptr)[A.indices].sum()) if A.nnz else 0
    blocks = m * n * k
    if total_products * _DENSE_WORK_FACTOR >= A.rows * A.cols * B.cols:
        per_block_work = A.rows * A.cols * B.cols // blocks
    else:
        per_block_work = total_products // blocks
    job1 = JobSpec(partition_mapper, partition_reducer, shard_fn=shard.block,
                   workers=workers, name="partition", ops=ops, parallel=False)
    grouped, m1 = run_job(job1, records)

    # block products are the chunky tasks; the per-row merges that follow are
    # fine-grained and thrash across threads
    job2 = JobSpec(summation_mapper, summation_reducer, shard_fn=shard.row,
                   workers=workers, name="summation", ops=ops,
                   map_affinity=lambda rec: shard.block(rec.key),
                   parallel=per_block_work >= _PARALLEL_MIN_BLOCK_WORK,
                   reduce_parallel=False)
    summed, m2 = run_job(job2, grouped)

    C = _assemble(A.rows, B.cols, ((i, cb, vb) for (alpha, i), (cb, vb) in summed))
    return C, [m1, m2]


def broadcast_multiply(A: SparseMatrix, B_small: DenseMatrix, workers: int = 1) -> SparseMatrix:
    """Row-wise product: row i of the result is row i of A times B_small.

    A is cut into one contiguous row block per worker, and each block is one
    input record; B_small is broadcast once per call and never shuffled. A
    block's map task ships one record, its dense product, to its own worker.
    """
    if A.cols != B_small.rows:
        raise ValueError(
            f"shape mismatch: {A.rows}x{A.cols} times {B_small.rows}x{B_small.cols}")
    store = BroadcastStore()
    broadcast(store, "rhs", B_small.values)
    split = _Splitter(A.rows, min(workers, A.rows))

    # One segmented sum per batch of non-empty rows. Each row's value is a sum
    # over that row's own products alone, taken in column order, so the bits
    # do not depend on how rows are blocked or batched, nor on the worker count.
    def mapper(rec):
        b, indptr, cols, vals, _ = rec
        rhs = store.get("rhs")
        out = np.zeros((indptr.size - 1, rhs.shape[1]))
        rows = np.flatnonzero(np.diff(indptr))
        starts = indptr[rows]
        for lo, hi in _row_batches(indptr[rows + 1] * rhs.shape[1]):
            p_lo, p_hi = starts[lo], indptr[rows[hi - 1] + 1]
            prod = vals[p_lo:p_hi, None] * rhs[cols[p_lo:p_hi]]
            out[rows[lo:hi]] = np.add.reduceat(prod, starts[lo:hi] - p_lo, axis=0)
        return [(b, out)]

    def reducer(key, values):
        return [(key, values[0])]

    per_row_work = (A.nnz // A.rows) * B_small.cols
    spec = JobSpec(mapper, reducer, shard_fn=lambda b: b,
                   workers=workers, name="broadcast-multiply", map_affinity=itemgetter(0),
                   parallel=per_row_work >= 4096, reduce_parallel=False)
    out, _ = run_job(spec, [(b, *_row_block(A, *split.range(b))) for b in range(split.parts)])
    return SparseMatrix.from_dense(np.vstack([block for _, block in out]))


def suggest_schema(rows_a, cols_a, cols_b, nnz_a, nnz_b, workers,
                   budget_bytes=16 << 20) -> PartitionSchema:
    """Pick a small schema: m*k covers the workers, n grows only as needed to
    keep the estimated per-block-pair footprint under the budget, and no
    dimension splits finer than its length."""
    if rows_a < 1 or cols_a < 1 or cols_b < 1:
        raise ValueError("shapes must be positive")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    side = int(np.ceil(np.sqrt(workers)))
    m = min(side, rows_a)
    k = min(side, cols_b)
    while m * k < workers and (m < rows_a or k < cols_b):
        if m <= k and m < rows_a:
            m += 1
        elif k < cols_b:
            k += 1
        else:
            m += 1

    def block_pair_bytes(n):
        return 16.0 * (nnz_a / (m * n) + nnz_b / (n * k))

    n = 1
    while n < cols_a and block_pair_bytes(n) > budget_bytes:
        n += 1
    return PartitionSchema(m, n, k)
