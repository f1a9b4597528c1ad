"""The two multiplicative models.

partition_multiply: block matrix multiplication as two cascaded jobs. Stage
one splits both operands into block groups keyed by (alpha, beta, gamma) and
ships each group to the worker chosen by the shard function; stage two
multiplies the paired sub-blocks where they landed and sums partial rows per
output row, ascending gamma, so results are bit-identical for any worker
count and shard choice. Stage one's reducer pairs each key's A and B
sub-blocks without decoding them, so stage two's input is one record per
worker holding the byte strings of all of its block pairs. Its mapper
decodes them a bounded batch at a time, with one join per array, straight
into one stacked CSR whose product is one vectorised pass; a dense-path
block is multiplied alone by BLAS. A sparse-path block sums its products in
a dense accumulator when it has few output cells per product, else by a
sort; the choice is the block's own, so no sum depends on the batching.
Every block still emits one record per non-empty output row.

broadcast_multiply: row-wise product c_i = r_i * B with the small right-hand
operand replicated to every worker through the broadcast store. The large
operand is cut into one contiguous row block per worker; each block's product
is one segmented sum over its rows (a DenseMatrix block is cut the same way
and multiplied by one row-independent einsum), shipped as one record, its
raw float64 bytes, to the worker that computed it; the result is the
blocks' bytes joined once. Each row is still formed from that row alone, and
the result is a DenseMatrix whatever the large operand's type.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .engine import Accumulator, BroadcastStore, JobSpec, run_job
from .sparse import DenseMatrix, SparseMatrix, csr_indptr, csr_rows

__all__ = [
    "PartitionSchema",
    "ShardFunction",
    "partition_multiply",
    "broadcast_multiply",
    "suggest_schema",
]


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer, a fixed published 64-bit mixing function, of
    every element of a uint64 array (arithmetic wraps mod 2**64)."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _mix_array(*parts) -> np.ndarray:
    """Hash of broadcast integer arrays, element-wise: h = 0, then
    h = splitmix64(h ^ splitmix64(part)) for each part in turn."""
    h = np.uint64(0)
    for p in parts:
        # ndmin=1: 0-d operands would make numpy scalars, which warn on wrapping
        h = _splitmix64_array(h ^ _splitmix64_array(np.array(p, dtype=np.uint64, ndmin=1)))
    return h


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

    def block_table(self, m, k, n) -> np.ndarray:
        """The worker of every block key (alpha, beta, gamma) of an m x n x k
        schema, as an int64 array indexed [alpha, beta, gamma]."""
        alpha = np.arange(m, dtype=np.uint64)[:, None, None]
        if self.kind == "naive":
            return np.broadcast_to(alpha % np.uint64(self.p), (m, k, n)).astype(np.int64)
        beta = np.arange(k, dtype=np.uint64)[None, :, None]
        gamma = np.arange(n, dtype=np.uint64)[None, None, :]
        return (_mix_array(alpha, beta, gamma) % np.uint64(self.p)).astype(np.int64)

    def row_table(self, alpha) -> np.ndarray:
        """The worker of the summation group of every output row i, keyed
        (alpha[i], i), as an int64 array; alpha is the block-row of each row."""
        alpha = np.asarray(alpha, dtype=np.uint64)
        if self.kind == "naive":
            return (alpha % np.uint64(self.p)).astype(np.int64)
        rows = np.arange(alpha.size, dtype=np.uint64)
        return (_mix_array(_ROW_SALT, alpha, rows) % np.uint64(self.p)).astype(np.int64)


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
    """CSR operands of one product, a sub-block pair or a stack of them: A's
    rows, whose column indices point at B's rows, against B's rows, whose
    block-local columns run over [0, beta_width). A stack's B rows hold an
    unused empty row between blocks (see _decode_stack)."""

    row_ids: np.ndarray     # output row of each of A's rows
    a_indptr: np.ndarray
    a_cols: np.ndarray
    a_vals: np.ndarray
    b_indptr: np.ndarray    # over the gamma_width rows of B
    b_cols: np.ndarray
    b_vals: np.ndarray
    gamma_width: int
    beta_width: int


# A paired sub-block travels from the partition job to the summation job as
# the byte strings of _Block's seven arrays, in field order, of these dtypes.
_PAYLOAD_DTYPES = (np.int64, np.int64, np.int64, np.float64, np.int64, np.int64, np.float64)

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
# Summation map tasks multiply their small blocks in batches of this summed
# size (A entries + B entries + gamma width), which bounds a batch's scratch;
# a block this large is multiplied alone.
_SUMMATION_BATCH = 1 << 13
# A summation task must be at least this chunky (products per block) before
# real thread parallelism pays for the GIL handoffs it causes.
_PARALLEL_MIN_BLOCK_WORK = 16384

# The paths of a block's product: BLAS on dense arrays, or the sparse path,
# summing into a dense accumulator or sorting.
_DENSE, _ACCUMULATE, _SORT = "dense", "accumulate", "sort"


def _bounded_batches(end, bound):
    """Cut items (rows, or blocks) into consecutive [lo, hi) batches whose
    scratch stays within bound; end[r] is the scratch through the end of item
    r. An item larger than the bound is a batch of its own."""
    lo, n = 0, end.size
    while lo < n:
        base = end[lo - 1] if lo else 0
        hi = int(np.searchsorted(end, base + bound, side="right"))
        hi = min(max(hi, lo + 1), n)
        yield lo, hi
        lo = hi


def _expand_rows(blk, len_k, cum, lo_row, hi_row, accumulate):
    """Sparse-path product of local rows [lo_row, hi_row): expand every
    a[i,k]*b[k,j] product, then sum them by cell, key row*width + col.
    Returns the keys of the cells holding a product, ascending, and their
    sums. len_k[e] is the product count of A entry e, the length of the B
    row it meets, and cum[e] the products of the A entries before e.

    The dense accumulator adds each cell's products into 0.0 left to right,
    in A-entry order. The sort (stable, so that order holds) leaves them to
    np.add.reduceat, which adds the first product to the sum of the others.
    The two differ in the last bits of a cell with three or more products,
    so a block takes one path whatever it is batched with."""
    width = blk.beta_width
    p_lo, p_hi = blk.a_indptr[lo_row], blk.a_indptr[hi_row]
    tot = int(cum[p_hi] - cum[p_lo])
    if tot == 0:
        return _EMPTY_I64, _EMPTY_F64
    len_k = len_k[p_lo:p_hi]
    # product t of A entry e reads B entry b_indptr[a_cols[e]] + t - (cum[e] - cum[p_lo])
    src = np.repeat(blk.b_indptr[blk.a_cols[p_lo:p_hi]] - (cum[p_lo:p_hi] - cum[p_lo]), len_k)
    src += np.arange(tot, dtype=np.int64)
    prod_vals = np.repeat(blk.a_vals[p_lo:p_hi], len_k) * blk.b_vals[src]
    key = csr_rows(cum[blk.a_indptr[lo_row:hi_row + 1]])
    key *= width
    key += blk.b_cols[src]  # from row lo_row on

    if accumulate:
        cells = (hi_row - lo_row) * width
        hit = np.zeros(cells, dtype=bool)
        hit[key] = True
        cell = np.flatnonzero(hit)
        sums = np.bincount(key, weights=prod_vals, minlength=cells)[cell]
    else:
        order = np.argsort(key, kind="stable")
        key = key[order]
        seg = np.concatenate(([0], np.flatnonzero(np.diff(key)) + 1))
        cell, sums = key[seg], np.add.reduceat(prod_vals[order], seg)
    cell += lo_row * width
    return cell, sums


def _sparse_product(blk, accumulate):
    """The sparse path: (indptr, cols, sums) of blk's product, each (row,
    col) sum formed from its products in A-entry order. Its scratch, the
    products and, for the accumulator, the output cells, is cut into row
    batches within _SPARSE_BATCH_PRODUCTS."""
    width = blk.beta_width
    len_k = np.diff(blk.b_indptr)[blk.a_cols]
    cum = csr_indptr(len_k)
    row_end = cum[blk.a_indptr[1:]]  # products through the end of each local row
    if accumulate:
        row_end += width * np.arange(1, row_end.size + 1)
    parts = [_expand_rows(blk, len_k, cum, lo, hi, accumulate)
             for lo, hi in _bounded_batches(row_end, _SPARSE_BATCH_PRODUCTS)]
    if len(parts) == 1:
        (uniq, sums), = parts
    else:
        uniq = np.concatenate([u for u, _ in parts])
        sums = np.concatenate([s for _, s in parts])
    indptr = csr_indptr(np.bincount(uniq // width, minlength=blk.row_ids.size))
    return indptr, uniq % width, sums


def _takes_dense_path(tot, nr, gw, bw):
    """Whether blocks of tot products are multiplied as dense arrays, by
    _dense_product, rather than on the sparse path; elementwise over arrays."""
    dense_bytes = 8 * (nr * gw + gw * bw + nr * bw)
    return (tot * _DENSE_WORK_FACTOR >= nr * gw * bw) & (dense_bytes <= _DENSE_BYTES_CAP)


def _dense_product(blk: _Block):
    """BLAS product of one dense-path block as (indptr, local cols, values),
    skipping zeros of the result; its bits depend on the block alone."""
    nr, gw = blk.row_ids.size, blk.gamma_width
    Ad = np.zeros((nr, gw))
    Ad[csr_rows(blk.a_indptr), blk.a_cols] = blk.a_vals
    Bd = np.zeros((gw, blk.beta_width))
    Bd[csr_rows(blk.b_indptr), blk.b_cols] = blk.b_vals
    Cd = Ad @ Bd
    rr, cc = np.nonzero(Cd)
    return csr_indptr(np.bincount(rr, minlength=nr)), cc.astype(np.int64), Cd[rr, cc]


def _product_counts(a_cols, b_indptr, na, gw):
    """The product count (a[i,k]*b[k,j] terms) of every block of a worker, in
    one pass over the A columns and the B indptrs of all of its blocks, each
    joined end to end; na and gw are the blocks' A entries and gamma widths."""
    # block i's B rows start at b_row[i] of the joined indptrs; the differences
    # across block boundaries are never read, as A's columns stay in their block
    b_row = csr_indptr(gw + 1)[:-1]
    len_k = np.diff(b_indptr)[a_cols + np.repeat(b_row, na)]
    return np.add.reduceat(len_k, csr_indptr(na)[:-1])  # every block has A entries


def _summation_batches(tot, nr, gw, bw, size):
    """Cut a worker's blocks into (block indices, path) batches, from the
    arrays of each block's product count, rows, gamma and beta widths and
    summed size (A entries + B entries + gamma width). A dense-path block is
    a batch of its own. A sparse-path block with at most two output cells
    (rows x beta width) per product sums into a dense accumulator, whose two
    cell-long arrays then stay within the sort's scratch; one with a wider
    output is sorted. Each sparse path gathers its blocks, in order, into
    batches whose summed size is at most _SUMMATION_BATCH, so a block of
    that size or more is alone. Blocks without products are left out."""
    sparse = tot > 0
    dense = sparse & _takes_dense_path(tot, nr, gw, bw)
    sparse &= ~dense
    for at in np.flatnonzero(dense)[:, None]:
        yield at, _DENSE
    accumulate = nr * bw <= 2 * tot
    for path, on in ((_ACCUMULATE, sparse & accumulate), (_SORT, sparse & ~accumulate)):
        at = np.flatnonzero(on)
        for lo, hi in _bounded_batches(np.cumsum(size[at]), _SUMMATION_BATCH):
            yield at[lo:hi], path


def _decode_stack(fields, at, nr, na, gw, nb, bw):
    """The _Block whose product is that of blocks `at` side by side, decoded
    from their payload fields with one join per field; nr, na, gw, nb and bw
    are the blocks' rows, A entries, gamma widths, B entries and beta widths.

    The blocks' A rows follow one another, and so do their B rows, with
    each block's B indptr kept whole: the last pointer of one block and the
    first of the next make an empty B row that no A entry points at. Each A
    entry points into its own block's B rows. B's columns stay block-local,
    so the stack is as wide as its widest block."""
    sel = at.tolist()
    row_ids, a_indptr, a_cols, a_vals, b_indptr, b_cols, b_vals = (
        np.frombuffer(b"".join([f[i] for i in sel]), dtype=t)
        for f, t in zip(fields, _PAYLOAD_DTYPES))
    a_ptrs, b_ptrs = nr + 1, gw + 1
    # the joined A indptrs, shifted past the entries of the blocks before;
    # all but the first block's leading 0 then repeat a pointer, and go
    keep = np.ones(a_indptr.size, dtype=bool)
    keep[csr_indptr(a_ptrs)[1:-1]] = False
    a_indptr = (a_indptr + np.repeat(csr_indptr(na)[:-1], a_ptrs))[keep]
    b_row = csr_indptr(b_ptrs)
    return _Block(row_ids, a_indptr, a_cols + np.repeat(b_row[:-1], na), a_vals,
                  b_indptr + np.repeat(csr_indptr(nb)[:-1], b_ptrs), b_cols, b_vals,
                  int(b_row[-1]) - 1, int(bw.max()))


def _row_block(M: SparseMatrix, lo, hi):
    """CSR of rows [lo, hi) of M with indptr rebased to 0, plus lo."""
    p_lo, p_hi = M.indptr[lo], M.indptr[hi]
    return M.indptr[lo:hi + 1] - p_lo, M.indices[p_lo:p_hi], M.values[p_lo:p_hi], lo


def _row_sums(vals, cols, starts, rhs):
    """Segmented sum of the products vals[e] * rhs[cols[e]]: one row of sums
    per entry of starts, the ascending first entries of non-empty rows, the
    first of them 0. Each row's products are added in column order."""
    return np.add.reduceat(vals[:, None] * rhs.take(cols, axis=0), starts, axis=0)


def _cut_columns(indptr, cols, vals, split: _Splitter):
    """Cut a CSR row block at the column bounds of `split`. Yields
    (column block, local row per entry, block-local cols, vals) for each
    column block holding an entry, entries in row-major order."""
    if cols.size == 0:
        return
    rows = csr_rows(indptr)
    part = split.block_of(cols)
    order = np.argsort(part, kind="stable")
    for sel in np.split(order, np.flatnonzero(np.diff(part[order])) + 1):
        b = int(part[sel[0]])
        yield b, rows[sel], cols[sel] - split.starts[b], vals[sel]


def _assemble(rows, cols, row_payloads):
    """Build a SparseMatrix from (row index, col bytes, value bytes) triples
    arriving in ascending row order."""
    counts = np.zeros(rows, dtype=np.int64)
    col_blobs, val_blobs = [], []
    for i, cb, vb in row_payloads:
        counts[i] = len(cb) >> 3
        col_blobs.append(cb)
        val_blobs.append(vb)
    indices = np.frombuffer(b"".join(col_blobs), dtype=np.int64)
    values = np.frombuffer(b"".join(val_blobs), dtype=np.float64)
    return SparseMatrix(rows, cols, csr_indptr(counts), indices, values)


def partition_multiply(A: SparseMatrix, B: SparseMatrix, schema: PartitionSchema,
                       shard: str = "naive", workers: int = 1):
    """Block matrix product A x B over the two-stage partition/summation
    pipeline, its keys placed by the shard kind ('naive' or 'rand') over
    `workers`. Returns (C, [partition metrics, summation metrics])."""
    if A.cols != B.rows:
        raise ValueError(f"shape mismatch: {A.rows}x{A.cols} times {B.rows}x{B.cols}")
    shard = ShardFunction(shard, workers)
    schema.validate_for(A, B)

    m, n, k = schema.m, schema.n, schema.k
    asplit = _Splitter(A.rows, m)
    isplit = _Splitter(A.cols, n)
    csplit = _Splitter(B.cols, k)
    ops = Accumulator()

    # Input records are row blocks: A cut by alpha, B by gamma. Each emits one
    # CSR sub-block per non-empty column block, duplicated once per block it
    # pairs with. Keys are plain (alpha, beta, gamma) tuples: alpha is the
    # output block-row, beta the output block-column, gamma the inner block.
    def partition_mapper(rec):
        tag, blk, indptr, cols, vals, first_row = rec
        out = []
        if tag == "A":
            for gamma, rows, lcols, lvals in _cut_columns(indptr, cols, vals, isplit):
                row_ids, counts = np.unique(rows, return_counts=True)
                payload = ("A", (row_ids + first_row).tobytes(), csr_indptr(counts).tobytes(),
                           lcols.tobytes(), lvals.tobytes())
                out += [((blk, beta, gamma), payload) for beta in range(k)]
            ops.add(cols.size * k)
        else:
            gw = indptr.size - 1
            for beta, rows, lcols, lvals in _cut_columns(indptr, cols, vals, csplit):
                b_indptr = csr_indptr(np.bincount(rows, minlength=gw))
                payload = ("B", b_indptr.tobytes(), lcols.tobytes(), lvals.tobytes())
                out += [((alpha, beta, blk), payload) for alpha in range(m)]
            ops.add(cols.size * m)
        return out

    # A key receives at most one A and one B sub-block; both arrive with
    # block-local column indices. A paired key ships their byte strings as
    # they came, as one payload in _Block's field order; the summation mapper
    # decodes them a batch at a time.
    def partition_reducer(key, pieces):
        ops.add(sum([len(p[-2]) for p in pieces]) >> 3)  # column entries received
        if len(pieces) < 2:
            return []
        a, b = pieces if pieces[0][0] == "A" else pieces[::-1]
        return [(key, a[1:] + b[1:])]

    col_start = csplit.starts
    col_width = np.diff(col_start)

    # The input is one record per worker: the (key, payload) pairs the
    # partition job placed there. Each batch's payloads are decoded straight
    # into one stack, and every non-empty output row of a block is one
    # record, its bytes cut from one buffer for the whole worker.
    def summation_mapper(rec):
        _, placed = rec
        keys, payloads = zip(*placed)
        fields = tuple(zip(*payloads))
        nr, na, gw, nb = (np.fromiter(map(len, fields[f]), np.int64, len(keys)) >> 3
                          for f in (0, 2, 4, 5))
        gw -= 1  # a B indptr is one longer than the gamma width
        tot = _product_counts(np.frombuffer(b"".join(fields[2]), dtype=np.int64),
                              np.frombuffer(b"".join(fields[4]), dtype=np.int64), na, gw)
        ops.add(int(tot.sum()))
        beta = np.array([key[1] for key in keys], dtype=np.int64)
        bw, col_off = col_width[beta], col_start[beta]
        sizes = np.stack([nr, na, gw, nb, bw])
        row_block, row_ids, starts, ends, cols, vals = [], [], [], [], [], []
        done = 0  # entries of the batches before this one
        for at, path in _summation_batches(tot, nr, gw, bw, na + nb + gw):
            at_sizes = sizes[:, at]
            blk = _decode_stack(fields, at, *at_sizes)
            if path == _DENSE:
                indptr, c, v = _dense_product(blk)
            else:
                indptr, c, v = _sparse_product(blk, path == _ACCUMULATE)
            on_row = np.repeat(at, at_sizes[0])  # block of each of the stack's rows
            counts = np.diff(indptr)
            rows = np.flatnonzero(counts)
            row_block.append(on_row[rows])
            row_ids.append(blk.row_ids[rows])
            starts.append(indptr[rows] + done)
            ends.append(indptr[rows + 1] + done)
            c += np.repeat(col_off[on_row], counts)
            cols.append(c)
            vals.append(v)
            done += c.size
        if not cols:
            return []
        cb = np.concatenate(cols).tobytes()
        vb = np.concatenate(vals).tobytes()
        return [((alpha, i), (beta, gamma, cb[lo:hi], vb[lo:hi]))
                for (alpha, beta, gamma), i, lo, hi in zip(
                    map(keys.__getitem__, np.concatenate(row_block).tolist()),
                    np.concatenate(row_ids).tolist(),
                    (np.concatenate(starts) << 3).tolist(), (np.concatenate(ends) << 3).tolist())]

    # A row's partials each hold distinct columns, and a column comes from one
    # beta, so its addends are one per gamma: with the partials in ascending
    # gamma, a stable sort of the columns lines each column's addends up in
    # that order, and bincount adds them in it.
    def summation_reducer(key, partials):
        if len(partials) == 1:
            _, _, cb, vb = partials[0]
            ops.add(len(vb) >> 3)
            return [(key, (cb, vb))]
        partials = sorted(partials, key=itemgetter(1))  # ascending gamma
        cols = np.frombuffer(b"".join([p[2] for p in partials]), dtype=np.int64)
        vals = np.frombuffer(b"".join([p[3] for p in partials]), dtype=np.float64)
        ops.add(vals.size)
        order = np.argsort(cols, kind="stable")
        cols = cols[order]
        first = np.empty(cols.size, dtype=bool)
        first[0] = True
        np.not_equal(cols[1:], cols[:-1], out=first[1:])
        # cumsum numbers the distinct columns from 1, so bin 0 stays empty
        sums = np.bincount(np.cumsum(first), weights=vals[order])[1:]
        return [(key, (cols[first].tobytes(), sums.tobytes()))]

    records = [("A", alpha, *_row_block(A, *asplit.range(alpha))) for alpha in range(m)]
    records += [("B", gamma, *_row_block(B, *isplit.range(gamma))) for gamma in range(n)]

    # Partition tasks are a few row-block cuts plus record serialization,
    # mostly Python-level, so threads would only add GIL handoffs. Summation
    # map tasks run in parallel when the per-block multiply work is chunky
    # enough to profit.
    total_products = int(np.diff(B.indptr)[A.indices].sum()) if A.nnz else 0
    blocks = m * n * k
    if total_products * _DENSE_WORK_FACTOR >= A.rows * A.cols * B.cols:
        per_block_work = A.rows * A.cols * B.cols // blocks
    else:
        per_block_work = total_products // blocks
    # Placements are tabled once per call: block_place[alpha][beta][gamma],
    # and row_place[i] for output row i of block-row alpha.
    block_place = shard.block_table(m, k, n).tolist()
    row_place = shard.row_table(asplit.block_of(np.arange(A.rows))).tolist()
    job1 = JobSpec(partition_mapper, partition_reducer,
                   shard_fn=lambda key: block_place[key[0]][key[1]][key[2]],
                   workers=workers, name="partition", ops=ops, parallel=False)
    grouped, m1 = run_job(job1, records)

    on_worker = {}
    for rec in grouped:
        alpha, beta, gamma = rec.key
        on_worker.setdefault(block_place[alpha][beta][gamma], []).append(rec)
    job2 = JobSpec(summation_mapper, summation_reducer,
                   shard_fn=lambda key: row_place[key[1]],
                   workers=workers, name="summation", ops=ops, map_affinity=itemgetter(0),
                   parallel=per_block_work >= _PARALLEL_MIN_BLOCK_WORK)
    summed, m2 = run_job(job2, sorted(on_worker.items()))

    C = _assemble(A.rows, B.cols, ((i, cb, vb) for (alpha, i), (cb, vb) in summed))
    return C, [m1, m2]


def broadcast_multiply(A: SparseMatrix | DenseMatrix, B_small: DenseMatrix,
                       workers: int = 1) -> DenseMatrix:
    """Row-wise product: row i of the result is row i of A times B_small.

    A is cut into one contiguous row block per worker, and each block is one
    input record; B_small is broadcast once per call and never shuffled. A
    block's map task ships one record, its dense product as raw float64
    bytes, to its own worker. The result is a DenseMatrix for either type
    of A.
    """
    if A.cols != B_small.rows:
        raise ValueError(
            f"shape mismatch: {A.rows}x{A.cols} times {B_small.rows}x{B_small.cols}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    store = BroadcastStore()
    store.put("rhs", B_small.values)
    split = _Splitter(A.rows, min(workers, A.rows))
    dense = isinstance(A, DenseMatrix)

    # Each row is formed from that row and rhs alone, so its bits depend on
    # neither the row blocking nor the worker count: a dense block is one
    # einsum (a BLAS matmul may regroup a row's sum by the block's shape), a
    # sparse one a segmented sum per batch of non-empty rows, in column order.
    def mapper(rec):
        b, *block = rec
        rhs = store.get("rhs")
        if dense:
            return [(b, np.einsum("ij,jk->ik", block[0], rhs).tobytes())]
        indptr, cols, vals, _ = block
        width = rhs.shape[1]
        out = np.zeros((indptr.size - 1, width))
        rows = np.flatnonzero(np.diff(indptr))
        starts = indptr[rows]  # starts[0] is 0, as the block's indptr is
        if cols.size * width <= _SPARSE_BATCH_PRODUCTS:  # one batch
            out[rows] = _row_sums(vals, cols, starts, rhs)
        else:
            for lo, hi in _bounded_batches(indptr[rows + 1] * width, _SPARSE_BATCH_PRODUCTS):
                p_lo, p_hi = starts[lo], indptr[rows[hi - 1] + 1]
                out[rows[lo:hi]] = _row_sums(vals[p_lo:p_hi], cols[p_lo:p_hi],
                                             starts[lo:hi] - p_lo, rhs)
        return [(b, out.tobytes())]

    def reducer(key, values):
        return [(key, values[0])]

    cut = (lambda M, lo, hi: (M.values[lo:hi],)) if dense else _row_block
    # A block's product is one numpy pass over a few rows, too short for
    # threads to repay their GIL handoffs, so map tasks run on this thread.
    spec = JobSpec(mapper, reducer, shard_fn=lambda b: b,
                   workers=workers, name="broadcast-multiply", map_affinity=itemgetter(0),
                   parallel=False)
    out, _ = run_job(spec, [(b, *cut(A, *split.range(b))) for b in range(split.parts)])
    product = np.frombuffer(b"".join([block for _, block in out]), dtype=np.float64)
    return DenseMatrix(product.reshape(A.rows, B_small.cols))


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
