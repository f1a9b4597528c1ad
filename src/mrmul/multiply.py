"""The two multiplicative models.

partition_multiply: block matrix multiplication as two cascaded jobs. Stage
one splits both operands into block groups keyed by (alpha, beta, gamma) and
ships each group to the worker chosen by the shard function; stage two
multiplies the paired sub-blocks where they landed and sums partial rows per
output row, ascending gamma, so results are bit-identical for any worker
count and shard choice. Both stages are batch jobs. Stage one's mappers cut
each row block into COO sub-blocks (rows, block-local columns, values), each
stored once and shipped as one record per block it pairs with, all sharing
its entries; its reducer keeps each key that holds both an A and a B
sub-block without moving an entry. Stage two's input is one record per
worker: stage one's output and the blocks placed there. Its mapper reads
each B sub-block where stage one left it, through row pointers formed once
per distinct sub-block, and takes its blocks a bounded chunk at a time,
counting each A entry's products once per block; an entry without a
product meets an empty B row and is dropped before any batch copies it.
The live entries are copied once in batch order, so that each batch of
blocks, bounded by its scratch (live A entries, products and rows), reads
its own as one slice, its product one vectorised pass; a dense-path block
is multiplied alone by BLAS, over all of its rows. A sparse-path block sums
its products in a dense accumulator when it has few output cells per
product, else by a sort; the choice is the block's own, so no sum depends
on the batching. Every block still emits one record per non-empty output
row: a worker emits them as one RecordBatch, keyed (alpha, i), ordered by
gamma * k + beta, its payload the rows' columns and values. The engine
sorts them by (key, order), and each worker's reducer sums all of its rows
in one segmented pass, a stable sort by cell and one bincount; C is built
straight from the output batch's row counts and its entries, gathered once.

broadcast_multiply: row-wise product c_i = r_i * B with the small right-hand
operand replicated to every worker through the broadcast store. The large
operand is cut into one contiguous row block per worker, once per matrix
and worker count: the blocks are kept on the matrix, so an iterative
solver's fixed operand stays cut across its steps with no solver code;
each block's product is one segmented sum over its rows (a DenseMatrix
block is cut the same way and multiplied by one row-independent einsum).
The job is map-only: each block's product stays as an array on the worker
that formed it, and the result is the blocks' products joined once. Each
row is still formed from that row alone, and the result is a DenseMatrix
whatever the large operand's type.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .engine import Accumulator, BroadcastStore, JobSpec, RecordBatch, run_job
from .sparse import DenseMatrix, SparseMatrix, csr_indptr, csr_rows, csr_spans

__all__ = [
    "SHARD_KINDS",
    "PartitionSchema",
    "ShardFunction",
    "partition_multiply",
    "broadcast_multiply",
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


# The shard policies, as ShardFunction.kind names them.
SHARD_KINDS = ("naive", "rand")


@dataclass(frozen=True)
class ShardFunction:
    """A shard policy bound to a worker count: 'naive' (alpha mod p) or
    'rand' (hash of the whole identifier mod p)."""

    kind: str
    p: int

    def __post_init__(self):
        if self.kind not in SHARD_KINDS:
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

    __slots__ = ("parts", "starts")

    def __init__(self, total, parts):
        self.parts = parts
        # start of block b is ceil(b * total / parts); block_of below is its inverse
        self.starts = np.array(
            [(b * total + parts - 1) // parts for b in range(parts + 1)], dtype=np.int64)

    def block_of(self, i):
        # the last block starting at or before i, which is i * parts // total
        # without forming i * parts, as that wraps int64 for a wide matrix
        return np.searchsorted(self.starts, i, side="right") - 1

    def range(self, b):
        return int(self.starts[b]), int(self.starts[b + 1])


class _Block(NamedTuple):
    """CSR operands of one product, a block or a batch of a worker's blocks:
    A's rows, whose column indices point at B's row pointers, against B's
    rows, whose block-local columns run over [0, beta_width). B's row
    pointers are absolute positions into the partition job's shared columns,
    gamma width + 1 of them per B sub-block the worker holds, so B's entries
    are read where they lie. A batch's A entries are a slice of its chunk's,
    copied once in batch order, and only those with a product; a row all of
    whose entries lack one is not among its rows."""

    row_ids: np.ndarray     # output row of each of A's rows
    a_indptr: np.ndarray
    a_cols: np.ndarray
    a_vals: np.ndarray
    a_products: np.ndarray  # products of each A entry: the length of its B row
    b_indptr: np.ndarray    # over the worker's B sub-blocks, into b_cols and b_vals
    b_cols: np.ndarray      # the partition job's shared columns
    b_vals: np.ndarray
    beta_width: int


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
# scratch (live A entries + products + live rows): the A entries a batch
# copies, the products it expands and the per-row arrays of its product. A
# block this large is multiplied alone. A batch costs about 0.1 ms whatever
# its size: at 8,192 a 200^2 delta 0.1 product's blocks, of about 4,100
# each, went one at a time, and 16,384 raised a 200^2 delta 0.05 product's
# tracemalloc peak from 1.24 to 1.45 MB.
_SUMMATION_BATCH = 3 << 12
# A summation task takes its blocks in chunks holding about this many A
# entries, one copy per block they are in: it counts their products, drops
# those without one, and batches and multiplies the chunk's blocks before it
# takes the next, so entries without a product cost a bounded scratch.
# Half or twice this timed the same on a 1000^2 delta 2^-7 product at 20x6x20.
_COUNT_CHUNK = 1 << 16
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


def _expand_rows(blk, cum, lo_row, hi_row, accumulate):
    """Sparse-path product of local rows [lo_row, hi_row): expand every
    a[i,k]*b[k,j] product, then sum them by cell, key row*width + col.
    Returns the keys of the cells holding a product, ascending, and their
    sums. cum[e] is the products of the A entries before e.

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
    len_k = blk.a_products[p_lo:p_hi]
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
    """The sparse path: (row counts, cols, sums) of blk's product, each (row,
    col) sum formed from its products in A-entry order. Its scratch, the
    products and, for the accumulator, the output cells, is cut into row
    batches within _SPARSE_BATCH_PRODUCTS."""
    width = blk.beta_width
    cum = csr_indptr(blk.a_products)
    row_end = cum[blk.a_indptr[1:]]  # products through the end of each local row
    if accumulate:
        row_end += width * np.arange(1, row_end.size + 1)
    parts = [_expand_rows(blk, cum, lo, hi, accumulate)
             for lo, hi in _bounded_batches(row_end, _SPARSE_BATCH_PRODUCTS)]
    if len(parts) == 1:
        (uniq, sums), = parts
    else:
        uniq = np.concatenate([u for u, _ in parts])
        sums = np.concatenate([s for _, s in parts])
    return np.bincount(uniq // width, minlength=blk.row_ids.size), uniq % width, sums


def _takes_dense_path(tot, nr, gw, bw):
    """Whether blocks of tot products are multiplied as dense arrays, by
    _dense_product, rather than on the sparse path; elementwise over arrays.
    The sizes are formed in float64, which is exact below 2**53 and cannot
    wrap as int64 would for a block of 2**60 columns."""
    tot, nr, gw, bw = (np.asarray(x, dtype=np.float64) for x in (tot, nr, gw, bw))
    dense_bytes = 8 * (nr * gw + gw * bw + nr * bw)
    return (tot * _DENSE_WORK_FACTOR >= nr * gw * bw) & (dense_bytes <= _DENSE_BYTES_CAP)


def _dense_product(blk: _Block, b_lo, gw, rows):
    """BLAS product of one dense-path block as (row counts, local cols,
    values) of blk's rows, skipping zeros of the result; its bits depend on
    the block alone. rows are all of the block's rows, ascending, blk's among
    them, and the dense A has one for each, so the product's shape does not
    depend on which entries have products. The block's B rows are blk's row
    pointers [b_lo, b_lo + gw]."""
    at = np.searchsorted(rows, blk.row_ids)  # where blk's rows lie among them
    Ad = np.zeros((rows.size, gw))
    Ad[at[csr_rows(blk.a_indptr)], blk.a_cols - b_lo] = blk.a_vals
    b_indptr = blk.b_indptr[b_lo:b_lo + gw + 1]
    p_lo, p_hi = b_indptr[0], b_indptr[-1]
    Bd = np.zeros((gw, blk.beta_width))
    Bd[csr_rows(b_indptr), blk.b_cols[p_lo:p_hi]] = blk.b_vals[p_lo:p_hi]
    Cd = Ad @ Bd
    rr, cc = np.nonzero(Cd)  # only blk's rows hold a product
    return np.bincount(rr, minlength=rows.size)[at], cc.astype(np.int64), Cd[rr, cc]


def _summation_batches(tot, nr, gw, bw, size):
    """Cut a worker's blocks into (block indices, path) batches, from the
    arrays of each block's product count, rows, gamma and beta widths and
    scratch (live A entries + products + live rows). A dense-path block is
    a batch of its own. A sparse-path block with at most two output cells
    (rows x beta width) per product sums into a dense accumulator, whose two
    cell-long arrays then stay within the sort's scratch; one with a wider
    output is sorted. Each sparse path gathers its blocks, in order, into
    batches whose summed scratch is at most _SUMMATION_BATCH, so a block of
    that size or more is alone. Blocks without products are left out."""
    sparse = tot > 0
    dense = sparse & _takes_dense_path(tot, nr, gw, bw)
    sparse &= ~dense
    for at in np.flatnonzero(dense)[:, None]:
        yield at, _DENSE
    accumulate = nr.astype(np.float64) * bw <= 2 * tot  # float64, as in _takes_dense_path
    for path, on in ((_ACCUMULATE, sparse & accumulate), (_SORT, sparse & ~accumulate)):
        at = np.flatnonzero(on)
        for lo, hi in _bounded_batches(np.cumsum(size[at]), _SUMMATION_BATCH):
            yield at[lo:hi], path


def _row_starts(rows, counts):
    """Whether each entry starts a row of its block, for blocks of counts
    entries each (some may hold none), one after another, whose entries are
    in row order."""
    new_row = np.empty(rows.size, dtype=bool)
    np.not_equal(rows[1:], rows[:-1], out=new_row[1:])
    new_row[csr_indptr(counts)[:-1][counts > 0]] = True
    return new_row


def _distinct_sub_blocks(rows, starts, counts):
    """The distinct sub-blocks of a worker's blocks, where block i's
    sub-block holds counts[i] entries from starts[i] in row order, and
    blocks sharing a sub-block share its start. Returns their starts, the
    first block holding each, each block's sub-block, and the sub-blocks'
    entry counts and rows, laid end to end."""
    uniq, first, of = np.unique(starts, return_index=True, return_inverse=True)
    counts = counts[first]
    return uniq, first, of, counts, rows[csr_spans(uniq, counts)]


def _sub_block_rows(rows, starts, counts):
    """The rows of each block's sub-block (see _distinct_sub_blocks). Returns
    each block's row count, the rows of the distinct sub-blocks laid end to
    end, and each block's first row among them."""
    _, _, of, counts, rows = _distinct_sub_blocks(rows, starts, counts)
    new_row = _row_starts(rows, counts)
    nr = np.add.reduceat(new_row, csr_indptr(counts)[:-1])
    return nr[of], rows[new_row], csr_indptr(nr)[:-1][of]


def _sub_block_pointers(rows, starts, counts, widths):
    """Row pointers over sub-blocks read in place (see _distinct_sub_blocks),
    block i's over its widths[i] rows. Each distinct sub-block gets widths +
    1 pointers, absolute positions into the entries' columns, so no entry is
    copied. Returns the pointers and each block's first."""
    uniq, first, of, counts, rows = _distinct_sub_blocks(rows, starts, counts)
    widths = widths[first]
    row_base = csr_indptr(widths)[:-1]  # each sub-block's first row, its rows laid end to end
    held = csr_indptr(np.bincount(rows + np.repeat(row_base, counts),
                                  minlength=int(widths.sum())))
    # pointer r of sub-block u is its start plus its entries in rows before r
    indptr = held[csr_spans(row_base, widths + 1)]
    indptr += np.repeat(uniq - held[row_base], widths + 1)
    return indptr, (row_base + np.arange(uniq.size))[of]


def _live_entries(columns, starts, counts, b_lo, row_len):
    """The A entries of a chunk of a worker's blocks that have a product.
    Block i's A sub-block holds counts[i] entries of the shared columns
    (rows, cols, vals) from starts[i]; its columns point at B's rows from
    b_lo[i], of row_len entries each. An entry's products are counted once
    for each block it is in, and an entry without one, which meets an empty
    B row, is dropped. Returns each block's product count and live entries,
    and those entries' rows, B-row indices, values and product counts, block
    after block."""
    e_rows, e_cols, e_vals = columns
    at = csr_spans(starts, counts)
    cols = e_cols[at]
    cols += np.repeat(b_lo, counts)
    products = row_len[cols]
    first = csr_indptr(counts)[:-1]
    keep = products > 0
    tot, kept = np.add.reduceat(products, first), np.add.reduceat(keep, first)
    if not keep.all():  # as a dense operand's entries all have products
        keep = np.flatnonzero(keep)
        at, cols, products = at[keep], cols[keep], products[keep]
    return tot, kept, e_rows[at], cols, e_vals[at], products


def _row_block(M: SparseMatrix, lo, hi):
    """CSR of rows [lo, hi) of M with indptr rebased to 0, plus lo."""
    p_lo, p_hi = M.indptr[lo], M.indptr[hi]
    return M.indptr[lo:hi + 1] - p_lo, M.indices[p_lo:p_hi], M.values[p_lo:p_hi], lo


def _row_sums(vals, cols, starts, rhs):
    """Segmented sum of the products vals[e] * rhs[cols[e]]: one row of sums
    per entry of starts, the ascending first entries of non-empty rows, the
    first of them 0. Each row's products are added in column order."""
    return np.add.reduceat(vals[:, None] * rhs.take(cols, axis=0), starts, axis=0)


def partition_multiply(A: SparseMatrix, B: SparseMatrix, schema: PartitionSchema,
                       shard: str = "naive", workers: int = 1):
    """Block matrix product A x B over the two-stage partition/summation
    pipeline, its keys placed by the shard kind ('naive' or 'rand') over
    `workers`. Returns (C, [partition metrics, summation metrics])."""
    if A.cols != B.rows:
        raise ValueError(f"shape mismatch: {A.rows}x{A.cols} times {B.rows}x{B.cols}")
    # a cell of C is keyed row * B.cols + col in int64, in _expand_rows and
    # summation_reducer alike
    if A.rows * B.cols > np.iinfo(np.int64).max:
        raise ValueError(f"cannot multiply {A.rows}x{A.cols} by {B.rows}x{B.cols}: "
                         f"the product's {A.rows} x {B.cols} cells pass 2^63-1")
    shard = ShardFunction(shard, workers)
    schema.validate_for(A, B)

    m, n, k = schema.m, schema.n, schema.k
    asplit = _Splitter(A.rows, m)
    isplit = _Splitter(A.cols, n)
    csplit = _Splitter(B.cols, k)
    ops = Accumulator()

    # Input records are row blocks: A cut by alpha, B by gamma. Each cuts its
    # entries at the column-block bounds into COO sub-blocks (rows, block-local
    # columns, values, row-major), stored once, and ships each sub-block as one
    # record per block it pairs with, all sharing its entries: an A sub-block
    # at order 0 for every beta, a B sub-block at order 1 for every alpha.
    # Keys are (alpha, beta, gamma): alpha is the output block-row, beta the
    # output block-column, gamma the inner block. A's rows are rows of A, B's
    # rows those of its gamma row block.
    def partition_mapper(rec):
        tag, blk, indptr, cols, vals, first_row = rec
        split, fan = (isplit, k) if tag == "A" else (csplit, m)
        part = split.block_of(cols)
        by_part = np.argsort(part, kind="stable")
        part = part[by_part]
        sizes = np.bincount(part, minlength=split.parts)
        held = np.flatnonzero(sizes)  # the column blocks holding an entry
        piece = np.repeat(np.arange(held.size), fan)  # the sub-block of each record
        pair = np.tile(np.arange(fan), held.size)     # the block it pairs with
        mine = np.full(piece.size, blk)
        keys = (mine, pair, held[piece]) if tag == "A" else (pair, held[piece], mine)
        rows = csr_rows(indptr)[by_part]
        if tag == "A":
            rows += first_row
        ops.add(cols.size * fan)
        return RecordBatch(np.column_stack(keys), np.full(piece.size, int(tag == "B")),
                           csr_indptr(sizes[held])[piece], sizes[held][piece],
                           (rows, cols[by_part] - split.starts[part], vals[by_part]))

    # A key receives at most one A sub-block, at order 0, and one B, at order
    # 1. A paired key keeps both records, which still share the mappers'
    # entries; the summation mapper gathers them a worker at a time.
    def partition_reducer(batch):
        ops.add(int(batch.counts.sum()))  # column entries received
        paired = np.flatnonzero((batch.keys[1:] == batch.keys[:-1]).all(axis=1))
        at = (paired[:, None] + (0, 1)).ravel()
        return RecordBatch(batch.keys[at], batch.order[at], batch.starts[at], batch.counts[at],
                           batch.columns)

    col_start = csplit.starts
    col_width = np.diff(col_start)
    gamma_width = np.diff(isplit.starts)

    # The input is one record per worker: the partition job's output and the
    # indices of the blocks placed there. Each B sub-block the worker holds
    # is read where the partition job left it, through row pointers into the
    # shared columns formed once per distinct sub-block. The worker takes its
    # blocks a bounded chunk at a time. Each A entry's products are counted
    # once per block it is in; their sum over all of a block's entries, with
    # its rows, gives the block its path. Entries without a product meet an
    # empty B row and are dropped before any batch copies them. The live
    # entries are copied once more, in batch order, so that a batch of the
    # chunk's blocks, bounded by its scratch, reads its own as one slice.
    # Every non-empty output row of a block is one record of the
    # worker's one RecordBatch: key (alpha, i), order gamma * k + beta, and
    # its columns and values as payload.
    def summation_mapper(rec):
        _, pairs, placed = rec
        blocks = 2 * placed  # each block's A record in pairs; its B record follows
        block_keys = pairs.keys[blocks]
        gw, bw = gamma_width[block_keys[:, 2]], col_width[block_keys[:, 1]]
        col_off = col_start[block_keys[:, 1]]
        e_rows, e_cols, e_vals = pairs.columns
        b_indptr, b_lo = _sub_block_pointers(e_rows, pairs.starts[blocks + 1],
                                             pairs.counts[blocks + 1], gw)
        a_start, a_count = pairs.starts[blocks], pairs.counts[blocks]
        nr, held_rows, first_row = _sub_block_rows(e_rows, a_start, a_count)
        row_len = np.diff(b_indptr)  # past a sub-block's last row, a length no column reads
        row_block, row_ids, row_counts, cols, vals = [], [], [], [], []
        for lo, hi in _bounded_batches(np.cumsum(a_count), _COUNT_CHUNK):
            tot, na, a_rows, a_cols, a_vals, a_products = _live_entries(
                pairs.columns, a_start[lo:hi], a_count[lo:hi], b_lo[lo:hi], row_len)
            ops.add(int(tot.sum()))
            new_row = _row_starts(a_rows, na)
            live_rows = np.diff(csr_indptr(new_row)[csr_indptr(na)])
            batches = list(_summation_batches(tot, nr[lo:hi], gw[lo:hi], bw[lo:hi],
                                              na + tot + live_rows))
            if not batches:  # no block of the chunk has a product
                continue
            # the live entries in batch order, so that a batch's are one slice
            seq = np.concatenate([at for at, _ in batches])
            a_at = csr_spans(csr_indptr(na)[:-1][seq], na[seq])
            a_rows, a_cols, a_vals = a_rows[a_at], a_cols[a_at], a_vals[a_at]
            a_products, new_row = a_products[a_at], new_row[a_at]
            end = 0
            for at, path in batches:
                a_at = slice(end, end + int(na[at].sum()))
                end = a_at.stop
                first = np.flatnonzero(new_row[a_at])
                blk = _Block(a_rows[a_at][first], np.append(first, end - a_at.start), a_cols[a_at],
                             a_vals[a_at], a_products[a_at], b_indptr, e_cols, e_vals,
                             int(bw[lo + at].max()))
                on_row = np.repeat(lo + at, live_rows[at])  # block of each of the batch's rows
                if path == _DENSE:
                    b = lo + at[0]
                    counts, c, v = _dense_product(blk, b_lo[b], gw[b],
                                                  held_rows[first_row[b]:first_row[b] + nr[b]])
                else:
                    counts, c, v = _sparse_product(blk, path == _ACCUMULATE)
                rows = np.flatnonzero(counts)
                row_block.append(on_row[rows])
                row_ids.append(blk.row_ids[rows])
                row_counts.append(counts[rows])
                c += np.repeat(col_off[on_row], counts)
                cols.append(c)
                vals.append(v)
        if not row_block:  # no block has a product
            return None
        alpha, beta, gamma = block_keys[np.concatenate(row_block)].T
        row_counts = np.concatenate(row_counts)
        return RecordBatch(np.column_stack((alpha, np.concatenate(row_ids))), gamma * k + beta,
                           csr_indptr(row_counts)[:-1], row_counts,
                           (np.concatenate(cols), np.concatenate(vals)))

    # A row's partials each hold distinct columns, and a column comes from one
    # beta, so a cell's addends are one per gamma, and the batch holds them in
    # ascending gamma, its order. A stable sort by cell, key index * B.cols +
    # column, keeps that order within each cell, and bincount adds each
    # cell's addends in it.
    def summation_reducer(batch):
        keys, counts = batch.keys, batch.counts
        cols, vals = batch.entries()
        ops.add(vals.size)
        new_key = np.empty(keys.shape[0], dtype=bool)
        new_key[0] = True
        np.any(keys[1:] != keys[:-1], axis=1, out=new_key[1:])
        cell = np.repeat(np.cumsum(new_key) - 1, counts)  # key index of each entry
        cell *= B.cols
        cell += cols
        order = np.argsort(cell, kind="stable")
        cell = cell[order]
        first = np.empty(cell.size, dtype=bool)
        first[0] = True
        np.not_equal(cell[1:], cell[:-1], out=first[1:])
        sums = np.bincount(np.cumsum(first) - 1, weights=vals[order])
        cell = cell[first]
        out_keys = keys[new_key]
        out_counts = np.bincount(cell // B.cols, minlength=out_keys.shape[0])
        return RecordBatch(out_keys, np.zeros(out_keys.shape[0], dtype=np.int64),
                           csr_indptr(out_counts)[:-1], out_counts, (cell % B.cols, sums))

    records = [("A", alpha, *_row_block(A, *asplit.range(alpha))) for alpha in range(m)]
    records += [("B", gamma, *_row_block(B, *isplit.range(gamma))) for gamma in range(n)]

    # Partition tasks are a few vectorised row-block cuts, too short for
    # threads to repay their GIL handoffs. Summation map tasks run in
    # parallel when the per-block multiply work is chunky enough to profit.
    total_products = int(np.diff(B.indptr)[A.indices].sum()) if A.nnz else 0
    blocks = m * n * k
    if total_products * _DENSE_WORK_FACTOR >= A.rows * A.cols * B.cols:
        per_block_work = A.rows * A.cols * B.cols // blocks
    else:
        per_block_work = total_products // blocks
    # Placements are tabled once per call: block_place[alpha, beta, gamma],
    # and row_place, whose entry i places output row i of block-row alpha;
    # one lookup of a batch's key columns places all of its records.
    block_place = shard.block_table(m, k, n)
    row_place = shard.row_table(asplit.block_of(np.arange(A.rows)))
    job1 = JobSpec(partition_mapper, partition_reducer, shard_fn=block_place.__getitem__,
                   workers=workers, name="partition", ops=ops, parallel=False)
    pairs, m1 = run_job(job1, records)

    per_worker = []
    if pairs:  # a RecordBatch, or [] when no block has both sub-blocks
        place = block_place[tuple(pairs.keys[::2].T)]
        by_worker = np.argsort(place, kind="stable")  # each worker's blocks in key order
        per_worker = [(int(place[at[0]]), pairs, at)
                      for at in np.split(by_worker, np.flatnonzero(np.diff(place[by_worker])) + 1)]
    job2 = JobSpec(summation_mapper, summation_reducer,
                   shard_fn=lambda key: row_place[key[1]],
                   workers=workers, name="summation", ops=ops, map_affinity=itemgetter(0),
                   parallel=per_block_work >= _PARALLEL_MIN_BLOCK_WORK)
    summed, m2 = run_job(job2, per_worker)

    counts = np.zeros(A.rows, dtype=np.int64)
    indices = values = ()
    if summed:  # a RecordBatch, or [] when no block pair has a product
        counts[summed.keys[:, 1]] = summed.counts
        indices, values = summed.entries()
    return SparseMatrix(A.rows, B.cols, csr_indptr(counts), indices, values), [m1, m2]


def _cut_row_blocks(A: SparseMatrix | DenseMatrix, workers: int) -> list:
    """A cut into the map input records of `workers`: one contiguous row
    block per worker (one per row when A has fewer rows), each one record
    led by its block index. A sparse block holds its indptr rebased to 0, its
    non-empty rows, their first entries, its column indices and its values; a
    dense block holds its rows."""
    split = _Splitter(A.rows, min(workers, A.rows))
    if isinstance(A, DenseMatrix):
        return [(b, A.values[slice(*split.range(b))]) for b in range(split.parts)]
    records = []
    for b in range(split.parts):
        indptr, cols, vals, _ = _row_block(A, *split.range(b))
        rows = np.flatnonzero(np.diff(indptr))
        # the first start, indptr[rows[0]], is 0: every row before it is empty
        records.append((b, indptr, rows, indptr[rows], cols, vals))
    return records


def broadcast_multiply(A: SparseMatrix | DenseMatrix, B_small: DenseMatrix,
                       workers: int = 1) -> DenseMatrix:
    """Row-wise product: row i of the result is row i of A times B_small.

    A is cut into one contiguous row block per worker, each block one input
    record pinned to its worker. The cut is made once per matrix and worker
    count and kept on A, so every later product of A on as many workers,
    such as each step of an iterative solver, reuses the same blocks and only
    B_small moves; A's immutability keeps the blocks valid. B_small is
    broadcast once per call and never shuffled. The job is map-only: a
    block's map task returns its dense product, which stays on its worker,
    and the products are joined in block order. The result is a DenseMatrix
    for either type of A.
    """
    if A.cols != B_small.rows:
        raise ValueError(
            f"shape mismatch: {A.rows}x{A.cols} times {B_small.rows}x{B_small.cols}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    records = A._row_blocks.get(workers)
    if records is None:
        records = A._row_blocks[workers] = _cut_row_blocks(A, workers)
    store = BroadcastStore()
    store.put("rhs", B_small.values)
    dense = isinstance(A, DenseMatrix)

    # Each row is formed from that row and rhs alone, so its bits depend on
    # neither the row blocking nor the worker count: a dense block is one
    # einsum (a BLAS matmul may regroup a row's sum by the block's shape), a
    # sparse one a segmented sum per batch of non-empty rows, in column order.
    def mapper(rec):
        rhs = store.get("rhs")
        if dense:
            _, values = rec
            return np.einsum("ij,jk->ik", values, rhs)
        _, indptr, rows, starts, cols, vals = rec
        width = rhs.shape[1]
        out = np.zeros((indptr.size - 1, width))
        if cols.size * width <= _SPARSE_BATCH_PRODUCTS:  # one batch
            out[rows] = _row_sums(vals, cols, starts, rhs)
        else:
            for lo, hi in _bounded_batches(indptr[rows + 1] * width, _SPARSE_BATCH_PRODUCTS):
                p_lo, p_hi = starts[lo], indptr[rows[hi - 1] + 1]
                out[rows[lo:hi]] = _row_sums(vals[p_lo:p_hi], cols[p_lo:p_hi],
                                             starts[lo:hi] - p_lo, rhs)
        return out

    # A block's product is one numpy pass over a few rows, too short for
    # threads to repay their GIL handoffs, so map tasks run on this thread.
    spec = JobSpec(mapper, workers=workers, name="broadcast-multiply",
                   map_affinity=itemgetter(0), parallel=False)
    out, _ = run_job(spec, records)
    return DenseMatrix(np.concatenate(out) if len(out) > 1 else out[0])

