"""Deterministic text formats: row-format matrices, SVM examples and edge lists.

Row format:
    <rows> <cols> <nnz>
    <row_index>TAB<col>:<value> <col>:<value> ...
One line per nonempty row, row indices strictly ascending, column indices
strictly ascending, values finite and nonzero, written in shortest round-trip
decimal so that read(write(M)) == M bit-exactly.

SVM examples (LIBSVM's layout with 0-based indices):
    <label> <index>:<value> <index>:<value> ...
One line per example; the label is finite and the entries follow the row
format's rules. The matrix width is the largest index + 1, or the width the
caller gives (a query file must stay inside its training width).

Edge list: one "src TAB dst" pair of 0-based node ids per line, any
whitespace between them; blank lines are skipped.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .sparse import DenseVector, SparseMatrix, csr_indptr, sorted_distinct

__all__ = ["ParseError", "read_matrix", "write_matrix", "read_svm_file", "read_edges"]

# Widest matrix an int64 index can address: the bound on a matrix header's
# shape, on SVM indices when the caller gives no width, and on node ids.
_MAX_COLS = np.iinfo(np.int64).max


class ParseError(ValueError):
    """Malformed input file; carries the offending path and line number."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = str(path)
        self.lineno = lineno


def write_matrix(M: SparseMatrix, path) -> None:
    """Write M in row format. Round-trips bit-exactly through read_matrix."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{M.rows} {M.cols} {M.nnz}\n")
        for i in range(M.rows):
            cols, vals = M.row(i)
            if cols.size == 0:
                continue
            pairs = " ".join(f"{c}:{v!r}" for c, v in zip(cols.tolist(), vals.tolist()))
            fh.write(f"{i}\t{pairs}\n")


def _read_entries(tokens, width, indices, values, path, lineno):
    """Append one row's `col:value` tokens to the flat CSR lists, rejecting
    any entry that is not an integer column in 0..width-1, strictly above the
    row's previous column, with a finite nonzero float value."""
    prev_col = -1
    for tok in tokens:
        c, colon, v = tok.partition(":")
        if not colon:
            raise ParseError(path, lineno, f"bad entry {tok!r}, expected col:value")
        try:
            col = int(c)
            val = float(v)
        except ValueError:
            raise ParseError(path, lineno, f"bad entry {tok!r}") from None
        if not math.isfinite(val):
            raise ParseError(path, lineno, f"non-finite value in {tok!r}")
        if val == 0.0:
            raise ParseError(path, lineno, f"explicit zero in {tok!r}")
        if not 0 <= col < width:
            raise ParseError(path, lineno, f"column index {col} outside 0..{width - 1}")
        if col <= prev_col:
            raise ParseError(
                path, lineno, f"column index {col} not strictly ascending (after {prev_col})")
        prev_col = col
        indices.append(col)
        values.append(val)


def read_matrix(path) -> SparseMatrix:
    """Parse a row-format matrix file, rejecting malformed or inconsistent input."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        if not header:
            raise ParseError(path, 1, "missing header line")
        parts = header.split()
        if len(parts) != 3:
            raise ParseError(path, 1, f"header must be '<rows> <cols> <nnz>', got {header.strip()!r}")
        try:
            rows, cols, nnz = (int(p) for p in parts)
        except ValueError:
            raise ParseError(path, 1, f"non-integer header field in {header.strip()!r}") from None
        if not (1 <= rows <= _MAX_COLS and 1 <= cols <= _MAX_COLS):
            raise ParseError(path, 1, f"matrix shape {rows}x{cols} outside 1..{_MAX_COLS}")
        if nnz < 0:
            raise ParseError(path, 1, "negative nnz in header")

        counts = [0] * rows
        indices, values = [], []
        prev_row = -1
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            head, tab, rest = line.partition("\t")
            if not tab:
                raise ParseError(path, lineno, "expected '<row>\\t<col>:<value> ...'")
            try:
                i = int(head)
            except ValueError:
                raise ParseError(path, lineno, f"bad row index {head!r}") from None
            if not 0 <= i < rows:
                raise ParseError(path, lineno, f"row index {i} outside 0..{rows - 1}")
            if i <= prev_row:
                raise ParseError(path, lineno, f"row index {i} not strictly ascending")
            prev_row = i
            start = len(indices)
            _read_entries(rest.split(), cols, indices, values, path, lineno)
            counts[i] = len(indices) - start
        if len(indices) != nnz:
            raise ParseError(path, 1, f"header declares nnz={nnz} but file has {len(indices)} entries")
    return SparseMatrix(rows, cols, csr_indptr(counts), indices, values)


def read_svm_file(path, cols=None):
    """Parse label-prefixed sparse examples: '<label> <index>:<value> ...'.

    Labels must be finite; they may be -1/+1 already or any two distinct
    values, which are mapped to -1 (smaller) and +1 (larger). Features follow
    the row format's entry rules. Given `cols` (a query read against its
    training width), an index at or past it is rejected. Returns (T, y).
    """
    bound = _MAX_COLS if cols is None else cols
    labels, indptr, indices, values = [], [0], [], []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            toks = line.split()
            if not toks:
                continue
            try:
                label = float(toks[0])
            except ValueError:
                raise ParseError(path, lineno, f"bad label {toks[0]!r}") from None
            if not math.isfinite(label):
                raise ParseError(path, lineno, f"non-finite label {toks[0]!r}")
            labels.append(label)
            _read_entries(toks[1:], bound, indices, values, path, lineno)
            indptr.append(len(indices))
    if not labels:
        raise ParseError(path, 1, "no examples in file")
    width = cols if cols is not None else max(indices, default=-1) + 1
    if width < 1:
        raise ParseError(path, 1, "no features in file")

    y = np.array(labels)
    uniq = sorted_distinct(y)
    if not set(uniq.tolist()) <= {-1.0, 1.0}:
        if len(uniq) != 2:
            raise ParseError(path, 1, f"expected two label values, found {len(uniq)}")
        y = np.where(y == uniq[0], -1.0, 1.0)
    T = SparseMatrix(len(labels), width, indptr, indices, values)
    return T, DenseVector(y)


# An edge-list file whose every line is blank or `digits WS digits`, WS being
# any whitespace but the newline: the tokens of such a file are exactly its
# node ids, in order. The line alternatives are tried most common first.
_WS = r"[^\S\n]"
_EDGE = rf"[0-9]+{_WS}+[0-9]+{_WS}*"
_PLAIN_EDGES = re.compile(rf"(?:{_EDGE}\n|{_WS}*\n|{_WS}+{_EDGE}\n)*{_WS}*(?:{_EDGE})?")


def read_edges(path) -> np.ndarray:
    """Parse an edge-list file into an int64 array of (src, dst) rows, one per
    non-blank line in file order."""
    with open(path, "r", encoding="ascii") as fh:
        data = fh.read()
    if _PLAIN_EDGES.fullmatch(data):
        try:
            return np.array(data.split(), dtype=np.int64).reshape(-1, 2)
        except OverflowError:  # an id past int64: the line loop names it
            pass
    return _read_edge_lines(data, path)


def _read_edge_lines(data, path) -> np.ndarray:
    """Parse an edge list line by line, rejecting the first malformed line."""
    edges = []
    for lineno, line in enumerate(data.split("\n"), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(path, lineno, f"expected 'src dst', got {line.strip()!r}")
        try:
            src, dst = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(path, lineno, f"non-integer node id in {line.strip()!r}") from None
        if src < 0 or dst < 0:
            raise ParseError(path, lineno, "node ids must be non-negative")
        if max(src, dst) > _MAX_COLS:
            raise ParseError(path, lineno, f"node id {max(src, dst)} outside 0..{_MAX_COLS}")
        edges.append((src, dst))
    return np.array(edges, dtype=np.int64).reshape(-1, 2)
