"""Deterministic text formats: row-format matrices, SVM examples and edge lists.

Row format:
    <rows> <cols> <nnz>
    <row_index>TAB<col>:<value> <col>:<value> ...
One line per nonempty row, row indices strictly ascending, column indices
strictly ascending, values finite and nonzero, written in shortest round-trip
decimal so that read(write(M)) == M bit-exactly. The writer builds one `%`
template from the CSR arrays for each chunk of whole rows, `<col>:%r` per
entry, and formats the chunk's values by one `%` call: `%r` is float repr.

SVM examples (LIBSVM's layout with 0-based indices):
    <label> <index>:<value> <index>:<value> ...
One line per example; the label is finite and the entries follow the row
format's rules. The matrix width is the largest index + 1, or the width the
caller gives (a query file must stay inside its training width).

Edge list: one "src TAB dst" pair of 0-based node ids per line, any
whitespace between them; blank lines are skipped. A file of digits, newlines,
spaces, TABs, VTs and FFs alone is parsed in one numpy pass, others line by line.

Every data file is ASCII with no '_', which int() and float() would read as a
digit separator. The lines of every text input, config files too, are numbered
and checked by text_lines alone, so the first bad line in file order is reported.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

from .sparse import DenseVector, SparseMatrix, csr_indptr

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


def text_lines(path, encoding):
    """(number, text) of each non-blank line of a text file, split by text
    mode's universal newlines (LF, CRLF and CR only); a byte that `encoding`
    cannot decode is a ParseError naming its line."""
    with open(path, encoding=encoding, errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode(encoding)
                except UnicodeEncodeError as exc:  # an escaped byte, U+DC80..U+DCFF
                    byte = ord(line[exc.start]) - 0xDC00
                    raise ParseError(path, lineno,
                                     f"byte 0x{byte:02x} is not {encoding.upper()}") from None
            if not line.isspace():
                yield lineno, line


def data_lines(path):
    """(number, text) of each non-blank line of an ASCII data file. A byte
    that is not ASCII, or a '_', which int() and float() read as a digit
    separator, is a ParseError naming its line."""
    for lineno, line in text_lines(path, "ascii"):
        if "_" in line:
            raise ParseError(path, lineno, "'_' in a number")
        yield lineno, line


# write_matrix cuts M into chunks of whole rows, each starting at the row
# that holds entry 0, _WRITE_CHUNK, 2 * _WRITE_CHUNK, ..., so that a write
# formats about that many entries at a time whatever M's size.
_WRITE_CHUNK = 1 << 14


def write_matrix(M: SparseMatrix, path) -> None:
    """Write M in row format. Round-trips bit-exactly through read_matrix.

    Each chunk of rows is formatted by one `%` call over its template
    (_rows_template), which formats every value as its repr in C. Nothing is
    built per column of M, nor per empty row beyond a slice of indptr."""
    indptr = M.indptr
    firsts = np.searchsorted(indptr, np.arange(0, M.nnz, _WRITE_CHUNK), side="right") - 1
    starts = firsts[np.diff(firsts, prepend=-1) > 0].tolist()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{M.rows} {M.cols} {M.nnz}\n")
        for r0, r1 in zip(starts, starts[1:] + [M.rows]):
            lo, hi = int(indptr[r0]), int(indptr[r1])
            fh.write(_rows_template(M, r0, r1) % tuple(M.values[lo:hi].tolist()))


def _rows_template(M: SparseMatrix, r0, r1) -> str:
    """The row-format lines of rows r0..r1-1 of M, one `%r` for each value:
    each entry is `<col>:%r ` and a row's last ends in a newline instead,
    and each nonempty row's first is prefixed with `<row>\t`. Column strings
    are made once for each column the rows use."""
    ptr = M.indptr[r0:r1 + 1]
    lo = ptr[0]
    # the distinct columns and each entry's place among them: np.unique's
    # return_inverse, which would also import numpy.ma
    cols = M.indices[lo:ptr[-1]]
    order = cols.argsort()
    used = cols[order]
    new = np.empty(used.size, dtype=bool)
    new[0] = True
    np.not_equal(used[1:], used[:-1], out=new[1:])
    used = used[new]
    code = np.empty(cols.size, dtype=np.intp)
    code[order] = np.cumsum(new) - 1
    full = np.flatnonzero(np.diff(ptr))  # the nonempty rows, counted from r0
    code[ptr[full + 1] - 1 - lo] += used.size  # a row's last entry ends its line
    pieces = np.array([f"{c}:%r{end}" for end in " \n" for c in used.tolist()],
                      dtype=object).take(code)
    first = ptr[full] - lo
    heads = np.array([f"{i}\t" for i in (full + r0).tolist()], dtype=object)
    pieces[first] = heads + pieces[first]
    return "".join(pieces.tolist())


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
    lines = data_lines(path)
    lineno, header = next(lines, (0, ""))
    if lineno != 1:
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
    for lineno, line in lines:
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
    for lineno, line in data_lines(path):
        toks = line.split()
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
    # finite floats, so the set holds each value once, -0.0 and 0.0 as one
    distinct = set(labels)
    if not distinct <= {-1.0, 1.0}:
        if len(distinct) != 2:
            raise ParseError(path, 1, f"expected two label values, found {len(distinct)}")
        y = np.where(y == min(distinct), -1.0, 1.0)
    T = SparseMatrix(len(labels), width, indptr, indices, values)
    return T, DenseVector(y)


# An edge-list file whose every line is blank or `digits WS digits`, WS being
# the whitespace but the newline that numpy's separator also skips (so not
# \x1c-\x1f): its tokens are exactly its node ids, in order. The pattern
# defines such a file; _plain_edges decides it without backtracking.
_WS = r"[ \t\x0b\x0c]"
_EDGE = rf"[0-9]+{_WS}+[0-9]+{_WS}*"
_PLAIN_EDGES = re.compile(rf"(?:{_EDGE}\n|{_WS}*\n|{_WS}+{_EDGE}\n)*{_WS}*(?:{_EDGE})?")


def _plain_edges(data: str) -> bool:
    """Whether _PLAIN_EDGES matches all of data: every byte is a digit, a
    newline or WS, and every line holds two runs of digits or none. In the
    sequence of the newlines and the runs' first digits, that is when every
    run has exactly one run beside it."""
    raw = np.frombuffer(data.encode("ascii", "surrogateescape"), dtype=np.uint8)
    digit = (raw - 48) < 10  # uint8 arithmetic wraps, so only 0-9 pass
    if not (digit | ((raw - 9) < 4) | (raw == 32)).all():  # \t \n \x0b \x0c and space
        return False
    newline = raw == 10
    first = digit.copy()
    first[1:] &= ~digit[:-1]
    runs = np.concatenate(([False], ~newline[first | newline], [False]))
    return not (runs[1:-1] & (runs[:-2] == runs[2:])).any()


def read_edges(path) -> np.ndarray:
    """Parse an edge-list file into an int64 array of (src, dst) rows, one per
    non-blank line in file order. A plain file (_plain_edges) takes one numpy
    pass unless it is whitespace alone, which numpy reads as one 0. numpy
    saturates an id past int64 to 2^63-1, so a parse holding 2^63-1 is redone
    by the line loop, which accepts 2^63-1 and names the line of a larger id."""
    # a bad byte reads as a surrogate, which is not plain: the line loop names it
    data = Path(path).read_text(encoding="ascii", errors="surrogateescape")
    if _plain_edges(data) and not data.isspace():
        ids = np.fromstring(data, dtype=np.int64, sep=" ")
        if ids.max(initial=0) < _MAX_COLS:
            return ids.reshape(-1, 2)
    return _read_edge_lines(path)


def _read_edge_lines(path) -> np.ndarray:
    """Parse an edge list line by line, rejecting the first malformed line."""
    edges = []
    for lineno, line in data_lines(path):
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
