"""The text readers (row-format matrices, SVM examples, alphas, edge lists
and config files): bad input rejected at the first offending line in file
order, and fuzzed valid files that must parse back exactly and, with one
token corrupted, fail with a ParseError naming that token's line. And the
row-format writer: the bytes of the per-row writer it replaced, with no
scratch that grows with the matrix's width."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mrmul.io as mio
from mrmul.cli import main
from mrmul.io import (_PLAIN_EDGES, ParseError, _plain_edges, _read_edge_lines, read_edges,
                      read_matrix, read_svm_file, write_matrix)
from mrmul.sparse import SparseMatrix

GOOD_LINES = ["+1 0:1.0 2:2.0", "-1 1:1.5"]


def run_cli(*args):
    return main([str(a) for a in args])


class TestSvmFileRejects:
    """Each bad third line fails at line 3 with the diagnostic beside it,
    and svm-train writes nothing."""

    BAD_LINES = {
        "nan value": ("+1 0:0.5 1:nan", "non-finite value in '1:nan'"),
        "inf value": ("+1 0:0.5 1:inf", "non-finite value in '1:inf'"),
        "explicit zero": ("+1 0:0.0", "explicit zero in '0:0.0'"),
        "negative index": ("+1 -1:1.0", "column index -1 outside"),
        "nan label": ("nan 0:1.0", "non-finite label 'nan'"),
        "inf label": ("-inf 0:1.0", "non-finite label '-inf'"),
    }

    @pytest.fixture(params=sorted(BAD_LINES))
    def bad_file(self, request, tmp_path):
        line, message = self.BAD_LINES[request.param]
        path = tmp_path / "bad.svm"
        path.write_text("\n".join(GOOD_LINES + [line]) + "\n")
        return path, f"bad.svm:3: {message}"

    def test_parse_error_names_the_line(self, bad_file):
        path, message = bad_file
        with pytest.raises(ParseError, match=re.escape(message)) as exc:
            read_svm_file(path)
        assert exc.value.lineno == 3

    def test_svm_train_exits_nonzero_and_writes_nothing(self, bad_file, tmp_path, capsys):
        path, message = bad_file
        assert run_cli("svm-train", "--data", path, "--iters", 5,
                       "--out-prefix", tmp_path / "svm_") == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("svm_*"))

    @pytest.mark.parametrize("index", [3, 4, 99])
    def test_query_index_past_training_width(self, tmp_path, capsys, index):
        data = tmp_path / "train.svm"
        data.write_text("\n".join(GOOD_LINES) + "\n")
        alpha = tmp_path / "alpha.txt"
        alpha.write_text("0.5\n0.5\n")
        query = tmp_path / "query.svm"
        query.write_text(f"+1 0:1.0\n-1 1:1.0 {index}:2.0\n")
        with pytest.raises(ParseError, match=rf"query\.svm:2: column index {index} outside 0\.\.2"):
            read_svm_file(query, cols=3)
        scores = tmp_path / "scores.txt"
        assert run_cli("svm-predict", "--data", data, "--alpha", alpha,
                       "--query", query, "--out", scores) == 1
        assert "query.svm:2: " in capsys.readouterr().err
        assert not scores.exists()


class TestMatrixHeaderBounds:
    """A header shape past int64 is rejected at line 1, not left to overflow
    where the arrays are built."""

    @pytest.mark.parametrize("header", ["1 9223372036854775808 1", "9223372036854775808 1 1",
                                        "1 99999999999999999999 1"])
    def test_header_past_int64_rejected(self, tmp_path, header):
        path = tmp_path / "m.txt"
        path.write_text(f"{header}\n0\t0:1.0\n")
        with pytest.raises(ParseError, match=rf"m\.txt:1: matrix shape .* outside 1\.\.{2**63 - 1}$"):
            read_matrix(path)

    def test_widest_int64_header_accepted(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 9223372036854775807 1\n0\t9223372036854775806:1.0\n")
        M = read_matrix(path)
        assert (M.rows, M.cols, M.indices.tolist()) == (1, 2**63 - 1, [2**63 - 2])

    def test_multiply_exits_nonzero_and_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "a.txt"
        path.write_text("1 99999999999999999999 1\n0\t99999999999999999998:1.0\n")
        out = tmp_path / "c.txt"
        assert run_cli("multiply", "--a", path, "--b", path, "--out", out) == 1
        assert f"a.txt:1: matrix shape 1x{10**20 - 1} outside 1..{2**63 - 1}" in capsys.readouterr().err
        assert not out.exists()


class TestReadEdges:
    """Edge lists: each bad third line fails at line 3 with the diagnostic
    beside it, and pagerank exits 1 on an id or node count past int64 with
    nothing written."""

    BAD_LINES = {
        "one token": ("7", "expected 'src dst', got '7'"),
        "three tokens": ("1 2 3", "expected 'src dst', got '1 2 3'"),
        "non-integer": ("1\tx", "non-integer node id in '1\\tx'"),
        "negative": ("-1\t2", "node ids must be non-negative"),
        "past int64": (f"1\t{2**63}", f"node id {2**63} outside 0..{2**63 - 1}"),
    }

    @pytest.mark.parametrize("line,message", BAD_LINES.values(), ids=BAD_LINES.keys())
    def test_parse_error_names_the_line(self, tmp_path, line, message):
        path = tmp_path / "e.txt"
        path.write_text(f"0\t1\n1\t0\n{line}\n2\t0\n")
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}:3: {message}')}$"):
            read_edges(path)

    def test_widest_int64_id_accepted(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text(f"0\t{2**63 - 1}\n")
        assert read_edges(path).tolist() == [[0, 2**63 - 1]]

    def test_id_past_int64_exits_nonzero_and_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "e.txt"
        path.write_text("0\t1\n1\t99999999999999999999\n")
        assert run_cli("pagerank", "--edges", path, "--out-prefix", tmp_path / "pr_") == 1
        assert capsys.readouterr().err == (
            f"error: {path}:2: node id 99999999999999999999 outside 0..{2**63 - 1}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e.txt"]

    def test_nodes_past_int64_exits_nonzero_and_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "e.txt"
        path.write_text("0\t1\n1\t0\n")
        assert run_cli("pagerank", "--edges", path, "--nodes", 10**20 - 1,
                       "--out-prefix", tmp_path / "pr_") == 1
        assert capsys.readouterr().err == f"error: N must be <= {2**63 - 1}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e.txt"]


class TestAsciiWithoutUnderscore:
    """A byte that is not ASCII, or a '_', which int() and float() read as a
    digit separator, fails at its line in every data file, lines numbered as
    text mode's universal newlines number them; the command exits 1 and
    writes nothing."""

    BAD = {"underscore": ("1_0", "'_' in a number"),
           "non-ascii": ("\u0661", "byte 0xd9 is not ASCII")}  # an Arabic-Indic 1

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_edge_list(self, tmp_path, capsys, bad, eol):
        token, message = self.BAD[bad]
        path = tmp_path / "e.txt"
        path.write_bytes(eol.join(["0\t1", "", f"{token}\t0", "2\t0", ""]).encode("utf-8"))
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}:3: {message}')}$"):
            read_edges(path)
        assert run_cli("pagerank", "--edges", path, "--out-prefix", tmp_path / "pr_") == 1
        assert capsys.readouterr().err == f"error: {path}:3: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e.txt"]

    # 3,000 rows (about 35 KB) put the bad line past the first chunk that
    # text mode reads, so its number is counted across chunks
    @pytest.mark.parametrize("rows", [2, 3000])
    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_matrix_file(self, tmp_path, capsys, bad, rows):
        token, message = self.BAD[bad]
        lines = [f"{rows} 2 {rows}"] + [f"{i}\t0:1.0" for i in range(rows - 1)]
        path = tmp_path / "a.txt"
        path.write_bytes("\r\n".join(lines + [f"{rows - 1}\t1:{token}", ""]).encode("utf-8"))
        out = tmp_path / "c.txt"
        assert run_cli("multiply", "--a", path, "--b", path, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {path}:{rows + 1}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_alpha_file(self, tmp_path, capsys, bad):
        token, message = self.BAD[bad]
        data = tmp_path / "train.svm"
        data.write_text("\n".join(GOOD_LINES) + "\n")
        alpha = tmp_path / "alpha.txt"
        alpha.write_bytes(f"0.5\n{token}\n".encode("utf-8"))
        scores = tmp_path / "scores.txt"
        assert run_cli("svm-predict", "--data", data, "--alpha", alpha,
                       "--query", data, "--out", scores) == 1
        assert capsys.readouterr().err == f"error: {alpha}:2: {message}\n"
        assert not scores.exists()

    # each file's line 2 is bad and a later line holds a byte that is not
    # ASCII (or UTF-8, for the config); the reader names line 2
    FIRST_BAD = {
        "matrix": (b"3 2 3\n0\t0:1_0\n1\t0:1.0\n2\t0:\xc3\n", "'_' in a number",
                   lambda f, out: ["multiply", "--a", f, "--b", f, "--out", out / "c.txt"]),
        "svm": (b"+1 0:1.0\n-1 0:1_0\n+1 1:1.0\n-1 1:\xc3\n", "'_' in a number",
                lambda f, out: ["svm-train", "--data", f, "--out-prefix", out / "s_"]),
        "alpha": (b"0.5\n1_0\n\xc3\n", "'_' in a number",
                  lambda f, out: ["svm-predict", "--data", f.parent / "train.svm", "--alpha", f,
                                  "--query", f.parent / "train.svm", "--out", out / "s.txt"]),
        "edges": (b"0\t1\n1_0\t0\n\xc3\t0\n", "'_' in a number",
                  lambda f, out: ["pagerank", "--edges", f, "--out-prefix", out / "pr_"]),
        "config": (b"m=2\nm 2\n# caf\xe9\n", "expected key=value, got 'm 2'",
                   lambda f, out: ["generate", "--config", f, "--n", 2, "--delta", 1,
                                   "--out", out / "a.txt"]),
    }

    @pytest.mark.parametrize("kind", sorted(FIRST_BAD))
    def test_first_bad_line_in_file_order(self, tmp_path, capsys, kind):
        content, message, command = self.FIRST_BAD[kind]
        (tmp_path / "train.svm").write_text("\n".join(GOOD_LINES) + "\n")
        path = tmp_path / "bad.txt"
        path.write_bytes(content)
        out = tmp_path / "out"
        out.mkdir()
        assert run_cli(*command(path, out)) == 1
        assert capsys.readouterr().err == f"error: {path}:2: {message}\n"
        assert not list(out.iterdir())


# -- fuzzing ------------------------------------------------------------------

values = st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != 0.0)


@st.composite
def sparse_rows(draw, max_rows=6, max_cols=7):
    """Per-row [(col, value), ...] lists with at least one entry overall."""
    n = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    rows = [[(c, draw(values)) for c in sorted(draw(st.sets(st.integers(0, cols - 1))))]
            for _ in range(n)]
    if not any(rows):
        rows[draw(st.integers(0, n - 1))].append((draw(st.integers(0, cols - 1)), draw(values)))
    return cols, rows


def matrix_of(cols, rows):
    """The matrix whose row i holds the (col, value) pairs of rows[i]."""
    entries = [(i, c, v) for i, row in enumerate(rows) for c, v in row]
    return SparseMatrix.from_coo(len(rows), cols, *zip(*entries))


CORRUPTIONS = ("nan", "inf", "zero", "x", "negative", "out of range", "repeat", "no colon",
               "non-ascii", "underscore")
# non-ASCII characters, an Arabic-Indic digit among them, that int() or
# float() would read as part of a number or str.split() as a gap
NON_ASCII = ("\u0661", "\u00e9", "\u00a0")


def corrupt(draw, token, prev, width):
    """One corruption of a `col:value` token, returned with its kind; `prev`
    is the row's previous token, or None for the row's first one."""
    c, _, v = token.partition(":")
    kind = draw(st.sampled_from([k for k in CORRUPTIONS if k != "repeat" or prev is not None]))
    if kind in ("nan", "inf"):
        return kind, f"{c}:{draw(st.sampled_from(['', '-', '+']))}{kind}"
    if kind == "zero":
        return kind, f"{c}:{draw(st.sampled_from(['0', '0.0', '-0.0']))}"
    if kind == "x":
        return kind, f"{c}:x"
    if kind == "negative":
        return kind, f"{-1 - int(c)}:{v}"
    if kind == "out of range":
        return kind, f"{width + draw(st.integers(0, 3))}:{v}"
    if kind == "repeat":
        return kind, f"{prev.partition(':')[0]}:{v}"
    if kind == "non-ascii":
        return kind, f"{c}:{v}{draw(st.sampled_from(NON_ASCII))}"
    if kind == "underscore":  # a digit separator to int() and float(), both accept it
        sign, digits = ("-", v[1:]) if v.startswith("-") else ("", v)
        return kind, draw(st.sampled_from([f"0_{c}:{v}", f"{c}:{sign}0_{digits}"]))
    return kind, c + v


class TestReadMatrixFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_round_trip_and_one_corrupt_token(self, tmp_path_factory, data):
        cols, rows = data.draw(sparse_rows())
        M = matrix_of(cols, rows)
        path = tmp_path_factory.mktemp("fuzz") / "m.txt"
        write_matrix(M, path)
        assert read_matrix(path) == M

        lines = path.read_text().splitlines()
        at = data.draw(st.integers(1, len(lines) - 1))  # a row line, never the header
        head, _, rest = lines[at].partition("\t")
        toks = rest.split()
        j = data.draw(st.integers(0, len(toks) - 1))
        _, toks[j] = corrupt(data.draw, toks[j], toks[j - 1] if j else None, cols)
        lines[at] = f"{head}\t{' '.join(toks)}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_matrix(path)
        assert exc.value.lineno == at + 1


def per_row_write(M, path):
    """The reference writer: one f-string line per nonempty row, each value
    as its repr, as write_matrix wrote the row format before it formatted a
    whole chunk of rows by one `%` call."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{M.rows} {M.cols} {M.nnz}\n")
        for i in range(M.rows):
            cols, vals = M.row(i)
            if cols.size == 0:
                continue
            pairs = " ".join(f"{c}:{v!r}" for c, v in zip(cols.tolist(), vals.tolist()))
            fh.write(f"{i}\t{pairs}\n")


# the values whose repr is least like the rest: the smallest subnormal, the
# largest finite floats, integral floats and negatives
EDGE_VALUES = (5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               1.0, -1.0, 2.0, 1e16, -3.0)


@st.composite
def csr_matrices(draw):
    """Up to 12 rows over a width up to 2^63-1, each row empty or holding up
    to 6 columns, the first and last rows as likely to be empty as any."""
    width = draw(st.one_of(st.integers(1, 8), st.integers(1, 2 ** 63 - 1),
                           st.just(2 ** 63 - 1)))
    row = st.one_of(st.just(set()), st.sets(st.integers(0, width - 1), max_size=6))
    rows = [sorted(c) for c in draw(st.lists(row, min_size=1, max_size=12))]
    value = st.one_of(st.sampled_from(EDGE_VALUES),
                      st.floats(allow_nan=False, allow_infinity=False).filter(bool))
    counts = [len(c) for c in rows]
    values = draw(st.lists(value, min_size=sum(counts), max_size=sum(counts)))
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return SparseMatrix(len(rows), width, indptr, [c for r in rows for c in r], values)


class TestWriteMatrixBytes:
    """write_matrix writes the bytes of per_row_write, whatever the size of
    the chunks whose rows it formats by one `%` call."""

    @settings(max_examples=300, deadline=None)
    @given(M=csr_matrices(), chunk=st.sampled_from([1, 2, 3, 5, mio._WRITE_CHUNK]))
    @example(M=SparseMatrix(3, 4, [0, 0, 0, 0], [], []), chunk=mio._WRITE_CHUNK)
    @example(M=SparseMatrix(3, 2 ** 63 - 1, [0, 0, 2, 2], [0, 2 ** 63 - 2], [1.0, -5e-324]),
             chunk=1)
    def test_same_bytes_as_per_row_writer(self, tmp_path_factory, M, chunk):
        d = tmp_path_factory.mktemp("write")
        per_row_write(M, d / "ref.txt")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mio, "_WRITE_CHUNK", chunk)
            write_matrix(M, d / "m.txt")
        assert (d / "m.txt").read_bytes() == (d / "ref.txt").read_bytes()

    @pytest.mark.parametrize("shape, density", [((300, 300), 0.5), ((2, 40_000), 0.6)])
    def test_many_chunks_same_bytes(self, tmp_path, shape, density):
        """At the default chunk: 45,000 entries in rows of about 150, and
        two rows each longer than a chunk."""
        rng = np.random.default_rng(11)
        M = SparseMatrix.from_dense(np.where(rng.random(shape) < density,
                                             rng.standard_normal(shape), 0.0))
        assert M.nnz > 2 * mio._WRITE_CHUNK
        per_row_write(M, tmp_path / "ref.txt")
        write_matrix(M, tmp_path / "m.txt")
        assert (tmp_path / "m.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()

    def test_widest_row_round_trips_without_a_column_table(self, tmp_path):
        """A 1 x (2^63-1) row round-trips, and the write's peak scratch is far
        below what any table over the columns would take."""
        width = 2 ** 63 - 1
        M = SparseMatrix(1, width, [0, 3], [0, 2 ** 40, width - 1], [1.5, -2.0, 5e-324])
        path = tmp_path / "wide.txt"
        tracemalloc.start()
        try:
            write_matrix(M, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert path.read_text() == (f"1 {width} 3\n"
                                    f"0\t0:1.5 1099511627776:-2.0 {width - 1}:5e-324\n")
        assert read_matrix(path) == M


class TestSvmLabels:
    @pytest.mark.parametrize("labels", [("0", "-0", "1"), ("-0", "0", "1"), ("1", "0.0", "-0.0")])
    def test_signed_zeros_are_one_label(self, tmp_path, labels):
        path = tmp_path / "d.svm"
        path.write_text("".join(f"{lab} 0:1.0\n" for lab in labels))
        _, y = read_svm_file(path)
        assert y.values.tolist() == [1.0 if lab == "1" else -1.0 for lab in labels]

    def test_three_label_values_rejected(self, tmp_path):
        path = tmp_path / "d.svm"
        path.write_text("0 0:1.0\n1 0:1.0\n2 0:1.0\n")
        with pytest.raises(ParseError, match="expected two label values, found 3"):
            read_svm_file(path)


class TestReadSvmFileFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_round_trip_and_one_corrupt_token(self, tmp_path_factory, data):
        _, rows = data.draw(sparse_rows())
        labels = data.draw(st.lists(st.sampled_from(["+1", "-1", "1", "-1.0"]),
                                    min_size=len(rows), max_size=len(rows)))
        lines = [" ".join([lab] + [f"{c}:{v!r}" for c, v in row])
                 for lab, row in zip(labels, rows)]
        path = tmp_path_factory.mktemp("fuzz") / "d.svm"
        path.write_text("\n".join(lines) + "\n")
        width = 1 + max(c for row in rows for c, _ in row)
        T = matrix_of(width, rows)
        for cols in (None, width):
            back, y = read_svm_file(path, cols=cols)
            assert back == T
            assert y.values.tolist() == [float(lab) for lab in labels]

        at = data.draw(st.sampled_from([i for i, row in enumerate(rows) if row]))
        toks = lines[at].split()
        j = data.draw(st.integers(1, len(toks) - 1))  # a feature, never the label
        kind, toks[j] = corrupt(data.draw, toks[j], toks[j - 1] if j > 1 else None, width)
        path.write_text("\n".join(lines[:at] + [" ".join(toks)] + lines[at + 1:]) + "\n",
                        encoding="utf-8")
        # without a width, an index past the training width only widens T
        for cols in (width,) if kind == "out of range" else (None, width):
            with pytest.raises(ParseError) as exc:
                read_svm_file(path, cols=cols)
            assert exc.value.lineno == at + 1


blanks = st.text(st.sampled_from(" \t\x0b\x0c"), max_size=3)
gaps = st.text(st.sampled_from(" \t\x0b\x0c"), min_size=1, max_size=3)
node_ids = st.one_of(st.integers(0, 50), st.integers(0, 2**63 - 1))


class TestReadEdgesFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_fast_path_matches_line_loop(self, tmp_path_factory, data):
        lines, pairs = [], []
        for _ in range(data.draw(st.integers(0, 8), label="lines")):
            if data.draw(st.booleans(), label="blank"):
                lines.append(data.draw(blanks))
                continue
            src, dst = data.draw(node_ids), data.draw(node_ids)
            lead, gap, trail = data.draw(blanks), data.draw(gaps), data.draw(blanks)
            lines.append(f"{lead}{src}{gap}{dst}{trail}")
            pairs.append([src, dst])
        eol = data.draw(st.sampled_from(["\n", "\r\n"]), label="line end")
        ending = data.draw(st.sampled_from(["", eol]), label="last line end")
        path = tmp_path_factory.mktemp("fuzz") / "e.txt"
        path.write_bytes((eol.join(lines) + ending).encode("ascii"))

        text = path.read_text(encoding="ascii")
        assert _PLAIN_EDGES.fullmatch(text)  # read_edges takes the fast path
        fast = read_edges(path)
        assert fast.dtype == np.int64 and fast.shape == (len(pairs), 2)
        assert fast.tolist() == pairs
        assert np.array_equal(fast, _read_edge_lines(path))


# the whitespace numpy's separator skips, and Python whitespace it does not
edge_ws = st.sampled_from(" \t\x0b\x0c\x1c\x1d\x1e\x1f")
edge_seps = st.text(edge_ws, max_size=3)
wide_ids = st.one_of(st.integers(0, 50), st.integers(10**17, 10**20 - 1),
                     st.sampled_from([2**63 - 1, 2**63]))


@st.composite
def edge_files(draw):
    """Edge-list text: pairs of ids of up to 20 digits, some with leading
    zeros, between any whitespace, and blank lines."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            lines.append(draw(edge_seps))
            continue
        src, dst = ("0" * draw(st.integers(0, 3)) + str(draw(wide_ids)) for _ in "sd")
        gap = draw(st.text(edge_ws, min_size=1, max_size=3))
        lines.append(f"{draw(edge_seps)}{src}{gap}{dst}{draw(edge_seps)}")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


class TestReadEdgesNumpyPass:
    @settings(max_examples=300, deadline=None)
    @given(text=edge_files())
    @example(text="")
    @example(text="\n")
    @example(text=" \n\n")
    @example(text=f"0\t{2**63 - 1}\n")
    @example(text=f"0\t{2**63}\n")
    def test_matches_line_loop(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "e.txt"
        path.write_bytes(text.encode("ascii"))
        try:
            expected = _read_edge_lines(path)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                read_edges(path)
            assert str(got.value) == str(exc)
            return
        got = read_edges(path)
        assert got.dtype == np.int64 and got.shape == expected.shape
        assert np.array_equal(got, expected)


class TestPlainEdges:
    """_plain_edges accepts exactly the texts that _PLAIN_EDGES matches whole."""

    @settings(max_examples=500, deadline=None)
    @given(text=st.text(st.sampled_from("0179 \t\x0b\x0c\n\r\x1c-+_a\udc80"), max_size=30))
    @example(text="")
    @example(text="1 2")
    @example(text="\n1 2\n\t3\x0b4 \n\n")
    @example(text="1 2 3\n")
    @example(text="12\n")
    def test_agrees_with_pattern(self, text):
        assert _plain_edges(text) == bool(_PLAIN_EDGES.fullmatch(text))

    @settings(max_examples=150, deadline=None)
    @given(lines=st.lists(st.one_of(blanks, st.builds("{}{}{}{}{}".format, blanks, node_ids, gaps,
                                                      node_ids, blanks)), max_size=8),
           ending=st.sampled_from(["", "\n"]))
    def test_accepts_edge_lists(self, lines, ending):
        text = "\n".join(lines) + ending
        assert _PLAIN_EDGES.fullmatch(text) and _plain_edges(text)

    def test_long_file(self, tmp_path):
        """A 20,000-line edge list is plain, and is not once one line holds
        three ids; read_edges parses either as the line loop does."""
        edges = np.random.default_rng(3).integers(0, 10**6, size=(20_000, 2))
        lines = [f"{src}\t{dst}" for src, dst in edges.tolist()]
        text = "\n".join(lines) + "\n"
        assert _plain_edges(text) and _PLAIN_EDGES.fullmatch(text)
        path = tmp_path / "e.txt"
        path.write_text(text)
        assert np.array_equal(read_edges(path), edges)
        lines[12_345] += " 7"
        text = "\n".join(lines) + "\n"
        assert not _plain_edges(text) and not _PLAIN_EDGES.fullmatch(text)
        path.write_text(text)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:12346: expected 'src dst'"):
            read_edges(path)
