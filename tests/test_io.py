"""The two sparse readers: SVM example files rejected at the offending line,
and fuzzed valid files that must parse back exactly and, with one token
corrupted, fail with a ParseError naming that token's line."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrmul.cli import main
from mrmul.io import (_PLAIN_EDGES, ParseError, _read_edge_lines, read_edges, read_matrix,
                      read_svm_file, write_matrix)
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


CORRUPTIONS = ("nan", "inf", "zero", "x", "negative", "out of range", "repeat", "no colon")


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
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            read_matrix(path)
        assert exc.value.lineno == at + 1


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
        path.write_text("\n".join(lines[:at] + [" ".join(toks)] + lines[at + 1:]) + "\n")
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
        assert np.array_equal(fast, _read_edge_lines(text, path))
