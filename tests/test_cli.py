import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mrmul
from mrmul.bench import JOB_COLUMNS, job_fields
from mrmul.cli import _SUBCOMMANDS, build_parser, main, parse_schema, parse_sparsity
from mrmul.engine import JobError, JobSpec, run_job
from mrmul.io import ParseError, read_matrix, write_matrix
from mrmul.multiply import PartitionSchema, partition_multiply

from conftest import random_sparse

IRIS = os.path.join(os.path.dirname(__file__), "data", "iris_binary.svm")


def run_cli(*args):
    return main([str(a) for a in args])


class TestFlagParsing:
    def test_sparsity_power_notation(self):
        assert parse_sparsity("2^-7") == 2.0 ** -7
        assert parse_sparsity("0.25") == 0.25
        assert parse_sparsity("1") == 1.0

    def test_sparsity_out_of_range(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_sparsity("1.5")

    def test_schema_notation(self):
        assert parse_schema("20x6x20") == PartitionSchema(20, 6, 20)
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_schema("3x4")


class TestGenerate:
    def test_writes_declared_density(self, tmp_path, capsys):
        out = tmp_path / "m.txt"
        assert run_cli("generate", "--m", 128, "--n", 128, "--delta", "2^-3",
                       "--seed", 1, "--out", out) == 0
        M = read_matrix(out)
        assert (M.rows, M.cols) == (128, 128)
        mean = 128 * 128 / 8
        assert abs(M.nnz - mean) < 4 * np.sqrt(mean)

    def test_zero_delta_header(self, tmp_path):
        out = tmp_path / "z.txt"
        run_cli("generate", "--m", 4, "--n", 4, "--delta", "0", "--out", out)
        assert out.read_text().splitlines()[0] == "4 4 0"

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            run_cli("generate", "--m", 32, "--n", 16, "--delta", "0.2",
                    "--seed", 9, "--out", out)
        assert a.read_bytes() == b.read_bytes()


class TestReadMatrix:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = tmp_path / "m.txt"
        path.write_text(f"2 2 3\n0\t0:1.5\n1\t0:2.0 1:{value}\n")
        with pytest.raises(ParseError, match=rf"m\.txt:3: non-finite value") as exc:
            read_matrix(path)
        assert exc.value.lineno == 3

    @pytest.mark.parametrize("value", ["0", "0.0", "-0.0"])
    def test_explicit_zero_rejected(self, tmp_path, value):
        path = tmp_path / "m.txt"
        path.write_text(f"2 2 3\n0\t0:1.5\n1\t0:2.0 1:{value}\n")
        with pytest.raises(ParseError, match=rf"m\.txt:3: explicit zero") as exc:
            read_matrix(path)
        assert exc.value.lineno == 3

    def test_multiply_with_non_finite_input_exits_nonzero(self, tmp_path, capsys):
        af = tmp_path / "a.txt"
        af.write_text("1 1 1\n0\t0:nan\n")
        assert run_cli("multiply", "--a", af, "--b", af, "--out", tmp_path / "c.txt") != 0
        assert "a.txt:2" in capsys.readouterr().err


class TestNonFiniteResult:
    """Finite inputs whose results overflow: the command fails before it
    writes anything."""

    def test_svm_train_with_huge_feature(self, tmp_path, capsys):
        data = tmp_path / "big.svm"
        data.write_text("+1 0:1e200\n-1 0:-1.0\n")
        assert run_cli("svm-train", "--data", data, "--iters", 5,
                       "--out-prefix", tmp_path / "svm_") == 1
        assert "error: non-finite values in the result for" in capsys.readouterr().err
        assert not list(tmp_path.glob("svm_*"))

    def test_nmf_with_huge_values(self, tmp_path, capsys):
        af = tmp_path / "a.txt"
        af.write_text("2 2 4\n0\t0:1e300 1:1e300\n1\t0:1e300 1:1e300\n")
        prefix = tmp_path / "nmf_"
        assert run_cli("nmf", "--input", af, "--k", 1, "--iters", 3, "--out-prefix", prefix) == 1
        err = capsys.readouterr().err
        assert f"error: non-finite values in the result for {prefix}W.txt" in err
        assert not list(tmp_path.glob("nmf_*"))

    def test_multiply_overflow(self, tmp_path, capsys):
        af = tmp_path / "a.txt"
        af.write_text("1 1 1\n0\t0:1e200\n")
        out = tmp_path / "c.txt"
        assert run_cli("multiply", "--a", af, "--b", af, "--out", out) == 1
        assert f"error: non-finite values in the result for {out}" in capsys.readouterr().err
        assert not out.exists()

    def test_svm_predict_overflow(self, tmp_path, capsys):
        data = tmp_path / "big.svm"
        data.write_text("+1 0:1e200\n-1 0:-1.0\n")
        alpha = tmp_path / "alpha.txt"
        alpha.write_text("0.5\n0.5\n")
        scores = tmp_path / "scores.txt"
        assert run_cli("svm-predict", "--data", data, "--alpha", alpha,
                       "--query", data, "--out", scores) == 1
        assert f"error: non-finite values in the result for {scores}" in capsys.readouterr().err
        assert not scores.exists()


class TestMultiply:
    def test_identity_canonical_rewrite(self, tmp_path):
        B = random_sparse(8, 8, 0.4, seed=2)
        ident = tmp_path / "i.txt"
        bfile = tmp_path / "b.txt"
        from mrmul.sparse import SparseMatrix
        write_matrix(SparseMatrix.from_dense(np.eye(8)), ident)
        write_matrix(B, bfile)
        out = tmp_path / "c.txt"
        assert run_cli("multiply", "--a", ident, "--b", bfile, "--schema", "2x2x2",
                       "--out", out) == 0
        assert read_matrix(out) == B

    def test_shard_choice_changes_metrics_not_product(self, tmp_path):
        A = random_sparse(32, 32, 0.3, seed=3)
        B = random_sparse(32, 32, 0.3, seed=4)
        af, bf = tmp_path / "a.txt", tmp_path / "b.txt"
        write_matrix(A, af)
        write_matrix(B, bf)
        outs, metrics = [], []
        for shard in ("naive", "rand"):
            o = tmp_path / f"c_{shard}.txt"
            m = tmp_path / f"m_{shard}.csv"
            assert run_cli("multiply", "--a", af, "--b", bf, "--schema", "4x3x4",
                           "--shard", shard, "--workers", 2, "--out", o,
                           "--metrics", m) == 0
            outs.append(o.read_bytes())
            metrics.append(m.read_text())
        assert outs[0] == outs[1]
        assert metrics[0] != metrics[1]
        # one row per job, under the job columns and the run's own three; the
        # naive shard sums every row where its blocks were multiplied
        cross = []
        for text, shard in zip(metrics, ("naive", "rand")):
            header, *rows = [line.split(",") for line in text.splitlines()]
            assert header == ["stage", "shuffle_bytes", "cross_worker_bytes", "map_ms",
                              "shuffle_ms", "reduce_ms", "scalar_ops", "workers", "schema",
                              "shard"]
            assert [(r[0], r[-3:]) for r in rows] == [
                (stage, ["2", "4x3x4", shard]) for stage in ("partition", "summation")]
            cross.append(int(rows[1][2]))
        assert cross[0] == 0 < cross[1]

    def test_mismatched_shapes_diagnostic_names_both_files(self, tmp_path, capsys):
        A = random_sparse(4, 5, 0.5, seed=5)
        B = random_sparse(4, 5, 0.5, seed=6)
        af, bf = tmp_path / "first.txt", tmp_path / "second.txt"
        write_matrix(A, af)
        write_matrix(B, bf)
        code = run_cli("multiply", "--a", af, "--b", bf, "--out", tmp_path / "c.txt")
        captured = capsys.readouterr()
        assert code != 0
        assert "first.txt" in captured.err and "second.txt" in captured.err

    def test_wide_product_written(self, tmp_path):
        """An 8x2 by 2x2^40 product (TestPartitionMultiply._wide_operands in
        test_multiply.py) writes the C of the dense oracle on B's two
        nonempty columns, the only ones C may hold."""
        from mrmul.sparse import SparseMatrix
        width = 2 ** 40
        A = SparseMatrix(8, 2, np.arange(9), np.arange(8) % 2, np.arange(1.0, 9.0))
        B = SparseMatrix(2, width, [0, 1, 2], [3, width - 1], [0.5, -3.0])
        af, bf, out = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "c.txt"
        write_matrix(A, af)
        write_matrix(B, bf)
        assert run_cli("multiply", "--a", af, "--b", bf, "--schema", "1x1x1",
                       "--out", out) == 0
        cols = np.array([3, width - 1])[np.arange(8) % 2]
        expected = (A.to_dense() @ np.array([[0.5, 0.0], [0.0, -3.0]]))[np.arange(8),
                                                                         np.arange(8) % 2]
        assert read_matrix(out) == SparseMatrix(8, width, np.arange(9), cols, expected)

    def test_rerun_byte_identical(self, tmp_path):
        A = random_sparse(16, 16, 0.5, seed=7)
        af = tmp_path / "a.txt"
        write_matrix(A, af)
        outs = []
        for name in ("c1.txt", "c2.txt"):
            o = tmp_path / name
            run_cli("multiply", "--a", af, "--b", af, "--schema", "2x2x2",
                    "--shard", "rand", "--workers", 4, "--out", o)
            outs.append(o.read_bytes())
        assert outs[0] == outs[1]


class TestMetricsCsv:
    """Every job row, of runs.csv and of multiply --metrics, is job_fields."""

    def test_csv_row_shape(self):
        _, metrics = run_job(JobSpec(str.upper, workers=2, name="upper"), ["a", "b"])
        parts = job_fields(metrics)
        assert parts[0] == "upper"
        assert len(parts) == len(JOB_COLUMNS) == 7


class TestNmf:
    def test_divergence_csv_non_increasing(self, tmp_path):
        A = random_sparse(40, 30, 0.3, seed=8)
        af = tmp_path / "a.txt"
        write_matrix(A, af)
        prefix = str(tmp_path / "nmf_")
        assert run_cli("nmf", "--input", af, "--k", 4, "--iters", 15,
                       "--out-prefix", prefix) == 0
        lines = (tmp_path / "nmf_divergence.csv").read_text().splitlines()[1:]
        values = [float(line.split(",")[1]) for line in lines]
        assert len(values) == 16
        assert all(values[i + 1] <= values[i] + 1e-9 for i in range(len(values) - 1))
        W = read_matrix(tmp_path / "nmf_W.txt")
        H = read_matrix(tmp_path / "nmf_H.txt")
        assert (W.rows, W.cols) == (40, 4)
        assert (H.rows, H.cols) == (4, 30)

    def test_timings_csv_has_three_components(self, tmp_path):
        A = random_sparse(12, 10, 0.5, seed=9)
        af = tmp_path / "a.txt"
        write_matrix(A, af)
        run_cli("nmf", "--input", af, "--k", 2, "--iters", 2,
                "--out-prefix", str(tmp_path / "x_"))
        lines = (tmp_path / "x_timings.csv").read_text().splitlines()
        assert lines[0] == "iter,component,ms"
        components = {line.split(",")[1] for line in lines[1:]}
        assert components == {"X=WtA", "Y=WtWH", "H=H.*X./Y"}

    def test_reruns_byte_identical(self, tmp_path):
        af = tmp_path / "a.txt"
        write_matrix(random_sparse(20, 15, 0.4, seed=10), af)
        for run in ("one_", "two_"):
            assert run_cli("nmf", "--input", af, "--k", 3, "--iters", 4, "--seed", 6,
                           "--out-prefix", tmp_path / run) == 0
        for name in ("W.txt", "H.txt", "divergence.csv"):
            assert (tmp_path / f"one_{name}").read_bytes() == (tmp_path / f"two_{name}").read_bytes()


class TestSvm:
    def test_train_and_predict_round_trip(self, tmp_path, capsys):
        data = tmp_path / "toy.svm"
        data.write_text("+1 0:1.0\n-1 0:-1.0\n")
        prefix = str(tmp_path / "svm_")
        assert run_cli("svm-train", "--data", data, "--eta", 0.1, "--c", 10,
                       "--iters", 200, "--out-prefix", prefix) == 0
        out = capsys.readouterr().out
        assert "training accuracy 1.0000" in out
        alphas = [float(x) for x in (tmp_path / "svm_alpha.txt").read_text().split()]
        assert alphas == pytest.approx([0.5, 0.5], abs=1e-6)

        scores = tmp_path / "scores.txt"
        assert run_cli("svm-predict", "--data", data, "--alpha", tmp_path / "svm_alpha.txt",
                       "--query", data, "--out", scores) == 0
        values = [float(x) for x in scores.read_text().split()]
        assert np.sign(values).tolist() == [1.0, -1.0]

    def test_zero_score_written_unsigned(self, tmp_path):
        # alpha_0 = 0 with y_0 = -1 makes every term of the first score -0.0
        data = tmp_path / "toy.svm"
        data.write_text("-1 0:1.0\n+1 1:1.0\n")
        alpha = tmp_path / "alpha.txt"
        alpha.write_text("0\n0.5\n")
        scores = tmp_path / "scores.txt"
        assert run_cli("svm-predict", "--data", data, "--alpha", alpha,
                       "--query", data, "--out", scores) == 0
        assert scores.read_text() == "0.0\n0.5\n"

    @pytest.mark.parametrize("alphas,lineno", [("0.5\nnan\n", 2), ("nan\n0.5\n", 1),
                                              ("0.5\n-0.25\n", 2)])
    def test_bad_alpha_rejected(self, tmp_path, capsys, alphas, lineno):
        data = tmp_path / "toy.svm"
        data.write_text("+1 0:1.0\n-1 0:-1.0\n")
        alpha = tmp_path / "alpha.txt"
        alpha.write_text(alphas)
        scores = tmp_path / "scores.txt"
        assert run_cli("svm-predict", "--data", data, "--alpha", alpha,
                       "--query", data, "--out", scores) != 0
        err = capsys.readouterr().err
        assert f"alpha.txt:{lineno}: alpha must be finite and >= 0" in err
        assert "--c" not in err and "C must" not in err
        assert not scores.exists()

    @pytest.mark.parametrize("flag,value", [("--eta", "nan"), ("--eta", "inf"),
                                            ("--c", "nan"), ("--c", "inf")])
    def test_non_finite_step_or_bound_rejected(self, tmp_path, capsys, flag, value):
        data = tmp_path / "toy.svm"
        data.write_text("+1 0:1.0\n-1 0:-1.0\n")
        prefix = tmp_path / "svm_"
        assert run_cli("svm-train", "--data", data, flag, value, "--iters", 5,
                       "--out-prefix", prefix) != 0
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "svm_alpha.txt").exists()

    @pytest.mark.parametrize("eta,warns", [("0.001", True), ("1e-4", False)])
    def test_falling_objective_warns(self, tmp_path, capsys, eta, warns):
        prefix = tmp_path / "svm_"
        assert run_cli("svm-train", "--data", IRIS, "--eta", eta, "--iters", 20,
                       "--out-prefix", prefix) == 0
        err = capsys.readouterr().err
        if warns:
            assert err.startswith("warning: the dual objective fell at iteration 1 (0.0 -> -0.02")
            assert err.endswith("try a --eta smaller than 0.001\n") and err.count("\n") == 1
        else:
            assert err == ""
        assert (tmp_path / "svm_alpha.txt").exists()

    def test_wide_sparse_outputs_identical_across_workers(self, tmp_path):
        # more features than examples, and one example with none
        rng = np.random.default_rng(5)
        lines = []
        for i in range(30):
            cols = np.sort(rng.choice(400, size=0 if i == 7 else int(rng.integers(1, 8)),
                                      replace=False))
            feats = "".join(f" {c}:{rng.random():.4f}" for c in cols)
            lines.append(("+1" if i % 2 else "-1") + feats)
        data = tmp_path / "wide.svm"
        data.write_text("\n".join(lines) + "\n")
        outputs = {}
        for w in (1, 2, 3, 8):
            prefix = tmp_path / f"w{w}_"
            assert run_cli("svm-train", "--data", data, "--eta", 0.01, "--iters", 30,
                           "--workers", w, "--out-prefix", prefix) == 0
            outputs[w] = [(tmp_path / f"w{w}_{f}").read_bytes()
                          for f in ("alpha.txt", "objective.csv")]
        assert all(outputs[w] == outputs[1] for w in (2, 3, 8))

    def test_train_transposes_examples_once(self, tmp_path, monkeypatch):
        # training and the training-accuracy prediction share one transpose(T)
        import mrmul.svm as svm
        real, calls = svm.transpose, []
        monkeypatch.setattr(svm, "transpose", lambda M: calls.append(M.shape) or real(M))
        assert run_cli("svm-train", "--data", IRIS, "--eta", 1e-4, "--iters", 5,
                       "--out-prefix", tmp_path / "svm_") == 0
        assert len(calls) == 1

    def test_train_cuts_examples_once(self, tmp_path, cuts):
        # the training-accuracy prediction reuses the solve's row blocks of T
        assert run_cli("svm-train", "--data", IRIS, "--eta", 1e-4, "--iters", 5,
                       "--workers", 2, "--out-prefix", tmp_path / "svm_") == 0
        # the first step's w = Tt q is formed before T multiplies it
        assert [(A.shape, w) for A, w in cuts] == [((4, 150), 2), ((150, 4), 2)]

    def test_predict_cuts_only_multiplied_operands(self, tmp_path, cuts):
        # prediction multiplies Tt and the query, and never cuts T
        alpha = tmp_path / "alpha.txt"
        alpha.write_text("0.25\n" * 150)
        assert run_cli("svm-predict", "--data", IRIS, "--alpha", alpha, "--query", IRIS,
                       "--workers", 2, "--out", tmp_path / "scores.txt") == 0
        assert [(A.shape, w) for A, w in cuts] == [((4, 150), 2), ((150, 4), 2)]

    def test_objective_history_written(self, tmp_path):
        data = tmp_path / "toy.svm"
        data.write_text("+1 0:1.0\n-1 0:-1.0\n")
        run_cli("svm-train", "--data", data, "--eta", 0.1, "--iters", 5,
                "--out-prefix", str(tmp_path / "s_"))
        lines = (tmp_path / "s_objective.csv").read_text().splitlines()
        assert lines[0] == "iter,value"
        assert len(lines) == 7  # header + initial + 5 iterations


class TestPagerank:
    def test_two_node_cycle_ranks_file(self, tmp_path):
        edges = tmp_path / "e.txt"
        edges.write_text("0\t1\n1\t0\n")
        prefix = str(tmp_path / "pr_")
        assert run_cli("pagerank", "--edges", edges, "--damping", 1.0,
                       "--out-prefix", prefix) == 0
        assert (tmp_path / "pr_ranks.csv").read_text() == "0,0.5\n1,0.5\n"

    def test_ranks_sorted_descending(self, tmp_path):
        edges = tmp_path / "e.txt"
        edges.write_text("0\t1\n1\t2\n2\t0\n1\t0\n")
        run_cli("pagerank", "--edges", edges, "--out-prefix", str(tmp_path / "p_"))
        vals = [float(line.split(",")[1])
                for line in (tmp_path / "p_ranks.csv").read_text().splitlines()]
        assert vals == sorted(vals, reverse=True)
        pi = [float(line.split(",")[1])
              for line in (tmp_path / "p_pi.csv").read_text().splitlines()]
        assert sum(pi) == pytest.approx(1.0, abs=1e-10)

    # 1 and 2 tie, and so do 0 and the dangling node 4
    TIED_PI = ("0,0.19650005684423968\n1,0.14691753342915873\n2,0.14691753342915873\n"
               "3,0.31316481945320335\n4,0.19650005684423968\n")
    TIED_RANKS = ("3,0.31316481945320335\n0,0.19650005684423968\n4,0.19650005684423968\n"
                  "1,0.14691753342915873\n2,0.14691753342915873\n")

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_ranks_are_pi_lines_by_rank_then_node(self, tmp_path, workers):
        edges = tmp_path / "e.txt"
        edges.write_text("0\t1\n0\t2\n1\t3\n2\t3\n3\t0\n3\t4\n")
        assert run_cli("pagerank", "--edges", edges, "--workers", workers,
                       "--out-prefix", tmp_path / "p_") == 0
        pi = (tmp_path / "p_pi.csv").read_text()
        ranks = (tmp_path / "p_ranks.csv").read_text()
        lines = pi.splitlines(keepends=True)
        by_rank = sorted(lines, key=lambda line: (-float(line.split(",")[1]),
                                                  int(line.split(",")[0])))
        assert ranks == "".join(by_rank)
        assert (pi, ranks) == (self.TIED_PI, self.TIED_RANKS)

    def test_bad_edge_file_errors(self, tmp_path, capsys):
        edges = tmp_path / "e.txt"
        edges.write_text("0\t1\nnot an edge line here\n")
        assert run_cli("pagerank", "--edges", edges,
                       "--out-prefix", str(tmp_path / "p_")) != 0
        assert "error" in capsys.readouterr().err


class TestBenchScaling:
    def test_small_grid_emits_csvs(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert run_cli("bench-scaling", "--sizes", "32,64", "--deltas", "2^-3",
                       "--schemas", "2x2x2", "--shards", "naive,rand",
                       "--workers-list", "1,2", "--out-dir", out) == 0
        runs = (out / "runs.csv").read_text().splitlines()
        assert runs[0] == ("size,delta,schema,shard,workers,stage,shuffle_bytes,"
                           "cross_worker_bytes,map_ms,shuffle_ms,reduce_ms,scalar_ops,"
                           "elapsed_ms,nnz_a,nnz_b,nnz_c")
        # 2 sizes x 2 shards x 2 worker counts, each cell two stage rows and a
        # total row, which sums them and alone has an elapsed_ms
        assert len(runs) == 1 + 2 * 2 * 2 * 3
        for at in range(1, len(runs), 3):
            stages = [row.split(",") for row in runs[at:at + 2]]
            total = runs[at + 2].split(",")
            assert [r[5] for r in stages] == ["partition", "summation"] and total[5] == "total"
            for col in (6, 7, 11):  # shuffle_bytes, cross_worker_bytes, scalar_ops
                assert int(total[col]) == sum(int(r[col]) for r in stages)
            assert [r[12] for r in stages] == ["", ""] and float(total[12]) > 0
        fits = (out / "fits.csv").read_text().splitlines()
        assert any(line.startswith("slope_scalar_ops_vs_m") for line in fits)
        assert any(line.startswith("speedup_") for line in fits)

    @pytest.mark.parametrize("flag, value, message", [
        ("--workers-list", "0,1", "error: workers must each be >= 1, got (0, 1)\n"),
        ("--workers-list", "-1", "error: workers must each be >= 1, got (-1,)\n"),
        ("--sizes", "0,32", "error: sizes must each be >= 1, got (0, 32)\n"),
    ], ids=["workers-0,1", "workers--1", "sizes-0,32"])
    def test_impossible_grid_writes_nothing(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "bench"
        # the later of two equal flags wins
        assert run_cli("bench-scaling", "--sizes", "32", "--deltas", "2^-3", "--schemas", "2x2x2",
                       "--out-dir", out, flag, value) == 1
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_fits_without_rows_has_no_blank_line(self, tmp_path, capsys):
        # one size has no slope and one delta no correlation; zero scalar ops
        # have no logarithm and a correlation against a constant no value:
        # none of them may be written, as a blank line or as nan
        for i, (sizes, deltas) in enumerate([("32", "2^-3"), ("32,64", "0"), ("32", "0,0")]):
            out = tmp_path / f"bench{i}"
            assert run_cli("bench-scaling", "--sizes", sizes, "--deltas", deltas,
                           "--schemas", "2x2x2", "--out-dir", out) == 0
            assert (out / "fits.csv").read_text() == "metric,value\n", (sizes, deltas)
            assert "\n\n" not in (out / "runs.csv").read_text()
            assert "nan" not in capsys.readouterr().out

    def test_failed_cell_exits_nonzero(self, tmp_path, capsys):
        # a schema finer than 8 x 8 fails its cell: the grid still runs the
        # next cell and writes both files, names the failure, and exits 1
        out = tmp_path / "bench"
        assert run_cli("bench-scaling", "--sizes", "8", "--deltas", "0.5",
                       "--schemas", "9x1x1,2x1x2", "--out-dir", out) == 1
        assert capsys.readouterr().err == (
            "error: cell 8,0.5,9x1x1,naive,1: "
            "schema 9x1x1 out of bounds for 8x8 times 8x8\n")
        runs = (out / "runs.csv").read_text().splitlines()
        assert runs[1].startswith("8,0.5,9x1x1,naive,1,error:ValueError,")
        assert runs[-1].startswith("8,0.5,2x1x2,naive,1,total,")
        assert (out / "fits.csv").read_text() == "metric,value\n"


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=9\nm=32\nn=16\ndelta=0.2\n")
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        assert run_cli("generate", "--config", cfg, "--out", a) == 0
        assert run_cli("generate", "--m", 32, "--n", 16, "--delta", "0.2",
                       "--seed", 9, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()
        # explicit flag wins over the config value
        c = tmp_path / "c.txt"
        assert run_cli("generate", "--config", cfg, "--seed", 10, "--out", c) == 0
        assert c.read_bytes() != a.read_bytes()

    def test_utf8_config_read(self, tmp_path):
        # valid UTF-8 beyond ASCII, in a comment and in a path, is read
        cfg = tmp_path / "run.cfg"
        got = tmp_path / "caf\u00e9.txt"
        cfg.write_bytes(f"# caf\u00e9\nm=3\nn=2\ndelta=1\nout={got}\n".encode("utf-8"))
        assert run_cli("generate", "--config", cfg) == 0
        want = tmp_path / "want.txt"
        assert run_cli("generate", "--m", 3, "--n", 2, "--delta", 1, "--out", want) == 0
        assert got.read_bytes() == want.read_bytes()

    def test_missing_config_errors(self, tmp_path, capsys):
        assert run_cli("generate", "--config", tmp_path / "absent.cfg",
                       "--m", 2, "--n", 2, "--delta", "1",
                       "--out", tmp_path / "x.txt") == 1
        assert "config" in capsys.readouterr().err


class TestFlagScope:
    """A subcommand takes --seed and --workers only if it reads them."""

    def test_pagerank_rejects_seed(self, tmp_path, capsys):
        edges = tmp_path / "e.txt"
        edges.write_text("0\t1\n1\t0\n")
        with pytest.raises(SystemExit) as exc:
            run_cli("pagerank", "--edges", edges, "--seed", 1, "--out-prefix", tmp_path / "pr_")
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not list(tmp_path.glob("pr_*"))

    def test_bench_scaling_rejects_workers(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("bench-scaling", "--sizes", "32", "--workers", 2,
                    "--out-dir", tmp_path / "bench")
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        assert not (tmp_path / "bench").exists()

    def test_generate_rejects_workers(self, tmp_path, capsys):
        out = tmp_path / "a.txt"
        with pytest.raises(SystemExit) as exc:
            run_cli("generate", "--m", 4, "--n", 4, "--delta", "0.5", "--workers", 2,
                    "--out", out)
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        assert not out.exists()


class TestExactFlags:
    """A flag, or a config key, matches only when spelled in full; --config
    is read wherever it stands on the line."""

    def _argv(self, tmp_path, command):
        """Full flags that make command run, each output under tmp_path/out*."""
        a = tmp_path / "a.txt"
        write_matrix(random_sparse(6, 6, 0.5, 1), a)
        edges = tmp_path / "e.txt"
        edges.write_text("0\t1\n1\t0\n")
        alpha = tmp_path / "alpha.txt"
        alpha.write_text("0.5\n0.5\n")
        svm = tmp_path / "d.svm"
        svm.write_text("+1 0:1.0\n-1 0:-1.0\n")
        return {
            "generate": ["--m", 2, "--n", 2, "--delta", 1, "--out", tmp_path / "out.txt"],
            "multiply": ["--a", a, "--b", a, "--out", tmp_path / "out.txt"],
            "nmf": ["--input", a, "--k", 1, "--iters", 1, "--out-prefix", tmp_path / "out_"],
            "svm-train": ["--data", svm, "--iters", 1, "--out-prefix", tmp_path / "out_"],
            "svm-predict": ["--data", svm, "--alpha", alpha, "--query", svm,
                            "--out", tmp_path / "out.txt"],
            "pagerank": ["--edges", edges, "--out-prefix", tmp_path / "out_"],
            "bench-scaling": ["--sizes", 8, "--deltas", 0.5, "--schemas", "1x1x1",
                              "--out-dir", tmp_path / "out"],
        }[command]

    @pytest.mark.parametrize("command, flag, value", [
        ("generate", "--conf", "bad.cfg"),
        ("generate", "--see", 3),
        ("multiply", "--sch", "2x1x2"),
        ("nmf", "--out", "P"),
        ("svm-train", "--et", 0.1),
        ("svm-predict", "--work", 2),
        ("pagerank", "--work", 2),
        ("bench-scaling", "--shard", "rand"),
    ])
    def test_abbreviated_flag_refused(self, tmp_path, capsys, command, flag, value):
        # the config file would be refused if it were read
        (tmp_path / "bad.cfg").write_text("m 2\n")
        argv = self._argv(tmp_path, command)
        assert run_cli(command, *argv) == 0
        for out in tmp_path.glob("out*"):
            out.rename(tmp_path / f"full_{out.name}")
        capsys.readouterr()
        value = tmp_path / value if flag == "--conf" else value
        with pytest.raises(SystemExit) as exc:
            run_cli(command, *argv, flag, value)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not list(tmp_path.glob("out*"))

    def test_abbreviated_config_key_refused(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("see=3\n")
        out = tmp_path / "x.txt"
        with pytest.raises(SystemExit) as exc:
            run_cli("generate", "--config", cfg, "--m", 2, "--n", 2, "--delta", 1, "--out", out)
        assert exc.value.code == 2
        assert "unrecognized arguments: --see=3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("placement", ["after", "equals", "before"])
    def test_config_read_wherever_it_stands(self, tmp_path, placement):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=9\nm=32\nn=16\ndelta=0.2\n")
        want, got = tmp_path / "want.txt", tmp_path / "got.txt"
        assert run_cli("generate", "--m", 32, "--n", 16, "--delta", "0.2", "--seed", 9,
                       "--out", want) == 0
        argv = {
            "after": ["generate", "--out", got, "--config", cfg],
            "equals": ["generate", f"--config={cfg}", "--out", got],
            "before": ["--config", cfg, "generate", "--out", got],
        }[placement]
        assert run_cli(*argv) == 0
        assert got.read_bytes() == want.read_bytes()

    def test_config_without_value(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        with pytest.raises(SystemExit) as exc:
            run_cli("generate", "--m", 2, "--n", 2, "--delta", 1, "--out", out, "--config")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: mrmul") and "--config: expected one argument" in err
        assert not out.exists()

    def test_c_is_not_config(self, tmp_path):
        # --c is the SVM's box bound, never a shortening of --config
        data = tmp_path / "toy.svm"
        data.write_text("+1 0:1.0\n-1 0:-1.0\n")
        assert run_cli("svm-train", "--data", data, "--eta", 0.1, "--c", 0.25,
                       "--iters", 200, "--out-prefix", tmp_path / "svm_") == 0
        alphas = [float(x) for x in (tmp_path / "svm_alpha.txt").read_text().split()]
        assert alphas == [0.25, 0.25]


class TestImpossibleFlags:
    """A solver flag outside its range fails before any output is written."""

    def test_nmf_negative_iters(self, tmp_path, capsys):
        af = tmp_path / "a.txt"
        af.write_text("2 2 3\n0\t0:1.0 1:2.0\n1\t1:3.0\n")
        assert run_cli("nmf", "--input", af, "--k", 1, "--iters", -1,
                       "--out-prefix", tmp_path / "nmf_") == 1
        assert "iters must be >= 0" in capsys.readouterr().err
        assert not list(tmp_path.glob("nmf_*"))

    def test_pagerank_negative_max_iters(self, tmp_path, capsys):
        edges = tmp_path / "e.txt"
        edges.write_text("0\t1\n1\t0\n")
        assert run_cli("pagerank", "--edges", edges, "--max-iters", -3,
                       "--out-prefix", tmp_path / "pr_") == 1
        assert "max_iters must be >= 0" in capsys.readouterr().err
        assert not list(tmp_path.glob("pr_*"))

    def test_pagerank_zero_nodes(self, tmp_path, capsys):
        edges = tmp_path / "e.txt"
        edges.write_text("0\t1\n1\t0\n")
        assert run_cli("pagerank", "--edges", edges, "--nodes", 0,
                       "--out-prefix", tmp_path / "pr_") == 1
        assert "N must be >= 1" in capsys.readouterr().err
        assert not list(tmp_path.glob("pr_*"))

    def test_pagerank_nan_tol(self, tmp_path, capsys):
        edges = tmp_path / "e.txt"
        edges.write_text("0\t1\n1\t0\n")
        assert run_cli("pagerank", "--edges", edges, "--tol", "nan",
                       "--out-prefix", tmp_path / "pr_") == 1
        assert "tol must be > 0" in capsys.readouterr().err
        assert not list(tmp_path.glob("pr_*"))

    @pytest.mark.parametrize("command", ["pagerank", "nmf", "svm-predict"])
    def test_zero_workers(self, tmp_path, capsys, command):
        if command == "pagerank":
            edges = tmp_path / "e.txt"
            edges.write_text("0\t1\n1\t0\n")
            args = ["--edges", edges, "--out-prefix", tmp_path / "out_"]
        elif command == "nmf":
            af = tmp_path / "a.txt"
            af.write_text("2 2 3\n0\t0:1.0 1:2.0\n1\t1:3.0\n")
            args = ["--input", af, "--k", 1, "--iters", 2, "--out-prefix", tmp_path / "out_"]
        else:
            alpha = tmp_path / "alpha.txt"
            with open(IRIS, encoding="ascii") as fh:
                alpha.write_text("0.5\n" * len(fh.readlines()))
            args = ["--data", IRIS, "--alpha", alpha, "--query", IRIS,
                    "--out", tmp_path / "out_scores.txt"]
        assert run_cli(command, *args, "--workers", 0) == 1
        assert capsys.readouterr().err == "error: workers must be >= 1\n"
        assert not list(tmp_path.glob("out_*"))

    @pytest.mark.parametrize("command", ["pagerank", "bench-scaling"])
    def test_workers_above_bound(self, tmp_path, capsys, command):
        # each job sizes a list by the worker count; past 2^20 it is refused
        # before any input is read
        if command == "pagerank":
            args = ["--edges", tmp_path / "absent.txt", "--workers", 2 ** 20 + 1,
                    "--out-prefix", tmp_path / "out_"]
        else:
            args = ["--sizes", 8, "--workers-list", f"1,{2 ** 20 + 1}",
                    "--out-dir", tmp_path / "out_bench"]
        assert run_cli(command, *args) == 1
        assert capsys.readouterr().err == "error: workers must be <= 1048576\n"
        assert not list(tmp_path.glob("out_*"))


def _huge_matrix(path, n):
    path.write_text(f"{n} {n} {n * n}\n" + "".join(
        f"{i}\t" + " ".join(f"{j}:1e308" for j in range(n)) + "\n" for i in range(n)))
    return path


def run_cli_quietly(*args):
    """run_cli, also returning the RuntimeWarnings issued on any thread."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_cli(*args)
    return rc, [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestNoFloatingPointWarnings:
    """A result that overflows is reported once, by the non-finite check:
    numpy's own floating-point warnings stay silent, on the engine's pool
    threads too."""

    @pytest.mark.parametrize("n, schema, workers", [(2, "1x1x1", 1),
                                                    # 64000 products in 3 blocks:
                                                    # the summation map runs on threads
                                                    (40, "1x1x3", 3)])
    def test_multiply(self, tmp_path, capsys, n, schema, workers):
        a = _huge_matrix(tmp_path / "a.txt", n)
        out = tmp_path / "c.txt"
        rc, caught = run_cli_quietly("multiply", "--a", a, "--b", a, "--schema", schema,
                                     "--shard", "rand", "--workers", workers, "--out", out)
        err = capsys.readouterr().err
        assert rc == 1 and not out.exists()
        assert f"error: non-finite values in the result for {out}" in err
        assert not caught and "RuntimeWarning" not in err

    def test_nmf(self, tmp_path, capsys):
        a = _huge_matrix(tmp_path / "a.txt", 2)
        prefix = tmp_path / "nmf_"
        rc, caught = run_cli_quietly("nmf", "--input", a, "--k", 1, "--iters", 3,
                                     "--workers", 3, "--out-prefix", prefix)
        err = capsys.readouterr().err
        assert rc == 1 and not list(tmp_path.glob("nmf_*"))
        assert f"error: non-finite values in the result for {prefix}W.txt" in err
        assert not caught and "RuntimeWarning" not in err

    def test_svm_train(self, tmp_path, capsys):
        data = tmp_path / "big.svm"
        data.write_text("+1 0:1e200 1:1e200\n-1 0:-1e200\n")
        rc, caught = run_cli_quietly("svm-train", "--data", data, "--iters", 5,
                                     "--workers", 3, "--out-prefix", tmp_path / "svm_")
        err = capsys.readouterr().err
        assert rc == 1 and not list(tmp_path.glob("svm_*"))
        assert "error: non-finite values in the result for" in err
        assert not caught and "RuntimeWarning" not in err

    def test_pagerank(self, tmp_path, capsys):
        # PageRank's values stay within [0, 1]: a graph with a dangling node
        # and an unlinked one runs clean, with no warning
        edges = tmp_path / "edges.txt"
        edges.write_text("0\t1\n0\t2\n1\t2\n2\t0\n3\t2\n4\t3\n4\t5\n6\t4\n")
        rc, caught = run_cli_quietly("pagerank", "--edges", edges, "--workers", 3,
                                     "--out-prefix", tmp_path / "pr_")
        err = capsys.readouterr().err
        assert rc == 0 and (tmp_path / "pr_pi.csv").exists()
        assert not caught and "RuntimeWarning" not in err


class TestErrorLinesNotTracebacks:
    """Bad input the command line cannot use ends in one error line and
    writes nothing."""

    @pytest.mark.parametrize("content, diagnostic", [
        (b"m 2\n", ":1: expected key=value, got 'm 2'"),
        (b"m=2\n# caf\xe9\n", ":2: byte 0xe9 is not UTF-8"),
        (b"m=2\r# caf\xe9\r", ":2: byte 0xe9 is not UTF-8"),
        (b"m=2\nconfig=other.cfg\n", ":2: a config file cannot name another config file"),
    ], ids=["no_equals", "not_utf8", "not_utf8_cr", "nested_config"])
    def test_malformed_config_file(self, tmp_path, capsys, content, diagnostic):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(content)
        out = tmp_path / "x.txt"
        assert run_cli("generate", "--config", cfg, "--n", 2, "--delta", "1", "--out", out) == 1
        assert capsys.readouterr().err == f"error: {cfg}{diagnostic}\n"
        assert not out.exists()

    # only LF, CRLF and CR end a config line, as they end a data file's: the
    # m value here is "2<sep>n=3", which no integer parse accepts
    @pytest.mark.parametrize("sep", ["\f", "\v", "\x1c", "\x85", "\u2028"],
                             ids=["ff", "vt", "fs", "nel", "ls"])
    def test_config_line_ends_only_at_newlines(self, tmp_path, capsys, sep):
        cfg = tmp_path / "sep.cfg"
        cfg.write_bytes(f"m=2{sep}n=3\n".encode("utf-8"))
        out = tmp_path / "x.txt"
        with pytest.raises(SystemExit) as exc:
            run_cli("generate", "--config", cfg, "--delta", "1", "--out", out)
        assert exc.value.code == 2
        assert "argument --m: invalid int value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ("generate", "--m", 2, "--n", 2, "--delta", "10^400"),
        ("generate", "--m", 2, "--n", 2, "--delta", "0^-1"),
        ("bench-scaling", "--sizes", 32, "--deltas", "2^-3,10^400"),
    ], ids=["overflow", "zero_division", "bench_scaling_list"])
    def test_power_notation_out_of_float_range(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        flag = "--out-dir" if args[0] == "bench-scaling" else "--out"
        with pytest.raises(SystemExit) as exc:
            run_cli(*args, flag, out)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "is not a finite number" in err
        assert not out.exists()

    def test_impossible_size(self, tmp_path, capsys, monkeypatch):
        message = ("Unable to allocate 7.28 TiB for an array with shape "
                   "(1000000000000,) and data type int64")

        def refuse(edges, d, N):
            raise MemoryError(message)

        monkeypatch.setattr("mrmul.cli.pagerank_build", refuse)
        edges = tmp_path / "e.txt"
        edges.write_text("0\t1\n1\t0\n")
        assert run_cli("pagerank", "--edges", edges, "--nodes", 10 ** 12,
                       "--out-prefix", tmp_path / "pr_") == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.glob("pr_*"))


    def test_map_failure_is_one_bounded_line(self, tmp_path, capsys, monkeypatch):
        # a block product that runs out of memory fails the summation map on
        # a worker's whole input record; a record whose repr runs past a
        # megabyte is tested in test_engine
        def refuse(blk, accumulate):
            raise MemoryError("no room for the block product")

        monkeypatch.setattr("mrmul.multiply._sparse_product", refuse)
        A = random_sparse(300, 300, 0.05, seed=51)
        B = random_sparse(300, 300, 0.05, seed=52)
        with pytest.raises(JobError) as exc:
            partition_multiply(A, B, PartitionSchema(20, 6, 20), "rand", 2)
        assert exc.value.stage == "summation/map"
        af, bf, out = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "c.txt"
        write_matrix(A, af)
        write_matrix(B, bf)
        assert run_cli("multiply", "--a", af, "--b", bf, "--schema", "20x6x20",
                       "--shard", "rand", "--workers", 2, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: summation/map failed on key (")
        assert err.endswith(": MemoryError('no room for the block product')\n")
        assert err.count("\n") == 1 and len(err) <= 1024
        assert not out.exists()

    @pytest.mark.parametrize("command", ["multiply", "svm-predict", "pagerank"])
    def test_command_refusal_is_one_line(self, tmp_path, capsys, command):
        # checks a command makes on its own inputs end as every error does
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_matrix(random_sparse(4, 5, 0.5, seed=5), a)
        write_matrix(random_sparse(4, 5, 0.5, seed=6), b)
        alpha = tmp_path / "alpha.txt"
        alpha.write_text("0.5\n")
        edges = tmp_path / "e.txt"
        edges.write_text("\n")
        argv, message = {
            "multiply": (["--a", a, "--b", b, "--out", tmp_path / "out"],
                         f"cannot multiply {a} (4x5) by {b} (4x5): inner dimensions differ"),
            "svm-predict": (["--data", IRIS, "--alpha", alpha, "--query", IRIS,
                             "--out", tmp_path / "out"],
                            f"{alpha} has 1 values for 150 examples in {IRIS}"),
            "pagerank": (["--edges", edges, "--out-prefix", tmp_path / "out"],
                         "empty graph and no --nodes given"),
        }[command]
        assert run_cli(command, *argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.glob("out*"))


class TestFailedCommandLeavesNoFile:
    """A command whose later write fails removes the files it wrote before,
    so exit 1 leaves none of its result files."""

    def _fails_cleanly(self, capsys, argv, out_dir, kept=()):
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(kept)

    def test_multiply_metrics_in_missing_dir(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        write_matrix(random_sparse(30, 30, 0.3, seed=3), a)
        out = tmp_path / "out"
        out.mkdir()
        self._fails_cleanly(capsys, ["multiply", "--a", a, "--b", a, "--schema", "2x2x2",
                                     "--out", out / "c.txt",
                                     "--metrics", out / "missing" / "m.csv"], out)

    def test_nmf_timings_path_is_a_directory(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        write_matrix(random_sparse(8, 6, 0.5, seed=4), a)
        out = tmp_path / "out"
        (out / "nmf_timings.csv").mkdir(parents=True)
        self._fails_cleanly(capsys, ["nmf", "--input", a, "--k", 2, "--iters", 2,
                                     "--out-prefix", out / "nmf_"], out, ["nmf_timings.csv"])

    def test_pagerank_ranks_path_is_a_directory(self, tmp_path, capsys):
        edges = tmp_path / "e.txt"
        edges.write_text("0\t1\n1\t2\n2\t0\n")
        out = tmp_path / "out"
        (out / "pr_ranks.csv").mkdir(parents=True)
        self._fails_cleanly(capsys, ["pagerank", "--edges", edges, "--out-prefix", out / "pr_"],
                            out, ["pr_ranks.csv"])


_BROADCAST_COMMANDS = ("nmf", "svm-train", "svm-predict", "pagerank")


class TestFailureInEveryJob:
    """A mapper or reducer that raises, in any job of any command, ends the
    command with one bounded error line naming the job's stage, and no file.
    The broadcast jobs are map-only, so they have no reducer to fail."""

    @pytest.mark.parametrize("exc_type", [MemoryError, ValueError])
    @pytest.mark.parametrize("command, stage, phase", [
        ("multiply", "partition", "map"), ("multiply", "partition", "reduce"),
        ("multiply", "summation", "map"), ("multiply", "summation", "reduce"),
        *[(command, "broadcast-multiply", "map") for command in _BROADCAST_COMMANDS],
    ])
    def test_one_bounded_line_and_no_file(self, tmp_path, capsys, monkeypatch, command, stage,
                                          phase, exc_type):
        import mrmul.multiply as mm
        real_run_job = mm.run_job

        def fail(*args):
            raise exc_type(f"injected into {stage}/{phase}")

        role = {"map": "mapper", "reduce": "reducer"}[phase]

        def run_job(spec, records):
            if spec.name == stage:
                spec = dataclasses.replace(spec, **{role: fail})
            return real_run_job(spec, records)

        out = tmp_path / "out"
        out.mkdir()
        monkeypatch.setattr(mm, "run_job", run_job)
        assert run_cli(command, *self._argv(tmp_path, command, out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {stage}/{phase} failed on key ")
        assert err.endswith(f": {exc_type.__name__}('injected into {stage}/{phase}')\n")
        assert err.count("\n") == 1 and len(err) <= 1024
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", _BROADCAST_COMMANDS)
    def test_broadcast_jobs_are_map_only(self, tmp_path, monkeypatch, command):
        import mrmul.multiply as mm
        real_run_job, broadcast = mm.run_job, []

        def run_job(spec, records):
            if spec.name == "broadcast-multiply":
                broadcast.append(spec)
            return real_run_job(spec, records)

        out = tmp_path / "out"
        out.mkdir()
        monkeypatch.setattr(mm, "run_job", run_job)
        assert run_cli(command, *self._argv(tmp_path, command, out)) == 0
        assert broadcast and all(spec.reducer is None for spec in broadcast)

    @staticmethod
    def _argv(tmp_path, command, out):
        a = tmp_path / "a.txt"
        write_matrix(random_sparse(12, 12, 0.4, seed=7), a)
        alpha = tmp_path / "alpha.txt"
        alpha.write_text("0.5\n" * 150)
        edges = tmp_path / "e.txt"
        edges.write_text("0\t1\n1\t2\n2\t0\n3\t2\n")
        return {
            "multiply": ["--a", a, "--b", a, "--schema", "2x2x2", "--shard", "rand",
                         "--workers", 2, "--out", out / "c.txt", "--metrics", out / "m.csv"],
            "nmf": ["--input", a, "--k", 2, "--iters", 2, "--workers", 2,
                    "--out-prefix", out / "nmf_"],
            "svm-train": ["--data", IRIS, "--iters", 2, "--workers", 2,
                          "--out-prefix", out / "svm_"],
            "svm-predict": ["--data", IRIS, "--alpha", alpha, "--query", IRIS, "--workers", 2,
                            "--out", out / "scores.txt"],
            "pagerank": ["--edges", edges, "--workers", 2, "--out-prefix", out / "pr_"],
        }[command]


class TestParserBuiltForOneCommand:
    """main gives arguments only to the subparser it runs, which reads as the
    one of the whole parser."""

    @pytest.mark.parametrize("command", list(_SUBCOMMANDS))
    def test_help_same_as_full_parser(self, capsys, command):
        texts = []
        for parse in (build_parser().parse_args, main):
            with pytest.raises(SystemExit) as exc:
                parse([command, "--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert texts[0].startswith(f"usage: mrmul {command} [-h] [--config CONFIG]")


# Runs one command in a fresh interpreter and prints, as JSON, its exit code
# and the modules it loaded that importing mrmul.cli had not.
_IMPORT_PROBE = """
import contextlib, io, json, sys
import mrmul.cli
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    rc = mrmul.cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "new": sorted(set(sys.modules) - before)}))
"""


class TestImportsOnlyWhatItUses:
    """A command imports no numpy submodule it does not use: none loads
    numpy.ma, and only generate and nmf, which draw random numbers, load
    numpy.random. Where numpy loads both with itself (numpy 1.x), the
    snapshot taken after importing mrmul.cli already holds them."""

    @pytest.mark.parametrize("command", ["multiply", "nmf", "svm-train", "svm-predict",
                                         "pagerank", "generate"])
    def test_no_unused_numpy_submodule(self, tmp_path, command):
        a = tmp_path / "a.txt"
        write_matrix(random_sparse(6, 6, 0.5, 1), a)
        svm = tmp_path / "d.svm"
        svm.write_text("0 0:1.0\n1 0:-1.0 1:2.0\n")  # labels mapped to -1/+1
        alpha = tmp_path / "alpha.txt"
        alpha.write_text("0.5\n0.5\n")
        edges = tmp_path / "e.txt"
        edges.write_text("0\t1\n1\t2\n0\t1\n2\t0\n")  # one edge repeated
        argv = {
            "multiply": ["--a", a, "--b", a, "--schema", "2x1x2", "--shard", "rand",
                         "--out", tmp_path / "c.txt"],
            "nmf": ["--input", a, "--k", 2, "--iters", 2, "--out-prefix", tmp_path / "nmf_"],
            "svm-train": ["--data", svm, "--iters", 2, "--out-prefix", tmp_path / "svm_"],
            "svm-predict": ["--data", svm, "--alpha", alpha, "--query", svm,
                            "--out", tmp_path / "scores.txt"],
            "pagerank": ["--edges", edges, "--out-prefix", tmp_path / "pr_"],
            "generate": ["--m", 4, "--n", 3, "--delta", 0.5, "--out", tmp_path / "g.txt"],
        }[command]
        src = str(Path(mrmul.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, command,
                               *map(str, argv)], env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["rc"] == 0
        assert not [m for m in result["new"] if m.startswith("numpy.ma")]
        if command not in ("generate", "nmf"):
            assert not [m for m in result["new"] if m.startswith("numpy.random")]
