"""Scaling experiment grid: sizes x sparsities x schemas x shards x workers.

Each cell multiplies two freshly generated square matrices and records the
per-stage engine metrics plus machine-independent scalar-op counts. Fits
summarize the grid: log-log slope of scalar ops against matrix size for each
sparsity, and the correlation of work (and wall time) against the operand
nonzero count at each fixed size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import JobMetrics
from .multiply import partition_multiply
from .sparse import GeneratorParams, generate_random

__all__ = ["BenchConfig", "JOB_COLUMNS", "job_fields", "RUNS_CSV_HEADER", "FITS_CSV_HEADER",
           "run_scaling", "loglog_slope", "pearson"]

# The columns of one engine job, in runs.csv and in multiply --metrics alike.
JOB_COLUMNS = ("stage", "shuffle_bytes", "cross_worker_bytes", "map_ms", "shuffle_ms",
               "reduce_ms", "scalar_ops")
RUNS_CSV_HEADER = ",".join(("size,delta,schema,shard,workers", *JOB_COLUMNS,
                            "elapsed_ms,nnz_a,nnz_b,nnz_c"))
FITS_CSV_HEADER = "metric,value"


def job_fields(m: JobMetrics) -> list[str]:
    """The JOB_COLUMNS of one job as CSV fields, its times to the microsecond."""
    return [m.stage, str(m.shuffle_bytes), str(m.cross_worker_bytes), f"{m.map_ms:.3f}",
            f"{m.shuffle_ms:.3f}", f"{m.reduce_ms:.3f}", str(m.scalar_ops)]


@dataclass(frozen=True)
class BenchConfig:
    sizes: tuple
    deltas: tuple
    schemas: tuple
    shards: tuple
    workers: tuple
    seed: int
    out_dir: Path

    def __post_init__(self):
        for name in ("sizes", "deltas", "schemas", "shards", "workers"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
            if name in ("sizes", "workers") and min(getattr(self, name)) < 1:
                raise ValueError(f"{name} must each be >= 1, got {getattr(self, name)}")


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log2(y) against log2(x)."""
    lx = np.log2(np.asarray(xs, dtype=np.float64))
    ly = np.log2(np.asarray(ys, dtype=np.float64))
    lx = lx - lx.mean()
    return float((lx @ (ly - ly.mean())) / (lx @ lx))


def pearson(xs, ys) -> float:
    return float(np.corrcoef(np.asarray(xs, float), np.asarray(ys, float))[0, 1])


def run_scaling(cfg: BenchConfig):
    """Run the grid, write runs.csv and fits.csv under cfg.out_dir and
    return (run rows, fit rows, failed cells). A failed cell gets an
    error row and a "cell <key columns>: <message>" line, and the grid goes on."""
    rows, failures = [], []
    totals = {}  # (size, delta, schema, shard, workers) -> (ops, elapsed_ms, nnz_a+nnz_b)
    for size in cfg.sizes:
        for delta in cfg.deltas:
            A = generate_random(GeneratorParams(size, size, delta, cfg.seed))
            B = generate_random(GeneratorParams(size, size, delta, cfg.seed + 1))
            for schema in cfg.schemas:
                for shard in cfg.shards:
                    for w in cfg.workers:
                        cell = f"{size},{delta},{schema},{shard},{w}"
                        try:
                            t0 = time.perf_counter()
                            C, metrics = partition_multiply(A, B, schema, shard, w)
                            elapsed = (time.perf_counter() - t0) * 1e3
                        except Exception as exc:
                            failures.append(f"cell {cell}: {exc}")
                            error = job_fields(JobMetrics(f"error:{type(exc).__name__}", w))
                            rows.append(",".join([cell, *error, "0.000", f"{A.nnz},{B.nnz},0"]))
                            continue
                        # the total row sums the stage rows, and it alone carries elapsed_ms
                        total = JobMetrics("total", w, **{
                            c: sum(getattr(m, c) for m in metrics) for c in JOB_COLUMNS[1:]})
                        nnz = f"{A.nnz},{B.nnz},{C.nnz}"
                        rows += [",".join([cell, *job_fields(m), "", nnz]) for m in metrics]
                        rows.append(",".join([cell, *job_fields(total), f"{elapsed:.3f}", nnz]))
                        totals[(size, delta, str(schema), shard, w)] = (
                            total.scalar_ops, elapsed, A.nnz + B.nnz)

    fits = _fit_rows(cfg, totals)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    (cfg.out_dir / "runs.csv").write_text("".join(f"{line}\n" for line in [RUNS_CSV_HEADER] + rows))
    (cfg.out_dir / "fits.csv").write_text("".join(f"{line}\n" for line in [FITS_CSV_HEADER] + fits))
    return rows, fits, failures


def _varies(values) -> bool:
    return len(set(values)) >= 2


def _fit_rows(cfg, totals):
    """Fit rows over the first schema, shard and worker count. A fit with no
    defined value (a log of zero work, a correlation against a constant) is
    left out rather than written as nan."""
    fits = []
    schema0, shard0, w0 = str(cfg.schemas[0]), cfg.shards[0], cfg.workers[0]

    for delta in cfg.deltas:
        pts = [(size, totals[(size, delta, schema0, shard0, w0)][0])
               for size in cfg.sizes
               if (size, delta, schema0, shard0, w0) in totals]
        sizes, ops = [p[0] for p in pts], [p[1] for p in pts]
        if _varies(sizes) and min(ops, default=0) > 0:
            fits.append(f"slope_scalar_ops_vs_m_delta={delta},{loglog_slope(sizes, ops):.4f}")

    for size in cfg.sizes:
        pts = [totals[(size, delta, schema0, shard0, w0)]
               for delta in cfg.deltas
               if (size, delta, schema0, shard0, w0) in totals]
        nnz = [p[2] for p in pts]
        for name, ys in (("scalar_ops", [p[0] for p in pts]), ("elapsed", [p[1] for p in pts])):
            if _varies(nnz) and _varies(ys):
                fits.append(f"pearson_{name}_vs_nnz_m={size},{pearson(nnz, ys):.4f}")

    # speedup curves relative to the smallest worker count
    base_w = min(cfg.workers)
    if len(cfg.workers) >= 2:
        for size in cfg.sizes:
            for delta in cfg.deltas:
                base = totals.get((size, delta, schema0, shard0, base_w))
                if base is None:
                    continue
                for w in cfg.workers:
                    cell = totals.get((size, delta, schema0, shard0, w))
                    if cell is not None and cell[1] > 0:
                        fits.append(f"speedup_m={size}_delta={delta}_workers={w},"
                                    f"{base[1] / cell[1]:.4f}")
    return fits
