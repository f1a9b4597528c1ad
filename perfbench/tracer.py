"""Outside-in layer trace of one mrmul command.

`Tracer.install` replaces the public functions of each layer with wrappers
that record a span (name, start, end, parent, attrs), patched at the name the
caller resolves: `cli` binds `partition_multiply` by `from ... import`, so the
wrapper goes on `mrmul.cli`, while `mrmul.io.read_matrix` is reached through
the module. The modules are fetched with `importlib.import_module`, because
the package rebinds `mrmul.pagerank` to the function of that name.

Spans stay in memory until the command ends. `engine.serialize_record` runs
once per shuffled record, from worker threads too, so it is counted per
thread instead of spanned. `layer_metrics` turns one command's trace into the
per-layer metrics.
"""

from __future__ import annotations

import importlib
import os
import threading
from time import perf_counter

import numpy as np

LAYERS = ("cli", "io", "engine", "multiply", "sparse", "nmf", "svm", "pagerank")


def _job(args, kwargs, out):
    m = out[1]
    return {"stage": m.stage, "records_per_worker": list(m.records_per_worker),
            "shuffle_bytes": m.shuffle_bytes, "cross_worker_bytes": m.cross_worker_bytes,
            "map_ms": m.map_ms, "shuffle_ms": m.shuffle_ms, "reduce_ms": m.reduce_ms,
            "scalar_ops": m.scalar_ops}


def _bytes_read(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def _bytes_written(args, kwargs, out):
    return {"bytes": os.path.getsize(args[1])}


# (module, attribute, span name, attrs taken from the call and its result)
PATCHES = (
    ("cli", "main", "cli.main", None),
    ("io", "read_matrix", "io.read_matrix", _bytes_read),
    ("io", "read_edges", "io.read_edges", _bytes_read),
    ("io", "write_matrix", "io.write_matrix", _bytes_written),
    ("cli", "read_svm_file", "svm.read_svm_file", _bytes_read),
    ("multiply", "run_job", "engine.run_job", _job),
    ("cli", "partition_multiply", "multiply.partition_multiply", None),
    ("nmf", "partition_multiply", "multiply.partition_multiply", None),
    ("svm", "partition_multiply", "multiply.partition_multiply", None),
    ("nmf", "broadcast_multiply", "multiply.broadcast_multiply", None),
    ("svm", "broadcast_multiply", "multiply.broadcast_multiply", None),
    ("pagerank", "broadcast_multiply", "multiply.broadcast_multiply", None),
    ("nmf", "transpose", "sparse.transpose", None),
    ("nmf", "elementwise_update", "sparse.elementwise_update", None),
    ("cli", "run_nmf", "nmf.run_nmf", None),
    ("nmf", "nmf_step", "nmf.nmf_step", None),
    ("nmf", "nmf_divergence", "nmf.nmf_divergence", lambda a, k, out: {"value": out}),
    ("cli", "svm_train", "svm.svm_train", None),
    ("svm", "svm_build_kernel", "svm.svm_build_kernel", lambda a, k, out: {"nnz": out.nnz}),
    ("svm", "svm_gradient", "svm.svm_gradient", None),
    ("svm", "svm_objective", "svm.svm_objective", None),
    ("cli", "svm_predict", "svm.svm_predict", None),
    ("cli", "pagerank_build", "pagerank.pagerank_build", lambda a, k, out: {"nnz": out.P.nnz}),
    ("cli", "pagerank", "pagerank.pagerank", lambda a, k, out: {"iterations": out[1]}),
)


class Tracer:
    """Span recorder for one command. The spanned functions are all called
    from the command's own thread, so one parent stack suffices."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, attrs]
        self._stack = []
        self._serialize = []  # one [seconds, calls] per thread that serialized
        self._local = threading.local()
        self._lock = threading.Lock()

    def install(self):
        modules = {name: importlib.import_module(f"mrmul.{name}") for name in LAYERS}
        for module, attr, name, attrs in PATCHES:
            mod = modules[module]
            setattr(mod, attr, self._spanned(name, getattr(mod, attr), attrs))
        engine = modules["engine"]
        engine.serialize_record = self._counted(engine.serialize_record)
        return modules

    def _spanned(self, name, fn, attrs):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, out)
            return out

        return wrapper

    def _counted(self, fn):
        local = self._local

        def wrapper(key, value):
            acc = getattr(local, "acc", None)
            if acc is None:
                acc = local.acc = [0.0, 0]
                with self._lock:
                    self._serialize.append(acc)
            t0 = perf_counter()
            out = fn(key, value)
            acc[0] += perf_counter() - t0
            acc[1] += 1
            return out

        return wrapper

    def export(self):
        return {"spans": self.spans,
                "serialize_s": sum(a[0] for a in self._serialize),
                "serialize_calls": sum(a[1] for a in self._serialize)}


def layer_metrics(trace):
    """Per-layer metrics of one traced command.

    Returns (scalars, samples): scalars maps metric name to value; samples
    holds per-iteration span times in ms, which the caller pools across
    commands before taking percentiles. Layers the command does not reach
    report 0.
    """
    spans = trace["spans"]
    dur = [end - start for _, start, end, _, _ in spans]
    covered = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            covered[parent] += dur[i]
    idx = {}
    for i, s in enumerate(spans):
        idx.setdefault(s[0], []).append(i)

    def of(*names):
        return [i for n in names for i in idx.get(n, [])]

    def total(*names):
        return sum((dur[i] for i in of(*names)), 0.0)

    def attr(i, key):
        return spans[i][4][key]

    jobs = [spans[i][4] for i in of("engine.run_job")]
    job_dur = {i: dur[i] for i in of("engine.run_job")}
    records = sum(sum(j["records_per_worker"]) for j in jobs)
    per_worker = np.sum([j["records_per_worker"] for j in jobs], axis=0) if jobs else np.zeros(1)
    mult = of("multiply.partition_multiply", "multiply.broadcast_multiply")
    kernel = of("svm.svm_build_kernel")
    pr_build = of("pagerank.pagerank_build")
    pr = of("pagerank.pagerank")
    divergences = of("nmf.nmf_divergence")
    cli_main = of("cli.main")

    m = {
        "engine.jobs": len(jobs),
        "engine.records": records,
        "engine.shuffle_bytes": sum(j["shuffle_bytes"] for j in jobs),
        "engine.cross_worker_bytes": sum(j["cross_worker_bytes"] for j in jobs),
        "engine.map_s": sum(j["map_ms"] for j in jobs) / 1e3,
        "engine.shuffle_s": sum(j["shuffle_ms"] for j in jobs) / 1e3,
        "engine.reduce_s": sum(j["reduce_ms"] for j in jobs) / 1e3,
        "engine.serialize_s": trace["serialize_s"],
        "engine.serialize_calls": trace["serialize_calls"],
        "engine.us_per_record": 1e6 * sum(job_dur.values()) / records if records else 0.0,
        "engine.worker_skew": float(per_worker.max() / per_worker.mean()) if records else 0.0,
        "multiply.partition_s": total("multiply.partition_multiply"),
        "multiply.partition_calls": len(of("multiply.partition_multiply")),
        "multiply.partition_stage_s": sum((d for i, d in job_dur.items()
                                           if attr(i, "stage") == "partition"), 0.0),
        "multiply.summation_stage_s": sum((d for i, d in job_dur.items()
                                           if attr(i, "stage") == "summation"), 0.0),
        "multiply.broadcast_s": total("multiply.broadcast_multiply"),
        "multiply.broadcast_calls": len(of("multiply.broadcast_multiply")),
        "multiply.self_s": sum((dur[i] - covered[i] for i in mult), 0.0),
        "multiply.scalar_ops": sum(j["scalar_ops"] for j in jobs),
        "io.read_s": total("io.read_matrix", "io.read_edges", "svm.read_svm_file"),
        "io.write_s": total("io.write_matrix"),
        "io.bytes_in": sum(attr(i, "bytes") for i in
                           of("io.read_matrix", "io.read_edges", "svm.read_svm_file")),
        "io.bytes_out": sum(attr(i, "bytes") for i in of("io.write_matrix")),
        "sparse.transpose_s": total("sparse.transpose"),
        "sparse.elementwise_update_s": total("sparse.elementwise_update"),
        "nmf.divergence_s": total("nmf.nmf_divergence"),
        "nmf.final_divergence": attr(divergences[-1], "value") if divergences else 0.0,
        "pagerank.build_s": total("pagerank.pagerank_build"),
        "pagerank.iterate_s": total("pagerank.pagerank"),
        "pagerank.iterations": sum(attr(i, "iterations") for i in pr),
        "pagerank.P_nnz": sum(attr(i, "nnz") for i in pr_build),
        "svm.kernel_s": total("svm.svm_build_kernel"),
        "svm.objective_s": total("svm.svm_objective"),
        "svm.predict_s": total("svm.svm_predict"),
        "svm.K_nnz": sum(attr(i, "nnz") for i in kernel),
        "cli.self_s": sum(dur[i] - covered[i] for i in cli_main),
    }
    samples = {
        "pagerank.iter_ms": [dur[i] * 1e3 for i in of("multiply.broadcast_multiply")
                             if spans[i][3] in pr],
        "svm.gradient_ms": [dur[i] * 1e3 for i in of("svm.svm_gradient")],
        "nmf.step_ms": [dur[i] * 1e3 for i in of("nmf.nmf_step")],
    }
    return m, samples
