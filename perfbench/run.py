"""End-to-end benchmark of the four mrmul commands, with an outside-in trace.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each run generates the workload's inputs from
the seed, then for about S seconds runs the workload's mrmul command, one at a
time, each in a fresh process that calls `mrmul.cli.main` in-process (a closed
loop with one client). Every command runs with --workers 2. Every command's
output files are checked against a numpy/scipy oracle and must be
byte-identical to the first command's; a command that fails either check is a
failed operation.

With --trace 0 the run reports the end-to-end metrics: wall_s (median time of
one command), setup_s (median time of a fresh process that imports mrmul and
writes the inputs, set up seven times) and peak_rss_mb (median peak resident
memory of a command's process).

Both times are host-normalised. The benchmark host is shared, and its speed
drifts by up to a quarter over minutes, which moves a run's median wall time
as much. So every measured process also times a fixed probe (child.probe, no
mrmul code), and each time is divided by the probe time of its own process
and multiplied by REF_PROBE_S: the result reads as seconds on a host where
the probe takes exactly REF_PROBE_S. The raw medians are printed as well.

With --trace 1 untraced and traced commands alternate, and the run reports
the per-layer metrics of the traced ones (see tracer.py) plus the tracing
overhead, the raw wall and probe times, and the plain numpy/scipy time of the
same computation. BLAS runs one thread throughout. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

The default seed is 1. Seed 7777 is held out: it was never run while the
benchmark or the program was tuned, so a claimed gain can be re-checked on it.

Thread speedup is not measured: the benchmark host has 2 cores, and the
worker-count experiment needs 4 or more.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread, here and in every child (they inherit the environment):
# with the engine's two worker threads on a 2-core host, idle BLAS threads
# spin for cores the engine needs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
# Metric names, units and the run length are defined once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

from oracle import ORACLES  # noqa: E402
from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
REF_PROBE_S = 0.1  # the probe's time on the reference host; see child.probe
SETUP_REPEATS = 7
REF_REPEATS = 3
MIN_COMMANDS = 3
RUN_LIMIT_S = 165  # a run must end inside 180 s

# Counts that must read the same for every traced command of a run.
EXACT_COUNTS = ("engine.jobs", "engine.records", "engine.shuffle_bytes",
                "engine.cross_worker_bytes", "engine.serialize_calls",
                "multiply.partition_calls", "multiply.broadcast_calls", "multiply.scalar_ops",
                "pagerank.iterations", "pagerank.P_nnz", "svm.K_nnz",
                "io.bytes_in", "io.bytes_out")
# Per-iteration span times pooled over a run's traced commands; the tail is
# the highest percentile with at least ten samples beyond it.
PERCENTILES = {"nmf.step_ms": (50,), "pagerank.iter_ms": (50, 80), "svm.gradient_ms": (50, 90)}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or 0 if unknown."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return 0


def child(args, timeout):
    """Run child.py in a fresh interpreter; returns (wall seconds, process)."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    return perf_counter() - t0, proc


def digest(d, names):
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode())
        h.update((d / name).read_bytes())
    return h.hexdigest()


def setup(workload, seed, work, t_start):
    """Write the inputs SETUP_REPEATS times from fresh processes; returns the
    input directory and the median raw and host-normalised set-up times."""
    times, norm, dirs = [], [], []
    for r in range(SETUP_REPEATS):
        d = work / f"inputs{r}"
        d.mkdir()
        wall, proc = child(["setup", workload.name, str(seed), str(d)],
                           RUN_LIMIT_S - (perf_counter() - t_start))
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed:\n{proc.stderr.strip()}")
        probe_s = float(proc.stdout.split()[-1])
        times.append(wall - probe_s)
        norm.append((wall - probe_s) / probe_s * REF_PROBE_S)
        dirs.append(d)
    digests = {digest(d, workload.inputs) for d in dirs}
    if len(digests) != 1:
        raise SystemExit(f"seed {seed} gave different inputs on each set-up")
    for d in dirs[1:]:
        shutil.rmtree(d)
    log("setup_s raw samples: " + " ".join(f"{t:.3f}" for t in times))
    return dirs[0], statistics.median(times), statistics.median(norm)


def measure(workload, oracle, inputs, work, seconds, trace, ref, t_start):
    """Closed loop: one command at a time until `seconds` have passed.
    Returns the per-command results, each with its oracle errors."""
    results, verdicts, first = [], {}, None
    t0 = perf_counter()
    while True:
        n = len(results)
        spent = perf_counter() - t0
        typical = spent / n if n else 0.0
        if n >= MIN_COMMANDS * (2 if trace else 1) and spent + typical > seconds:
            break
        if perf_counter() - t_start + 2 * typical > RUN_LIMIT_S:
            break
        traced = trace and n % 2 == 1
        out = work / f"out{n}"
        out.mkdir()
        result_path = work / f"result{n}.json"
        args = ["run", workload.name, str(inputs), str(out), "1" if traced else "0",
                str(result_path)]
        try:
            _, proc = child(args, max(1.0, RUN_LIMIT_S - (perf_counter() - t_start)))
        except subprocess.TimeoutExpired:
            results.append({"traced": traced, "errors": ["timed out"]})
            break
        if proc.returncode != 0 or not result_path.exists():
            results.append({"traced": traced,
                            "errors": [f"child exited {proc.returncode}: {proc.stderr.strip()}"]})
            shutil.rmtree(out)
            continue
        res = json.loads(result_path.read_text())
        res["traced"] = traced
        errors = [] if res["rc"] == 0 else [f"mrmul exited {res['rc']}"]
        if not errors:
            h = digest(out, workload.outputs)
            if h not in verdicts:
                verdicts[h] = oracle.check(ref, out)
            first = first or h
            errors += verdicts[h]
            if h != first:
                errors.append("output files differ from the first command's")
        res["errors"] = errors
        results.append(res)
        shutil.rmtree(out)
        result_path.unlink()
    return results


def exact(name, values):
    if len(set(values)) > 1:
        log(f"NOT EXACT: {name} varies across commands: {values}")
    return values[0]


def normalised(r):
    return r["wall_s"] / r["probe_s"] * REF_PROBE_S


def end_to_end(results, setup_s):
    done = [r for r in results if "wall_s" in r]
    rss = [r["peak_rss_kb"] / 1024 for r in done]
    log("wall_s raw samples: " + " ".join(f"{r['wall_s']:.3f}" for r in done))
    log("probe_s samples: " + " ".join(f"{r['probe_s']:.3f}" for r in done))
    exact("peak_rss_mb (whole MB)", [round(x) for x in rss])
    log(f"peak_rss_mb spans {min(rss):.3f}..{max(rss):.3f} over {len(rss)} commands")
    return {"wall_s": statistics.median(normalised(r) for r in done),
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(rss)}


def per_layer(results, ref_s):
    done = [r for r in results if "wall_s" in r]
    plain = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    per_cmd, pooled = [], {}
    for r in traced:
        scalars, samples = layer_metrics(r["trace"])
        per_cmd.append(scalars)
        for key, values in samples.items():
            pooled.setdefault(key, []).extend(values)
    m = {}
    for key in per_cmd[0]:
        values = [c[key] for c in per_cmd]
        m[key] = exact(key, values) if key in EXACT_COUNTS else statistics.median(values)
    for key, percentiles in PERCENTILES.items():
        values = pooled.get(key) or [0.0]
        for q in percentiles:
            m[f"{key}_p{q}"] = float(np.percentile(values, q))
        log(f"{key}: {len(pooled.get(key, []))} samples pooled over {len(traced)} commands")
    m["proc.cpu_s"] = statistics.median(r["cpu_s"] for r in traced)
    m["proc.wall_raw_s"] = statistics.median(r["wall_s"] for r in plain)
    m["proc.probe_s"] = statistics.median(r["probe_s"] for r in done)
    m["ref.numpy_s"] = ref_s
    m["ref.overhead_x"] = m["proc.wall_raw_s"] / ref_s
    m["trace.overhead_s"] = (statistics.median(normalised(r) for r in traced)
                             - statistics.median(normalised(r) for r in plain))
    return m


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "mrmul" / "__init__.py").is_file():
        log(f"error: no mrmul sources under {ROOT / 'src'}; run from a full checkout")
        return 2
    workload = WORKLOADS[args.workload]
    trace = args.trace == 1
    log(f"host: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} blas_threads={blas_threads()}; "
        f"thread speedup not measurable on 2 cores")

    t_start = perf_counter()
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        inputs, setup_raw_s, setup_s = setup(workload, args.seed, work, t_start)
        oracle = ORACLES[workload.name]
        operands = oracle.load(inputs)
        ref_times = []
        for _ in range(REF_REPEATS if trace else 1):
            t0 = perf_counter()
            ref = oracle.reference(operands)
            ref_times.append(perf_counter() - t0)
        results = measure(workload, oracle, inputs, work, args.seconds, trace, ref, t_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    failed = [r for r in results if r["errors"]]
    for r in failed:
        log(f"FAILED: {'; '.join(r['errors'])}")
    if {r["traced"] for r in results if "wall_s" in r} != ({False, True} if trace else {False}):
        log("error: no command of a needed kind completed")
        return 1
    if trace:
        metrics = per_layer(results, statistics.median(ref_times))
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    else:
        metrics = end_to_end(results, setup_s)
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    plain = [r for r in results if "wall_s" in r and not r["traced"]]
    print(f"{workload.name} seed={args.seed}: {len(results)} commands, {len(failed)} failed; "
          f"timings are medians of {len(plain)} untraced commands (a tail percentile "
          f"needs 20 or more), scaled to a {REF_PROBE_S} s probe")
    print(f"  raw: wall {statistics.median(r['wall_s'] for r in plain):.6g} s, "
          f"set-up {setup_raw_s:.6g} s, probe {statistics.median(r['probe_s'] for r in plain):.6g} s")
    for key, unit in units.items():
        print(f"  {key} = {metrics[key]:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
