"""One fresh process per measured step, so imports and peak memory belong to
that step alone.

    python3 perfbench/child.py setup WORKLOAD SEED DIR
        import mrmul and write the workload's seeded inputs into DIR, then
        run the speed probe and print its time in seconds
    python3 perfbench/child.py run WORKLOAD DIR OUT TRACE RESULT
        run the workload's command on the inputs in DIR through
        mrmul.cli.main, writing into OUT; TRACE 1 records layer spans.
        The speed probe runs just before and just after the command.
        Timings, rusage and the trace are written as JSON to RESULT.

The probe is fixed work that does not touch mrmul. The host's speed drifts
by up to a quarter over minutes, and the probe's time drifts with it, so the
benchmark divides each measured time by the probe time taken in the same
process (see run.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import pickle
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def import_mrmul():
    """Import the mrmul sources of this checkout, never an installed copy."""
    src = ROOT / "src"
    if not (src / "mrmul" / "__init__.py").is_file():
        raise SystemExit(f"error: no mrmul sources under {src}")
    sys.path.insert(0, str(src))
    import mrmul

    if Path(mrmul.__file__).resolve().parent != src / "mrmul":
        raise SystemExit(f"error: imported mrmul from {mrmul.__file__}, not {src}")
    return mrmul


def probe():
    """Time fixed work that gauges the host's speed at the moment: dict
    updates, pickling of small tuples and small numpy products, the kinds of
    work an mrmul command does. About 0.1 s on a 2 GHz Xeon core."""
    import numpy as np

    m = np.linspace(0.0, 1.0, 120 * 120).reshape(120, 120)
    t0 = perf_counter()
    for _ in range(3):
        d = {}
        for i in range(60000):
            k = (i * 7919) % 4099
            d[k] = d.get(k, 0.0) + i * 0.5
        pickle.loads(pickle.dumps([(i, i + 1, float(i)) for i in range(20000)]))
        x = m
        for _ in range(20):
            x = np.tanh(x @ m * 0.01)
    return perf_counter() - t0


def setup(workload, seed, d):
    import_mrmul()
    from workloads import WORKLOADS

    WORKLOADS[workload].generate(int(seed), d)
    print(probe())


def run(workload, d, out, trace, result_path):
    import_mrmul()
    from tracer import Tracer
    from workloads import WORKLOADS

    tracer = Tracer() if trace == "1" else None
    if tracer is not None:
        main = tracer.install()["cli"].main
    else:
        from mrmul.cli import main
    argv = WORKLOADS[workload].argv(d, out)
    stdout = io.StringIO()
    probe_before = probe()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = perf_counter()
    with contextlib.redirect_stdout(stdout):
        rc = main(argv)
    wall = perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    probe_after = probe()
    result = {
        "rc": rc,
        "wall_s": wall,
        "probe_s": (probe_before * probe_after) ** 0.5,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_kb": ru1.ru_maxrss,
        "stdout": stdout.getvalue(),
        "trace": tracer.export() if tracer is not None else None,
    }
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    {"setup": setup, "run": run}[sys.argv[1]](*sys.argv[2:])
