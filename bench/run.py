"""Run one dynq benchmark workload and print its metrics.

    python3 bench/run.py --workload fusion3-a2 --seed 1 --seconds 10 --trace 0

Run from the repository root.  The run is a closed loop of one caller: set
up, then ops back to back at freshly drawn weights until `--seconds` have
passed, each op checked before the next starts.  The last line of standard
output is the result object; the line before it holds machine info.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced ops (at least one of each) and reports the per-layer metrics of
the traced ones plus their overhead.  Workloads and metrics are described
in README.md next to this file.
"""

import argparse
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
# On a 2-vCPU host shared with other jobs, speed swung by 20-45% over tens
# of seconds.  A speed probe timed before and after every check tracks that
# swing, so op times are reported for a machine on which the probe takes
# PROBE_REF_S (about its time on that host).  Over 20 s windows this cut
# the spread of traces-a1's median op time from 0.21 to 0.07.
PROBE_REF_S = 0.015
# One BLAS thread: on a small machine shared with other jobs, a second BLAS
# thread made op times swing by twice as much from run to run.  Set before
# numpy loads; the set-up probes inherit it.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _setup_probe(workload):
    """Seconds a fresh interpreter takes to import dynq and set `workload` up."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _blas_threads():
    import numpy as np
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        import ctypes
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return getattr(lib, sym)()
    return None


def machine_info():
    import numpy as np
    import scipy
    lines = {}
    for path in sorted(SRC.glob("dynq/*.py")):
        with open(path) as fh:
            lines[f"src/dynq/{path.name}"] = sum(1 for _ in fh)
    lines["total"] = sum(lines.values())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": np.__config__.CONFIG["Build Dependencies"]["blas"]["name"],
        "blas_threads": _blas_threads(),
        "src_lines": lines,
    }


def _one_op(wl, k, point, residuals, before_check=None):
    """Run and check one op; returns (op seconds, whether op and check passed)."""
    t0 = perf_counter()
    try:
        out = wl.op(k, point)
    except Exception:
        traceback.print_exc()
        return perf_counter() - t0, False
    dur = perf_counter() - t0
    if before_check is not None:
        before_check()
    try:
        results = wl.check(k, point, out)
    except Exception:
        traceback.print_exc()
        return dur, False
    ok = True
    for name, value, tol in results:
        residuals.append(value)
        if not value <= tol:
            print(f"op {k} at {point}: {name} residual {value:.3e} > {tol:.0e}",
                  file=sys.stderr)
            ok = False
    return dur, ok


def _speed_probe():
    """Seconds for a fixed kernel of Fraction and small numpy work, no dynq."""
    from fractions import Fraction
    import numpy as np
    a = np.linspace(-1.0, 1.0, 144).reshape(12, 12)
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(i, 3 * i + 1) * Fraction(7, 2**40 + i)
    for _ in range(6):
        np.kron(a, a) @ np.kron(a, np.eye(12))
    return perf_counter() - t0


def plain_run(wl, workload, seed, seconds, t_setup):
    setup = [perf_counter() - t_setup]
    setup += [_setup_probe(workload) for _ in range(SETUP_SAMPLES - 1)]

    draws = wl.draws(seed)
    durations, failed_ops, residuals = [], [], []
    probes = [_speed_probe()]
    start = perf_counter()
    while not durations or perf_counter() - start < seconds:
        dur, ok = _one_op(wl, len(durations), next(draws), residuals,
                          lambda: probes.append(_speed_probe()))
        probes.append(_speed_probe())
        if not ok:
            failed_ops.append(len(durations))
        durations.append(dur)
        if len(durations) == 1:
            # memos grow with every op, so a faster program running more
            # ops would read as using more memory; take the peak at the
            # first checked result instead
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall = perf_counter() - start - sum(probes[1:])
    attempted, failed = len(durations), len(failed_ops)
    # a failed op counts as slower than any that passed
    p50 = statistics.median(float("inf") if k in failed_ops else d
                            for k, d in enumerate(durations))
    if p50 == float("inf"):
        p50 = wall
    # op times rescaled to a machine on which the probe takes PROBE_REF_S
    scale = PROBE_REF_S / statistics.median(probes)
    info = {"ops": attempted, "op_s": durations, "failed_ops": failed_ops,
            "probe_s": probes, "op_p50_wall_s": p50,
            "ops_per_wall_s": (attempted - failed) / wall,
            "setup_samples_s": setup, "max_rel_residual": max(residuals, default=0.0)}
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (p50 * scale, "s"),
        "ops_per_s": ((attempted - failed) / wall / scale, "1/s"),
        "peak_rss_mb": (peak_rss, "MiB"),
    }
    return attempted, failed, metrics, info


def traced_run(wl_class, seed, seconds):
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    wl = wl_class()
    tracer.uninstall()

    def to_check():
        tracer.phase = "check"

    draws = wl.draws(seed)
    times = {False: [], True: []}
    residuals = []
    failed = attempted = 0
    start = perf_counter()
    while not (times[False] and times[True]) or perf_counter() - start < seconds:
        traced = attempted % 2 == 1
        if traced:
            tracer.install()
            tracer.phase = "op"
        dur, ok = _one_op(wl, attempted, next(draws), residuals, to_check)
        tracer.uninstall()
        times[traced].append(dur)
        failed += not ok
        attempted += 1

    metrics = tracer.layer_metrics(len(times[True]))
    metrics["check.max_rel_residual"] = (max(residuals, default=0.0), "1")
    metrics["trace.overhead_ratio"] = (
        statistics.median(times[True]) / statistics.median(times[False]), "ratio")
    info = {"ops": attempted, "traced_op_s": times[True], "untraced_op_s": times[False]}
    return attempted, failed, metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dynq" / "__init__.py").is_file():
        print(f"dynq sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    t_setup = perf_counter()
    import workloads
    wl_class = workloads.WORKLOADS.get(args.workload)
    if wl_class is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.trace:
        attempted, failed, metrics, info = traced_run(wl_class, args.seed, args.seconds)
    else:
        attempted, failed, metrics, info = plain_run(
            wl_class(), args.workload, args.seed, args.seconds, t_setup)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                machine=machine_info())
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
