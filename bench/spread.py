"""Run the benchmark on several seeds and summarize each end-to-end metric.

    python3 bench/spread.py                      # every workload, seed 1
    python3 bench/spread.py --workloads dual-a2 --seeds 1 2 3 4 5

Run from the repository root.  Runs are sequential, one process at a time,
and each prints its metrics with their units and its failed-op count.
With two seeds or more it also prints, for every workload and metric, the
median and the distance between the quartiles of
`statistics.quantiles(values, n=4)` as a share of the median, which is how
BENCHMARK.json's bounds are judged.  --out writes the summary and every
run's output as JSON; `baseline.json` here is such a file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def summarize(results):
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0,
                         "unit": results[0]["metrics"][name]["unit"]}
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=[1])
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            info, result = run_once(wl, seed, args.seconds, args.trace)
            report["machine"] = info.pop("machine")
            runs.append({"seed": seed, "info": info, "result": result})
            vals = " ".join(f"{k}={v['value']:.4g} {v['unit']}"
                            for k, v in result["metrics"].items())
            print(f"{wl} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {vals}",
                  flush=True)
        report["workloads"][wl] = {"runs": runs}
        if len(runs) < 2:
            continue
        summary = summarize([r["result"] for r in runs])
        for name, s in summary.items():
            print(f"  {wl} {name}: median {s['median']:.4g} {s['unit']} "
                  f"spread {s['spread']:.3f}", flush=True)
        report["workloads"][wl]["summary"] = summary
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
