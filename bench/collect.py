"""Run the benchmark over several seeds and save the runs as one file.

    python3 bench/collect.py --label seed --seeds 0-9

For every workload this makes one untraced run per seed and one traced run
(first seed), one process at a time, each measuring the run_seconds of
BENCHMARK.json, and writes bench/BENCH_<label>.json:
the run record, every run's result line, and per end-to-end metric the
median, the quartiles and the spread (interquartile distance over the
median) that BENCHMARK.json bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    lines = proc.stdout.splitlines()
    record = next(json.loads(line[len("record "):]) for line in lines
                  if line.startswith("record "))
    return {"workload": workload, "seed": seed, "trace": trace,
            "record": record, "result": json.loads(lines[-1])}


def summarize(runs) -> dict:
    values: dict = {}
    for run in runs:
        for name, m in run["result"]["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    out = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "n": len(vals)}
    return out


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    args = p.parse_args(argv)
    seconds = BENCHMARK["run_seconds"]
    runs, summary = [], {}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        plain = []
        for seed in args.seeds:
            run = one_run(workload, seed, seconds, 0)
            plain.append(run)
            print(workload, seed, json.dumps(run["result"]), flush=True)
        runs += plain
        summary[workload] = summarize(plain)
        runs.append(one_run(workload, args.seeds[0], seconds, 1))
        for name, s in summary[workload].items():
            print(f"{workload:12s} {name:14s} median {s['median']:12.6g} "
                  f"spread {s['spread']:.4f}", flush=True)
    out = {"label": args.label, "seconds": seconds,
           "record": runs[0]["record"], "summary": summary, "runs": runs}
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
