"""Benchmark of the distgames library: one seeded workload per run.

    python3 bench/run.py --workload solve-exact --seed 1 --seconds 20 --trace 0

One caller in one thread issues ops in a closed loop: the next op starts
only after the previous one returned and its output was checked.  The
run measures whole blocks of ops (see workloads.py) until --seconds have
passed, then prints a human-readable report followed, as its last line,
by one JSON object with the keys correct, attempted, failed and metrics.
Times are rescaled to a reference machine speed measured next to every op
(see Loop).

--trace 0 reports the end-to-end metrics.  --trace 1 runs the same
blocks twice, first plain for half of --seconds and then through span
wrappers around the library's public functions, and reports the
per-layer metrics; the spans are written to bench/out/ at exit.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import gate
import layers
import spans
import workloads
from speedprobe import Probe

WORKLOADS = {w.name: w for w in (workloads.SolveExact, workloads.Simulate,
                                 workloads.CliMix)}
MODULES = ("cli", "construct", "dist", "game_core", "mc", "moments", "pareto",
           "rlex_solve", "solve_real")
SETUP_REPEATS = 5
PROBE_REF_S = 1e-3             # reference speed: the probe takes 1 ms
PROBE_WINDOW = 5               # probes before and after each set-up
DEFAULT_SEED = 0               # the seed whose exact outputs are pinned
DIGESTS = HERE / "digests.json"


def import_library() -> SimpleNamespace:
    """Import distgames afresh from the checkout's src/ tree."""
    for name in [n for n in sys.modules
                 if n == "distgames" or n.startswith("distgames.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    pkg = importlib.import_module("distgames")
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "distgames":
        raise SystemExit(f"distgames imported from {pkg.__file__}, "
                         f"not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"distgames.{m}")
                              for m in MODULES})


def setup(name: str, seed: int, workdir: str, probe: Probe):
    """Import, input generation and warm-up; returns (seconds at reference
    speed, workload)."""
    probes = [probe() for _ in range(PROBE_WINDOW)]
    t0 = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    wl = WORKLOADS[name](import_library(), seed, workdir)
    wl.warmup()
    dt = time.perf_counter() - t0
    probes += [probe() for _ in range(PROBE_WINDOW)]
    return dt * PROBE_REF_S / statistics.median(probes), wl


def run_record(seed: int) -> dict:
    """Machine, interpreter and source version of this run."""
    import numpy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": git_commit(), "seed": seed}


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def load_digests(name: str, seed: int):
    if seed != DEFAULT_SEED or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(name)


class Loop:
    """The closed loop: runs blocks of ops and checks each output.

    Latency is the time inside the library call only.  The machine this
    runs on is shared, and its speed swings by up to 2x within seconds as
    other tenants' load comes and goes, so a probe of fixed work (see
    speedprobe.py) is timed right before every op and once after the last.
    Each latency is rescaled to the reference speed by the two probes
    around its op: latency * PROBE_REF_S / mean(probe before, probe after).
    Rescaled times are what the bounded metrics use.
    """

    def __init__(self, wl, tally, probe: Probe, digests=None):
        self.wl = wl
        self.tally = tally
        self.probe = probe
        self.digests = digests
        self.ops: list = []
        self.latency: list = []        # seconds, as measured
        self.probes: list = []         # one before every op, one at the end
        self.blocks = 0

    def run_op(self, op):
        self.probes.append(self.probe())
        self.ops.append(op)
        t0 = time.perf_counter()
        try:
            res = op.call()
        except Exception:                       # a raising op has failed
            res, ok = None, False
        else:
            ok = True
        dt = time.perf_counter() - t0
        self.latency.append(dt)
        if ok:
            ok = op.check(res)
        if ok and self.digests is not None and op.digest is not None:
            ok = op.digest(res) == self.digests[op.index]
        self.tally.record(ok, op.kind, op.known_defect)

    def measure(self, seconds: float):
        """Whole blocks until `seconds` have passed."""
        t_end = time.perf_counter() + seconds
        while self.blocks == 0 or time.perf_counter() < t_end:
            for op in self.wl.block(self.blocks):
                self.run_op(op)
            self.blocks += 1
        self.probes.append(self.probe())

    def replay(self, blocks: int, recorder):
        """The first `blocks` blocks, each op under its own op id."""
        for b in range(blocks):
            for op in self.wl.block(b):
                recorder.op_id = len(self.latency)
                self.run_op(op)
        self.blocks = blocks
        self.probes.append(self.probe())

    @property
    def scaled(self) -> list:
        """Op latencies at reference speed (seconds)."""
        return [dt * 2 * PROBE_REF_S / (before + after) for dt, before, after
                in zip(self.latency, self.probes, self.probes[1:])]

    def throughput(self, unit: str) -> float:
        """MC trials or FP rounds per second at reference speed."""
        pairs = [(op.units[1], dt) for op, dt in zip(self.ops, self.scaled)
                 if op.units and op.units[0] == unit]
        secs = sum(dt for _, dt in pairs)
        return sum(n for n, _ in pairs) / secs if secs else 0.0


def latency_metrics(seconds: list) -> dict:
    lat_ms = sorted(x * 1e3 for x in seconds)
    deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
    return {"ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
            "op_p50_ms": statistics.median(lat_ms),
            "op_p90_ms": deciles[8]}


def end_to_end(loop: Loop, setup_s: float) -> dict:
    """Times at reference speed; see Loop."""
    return {"setup_s": setup_s, **latency_metrics(loop.scaled),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
             "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the report (the last printed line plus
    human-readable extras)."""
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        # one core for the loop and the probe helper, which inherits it:
        # the probe then times the core the library runs on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        with Probe() as probe:
            return _run(name, seed, seconds, trace, workdir, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(name, seed, seconds, trace, workdir, probe) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        dt, wl = setup(name, seed, workdir, probe)
        setups.append(dt)
    tally = gate.Tally()
    loop = Loop(wl, tally, probe, load_digests(name, seed))
    extras = {"record": run_record(seed)}
    if not trace:
        loop.measure(seconds)
        wl.finish(tally)
        metrics = end_to_end(loop, statistics.median(setups))
        units = E2E_UNITS
        extras["ops"] = len(loop.latency)
        extras["failed_ratio"] = tally.failed_ratio
        for unit in ("mc_trials", "fp_rounds"):
            if loop.throughput(unit):
                extras[f"{unit}_per_s"] = loop.throughput(unit)
        extras["probe_ms"] = statistics.median(loop.probes) * 1e3
    else:
        metrics, extras["spans_file"] = traced(wl, loop, tally, seconds,
                                               name, seed)
        units = {k: v[0] for k, v in layers.METRICS.items()}
    extras["known_defect_failures"] = tally.known
    extras["unexpected_failures"] = tally.failures
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
        "extras": extras,
    }


def traced(wl, loop, tally, seconds, name, seed):
    """One plain pass for half the time, then the same blocks under spans."""
    loop.measure(seconds / 2)
    plain = sum(loop.scaled)
    untraced = {f"{u}_per_s": loop.throughput(u)
                for u in ("mc_trials", "fp_rounds")}
    replay = Loop(wl, tally, loop.probe, loop.digests)
    rec = spans.Recorder()
    layers.install(rec, wl.lib)
    try:
        replay.replay(loop.blocks, rec)
    finally:
        rec.uninstall()
    wl.finish(tally)
    overhead = sum(replay.scaled) / plain
    metrics = layers.derive(spans.SpanView(rec), rec.counters, untraced,
                            overhead)
    path = OUT / f"spans-{name}-seed{seed}.npz"
    rec.save(path)
    return metrics, str(path.relative_to(ROOT))


def report(result: dict) -> None:
    """Human-readable lines, then the JSON result as the last line."""
    extras = result["extras"]
    print(f"record {json.dumps(extras['record'], sort_keys=True)}")
    for key, value in result["metrics"].items():
        print(f"  {key:40s} {value['value']:14.6g} {value['unit']}")
    for key in ("ops", "failed_ratio", "mc_trials_per_s", "fp_rounds_per_s",
                "probe_ms"):
        if key in extras:
            print(f"  {key:40s} {extras[key]:14.6g}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"known-defect failures {extras['known_defect_failures']}  "
          f"unexpected failures {extras['unexpected_failures'] or 'none'}")
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


def write_digests():
    """Pin the exact outputs of the default seed (run once per deliberate
    change of the workloads, never to absorb a library change)."""
    OUT.mkdir(exist_ok=True)
    pinned = {}
    for name in ("solve-exact", "cli-mix"):
        workdir = tempfile.mkdtemp(prefix="digests-", dir=OUT)
        try:
            wl = WORKLOADS[name](import_library(), DEFAULT_SEED, workdir)
            tally = gate.Tally()
            pinned[name] = []
            for op in wl.pool:
                res = op.call()
                tally.record(op.check(res), op.kind, op.known_defect)
                pinned[name].append(op.digest(res) if op.digest else None)
            if not tally.correct:
                raise SystemExit(f"{name}: outputs fail the gate: "
                                 f"{tally.failures}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(pinned, indent=0) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-digests", action="store_true",
                   help="pin the default seed's exact outputs and exit")
    args = p.parse_args(argv)
    if args.write_digests:
        write_digests()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    report(run(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
