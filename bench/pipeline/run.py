#!/usr/bin/env python3
"""Build bench_pipeline from source, run one workload, print one JSON line.

Usage (from the repository root):
    python3 bench/pipeline/run.py --workload W --seed N --seconds S --trace 0|1
                                  [--keep DIR]

The first run configures and builds the benchmark (Release) under
$CARGO_TARGET_DIR/pipeline, default .bench_build/pipeline; later runs reuse
the build. The benchmark's own output goes to stderr. The last line of
stdout is {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1 (a traced run,
which also writes a Chrome trace-event file next to its report). --keep DIR
copies the run's full JSON report into DIR, for compare.py.

Exits nonzero, printing no result, when the build or the run fails.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "pipeline")
BINARY = os.path.join(BUILD, "bench_pipeline")
DEADLINE_S = 170.0  # a run must end within 180 s once the build exists


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configuring every time is cheap once the cache exists, and recovers
    # from a configure that failed part-way.
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "bench_pipeline", "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("run.py: build step failed:", " ".join(cmd))
            return False
    return True


def run_binary(args, timeout_s):
    """Runs the benchmark in its own process group (with any fleet workers it
    forks); on timeout or on our own termination the whole group is killed
    and reaped."""
    proc = subprocess.Popen(args, stdout=sys.stderr, stderr=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        log("run.py: benchmark exceeded %.0f s, killing it" % timeout_s)
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--keep", help="directory to copy the full JSON report into")
    a = p.parse_args()
    if a.seed < 0 or not (0 <= a.seconds <= 3600):
        p.error("--seed must be >= 0 and --seconds within 0..3600")
    # SIGTERM unwinds like an exception, so run_binary's cleanup still runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not build():
        return 2
    started = time.monotonic()

    name = "%s-seed%d-trace%d" % (a.workload, a.seed, a.trace)
    runs = os.path.join(BUILD, "runs")
    os.makedirs(runs, exist_ok=True)
    report = os.path.join(runs, name + ".json")
    if os.path.exists(report):
        os.remove(report)
    cmd = [BINARY, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--report", report,
           "--work-dir", os.path.join(BUILD, "work")]
    if a.trace:
        cmd += ["--trace", os.path.join(runs, name + ".trace.json")]
    code = run_binary(cmd, DEADLINE_S - (time.monotonic() - started))
    # 0: all checks passed, 1: a check failed (the report says which).
    if code not in (0, 1) or not os.path.exists(report):
        log("run.py: benchmark failed (exit %s)" % code)
        return 3

    with open(report) as f:
        r = json.load(f)
    metrics = r["layers" if a.trace else "metrics"]
    wanted = declared_metrics(a.trace)
    if wanted is not None:
        missing = [m for m in wanted if m not in metrics]
        if missing:
            log("run.py: report lacks declared metrics:", ", ".join(missing))
            return 4
        metrics = {m: metrics[m] for m in wanted}
    out = {}
    for key, m in metrics.items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            log("run.py: metric %s is not a finite number: %r" % (key, value))
            return 4
        out[key] = {"value": value, "unit": m["unit"]}
    if a.keep:
        os.makedirs(a.keep, exist_ok=True)
        shutil.copy(report, os.path.join(a.keep, name + ".json"))
    print(json.dumps({"correct": bool(r["correct"]), "attempted": int(r["attempted"]),
                      "failed": int(r["failed"]), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
