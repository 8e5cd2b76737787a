#!/usr/bin/env python3
"""CI gate over bench_solver_perf output (BENCH_solver.json).

Reads the google-benchmark JSON emitted by

    bench_solver_perf --benchmark_out=BENCH_solver.json \
                      --benchmark_out_format=json

and fails (exit 1) when any perf invariant regresses:

  * the structure-aware sparse kernel must beat the dense oracle on the
    regulator cold solve (warm numbers are reported but not gated: they
    are dominated by Newton iteration count, not factorization cost);
  * the batched lane-parallel cell-analysis kernel must stay at least
    MIN_BATCHED_SPEEDUP x faster than the scalar oracle on both the
    hold-SNM ladder and DRV extraction;
  * the vectorized MOSFET lane kernel must stay at least
    MIN_SIMD_LANE_SPEEDUP x the scalar-lane throughput;
  * the lockstep batched transient engine must stay at least
    MIN_BATCHED_SPEEDUP x faster than the serial per-defect path.

A benchmark registered with Repetitions(N) (the hold-SNM and transient
pairs are) is gated on the median of its repetitions' real times, which the report
carries as its `median` aggregate; any other on its one measurement.

Every gated benchmark name is checked for presence up front: a missing
name is a hard failure (a silently skipped gate is a regression vector —
a renamed or dropped benchmark must fail CI, not pass it by absence).

Build hygiene: the report must carry the custom `lpsram_build_type`
context (stamped by bench_solver_perf's main from NDEBUG) and it must say
"release" — numbers from a debug build are refused, not gated. The stock
`library_build_type` field describes the *installed benchmark library*
and only warrants a warning.

Usage: check_bench_solver.py [BENCH_solver.json]
"""
import json
import re
import sys

# Floor on scalar/batched for BM_HoldSnm, BM_DrvExtraction and the lockstep
# transient engine. Measured headroom is ~4.5x (SNM), ~10x (DRV) and ~4x
# (defect transients); 3.0 is the acceptance line.
MIN_BATCHED_SPEEDUP = 3.0

# Floor on scalar-lane / SIMD-lane time for the MOSFET kernel. AVX2 carries
# four lanes per instruction; 2.0 leaves room for the vexp polynomial doing
# more raw work per element than libm's table-driven exp.
MIN_SIMD_LANE_SPEEDUP = 2.0

# Every name a gate below reads. Checked for presence before any gating so
# a renamed/dropped benchmark fails with a full list instead of passing
# silently or dying on the first lookup.
GATED_BENCHMARKS = (
    "BM_RegulatorDcColdSparse",
    "BM_RegulatorDcColdDense",
    "BM_RegulatorDcWarmSparse",
    "BM_RegulatorDcWarmDense",
    "BM_HoldSnmScalar",
    "BM_HoldSnmBatched",
    "BM_DrvExtractionScalar",
    "BM_DrvExtractionBatched",
    "BM_MosfetEvalLanesScalar",
    "BM_MosfetEvalLanesSimd",
    "BM_DefectTransientsSerial",
    "BM_DefectTransientsLockstep",
)


def registered_name(b):
    """The name a benchmark was registered under: google-benchmark reports
    one registered with Repetitions(N) as "<name>/repeats:N"."""
    return re.sub(r"/repeats:\d+$", "", b.get("run_name", b.get("name", "")))


def real_time_ns(benchmarks, name):
    runs = [b for b in benchmarks if registered_name(b) == name]
    for b in runs:
        if b.get("aggregate_name") == "median":
            return float(b["real_time"])
    for b in runs:
        if b.get("run_type", "iteration") != "aggregate":
            return float(b["real_time"])
    raise SystemExit(f"error: benchmark '{name}' missing from the report")


def check_presence(benchmarks):
    present = {registered_name(b) for b in benchmarks
               if b.get("run_type", "iteration") != "aggregate"}
    missing = [n for n in GATED_BENCHMARKS if n not in present]
    for name in missing:
        print(f"FAIL: gated benchmark '{name}' missing from the report — "
              "re-record from a current bench_solver_perf binary (a missing "
              "gate must fail, not silently pass)", file=sys.stderr)
    return not missing


def check_build_type(context):
    build = context.get("lpsram_build_type")
    if build is None:
        print("FAIL: report lacks the 'lpsram_build_type' context — it was "
              "recorded by a bench binary predating the build-type stamp; "
              "re-record from a current Release build", file=sys.stderr)
        return False
    if build != "release":
        print(f"FAIL: bench binary was built '{build}', not 'release' — "
              "refusing to gate on debug-build timings", file=sys.stderr)
        return False
    if context.get("library_build_type") == "debug":
        print("warning: the google-benchmark *library* is a debug build "
              "(distro default); harness overhead is slightly inflated but "
              "ratios remain meaningful", file=sys.stderr)
    return True


def main(argv):
    path = argv[1] if len(argv) > 1 else "BENCH_solver.json"
    with open(path) as f:
        report = json.load(f)
    benchmarks = report.get("benchmarks", [])
    context = report.get("context", {})

    if not check_build_type(context):
        return 1
    if not check_presence(benchmarks):
        return 1

    backend = context.get("lpsram_simd_backend", "unknown")
    width = context.get("lpsram_simd_width", "?")
    print(f"simd backend: {backend} (width {width})")

    cold_sparse = real_time_ns(benchmarks, "BM_RegulatorDcColdSparse")
    cold_dense = real_time_ns(benchmarks, "BM_RegulatorDcColdDense")
    warm_sparse = real_time_ns(benchmarks, "BM_RegulatorDcWarmSparse")
    warm_dense = real_time_ns(benchmarks, "BM_RegulatorDcWarmDense")

    print(f"cold: sparse {cold_sparse:12.0f} ns   dense {cold_dense:12.0f} ns"
          f"   speedup {cold_dense / cold_sparse:5.2f}x")
    print(f"warm: sparse {warm_sparse:12.0f} ns   dense {warm_dense:12.0f} ns"
          f"   speedup {warm_dense / warm_sparse:5.2f}x")

    failed = False
    if cold_sparse >= cold_dense:
        print("FAIL: sparse kernel is not faster than dense on the regulator "
              "cold solve", file=sys.stderr)
        failed = True
    else:
        print("OK: sparse kernel beats dense on the regulator cold solve")

    for label, scalar_name, batched_name in (
        ("hold-SNM", "BM_HoldSnmScalar", "BM_HoldSnmBatched"),
        ("DRV extraction", "BM_DrvExtractionScalar", "BM_DrvExtractionBatched"),
    ):
        scalar = real_time_ns(benchmarks, scalar_name)
        batched = real_time_ns(benchmarks, batched_name)
        speedup = scalar / batched
        print(f"{label}: scalar {scalar:12.0f} ns   batched "
              f"{batched:12.0f} ns   speedup {speedup:5.2f}x")
        if speedup < MIN_BATCHED_SPEEDUP:
            print(f"FAIL: batched cell kernel is only {speedup:.2f}x the "
                  f"scalar oracle on {label} (floor "
                  f"{MIN_BATCHED_SPEEDUP:.1f}x)", file=sys.stderr)
            failed = True
        else:
            print(f"OK: batched cell kernel holds >= "
                  f"{MIN_BATCHED_SPEEDUP:.1f}x on {label}")

    lanes_scalar = real_time_ns(benchmarks, "BM_MosfetEvalLanesScalar")
    lanes_simd = real_time_ns(benchmarks, "BM_MosfetEvalLanesSimd")
    lanes_speedup = lanes_scalar / lanes_simd
    print(f"mosfet lanes: scalar {lanes_scalar:12.0f} ns   simd "
          f"{lanes_simd:12.0f} ns   speedup {lanes_speedup:5.2f}x")
    if lanes_speedup < MIN_SIMD_LANE_SPEEDUP:
        print(f"FAIL: SIMD MOSFET lanes are only {lanes_speedup:.2f}x the "
              f"scalar lanes (floor {MIN_SIMD_LANE_SPEEDUP:.1f}x)",
              file=sys.stderr)
        failed = True
    else:
        print(f"OK: SIMD MOSFET lanes hold >= {MIN_SIMD_LANE_SPEEDUP:.1f}x")

    serial = real_time_ns(benchmarks, "BM_DefectTransientsSerial")
    lockstep = real_time_ns(benchmarks, "BM_DefectTransientsLockstep")
    batch_speedup = serial / lockstep
    print(f"defect transients: serial {serial:12.0f} ns   lockstep "
          f"{lockstep:12.0f} ns   speedup {batch_speedup:5.2f}x")
    if batch_speedup < MIN_BATCHED_SPEEDUP:
        print(f"FAIL: lockstep transient batch is only {batch_speedup:.2f}x "
              f"the serial per-defect path (floor "
              f"{MIN_BATCHED_SPEEDUP:.1f}x)", file=sys.stderr)
        failed = True
    else:
        print(f"OK: lockstep transient batch holds >= "
              f"{MIN_BATCHED_SPEEDUP:.1f}x")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
