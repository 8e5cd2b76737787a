#!/usr/bin/env python3
"""Compare two sets of bench_pipeline runs, parent against change.

Usage:
    python3 bench/pipeline/compare.py PARENT_DIR CHANGE_DIR
    python3 bench/pipeline/compare.py --selftest

Each directory holds the JSON reports of one set of runs (run.py --keep DIR).
For every (workload, end-to-end metric) it prints each side's median and
quartiles, the share of seed-matched pairs the change won, and a status:

    regressed   the change's median is worse than the parent's by more than
                the metric's bound (BENCHMARK.json at the repository root);
    unresolved  not regressed, but a side's IQR is wider than the bound, and
                not every change run beats every parent run;
    unchanged   otherwise.

It also lists deterministic counters that differ between traced runs of the
same workload and seed. Exit status: 1 on any regression or any rise in failed_share
(failed / attempted), else 0.
"""

import argparse
import glob
import json
import os
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")

# Counters the library reports that repeat exactly for a fixed seed.
DETERMINISTIC = ["cache.hits", "cache.misses", "yield.samples", "yield.candidates",
                 "yield.exact_solves", "fabric.leases_issued", "journal.records"]


def load_reports(directory):
    reports = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        if "workload" in r and "metrics" in r:
            reports.append(r)
    if not reports:
        raise SystemExit("compare.py: no bench_pipeline reports in %s" % directory)
    return reports


def traced(report):
    return report.get("reps", {}).get("traced", 0) > 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def worse_share(parent, change, better):
    """How much worse `change` is than `parent`, as a share of `parent`."""
    delta = (change - parent) if better == "lower" else (parent - change)
    return delta / abs(parent) if parent else 0.0


def matched_pairs(parent, change):
    """(parent, change) report pairs: same workload and seed where both have it."""
    key = lambda r: (r["workload"], r["seed"])
    by_key = {key(r): r for r in change}
    return [(p, by_key[key(p)]) for p in parent if key(p) in by_key]


def compare(parent, change, spec):
    rows = []
    failed_rise = []
    workloads = sorted({r["workload"] for r in parent} & {r["workload"] for r in change})
    for w in workloads:
        p_runs = [r for r in parent if r["workload"] == w and not traced(r)]
        c_runs = [r for r in change if r["workload"] == w and not traced(r)]
        p_all = [r for r in parent if r["workload"] == w]
        c_all = [r for r in change if r["workload"] == w]
        share = lambda runs: (sum(r["failed"] for r in runs) /
                              max(1, sum(r["attempted"] for r in runs)))
        if share(c_all) > share(p_all):
            failed_rise.append((w, share(p_all), share(c_all)))
        if not p_runs or not c_runs:
            continue
        pairs = matched_pairs(p_runs, c_runs)
        for m in spec["end_to_end"]:
            name, bound, better = m["name"], m["bound"], m["better"]
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            p_med, c_med = statistics.median(pv), statistics.median(cv)
            p_q, c_q = quartiles(pv), quartiles(cv)
            iqr = max((p_q[1] - p_q[0]) / abs(p_med) if p_med else 0.0,
                      (c_q[1] - c_q[0]) / abs(c_med) if c_med else 0.0)
            won = sum(1 for p, c in pairs
                      if worse_share(p["metrics"][name]["value"],
                                     c["metrics"][name]["value"], better) < 0)
            worse = worse_share(p_med, c_med, better)
            all_better = (max(cv) < min(pv)) if better == "lower" else (min(cv) > max(pv))
            if worse > bound:
                status = "regressed"
            elif iqr > bound and not all_better:
                status = "unresolved"
            else:
                status = "unchanged"
            rows.append({"workload": w, "metric": name, "unit": m["unit"],
                         "parent": (p_med, p_q), "change": (c_med, c_q),
                         "worse": worse, "iqr": iqr, "bound": bound,
                         "won": (won, len(pairs)), "status": status})

    counter_diffs = []
    for p, c in matched_pairs([r for r in parent if traced(r)],
                              [r for r in change if traced(r)]):
        for name in DETERMINISTIC:
            a = p.get("layers", {}).get(name, {}).get("value")
            b = c.get("layers", {}).get(name, {}).get("value")
            if a != b:
                counter_diffs.append((p["workload"], p["seed"], name, a, b))
    return rows, failed_rise, counter_diffs


def render(rows, failed_rise, counter_diffs, out=sys.stdout):
    fmt = "%-16s %-12s %24s %24s %8s %7s %6s %7s  %s"
    print(fmt % ("workload", "metric", "parent median [q1,q3]", "change median [q1,q3]",
                 "worse", "iqr", "bound", "won", "status"), file=out)
    for r in rows:
        side = lambda s: "%.4g [%.4g,%.4g]" % (s[0], s[1][0], s[1][1])
        print(fmt % (r["workload"], r["metric"], side(r["parent"]), side(r["change"]),
                     "%+.1f%%" % (100 * r["worse"]), "%.1f%%" % (100 * r["iqr"]),
                     "%.0f%%" % (100 * r["bound"]), "%d/%d" % r["won"], r["status"]),
              file=out)
    for w, a, b in failed_rise:
        print("failed_share rose on %s: %.3g -> %.3g" % (w, a, b), file=out)
    for w, seed, name, a, b in counter_diffs:
        print("counter %s differs on %s seed %s: %s -> %s" % (name, w, seed, a, b), file=out)


def verdict(rows, failed_rise):
    return 1 if failed_rise or any(r["status"] == "regressed" for r in rows) else 0


def selftest():
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
                           {"name": "throughput", "unit": "1/s", "better": "higher",
                            "bound": 0.1}]}

    def write_set(directory, walls, failed=0):
        os.makedirs(directory)
        for seed, wall in enumerate(walls, start=1):
            report = {"workload": "w", "seed": seed, "reps": {"timed": 3, "traced": 0},
                      "attempted": 100, "failed": failed if seed == 1 else 0,
                      "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                  "throughput": {"value": 100.0 / wall, "unit": "1/s"}}}
            with open(os.path.join(directory, "w-seed%d.json" % seed), "w") as f:
                json.dump(report, f)

    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    cases = [
        # name, parent walls, change walls, change failed, expected statuses, expected exit
        ("same", steady, steady, 0, {"unchanged"}, 0),
        ("slower", steady, [v * 1.2 for v in steady], 0, {"regressed"}, 1),
        ("faster", steady, [v * 0.8 for v in steady], 0, {"unchanged"}, 0),
        ("noisy", steady, [0.7, 1.3, 0.75, 1.25, 1.0, 0.8, 1.2, 0.85, 1.15, 1.0], 0,
         {"unresolved"}, 0),
        ("noisy but always better", [1.5, 1.9, 1.6, 2.0, 1.7, 1.8, 1.55, 1.95, 1.65, 1.85],
         steady, 0, {"unchanged"}, 0),
        ("failures rose", steady, steady, 1, {"unchanged"}, 1),
    ]
    failures = 0
    for name, p_walls, c_walls, c_failed, statuses, code in cases:
        with tempfile.TemporaryDirectory() as tmp:
            write_set(os.path.join(tmp, "p"), p_walls)
            write_set(os.path.join(tmp, "c"), c_walls, c_failed)
            rows, rise, _ = compare(load_reports(os.path.join(tmp, "p")),
                                    load_reports(os.path.join(tmp, "c")), spec)
        got = {r["status"] for r in rows}
        ok = got == statuses and verdict(rows, rise) == code
        failures += not ok
        print("selftest %-24s %s (statuses %s, exit %d)" % (name, "ok" if ok else "FAILED",
                                                           sorted(got), verdict(rows, rise)))
    # Pairs are matched by seed, and the won share counts strict wins only.
    rows, _, _ = compare([{"workload": "w", "seed": s, "attempted": 1, "failed": 0,
                           "metrics": {"wall_s": {"value": 1.0, "unit": "s"},
                                       "throughput": {"value": 1.0, "unit": "1/s"}}}
                          for s in (1, 2)],
                         [{"workload": "w", "seed": s, "attempted": 1, "failed": 0,
                           "metrics": {"wall_s": {"value": v, "unit": "s"},
                                       "throughput": {"value": 1.0, "unit": "1/s"}}}
                          for s, v in ((2, 0.9), (3, 0.5))], spec)
    ok = rows[0]["won"] == (1, 1) and rows[1]["won"] == (0, 1)
    failures += not ok
    print("selftest %-24s %s" % ("pairing by seed", "ok" if ok else "FAILED"))
    # Traced runs of two workloads under one seed: each pairs with its own
    # workload, so drift in the first one loaded is reported too.
    def traced_report(workload, hits):
        return {"workload": workload, "seed": 1, "reps": {"timed": 1, "traced": 1},
                "attempted": 1, "failed": 0, "metrics": {},
                "layers": {"cache.hits": {"value": hits, "unit": "count"}}}
    _, _, diffs = compare([traced_report("a", 10), traced_report("b", 5)],
                          [traced_report("a", 11), traced_report("b", 5)], spec)
    ok = diffs == [("a", 1, "cache.hits", 10, 11)]
    failures += not ok
    print("selftest %-24s %s" % ("counters per workload", "ok" if ok else "FAILED"))
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", nargs="?")
    p.add_argument("change", nargs="?")
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if a.selftest:
        return selftest()
    if not a.parent or not a.change:
        p.error("PARENT_DIR and CHANGE_DIR are required")
    with open(BENCHMARK) as f:
        spec = json.load(f)
    rows, failed_rise, counter_diffs = compare(load_reports(a.parent),
                                               load_reports(a.change), spec)
    render(rows, failed_rise, counter_diffs)
    return verdict(rows, failed_rise)


if __name__ == "__main__":
    sys.exit(main())
