#!/usr/bin/env python3
"""Compare a Google-Benchmark JSON run against a recorded baseline.

Usage:
    tools/compare_benches.py BASELINE CURRENT [--threshold PCT]
                             [--advisory] [--out REPORT]
                             [--require PREFIX ...]

BASELINE is either the repo's BENCH_baseline.json (its top-level
"benchmarks" table) or a raw Google-Benchmark ``--benchmark_out`` JSON.
CURRENT is a raw Google-Benchmark JSON. Benchmarks present in both are
compared on throughput (items_per_second) when the baseline records it,
otherwise on real_time (lower is better).

Exit status 1 when any shared benchmark regresses by more than the
threshold (default 10%), unless --advisory is given: then the
comparison table is still printed (and written with --out) but the
exit status is always 0. Use --advisory on hardware that differs from
the machine the baseline was recorded on — absolute numbers only
transfer between identical hosts; see docs/performance.md for the
methodology (including why noisy-host runs need interleaved A/B
comparisons rather than this gate).

The comparison silently skips baseline entries absent from CURRENT (a
partial run is a valid way to gate a subset). --require PREFIX closes
that hole for benchmarks that must never drop out of a gated run: exit
status 2 if no compared benchmark name starts with PREFIX (repeatable).
PREFIX matches whole '/'-separated segments only, so
BM_SimulateProcessors/2 names the 2-processor leg and is not satisfied
by BM_SimulateProcessors/256, and BM_ClusterShareRefs does not match
BM_ClusterShareRefsLB/64.
"""

import argparse
import json
import sys


def load_baseline(path):
    """Return {name: {"items_per_second": x | None, "real_time": y | None,
    "time_unit": u}} from either baseline format."""
    with open(path) as f:
        data = json.load(f)
    if isinstance(data.get("benchmarks"), dict):
        # Repo baseline format: already a name -> metrics table.
        return {
            name: {
                "items_per_second": row.get("items_per_second"),
                "real_time": row.get("real_time"),
                "time_unit": row.get("time_unit", "ns"),
            }
            for name, row in data["benchmarks"].items()
        }
    return extract_gbench(data)


def extract_gbench(data):
    """Flatten a raw Google-Benchmark JSON into the comparison table."""
    table = {}
    for row in data.get("benchmarks", []):
        if row.get("run_type") == "aggregate" and \
                row.get("aggregate_name") != "mean":
            continue
        name = row.get("run_name", row.get("name"))
        if name is None:
            continue
        # Keep the best (max throughput / min time) across repetitions:
        # on shared hardware the fastest repetition is the least
        # interfered-with estimate of the code's true cost.
        entry = table.setdefault(
            name,
            {"items_per_second": None, "real_time": None,
             "time_unit": row.get("time_unit", "ns")})
        ips = row.get("items_per_second")
        if ips is not None:
            entry["items_per_second"] = (
                ips if entry["items_per_second"] is None
                else max(entry["items_per_second"], ips))
        rt = row.get("real_time")
        if rt is not None:
            entry["real_time"] = (
                rt if entry["real_time"] is None
                else min(entry["real_time"], rt))
    return table


def compare(baseline, current, threshold_pct):
    """Yield (name, metric, base, cur, delta_pct, regressed) rows."""
    for name in sorted(baseline):
        if name not in current:
            continue
        base, cur = baseline[name], current[name]
        if base.get("items_per_second") and cur.get("items_per_second"):
            b, c = base["items_per_second"], cur["items_per_second"]
            delta = (c - b) / b * 100.0  # higher is better
            yield name, "items/s", b, c, delta, delta < -threshold_pct
        elif base.get("real_time") and cur.get("real_time"):
            b, c = base["real_time"], cur["real_time"]
            delta = (b - c) / b * 100.0  # lower is better; + == faster
            unit = "time(%s)" % base.get("time_unit", "ns")
            yield name, unit, b, c, delta, delta < -threshold_pct


def segment_prefix(prefix, name):
    """True when PREFIX's '/'-separated segments open NAME's."""
    want = prefix.split("/")
    return name.split("/")[:len(want)] == want


def fmt(value, metric):
    if metric == "items/s":
        return "%.3fM" % (value / 1e6)
    return "%.3f" % value


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="regression threshold in percent (default 10)")
    ap.add_argument("--advisory", action="store_true",
                    help="report but never fail (cross-machine runs)")
    ap.add_argument("--out", help="also write the report to this file")
    ap.add_argument("--require", action="append", default=[],
                    metavar="PREFIX",
                    help="fail unless a compared benchmark name starts "
                         "with PREFIX's whole '/'-separated segments "
                         "(repeatable)")
    args = ap.parse_args()

    baseline = load_baseline(args.baseline)
    with open(args.current) as f:
        current = extract_gbench(json.load(f))

    rows = list(compare(baseline, current, args.threshold))
    if not rows:
        print("error: no overlapping benchmarks between %s and %s"
              % (args.baseline, args.current), file=sys.stderr)
        return 2
    compared = [name for name, *_ in rows]
    for prefix in args.require:
        if not any(segment_prefix(prefix, name) for name in compared):
            print("error: required benchmark '%s' (or '%s/...') missing "
                  "from the comparison (not in both %s and %s)"
                  % (prefix, prefix, args.baseline, args.current),
                  file=sys.stderr)
            return 2

    lines = ["%-40s %10s %12s %12s %8s %s"
             % ("benchmark", "metric", "baseline", "current",
                "delta", "")]
    regressions = 0
    for name, metric, b, c, delta, regressed in rows:
        flag = ""
        if regressed:
            flag = "REGRESSION"
            regressions += 1
        elif delta > args.threshold:
            flag = "improved"
        lines.append("%-40s %10s %12s %12s %+7.1f%% %s"
                     % (name, metric, fmt(b, metric), fmt(c, metric),
                        delta, flag))
    lines.append("")
    lines.append("%d benchmark(s) compared, %d regression(s) beyond "
                 "%.0f%%%s" % (len(rows), regressions, args.threshold,
                               " [advisory]" if args.advisory else ""))
    report = "\n".join(lines)
    print(report)
    if args.out:
        with open(args.out, "w") as f:
            f.write(report + "\n")

    if regressions and not args.advisory:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
