#!/usr/bin/env python3
"""Summarise or compare result records written by perfbench/run.py.

    python3 perfbench/compare.py summary DIR [DIR ...]  > baseline.json
    python3 perfbench/compare.py compare PARENT_DIR CHANGE_DIR

``summary`` prints, per workload, each end-to-end metric's median and
quartiles over the untraced runs, and the median of every per-layer value
over the traced runs.  ``compare`` prints each workload and end-to-end
metric in its own row: both medians, the change relative to the parent, and
whether it stays within the bound fixed in BENCHMARK.json.  Either command
flags records whose poisgeo kernels differ, since the compiled and the pure
kernel are different programs.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths):
    records = []
    for path in paths:
        files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
        for name in files:
            with open(name) as fh:
                records.append(json.load(fh))
    return records


def kernels(records):
    return sorted({r["provenance"]["kernel_name"] for r in records})


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def by_workload(records, trace):
    out = {}
    for r in records:
        if r["provenance"]["trace"] == trace:
            out.setdefault(r["provenance"]["workload"], []).append(r)
    return out


def op_sizes(runs):
    """Median scaled time of each op key over the runs; the slowest five, and the range."""
    times = {}
    for r in runs:
        for key, *_, scaled in r["op_times_s"]:
            times.setdefault(key, []).append(scaled)
    medians = sorted(((statistics.median(v), k) for k, v in times.items()), reverse=True)
    return {
        "distinct_ops": len(medians),
        "fastest_ms": 1e3 * medians[-1][0],
        "median_ms": 1e3 * statistics.median(m for m, _ in medians),
        "slowest_ms": {k: 1e3 * m for m, k in medians[:5]},
    }


def summary(records):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    result = {"kernels": kernels(records), "workloads": {}}
    for workload, runs in sorted(by_workload(records, 0).items()):
        metrics = {}
        for name in runs[0]["end_to_end"]:
            values = [r["end_to_end"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            metrics[name] = {
                "unit": runs[0]["end_to_end"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                "iqr_over_median": (q3 - q1) / med if med else 0.0, "runs": len(values),
            }
        entry = {
            "why": why.get(workload),
            "op_sizes": op_sizes(runs),
            "seeds": sorted(r["provenance"]["seed"] for r in runs),
            "ops_attempted": sum(r["attempted"] for r in runs),
            "ops_failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics,
        }
        result["workloads"][workload] = entry
    for workload, runs in sorted(by_workload(records, 1).items()):
        keys = sorted(set().union(*(r["layer_table"] for r in runs)))
        table = {k: statistics.median(r["layer_table"].get(k, 0) for r in runs) for k in keys}
        entry = result["workloads"].setdefault(workload, {})
        entry["traced_runs"] = len(runs)
        entry["per_layer"] = {k: v for k, v in table.items() if v}
        entry["tracing_overhead"] = {
            k: table[k] for k in ("trace.untraced_ops_per_s", "trace.traced_ops_per_s",
                                  "trace.overhead_ops_per_s", "trace.spans")
        }
    return result


def compare(parent, change):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse_count = 0
    a, b = by_workload(parent, 0), by_workload(change, 0)
    print(f"{'workload':16s} {'metric':16s} {'parent':>12s} {'change':>12s} {'change %':>9s}  verdict")
    for workload in sorted(set(a) & set(b)):
        for name, m in bounds.items():
            pa = [r["end_to_end"][name]["value"] for r in a[workload]]
            pb = [r["end_to_end"][name]["value"] for r in b[workload]]
            ma, mb = statistics.median(pa), statistics.median(pb)
            rel = (mb - ma) / ma
            worse = rel if m["better"] == "lower" else -rel
            q1, _, q3 = quartiles(pa)
            if worse > m["bound"]:
                verdict = "WORSE than bound"
                worse_count += 1
            elif (q3 - q1) / ma > m["bound"]:
                verdict = "unresolved (parent spread exceeds bound)"
            else:
                verdict = "within bound"
            print(f"{workload:16s} {name:16s} {ma:12.5g} {mb:12.5g} {100 * rel:+8.2f}%  {verdict}")
    return worse_count


def main(argv):
    if len(argv) < 2 or argv[0] not in ("summary", "compare"):
        print(__doc__, file=sys.stderr)
        return 2
    if argv[0] == "summary":
        records = load(argv[1:])
        if len(kernels(records)) > 1:
            print(f"WARNING: records mix kernels {kernels(records)}", file=sys.stderr)
        print(json.dumps(summary(records), indent=1, sort_keys=True))
        return 0
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load([argv[1]]), load([argv[2]])
    if kernels(parent) != kernels(change) or len(kernels(parent)) > 1:
        print(f"WARNING: kernels differ (parent {kernels(parent)}, change {kernels(change)}); "
              "this compares two implementations, not two commits", file=sys.stderr)
    return 1 if compare(parent, change) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
