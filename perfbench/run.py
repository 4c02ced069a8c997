#!/usr/bin/env python3
"""poisgeo benchmark: closed-loop workloads with exact output checks.

Run from the repository root:

    python3 perfbench/run.py --workload cli_corpus --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
measures the same untraced loop, then replays its first pass (or first
batch of specs) with every poisgeo layer wrapped in spans, and reports the
per-layer metrics and the tracing overhead.  End-to-end times are process
CPU times scaled to a fixed reference speed of the machine (``refclock.py``).
The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; a fuller record, with provenance, goes to .bench_out/results/.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 7  # set-ups per run: this process plus six fresh interpreters
TRACE_OPS = {"cli_corpus": 32, "check_generated": 40, "betti_windows": 34}


def benchmark_metrics(kind):
    """{name: unit} of the end_to_end or per_layer metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this fresh interpreter and print it")
    return ap.parse_args(argv)


def git_sha():
    """The checkout's commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def timed_setup(workload_name, seed, workdir):
    """Import poisgeo and write the workload's inputs; returns (workload, s),
    the CPU time scaled to the reference speed measured just before and after."""
    from perfbench.refclock import NOMINAL_S, cpu_clock, reference_seconds

    before = reference_seconds()
    t0 = cpu_clock()
    import poisgeo  # noqa: F401
    import poisgeo.cli  # noqa: F401

    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed, workdir)
    seconds = cpu_clock() - t0
    return workload, seconds * NOMINAL_S / statistics.median([before, reference_seconds()])


def fresh_setup_seconds(args):
    """Set-up time in a fresh interpreter, which is waited for."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        fail(f"set-up subprocess failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class SetupSampler:
    """Takes the fresh-interpreter set-ups between batches, spread over the run.

    The machine's speed drifts over seconds; samples taken at one moment
    would all share that moment's speed, so their median would too.
    """

    def __init__(self, args, first):
        self.args = args
        self.samples = [first]
        self.due = [args.seconds * k / (SETUP_SAMPLES - 1) for k in range(SETUP_SAMPLES - 1)]

    def after_batch(self, elapsed):
        while self.due and elapsed >= self.due[0]:
            self.due.pop(0)
            self.samples.append(fresh_setup_seconds(self.args))

    def finish(self):
        self.after_batch(float("inf"))
        return self.samples


def timed_op(workload, op):
    """(op, payload or exception, CPU seconds) of one op (``refclock.cpu_clock``)."""
    from perfbench.refclock import cpu_clock

    t0 = cpu_clock()
    try:
        out = op.run()
    except Exception as exc:  # an op that raises counts as failed
        return op, exc, cpu_clock() - t0
    dt = cpu_clock() - t0
    return op, workload.payload(out), dt


def closed_loop(workload, seconds, clock, after_batch):
    """Send ops one after another until ``seconds`` of wall time have passed.

    The run stops only at the end of a batch (a pass over the corpus or the
    windows, or a block of generated specs), so every run measures whole
    batches.  Returns [(op, payload or exception, CPU seconds)], each op's
    (wall start, wall end, CPU seconds), and the number of ops of each
    batch.  Sampling the reference clock, writing the next block of inputs
    and reducing outputs to payloads happen between timed ops.
    """
    records, intervals, batch_sizes = [], [], []
    start = time.perf_counter()
    for batch in workload.batches():
        for op in batch:
            clock.maybe_sample()
            t0 = time.perf_counter()
            records.append(timed_op(workload, op))
            intervals.append((t0, time.perf_counter(), records[-1][2]))
        batch_sizes.append(len(batch))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(records) >= workload.min_ops:
            clock.sample()
            return records, intervals, batch_sizes
        after_batch(elapsed)


def verify(records):
    """Judge every op's payload; identical repeated payloads are judged once."""
    verdicts = {}
    failed = 0
    first_error = None
    for op, out, _ in records:
        if isinstance(out, Exception):
            error = f"{op.key}: raised {type(out).__name__}: {out}"
        else:
            key = (op.key, out)
            if key not in verdicts:
                try:
                    op.verify(out)
                    verdicts[key] = None
                except Exception as exc:  # oracle failure or malformed output
                    verdicts[key] = f"{op.key}: {type(exc).__name__}: {exc}"
            error = verdicts[key]
        if error:
            failed += 1
            first_error = first_error or error
    return failed, first_error


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def kind_medians(records, op_times):
    """The median time of each kind of op (its key) over the run."""
    times = {}
    for (op, _, _), dt in zip(records, op_times):
        times.setdefault(op.key, []).append(dt)
    return [statistics.median(v) for v in times.values()]


def end_to_end(records, op_times, batch_sizes, setup_samples, peak_rss_mb):
    """Every time is scaled to the reference speed (``refclock``).

    The latency percentiles are taken over the kinds of op, each at its
    median time.  A pass of cli_corpus or betti_windows sends each kind
    once, so this is the percentile of the pass's mix without the noise of
    single ops; on check_generated no spec repeats, and every kind is one
    op.  ops_per_s is the median over batches, which damps the episodes in
    which the machine runs slower or faster for a few seconds."""
    rates = []
    start = 0
    for n in batch_sizes:
        rates.append(n / sum(op_times[start:start + n]))
        start += n
    kinds = kind_medians(records, op_times)
    return {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "latency_p50_ms": (statistics.median(kinds) * 1e3, "ms"),
        "latency_p90_ms": (percentile(kinds, 90) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def traced_pass(workload, records, tracer):
    """Replay the first ops of the untraced loop with spans on.

    Returns the per-layer table, with the overhead taken on the same ops:
    untraced ops/s uses each op's median untraced time over all passes.
    """
    tracer.install()
    tracer.enabled = True
    try:
        traced = []
        for k, (op, _, _) in enumerate(records[:TRACE_OPS[workload.name]]):
            tracer.current_op = k
            traced.append(timed_op(workload, op))
    finally:
        tracer.enabled = False
        tracer.uninstall()
    table = tracer.table()
    untraced = {}
    for op, _, dt in records:
        untraced.setdefault(op.key, []).append(dt)
    untraced_s = sum(statistics.median(untraced[op.key]) for op, _, _ in traced)
    traced_s = sum(dt for _, _, dt in traced)
    table["trace.untraced_ops_per_s"] = len(traced) / untraced_s
    table["trace.traced_ops_per_s"] = len(traced) / traced_s
    table["trace.overhead_ops_per_s"] = table["trace.untraced_ops_per_s"] - table["trace.traced_ops_per_s"]
    table["trace.spans"] = len(tracer.start)
    return table, traced


def derived_layer_metrics(table):
    """Ratios and per-class and per-layer sums built from the raw table."""
    from perfbench.tracer import LAYERS

    for layer in LAYERS:
        table[f"layer.{layer}.self_s"] = sum(
            v for k, v in table.items() if k.startswith(f"{layer}.") and k.endswith(".self_s"))
    calls = table["polyops.poly_gcd.calls"]
    table["polyops.poly_gcd.nontrivial_ratio"] = (
        table["polyops.poly_gcd.nontrivial"] / calls if calls else 0.0)
    entries = table["cohomology.assemble_dpi_matrix.entries"]
    table["cohomology.assemble_dpi_matrix.nnz_ratio"] = (
        table["cohomology.assemble_dpi_matrix.nonzeros"] / entries if entries else 0.0)
    table["scalar.ScalarField.constructions"] = table["scalar.ScalarField.init.calls"]
    table["scalar.ScalarField.self_s"] = sum(
        v for k, v in table.items() if k.startswith("scalar.ScalarField.") and k.endswith(".self_s"))
    return table


def provenance(args, kernel_name):
    return {
        "git_sha": git_sha(),
        "kernel_name": kernel_name,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_one(args):
    from perfbench.refclock import NOMINAL_S, RefClock

    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload, setup_s = timed_setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return
        phases = {"setup": setup_s}
        mark = time.perf_counter()
        workload.warmup()
        sampler = SetupSampler(args, setup_s)
        clock = RefClock()
        records, intervals, batch_sizes = closed_loop(
            workload, args.seconds, clock, sampler.after_batch)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_samples = sampler.finish()
        phases["loop"], mark = time.perf_counter() - mark, time.perf_counter()

        import poisgeo

        prov = provenance(args, poisgeo.kernel_name)
        op_times = clock.scaled(intervals)
        e2e = end_to_end(records, op_times, batch_sizes, setup_samples, peak_rss_mb)
        checked = list(records)
        record = {"provenance": prov, "setup_samples_s": setup_samples,
                  "batch_sizes": batch_sizes,
                  "reference_s": clock.seconds, "reference_nominal_s": NOMINAL_S,
                  "op_times_s": [[op.key, t1 - t0, dt, scaled]
                                 for (t0, t1, dt), (op, _, _), scaled
                                 in zip(intervals, records, op_times)]}
        if args.trace:
            from perfbench.tracer import Tracer

            tracer = Tracer()
            table, traced = traced_pass(workload, records, tracer)
            table = derived_layer_metrics(table)
            checked += traced
            os.makedirs(os.path.join(OUT_DIR, "spans"), exist_ok=True)
            tracer.save(os.path.join(OUT_DIR, "spans", f"{args.workload}-seed{args.seed}.npz"))
            metrics = {k: (table[k], unit) for k, unit in benchmark_metrics("per_layer").items()}
            record["layer_table"] = table
            phases["traced"], mark = time.perf_counter() - mark, time.perf_counter()
        else:
            metrics = {k: e2e[k] for k in benchmark_metrics("end_to_end")}
        failed, first_error = verify(checked)
        phases["verify"] = time.perf_counter() - mark
        record["phases_s"] = phases
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    record.update(result)
    record["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    if first_error:
        record["first_error"] = first_error
        print(f"first failure: {first_error}", file=sys.stderr)
    results = os.path.join(OUT_DIR, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    with open(os.path.join(results, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("phases_s " + json.dumps({k: round(v, 3) for k, v in phases.items()}), file=sys.stderr)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))


def run_all(args):
    """Every workload in its own process; prints each metric with its unit."""
    from perfbench.workloads import WORKLOADS

    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, cwd=ROOT,
        )
        if proc.returncode != 0:
            fail(f"{name} failed: {proc.stderr[-2000:]}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        print(f"{name}: {lines[-2]}")
        print(f"{name}: ops_failed/ops_attempted = {result['failed']}/{result['attempted']}"
              f"  correct={result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"{name}: {metric} = {m['value']:.6g} {m['unit']}")
        rows.append(result)
    correct = all(r["correct"] for r in rows)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rows),
        "failed": sum(r["failed"] for r in rows),
        "metrics": {},
    }))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "poisgeo", "__init__.py")):
        fail(f"no poisgeo sources under {ROOT}/src; run from a full checkout")
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    if args.workload == "all":
        run_all(args)
        return
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    run_one(args)


if __name__ == "__main__":
    main()
