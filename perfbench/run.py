"""mindeg benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload sweep-headline --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; mindeg is imported from its `src/`.
With --trace 0 the run repeats the workload's repetition, each in a fresh
cold process, until the next one would end after --seconds, and reports the
end-to-end metrics. With --trace 1 it runs one repetition untraced and the
same repetition traced, and reports the per-layer metrics and the tracing
overhead. End-to-end times are given at reference speed (hostspeed.py).
Every repetition is checked against reference/ after its timer stops. The
last line of stdout is the result; a fuller record, with an environment
block, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import coldpool
import hostspeed
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# Fresh interpreters timed for setup_s, half before and half after the
# measured repetitions so that the median spans the run; the median is reported.
SETUP_REPEATS = 5
# The import takes about 50 ms, so the host's speed is sampled every 5 ms of
# CPU time during it, not every 30 ms as during the workloads' work.
SETUP_CODE = ("import json, sys, time; sys.path[:0] = sys.argv[1:3]; import hostspeed\n"
              "with hostspeed.Sampler(0.005) as s:\n"
              "    t = time.perf_counter(); import mindeg.cli; t = time.perf_counter() - t\n"
              "t -= s.spent; print(json.dumps([t, t * hostspeed.scale(s.samples)]))")
RSS_NOTE = ("peak_rss_mb is ru_maxrss (KiB, /1024) of the child that ran the "
            "request, read with getrusage(RUSAGE_SELF) right after its timer "
            "stopped and before its output was digested; it includes the pages "
            "the child shares with its zygote, which has only imported mindeg. "
            "The largest over the run is reported.")
# Largest relative difference allowed between the summed self times and the
# traced wall time (floating-point rounding only).
SELF_SUM_TOLERANCE = 1e-6


def import_mindeg() -> None:
    """Import mindeg from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import mindeg
    import mindeg.cli  # noqa: F401  (loads every module before the zygote forks)
    where = Path(mindeg.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"mindeg was imported from {where}, not from {SRC}")


def measure_setup() -> list[list[float]]:
    """[seconds, seconds at reference speed] of `import mindeg.cli` in
    SETUP_REPEATS fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(HERE)],
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(json.loads(out.stdout))
    return times


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    sources = hashlib.sha256()
    for path in sorted((SRC / "mindeg").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": sources.hexdigest(),
        "peak_rss": RSS_NOTE,
        "timings": (f"end-to-end times are seconds at reference speed, where hostspeed's "
                    f"kernel takes {hostspeed.KERNEL_REF_S} s; rep_wall_s and "
                    f"setup_samples_s are the raw seconds"),
    }


def percentile(values, q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100, 'inclusive') gives it.

    With one value, that value; with none (every request failed, so the run
    is already reported as incorrect), 0.
    """
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summed_trace(traces) -> dict:
    """Per-layer metrics summed over the children of one traced repetition."""
    total = dict.fromkeys(spans.Tracer().metrics(), 0)  # this process computed nothing
    for t in traces:
        for k, v in t["metrics"].items():
            total[k] += v
    tested = total["curve_nbhd.is_minimal_degree.misses"]
    total["curve_nbhd.minimal_yield"] = (
        total["curve_nbhd.minimal_degrees.found"] / tested if tested else 0.0)
    return total


def span_problems(rep) -> list[str]:
    """Spans must nest and their self times must add up to each traced wall time."""
    problems = []
    for t in rep.traces:
        wall = t["root_s"]
        if t["nesting_errors"] or t["negative_self"]:
            problems.append(f"{t['nesting_errors']} spans did not nest, "
                            f"{t['negative_self']} had negative self time")
        if abs(t["self_total_s"] - wall) > SELF_SUM_TOLERANCE * max(wall, 1e-3):
            problems.append(f"self times sum to {t['self_total_s']}, wall is {wall}")
    return problems


def measure(workload, pool, seconds: float):
    """Whole repetitions until the next one would end after `seconds`."""
    reps = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        reps.append(workload.run(pool, workload.next_inputs(), trace=False))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return reps


def end_to_end(reps, setup) -> dict:
    """Every time at reference speed (see hostspeed.py)."""
    request_ms = [s * 1000 for r in reps for s in r.latencies]
    return {
        "setup_s": {"value": statistics.median(ref for _, ref in setup), "unit": "s"},
        # The mean, not the median: with a handful of repetitions the median
        # jumps between a shared host's fast and slow spells; the mean averages
        # over the whole run.
        "wall_s": {"value": statistics.fmean(r.ref_s for r in reps), "unit": "s"},
        "query_ms.p50": {"value": percentile(request_ms, 50), "unit": "ms"},
        "query_ms.p90": {"value": percentile(request_ms, 90), "unit": "ms"},
        "peak_rss_mb": {"value": max(r.rss_mb for r in reps), "unit": "MB"},
    }


def per_layer(plain, traced) -> dict:
    metrics = {k: {"value": v, "unit": _layer_unit(k)}
               for k, v in summed_trace(traced.traces).items()}
    metrics["trace.traced_wall_s"] = {"value": traced.wall_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced.wall_s - plain.wall_s, "unit": "s"}
    return metrics


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("minimal_yield"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_mindeg()
    except ImportError as exc:
        print(f"error: cannot import mindeg from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup = []
    with coldpool.ColdPool(workloads.handle) as pool:
        workload = workloads.make_workload(args.workload, random.Random(args.seed))
        if args.trace:
            inputs = workload.next_inputs()
            plain = workload.run(pool, inputs, trace=False)
            traced = workload.run(pool, inputs, trace=True)
            reps = [plain, traced]
        else:
            setup = measure_setup()
            reps = measure(workload, pool, args.seconds)
            setup += measure_setup()

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    problems = [m for r in reps for m in r.mismatches]
    if any(r.warm_caches for r in reps):
        problems.append("a child started with non-empty mindeg caches")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "repetitions": len(reps), "rep_wall_s": [r.wall_s for r in reps],
              "rep_ref_s": [r.ref_s for r in reps],
              "requests": sum(len(r.latencies) for r in reps),
              "request_ref_ms": [s * 1000 for r in reps for s in r.latencies],
              "failed_frac": failed / attempted if attempted else 1.0}
    if args.trace:
        problems += span_problems(traced)
        if traced.digests != plain.digests:
            problems.append("the traced run's outputs differ from the untraced run's")
        metrics = per_layer(plain, traced)
        record["trace_overhead_s"] = metrics["trace.overhead_s"]["value"]
        record["untraced_wall_s"] = plain.wall_s
    else:
        metrics = end_to_end(reps, setup)
        record["setup_samples_s"] = [wall for wall, _ in setup]
        record["setup_samples_ref_s"] = [ref for _, ref in setup]
        record["query_ms_samples"] = record["requests"]
    if isinstance(workload, workloads.QueryWorkload):
        record["queries"] = workload.drawn
    record["problems"] = problems[:50]
    record["metrics"] = metrics

    correct = not problems and failed == 0
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    for p in problems[:10]:
        print(f"problem: {p}")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
