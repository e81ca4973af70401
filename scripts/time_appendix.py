#!/usr/bin/env python3
"""Time the so7/G2 checklist of `mindeg appendix-verify`, check by check.

This runs `python -I` RUNS times; each process imports `mindeg.cli` and
`mindeg.so7`, wraps each `so7.verify_*` check in a timer and runs
`so7.run_appendix_checks`, so the checks run in its order and the tables
and subalgebra bases they share are built inside the first check that
reads them, as in a cold `appendix-verify`. It reports the best of the
RUNS timings of each part in milliseconds, each part's minimum taken on its
own: the import, then each check under the name it reports, then
"checklist", the whole `run_appendix_checks` call, whose best run is not
the sum of the checks' bests. It exits 1 if any check fails.

Usage: python scripts/time_appendix.py [--runs 5]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# The child: argv is (src,). It prints a JSON list of [part, ms, passed]
# triples, the import first.
CHILD = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mindeg.cli
from mindeg import so7
parts = [["import", 1e3 * (time.perf_counter() - t0), True]]


def timed(check):
    def run():
        t0 = time.perf_counter()
        result = check()
        parts.append([result.check_name, 1e3 * (time.perf_counter() - t0), result.passed])
        return result
    return run


for name in [name for name in vars(so7) if name.startswith("verify_")]:
    setattr(so7, name, timed(getattr(so7, name)))
t0 = time.perf_counter()
results = so7.run_appendix_checks()
parts.append(["checklist", 1e3 * (time.perf_counter() - t0), all(r.passed for r in results)])
print(json.dumps(parts))
"""


def time_checklist(runs: int) -> tuple[dict[str, float], bool]:
    """The best of runs fresh processes for each part in milliseconds, and
    whether every check passed in every run."""
    best: dict[str, float] = {}
    passed = True
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", CHILD, str(SRC)],
            capture_output=True, text=True, timeout=600, check=True)
        for part, ms, ok in json.loads(proc.stdout):
            best[part] = min(best.get(part, ms), ms)
            passed = passed and ok
    return best, passed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=5, help="fresh processes")
    args = ap.parse_args()
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    best, passed = time_checklist(args.runs)
    width = max(map(len, best))
    print(f"{'part':<{width}}  {'ms':>8}   (best of {args.runs})")
    for part, ms in best.items():
        print(f"{part:<{width}}  {ms:8.2f}")
    if not passed:
        print("a check failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
