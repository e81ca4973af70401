#!/usr/bin/env python3
"""Time one cold query per type, split into its parts.

A cold query is one (G, P, d) checked in a fresh interpreter; here P = B
and d is the point-class degree of G/B, computed once in this process. For
each type this runs `python -I` RUNS times; each process imports
`mindeg.cli`, builds the root system, and answers the query as perfbench's
query-cold workload does: z_d, the key inequality and the quasi-homogeneity
verdict, with the reduced word of z_d. No table of minimal degrees is
built first, so the query takes the local path. Then, on a second system of
the same type whose search tables (the greedy root table and the Hecke-step
table) are built untimed, it times the full-flag search a table build would
add. It reports the best of the RUNS timings of each part in milliseconds,
each part's minimum taken on its own:

    import    importing mindeg.cli
    build     build_root_system
    query     the query itself, as perfbench times it with the build
    search    the full-flag minimal degrees with their z, on its own

Usage: python scripts/time_cold_query.py [--types A4,F4] [--runs 5]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from mindeg.curve_nbhd import borel, point_class_degree  # noqa: E402
from mindeg.root_system import build_root_system  # noqa: E402

PARTS = ("import", "build", "query", "search")

# The child: argv is (src, type label, d as JSON).
CHILD = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mindeg.cli
from mindeg import curve_nbhd, weyl
from mindeg.root_system import RootSystem, SimpleType
from mindeg.tangent_directions import key_inequality, quasi_homogeneity_verdict
t1 = time.perf_counter()
rs = mindeg.root_system.build_root_system(sys.argv[2])
t2 = time.perf_counter()
p = curve_nbhd.borel(rs)
d = tuple(json.loads(sys.argv[3]))
z = curve_nbhd.curve_neighborhood_element(p, d)
answer = (key_inequality(p, d).holds, quasi_homogeneity_verdict(p, d).kind, weyl.word_str(z))
t3 = time.perf_counter()
if curve_nbhd._minimal.holds(p):
    raise SystemExit("the query built the table of minimal degrees")
fresh = RootSystem(SimpleType.parse(sys.argv[2]))
b = curve_nbhd.borel(fresh)
curve_nbhd._root_table(b)
weyl._steps(fresh)
t4 = time.perf_counter()
curve_nbhd._minimal(b)
t5 = time.perf_counter()
print(json.dumps([1e3 * (t1 - t0), 1e3 * (t2 - t1), 1e3 * (t3 - t2), 1e3 * (t5 - t4)]))
"""


def time_type(label: str, runs: int) -> dict[str, float]:
    """The best of runs fresh processes for each part, in milliseconds."""
    d = point_class_degree(borel(build_root_system(label)))
    best = dict.fromkeys(PARTS, float("inf"))
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", CHILD, str(SRC), label, json.dumps(d)],
            capture_output=True, text=True, timeout=600, check=True)
        for part, ms in zip(PARTS, json.loads(proc.stdout)):
            best[part] = min(best[part], ms)
    return best


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--types", default="A4,B4,C4,D4,F4",
                    help="comma-separated types, e.g. A4,F4")
    ap.add_argument("--runs", type=int, default=5, help="fresh processes per type")
    args = ap.parse_args()
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    print("type  " + "  ".join(f"{part:>9}" for part in PARTS) + "   (ms, best of "
          f"{args.runs})")
    for label in args.types.split(","):
        best = time_type(label.strip(), args.runs)
        print(f"{label.strip():<5} " + "  ".join(f"{best[part]:9.2f}" for part in PARTS),
              flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
