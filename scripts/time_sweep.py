#!/usr/bin/env python3
"""Time one serial sweep per type, split into its parts.

For each type this runs `python -I` RUNS times; each process imports mindeg,
builds the root system untimed and then does the work of
`mindeg sweep --types T` one part at a time, in the order the sweep meets it:

    search    the full-flag search, which the row budget reads (_sweep_rows)
    tables    the G/P tables: minimal_degrees on one Parabolic per case
    rows      the row kernel (tangent_directions._row) on every minimal degree
    words     the reduced word of each row's z_d (weyl.word_str)
    render    the rows written as JSON from the kernel's masks and the words,
              as the sweep writes them (report._write_rows), and joined

A part reads what the parts before it left on the parabolics, as the sweep
does. The child hashes the JSON it renders, and this script checks that
hash against the output of an in-process `report.run_sweep`, written
through CaseReport by `report.emit`, so the parts add up to one sweep. It reports the best
of the RUNS timings of each part in milliseconds, each part's minimum
taken on its own, and the best total.

Usage: python scripts/time_sweep.py [--types A4,E6] [--runs 5]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from mindeg.report import emit, run_sweep  # noqa: E402
from mindeg.root_system import SimpleType  # noqa: E402

PARTS = ("search", "tables", "rows", "words", "render")

# The child: argv is (src, type label). It prints the time of each part in
# ms and the sha256 of the JSON it rendered.
CHILD = """\
import hashlib, json, sys, time
sys.path.insert(0, sys.argv[1])
from mindeg.curve_nbhd import _sweep_rows, minimal_degrees
from mindeg.parabolic import Parabolic
from mindeg.report import _write_rows, all_parabolic_subsets, join_rows
from mindeg.root_system import build_root_system
from mindeg.tangent_directions import _row
from mindeg.weyl import word_str
rs = build_root_system(sys.argv[2])
t0 = time.perf_counter()
_sweep_rows(rs)
t1 = time.perf_counter()
cases = []
for dp in all_parabolic_subsets(rs.rank):
    p = Parabolic(rs, frozenset(dp))
    cases.append((p, minimal_degrees(p)))
t2 = time.perf_counter()
rows = [[(d, _row(p, d)) for d in ds] for p, ds in cases]
t3 = time.perf_counter()
words = [[(d, word_str(row[0]), row) for d, row in case] for case in rows]
t4 = time.perf_counter()
written = [_write_rows(p, case, "json")[0] for (p, _), case in zip(cases, words)]
text = "".join(join_rows(written, "json"))
t5 = time.perf_counter()
times = [1e3 * (b - a) for a, b in zip([t0, t1, t2, t3, t4], [t1, t2, t3, t4, t5])]
print(json.dumps([times, hashlib.sha256(text.encode()).hexdigest()]))
"""


def sweep_sha256(label: str) -> str:
    """The sha256 of `mindeg sweep --types label`'s JSON, computed in this process."""
    text = emit(run_sweep((SimpleType.parse(label),)), "json")
    return hashlib.sha256(text.encode()).hexdigest()


def time_type(label: str, runs: int) -> dict[str, float]:
    """The best of runs fresh processes for each part and for their total,
    in milliseconds; SystemExit if a child's JSON is not the sweep's."""
    want = sweep_sha256(label)
    best = dict.fromkeys((*PARTS, "total"), float("inf"))
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-I", "-c", CHILD, str(SRC), label],
                              capture_output=True, text=True, timeout=600, check=True)
        times, got = json.loads(proc.stdout)
        if got != want:
            raise SystemExit(f"{label}: the split sweep wrote {got[:8]}..., "
                             f"the sweep {want[:8]}...")
        for part, ms in zip(PARTS, times):
            best[part] = min(best[part], ms)
        best["total"] = min(best["total"], sum(times))
    return best


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--types", default="A4,B4,F4,E6",
                    help="comma-separated types, e.g. A4,E6")
    ap.add_argument("--runs", type=int, default=5, help="fresh processes per type")
    args = ap.parse_args()
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    columns = (*PARTS, "total")
    print("type  " + "  ".join(f"{part:>9}" for part in columns)
          + f"   (ms, best of {args.runs})")
    for label in args.types.split(","):
        best = time_type(label.strip(), args.runs)
        print(f"{label.strip():<5} " + "  ".join(f"{best[part]:9.2f}" for part in columns),
              flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
