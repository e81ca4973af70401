#!/usr/bin/env python3
"""Compare the generative enumeration of minimal degrees with the certified
box scan of tests/oracles.py on every parabolic of E7 (or of other types).

For each parabolic, minimal_degrees, point_class_degree and the lifting of
every minimal degree must equal the oracle's, and each lifting must project
back to its degree. The table of minimal degrees, z's and liftings read off
the full-flag set must also equal the one found by projection and the
unit-edge test, and each z the whole Hecke product of its greedy
decomposition. Every cache is emptied after each parabolic, the interned
root systems with them, and each parabolic is built on a fresh system, so
each case starts from a cold type, no z of the box scan is kept, and peak
memory is that of the largest single case, not of the whole type. E7 takes
several minutes; its largest case, E7/B, scans a box of 181,440 degrees.

Usage: python scripts/check_generative_e7.py [--types E7,...]
"""

from __future__ import annotations

import argparse
import itertools
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from mindeg import curve_nbhd  # noqa: E402
from mindeg.curve_nbhd import borel, lifting, minimal_degrees, point_class_degree  # noqa: E402
from mindeg.parabolic import Parabolic  # noqa: E402
from mindeg.root_system import SimpleType, build_root_system  # noqa: E402
from oracles import (  # noqa: E402
    box_scan_point_class_degree, certified_box_scan_minimal_degrees,
    hecke_curve_neighborhood_element, linear_scan_lifting, unit_edge_minimal_degrees,
)


def clear_caches() -> None:
    """Empty every lru_cache of mindeg, the interning table of root systems
    (root_system._build) included. The tables a system holds go with the
    system, so build_root_system returns a cold one afterwards."""
    for name, module in list(sys.modules.items()):
        if name.startswith("mindeg."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def check_type(label: str) -> list[str]:
    start = time.monotonic()
    full_flag = certified_box_scan_minimal_degrees(borel(build_root_system(label)))
    clear_caches()
    print(f"{label}/B: {len(full_flag)} minimal degrees by the box scan "
          f"in {time.monotonic() - start:.1f} s", flush=True)
    problems, cases, degrees = [], 0, 0
    rank = SimpleType.parse(label).rank
    for r in range(rank + 1):
        for combo in itertools.combinations(range(1, rank + 1), r):
            p = Parabolic(build_root_system(label), frozenset(combo))
            found = minimal_degrees(p)
            if found != certified_box_scan_minimal_degrees(p):
                problems.append(f"{p}: minimal degrees differ")
            if point_class_degree(p) != box_scan_point_class_degree(p):
                problems.append(f"{p}: point-class degrees differ")
            # each entry is (z, lifting, mask); the oracle gives (z, lifting)
            table = {d: entry[:2] for d, entry in curve_nbhd._minimal(p)[0].items()}
            if table != unit_edge_minimal_degrees(p):
                problems.append(f"{p}: the table differs from the unit-edge oracle")
            for d, (z, _) in table.items():
                if z != hecke_curve_neighborhood_element(p, d):
                    problems.append(f"{p}: z of {d} differs from the whole Hecke product")
            for d in found:
                e = lifting(p, d)
                if e != linear_scan_lifting(p, d, full_flag):
                    problems.append(f"{p}: liftings of {d} differ")
                if tuple(e[i] for i in p.quotient_positions) != d:
                    problems.append(f"{p}: the lifting {e} of {d} projects elsewhere")
            cases += 1
            degrees += len(found)
            clear_caches()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{label}: {cases} parabolics, {degrees} minimal degrees, "
          f"{len(problems)} differences, {time.monotonic() - start:.0f} s, "
          f"peak RSS {rss:.0f} MB", flush=True)
    return problems


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--types", default="E7", help="comma-separated types, e.g. E7,D6")
    args = ap.parse_args()
    problems = [msg for label in args.types.split(",") for msg in check_type(label)]
    for msg in problems:
        print(msg)
    print("generative sets equal the box scan and the unit-edge oracle"
          if not problems else "DIFFERENCES FOUND")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
