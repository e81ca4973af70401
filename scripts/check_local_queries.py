#!/usr/bin/env python3
"""Compare the local query path with the table path on every parabolic.

For each type, two systems are built past the interning table of
build_root_system: one whose parabolics build their tables of minimal
degrees, and one that never builds any, so that every query on it takes the
local path (the projected cascade degree as the bound, the unit-edge test
and the lifting by descent, held as one entry per degree: curve_nbhd._entry).
On every parabolic the two must agree on the point-class degree and, for
each minimal degree, on z_d, the lifting, the cascade, both direction sets
with the strong pairs, lhs, rhs and the verdict; the checks of one row run
one descent. In the box up to the point-class degree plus one, the local
path must find an entry for exactly the table's minimal degrees. Prints one
line per type and exits 1 on the first difference. Tier-1 runs the same
comparison through rank 4, G2 and F4 (tests/test_curve_nbhd.py).

Usage: python scripts/check_local_queries.py [--types A5,B5,C5,D5,E6]
(about 1.6 s for the default types on a shared 2-vCPU host, most of it
E6's boxes of 55,125 degrees over its 64 parabolics).
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mindeg import curve_nbhd  # noqa: E402
from mindeg.parabolic import Parabolic  # noqa: E402
from mindeg.report import all_parabolic_subsets  # noqa: E402
from mindeg.root_system import RootSystem, SimpleType  # noqa: E402
from mindeg.tangent_directions import key_inequality, quasi_homogeneity_verdict  # noqa: E402


def query(p: Parabolic, d) -> tuple:
    """Everything a query reports on (p, d), comparable across two systems."""
    ineq = key_inequality(p, d)
    coeffs = lambda roots: tuple([r.coeffs for r in roots])  # noqa: E731
    return (ineq.z.images, ineq.z.length, curve_nbhd.lifting(p, d), coeffs(ineq.cascade),
            coeffs(ineq.sets.td), coeffs(ineq.sets.td_tilde),
            tuple([(a.coeffs, g.coeffs) for a, g in ineq.sets.strong_pairs]),
            ineq.lhs, ineq.rhs, ineq.holds, ineq.exception, quasi_homogeneity_verdict(p, d))


def check_type(label: str) -> tuple[int, int]:
    """(rows, box degrees) checked on every parabolic of label; raises
    AssertionError naming the parabolic and degree of a difference."""
    st = SimpleType.parse(label)
    table, local = RootSystem(st), RootSystem(st)
    rows = box = 0
    for delta_p in all_parabolic_subsets(st.rank):
        p, q = Parabolic(table, frozenset(delta_p)), Parabolic(local, frozenset(delta_p))
        minimal = curve_nbhd._minimal(p)[0]
        top = curve_nbhd.point_class_degree(p)
        if curve_nbhd.point_class_degree(q) != top:
            raise AssertionError(f"{q}: point-class degree differs")
        for d in sorted(minimal):
            if query(q, d) != query(p, d):
                raise AssertionError(f"{q}, degree {d}: the local row differs")
        rows += len(minimal)
        for d in itertools.product(*[range(c + 2) for c in top]):
            if (curve_nbhd._entry(q, d) is not None) != (d in minimal):
                raise AssertionError(f"{q}, degree {d}: the local test disagrees")
            box += 1
        if curve_nbhd._minimal.holds(q) or curve_nbhd._minimal.holds(curve_nbhd.borel(local)):
            raise AssertionError(f"{q}: the local path built a table")
    return rows, box


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--types", default="A5,B5,C5,D5,E6", help="comma-separated types")
    args = ap.parse_args()
    for label in args.types.split(","):
        t0 = time.perf_counter()
        try:
            rows, box = check_type(label.strip())
        except AssertionError as exc:
            print(f"{label.strip()}: FAIL: {exc}", flush=True)
            return 1
        print(f"{label.strip()}: {rows} rows and {box} box degrees agree "
              f"({time.perf_counter() - t0:.1f} s)", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
