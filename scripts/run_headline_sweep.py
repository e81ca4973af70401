#!/usr/bin/env python3
"""Reproduce the headline computation: the key inequality over every
parabolic and every minimal degree for all simple types of rank <= 5
(plus F4 and G2), and the analysis of the unique failing case.

The sweep runs serially in this process, through the library's run_sweep;
`mindeg sweep --max-rank 5 --workers N` streams the same rows in up to N
processes.

Usage: python scripts/run_headline_sweep.py [--out sweep.md]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mindeg.curve_nbhd import point_class_degree
from mindeg.parabolic import Parabolic, c1_pairing, dim_x
from mindeg.report import default_types, emit, predictions_confirmed, run_sweep
from mindeg.root_system import build_root_system
from mindeg.tangent_directions import quasi_homogeneity_verdict


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", type=Path, default=None,
                    help="write the markdown table here instead of stdout")
    args = ap.parse_args()

    start = time.monotonic()
    reports = run_sweep(default_types(5))
    elapsed = time.monotonic() - start

    table = emit(reports, "md")
    if args.out:
        args.out.write_text(table)
        print(f"wrote {len(reports)} rows to {args.out}")
    else:
        sys.stdout.write(table)

    failing = [r for r in reports if not r.holds]
    print(f"\n{len(reports)} cases in {elapsed:.1f}s; "
          f"{len(failing)} inequality failure(s).")
    for r in failing:
        rs = build_root_system(r.type)
        p = Parabolic(rs, frozenset(r.delta_p))
        v = quasi_homogeneity_verdict(p, r.degree)
        print(f"  {r.type}, delta_p={list(r.delta_p)}, degree={list(r.degree)}: "
              f"{r.lhs} > {r.rhs}; verdict {v.kind} "
              f"(moduli dim {v.moduli_dim} > group dim {v.group_dim}); "
              f"point-class degree {list(point_class_degree(p))}, "
              f"dim X = {dim_x(p)}, c1 pairing = {c1_pairing(p, r.degree)}")
    ok = predictions_confirmed(reports)
    print("all predictions confirmed" if ok else "PREDICTIONS VIOLATED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
