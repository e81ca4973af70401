"""Command-line driver.

Subcommands: roots, cascade, msos, minimal-degrees, key-inequality, verdict,
appendix-verify, sweep. Parabolic sets are comma-separated Bourbaki indices
(e.g. --delta-p 2), degrees are comma-separated coordinates over the simple
roots outside Delta_P in ascending order.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys

from .cascade import (
    cascade_roots, cascade_size_bound_holds, enumerate_sos, full_cascade,
    max_cascade_forces_point_degree, minimal_degree_records, mmsos_size,
    mmsos_unique_up_to_weyl,
)
from .curve_nbhd import borel, point_class_degree
from .exceptions import (
    InvalidDegreeError, InvalidParabolicError, MindegError, NotApplicableError,
    RankTooLargeError,
)
from .parabolic import Parabolic
from .report import case_rows, default_types, join_rows, sweep_rows
from .root_system import SimpleType, build_root_system
from .so7 import run_appendix_checks
from .tangent_directions import quasi_homogeneity_verdict
from .weyl import center_elements, word_str


def _parse_ints(text: str, error, what: str) -> tuple[int, ...]:
    """The integers of a comma list; an empty list is (), a blank field an error."""
    if not text.strip():
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise error(f"{what} must be comma-separated integers, got {text!r}") from None


def _parse_indices(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    return tuple(sorted(_parse_ints(text, InvalidParabolicError, "--delta-p")))


def _parse_coeffs(text: str | None):
    if text is None:
        return None
    return _parse_ints(text, InvalidDegreeError, "degree coordinates")


def cmd_roots(args) -> int:
    rs = build_root_system(args.type)
    summary = {
        "type": str(rs.simple_type),
        "rank": rs.rank,
        "cartan": [list(row) for row in rs.cartan],
        "symmetrizer": list(rs.symmetrizer),
        "num_roots": len(rs.roots),
        "num_positive": len(rs.positive_roots),
        "highest_root": list(rs.highest_root.coeffs),
        "positive_roots": [list(r.coeffs) for r in rs.positive_roots],
    }
    print(json.dumps(summary, indent=2))
    return 0


def cmd_cascade(args) -> int:
    rs = build_root_system(args.type)
    e = _parse_coeffs(args.e)
    if e is None:
        e = point_class_degree(borel(rs))
    print(json.dumps({
        "type": str(rs.simple_type),
        "e": list(e),
        "cascade": [list(r.coeffs) for r in cascade_roots(rs, e)],
    }))
    return 0


def cmd_msos(args) -> int:
    rs = build_root_system(args.type)
    base = full_cascade(rs)
    summary = {
        "type": str(rs.simple_type),
        "cascade": [list(r.coeffs) for r in base],
        "cascade_size": len(base),
        "cascade_size_bound_holds": cascade_size_bound_holds(rs),
        "center_order": len(center_elements(rs)),
    }
    try:
        summary["max_cascade_forces_point_degree"] = max_cascade_forces_point_degree(rs)
    except NotApplicableError:
        summary["max_cascade_forces_point_degree"] = "NotApplicable"
    try:
        records = enumerate_sos(rs)
    except RankTooLargeError:
        pass  # above the enumeration's rank cap the SOS keys are left out
    else:
        summary.update({
            "num_sos": len(records),
            "num_msos": sum(1 for r in records if r.is_msos),
            "num_mmsos": sum(1 for r in records if r.is_mmsos),
            "mmsos_size": mmsos_size(rs),
            "mmsos_unique_up_to_weyl": mmsos_unique_up_to_weyl(rs),
        })
    print(json.dumps(summary, indent=2))
    return 0


def cmd_minimal_degrees(args) -> int:
    rs = build_root_system(args.type)
    p = Parabolic(rs, frozenset(_parse_indices(args.delta_p)))
    for rec in minimal_degree_records(p):
        print(json.dumps({
            "degree": list(rec.degree),
            "z_reduced_word": word_str(rec.z),
            "length": rec.z.length,
            "lifting": list(rec.lifting),
            "cascade": [list(r.coeffs) for r in rec.cascade],
        }))
    return 0


def cmd_key_inequality(args) -> int:
    rows, confirmed = case_rows(args.type, _parse_indices(args.delta_p), "json")
    sys.stdout.write("".join(join_rows([rows], "json")))
    return 0 if confirmed else 1


def cmd_verdict(args) -> int:
    rs = build_root_system(args.type)
    p = Parabolic(rs, frozenset(_parse_indices(args.delta_p)))
    d = _parse_coeffs(args.degree)
    if d is None:
        d = point_class_degree(p)
    v = quasi_homogeneity_verdict(p, d)
    payload = {
        "type": str(rs.simple_type),
        "delta_p": sorted(p.delta_p),
        "degree": list(d),
        "verdict": v.kind,
    }
    if v.moduli_dim is not None:
        payload["moduli_dim"] = v.moduli_dim
        payload["group_dim"] = v.group_dim
    print(json.dumps(payload))
    return 0


def cmd_appendix_verify(args) -> int:
    results = run_appendix_checks()
    print(json.dumps([{"check_name": r.check_name, "pass": r.passed,
                       "witness": r.witness} for r in results], indent=2))
    return 0 if all(r.passed for r in results) else 1


def cmd_sweep(args) -> int:
    if args.types is not None:
        types = tuple(SimpleType.parse(t) for t in args.types.split(","))
    else:
        types = default_types(args.max_rank)
    cases = sweep_rows(types, args.format, args.workers)  # refuses before any output
    confirmed = True

    def checked():
        nonlocal confirmed
        for rows, ok in cases:
            confirmed = ok and confirmed
            yield rows

    # each case's rows are written, in case order, once it has finished; a
    # failed case or a closed stdout closes the stream, which cancels the
    # cases not yet started
    with contextlib.closing(cases):
        for piece in join_rows(checked(), args.format):
            sys.stdout.write(piece)
    return 0 if confirmed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mindeg",
        description="Exact combinatorics of minimal degrees on G/P.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("roots", help="root system summary")
    sp.add_argument("type")
    sp.set_defaults(func=cmd_roots)

    sp = sub.add_parser("cascade", help="cascade of a full-flag minimal degree")
    sp.add_argument("type")
    sp.add_argument("--e", help="degree coordinates, default: point-class degree")
    sp.set_defaults(func=cmd_cascade)

    sp = sub.add_parser("msos", help="strongly-orthogonal-set classification summary")
    sp.add_argument("type")
    sp.set_defaults(func=cmd_msos)

    sp = sub.add_parser("minimal-degrees", help="all minimal degrees of a parabolic")
    sp.add_argument("type")
    sp.add_argument("--delta-p", default="", help="comma-separated Bourbaki indices")
    sp.set_defaults(func=cmd_minimal_degrees)

    sp = sub.add_parser("key-inequality", help="tangent-direction count vs c1 pairing")
    sp.add_argument("type")
    sp.add_argument("--delta-p")
    sp.set_defaults(func=cmd_key_inequality)

    sp = sub.add_parser("verdict", help="quasi-homogeneity classification")
    sp.add_argument("type")
    sp.add_argument("--delta-p", default="")
    sp.add_argument("--degree", help="default: point-class degree")
    sp.set_defaults(func=cmd_verdict)

    sp = sub.add_parser("appendix-verify", help="exact so7/G2 matrix-model checklist")
    sp.set_defaults(func=cmd_appendix_verify)

    sp = sub.add_parser("sweep", help="full case sweep with report emission")
    sp.add_argument("--types", help="comma-separated, e.g. A2,B3,G2")
    sp.add_argument("--max-rank", type=int, default=5,
                    help="without --types, sweep every type of rank at most this")
    sp.add_argument("--format", choices=("json", "csv", "md"), default="json")
    sp.add_argument("--workers", type=int, default=1)
    sp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the exit-time flush
        return code
    except MindegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away (e.g. `| head`). Point stdout at devnull so the
        # interpreter's own flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + signal.SIGPIPE


if __name__ == "__main__":
    raise SystemExit(main())
