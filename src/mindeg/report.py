"""Case sweeps over (type, parabolic, minimal degree) and report emission.

One CaseReport per minimal degree of each requested parabolic. Reports are
plain data (strings, ints, tuples), so they serialize and pickle cleanly;
sweeps are deterministic regardless of worker count because the cases are
built in (family, rank, Delta_P) order and the merge keeps that order.
A sweep is guarded by the rows it will emit, counted before any case runs.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii

from .cascade import minimal_degree_records
from .curve_nbhd import _MAX_BOREL_DEGREES, _sweep_rows
from .exceptions import InvalidConfigError, MindegError, ResourceGuardError
from .parabolic import Parabolic
from .root_system import SimpleType, admissible, build_root_system
from .tangent_directions import VERDICT_ONLY_AUT_X, key_inequality, quasi_homogeneity_verdict
from .weyl import word_str

__all__ = ["CaseReport", "default_types", "all_parabolic_subsets",
           "case_reports", "run_sweep", "predictions_confirmed", "emit"]

# The most rows a sweep may emit. Every type of rank <= 7 together has
# 77,198 and E8 alone 113,807 (about 720 MB peak serially, with emit);
# --max-rank 8 passes it at C7 (128,791), and D9 alone has 210,055. Memory
# grows with the rows: run_sweep holds every report and emit renders them
# as one string.
_MAX_SWEEP_ROWS = 120_000


@dataclass(frozen=True)
class CaseReport:
    type: str
    delta_p: tuple[int, ...]
    degree: tuple[int, ...]
    z_length: int
    z_word: str
    cascade: tuple[tuple[int, ...], ...]
    td: tuple[tuple[int, ...], ...]
    td_tilde: tuple[tuple[int, ...], ...]
    lhs: int
    rhs: int
    holds: bool
    exception: bool
    verdict: str


# The field names in declaration order: the CSV header and the JSON key order.
CSV_HEADER = tuple(f.name for f in fields(CaseReport))
_field_values = operator.attrgetter(*CSV_HEADER)


def default_types(max_rank: int) -> tuple[SimpleType, ...]:
    """Every admissible type of rank at most max_rank, by family and rank,
    up to rank 12: above it 2^rank > _MAX_BOREL_DEGREES, and the full-flag
    search refuses a type at once."""
    top = min(max_rank, _MAX_BOREL_DEGREES.bit_length() - 1)
    return tuple(SimpleType(f, l) for f in "ABCDEFG" for l in range(1, top + 1)
                 if admissible(f, l))


def all_parabolic_subsets(rank: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for r in range(rank + 1):
        out.extend(itertools.combinations(range(1, rank + 1), r))
    return tuple(sorted(out))


def case_reports(type_label: str, delta_p: tuple[int, ...]) -> list[CaseReport]:
    """All per-minimal-degree reports of one (type, parabolic) case."""
    rs = build_root_system(type_label)
    p = Parabolic(rs, frozenset(delta_p))
    out = []
    for rec in minimal_degree_records(p):
        ineq = key_inequality(p, rec.degree)
        verdict = quasi_homogeneity_verdict(p, rec.degree)
        out.append(CaseReport(
            type=str(rs.simple_type),
            delta_p=tuple(sorted(p.delta_p)),
            degree=rec.degree,
            z_length=rec.z.length,
            z_word=word_str(rec.z),
            cascade=tuple(r.coeffs for r in rec.cascade),
            td=tuple(r.coeffs for r in ineq.sets.td),
            td_tilde=tuple(r.coeffs for r in ineq.sets.td_tilde),
            lhs=ineq.lhs,
            rhs=ineq.rhs,
            holds=ineq.holds,
            exception=ineq.exception,
            verdict=verdict.kind,
        ))
    return out


def _case_worker(task: tuple[str, tuple[int, ...]]) -> list[CaseReport]:
    """case_reports of one case; a MindegError is re-raised naming the case."""
    type_label, delta_p = task
    try:
        return case_reports(type_label, delta_p)
    except MindegError as exc:
        exc.args = (f"case ({type_label}, Delta_P={{{', '.join(map(str, delta_p))}}}): {exc}",)
        raise


def run_sweep(types: tuple[SimpleType, ...], workers: int = 1) -> list[CaseReport]:
    """The reports of every parabolic of the types, by (family, rank, Delta_P),
    in up to workers processes, and no more than the cases or the CPUs. Refused
    with ResourceGuardError before any case runs once the row count summed in
    that order passes _MAX_SWEEP_ROWS."""
    if workers < 1:
        raise InvalidConfigError(f"the worker count must be at least 1, got {workers}")
    if not types:
        raise InvalidConfigError("no types to sweep")
    tasks, rows = [], 0
    for t in sorted(set(types), key=lambda s: (s.family, s.rank)):
        rows += _sweep_rows(build_root_system(t))
        if rows > _MAX_SWEEP_ROWS:
            raise ResourceGuardError(
                f"the sweep through {t} has {rows} rows, more than the "
                f"{_MAX_SWEEP_ROWS} a sweep may emit")
        for dp in all_parabolic_subsets(t.rank):
            tasks.append((str(t), dp))
    # each case returns its rows sorted by degree, and map keeps the task order;
    # the pool forks all its processes at the first submit, so bound them here
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_case_worker, tasks, chunksize=4))
    else:
        chunks = [_case_worker(t) for t in tasks]
    return [r for chunk in chunks for r in chunk]


def predictions_confirmed(reports) -> bool:
    """The inequality holds off the exception, fails on it, verdict matching."""
    for r in reports:
        if r.exception:
            if r.holds or r.verdict != VERDICT_ONLY_AUT_X:
                return False
        elif not r.holds or r.verdict == VERDICT_ONLY_AUT_X:
            return False
    return True


def _inequality_cell(r: CaseReport) -> str:
    return f"{r.lhs} <= {r.rhs}" if r.holds else f"{r.lhs} > {r.rhs}"


def _json_value(v, indent: int, memo: dict) -> str:
    """v as json.dumps(v, indent=2) writes it on a line indented by indent spaces.

    Tuples are memoized by (value, indent): the same degree or root recurs
    across many rows, at more than one depth.
    """
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is True or v is False:
        return "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if not isinstance(v, tuple):
        raise TypeError(f"cannot write a {type(v).__name__} as report JSON")
    key = (v, indent)
    text = memo.get(key)
    if text is None:
        if v:
            inner = ",\n" + " " * (indent + 2)
            text = ("[" + inner[1:] + inner.join([_json_value(x, indent + 2, memo) for x in v])
                    + "\n" + " " * indent + "]")
        else:
            text = "[]"
        memo[key] = text
    return text


# How json.dumps(indent=2) opens the line of each field in a row object.
_JSON_KEYS = tuple(f"\n    {encode_basestring_ascii(k)}: " for k in CSV_HEADER)


def _json(reports) -> str:
    """The bytes of json.dumps([the fields of r by name], indent=2) + "\\n"."""
    memo = {}
    rows = []
    for r in reports:
        items = ",".join([k + _json_value(v, 4, memo)
                          for k, v in zip(_JSON_KEYS, _field_values(r))])
        rows.append("{" + items + "\n  }")
    if not rows:
        return "[]\n"
    return "[\n  " + ",\n  ".join(rows) + "\n]\n"


def emit(reports, fmt: str) -> str:
    """Render reports as json, csv, or md with a stable field order."""
    if fmt == "json":
        return _json(reports)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in reports:
            writer.writerow([json.dumps(v) if isinstance(v, tuple) else v
                             for v in _field_values(r)])
        return buf.getvalue()
    if fmt == "md":
        head = ("| type | delta_p | degree | z_length | inequality | holds "
                "| exception | verdict | cascade | td | td_tilde |")
        rule = "|" + "---|" * 11
        lines = [head, rule]
        for r in reports:
            lines.append(
                f"| {r.type} | {list(r.delta_p)} | {list(r.degree)} | {r.z_length} "
                f"| {_inequality_cell(r)} | {r.holds} | {r.exception} | {r.verdict} "
                f"| {[list(c) for c in r.cascade]} | {[list(c) for c in r.td]} "
                f"| {[list(c) for c in r.td_tilde]} |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown output format {fmt!r}")
