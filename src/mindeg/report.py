"""Case sweeps over (type, parabolic, minimal degree) and report emission.

One CaseReport per minimal degree of each requested parabolic. Reports are
plain data (strings, ints, tuples), so they serialize and pickle cleanly;
sweeps are deterministic regardless of worker count because the cases are
built in (family, rank, Delta_P) order and the merge keeps that order.
A sweep is guarded by the rows it will emit, counted before any case runs.
Each row is one call of the row kernel key_inequality wraps
(tangent_directions._row). `sweep_cases` yields one case's reports
at a time, and `render` writes each case's rows as it arrives with the row
writer `emit` uses, so a sweep is written out as its cases finish.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
from collections.abc import Iterable, Iterator
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import NamedTuple

from .cascade import _items_at
from .curve_nbhd import _MAX_BOREL_DEGREES, _sweep_rows, minimal_degrees
from .exceptions import InvalidConfigError, MindegError, ResourceGuardError
from .parabolic import Parabolic
from .root_system import SimpleType, admissible, build_root_system
from .tangent_directions import VERDICT_DENSE_G_ORBIT, VERDICT_ONLY_AUT_X, _row
from .weyl import word_str

__all__ = ["CaseReport", "default_types", "all_parabolic_subsets", "case_reports",
           "sweep_cases", "run_sweep", "predictions_confirmed", "render", "emit"]

# The most rows a sweep may emit. Every type of rank <= 7 together has
# 77,198 and E8 alone 113,807; --max-rank 8 passes it at C7 (128,791), and
# D9 alone has 210,055. A streamed sweep's memory is the tables its
# parabolics hold, which the is_minimal_degree memo keeps alive, so that it
# grows with the rows (E8: 119 MB peak, serially, by
# scripts/check_sweep_stream.py --types E8); a serial stream's JSON memo
# holds at most one entry per root and depth. run_sweep holds every report.
_MAX_SWEEP_ROWS = 120_000


class CaseReport(NamedTuple):
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
CSV_HEADER = CaseReport._fields


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
    """All per-minimal-degree reports of one (type, parabolic) case, by degree.

    The degrees are those of minimal_degrees, and each row is one call of
    the row kernel key_inequality wraps (tangent_directions._row), which
    validates d and gives z_d and the masks of the cascade of its lifting
    and of both direction sets; the masks are written as the coefficients
    of their roots. The verdict is the one quasi_homogeneity_verdict gives
    a minimal degree, read off the inequality's exception.
    """
    rs = build_root_system(type_label)
    p = Parabolic(rs, frozenset(delta_p))
    type_str, dp = str(rs.simple_type), tuple(sorted(p.delta_p))
    coeffs = [r.coeffs for r in rs.roots]  # by root position
    out = []
    for d in minimal_degrees(p):
        z, cascade, plain, extra, _, lhs, rhs, exception = _row(p, d)
        out.append(CaseReport(
            type=type_str,
            delta_p=dp,
            degree=d,
            z_length=z.length,
            z_word=word_str(z),
            cascade=_items_at(coeffs, cascade),
            td=_items_at(coeffs, plain),
            td_tilde=_items_at(coeffs, extra),
            lhs=lhs,
            rhs=rhs,
            holds=lhs <= rhs,
            exception=exception,
            verdict=VERDICT_ONLY_AUT_X if exception else VERDICT_DENSE_G_ORBIT,
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


def sweep_cases(types: tuple[SimpleType, ...],
                workers: int = 1) -> Iterator[list[CaseReport]]:
    """The reports of every parabolic of the types, one list per case, by
    (family, rank, Delta_P), in up to workers processes, and no more than the
    cases or the CPUs. The worker count, the type list and the row budget are
    checked here, before any case runs: ResourceGuardError once the row count
    summed in that order passes _MAX_SWEEP_ROWS. The cases run as the
    iterator is read; closing it cancels those not yet started."""
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
    # the pool forks all its processes at the first submit, so bound them here
    return _run_cases(tasks, min(workers, len(tasks), os.cpu_count() or 1))


def _run_cases(tasks, workers: int) -> Iterator[list[CaseReport]]:
    """The reports of each task, yielded in task order; each case returns its
    rows sorted by degree. map submits every task at once and keeps that
    order, so under workers > 1 the cases after the one being waited for may
    finish first, and their reports wait in this process until their turn.
    The pool takes one case per task, so a failing case costs no other case
    its rows."""
    if workers == 1:
        for task in tasks:
            yield _case_worker(task)
        return
    # imported here, so that a serial run never loads the process pool and
    # multiprocessing (about 40 % of the package's import time)
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        yield from pool.map(_case_worker, tasks)
    finally:
        # a failed case or an abandoned stream leaves tasks queued: drop them
        pool.shutdown(cancel_futures=True)


def run_sweep(types: tuple[SimpleType, ...], workers: int = 1) -> list[CaseReport]:
    """Every report of sweep_cases(types, workers) in one list."""
    return [r for chunk in sweep_cases(types, workers) for r in chunk]


def predictions_confirmed(reports) -> bool:
    """lhs == rhs off the exception and lhs == rhs + 1 on it, holds and the
    verdict agreeing; the equality is an invariant seen through rank 9, not a theorem."""
    return all(r.lhs - r.rhs == (1 if r.exception else 0) and r.holds != r.exception
               and (r.verdict == VERDICT_ONLY_AUT_X) == r.exception for r in reports)


# What json.dumps(indent=2) writes before, between and after the items of a
# list on a line indented by n spaces, by n; filled as each depth is met.
_JSON_LIST = {}


def _json_value(v, indent: int, memo: dict) -> str:
    """v as json.dumps(v, indent=2) writes it on a line indented by indent spaces.

    A tuple nested in v is written once per object and depth: memo keeps its
    text under (id, indent), with the tuple itself, so that the id is not
    reused while memo lives. A tuple and the items it holds cannot change,
    so the same object always has the same text. In a sweep these are the
    coefficient tuples of the roots in cascade, td and td_tilde, which each
    case's rows share; v itself, a new tuple per row, is not kept.
    """
    if not isinstance(v, tuple):
        if isinstance(v, str):
            return encode_basestring_ascii(v)
        if v is True or v is False:
            return "true" if v else "false"
        if isinstance(v, int):
            return int.__repr__(v)
        raise TypeError(f"cannot write a {type(v).__name__} as report JSON")
    if not v:
        return "[]"
    i, texts, get = indent + 2, [], memo.get
    for x in v:
        if type(x) is int:  # delta_p and degree, without a call per item
            texts.append(int.__repr__(x))
        elif isinstance(x, tuple):
            entry = get((id(x), i))
            if entry is None:
                entry = memo[id(x), i] = (x, _json_value(x, i, memo))
            texts.append(entry[1])
        else:
            texts.append(_json_value(x, i, memo))
    head, sep, tail = _JSON_LIST.get(indent) or _JSON_LIST.setdefault(
        indent, ("[\n" + " " * i, ",\n" + " " * i, "\n" + " " * indent + "]"))
    return head + sep.join(texts) + tail


# How json.dumps(indent=2) opens the line of each field in a row object.
_JSON_KEYS = tuple(f"\n    {encode_basestring_ascii(k)}: " for k in CSV_HEADER)
# A row object with each field's text in its %s.
_JSON_ROW = "{" + ",".join([k + "%s" for k in _JSON_KEYS]) + "\n  }"
# How json.dumps writes a bool; only read for a field checked to hold one.
_JSON_BOOL = {True: "true", False: "false"}


def _json_row(r: CaseReport, memo: dict) -> str:
    """The object json.dumps([the fields of r by name], indent=2) writes for
    r, from the template _JSON_ROW, field by field as case_reports types it.
    Strings go through encode_basestring_ascii, which refuses any other type,
    and tuples through _json_value, which refuses a list; an int or bool
    field of another type (True is an int, 1 == True) is refused too."""
    (type_, delta_p, degree, z_length, z_word, cascade, td, td_tilde,
     lhs, rhs, holds, exception, verdict) = r
    if not (type(z_length) is type(lhs) is type(rhs) is int
            and type(holds) is type(exception) is bool):
        raise TypeError("report JSON needs int z_length, lhs and rhs, "
                        "and bool holds and exception")
    enc = encode_basestring_ascii
    return _JSON_ROW % (
        enc(type_),
        _json_value(delta_p, 4, memo),
        _json_value(degree, 4, memo),
        int.__repr__(z_length),
        enc(z_word),
        _json_value(cascade, 4, memo),
        _json_value(td, 4, memo),
        _json_value(td_tilde, 4, memo),
        int.__repr__(lhs),
        int.__repr__(rhs),
        _JSON_BOOL[holds],
        _JSON_BOOL[exception],
        enc(verdict),
    )


# writerow returns what its file's write returns: here the line it writes
_CSV = csv.writer(SimpleNamespace(write=str), lineterminator="\n")
_CSV_HEAD = _CSV.writerow(CSV_HEADER)
_MD_HEAD = ("| type | delta_p | degree | z_length | inequality | holds "
            "| exception | verdict | cascade | td | td_tilde |\n|" + "---|" * 11 + "\n")


def _csv_row(r: CaseReport, memo: dict) -> str:
    """r's line of CSV, its tuples as JSON; memo is unused."""
    return _CSV.writerow([json.dumps(v) if isinstance(v, tuple) else v
                          for v in r])


def _md_row(r: CaseReport, memo: dict) -> str:
    """r's line of the Markdown table; memo is unused."""
    return (f"| {r.type} | {list(r.delta_p)} | {list(r.degree)} | {r.z_length} "
            f"| {r.lhs} {'<=' if r.holds else '>'} {r.rhs} | {r.holds} | {r.exception} "
            f"| {r.verdict} | {[list(c) for c in r.cascade]} | {[list(c) for c in r.td]} "
            f"| {[list(c) for c in r.td_tilde]} |\n")


# Each format's row writer, head, separator, tail and empty document: a
# document of one or more rows is head + sep.join(rows) + tail.
_FORMATS = {
    "json": (_json_row, "[\n  ", ",\n  ", "\n]\n", "[]\n"),
    "csv": (_csv_row, _CSV_HEAD, "", "", _CSV_HEAD),
    "md": (_md_row, _MD_HEAD, "", "", _MD_HEAD),
}


def emit(reports, fmt: str) -> str:
    """Render reports as json, csv, or md with a stable field order: the
    format's head, its rows joined by its separator and its tail, or its
    empty document if there are no reports. The json rows share one memo,
    so that each root tuple is encoded once per nesting depth."""
    if fmt not in _FORMATS:
        raise ValueError(f"unknown output format {fmt!r}")
    row, head, sep, tail, empty = _FORMATS[fmt]
    memo = {}
    rows = [row(r, memo) for r in reports]
    return head + sep.join(rows) + tail if rows else empty


def render(chunks: Iterable[list[CaseReport]], fmt: str) -> Iterator[str]:
    """emit(every report of chunks, fmt) in pieces, one per non-empty list as
    it arrives and one to close. A list's piece is its rows, written by the
    row writer emit uses, joined by the format's separator and led by its
    head for the first list and by the separator after that; one memo
    serves the whole stream. The closing piece is the tail, or emit([], fmt)
    if no list had a report. An unknown format is refused before any list
    is read."""
    empty = emit([], fmt)
    row, head, sep, tail, _ = _FORMATS[fmt]

    def pieces():
        lead, memo = head, {}
        for reports in chunks:
            if reports:
                yield lead + sep.join([row(r, memo) for r in reports])
                lead = sep
        yield tail if lead == sep else empty

    return pieces()
