"""Case sweeps over (type, parabolic, minimal degree) and report emission.

A case's rows are those of its minimal degrees, each one call of the row
kernel key_inequality wraps (tangent_directions._row). Cases run in (family,
rank, Delta_P) order, whatever the worker count, guarded by the rows they
will emit. Each format writes a row from one template over its fields'
texts: case_rows from the kernel's masks and the held root texts, a worker
returning only the rows and the prediction flag, which join_rows writes as
each case arrives; emit from CaseReports, plain picklable data, which
run_sweep lists serially for the library.
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
from .root_system import SimpleType, admissible, build_root_system, held
from .tangent_directions import VERDICT_DENSE_G_ORBIT, VERDICT_ONLY_AUT_X, _row
from .weyl import word_str

__all__ = ["CaseReport", "default_types", "all_parabolic_subsets", "case_reports",
           "case_rows", "sweep_rows", "run_sweep", "predictions_confirmed",
           "join_rows", "emit"]

# The most rows a sweep may emit. Every type of rank <= 7 together has
# 77,198 and E8 alone 113,807; --max-rank 8 passes it at C7 (128,791), and
# D9 alone has 210,055. A streamed sweep holds each type's G/B tables and
# the case at hand: a case's parabolic and its tables go once its rows are
# written, and the writer keeps only the root texts of each system (E8: 58 MB
# peak, serially, by scripts/check_sweep_stream.py --types E8), so the
# budget bounds a sweep's time and output (ROADMAP item 5) more than its
# memory. run_sweep holds every report.
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
# The verdict of a minimal degree, by whether it is the exceptional triple.
_VERDICTS = (VERDICT_DENSE_G_ORBIT, VERDICT_ONLY_AUT_X)


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


def _case(type_label: str, delta_p: tuple[int, ...]) -> tuple[Parabolic, list]:
    """The parabolic of a case and (d, the word of z_d, _row(p, d)) for its
    minimal degrees d, by degree: _row checks d and gives z_d, the masks of
    the cascade of the lifting and of both direction sets, and the sides."""
    p = Parabolic(build_root_system(type_label), frozenset(delta_p))
    rows = [(d, _row(p, d)) for d in minimal_degrees(p)]
    return p, [(d, word_str(row[0]), row) for d, row in rows]


def _fields(p: Parabolic, rows: list, text, roots_at) -> list[tuple]:
    """The fields of _case's rows in CSV_HEADER order, with delta_p and the
    degree through text and each root set's mask through roots_at; the
    verdict, quasi_homogeneity_verdict's, is read off the exception."""
    type_str, dp = str(p.system.simple_type), text(tuple(sorted(p.delta_p)))
    return [(type_str, dp, text(d), z.length, word, roots_at(cascade), roots_at(plain),
             roots_at(extra), lhs, rhs, lhs <= rhs, exception, _VERDICTS[exception])
            for d, word, (z, cascade, plain, extra, _, lhs, rhs, exception) in rows]


def case_reports(type_label: str, delta_p: tuple[int, ...]) -> list[CaseReport]:
    """All per-minimal-degree reports of one (type, parabolic) case, by
    degree (_fields), each root set as the coefficients of its roots."""
    p, rows = _case(type_label, delta_p)
    coeffs = [r.coeffs for r in p.system.roots]  # by root position
    return [CaseReport(*f) for f in _fields(p, rows, tuple, lambda m: _items_at(coeffs, m))]


@held
def _root_texts(rs) -> tuple[tuple[tuple[str, ...], tuple[str, str, str]], ...]:
    """The texts of rs's roots by position, with the head, separator and
    tail of a non-empty root set: as JSON at their depth in a row, and
    compact ([1, 0]), which CSV and MD both write."""
    coeffs = [r.coeffs for r in rs.roots]
    return ((tuple([_json_value(c, 6) for c in coeffs]), ("[\n      ", ",\n      ", "\n    ]")),
            (tuple([json.dumps(c) for c in coeffs]), ("[", ", ", "]")))


def case_rows(type_label: str, delta_p: tuple[int, ...], fmt: str) -> tuple[list[str], bool]:
    """The rows emit(case_reports(type_label, delta_p), fmt) writes, and
    whether predictions_confirmed holds of them (_write_rows); fmt is
    checked before the case runs."""
    _format(fmt)
    return _write_rows(*_case(type_label, delta_p), fmt)


def _write_rows(p: Parabolic, rows: list, fmt: str) -> tuple[list[str], bool]:
    """_case's rows written in fmt from the kernel's masks, each root set the
    texts of its roots (_root_texts) joined, and predictions_confirmed of them."""
    row, text, compact = _FORMATS[fmt][:3]
    roots, (head, sep, tail) = _root_texts(p.system)[compact]
    fields = _fields(p, rows, text,
                     lambda m: head + sep.join(_items_at(roots, m)) + tail if m else "[]")
    return [row(f) for f in fields], predictions_confirmed(fields)


def _cases(types: tuple[SimpleType, ...]) -> list[tuple[str, tuple[int, ...]]]:
    """(type, Delta_P) of every parabolic of the types, by (family, rank,
    Delta_P), a repeated type once. The type list and the row budget are
    checked here, before any case runs: ResourceGuardError once the row count
    summed in that order passes _MAX_SWEEP_ROWS."""
    if not types:
        raise InvalidConfigError("no types to sweep")
    cases, rows = [], 0
    for t in sorted(set(types), key=lambda s: (s.family, s.rank)):
        rows += _sweep_rows(build_root_system(t))
        if rows > _MAX_SWEEP_ROWS:
            raise ResourceGuardError(
                f"the sweep through {t} has {rows} rows, more than the "
                f"{_MAX_SWEEP_ROWS} a sweep may emit")
        cases.extend((str(t), dp) for dp in all_parabolic_subsets(t.rank))
    return cases


def _named(run, type_label: str, delta_p: tuple[int, ...], *args):
    """run(type_label, delta_p, *args), a MindegError re-raised naming the case."""
    try:
        return run(type_label, delta_p, *args)
    except MindegError as exc:
        exc.args = (f"case ({type_label}, Delta_P={{{', '.join(map(str, delta_p))}}}): {exc}",)
        raise


def _case_worker(task: tuple[str, tuple[int, ...], str]) -> tuple[list[str], bool]:
    """case_rows of one case (type, Delta_P, fmt), naming the case if it fails."""
    return _named(case_rows, *task)


def sweep_rows(types: tuple[SimpleType, ...], fmt: str,
               workers: int = 1) -> Iterator[tuple[list[str], bool]]:
    """case_rows in fmt of each case of _cases(types), in its order, in up to
    workers processes, and no more than the cases or the CPUs. The worker
    count, fmt and _cases' checks are made here, before any case runs. The
    cases run as the iterator is read; closing it cancels those not yet started."""
    _format(fmt)
    if workers < 1:
        raise InvalidConfigError(f"the worker count must be at least 1, got {workers}")
    tasks = [(*case, fmt) for case in _cases(types)]
    # the pool forks all its processes at the first submit, so bound them here
    return _run_cases(tasks, min(workers, len(tasks), os.cpu_count() or 1))


def _run_cases(tasks, workers: int) -> Iterator[tuple[list[str], bool]]:
    """_case_worker of each task, yielded in task order. map submits every
    task at once and keeps that order, so under workers > 1 the cases after
    the one being waited for may finish first, and what they returned waits
    in this process until their turn. The pool takes one case per task, so
    a failing case costs no other case its rows."""
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


def run_sweep(types: tuple[SimpleType, ...]) -> list[CaseReport]:
    """Every report of every case of _cases(types), serially, in one list."""
    return [r for case in _cases(types) for r in _named(case_reports, *case)]


def predictions_confirmed(reports) -> bool:
    """lhs == rhs off the exception and lhs == rhs + 1 on it, holds and the
    verdict agreeing, for reports or rows whose last five fields are a
    CaseReport's; the equality is an invariant seen through rank 9, not a theorem."""
    return all(lhs - rhs == (1 if exception else 0) and holds != exception
               and (verdict == VERDICT_ONLY_AUT_X) == exception
               for *_, lhs, rhs, holds, exception, verdict in reports)


def _json_value(v, indent: int) -> str:
    """v as json.dumps(v, indent=2) writes it on a line indented by indent
    spaces; a list, a float or another type is refused with TypeError."""
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
    pad = "\n" + " " * (indent + 2)
    items = [int.__repr__(x) if type(x) is int else _json_value(x, indent + 2) for x in v]
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * indent + "]"


# How json.dumps(indent=2) opens the line of each field in a row object.
_JSON_KEYS = tuple(f"\n    {encode_basestring_ascii(k)}: " for k in CSV_HEADER)
# A row object with each field's text in its %s.
_JSON_ROW = "{" + ",".join([k + "%s" for k in _JSON_KEYS]) + "\n  }"
# How json.dumps writes a bool; only read for a field checked to hold one.
_JSON_BOOL = {True: "true", False: "false"}


def _json_row(f: tuple) -> str:
    """The object json.dumps writes for a row in the list, from _JSON_ROW: f
    holds the fields in CSV_HEADER order, the tuple fields as texts. Strings
    go through encode_basestring_ascii, which refuses any other type, and an
    int or bool field of another type (True is an int, 1 == True) is refused."""
    (type_, delta_p, degree, z_length, z_word, cascade, td, td_tilde,
     lhs, rhs, holds, exception, verdict) = f
    if not (type(z_length) is type(lhs) is type(rhs) is int
            and type(holds) is type(exception) is bool):
        raise TypeError("report JSON needs int z_length, lhs and rhs, "
                        "and bool holds and exception")
    enc = encode_basestring_ascii
    return _JSON_ROW % (enc(type_), delta_p, degree, int.__repr__(z_length), enc(z_word),
                        cascade, td, td_tilde, int.__repr__(lhs), int.__repr__(rhs),
                        _JSON_BOOL[holds], _JSON_BOOL[exception], enc(verdict))


# writerow returns what its file's write returns: here the line it writes
_CSV = csv.writer(SimpleNamespace(write=str), lineterminator="\n")
_CSV_HEAD = _CSV.writerow(CSV_HEADER)
_MD_HEAD = ("| type | delta_p | degree | z_length | inequality | holds "
            "| exception | verdict | cascade | td | td_tilde |\n|" + "---|" * 11 + "\n")


def _md_row(f: tuple) -> str:
    """A row's line of the Markdown table, f as _json_row takes it."""
    (type_, delta_p, degree, z_length, _, cascade, td, td_tilde,
     lhs, rhs, holds, exception, verdict) = f
    return (f"| {type_} | {delta_p} | {degree} | {z_length} "
            f"| {lhs} {'<=' if holds else '>'} {rhs} | {holds} | {exception} "
            f"| {verdict} | {cascade} | {td} | {td_tilde} |\n")


# Each format's row template, the text of a CaseReport's tuple field, the
# root texts of its kernel rows (_root_texts: 0 JSON, 1 compact), and its
# head, separator, tail and empty document: a document of rows is
# head + sep.join(rows) + tail.
_FORMATS = {
    "json": (_json_row, lambda v: _json_value(v, 4), 0, "[\n  ", ",\n  ", "\n]\n", "[]\n"),
    "csv": (_CSV.writerow, json.dumps, 1, _CSV_HEAD, "", "", _CSV_HEAD),
    "md": (_md_row, lambda v: str([list(c) if type(c) is tuple else c for c in v]), 1,
           _MD_HEAD, "", "", _MD_HEAD),
}


def _format(fmt: str) -> tuple:
    """fmt's entry of _FORMATS; an unknown format is refused with ValueError."""
    if fmt not in _FORMATS:
        raise ValueError(f"unknown output format {fmt!r}")
    return _FORMATS[fmt]


def _report_rows(reports, fmt: str) -> list[str]:
    """The reports written by fmt's row template, each tuple field as fmt's text."""
    row, text = _FORMATS[fmt][:2]
    return [row((r.type, text(r.delta_p), text(r.degree), r.z_length, r.z_word,
                 text(r.cascade), text(r.td), text(r.td_tilde), r.lhs, r.rhs, r.holds,
                 r.exception, r.verdict)) for r in reports]


def emit(reports, fmt: str) -> str:
    """Render reports as json, csv, or md with a stable field order: the
    format's head, its rows joined by its separator and its tail, or its
    empty document if there are no reports."""
    _, _, _, head, sep, tail, empty = _format(fmt)
    rows = _report_rows(reports, fmt)
    return head + sep.join(rows) + tail if rows else empty


def join_rows(cases: Iterable[list[str]], fmt: str) -> Iterator[str]:
    """The document of the rows of cases, lists of rows written in fmt, in
    pieces: one per non-empty list as it arrives, its rows joined by the
    format's separator and led by its head for the first list and by the
    separator after that; and one to close, the tail, or emit([], fmt) if
    no list had a row. An unknown format is refused before any list is read."""
    empty = emit([], fmt)
    _, _, _, head, sep, tail, _ = _FORMATS[fmt]

    def pieces():
        lead = head
        for rows in cases:
            if rows:
                yield lead + sep.join(rows)
                lead = sep
        yield tail if lead == sep else empty

    return pieces()
