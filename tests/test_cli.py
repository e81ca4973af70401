import concurrent.futures
import hashlib
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindeg import curve_nbhd, report, root_system
from mindeg.cli import main
from mindeg.curve_nbhd import borel
from mindeg.exceptions import InvalidConfigError, InvalidDegreeError, ResourceGuardError
from mindeg.report import (
    CaseReport, all_parabolic_subsets, default_types, emit, join_rows, predictions_confirmed,
    run_sweep, sweep_rows,
)
from mindeg.root_system import RootSystem, SimpleType
from oracles import APPENDIX_WITNESSES


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_roots_command(capsys):
    code, out = run_cli(capsys, "roots", "G2")
    assert code == 0
    payload = json.loads(out)
    assert payload["num_roots"] == 12
    assert payload["highest_root"] == [3, 2]
    assert payload["cartan"] == [[2, -3], [-1, 2]]


def test_cascade_command_defaults_to_point_class_degree(capsys):
    code, out = run_cli(capsys, "cascade", "B3")
    assert code == 0
    payload = json.loads(out)
    assert payload["e"] == [2, 2, 2]
    assert sorted(payload["cascade"]) == [[0, 0, 1], [1, 0, 0], [1, 2, 2]]


def test_cascade_command_with_explicit_degree(capsys):
    code, out = run_cli(capsys, "cascade", "G2", "--e", "1,1")
    payload = json.loads(out)
    assert payload["cascade"] == [[3, 1]]


# sha256 of `mindeg msos A4` and `mindeg msos A5` as first recorded
MSOS_SHA256 = {
    "A4": "333906202c3ecd1cfebf52d195b6280f3b9adaa350d447d82d1ccbb8fcf46626",
    "A5": "e7334f6dcd6807b87cb4a1eb4b27daa87577b7f5b9aeb57f360d1cbfa903e289",
}
SOS_KEYS = {"num_sos", "num_msos", "num_mmsos", "mmsos_size", "mmsos_unique_up_to_weyl"}


@pytest.mark.parametrize("label, has_sos", [("A4", True), ("A5", False)])
def test_msos_leaves_out_the_sos_keys_above_the_enumeration_cap(capsys, label, has_sos):
    code, out = run_cli(capsys, "msos", label)
    assert code == 0
    keys = json.loads(out).keys()
    assert SOS_KEYS <= keys if has_sos else SOS_KEYS.isdisjoint(keys)
    assert hashlib.sha256(out.encode()).hexdigest() == MSOS_SHA256[label]


def test_msos_command(capsys):
    code, out = run_cli(capsys, "msos", "G2")
    payload = json.loads(out)
    assert payload["mmsos_size"] == 2
    assert payload["mmsos_unique_up_to_weyl"] is True
    assert payload["cascade_size_bound_holds"] is True
    assert payload["center_order"] == 2


def test_minimal_degrees_command(capsys):
    code, out = run_cli(capsys, "minimal-degrees", "G2", "--delta-p", "2")
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    by_degree = {tuple(r["degree"]): r for r in rows}
    assert by_degree[(2,)]["length"] == 5
    assert by_degree[(2,)]["lifting"] == [2, 2]
    assert sorted(by_degree[(2,)]["cascade"]) == [[1, 0], [3, 2]]
    assert by_degree[(2,)]["z_reduced_word"].split() == ["1", "2", "1", "2", "1"]


def test_key_inequality_command_single_case(capsys):
    code, out = run_cli(capsys, "key-inequality", "G2", "--delta-p", "2")
    rows = json.loads(out)
    assert code == 0
    exceptional = [r for r in rows if r["exception"]]
    assert len(exceptional) == 1
    row = exceptional[0]
    assert (row["lhs"], row["rhs"], row["holds"]) == (5, 4, False)
    assert sorted(row["td"]) == [[-3, -2], [-1, -1], [-1, 0]]
    assert row["td_tilde"] == [[-3, -1]]


def test_verdict_command(capsys):
    code, out = run_cli(capsys, "verdict", "G2", "--delta-p", "2")
    payload = json.loads(out)
    assert payload["verdict"] == "OnlyAutX"
    assert payload["moduli_dim"] == 15 and payload["group_dim"] == 14
    code, out = run_cli(capsys, "verdict", "G2", "--delta-p", "1")
    assert json.loads(out)["verdict"] == "DenseGOrbit"


def test_appendix_verify_command(capsys):
    code, out = run_cli(capsys, "appendix-verify")
    assert code == 0
    checklist = json.loads(out)
    assert [{"check_name", "pass", "witness"}] * len(checklist) == [set(c) for c in checklist]
    assert [(c["check_name"], c["pass"], c["witness"]) for c in checklist] \
        == list(APPENDIX_WITNESSES)


def test_invalid_type_is_a_clean_error(capsys):
    code = main(["roots", "Q7"])
    assert code == 2


BAD_INPUT = {
    ("cascade", "G2", "--e", "1"): "degree (1,) has 1 coordinates, Parabolic(G2, []) needs 2",
    ("cascade", "A2", "--e", "1,1,1"):
        "degree (1, 1, 1) has 3 coordinates, Parabolic(A2, []) needs 2",
    ("cascade", "G2", "--e", "1,x"):
        "degree coordinates must be comma-separated integers, got '1,x'",
    ("verdict", "G2", "--delta-p", "2", "--degree", "2,7"):
        "degree (2, 7) has 2 coordinates, Parabolic(G2, [2]) needs 1",
    ("verdict", "G2", "--delta-p", "x"): "--delta-p must be comma-separated integers, got 'x'",
    ("minimal-degrees", "G2", "--delta-p", "3"): "simple-root indices out of range 1..2: [3]",
    ("cascade", "G2", "--e=-1,0"): "degree (-1, 0) is not effective",
    # a huge rank is refused by its root count, before a rank^2 Cartan matrix
    **{argv: "A1000000 has more than the 4000 roots a root system may be built with"
       for argv in [("roots", "A1000000"), ("cascade", "A1000000"),
                    ("verdict", "A1000000", "--delta-p", "1"),
                    ("sweep", "--types", "G2,A1000000")]},
    ("roots", "A" + "9" * 5000):
        "cannot parse simple type A99999999999...: its rank has 5000 digits",
}


@pytest.mark.parametrize("argv", [list(argv) for argv in BAD_INPUT])
def test_bad_input_exits_2_with_one_line(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {BAD_INPUT[tuple(argv)]}\n"


@pytest.mark.parametrize("types", ["", "A2,"])
def test_sweep_with_an_empty_type_is_refused(capsys, types):
    # an empty --types is a type that does not parse, not the default sweep
    assert main(["sweep", "--types", types]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot parse simple type ''\n"


@pytest.mark.parametrize("argv, what, text", [
    (["cascade", "A1", "--e", "1,,"], "degree coordinates", "1,,"),
    (["cascade", "A2", "--e", ",1,1"], "degree coordinates", ",1,1"),
    (["verdict", "A3", "--delta-p", "2", "--degree", "1,,2"], "degree coordinates", "1,,2"),
    (["verdict", "A3", "--delta-p", "1,,2"], "--delta-p", "1,,2"),
    (["minimal-degrees", "A3", "--delta-p", "2,"], "--delta-p", "2,"),
    (["key-inequality", "A3", "--delta-p", ",1"], "--delta-p", ",1"),
])
def test_blank_fields_in_comma_lists_are_refused(capsys, argv, what, text):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {what} must be comma-separated integers, got {text!r}\n"


def test_an_empty_comma_list_is_the_empty_tuple(capsys):
    # an empty --delta-p is the Borel, an empty --degree the degree of P = G
    assert run_cli(capsys, "minimal-degrees", "A2", "--delta-p", "") == \
        run_cli(capsys, "minimal-degrees", "A2")
    code, out = run_cli(capsys, "verdict", "A2", "--delta-p", "1,2", "--degree", "")
    assert code == 0
    assert json.loads(out)["degree"] == []


def _src_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _fresh_system(monkeypatch, label):
    """A system of the test's own that the CLI reads in place of the interned
    one, so that no table built by another test is held."""
    rs = RootSystem(SimpleType.parse(label))
    monkeypatch.setattr(root_system, "_build", lambda t: rs)
    return rs


def test_a_degree_above_the_bound_exits_2_at_once(capsys, monkeypatch):
    """A coordinate above the point class (the projected cascade degree) is
    refused before its greedy chain (10,000,000 steps) is walked, and no
    table is built."""
    rs = _fresh_system(monkeypatch, "A2")
    t0 = time.perf_counter()
    assert main(["verdict", "A2", "--degree", "10000000,3"]) == 2
    assert time.perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: (10000000, 3) is not a minimal degree\n"
    assert not curve_nbhd._minimal.holds(borel(rs))


def test_a_query_above_the_table_guards_is_answered(capsys):
    """The 2^rank rule and the full-flag cap bind only table builds: a query
    on A20 (2^20 full-flag minimal degrees) is answered locally."""
    delta_p = ",".join(str(i) for i in range(1, 21) if i != 10)
    code, out = run_cli(capsys, "verdict", "A20", "--delta-p", delta_p, "--degree", "1")
    assert code == 0
    assert json.loads(out)["verdict"] == "DenseGOrbit"
    assert main(["minimal-degrees", "A20", "--delta-p", delta_p]) == 2
    assert "at least 1048576 full-flag minimal degrees" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verdict", "E8", "--delta-p", "2,3,4,5,6,7,8", "--degree", "2"],
    ["verdict", "E8", "--delta-p", "1,2,3,4,5,6,7"],
    ["cascade", "E8"],
])
def test_e8_queries_build_no_table(capsys, monkeypatch, argv):
    # a G/P table is read off the G/B table, so neither was built
    rs = _fresh_system(monkeypatch, "E8")
    code, out = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["type"] == "E8"
    assert not curve_nbhd._minimal.holds(borel(rs))


def test_cascade_of_d30_reads_the_cascade_degree(capsys, monkeypatch):
    """`mindeg cascade D30`, a type with no table in reach of a query, answers
    at its point-class degree, the cascade degree checked by its unit edges:
    30 strongly orthogonal roots, and the bytes it printed when the degree
    was found by descent."""
    rs = _fresh_system(monkeypatch, "D30")
    code, out = run_cli(capsys, "cascade", "D30")
    assert code == 0
    payload = json.loads(out)
    assert payload["e"] == [2 * (k // 2 + 1) for k in range(28)] + [15, 15]
    assert len(payload["cascade"]) == 30
    assert hashlib.sha256(out.encode()).hexdigest().startswith("50bae56d63d8f531")
    assert not curve_nbhd._minimal.holds(borel(rs))


def test_bad_input_exits_2_under_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "mindeg", "verdict", "G2", "--delta-p", "2",
         "--degree", "2,7"],
        capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("argv", [["roots", "A1"], ["sweep", "--types", "A2"],
                                  ["sweep", "--types", "A2", "--workers", "2"]])
def test_closed_stdout_exits_without_a_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first byte is written
    try:
        proc = subprocess.run([sys.executable, "-m", "mindeg", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=_src_env(),
                              timeout=120)
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 128 + signal.SIGPIPE


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_case_error_names_its_case(monkeypatch, capsys, workers):
    real = report.case_rows

    def failing(type_label, delta_p, fmt):
        if (type_label, delta_p) == ("B2", (1,)):
            raise InvalidDegreeError("injected failure")
        return real(type_label, delta_p, fmt)

    # the rows of the cases before the failing one are already written:
    # every A2 case and B2 {}, as an unterminated JSON array
    before = run_sweep((SimpleType("A", 2),)) + report.case_reports("B2", ())
    whole = emit(before, "json")
    assert whole.endswith("\n]\n")
    # Pool workers are forked after this point, so they see the patch too.
    monkeypatch.setattr(report, "case_rows", failing)
    assert main(["sweep", "--types", "A2,B2", "--workers", workers]) == 2
    captured = capsys.readouterr()
    assert captured.out == whole[:-len("\n]\n")]
    assert captured.err == "error: case (B2, Delta_P={1}): injected failure\n"


def test_run_sweep_names_a_failing_case(monkeypatch):
    real = report._row

    def failing(p, d):
        if (str(p.system.simple_type), p.delta_p) == ("B2", frozenset({1})):
            raise InvalidDegreeError("injected failure")
        return real(p, d)

    monkeypatch.setattr(report, "_row", failing)
    with pytest.raises(InvalidDegreeError) as info:
        run_sweep((SimpleType("B", 2), SimpleType("A", 2)))
    assert str(info.value) == "case (B2, Delta_P={1}): injected failure"


def test_sweep_command_exit_code_and_md(capsys):
    code, out = run_cli(capsys, "sweep", "--types", "G2", "--format", "md")
    assert code == 0
    assert "5 > 4" in out
    assert "OnlyAutX" in out


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_prediction_failing_in_any_case_exits_1(monkeypatch, capsys, workers):
    real = report._row

    def wrong(p, d):
        z, cascade, plain, extra, pairs, lhs, rhs, exception = real(p, d)
        if (str(p.system.simple_type), p.delta_p, d) == ("A2", frozenset(), (0, 0)):
            lhs += 1  # the first row of the first of eight cases: 1 > 0
        return z, cascade, plain, extra, pairs, lhs, rhs, exception

    # the case worker and case_reports read the row kernel through report
    monkeypatch.setattr(report, "_row", wrong)
    code, out = run_cli(capsys, "sweep", "--types", "A2,B2", "--workers", workers)
    assert code == 1
    reports = run_sweep((SimpleType("A", 2), SimpleType("B", 2)))
    assert not predictions_confirmed(reports[:1]) and predictions_confirmed(reports[1:])
    assert out == emit(reports, "json")


def test_emit_json_empty():
    assert emit([], "json") == "[]\n"


@pytest.mark.parametrize("fmt, text", [
    ("json", "[]\n"),
    ("csv", ",".join(report.CSV_HEADER) + "\n"),
    ("md", "| type | delta_p | degree | z_length | inequality | holds | exception "
           "| verdict | cascade | td | td_tilde |\n|" + "---|" * 11 + "\n"),
])
def test_an_empty_stream_renders_as_no_reports(fmt, text):
    assert emit([], fmt) == text
    assert "".join(join_rows([], fmt)) == text
    assert "".join(join_rows([[], []], fmt)) == text


def test_join_rows_refuses_an_unknown_format():
    with pytest.raises(ValueError, match="unknown output format 'xml'"):
        join_rows([], "xml")


def _joined(chunks, fmt: str) -> str:
    """The document join_rows writes of lists of reports, each list's rows
    written as emit writes them."""
    return "".join(join_rows([report._report_rows(c, fmt) for c in chunks], fmt))


# every type of rank <= 3, with F4 and G2 (named twice)
_STREAM_TYPES = default_types(3) + (SimpleType("F", 4), SimpleType("G", 2))


@pytest.fixture(scope="module")
def stream_reports():
    return run_sweep(_STREAM_TYPES)


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("fmt", ["json", "csv", "md"])
def test_sweep_command_streams_the_bytes_of_emit(capsys, stream_reports, fmt, workers):
    argv = ["sweep", "--types", ",".join(map(str, _STREAM_TYPES)),
            "--format", fmt, "--workers", workers]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == emit(stream_reports, fmt)


@pytest.mark.parametrize("fmt", ["json", "csv", "md"])
def test_join_rows_joins_to_emit_however_the_reports_are_split(stream_reports, fmt):
    whole = emit(stream_reports, fmt)
    cases = [stream_reports[i:i + 7] for i in range(0, len(stream_reports), 7)]
    assert _joined(cases, fmt) == whole
    assert _joined([[], *cases, []], fmt) == whole


class _RecordingStdout:
    """Stands in for sys.stdout: appends each written text to events."""

    def __init__(self, events):
        self.events = events

    def write(self, text):
        self.events.append(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["json", "csv", "md"])
def test_sweep_command_writes_each_case_as_it_arrives(monkeypatch, fmt):
    keys = [(label, dp) for label in ("A2", "B2") for dp in all_parabolic_subsets(2)]
    cases = [report.case_rows(*key, fmt)[0] for key in keys]
    reports = [report.case_reports(*key) for key in keys]
    assert len(cases) == 8 and all(cases)
    # one piece per non-empty case, in case order, and one to close: the
    # pieces of the first k cases and the closing one make their document
    pieces = list(join_rows([[], *cases[:4], [], *cases[4:]], fmt))
    assert len(pieces) == len(cases) + 1
    for k in range(1, len(cases) + 1):
        assert "".join(pieces[:k]) + pieces[-1] == emit([r for c in reports[:k] for r in c], fmt)
    # the CLI writes each case's piece before the next case runs
    events, real = [], report.case_rows

    def recording(type_label, delta_p, fmt):
        events.append(("case", type_label, delta_p))
        return real(type_label, delta_p, fmt)

    monkeypatch.setattr(report, "case_rows", recording)
    monkeypatch.setattr(sys, "stdout", _RecordingStdout(events))
    assert main(["sweep", "--types", "A2,B2", "--format", fmt]) == 0
    ran = [("case", *key) for key in keys]
    assert events == [x for pair in zip(ran, pieces) for x in pair] + [pieces[-1]]


def _check_emit_json_against_json_dumps(reports) -> None:
    got = emit(reports, "json")
    want = json.dumps([r._asdict() for r in reports], indent=2) + "\n"
    same = got == want  # a bare boolean: pytest would diff megabytes of text
    lines = zip(got.splitlines(), want.splitlines())
    assert same, next(((n, a, b) for n, (a, b) in enumerate(lines) if a != b),
                      f"lengths {len(got)} and {len(want)}")


@pytest.mark.parametrize("types", [default_types(5), (SimpleType("E", 6),)],
                         ids=["headline", "E6"])
def test_emit_json_matches_json_dumps_on_sweeps(types):
    _check_emit_json_against_json_dumps(run_sweep(types))


def test_emit_json_matches_json_dumps_on_hand_built_reports():
    # the degree (1, 0) recurs as a root two levels deeper, and an empty
    # tuple sits both as a field and inside a list
    first = CaseReport(type="B2", delta_p=(), degree=(1, 0), z_length=0, z_word="",
                       cascade=((1, 0), ()), td=(), td_tilde=((1, 0),), lhs=-3,
                       rhs=0, holds=True, exception=False, verdict='say "\u00e9"\n')
    second = first._replace(degree=(), holds=False, exception=True,
                                 td=((2, 1), (1, 0)), z_length=12, z_word="1 2")
    # one tuple object at two depths, written at each
    t = (1, 0)
    third = first._replace(cascade=(t, (t,)), td=(t,))
    for reports in ([], [first], [first, second], [second, first, second],
                    [third], [first, third, second, third]):
        _check_emit_json_against_json_dumps(reports)
    # a field of another type than case_reports builds is refused with
    # TypeError, alone or between valid rows: the int 1 is not the bool
    # true, nor True the int 1, and a list is not a tuple
    for change in ({"holds": 1}, {"exception": 0}, {"lhs": True}, {"z_length": False},
                   {"td": [(1, 0)]}, {"cascade": ((1, 0), [0, 1])}, {"z_word": 1}):
        for reports in ([first._replace(**change)],
                        [first, second._replace(**change), second]):
            with pytest.raises(TypeError):
                emit(reports, "json")


def _hand_built_report() -> CaseReport:
    return CaseReport(type="B2", delta_p=(), degree=(1, 0), z_length=0, z_word="",
                      cascade=((1, 0),), td=((0, 1), (1, 0)), td_tilde=(), lhs=-3, rhs=0,
                      holds=True, exception=False, verdict="DenseGOrbit")


def test_emit_json_writes_bools_in_tuples_as_json_dumps_does():
    """(True, 0) == (1, 0), and both hash alike, yet json.dumps writes
    [true, 0] and [1, 0]. emit writes each as json.dumps does, in either
    order and at either depth, and a float equal to an int is refused."""
    a = _hand_built_report()
    b = a._replace(degree=(True, 0))
    c = a._replace(td=((False, True), (True, 0)), cascade=((1, False),))
    for reports in ([a, b], [b, a], [a, b, a, b], [a, c, b], [c, a, c]):
        _check_emit_json_against_json_dumps(reports)
        assert _joined([[r] for r in reports], "json") == emit(reports, "json")
    for change in ({"degree": (1.0, 0)}, {"td": ((0, 1), (1.0, 0))}):
        with pytest.raises(TypeError):
            emit([a, a._replace(**change)], "json")


class _SmallInt(int):
    pass


def test_emit_json_matches_json_dumps_on_rows_rebuilt_as_new_objects():
    """Reports unpickled from a process pool are built from new objects;
    emit writes each as json.dumps does, whatever its leaves' types, an int
    subclass too."""
    a = _hand_built_report()
    b = a._replace(degree=(True, 0), td=((0, True), (1, 0)))
    c = a._replace(degree=(_SmallInt(1), 0), cascade=((_SmallInt(1), 0),))
    rows = run_sweep((SimpleType("G", 2),))
    for reports in ([a, b, c], rows):
        copies = [pickle.loads(pickle.dumps(r)) for r in reports]
        _check_emit_json_against_json_dumps(reports + copies + reports[::-1])
    assert emit(rows + [pickle.loads(pickle.dumps(r)) for r in rows], "json") == \
        emit(rows + rows, "json")


# tuples nested up to three deep whose leaves are small ints and bools
_MIXED_TUPLES = st.lists(
    st.recursive(st.integers(-2, 2) | st.booleans(),
                 lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6),
    max_size=3).map(tuple)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_MIXED_TUPLES, _MIXED_TUPLES, _MIXED_TUPLES), min_size=1, max_size=5))
def test_emit_json_matches_json_dumps_on_mixed_int_and_bool_tuples(fields):
    """Reports whose tuple fields mix ints and bools that compare equal
    (1 == True, 0 == False) are written as json.dumps writes them, by emit
    and by join_rows."""
    base = _hand_built_report()
    reports = [base._replace(degree=d, cascade=c, td=t) for d, c, t in fields]
    _check_emit_json_against_json_dumps(reports)
    assert _joined([reports[:1], reports[1:]], "json") == emit(reports, "json")


def test_emit_round_trips_reports():
    reports = run_sweep((SimpleType("G", 2),))
    parsed = json.loads(emit(reports, "json"))
    assert len(parsed) == len(reports)
    row = next(r for r in parsed if r["exception"])
    assert row["lhs"] == 5 and row["rhs"] == 4
    back = [tuple(map(tuple, r["td"])) for r in parsed]
    assert back  # tuples survive as lists; content preserved
    csv_text = emit(reports, "csv")
    assert csv_text.splitlines()[0].startswith("type,delta_p,degree")


def test_sweep_is_deterministic_across_worker_counts():
    types = default_types(3)
    out1 = list(sweep_rows(types, "json", workers=1))
    out3 = list(sweep_rows(types, "json", workers=3))
    assert out1 == out3
    assert "".join(join_rows([rows for rows, _ in out3], "json")) == \
        emit(run_sweep(types), "json")


def test_sweep_confirms_predictions_up_to_rank_three():
    reports = run_sweep(default_types(3))
    assert predictions_confirmed(reports)
    bad = [r for r in reports if not r.holds]
    assert [r.type for r in bad] == ["G2"]


def test_predictions_require_the_equality():
    """lhs == rhs off the exception and lhs == rhs + 1 on it: a row whose
    inequality still holds, or still fails, with the sides one apart
    otherwise is not confirmed."""
    reports = run_sweep((SimpleType("G", 2),))
    assert predictions_confirmed(reports)
    k = next(i for i, r in enumerate(reports) if r.exception)
    off = next(i for i, r in enumerate(reports) if not r.exception)
    for i, change in ((off, {"rhs": reports[off].lhs + 1}),
                      (k, {"lhs": reports[k].rhs + 2})):
        changed = reports[i]._replace(**change)
        assert (changed.lhs <= changed.rhs) == changed.holds  # the row is consistent
        assert not predictions_confirmed(reports[:i] + [changed] + reports[i + 1:])


def test_resource_guard(monkeypatch):
    # A3, B3 and C3 have 31, 43 and 43 rows: the budget counts their sum
    monkeypatch.setattr(report, "_MAX_SWEEP_ROWS", 100)
    a3, b3, c3 = (SimpleType(f, 3) for f in "ABC")
    assert len(run_sweep((b3, a3))) == 74
    with pytest.raises(ResourceGuardError, match="through C3 has 117 rows, more than the 100"):
        run_sweep((c3, b3, a3))


def test_sweep_runs_a_repeated_type_once(capsys):
    code, once = run_cli(capsys, "sweep", "--types", "G2")
    assert code == 0
    code, twice = run_cli(capsys, "sweep", "--types", "G2,G2")
    assert code == 0
    assert twice == once
    code, mixed = run_cli(capsys, "sweep", "--types", "G2,A1,G2")
    assert mixed == run_cli(capsys, "sweep", "--types", "A1,G2")[1]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in process."""

    def __init__(self, started, max_workers):
        started.append(max_workers)

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)

    def shutdown(self, wait=True, *, cancel_futures=False):
        pass


def _record_pools(monkeypatch, cpus):
    """The max_workers of every pool sweep_rows opens on a host with cpus CPUs."""
    started = []
    monkeypatch.setattr(report.os, "cpu_count", lambda: cpus)
    # report imports the pool from concurrent.futures when a sweep opens one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: _RecordingPool(started, max_workers))
    return started


def test_sweep_starts_no_more_workers_than_cases(monkeypatch):
    started = _record_pools(monkeypatch, 1024)
    a1 = (SimpleType("A", 1),)  # two cases
    serial = list(sweep_rows(a1, "json"))
    assert started == []
    for workers in (2, 4, 64):
        assert list(sweep_rows(a1, "json", workers)) == serial
    assert started == [2, 2, 2]
    list(sweep_rows((SimpleType("A", 2),), "json", workers=3))  # four cases
    assert started == [2, 2, 2, 3]


@pytest.mark.parametrize("cpus, pools", [(2, [2]), (1, []), (None, [])],
                         ids=["2-cpus", "1-cpu", "unknown-cpus"])
def test_sweep_starts_no_more_workers_than_cpus(monkeypatch, cpus, pools):
    # a pool forks all its processes at once, so a huge --workers must not reach it
    started = _record_pools(monkeypatch, cpus)
    a2 = (SimpleType("A", 2),)  # four cases
    assert list(sweep_rows(a2, "csv", workers=2000)) == list(sweep_rows(a2, "csv"))
    assert started == pools


def test_closing_a_sweep_stream_cancels_the_cases_not_started(monkeypatch):
    shutdowns = []

    class Pool:
        def __init__(self, max_workers):
            pass

        def map(self, fn, tasks):
            return map(fn, tasks)

        def shutdown(self, wait=True, *, cancel_futures=False):
            shutdowns.append(cancel_futures)

    monkeypatch.setattr(report.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    cases = sweep_rows((SimpleType("A", 2),), "json", workers=2)  # four cases
    assert shutdowns == [] and next(cases) == report.case_rows("A2", (), "json")
    cases.close()
    assert shutdowns == [True]


@pytest.mark.parametrize("fmt", ["json", "csv", "md"])
def test_only_written_rows_and_the_prediction_flag_cross_the_pool(monkeypatch, capsys, fmt):
    """Under --workers 2 each case sends its rows as str, written from the
    row kernel's masks, and one bool; the parent joins them unchanged."""
    crossed = []

    class Pool:
        def __init__(self, max_workers):
            pass

        def map(self, fn, tasks):
            for task in tasks:
                crossed.append(fn(task))
                yield pickle.loads(pickle.dumps(crossed[-1]))

        def shutdown(self, wait=True, *, cancel_futures=False):
            pass

    monkeypatch.setattr(report.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    types = (SimpleType("A", 2), SimpleType("G", 2))
    code, out = run_cli(capsys, "sweep", "--types", "A2,G2", "--format", fmt, "--workers", "2")
    assert code == 0 and out == emit(run_sweep(types), fmt)
    assert [type(x) for x in crossed] == [tuple] * 8
    keys = [(str(t), dp) for t in types for dp in all_parabolic_subsets(t.rank)]
    for (rows, confirmed), key in zip(crossed, keys, strict=True):
        assert type(rows) is list and {type(r) for r in rows} == {str}
        assert confirmed is True and len(rows) == len(report.case_reports(*key))


def test_sweep_runs_its_cases_by_family_rank_and_parabolic(monkeypatch):
    seen = []
    # a zero count keeps A10's full-flag search from running
    monkeypatch.setattr(report, "_sweep_rows", lambda rs: 0)
    monkeypatch.setattr(report, "case_reports", lambda t, dp: seen.append((t, dp)) or [])
    monkeypatch.setattr(report, "case_rows",
                        lambda t, dp, fmt: seen.append((t, dp)) or ([], True))
    types = (SimpleType("B", 2), SimpleType("A", 10), SimpleType("A", 2), SimpleType("B", 2))
    assert run_sweep(types) == []
    serial, seen[:] = seen[:], []
    # the library list and the stream run the same cases in the same order
    assert list(sweep_rows(types, "md")) == [([], True)] * len(serial)
    assert seen == serial
    labels = list(dict.fromkeys(label for label, _ in seen))
    assert labels == ["A2", "A10", "B2"]
    for label in labels:
        subsets = [dp for lab, dp in seen if lab == label]
        assert subsets == sorted(subsets) and len(subsets) == len(set(subsets))


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_sweep_rejects_non_positive_worker_counts(capsys, workers):
    assert main(["sweep", "--types", "A1", "--workers", workers]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the worker count must be at least 1, got {workers}\n"


@pytest.mark.parametrize("argv", [
    ["msos", "E7"],
    ["cascade", "E7"],
    ["key-inequality", "E7", "--delta-p", "1,2,3,4,5,6"],
])
def test_e7_single_case_commands_answer(argv):
    # E7/B has 970 minimal degrees, which the enumeration finds in about 2 s
    proc = subprocess.run([sys.executable, "-m", "mindeg", *argv], capture_output=True,
                          text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)


@pytest.mark.parametrize("max_rank", ["0", "-3"])
def test_empty_sweep_is_refused(capsys, max_rank):
    assert main(["sweep", "--max-rank", max_rank]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no types to sweep\n"


def test_run_sweep_refuses_no_types():
    with pytest.raises(InvalidConfigError):
        run_sweep(())


def test_default_types_list_every_admissible_type():
    assert [str(t) for t in default_types(2)] == ["A1", "A2", "B2", "C2", "G2"]
    assert [str(t) for t in default_types(6) if t.family == "E"] == ["E6"]
    assert [str(t) for t in default_types(8) if t.family == "E"] == ["E6", "E7", "E8"]


def _over_budget(label, rows):
    """The error line of a sweep refused at label, under a budget of 100 rows."""
    return f"error: the sweep through {label} has {rows} rows, more than the 100 a sweep may emit\n"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_over_the_row_budget_is_refused_before_any_case(monkeypatch, capsys, workers):
    def failing(type_label, delta_p, fmt):
        raise InvalidDegreeError("a case ran")

    monkeypatch.setattr(report, "_MAX_SWEEP_ROWS", 100)
    monkeypatch.setattr(report, "case_rows", failing)
    for fmt in ("json", "csv", "md"):
        assert main(["sweep", "--types", "A4", "--workers", workers, "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # not even a CSV or md header
        assert captured.err == _over_budget("A4", 109)


def test_a_huge_max_rank_is_refused_at_once(monkeypatch, capsys):
    # the default list stops at rank 12, where the full-flag search can still start
    assert default_types(10**9) == default_types(12)
    assert [t.rank for t in default_types(10**9) if t.family == "A"][-1] == 12
    monkeypatch.setattr(report, "_MAX_SWEEP_ROWS", 100)
    assert main(["sweep", "--max-rank", "1000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == _over_budget("A4", 3 + 9 + 31 + 109)
