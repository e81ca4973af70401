"""Smoke tests of the scripts under scripts/."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

from mindeg.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_time_cold_query_reports_each_part():
    """One fresh run of A2 prints one line with a time in ms for each of the
    three parts of a cold query, which builds no table, and for the
    full-flag search on its own."""
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "time_cold_query.py"), "--types", "A2", "--runs", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()
    assert header.split()[:5] == ["type", "import", "build", "query", "search"]
    label, *times = row.split()
    assert label == "A2" and len(times) == 4
    assert all(float(t) >= 0 for t in times)


def test_check_local_queries_accepts_small_types():
    """The local-versus-table comparison passes on A2 and G2, one line each."""
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "check_local_queries.py"), "--types", "A2,G2"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["A2", "G2"]
    assert lines[0].startswith("A2: 9 rows and ") and lines[1].startswith("G2: 13 rows and ")


def test_time_appendix_reports_the_import_and_each_check():
    """One fresh run prints a header and twelve timed parts: the import, the
    ten checks under the names they report, and the whole checklist, which
    takes at least as long as its checks together."""
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "time_appendix.py"), "--runs", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[:2] == ["part", "ms"]
    parts = [row.split() for row in rows]
    assert len(parts) == 12 and all(len(p) == 2 for p in parts)
    assert parts[0][0] == "import"
    assert parts[1][0] == "e-basis-bracket-rules"
    assert parts[-2][0] == "longest-element-restriction"
    assert parts[-1][0] == "checklist"
    assert len({name for name, _ in parts}) == 12
    assert all(float(ms) >= 0 for _, ms in parts)
    assert float(parts[-1][1]) >= sum(float(ms) for _, ms in parts[1:-1])


def test_time_sweep_reports_each_part():
    """One fresh run each of A2 and B2 prints one line per type with a time
    in ms for each of the five parts of a serial sweep and their total; the
    script itself checks that the parts wrote the sweep's JSON."""
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "time_sweep.py"), "--types", "A2,B2", "--runs", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[:7] == ["type", "search", "tables", "rows", "words", "render",
                                  "total"]
    assert [row.split()[0] for row in rows] == ["A2", "B2"]
    for row in rows:
        times = [float(t) for t in row.split()[1:]]
        assert len(times) == 6 and all(t >= 0 for t in times)
        # each part's best is at most its share of the best total; each
        # printed time is rounded to 0.01 ms
        assert times[-1] >= sum(times[:-1]) - 0.03


def test_run_headline_sweep_confirms_every_prediction(tmp_path):
    """The rank-5 headline sweep writes its 3,490 rows as a markdown table
    to --out, finds one inequality failure, the G2 triple with its
    dimension witness 15 > 14, and confirms every prediction."""
    out = tmp_path / "sweep.md"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_headline_sweep.py"), "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == f"wrote 3490 rows to {out}"
    header, _, *rows = out.read_text().splitlines()
    assert len(rows) == 3490
    holds = [c.strip() for c in header.split("|")].index("holds")
    failing = [row for row in rows if row.split("|")[holds].strip() == "False"]
    assert len(failing) == 1 and failing[0].startswith("| G2 | [2] | [2] |")
    assert any(line.endswith("; 1 inequality failure(s).") for line in lines)
    [failure] = [line for line in lines if line.startswith("  ")]
    assert failure.startswith("  G2, delta_p=[2], degree=[2]: 5 > 4; verdict OnlyAutX "
                              "(moduli dim 15 > group dim 14)")
    assert lines[-1] == "all predictions confirmed"


def test_check_generative_e7_accepts_small_types():
    """The generative enumeration equals the box scan and the unit-edge
    oracle on every parabolic of A2, G2 and B3: one line with 0 differences
    per type, and the closing verdict."""
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "check_generative_e7.py"), "--types", "A2,G2,B3"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    for label in ("A2", "G2", "B3"):
        assert [line for line in lines if line.startswith(f"{label}: ")
                and ", 0 differences, " in line], label
    assert lines[-1] == "generative sets equal the box scan and the unit-edge oracle"


def test_check_sweep_stream_accepts_small_types(capsys):
    """The serial and --workers 2 sweeps of A2 and of G2 each hash alike,
    neither type has a pin, and the A2 hash is that of `mindeg sweep --types A2`."""
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "check_sweep_stream.py"), "--types", "A2,G2"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    hashes = {}
    for label, workers, sha in re.findall(
            r"^--types (\w+) --workers (\d): exit 0, \d+ bytes, sha256 ([0-9a-f]{64}),",
            proc.stdout, re.M):
        hashes.setdefault(label, {})[workers] = sha
    assert {label: len(set(by.values())) for label, by in hashes.items()} == {"A2": 1, "G2": 1}
    assert all(set(by) == {"1", "2"} for by in hashes.values())
    assert "A2: no pin" in proc.stdout and "G2: no pin" in proc.stdout
    assert main(["sweep", "--types", "A2"]) == 0
    assert hashes["A2"]["1"] == hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
