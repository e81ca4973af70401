#!/usr/bin/env python3
"""Check that `mindeg sweep` streams the pinned bytes within its memory gate.

Runs `python -m mindeg sweep --types T` in a subprocess for each listed type
T on its own, once serially and once with --workers 2, and hashes stdout as
it arrives, so that the output is never held whole. Each run's peak RSS is
read with os.wait4 and must stay under MAX_RSS_MB. Under --workers 2 that is
the largest peak of the parent and of the workers it reaped (Linux's wait4
reports both); the parent receives each case's rows already written and
only joins them. A case's parabolic and the tables it holds are freed once
its rows are written, so a serial run holds its type's G/B tables, the
case at hand and one word text per distinct z it has written (the system
holds them), not every case it has run. Both runs must exit 0 and give the
same sha256, which for a type of PINNED_SHA256 must equal the pinned one; a
type without a pin is reported as such. The E6 and E7 sweeps are pinned in
tests/test_sweep_hashes.py, which Tier-1 runs; this table holds only what
Tier-1 does not check: the rank-8 types A8, B8, C8, D8 and E8, each recorded
before the sweep rows read their table entries. E8 writes 113,807 rows
(143 MB of JSON) and takes 5.5 to 6.5 s per serial run at a peak RSS of
87 MB on a shared 2-vCPU host, by its load.

Usage: python scripts/check_sweep_stream.py [--types E8 | --types A8,B8,C8,D8,E8]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the peak RSS of the serial run and of the --workers 2 parent must stay below this
MAX_RSS_MB = 100

# sha256 of the whole `mindeg sweep --types T` JSON output
PINNED_SHA256 = {
    "A8": "75f91826d550f4ce5fbcd00782960c162a1d1ffd51c04db6feab8d5aa38bd071",
    "B8": "a635789e7ec2215c334f70b24bc8d4ea322fb26f2a2fafc8ab3c5d11f779f8c2",
    "C8": "335ab1a3a04cb59ac0cc6c74ef9430c4e96f71caa3c38c8f36cb89be8207ad6a",
    "D8": "2200e3728437d6b55e0915072587bd12f1871a8a35fe0771f5cd283e5a6e2de4",
    "E8": "51108c4d68203a6dd0e7782c1a78e2050c1f6b9c54bd126af558aad441a620c3",
}


def run_sweep(types: str, workers: int) -> tuple[int, str, int, float, float]:
    """(exit code, sha256 of stdout, stdout bytes, peak RSS in MB, seconds)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "mindeg", "sweep", "--types", types,
         "--workers", str(workers)], stdout=subprocess.PIPE, env=env)
    digest, size = hashlib.sha256(), 0
    for block in iter(lambda: proc.stdout.read(1 << 16), b""):
        digest.update(block)
        size += len(block)
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux; under --workers it is the largest peak of
    # the parent and of the workers it reaped
    return (proc.returncode, digest.hexdigest(), size, usage.ru_maxrss / 1024,
            time.monotonic() - start)


def check_type(label: str) -> list[str]:
    """Sweep one type serially and with --workers 2; the problems found."""
    problems, hashes = [], set()
    for workers in (1, 2):
        code, sha, size, rss, secs = run_sweep(label, workers)
        print(f"--types {label} --workers {workers}: exit {code}, {size} bytes, "
              f"sha256 {sha}, {secs:.1f} s, peak RSS {rss:.0f} MB"
              + (" (parent and workers, the largest)" if workers > 1 else ""), flush=True)
        hashes.add(sha)
        if code != 0:
            problems.append(f"{label}: --workers {workers} exited {code}")
        if rss >= MAX_RSS_MB:
            problems.append(f"{label}: --workers {workers} peak RSS {rss:.0f} MB "
                            f"is not under {MAX_RSS_MB} MB")
    if len(hashes) != 1:
        problems.append(f"{label}: the serial and --workers 2 outputs differ")
    pinned = PINNED_SHA256.get(label)
    if pinned is None:
        print(f"{label}: no pin", flush=True)
    elif hashes != {pinned}:
        problems.append(f"{label}: the output does not hash to the pinned {pinned}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--types", default="E8",
                    help="comma-separated types, each swept on its own, e.g. E8 or A8,B8,C8,D8,E8")
    args = ap.parse_args()
    problems = []
    for label in args.types.split(","):
        problems += check_type(label.strip())
    for msg in problems:
        print(msg)
    print("each sweep streams the expected bytes within the memory gate"
          if not problems else "CHECK FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
