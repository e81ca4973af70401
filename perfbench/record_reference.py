"""Record the reference outputs every benchmark run is checked against.

    python3 perfbench/record_reference.py

Runs `mindeg sweep` for the two sweep workloads and `mindeg appendix-verify`
as plain CLI calls from this checkout's src/, and writes reference/:

- sweeps.json: for each sweep workload, the sha256 of its JSON output, its
  row count, and the sha256 of each type's and each (type, Delta_P) block's
  rows. Each type's hash is checked to equal the sha256 of the output of
  `mindeg sweep --types <type>` on its own.
- query_rows.json: the headline rows, block by block, of the types that
  query-cold draws from, trimmed to the fields one query recomputes.
- appendix.json: the ten checklist entries (name, pass flag, witness).

Takes about a minute. Re-record only when a change is meant to alter output.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from workloads import (QUERY_FIELDS, QUERY_TYPES, REFERENCE, SWEEP_ARGV,  # noqa: E402
                       block_key, sha256, sweep_digest)


def mindeg_cli(argv) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-m", "mindeg", *argv], env=env,
                         capture_output=True, text=True, check=True, timeout=600)
    return out.stdout


def record_sweep(argv) -> tuple[dict, list]:
    text = mindeg_cli(argv)
    digest = sweep_digest(text)
    if len(digest["types"]) == 1:
        return digest, json.loads(text)
    for type_label, want in digest["types"].items():
        alone = mindeg_cli(["sweep", "--types", type_label, "--max-rank", "6",
                            "--workers", "1"])
        if sha256(alone) != want:
            raise SystemExit(f"{type_label}: its rows in the sweep differ from its own sweep")
    return digest, json.loads(text)


def query_blocks(rows) -> list[dict]:
    blocks = {}
    for r in rows:
        if r["type"] in QUERY_TYPES:
            key = block_key(r["type"], r["delta_p"])
            blocks.setdefault(key, {"type": r["type"], "delta_p": r["delta_p"], "rows": []})
            blocks[key]["rows"].append(
                {"degree": r["degree"], **{k: r[k] for k in QUERY_FIELDS}})
    return list(blocks.values())


def write(name: str, obj, one_per_line: bool = False) -> None:
    if one_per_line:
        text = "[\n" + ",\n".join(json.dumps(x) for x in obj) + "\n]\n"
    else:
        text = json.dumps(obj, indent=1) + "\n"
    (REFERENCE / name).write_text(text)


def main() -> int:
    REFERENCE.mkdir(exist_ok=True)
    sweeps, headline_rows = {}, None
    for name, argv in SWEEP_ARGV.items():
        sweeps[name], rows = record_sweep(argv)
        if name == "sweep-headline":
            headline_rows = rows
    checks = json.loads(mindeg_cli(["appendix-verify"]))
    write("sweeps.json", sweeps)
    write("query_rows.json", query_blocks(headline_rows), one_per_line=True)
    write("appendix.json", checks)
    for name, d in sweeps.items():
        print(f"{name}: {d['rows']} rows, {len(d['blocks'])} blocks, sha256 {d['sha256']}")
    print(f"appendix-so7: {len(checks)} checks, all pass: {all(c['pass'] for c in checks)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
