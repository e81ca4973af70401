"""The four benchmark workloads: child-side requests and parent-side checks.

Each request (one sweep, one query or one checklist) runs in a fresh child of
a `ColdPool` zygote (see coldpool.py). The child times only the work, reads
its own peak RSS right after, and only then digests its output. The parent
compares every digest with the reference files recorded in `reference/` and
counts each mismatch as a failed operation.

An operation is one (type, Delta_P) block for the sweeps, one query for
query-cold and one check for appendix-so7.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import mindeg
import mindeg.cli

import hostspeed
import spans

REFERENCE = Path(__file__).resolve().parent / "reference"

SWEEP_ARGV = {
    "sweep-headline": ["sweep", "--max-rank", "5", "--workers", "1"],
    "sweep-e6": ["sweep", "--types", "E6", "--max-rank", "6", "--workers", "1"],
}
# Types whose headline rows query-cold draws from.
QUERY_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
               "D3", "D4", "F4", "G2")
# Fields of a sweep row that one query recomputes.
QUERY_FIELDS = ("z_length", "z_word", "lhs", "rhs", "holds", "exception", "verdict")
# One query-cold repetition: one query from each of this many strata.
QUERIES_PER_PASS = 100


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def emit_json(rows) -> str:
    """Byte-identical to mindeg's emit(reports, "json") for the same rows."""
    return json.dumps(rows, indent=2) + "\n"


def block_key(type_label: str, delta_p) -> str:
    return f"{type_label}:{','.join(str(i) for i in delta_p)}"


def sweep_digest(text: str) -> dict:
    """sha256 of the whole sweep JSON, of each type's rows and of each block's rows."""
    rows = json.loads(text)
    types, blocks = {}, {}
    for r in rows:
        types.setdefault(r["type"], []).append(r)
        blocks.setdefault(block_key(r["type"], r["delta_p"]), []).append(r)
    return {
        "sha256": sha256(text),
        "rows": len(rows),
        "types": {t: sha256(emit_json(rs)) for t, rs in types.items()},
        "blocks": {k: sha256(emit_json(rs)) for k, rs in blocks.items()},
    }


def load_reference(name: str):
    return json.loads((REFERENCE / name).read_text())


# ---------------------------------------------------------------- child side


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _run_timed(tracer, work):
    """(result, timing): the work's seconds, and its seconds at reference speed.

    Untraced, the host's speed is sampled throughout (hostspeed.py) and the
    samples' own time is taken off. Traced runs are not sampled, so that no
    sample falls inside a span; they report raw seconds only. A tracer's
    metrics are taken before any digesting.
    """
    if tracer is not None:
        result, wall = tracer.run_root(work)
        tracer.taken = tracer.metrics()
        return result, {"wall_s": wall, "ref_s": wall}
    with hostspeed.Sampler() as sampler:
        t0 = time.perf_counter()
        result = work()
        wall = time.perf_counter() - t0
    wall -= sampler.spent
    return result, {"wall_s": wall, "ref_s": wall * hostspeed.scale(sampler.samples)}


def _op_sweep(tracer, argv):
    out = io.StringIO()

    def work():
        with contextlib.redirect_stdout(out):
            return mindeg.cli.main(argv)

    code, timing = _run_timed(tracer, work)
    rss = _peak_rss_mb()
    return {**timing, "rss_mb": rss, "exit": code, "digest": sweep_digest(out.getvalue())}


def _op_query(tracer, type_label, delta_p, degree):
    def work():
        p = mindeg.Parabolic(mindeg.build_root_system(type_label), frozenset(delta_p))
        d = tuple(degree)
        return (mindeg.curve_neighborhood_element(p, d), mindeg.key_inequality(p, d),
                mindeg.quasi_homogeneity_verdict(p, d))

    (z, ineq, verdict), timing = _run_timed(tracer, work)
    rss = _peak_rss_mb()
    row = {"z_length": z.length, "z_word": mindeg.weyl.word_str(z), "lhs": ineq.lhs,
           "rhs": ineq.rhs, "holds": ineq.holds, "exception": ineq.exception,
           "verdict": verdict.kind}
    return {**timing, "rss_mb": rss, "exit": 0, "digest": row}


def _op_appendix(tracer):
    results, timing = _run_timed(tracer, mindeg.so7.run_appendix_checks)
    rss = _peak_rss_mb()
    checks = [{"check_name": r.check_name, "pass": r.passed, "witness": r.witness}
              for r in results]
    return {**timing, "rss_mb": rss, "exit": 0, "digest": checks}


_OPS = {"sweep": _op_sweep, "query": _op_query, "appendix": _op_appendix}


def handle(request: dict) -> dict:
    """Child entry point: check the caches are cold, run one request."""
    warm = sum(1 for c in spans.reachable_caches() if c.cache_info().currsize)
    tracer = None
    if request["trace"]:
        tracer = spans.Tracer()
        tracer.install()
    result = _OPS[request["op"]](tracer, *request["args"])
    result["warm_caches"] = warm
    if tracer is not None:
        result["trace"] = {
            "metrics": tracer.taken,
            "self_total_s": tracer.self_total(),
            "root_s": result["wall_s"],
            "nesting_errors": tracer.nesting_errors + len(tracer._stack),
            "negative_self": tracer.negative_self,
        }
    return result


# --------------------------------------------------------------- parent side


@dataclass
class Rep:
    """One repetition as the parent saw it.

    A request is one call a user would make, run in one child: one sweep,
    one query or one checklist. `wall_s` is the repetition's work time in
    seconds; `ref_s` is the same at reference speed, and `latencies` holds
    each request's work time at reference speed.
    """
    wall_s: float = 0.0
    ref_s: float = 0.0
    latencies: list = field(default_factory=list)
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    warm_caches: int = 0
    digests: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)
    traces: list = field(default_factory=list)

    def add(self, result, attempted: int, failures: list) -> None:
        self.attempted += attempted
        if result is None:
            self.failed += attempted
            self.mismatches.append("request raised, crashed or timed out")
            return
        self.wall_s += result["wall_s"]
        self.ref_s += result["ref_s"]
        self.latencies.append(result["ref_s"])
        self.rss_mb = max(self.rss_mb, result["rss_mb"])
        self.warm_caches += result["warm_caches"]
        self.digests.append(result["digest"])
        self.failed += min(attempted, len(failures))
        self.mismatches += failures
        if "trace" in result:
            self.traces.append(result["trace"])


class SweepWorkload:
    """One `mindeg sweep` through mindeg.cli.main, checked block by block."""

    def __init__(self, name: str):
        self.name = name
        self.argv = SWEEP_ARGV[name]
        self.reference = load_reference("sweeps.json")[name]

    def next_inputs(self):
        return self.argv

    def run(self, pool, argv, trace: bool) -> Rep:
        result = pool.run({"op": "sweep", "args": [argv], "trace": trace})
        want = self.reference["blocks"]
        failures = []
        if result is not None:
            digest = result["digest"]
            got = digest["blocks"]
            failures = [f"block {k} differs" for k in sorted(set(want) | set(got))
                        if want.get(k) != got.get(k)]
            # Equal blocks can still be emitted differently: reordered, re-indented,
            # or with text around the rows. The output must be byte-identical.
            whole = (digest["sha256"], digest["rows"])
            if not failures and whole != (self.reference["sha256"], self.reference["rows"]):
                failures = ["whole output differs from the reference"]
            if result["exit"] != 0:
                failures = [f"exit code {result['exit']}"] * len(want)
        rep = Rep()
        rep.add(result, len(want), failures)
        return rep


class QueryWorkload:
    """Single cold queries drawn, stratified, from the reference headline rows.

    The rows are kept in sweep order and cut into QUERIES_PER_PASS equal
    strata; each pass draws one row uniformly from every stratum and runs the
    pass in a seeded random order. A pass is one repetition.
    """

    name = "query-cold"

    def __init__(self, rng):
        self.rng = rng
        self.drawn = []  # (type, Delta_P, degree) of every query drawn
        self.rows = [dict(r, type=b["type"], delta_p=b["delta_p"])
                     for b in load_reference("query_rows.json") for r in b["rows"]]

    def next_inputs(self):
        n, size = QUERIES_PER_PASS, len(self.rows)
        picks = [self.rows[self.rng.randrange(size * i // n, size * (i + 1) // n)]
                 for i in range(n)]
        self.rng.shuffle(picks)
        self.drawn += [[r["type"], r["delta_p"], r["degree"]] for r in picks]
        return picks

    def run(self, pool, picks, trace: bool) -> Rep:
        rep = Rep()
        for row in picks:
            result = pool.run({"op": "query", "trace": trace,
                               "args": [row["type"], row["delta_p"], row["degree"]]})
            failures = []
            if result is not None:
                failures = [f"query {row['type']} {row['delta_p']} {row['degree']}: "
                            f"{k} is {result['digest'][k]!r}, expected {row[k]!r}"
                            for k in QUERY_FIELDS if result["digest"][k] != row[k]]
            rep.add(result, 1, failures)
        return rep


class AppendixWorkload:
    """The ten-check so7/G2 checklist, each check's name, flag and witness checked."""

    name = "appendix-so7"

    def __init__(self):
        self.reference = load_reference("appendix.json")

    def next_inputs(self):
        return None

    def run(self, pool, _inputs, trace: bool) -> Rep:
        result = pool.run({"op": "appendix", "args": [], "trace": trace})
        failures = []
        if result is not None:
            got = result["digest"]
            failures = [f"check {i}: {g!r} != {w!r}" for i, (g, w) in
                        enumerate(zip(got, self.reference)) if g != w]
            failures += ["check count differs"] * abs(len(got) - len(self.reference))
        rep = Rep()
        rep.add(result, len(self.reference), failures)
        return rep


def make_workload(name: str, rng):
    if name in SWEEP_ARGV:
        return SweepWorkload(name)
    if name == QueryWorkload.name:
        return QueryWorkload(rng)
    if name == AppendixWorkload.name:
        return AppendixWorkload()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (*SWEEP_ARGV, QueryWorkload.name, AppendixWorkload.name)
