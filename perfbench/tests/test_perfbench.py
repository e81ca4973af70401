"""Tests of the benchmark itself: cold state, checks, tracing, seeds, contract.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import random
import shutil
import signal
import subprocess
import sys
import time

import pytest

import coldpool
import hostspeed
import spans
import workloads

BENCH = workloads.REFERENCE.parent
ROOT = BENCH.parent
SMALL_SWEEP = ["sweep", "--types", "B3,G2", "--max-rank", "3", "--workers", "1"]


@pytest.fixture(scope="module")
def pool():
    # The guard: nothing in this process has filled a mindeg cache before the fork.
    assert [c for c in spans.reachable_caches() if c.cache_info().currsize] == []
    with coldpool.ColdPool(workloads.handle) as p:
        yield p


def _sweep(pool, trace=False):
    result = pool.run({"op": "sweep", "args": [SMALL_SWEEP], "trace": trace})
    assert result is not None and result["exit"] == 0
    return result


def test_guard_sees_the_caches():
    names = {c.__wrapped__.__name__ for c in spans.reachable_caches()}
    assert {"curve_neighborhood_element", "is_minimal_degree", "maximal_roots",
            "project_coroot", "reduced_word", "build_tables"} <= names


def test_every_child_starts_cold(pool):
    first = _sweep(pool, trace=True)
    assert first["trace"]["metrics"]["cache.entries"] > 0
    again = pool.run({"op": "appendix", "args": [], "trace": False})
    assert first["warm_caches"] == 0 and again["warm_caches"] == 0


def test_repetition_twice_gives_same_hashes(pool):
    a, b = _sweep(pool), _sweep(pool)
    assert a["digest"] == b["digest"]
    assert a["digest"]["rows"] == b["digest"]["rows"] == 43 + 13
    headline = workloads.load_reference("sweeps.json")["sweep-headline"]
    for t in ("B3", "G2"):
        assert a["digest"]["types"][t] == headline["types"][t]


def test_traced_run_matches_untraced_and_spans_nest(pool):
    plain, traced = _sweep(pool), _sweep(pool, trace=True)
    assert traced["digest"] == plain["digest"]
    t = traced["trace"]
    assert t["nesting_errors"] == 0 and t["negative_self"] == 0
    assert t["root_s"] == traced["wall_s"]
    assert t["self_total_s"] == pytest.approx(t["root_s"], rel=1e-9)
    m = t["metrics"]
    assert m["curve_nbhd.minimal_degrees.found"] == 56
    assert 0 < m["curve_nbhd.minimal_yield"] <= 1
    assert m["report.emit.bytes"] > 0 and m["so7.build_tables.calls"] == 0


def test_failures_are_counted(pool):
    sweep = workloads.SweepWorkload("sweep-headline")
    rep = sweep.run(pool, SMALL_SWEEP, trace=False)
    # Only the B3 and G2 blocks ran: every other reference block is missing.
    assert rep.attempted == 258 and rep.failed == 258 - 8 - 4


class _Replay:
    """A pool that returns one fixed child result instead of running anything."""

    def __init__(self, result):
        self.result = result

    def run(self, request):
        return self.result


def test_whole_output_is_checked_not_only_blocks():
    sweep = workloads.SweepWorkload("sweep-e6")
    ref = sweep.reference
    result = {"wall_s": 1.0, "ref_s": 1.0, "rss_mb": 1.0, "exit": 0, "warm_caches": 0,
              "digest": {"sha256": ref["sha256"], "rows": ref["rows"],
                         "types": ref["types"], "blocks": ref["blocks"]}}
    assert sweep.run(_Replay(result), sweep.argv, trace=False).failed == 0
    # Every block matches, but the bytes around them do not (e.g. other indentation).
    result["digest"] = dict(result["digest"], sha256="0" * 64)
    rep = sweep.run(_Replay(result), sweep.argv, trace=False)
    assert rep.failed == 1 and rep.mismatches == ["whole output differs from the reference"]


def test_second_seed_draws_other_queries_and_checks_clean(pool):
    runs = []
    for seed in (1, 2):
        w = workloads.QueryWorkload(random.Random(seed))
        picks = w.next_inputs()[:12]
        rep = w.run(pool, picks, trace=False)
        assert rep.attempted == 12 and rep.failed == 0 and rep.warm_caches == 0
        runs.append(picks)
    assert runs[0] != runs[1]


def test_query_differing_from_reference_is_counted(pool):
    w = workloads.QueryWorkload(random.Random(5))
    picks = w.next_inputs()[:3]
    picks[1] = dict(picks[1], lhs=picks[1]["lhs"] + 1)
    rep = w.run(pool, picks, trace=False)
    assert rep.attempted == 3 and rep.failed == 1
    assert "lhs is" in rep.mismatches[0]


def test_check_differing_from_reference_is_counted(pool):
    w = workloads.AppendixWorkload()
    w.reference = [dict(c) for c in w.reference]
    w.reference[4]["witness"] = "a different witness"
    rep = w.run(pool, None, trace=False)
    assert rep.attempted == 10 and rep.failed == 1
    assert rep.mismatches[0].startswith("check 4:")


def test_draw_is_seeded():
    draw = lambda seed: workloads.QueryWorkload(random.Random(seed)).next_inputs()  # noqa: E731
    assert draw(7) == draw(7) and draw(7) != draw(8)
    assert len(draw(7)) == workloads.QUERIES_PER_PASS


def test_appendix_checks_clean(pool):
    rep = workloads.AppendixWorkload().run(pool, None, trace=False)
    assert rep.attempted == 10 and rep.failed == 0 and len(rep.latencies) == 1


def test_host_speed_is_sampled_while_work_runs():
    assert hostspeed.scale([hostspeed.KERNEL_REF_S] * 3) == pytest.approx(1.0)
    assert hostspeed.scale([2 * hostspeed.KERNEL_REF_S]) == pytest.approx(0.5)
    before = signal.getsignal(signal.SIGPROF)
    with hostspeed.Sampler() as sampler:
        end = time.process_time() + 0.3
        while time.process_time() < end:
            pass
    assert len(sampler.samples) > hostspeed.PRESAMPLES + 3
    assert 0 < sampler.spent < 0.3
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_follows_the_contract(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = _run(["--workload", "appendix-so7", "--seed", "3", "--seconds", "1",
                "--trace", str(trace)], ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 10
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    record = json.loads((BENCH / "results" / f"appendix-so7-seed3-trace{trace}.json").read_text())
    assert record["seed"] == 3
    assert {"nproc", "python", "platform", "git_commit", "peak_rss"} <= set(record["environment"])
    if trace:
        assert record["trace_overhead_s"] == result["metrics"]["trace.overhead_s"]["value"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = _run(["--workload", "sweep-headline", "--seed", "1", "--seconds", "1",
                "--trace", "0"], tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
