"""Tests of the benchmark itself, on families small enough to run in seconds.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import multiprocessing
import random
import shutil
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import run
from queries import check_input, check_output, make_queries, random_russell, random_syt
from spans import Tracer
from speed import SpeedProbe
from webweave.tableau import format_tableau, russell_repetition

ROOT = Path(run.__file__).resolve().parent.parent
SPECS = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]
SMALL_QUERIES = dict(SPECS["query_mix"], distinct_queries=45, min_queries=45)
EXACT_COUNTS = ("tableau.enumerated", "jdt.evacuate_calls", "bijection.crossings", "verify.shipped_bytes")


def small_campaign(shape, repetition, check, jobs, expected, max_seconds=None) -> run.Campaign:
    return run.Campaign({
        "shape": list(shape), "repetition": repetition, "check": check,
        "jobs": jobs, "max_seconds": max_seconds, "expected_total": expected,
    })


@pytest.mark.parametrize(
    "shape, repetition, check, jobs, expected",
    [
        ((3, 3, 3), None, "theorem", 1, 42),
        ((2, 2, 2), "all", "injectivity", 1, 33),
        ((6, 6), None, "theorem", 2, 132),
    ],
)
def test_campaign_counts_repeat_exactly(shape, repetition, check, jobs, expected):
    campaign = small_campaign(shape, repetition, check, jobs, expected)
    first, second = run.campaign_traced(campaign), run.campaign_traced(campaign)
    for result in (first, second):
        assert result["failed"] == 0 and result["consistent"]
        assert result["metrics"]["tableau.enumerated"] == expected
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert (first["metrics"]["verify.shipped_bytes"] > 0) == (jobs > 1)
    assert first["metrics"]["jdt.evacuate_calls"] == (expected if check == "theorem" else 0)


def test_query_counts_repeat_exactly():
    first = run.queries_traced(SMALL_QUERIES, seed=3, seconds=0)
    second = run.queries_traced(SMALL_QUERIES, seed=3, seconds=0)
    for result in (first, second):
        assert result["attempted"] == 45 and result["failed"] == 0 and result["consistent"]
    for name in ("jdt.evacuate_calls", "bijection.forward_calls", "bijection.crossings"):
        assert first["metrics"][name] == second["metrics"][name], name


def test_tripped_budget_fails_every_tableau():
    campaign = small_campaign((6, 6), None, "theorem", 2, 132, max_seconds=1e-9)
    _, _, failed = campaign.run(2)
    assert failed == 132


def test_wrong_expected_total_is_refused():
    with pytest.raises(ValueError):
        small_campaign((3, 3, 3), None, "theorem", 1, 41)


def test_queries_are_seeded_and_valid():
    a, b = make_queries(SMALL_QUERIES, 5), make_queries(SMALL_QUERIES, 5)
    assert [(q.command, q.stdin) for q in a] == [(q.command, q.stdin) for q in b]
    assert [q.stdin for q in a] != [q.stdin for q in make_queries(SMALL_QUERIES, 6)]
    assert Counter(q.klass for q in a) == {"2row": 15, "sl3": 15, "russell": 15}
    for q in a:
        check_input(q.klass, q.tableau)


def test_hook_walk_is_uniform():
    rng = random.Random(0)
    counts = Counter(format_tableau(random_syt((3, 3), rng)) for _ in range(5000))
    assert len(counts) == 5  # the Catalan number C_3
    assert all(850 < c < 1150 for c in counts.values()), counts


def test_russell_growth_doubles_and_round_trips():
    rng = random.Random(1)
    for k in (1, 2, 6):  # k = 1 doubles only within one column
        for _ in range(50):
            t = random_russell(k, rng)
            assert russell_repetition(t) >= 1
            check_input("russell", t)


@pytest.mark.parametrize("command", ["to-web", "to-web --canonical", "evacuate", "standardize", "reflect"])
def test_gate_accepts_right_and_rejects_wrong_outputs(command):
    queries = [q for q in make_queries(SMALL_QUERIES, 7) if q.command == command]
    assert queries
    for q in queries:
        code, out, err, _ = run.call_cli(q.argv, q.stdin)
        assert check_output(q, code, out, err) is None
        assert check_output(q, 2, "", "error: boom") is not None
        wrong = next(p for p in queries if p.tableau != q.tableau and p.klass == q.klass)
        _, other, _, _ = run.call_cli(wrong.argv, wrong.stdin)
        assert check_output(q, 0, other, "") is not None


def test_standardize_gate_needs_the_collapse():
    q = next(q for q in make_queries(SMALL_QUERIES, 8) if q.klass == "russell" and q.command == "standardize")
    code, out, err, _ = run.call_cli(["standardize"], q.stdin)
    assert check_output(q, code, out, err) is None
    other = format_tableau(random_syt((q.size,) * 3, random.Random(0)))  # standard, but not this one
    assert other != out.strip()
    assert check_output(q, code, other, err) == "standardized output does not collapse back to the input"


def test_self_time_subtracts_children():
    tracer = Tracer()
    root = tracer.open("query")
    tracer.call("evacuate", sum, [1, 2])
    tracer.call("canonicalize", sorted, [3, 1])
    tracer.close(root)
    own = tracer.self_ns()
    spans = [end - start for start, end in zip(tracer.start, tracer.end)]
    assert own[0] == spans[0] - spans[1] - spans[2]
    assert own[1:] == spans[1:]
    assert list(tracer.parent) == [-1, 0, 0]
    assert sum(tracer.layer_self_ns().values()) == spans[0]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query_mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout



def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class CountingProbe(SpeedProbe):
    taken = 0

    def sample(self) -> None:
        self.taken += 1
        super().sample()


def test_probe_collects_samples_from_forked_workers():
    probe = CountingProbe()
    with probe.during():
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
            pool.submit(_busy, 0.5).result()
    assert len(probe.samples) > probe.taken + 3  # the worker sent samples too
    assert 0.2 < probe.slowdown < 5
