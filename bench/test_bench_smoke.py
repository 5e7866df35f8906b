"""Smoke test of the benchmark itself: ``python -m pytest bench -q``.

Not part of tier-1 (``testpaths`` is ``tests`` + ``benchmarks``): it runs
every workload twice in ``--quick`` mode, about two minutes in all.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from harness import applies  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAMES = {
    0: [m["name"] for m in SPEC["end_to_end"]],
    1: [m["name"] for m in SPEC["per_layer"]],
}
#: Per-layer metrics that count work rather than time it: they must
#: repeat exactly from run to run.
EXACT = re.compile(
    r"(_count|_cycles|_bytes)$|^serve\.cache\.hit_ratio$|^sim_gstg_"
    r"|^serve\.scheduler\.mean_batch$|^trace\.spans_per_frame$"
)


def quick_run(path: Path) -> "dict[tuple[str, int], dict]":
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--quick", "--out", str(path)],
        cwd=BENCH_DIR.parent, check=True, capture_output=True, timeout=300,
    )
    runs = json.loads(path.read_text())["runs"]
    keyed = {(run["workload"], run["trace"]): run for run in runs}
    assert len(keyed) == len(runs), "a workload/pass was emitted twice"
    return keyed


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    return quick_run(out / "a.json"), quick_run(out / "b.json")


def test_every_declared_metric_once_per_workload(two_runs):
    first, _ = two_runs
    assert set(first) == {(w, t) for w in WORKLOADS for t in (0, 1)}
    for (workload, trace), run in first.items():
        assert list(run["metrics"]) == NAMES[trace], (workload, trace)
        for name, metric in run["metrics"].items():
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
            assert math.isfinite(metric["value"]), (workload, name)
            if trace == 0:
                assert metric["value"] > 0, (workload, name)
            elif not applies(name, workload):
                assert metric["value"] == 0.0, (workload, name)


def test_nothing_failed(two_runs):
    for runs in two_runs:
        for key, run in runs.items():
            assert run["correct"] and run["failed"] == 0, key
            assert run["attempted"] >= 1 and run["checked"] >= 1, key


def test_counts_repeat_exactly(two_runs):
    first, second = two_runs
    for workload in WORKLOADS:
        a, b = first[(workload, 1)]["metrics"], second[(workload, 1)]["metrics"]
        for name in NAMES[1]:
            if EXACT.search(name):
                assert a[name]["value"] == b[name]["value"], (workload, name)


def test_cache_hit_ratio_is_all_or_nothing(two_runs):
    first, _ = two_runs
    ratio = lambda w: first[(w, 1)]["metrics"]["serve.cache.hit_ratio"]["value"]
    assert ratio("gateway_novel_views") == 0.0
    assert ratio("gateway_replay") == 1.0
    assert ratio("cluster_replay") == 1.0
