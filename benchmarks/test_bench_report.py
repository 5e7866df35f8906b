"""Acceptance floors for the PR's perf targets.

``benchmarks/test_engine_throughput.py``-style assertions over the
:mod:`benchmarks.bench_report` measurements: the vectorized hierarchical
render, the array-based pipeline-simulation sweep and the async serving
layer must each be at least 2x faster than their retained seed / naive
implementations.  A loaded shared CI runner can soften the floors via
the environment.

Each measurement is split in two.  The plain test runs it, prints it
and asserts what does not depend on the clock (the measurement's own
internal checks — bit-identity, fewer renders than frames, the shed
level reached — raise from inside it).  The verdict on the *ratio* is a
separate ``timing``-marked test over the same run: tier-1 deselects
those (``addopts = -m "not timing"``), ``pytest -m timing`` runs them.
"""

from __future__ import annotations

import os

import pytest

from benchmarks.bench_report import (
    measure_admission_isolation,
    measure_cluster_throughput,
    measure_gateway_throughput,
    measure_hierarchical_render,
    measure_pipeline_sim_sweep,
    measure_serve_throughput,
    measure_trace_overhead,
)
from repro.scenes.synthetic import load_scene
from repro.scenes.trajectory import orbit_cameras

#: Required speedups over the seed implementations (acceptance: 2.0).
HIERARCHICAL_MIN_SPEEDUP = float(os.environ.get("HIERARCHICAL_MIN_SPEEDUP", "2.0"))
PIPELINE_SIM_MIN_SPEEDUP = float(os.environ.get("PIPELINE_SIM_MIN_SPEEDUP", "2.0"))
SERVE_MIN_SPEEDUP = float(os.environ.get("SERVE_MIN_SPEEDUP", "2.0"))
GATEWAY_MIN_SPEEDUP = float(os.environ.get("GATEWAY_MIN_SPEEDUP", "2.0"))
#: The cluster gate is 1.5 (not 2.0): it rides on cache affinity alone,
#: which must hold even on single-core runners where the three backend
#: processes cannot render in parallel.
CLUSTER_MIN_SPEEDUP = float(os.environ.get("CLUSTER_MIN_SPEEDUP", "1.5"))
#: Admission isolation: interactive p95 under a shed bulk storm may be
#: at most this multiple of its unloaded p95 (acceptance: 1.3; CI
#: softens via the environment on loaded shared runners).
ADMISSION_MAX_P95_RATIO = float(os.environ.get("ADMISSION_MAX_P95_RATIO", "1.3"))
#: Tracing-enabled serving may cost at most this multiple of untraced
#: (acceptance: 1.05 — within 5%; CI softens on loaded shared runners).
TRACE_MAX_OVERHEAD = float(os.environ.get("TRACE_MAX_OVERHEAD", "1.05"))

#: Concurrent clients / orbit views for the serving measurement.
SERVE_CLIENTS = 4
SERVE_VIEWS = 6

#: Resolution scales of the measurement workloads (the simulation sweep
#: needs enough work units per frame for per-unit costs to show).
RENDER_SCALE = 0.125
SIM_SCALE = 0.25
SIM_ROUNDS = 50


@pytest.fixture(scope="module")
def render_scene():
    return load_scene("playroom", resolution_scale=RENDER_SCALE, seed=0)


@pytest.fixture(scope="module")
def measure(render_scene):
    """``measure(name)``: the named measurement, run once per session —
    shared by the test that reports it and the gate that judges it."""
    cameras = orbit_cameras(render_scene, SERVE_VIEWS)
    recipes = {
        "hierarchical_render": lambda: measure_hierarchical_render(render_scene),
        "pipeline_sim_sweep": lambda: measure_pipeline_sim_sweep(
            load_scene("playroom", resolution_scale=SIM_SCALE, seed=0), SIM_ROUNDS
        ),
        "serve_throughput": lambda: measure_serve_throughput(
            render_scene, cameras, SERVE_CLIENTS
        ),
        "gateway_throughput": lambda: measure_gateway_throughput(
            render_scene, cameras, SERVE_CLIENTS
        ),
        "cluster_throughput": lambda: measure_cluster_throughput(
            "playroom", RENDER_SCALE, SERVE_VIEWS
        ),
        "trace_overhead": lambda: measure_trace_overhead(
            render_scene, cameras, SERVE_CLIENTS
        ),
        "admission_isolation": lambda: measure_admission_isolation(
            "playroom", RENDER_SCALE
        ),
    }
    done = {}

    def once(name):
        if name not in done:
            done[name] = recipes[name]()
        return done[name]

    return once


def _report_speedup(emit, measure, name, title, slow, fast):
    """Run (or reuse) a ``(seed_s, fast_s)`` measurement and print it."""
    seed_s, fast_s = measure(name)
    emit(
        title,
        f"  {slow}: {seed_s:.3f}s   {fast}: {fast_s:.3f}s   "
        f"speedup: {seed_s / fast_s:.2f}x",
    )
    assert seed_s > 0 and fast_s > 0


def test_hierarchical_render_speedup(emit, measure, render_scene):
    _report_speedup(
        emit, measure, "hierarchical_render",
        "hierarchical render — "
        f"{render_scene.camera.width}x{render_scene.camera.height}",
        "reference", "engine",
    )


def test_pipeline_sim_sweep_speedup(emit, measure):
    _report_speedup(
        emit, measure, "pipeline_sim_sweep",
        f"pipeline-sim sweep — scale {SIM_SCALE}, "
        f"{SIM_ROUNDS} rounds x 5 configurations",
        "per-unit loops", "array path",
    )


def test_serve_throughput_speedup(emit, measure, render_scene):
    """The serving layer against naive per-request rendering for
    overlapping concurrent trajectories (floor: >= 2x)."""
    _report_speedup(
        emit, measure, "serve_throughput",
        f"serve throughput — {SERVE_CLIENTS} clients x {SERVE_VIEWS} "
        f"overlapping views, "
        f"{render_scene.camera.width}x{render_scene.camera.height}",
        "naive per-request", "service",
    )


def test_gateway_throughput_speedup(emit, measure, render_scene):
    """The same with every frame crossing a real localhost TCP socket
    (floor: >= 2x)."""
    _report_speedup(
        emit, measure, "gateway_throughput",
        f"gateway throughput — {SERVE_CLIENTS} TCP clients x {SERVE_VIEWS} "
        f"overlapping views, "
        f"{render_scene.camera.width}x{render_scene.camera.height}",
        "naive per-request", "gateway",
    )


def test_cluster_throughput_speedup(emit, measure):
    """1 router + 3 backend subprocesses against a single gateway on a
    steady-state multi-scene workload at fixed per-node cache capacity
    (floor: >= 1.5x; see ``measure_cluster_throughput`` for exactly
    what is held equal)."""
    _report_speedup(
        emit, measure, "cluster_throughput",
        "cluster throughput — 3 scenes x 2 clients, 3 backends + router "
        "vs 1 gateway (steady state, per-node cache capacity fixed)",
        "single gateway", "cluster",
    )


@pytest.mark.timing
@pytest.mark.parametrize(
    "name, floor",
    [
        ("hierarchical_render", HIERARCHICAL_MIN_SPEEDUP),
        ("pipeline_sim_sweep", PIPELINE_SIM_MIN_SPEEDUP),
        ("serve_throughput", SERVE_MIN_SPEEDUP),
        ("gateway_throughput", GATEWAY_MIN_SPEEDUP),
        ("cluster_throughput", CLUSTER_MIN_SPEEDUP),
    ],
)
def test_speedup_floor(measure, name, floor):
    seed_s, fast_s = measure(name)
    speedup = seed_s / fast_s
    assert speedup >= floor, (
        f"{name} speedup {speedup:.2f}x below the {floor}x floor"
    )


def test_admission_isolation(emit, measure):
    """With per-class SLOs set, an unbounded (10x-and-more) bulk storm
    is shed outright by the slow timescale, and every frame served
    around it is bit-identical."""
    metrics = measure("admission_isolation")
    emit(
        "admission isolation — 12 bulk workers vs 1 interactive probe, "
        "class-based shedding",
        f"  unloaded p95: {metrics['unloaded_p95_s'] * 1e3:.1f}ms   "
        f"class-blind under storm: "
        f"{metrics['baseline_loaded_p95_s'] * 1e3:.1f}ms   "
        f"shed (level {metrics['shed_level']}): "
        f"{metrics['isolated_p95_s'] * 1e3:.1f}ms   "
        f"ratio: {metrics['isolation_ratio']:.2f}x   "
        f"bulk offered/rejected: {metrics['bulk_streams_offered']}/"
        f"{metrics['bulk_rejected']}",
    )
    assert metrics["bit_identical"]
    assert metrics["shed_level"] == 2, (
        "the controller never escalated to shedding bulk "
        f"(level {metrics['shed_level']})"
    )
    assert metrics["bulk_rejected"] > 0  # the storm really was shed


@pytest.mark.timing
def test_admission_isolation_ratio(measure):
    """The admission-control acceptance gate: interactive p95 under the
    shed storm stays within ``ADMISSION_MAX_P95_RATIO`` of its unloaded
    value."""
    ratio = measure("admission_isolation")["isolation_ratio"]
    assert ratio <= ADMISSION_MAX_P95_RATIO, (
        f"interactive p95 degraded {ratio:.2f}x under the bulk storm "
        f"(ceiling: {ADMISSION_MAX_P95_RATIO}x)"
    )


@pytest.mark.timing
def test_trace_overhead(emit, measure):
    """The observability acceptance gate: serving the same workload
    with a live span-recording tracer costs at most
    ``TRACE_MAX_OVERHEAD``x the untraced wall time (acceptance: 1.05,
    i.e. within 5%; CI softens via the environment on loaded shared
    runners).  Correctness — identical served bytes either way — is
    asserted separately in ``tests/trace/``; this pins the *cost*."""
    untraced_s, traced_s = measure("trace_overhead")
    ratio = traced_s / untraced_s
    emit(
        f"trace overhead — {SERVE_CLIENTS} clients x {SERVE_VIEWS} "
        "overlapping views, tracer on vs off",
        f"  untraced: {untraced_s:.3f}s   traced: {traced_s:.3f}s   "
        f"overhead: {ratio:.3f}x",
    )
    assert ratio <= TRACE_MAX_OVERHEAD, (
        f"tracing overhead {ratio:.3f}x above the "
        f"{TRACE_MAX_OVERHEAD}x ceiling"
    )
