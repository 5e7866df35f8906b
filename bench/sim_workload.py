"""W6 ``sim_sweep``: the accelerator cycle model, timed on the host.

Set-up renders three scenes once each with the conventional renderer
(ELLIPSE and OBB) and GS-TG; a *sweep* then runs, per scene, the pipelined
baseline, the four pipelined GS-TG configurations
(``overlap_bitmask`` x ``ru_per_tile``), the three throughput models
(baseline, GS-TG, GSCore) and their energy reports — 24 simulations.
The engine does nothing after set-up: this is the only workload where
``repro.hardware`` does the work.

Two kinds of number come out, never to be mixed: *host* time (how long
the simulator takes) and *simulated* cycles (what the modelled hardware
would take).  The simulated numbers are on scaled synthetic scenes and
are **unvalidated** against the paper's silicon results; the fig14/15
trend harnesses in ``benchmarks/`` remain the fidelity check.
"""

from __future__ import annotations

import time

import numpy as np

from harness import (
    NULL_LOG,
    SpanLog,
    orbit_view,
    bench_scene,
    pct,
    peak_rss_mb,
    repeat_setup,
)
from repro.core.grouping import GroupGeometry
from repro.core.pipeline import GSTGRenderer
from repro.engine import RenderEngine
from repro.experiments.hardware_eval import BASELINE_ACTIVE_MODULES, geomean
from repro.hardware import (
    GSCORE_CONFIG,
    GSTG_CONFIG,
    energy_report,
    simulate_baseline,
    simulate_baseline_pipelined,
    simulate_gscore,
    simulate_gstg,
    simulate_gstg_pipelined,
)
from repro.raster.renderer import BaselineRenderer
from repro.tiles.boundary import BoundaryMethod

SCENES = (("playroom", 0.25), ("train", 0.25), ("residence", 0.0625))
#: (overlap_bitmask, ru_per_tile); the first is the accelerator as built.
GSTG_CONFIGS = ((True, False), (True, True), (False, False), (False, True))
TRACED_SWEEPS = {False: 500, True: 50}
SIMS_PER_SWEEP = len(SCENES) * (1 + len(GSTG_CONFIGS) + 3)


def _reference_view(scene, seed: int, index: int):
    """The scene's front view, nudged by the seed — a few degrees, a
    percent of height and radius: enough that the seed decides the input,
    too little to move tile counts, and with them host time and memory."""
    rng = np.random.default_rng([seed, index])
    return orbit_view(
        scene,
        float(rng.uniform(-0.05, 0.05)),
        0.18 + float(rng.uniform(-0.01, 0.01)),
        1.0 + float(rng.uniform(-0.02, 0.02)),
    )


def _setup(seed: int):
    """Render every scene's three inputs from one seeded view."""
    inputs = []
    for index, (name, scale) in enumerate(SCENES):
        scene = bench_scene(name, scale)
        camera = _reference_view(scene, seed, index)
        render = lambda renderer: RenderEngine(renderer).render(scene.cloud, camera)
        inputs.append(
            {
                "size": (camera.width, camera.height),
                "geometry": GroupGeometry(camera.width, camera.height, 16, 64),
                "baseline": render(BaselineRenderer(16, BoundaryMethod.ELLIPSE)),
                "obb": render(BaselineRenderer(16, BoundaryMethod.OBB)),
                "gstg": render(GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)),
            }
        )
    sweep(inputs, NULL_LOG, 0)  # warm-up
    return inputs


def sweep(inputs, log, op: int) -> dict:
    """One sweep; returns the pipelined reports the cycle metrics read."""
    reports = {"baseline": [], "gstg": [], "units": 0}
    with log.span("sweep", op):
        for scene in inputs:
            width, height = scene["size"]
            with log.span("pipeline_baseline", op):
                base = simulate_baseline_pipelined(scene["baseline"])
            with log.span("pipeline_gstg", op):
                ours = [
                    simulate_gstg_pipelined(
                        scene["gstg"], scene["geometry"],
                        overlap_bitmask=overlap, ru_per_tile=per_tile,
                    )
                    for overlap, per_tile in GSTG_CONFIGS
                ]
            with log.span("throughput_model", op):
                base_hw = simulate_baseline(scene["baseline"].stats, width, height)
                ours_hw = simulate_gstg(scene["gstg"].stats, width, height)
                gscore_hw = simulate_gscore(scene["obb"].stats, width, height)
            with log.span("energy", op):
                energy_report(base_hw, GSTG_CONFIG, BASELINE_ACTIVE_MODULES)
                energy_report(ours_hw, GSTG_CONFIG)
                energy_report(gscore_hw, GSCORE_CONFIG)
            reports["baseline"].append(base)
            reports["gstg"].append(ours[0])
            reports["units"] += base.num_units + sum(r.num_units for r in ours)
    return reports


def _check_against_reference(inputs) -> int:
    """The array-based simulator must give the retained per-unit loop's
    cycles exactly; returns the number of disagreements."""
    bad = 0
    for scene in inputs:
        bad += (
            simulate_baseline_pipelined(scene["baseline"]).cycles
            != simulate_baseline_pipelined(scene["baseline"], vectorized=False).cycles
        )
        for overlap, per_tile in GSTG_CONFIGS:
            fast, slow = (
                simulate_gstg_pipelined(
                    scene["gstg"], scene["geometry"], overlap_bitmask=overlap,
                    ru_per_tile=per_tile, vectorized=vectorized,
                ).cycles
                for vectorized in (True, False)
            )
            bad += fast != slow
    return bad


def run_end_to_end(workload: str, seed: int, seconds: float, quick: bool) -> dict:
    inputs, setups = repeat_setup(
        lambda: _setup(seed), lambda context: None, most=1 if quick else 3
    )
    first = sweep(inputs, NULL_LOG, 0)
    latencies: "list[float]" = []
    window_start = time.perf_counter()
    while True:
        start = time.perf_counter()
        last = sweep(inputs, NULL_LOG, 0)
        now = time.perf_counter()
        latencies.append(now - start)
        if now - window_start >= seconds:
            break
    window = now - window_start
    rss = peak_rss_mb()
    # Correctness: the last sweep's cycles equal the first's, and the
    # fast path equals the reference loop.
    failed = _check_against_reference(inputs) + sum(
        a.cycles != b.cycles
        for key in ("baseline", "gstg")
        for a, b in zip(first[key], last[key])
    )
    ms = [value * 1e3 for value in latencies]
    return {
        "attempted": len(latencies),
        "failed": failed,
        "checked": len(SCENES) * (1 + len(GSTG_CONFIGS)) + 2 * len(SCENES),
        "setup_s": setups,
        "samples": {"frame_ms": len(ms)},
        "metrics": {
            # W6 delivers simulation results, not frames: its unit of
            # work — what a caller waits for — is the sweep.
            "frames_per_s": len(latencies) / window,
            "frame_ms_p50": pct(ms, 50),
            "frame_ms_p90": pct(ms, 90),
            "ttff_ms_p50": pct(ms, 50),
            "ttff_ms_p95": pct(ms, 95),
            "peak_rss_mb": rss,
        },
    }


def run_traced(workload: str, seed: int, seconds: float, quick: bool) -> dict:
    inputs = _setup(seed)
    sweeps = TRACED_SWEEPS[quick]
    # Interleaved, so both sides see the same machine state.
    bare: "list[float]" = []
    log = SpanLog()
    for op in range(sweeps):
        start = time.perf_counter()
        sweep(inputs, NULL_LOG, op)
        bare.append((time.perf_counter() - start) * 1e3)
        reports = sweep(inputs, log, op)
    failed = _check_against_reference(inputs)

    sweep_ms = log.durations_ms("sweep")
    per_sweep = lambda name: sum(log.durations_ms(name)) / sweeps
    busy = lambda key, stage: sum(r.stage_busy_cycles[stage] for r in reports[key])
    metrics = {
        "hardware.pipeline_gstg_ms": per_sweep("pipeline_gstg"),
        "hardware.pipeline_baseline_ms": per_sweep("pipeline_baseline"),
        "hardware.throughput_model_ms": per_sweep("throughput_model"),
        "hardware.energy_ms": per_sweep("energy"),
        "hardware.units_count": float(reports["units"]),
        "hardware.units_per_s": reports["units"] / (pct(sweep_ms, 50) / 1e3),
        "sim_sweep_ms_p50": pct(sweep_ms, 50),
        "sim_sweep_ms_p90": pct(sweep_ms, 90),
        "sim_gstg_cycles": sum(r.cycles for r in reports["gstg"]),
        "sim_gstg_speedup_geomean": geomean(
            [
                base.cycles / ours.cycles
                for base, ours in zip(reports["baseline"], reports["gstg"])
            ]
        ),
        "trace.overhead_ratio": pct(sweep_ms, 50) / pct(bare, 50),
        "trace.spans_per_frame": len(log.rows) / (sweeps * SIMS_PER_SWEEP),
    }
    for key in ("gstg", "baseline"):
        for stage in ("sort", "rm", "fetch"):
            metrics[f"hardware.{key}_{stage}_cycles"] = busy(key, stage)
    return {
        "attempted": sweeps,
        "failed": failed,
        "checked": len(SCENES) * (1 + len(GSTG_CONFIGS)),
        "metrics": metrics,
        "span_log": log,
    }
