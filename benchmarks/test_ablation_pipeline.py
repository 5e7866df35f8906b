"""Ablations on the accelerator's design choices (the Fig. 10 model in
``repro.hardware``; ``docs/architecture.md``, *Layer 3 — hardware sim*).

Three ablations the paper's architecture argues for:

1. **BGM || GSM overlap** (Section V-A): the dedicated hardware runs
   bitmask generation concurrently with group sorting; a SIMT GPU
   cannot.  Measured with the pipelined simulator.
2. **DRAM bandwidth sensitivity**: the baseline is traffic-bound, GS-TG
   compute-bound, so GS-TG's advantage grows as bandwidth shrinks.
3. **Shared-memory feature reuse**: GS-TG's per-group feature fetch vs
   the baseline's per-tile re-fetch is the dominant traffic term.
"""

from dataclasses import replace

from benchmarks.conftest import run_once
from repro.core.grouping import GroupGeometry
from repro.hardware.config import GSTG_CONFIG
from repro.hardware.pipeline_sim import (
    simulate_baseline_pipelined,
    simulate_gstg_pipelined,
)
from repro.hardware.simulator import simulate_baseline, simulate_gstg
from repro.tiles.boundary import BoundaryMethod

#: Large scenes only: the pipelined model needs enough groups per core
#: (see repro.hardware.pipeline_sim granularity caveat).
ABLATION_SCENES = ("train", "rubble", "residence")


def _pipeline_rows(cache):
    rows = []
    for name in ABLATION_SCENES:
        scene = cache.scene(name)
        geometry = GroupGeometry(scene.camera.width, scene.camera.height, 16, 64)
        base = cache.baseline_render(name, 16, BoundaryMethod.ELLIPSE)
        ours = cache.gstg_render(
            name, 16, 64, BoundaryMethod.ELLIPSE, BoundaryMethod.ELLIPSE
        )
        rows.append(
            (
                name,
                simulate_baseline_pipelined(base),
                simulate_gstg_pipelined(ours, geometry, overlap_bitmask=True),
                simulate_gstg_pipelined(ours, geometry, overlap_bitmask=False),
            )
        )
    return rows


def test_ablation_bgm_gsm_overlap(benchmark, cache, emit):
    rows = run_once(benchmark, lambda: _pipeline_rows(cache))

    lines = ["Ablation: pipelined simulation, BGM||GSM overlap on vs off",
             f"{'scene':<12}{'baseline':>10}{'gstg':>10}{'gstg-seq':>10}{'speedup':>9}{'overlap+':>9}"]
    for name, base, overlapped, sequential in rows:
        lines.append(
            f"{name:<12}{base.cycles:>10,.0f}{overlapped.cycles:>10,.0f}"
            f"{sequential.cycles:>10,.0f}{base.cycles / overlapped.cycles:>9.2f}"
            f"{sequential.cycles / overlapped.cycles:>9.3f}"
        )
    emit(*lines)

    for name, base, overlapped, sequential in rows:
        # Overlap never loses, and GS-TG beats the baseline on the
        # large scenes even under the conservative pipelined model.
        assert overlapped.cycles <= sequential.cycles * 1.0001
        assert overlapped.cycles < base.cycles * 1.02


def test_ablation_dram_bandwidth(benchmark, cache, emit):
    """GS-TG's speedup grows as DRAM bandwidth shrinks (the baseline is
    traffic-bound; GS-TG is compute-bound)."""
    scene = cache.scene("train")
    w, h = scene.camera.width, scene.camera.height
    base = cache.baseline_render("train", 16, BoundaryMethod.ELLIPSE)
    ours = cache.gstg_render(
        "train", 16, 64, BoundaryMethod.ELLIPSE, BoundaryMethod.ELLIPSE
    )

    def sweep():
        results = []
        for factor in (0.5, 1.0, 2.0):
            config = replace(
                GSTG_CONFIG,
                dram_bandwidth_bytes_per_s=factor * 51.2e9,
            )
            b = simulate_baseline(base.stats, w, h, config)
            g = simulate_gstg(ours.stats, w, h, config)
            results.append((factor, b.cycles / g.cycles))
        return results

    results = run_once(benchmark, sweep)
    lines = ["Ablation: DRAM bandwidth sweep (train)",
             f"{'bandwidth':>12}{'gstg speedup':>14}"]
    for factor, speedup in results:
        lines.append(f"{51.2 * factor:>9.1f} GB/s{speedup:>14.2f}")
    emit(*lines)

    speedups = [s for _, s in results]
    assert speedups[0] >= speedups[1] >= speedups[2]
    assert speedups[0] > 1.5  # at half bandwidth the traffic gap widens


def test_ablation_feature_reuse_traffic(benchmark, cache, emit):
    """Per-group vs per-tile feature fetch is the dominant traffic
    difference (the Fig. 9/10 shared memory)."""
    scene = cache.scene("train")
    w, h = scene.camera.width, scene.camera.height
    base = cache.baseline_render("train", 16, BoundaryMethod.ELLIPSE)
    ours = cache.gstg_render(
        "train", 16, 64, BoundaryMethod.ELLIPSE, BoundaryMethod.ELLIPSE
    )

    def traffic():
        b = simulate_baseline(base.stats, w, h)
        g = simulate_gstg(ours.stats, w, h)
        return b.traffic, g.traffic

    base_traffic, gstg_traffic = run_once(benchmark, traffic)
    ratio = base_traffic.feature_fetch_bytes / gstg_traffic.feature_fetch_bytes
    emit(
        "Ablation: feature-fetch traffic (train)",
        f"baseline per-tile fetch: {base_traffic.feature_fetch_bytes / 1e6:8.2f} MB",
        f"gstg per-group fetch:    {gstg_traffic.feature_fetch_bytes / 1e6:8.2f} MB",
        f"reuse factor: {ratio:.2f}x (= avg tiles per Gaussian per group)",
        f"total traffic ratio: "
        f"{base_traffic.total_bytes / gstg_traffic.total_bytes:.2f}x",
    )
    assert ratio > 2.0
    assert base_traffic.total_bytes > gstg_traffic.total_bytes
