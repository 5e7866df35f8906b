"""W1 ``engine_gstg_orbit`` and W2 ``engine_baseline_orbit``.

A library caller renders never-repeated views of two scenes (playroom
and train at scale 0.125, interleaved 2:1) through ``RenderEngine``.
W1 uses ``GSTGRenderer(16, 64, ELLIPSE)``, W2 the conventional
``BaselineRenderer(16, ELLIPSE)`` on the *same* views, so the two share
``identify_tiles_fast`` and ``blend_tiles_batched`` but use them on
different shapes, and their per-layer rows give the measured sort/raster
split the paper argues from.

The traced pass replays each frame stage by stage from outside — the
same public kernels the engine calls, in the same order — and fails the
frame unless the replay reproduces the engine's image and counters.
"""

from __future__ import annotations

import time

import numpy as np

from harness import (
    NULL_LOG,
    SpanLog,
    ViewStream,
    bench_scene,
    mean,
    pct,
    peak_rss_mb,
    repeat_setup,
)
from repro.core.bitmask import generate_bitmasks_fast
from repro.core.grouping import GroupGeometry
from repro.core.hierarchical import mask_bits_set
from repro.core.pipeline import GSTGRenderer
from repro.engine import RenderEngine
from repro.engine.batch import (
    blend_tiles_batched,
    segmented_depth_sort,
    sort_groups_batched,
)
from repro.experiments.cache import ProjectionCache
from repro.gaussians.projection import project
from repro.raster.renderer import BaselineRenderer
from repro.raster.stats import RenderStats
from repro.tiles.boundary import BoundaryMethod
from repro.tiles.fast import identify_tiles_fast
from repro.tiles.grid import TileGrid

SCENES = (("playroom", 0.125), ("train", 0.125))
#: playroom, playroom, train: the 2:1 interleave, timed in whole rounds
#: so every window holds the same scene mix.
ROUND = (0, 0, 1)
WARM_STREAM, TIMED_STREAM = 100, 0
TRACED_ROUNDS = {False: 8, True: 2}  # quick -> rounds in the traced pass
STAGES = ("project", "identify", "bitmask", "sort", "filter", "blend")


def make_renderer(workload: str):
    if workload == "engine_gstg_orbit":
        return GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)
    return BaselineRenderer(16, BoundaryMethod.ELLIPSE)


def _setup(workload: str, seed: int):
    scenes = [bench_scene(name, scale) for name, scale in SCENES]
    engine = RenderEngine(make_renderer(workload), cache=ProjectionCache())
    warm = [ViewStream(s, seed, WARM_STREAM + i) for i, s in enumerate(scenes)]
    for index in ROUND:
        engine.render(scenes[index].cloud, warm[index].next())
    streams = [ViewStream(s, seed, TIMED_STREAM + i) for i, s in enumerate(scenes)]
    return scenes, engine, streams


def replay_frame(renderer, cloud, camera, log, op: int):
    """Render one frame by calling the engine's stages from outside.

    Mirrors ``RenderEngine.render``'s vectorized path for the two
    built-in renderers; returns ``(image, stats)`` for the equality check.
    """
    with log.span("replay", op):
        with log.span("project", op):
            proj = project(cloud, camera)
        if isinstance(renderer, GSTGRenderer):
            geometry = GroupGeometry(
                width=camera.width,
                height=camera.height,
                tile_size=renderer.tile_size,
                group_size=renderer.group_size,
            )
            with log.span("identify", op):
                assignment = identify_tiles_fast(
                    proj, geometry.group_grid, renderer.group_method
                )
            stats = RenderStats.for_assignment(
                len(cloud), assignment, renderer.group_method.relative_test_cost
            )
            with log.span("bitmask", op):
                table = generate_bitmasks_fast(
                    proj, geometry, assignment, renderer.bitmask_method, stats
                )
            with log.span("sort", op):
                group_sort = sort_groups_batched(
                    proj, table.gaussian_ids, table.group_ids, table.masks,
                    stats.sort,
                )
            tile_order: "list[int]" = []
            tile_lists: "list[np.ndarray]" = []
            with log.span("filter", op):
                for pos, group_id in enumerate(group_sort.group_ids):
                    sorted_gauss = group_sort.sorted_gaussians[pos]
                    sorted_masks = group_sort.sorted_masks[pos]
                    tiles = geometry.tiles_of_group(int(group_id))
                    slots = geometry.slots_of_group(int(group_id))
                    valid = mask_bits_set(sorted_masks, slots[None, :])
                    stats.num_filter_checks += (
                        sorted_masks.shape[0] * tiles.shape[0]
                    )
                    for ti in range(tiles.shape[0]):
                        tile_gaussians = sorted_gauss[valid[:, ti]]
                        if tile_gaussians.size:
                            tile_order.append(int(tiles[ti]))
                            tile_lists.append(tile_gaussians)
            grid = geometry.tile_grid
            tile_ids = np.asarray(tile_order, dtype=np.int64)
        else:
            grid = TileGrid(camera.width, camera.height, renderer.tile_size)
            with log.span("identify", op):
                assignment = identify_tiles_fast(proj, grid, renderer.method)
            stats = RenderStats.for_assignment(
                len(cloud), assignment, renderer.method.relative_test_cost
            )
            with log.span("sort", op):
                tile_ids, tile_lists = segmented_depth_sort(
                    proj, assignment, stats.sort
                )
        image = np.zeros((camera.height, camera.width, 3), dtype=np.float64)
        with log.span("blend", op):
            blend_tiles_batched(proj, grid, tile_ids, tile_lists, image, stats)
    return image, stats


def _replay_matches(renderer, cloud, camera, image, stats, log, op) -> bool:
    replay_image, replay_stats = replay_frame(renderer, cloud, camera, log, op)
    return np.array_equal(replay_image, image) and replay_stats == stats


def run_end_to_end(workload: str, seed: int, seconds: float, quick: bool) -> dict:
    (scenes, engine, streams), setups = repeat_setup(
        lambda: _setup(workload, seed), lambda context: None,
        most=1 if quick else 3,
    )
    latencies: "list[float]" = []
    kept: "list[tuple]" = []
    window_start = time.perf_counter()
    while True:
        for index in ROUND:
            camera = streams[index].next()
            start = time.perf_counter()
            result = engine.render(scenes[index].cloud, camera)
            latencies.append(time.perf_counter() - start)
            if len(latencies) % 10 == 1:
                kept.append((index, camera, result.image, result.stats))
        window = time.perf_counter() - window_start
        if window >= seconds:
            break
    rss = peak_rss_mb()

    # Correctness, outside the window: every 10th timed frame must be
    # reproduced — image and counters — by the outside-in stage replay.
    failed = sum(
        not _replay_matches(
            engine.renderer, scenes[index].cloud, camera, image, stats, NULL_LOG, 0
        )
        for index, camera, image, stats in kept
    )
    ms = [value * 1e3 for value in latencies]
    return {
        "attempted": len(latencies),
        "failed": failed,
        "checked": len(kept),
        "setup_s": setups,
        "samples": {"frame_ms": len(ms)},
        "metrics": {
            "frames_per_s": len(latencies) / window,
            "frame_ms_p50": pct(ms, 50),
            "frame_ms_p90": pct(ms, 90),
            # One call returns one frame: the first frame is the frame.
            "ttff_ms_p50": pct(ms, 50),
            "ttff_ms_p95": pct(ms, 95),
            "peak_rss_mb": rss,
        },
    }


def run_traced(workload: str, seed: int, seconds: float, quick: bool) -> dict:
    scenes, _, streams = _setup(workload, seed)
    renderer = make_renderer(workload)
    is_gstg = isinstance(renderer, GSTGRenderer)
    # A single-slot cache per engine: each render of a view projects it
    # again, as a caller's first render of a new view does.
    bare = RenderEngine(renderer, cache=ProjectionCache(max_entries=1))
    spanned = RenderEngine(renderer, cache=ProjectionCache(max_entries=1))
    log = SpanLog()
    bare_ms: "list[float]" = []
    counts: "dict[str, list[float]]" = {}
    pixels: "list[int]" = []
    failed = 0
    op = 0
    for _ in range(TRACED_ROUNDS[quick]):
        for index in ROUND:
            cloud, camera = scenes[index].cloud, streams[index].next()
            start = time.perf_counter()
            bare.render(cloud, camera)
            bare_ms.append((time.perf_counter() - start) * 1e3)
            with log.span("engine.render", op):
                result = spanned.render(cloud, camera)
            failed += not _replay_matches(
                renderer, cloud, camera, result.image, result.stats, log, op
            )
            stats = result.stats
            pixels.append(camera.width * camera.height)
            frame_counts = [
                ("gaussians.visible_count", stats.preprocess.num_visible_gaussians),
                ("tiles.pairs_count", stats.preprocess.num_pairs),
                ("tiles.boundary_tests_count", stats.preprocess.num_boundary_tests),
                ("engine.sort_keys_count", stats.sort.num_keys),
                ("engine.sort_comparisons_count", stats.sort.num_comparisons),
                ("raster.alpha_count", stats.raster.num_alpha_computations),
                ("raster.blend_ops_count", stats.raster.num_blend_operations),
                ("raster.early_exit_pixels_count", stats.raster.num_early_exit_pixels),
            ]
            if is_gstg:
                frame_counts += [
                    ("core.bitmask_tests_count", stats.bitmask_tests),
                    ("core.filter_checks_count", stats.num_filter_checks),
                ]
            for name, value in frame_counts:
                counts.setdefault(name, []).append(value)
            op += 1

    frames = op
    # The baseline has no bitmask or filter spans: their mean reads 0.
    stage = {name: mean(log.durations_ms(name)) for name in STAGES}
    render_ms = mean(log.durations_ms("engine.render"))
    staged = sum(stage.values())
    mean_pixels = mean(pixels)
    metrics = {name: mean(values) for name, values in counts.items()}
    metrics.update(
        {
            "gaussians.project_ms": stage["project"],
            "tiles.identify_ms": stage["identify"],
            "engine.sort_ms": stage["sort"],
            "engine.blend_ms": stage["blend"],
            "engine.blend_us_per_pixel": stage["blend"] * 1e3 / mean_pixels,
            "engine.render_ms": render_ms,
            "engine.us_per_pixel": render_ms * 1e3 / mean_pixels,
            "engine.self_ms": render_ms - staged,
            "engine.stage_coverage": staged / render_ms,
            "trace.overhead_ratio": render_ms / mean(bare_ms),
            "trace.spans_per_frame": len(log.rows) / frames,
        }
    )
    if is_gstg:
        metrics["core.bitmask_ms"] = stage["bitmask"]
        metrics["core.filter_ms"] = stage["filter"]
    return {
        "attempted": frames,
        "failed": failed,
        "checked": frames,
        "metrics": metrics,
        "span_log": log,
    }
