"""Command-line interface: render, profile and simulate from the shell.

Subcommands::

    python -m repro.cli render     --scene train --out frame.ppm
    python -m repro.cli trajectory --scene train --views 8 --workers 4
    python -m repro.cli serve      --scene train --views 8 --clients 4
    python -m repro.cli cluster    --backends 3 --replicate 2 --clients 6
    python -m repro.cli profile    --scene truck --method ellipse
    python -m repro.cli simulate   --scene residence
    python -m repro.cli report     --out EXPERIMENTS.md

All commands are deterministic given ``--seed``; ``render`` and
``trajectory`` go through the vectorized :class:`repro.engine.RenderEngine`
(bit-identical to the sequential renderers — including the two-level
``--pipeline hierarchical``); ``trajectory --workers 2`` or more renders
on the engine's process-wide render pool.  ``serve`` starts the asyncio
streaming render service (:mod:`repro.serve`) and drives it with concurrent
trajectory-streaming clients — the built-in load generator — reporting
throughput and the micro-batching/caching counters; ``--verify`` checks
every streamed frame bit-for-bit against direct engine renders.  With
``--tcp`` the same load runs through the network gateway over a real
localhost socket (``--http`` adds the curl-able HTTP adapter,
``--listen`` serves until interrupted instead of generating load,
``--adaptive`` retunes the batching knobs against ``--target-ms``, and
``--batch-workers 1`` renders cache misses on the flush thread instead of
the process-wide render pool).
``cluster`` spawns a local fleet of gateway backend subprocesses behind
a :class:`repro.cluster.ShardRouter` (scene-sharded rendezvous routing,
replication, health-driven failover) and drives multi-scene client load
through the router — ``--kill-one`` SIGKILLs a scene's owner mid-stream
to demonstrate failover, ``--verify`` bit-checks every streamed frame,
``--listen`` serves until interrupted.  ``--auth-token`` (or
``REPRO_AUTH_TOKEN``) keys the wire protocol on both subcommands.  See
``docs/serving.md`` and ``docs/cluster.md``.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time

import numpy as np

from repro.analysis.stats import tile_statistics
from repro.core.hierarchical import HierarchicalGSTGRenderer
from repro.core.pipeline import GSTGRenderer
from repro.engine import RenderEngine
from repro.experiments.cache import RenderCache
from repro.hardware import (
    GSCORE_CONFIG,
    GSTG_CONFIG,
    energy_report,
    simulate_baseline,
    simulate_gscore,
    simulate_gstg,
)
from repro.io.ppm import write_ppm
from repro.raster.renderer import BaselineRenderer
from repro.scenes.datasets import SCENES
from repro.scenes.synthetic import load_scene
from repro.tiles.boundary import BoundaryMethod


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scene", default="playroom", choices=sorted(SCENES),
        help="Table II scene name",
    )
    parser.add_argument(
        "--scale", type=float, default=0.1,
        help="resolution scale applied to the paper's resolution",
    )
    parser.add_argument("--seed", type=int, default=0, help="scene RNG seed")


def _add_renderer_options(parser: argparse.ArgumentParser) -> None:
    """Renderer-selection options shared by ``render`` and ``trajectory``."""
    parser.add_argument(
        "--pipeline",
        choices=("baseline", "gstg", "hierarchical"),
        default="gstg",
    )
    parser.add_argument(
        "--method", choices=[m.value for m in BoundaryMethod], default="ellipse"
    )
    parser.add_argument("--tile-size", type=int, default=16)
    parser.add_argument("--group-size", type=int, default=64)
    parser.add_argument(
        "--super-size", type=int, default=128,
        help="supergroup edge for --pipeline hierarchical",
    )
    parser.add_argument(
        "--no-engine", action="store_true",
        help="use the sequential per-tile path instead of the batch engine",
    )


def _add_admission_options(parser: argparse.ArgumentParser) -> None:
    """Class-based admission knobs shared by ``serve`` and ``cluster``."""
    parser.add_argument(
        "--class", dest="request_class", default=None,
        choices=("interactive", "bulk", "prefetch"),
        help="admission class for the generated client load (omitting "
        "the flag sends no class field, which servers read as bulk)",
    )
    parser.add_argument(
        "--interactive-slo-ms", type=float, default=None,
        help="p95 SLO target for the interactive class in milliseconds; "
        "sustained violation sheds bulk and prefetch traffic (429 + "
        "retry_after_ms) until latency recovers",
    )
    parser.add_argument(
        "--bulk-slo-ms", type=float, default=None,
        help="p95 SLO target for the bulk class in milliseconds; "
        "sustained violation sheds prefetch traffic",
    )
    parser.add_argument(
        "--admission-window", type=int, default=64,
        help="latency observations per admission adaptation step "
        "(the slow timescale above the adaptive batch policy)",
    )


def _add_fleet_options(
    parser: argparse.ArgumentParser, *, backends: int, views: int, clients: int
) -> None:
    """The fleet and its client load (``cluster``, ``trace record``)."""
    parser.add_argument(
        "--scenes", default="",
        help="comma-separated scene names for the multi-scene workload "
        "(default: just --scene)",
    )
    parser.add_argument("--views", type=int, default=views, help="orbit views")
    parser.add_argument(
        "--backends", type=int, default=backends,
        help="gateway backend subprocesses to spawn",
    )
    parser.add_argument(
        "--replicate", type=int, default=2,
        help="replica-set size per scene (clamped to --backends)",
    )
    parser.add_argument(
        "--clients", type=int, default=clients,
        help="concurrent streaming clients, round-robined over the scenes",
    )
    parser.add_argument(
        "--passes", type=int, default=1,
        help="times each client streams its orbit (repeat passes hit the "
        "owner backend's render cache)",
    )
    parser.add_argument("--max-pending", type=int, default=64)
    _add_admission_options(parser)
    parser.add_argument(
        "--kill-one", action="store_true",
        help="SIGKILL the first scene's owner backend mid-stream; the "
        "run must complete via failover (needs --replicate >= 2)",
    )
    parser.add_argument(
        "--auth-token", default=None,
        help="shared-secret token for clients, router and backends "
        "(default: the REPRO_AUTH_TOKEN environment variable)",
    )


def _check_fleet_options(args: argparse.Namespace) -> None:
    """Refuse a fleet run that cannot start, before any backend spawns."""
    for flag in ("backends", "replicate", "clients", "passes"):
        if getattr(args, flag) < 1:
            raise SystemExit(f"--{flag} must be positive")
    if args.kill_one and (args.backends < 2 or args.replicate < 2):
        raise SystemExit("--kill-one needs >= 2 backends and --replicate >= 2")


def _make_renderer(args: argparse.Namespace):
    method = BoundaryMethod(args.method)
    if args.pipeline == "gstg":
        return GSTGRenderer(args.tile_size, args.group_size, method)
    if args.pipeline == "hierarchical":
        return HierarchicalGSTGRenderer(
            args.tile_size, args.group_size, args.super_size, method
        )
    return BaselineRenderer(args.tile_size, method)


def _cmd_render(args: argparse.Namespace) -> int:
    scene = load_scene(args.scene, resolution_scale=args.scale, seed=args.seed)
    method = BoundaryMethod(args.method)
    engine = RenderEngine(_make_renderer(args), vectorized=not args.no_engine)
    result = engine.render(scene.cloud, scene.camera)
    peak = max(result.image.max(), 1e-9)
    write_ppm(args.out, np.clip(result.image / peak, 0.0, 1.0))
    print(
        f"rendered {args.scene} ({scene.camera.width}x{scene.camera.height}) "
        f"with {args.pipeline}/{method.value} -> {args.out}"
    )
    print(
        f"pairs={result.stats.preprocess.num_pairs} "
        f"sort_keys={result.stats.sort.num_keys} "
        f"alpha_ops={result.stats.raster.num_alpha_computations}"
    )
    return 0


def _cmd_trajectory(args: argparse.Namespace) -> int:
    from repro.scenes.trajectory import orbit_cameras

    scene = load_scene(args.scene, resolution_scale=args.scale, seed=args.seed)
    engine = RenderEngine(_make_renderer(args), vectorized=not args.no_engine)
    cameras = orbit_cameras(scene, args.views)

    start = time.perf_counter()
    trajectory = engine.render_trajectory(
        scene.cloud, cameras, workers=args.workers
    )
    elapsed = time.perf_counter() - start

    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for index, result in enumerate(trajectory.results):
            peak = max(result.image.max(), 1e-9)
            path = os.path.join(args.out_dir, f"view_{index:03d}.ppm")
            write_ppm(path, np.clip(result.image / peak, 0.0, 1.0))
        print(f"wrote {len(trajectory)} frames to {args.out_dir}/")

    stats = trajectory.stats
    print(
        f"rendered {len(trajectory)} views of {args.scene} "
        f"({scene.camera.width}x{scene.camera.height}) with {args.pipeline} "
        f"in {elapsed:.2f}s ({len(trajectory) / elapsed:.2f} frames/s, "
        f"workers={args.workers})"
    )
    print(
        f"aggregate: pairs={stats.preprocess.num_pairs} "
        f"sort_keys={stats.sort.num_keys} "
        f"alpha_ops={stats.raster.num_alpha_computations}"
    )
    return 0


def _make_service(args: argparse.Namespace, cache):
    """Build the :class:`RenderService` the ``serve`` subcommand drives."""
    from repro.serve import AdaptiveBatchPolicy, RenderService

    policy = (
        AdaptiveBatchPolicy(
            target_p95=args.target_ms / 1e3, window=args.policy_window
        )
        if args.adaptive
        else None
    )
    return RenderService(
        _make_renderer(args),
        cache=cache,
        max_batch_size=args.batch_size,
        max_wait=args.max_wait_ms / 1e3,
        max_pending=args.max_pending,
        vectorized=not args.no_engine,
        batch_workers=args.batch_workers,
        batch_executor=args.batch_executor,
        policy=policy,
    )


def _print_serve_report(args: argparse.Namespace, scene, report) -> None:
    """The load-generator summary shared by both serve transports."""
    stats = report.service
    print(
        f"served {report.frames} frames of {args.scene} "
        f"({scene.camera.width}x{scene.camera.height}, {args.pipeline}) to "
        f"{args.clients} clients in {report.wall_s:.2f}s "
        f"({report.frames_per_s:.2f} frames/s)"
    )
    print(
        f"engine renders: {stats['engine_renders']} "
        f"(of {stats['requests']} requests; "
        f"{stats['cache_hits']} cache hits, {stats['coalesced']} coalesced)"
    )
    print(
        f"batches: {stats['batches']} (mean {stats['mean_batch']}, "
        f"max {stats['max_batch']}), cancelled: {stats['cancelled']}"
    )
    if args.adaptive:
        print(
            f"adaptive: {stats.get('adaptations', 0)} adaptations -> "
            f"batch_size {stats['batch_size']}, "
            f"max_wait {1e3 * stats['max_wait']:.2f}ms"
        )


def _verify_serve_report(args: argparse.Namespace, scene, orbit, report) -> int:
    """``--verify``: the shared bit-identical check + the sharing check."""
    from repro.serve import verify_streamed_images

    failures = verify_streamed_images(
        _make_renderer(args),
        scene.cloud,
        orbit,
        report.images,
        vectorized=not args.no_engine,
    )
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print(
        f"verified: all {report.frames} streamed frames bit-identical "
        "to direct engine renders"
    )
    # The strictly-fewer-renders property only holds when the load
    # overlaps; a single client's distinct views have nothing to
    # coalesce.
    if args.clients > 1 and report.service["engine_renders"] >= report.frames:
        print(
            "FAIL: expected strictly fewer engine renders than served "
            "frames under overlapping load"
        )
        return 1
    return 0


def _make_admission(args: argparse.Namespace):
    """Build the gateway/router admission controller from the CLI knobs.

    ``--max-pending`` is the capacity; the per-class SLO flags arm
    priority shedding (without them the controller runs quotas only).
    """
    from repro.serve import AdmissionController

    controller = AdmissionController(
        args.max_pending, window=args.admission_window
    )
    if args.interactive_slo_ms is not None:
        controller.set_target("interactive", args.interactive_slo_ms / 1e3)
    if args.bulk_slo_ms is not None:
        controller.set_target("bulk", args.bulk_slo_ms / 1e3)
    return controller


async def _serve_until_signalled(server, drain_grace: float) -> None:
    """Serve until SIGTERM or SIGINT, then drain ``server`` for the grace."""
    import asyncio

    print("serving until interrupted (Ctrl-C to stop)")
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):
            break  # non-Unix loop: Ctrl-C still works
    await stop.wait()
    if drain_grace > 0:
        clean = await server.drain(drain_grace)
        print(
            "drained cleanly"
            if clean
            else "drain grace expired with requests in flight"
        )


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.scenes.trajectory import orbit_cameras
    from repro.serve import (
        AsyncGatewayClient,
        RenderGateway,
        SharedRenderCache,
        naive_render_seconds,
        run_clients,
    )

    use_gateway = args.tcp or args.http or args.listen
    scene = load_scene(args.scene, resolution_scale=args.scale, seed=args.seed)
    orbit = list(orbit_cameras(scene, args.views))
    # Every client streams the same orbit — the overlapping-load shape
    # the serving layer exists for (viewers watching the same scene).
    trajectories = [list(orbit) for _ in range(args.clients)]
    renderer = _make_renderer(args)
    cache = None if args.no_render_cache else SharedRenderCache()

    async def drive_inprocess():
        async with _make_service(args, cache) as service:
            return await run_clients(
                service,
                scene.cloud,
                trajectories,
                keep_images=args.verify,
                request_class=args.request_class,
            )

    async def drive_gateway():
        async with _make_service(args, cache) as service:
            gateway = RenderGateway(
                service,
                admission=_make_admission(args),
                auth_token=args.auth_token,
            )
            gateway.register_scene(args.scene, scene.cloud, orbit)
            await gateway.start(port=args.port)
            print(f"TCP gateway listening on {gateway.host}:{gateway.tcp_port}")
            if args.http or args.listen:
                await gateway.start_http(port=args.http_port)
                print(
                    f"HTTP adapter on http://{gateway.host}:{gateway.http_port}"
                    f" — try: curl 'http://{gateway.host}:{gateway.http_port}"
                    f"/render?scene={args.scene}&view=0&format=json'"
                )
            try:
                if args.listen:
                    await _serve_until_signalled(gateway, args.drain_grace)
                    return None
                clients = [
                    await AsyncGatewayClient.connect(
                        gateway.host,
                        gateway.tcp_port,
                        auth_token=args.auth_token,
                    )
                    for _ in range(args.clients)
                ]
                try:
                    return await run_clients(
                        clients,
                        scene.cloud,
                        trajectories,
                        keep_images=args.verify,
                        request_class=args.request_class,
                    )
                finally:
                    for client in clients:
                        await client.close()
            finally:
                await gateway.close()

    try:
        try:
            report = asyncio.run(
                drive_gateway() if use_gateway else drive_inprocess()
            )
        except KeyboardInterrupt:
            print("interrupted")
            return 0
    finally:
        if cache is not None:
            cache.close()
    if report is None:
        return 0

    _print_serve_report(args, scene, report)

    if args.naive:
        naive_s = naive_render_seconds(
            renderer, scene.cloud, trajectories, vectorized=not args.no_engine
        )
        print(
            f"naive per-request rendering: {naive_s:.2f}s -> service speedup "
            f"{naive_s / max(report.wall_s, 1e-9):.2f}x"
        )

    if args.verify:
        return _verify_serve_report(args, scene, orbit, report)
    return 0


def _cluster_scenes(args: argparse.Namespace) -> "list[str]":
    """The cluster workload's scene names (``--scenes`` over ``--scene``)."""
    if args.scenes:
        names = [name.strip() for name in args.scenes.split(",") if name.strip()]
        unknown = sorted(set(names) - set(SCENES))
        if unknown:
            raise SystemExit(f"unknown scenes: {', '.join(unknown)}")
        return names
    return [args.scene]


async def _run_cluster(args, fleet, router, names, serve_http) -> int:
    """``repro cluster`` with its router up: serve, or drive and report."""
    from repro.cluster.supervisor import drive_fleet
    from repro.gaussians.cloud import cloud_fingerprint
    from repro.scenes.trajectory import orbit_cameras
    from repro.serve import AsyncGatewayClient, verify_streamed_images

    cluster_map = router.topology
    print(
        f"shard router on {router.host}:{router.tcp_port} over "
        f"{len(cluster_map)} backends (replication {cluster_map.replication})"
    )
    if serve_http:
        await router.start_http(port=args.http_port)
        print(
            f"HTTP front end on http://{router.host}:{router.http_port}"
            f" — try: curl 'http://{router.host}:{router.http_port}"
            f"/stream?scene={names[0]}&frames=2'"
        )
    if args.listen:
        await _serve_until_signalled(router, args.drain_grace)
        return 0
    scenes = [
        load_scene(name, resolution_scale=args.scale, seed=args.seed)
        for name in names
    ]
    for name, scene in zip(names, scenes):
        owners = cluster_map.assignment([cloud_fingerprint(scene.cloud)])
        print(f"scene {name}: replicas {list(owners.values())[0]}")
    run = await drive_fleet(
        router,
        fleet,
        [(scene.cloud, list(orbit_cameras(scene, args.views))) for scene in scenes],
        clients=args.clients,
        passes=args.passes,
        request_class=args.request_class,
        kill_owner=args.kill_one,
    )
    if run.victim is not None:
        print(f"killed {run.victim} (owner of {names[0]}) mid-stream")
    frames = sum(run.frames)
    async with AsyncGatewayClient(
        router.host, router.tcp_port, auth_token=router.auth_token
    ) as client:
        stats = await client.stats_dict()
    print(
        f"streamed {frames} frames to {args.clients} clients over "
        f"{len(names)} scene(s) x {args.passes} pass(es) in "
        f"{run.wall_s:.2f}s ({frames / max(run.wall_s, 1e-9):.2f} frames/s)"
    )
    print(
        f"router: {router.stats.failovers} failovers, "
        f"{router.stats.rejected} rejects, "
        f"{router.stats.errors} errors; cluster engine renders: "
        f"{stats.get('engine_renders', 0)} of "
        f"{stats.get('requests', 0)} requests"
    )
    for backend_id, entry in stats["gateway"]["backends"].items():
        state = "up" if entry["up"] else "DOWN"
        detail = entry.get("service", {})
        print(
            f"  {backend_id}: {state}, "
            f"renders={detail.get('engine_renders', '-')}, "
            f"cache_hits={detail.get('cache_hits', '-')}"
        )
    if run.victim is not None and not router.stats.failovers:
        print("FAIL: victim was killed but no failover happened")
        return 1
    if args.verify:
        failures: "list[str]" = []
        for index, scene in enumerate(scenes):
            orbit = list(orbit_cameras(scene, args.views))
            per_client = [
                run.images[c]
                for c in range(args.clients)
                if c % len(scenes) == index
            ]
            # Each client streamed `passes` copies of the orbit.
            expanded = orbit * args.passes
            failures += verify_streamed_images(
                _make_renderer(args), scene.cloud, expanded, per_client
            )
        for failure in failures:
            print(f"FAIL: {failure}")
        if failures:
            return 1
        print(
            f"verified: all {frames} streamed frames bit-identical "
            "to direct engine renders"
            + (" (including across the failover)" if run.victim else "")
        )
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    import asyncio

    from repro.cluster import LocalFleet
    from repro.cluster.supervisor import fleet_router

    _check_fleet_options(args)
    names = _cluster_scenes(args)
    replicate = min(args.replicate, args.backends)
    serve_http = args.http or args.listen

    fleet = LocalFleet(
        args.backends,
        # Named scenes are only needed by the HTTP proxy (--listen /
        # --http); the load generator pushes clouds over the wire.
        scenes=tuple(names) if serve_http else (),
        scale=args.scale,
        seed=args.seed,
        views=args.views,
        http=serve_http,
        auth_token=args.auth_token,
        cache_frames=args.cache_frames,
        render_cache=not args.no_render_cache,
        extra_args=(
            "--batch-size", str(args.batch_size),
            "--max-wait-ms", str(args.max_wait_ms),
            "--max-pending", str(args.max_pending),
            "--admission-window", str(args.admission_window),
            # Shedding happens where latency is observed: the backends.
            *(
                ("--interactive-slo-ms", str(args.interactive_slo_ms))
                if args.interactive_slo_ms is not None
                else ()
            ),
            *(
                ("--bulk-slo-ms", str(args.bulk_slo_ms))
                if args.bulk_slo_ms is not None
                else ()
            ),
            "--pipeline", args.pipeline,
            "--method", args.method,
            "--tile-size", str(args.tile_size),
            "--group-size", str(args.group_size),
            "--super-size", str(args.super_size),
        ),
    )

    async def main() -> int:
        async with fleet_router(
            fleet,
            replication=replicate,
            port=args.port,
            admission=_make_admission(args),
            max_scenes=max(len(names), 8),
            auth_token=args.auth_token,
        ) as router:
            return await _run_cluster(args, fleet, router, names, serve_http)

    # A SIGTERM (timeout(1), orchestrators) must still run the finally
    # below, or the fleet's subprocesses outlive their supervisor.
    def _sigterm(_signum, _frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _sigterm)
    try:
        try:
            return asyncio.run(main())
        except KeyboardInterrupt:
            print("interrupted")
            return 0
    finally:
        signal.signal(signal.SIGTERM, previous)
        fleet.close()


def _cmd_profile(args: argparse.Namespace) -> int:
    cache = RenderCache(resolution_scale=args.scale, seed=args.seed)
    method = BoundaryMethod(args.method)
    print(f"{'tile':>5}{'tiles/G':>10}{'shared%':>9}{'G/pixel':>9}{'pairs':>9}")
    for tile_size in (8, 16, 32, 64):
        stats = tile_statistics(cache.assignment(args.scene, tile_size, method))
        print(
            f"{tile_size:>5}{stats.tiles_per_gaussian:>10.2f}"
            f"{100 * stats.shared_fraction:>9.1f}"
            f"{stats.gaussians_per_pixel:>9.1f}{stats.num_pairs:>9}"
        )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cache = RenderCache(resolution_scale=args.scale, seed=args.seed)
    scene = cache.scene(args.scene)
    w, h = scene.camera.width, scene.camera.height

    base = cache.baseline_render(args.scene, args.tile_size, BoundaryMethod.ELLIPSE)
    base_hw = simulate_baseline(base.stats, w, h)
    base_energy = energy_report(base_hw, GSTG_CONFIG, ("PM", "GSM", "RM", "Buffer"))

    obb = cache.baseline_render(args.scene, args.tile_size, BoundaryMethod.OBB)
    gscore_hw = simulate_gscore(obb.stats, w, h)
    gscore_energy = energy_report(gscore_hw, GSCORE_CONFIG)

    ours = cache.gstg_render(
        args.scene, args.tile_size, args.group_size,
        BoundaryMethod.ELLIPSE, BoundaryMethod.ELLIPSE,
    )
    ours_hw = simulate_gstg(ours.stats, w, h)
    ours_energy = energy_report(ours_hw, GSTG_CONFIG)

    print(f"{'system':<10}{'cycles':>12}{'ms':>9}{'energy uJ':>11}{'bottleneck':>12}")
    for name, hw, energy in (
        ("baseline", base_hw, base_energy),
        ("gscore", gscore_hw, gscore_energy),
        ("gs-tg", ours_hw, ours_energy),
    ):
        print(
            f"{name:<10}{hw.cycles:>12,.0f}{hw.time_ms:>9.3f}"
            f"{energy.total_energy_j * 1e6:>11.2f}{hw.bottleneck:>12}"
        )
    print(
        f"gs-tg speedup {base_hw.cycles / ours_hw.cycles:.2f}x, "
        f"energy efficiency {ours_energy.efficiency_vs(base_energy):.2f}x"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    report = generate_report(resolution_scale=args.scale, seed=args.seed)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(report)
    print(f"wrote {args.out}")
    return 0


def _cmd_trace_record(args: argparse.Namespace) -> int:
    """Run a traced cluster workload and capture spans to ``--dir``.

    Every backend appends to ``<dir>/<backend_id>.jsonl`` (via the
    supervisor's ``trace_dir``), the router to ``<dir>/router.jsonl``,
    and every client request carries a client-minted trace id — the
    one id that may appear in served bytes — so the spans each node
    emits for a frame stitch into one end-to-end trace.
    """
    import asyncio
    import itertools
    from pathlib import Path

    from repro.cluster import LocalFleet
    from repro.cluster.supervisor import drive_fleet, fleet_router
    from repro.scenes.trajectory import orbit_cameras
    from repro.trace import Tracer, load_spans, stitch

    _check_fleet_options(args)
    trace_dir = Path(args.dir)
    trace_dir.mkdir(parents=True, exist_ok=True)
    stale = sorted(trace_dir.glob("*.jsonl"))
    if stale and not args.append:
        raise SystemExit(
            f"{trace_dir} already holds {len(stale)} capture file(s); "
            "pass --append to add to them or point --dir elsewhere"
        )
    names = _cluster_scenes(args)
    replicate = min(args.replicate, args.backends)
    fleet = LocalFleet(
        args.backends,
        scale=args.scale,
        seed=args.seed,
        views=args.views,
        auth_token=args.auth_token,
        trace_dir=trace_dir,
    )
    trace_ids = (f"cli-{n:08x}" for n in itertools.count(1))
    scenes = [
        load_scene(name, resolution_scale=args.scale, seed=args.seed)
        for name in names
    ]

    async def main() -> int:
        router_tracer = Tracer(node="router", sink=trace_dir / "router.jsonl")
        try:
            async with fleet_router(
                fleet,
                replication=replicate,
                admission=_make_admission(args),
                max_scenes=max(len(names), 8),
                auth_token=args.auth_token,
                tracer=router_tracer,
            ) as router:
                run = await drive_fleet(
                    router,
                    fleet,
                    [
                        (scene.cloud, list(orbit_cameras(scene, args.views)))
                        for scene in scenes
                    ],
                    clients=args.clients,
                    passes=args.passes,
                    request_class=args.request_class,
                    kill_owner=args.kill_one,
                    trace_ids=trace_ids,
                    keep_images=False,
                )
        finally:
            router_tracer.close()
        if run.victim is not None and not router.stats.failovers:
            print("FAIL: victim was killed but no failover happened")
            return 1
        print(
            f"recorded {sum(run.frames)} streamed frames across "
            f"{args.clients} client(s), {len(names)} scene(s), "
            f"{args.backends} backend(s)"
            + (f"; failed over from {run.victim}" if run.victim else "")
        )
        return 0

    try:
        code = asyncio.run(main())
    finally:
        # SIGTERMed backends flush + close their sinks on drain.
        fleet.close()
    if code != 0:
        return code
    spans = load_spans(trace_dir)
    traces = stitch(spans)
    stitched = {
        trace: {span["node"] for span in grouped}
        for trace, grouped in traces.items()
        if trace.startswith("cli-")
    }
    multi_node = sum(1 for nodes in stitched.values() if len(nodes) > 1)
    print(
        f"captured {len(spans)} spans in {len(traces)} traces to "
        f"{trace_dir} ({multi_node} of {len(stitched)} client traces "
        "span multiple nodes)"
    )
    if not multi_node:
        print("FAIL: no client trace stitched across router and backend")
        return 1
    return 0


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    """Re-run a capture's render workload on a simulated accelerator."""
    from repro.gaussians.cloud import cloud_fingerprint
    from repro.trace import build_config, load_spans, replay

    try:
        config = build_config(
            args.config,
            num_cores=args.num_cores,
            frequency_ghz=args.frequency_ghz,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    spans = load_spans(args.dir)
    if not spans:
        raise SystemExit(f"no spans found under {args.dir}")
    clouds = {}
    for name in _cluster_scenes(args):
        scene = load_scene(name, resolution_scale=args.scale, seed=args.seed)
        clouds[cloud_fingerprint(scene.cloud)] = scene.cloud
    report = replay(
        spans,
        clouds,
        config=config,
        tile_size=args.tile_size,
        group_size=args.group_size,
        method=BoundaryMethod(args.method),
    )
    print(
        f"replayed {report.requests} rendered frames "
        f"({report.distinct_renders} distinct views, {report.skipped} "
        f"skipped) on {report.config_name} "
        f"({report.num_cores} cores @ {report.frequency_hz / 1e9:.2f} GHz)"
    )
    print(
        f"{'class':<12}{'requests':>10}{'cycles':>16}{'mean cyc':>12}"
        f"{'sim ms':>10}{'energy uJ':>12}"
    )
    for cost in report.classes:
        print(
            f"{cost.request_class:<12}{cost.requests:>10}"
            f"{cost.cycles:>16,.0f}{cost.mean_cycles:>12,.0f}"
            f"{cost.time_ms(report.frequency_hz):>10.3f}"
            f"{cost.energy_j * 1e6:>12.2f}"
        )
    print(
        f"{'total':<12}{report.requests:>10}{report.total_cycles:>16,.0f}"
        f"{'':>12}{report.total_cycles / report.frequency_hz * 1e3:>10.3f}"
        f"{report.total_energy_j * 1e6:>12.2f}"
    )
    return 0


def _cmd_trace_top(args: argparse.Namespace) -> int:
    """Per-stage latency aggregates and the slowest traces of a capture."""
    from repro.trace import load_spans, stitch

    spans = load_spans(args.dir)
    if not spans:
        raise SystemExit(f"no spans found under {args.dir}")
    by_stage: "dict[str, list[float]]" = {}
    for span in spans:
        by_stage.setdefault(span["name"], []).append(span["dur_ms"])
    print(f"{'stage':<12}{'count':>8}{'mean ms':>10}{'p95 ms':>10}{'max ms':>10}")
    for name in sorted(by_stage, key=lambda n: -sum(by_stage[n])):
        durs = np.asarray(by_stage[name])
        print(
            f"{name:<12}{durs.size:>8}{durs.mean():>10.3f}"
            f"{float(np.percentile(durs, 95.0)):>10.3f}{durs.max():>10.3f}"
        )
    totals = [
        (sum(span["dur_ms"] for span in grouped), trace, grouped)
        for trace, grouped in stitch(spans).items()
    ]
    totals.sort(key=lambda item: -item[0])
    print(f"\nslowest {min(args.limit, len(totals))} of {len(totals)} traces:")
    for total, trace, grouped in totals[: args.limit]:
        nodes = sorted({span["node"] for span in grouped})
        # A long stream emits hundreds of spans; show the slowest few.
        slowest = sorted(grouped, key=lambda span: -span["dur_ms"])[:8]
        stages = ", ".join(
            f"{span['name']}={span['dur_ms']:.1f}" for span in slowest
        )
        elided = len(grouped) - len(slowest)
        if elided > 0:
            stages += f", +{elided} more"
        print(f"  {trace}: {total:.1f} ms over {'+'.join(nodes)} ({stages})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="GS-TG reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    render = sub.add_parser("render", help="render one frame to a PPM file")
    _add_common(render)
    _add_renderer_options(render)
    render.add_argument("--out", default="frame.ppm")
    render.set_defaults(func=_cmd_render)

    trajectory = sub.add_parser(
        "trajectory", help="render an orbit trajectory through the batch engine"
    )
    _add_common(trajectory)
    _add_renderer_options(trajectory)
    trajectory.add_argument("--views", type=int, default=8, help="orbit views")
    trajectory.add_argument(
        "--workers", type=int, default=1,
        help="1 renders serially; 2 or more renders on the process-wide "
        "render pool (one worker per CPU, whatever the number)",
    )
    trajectory.add_argument(
        "--executor", choices=("process", "thread"), default="process",
        help="ignored; kept so that existing scripts still run",
    )
    trajectory.add_argument(
        "--shared-cache", action="store_true",
        help="ignored; kept so that existing scripts still run",
    )
    trajectory.add_argument(
        "--out-dir", default="", help="write view_NNN.ppm frames here"
    )
    trajectory.set_defaults(func=_cmd_trajectory)

    serve = sub.add_parser(
        "serve",
        help="run the async streaming render service under generated load",
    )
    _add_common(serve)
    _add_renderer_options(serve)
    serve.add_argument("--views", type=int, default=8, help="orbit views")
    serve.add_argument(
        "--clients", type=int, default=4,
        help="concurrent clients, each streaming the full orbit",
    )
    serve.add_argument(
        "--batch-size", type=int, default=8,
        help="micro-batch flush size (requests per engine batch)",
    )
    serve.add_argument(
        "--max-wait-ms", type=float, default=2.0,
        help="micro-batch flush deadline in milliseconds",
    )
    serve.add_argument(
        "--max-pending", type=int, default=64,
        help="admission capacity (bounded-queue backpressure; the "
        "class-based admission controller's total slot count)",
    )
    _add_admission_options(serve)
    serve.add_argument(
        "--no-render-cache", action="store_true",
        help="disable the shared render cache (micro-batching only)",
    )
    serve.add_argument(
        "--tcp", action="store_true",
        help="serve over a real localhost TCP socket (the network gateway) "
        "and drive the clients through it instead of in-process",
    )
    serve.add_argument(
        "--http", action="store_true",
        help="also start the HTTP/1.1 adapter (one-shot renders via curl)",
    )
    serve.add_argument(
        "--listen", action="store_true",
        help="start the TCP gateway + HTTP adapter and serve until "
        "interrupted instead of running the built-in load generator",
    )
    serve.add_argument(
        "--drain-grace", type=float, default=5.0,
        help="with --listen: seconds to let in-flight requests finish "
        "after SIGTERM/SIGINT (new requests get a 503 with a "
        "retry_after_ms hint meanwhile; 0 closes abruptly)",
    )
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP gateway port (0 picks a free one)",
    )
    serve.add_argument(
        "--http-port", type=int, default=0,
        help="HTTP adapter port (0 picks a free one)",
    )
    serve.add_argument(
        "--adaptive", action="store_true",
        help="attach an AdaptiveBatchPolicy: retune the batching knobs "
        "from measured p95 latency against --target-ms",
    )
    serve.add_argument(
        "--target-ms", type=float, default=50.0,
        help="adaptive policy p95 latency target in milliseconds",
    )
    serve.add_argument(
        "--policy-window", type=int, default=32,
        help="requests per adaptive-policy window (the fast timescale "
        "beneath the admission controller)",
    )
    serve.add_argument(
        "--batch-workers", type=int, default=None,
        help="1 renders each flushed micro-batch on the flush thread; "
        "unset or > 1 renders it on the process-wide render pool "
        "(one worker per CPU)",
    )
    serve.add_argument(
        "--batch-executor", choices=("process", "thread"), default="process",
        help="'thread' renders each flushed micro-batch on the flush "
        "thread, like --batch-workers 1",
    )
    serve.add_argument(
        "--auth-token", default=None,
        help="shared-secret token for the wire protocol (default: the "
        "REPRO_AUTH_TOKEN environment variable; unset means no auth)",
    )
    serve.add_argument(
        "--naive", action="store_true",
        help="also time naive per-request rendering and print the speedup",
    )
    serve.add_argument(
        "--verify", action="store_true",
        help="check every streamed frame bit-for-bit against a direct "
        "engine render (exit 1 on any mismatch; with --clients > 1, also "
        "exit 1 unless the engine rendered strictly fewer frames than it "
        "served)",
    )
    serve.set_defaults(func=_cmd_serve)

    cluster = sub.add_parser(
        "cluster",
        help="run a sharded multi-gateway cluster behind the shard router",
    )
    _add_common(cluster)
    _add_renderer_options(cluster)
    _add_fleet_options(cluster, backends=3, views=8, clients=4)
    cluster.add_argument("--batch-size", type=int, default=8)
    cluster.add_argument("--max-wait-ms", type=float, default=2.0)
    cluster.add_argument(
        "--cache-frames", type=int, default=0,
        help="per-backend render-cache capacity in frames (0 = unbounded)",
    )
    cluster.add_argument(
        "--no-render-cache", action="store_true",
        help="disable the backends' shared render caches",
    )
    cluster.add_argument(
        "--listen", action="store_true",
        help="serve (TCP router + HTTP front end) until interrupted "
        "instead of running the built-in load generator",
    )
    cluster.add_argument(
        "--drain-grace", type=float, default=5.0,
        help="with --listen: seconds to let in-flight relays finish "
        "after SIGTERM/SIGINT (new requests get a 503 with a "
        "retry_after_ms hint meanwhile; 0 closes abruptly)",
    )
    cluster.add_argument(
        "--http", action="store_true",
        help="also start the router's HTTP front end and the backends' "
        "HTTP adapters",
    )
    cluster.add_argument(
        "--port", type=int, default=0,
        help="router TCP port (0 picks a free one)",
    )
    cluster.add_argument(
        "--http-port", type=int, default=0,
        help="router HTTP port (0 picks a free one)",
    )
    cluster.add_argument(
        "--verify", action="store_true",
        help="check every streamed frame bit-for-bit against a direct "
        "engine render (exit 1 on any mismatch)",
    )
    cluster.set_defaults(func=_cmd_cluster)

    profile = sub.add_parser("profile", help="Section III tile-size statistics")
    _add_common(profile)
    profile.add_argument(
        "--method", choices=[m.value for m in BoundaryMethod], default="aabb"
    )
    profile.set_defaults(func=_cmd_profile)

    simulate = sub.add_parser("simulate", help="cycle-level accelerator comparison")
    _add_common(simulate)
    simulate.add_argument("--tile-size", type=int, default=16)
    simulate.add_argument("--group-size", type=int, default=64)
    simulate.set_defaults(func=_cmd_simulate)

    report = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    report.add_argument("--scale", type=float, default=0.125)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--out", default="EXPERIMENTS.md")
    report.set_defaults(func=_cmd_report)

    trace = sub.add_parser(
        "trace",
        help="record, replay and inspect end-to-end request traces",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    record = trace_sub.add_parser(
        "record",
        help="run a traced cluster workload, capturing spans as JSONL",
    )
    _add_common(record)
    record.add_argument(
        "--dir", required=True,
        help="capture directory: each node appends <node>.jsonl here",
    )
    record.add_argument(
        "--append", action="store_true",
        help="add to an existing capture instead of refusing it",
    )
    _add_fleet_options(record, backends=2, views=4, clients=2)
    record.set_defaults(func=_cmd_trace_record)

    replay = trace_sub.add_parser(
        "replay",
        help="re-run a capture's render workload on a simulated accelerator",
    )
    _add_common(replay)
    replay.add_argument(
        "--dir", required=True, help="capture directory (or one .jsonl file)"
    )
    replay.add_argument(
        "--scenes", default="",
        help="comma-separated scene names the capture used (fingerprints "
        "must match the capture's --scale/--seed; default: just --scene)",
    )
    replay.add_argument(
        "--config", default="gstg", choices=("gstg", "gscore"),
        help="base accelerator configuration to replay against",
    )
    replay.add_argument(
        "--num-cores", type=int, default=None,
        help="override the configuration's core count",
    )
    replay.add_argument(
        "--frequency-ghz", type=float, default=None,
        help="override the configuration's clock in GHz",
    )
    replay.add_argument(
        "--method", choices=[m.value for m in BoundaryMethod],
        default="ellipse",
    )
    replay.add_argument("--tile-size", type=int, default=16)
    replay.add_argument("--group-size", type=int, default=64)
    replay.set_defaults(func=_cmd_trace_replay)

    top = trace_sub.add_parser(
        "top",
        help="per-stage latency aggregates and the slowest traces",
    )
    top.add_argument(
        "--dir", required=True, help="capture directory (or one .jsonl file)"
    )
    top.add_argument(
        "--limit", type=int, default=5, help="slowest traces to show"
    )
    top.set_defaults(func=_cmd_trace_top)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
