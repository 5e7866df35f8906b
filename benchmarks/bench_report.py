"""Performance trajectory report: time the sweep-critical paths.

Measures the hot paths this repo's performance work targets —
the batch-engine trajectory, the vectorized hierarchical render, the
array-based pipeline-simulation sweep, the async serving layer under
concurrent overlapping load, the network gateway serving the same
load over real localhost TCP sockets, the sharded cluster (one
router + three backend subprocesses) against a single gateway on a
multi-scene workload, and the class-based admission controller's
latency isolation (interactive p95 held near its unloaded value while
an unbounded bulk storm is shed) — each against its retained seed
(naive / pure-Python / single-node / class-blind) implementation, and
records the results in ``BENCH_core.json`` (every metric is
documented in ``docs/benchmarks.md``)::

    {"meta": {...workload...},
     "entries": [{"name": ..., "wall_s": ..., "speedup_vs_seed": ...}]}

``wall_s`` is the fast path's wall time; ``speedup_vs_seed`` divides the
seed path's time by it.  The JSON lives in the repository so future PRs
can diff the perf trajectory; CI re-runs this script on a tiny scene as
a smoke check (absolute numbers are machine-dependent — the committed
file documents one reference machine).

Usage::

    PYTHONPATH=src python benchmarks/bench_report.py \
        [--scene playroom] [--scale 0.125] [--views 6] [--workers 2] \
        [--clients 4] [--sim-rounds 30] [--sim-scale 0.25] \
        [--out BENCH_core.json]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time

import numpy as np

from repro.cluster import ClusterMap, LocalFleet, ShardRouter
from repro.core.grouping import GroupGeometry
from repro.core.hierarchical import HierarchicalGSTGRenderer
from repro.core.pipeline import GSTGRenderer
from repro.engine import RenderEngine
from repro.hardware.pipeline_sim import (
    simulate_baseline_pipelined,
    simulate_gstg_pipelined,
)
from repro.raster.renderer import BaselineRenderer
from repro.scenes.synthetic import load_scene
from repro.scenes.trajectory import orbit_cameras
from repro.serve import (
    AdmissionController,
    AsyncGatewayClient,
    GatewayError,
    RenderGateway,
    RenderService,
    SharedRenderCache,
    naive_render_seconds,
    run_clients,
)
from repro.serve.protocol import ErrorCode
from repro.tiles.boundary import BoundaryMethod

#: Timing rounds per measurement; the minimum wall time is reported
#: (the least-interrupted run is the true cost).
ROUNDS = 2


def best_of(func, rounds: int = ROUNDS) -> float:
    """Minimum wall seconds of ``func`` over ``rounds`` runs."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def measure_engine_trajectory(scene, cameras, workers: int) -> "tuple[float, float]":
    """(seed_s, fast_s): sequential per-tile renders vs the batch engine."""
    renderer = GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)
    engine = RenderEngine(renderer)
    # Warm both paths (first-call allocations, render pool start).
    renderer.render(scene.cloud, cameras[0])
    engine.render_trajectory(scene.cloud, cameras[:2], workers=workers)
    seed_s = best_of(
        lambda: [renderer.render(scene.cloud, camera) for camera in cameras]
    )
    fast_s = best_of(
        lambda: engine.render_trajectory(scene.cloud, cameras, workers=workers)
    )
    return seed_s, fast_s


def measure_hierarchical_render(scene) -> "tuple[float, float]":
    """(seed_s, fast_s): reference two-level render vs the engine path."""
    renderer = HierarchicalGSTGRenderer(16, 64, 128, BoundaryMethod.ELLIPSE)
    engine = RenderEngine(renderer)
    engine.render(scene.cloud, scene.camera)  # warm
    seed_s = best_of(lambda: renderer.render(scene.cloud, scene.camera))
    fast_s = best_of(lambda: engine.render(scene.cloud, scene.camera))
    return seed_s, fast_s


def measure_pipeline_sim_sweep(scene, rounds: int) -> "tuple[float, float]":
    """(seed_s, fast_s): the fig13–fig15/ablation-style simulation sweep
    with per-unit Python loops vs the array-based builders."""
    camera = scene.camera
    geometry = GroupGeometry(camera.width, camera.height, 16, 64)
    base = RenderEngine(BaselineRenderer(16, BoundaryMethod.ELLIPSE)).render(
        scene.cloud, camera
    )
    ours = RenderEngine(GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)).render(
        scene.cloud, camera
    )

    def sweep(vectorized: bool) -> None:
        for _ in range(rounds):
            simulate_baseline_pipelined(base, vectorized=vectorized)
            for overlap in (True, False):
                for ru_per_tile in (True, False):
                    simulate_gstg_pipelined(
                        ours,
                        geometry,
                        overlap_bitmask=overlap,
                        ru_per_tile=ru_per_tile,
                        vectorized=vectorized,
                    )

    sweep(True)  # warm
    seed_s = best_of(lambda: sweep(False))
    fast_s = best_of(lambda: sweep(True))
    return seed_s, fast_s


def measure_serve_throughput(
    scene, cameras, clients: int
) -> "tuple[float, float]":
    """(seed_s, fast_s): naive per-request rendering vs the async render
    service (micro-batching + in-flight dedup + shared render cache) for
    ``clients`` concurrent clients streaming the same trajectory.

    Each timed service run starts from a *fresh* render cache — the
    measured speedup is the steady-state serving win (coalescing and
    exactly-once rendering), not a warm-cache replay.
    """
    renderer = GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)
    trajectories = [list(cameras) for _ in range(clients)]

    def run_service() -> None:
        async def drive() -> None:
            with SharedRenderCache() as cache:
                async with RenderService(
                    renderer, cache=cache, max_batch_size=8, max_wait=0.002
                ) as service:
                    report = await run_clients(service, scene.cloud, trajectories)
                    assert report.service["engine_renders"] < report.frames

        asyncio.run(drive())

    run_service()  # warm (first-call allocations, executor spin-up)
    seed_s = best_of(
        lambda: naive_render_seconds(renderer, scene.cloud, trajectories)
    )
    fast_s = best_of(run_service)
    return seed_s, fast_s


def measure_gateway_throughput(
    scene, cameras, clients: int
) -> "tuple[float, float]":
    """(seed_s, fast_s): naive per-request rendering vs the *network*
    gateway — ``clients`` concurrent connections each streaming the same
    trajectory over a real localhost TCP socket.

    Everything the in-process ``serve_throughput`` measurement pays for
    plus the full wire cost: protocol framing, scene push, image bytes
    over loopback, client-side decoding.  Like ``serve_throughput``,
    each timed run starts from a fresh render cache.
    """
    renderer = GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)
    trajectories = [list(cameras) for _ in range(clients)]

    def run_gateway() -> None:
        async def drive() -> None:
            with SharedRenderCache() as cache:
                async with RenderService(
                    renderer, cache=cache, max_batch_size=8, max_wait=0.002
                ) as service:
                    gateway = RenderGateway(service)
                    await gateway.start()
                    connections = [
                        await AsyncGatewayClient.connect(
                            "127.0.0.1", gateway.tcp_port
                        )
                        for _ in range(clients)
                    ]
                    try:
                        report = await run_clients(
                            connections, scene.cloud, trajectories
                        )
                        assert report.service["engine_renders"] < report.frames
                    finally:
                        for connection in connections:
                            await connection.close()
                        await gateway.close()

        asyncio.run(drive())

    run_gateway()  # warm
    seed_s = best_of(
        lambda: naive_render_seconds(renderer, scene.cloud, trajectories)
    )
    fast_s = best_of(run_gateway)
    return seed_s, fast_s


async def _timed_client_rounds(
    host: str,
    port: int,
    scenes,
    orbits,
    clients_per_scene: int,
    rounds: int,
) -> float:
    """Best wall seconds for one full concurrent multi-scene client load.

    Each client streams its scene's whole orbit once per round; the
    first (untimed) round warms worker pools and render caches, so the
    timed rounds measure *steady-state* serving — the regime a
    long-running deployment lives in.
    """

    async def one_client(scene, orbit) -> None:
        client = await AsyncGatewayClient.connect(host, port)
        try:
            async for _ in client.stream_trajectory(scene.cloud, orbit):
                pass
        finally:
            await client.close()

    async def one_round() -> None:
        await asyncio.gather(
            *(
                one_client(scene, orbit)
                for scene, orbit in zip(scenes, orbits)
                for _ in range(clients_per_scene)
            )
        )

    await one_round()  # warm
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        await one_round()
        best = min(best, time.perf_counter() - start)
    return best


def measure_cluster_throughput(
    scene_name: str,
    scale: float,
    views: int,
    *,
    num_scenes: int = 3,
    clients_per_scene: int = 2,
    backends: int = 3,
    replication: int = 2,
    rounds: int = ROUNDS,
) -> "tuple[float, float]":
    """(seed_s, fast_s): a single gateway vs the sharded cluster —
    1 router + ``backends`` backend subprocesses — on a multi-scene
    workload, **at fixed per-node resources**.

    Every backend (including the lone one in the baseline) runs with a
    render cache bounded to one scene's working set (``views`` frames),
    the per-node memory budget that forces the scaling question.  The
    single gateway serves all ``num_scenes`` scenes through that one
    bounded cache, so steady-state rounds keep evicting and
    re-rendering; the router's rendezvous sharding gives each scene a
    home backend whose cache holds it entirely, so steady-state rounds
    serve from shared memory.  On multicore hosts the cluster
    additionally renders misses in true parallel (the backends are
    separate processes); the recorded gate does not depend on that.

    Scenes are ``scene_name`` at ``num_scenes`` different seeds —
    equal-sized, content-distinct clouds, pushed over the wire by the
    clients themselves.
    """
    scenes = [
        load_scene(scene_name, resolution_scale=scale, seed=seed)
        for seed in range(num_scenes)
    ]
    orbits = [list(orbit_cameras(scene, views)) for scene in scenes]

    def single_gateway_seconds() -> float:
        with LocalFleet(1, cache_frames=views) as fleet:
            spec = fleet.specs[0]
            return asyncio.run(
                _timed_client_rounds(
                    spec.host, spec.port, scenes, orbits,
                    clients_per_scene, rounds,
                )
            )

    def cluster_seconds() -> float:
        with LocalFleet(backends, cache_frames=views) as fleet:
            async def drive() -> float:
                cluster_map = ClusterMap(fleet.specs, replication=replication)
                router = ShardRouter(cluster_map)
                await router.start()
                try:
                    best = await _timed_client_rounds(
                        router.host, router.tcp_port, scenes, orbits,
                        clients_per_scene, rounds,
                    )
                    if router.stats.failovers:
                        # Not an assert: must also hold under python -O.
                        raise RuntimeError(
                            "cluster benchmark invalid: "
                            f"{router.stats.failovers} failover(s) mid-run "
                            "mean the fleet was unhealthy"
                        )
                    return best
                finally:
                    await router.close()

            return asyncio.run(drive())

    return single_gateway_seconds(), cluster_seconds()


def measure_trace_overhead(
    scene, cameras, clients: int, *, rounds: int = 5
) -> "tuple[float, float]":
    """(untraced_s, traced_s): the serving stack with tracing off vs a
    live span-recording :class:`repro.trace.Tracer`.

    The same workload as :func:`measure_serve_throughput`'s fast path —
    ``clients`` concurrent in-process streams over a fresh render cache
    — run both ways, min-of-``rounds`` each.  The gate is a *ratio*
    close to 1.0: span recording sits on the request path (queue /
    cache / batch / render / stream spans per frame) and must stay in
    the noise next to real render work.  Tracing off must be free by
    construction (one branch per would-be span); that is asserted by
    byte-identity tests, while this measures the *enabled* cost.
    """
    from repro.trace import Tracer

    renderer = GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)
    trajectories = [list(cameras) for _ in range(clients)]

    def run_service(tracer) -> None:
        async def drive() -> None:
            with SharedRenderCache() as cache:
                async with RenderService(
                    renderer, cache=cache, max_batch_size=8, max_wait=0.002,
                    tracer=tracer,
                ) as service:
                    await run_clients(service, scene.cloud, trajectories)

        asyncio.run(drive())

    run_service(None)  # warm (first-call allocations, executor spin-up)
    # Interleave the two variants round by round: the per-round noise
    # on this workload (~10-20%) dwarfs the tracing cost under test,
    # and back-to-back blocks would fold machine drift into the ratio.
    untraced_s = traced_s = float("inf")
    for _ in range(rounds):
        untraced_s = min(untraced_s, best_of(lambda: run_service(None), 1))
        traced_s = min(
            traced_s,
            best_of(
                lambda: run_service(Tracer(node="bench", capacity=65536)), 1
            ),
        )
    return untraced_s, traced_s


def measure_admission_isolation(
    scene_name: str,
    scale: float,
    *,
    capacity: int = 8,
    window: int = 16,
    bulk_workers: int = 12,
    bulk_views: int = 4,
    probes_unloaded: int = 32,
    probes_baseline: int = 24,
    probes_loaded: int = 48,
    think_s: float = 0.015,
    warmup_deadline_s: float = 30.0,
) -> dict:
    """Interactive p95 isolation under a 10x-and-more bulk storm.

    One gateway with a class-aware :class:`AdmissionController`, no
    render cache (every admitted request is a real render), and two
    content-distinct scenes so interactive probes and bulk load never
    share a micro-batch.  Three phases on the same live gateway:

    1. **Unloaded** — a lone interactive client measures its baseline
       p95 (think time between probes; nothing else running).
    2. **Storm, no SLO** — ``bulk_workers`` impolite clients hammer
       bulk streams as fast as admission lets them (on a 429 they only
       honor the ``retry_after_ms`` hint up to 50 ms); the probe's p95
       under this load is what a class-blind gateway delivers.
    3. **Storm, SLO set** — the interactive target is set just above
       the unloaded p95; the slow timescale observes the violation,
       sheds bulk (and prefetch) outright, and the probe's p95 is
       measured again.

    The recorded ``isolation_ratio`` (phase 3 / phase 1) is the gated
    metric: class-based shedding must hold interactive latency within a
    small factor of its unloaded value *while bulk offered load is
    unbounded*.  ``speedup_vs_seed`` is phase 2 / phase 3 — what the
    controller buys over the seed's class-blind admission.  Probe
    frames are checked bit-identical to direct engine renders.
    """
    interactive_scene = load_scene(scene_name, resolution_scale=scale, seed=0)
    bulk_scene = load_scene(scene_name, resolution_scale=scale, seed=1)
    interactive_cams = list(orbit_cameras(interactive_scene, 4))
    bulk_cams = list(orbit_cameras(bulk_scene, bulk_views))
    renderer = GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)
    engine = RenderEngine(renderer)
    reference = engine.render(interactive_scene.cloud, interactive_cams[0])

    async def drive() -> dict:
        admission = AdmissionController(capacity, window=window)
        async with RenderService(
            renderer, max_batch_size=8, max_wait=0.002
        ) as service:
            gateway = RenderGateway(service, admission=admission)
            await gateway.start()
            probe = None
            workers: "list[asyncio.Task]" = []
            stop = asyncio.Event()
            offered = {"streams": 0, "rejected": 0}
            try:
                probe = await AsyncGatewayClient.connect(
                    "127.0.0.1", gateway.tcp_port
                )

                async def probe_once(index: int):
                    camera = interactive_cams[index % len(interactive_cams)]
                    start = time.perf_counter()
                    result = await probe.render_frame(
                        interactive_scene.cloud,
                        camera,
                        request_class="interactive",
                    )
                    return time.perf_counter() - start, result

                async def probe_p95(count: int) -> float:
                    latencies = []
                    for index in range(count):
                        latency, _ = await probe_once(index)
                        latencies.append(latency)
                        await asyncio.sleep(think_s)
                    return float(np.percentile(latencies, 95.0))

                async def bulk_worker() -> None:
                    client = await AsyncGatewayClient.connect(
                        "127.0.0.1", gateway.tcp_port
                    )
                    try:
                        while not stop.is_set():
                            offered["streams"] += 1
                            try:
                                async for _ in client.stream_trajectory(
                                    bulk_scene.cloud, bulk_cams
                                ):
                                    if stop.is_set():
                                        break
                            except GatewayError as exc:
                                if exc.code != int(ErrorCode.REJECTED):
                                    raise
                                offered["rejected"] += 1
                                hint = (exc.retry_after_ms or 25) / 1000.0
                                await asyncio.sleep(min(hint, 0.05))
                    except asyncio.CancelledError:
                        pass
                    finally:
                        await client.close()

                # Phase 0: warm the serving path, and pin bit-identity.
                # Not asserts: must also hold under python -O.
                _, first = await probe_once(0)
                if not np.array_equal(first.image, reference.image):
                    raise RuntimeError(
                        "admission benchmark invalid: served frame "
                        "differs from the direct engine render"
                    )

                # Phase 1: unloaded baseline.
                unloaded_p95 = await probe_p95(probes_unloaded)

                # Phase 2: the storm, with class-blind admission (no SLO).
                workers = [
                    asyncio.ensure_future(bulk_worker())
                    for _ in range(bulk_workers)
                ]
                baseline_p95 = await probe_p95(probes_baseline)

                # Phase 3: arm the SLO; wait for the slow timescale to
                # observe the violation and shed, then measure isolation.
                admission.set_target(
                    "interactive", max(unloaded_p95 * 1.15, 0.002)
                )
                deadline = time.perf_counter() + warmup_deadline_s
                index = 0
                while (
                    admission.shed_level < 2
                    and time.perf_counter() < deadline
                ):
                    await probe_once(index)
                    index += 1
                    await asyncio.sleep(think_s)
                shed_level = admission.shed_level
                loaded_p95 = await probe_p95(probes_loaded)

                # One more bit-identity check while shedding is active.
                _, last = await probe_once(0)
                if not np.array_equal(last.image, reference.image):
                    raise RuntimeError(
                        "admission benchmark invalid: served frame "
                        "differs from the direct engine render"
                    )
            finally:
                stop.set()
                for worker in workers:
                    worker.cancel()
                if workers:
                    await asyncio.gather(*workers, return_exceptions=True)
                if probe is not None:
                    await probe.close()
                await gateway.close()
            return {
                "unloaded_p95_s": unloaded_p95,
                "baseline_loaded_p95_s": baseline_p95,
                "isolated_p95_s": loaded_p95,
                "isolation_ratio": loaded_p95 / unloaded_p95,
                "shed_level": shed_level,
                "bulk_streams_offered": offered["streams"],
                "bulk_rejected": offered["rejected"],
                "bit_identical": True,  # asserted above, both phases
            }

    return asyncio.run(drive())


def build_report(
    scene_name: str,
    scale: float,
    views: int,
    workers: int,
    sim_rounds: int,
    sim_scale: "float | None" = None,
    clients: int = 4,
) -> dict:
    """Run every measurement and shape the BENCH_core.json payload.

    The simulation sweep gets its own resolution scale (default:
    ``scale * 2``, matching the CLI): per-unit costs only show once the
    frame has enough work units, while the render measurements are
    already expensive at the base scale.
    """
    scene = load_scene(scene_name, resolution_scale=scale, seed=0)
    cameras = orbit_cameras(scene, views)
    if sim_scale is None:
        sim_scale = scale * 2
    sim_scene = (
        scene
        if sim_scale == scale
        else load_scene(scene_name, resolution_scale=sim_scale, seed=0)
    )

    entries = []
    for name, (seed_s, fast_s) in (
        ("engine_trajectory", measure_engine_trajectory(scene, cameras, workers)),
        ("hierarchical_render", measure_hierarchical_render(scene)),
        ("pipeline_sim_sweep", measure_pipeline_sim_sweep(sim_scene, sim_rounds)),
        ("serve_throughput", measure_serve_throughput(scene, cameras, clients)),
        (
            "gateway_throughput",
            measure_gateway_throughput(scene, cameras, clients),
        ),
        (
            "cluster_throughput",
            measure_cluster_throughput(scene_name, scale, views),
        ),
    ):
        entries.append(
            {
                "name": name,
                "wall_s": round(fast_s, 4),
                "speedup_vs_seed": round(seed_s / fast_s, 2),
            }
        )
    isolation = measure_admission_isolation(scene_name, scale)
    entries.append(
        {
            "name": "admission_isolation",
            # wall_s: interactive p95 under the shed bulk storm;
            # speedup_vs_seed: vs the class-blind gateway under the
            # same storm.  The gated metric is isolation_ratio
            # (loaded p95 / unloaded p95; acceptance <= 1.3).
            "wall_s": round(isolation["isolated_p95_s"], 4),
            "speedup_vs_seed": round(
                isolation["baseline_loaded_p95_s"]
                / isolation["isolated_p95_s"],
                2,
            ),
            "isolation_ratio": round(isolation["isolation_ratio"], 3),
            "unloaded_p95_s": round(isolation["unloaded_p95_s"], 4),
            "shed_level": isolation["shed_level"],
            "bulk_streams_offered": isolation["bulk_streams_offered"],
            "bulk_rejected": isolation["bulk_rejected"],
        }
    )
    untraced_s, traced_s = measure_trace_overhead(scene, cameras, clients)
    entries.append(
        {
            "name": "trace_overhead",
            # wall_s: traced serving wall time; speedup_vs_seed: the
            # untraced/traced ratio (>= 1.0 means tracing is free).
            # The gated metric is overhead_ratio (acceptance <= 1.05).
            "wall_s": round(traced_s, 4),
            "speedup_vs_seed": round(untraced_s / traced_s, 2),
            "overhead_ratio": round(traced_s / untraced_s, 3),
            "untraced_wall_s": round(untraced_s, 4),
        }
    )
    return {
        "meta": {
            "scene": scene_name,
            "resolution_scale": scale,
            "sim_resolution_scale": sim_scale,
            "width": scene.camera.width,
            "height": scene.camera.height,
            "views": views,
            "workers": workers,
            "sim_rounds": sim_rounds,
            "serve_clients": clients,
        },
        "entries": entries,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scene", default="playroom")
    parser.add_argument("--scale", type=float, default=0.125)
    parser.add_argument("--views", type=int, default=6)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--clients", type=int, default=4,
        help="concurrent clients for the serve_throughput measurement",
    )
    parser.add_argument("--sim-rounds", type=int, default=30)
    parser.add_argument(
        "--sim-scale", type=float, default=None,
        help="resolution scale for the simulation sweep (default: --scale * 2"
        " — simulation costs need enough work units per frame to show)",
    )
    parser.add_argument("--out", default="BENCH_core.json")
    args = parser.parse_args(argv)

    report = build_report(
        args.scene, args.scale, args.views, args.workers, args.sim_rounds,
        sim_scale=args.sim_scale, clients=args.clients,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print(f"{'benchmark':<22}{'wall_s':>9}{'speedup_vs_seed':>17}")
    for entry in report["entries"]:
        print(
            f"{entry['name']:<22}{entry['wall_s']:>9.3f}"
            f"{entry['speedup_vs_seed']:>16.2f}x"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
