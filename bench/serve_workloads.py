"""W3 ``gateway_novel_views``, W4 ``gateway_replay``, W5 ``cluster_replay``.

Two closed-loop clients (this box has two cores), each on its own
playroom scene, talk over localhost TCP to

* W3/W4 — a ``RenderGateway`` over a ``RenderService`` with a fresh
  ``SharedRenderCache``;
* W5 — a ``ShardRouter`` over a ``LocalFleet`` of two backend processes.

W3 asks for views nobody has rendered (every request a cache miss, the
render dominates); W4 and W5 replay a known 24-view trajectory (every
frame a cache hit, protocol and sockets dominate).  W5 sends W4's traffic
through the router, so W5 - W4 is the relay hop's tax.

The traced pass adds a *ladder* — the same views, one caller, through
engine, in-process service, gateway (and router) — whose paired
differences are each layer's tax over the one below, and a run with the
repo's own ``Tracer`` switched on, joined to client timings by
client-minted trace ids.
"""

from __future__ import annotations

import asyncio
import io
import json
import shutil
import time
from pathlib import Path

import numpy as np

from harness import (
    OUT_DIR,
    SCENE_SEED,
    SpanLog,
    ViewStream,
    bench_scene,
    mean,
    pct,
    peak_rss_mb,
    repeat_setup,
    seeded_orbit,
)
from repro.cluster import ClusterMap, LocalFleet, ShardRouter
from repro.core.pipeline import GSTGRenderer
from repro.engine import RenderEngine
from repro.serve import (
    AsyncGatewayClient,
    GatewayError,
    RenderGateway,
    RenderService,
    SharedRenderCache,
)
from repro.serve import protocol
from repro.tiles.boundary import BoundaryMethod
from repro.trace import Tracer

CLIENTS = 2
SCENE = ("playroom", 0.125)
ORBIT_VIEWS = {False: 24, True: 8}  # quick -> views in the replayed orbit
VERIFY_NOVEL_EVERY = 10   # W3: re-render every 10th served frame directly
VERIFY_ORBIT_EVERY = 3    # W4/W5: re-render every 3rd orbit view directly
WARM_STREAM, TIMED_STREAM, LADDER_STREAM = 100, 0, 200
#: Sizes of the traced pass, full and quick: ladder views, novel-view
#: requests per client, replayed streams per client, microbench repeats.
TRACED = {
    False: {"ladder": 24, "novel": 30, "streams": 60, "micro": 50},
    True: {"ladder": 6, "novel": 4, "streams": 6, "micro": 10},
}
SPAN_NAMES = ("wire", "admission", "queue", "cache", "batch", "render")


def renderer():
    return GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)


def client_scenes():
    name, scale = SCENE
    return [bench_scene(name, scale, SCENE_SEED + c) for c in range(CLIENTS)]


# -- the serving stacks --------------------------------------------------

class GatewayStack:
    """cache + service + gateway in this process, and its clients."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.cache = SharedRenderCache()
        self.service = RenderService(renderer(), cache=self.cache, tracer=tracer)
        self.gateway = RenderGateway(self.service, tracer=tracer)
        self.clients: "list[AsyncGatewayClient]" = []

    async def start(self) -> "GatewayStack":
        await self.gateway.start()
        self.host, self.port = self.gateway.host, self.gateway.tcp_port
        return self

    async def connect(self) -> AsyncGatewayClient:
        client = await AsyncGatewayClient.connect(self.host, self.port)
        self.clients.append(client)
        return client

    def rejected(self) -> int:
        return self.gateway.stats.rejected

    def failovers(self) -> int:
        return 0

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        await self.gateway.close()
        await self.service.close()
        self.cache.close()


class ClusterStack:
    """Two backend processes + an in-process shard router."""

    def __init__(self, tracer=None, trace_dir=None) -> None:
        self.tracer = tracer
        self.fleet = LocalFleet(2, cache_frames=64, trace_dir=trace_dir)
        self.clients: "list[AsyncGatewayClient]" = []
        self.router = None

    async def start(self) -> "ClusterStack":
        start = time.perf_counter()
        self.fleet.start()
        self.fleet_start_s = time.perf_counter() - start
        try:
            self.cluster_map = ClusterMap(self.fleet.specs, replication=2)
            self.router = ShardRouter(self.cluster_map, tracer=self.tracer)
            await self.router.start()
        except BaseException:
            self.fleet.close()
            raise
        self.host, self.port = self.router.host, self.router.tcp_port
        return self

    async def connect(self, spec=None) -> AsyncGatewayClient:
        host, port = (self.host, self.port) if spec is None else (spec.host, spec.port)
        client = await AsyncGatewayClient.connect(host, port)
        self.clients.append(client)
        return client

    def rejected(self) -> int:
        return self.router.stats.rejected

    def failovers(self) -> int:
        return self.router.stats.failovers

    async def close(self) -> None:
        try:
            for client in self.clients:
                await client.close()
            await self.router.close()
        finally:
            self.fleet.close()


def open_stack(workload: str, **options):
    return ClusterStack(**options) if workload == "cluster_replay" else GatewayStack(**options)


# -- client traffic ------------------------------------------------------

class ClientRun:
    """What one closed-loop client observed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.frames = 0
        self.first: "list[float]" = []  # request sent -> first decoded frame
        self.gaps: "list[float]" = []   # streams: one frame -> the next
        self.kept: "list[tuple]" = []   # W3: (camera, image) to verify
        self.first_stream = None        # W4/W5: images to verify
        self.last_stream = None
        self.end = 0.0


async def novel_views(
    client, cloud, views: ViewStream, *, seconds=None, ops=None, trace=None, log=None
) -> ClientRun:
    """Ask for never-repeated views until ``seconds`` pass or ``ops`` are
    done; ``trace`` is the prefix of client-minted trace ids."""
    run = ClientRun()
    start = time.perf_counter()
    while (
        time.perf_counter() - start < seconds if ops is None else run.attempted < ops
    ):
        camera = views.next()
        trace_id = None if trace is None else f"{trace}-{run.attempted}"
        run.attempted += 1
        sent = time.perf_counter()
        try:
            result = await client.render_frame(
                cloud, camera, request_class="interactive", trace=trace_id
            )
        except GatewayError:
            run.failed += 1
            continue
        done = time.perf_counter()
        run.frames += 1
        run.first.append(done - sent)
        if log is not None:
            log.add("request", sent, done, trace_id)
        if run.attempted % VERIFY_NOVEL_EVERY == 1:
            run.kept.append((camera, result.image))
    run.end = time.perf_counter()
    return run


async def replay(
    client, cloud, cameras, *, seconds=None, ops=None, trace=None, log=None
) -> ClientRun:
    """Stream the known trajectory again and again."""
    run = ClientRun()
    start = time.perf_counter()
    while (
        time.perf_counter() - start < seconds if ops is None else run.attempted < ops
    ):
        trace_id = None if trace is None else f"{trace}-{run.attempted}"
        run.attempted += 1
        images = []
        sent = last = time.perf_counter()
        try:
            async for _, result in client.stream_trajectory(
                cloud, cameras, request_class="interactive", trace=trace_id
            ):
                now = time.perf_counter()
                if images:
                    run.gaps.append(now - last)
                else:
                    run.first.append(now - sent)
                last = now
                images.append(result.image)
        except GatewayError:
            run.failed += 1
            continue
        if len(images) != len(cameras):
            run.failed += 1
            continue
        run.frames += len(images)
        if log is not None:
            log.add("stream", sent, last, trace_id)
        if run.first_stream is None:
            run.first_stream = images
        run.last_stream = images
    run.end = time.perf_counter()
    return run


async def drive(
    workload, clients, scenes, inputs, *, seconds=None, ops=None, trace=None, log=None
) -> "tuple[list[ClientRun], float]":
    """Run every client's traffic concurrently; returns runs and window.
    Client ``c`` mints trace ids ``<trace><c>-<n>``."""
    traffic = novel_views if workload == "gateway_novel_views" else replay
    start = time.perf_counter()
    runs = await asyncio.gather(
        *(
            traffic(
                client, scene.cloud, views, seconds=seconds, ops=ops, log=log,
                trace=None if trace is None else f"{trace}{c}",
            )
            for c, (client, scene, views) in enumerate(zip(clients, scenes, inputs))
        )
    )
    return runs, max(run.end for run in runs) - start


def timed_inputs(workload: str, scenes, seed: int, stream: int, quick: bool):
    if workload == "gateway_novel_views":
        return [ViewStream(s, seed, stream + c) for c, s in enumerate(scenes)]
    return [
        seeded_orbit(s, seed, stream + c, ORBIT_VIEWS[quick])
        for c, s in enumerate(scenes)
    ]


async def _bring_up(workload: str, seed: int, quick: bool, **options):
    """Everything before the first timed op: stack, connections, scene
    push, and warm-up traffic (on W4/W5 the pass that fills the cache)."""
    scenes = client_scenes()
    stack = await open_stack(workload, **options).start()
    try:
        clients = [await stack.connect() for _ in scenes]
        for client, scene in zip(clients, scenes):
            await client.ensure_scene(scene.cloud)
        inputs = timed_inputs(workload, scenes, seed, TIMED_STREAM, quick)
        # Novel views warm up on views of their own; a replay's warm-up
        # *is* its first two passes over the trajectory.
        warm = (
            timed_inputs(workload, scenes, seed, WARM_STREAM, quick)
            if workload == "gateway_novel_views" else inputs
        )
        await drive(workload, clients, scenes, warm, ops=2)
    except BaseException:
        await stack.close()
        raise
    return stack, clients, scenes, inputs


def _verify(workload: str, scenes, inputs, runs) -> "tuple[int, int]":
    """Bit-identity against direct ``RenderEngine.render`` (checked, bad)."""
    engine = RenderEngine(renderer())
    checked = bad = 0
    for scene, views, run in zip(scenes, inputs, runs):
        if workload == "gateway_novel_views":
            for camera, image in run.kept:
                checked += 1
                bad += not np.array_equal(
                    engine.render(scene.cloud, camera).image, image
                )
            continue
        for index in range(0, len(views), VERIFY_ORBIT_EVERY):
            reference = engine.render(scene.cloud, views[index]).image
            for stream in (run.first_stream, run.last_stream):
                checked += 1
                bad += stream is None or not np.array_equal(reference, stream[index])
    return checked, bad


def _new_loop():
    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    return loop


def _end_loop(loop) -> None:
    loop.run_until_complete(loop.shutdown_default_executor())
    loop.close()


def run_end_to_end(workload: str, seed: int, seconds: float, quick: bool) -> dict:
    loop = _new_loop()
    try:
        (stack, clients, scenes, inputs), setups = repeat_setup(
            lambda: loop.run_until_complete(_bring_up(workload, seed, quick)),
            lambda context: loop.run_until_complete(context[0].close()),
            most=1 if quick else 3,
        )
        try:
            runs, window = loop.run_until_complete(
                drive(workload, clients, scenes, inputs, seconds=seconds)
            )
            failovers = stack.failovers()
        finally:
            loop.run_until_complete(stack.close())
    finally:
        _end_loop(loop)
    if failovers:
        raise RuntimeError(f"run invalid: {failovers} failover(s) on a healthy fleet")
    # The backends have exited and been waited for, so RUSAGE_CHILDREN
    # holds the largest of them.
    rss = peak_rss_mb(children=isinstance(stack, ClusterStack))

    checked, bad = _verify(workload, scenes, inputs, runs)
    frames = sum(run.frames for run in runs)
    first = [v * 1e3 for run in runs for v in run.first]
    # A one-frame request has no gaps: its frame time is its latency.
    per_frame = [v * 1e3 for run in runs for v in run.gaps] or first
    return {
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs) + bad,
        "checked": checked,
        "setup_s": setups,
        "samples": {"frame_ms": len(per_frame), "ttff_ms": len(first)},
        "metrics": {
            "frames_per_s": frames / window,
            "frame_ms_p50": pct(per_frame, 50),
            "frame_ms_p90": pct(per_frame, 90),
            "ttff_ms_p50": pct(first, 50),
            "ttff_ms_p95": pct(first, 95),
            "peak_rss_mb": rss,
        },
    }


# -- the traced pass -----------------------------------------------------

def protocol_metrics(result, cloud, repeats: int) -> dict:
    """Encode/decode cost of one served frame and one pushed scene."""
    encode, decode = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        payload = protocol.encode_result_frame(1, 0, result, backend="gateway")
        encode.append(time.perf_counter() - start)
        start = time.perf_counter()
        frame = protocol.read_frame_from(io.BytesIO(payload))
        protocol.verify_frame_checksum(frame)
        protocol.decode_result_frame(frame)
        decode.append(time.perf_counter() - start)
    scene_ms = []
    for _ in range(max(repeats // 10, 3)):
        start = time.perf_counter()
        header, blob = protocol.encode_cloud(cloud)
        scene_payload = protocol.encode_frame(protocol.MessageType.SCENE, header, blob)
        scene_ms.append(time.perf_counter() - start)
        protocol.decode_cloud(header, blob)
    return {
        "serve.protocol.encode_ms": pct(encode, 50) * 1e3,
        "serve.protocol.decode_ms": pct(decode, 50) * 1e3,
        "serve.protocol.frame_bytes": float(len(payload)),
        "serve.protocol.scene_encode_ms": pct(scene_ms, 50) * 1e3,
        "serve.protocol.scene_bytes": float(len(scene_payload)),
    }


def cache_metrics(results, cloud, cameras) -> dict:
    """``SharedRenderCache.put`` / ``get`` on their own cache."""
    the_renderer = renderer()
    put, get = [], []
    with SharedRenderCache() as cache:
        for camera, result in zip(cameras, results):
            start = time.perf_counter()
            cache.put(cloud, camera, the_renderer, result)
            put.append(time.perf_counter() - start)
        for camera in cameras:
            start = time.perf_counter()
            hit = cache.get(cloud, camera, the_renderer)
            get.append(time.perf_counter() - start)
            if hit is None:
                raise RuntimeError("SharedRenderCache lost a frame it was given")
    return {
        "serve.cache.put_ms": pct(put, 50) * 1e3,
        "serve.cache.get_ms": pct(get, 50) * 1e3,
    }


async def _timed(call) -> float:
    start = time.perf_counter()
    await call
    return (time.perf_counter() - start) * 1e3


def _paired_tax(upper, lower) -> float:
    """Median over views of (this layer - the layer below)."""
    return pct([u - l for u, l in zip(upper, lower)], 50)


async def gateway_ladder(scene, cameras) -> "tuple[dict, list]":
    """One caller, the same views: engine -> service -> gateway.

    The rungs are climbed view by view — not rung by rung — so a drift of
    the machine during the ladder falls on all three alike and cancels in
    the per-view differences.
    """
    cloud = scene.cloud
    engine = RenderEngine(renderer())
    engine_ms, service_miss, gateway_miss, results = [], [], [], []
    stack = await GatewayStack().start()
    try:
        client = await stack.connect()
        await client.ensure_scene(cloud)
        with SharedRenderCache() as cache:
            async with RenderService(renderer(), cache=cache) as service:
                for camera in cameras:
                    start = time.perf_counter()
                    results.append(engine.render(cloud, camera))
                    engine_ms.append((time.perf_counter() - start) * 1e3)
                    service_miss.append(
                        await _timed(service.render_frame(cloud, camera))
                    )
                    gateway_miss.append(
                        await _timed(client.render_frame(cloud, camera))
                    )
                service_hit = [
                    await _timed(service.render_frame(cloud, camera))
                    for camera in cameras
                ]
        gateway_hit = [
            await _timed(client.render_frame(cloud, camera)) for camera in cameras
        ]
    finally:
        await stack.close()
    return {
        "serve.service.tax_ms": _paired_tax(service_miss, engine_ms),
        "serve.service.hit_ms": pct(service_hit, 50),
        "serve.gateway.tax_ms": _paired_tax(gateway_miss, service_miss),
        "serve.gateway.hit_ms": pct(gateway_hit, 50),
    }, results


async def cluster_ladder(stack: ClusterStack, scene, cameras) -> dict:
    """Cache hits through the router against hits straight from the
    backend that owns the scene, alternating per view."""
    cloud = scene.cloud
    via_router = await stack.connect()
    _, meta = await via_router.render_frame(cloud, cameras[0], with_meta=True)
    direct = await stack.connect(stack.cluster_map.get(meta["backend"]))
    for camera in cameras:  # fill the owner's cache
        await via_router.render_frame(cloud, camera)
    routed, straight = [], []
    for camera in cameras:
        routed.append(await _timed(via_router.render_frame(cloud, camera)))
        straight.append(await _timed(direct.render_frame(cloud, camera)))
    return {"cluster.route_tax_ms": _paired_tax(routed, straight)}


def _union_ms(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals, overlaps once."""
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def span_metrics(spans, log: SpanLog, prefix: str, names) -> dict:
    """Per request (joined on the client-minted trace id): mean time in
    each of the repo tracer's stages — summed over a stream's frames —
    and the share of client-observed time the spans cover."""
    by_trace: "dict[str, list[dict]]" = {}
    for span in spans:
        by_trace.setdefault(span["trace"], []).append(span)
    joined = [
        (by_trace[row[4]], (row[2] - row[1]) * 1e3)
        for row in log.rows
        if row[4] in by_trace
    ]
    if not joined:
        raise RuntimeError("no server span carries a client-minted trace id")
    metrics = {
        f"{prefix}{name}_ms": mean(
            [
                sum(s["dur_ms"] for s in request if s["name"] == name)
                for request, _ in joined
            ]
        )
        for name in names
    }
    metrics[f"{prefix}coverage"] = mean(
        [
            _union_ms((s["t_ms"], s["t_ms"] + s["dur_ms"]) for s in request)
            / observed
            for request, observed in joined
        ]
    )
    return metrics


def _read_jsonl(path: Path) -> "list[dict]":
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


async def counters(stack, client) -> dict:
    """Counters so far: the service's and batcher's read in process on a
    gateway stack; on the fleet, the cluster-wide STATS answer plus the
    router's own."""
    if isinstance(stack, ClusterStack):
        remote = await client.stats_dict()
        return {
            "requests": remote["requests"],
            "cache_hits": remote["cache_hits"],
            "frames_relayed": stack.router.stats.frames_relayed,
        }
    service, batch = stack.service.stats, stack.service.batch_stats
    return {
        "requests": service.requests,
        "cache_hits": service.cache_hits,
        "coalesced": service.coalesced,
        "engine_renders": service.engine_renders,
        "batches": batch.batches,
        "batched_items": batch.batched_items,
    }


async def traced_traffic(workload, seed, quick, ops, ladder, **options) -> dict:
    """Bring a stack up, run ``ops`` ops per client, tear it down.

    With a ``tracer`` option the clients mint trace ids and log their own
    spans; ``ladder`` (W5 only) runs on the warm fleet afterwards.
    """
    traced = "tracer" in options
    log = SpanLog()
    stack, clients, scenes, inputs = await _bring_up(workload, seed, quick, **options)
    try:
        before = await counters(stack, clients[0])
        runs, window = await drive(
            workload, clients, scenes, inputs, ops=ops,
            trace="c" if traced else None, log=log if traced else None,
        )
        after = await counters(stack, clients[0])
        out = {
            "runs": runs, "window": window, "log": log, "scenes": scenes,
            "inputs": inputs, "rejected": stack.rejected(),
            "failovers": stack.failovers(),
            "delta": {key: after[key] - before[key] for key in after},
            "fleet_start_s": getattr(stack, "fleet_start_s", 0.0),
        }
        if traced and ladder is not None:
            out["ladder"] = await ladder(stack)
    finally:
        await stack.close()
    return out


def run_traced(workload: str, seed: int, seconds: float, quick: bool) -> dict:
    sizes = TRACED[quick]
    cluster = workload == "cluster_replay"
    ops = sizes["novel"] if workload == "gateway_novel_views" else sizes["streams"]
    ladder_scene = client_scenes()[0]
    ladder_views = ViewStream(ladder_scene, seed, LADDER_STREAM).take(sizes["ladder"])
    metrics: "dict[str, float]" = {}
    trace_dir = OUT_DIR / "fleet-trace"
    tracer = Tracer("router" if cluster else "gateway", capacity=1 << 18)
    options = {"tracer": tracer}
    if cluster:
        shutil.rmtree(trace_dir, ignore_errors=True)
        options["trace_dir"] = trace_dir
        ladder = lambda stack: cluster_ladder(stack, ladder_scene, ladder_views)
    else:
        ladder = None

    loop = _new_loop()
    try:
        if cluster:
            result = RenderEngine(renderer()).render(
                ladder_scene.cloud, ladder_views[0]
            )
        else:
            rungs, results = loop.run_until_complete(
                gateway_ladder(ladder_scene, ladder_views)
            )
            metrics.update(rungs)
            metrics.update(cache_metrics(results, ladder_scene.cloud, ladder_views))
            result = results[0]
        metrics.update(protocol_metrics(result, ladder_scene.cloud, sizes["micro"]))
        # The workload's own traffic, first untraced, then with the repo's
        # tracer on every node and trace ids minted by the clients.
        bare = loop.run_until_complete(
            traced_traffic(workload, seed, quick, ops, None)
        )
        run = loop.run_until_complete(
            traced_traffic(workload, seed, quick, ops, ladder, **options)
        )
    finally:
        _end_loop(loop)

    checked, bad = _verify(workload, run["scenes"], run["inputs"], run["runs"])
    delta, log = run["delta"], run["log"]
    spans = tracer.spans()
    if cluster:
        metrics.update(run["ladder"])
        route = span_metrics(spans, log, "cluster.span.", ("route",))
        metrics.update(
            {
                "cluster.span.route_ms": route["cluster.span.route_ms"],
                "cluster.frames_relayed_count": float(delta["frames_relayed"]),
                "cluster.failovers_count": float(run["failovers"]),
                "cluster.fleet_start_s": run["fleet_start_s"],
            }
        )
        for path in sorted(trace_dir.glob("*.jsonl")):  # the backends' spans
            spans += _read_jsonl(path)
        shutil.rmtree(trace_dir, ignore_errors=True)
    else:
        metrics.update(span_metrics(spans, log, "serve.span.", SPAN_NAMES))
        metrics.update(
            {
                "serve.service.engine_renders_count": float(delta["engine_renders"]),
                "serve.service.coalesced_count": float(delta["coalesced"]),
                "serve.scheduler.flushes_count": float(delta["batches"]),
                "serve.scheduler.mean_batch": (
                    delta["batched_items"] / delta["batches"]
                    if delta["batches"] else 0.0
                ),
                "serve.admission.rejected_count": float(run["rejected"]),
            }
        )
    runs = run["runs"]
    metrics["serve.cache.hit_ratio"] = delta["cache_hits"] / delta["requests"]
    metrics["trace.overhead_ratio"] = run["window"] / bare["window"]
    metrics["trace.spans_per_frame"] = (len(spans) + len(log.rows)) / sum(
        r.frames for r in runs
    )
    return {
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs) + bad,
        "checked": checked,
        "metrics": metrics,
        "span_log": log,
    }
