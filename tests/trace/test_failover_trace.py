"""Trace-id propagation across failover: one request, one trace.

The acceptance property for the tracing layer: a client-minted trace
id rides the wire through the router to a backend, survives a
mid-stream backend death, and reappears in the replacement backend's
spans — so the capture stitches into ONE trace whose spans come from
the router, the dead backend and the survivor, covering at least five
named stages.

Two environments prove it: real subprocesses under SIGKILL (the spans
a dead process already served must be on disk — the line-buffered
JSONL sink), and the in-process chaos proxy corrupting a FRAME blob
(checksum-triggered failover, no process death at all).
"""

import asyncio

import numpy as np

from repro.chaos import ChaosProxy, ChaosSchedule, Fault, FaultKind
from repro.cluster import (
    BackendSpec,
    ClusterMap,
    HealthMonitor,
    LocalFleet,
    ShardRouter,
)
from repro.core.pipeline import GSTGRenderer
from repro.engine import RenderEngine
from repro.gaussians.camera import Camera
from repro.gaussians.cloud import cloud_fingerprint
from repro.serve import AsyncGatewayClient, RenderGateway, RenderService
from repro.tiles.boundary import BoundaryMethod
from repro.trace import STAGES, Tracer, load_spans, stitch
from tests.conftest import make_cloud


def test_sigkill_failover_stitches_one_trace_across_nodes(tmp_path):
    """2 subprocess backends capturing to ``--trace-dir``, the owner
    SIGKILLed mid-stream: the client's trace id must stitch spans from
    the router, the victim AND the survivor into one trace with at
    least five named stages — and the stream itself stays ordered and
    bit-identical."""
    rng = np.random.default_rng(67)
    cloud = make_cloud(25, rng)
    base = [
        Camera(width=72, height=56, fx=66.0 + i, fy=66.0 + i)
        for i in range(8)
    ]
    # Long enough that the SIGKILL lands mid-send (see test_fleet.py).
    cameras = base * 48
    renderer = GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)
    engine = RenderEngine(renderer)
    reference = [engine.render(cloud, camera) for camera in base]
    trace_id = "cli-failover-1"

    fleet = LocalFleet(2, auth_token="fleet-secret", trace_dir=tmp_path)
    specs = fleet.start()

    async def main():
        cluster_map = ClusterMap(specs, replication=2)
        router_tracer = Tracer(
            node="router", sink=tmp_path / "router.jsonl"
        )
        router = ShardRouter(
            cluster_map, auth_token="fleet-secret", tracer=router_tracer
        )
        await router.start()
        victim = cluster_map.owner(cloud_fingerprint(cloud)).backend_id
        try:
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", router.tcp_port, auth_token="fleet-secret"
            )
            try:
                results = []
                async for index, result in client.stream_trajectory(
                    cloud, cameras, trace=trace_id
                ):
                    results.append((index, result))
                    if index == 2:
                        await asyncio.get_running_loop().run_in_executor(
                            None, fleet.kill, victim
                        )
                return results, router.stats.failovers, victim
            finally:
                await client.close()
        finally:
            await router.close()
            router_tracer.close()

    try:
        results, failovers, victim = asyncio.run(main())
    finally:
        fleet.close()

    assert failovers >= 1
    indices = [index for index, _ in results]
    assert indices == list(range(len(cameras)))
    for index, result in results:
        assert np.array_equal(result.image, reference[index % len(base)].image)

    # The capture holds one file per node; the client's id stitches
    # them into one trace spanning all three.
    spans = stitch(load_spans(tmp_path))[trace_id]
    nodes = {span["node"] for span in spans}
    assert nodes == {"router", "backend-0", "backend-1"}
    stages = {span["name"] for span in spans}
    assert len(stages & set(STAGES)) >= 5, stages
    assert {"route", "render", "wire"} <= stages
    # Both backends rendered under the SAME client id — the victim's
    # spans survived its SIGKILL because the sink is line-buffered.
    for backend in ("backend-0", "backend-1"):
        assert any(
            s["node"] == backend and s["name"] == "render" for s in spans
        ), backend
    # The router's route span names the failover it performed.
    route = next(s for s in spans if s["name"] == "route")
    assert route["attrs"]["failovers"] >= 1
    assert len(route["attrs"]["backends"]) >= 2


# Offset inside the first FRAME's pixel blob (see tests/chaos).
_IN_FIRST_BLOB = 5_000


def test_chaos_corruption_failover_keeps_the_trace_stitched():
    """No process dies here: the chaos proxy corrupts one FRAME byte on
    the owner's first link, the checksum turns it into a failover, and
    the replacement backend's spans still carry the client's id."""
    rng = np.random.default_rng(68)
    cloud = make_cloud(30, rng)
    cameras = [
        Camera(width=88, height=64, fx=75.0 + i, fy=75.0 + i)
        for i in range(4)
    ]
    renderer = GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)
    trace_id = "cli-chaos-1"

    async def main():
        services, gateways, proxies, specs, tracers = [], [], [], [], []
        for index in range(2):
            tracer = Tracer(node=f"b{index}")
            service = RenderService(
                renderer, max_batch_size=4, max_wait=0.002, tracer=tracer
            )
            gateway = RenderGateway(
                service, tracer=tracer, node_id=f"b{index}"
            )
            await gateway.start()
            proxy = ChaosProxy("127.0.0.1", gateway.tcp_port)
            await proxy.start()
            services.append(service)
            gateways.append(gateway)
            proxies.append(proxy)
            tracers.append(tracer)
            specs.append(BackendSpec(f"b{index}", "127.0.0.1", proxy.port))
        cluster_map = ClusterMap(specs, replication=2)
        monitor = HealthMonitor(cluster_map)  # never started: no probes
        router_tracer = Tracer(node="router")
        router = ShardRouter(
            cluster_map, monitor=monitor, tracer=router_tracer
        )
        await router.start()
        ranked = cluster_map.replicas(cloud_fingerprint(cloud))
        by_id = dict(zip((s.backend_id for s in specs), proxies))
        by_id[ranked[0].backend_id].schedule = ChaosSchedule(
            per_connection={
                0: [Fault(FaultKind.CORRUPT, after_bytes=_IN_FIRST_BLOB)]
            }
        )
        try:
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", router.tcp_port
            )
            try:
                indices = []
                async for index, _result in client.stream_trajectory(
                    cloud, cameras, trace=trace_id
                ):
                    indices.append(index)
            finally:
                await client.close()
            await router.start_http()
            http = await _http_get(
                router.http_port, f"/traces?trace={trace_id}"
            )
            metrics = await _http_get(router.http_port, "/metrics")
            return (
                indices,
                router.stats.failovers,
                [t.spans(trace=trace_id) for t in tracers],
                router_tracer.spans(trace=trace_id),
                http,
                metrics,
            )
        finally:
            await router.close()
            for proxy in proxies:
                await proxy.close()
            for gateway in gateways:
                await gateway.close()
            for service in services:
                await service.close()

    indices, failovers, backend_spans, router_spans, http, metrics = (
        asyncio.run(main())
    )
    assert indices == list(range(len(cameras)))
    assert failovers >= 1
    # Both backends emitted spans under the client's id: the owner
    # before the corruption, the replica after the failover.
    assert all(spans for spans in backend_spans), backend_spans
    assert any(
        span["name"] == "render"
        for spans in backend_spans
        for span in spans
    )
    assert {s["name"] for s in router_spans} >= {"admission", "route"}

    import json

    status, body = http
    assert status == 200
    served = json.loads(body)
    assert served["node"] == "router"
    names = {s["name"] for s in served["traces"][trace_id]}
    assert "route" in names
    status, body = metrics
    assert status == 200
    doc = json.loads(body)
    assert doc["role"] == "router"
    assert "stage_ms.route" in doc["histograms"]
    assert "health" in doc  # the per-backend health view rides along


async def _http_get(port, path):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    await writer.drain()
    data = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body
