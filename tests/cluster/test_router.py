"""Tests for the shard router: routing, failover, 503s, relaying.

The acceptance properties: frames relayed through router → gateway →
service are bit-identical to direct ``RenderEngine.render`` output; a
backend dying mid-stream fails the stream over to a replica with no
duplicated, missing or reordered frames; and a scene with no live
replica gets an immediate 503, never a hang.

Backends here are real in-process ``RenderGateway`` instances on
localhost sockets (subprocess fleets are exercised in
``test_fleet.py``); closing a gateway is the backend-death stand-in.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.cluster import BackendSpec, ClusterMap, HealthMonitor, ShardRouter
from repro.core.pipeline import GSTGRenderer
from repro.engine import RenderEngine
from repro.gaussians.camera import Camera
from repro.gaussians.cloud import cloud_fingerprint
from repro.serve import (
    AsyncGatewayClient,
    GatewayClientPool,
    GatewayError,
    RenderGateway,
    RenderService,
)
from repro.serve import protocol
from repro.serve.protocol import ErrorCode, MessageType
from repro.tiles.boundary import BoundaryMethod
from tests.conftest import make_cloud


@pytest.fixture(scope="module")
def renderer():
    return GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)


@pytest.fixture(scope="module")
def scene():
    rng = np.random.default_rng(41)
    cloud = make_cloud(35, rng)
    cameras = [
        Camera(width=88, height=64, fx=75.0 + i, fy=75.0 + i) for i in range(6)
    ]
    return cloud, cameras


@pytest.fixture(scope="module")
def reference(scene, renderer):
    cloud, cameras = scene
    engine = RenderEngine(renderer)
    return [engine.render(cloud, camera) for camera in cameras]


def run_cluster(
    renderer,
    body,
    *,
    backends=2,
    replication=2,
    router_kwargs=None,
    service_kwargs=None,
):
    """Start N gateways + a router, run ``body``, tear everything down.

    ``body(router, cluster_map, gateways, services)`` may close
    individual gateways to simulate backend deaths; teardown tolerates
    already-closed ones.
    """

    async def main():
        services = [
            RenderService(
                renderer,
                **(service_kwargs or {"max_batch_size": 4, "max_wait": 0.002}),
            )
            for _ in range(backends)
        ]
        gateways = []
        specs = []
        for index, service in enumerate(services):
            gateway = RenderGateway(service)
            await gateway.start()
            gateways.append(gateway)
            specs.append(
                BackendSpec(f"b{index}", "127.0.0.1", gateway.tcp_port)
            )
        cluster_map = ClusterMap(specs, replication=replication)
        router = ShardRouter(cluster_map, **(router_kwargs or {}))
        await router.start()
        try:
            return await body(router, cluster_map, gateways, services)
        finally:
            await router.close()
            for gateway in gateways:
                await gateway.close()
            for service in services:
                await service.close()

    return asyncio.run(main())


def owner_index(cluster_map, cloud) -> int:
    """Index of the gateway owning ``cloud`` (backend ids are ``b<i>``)."""
    return int(cluster_map.owner(cloud_fingerprint(cloud)).backend_id[1:])


class TestRouting:
    def test_stream_bit_identical_and_owner_sharded(
        self, scene, renderer, reference
    ):
        """The acceptance criterion: frames through router → gateway →
        service equal direct engine renders, and the scene's whole
        stream lands on its rendezvous owner."""
        cloud, cameras = scene

        async def body(router, cluster_map, gateways, services):
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", router.tcp_port
            )
            try:
                results = [
                    (index, result)
                    async for index, result in client.stream_trajectory(
                        cloud, cameras
                    )
                ]
            finally:
                await client.close()
            return results, owner_index(cluster_map, cloud), [
                gateway.stats.streams for gateway in gateways
            ]

        results, owner, streams = run_cluster(renderer, body)
        assert [index for index, _ in results] == list(range(len(cameras)))
        for (_, result), ref in zip(results, reference):
            assert np.array_equal(result.image, ref.image)
            assert result.stats == ref.stats
        # All traffic on the owner, none on the replica.
        assert streams[owner] == 1
        assert sum(streams) == 1

    def test_scene_replicated_to_standby(self, scene, renderer):
        """SCENE payloads are placed on every replica eagerly, so a
        failover target already holds the scene."""
        cloud, cameras = scene

        async def body(router, cluster_map, gateways, services):
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", router.tcp_port
            )
            try:
                await client.ensure_scene(cloud)
            finally:
                await client.close()
            fingerprint = cloud_fingerprint(cloud)
            return [fingerprint in gateway._scenes for gateway in gateways]

        placed = run_cluster(renderer, body, backends=3, replication=2)
        assert sum(placed) == 2  # the replica set, not the whole fleet

    def test_render_routes_and_matches(self, scene, renderer, reference):
        cloud, cameras = scene

        async def body(router, cluster_map, gateways, services):
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", router.tcp_port
            )
            try:
                return await client.render_frame(cloud, cameras[2])
            finally:
                await client.close()

        result = run_cluster(renderer, body)
        assert np.array_equal(result.image, reference[2].image)
        assert result.stats == reference[2].stats

    def test_stats_aggregation(self, scene, renderer):
        cloud, cameras = scene

        async def body(router, cluster_map, gateways, services):
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", router.tcp_port
            )
            try:
                await client.render_frame(cloud, cameras[0])
                return await client.stats_dict()
            finally:
                await client.close()

        stats = run_cluster(renderer, body)
        assert stats["engine_renders"] == 1  # summed across backends
        assert stats["requests"] == 1
        gateway = stats["gateway"]
        assert gateway["role"] == "router"
        assert gateway["requests"] == 1
        assert set(gateway["backends"]) == {"b0", "b1"}
        assert gateway["replication"] == 2
        assert all(entry["up"] for entry in gateway["backends"].values())


class TestFailover:
    def test_mid_stream_backend_death_no_dups_no_reorder(
        self, scene, renderer, reference
    ):
        """The tentpole failure mode: the owner dies mid-stream; the
        client still sees every index exactly once, in order, with
        bit-identical frames, completed by the replica."""
        cloud, cameras = scene
        long_trajectory = list(cameras) * 8  # keep the owner mid-flight

        async def body(router, cluster_map, gateways, services):
            owner = owner_index(cluster_map, cloud)
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", router.tcp_port
            )
            try:
                results = []
                async for index, result in client.stream_trajectory(
                    cloud, long_trajectory
                ):
                    results.append((index, result))
                    if index == 1:
                        await gateways[owner].close()
            finally:
                await client.close()
            return results, router.stats.failovers, owner, [
                gateway.stats.streams for gateway in gateways
            ]

        results, failovers, owner, streams = run_cluster(renderer, body)
        indices = [index for index, _ in results]
        assert indices == list(range(len(results)))  # ordered, no dups
        assert len(results) == len(scene[1]) * 8  # ... and no gaps
        for index, result in results:
            ref = reference[index % len(reference)]
            assert np.array_equal(result.image, ref.image)
            assert result.stats == ref.stats
        assert failovers >= 1
        assert streams[1 - owner] >= 1  # the replica served the tail

    @pytest.mark.parametrize("bad_index", [1, 4])
    def test_corrupt_frame_mid_stream_fails_over_at_that_index(
        self, scene, renderer, reference, bad_index
    ):
        """The owner sends a frame whose blob fails its ``sha256`` at an
        index past the first: the router relays the frames before it,
        never the corrupt one, and the replica renders the rest — one
        gapless, bit-identical stream.  The relay checks the digest the
        link's read loop started on the digest thread."""
        cloud, cameras = scene
        scene_id = cloud_fingerprint(cloud)
        ids = ("a", "b")
        bad_id = ClusterMap(
            [BackendSpec(backend_id, "127.0.0.1", 1) for backend_id in ids]
        ).owner(scene_id).backend_id
        good_id = ids[1 - ids.index(bad_id)]
        relayed_by_bad = []

        async def corrupting_backend(reader, writer):
            from repro.serve import protocol
            from repro.serve.protocol import MessageType

            writer.write(protocol.encode_frame(
                MessageType.HELLO, {"version": 2, "max_pending": 64, "scenes": []}
            ))
            await writer.drain()
            while True:
                frame = await protocol.read_frame(reader)
                if frame is None:
                    break
                if frame.type is MessageType.SCENE:
                    pushed = protocol.decode_cloud(frame.header, frame.blob)
                    writer.write(protocol.encode_frame(
                        MessageType.SCENE_OK,
                        {"scene_id": cloud_fingerprint(pushed)},
                    ))
                elif frame.type is MessageType.STREAM:
                    request_id = frame.header["request_id"]
                    for index in range(len(frame.header["cameras"])):
                        payload = protocol.encode_result_frame(
                            request_id, index, reference[index]
                        )
                        if index == bad_index:
                            payload = payload[:-1] + bytes([payload[-1] ^ 1])
                        writer.write(payload)
                        relayed_by_bad.append(index)
                        if index == bad_index:
                            break
                await writer.drain()
            writer.close()

        async def main():
            fake = await asyncio.start_server(
                corrupting_backend, host="127.0.0.1", port=0
            )
            service = RenderService(renderer, max_batch_size=4, max_wait=0.002)
            gateway = RenderGateway(service)
            await gateway.start()
            ports = {
                bad_id: fake.sockets[0].getsockname()[1],
                good_id: gateway.tcp_port,
            }
            cluster_map = ClusterMap(
                [BackendSpec(bid, "127.0.0.1", ports[bid]) for bid in ids],
                replication=2,
            )
            router = ShardRouter(cluster_map)
            await router.start()
            try:
                client = await AsyncGatewayClient.connect(
                    "127.0.0.1", router.tcp_port
                )
                try:
                    results = [
                        (index, result)
                        async for index, result in client.stream_trajectory(
                            cloud, cameras
                        )
                    ]
                finally:
                    await client.close()
                return (
                    results,
                    router.stats.failovers,
                    router.stats.frames_relayed,
                    gateway.stats.frames_sent,
                )
            finally:
                await router.close()
                fake.close()
                await fake.wait_closed()
                await gateway.close()
                await service.close()

        results, failovers, relayed, replica_frames = asyncio.run(main())
        assert [index for index, _ in results] == list(range(len(cameras)))
        for index, result in results:
            assert np.array_equal(result.image, reference[index].image)
            assert result.stats == reference[index].stats
        assert relayed_by_bad == list(range(bad_index + 1))
        assert failovers == 1
        assert relayed == len(cameras)
        assert replica_frames == len(cameras) - bad_index

    def test_render_fails_over_when_owner_down(
        self, scene, renderer, reference
    ):
        cloud, cameras = scene

        async def body(router, cluster_map, gateways, services):
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", router.tcp_port
            )
            try:
                await client.ensure_scene(cloud)  # placed on both replicas
                await gateways[owner_index(cluster_map, cloud)].close()
                return (
                    await client.render_frame(cloud, cameras[0]),
                    router.stats.failovers,
                )
            finally:
                await client.close()

        result, failovers = run_cluster(renderer, body)
        assert np.array_equal(result.image, reference[0].image)
        assert failovers >= 1

    def test_all_replicas_down_yields_503_not_hang(self, scene, renderer):
        cloud, cameras = scene

        async def body(router, cluster_map, gateways, services):
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", router.tcp_port
            )
            try:
                await client.ensure_scene(cloud)
                for gateway in gateways:
                    await gateway.close()
                with pytest.raises(GatewayError) as excinfo:
                    # wait_for proves "answers", not "hangs".
                    await asyncio.wait_for(
                        client.render_frame(cloud, cameras[0]), timeout=10.0
                    )
                return excinfo.value.code, router.stats.no_replica
            finally:
                await client.close()

        code, no_replica = run_cluster(renderer, body)
        assert code == int(ErrorCode.SHUTTING_DOWN)  # 503
        assert no_replica >= 1

    def test_scene_push_with_all_backends_down_is_503(self, scene, renderer):
        cloud, _ = scene

        async def body(router, cluster_map, gateways, services):
            for gateway in gateways:
                await gateway.close()
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", router.tcp_port
            )
            try:
                with pytest.raises(GatewayError) as excinfo:
                    await asyncio.wait_for(
                        client.ensure_scene(cloud), timeout=10.0
                    )
                return excinfo.value.code
            finally:
                await client.close()

        assert run_cluster(renderer, body) == int(ErrorCode.SHUTTING_DOWN)

    def test_wedged_backend_times_out_and_fails_over(
        self, scene, renderer, reference, warm_render_pool
    ):
        """A backend that stays *connected* but never answers (wedged
        process) must not hang the client: the per-request deadline
        severs it and the request fails over to the healthy replica."""
        cloud, cameras = scene

        async def main():
            # The wedge: speaks a valid HELLO, then goes silent forever.
            async def silent_backend(reader, writer):
                from repro.serve import protocol
                from repro.serve.protocol import MessageType

                writer.write(
                    protocol.encode_frame(
                        MessageType.HELLO,
                        {"version": 2, "max_pending": 64, "scenes": []},
                    )
                )
                await writer.drain()
                await asyncio.Event().wait()  # never answers anything

            wedge = await asyncio.start_server(
                silent_backend, host="127.0.0.1", port=0
            )
            wedge_port = wedge.sockets[0].getsockname()[1]
            service = RenderService(renderer, max_batch_size=4, max_wait=0.002)
            gateway = RenderGateway(service)
            await gateway.start()
            cluster_map = ClusterMap(
                [
                    BackendSpec("wedged", "127.0.0.1", wedge_port),
                    BackendSpec("healthy", "127.0.0.1", gateway.tcp_port),
                ],
                replication=2,
            )
            router = ShardRouter(cluster_map, request_timeout=0.5)
            await router.start()
            try:
                client = await AsyncGatewayClient.connect(
                    "127.0.0.1", router.tcp_port
                )
                try:
                    # Bounded: must either fail over or 503, never hang.
                    result = await asyncio.wait_for(
                        client.render_frame(cloud, cameras[0]), timeout=30.0
                    )
                finally:
                    await client.close()
                wedged_down = router.health.health("wedged").failures
                return result, router.stats.failovers, wedged_down
            finally:
                await router.close()
                wedge.close()
                await wedge.wait_closed()
                await gateway.close()
                await service.close()

        result, failovers, wedged_failures = asyncio.run(main())
        assert np.array_equal(result.image, reference[0].image)
        # Whether the wedge or the healthy backend owns the scene is
        # hash luck; if the wedge owned it, a failover + a health
        # report must have happened.
        assert failovers == 0 or wedged_failures >= 1

    def test_restarted_backend_gets_scene_repushed(
        self, scene, renderer, reference
    ):
        """A backend *process* replaced by a fresh one on the same
        address (empty scene registry) must be re-pushed the cached
        SCENE payload on reconnect — not served 404s forever."""
        cloud, cameras = scene

        async def main():
            service = RenderService(renderer, max_batch_size=4, max_wait=0.002)
            gateway = RenderGateway(service)
            await gateway.start()
            port = gateway.tcp_port
            cluster_map = ClusterMap(
                [BackendSpec("b0", "127.0.0.1", port)], replication=1
            )
            router = ShardRouter(cluster_map)
            await router.start()
            replacement = None
            try:
                client = await AsyncGatewayClient.connect(
                    "127.0.0.1", router.tcp_port
                )
                try:
                    first = await client.render_frame(cloud, cameras[0])
                    # "Restart" the backend: a brand-new gateway (empty
                    # scene registry) on the same port.
                    await gateway.close()
                    replacement = RenderGateway(service)
                    await replacement.start(port=port)
                    second = await client.render_frame(cloud, cameras[1])
                    third = await client.render_frame(cloud, cameras[2])
                    return first, second, third
                finally:
                    await client.close()
            finally:
                await router.close()
                if replacement is not None:
                    await replacement.close()
                await gateway.close()
                await service.close()

        first, second, third = asyncio.run(main())
        assert np.array_equal(first.image, reference[0].image)
        # The replacement knew nothing; the router must have re-pushed
        # (finding a 404 here would mean pushed_scenes survived the
        # reconnect), and control round trips after the reconnect must
        # not be poisoned by the old connection's wake-up sentinel.
        assert np.array_equal(second.image, reference[1].image)
        assert np.array_equal(third.image, reference[2].image)

    def test_marked_down_backend_is_skipped_without_probing(
        self, scene, renderer, reference
    ):
        """Routing consults the monitor: a marked-down owner is never
        dialled (no connect attempt, no failover counted — the request
        goes straight to the replica)."""
        cloud, cameras = scene

        async def body(router, cluster_map, gateways, services):
            owner = cluster_map.owner(cloud_fingerprint(cloud)).backend_id
            for _ in range(router.health.down_after):
                router.health.report_failure(owner)
            assert not router.health.is_up(owner)
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", router.tcp_port
            )
            try:
                result = await client.render_frame(cloud, cameras[0])
            finally:
                await client.close()
            return result, router.stats.failovers

        result, failovers = run_cluster(renderer, body)
        assert np.array_equal(result.image, reference[0].image)
        assert failovers == 0


class TestRequestBudget:
    def test_silent_scene_push_is_a_504_not_a_failover(self, scene):
        """The route's scene push to a backend that takes SCENE and never
        answers is bounded by the request's ``deadline_ms``, not by the
        60 s ``request_timeout``; a spent budget is not a backend
        failure."""
        cloud, cameras = scene

        async def silent_scene(reader, writer):
            writer.write(protocol.encode_frame(
                MessageType.HELLO, {"version": protocol.PROTOCOL_VERSION}
            ))
            await writer.drain()
            await reader.read()  # takes SCENE (and the rest), answers nothing
            writer.close()

        async def main():
            backend = await asyncio.start_server(
                silent_scene, host="127.0.0.1", port=0
            )
            port = backend.sockets[0].getsockname()[1]
            cluster_map = ClusterMap(
                [BackendSpec("b0", "127.0.0.1", port)], replication=1
            )
            monitor = HealthMonitor(cluster_map, down_after=1, up_after=1)
            router = ShardRouter(
                cluster_map, monitor=monitor, request_timeout=60
            )
            await router.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", router.tcp_port
                )
                try:
                    await protocol.client_hello(reader, writer, None)
                    # With b0 down the router caches the SCENE payload
                    # and pushes it nowhere (a 503) ...
                    monitor.report_failure("b0")
                    header, blob = protocol.encode_cloud(cloud)
                    writer.write(protocol.encode_frame(
                        MessageType.SCENE, header, blob
                    ))
                    refused = await protocol.read_frame(reader)
                    # ... so routing the RENDER must push it to b0 first.
                    monitor.observe("b0", True)
                    writer.write(protocol.encode_frame(
                        MessageType.RENDER,
                        {
                            "request_id": 1,
                            "scene_id": cloud_fingerprint(cloud),
                            "camera": protocol.encode_camera(cameras[0]),
                            "deadline_ms": 200,
                        },
                    ))
                    await writer.drain()
                    answer = await asyncio.wait_for(
                        protocol.read_frame(reader), 5
                    )
                finally:
                    writer.close()
                return refused, answer, router.stats.failovers
            finally:
                await router.close()
                backend.close()
                await backend.wait_closed()

        refused, answer, failovers = asyncio.run(main())
        assert refused.header["code"] == int(ErrorCode.SHUTTING_DOWN)
        assert answer.type is MessageType.ERROR
        assert answer.header["request_id"] == 1
        assert answer.header["code"] == int(ErrorCode.DEADLINE_EXCEEDED)
        assert failovers == 0

    def test_silent_scene_push_holds_back_only_the_scene(self, scene):
        """A replica that takes SCENE and never answers delays only the
        SCENE's own answer: a malformed RENDER sent right behind it on
        the same connection is answered 400 first, and the SCENE's 503
        follows when the push gives up at ``request_timeout``."""
        cloud, _ = scene

        async def silent_scene(reader, writer):
            writer.write(protocol.encode_frame(
                MessageType.HELLO, {"version": protocol.PROTOCOL_VERSION}
            ))
            await writer.drain()
            await reader.read()  # takes SCENE (and the rest), answers nothing
            writer.close()

        async def main():
            backend = await asyncio.start_server(
                silent_scene, host="127.0.0.1", port=0
            )
            port = backend.sockets[0].getsockname()[1]
            cluster_map = ClusterMap(
                [BackendSpec("b0", "127.0.0.1", port)], replication=1
            )
            router = ShardRouter(
                cluster_map,
                monitor=HealthMonitor(cluster_map),  # never probes: b0 is up
                request_timeout=2.0,
            )
            await router.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", router.tcp_port
                )
                try:
                    await protocol.client_hello(reader, writer, None)
                    header, blob = protocol.encode_cloud(cloud)
                    writer.write(protocol.encode_frame(
                        MessageType.SCENE, header, blob
                    ))
                    writer.write(protocol.encode_frame(
                        MessageType.RENDER, {"request_id": "one"}
                    ))
                    await writer.drain()
                    # Hang guards only; the assertion is on the order.
                    first = await asyncio.wait_for(protocol.read_frame(reader), 30)
                    second = await asyncio.wait_for(protocol.read_frame(reader), 30)
                finally:
                    writer.close()
                return first, second
            finally:
                await router.close()
                backend.close()
                await backend.wait_closed()

        first, second = asyncio.run(main())
        assert first.type is second.type is MessageType.ERROR
        assert (first.header["request_id"], first.header["code"]) == (
            "one", int(ErrorCode.BAD_REQUEST)
        )
        assert (second.header["request_id"], second.header["code"]) == (
            None, int(ErrorCode.SHUTTING_DOWN)
        )

    def test_silent_replica_does_not_hold_back_the_next_one(self, scene):
        """SCENE replication pushes to the replicas concurrently: with a
        silent replica ranked first and a 600 s ``request_timeout``, the
        healthy replica ranked second gets the SCENE while the silent
        push is still outstanding, and SCENE_OK follows once the silent
        push fails (which marks that backend down)."""
        cloud, _ = scene
        scene_id = cloud_fingerprint(cloud)

        async def main():
            received = {"silent": asyncio.Event(), "healthy": asyncio.Event()}
            release_silent = asyncio.Event()

            async def silent(reader, writer):
                writer.write(protocol.encode_frame(
                    MessageType.HELLO, {"version": protocol.PROTOCOL_VERSION}
                ))
                await writer.drain()
                await protocol.read_frame(reader)  # SCENE, never answered
                received["silent"].set()
                await release_silent.wait()
                writer.close()

            async def healthy(reader, writer):
                writer.write(protocol.encode_frame(
                    MessageType.HELLO, {"version": protocol.PROTOCOL_VERSION}
                ))
                await writer.drain()
                await protocol.read_frame(reader)  # SCENE
                received["healthy"].set()
                writer.write(protocol.encode_frame(
                    MessageType.SCENE_OK, {"scene_id": scene_id}
                ))
                await writer.drain()
                await reader.read()
                writer.close()

            servers = {
                "silent": await asyncio.start_server(silent, "127.0.0.1", 0),
                "healthy": await asyncio.start_server(healthy, "127.0.0.1", 0),
            }
            ranked = [
                spec.backend_id
                for spec in ClusterMap(
                    [BackendSpec("b0", "127.0.0.1", 1),
                     BackendSpec("b1", "127.0.0.1", 1)],
                    replication=2,
                ).replicas(scene_id)
            ]
            cluster_map = ClusterMap(
                [
                    BackendSpec(
                        backend_id, "127.0.0.1",
                        servers[role].sockets[0].getsockname()[1],
                    )
                    for backend_id, role in zip(ranked, ("silent", "healthy"))
                ],
                replication=2,
            )
            monitor = HealthMonitor(cluster_map, down_after=1)  # never probes
            router = ShardRouter(
                cluster_map, monitor=monitor, request_timeout=600
            )
            await router.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", router.tcp_port
                )
                try:
                    await protocol.client_hello(reader, writer, None)
                    header, blob = protocol.encode_cloud(cloud)
                    writer.write(protocol.encode_frame(
                        MessageType.SCENE, header, blob
                    ))
                    await writer.drain()
                    # Hang guards only; the assertions are on the order.
                    await asyncio.wait_for(received["healthy"].wait(), 30)
                    await asyncio.wait_for(received["silent"].wait(), 30)
                    outstanding = len(router._replicating)
                    release_silent.set()
                    answer = await asyncio.wait_for(protocol.read_frame(reader), 30)
                finally:
                    writer.close()
                return outstanding, answer, monitor.is_up(ranked[0])
            finally:
                await router.close()
                for server in servers.values():
                    server.close()
                    await server.wait_closed()

        outstanding, answer, silent_up = asyncio.run(main())
        assert outstanding == 1
        assert answer.type is MessageType.SCENE_OK
        assert answer.header["scene_id"] == scene_id
        assert not silent_up

    def test_unexpected_replication_failure_answers_the_scene(
        self, scene, monkeypatch
    ):
        """An exception the replication task does not expect still
        answers the SCENE, with a 500, instead of leaving the client
        waiting for a reply that never comes."""
        from repro.cluster.router import BackendLink

        async def broken_push(self, scene_id, payload):
            raise RuntimeError("boom")

        monkeypatch.setattr(BackendLink, "push_scene", broken_push)
        cloud, _ = scene

        async def main():
            cluster_map = ClusterMap(
                [BackendSpec("b0", "127.0.0.1", 9)], replication=1
            )
            router = ShardRouter(
                cluster_map,
                monitor=HealthMonitor(cluster_map),  # never probes: b0 is up
            )
            await router.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", router.tcp_port
                )
                try:
                    await protocol.client_hello(reader, writer, None)
                    header, blob = protocol.encode_cloud(cloud)
                    writer.write(protocol.encode_frame(
                        MessageType.SCENE, header, blob
                    ))
                    await writer.drain()
                    # A hang guard only: without the answer this times out.
                    return await asyncio.wait_for(protocol.read_frame(reader), 30)
                finally:
                    writer.close()
            finally:
                await router.close()

        answer = asyncio.run(main())
        assert answer.type is MessageType.ERROR
        assert answer.header["request_id"] is None
        assert answer.header["code"] == int(ErrorCode.INTERNAL)
        assert "boom" in answer.header["message"]


class TestAdmissionAndErrors:
    def test_router_admission_429(self, scene, renderer):
        cloud, cameras = scene

        async def body(router, cluster_map, gateways, services):
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", router.tcp_port
            )
            try:
                # A stream parked on a long flush timer occupies the
                # router's single admission slot.
                stream = client.stream_trajectory(cloud, cameras)
                started = asyncio.ensure_future(stream.__anext__())
                for _ in range(200):
                    if router._pending >= 1:
                        break
                    await asyncio.sleep(0.005)
                with pytest.raises(GatewayError) as excinfo:
                    await client.render_frame(cloud, cameras[0])
                code = excinfo.value.code
                await started
                async for _ in stream:
                    pass
                return code, router.stats.rejected
            finally:
                await client.close()

        code, rejected = run_cluster(
            renderer,
            body,
            router_kwargs={"max_pending": 1},
            service_kwargs={"max_batch_size": 8, "max_wait": 0.2},
        )
        assert code == int(ErrorCode.REJECTED)
        assert rejected == 1

    def test_class_passthrough_and_cluster_class_stats(
        self, scene, renderer, reference
    ):
        """The optional ``class`` field crosses the router: backends see
        the resolved class on re-encoded RENDER/STREAM frames, and the
        cluster STATS merge per-class counters across the fleet."""
        cloud, cameras = scene

        async def body(router, cluster_map, gateways, services):
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", router.tcp_port
            )
            try:
                hello = dict(client.hello)
                result = await client.render_frame(
                    cloud, cameras[0], request_class="interactive"
                )
                await client.render_frame(cloud, cameras[1])  # → bulk
                async for _ in client.stream_trajectory(
                    cloud, cameras[:2], request_class="prefetch"
                ):
                    pass
                stats = await client.stats_dict()
            finally:
                await client.close()
            merged: "dict[str, int]" = {}
            for service in services:
                for name, count in service.stats.class_requests.items():
                    merged[name] = merged.get(name, 0) + count
            return hello, result, stats, merged

        hello, result, stats, backend_classes = run_cluster(renderer, body)
        assert hello["classes"] == ["interactive", "bulk", "prefetch"]
        assert hello["default_class"] == "bulk"
        # The backends' services saw the classes the client sent.
        assert backend_classes == {"interactive": 1, "bulk": 1, "prefetch": 1}
        # ...and the router's aggregation reports the same, cluster-wide.
        assert stats["class_requests"] == {
            "interactive": 1,
            "bulk": 1,
            "prefetch": 1,
        }
        gateway = stats["gateway"]
        admission = gateway["admission"]
        assert admission["classes"]["interactive"]["admitted"] == 1
        assert admission["classes"]["bulk"]["admitted"] == 1
        assert admission["classes"]["prefetch"]["admitted"] == 1
        assert admission["pending"] == 0
        for name in ("interactive", "bulk", "prefetch"):
            assert gateway["backend_classes"][name]["admitted"] == 1
            assert gateway["backend_classes"][name]["pending"] == 0
        assert np.array_equal(result.image, reference[0].image)

    def test_unknown_class_is_400_at_the_router_edge(self, scene, renderer):
        cloud, cameras = scene

        async def body(router, cluster_map, gateways, services):
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", router.tcp_port
            )
            try:
                with pytest.raises(GatewayError) as excinfo:
                    await client.render_frame(
                        cloud, cameras[0], request_class="warp"
                    )
                code = excinfo.value.code
                # Rejected before admission and before any backend saw it.
                result = await client.render_frame(cloud, cameras[0])
                return code, router._pending, router.stats.rejected, result
            finally:
                await client.close()

        code, pending, rejected, result = run_cluster(renderer, body)
        assert code == int(ErrorCode.BAD_REQUEST)
        assert pending == 0
        assert rejected == 0
        engine = RenderEngine(renderer)
        assert np.array_equal(
            result.image, engine.render(cloud, cameras[0]).image
        )

    def test_router_shed_429_carries_retry_after_hint(self, scene, renderer):
        cloud, cameras = scene

        async def body(router, cluster_map, gateways, services):
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", router.tcp_port
            )
            try:
                router.admission.shed_level = 2
                with pytest.raises(GatewayError) as excinfo:
                    await client.render_frame(cloud, cameras[0])  # bulk
                router.admission.shed_level = 0
                # The protected class passed through the whole time.
                result = await client.render_frame(
                    cloud, cameras[0], request_class="interactive"
                )
                return excinfo.value, router.stats.rejected, result
            finally:
                await client.close()

        error, rejected, result = run_cluster(renderer, body)
        assert error.code == int(ErrorCode.REJECTED)
        assert error.retry_after_ms == 200  # 25 ms * 2**2 * distance 2
        assert rejected == 1
        engine = RenderEngine(renderer)
        assert np.array_equal(
            result.image, engine.render(cloud, cameras[0]).image
        )

    def test_unknown_scene_404_relayed(self, scene, renderer):
        cloud, cameras = scene

        async def body(router, cluster_map, gateways, services):
            from repro.serve import protocol
            from repro.serve.protocol import MessageType

            reader, writer = await asyncio.open_connection(
                "127.0.0.1", router.tcp_port
            )
            await protocol.read_frame(reader)  # HELLO
            writer.write(
                protocol.encode_frame(
                    MessageType.RENDER,
                    {
                        "request_id": 1,
                        "scene_id": "ghost",
                        "camera": protocol.encode_camera(cameras[0]),
                    },
                )
            )
            await writer.drain()
            error = await protocol.read_frame(reader)
            writer.close()
            await writer.wait_closed()
            return error

        error = run_cluster(renderer, body)
        assert error.header["code"] == int(ErrorCode.UNKNOWN_SCENE)
        assert error.header["request_id"] == 1

    def test_malformed_requests_answered_inline(self, scene, renderer):
        async def body(router, cluster_map, gateways, services):
            from repro.serve import protocol
            from repro.serve.protocol import MessageType

            reader, writer = await asyncio.open_connection(
                "127.0.0.1", router.tcp_port
            )
            await protocol.read_frame(reader)  # HELLO
            codes = []
            for header in (
                {"request_id": "seven"},  # non-integer id
                {"request_id": 1},  # no scene_id
                {"request_id": 2, "scene_id": "x", "cameras": []},  # empty
            ):
                writer.write(
                    protocol.encode_frame(
                        MessageType.STREAM
                        if "cameras" in header
                        else MessageType.RENDER,
                        header,
                    )
                )
                await writer.drain()
                frame = await protocol.read_frame(reader)
                codes.append(frame.header["code"])
            writer.close()
            await writer.wait_closed()
            return codes

        codes = run_cluster(renderer, body)
        assert codes == [int(ErrorCode.BAD_REQUEST)] * 3

    def test_validation(self, renderer):
        cmap = ClusterMap([BackendSpec("a", port=1)])
        with pytest.raises(ValueError):
            ShardRouter(cmap, max_pending=0)
        with pytest.raises(ValueError):
            ShardRouter(cmap, max_scenes=0)


class TestClientPool:
    def test_pool_streams_and_retries_on_markdown(
        self, scene, renderer, reference
    ):
        """A pool client survives its gateway dying mid-stream when a
        replacement comes up on the same port: the stream resumes from
        the first undelivered frame with no duplicates."""
        cloud, cameras = scene
        trajectory = list(cameras) * 8

        async def main():
            service = RenderService(renderer, max_batch_size=4, max_wait=0.002)
            gateway = RenderGateway(service)
            await gateway.start()
            port = gateway.tcp_port
            pool = GatewayClientPool(
                "127.0.0.1", port, size=2, retries=8, backoff=0.05
            )
            replacement = []

            async def replace_gateway():
                await gateway.close()
                new_gateway = RenderGateway(service)
                await new_gateway.start(port=port)  # same endpoint
                replacement.append(new_gateway)

            try:
                results = []
                async for index, result in pool.stream_trajectory(
                    cloud, trajectory
                ):
                    results.append((index, result))
                    if index == 1:
                        await replace_gateway()
                return results
            finally:
                await pool.close()
                for new_gateway in replacement:
                    await new_gateway.close()
                if not replacement:
                    await gateway.close()
                await service.close()

        results = asyncio.run(main())
        indices = [index for index, _ in results]
        assert indices == list(range(len(trajectory)))
        for index, result in results:
            ref = reference[index % len(reference)]
            assert np.array_equal(result.image, ref.image)

    def test_pool_gives_up_after_retries(self, scene, renderer):
        cloud, cameras = scene

        async def main():
            # Nothing listens here: every lease fails with 503.
            server = await asyncio.start_server(
                lambda r, w: None, host="127.0.0.1", port=0
            )
            port = server.sockets[0].getsockname()[1]
            server.close()
            await server.wait_closed()
            pool = GatewayClientPool(
                "127.0.0.1", port, retries=2, backoff=0.01
            )
            try:
                with pytest.raises(GatewayError) as excinfo:
                    await pool.render_frame(cloud, cameras[0])
                return excinfo.value.code
            finally:
                await pool.close()

        assert asyncio.run(main()) == int(ErrorCode.SHUTTING_DOWN)

    def test_pool_validation(self):
        with pytest.raises(ValueError):
            GatewayClientPool("h", 1, size=0)
        with pytest.raises(ValueError):
            GatewayClientPool("h", 1, retries=-1)


class TestHttpFrontEnd:
    def test_routes_and_proxy(self, scene, renderer, reference):
        """/healthz and /stats are local; /render and /stream proxy to
        the named scene's backend, chunked bodies passing straight
        through; with every backend down the proxy answers 503."""
        cloud, cameras = scene

        async def http_get(port, path):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
            await writer.drain()
            data = await reader.read()
            writer.close()
            await writer.wait_closed()
            head, _, body = data.partition(b"\r\n\r\n")
            return int(head.split(b" ", 2)[1]), head, body

        def dechunk(body: bytes) -> bytes:
            out = bytearray()
            while body:
                size_line, _, body = body.partition(b"\r\n")
                size = int(size_line, 16)
                if size == 0:
                    break
                out += body[:size]
                body = body[size + 2 :]
            return bytes(out)

        async def body(router, cluster_map, gateways, services):
            for gateway in gateways:
                gateway.register_scene("demo", cloud, cameras)
                await gateway.start_http()
            for index, gateway in enumerate(gateways):
                cluster_map.remove(f"b{index}")
                cluster_map.add(
                    BackendSpec(
                        f"b{index}",
                        "127.0.0.1",
                        gateway.tcp_port,
                        http_port=gateway.http_port,
                    )
                )
            await router.start_http()
            port = router.http_port
            out = {}
            out["health"] = await http_get(port, "/healthz")
            out["stats"] = await http_get(port, "/stats")
            out["render"] = await http_get(
                port, "/render?scene=demo&view=1&format=json"
            )
            out["stream"] = await http_get(
                port, "/stream?scene=demo&frames=2"
            )
            out["no_scene"] = await http_get(port, "/render")
            out["bad_route"] = await http_get(port, "/nope")
            for gateway in gateways:
                await gateway.close()
            out["down"] = await http_get(port, "/render?scene=demo&view=0")
            out["down_health"] = None
            # Mark both down so /healthz flips (proxy failures above
            # already reported into the monitor).
            for index in range(len(gateways)):
                while router.health.is_up(f"b{index}"):
                    router.health.report_failure(f"b{index}")
            out["down_health"] = await http_get(port, "/healthz")
            return out

        out = run_cluster(renderer, body)
        assert out["health"][0] == 200
        assert json.loads(out["health"][2])["role"] == "router"
        assert out["stats"][0] == 200
        assert "backends" in json.loads(out["stats"][2])["gateway"]

        status, _, body_bytes = out["render"]
        assert status == 200
        info = json.loads(body_bytes)
        import hashlib

        expected = hashlib.sha256(
            np.ascontiguousarray(reference[1].image).tobytes()
        ).hexdigest()
        assert info["image_sha256"] == expected

        status, head, body_bytes = out["stream"]
        assert status == 200
        assert b"Transfer-Encoding: chunked" in head
        records = [
            json.loads(line)
            for line in dechunk(body_bytes).decode().splitlines()
            if line
        ]
        # The backend's terminal eos record crosses the proxy verbatim.
        assert records.pop() == {"type": "eos", "frames": 2}
        assert [record["view"] for record in records] == [0, 1]

        assert out["no_scene"][0] == 400
        assert out["bad_route"][0] == 404
        assert out["down"][0] == 503
        assert out["down_health"][0] == 503

    def test_close_ends_an_in_flight_proxied_stream(self):
        """``close()`` ends the router's HTTP handlers as it ends its TCP
        ones: a proxied ``/stream`` still relaying when the router
        closes must not run on detached.  The backend here sends a
        chunked 200 head and then holds the body, so the stream is in
        flight for as long as the test wants."""

        async def main():
            release = asyncio.Event()

            async def held_backend(reader, writer):
                await reader.readuntil(b"\r\n\r\n")
                writer.write(
                    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                )
                await writer.drain()
                await release.wait()
                writer.close()

            backend = await asyncio.start_server(held_backend, "127.0.0.1", 0)
            port = backend.sockets[0].getsockname()[1]
            cluster_map = ClusterMap(
                [BackendSpec("b0", "127.0.0.1", port, http_port=port)],
                replication=1,
            )
            router = ShardRouter(cluster_map, monitor=HealthMonitor(cluster_map))
            await router.start_http()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", router.http_port
            )
            try:
                writer.write(b"GET /stream?scene=demo HTTP/1.1\r\nHost: t\r\n\r\n")
                await writer.drain()
                await reader.readuntil(b"\r\n\r\n")  # relayed: in flight
                await router.close()
                return [
                    task
                    for task in asyncio.all_tasks()
                    if not task.done()
                    and task.get_coro().__name__ == "_handle_http"
                    and task.get_coro().cr_frame.f_locals.get("self") is router
                ]
            finally:
                release.set()
                writer.close()
                backend.close()
                await backend.wait_closed()

        assert asyncio.run(main()) == []


class TestLiveMembership:
    def test_added_backend_takes_new_scenes(self, renderer):
        """A backend added live starts owning (some) new scenes; removal
        sends its scenes elsewhere — the router keeps serving through
        both changes."""
        rng = np.random.default_rng(53)
        clouds = [make_cloud(20, rng) for _ in range(6)]
        camera = Camera(width=64, height=48, fx=60.0, fy=60.0)
        engine = RenderEngine(renderer)
        references = [engine.render(cloud, camera) for cloud in clouds]

        async def body(router, cluster_map, gateways, services):
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", router.tcp_port
            )
            try:
                first = await client.render_frame(clouds[0], camera)
                # Live add: a third backend joins.
                service = RenderService(
                    renderer, max_batch_size=4, max_wait=0.002
                )
                gateway = RenderGateway(service)
                await gateway.start()
                cluster_map.add(
                    BackendSpec("b2", "127.0.0.1", gateway.tcp_port)
                )
                results = [
                    await client.render_frame(cloud, camera)
                    for cloud in clouds
                ]
                served_by_new = gateway.stats.requests
                # Live remove: it leaves again; its scenes reroute.
                cluster_map.remove("b2")
                await gateway.close()
                await service.close()
                retry = [
                    await client.render_frame(cloud, camera)
                    for cloud in clouds
                ]
                return first, results, retry, served_by_new
            finally:
                await client.close()

        first, results, retry, served_by_new = run_cluster(
            renderer, body, backends=2, replication=1
        )
        assert np.array_equal(first.image, references[0].image)
        for result, ref in zip(results, references):
            assert np.array_equal(result.image, ref.image)
        for result, ref in zip(retry, references):
            assert np.array_equal(result.image, ref.image)
        # With 6 scenes over 3 backends the newcomer statistically owns
        # ~2; the test only requires it genuinely joined the rotation.
        assert served_by_new >= 1


class TestBackendLinkReceive:
    """The router's link to a backend, against a fake backend that
    answers STATS with frames a gateway should never send: a frame it
    cannot route is dropped, and an ERROR is always a ProtocolError."""

    @staticmethod
    def _answer_stats_with(*frames: bytes):
        """The control round trip's frame, or the exception it raised."""
        from repro.cluster.router import BackendLink

        async def serve(reader, writer):
            writer.write(protocol.encode_frame(
                MessageType.HELLO, {"version": protocol.PROTOCOL_VERSION}
            ))
            await writer.drain()
            await protocol.read_frame(reader)  # the link's STATS
            for frame in frames:
                writer.write(frame)
            await writer.drain()
            await reader.read()
            writer.close()

        async def main():
            backend = await asyncio.start_server(serve, "127.0.0.1", 0)
            port = backend.sockets[0].getsockname()[1]
            link = BackendLink(BackendSpec("b0", "127.0.0.1", port))
            try:
                await link.connect()
                return await link.control(
                    protocol.encode_frame(MessageType.STATS),
                    MessageType.STATS_OK,
                    timeout=10,
                )
            except Exception as exc:
                return exc
            finally:
                await link.close()
                backend.close()
                await backend.wait_closed()

        return asyncio.run(main())

    @pytest.mark.parametrize("request_id", [[1], {"a": 1}, "1"])
    def test_a_frame_whose_request_id_is_not_an_integer_is_dropped(
        self, request_id
    ):
        answer = self._answer_stats_with(
            protocol.encode_frame(
                MessageType.FRAME, {"request_id": request_id, "index": 0}
            ),
            protocol.encode_frame(MessageType.STATS_OK, {"service": {}}),
        )
        assert answer.type is MessageType.STATS_OK

    @pytest.mark.parametrize("code", ["x", None, [400], 999], ids=repr)
    def test_an_error_code_that_is_no_error_code_is_a_500(self, code):
        answer = self._answer_stats_with(
            protocol.encode_frame(
                MessageType.ERROR,
                {"request_id": None, "code": code, "message": "m"},
            )
        )
        assert isinstance(answer, protocol.ProtocolError)
        assert answer.code is ErrorCode.INTERNAL
        assert str(answer) == "m"
