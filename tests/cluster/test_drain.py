"""Graceful drain: SIGTERM semantics at every layer.

In-process: a draining gateway finishes in-flight work, answers new
requests 503 + ``retry_after_ms`` + ``draining: true``, and the client
pool floors its retry sleep with the hint; a draining *backend* is
gated out of new router placements instantly (no hysteresis) while its
in-flight relays finish; a draining router completes active streams
while refusing new ones.  Subprocess: a real SIGTERM mid-stream fails
the stream over with zero dropped or duplicated frames, and an idle
backend exits 0 after a clean drain.
"""

import asyncio
import socket
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.chaos import ChaosProxy, ChaosSchedule, Fault, FaultKind
from repro.cluster import (
    BackendLink,
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
    rng = np.random.default_rng(53)
    cloud = make_cloud(30, rng)
    cameras = [
        Camera(width=80, height=60, fx=70.0 + i, fy=70.0 + i) for i in range(6)
    ]
    return cloud, cameras


@pytest.fixture(scope="module")
def reference(scene, renderer):
    cloud, cameras = scene
    engine = RenderEngine(renderer)
    return [engine.render(cloud, camera) for camera in cameras]


class _SlowService(RenderService):
    """A service whose renders take a beat — holds drain mode open."""

    def __init__(self, renderer, delay: float = 0.8, **kwargs) -> None:
        super().__init__(renderer, **kwargs)
        self._delay = delay

    async def render_frame(self, cloud, camera, **kwargs):
        await asyncio.sleep(self._delay)
        return await super().render_frame(cloud, camera, **kwargs)


class TestGatewayDrain:
    def test_drain_finishes_in_flight_and_refuses_new_work(
        self, renderer, scene, reference
    ):
        cloud, cameras = scene

        async def main():
            service = _SlowService(
                renderer, delay=0.8, max_batch_size=2, max_wait=0.001
            )
            gateway = RenderGateway(service)
            await gateway.start()
            port = gateway.tcp_port
            try:
                client = await AsyncGatewayClient.connect("127.0.0.1", port)
                try:
                    await client.ensure_scene(cloud)
                    in_flight = asyncio.create_task(
                        client.render_frame(cloud, cameras[0])
                    )
                    await asyncio.sleep(0.15)  # admitted, now rendering
                    drain_task = asyncio.create_task(
                        gateway.drain(10.0, retry_after_ms=250)
                    )
                    await asyncio.sleep(0.1)  # drain mode engaged
                    # New request on the live connection: refused with
                    # the full drain story.
                    with pytest.raises(GatewayError) as info:
                        await client.render_frame(cloud, cameras[1])
                    # New *connections*: the listener is already gone.
                    with pytest.raises((ConnectionError, OSError)):
                        await AsyncGatewayClient.connect("127.0.0.1", port)
                    # The admitted render still finishes, at its own pace.
                    result = await in_flight
                    drained = await drain_task
                    return info.value, result, drained
                finally:
                    await client.close()
            finally:
                await gateway.close()
                await service.close()

        error, result, drained = asyncio.run(main())
        assert error.code == int(ErrorCode.SHUTTING_DOWN)
        assert error.draining
        assert error.retry_after_ms == 250
        assert np.array_equal(result.image, reference[0].image)
        assert drained is True

    def test_pool_floors_retry_sleep_with_the_drain_hint(
        self, renderer, scene
    ):
        """The drain 503's ``retry_after_ms`` is a promise ("my
        replacement is up in N ms") — the pool must not come back
        sooner, whatever its own backoff says."""
        cloud, cameras = scene

        async def main():
            service = _SlowService(
                renderer, delay=0.9, max_batch_size=2, max_wait=0.001
            )
            gateway = RenderGateway(service)
            await gateway.start()
            try:
                pool = GatewayClientPool(
                    "127.0.0.1", gateway.tcp_port,
                    size=1, retries=1, backoff=0.001, connect_timeout=1.0,
                )
                holder = await AsyncGatewayClient.connect(
                    "127.0.0.1", gateway.tcp_port
                )
                try:
                    # Warm the pool's connection while the gateway still
                    # accepts, and park one slow render to hold drain open.
                    await pool.render_frame(cloud, cameras[0])
                    await holder.ensure_scene(cloud)
                    in_flight = asyncio.create_task(
                        holder.render_frame(cloud, cameras[1])
                    )
                    await asyncio.sleep(0.15)
                    drain_task = asyncio.create_task(
                        gateway.drain(10.0, retry_after_ms=300)
                    )
                    await asyncio.sleep(0.05)
                    start = time.monotonic()
                    with pytest.raises(GatewayError):
                        await pool.render_frame(cloud, cameras[2])
                    elapsed = time.monotonic() - start
                    await in_flight
                    await drain_task
                    return elapsed
                finally:
                    await holder.close()
                    await pool.close()
            finally:
                await gateway.close()
                await service.close()

        elapsed = asyncio.run(main())
        # First attempt got the 503 + 300 ms hint; the pool's own
        # backoff is ~1 ms, so any sleep this long is the hint's floor.
        assert elapsed >= 0.3

    def test_drain_returns_past_a_peer_that_never_reads(self, renderer):
        """A peer that stops reading parks its stream's flush — holding
        the connection's write lock — for up to ``write_timeout``.  The
        grace must still bound the drain: no BYE queued behind that
        lock, no close waiting for the peer to take the bytes left in
        the transport.  ``wait_for`` is a hang bound, not a timing
        claim."""
        rng = np.random.default_rng(59)
        cloud = make_cloud(30, rng)
        cameras = [
            Camera(width=256, height=192, fx=200.0 + i, fy=200.0 + i)
            for i in range(4)
        ] * 10  # ~24 MB of frames: far more than socket buffers hold

        async def main():
            async with RenderService(
                renderer, max_batch_size=4, max_wait=0.002
            ) as service:
                gateway = RenderGateway(service, write_timeout=3600)
                gateway.register_scene("demo", cloud)
                await gateway.start()
                sock = socket.socket()
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.connect(("127.0.0.1", gateway.tcp_port))
                reader, writer = await asyncio.open_connection(sock=sock)
                try:
                    await protocol.read_frame(reader)  # HELLO
                    writer.write(
                        protocol.encode_frame(
                            MessageType.STREAM,
                            {
                                "request_id": 1,
                                "scene_id": "demo",
                                "cameras": [
                                    protocol.encode_camera(camera)
                                    for camera in cameras
                                ],
                            },
                        )
                    )
                    await writer.drain()
                    # ...and never read again.  Wait for the flush to park.
                    while not any(
                        conn.wlock.locked() for conn in gateway._conns
                    ):
                        await asyncio.sleep(0.01)
                    return await asyncio.wait_for(gateway.drain(0.2), 30.0)
                finally:
                    writer.close()
                    await gateway.close()

        assert asyncio.run(main()) is False  # the stream was cut, honestly


class TestRouterDrain:
    def test_link_close_returns_past_a_backend_that_never_reads(self):
        """A backend that sends HELLO and then never reads again: the
        link's BYE flush is bounded by ``write_timeout``, so closing the
        link cannot wait on the backend.  ``wait_for`` is a hang bound,
        not a timing claim."""

        async def main():
            async def wedged(reader, writer):
                writer.write(protocol.encode_frame(MessageType.HELLO, {}))
                await writer.drain()
                await asyncio.Event().wait()  # ...and never read again

            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.bind(("127.0.0.1", 0))
            server = await asyncio.start_server(wedged, sock=sock)
            link = BackendLink(
                BackendSpec("b0", port=sock.getsockname()[1]),
                write_timeout=0.2,
            )
            try:
                await link.connect()
                # Far more than the socket buffers hold: the BYE queues
                # behind bytes the backend will never take.
                link._writer.write(bytes(32 << 20))
                await asyncio.wait_for(link.close(), 30.0)
            finally:
                server.close()
                await server.wait_closed()
            return link.connected

        assert asyncio.run(main()) is False

    def test_router_drain_completes_streams_and_refuses_new(
        self, renderer, scene, reference
    ):
        cloud, cameras = scene
        long_cameras = cameras * 20

        async def main():
            services = [
                RenderService(renderer, max_batch_size=4, max_wait=0.002)
                for _ in range(2)
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
            cluster_map = ClusterMap(specs, replication=2)
            router = ShardRouter(
                cluster_map, monitor=HealthMonitor(cluster_map)
            )
            await router.start()
            try:
                client = await AsyncGatewayClient.connect(
                    "127.0.0.1", router.tcp_port
                )
                try:
                    results = []
                    drain_task = None
                    refused = None
                    async for index, result in client.stream_trajectory(
                        cloud, long_cameras
                    ):
                        results.append((index, result))
                        if index == 2:
                            drain_task = asyncio.create_task(
                                router.drain(15.0, retry_after_ms=200)
                            )
                            await asyncio.sleep(0.05)
                            try:
                                await client.render_frame(cloud, cameras[0])
                            except GatewayError as exc:
                                refused = exc
                    drained = await drain_task
                    return results, refused, drained
                finally:
                    await client.close()
            finally:
                await router.close()
                for gateway in gateways:
                    await gateway.close()
                for service in services:
                    await service.close()

        results, refused, drained = asyncio.run(main())
        assert refused is not None
        assert refused.code == int(ErrorCode.SHUTTING_DOWN)
        assert refused.draining and refused.retry_after_ms == 200
        assert drained is True
        # The in-flight stream survived the drain, end to end.
        assert [i for i, _ in results] == list(range(len(long_cameras)))
        for index, result in results:
            ref = reference[index % len(reference)]
            assert np.array_equal(result.image, ref.image)

    def test_draining_backend_is_failed_over_then_skipped(
        self, renderer, scene, reference
    ):
        """A backend that answers 503+draining is gated out of new
        placements *immediately* (no down_after hysteresis) while its
        in-flight relays run to completion — and later requests route
        around it without burning a failover."""
        cloud, cameras = scene
        long_cameras = cameras * 20

        async def main():
            services = [
                RenderService(renderer, max_batch_size=4, max_wait=0.002)
                for _ in range(2)
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
            cluster_map = ClusterMap(specs, replication=2)
            monitor = HealthMonitor(cluster_map)  # never started: the
            # draining gate must come from the request path alone.
            router = ShardRouter(cluster_map, monitor=monitor)
            await router.start()
            owner_id = cluster_map.owner(cloud_fingerprint(cloud)).backend_id
            owner_gateway = gateways[int(owner_id[1:])]
            try:
                client = await AsyncGatewayClient.connect(
                    "127.0.0.1", router.tcp_port
                )
                try:
                    stream1 = []
                    drain_task = None
                    stream2_task = None

                    async def collect(aiter):
                        return [pair async for pair in aiter]

                    async for index, result in client.stream_trajectory(
                        cloud, long_cameras
                    ):
                        stream1.append((index, result))
                        if index == 2:
                            # The owner starts draining with our stream
                            # still relaying through it...
                            drain_task = asyncio.create_task(
                                owner_gateway.drain(15.0, retry_after_ms=150)
                            )
                            await asyncio.sleep(0.05)
                            # ...and a new stream arrives concurrently.
                            stream2_task = asyncio.create_task(
                                collect(client.stream_trajectory(
                                    cloud, cameras
                                ))
                            )
                    stream2 = await stream2_task
                    drained = await drain_task
                    failovers_mid = router.stats.failovers
                    # A third request now must route straight to the
                    # replica: the owner is known-draining, skipping it
                    # is a routing decision, not another failover.
                    stream3 = await collect(
                        client.stream_trajectory(cloud, cameras)
                    )
                    return (
                        stream1, stream2, stream3, drained,
                        failovers_mid, router.stats.failovers,
                        monitor.health(owner_id).snapshot(),
                    )
                finally:
                    await client.close()
            finally:
                await router.close()
                for gateway in gateways:
                    await gateway.close()
                for service in services:
                    await service.close()

        (stream1, stream2, stream3, drained, failovers_mid, failovers_end,
         owner_health) = asyncio.run(main())
        assert drained is True  # in-flight relay finished inside grace
        # Stream 2 hit the draining 503 and failed over exactly once;
        # stream 3 was *routed around* the drained backend, not failed
        # over from it.
        assert failovers_mid == 1 and failovers_end == 1
        assert owner_health["draining"] is True
        for results, cams in (
            (stream1, long_cameras), (stream2, cameras), (stream3, cameras)
        ):
            assert [i for i, _ in results] == list(range(len(cams)))
            for index, result in results:
                ref = reference[index % len(reference)]
                assert np.array_equal(result.image, ref.image)

    @pytest.mark.parametrize("kind", ["gateway", "router"])
    def test_zero_grace_is_a_valid_drain(self, renderer, kind):
        """``drain(0)`` means "do not wait": with nothing in flight it
        is a clean drain on either server."""

        async def main():
            async with RenderService(renderer) as service:
                if kind == "gateway":
                    server = RenderGateway(service)
                else:
                    cluster_map = ClusterMap([BackendSpec("b0", "127.0.0.1", 1)])
                    server = ShardRouter(
                        cluster_map, monitor=HealthMonitor(cluster_map)
                    )
                await server.start()
                return await server.drain(0)

        assert asyncio.run(main()) is True

    def test_set_draining_gates_instantly_and_probe_success_clears(self):
        specs = [BackendSpec("b0", "127.0.0.1", 1)]
        monitor = HealthMonitor(ClusterMap(specs, replication=1))
        assert monitor.is_up("b0")
        monitor.set_draining("b0")
        assert not monitor.is_up("b0")  # no down_after hysteresis
        assert monitor.health("b0").up  # draining is not "down"
        # A draining process has its listeners closed — a *successful*
        # probe can only mean a fresh process answers on that port.
        monitor.observe("b0", True)
        assert monitor.is_up("b0")


class TestFleetSigterm:
    @pytest.mark.parametrize("victim_link", ["dropped", "resumed"])
    def test_sigterm_mid_stream_fails_over_without_dropping_frames(
        self, victim_link
    ):
        """SIGTERM with a short ``--drain-grace`` while a stream is in
        flight: the grace expires (honestly reported via exit code 1),
        the router fails over, and the client sees every frame exactly
        once.

        The straddle is structural, not a race against how fast a
        backend streams: the victim's link runs through a proxy that
        goes silent a few frames in, for several times the grace, and
        then either drops or resumes relaying.  However quickly the
        victim can produce frames, its stream is stuck behind an unread
        socket — still in flight — when the grace expires.  A resumed
        link must not let the victim finish the stream after its grace:
        the drain stops its frames at the grace, and the rest arrive
        from the replica."""
        rng = np.random.default_rng(61)
        cloud = make_cloud(25, rng)
        base = [
            Camera(width=72, height=56, fx=66.0 + i, fy=66.0 + i)
            for i in range(8)
        ]
        cameras = base * 48  # ~37 MB: far more than socket buffers hold
        renderer = GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)
        engine = RenderEngine(renderer)
        reference = [engine.render(cloud, camera) for camera in base]

        fleet = LocalFleet(
            2, auth_token="fleet-secret",
            extra_args=("--drain-grace", "0.2"),
        )
        specs = fleet.start()
        # Placement hashes backend ids, not addresses, so the owner is
        # known before the victim's address is swapped for the proxy's.
        victim = ClusterMap(specs, replication=2).owner(
            cloud_fingerprint(cloud)
        ).backend_id
        # Frames are ~98 KB: every link through the proxy relays four
        # of them, then nothing for 1 s (the SIGTERM below lands at the
        # start of that hold; the grace is 0.2 s), then resets or
        # resumes.
        faults = [Fault(FaultKind.DELAY, after_bytes=400_000, duration=1.0)]
        if victim_link == "dropped":
            faults.append(Fault(FaultKind.RESET, after_bytes=400_001))
        schedule = ChaosSchedule(default=faults)

        async def main():
            real = next(s for s in specs if s.backend_id == victim)
            proxy = await ChaosProxy(
                real.host, real.port, schedule=schedule
            ).start()
            cluster_map = ClusterMap(
                [
                    replace(s, port=proxy.port) if s is real else s
                    for s in specs
                ],
                replication=2,
            )
            router = ShardRouter(cluster_map, auth_token="fleet-secret")
            await router.start()
            try:
                client = await AsyncGatewayClient.connect(
                    "127.0.0.1", router.tcp_port, auth_token="fleet-secret"
                )
                try:
                    results = []
                    code = None
                    async for index, result in client.stream_trajectory(
                        cloud, cameras
                    ):
                        results.append((index, result))
                        if index == 2:
                            code = await asyncio.get_running_loop(
                            ).run_in_executor(
                                None, fleet.terminate, victim
                            )
                    return results, code, router.stats.failovers
                finally:
                    await client.close()
            finally:
                await router.close()
                await proxy.close()

        try:
            results, code, failovers = asyncio.run(main())
        finally:
            fleet.close()

        # Grace expired with the relay still in flight: exit 1, honest.
        assert code == 1
        assert failovers >= 1
        indices = [index for index, _ in results]
        assert indices == list(range(len(cameras)))  # no gaps, no dups
        for index, result in results:
            ref = reference[index % len(base)]
            assert np.array_equal(result.image, ref.image)
            assert result.stats == ref.stats

    def test_sigterm_idle_backend_drains_and_exits_zero(self):
        fleet = LocalFleet(1)
        try:
            specs = fleet.start()
            assert specs[0].backend_id == "backend-0"
            code = fleet.terminate("backend-0")
            assert code == 0
            assert not fleet.backend("backend-0").alive
        finally:
            fleet.close()
