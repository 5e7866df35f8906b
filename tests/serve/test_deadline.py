"""End-to-end deadlines and frame checksums: the serve-layer half.

Covers the protocol helpers (relative wire budget ↔ absolute monotonic
instant, blob digests), the service's deadline-bounded waits, the
pinned 504 for a RENDER whose backend is chaos-stalled behind the
router, v2 wire compatibility for requests that carry *no* deadline,
the client pool's total-deadline cap on retry backoff, and the
client-side checksum rejection path.  Plain ``asyncio.run`` drivers.
"""

import asyncio
import os
import time

import numpy as np
import pytest

from repro.chaos import ChaosProxy, ChaosSchedule, Fault, FaultKind
from repro.cluster import BackendSpec, ClusterMap, HealthMonitor, ShardRouter
from repro.core.pipeline import GSTGRenderer
from repro.engine import RenderEngine
from repro.gaussians.camera import Camera
from repro.serve import (
    AsyncGatewayClient,
    GatewayClientPool,
    GatewayError,
    RenderGateway,
    RenderService,
)
from repro.serve import protocol
from repro.serve.protocol import ErrorCode, MessageType, ProtocolError
from repro.tiles.boundary import BoundaryMethod
from tests.conftest import make_cloud


def deadline_from_header(fields: dict) -> "float | None":
    """The budget :func:`protocol.check_request` pins for a RENDER that
    carries ``fields``."""
    header = {"request_id": 1, "scene_id": "s", "camera": {}, **fields}
    return protocol.check_request(protocol.Frame(MessageType.RENDER, header)).deadline


@pytest.fixture(scope="module")
def renderer():
    return GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)


@pytest.fixture(scope="module")
def scene():
    rng = np.random.default_rng(47)
    cloud = make_cloud(30, rng)
    camera = Camera(width=80, height=60, fx=70.0, fy=70.0)
    return cloud, camera


@pytest.fixture(scope="module")
def reference(scene, renderer):
    cloud, camera = scene
    return RenderEngine(renderer).render(cloud, camera)


class TestDeadlineHelpers:
    def test_absent_field_means_no_deadline(self):
        assert deadline_from_header({}) is None
        assert protocol.deadline_remaining_ms(None) is None

    def test_budget_is_pinned_relative_to_arrival(self):
        before = time.monotonic()
        deadline = deadline_from_header({"deadline_ms": 500})
        after = time.monotonic()
        assert before + 0.5 <= deadline <= after + 0.5

    def test_remaining_ms_clamps_to_at_least_one(self):
        # A deadline that is about to expire still ships a positive
        # budget downstream (the next hop answers the 504, not a 400).
        assert protocol.deadline_remaining_ms(time.monotonic()) == 1
        remaining = protocol.deadline_remaining_ms(time.monotonic() + 2.0)
        assert 1500 <= remaining <= 2000

    @pytest.mark.parametrize(
        "value", ["soon", -1, 0, float("nan"), float("inf")]
    )
    def test_malformed_budget_is_a_400(self, value):
        with pytest.raises(ProtocolError) as info:
            deadline_from_header({"deadline_ms": value})
        assert info.value.code is ErrorCode.BAD_REQUEST

    def test_explicit_null_budget_means_absent(self):
        # JSON ``"deadline_ms": null`` is "no deadline", not a 400.
        assert deadline_from_header({"deadline_ms": None}) is None

    def test_deadline_expired_is_a_504(self):
        exc = protocol.deadline_expired("too late")
        assert exc.code is ErrorCode.DEADLINE_EXCEEDED
        assert int(ErrorCode.DEADLINE_EXCEEDED) == 504


class TestChecksums:
    def test_result_frames_carry_a_blob_digest(self, reference):
        payload = protocol.encode_result_frame(7, 0, reference)
        frame = protocol.read_frame_from(_Stream(payload))
        assert frame.header["sha256"] == protocol.blob_digest(frame.blob)
        protocol.verify_frame_checksum(frame)  # must not raise

    def test_checksum_can_be_omitted_and_absent_passes(self, reference):
        payload = protocol.encode_result_frame(7, 0, reference, checksum=False)
        frame = protocol.read_frame_from(_Stream(payload))
        assert "sha256" not in frame.header
        protocol.verify_frame_checksum(frame)  # pre-checksum peers pass

    def test_mismatch_is_a_recoverable_protocol_error(self, reference):
        payload = protocol.encode_result_frame(7, 0, reference)
        frame = protocol.read_frame_from(_Stream(payload))
        damaged = protocol.Frame(
            frame.type, frame.header,
            bytes([frame.blob[0] ^ 0xFF]) + frame.blob[1:],
        )
        with pytest.raises(ProtocolError) as info:
            protocol.verify_frame_checksum(damaged)
        # Recoverable: the frame boundary is intact, only bytes lie.
        assert not info.value.fatal
        assert info.value.code is ErrorCode.INTERNAL


class _Stream:
    """Minimal file-like reader over bytes for ``read_frame_from``."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def read(self, n: int) -> bytes:
        chunk = self._data[self._pos:self._pos + n]
        self._pos += len(chunk)
        return chunk


class TestServiceDeadline:
    def test_expired_deadline_raises_timeout(self, renderer, scene):
        cloud, camera = scene

        async def main():
            service = RenderService(renderer, max_batch_size=2, max_wait=0.001)
            try:
                with pytest.raises(asyncio.TimeoutError):
                    await service.render_frame(
                        cloud, camera, deadline=time.monotonic() - 0.001
                    )
            finally:
                await service.close()

        asyncio.run(main())

    def test_generous_deadline_changes_nothing(
        self, renderer, scene, reference
    ):
        cloud, camera = scene

        async def main():
            service = RenderService(renderer, max_batch_size=2, max_wait=0.001)
            try:
                result = await service.render_frame(
                    cloud, camera, deadline=time.monotonic() + 30.0
                )
                bare = await service.render_frame(cloud, camera)
            finally:
                await service.close()
            return result, bare

        result, bare = asyncio.run(main())
        for got in (result, bare):
            assert np.array_equal(got.image, reference.image)
            assert got.stats == reference.stats


class TestGatewayDeadline:
    @pytest.fixture(scope="class")
    def stalled_render(self, renderer, scene):
        """RENDER with ``deadline_ms=400`` against a chaos-stalled
        backend, with ``request_timeout`` far larger — so a 504
        provably came from the deadline, not the stall watchdog.  The
        stall is mid-FRAME on the backend's only link and replication
        is 1: without deadlines this request would hang for the full
        watchdog timeout.  One run, shared by the test of what was
        answered and the ``timing`` gate on how late."""
        cloud, camera = scene
        # Downstream offset 2000: past HELLO + SCENE_OK (a few hundred
        # bytes) and inside the first FRAME's ~14.4 KB pixel blob.
        schedule = ChaosSchedule(per_connection={
            0: [Fault(FaultKind.STALL, after_bytes=2000,
                      duration=float("inf"))],
        })

        async def main():
            service = RenderService(renderer, max_batch_size=2, max_wait=0.001)
            gateway = RenderGateway(service)
            await gateway.start()
            proxy = ChaosProxy(
                "127.0.0.1", gateway.tcp_port, schedule=schedule
            )
            await proxy.start()
            specs = [BackendSpec("b0", "127.0.0.1", proxy.port)]
            cluster_map = ClusterMap(specs, replication=1)
            monitor = HealthMonitor(cluster_map)  # never started
            router = ShardRouter(
                cluster_map, monitor=monitor, request_timeout=5.0
            )
            await router.start()
            try:
                client = await AsyncGatewayClient.connect(
                    "127.0.0.1", router.tcp_port
                )
                try:
                    start = time.monotonic()
                    with pytest.raises(GatewayError) as info:
                        await client.render_frame(
                            cloud, camera, deadline_ms=400
                        )
                    elapsed = time.monotonic() - start
                finally:
                    await client.close()
                return info.value, elapsed, router.stats.failovers, proxy.stats
            finally:
                await router.close()
                await proxy.close()
                await gateway.close()
                await service.close()

        return asyncio.run(main())

    def test_render_against_stalled_backend_is_a_pinned_504(
        self, stalled_render
    ):
        error, elapsed, failovers, stats = stalled_render
        assert error.code == int(ErrorCode.DEADLINE_EXCEEDED)
        assert stats.count(FaultKind.STALL) == 1  # the stall really fired
        assert 0.35 <= elapsed  # never before the deadline
        # Deadline expiry is the *client's* problem, not the backend's:
        # no failover, no failure charged to a healthy-but-late backend.
        assert failovers == 0

    @pytest.mark.timing
    def test_the_504_arrives_within_one_hop_of_the_deadline(
        self, stalled_render
    ):
        """The acceptance bound: at most deadline + one relay hop of
        slack — nowhere near the 5 s watchdog.  Env-softenable for
        noisy shared runners."""
        elapsed = stalled_render[1]
        assert elapsed < float(os.environ.get("DEADLINE_SMOKE_MAX_S", "2.0"))


class TestWireCompat:
    def test_request_without_deadline_is_served_exactly_as_before(
        self, renderer, scene, reference
    ):
        """An old v2 client — raw frames, no ``deadline_ms``, no
        knowledge of ``sha256`` — round-trips unchanged against a new
        gateway, and the FRAME it gets back decodes bit-identically
        while carrying the (ignorable) checksum field."""
        cloud, camera = scene

        async def main():
            service = RenderService(renderer, max_batch_size=2, max_wait=0.001)
            gateway = RenderGateway(service)
            await gateway.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", gateway.tcp_port
                )
                try:
                    await protocol.client_hello(reader, writer, None)
                    header, blob = protocol.encode_cloud(cloud)
                    writer.write(protocol.encode_frame(
                        MessageType.SCENE, header, blob
                    ))
                    await writer.drain()
                    frame = await protocol.read_frame(reader)
                    assert frame.type is MessageType.SCENE_OK
                    scene_id = frame.header["scene_id"]
                    writer.write(protocol.encode_frame(
                        MessageType.RENDER,
                        {
                            "request_id": 1,
                            "scene_id": scene_id,
                            "camera": protocol.encode_camera(camera),
                        },
                    ))
                    await writer.drain()
                    return await protocol.read_frame(reader)
                finally:
                    writer.close()
            finally:
                await gateway.close()
                await service.close()

        frame = asyncio.run(main())
        assert frame.type is MessageType.FRAME
        # The checksum rides along; a v2 decoder simply never looks.
        assert frame.header["sha256"] == protocol.blob_digest(frame.blob)
        request_id, index, result = protocol.decode_result_frame(frame)
        assert (request_id, index) == (1, 0)
        assert np.array_equal(result.image, reference.image)
        assert result.stats == reference.stats


class TestPoolDeadline:
    def test_backoff_never_outlives_the_deadline(self, scene, monkeypatch):
        """A retry sleep that would land past the request deadline is
        not taken: the pool raises 504 immediately instead of burning
        the remaining budget asleep and delivering a late failure."""
        cloud, camera = scene
        sleeps = []
        real_sleep = asyncio.sleep

        async def recorded_sleep(delay, *args, **kwargs):
            sleeps.append(delay)
            return await real_sleep(delay, *args, **kwargs)

        async def main():
            # Nothing listens here: every attempt is a retryable 503.
            sock_holder = await asyncio.start_server(
                lambda r, w: None, host="127.0.0.1", port=0
            )
            port = sock_holder.sockets[0].getsockname()[1]
            sock_holder.close()
            await sock_holder.wait_closed()
            pool = GatewayClientPool(
                "127.0.0.1", port,
                retries=10, backoff=1.0, connect_timeout=0.5,
            )
            try:
                with pytest.raises(GatewayError) as info:
                    await pool.render_frame(cloud, camera, deadline_ms=250)
                return info.value
            finally:
                await pool.close()

        monkeypatch.setattr(asyncio, "sleep", recorded_sleep)
        error = asyncio.run(main())
        assert error.code == int(ErrorCode.DEADLINE_EXCEEDED)
        # backoff=1.0 means the first sleep alone (≥ 0.5 s jittered)
        # would outlive the 250 ms deadline: the pool must not sleep.
        assert sleeps == []


    def test_budget_bounds_the_reconnect(self, scene):
        """A server that accepts and never sends HELLO: the reconnect
        may take ``connect_timeout``, but the request's budget ends the
        wait with a 504, not a 503 once the connect times out."""
        cloud, camera = scene

        async def mute(reader, writer):
            await reader.read()
            writer.close()

        async def main():
            server = await asyncio.start_server(
                mute, host="127.0.0.1", port=0
            )
            port = server.sockets[0].getsockname()[1]
            pool = GatewayClientPool("127.0.0.1", port, connect_timeout=5)
            try:
                with pytest.raises(GatewayError) as info:
                    await asyncio.wait_for(
                        pool.render_frame(cloud, camera, deadline_ms=200),
                        2.5,  # a hang guard below connect_timeout
                    )
                return info.value
            finally:
                await pool.close()
                server.close()
                await server.wait_closed()

        error = asyncio.run(main())
        assert error.code == int(ErrorCode.DEADLINE_EXCEEDED)
        assert "connecting" in error.message


    @staticmethod
    def _late_hello_pool(scenario):
        """Run ``scenario(pool, release, ended)`` against a server that
        sends HELLO only once ``release`` is set, answers STATS, and
        sets ``ended`` when the client ends its connection; returns
        the scenario's result and the number of connections made."""
        release = asyncio.Event()
        connections = []
        ended = asyncio.Event()

        async def late_hello(reader, writer):
            connections.append(writer)
            await release.wait()
            writer.write(protocol.encode_frame(
                MessageType.HELLO, {"version": protocol.PROTOCOL_VERSION}
            ))
            while (frame := await protocol.read_frame(reader)) is not None:
                if frame.type is MessageType.BYE:
                    break
                if frame.type is MessageType.STATS:
                    writer.write(protocol.encode_frame(
                        MessageType.STATS_OK, {"service": {}, "gateway": {}}
                    ))
                await writer.drain()
            ended.set()
            writer.close()

        async def main():
            server = await asyncio.start_server(
                late_hello, host="127.0.0.1", port=0
            )
            port = server.sockets[0].getsockname()[1]
            pool = GatewayClientPool(
                "127.0.0.1", port, size=1, connect_timeout=5
            )
            try:
                return await scenario(pool, release, ended), len(connections)
            finally:
                await pool.close()
                server.close()
                await server.wait_closed()

        return asyncio.run(main())

    def test_a_cut_short_reconnect_fills_the_slot(self, scene):
        cloud, camera = scene

        async def scenario(pool, release, ended):
            with pytest.raises(GatewayError) as info:
                await pool.render_frame(cloud, camera, deadline_ms=200)
            release.set()
            await asyncio.wait_for(pool.stats_dict(), 5)
            return info.value

        error, connections = self._late_hello_pool(scenario)
        assert error.code == int(ErrorCode.DEADLINE_EXCEEDED)
        assert connections == 1  # the next request found it connected

    def test_a_reconnect_landing_after_close_is_not_kept(self, scene):
        cloud, camera = scene

        async def scenario(pool, release, ended):
            with pytest.raises(GatewayError):
                await pool.render_frame(cloud, camera, deadline_ms=200)
            await pool.close()
            release.set()  # the connect completes on a closed pool
            await asyncio.wait_for(ended.wait(), 5)  # and is ended

        _, connections = self._late_hello_pool(scenario)
        assert connections == 1


class TestClientChecksum:
    def test_client_rejects_a_lying_frame_as_retryable(self, scene):
        """A FRAME whose blob does not match its ``sha256`` must never
        surface as pixels: the client raises a retryable 503."""
        cloud, camera = scene

        async def serve_corrupt(reader, writer):
            writer.write(protocol.encode_frame(
                MessageType.HELLO, {"version": protocol.PROTOCOL_VERSION}
            ))
            await writer.drain()
            while True:
                frame = await protocol.read_frame(reader)
                if frame is None:
                    break
                if frame.type is MessageType.SCENE:
                    writer.write(protocol.encode_frame(
                        MessageType.SCENE_OK, {"scene_id": "s"}
                    ))
                elif frame.type is MessageType.RENDER:
                    blob = b"\x00" * 12
                    writer.write(protocol.encode_frame(
                        MessageType.FRAME,
                        {
                            "request_id": frame.header["request_id"],
                            "index": 0,
                            "image": {"dtype": "|u1", "shape": [2, 2, 3]},
                            "stats": {},
                            "sha256": "0" * 64,  # does not match blob
                        },
                        blob,
                    ))
                await writer.drain()
            writer.close()

        async def main():
            server = await asyncio.start_server(
                serve_corrupt, host="127.0.0.1", port=0
            )
            port = server.sockets[0].getsockname()[1]
            try:
                client = await AsyncGatewayClient.connect("127.0.0.1", port)
                try:
                    with pytest.raises(GatewayError) as info:
                        await client.render_frame(cloud, camera)
                finally:
                    await client.close()
                return info.value
            finally:
                server.close()
                await server.wait_closed()

        error = asyncio.run(main())
        assert error.code == int(ErrorCode.SHUTTING_DOWN)  # retryable
        assert "checksum" in error.message.lower()
