"""Tests for the network render gateway.

The acceptance property: a trajectory streamed over a **real localhost
TCP socket** is bit-identical to direct ``RenderEngine.render`` output.
The failure modes around it: a client disconnecting mid-stream cancels
its service request, malformed frames get error responses without
killing the server, admission control rejects with 429 frames at
``max_pending``, and the HTTP adapter serves one-shot renders.

Plain ``asyncio.run`` drivers — no async test plugin required.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.core.pipeline import GSTGRenderer
from repro.engine import RenderEngine
from repro.gaussians.camera import Camera
from repro.serve import (
    AsyncGatewayClient,
    GatewayClient,
    GatewayError,
    RenderGateway,
    RenderService,
    run_clients,
    verify_streamed_images,
)
from repro.serve import protocol
from repro.serve.protocol import ErrorCode, MessageType
from repro.tiles.boundary import BoundaryMethod
from tests.conftest import make_cloud


@pytest.fixture(scope="module")
def scene():
    rng = np.random.default_rng(31)
    cloud = make_cloud(40, rng)
    cameras = [
        Camera(width=96, height=64, fx=80.0 + i, fy=80.0 + i) for i in range(6)
    ]
    return cloud, cameras


@pytest.fixture(scope="module")
def renderer():
    return GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)


@pytest.fixture(scope="module")
def reference(scene, renderer):
    cloud, cameras = scene
    engine = RenderEngine(renderer)
    return [engine.render(cloud, camera) for camera in cameras]


def run_with_gateway(renderer, body, **gateway_kwargs):
    """Start a service + gateway, run ``body(service, gateway)``, clean up."""

    async def main():
        async with RenderService(
            renderer, max_batch_size=4, max_wait=0.002
        ) as service:
            gateway = RenderGateway(service, **gateway_kwargs)
            await gateway.start()
            try:
                return await body(service, gateway)
            finally:
                await gateway.close()

    return asyncio.run(main())


class TestStreaming:
    def test_tcp_stream_bit_identical(self, scene, renderer, reference):
        """The acceptance criterion, over a real localhost socket."""
        cloud, cameras = scene

        async def body(service, gateway):
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", gateway.tcp_port
            )
            try:
                results = []
                async for index, result in client.stream_trajectory(
                    cloud, cameras
                ):
                    results.append((index, result))
                return results
            finally:
                await client.close()

        results = run_with_gateway(renderer, body)
        assert [index for index, _ in results] == list(range(len(cameras)))
        for (_, result), ref in zip(results, reference):
            assert np.array_equal(result.image, ref.image)
            assert result.stats == ref.stats

    def test_client_reads_a_frame_without_pausing_its_transport(
        self, scene, renderer
    ):
        """Frames here (147 KB) exceed twice asyncio's default reader
        limit, where the transport would stop reading mid-frame; the
        client's own limit leaves room for several."""
        from repro.serve import client as client_module

        cloud, cameras = scene
        pauses = []

        async def body(service, gateway):
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", gateway.tcp_port
            )
            transport = client._writer.transport
            pause = transport.pause_reading
            transport.pause_reading = lambda: (pauses.append(1), pause())[1]
            try:
                return [
                    result.image.nbytes
                    async for _, result in client.stream_trajectory(
                        cloud, cameras
                    )
                ]
            finally:
                await client.close()

        sizes = run_with_gateway(renderer, body)
        assert min(sizes) > 2 * 64 * 1024
        assert client_module.READ_LIMIT >= 2 * max(sizes)
        assert not pauses

    def test_concurrent_connections_shared_verified(self, scene, renderer):
        """Several real connections; the shared verify helper passes and
        the service still coalesces across them."""
        cloud, cameras = scene

        async def body(service, gateway):
            clients = [
                await AsyncGatewayClient.connect("127.0.0.1", gateway.tcp_port)
                for _ in range(3)
            ]
            try:
                return await run_clients(
                    clients, cloud, [list(cameras)] * 3, keep_images=True
                )
            finally:
                for client in clients:
                    await client.close()

        report = run_with_gateway(renderer, body)
        assert report.frames == 3 * len(cameras)
        assert not verify_streamed_images(
            renderer, cloud, cameras, report.images
        )
        assert report.service["engine_renders"] < report.frames
        assert report.service["gateway"]["streams"] == 3
        assert report.service["gateway"]["frames_sent"] == report.frames

    def test_sync_client_stream_and_render(self, scene, renderer, reference):
        cloud, cameras = scene

        async def body(service, gateway):
            def sync_work():
                with GatewayClient("127.0.0.1", gateway.tcp_port) as client:
                    single = client.render_frame(cloud, cameras[0])
                    frames = list(client.stream_trajectory(cloud, cameras))
                    return single, frames, client.stats_dict()

            return await asyncio.get_running_loop().run_in_executor(
                None, sync_work
            )

        single, frames, stats = run_with_gateway(renderer, body)
        assert stats["gateway"]["streams"] == 1
        assert stats["gateway"]["frames_sent"] == len(cameras) + 1
        assert np.array_equal(single.image, reference[0].image)
        assert single.stats == reference[0].stats
        assert len(frames) == len(cameras)
        for (index, result), ref in zip(frames, reference):
            assert np.array_equal(result.image, ref.image)

    def test_sync_client_abandoned_stream_keeps_connection_usable(
        self, scene, renderer, reference
    ):
        cloud, cameras = scene

        async def body(service, gateway):
            def sync_work():
                with GatewayClient("127.0.0.1", gateway.tcp_port) as client:
                    stream = client.stream_trajectory(cloud, cameras)
                    next(stream)
                    stream.close()  # CANCEL goes out; stale frames skipped
                    return client.render_frame(cloud, cameras[2])

            return await asyncio.get_running_loop().run_in_executor(
                None, sync_work
            )

        result = run_with_gateway(renderer, body)
        assert np.array_equal(result.image, reference[2].image)


class TestFailureModes:
    def test_disconnect_mid_stream_cancels_service_request(
        self, scene, renderer, reference
    ):
        """Dropping the socket mid-stream cancels the outstanding service
        work, and the server keeps serving other clients."""
        cloud, cameras = scene
        # Long enough that the frames cannot all fit into the socket
        # buffers: the server must still be streaming at disconnect time.
        long_trajectory = list(cameras) * 10

        async def body(service, gateway):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.tcp_port
            )
            hello = await protocol.read_frame(reader)
            assert hello.type is MessageType.HELLO
            header, blob = protocol.encode_cloud(cloud)
            writer.write(protocol.encode_frame(MessageType.SCENE, header, blob))
            await writer.drain()
            scene_ok = await protocol.read_frame(reader)
            assert scene_ok.type is MessageType.SCENE_OK
            writer.write(
                protocol.encode_frame(
                    MessageType.STREAM,
                    {
                        "request_id": 1,
                        "scene_id": scene_ok.header["scene_id"],
                        "cameras": [
                            protocol.encode_camera(camera)
                            for camera in long_trajectory
                        ],
                    },
                )
            )
            await writer.drain()
            # Read exactly one frame, then vanish without CANCEL or BYE.
            first = await protocol.read_frame(reader)
            assert first.type is MessageType.FRAME
            writer.close()
            await writer.wait_closed()

            # The handler notices the EOF and cancels the stream task.
            for _ in range(100):
                if gateway.stats.cancelled_requests >= 1:
                    break
                await asyncio.sleep(0.01)
            assert gateway.stats.cancelled_requests >= 1

            # The gateway still serves a fresh client afterwards.
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", gateway.tcp_port
            )
            try:
                return await client.render_frame(cloud, cameras[0])
            finally:
                await client.close()

        result = run_with_gateway(renderer, body)
        assert np.array_equal(result.image, reference[0].image)

    def test_garbage_bytes_fatal_error_but_server_lives(
        self, scene, renderer, reference
    ):
        """A corrupt frame boundary closes that connection with an ERROR,
        and the listener keeps accepting."""
        cloud, cameras = scene

        async def body(service, gateway):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.tcp_port
            )
            await protocol.read_frame(reader)  # HELLO
            writer.write(b"\xff" * 64)  # insane length prefix
            await writer.drain()
            error = await protocol.read_frame(reader)
            assert error.type is MessageType.ERROR
            assert error.header["code"] == int(ErrorCode.FRAME_TOO_LARGE)
            assert await reader.read() == b""  # server closed the connection
            writer.close()
            await writer.wait_closed()

            client = await AsyncGatewayClient.connect(
                "127.0.0.1", gateway.tcp_port
            )
            try:
                return await client.render_frame(cloud, cameras[0])
            finally:
                await client.close()

        result = run_with_gateway(renderer, body)
        assert np.array_equal(result.image, reference[0].image)

    def test_malformed_request_keeps_connection_alive(self, scene, renderer):
        """Well-framed nonsense gets an ERROR frame; the same connection
        then serves a valid request."""
        cloud, cameras = scene

        async def body(service, gateway):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.tcp_port
            )
            await protocol.read_frame(reader)  # HELLO

            async def expect_error(code):
                frame = await protocol.read_frame(reader)
                assert frame.type is MessageType.ERROR
                assert frame.header["code"] == int(code)

            # Bad JSON header (framing intact).
            import struct

            header = b"{broken"
            payload = (
                struct.pack("!BI", int(MessageType.RENDER), len(header))
                + header
            )
            writer.write(struct.pack("!I", len(payload)) + payload)
            await writer.drain()
            await expect_error(ErrorCode.BAD_REQUEST)

            # Unknown message type.
            payload = struct.pack("!BI", 99, 2) + b"{}"
            writer.write(struct.pack("!I", len(payload)) + payload)
            await writer.drain()
            await expect_error(ErrorCode.BAD_REQUEST)

            # RENDER without a registered scene.
            writer.write(
                protocol.encode_frame(
                    MessageType.RENDER,
                    {
                        "request_id": 5,
                        "scene_id": "nope",
                        "camera": protocol.encode_camera(cameras[0]),
                    },
                )
            )
            await writer.drain()
            await expect_error(ErrorCode.UNKNOWN_SCENE)

            # RENDER with a bad request id.
            writer.write(
                protocol.encode_frame(
                    MessageType.RENDER, {"request_id": "seven"}
                )
            )
            await writer.drain()
            await expect_error(ErrorCode.BAD_REQUEST)

            # ... and the connection still works end to end.
            header, blob = protocol.encode_cloud(cloud)
            writer.write(protocol.encode_frame(MessageType.SCENE, header, blob))
            await writer.drain()
            scene_ok = await protocol.read_frame(reader)
            assert scene_ok.type is MessageType.SCENE_OK
            writer.write(
                protocol.encode_frame(
                    MessageType.RENDER,
                    {
                        "request_id": 6,
                        "scene_id": scene_ok.header["scene_id"],
                        "camera": protocol.encode_camera(cameras[0]),
                    },
                )
            )
            await writer.drain()
            frame = await protocol.read_frame(reader)
            assert frame.type is MessageType.FRAME
            writer.close()
            await writer.wait_closed()
            return gateway.stats.errors

        errors = run_with_gateway(renderer, body)
        assert errors == 4

    def test_admission_reject_429(self, scene, renderer):
        """At max_pending the gateway rejects instead of queueing."""
        cloud, cameras = scene

        async def body(service, gateway):
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", gateway.tcp_port
            )
            try:
                scene_id = await client.ensure_scene(cloud)
                # Occupy the single admission slot with a stream whose
                # first batch sits on a long flush timer.
                stream = client.stream_trajectory(cloud, cameras)
                stream_started = asyncio.ensure_future(stream.__anext__())
                for _ in range(100):
                    if gateway._pending >= 1:
                        break
                    await asyncio.sleep(0.005)
                with pytest.raises(GatewayError) as excinfo:
                    await client.render_frame(cloud, cameras[0])
                assert excinfo.value.code == int(ErrorCode.REJECTED)
                assert gateway.stats.rejected == 1
                assert gateway.stats.errors == 0  # 429s are not errors
                # Let the stream finish: the slot frees and requests pass.
                await stream_started
                async for _ in stream:
                    pass
                result = await client.render_frame(cloud, cameras[0])
                return result, scene_id
            finally:
                await client.close()

        async def main():
            async with RenderService(
                renderer, max_batch_size=8, max_wait=0.2
            ) as service:
                gateway = RenderGateway(service, max_pending=1)
                await gateway.start()
                try:
                    return await body(service, gateway)
                finally:
                    await gateway.close()

        result, _ = asyncio.run(main())
        engine = RenderEngine(renderer)
        assert np.array_equal(
            result.image, engine.render(cloud, cameras[0]).image
        )

    def test_scene_registry_bound(self, renderer):
        rng = np.random.default_rng(37)
        clouds = [make_cloud(12, rng) for _ in range(3)]
        camera = Camera(width=64, height=48, fx=60.0, fy=60.0)

        async def body(service, gateway):
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", gateway.tcp_port
            )
            try:
                await client.ensure_scene(clouds[0])
                await client.ensure_scene(clouds[1])
                with pytest.raises(GatewayError) as excinfo:
                    await client.ensure_scene(clouds[2])
                assert excinfo.value.code == int(ErrorCode.BAD_REQUEST)
                # Registered scenes still render.
                return await client.render_frame(clouds[0], camera)
            finally:
                await client.close()

        result = run_with_gateway(renderer, body, max_scenes=2)
        engine = RenderEngine(renderer)
        assert np.array_equal(
            result.image, engine.render(clouds[0], camera).image
        )

    def test_validation(self, renderer):
        service = RenderService(renderer)
        with pytest.raises(ValueError):
            RenderGateway(service, max_pending=0)
        with pytest.raises(ValueError):
            RenderGateway(service, max_scenes=0)


class TestHttpAdapter:
    def test_http_routes(self, scene, renderer, reference):
        cloud, cameras = scene

        async def http_get(port, path):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
            await writer.drain()
            data = await reader.read()
            writer.close()
            await writer.wait_closed()
            head, _, body = data.partition(b"\r\n\r\n")
            status = int(head.split(b" ", 2)[1])
            return status, body

        async def body(service, gateway):
            gateway.register_scene("test", cloud, cameras)
            await gateway.start_http()
            port = gateway.http_port
            out = {}
            out["health"] = await http_get(port, "/healthz")
            out["stats"] = await http_get(port, "/stats")
            out["json"] = await http_get(
                port, "/render?scene=test&view=1&format=json"
            )
            out["ppm"] = await http_get(port, "/render?scene=test&view=0")
            out["missing"] = await http_get(port, "/render?scene=ghost")
            out["bad_view"] = await http_get(
                port, "/render?scene=test&view=99"
            )
            out["negative_view"] = await http_get(
                port, "/render?scene=test&view=-1"
            )
            out["bad_route"] = await http_get(port, "/nope")
            return out

        out = run_with_gateway(renderer, body)
        assert out["health"][0] == 200
        assert json.loads(out["health"][1]) == {"status": "ok"}
        stats = json.loads(out["stats"][1])
        assert "service" in stats and "gateway" in stats

        status, payload = out["json"]
        assert status == 200
        info = json.loads(payload)
        import hashlib

        expected = hashlib.sha256(
            np.ascontiguousarray(reference[1].image).tobytes()
        ).hexdigest()
        assert info["image_sha256"] == expected

        status, payload = out["ppm"]
        assert status == 200 and payload.startswith(b"P6\n")
        assert out["missing"][0] == 404
        assert out["bad_view"][0] == 400
        assert out["negative_view"][0] == 400  # no negative indexing
        assert out["bad_route"][0] == 404

    def test_http_stream_chunked_ndjson(self, scene, renderer, reference):
        """/stream emits a chunked NDJSON body whose per-frame SHA-256s
        all match direct engine renders — the whole-trajectory
        bit-identity check from a shell."""
        cloud, cameras = scene

        async def http_get_raw(port, path):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
            await writer.drain()
            data = await reader.read()
            writer.close()
            await writer.wait_closed()
            head, _, body = data.partition(b"\r\n\r\n")
            return head, body

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

        async def body(service, gateway):
            gateway.register_scene("test", cloud, cameras)
            await gateway.start_http()
            port = gateway.http_port
            out = {}
            out["json"] = await http_get_raw(port, "/stream?scene=test")
            out["window"] = await http_get_raw(
                port, "/stream?scene=test&start=2&frames=3"
            )
            out["ppm"] = await http_get_raw(
                port, "/stream?scene=test&frames=2&format=ppm"
            )
            out["missing"] = await http_get_raw(port, "/stream?scene=ghost")
            out["bad_window"] = await http_get_raw(
                port, f"/stream?scene=test&frames={len(cameras) + 1}"
            )
            out["bad_int"] = await http_get_raw(
                port, "/stream?scene=test&frames=soon"
            )
            out["bad_format"] = await http_get_raw(
                port, "/stream?scene=test&format=gif"
            )
            return out

        out = run_with_gateway(renderer, body)

        import hashlib

        head, payload = out["json"]
        assert b" 200 " in head.split(b"\r\n")[0]
        assert b"Transfer-Encoding: chunked" in head
        assert payload.endswith(b"0\r\n\r\n")  # complete, not truncated
        records = [
            json.loads(line)
            for line in dechunk(payload).decode().splitlines()
            if line
        ]
        # The body terminates with an explicit eos record: a consumer
        # can tell "stream complete" from "connection died mid-body".
        eos = records.pop()
        assert eos == {"type": "eos", "frames": len(cameras)}
        assert [record["view"] for record in records] == list(
            range(len(cameras))
        )
        for record, ref in zip(records, reference):
            expected = hashlib.sha256(
                np.ascontiguousarray(ref.image).tobytes()
            ).hexdigest()
            assert record["image_sha256"] == expected

        head, payload = out["window"]
        records = [
            json.loads(line)
            for line in dechunk(payload).decode().splitlines()
            if line
        ]
        assert records.pop() == {"type": "eos", "frames": 3}
        assert [record["view"] for record in records] == [2, 3, 4]

        head, payload = out["ppm"]
        images = dechunk(payload)
        assert images.count(b"P6\n") == 2  # two concatenated PPM frames

        assert out["missing"][0].split(b"\r\n")[0].split(b" ")[1] == b"404"
        for key in ("bad_window", "bad_int", "bad_format"):
            assert out[key][0].split(b"\r\n")[0].split(b" ")[1] == b"400"

    def test_http_rejects_non_get(self, scene, renderer):
        cloud, cameras = scene

        async def body(service, gateway):
            await gateway.start_http()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.http_port
            )
            writer.write(b"POST /render HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            data = await reader.read()
            writer.close()
            await writer.wait_closed()
            return data

        data = run_with_gateway(renderer, body)
        assert b"405" in data.split(b"\r\n", 1)[0]


class TestServiceIntegration:
    def test_batch_workers_over_gateway_bit_identical(
        self, scene, renderer, reference
    ):
        """Pool-rendered batches (thread executor) through the socket."""
        cloud, cameras = scene

        async def main():
            async with RenderService(
                renderer,
                max_batch_size=4,
                max_wait=0.002,
                batch_workers=2,
                batch_executor="thread",
            ) as service:
                gateway = RenderGateway(service)
                await gateway.start()
                try:
                    client = await AsyncGatewayClient.connect(
                        "127.0.0.1", gateway.tcp_port
                    )
                    try:
                        return [
                            result
                            async for _, result in client.stream_trajectory(
                                cloud, cameras
                            )
                        ]
                    finally:
                        await client.close()
                finally:
                    await gateway.close()

        results = asyncio.run(main())
        for result, ref in zip(results, reference):
            assert np.array_equal(result.image, ref.image)
            assert result.stats == ref.stats

    def test_stats_roundtrip(self, scene, renderer):
        cloud, cameras = scene

        async def body(service, gateway):
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", gateway.tcp_port
            )
            try:
                await client.render_frame(cloud, cameras[0])
                return await client.stats_dict()
            finally:
                await client.close()

        stats = run_with_gateway(renderer, body)
        assert stats["requests"] == 1
        assert stats["engine_renders"] == 1
        assert stats["gateway"]["connections"] == 1
        assert stats["gateway"]["frames_sent"] == 1
