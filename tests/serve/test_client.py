"""The protocol client against fake servers.

Covers what a real gateway cannot be made to do on cue: a frame whose
declared length breaks the bound (the async client's 503 must say why
the connection was lost), and a server that never answers a RENDER (the
blocking facade's local deadline: a 504 and a CANCEL on the wire).  The
facade's loop thread must not outlive ``close()`` or a refused connect.
No clock: every wait is on a socket or an event, and ``timeout`` on the
blocking client serves only as the hang bound.
"""

import asyncio
import struct
import threading

import numpy as np
import pytest

from repro.gaussians.camera import Camera
from repro.serve import AsyncGatewayClient, GatewayClient, GatewayError
from repro.serve import protocol
from repro.serve.auth import AUTH_TOKEN_ENV
from repro.serve.protocol import ErrorCode, MessageType
from tests.conftest import make_cloud


def _hello(**extra) -> bytes:
    return protocol.encode_frame(
        MessageType.HELLO, {"version": protocol.PROTOCOL_VERSION, **extra}
    )


def _with_server(handler, body):
    """Run ``await body(port)`` while ``handler`` serves each connection."""

    async def main():
        server = await asyncio.start_server(handler, host="127.0.0.1", port=0)
        try:
            return await body(server.sockets[0].getsockname()[1])
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(main())


def _in_thread(work):
    """``body`` for :func:`_with_server` running blocking ``work(port)``."""

    async def body(port):
        return await asyncio.get_running_loop().run_in_executor(
            None, work, port
        )

    return body


def _client_threads() -> "set[threading.Thread]":
    return {
        thread for thread in threading.enumerate()
        if thread.name == "GatewayClient" and thread.is_alive()
    }


class TestConnectionLost:
    def test_503_names_the_protocol_error(self):
        """A frame over ``MAX_FRAME_BYTES`` kills the connection; the
        waiter's 503 carries the decoder's reason, not just "lost"."""

        async def serve(reader, writer):
            writer.write(_hello())
            await writer.drain()
            await protocol.read_frame(reader)  # the client's STATS
            writer.write(struct.pack("!I", protocol.MAX_FRAME_BYTES + 1))
            await writer.drain()
            await reader.read()
            writer.close()

        async def body(port):
            client = await AsyncGatewayClient.connect("127.0.0.1", port)
            try:
                with pytest.raises(GatewayError) as info:
                    await client.stats_dict()
            finally:
                await client.close()
            return info.value

        error = _with_server(serve, body)
        assert error.code == int(ErrorCode.SHUTTING_DOWN)
        assert "gateway connection lost" in error.message
        assert "declared frame length" in error.message


class TestBlockingFacade:
    def test_deadline_bounds_the_local_wait(self):
        """A RENDER the server never answers: the blocking client raises
        a 504 at ``deadline_ms`` and cancels the request on the wire."""
        cloud = make_cloud(6, np.random.default_rng(5))
        camera = Camera(width=3, height=4, fx=50.0, fy=50.0)
        received: "list[protocol.Frame]" = []

        async def serve(reader, writer):
            writer.write(_hello())
            while (frame := await protocol.read_frame(reader)) is not None:
                received.append(frame)
                if frame.type is MessageType.SCENE:
                    writer.write(protocol.encode_frame(
                        MessageType.SCENE_OK, {"scene_id": "s"}
                    ))
                if frame.type is MessageType.BYE:
                    break
                await writer.drain()
            writer.close()

        def work(port):
            with GatewayClient("127.0.0.1", port, timeout=5) as client:
                with pytest.raises(GatewayError) as info:
                    client.render_frame(cloud, camera, deadline_ms=200)
            return info.value

        error = _with_server(serve, _in_thread(work))
        assert error.code == int(ErrorCode.DEADLINE_EXCEEDED)
        types = [frame.type for frame in received]
        assert types == [
            MessageType.SCENE,
            MessageType.RENDER,
            MessageType.CANCEL,
            MessageType.BYE,
        ]
        render, cancel = received[1], received[2]
        assert render.header["deadline_ms"] == 200
        assert cancel.header["request_id"] == render.header["request_id"]

    def test_no_thread_outlives_close_or_a_refused_connect(
        self, monkeypatch
    ):
        monkeypatch.delenv(AUTH_TOKEN_ENV, raising=False)
        auth_required = False

        async def serve(reader, writer):
            writer.write(_hello(auth_required=auth_required))
            await writer.drain()
            await reader.read()
            writer.close()

        def work(port):
            nonlocal auth_required
            before = _client_threads()
            client = GatewayClient("127.0.0.1", port, timeout=5)
            running = _client_threads() - before
            client.close()
            after_close = _client_threads() - before
            client.close()
            after_second_close = _client_threads() - before
            auth_required = True
            with pytest.raises(GatewayError) as info:
                GatewayClient("127.0.0.1", port, timeout=5)
            after_refusal = _client_threads() - before
            return (
                running, after_close, after_second_close, after_refusal,
                info.value,
            )

        running, after_close, after_second_close, after_refusal, error = (
            _with_server(serve, _in_thread(work))
        )
        assert len(running) == 1
        assert after_close == after_second_close == after_refusal == set()
        assert error.code == int(ErrorCode.UNAUTHORIZED)


class TestSceneBudget:
    """A server that sends HELLO and never answers SCENE: ``deadline_ms``
    bounds the scene push, so each client ends in a 504 rather than in
    the outer hang guard."""

    cloud = make_cloud(6, np.random.default_rng(9))
    camera = Camera(width=3, height=4, fx=50.0, fy=50.0)

    @staticmethod
    async def _silent(reader, writer):
        writer.write(_hello())
        await writer.drain()
        await reader.read()  # takes everything, answers nothing
        writer.close()

    def test_async_client_render_and_stream_are_504s(self):
        async def stream(client):
            async for _ in client.stream_trajectory(
                self.cloud, [self.camera], deadline_ms=200
            ):
                pass

        async def body(port):
            client = await AsyncGatewayClient.connect("127.0.0.1", port)
            errors = []
            try:
                for call in (
                    client.render_frame(
                        self.cloud, self.camera, deadline_ms=200
                    ),
                    stream(client),
                ):
                    with pytest.raises(GatewayError) as info:
                        await asyncio.wait_for(call, 5)
                    errors.append(info.value)
            finally:
                await client.close()
            return errors

        errors = _with_server(self._silent, body)
        assert [error.code for error in errors] == [
            int(ErrorCode.DEADLINE_EXCEEDED)
        ] * 2

    def test_blocking_client_render_and_stream_are_504s(self):
        def work(port):
            errors = []
            with GatewayClient("127.0.0.1", port, timeout=5) as client:
                with pytest.raises(GatewayError) as info:
                    client.render_frame(
                        self.cloud, self.camera, deadline_ms=200
                    )
                errors.append(info.value)
                with pytest.raises(GatewayError) as info:
                    list(client.stream_trajectory(
                        self.cloud, [self.camera], deadline_ms=200
                    ))
                errors.append(info.value)
            return errors

        errors = _with_server(self._silent, _in_thread(work))
        assert [error.code for error in errors] == [
            int(ErrorCode.DEADLINE_EXCEEDED)
        ] * 2

    def test_a_cut_short_scene_push_leaves_no_reply_in_flight(self):
        """The SCENE_OK of a push the budget cut short arrives late; it
        must be consumed by the push, not answer the next round trip."""
        late = asyncio.Event()
        received = []

        async def serve(reader, writer):
            writer.write(_hello())
            while (frame := await protocol.read_frame(reader)) is not None:
                received.append(frame.type)
                if frame.type is MessageType.SCENE:
                    await late.wait()
                    writer.write(protocol.encode_frame(
                        MessageType.SCENE_OK, {"scene_id": "s"}
                    ))
                elif frame.type is MessageType.STATS:
                    writer.write(protocol.encode_frame(
                        MessageType.STATS_OK, {"service": {"requests": 7}}
                    ))
                await writer.drain()
            writer.close()

        async def body(port):
            client = await AsyncGatewayClient.connect("127.0.0.1", port)
            try:
                with pytest.raises(GatewayError) as info:
                    await asyncio.wait_for(
                        client.render_frame(
                            self.cloud, self.camera, deadline_ms=200
                        ),
                        5,
                    )
                late.set()
                stats = await asyncio.wait_for(client.stats_dict(), 5)
                scene_id = await client.ensure_scene(self.cloud)
            finally:
                await client.close()
            return info.value, stats, scene_id

        error, stats, scene_id = _with_server(serve, body)
        assert error.code == int(ErrorCode.DEADLINE_EXCEEDED)
        assert stats["requests"] == 7
        # The late SCENE_OK registered the scene: no second push.
        assert scene_id == "s"
        assert received.count(MessageType.SCENE) == 1


class TestReceiveSide:
    """Frames a server should never send cost the client that frame,
    never the connection, and an ERROR always surfaces as a
    ``GatewayError``."""

    @staticmethod
    def _answer_stats_with(*frames: bytes) -> "dict | GatewayError":
        """What ``stats_dict`` gives when the server answers its STATS
        with ``frames``."""

        async def serve(reader, writer):
            writer.write(_hello())
            await writer.drain()
            await protocol.read_frame(reader)  # the client's STATS
            for frame in frames:
                writer.write(frame)
            await writer.drain()
            await reader.read()
            writer.close()

        async def body(port):
            client = await AsyncGatewayClient.connect("127.0.0.1", port)
            try:
                return await asyncio.wait_for(client.stats_dict(), 10)
            except GatewayError as exc:
                return exc
            finally:
                await client.close()

        return _with_server(serve, body)

    @pytest.mark.parametrize("request_id", [[1], {"a": 1}, "1", True])
    def test_a_frame_whose_request_id_is_not_an_integer_is_dropped(
        self, request_id
    ):
        stats = self._answer_stats_with(
            protocol.encode_frame(
                MessageType.FRAME, {"request_id": request_id, "index": 0}
            ),
            protocol.encode_frame(
                MessageType.STATS_OK, {"service": {"requests": 3}, "gateway": {}}
            ),
        )
        assert stats == {"requests": 3, "gateway": {}}

    @pytest.mark.parametrize(
        "code", ["x", None, [400], 999, True], ids=repr
    )
    def test_an_error_code_that_is_no_error_code_is_a_500(self, code):
        error = self._answer_stats_with(
            protocol.encode_frame(
                MessageType.ERROR,
                {
                    "request_id": None,
                    "code": code,
                    "message": "m",
                    "retry_after_ms": "soon",
                },
            )
        )
        assert isinstance(error, GatewayError)
        assert error.code == int(ErrorCode.INTERNAL)
        assert error.message == "m"
        assert error.retry_after_ms is None
