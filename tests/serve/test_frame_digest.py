"""FRAME checksums on the digest thread.

Covers the process-wide digest executor in ``repro.serve.protocol`` —
created lazily, forgotten in a forked child, never touched by a frame
with no digest started — the async verify collecting a started digest
(or withdrawing a queued one and hashing inline), and the async
client's rejection of a corrupt frame at the first and at a later index
of a stream: the frames before it are yielded in order, the corrupt one
never is.  No clock: every wait is on an event or a socket.
"""

import asyncio
import io
import os
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from repro.gaussians.camera import Camera
from repro.raster.renderer import RenderResult
from repro.raster.stats import RenderStats
from repro.serve import AsyncGatewayClient, GatewayError
from repro.serve import protocol
from repro.serve.protocol import ErrorCode, MessageType, ProtocolError
from tests.conftest import make_cloud


def _result(seed: int) -> RenderResult:
    image = np.random.default_rng(seed).random((4, 3, 3)).astype(np.float32)
    return RenderResult(
        image=image, stats=RenderStats(), projected=None, assignment=None
    )


def _payload(request_id: int, index: int, *, corrupt: bool = False) -> bytes:
    """One FRAME on the wire; ``corrupt`` flips the blob's last byte."""
    payload = protocol.encode_result_frame(request_id, index, _result(index))
    if corrupt:
        payload = payload[:-1] + bytes([payload[-1] ^ 0xFF])
    return payload


def _frame(index: int = 1, *, corrupt: bool = False) -> protocol.Frame:
    return protocol.read_frame_from(
        io.BytesIO(_payload(1, index, corrupt=corrupt))
    )


def _verify_async(frame):
    asyncio.run(protocol.verify_frame_checksum_async(frame))


def _drop_executor() -> None:
    executor = protocol._DIGEST_EXECUTOR
    protocol._forget_digest_executor()
    if executor is not None:
        executor.shutdown()


@pytest.fixture
def fresh_digests():
    """No digest executor before the test; none left running after it."""
    _drop_executor()
    yield
    _drop_executor()


class TestDigestThread:
    def test_created_on_first_start(self, fresh_digests):
        frame = _frame()
        protocol.start_digest(frame)
        assert protocol._DIGEST_EXECUTOR is not None
        assert frame.digest.result() == frame.header["sha256"]

    def test_fork_hook_makes_the_next_start_build_a_fresh_executor(
        self, fresh_digests
    ):
        first = _frame()
        protocol.start_digest(first)
        before = protocol._DIGEST_EXECUTOR
        protocol._forget_digest_executor()
        assert protocol._DIGEST_EXECUTOR is None
        second = _frame()
        protocol.start_digest(second)
        assert protocol._DIGEST_EXECUTOR is not None
        assert protocol._DIGEST_EXECUTOR is not before
        assert second.digest.result() == second.header["sha256"]
        before.shutdown()

    def test_forked_child_owns_no_executor(self, fresh_digests):
        protocol.start_digest(_frame())
        assert protocol._DIGEST_EXECUTOR is not None
        pid = os.fork()
        if pid == 0:  # the child: report, touch nothing else
            os._exit(0 if protocol._DIGEST_EXECUTOR is None else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_frame_without_checksum_starts_nothing(self, fresh_digests):
        frame = _frame()
        del frame.header["sha256"]
        protocol.start_digest(frame)
        assert frame.digest is None
        assert protocol._DIGEST_EXECUTOR is None

    @pytest.mark.parametrize("checksum", [True, False])
    def test_verify_without_pending_digest_never_touches_executor(
        self, fresh_digests, checksum
    ):
        """A first frame (no digest started) or a peer that sends no
        checksum is verified inline; no executor is built for it."""
        frame = _frame(0)
        if not checksum:
            del frame.header["sha256"]
        protocol.verify_frame_checksum(frame)
        _verify_async(frame)
        assert protocol._DIGEST_EXECUTOR is None


class TestVerifyStartedDigest:
    def test_sync_verify_ignores_a_started_digest(self, fresh_digests):
        """The blocking verify hashes the blob itself, as it always did."""
        frame = _frame(corrupt=True)
        frame.digest = Future()
        frame.digest.set_result(frame.header["sha256"])
        with pytest.raises(ProtocolError, match="checksum mismatch"):
            protocol.verify_frame_checksum(frame)

    def test_uses_the_finished_digest(self, fresh_digests, monkeypatch):
        frame = _frame()
        protocol.start_digest(frame)
        frame.digest.result()

        def no_inline_hash(blob):
            raise AssertionError("hashed again on the caller's thread")

        monkeypatch.setattr(protocol, "blob_digest", no_inline_hash)
        _verify_async(frame)

    def test_started_digest_of_corrupt_frame_raises(self, fresh_digests):
        frame = _frame(corrupt=True)
        protocol.start_digest(frame)
        with pytest.raises(ProtocolError, match="checksum mismatch"):
            _verify_async(frame)

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_queued_digest_is_withdrawn_and_hashed_inline(
        self, fresh_digests, corrupt
    ):
        """With the digest thread held busy, a queued digest is cancelled
        and the frame verified inline — same verdict either way."""
        release = threading.Event()
        protocol._digest_executor().submit(release.wait)
        try:
            frame = _frame(corrupt=corrupt)
            protocol.start_digest(frame)
            if corrupt:
                with pytest.raises(ProtocolError, match="checksum mismatch"):
                    _verify_async(frame)
            else:
                _verify_async(frame)
            assert frame.digest.cancelled()
        finally:
            release.set()


class TestClientCorruptFrame:
    """A fake server streams three frames, one of them corrupt."""

    @staticmethod
    def _stream(bad_index: int):
        cloud = make_cloud(6, np.random.default_rng(3))
        cameras = [Camera(width=3, height=4, fx=50.0 + i, fy=50.0) for i in range(3)]

        async def serve(reader, writer):
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
                elif frame.type is MessageType.STREAM:
                    request_id = frame.header["request_id"]
                    for index in range(3):
                        writer.write(_payload(
                            request_id, index, corrupt=index == bad_index
                        ))
                    writer.write(protocol.encode_frame(
                        MessageType.END, {"request_id": request_id, "frames": 3}
                    ))
                await writer.drain()
            writer.close()

        async def main():
            server = await asyncio.start_server(serve, host="127.0.0.1", port=0)
            port = server.sockets[0].getsockname()[1]
            yielded = []
            try:
                client = await AsyncGatewayClient.connect("127.0.0.1", port)
                try:
                    with pytest.raises(GatewayError) as info:
                        async for index, result in client.stream_trajectory(
                            cloud, cameras
                        ):
                            yielded.append((index, result.image.copy()))
                finally:
                    await client.close()
                return yielded, info.value
            finally:
                server.close()
                await server.wait_closed()

        return asyncio.run(main())

    @pytest.mark.parametrize("bad_index", [0, 2])
    def test_good_frames_in_order_then_retryable_503(
        self, fresh_digests, bad_index
    ):
        yielded, error = self._stream(bad_index)
        assert [index for index, _ in yielded] == list(range(bad_index))
        for index, image in yielded:
            assert np.array_equal(image, _result(index).image)
        assert error.code == int(ErrorCode.SHUTTING_DOWN)
        assert error.message.startswith("corrupt frame received")
