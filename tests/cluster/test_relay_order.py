"""Oldest-first relaying on a shared backend link.

``BackendLink.holds_back`` / ``turn`` decide when a request's frames
may be relayed: an older request on the same link goes first while it
has more than ``RELAY_SLACK`` frames queued, unless its client write has
stalled; an older request with nothing queued holds nothing back.  The
end-to-end test puts two streams on one link behind a backend that
interleaves their frames and checks the router relays the older one
first, every frame intact.  No clock: every wait is on a queue, an
event or a socket.
"""

import asyncio
import io
import threading
import time

import numpy as np
import pytest

from repro.cluster import BackendSpec, ClusterMap, ShardRouter
from repro.cluster.router import RELAY_SLACK, BackendLink
from repro.gaussians.camera import Camera
from repro.gaussians.cloud import cloud_fingerprint
from repro.raster.renderer import RenderResult
from repro.raster.stats import RenderStats
from repro.serve import AsyncGatewayClient, protocol
from repro.serve.protocol import ErrorCode, Frame, MessageType, ProtocolError
from tests.conftest import make_cloud


def _link() -> BackendLink:
    return BackendLink(BackendSpec("b0", "127.0.0.1", 1))


def _fill(queue, frames: int) -> None:
    for index in range(frames):
        queue.put_nowait(Frame(MessageType.FRAME, {"index": index}))


class TestHoldsBack:
    def test_older_with_more_than_slack_queued_holds_back(self):
        link = _link()
        older, older_queue = link.open_channel()
        younger, _ = link.open_channel()
        _fill(older_queue, RELAY_SLACK + 1)
        assert link.holds_back(younger)
        assert not link.holds_back(older)
        older_queue.get_nowait()
        assert not link.holds_back(younger)

    def test_older_with_nothing_queued_holds_nothing(self):
        """Work-conserving: an older request still waiting on its
        backend (a render) does not delay frames already in hand."""
        link = _link()
        link.open_channel()
        younger, younger_queue = link.open_channel()
        _fill(younger_queue, 5)
        assert not link.holds_back(younger)

    def test_stalled_older_holds_nothing(self):
        link = _link()
        older, older_queue = link.open_channel()
        younger, _ = link.open_channel()
        _fill(older_queue, RELAY_SLACK + 5)
        link.stalled(older)
        assert not link.holds_back(younger)
        link.stalled(older, False)
        assert link.holds_back(younger)

    def test_closed_older_holds_nothing(self):
        link = _link()
        older, older_queue = link.open_channel()
        younger, _ = link.open_channel()
        _fill(older_queue, RELAY_SLACK + 5)
        link.close_channel(older)
        assert not link.holds_back(younger)

    def test_turn_waits_until_the_older_queue_drains(self):
        async def main():
            link = _link()
            older, older_queue = link.open_channel()
            younger, _ = link.open_channel()
            _fill(older_queue, RELAY_SLACK + 2)
            turn = asyncio.ensure_future(link.turn(younger))
            await asyncio.sleep(0)
            steps = 0
            while not turn.done():
                assert older_queue.qsize() > RELAY_SLACK
                older_queue.get_nowait()
                link.moved()
                steps += 1
                await asyncio.sleep(0)
            await turn
            return steps, older_queue.qsize()

        steps, left = asyncio.run(main())
        assert (steps, left) == (2, RELAY_SLACK)


def test_held_back_past_its_deadline_is_a_504():
    """A request's deadline bounds its wait behind older requests."""
    link = _link()
    older, older_queue = link.open_channel()
    younger, _ = link.open_channel()
    _fill(older_queue, RELAY_SLACK + 1)
    router = ShardRouter(
        ClusterMap([BackendSpec("b0", "127.0.0.1", 1)], replication=1)
    )
    turn = router._relay_turn(link, younger, time.monotonic() - 1.0)
    with pytest.raises(ProtocolError) as info:
        asyncio.run(asyncio.wait_for(turn, 30))  # a hang fails, no timing assert
    assert info.value.code is ErrorCode.DEADLINE_EXCEEDED


def test_close_channel_withdraws_queued_digests():
    """Frames nobody will relay are not hashed on the shared thread."""
    link = _link()
    request_id, queue = link.open_channel()
    busy = threading.Event()
    protocol._digest_executor().submit(busy.wait)
    try:
        frames = []
        for index in range(3):
            frame = protocol.read_frame_from(io.BytesIO(
                protocol.encode_result_frame(request_id, index, _result(index))
            ))
            protocol.start_digest(frame)
            queue.put_nowait(frame)
            frames.append(frame)
        link.close_channel(request_id)
        assert all(frame.digest.cancelled() for frame in frames)
    finally:
        busy.set()


def _result(seed: int) -> RenderResult:
    image = np.random.default_rng(seed).random((3, 4, 3)).astype(np.float32)
    return RenderResult(
        image=image, stats=RenderStats(), projected=None, assignment=None
    )


def test_router_relays_the_older_stream_first():
    """A backend that interleaves two streams' frames on one link: the
    router relays the older stream's frames first (all but the last
    ``RELAY_SLACK`` before any of the younger's), and both arrive whole
    and in order."""
    frames = 6
    cloud = make_cloud(6, np.random.default_rng(5))
    cameras = [
        Camera(width=4, height=3, fx=50.0 + i, fy=50.0) for i in range(frames)
    ]

    async def interleaving_backend(reader, writer):
        writer.write(protocol.encode_frame(
            MessageType.HELLO, {"version": 2, "max_pending": 64, "scenes": []}
        ))
        await writer.drain()
        streams = []
        while True:
            frame = await protocol.read_frame(reader)
            if frame is None:
                break
            if frame.type is MessageType.SCENE:
                pushed = protocol.decode_cloud(frame.header, frame.blob)
                writer.write(protocol.encode_frame(
                    MessageType.SCENE_OK, {"scene_id": cloud_fingerprint(pushed)}
                ))
            elif frame.type is MessageType.STREAM:
                streams.append(frame.header["request_id"])
                if len(streams) == 2:  # both in hand: take turns
                    for index in range(frames):
                        for request_id in streams:
                            writer.write(protocol.encode_result_frame(
                                request_id, index, _result(index)
                            ))
                    for request_id in streams:
                        writer.write(protocol.encode_frame(
                            MessageType.END,
                            {"request_id": request_id, "frames": frames},
                        ))
            await writer.drain()
        writer.close()

    async def main():
        fake = await asyncio.start_server(
            interleaving_backend, host="127.0.0.1", port=0
        )
        port = fake.sockets[0].getsockname()[1]
        router = ShardRouter(
            ClusterMap([BackendSpec("b0", "127.0.0.1", port)], replication=1)
        )
        relayed = []
        send = router._send

        async def recording_send(conn, payload, **kwargs):
            frame = protocol.read_frame_from(io.BytesIO(payload))
            if frame.type is MessageType.FRAME:
                relayed.append(
                    (frame.header["request_id"], frame.header["index"])
                )
            await send(conn, payload, **kwargs)

        router._send = recording_send
        await router.start()
        try:
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", router.tcp_port
            )
            try:
                await client.ensure_scene(cloud)

                async def stream():
                    return [
                        (index, result.image)
                        async for index, result in client.stream_trajectory(
                            cloud, cameras
                        )
                    ]

                results = await asyncio.gather(stream(), stream())
            finally:
                await client.close()
            return results, relayed
        finally:
            await router.close()
            fake.close()
            await fake.wait_closed()

    results, relayed = asyncio.run(main())
    for result in results:
        assert [index for index, _ in result] == list(range(frames))
        for index, image in result:
            assert np.array_equal(image, _result(index).image)
    older = relayed[0][0]
    first_younger = next(
        position for position, (rid, _) in enumerate(relayed) if rid != older
    )
    assert first_younger >= frames - RELAY_SLACK
    assert relayed[:first_younger] == [
        (older, index) for index in range(first_younger)
    ]
