"""The buffered frame reader gives what ``read_frame_from`` gives.

``FrameReader`` is driven here the way the event loop drives it — each
receive fills part of the buffer ``get_buffer`` hands out, then
``buffer_updated`` — with no socket, so every chunking of the same bytes
can be tried: 1-byte receives, receives that span several frames, and a
stream cut off at any offset.  ``read_frame_from`` over the same bytes
is the reference for the frames, their order and the errors.
"""

import asyncio
import io
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import protocol
from repro.serve.protocol import (
    ErrorCode,
    FrameReader,
    MessageType,
    ProtocolError,
    read_frame_from,
)
from tests.conftest import make_cloud


class FakeTransport:
    """Records the reader's flow control."""

    def __init__(self) -> None:
        self.reading = True
        self.pauses = 0

    def pause_reading(self) -> None:
        self.reading = False
        self.pauses += 1

    def resume_reading(self) -> None:
        self.reading = True


def deliver(reader: FrameReader, data: bytes, sizes) -> None:
    """Receive ``data`` in receives of the given sizes (cycled), each at
    most what the reader's buffer has room for."""
    sizes = list(sizes) or [len(data) or 1]
    offset = turn = 0
    while offset < len(data):
        buffer = reader.get_buffer(-1)
        assert len(buffer) > 0
        n = min(sizes[turn % len(sizes)], len(buffer), len(data) - offset)
        buffer[:n] = data[offset : offset + n]
        reader.buffer_updated(n)
        offset += n
        turn += 1


def outcomes(read_one) -> list:
    """Each frame read, or the error that ended (or interrupted) it."""
    seen = []
    while True:
        try:
            frame = read_one()
        except ProtocolError as exc:
            seen.append(("error", exc.fatal, exc.code))
            if exc.fatal:
                return seen
            continue
        if frame is None:
            return seen + [None]
        seen.append((frame.type, frame.header, bytes(frame.blob)))


def reference(data: bytes) -> list:
    stream = io.BytesIO(data)
    return outcomes(lambda: read_frame_from(stream))


def received(data: bytes, sizes, *, half_close=True) -> list:
    """What a FrameReader yields for ``data``, received in ``sizes``,
    after the peer half-closes (or the connection ends cleanly)."""

    async def main():
        reader = FrameReader(loop=asyncio.get_running_loop())
        reader.connection_made(FakeTransport())
        deliver(reader, data, sizes)
        if half_close:
            assert reader.eof_received() is True
        else:
            reader.connection_lost(None)
        seen = []
        while True:
            try:
                frame = await reader.read()
            except ProtocolError as exc:
                seen.append(("error", exc.fatal, exc.code))
                if exc.fatal:
                    return seen
                continue
            if frame is None:
                return seen + [None]
            seen.append((frame.type, frame.header, bytes(frame.blob)))

    return asyncio.run(main())


def _result_frame(seed: int) -> bytes:
    from repro.raster.renderer import RenderResult
    from repro.raster.stats import RenderStats

    image = np.random.default_rng(seed).random((5, 7, 3)).astype(np.float32)
    result = RenderResult(
        image=image, stats=RenderStats(), projected=None, assignment=None
    )
    return protocol.encode_result_frame(seed, seed % 3, result, backend="b0")


def _big_frame() -> bytes:
    """A FRAME of some 300 KB, several times the staging buffer."""
    from repro.raster.renderer import RenderResult
    from repro.raster.stats import RenderStats

    image = np.random.default_rng(9).random((160, 160, 3)).astype(np.float32)
    return protocol.encode_result_frame(
        2, 0, RenderResult(image, RenderStats(), None, None)
    )


def _scene_frame() -> bytes:
    header, blob = protocol.encode_cloud(make_cloud(3, np.random.default_rng(2)))
    return protocol.encode_frame(MessageType.SCENE, header, blob)


#: A malformed but well-framed message: a recoverable error in order.
_BAD_JSON = struct.pack("!IBI", 5 + 3, int(MessageType.RENDER), 3) + b"{x}"

frames = st.lists(
    st.one_of(
        st.integers(0, 50).map(_result_frame),
        st.just(_scene_frame()),
        st.sampled_from([
            protocol.encode_frame(MessageType.SCENE_OK, {"scene_id": "abc"}),
            protocol.encode_frame(MessageType.END, {"request_id": 4, "frames": 2}),
            protocol.encode_frame(
                MessageType.ERROR,
                {"request_id": None, "code": 503, "message": "draining"},
            ),
            protocol.encode_frame(MessageType.BYE),
            _BAD_JSON,
        ]),
    ),
    min_size=1,
    max_size=6,
).map(b"".join)

receives = st.lists(
    st.one_of(st.just(1), st.integers(1, 64), st.integers(1, 200_000)),
    min_size=1,
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(data=frames, sizes=receives)
def test_chunked_stream_reads_as_the_reference(data, sizes):
    expected = reference(data)
    assert expected[-1] is None
    assert received(data, sizes) == expected


@settings(max_examples=60, deadline=None)
@given(data=frames, sizes=receives, cut=st.floats(0, 1))
def test_truncated_stream_ends_as_the_reference(data, sizes, cut):
    """Cut at a boundary: every frame, then None.  Cut inside a prefix
    or a payload: every whole frame, then a fatal error."""
    truncated = data[: int(cut * len(data))]
    expected = reference(truncated)
    assert received(truncated, sizes) == expected
    assert received(truncated, sizes, half_close=False) == expected
    assert expected[-1] is None or expected[-1][:2] == ("error", True)


@settings(max_examples=30, deadline=None)
@given(data=frames, sizes=receives)
def test_frames_sent_before_a_reset_stay_readable(data, sizes):
    """A connection lost with an error still yields what arrived whole
    before it; then the error."""

    async def main():
        reader = FrameReader(loop=asyncio.get_running_loop())
        reader.connection_made(FakeTransport())
        deliver(reader, data, sizes)
        reader.connection_lost(ConnectionResetError("reset"))
        seen = []
        while True:
            try:
                frame = await reader.read()
            except ProtocolError as exc:
                assert not exc.fatal
                seen.append(("error", exc.fatal, exc.code))
                continue
            except ConnectionResetError:
                return seen
            seen.append((frame.type, frame.header, bytes(frame.blob)))

    assert asyncio.run(main()) == reference(data)[:-1]


@pytest.mark.parametrize("sizes", [[1], [3], [1 << 20]])
def test_oversized_length_fails_before_allocating(sizes):
    """A declared length above ``MAX_FRAME_BYTES`` is a fatal 413 raised
    on the prefix alone, after the frames before it, with no buffer of
    that size allocated."""
    before = protocol.encode_frame(MessageType.SCENE_OK, {"scene_id": "x"})
    data = before + struct.pack("!I", protocol.MAX_FRAME_BYTES + 1) + b"\0" * 16
    tracemalloc.start()
    try:
        seen = received(data, sizes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seen == [
        (MessageType.SCENE_OK, {"scene_id": "x"}, b""),
        ("error", True, ErrorCode.FRAME_TOO_LARGE),
    ]
    assert peak < 8 << 20


def test_read_ahead_pauses_and_resumes_the_transport():
    """Past ``READ_LIMIT`` bytes of unread frames the socket is not
    read; taking frames below it reads again."""
    frame = _big_frame()
    below = protocol.READ_LIMIT // len(frame)  # whole frames within it

    async def main():
        reader = FrameReader(loop=asyncio.get_running_loop())
        transport = FakeTransport()
        reader.connection_made(transport)
        deliver(reader, frame * below, [len(frame)])
        assert transport.reading
        deliver(reader, frame, [len(frame)])
        assert not transport.reading
        await reader.read()
        return transport

    transport = asyncio.run(main())
    assert transport.reading and transport.pauses == 1


def test_a_blob_is_a_read_only_view_of_its_own_buffer():
    frame_bytes = _result_frame(3)

    async def main():
        reader = FrameReader(loop=asyncio.get_running_loop())
        reader.connection_made(FakeTransport())
        deliver(reader, frame_bytes, [7])
        return await reader.read()

    frame = asyncio.run(main())
    assert isinstance(frame.blob, memoryview) and frame.blob.readonly
    assert isinstance(frame.blob.obj, bytearray)
    assert len(frame.blob.obj) == len(frame_bytes) - 4  # exactly its payload
    assert frame == read_frame_from(io.BytesIO(frame_bytes))


@pytest.mark.parametrize("sizes", [[1 << 20], [4096], [65_539], [5, 70_000]])
def test_frames_larger_than_the_staging_buffer(sizes):
    """A FRAME of some 300 KB, between small frames: the part of it that
    was staged with its prefix is copied over, the rest received in
    place."""
    big = _big_frame()
    small = protocol.encode_frame(MessageType.END, {"request_id": 2, "frames": 1})
    data = small + big + small + big
    assert received(data, sizes) == reference(data)


def test_every_cut_of_a_short_stream():
    """Each offset of two frames: inside the first prefix, inside its
    payload, at the boundary, inside the second prefix, and so on."""
    data = protocol.encode_frame(MessageType.SCENE_OK, {"scene_id": "a"}) + (
        protocol.encode_frame(MessageType.ERROR, {"request_id": 1, "code": 404})
    )
    for cut in range(len(data) + 1):
        for sizes in ([1], [len(data)]):
            expected = reference(data[:cut])
            assert received(data[:cut], sizes) == expected, (cut, sizes)
            assert received(data[:cut], sizes, half_close=False) == expected


@pytest.mark.parametrize("split", [1, 2, 3])
def test_a_prefix_split_across_receives(split):
    """A receive that ends ``split`` bytes into the next length prefix,
    behind a whole frame: the prefix is completed by the next receive."""
    small = protocol.encode_frame(MessageType.SCENE_OK, {"scene_id": "a"})
    big = protocol.encode_frame(MessageType.SCENE, {}, b"\x07" * 300_000)
    data = small + big + small
    assert received(data, [len(small) + split, 1 << 20]) == reference(data)
