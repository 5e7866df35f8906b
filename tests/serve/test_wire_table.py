"""The wire as one table: ``protocol.MESSAGES`` against what crosses it.

Every Hypothesis strategy here is built from the table, so a field
added to it is generated, checked and fuzzed with no edit here:

* **Totality on bytes** — arbitrary bytes, and frames with hostile
  headers (nesting deeper than the recursion limit, integer literals
  too long to convert, ``NaN``), read through ``read_frame_from`` and
  through ``FrameReader`` yield frames or ``ProtocolError``, nothing
  else, and the same ones.
* **Round trip** — a generated valid header of every type survives
  ``encode_frame`` → read, key order included, is what
  ``protocol.header`` builds from its fields, and reads back through
  ``check_request`` (RENDER, STREAM, CANCEL) or ``error_fields``
  (ERROR).
* **Live servers** — a request header with one field replaced by
  arbitrary JSON, sent to a live gateway and a live router, gets a
  reply or an ERROR that is not a 500, and the connection still
  answers STATS.

The ``docs/serving.md`` message table is rendered from the table too.
Tier-1 runs these derandomised; the CI ``fuzz`` job runs them with a
fresh seed.
"""

import asyncio
import io
import itertools
import json
import keyword
import socket
import struct
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import BackendSpec, ClusterMap, HealthMonitor, ShardRouter
from repro.core.pipeline import GSTGRenderer
from repro.engine import RenderEngine
from repro.gaussians.camera import Camera
from repro.serve import RenderGateway, RenderService
from repro.serve import protocol
from repro.serve.protocol import (
    KINDS,
    MESSAGES,
    ErrorCode,
    Frame,
    FrameReader,
    MessageType,
    ProtocolError,
    encode_frame,
    read_frame_from,
)
from repro.tiles.boundary import BoundaryMethod
from tests.conftest import make_cloud
from tests.serve.test_frame_reader import FakeTransport, deliver, received, reference

REPO = Path(__file__).resolve().parents[2]
CAMERA = protocol.encode_camera(Camera(width=32, height=24, fx=30.0, fy=30.0))
CLOUD = make_cloud(12, np.random.default_rng(3))

# -- strategies, from the table --------------------------------------------
#: Any JSON value, lone surrogates (a ``\ud800`` escape) included.
TEXT = st.text(st.characters(exclude_categories=()), max_size=8) | st.just("\ud800")
JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
OBJECT = st.dictionaries(st.text(max_size=6), JSON, max_size=3)

#: A valid value of each field kind.
VALID = {
    "int": st.integers(-(2**63), 2**63),
    "str": st.text(max_size=12),
    "bool": st.booleans(),
    "object": OBJECT,
    "list": st.lists(JSON, max_size=3),
    "camera": OBJECT,
    "cameras": st.lists(OBJECT, min_size=1, max_size=3),
    "budget": st.integers(1, 10**300)
    | st.floats(min_value=5e-324, max_value=1.7e308),
    "trace": st.text(
        st.characters(min_codepoint=32, max_codepoint=126), min_size=1, max_size=120
    ),
    "any": JSON,
}


def headers(msg_type: MessageType):
    """Valid ``msg_type`` headers: every required field, any optional
    ones, in table order."""
    fields = MESSAGES[msg_type].fields
    return st.fixed_dictionaries(
        {spec.name: VALID[spec.kind] for spec in fields if spec.required},
        optional={spec.name: VALID[spec.kind] for spec in fields if not spec.required},
    ).map(lambda drawn: {spec.name: drawn[spec.name] for spec in fields if spec.name in drawn})


def framed(type_byte: int, header: bytes, blob: bytes) -> bytes:
    payload = struct.pack("!BI", type_byte, len(header)) + header + blob
    return struct.pack("!I", len(payload)) + payload


#: Header bytes a JSON decoder may choke on, besides random ones.
HOSTILE = [
    b"[" * 100_000,
    b'{"a":' * 5000,
    b"1" * 5000,
    b"NaN",
    b'{"a": [-Infinity]}',
    b"\xff\xfe",
]
HEADER_BYTES = (
    st.sampled_from(HOSTILE)
    | st.binary(max_size=24)
    | JSON.map(lambda value: json.dumps(value).encode("utf-8"))
)
STREAMS = st.lists(
    st.builds(framed, st.integers(0, 255), HEADER_BYTES, st.binary(max_size=8))
    | st.binary(max_size=16),
    max_size=4,
).map(b"".join)


def test_every_kind_has_a_strategy_and_every_type_a_row():
    assert set(VALID) == set(KINDS)
    assert set(MESSAGES) == set(MessageType)
    for message in MESSAGES.values():
        assert {spec.kind for spec in message.fields} <= set(KINDS)


# -- totality on bytes -----------------------------------------------------
@given(data=STREAMS, sizes=st.lists(st.integers(1, 64), min_size=1, max_size=4))
def test_any_bytes_read_as_frames_or_protocol_errors(data, sizes):
    """Both readers give the same frames and errors; ``outcomes`` lets
    only ``ProtocolError`` through."""
    assert received(data, sizes) == reference(data)


class TestHostileHeaders:
    """A header JSON cannot hold is a recoverable 400 on every path."""

    STATS = encode_frame(MessageType.STATS)

    @pytest.mark.parametrize("header", HOSTILE, ids=lambda h: repr(h[:12]))
    def test_read_frame_from(self, header):
        stream = io.BytesIO(framed(int(MessageType.STATS), header, b"") + self.STATS)
        with pytest.raises(ProtocolError) as info:
            read_frame_from(stream)
        assert not info.value.fatal and info.value.code is ErrorCode.BAD_REQUEST
        assert read_frame_from(stream).type is MessageType.STATS

    @pytest.mark.parametrize("header", HOSTILE, ids=lambda h: repr(h[:12]))
    def test_frame_reader(self, header):
        async def main():
            reader = FrameReader(loop=asyncio.get_running_loop())
            reader.connection_made(FakeTransport())
            data = framed(int(MessageType.STATS), header, b"") + self.STATS
            deliver(reader, data, [4096])
            with pytest.raises(ProtocolError) as info:
                await reader.read()
            assert not info.value.fatal
            return await reader.read()

        assert asyncio.run(main()).type is MessageType.STATS


# -- round trip ------------------------------------------------------------
def _keyword(name: str) -> str:
    return name + "_" if keyword.iskeyword(name) else name


@pytest.mark.parametrize("msg_type", list(MessageType), ids=lambda t: t.name)
@settings(max_examples=25)  # per type: 375 headers a run
@given(data=st.data())
def test_a_valid_header_round_trips(msg_type, data):
    header = data.draw(headers(msg_type))
    built = protocol.header(msg_type, **{_keyword(k): v for k, v in header.items()})
    assert list(built.items()) == list(header.items())
    frame = read_frame_from(io.BytesIO(encode_frame(msg_type, header)))
    assert frame.type is msg_type
    assert list(frame.header.items()) == list(header.items())
    if msg_type in (MessageType.RENDER, MessageType.STREAM, MessageType.CANCEL):
        request = protocol.check_request(frame)
        assert request.request_id == header["request_id"]
        if msg_type is not MessageType.CANCEL:
            assert request.scene_id == header["scene_id"]
            assert request.cameras == header.get("cameras", [header.get("camera")])
            assert request.stream is (msg_type is MessageType.STREAM)
            assert request.request_class == header.get("class")
            assert request.trace == header.get("trace")
            assert (request.deadline is None) is ("deadline_ms" not in header)
    if msg_type is MessageType.ERROR:
        error = protocol.error_fields(frame)
        codes = [int(code) for code in ErrorCode]
        expected = header["code"] if header["code"] in codes else 500
        assert int(error.code) == expected
        assert str(error) == header["message"]
        assert error.retry_after_ms == header.get("retry_after_ms")
        assert error.draining is header.get("draining", False)


def test_hand_built_headers_follow_the_table():
    """FRAME and HELLO are written by hand (the hit path; the goldens'
    key order): their keys are the table's, required ones present."""

    def follows(msg_type, header):
        fields = MESSAGES[msg_type].fields
        names = [spec.name for spec in fields]
        assert set(header) <= set(names), header
        assert {spec.name for spec in fields if spec.required} <= set(header)
        return [name for name in names if name in header]

    result = RenderEngine(GSTGRenderer(16, 64)).render(
        CLOUD, Camera(width=16, height=8, fx=10.0, fy=10.0)
    )
    for options in ({}, {"backend": "b", "trace": "t"}, {"checksum": False}):
        payload = protocol.encode_result_frame(3, 0, result, **options)
        frame = read_frame_from(io.BytesIO(payload))
        assert list(frame.header) == follows(MessageType.FRAME, frame.header)
    goldens = json.loads((REPO / "tests/serve/wire_goldens.json").read_text())
    for documents in goldens.values():
        follows(MessageType.HELLO, json.loads(documents["hello"]))


def test_check_request_names_the_field_it_refuses():
    camera = protocol.encode_camera(Camera(width=8, height=8, fx=8.0, fy=8.0))
    base = {"request_id": 1, "scene_id": "s", "camera": camera}
    cases = [
        ({**base, "request_id": "x"}, "request_id must be an integer"),
        ({**base, "request_id": True}, "request_id must be an integer"),
        ({**base, "scene_id": 7}, "scene_id must be a string"),
        ({**base, "scene_id": "\ud800"}, "scene_id must be a string"),
        ({**base, "camera": None}, "RENDER needs a camera object"),
        ({**base, "deadline_ms": 10**400}, "deadline_ms must be a positive number"),
        ({**base, "class": 3}, "class must be a string"),
        ({**base, "trace": ""}, "invalid trace id"),
    ]
    for header, message in cases:
        with pytest.raises(ProtocolError, match=message) as info:
            protocol.check_request(Frame(MessageType.RENDER, header))
        assert info.value.code is ErrorCode.BAD_REQUEST
    stream = {"request_id": 1, "scene_id": "s", "cameras": [camera, 5]}
    with pytest.raises(ProtocolError, match="STREAM needs a non-empty camera list"):
        protocol.check_request(Frame(MessageType.STREAM, stream))


def test_the_docs_table_is_the_wire_table():
    def row(msg_type, message):
        fields = ", ".join(
            f"`{spec.name}`: {spec.kind}" + ("" if spec.required else " (optional)")
            for spec in message.fields
        )
        cell = "; ".join(part for part in (fields, message.note) if part) or "—"
        return f"| `{msg_type.name}` | {int(msg_type)} | {message.direction} | {cell} | {message.blob} |"

    lines = (REPO / "docs" / "serving.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("### Message types") + 4
    assert lines[start - 2].startswith("| type |")
    documented = list(itertools.takewhile(str.strip, lines[start:]))
    assert documented == [row(t, m) for t, m in MESSAGES.items()]


# -- live servers ----------------------------------------------------------
_ids = itertools.count(1)


def _valid(msg_type: MessageType) -> "tuple[dict, bytes]":
    """A request of ``msg_type`` the servers accept, and its blob."""
    if msg_type is MessageType.SCENE:
        return protocol.encode_cloud(CLOUD)
    values = {
        "request_id": next(_ids),
        "scene_id": "s",
        "camera": CAMERA,
        "cameras": [CAMERA, CAMERA],
        "token": "t",
    }
    return protocol.header(msg_type, **{
        spec.name: values[spec.name]
        for spec in MESSAGES[msg_type].fields if spec.required
    }), b""


#: What a client sends that carries fields (BYE ends the connection).
FUZZED = [
    msg_type
    for msg_type, message in MESSAGES.items()
    if message.direction.startswith("C→S")
    and message.fields
    and msg_type is not MessageType.BYE
]


class WireClient:
    """A blocking raw-socket client: what it sends is exactly the frame."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.stream = self.sock.makefile("rb")
        assert read_frame_from(self.stream).type is MessageType.HELLO

    def send(self, payload: bytes) -> None:
        self.sock.sendall(payload)

    def until_stats(self) -> "list[Frame]":
        """Ask for STATS; every frame read up to its STATS_OK."""
        self.send(encode_frame(MessageType.STATS))
        seen = []
        while True:
            frame = read_frame_from(self.stream)
            assert frame is not None, "the server closed the connection"
            seen.append(frame)
            if frame.type is MessageType.STATS_OK:
                return seen

    def close(self) -> None:
        self.stream.close()
        self.sock.close()

    def __enter__(self) -> "WireClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


async def _start() -> "tuple[dict[str, int], object]":
    renderer = GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)
    services = [RenderService(renderer, batch_workers=1) for _ in range(2)]
    gateways = [RenderGateway(service, node_id=f"g{i}") for i, service in enumerate(services)]
    for gateway in gateways:
        gateway.register_scene("s", CLOUD)
        await gateway.start()
    cluster_map = ClusterMap(
        [BackendSpec(f"b{i}", "127.0.0.1", g.tcp_port) for i, g in enumerate(gateways)],
        replication=2,
    )
    router = ShardRouter(cluster_map, monitor=HealthMonitor(cluster_map))
    await router.start()

    async def stop():
        await router.close()
        for gateway in gateways:
            await gateway.close()
        for service in services:
            await service.close()

    return {"gateway": gateways[0].tcp_port, "router": router.tcp_port}, stop


@pytest.fixture(scope="module")
def live():
    """The ports of a gateway and of a router over two gateways, served
    on a loop of their own."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    def run(coro):
        return asyncio.run_coroutine_threadsafe(coro, loop).result(60)

    ports, stop = run(_start())
    try:
        yield ports
    finally:
        run(stop())
        loop.call_soon_threadsafe(loop.stop)
        thread.join()
        loop.close()


def _no_500(frames: "list[Frame]") -> None:
    for frame in frames:
        if frame.type is MessageType.ERROR:
            assert frame.header["code"] != 500, frame.header


@pytest.fixture(scope="module")
def fuzzed(live):
    """One connection to each server, shared by every fuzzed example."""
    clients = {kind: WireClient(port) for kind, port in live.items()}
    yield clients
    for client in clients.values():
        client.close()


@pytest.mark.parametrize("kind", ["gateway", "router"])
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_arbitrary_field_values_get_an_answer_not_a_500(fuzzed, kind, data):
    client = fuzzed[kind]
    msg_type = data.draw(st.sampled_from(FUZZED), label="type")
    header, blob = _valid(msg_type)
    spec = data.draw(st.sampled_from(MESSAGES[msg_type].fields), label="field")
    # Arbitrary JSON, or a value of the field's kind so that accepted
    # requests (a trace echoed, a budget spent) are fuzzed too.
    header[spec.name] = data.draw(JSON | VALID[spec.kind], label="value")
    client.send(encode_frame(msg_type, header, blob))
    _no_500(client.until_stats())


class TestLiveRegressions:
    """Inputs that once got a 500 or dropped the connection."""

    @pytest.mark.parametrize("kind", ["gateway", "router"])
    def test_nested_header_is_a_400_and_the_connection_lives(self, live, kind):
        with WireClient(live[kind]) as client:
            client.send(framed(int(MessageType.STATS), b"[" * 100_000, b""))
            frames = client.until_stats()
        assert frames[0].type is MessageType.ERROR
        assert frames[0].header["code"] == 400

    @pytest.mark.parametrize("kind", ["gateway", "router"])
    @pytest.mark.parametrize(
        "field, value",
        [("deadline_ms", 10**400), ("camera", {**CAMERA, "width": 1e400})],
        ids=["deadline", "width"],
    )
    def test_overflowing_numbers_are_400s(self, live, kind, field, value):
        header = {**_valid(MessageType.RENDER)[0], field: value}
        # 1e400 is JSON the encoder refuses to write (it reads as inf).
        text = json.dumps(header).replace("Infinity", "1e400")
        with WireClient(live[kind]) as client:
            client.send(framed(int(MessageType.RENDER), text.encode(), b""))
            frames = client.until_stats()
        errors = [f.header for f in frames if f.type is MessageType.ERROR]
        assert [e["code"] for e in errors] == [400], frames

    @pytest.mark.parametrize("kind", ["gateway", "router"])
    def test_a_scene_id_utf8_cannot_carry_is_a_400(self, live, kind):
        """The router once hashed it for routing and its task died
        (no answer at all); the gateway said 404."""
        header = {**_valid(MessageType.RENDER)[0], "scene_id": "\ud800"}
        with WireClient(live[kind]) as client:
            client.send(encode_frame(MessageType.RENDER, header))
            frames = client.until_stats()
        assert [f.header["code"] for f in frames if f.type is MessageType.ERROR] == [400]

    @pytest.mark.parametrize("kind", ["gateway", "router"])
    def test_an_object_dtype_scene_is_a_400(self, live, kind):
        header, blob = protocol.encode_cloud(CLOUD)
        header["arrays"][0]["dtype"] = "|O"
        with WireClient(live[kind]) as client:
            client.send(encode_frame(MessageType.SCENE, header, blob))
            frames = client.until_stats()
        assert [f.header["code"] for f in frames if f.type is MessageType.ERROR] == [400]
