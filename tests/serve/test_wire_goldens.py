"""Golden wire documents for both servers.

The gateway and the shard router answer the same client protocol, and
the JSON they put on the wire is part of it: key order included, since
a header's bytes are what a client hashes, caches and compares.  This
module drives each server through one fixed conversation over a raw
socket — HELLO, a malformed request id, an unknown scene, a 429 with a
held admission slot, STATS, METRICS, four HTTP routes, then a drain
that refuses a request with a draining 503 and ends in BYE — and
compares every document with the one the servers produced before they
shared a core.  Floats (batch means, configured waits) are masked;
keys, their order and every count never are.
"""

import asyncio
import json
from pathlib import Path

import pytest

from repro.cluster import BackendSpec, ClusterMap, HealthMonitor, ShardRouter
from repro.core.pipeline import GSTGRenderer
from repro.gaussians.camera import Camera
from repro.serve import RenderGateway, RenderService
from repro.serve import protocol
from repro.serve.protocol import MessageType
from repro.tiles.boundary import BoundaryMethod

MASK = "<masked>"

#: The documents each server sent before the two shared one core.
GOLDEN = json.loads(
    (Path(__file__).with_name("wire_goldens.json")).read_text(encoding="utf-8")
)

CAMERA = protocol.encode_camera(Camera(width=32, height=24, fx=30.0, fy=30.0))


def masked(value):
    """``value`` with every float masked (batch means, configured waits)."""
    if isinstance(value, dict):
        return {key: masked(item) for key, item in value.items()}
    if isinstance(value, list):
        return [masked(item) for item in value]
    if isinstance(value, float):
        return MASK
    return value


def doc(value) -> str:
    """One document as the compact, order-preserving JSON it was sent as."""
    return json.dumps(masked(value), separators=(",", ":"))


async def http_get(port: int, path: str) -> str:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode("latin-1"))
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    # Content-Length follows the masked values; the rest is pinned.
    kept = [line for line in lines if not line.startswith("Content-Length")]
    return " | ".join(kept) + " | " + doc(json.loads(body))


async def conversation(server) -> "dict[str, str]":
    """Drive ``server`` through the fixed exchange; return its documents."""
    out: "dict[str, str]" = {}
    reader, writer = await asyncio.open_connection("127.0.0.1", server.tcp_port)

    async def ask(msg_type, header=None):
        writer.write(protocol.encode_frame(msg_type, header))
        await writer.drain()
        return await protocol.read_frame(reader)

    hello = await protocol.read_frame(reader)
    out["hello"] = doc(hello.header)
    request = {"scene_id": "nope", "camera": CAMERA}
    out["error_request_id"] = doc(
        (await ask(MessageType.RENDER, {"request_id": "x", **request})).header
    )
    out["error_unknown_scene"] = doc(
        (await ask(MessageType.RENDER, {"request_id": 1, **request})).header
    )
    held = server.admission.admit()  # the only slot: the next one is a 429
    out["error_429"] = doc(
        (await ask(MessageType.RENDER, {"request_id": 2, **request})).header
    )
    out["stats_ok"] = doc((await ask(MessageType.STATS)).header)
    out["metrics_ok"] = doc((await ask(MessageType.METRICS)).header)
    for name, path in (
        ("http_healthz", "/healthz"),
        ("http_stats", "/stats"),
        ("http_traces_400", "/traces?limit=x"),
        ("http_404", "/nope"),
    ):
        out[name] = await http_get(server.http_port, path)
    drain = asyncio.ensure_future(server.drain(10.0, retry_after_ms=250))
    while not server._draining:
        await asyncio.sleep(0.005)
    out["error_draining"] = doc(
        (await ask(MessageType.RENDER, {"request_id": 3, **request})).header
    )
    held.release()
    bye = await protocol.read_frame(reader)
    out["bye"] = f"{bye.type.name} {doc(bye.header)}"
    out["drained"] = str(await drain)
    writer.close()
    await writer.wait_closed()
    return out


async def gateway_documents() -> "dict[str, str]":
    renderer = GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)
    async with RenderService(renderer) as service:
        gateway = RenderGateway(service, max_pending=1, node_id="gw")
        await gateway.start()
        await gateway.start_http()
        try:
            return await conversation(gateway)
        finally:
            await gateway.close()


async def router_documents() -> "dict[str, str]":
    renderer = GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)
    services = [RenderService(renderer) for _ in range(2)]
    gateways = [RenderGateway(service) for service in services]
    try:
        for gateway in gateways:
            await gateway.start()
        cluster_map = ClusterMap(
            [
                BackendSpec(f"b{i}", "127.0.0.1", gateway.tcp_port)
                for i, gateway in enumerate(gateways)
            ],
            replication=2,
        )
        router = ShardRouter(
            cluster_map,
            max_pending=1,
            monitor=HealthMonitor(cluster_map),
            node_id="rt",
        )
        await router.start()
        await router.start_http()
        try:
            return await conversation(router)
        finally:
            await router.close()
    finally:
        for gateway in gateways:
            await gateway.close()
        for service in services:
            await service.close()


@pytest.mark.parametrize("kind", ["gateway", "router"])
def test_wire_documents_match_goldens(kind):
    drive = gateway_documents if kind == "gateway" else router_documents
    assert asyncio.run(drive()) == GOLDEN[kind]
