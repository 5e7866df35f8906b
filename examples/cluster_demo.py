"""Cluster demo: a sharded multi-gateway fleet with a mid-stream kill.

Walks the whole :mod:`repro.cluster` story on one machine:

1. spawn three real gateway backend subprocesses (a
   :class:`repro.cluster.LocalFleet`), keyed with a shared-secret
   token,
2. front them with a :class:`repro.cluster.ShardRouter` and print the
   rendezvous-hash shard assignment for two scenes,
3. stream both scenes concurrently through the router (every frame
   verified bit-identical to a direct engine render),
4. SIGKILL the first scene's owner backend mid-stream and show the
   stream finish anyway — ordered, gapless — via failover to its
   replica,
5. fetch a multi-frame chunked HTTP ``/stream`` response through the
   router's HTTP proxy.

Run:  PYTHONPATH=src python examples/cluster_demo.py
"""

import asyncio
import json

import numpy as np

from repro import GSTGRenderer, load_scene
from repro.cluster import ClusterMap, LocalFleet, ShardRouter
from repro.engine import RenderEngine
from repro.gaussians.cloud import cloud_fingerprint
from repro.scenes.trajectory import orbit_cameras
from repro.serve import AsyncGatewayClient, verify_streamed_images
from repro.tiles.boundary import BoundaryMethod

SCENES = ("playroom", "train")
NUM_VIEWS = 16
NUM_BACKENDS = 3
AUTH_TOKEN = "demo-cluster-token"


async def http_get(host: str, port: int, path: str) -> "tuple[str, bytes]":
    """A minimal HTTP GET (what curl does), returning (status line, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode())
    await writer.drain()
    data = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = data.partition(b"\r\n\r\n")
    return head.split(b"\r\n")[0].decode(), body


def dechunk(body: bytes) -> bytes:
    """Reassemble an HTTP/1.1 chunked body (enough for this demo)."""
    out = bytearray()
    while body:
        size_line, _, body = body.partition(b"\r\n")
        size = int(size_line, 16)
        if size == 0:
            break
        out += body[:size]
        body = body[size + 2 :]  # skip the chunk's trailing CRLF
    return bytes(out)


async def main() -> None:
    scenes = [
        load_scene(name, resolution_scale=0.05, seed=0) for name in SCENES
    ]
    orbits = [list(orbit_cameras(scene, NUM_VIEWS)) for scene in scenes]
    renderer = GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)

    print(f"spawning {NUM_BACKENDS} gateway backends ...")
    fleet = LocalFleet(
        NUM_BACKENDS,
        scenes=SCENES,
        scale=0.05,
        views=NUM_VIEWS,
        http=True,
        auth_token=AUTH_TOKEN,
    )
    specs = await asyncio.get_running_loop().run_in_executor(None, fleet.start)
    try:
        cluster_map = ClusterMap(specs, replication=2)
        router = ShardRouter(cluster_map, auth_token=AUTH_TOKEN)
        await router.start()
        await router.start_http()
        print(
            f"shard router on 127.0.0.1:{router.tcp_port} "
            f"(HTTP {router.http_port}), replication 2"
        )
        fingerprints = [cloud_fingerprint(scene.cloud) for scene in scenes]
        for name, fingerprint in zip(SCENES, fingerprints):
            replicas = cluster_map.assignment([fingerprint])[fingerprint]
            print(f"  scene {name:<10} -> owner {replicas[0]}, replicas {replicas}")

        victim = cluster_map.owner(fingerprints[0]).backend_id
        first_frame = asyncio.Event()

        async def stream_scene(index: int) -> "list[np.ndarray]":
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", router.tcp_port, auth_token=AUTH_TOKEN
            )
            images = []
            try:
                async for _, result in client.stream_trajectory(
                    scenes[index].cloud, orbits[index]
                ):
                    images.append(result.image)
                    if index == 0:
                        first_frame.set()
            finally:
                await client.close()
            return images

        async def kill_owner() -> None:
            await first_frame.wait()
            print(f"\nSIGKILL {victim} (owner of {SCENES[0]}) mid-stream ...")
            await asyncio.get_running_loop().run_in_executor(
                None, fleet.kill, victim
            )

        results = await asyncio.gather(
            stream_scene(0), stream_scene(1), kill_owner()
        )
        for index, images in enumerate(results[:2]):
            failures = verify_streamed_images(
                renderer, scenes[index].cloud, orbits[index], [images]
            )
            assert not failures, failures
            print(
                f"scene {SCENES[index]}: {len(images)} frames streamed, "
                "all bit-identical to direct renders"
            )
        print(
            f"router failovers: {router.stats.failovers} — the kill was "
            "absorbed, the stream never broke"
        )

        # The HTTP proxy path: a chunked multi-frame /stream response,
        # routed to a live replica, each record carrying the SHA-256 a
        # shell can verify against a direct render.
        status, body = await http_get(
            "127.0.0.1",
            router.http_port,
            f"/stream?scene={SCENES[1]}&frames=3",
        )
        records = [
            json.loads(line)
            for line in dechunk(body).decode().splitlines()
            if line
        ]
        eos = records.pop()  # terminal end-of-stream record
        assert status.endswith("200 OK") and len(records) == 3
        assert eos == {"type": "eos", "frames": 3}, eos
        direct = RenderEngine(renderer).render(scenes[1].cloud, orbits[1][0])
        import hashlib

        direct_sha = hashlib.sha256(
            np.ascontiguousarray(direct.image).tobytes()
        ).hexdigest()
        assert records[0]["image_sha256"] == direct_sha
        print(
            f"HTTP /stream through the router: {status}, {len(records)} "
            "chunked frames, SHA-256 of frame 0 matches the direct render"
        )
        await router.close()
    finally:
        await asyncio.get_running_loop().run_in_executor(None, fleet.close)


if __name__ == "__main__":
    asyncio.run(main())
