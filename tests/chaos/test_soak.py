"""The chaos soak: scheduled faults against a live 3-backend fleet.

Three in-process backends (gateway + service) each sit behind a
:class:`ChaosProxy`; the router's ``BackendSpec``s point at the proxy
ports, so every byte between router and backend crosses the fault
layer.  The schedule — anchored to replica rank, not backend id, so it
is independent of rendezvous hashing — injects, across three client
streams:

* a **corrupted FRAME blob** on the owner's first link (the per-frame
  checksum turns it into a failover, never served bytes),
* an **infinite mid-frame stall** on the first replica's first link
  (the inter-frame gap watchdog severs it in ``request_timeout``
  seconds — no waiting for probe markdown; in fact the monitor here
  never probes at all),
* a **mid-stream TCP reset** on the owner's second link.

Every stream must still come back ordered, gapless, and bit-identical
to direct ``RenderEngine.render`` output.  Determinism: the health
monitor is never started (no probe connections to perturb the proxies'
accept indices), all faults trigger on relayed byte offsets, and the
workload itself is a fixed scene + camera list.
"""

import asyncio
import math
import os
import time

import numpy as np
import pytest

from repro.chaos import ChaosProxy, ChaosSchedule, Fault, FaultKind
from repro.cluster import BackendSpec, ClusterMap, HealthMonitor, ShardRouter
from repro.core.pipeline import GSTGRenderer
from repro.engine import RenderEngine
from repro.gaussians.camera import Camera
from repro.gaussians.cloud import cloud_fingerprint
from repro.serve import AsyncGatewayClient, RenderGateway, RenderService
from repro.tiles.boundary import BoundaryMethod
from tests.conftest import make_cloud

# Offsets in the backend→router byte stream.  Handshake traffic
# (HELLO + SCENE_OK) is a few hundred bytes; each FRAME is ~17.2 KB
# (88×64×3 blob + JSON header + framing).  5 000 therefore lands inside
# the *first* frame's pixel blob, and 40 000 inside the third frame —
# mid-stream, after at least two frames have been relayed.
_IN_FIRST_BLOB = 5_000
_MID_STREAM = 40_000


@pytest.fixture(scope="module")
def soak(warm_render_pool):
    """One run of the three-stream soak, shared by the test of what it
    served and the ``timing`` gate on how long it took.  The render
    pool starts warm: its cold start outlasts the stall watchdog."""
    rng = np.random.default_rng(41)
    cloud = make_cloud(35, rng)
    cameras = [
        Camera(width=88, height=64, fx=75.0 + i, fy=75.0 + i) for i in range(6)
    ]
    renderer = GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)
    engine = RenderEngine(renderer)
    reference = [engine.render(cloud, camera) for camera in cameras]

    async def main():
        services = [
            RenderService(renderer, max_batch_size=4, max_wait=0.002)
            for _ in range(3)
        ]
        gateways = []
        proxies = []
        specs = []
        for index, service in enumerate(services):
            gateway = RenderGateway(service)
            await gateway.start()
            gateways.append(gateway)
            proxy = ChaosProxy("127.0.0.1", gateway.tcp_port)
            await proxy.start()
            proxies.append(proxy)
            specs.append(BackendSpec(f"b{index}", "127.0.0.1", proxy.port))
        cluster_map = ClusterMap(specs, replication=3)
        # External, never-started monitor: no probe traffic exists, so
        # any failover below happened without probe markdown — and the
        # proxies' connection accept indices stay deterministic.
        monitor = HealthMonitor(cluster_map)
        router = ShardRouter(
            cluster_map,
            monitor=monitor,
            request_timeout=0.5,  # the stall watchdog under test
        )
        await router.start()

        # Schedules keyed by replica *rank* for this scene, so the test
        # is independent of which backend rendezvous hashing picks.
        ranked = cluster_map.replicas(cloud_fingerprint(cloud))
        by_id = {spec.backend_id: proxy
                 for spec, proxy in zip(specs, proxies)}
        owner_proxy = by_id[ranked[0].backend_id]
        second_proxy = by_id[ranked[1].backend_id]
        third_proxy = by_id[ranked[2].backend_id]
        owner_proxy.schedule = ChaosSchedule(per_connection={
            0: [Fault(FaultKind.CORRUPT, after_bytes=_IN_FIRST_BLOB)],
            1: [Fault(FaultKind.RESET, after_bytes=_MID_STREAM)],
        })
        second_proxy.schedule = ChaosSchedule(per_connection={
            0: [Fault(FaultKind.STALL, after_bytes=_MID_STREAM,
                      duration=math.inf)],
        })
        # third_proxy stays clean: the last line of defence.

        try:
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", router.tcp_port
            )
            try:
                streams = []
                start = time.monotonic()
                for _ in range(3):
                    results = []
                    async for index, result in client.stream_trajectory(
                        cloud, cameras
                    ):
                        results.append((index, result))
                    streams.append(results)
                elapsed = time.monotonic() - start
            finally:
                await client.close()
            return (
                streams,
                elapsed,
                router.stats.failovers,
                {spec.backend_id: monitor.health(spec.backend_id).snapshot()
                 for spec in specs},
                ranked[1].backend_id,
                (owner_proxy.stats, second_proxy.stats, third_proxy.stats),
            )
        finally:
            await router.close()
            for proxy in proxies:
                await proxy.close()
            for gateway in gateways:
                await gateway.close()
            for service in services:
                await service.close()

    return cameras, reference, asyncio.run(main())


def test_chaos_soak_streams_survive_corruption_stall_and_reset(soak):
    cameras, reference, outcome = soak
    streams, _, failovers, health, stalled_id, stats = outcome
    owner_stats, second_stats, third_stats = stats

    # Acceptance: at least one stall, one corrupted FRAME, one reset
    # actually fired — the proxies' own ledgers are the proof.
    assert owner_stats.count(FaultKind.CORRUPT) == 1
    assert owner_stats.count(FaultKind.RESET) == 1
    assert second_stats.count(FaultKind.STALL) == 1
    assert third_stats.events == []

    # Every client stream is ordered, gapless, and bit-identical.
    assert len(streams) == 3
    for results in streams:
        assert [index for index, _ in results] == list(range(len(cameras)))
        for index, result in results:
            assert np.array_equal(result.image, reference[index].image)
            assert result.stats == reference[index].stats

    # Stream 1 fails over twice (corrupt, then stall), stream 2 once
    # (reset), stream 3 runs clean on reconnected links.
    assert failovers == 3

    # The stalled backend was severed by the inter-frame watchdog, not
    # probe markdown: its failure was *reported* (by the router) but it
    # was never probed and never marked down.
    assert health[stalled_id]["failures"] >= 1
    assert health[stalled_id]["up"] and not health[stalled_id]["draining"]
    assert all(entry["markdowns"] == 0 for entry in health.values())


@pytest.mark.timing
def test_chaos_soak_finishes_promptly(soak):
    """The stall cost one request_timeout (0.5 s), not a probe cycle or
    a hang: the whole three-stream soak finishes promptly.  The bound is
    env-softenable for noisy shared runners; the byte-exactness asserts
    of the test above never are."""
    elapsed = soak[2][1]
    assert elapsed < float(os.environ.get("CHAOS_SOAK_MAX_S", "15"))


def test_seeded_random_soak_schedule_is_replayable():
    """``ChaosSchedule.random`` is the soak's dial-a-disaster: the same
    seed must describe the same faults, run to run, process to process."""
    schedule = ChaosSchedule.random(20250807, connections=6)
    replay = ChaosSchedule.random(20250807, connections=6)
    assert schedule.per_connection == replay.per_connection
    flat = [f for faults in schedule.per_connection.values() for f in faults]
    assert flat, "seed produced an empty schedule"
    with pytest.raises(AttributeError):
        # Frozen: a schedule is plain data, safe to share across runs.
        flat[0].after_bytes = 1
