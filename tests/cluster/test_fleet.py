"""Tests for the subprocess fleet: real processes, real SIGKILL.

The in-process router tests stand backends in with closable gateways;
this file pays the subprocess cost once to prove the whole stack —
spawn, READY parsing, auth over the environment, streaming through the
router, a SIGKILL mid-stream, failover, teardown — against actual OS
processes.
"""

import asyncio

import numpy as np
import pytest

from repro.cluster import ClusterMap, LocalFleet, ShardRouter
from repro.core.pipeline import GSTGRenderer
from repro.engine import RenderEngine
from repro.gaussians.camera import Camera
from repro.gaussians.cloud import cloud_fingerprint
from repro.serve import AsyncGatewayClient
from repro.tiles.boundary import BoundaryMethod
from tests.conftest import make_cloud


def test_fleet_sigkill_mid_stream_fails_over():
    """The CI smoke property as a unit test: 2 subprocess backends, a
    long verified stream, the owner SIGKILLed mid-run, completion via
    the replica — ordered, gapless, bit-identical."""
    rng = np.random.default_rng(61)
    cloud = make_cloud(25, rng)
    base = [Camera(width=72, height=56, fx=66.0 + i, fy=66.0 + i) for i in range(8)]
    # Long enough that the whole stream (~12 MB of frame bytes) cannot
    # hide in the loopback socket buffers: the backend must still be
    # mid-send when the SIGKILL lands, or no failover happens and the
    # test flakes (all 8 distinct views render once; the rest relay
    # from the in-flight dedup/cache, so length is cheap).
    cameras = base * 48
    renderer = GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)
    engine = RenderEngine(renderer)
    reference = [engine.render(cloud, camera) for camera in base]

    fleet = LocalFleet(2, auth_token="fleet-secret")
    specs = fleet.start()
    assert [spec.backend_id for spec in specs] == ["backend-0", "backend-1"]
    assert all(spec.port > 0 for spec in specs)
    assert all(spec.http_port is None for spec in specs)  # http off

    async def main():
        cluster_map = ClusterMap(specs, replication=2)
        router = ShardRouter(cluster_map, auth_token="fleet-secret")
        await router.start()
        victim = cluster_map.owner(cloud_fingerprint(cloud)).backend_id
        try:
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", router.tcp_port, auth_token="fleet-secret"
            )
            try:
                results = []
                async for index, result in client.stream_trajectory(
                    cloud, cameras
                ):
                    results.append((index, result))
                    if index == 2:
                        await asyncio.get_running_loop().run_in_executor(
                            None, fleet.kill, victim
                        )
                return results, router.stats.failovers, victim
            finally:
                await client.close()
        finally:
            await router.close()

    try:
        results, failovers, victim = asyncio.run(main())
        assert not fleet.backend(victim).alive
        survivor = "backend-0" if victim == "backend-1" else "backend-1"
        assert fleet.backend(survivor).alive
        assert "READY" in fleet.logs(survivor)
    finally:
        fleet.close()

    indices = [index for index, _ in results]
    assert indices == list(range(len(cameras)))  # ordered, no dups, no gaps
    for index, result in results:
        ref = reference[index % len(base)]
        assert np.array_equal(result.image, ref.image)
        assert result.stats == ref.stats
    assert failovers >= 1


def test_backend_parser_accepts_cli_forwarded_admission_flags():
    """The ``cluster`` CLI forwards admission/SLO knobs to every spawned
    backend — the backend parser must accept exactly those flags, and
    they must arm the gateway-side controller (regression: the flags
    were once forwarded but unknown to ``repro.cluster.backend``)."""
    from repro.cluster.backend import _make_admission, build_parser

    args = build_parser().parse_args(
        [
            "--admission-window", "16",
            "--interactive-slo-ms", "80",
            "--bulk-slo-ms", "800",
        ]
    )
    controller = _make_admission(args)
    assert controller.window == 16
    assert controller.target("interactive") == pytest.approx(0.08)
    assert controller.target("bulk") == pytest.approx(0.8)
    # Omitted SLO flags leave the classes unarmed (quota-only admission).
    unarmed = _make_admission(build_parser().parse_args([]))
    assert unarmed.target("interactive") is None
    assert unarmed.target("bulk") is None


def test_fleet_validation_and_failed_spawn():
    with pytest.raises(ValueError):
        LocalFleet(0)
    # A backend that dies at argparse time (bad flag) must surface its
    # log, not hang until the timeout.
    fleet = LocalFleet(1, extra_args=("--definitely-not-a-flag",))
    with pytest.raises(RuntimeError, match="exited"):
        fleet.start()
    fleet.close()
