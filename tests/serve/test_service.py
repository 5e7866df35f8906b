"""Tests for the asyncio render service.

The acceptance property of the serving layer, asserted here end to end:
under concurrent load with overlapping trajectories the service performs
**strictly fewer engine renders than it serves frames** (micro-batching
+ dedup + render cache), and **every** streamed frame is bit-identical
to a direct ``RenderEngine.render`` of the same view.

Plain ``asyncio.run`` drivers — no async test plugin required.
"""

import asyncio
import multiprocessing
import os

import numpy as np
import pytest

from repro.core.pipeline import GSTGRenderer
from repro.engine import RenderEngine
from repro.engine import engine as engine_module
from repro.gaussians.camera import Camera
from repro.serve import RenderService, SharedRenderCache, run_clients
from repro.serve.protocol import encode_result_frame
from repro.tiles.boundary import BoundaryMethod
from repro.trace import Tracer
from tests.conftest import make_cloud


@pytest.fixture(scope="module")
def scene():
    rng = np.random.default_rng(23)
    cloud = make_cloud(40, rng)
    cameras = [
        Camera(width=96, height=64, fx=80.0 + i, fy=80.0 + i) for i in range(8)
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


class TestSingleRequests:
    def test_frame_bit_identical(self, scene, renderer, reference):
        cloud, cameras = scene

        async def main():
            async with RenderService(renderer) as service:
                return await service.render_frame(cloud, cameras[0])

        result = asyncio.run(main())
        assert np.array_equal(result.image, reference[0].image)
        assert result.stats == reference[0].stats

    def test_stream_yields_in_order(self, scene, renderer, reference):
        cloud, cameras = scene

        async def main():
            async with RenderService(renderer, max_wait=0.001) as service:
                indices, results = [], []
                async for index, result in service.stream_trajectory(
                    cloud, cameras
                ):
                    indices.append(index)
                    results.append(result)
                return indices, results

        indices, results = asyncio.run(main())
        assert indices == list(range(len(cameras)))
        for result, ref in zip(results, reference):
            assert np.array_equal(result.image, ref.image)
            assert result.stats == ref.stats


class TestRepeatHits:
    def test_repeat_hit_stays_on_the_loop_thread(
        self, scene, renderer, reference, monkeypatch
    ):
        """A view this process has already read from the cache is served
        from the cache's memo: no executor hop (patched to raise here),
        a ``cache`` span that says ``hit`` and ``local``, counters
        exact, and the same bytes as a direct render — image, stats and
        the encoded FRAME."""
        cloud, cameras = scene
        tracer = Tracer("service")

        def refuse(*args):
            raise AssertionError("a repeat hit took the executor hop")

        async def main():
            with SharedRenderCache() as cache:
                async with RenderService(
                    renderer, cache=cache, tracer=tracer
                ) as service:
                    miss = await service.render_frame(cloud, cameras[0])
                    first = await service.render_frame(
                        cloud, cameras[0], trace="first"
                    )
                    with monkeypatch.context() as patch:
                        patch.setattr(
                            asyncio.get_running_loop(), "run_in_executor", refuse
                        )
                        hit = await service.render_frame(
                            cloud, cameras[0], trace="repeat"
                        )
                    assert hit is first
                    return miss, hit, service.stats.cache_hits, cache.stats()

        miss, hit, service_hits, cache_stats = asyncio.run(main())
        assert service_hits == 2
        assert cache_stats == {"hits": 2, "misses": 1, "stores": 1}
        for result in (miss, hit):
            assert np.array_equal(result.image, reference[0].image)
            assert result.stats == reference[0].stats
        assert encode_result_frame(4, 2, hit, backend="b") == encode_result_frame(
            4, 2, reference[0], backend="b"
        )
        # The miss came back already hashed: its digest is the hit's.
        assert miss.digest == hit.digest
        attrs = {
            trace: [
                s["attrs"] for s in tracer.spans(trace=trace) if s["name"] == "cache"
            ]
            for trace in ("first", "repeat")
        }
        assert attrs == {
            "first": [{"hit": True}],
            "repeat": [{"hit": True, "local": True}],
        }


class TestConcurrentLoad:
    def test_overlapping_clients_fewer_renders_bit_identical(
        self, scene, renderer, reference
    ):
        """The acceptance criterion: 8 clients x 8 overlapping frames ->
        strictly fewer engine renders than streamed frames, all frames
        bit-identical to direct renders."""
        cloud, cameras = scene

        async def main():
            with SharedRenderCache() as cache:
                async with RenderService(
                    renderer, cache=cache, max_batch_size=4, max_wait=0.005
                ) as service:
                    return await run_clients(
                        service, cloud, [list(cameras)] * 8, keep_images=True
                    )

        report = asyncio.run(main())
        assert report.frames == 8 * len(cameras)
        stats = report.service
        assert stats["requests"] == report.frames
        assert stats["engine_renders"] < report.frames  # strictly fewer
        assert stats["engine_renders"] >= len(cameras)  # every view once
        assert stats["coalesced"] + stats["cache_hits"] > 0
        for client_images in report.images:
            for image, ref in zip(client_images, reference):
                assert np.array_equal(image, ref.image)

    def test_cache_serves_across_service_instances(self, scene, renderer, reference):
        """A second service over the same shared cache renders nothing."""
        cloud, cameras = scene

        async def serve_once(cache):
            async with RenderService(
                renderer, cache=cache, max_batch_size=4, max_wait=0.002
            ) as service:
                results = await service.render_trajectory(cloud, cameras)
                return results, service.stats_dict()

        async def main():
            with SharedRenderCache() as cache:
                first, first_stats = await serve_once(cache)
                second, second_stats = await serve_once(cache)
                return first, first_stats, second, second_stats

        first, first_stats, second, second_stats = asyncio.run(main())
        assert first_stats["engine_renders"] == len(cameras)
        assert second_stats["engine_renders"] == 0
        assert second_stats["cache_hits"] == len(cameras)
        for result, ref in zip(second, reference):
            assert np.array_equal(result.image, ref.image)
            assert result.stats == ref.stats

    def test_distinct_scenes_use_distinct_lanes(self, renderer):
        rng = np.random.default_rng(29)
        cloud_a = make_cloud(30, rng)
        cloud_b = make_cloud(30, rng)
        camera = Camera(width=96, height=64, fx=85.0, fy=85.0)

        async def main():
            async with RenderService(renderer, max_wait=0.005) as service:
                res_a, res_b = await asyncio.gather(
                    service.render_frame(cloud_a, camera),
                    service.render_frame(cloud_b, camera),
                )
                return res_a, res_b

        res_a, res_b = asyncio.run(main())
        engine = RenderEngine(renderer)
        assert np.array_equal(res_a.image, engine.render(cloud_a, camera).image)
        assert np.array_equal(res_b.image, engine.render(cloud_b, camera).image)


class TestBackpressureAndCancellation:
    def test_tiny_admission_bound_still_completes(self, scene, renderer, reference):
        cloud, cameras = scene

        async def main():
            async with RenderService(
                renderer, max_pending=1, max_batch_size=2, max_wait=0.001
            ) as service:
                return await run_clients(
                    service, cloud, [list(cameras)] * 2, keep_images=True
                )

        report = asyncio.run(main())
        assert report.frames == 2 * len(cameras)
        for client_images in report.images:
            for image, ref in zip(client_images, reference):
                assert np.array_equal(image, ref.image)

    def test_early_stream_close_cancels_outstanding(self, scene, renderer):
        cloud, cameras = scene

        async def main():
            async with RenderService(
                renderer, max_batch_size=2, max_wait=0.001
            ) as service:
                seen = 0
                async for index, _ in service.stream_trajectory(cloud, cameras):
                    seen += 1
                    if seen == 2:
                        break
                # The service stays usable after an abandoned stream.
                result = await service.render_frame(cloud, cameras[0])
                return seen, result, service.stats_dict()

        seen, result, stats = asyncio.run(main())
        assert seen == 2
        assert result is not None
        # Never more engine work than the full trajectory would cost.
        assert stats["engine_renders"] <= len(cameras)

    def test_cancelled_single_waiter_cancels_render(self, scene, renderer):
        cloud, cameras = scene

        async def main():
            async with RenderService(
                renderer, max_batch_size=8, max_wait=0.2
            ) as service:
                task = asyncio.ensure_future(
                    service.render_frame(cloud, cameras[0])
                )
                await asyncio.sleep(0.01)  # submitted, waiting on batch timer
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                await service.close()
                return service.stats_dict()

        stats = asyncio.run(main())
        assert stats["engine_renders"] == 0
        assert stats["cancelled"] == 1

    def test_rerequest_after_sole_waiter_cancelled(self, scene, renderer, reference):
        """A request arriving right after the previous sole waiter
        cancelled the same view must get a fresh render, not the dying
        entry's CancelledError (the entry is dropped synchronously)."""
        cloud, cameras = scene

        async def main():
            async with RenderService(
                renderer, max_batch_size=8, max_wait=0.05
            ) as service:
                first = asyncio.ensure_future(
                    service.render_frame(cloud, cameras[0])
                )
                await asyncio.sleep(0.005)  # pending on the batch timer
                first.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await first
                # Immediately re-request the same view: the cancelled
                # in-flight task has not settled through the event loop
                # yet, but the new request must not inherit it.
                return await service.render_frame(cloud, cameras[0])

        result = asyncio.run(main())
        assert np.array_equal(result.image, reference[0].image)

    def test_validation(self, renderer):
        with pytest.raises(ValueError):
            RenderService(renderer, max_pending=0)
        with pytest.raises(ValueError):
            RenderService(renderer, batch_workers=0)
        with pytest.raises(ValueError):
            RenderService(renderer, batch_executor="carrier-pigeon")


class _RendezvousRenderer(GSTGRenderer):
    """GS-TG whose every frame waits at a cross-process barrier first.

    With a two-party barrier, two frames finish only if two processes
    render them at the same time: one process taking both in turn
    breaks the barrier instead (its timeout only bounds a failure).
    """

    def __init__(self, barrier) -> None:
        super().__init__(16, 64, BoundaryMethod.ELLIPSE)
        self.barrier = barrier

    def render(self, cloud, camera):
        self.barrier.wait(timeout=60)
        return super().render(cloud, camera)


def _render_workers(tracer: Tracer, trace: str) -> "list[int]":
    """The ``worker`` pid of every ``render`` span of ``trace``."""
    return [
        span["attrs"]["worker"]
        for span in tracer.spans(trace=trace)
        if span["name"] == "render"
    ]


class TestBatchWorkerPools:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_pooled_batches_bit_identical(
        self, scene, renderer, reference, executor
    ):
        """batch_workers > 1 renders each flush on the process-wide pool
        (``"process"``) or on the flush thread (``"thread"``); frames and
        stats stay bit-identical and the render spans name the pid."""
        cloud, cameras = scene
        tracer = Tracer("service")

        async def main():
            async with RenderService(
                renderer,
                max_batch_size=4,
                max_wait=0.002,
                batch_workers=2,
                batch_executor=executor,
                tracer=tracer,
            ) as service:
                return [
                    result
                    async for _, result in service.stream_trajectory(
                        cloud, cameras, trace="t"
                    )
                ]

        results = asyncio.run(main())
        for result, ref in zip(results, reference):
            assert np.array_equal(result.image, ref.image)
            assert result.stats == ref.stats
        workers = _render_workers(tracer, "t")
        assert len(workers) == len(cameras)
        in_process = [worker == os.getpid() for worker in workers]
        assert all(in_process) if executor == "thread" else not any(in_process)


class TestSharedRenderPool:
    """Misses render on one process-wide pool: concurrently, and shared
    by every service in the process."""

    @pytest.mark.skipif(
        len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs for two workers"
    )
    def test_misses_on_two_lanes_render_in_two_workers(self, scene):
        camera = scene[1][0]
        clouds = [make_cloud(30, np.random.default_rng(seed)) for seed in (1, 2)]
        tracer = Tracer("service")

        async def main():
            with multiprocessing.get_context("forkserver").Manager() as manager:
                async with RenderService(
                    _RendezvousRenderer(manager.Barrier(2)), tracer=tracer
                ) as service:
                    return await asyncio.gather(
                        *(
                            service.render_frame(cloud, camera, trace=f"lane{i}")
                            for i, cloud in enumerate(clouds)
                        )
                    )

        assert len(asyncio.run(main())) == 2
        (first,), (second,) = (_render_workers(tracer, f"lane{i}") for i in (0, 1))
        assert first != second
        assert os.getpid() not in (first, second)

    def test_second_service_reuses_the_pool_workers(self, scene, renderer):
        cloud, cameras = scene
        tracer = Tracer("service")

        async def render(camera, trace):
            async with RenderService(renderer, tracer=tracer) as service:
                await service.render_frame(cloud, camera, trace=trace)

        asyncio.run(render(cameras[0], "first"))
        pool = engine_module._RENDER_POOL
        workers = set(pool._processes)
        asyncio.run(render(cameras[1], "second"))
        assert engine_module._RENDER_POOL is pool
        assert set(pool._processes) == workers
        assert set(_render_workers(tracer, "second")) <= workers
