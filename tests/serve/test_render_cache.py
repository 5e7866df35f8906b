"""Tests for the shared-memory render cache."""

import multiprocessing
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.pipeline import GSTGRenderer
from repro.engine import RenderEngine
from repro.gaussians.camera import Camera
from repro.raster.renderer import BaselineRenderer
from repro.serve.protocol import encode_result_frame
from repro.serve.render_cache import SharedRenderCache, renderer_key
from repro.tiles.boundary import BoundaryMethod
from tests.conftest import make_cloud
from tests.serve.test_protocol import golden_result


@pytest.fixture
def scene():
    rng = np.random.default_rng(17)
    camera = Camera(width=96, height=64, fx=90.0, fy=90.0)
    return make_cloud(40, rng), camera


@pytest.fixture
def renderer():
    return GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)


class TestRendererKey:
    def test_equal_configs_share_keys(self):
        a = GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)
        b = GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)
        assert renderer_key(a) == renderer_key(b)

    def test_different_configs_differ(self):
        base = GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)
        for other in (
            GSTGRenderer(16, 32, BoundaryMethod.ELLIPSE),
            GSTGRenderer(16, 64, BoundaryMethod.AABB),
            GSTGRenderer(8, 64, BoundaryMethod.ELLIPSE),
            GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE, BoundaryMethod.AABB),
            BaselineRenderer(16, BoundaryMethod.ELLIPSE),
        ):
            assert renderer_key(base) != renderer_key(other)

    def test_key_is_hashable(self, renderer):
        hash(renderer_key(renderer))


class TestRoundTrip:
    def test_frame_and_stats_bit_identical(self, scene, renderer):
        cloud, camera = scene
        reference = renderer.render(cloud, camera)
        with SharedRenderCache() as cache:
            assert cache.get(cloud, camera, renderer) is None
            cache.put(cloud, camera, renderer, reference)
            loaded = cache.get(cloud, camera, renderer)
            assert loaded is not None
            assert np.array_equal(loaded.image, reference.image)
            assert loaded.image.dtype == reference.image.dtype
            assert loaded.stats == reference.stats
            assert loaded.projected is None and loaded.assignment is None

    def test_loaded_image_read_only(self, scene, renderer):
        cloud, camera = scene
        with SharedRenderCache() as cache:
            cache.put(cloud, camera, renderer, renderer.render(cloud, camera))
            loaded = cache.get(cloud, camera, renderer)
            with pytest.raises(ValueError):
                loaded.image[0, 0, 0] = 1.0

    def test_render_helper_hits_second_time(self, scene, renderer):
        cloud, camera = scene
        engine = RenderEngine(renderer)
        with SharedRenderCache() as cache:
            first = cache.render(engine, cloud, camera)
            second = cache.render(engine, cloud, camera)
            assert np.array_equal(first.image, second.image)
            stats = cache.stats()
            assert stats["hits"] == 1
            assert stats["misses"] == 1
            assert stats["stores"] == 1

    def test_distinct_renderers_distinct_entries(self, scene):
        cloud, camera = scene
        a = GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)
        b = BaselineRenderer(16, BoundaryMethod.ELLIPSE)
        with SharedRenderCache() as cache:
            cache.put(cloud, camera, a, a.render(cloud, camera))
            assert cache.get(cloud, camera, b) is None
            cache.put(cloud, camera, b, b.render(cloud, camera))
            assert len(cache) == 2
            hit = cache.get(cloud, camera, a)
            ref = a.render(cloud, camera)
            assert np.array_equal(hit.image, ref.image)

    def test_eviction_bounds_entries(self, scene, renderer):
        cloud, _ = scene
        with SharedRenderCache(max_entries=2) as cache:
            for focal in (60.0, 70.0, 80.0):
                camera = Camera(width=96, height=64, fx=focal, fy=focal)
                cache.put(cloud, camera, renderer, renderer.render(cloud, camera))
            assert len(cache) == 2


class TestLifecycle:
    def test_close_unlinks_segments(self, scene, renderer):
        from multiprocessing import shared_memory

        cloud, camera = scene
        cache = SharedRenderCache()
        cache.put(cloud, camera, renderer, renderer.render(cloud, camera))
        names = [entry[0] for entry in cache._index.values()]
        assert names
        cache.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        cache.close()  # idempotent

    def test_gc_fallback_unlinks_segments(self, scene, renderer):
        import gc
        from multiprocessing import shared_memory

        cloud, camera = scene
        cache = SharedRenderCache()
        cache.put(cloud, camera, renderer, renderer.render(cloud, camera))
        names = [entry[0] for entry in cache._index.values()]
        del cache
        gc.collect()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


class TestEngineIntegration:
    def test_render_trajectory_store_serial(self, scene, renderer):
        cloud, _ = scene
        cameras = [
            Camera(width=96, height=64, fx=85.0 + i, fy=85.0 + i)
            for i in range(3)
        ]
        reference = RenderEngine(renderer).render_trajectory(cloud, cameras)
        with SharedRenderCache() as store:
            engine = RenderEngine(renderer)
            first = engine.render_trajectory(cloud, cameras, render_store=store)
            assert store.stats()["stores"] == len(cameras)
            second = engine.render_trajectory(cloud, cameras, render_store=store)
            assert store.stats()["stores"] == len(cameras)  # nothing re-rendered
            assert store.stats()["hits"] >= len(cameras)
        for result, ref in zip(first.results, reference.results):
            assert np.array_equal(result.image, ref.image)
            assert result.stats == ref.stats
        for result, ref in zip(second.results, reference.results):
            assert np.array_equal(result.image, ref.image)
            assert result.stats == ref.stats
        assert second.stats == reference.stats

    def test_render_trajectory_store_process_workers(self, scene, renderer):
        """The store pickles into pool workers; a second pool re-renders
        nothing and still returns bit-identical frames."""
        cloud, _ = scene
        cameras = [
            Camera(width=96, height=64, fx=85.0 + i, fy=85.0 + i)
            for i in range(4)
        ]
        reference = RenderEngine(renderer).render_trajectory(cloud, cameras)
        with SharedRenderCache() as store:
            engine = RenderEngine(renderer)
            engine.render_trajectory(
                cloud, cameras, workers=2, render_store=store
            )
            stores_after_first = store.stats()["stores"]
            assert stores_after_first == len(cameras)
            second = engine.render_trajectory(
                cloud, cameras, workers=2, render_store=store
            )
            assert store.stats()["stores"] == stores_after_first
        for result, ref in zip(second.results, reference.results):
            assert np.array_equal(result.image, ref.image)
            assert result.stats == ref.stats


def _views(count: int) -> "list[Camera]":
    return [
        Camera(width=96, height=64, fx=60.0 + 5 * i, fy=60.0 + 5 * i)
        for i in range(count)
    ]


class TestWireReadyHits:
    """A hit carries the FRAME parts stored at ``put``; encoding it gives
    the bytes encoding the fresh result gives."""

    @pytest.fixture(scope="class")
    def fresh_and_hit(self):
        cloud = make_cloud(8, np.random.default_rng(3))
        camera = Camera(width=16, height=16, fx=20.0, fy=20.0)
        renderer = BaselineRenderer(16, BoundaryMethod.AABB)
        fresh = golden_result()
        with SharedRenderCache() as cache:
            cache.put(cloud, camera, renderer, fresh)
            yield fresh, cache.get(cloud, camera, renderer)

    def test_hit_parts_are_the_stored_ones(self, fresh_and_hit):
        fresh, hit = fresh_and_hit
        assert isinstance(hit.blob, memoryview) and hit.blob.readonly
        assert bytes(hit.blob) == fresh.image.tobytes()
        assert np.shares_memory(hit.image, np.frombuffer(hit.blob, np.uint8))
        assert hit.stats == fresh.stats

    @given(
        request_id=st.integers(min_value=0, max_value=2**63),
        index=st.integers(min_value=0, max_value=2**31),
        backend=st.none() | st.text(max_size=20),
        trace=st.none() | st.text(max_size=40),
        checksum=st.booleans(),
    )
    def test_hit_and_fresh_encode_to_the_same_bytes(
        self, fresh_and_hit, request_id, index, backend, trace, checksum
    ):
        fresh, hit = fresh_and_hit
        options = {"checksum": checksum, "backend": backend, "trace": trace}
        assert encode_result_frame(
            request_id, index, hit, **options
        ) == encode_result_frame(request_id, index, fresh, **options)


class TestMemo:
    def test_first_get_seeds_the_memo_and_lookup_never_asks_the_manager(
        self, scene, renderer
    ):
        cloud, camera = scene
        reference = renderer.render(cloud, camera)
        with SharedRenderCache() as cache:
            cache.put(cloud, camera, renderer, reference)
            # A producer maps nothing: only reading a frame memoises it.
            assert cache.lookup(cloud, camera, renderer) is None
            hit = cache.get(cloud, camera, renderer)
            cache._index = cache._lock = None  # any IPC would now raise
            assert cache.lookup(cloud, camera, renderer) is hit
            assert cache.get(cloud, camera, renderer) is hit
            assert np.array_equal(hit.image, reference.image)
            assert hit.stats == reference.stats
            del hit

    def test_a_hit_still_pickles_by_value(self, scene, renderer):
        import pickle

        cloud, camera = scene
        reference = renderer.render(cloud, camera)
        with SharedRenderCache() as cache:
            cache.put(cloud, camera, renderer, reference)
            copy = pickle.loads(pickle.dumps(cache.get(cloud, camera, renderer)))
        assert np.array_equal(copy.image, reference.image)
        assert copy.stats == reference.stats
        assert copy.blob == reference.image.tobytes()  # recomputed, not shared

    def test_memo_hits_are_counted_exactly_in_process(self, scene, renderer):
        cloud, camera = scene
        with SharedRenderCache() as cache:
            cache.put(cloud, camera, renderer, renderer.render(cloud, camera))
            assert cache.get(cloud, camera, renderer) is not None
            for _ in range(5):
                assert cache.lookup(cloud, camera, renderer) is not None
            assert cache.get(cloud, camera, renderer) is not None
            assert cache.stats() == {"hits": 7, "misses": 0, "stores": 1}
            assert cache.stats() == {"hits": 7, "misses": 0, "stores": 1}

    def test_eviction_bounds_index_memo_and_attachments(self, scene, renderer):
        cloud, _ = scene
        views = _views(5)
        with SharedRenderCache(max_entries=2) as cache:
            for camera in views:
                cache.put(cloud, camera, renderer, renderer.render(cloud, camera))
                assert cache.get(cloud, camera, renderer) is not None
                assert len(cache) <= 2
                assert len(cache._memo.entries) <= 2
            assert not cache._memo.lingering  # nobody held a frame
            assert cache.lookup(cloud, views[0], renderer) is None
            assert cache.get(cloud, views[0], renderer) is None
            assert cache.lookup(cloud, views[-1], renderer) is not None

    def test_evicted_frame_a_caller_still_holds_stays_readable(
        self, scene, renderer
    ):
        cloud, _ = scene
        views = _views(3)
        with SharedRenderCache(max_entries=1) as cache:
            first = renderer.render(cloud, views[0])
            cache.put(cloud, views[0], renderer, first)
            held = cache.get(cloud, views[0], renderer)
            for camera in views[1:]:
                cache.put(cloud, camera, renderer, renderer.render(cloud, camera))
            # Evicted and unlinked, but the mapping outlives the name.
            assert len(cache._memo.lingering) == 1
            assert np.array_equal(held.image, first.image)
            del held
            cache.put(cloud, views[0], renderer, first)  # any later release
            assert not cache._memo.lingering

    def test_lookups_race_puts_without_losing_a_hit(self, scene, renderer):
        """Loop-thread lookups against executor-thread puts/gets: every
        frame handed out is counted exactly once and is the right one."""
        cloud, _ = scene
        views = _views(6)
        frames = [renderer.render(cloud, camera) for camera in views]
        served = [0] * 4
        wrong = []
        stop = threading.Event()

        def reader(slot):
            while not stop.is_set():
                for camera, frame in zip(views, frames):
                    hit = cache.lookup(cloud, camera, renderer)
                    if hit is not None:
                        served[slot] += 1
                        if not np.array_equal(hit.image, frame.image):
                            wrong.append(camera)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with SharedRenderCache(max_entries=3) as cache:
                readers = [
                    threading.Thread(target=reader, args=(slot,))
                    for slot in range(len(served))
                ]
                for thread in readers:
                    thread.start()
                loaded = 0
                for _ in range(8):
                    for camera, frame in zip(views, frames):
                        cache.put(cloud, camera, renderer, frame)
                        loaded += cache.get(cloud, camera, renderer) is not None
                stop.set()
                for thread in readers:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in readers)
                assert cache.stats()["hits"] == sum(served) + loaded
                assert len(cache._memo.entries) <= 3
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not wrong


def _miss_once(cache, cloud, camera, renderer) -> None:
    """A forked child's one manager round trip: a miss, which folds
    whatever memo hits the child believes it owes."""
    assert cache.get(cloud, camera, renderer) is None
    cache.close()


def _mapped_segments() -> int:
    """Shared-memory segments this process has mapped right now."""
    maps = Path("/proc/self/maps").read_text()
    return sum("/psm_" in line for line in maps.splitlines())


def _second_process(cache, pipe, cloud, renderer) -> None:
    """Serve ``get``/``close`` commands against a forked copy of ``cache``;
    answers count the segments mapped *since the fork* (the test process
    may carry mappings earlier tests pinned)."""
    inherited = _mapped_segments()
    while True:
        command, cameras = pipe.recv()
        if command == "close":
            cache.close()
            pipe.send(_mapped_segments() - inherited)
            return
        hits = sum(
            cache.get(cloud, camera, renderer) is not None for camera in cameras
        )
        pipe.send((hits, _mapped_segments() - inherited))


@pytest.mark.skipif(
    not Path("/proc/self/maps").exists()
    or "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork and /proc/self/maps",
)
class TestSecondProcess:
    def test_reader_maps_at_most_max_entries_and_folds_hits_on_close(
        self, scene, renderer
    ):
        """A process that only *reads* used to keep every segment it
        ever attached; now its mappings follow its memo.  Its memo hits
        reach the owner's counters when it closes."""
        cloud, _ = scene
        views = _views(4)
        context = multiprocessing.get_context("fork")
        ours, theirs = context.Pipe()
        with SharedRenderCache(max_entries=2) as cache:
            # Forked before any put: the child inherits no mapping.
            child = context.Process(
                target=_second_process, args=(cache, theirs, cloud, renderer)
            )
            child.start()
            try:
                for camera in views:  # each put past the second evicts one
                    cache.put(
                        cloud, camera, renderer, renderer.render(cloud, camera)
                    )
                    ours.send(("get", [camera]))
                    hits, mapped = ours.recv()
                    assert hits == 1
                    assert mapped <= 2
                # Two repeat hits from the child's memo: not folded yet,
                # so the owner's view lags by exactly those two.
                ours.send(("get", [views[-1], views[-1]]))
                assert ours.recv() == (2, 2)
                assert cache.stats()["hits"] == len(views)
                ours.send(("close", None))
                assert ours.recv() == 0
                assert cache.stats()["hits"] == len(views) + 2
                # The child's close() left the owner's cache serving.
                assert cache.get(cloud, views[-1], renderer) is not None
            finally:
                child.join(timeout=10)
                if child.is_alive():
                    child.kill()
            assert child.exitcode == 0

    def test_fork_does_not_inherit_the_parents_unfolded_hits(
        self, scene, renderer
    ):
        cloud, camera = scene
        unseen = _views(1)[0]
        context = multiprocessing.get_context("fork")
        with SharedRenderCache() as cache:
            cache.put(cloud, camera, renderer, renderer.render(cloud, camera))
            assert cache.get(cloud, camera, renderer) is not None
            for _ in range(3):  # three memo hits, not folded yet
                assert cache.lookup(cloud, camera, renderer) is not None
            child = context.Process(
                target=_miss_once, args=(cache, cloud, unseen, renderer)
            )
            child.start()
            child.join(timeout=10)
            assert child.exitcode == 0
            # Reported once, by the process that served them.
            assert cache.stats() == {"hits": 4, "misses": 1, "stores": 1}
