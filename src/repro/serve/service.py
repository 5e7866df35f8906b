"""The asyncio render service: streaming frames, shared everything.

:class:`RenderService` is the serving front end over
:class:`repro.engine.RenderEngine`:

* **Requests** — :meth:`RenderService.render_frame` resolves one
  ``(cloud, camera)`` view; :meth:`RenderService.stream_trajectory` is
  an async generator streaming a whole trajectory's frames back in
  order as they complete.
* **Micro-batching** — concurrent requests on the same
  ``(scene, renderer configuration)`` coalesce onto single engine batch
  renders via :class:`repro.serve.scheduler.MicroBatcher`
  (``max_batch_size`` / ``max_wait`` knobs).
* **Deduplication** — identical in-flight views share one render
  (waiters join the pending future), and a
  :class:`repro.serve.render_cache.SharedRenderCache` serves views any
  process already rendered, so under overlapping load the service
  performs strictly fewer engine renders than it serves frames.
* **Backpressure** — admission is bounded by ``max_pending``; a full
  service queues callers instead of growing without bound, and
  trajectory streams keep at most ``prefetch`` frames in flight.  (The
  network gateway layers *rejecting* admission control — 429 error
  frames — on top; see :mod:`repro.serve.gateway`.)
* **Parallel misses** — a flushed micro-batch renders on the
  process-wide render pool (:func:`repro.engine.render_in_pool`), so
  misses on different scenes use different cores instead of sharing
  the GIL on the flush threads.
* **Adaptation** — an attached
  :class:`repro.serve.policy.AdaptiveBatchPolicy` retunes
  ``max_batch_size``/``max_wait`` from measured request-latency
  quantiles against a p95 target (the slow timescale).
* **Cancellation** — cancelling a waiting request (or closing a stream
  early) drops its pending work; an in-flight render is cancelled once
  its *last* waiter disappears.

Every served frame is bit-identical to a direct
``RenderEngine.render`` of the same view — batching, caching and
sharing change *when and where* a frame is rendered, never its bytes
(the paper's losslessness guarantee extends through the serving layer).
Served frames may be shared between waiters and processes, so treat
images and stats as read-only.
"""

from __future__ import annotations

import asyncio
import os
import threading
from dataclasses import dataclass, field

from repro.engine import RenderEngine, render_in_pool
from repro.gaussians.camera import Camera
from repro.gaussians.cloud import GaussianCloud, cloud_fingerprint
from repro.raster.renderer import RenderResult
from repro.serve import protocol
from repro.serve.protocol import ProtocolError, encode_camera, wire_result
from repro.serve.render_cache import SharedRenderCache, render_key
from repro.serve.scheduler import MicroBatcher
from repro.trace.tracer import NULL_TRACER


@dataclass
class ServiceStats:
    """Service-level counters (scheduler counters live in ``batch``).

    Attributes
    ----------
    requests:
        Frames requested (stream frames included).
    streams:
        Trajectory streams opened.
    cache_hits:
        Requests served from the shared render cache.
    coalesced:
        Requests that joined an identical in-flight render.
    engine_renders:
        Frames actually rendered by the engine on behalf of this
        service — the number the batching/caching machinery minimises.
    class_requests:
        Requests by admission class (one count per ``render_frame``
        call or ``stream_trajectory`` open that named a class; requests
        without a class are not counted here).
    """

    requests: int = 0
    streams: int = 0
    cache_hits: int = 0
    coalesced: int = 0
    engine_renders: int = 0
    class_requests: "dict[str, int]" = field(default_factory=dict)

    def count_class(self, request_class: "str | None") -> None:
        """Bump the per-class request counter (no-op without a class)."""
        if request_class is not None:
            self.class_requests[request_class] = (
                self.class_requests.get(request_class, 0) + 1
            )


class _Inflight:
    """One pending render shared by every waiter that requested it."""

    __slots__ = ("task", "waiters")

    def __init__(self, task: asyncio.Task) -> None:
        self.task = task
        self.waiters = 0


class RenderService:
    """Async streaming render service over one renderer configuration.

    Parameters
    ----------
    renderer:
        Any :class:`repro.engine.protocol.Renderer`; requests are
        coalesced per ``(scene, this renderer's configuration)``.
    cache:
        Optional :class:`SharedRenderCache`.  The service publishes
        every render it performs and serves hits without touching the
        engine; pass the same cache to several services / worker pools /
        sweeps to render each view exactly once across all of them.  The
        caller owns the cache's lifecycle.
    max_batch_size, max_wait:
        Micro-batching knobs (see :class:`MicroBatcher`): flush a
        scene's pending requests at this size, or after this many
        seconds, whichever comes first.
    max_pending:
        Admission bound — at most this many requests past the cache at
        once; further callers wait (bounded-queue backpressure).  The
        network gateway adds a *rejecting* bound on top (429 frames)
        for callers that must not queue.
    vectorized:
        Forwarded to the underlying :class:`RenderEngine`.
    batch_workers, batch_executor:
        Where a flushed micro-batch renders.  By default (``None``,
        ``"process"``) on the process-wide render pool of
        :func:`repro.engine.render_in_pool`, one worker per CPU, shared
        with every other service in the process; ``batch_workers=1`` or
        ``batch_executor="thread"`` renders serially on the flush thread
        instead.  Any ``batch_workers > 1`` also means the shared pool,
        whose size is the CPU count.
    policy:
        Optional :class:`repro.serve.policy.AdaptiveBatchPolicy`.  When
        given, the service measures every request's end-to-end latency,
        feeds the policy's observation window, and applies the knobs
        each :meth:`~AdaptiveBatchPolicy.adapt` step returns to its
        micro-batcher — the slow timescale of the two-timescale loop.
    tracer:
        Optional :class:`repro.trace.Tracer`.  When enabled, every
        request emits structured spans (``queue``/``cache``/``batch``/
        ``render``) carrying the request's trace id, scene fingerprint,
        request class, batch id and frame sha prefix.  Defaults to the
        shared :data:`~repro.trace.NULL_TRACER` — one branch per
        would-be span and no other cost.  Tracing never changes served
        bytes (test-asserted).
    """

    def __init__(
        self,
        renderer,
        *,
        cache: "SharedRenderCache | None" = None,
        max_batch_size: int = 8,
        max_wait: float = 0.002,
        max_pending: int = 32,
        vectorized: bool = True,
        batch_workers: "int | None" = None,
        batch_executor: str = "process",
        policy=None,
        tracer=None,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be positive")
        if batch_workers is not None and batch_workers < 1:
            raise ValueError("batch_workers must be positive")
        if batch_executor not in ("process", "thread"):
            raise ValueError(
                f"batch_executor must be 'process' or 'thread', got "
                f"{batch_executor!r}"
            )
        self.renderer = renderer
        self.engine = RenderEngine(renderer, vectorized=vectorized)
        self.cache = cache
        self.max_pending = max_pending
        self.batch_workers = batch_workers
        self.batch_executor = batch_executor
        self._pooled = batch_executor == "process" and batch_workers != 1
        self.policy = policy
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = ServiceStats()
        self._batcher = MicroBatcher(
            self._render_batch, max_batch_size=max_batch_size, max_wait=max_wait
        )
        if policy is not None:
            policy.bind(max_batch_size, max_wait)
        self._inflight: "dict[tuple, _Inflight]" = {}
        self._sem: "asyncio.Semaphore | None" = None
        self._sem_loop: "asyncio.AbstractEventLoop | None" = None
        # Batches for different scenes may execute on different worker
        # threads; counter updates need a real lock, not the GIL.
        self._stats_lock = threading.Lock()

    @property
    def batch_stats(self):
        """The scheduler's :class:`repro.serve.scheduler.BatchStats`."""
        return self._batcher.stats

    @property
    def queue_depth(self) -> int:
        """Requests pending in micro-batch lanes right now."""
        return self._batcher.depth

    def stats_dict(self) -> "dict[str, float]":
        """Service + scheduler counters flattened for reporting.

        Includes the *live* batching knobs (``batch_size`` /
        ``max_wait``), which an attached adaptive policy may have moved
        from their configured values.
        """
        batch = self._batcher.stats
        counters = {
            "requests": self.stats.requests,
            "streams": self.stats.streams,
            "cache_hits": self.stats.cache_hits,
            "coalesced": self.stats.coalesced,
            "engine_renders": self.stats.engine_renders,
            "batches": batch.batches,
            "mean_batch": round(batch.mean_batch, 2),
            "max_batch": batch.max_batch,
            "cancelled": batch.cancelled,
            "batch_size": self._batcher.max_batch_size,
            "max_wait": self._batcher.max_wait,
            # A nested dict: the cluster router's numeric-sum
            # aggregation skips it and merges it class-wise instead.
            "class_requests": dict(self.stats.class_requests),
        }
        if self.policy is not None:
            counters["adaptations"] = len(self.policy.adaptations)
        return counters

    # -- internals ------------------------------------------------------
    def _render_batch(self, key, items) -> "list[RenderResult]":
        """Flush-thread batch execution: one engine batch per flush.

        ``items`` all share the lane's scene.  Their frames render on
        the process-wide render pool (or serially on this thread, see
        ``batch_workers``), and each finished frame is published to the
        shared cache before the results fan back out to the waiters.
        With tracing on, each item's lane wait becomes a ``batch`` span
        and its engine work a ``render`` span (batch id, occupancy,
        frame sha prefix, rendering pid); neither touches the rendered
        bytes.
        """
        cloud = items[0][0]
        cameras = [item[1] for item in items]
        tracer = self.tracer
        batch_start = tracer.now() if tracer.enabled else 0.0
        if self._pooled:
            workers, rendered = zip(
                *render_in_pool(
                    self.renderer, self.engine.vectorized, cloud, cameras
                )
            )
        else:
            rendered = self.engine.render_trajectory(cloud, cameras).results
            workers = [os.getpid()] * len(cameras)
        with self._stats_lock:
            self.stats.engine_renders += len(cameras)
        # Wire-ready from here on: whatever the cache, a trace span and
        # the FRAME encoder need of a frame (bytes, digest, stats JSON)
        # is computed once and travels with the result.
        results = [wire_result(result) for result in rendered]
        if self.cache is not None:
            for camera, result in zip(cameras, results):
                self.cache.put(cloud, camera, self.renderer, result)
        if tracer.enabled:
            self._trace_batch(key, items, results, workers, batch_start)
        return results

    def _trace_batch(
        self, key, items, results, workers, batch_start: float
    ) -> None:
        """Emit per-item ``batch``/``render`` spans for one flushed batch."""
        tracer = self.tracer
        batch_end = tracer.now()
        batch_id = tracer.new_batch_id()
        occupancy = len(items)
        tracer.metrics.observe("batch_occupancy", occupancy)
        for item, result, worker in zip(items, results, workers):
            ctx = item[2] if len(item) > 2 else None
            if ctx is None:
                continue
            trace_id, request_class, submitted = ctx
            camera = item[1]
            common = {
                "batch": batch_id,
                "occupancy": occupancy,
                "scene": key,
            }
            tracer.record(
                "batch",
                trace=trace_id,
                start=submitted,
                end=batch_start,
                attrs=common,
            )
            tracer.record(
                "render",
                trace=trace_id,
                start=batch_start,
                end=batch_end,
                attrs={
                    **common,
                    "class": request_class,
                    "sha": result.digest[:12],
                    "camera": encode_camera(camera),
                    "worker": worker,
                },
            )

    def _admission(self) -> asyncio.Semaphore:
        """The ``max_pending`` semaphore, rebound to the current loop.

        Bound lazily so one service instance can serve several
        consecutive ``asyncio.run()`` lifetimes (tests, CLI).
        """
        loop = asyncio.get_running_loop()
        if self._sem is None or self._sem_loop is not loop:
            self._sem = asyncio.Semaphore(self.max_pending)
            self._sem_loop = loop
        return self._sem

    async def _render_uncached(
        self, cloud: GaussianCloud, camera: Camera, ctx=None
    ) -> RenderResult:
        """Submit a cache-missed view to its scene's batching lane.

        ``ctx`` is the item's trace context — ``(trace_id, class,
        submit_timestamp)`` or ``None`` when untraced — carried through
        the batcher so :meth:`_trace_batch` can attribute the lane wait
        and the engine render to the right trace.
        """
        lane = cloud_fingerprint(cloud)
        return await self._batcher.submit(lane, (cloud, camera, ctx))

    def apply_batch_knobs(self, max_batch_size: int, max_wait: float) -> None:
        """Retune the micro-batcher live (the adaptive policy's lever).

        Takes effect from the next flush decision — pending lanes keep
        their already-armed timers.
        """
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        if max_wait < 0:
            raise ValueError("max_wait must be non-negative")
        self._batcher.max_batch_size = int(max_batch_size)
        self._batcher.max_wait = float(max_wait)

    def _observe_latency(self, elapsed_s: float) -> None:
        """Feed one request latency to the policy; adapt on window edges.

        Runs on the event loop (single-threaded), so the observe/adapt
        pair needs no locking.
        """
        if self.policy is not None and self.policy.observe(elapsed_s):
            self.apply_batch_knobs(*self.policy.adapt())

    # -- the request API ------------------------------------------------
    async def render_frame(
        self,
        cloud: GaussianCloud,
        camera: Camera,
        *,
        request_class: "str | None" = None,
        deadline: "float | None" = None,
        trace: "str | None" = None,
    ) -> RenderResult:
        """Resolve one view, bit-identical to ``RenderEngine.render``.

        With an attached policy the request's end-to-end latency
        (admission wait included — that is what a client experiences) is
        recorded as one fast-timescale observation.  ``request_class``
        is accounting only — the render path is identical for every
        class (admission decisions happen in the gateway, above).

        ``deadline`` is a request budget (:mod:`repro.serve.protocol`);
        past it the wait (admission queue, micro-batch flush, engine
        render) ends in :class:`asyncio.TimeoutError`, and the
        last-waiter cancellation machinery reclaims any work nobody
        else shares.  ``None`` is exactly the pre-deadline behaviour.

        ``trace`` names the trace this request's spans belong to; with
        an enabled tracer and no id given, the service starts a fresh
        trace.  Tracing observes only — the returned bytes are
        identical either way.
        """
        self.stats.count_class(request_class)
        work = protocol.within(
            deadline,
            self._render_frame(
                cloud, camera, request_class=request_class, trace=trace
            ),
            "before the frame was ready",
        )
        try:
            if self.policy is None:
                return await work
            loop = asyncio.get_running_loop()
            start = loop.time()
            result = await work
        except ProtocolError as exc:  # the budget ran out
            raise asyncio.TimeoutError(str(exc)) from None
        self._observe_latency(loop.time() - start)
        return result

    async def _render_frame(
        self,
        cloud: GaussianCloud,
        camera: Camera,
        *,
        request_class: "str | None" = None,
        trace: "str | None" = None,
    ) -> RenderResult:
        """The unmeasured request path (dedup, cache, batcher)."""
        self.stats.requests += 1
        tracer = self.tracer
        if tracer.enabled:
            trace = trace or tracer.new_trace_id()
            queue_span = tracer.span(
                "queue", trace=trace, attrs={"class": request_class}
            )
        else:
            queue_span = None
        async with self._admission():
            if queue_span is not None:
                # The queue stage is the admission-slot wait: time spent
                # behind max_pending before any per-view work starts.
                queue_span.finish()
            loop = asyncio.get_running_loop()
            key = render_key(cloud, camera, self.renderer)
            # In-flight dedup is checked before the cache: joining a
            # pending render is correct regardless of cache state (the
            # batch publishes before the future resolves), and it keeps
            # the hot coalescing path free of cross-process cache IPC.
            entry = self._inflight.get(key)
            if entry is None and self.cache is not None:
                cache_span = tracer.span("cache", trace=trace)
                # A frame this process has loaded before is a dict
                # lookup away; only its first read of a key pays the
                # executor hop and the manager round trips.
                hit = self.cache.lookup(cloud, camera, self.renderer)
                if hit is not None:
                    cache_span.set("local", True)
                else:
                    hit = await loop.run_in_executor(
                        None, self.cache.get, cloud, camera, self.renderer
                    )
                if hit is not None:
                    self.stats.cache_hits += 1
                    cache_span.set("hit", True)
                    cache_span.finish()
                    return hit
                cache_span.set("hit", False)
                cache_span.finish()
                # Another request may have started this view's render
                # while we were on the executor hop.
                entry = self._inflight.get(key)
            if entry is None:
                ctx = (
                    (trace, request_class, tracer.now())
                    if tracer.enabled
                    else None
                )
                task = asyncio.ensure_future(
                    self._render_uncached(cloud, camera, ctx)
                )
                entry = self._inflight[key] = _Inflight(task)
                task.add_done_callback(
                    lambda _t, _key=key: self._inflight.pop(_key, None)
                )
            else:
                self.stats.coalesced += 1
                if tracer.enabled:
                    tracer.event(
                        "cache", trace=trace, attrs={"coalesced": True}
                    )

            entry.waiters += 1
            try:
                # Shield: one waiter's cancellation must not kill the
                # render other waiters (or a stream) are still expecting.
                return await asyncio.shield(entry.task)
            except asyncio.CancelledError:
                if entry.waiters == 1 and not entry.task.done():
                    # Last waiter gone: drop the entry from the index
                    # *synchronously* (not via the done callback) so a
                    # request arriving before the task settles starts a
                    # fresh render instead of joining a dying one and
                    # inheriting its spurious CancelledError.
                    if self._inflight.get(key) is entry:
                        self._inflight.pop(key)
                    entry.task.cancel()
                raise
            finally:
                entry.waiters -= 1

    async def stream_trajectory(
        self,
        cloud: GaussianCloud,
        cameras: "list[Camera] | tuple[Camera, ...]",
        *,
        prefetch: "int | None" = None,
        request_class: "str | None" = None,
        deadline: "float | None" = None,
        trace: "str | None" = None,
    ):
        """Stream a trajectory's frames in order, as they complete.

        An async generator yielding ``(index, RenderResult)``.  At most
        ``prefetch`` frames are in flight at once (default: twice the
        batch size) — the consumer's pace is the stream's pace, which is
        what bounds the service's queue under slow clients.  Closing the
        generator early cancels every outstanding frame request.
        ``request_class`` counts the stream once (not per frame) in the
        per-class request stats.  ``deadline`` (the budget of the
        *whole* stream) bounds every frame wait: past it the generator
        raises :class:`asyncio.TimeoutError` and its ``finally`` drops
        all outstanding work, as for an early close.  ``trace`` stamps
        every frame's spans with one shared trace id (a stream is one
        journey); with an enabled tracer and no id given, the stream
        starts a fresh trace.
        """
        cameras = list(cameras)
        if prefetch is None:
            prefetch = max(2 * self._batcher.max_batch_size, 1)
        if prefetch < 1:
            raise ValueError("prefetch must be positive")
        self.stats.streams += 1
        self.stats.count_class(request_class)
        if self.tracer.enabled:
            trace = trace or self.tracer.new_trace_id()
            # The stream-open event carries the class once; per-frame
            # calls stay class-less so the per-class request counters
            # keep counting streams once, not per frame.  Trace readers
            # resolve a render span's class from its trace.
            self.tracer.event(
                "stream",
                trace=trace,
                attrs={"class": request_class, "frames": len(cameras)},
            )

        tasks: "dict[int, asyncio.Task]" = {}
        next_submit = 0
        try:
            for index in range(len(cameras)):
                while next_submit < len(cameras) and next_submit - index < prefetch:
                    tasks[next_submit] = asyncio.ensure_future(
                        self.render_frame(
                            cloud, cameras[next_submit], trace=trace
                        )
                    )
                    next_submit += 1
                # Past the budget the frame task is cancelled; the
                # finally below settles it.
                try:
                    result = await protocol.within(
                        deadline, tasks[index], "in the stream"
                    )
                except ProtocolError as exc:
                    raise asyncio.TimeoutError(str(exc)) from None
                del tasks[index]
                yield index, result
        finally:
            for task in tasks.values():
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks.values(), return_exceptions=True)

    async def render_trajectory(
        self,
        cloud: GaussianCloud,
        cameras: "list[Camera] | tuple[Camera, ...]",
        *,
        prefetch: "int | None" = None,
    ) -> "list[RenderResult]":
        """Collect a whole streamed trajectory (convenience wrapper)."""
        results: "list[RenderResult]" = []
        async for _, result in self.stream_trajectory(
            cloud, cameras, prefetch=prefetch
        ):
            results.append(result)
        return results

    # -- lifecycle ------------------------------------------------------
    async def close(self) -> None:
        """Flush pending batches and settle in-flight work.

        The render pool is process-wide and outlives the service.
        """
        await self._batcher.drain()

    async def __aenter__(self) -> "RenderService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
