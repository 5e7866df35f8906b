"""Cross-process sharing of *finished renders* via POSIX shared memory.

Complete :class:`repro.raster.renderer.RenderResult` frames — the
rendered image and its full :class:`repro.raster.stats.RenderStats` —
are stored in a :mod:`multiprocessing.shared_memory` segment with the
index held by a manager process, keyed on content fingerprints
``(cloud, camera, renderer configuration)``.

Any process — the asyncio render service, a gateway backend, a
``render_trajectory`` or ``run_multiview`` caller, the figure-sweep
harnesses — can therefore consume a frame another process already
rendered, and each ``(scene, view, renderer)`` configuration is
rendered **exactly once** across all of them.  (``render_trajectory``
looks hits up and publishes misses in the calling process; only the
misses travel to the render pool.)  A hit reconstructs the image as a
zero-copy read-only view over the shared pages (raw bytes,
bit-identical to the original render) and the stats via a pickle round
trip (exact for every counter, including floats).

A frame is stored *wire-ready*: beside the image and the pickled stats
the segment holds the stats' wire JSON, and the index entry the blob's
sha256, both computed once at ``put``.  A hit is a
:class:`repro.serve.protocol.WireResult` carrying them, so encoding it
as a FRAME hashes and serialises nothing; and each process memoises the
hits it has loaded, so a repeat hit costs no IPC at all
(:meth:`SharedRenderCache.lookup`).

Served results carry ``projected=None`` / ``assignment=None`` — the
same contract as frames returned from the render pool
(:func:`repro.engine.render_in_pool`): those arrays are per-frame
O(cloud) and no batch consumer reads them.  Consumers that need the
projection or assignment should render directly instead of going
through the cache.

The creating process owns the manager and the segments; call
:meth:`SharedRenderCache.close` (or use the cache as a context manager)
to unlink everything deterministically.  A :func:`weakref.finalize`
fallback unlinks the segments even when ``close()`` is never reached.
"""

from __future__ import annotations

import os
import pickle
import threading
import weakref
from collections import OrderedDict
from multiprocessing import Manager, resource_tracker, shared_memory

import numpy as np

from repro.experiments.cache import camera_key
from repro.gaussians.camera import Camera
from repro.gaussians.cloud import GaussianCloud, cloud_fingerprint
from repro.raster.renderer import RenderResult
from repro.serve.protocol import WireResult, wire_result
from repro.tiles.boundary import BoundaryMethod


def renderer_key(renderer) -> "tuple":
    """A hashable content identity for a renderer's full configuration.

    Two renderer instances of the same class with equal configuration
    produce the same key in any process — the renderer-side analogue of
    :func:`repro.experiments.cache.camera_key`.  Works for any renderer
    whose configuration lives in its instance attributes (all built-in
    renderers); enum values are normalised and non-primitive attributes
    fall back to ``repr``.
    """
    cls = type(renderer)
    parts: "list" = [f"{cls.__module__}.{cls.__qualname__}"]
    for name, value in sorted(vars(renderer).items()):
        if isinstance(value, BoundaryMethod):
            value = value.value
        elif not (
            value is None or isinstance(value, (bool, int, float, str, bytes))
        ):
            value = repr(value)
        parts.append((name, value))
    return tuple(parts)


def render_key(cloud: GaussianCloud, camera: Camera, renderer) -> "tuple":
    """The full cache key: cloud + camera + renderer content identities."""
    return (cloud_fingerprint(cloud), camera_key(camera), renderer_key(renderer))


def _load(segment: shared_memory.SharedMemory, entry: tuple) -> WireResult:
    """Rebuild a hit over a segment: zero-copy image and blob views,
    stats via a pickle round trip, digest and stats JSON as stored."""
    _, dtype_str, shape, image_end, pickle_end, json_end, digest = entry
    blob = segment.buf[:image_end]
    image = np.frombuffer(blob, dtype=np.dtype(dtype_str)).reshape(shape)
    image.flags.writeable = False
    hit = WireResult(
        image=image,
        stats=pickle.loads(segment.buf[image_end:pickle_end]),
        projected=None,
        assignment=None,
    )
    hit.blob = blob.toreadonly()
    hit.digest = digest
    hit.stats_json = str(segment.buf[pickle_end:json_end], "utf-8")
    return hit


#: Segment handles whose mappings are still viewed by live frames when
#: they are let go.  Holding them here keeps the mmap valid for those
#: views; the interpreter reclaims everything at exit (the segments
#: themselves are already unlinked).
_PINNED_SEGMENTS: "list[shared_memory.SharedMemory]" = []


def _release(segment: shared_memory.SharedMemory) -> None:
    """Close a segment handle, pinning it if frames still view it."""
    try:
        segment.close()
    except BufferError:
        _PINNED_SEGMENTS.append(segment)


def _teardown_owner(manager, index, order) -> None:
    """Owner-side teardown: unlink every segment, stop the manager.

    Every manager round trip is guarded: at interpreter exit the manager
    process may already be gone, in which case its own resource tracker
    reclaims the segments.
    """
    try:
        entries = list(index.values())
    except Exception:
        entries = []
    for entry in entries:
        try:
            segment = shared_memory.SharedMemory(name=entry[0])
        except (FileNotFoundError, OSError):
            continue
        try:
            segment.unlink()
        except (FileNotFoundError, OSError):
            pass
        _release(segment)
    try:
        index.clear()
        while len(order):
            order.pop()
    except Exception:
        pass
    if manager is not None:
        try:
            manager.shutdown()
        except Exception:
            pass


#: Every live memo, so a forked child can reset the ones it inherited.
_LIVE_MEMOS: "weakref.WeakSet[_Memo]" = weakref.WeakSet()


class _Memo:
    """One process's loaded hits: ``key -> (hit, segment handle)``.

    Least recently used first, bounded by ``max_entries``; a segment
    stays mapped exactly as long as its entry stays here (or a caller
    still holds the frame).  ``get``/``put`` run on executor threads
    while the service looks hits up on the loop thread, so every access
    takes ``lock``.
    """

    def __init__(self, max_entries: "int | None") -> None:
        self.max_entries = max_entries
        self.entries: "OrderedDict[tuple, tuple]" = OrderedDict()
        self.lock = threading.Lock()
        #: Hits served here and not yet folded into the shared counter.
        self.hits = 0
        #: Dropped segments whose frames a caller still holds; closing
        #: is retried whenever the memo next lets something go.
        self.lingering: "list[shared_memory.SharedMemory]" = []
        _LIVE_MEMOS.add(self)

    def after_fork(self) -> None:
        """In a forked child: the parent's unfolded hits are the
        parent's to report, and its lock may have been held mid-fork."""
        self.lock = threading.Lock()
        self.hits = 0

    def hit(self, key) -> "WireResult | None":
        with self.lock:
            found = self.entries.get(key)
            if found is None:
                return None
            self.entries.move_to_end(key)
            self.hits += 1
            return found[0]

    def take_hits(self) -> int:
        with self.lock:
            hits, self.hits = self.hits, 0
            return hits

    def remember(self, key, hit: WireResult, segment) -> WireResult:
        """Keep ``hit`` (the first one wins a race) and trim to size."""
        with self.lock:
            kept = self.entries.setdefault(key, (hit, segment))
            self.entries.move_to_end(key)
            dropped = [] if kept[1] is segment else [segment]
            while (
                self.max_entries is not None
                and len(self.entries) > self.max_entries
            ):
                dropped.append(self.entries.popitem(last=False)[1][1])
            self._close(dropped)
            return kept[0]

    def forget(self, key) -> "shared_memory.SharedMemory | None":
        """Drop one entry; its handle is the caller's to :meth:`release`."""
        with self.lock:
            found = self.entries.pop(key, None)
            return None if found is None else found[1]

    def release(self, segment: shared_memory.SharedMemory) -> None:
        with self.lock:
            self._close([segment])

    def _close(self, segments: list) -> None:
        """Close handles nothing views any more; keep the rest for later."""
        waiting = []
        for segment in self.lingering + segments:
            try:
                segment.close()
            except BufferError:
                waiting.append(segment)
        self.lingering = waiting

    def clear(self) -> None:
        """Drop every frame, then every handle (the frames view them)."""
        with self.lock:
            segments = [segment for _, segment in self.entries.values()]
            self.entries.clear()
            self._close(segments)
            for segment in self.lingering:
                _release(segment)  # still viewed by a caller: pin it
            self.lingering = []


def _reset_memos_after_fork() -> None:
    for memo in list(_LIVE_MEMOS):
        memo.after_fork()


os.register_at_fork(after_in_child=_reset_memos_after_fork)


def _teardown(memo: _Memo, owner_pid: int, manager, index, order) -> None:
    """The owner's ``close()`` and its gc / interpreter-exit fallback.

    ``self``-free so :func:`weakref.finalize` can hold it.  The memo
    goes first: its frames view the segments ``_teardown_owner`` is
    about to unlink and close.  A forked copy of the owner drops its
    own mappings and leaves the shared state to the real owner.
    """
    memo.clear()
    if os.getpid() == owner_pid:
        _teardown_owner(manager, index, order)


class SharedRenderCache:
    """A shared-memory cache of finished frames and their statistics.

    Parameters
    ----------
    max_entries:
        Bound on cached renders; the oldest entry (and its shared
        segment) is evicted first.  ``None`` (default) disables eviction
        — call :meth:`close` to release everything.  The same number
        bounds each process's memo of loaded hits (least recently used
        first), and with it the segments that process keeps mapped.

    Notes
    -----
    Instances are picklable: worker processes receive proxies to the
    same index, so a render one worker publishes is a hit everywhere.
    :meth:`stats` aggregates hit/miss/store counts across every process.

    A frame is made *wire-ready when it is stored*: one segment holds
    the image bytes, the pickled stats and the stats' wire JSON, and the
    index entry carries the blob's sha256.  A hit comes back as a
    :class:`~repro.serve.protocol.WireResult` with all of them filled
    in, and each process keeps the hits it has loaded in a memo in
    front of the manager index — a repeat hit is a dict lookup, no IPC
    (:meth:`lookup`).  Memo hits are counted locally and folded
    into the shared ``hits`` counter on this process's next manager
    round trip (a ``get`` that misses the memo, ``put``, ``stats()``,
    ``close()``), so a *remote* reader of :meth:`stats` may lag by the
    hits other processes have not folded yet; a process's own view is
    always exact.
    """

    def __init__(self, max_entries: "int | None" = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive or None")
        self.max_entries = max_entries
        # Start the resource tracker in the owning process so forked
        # workers inherit it and segments they create outlive them.
        resource_tracker.ensure_running()
        self._manager = Manager()
        self._index = self._manager.dict()
        self._order = self._manager.list()
        self._counters = self._manager.dict({"hits": 0, "misses": 0, "stores": 0})
        self._lock = self._manager.Lock()
        # Ownership is per process: a forked copy of this object must
        # not tear down what the creating process still serves.
        self._owner_pid: "int | None" = os.getpid()
        self._memo = _Memo(max_entries)
        self._closed = False
        self._finalizer = weakref.finalize(
            self,
            _teardown,
            self._memo,
            self._owner_pid,
            self._manager,
            self._index,
            self._order,
        )

    # -- pickling: workers get proxies, never the manager itself --------
    def __getstate__(self):
        return {
            "max_entries": self.max_entries,
            "_index": self._index,
            "_order": self._order,
            "_counters": self._counters,
            "_lock": self._lock,
        }

    def __setstate__(self, state) -> None:
        self.max_entries = state["max_entries"]
        self._index = state["_index"]
        self._order = state["_order"]
        self._counters = state["_counters"]
        self._lock = state["_lock"]
        self._manager = None
        self._owner_pid = None
        self._memo = _Memo(self.max_entries)
        self._closed = False
        self._finalizer = None

    # -- storage --------------------------------------------------------
    @staticmethod
    def _store(wire: WireResult) -> tuple:
        """Copy a result's wire-ready parts into one new segment.

        Layout: image bytes | stats pickle | stats wire JSON.  Returns
        the index entry — segment name first, then what a reader needs
        to slice the segment, then the blob digest.  The creating handle
        is closed again: a process maps what it *reads*, so a pure
        producer (a sweep worker, a gateway serving views nobody asks
        for twice) holds no frame resident.
        """
        blob = wire.blob
        stats_pickle = pickle.dumps(wire.stats, protocol=pickle.HIGHEST_PROTOCOL)
        stats_json = wire.stats_json.encode("utf-8")
        pickle_end = len(blob) + len(stats_pickle)
        json_end = pickle_end + len(stats_json)
        segment = shared_memory.SharedMemory(create=True, size=max(json_end, 1))
        segment.buf[: len(blob)] = blob
        segment.buf[len(blob) : pickle_end] = stats_pickle
        segment.buf[pickle_end:json_end] = stats_json
        segment.close()
        image = wire.image
        return (
            segment.name,
            image.dtype.str,
            image.shape,
            len(blob),
            pickle_end,
            json_end,
            wire.digest,
        )

    def _count(self, **deltas: int) -> None:
        """Bump shared counters, folding in this process's memo hits.

        Caller holds the manager lock.  One read and one write round
        trip, however many counters move.
        """
        deltas["hits"] = deltas.get("hits", 0) + self._memo.take_hits()
        moved = {name: delta for name, delta in deltas.items() if delta}
        if moved:
            counters = self._counters.copy()
            self._counters.update(
                {name: counters[name] + delta for name, delta in moved.items()}
            )

    # -- the cache API --------------------------------------------------
    def lookup(
        self, cloud: GaussianCloud, camera: Camera, renderer
    ) -> "RenderResult | None":
        """This process's memo only: a frame it has loaded before, or
        ``None``.  Never blocks on IPC — safe to call on an event loop.
        ``None`` says nothing about the shared index; ask :meth:`get`.
        """
        return self._memo.hit(render_key(cloud, camera, renderer))

    def get(
        self, cloud: GaussianCloud, camera: Camera, renderer
    ) -> "RenderResult | None":
        """The shared render for this configuration, or None on a miss."""
        key = render_key(cloud, camera, renderer)
        hit = self._memo.hit(key)
        if hit is not None:
            return hit
        entry = self._index.get(key)
        if entry is not None:
            try:
                segment = shared_memory.SharedMemory(name=entry[0])
            except FileNotFoundError:
                segment = None
            if segment is not None:
                hit = self._memo.remember(key, _load(segment, entry), segment)
                with self._lock:
                    self._count(hits=1)
                return hit
        with self._lock:
            self._count(misses=1)
        return None

    def put(
        self,
        cloud: GaussianCloud,
        camera: Camera,
        renderer,
        result: RenderResult,
    ) -> None:
        """Publish a finished render for every process to reuse."""
        key = render_key(cloud, camera, renderer)
        entry = self._store(wire_result(result))
        with self._lock:
            if key in self._index:
                # Another process raced us to the same render; both
                # payloads are identical bytes (deterministic renderer),
                # so keep theirs and drop our segment.
                self._drop(entry[0])
                return
            self._count(stores=1)
            if self.max_entries is not None and len(self._order) >= self.max_entries:
                oldest = self._order.pop(0)
                stale = self._index.pop(oldest, None)
                if stale is not None:
                    self._drop(stale[0], self._memo.forget(oldest))
            self._index[key] = entry
            self._order.append(key)

    def _drop(self, name: str, segment=None) -> None:
        """Unlink a segment by name — through this process's handle when
        it had one — and let the mapping go once nothing views it."""
        if segment is None:
            try:
                segment = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                return
        try:
            segment.unlink()
        except FileNotFoundError:
            pass
        self._memo.release(segment)

    def render(self, engine, cloud: GaussianCloud, camera: Camera) -> RenderResult:
        """Serve from the cache, or render through ``engine`` and publish.

        ``engine`` is a :class:`repro.engine.RenderEngine` (duck-typed:
        anything with ``renderer`` and ``render(cloud, camera)``).  The
        returned frame is bit-identical to ``engine.render`` either way.
        """
        cached = self.get(cloud, camera, engine.renderer)
        if cached is not None:
            return cached
        result = engine.render(cloud, camera)
        self.put(cloud, camera, engine.renderer, result)
        return result

    def __len__(self) -> int:
        return len(self._index)

    def stats(self) -> "dict[str, int]":
        """Cache-wide hit/miss/store counts across every process."""
        with self._lock:
            self._count()
            return self._counters.copy()

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Unlink every segment and shut the manager down (owner only).

        Either way this process's memo goes first — its frames view the
        segments, and a viewed mapping cannot be closed — and its
        unfolded memo hits reach the shared counter.
        """
        if self._closed:
            return
        self._closed = True
        if self._owner_pid == os.getpid():
            self._finalizer()
        else:
            try:
                with self._lock:
                    self._count()
            except (OSError, EOFError):
                pass  # the owner (and its manager) went first
            self._memo.clear()

    def __enter__(self) -> "SharedRenderCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
