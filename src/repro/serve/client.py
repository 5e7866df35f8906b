"""Clients: the gateway protocol clients and the load generator.

Two kinds of client live here:

* **Gateway clients** — :class:`AsyncGatewayClient` speaks the
  :mod:`repro.serve.protocol` wire format against a
  :class:`repro.serve.gateway.RenderGateway` (or a cluster router).  It
  exposes the same request surface as the in-process
  :class:`RenderService` (``render_frame`` / ``stream_trajectory`` /
  ``stats_dict``), so the load generator below drives an in-process
  service and a remote gateway through one code path.
  :class:`GatewayClient` is a blocking facade over it (a private event
  loop on one thread), and :class:`GatewayClientPool` pools it.
* **The load generator** — :func:`run_clients` fans ``N`` streaming
  clients out concurrently (optionally with overlapping trajectories,
  the serving sweet spot) and reports wall time, throughput and the
  service's batching/caching counters; :func:`naive_render_seconds`
  times the same request load rendered one request at a time with no
  sharing, the baseline the ``serve_throughput`` /
  ``gateway_throughput`` benchmarks divide by.
"""

from __future__ import annotations

import asyncio
import inspect
import itertools
import random
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.engine import RenderEngine
from repro.gaussians.camera import Camera
from repro.gaussians.cloud import GaussianCloud, cloud_fingerprint
from repro.raster.renderer import RenderResult
from repro.serve import protocol
from repro.serve.auth import resolve_auth_token
from repro.serve.protocol import ErrorCode, Frame, MessageType, ProtocolError


class GatewayError(RuntimeError):
    """An ERROR frame from the gateway, surfaced to the caller.

    ``code`` is the :class:`repro.serve.protocol.ErrorCode` value; a 429
    (:attr:`ErrorCode.REJECTED`) means admission control turned the
    request away — back off and retry, no sooner than the server's
    ``retry_after_ms`` hint when it sent one.
    """

    def __init__(
        self,
        code: int,
        message: str,
        *,
        retry_after_ms: "int | None" = None,
        draining: bool = False,
    ) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message
        self.retry_after_ms = retry_after_ms
        #: True when a 503 came from a *draining* server (it is healthy
        #: and finishing in-flight work; honour ``retry_after_ms`` and
        #: come back after its restart).
        self.draining = draining


def _error_from_frame(frame: Frame) -> GatewayError:
    """Translate one ERROR frame into the exception the caller sees."""
    return GatewayError(
        int(frame.header.get("code", ErrorCode.INTERNAL)),
        str(frame.header.get("message", "gateway error")),
        retry_after_ms=frame.header.get("retry_after_ms"),
        draining=bool(frame.header.get("draining", False)),
    )


def _checked_result_frame(frame: Frame) -> "tuple[int, int, RenderResult]":
    """Decode a FRAME after verifying its optional checksum.

    A mismatch is surfaced as a *retryable* 503: the bytes on this
    connection lied once, so the frame must be re-fetched — the
    serving stack never silently yields corrupt pixels.
    """
    try:
        protocol.verify_frame_checksum(frame)
    except ProtocolError as exc:
        raise GatewayError(
            int(ErrorCode.SHUTTING_DOWN), f"corrupt frame received: {exc}"
        ) from exc
    return protocol.decode_result_frame(frame)


def _frame_meta(frame: Frame) -> dict:
    """Serving metadata riding a FRAME header (absent fields omitted).

    ``backend`` is the id of the node whose engine rendered the frame —
    across a router, the *actual* server after any failover, not the
    one first routed to; ``trace`` is the echoed request trace id;
    ``sha256`` the blob digest.
    """
    meta = {}
    for key in ("backend", "trace", "sha256"):
        value = frame.header.get(key)
        if value is not None:
            meta[key] = value
    return meta


def _gateway_error(exc: ProtocolError) -> GatewayError:
    """A failed handshake or a spent budget, as the caller sees it."""
    return GatewayError(int(exc.code), str(exc))


#: Read-ahead bound of an :class:`AsyncGatewayClient` connection: its
#: :class:`~repro.serve.protocol.FrameReader` stops reading the socket
#: past this many bytes of frames the client has not taken yet.
READ_LIMIT = protocol.READ_LIMIT


class AsyncGatewayClient:
    """Asyncio protocol client for a :class:`RenderGateway`.

    Mirrors the :class:`RenderService` request surface —
    ``render_frame``, ``stream_trajectory``, ``stats_dict`` — so it
    drops into :func:`run_clients` unchanged, but every frame crosses a
    real TCP socket.  One connection multiplexes any number of
    concurrent requests: a background reader task routes incoming
    frames to their requests by ``request_id``.

    Scenes are pushed once per connection: ``render_frame`` /
    ``stream_trajectory`` fingerprint their cloud and register it with
    the gateway only if this connection has not done so already (the
    gateway additionally dedups server-side by content fingerprint).

    Usage::

        client = await AsyncGatewayClient.connect("127.0.0.1", port)
        async for index, frame in client.stream_trajectory(cloud, cameras):
            ...
        await client.close()
    """

    def __init__(
        self, host: str, port: int, *, auth_token: "str | None" = None
    ) -> None:
        self.host = host
        self.port = port
        self.auth_token = resolve_auth_token(auth_token)
        self.hello: "dict" = {}
        self._reader: "protocol.FrameReader | None" = None
        self._writer: "asyncio.StreamWriter | None" = None
        self._read_task: "asyncio.Task | None" = None
        self._wlock = asyncio.Lock()
        self._control_lock = asyncio.Lock()
        self._control: "asyncio.Queue" = asyncio.Queue()
        self._queues: "dict[int, asyncio.Queue]" = {}
        self._ids = itertools.count(1)
        self._scene_ids: "dict[str, str]" = {}
        self._conn_exc: "Exception | None" = None
        self._closed = False

    @classmethod
    async def connect(
        cls, host: str, port: int, *, auth_token: "str | None" = None
    ) -> "AsyncGatewayClient":
        """Open a connection, consume HELLO (+ AUTH), start the router.

        With ``auth_token`` (or the environment knob, see
        :func:`repro.serve.auth.resolve_auth_token`) the token is sent
        as the first frame; connecting tokenless to a server whose
        HELLO demands auth fails fast with a 401 :class:`GatewayError`
        instead of dying on the first real request.
        """
        client = cls(host, port, auth_token=auth_token)
        client._reader, client._writer = await protocol.open_frame_connection(
            host, port
        )
        try:
            client.hello = await protocol.client_hello(
                client._reader, client._writer, client.auth_token
            )
        except ProtocolError as exc:
            client._writer.close()
            raise _gateway_error(exc) from exc
        except BaseException:  # a connect abandoned by a timeout
            client._writer.close()
            raise
        client._read_task = asyncio.ensure_future(client._read_loop())
        return client

    async def _read_loop(self) -> None:
        """Route incoming frames to their requests until EOF/failure."""
        assert self._reader is not None
        try:
            while True:
                frame = await protocol.read_frame(self._reader)
                if frame is None:
                    break
                if frame.type is MessageType.BYE:
                    # A draining server said goodbye after our in-flight
                    # work finished; treat it as a clean EOF (waiters,
                    # if any raced in, see "connection lost" and retry
                    # elsewhere).
                    break
                request_id = frame.header.get("request_id")
                queue = self._queues.get(request_id)
                if queue is not None:
                    queue.put_nowait(frame)
                elif request_id is None and frame.type in (
                    MessageType.SCENE_OK,
                    MessageType.STATS_OK,
                    MessageType.METRICS_OK,
                    MessageType.ERROR,
                ):
                    # Control replies carry no request id (a null-id
                    # ERROR is connection-scoped).  A frame *with* an id
                    # but no queue — including a late ERROR for a stream
                    # we abandoned — must not poison the control queue.
                    self._control.put_nowait(frame)
                # Anything else is a stale frame for a request we
                # abandoned (cancelled stream): drop it.
        except (ProtocolError, ConnectionError, OSError) as exc:
            self._conn_exc = exc
        finally:
            # Wake every waiter; None means "connection is gone".
            for queue in self._queues.values():
                queue.put_nowait(None)
            self._control.put_nowait(None)

    async def _send(self, payload: bytes) -> None:
        """Write one frame atomically."""
        if self._writer is None or self._closed:
            raise GatewayError(
                int(ErrorCode.SHUTTING_DOWN), "client is closed"
            )
        async with self._wlock:
            self._writer.write(payload)
            await self._writer.drain()

    def _lost(self) -> GatewayError:
        """The error to raise when the connection died under a waiter."""
        detail = f": {self._conn_exc}" if self._conn_exc else ""
        return GatewayError(
            int(ErrorCode.SHUTTING_DOWN), f"gateway connection lost{detail}"
        )

    def _raise_if_error(self, frame: "Frame | None") -> Frame:
        """Translate ERROR frames / lost connections into exceptions."""
        if frame is None:
            raise self._lost()
        if frame.type is MessageType.ERROR:
            raise _error_from_frame(frame)
        return frame

    async def _control_roundtrip(
        self, payload: bytes, expected: MessageType
    ) -> Frame:
        """Send one control frame and await its (serialised) answer."""
        async with self._control_lock:
            await self._send(payload)
            frame = self._raise_if_error(await self._control.get())
            if frame.type is not expected:
                raise GatewayError(
                    int(ErrorCode.BAD_REQUEST),
                    f"expected {expected.name}, got {frame.type.name}",
                )
            return frame

    async def ensure_scene(self, cloud: GaussianCloud) -> str:
        """Register ``cloud`` with the gateway once; return its scene id."""
        fingerprint = cloud_fingerprint(cloud)
        scene_id = self._scene_ids.get(fingerprint)
        if scene_id is not None:
            return scene_id
        header, blob = protocol.encode_cloud(cloud)
        frame = await self._control_roundtrip(
            protocol.encode_frame(MessageType.SCENE, header, blob),
            MessageType.SCENE_OK,
        )
        scene_id = frame.header["scene_id"]
        self._scene_ids[fingerprint] = scene_id
        return scene_id

    async def _issue(
        self,
        message_type: MessageType,
        cloud: GaussianCloud,
        fields: dict,
        request_class: "str | None",
        deadline_ms: "float | None",
        trace: "str | None",
    ) -> "tuple[int, asyncio.Queue, float | None]":
        """Push the scene (once), then send one RENDER or STREAM.

        Returns the request id, its frame queue and its budget, minted
        here.  The budget bounds the scene push: a push it cuts short (a
        504) runs on under the control lock, so its SCENE_OK never
        answers a later round trip.  ``class`` / ``deadline_ms`` /
        ``trace`` are left off the header when ``None`` — the shape
        pre-class, pre-deadline clients send (servers read the absences
        as ``bulk`` and "no deadline"); ``trace`` is the client-minted
        id that stitches the request's spans across every traced node.
        """
        deadline = protocol.deadline_from_ms(deadline_ms)
        try:
            scene_id = await protocol.within(
                deadline, self.ensure_scene(cloud), "pushing the scene",
                shield=True,
            )
        except ProtocolError as exc:
            raise _gateway_error(exc) from None
        request_id = next(self._ids)
        header = {"request_id": request_id, "scene_id": scene_id, **fields}
        if request_class is not None:
            header["class"] = request_class
        if deadline_ms is not None:
            header["deadline_ms"] = protocol.wire_ms(deadline_ms)
        if trace is not None:
            header["trace"] = trace
        queue = self._queues[request_id] = asyncio.Queue()
        try:
            await self._send(protocol.encode_frame(message_type, header))
        except BaseException:
            del self._queues[request_id]
            raise
        return request_id, queue, deadline

    async def render_frame(
        self,
        cloud: GaussianCloud,
        camera: Camera,
        *,
        request_class: "str | None" = None,
        deadline_ms: "float | None" = None,
        trace: "str | None" = None,
        with_meta: bool = False,
    ):
        """One-shot remote render, bit-identical to a direct render.

        ``request_class`` names the admission class (``interactive`` |
        ``bulk`` | ``prefetch``); ``None`` omits the wire field, which
        the gateway treats as ``bulk``.  ``deadline_ms`` ships the
        remaining wall-clock budget on the wire (the server answers a
        504 ERROR past it) *and* bounds the local waits — the scene
        push and the frame: if not even the 504 arrives in time (a
        stalled link), the call raises a 504 :class:`GatewayError`
        itself, after a best-effort CANCEL once the request was sent.
        ``trace`` rides the request so traced servers stitch their
        spans under it; ``with_meta=True`` returns ``(result, meta)``
        where ``meta`` carries the serving ``backend`` id (and the
        echoed ``trace``/``sha256``) from the FRAME header.
        """
        request_id, queue, deadline = await self._issue(
            MessageType.RENDER, cloud,
            {"camera": protocol.encode_camera(camera)},
            request_class, deadline_ms, trace,
        )
        try:
            frame = self._raise_if_error(
                await self._await_frame(queue, deadline, request_id)
            )
            _, _, result = _checked_result_frame(frame)
            return (result, _frame_meta(frame)) if with_meta else result
        finally:
            self._queues.pop(request_id, None)

    async def _await_frame(
        self,
        queue: "asyncio.Queue",
        deadline: "float | None",
        request_id: int,
    ) -> "Frame | None":
        """One queue read, bounded by the request's budget (if any);
        past it, a best-effort CANCEL and a 504."""
        try:
            return await protocol.within(
                deadline, queue.get(), "waiting for the server"
            )
        except ProtocolError as exc:
            await self._cancel(request_id)
            raise _gateway_error(exc) from None

    async def _cancel(self, request_id: int) -> None:
        """Best-effort CANCEL: the server drops the request's work."""
        try:
            await self._send(
                protocol.encode_frame(
                    MessageType.CANCEL, {"request_id": request_id}
                )
            )
        except (GatewayError, ConnectionError, OSError):
            pass

    async def stream_trajectory(
        self,
        cloud: GaussianCloud,
        cameras: "list[Camera] | tuple[Camera, ...]",
        *,
        prefetch: "int | None" = None,
        request_class: "str | None" = None,
        deadline_ms: "float | None" = None,
        trace: "str | None" = None,
        with_meta: bool = False,
    ):
        """Stream a trajectory's frames in order over the socket.

        An async generator yielding ``(index, RenderResult)``, the same
        shape as :meth:`RenderService.stream_trajectory` (``prefetch``
        is accepted for signature compatibility; the server's stream
        prefetch and the socket's flow control bound what is in
        flight).  ``request_class`` names the admission class for the
        whole stream; ``deadline_ms`` the wall-clock budget for the
        *whole* stream (see :meth:`render_frame` — enforced server-side
        and on every local frame wait).  ``trace`` rides the whole
        stream; ``with_meta=True`` yields ``(index, result, meta)``
        with each frame's serving ``backend`` id — across a router, a
        mid-stream failover shows up as the ``backend`` value changing
        between consecutive frames.  Closing the generator early sends
        a best-effort CANCEL so the server drops the remaining frames.
        """
        del prefetch  # server-side knob; kept for API compatibility
        request_id, queue, deadline = await self._issue(
            MessageType.STREAM, cloud,
            {"cameras": [protocol.encode_camera(camera) for camera in cameras]},
            request_class, deadline_ms, trace,
        )
        complete = False
        try:
            while True:
                frame = self._raise_if_error(
                    await self._await_frame(queue, deadline, request_id)
                )
                if frame.type is MessageType.END:
                    complete = True
                    return
                _, index, result = _checked_result_frame(frame)
                if with_meta:
                    yield index, result, _frame_meta(frame)
                else:
                    yield index, result
        finally:
            self._queues.pop(request_id, None)
            if not complete and not self._closed:
                await self._cancel(request_id)

    async def stats_dict(self) -> "dict":
        """The server's counters: the service dict + a ``gateway`` entry.

        Awaitable (it is a wire round trip) — :func:`run_clients`
        detects that and awaits.
        """
        frame = await self._control_roundtrip(
            protocol.encode_frame(MessageType.STATS), MessageType.STATS_OK
        )
        stats = dict(frame.header.get("service", {}))
        stats["gateway"] = frame.header.get("gateway", {})
        return stats

    async def metrics_dict(self) -> "dict":
        """The server's ``/metrics`` document over the wire (METRICS →
        METRICS_OK): live gauges plus the tracer registry snapshot."""
        frame = await self._control_roundtrip(
            protocol.encode_frame(MessageType.METRICS),
            MessageType.METRICS_OK,
        )
        return dict(frame.header)

    async def close(self) -> None:
        """Send BYE (best effort) and tear the connection down."""
        if self._closed:
            return
        self._closed = True
        if self._writer is not None:
            try:
                async with self._wlock:
                    self._writer.write(
                        protocol.encode_frame(MessageType.BYE)
                    )
                    await self._writer.drain()
            except (ConnectionError, OSError):
                pass
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if self._read_task is not None:
            self._read_task.cancel()
            await asyncio.gather(self._read_task, return_exceptions=True)

    async def __aenter__(self) -> "AsyncGatewayClient":
        if self._reader is None:
            connected = await type(self).connect(
                self.host, self.port, auth_token=self.auth_token
            )
            self.__dict__.update(connected.__dict__)
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


class GatewayClient:
    """Blocking facade over :class:`AsyncGatewayClient` for scripts.

    One private event loop runs on one daemon thread, with one
    :class:`AsyncGatewayClient` connected on it; each call blocks until
    it has finished there.  ``timeout`` bounds the connect, each call
    and each streamed frame: past it the call is cancelled and raises
    :class:`TimeoutError`.  It is a hang guard, not a request budget:
    ``deadline_ms`` acts as on the async client, a 504 past it.
    Use it as a context manager, or call :meth:`close` when done.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: "float | None" = 60.0,
        auth_token: "str | None" = None,
    ) -> None:
        self.timeout = timeout
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="GatewayClient", daemon=True
        )
        self._thread.start()
        try:
            self._client = self._call(
                AsyncGatewayClient.connect(host, port, auth_token=auth_token)
            )
        except BaseException:
            self._stop_loop()
            raise
        self.hello = self._client.hello

    def _call(self, awaitable):
        """Run ``awaitable`` on the loop, bounded by ``timeout`` there, so
        a call that timed out has finished cancelling when it raises."""
        coro = asyncio.wait_for(awaitable, self.timeout)
        if self._loop.is_closed():
            coro.close()
            raise GatewayError(int(ErrorCode.SHUTTING_DOWN), "client is closed")
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def ensure_scene(self, cloud: GaussianCloud) -> str:
        """Register ``cloud`` with the gateway once; return its scene id."""
        return self._call(self._client.ensure_scene(cloud))

    def render_frame(
        self,
        cloud: GaussianCloud,
        camera: Camera,
        *,
        request_class: "str | None" = None,
        deadline_ms: "float | None" = None,
        trace: "str | None" = None,
        with_meta: bool = False,
    ):
        """One-shot render, as :meth:`AsyncGatewayClient.render_frame`."""
        return self._call(
            self._client.render_frame(
                cloud,
                camera,
                request_class=request_class,
                deadline_ms=deadline_ms,
                trace=trace,
                with_meta=with_meta,
            )
        )

    def stream_trajectory(
        self,
        cloud: GaussianCloud,
        cameras: "list[Camera] | tuple[Camera, ...]",
        *,
        request_class: "str | None" = None,
        deadline_ms: "float | None" = None,
        trace: "str | None" = None,
        with_meta: bool = False,
    ):
        """Generator of ``(index, RenderResult)`` streamed in order; closing
        it early sends a best-effort CANCEL, as the async client does."""
        frames = self._client.stream_trajectory(
            cloud,
            cameras,
            request_class=request_class,
            deadline_ms=deadline_ms,
            trace=trace,
            with_meta=with_meta,
        )
        try:
            while (item := self._call(anext(frames, None))) is not None:
                yield item
        finally:
            if not self._loop.is_closed():
                self._call(frames.aclose())

    def stats_dict(self) -> "dict":
        """The server's counters: the service dict + a ``gateway`` entry."""
        return self._call(self._client.stats_dict())

    def close(self) -> None:
        """Send BYE, close the connection, stop the loop, join its thread."""
        if self._loop.is_closed():
            return
        try:
            self._call(self._client.close())
        finally:
            self._stop_loop()

    def _stop_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._loop.close()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class GatewayClientPool:
    """Pooled gateway connections with retry-on-markdown.

    A fixed-size pool of :class:`AsyncGatewayClient` connections to one
    endpoint (a gateway or a cluster router), leased round-robin so
    concurrent requests spread across sockets, with bounded retries for
    the transient failures a clustered deployment surfaces:

    * **503** — the peer is shutting down, the connection died, or (from
      the router) a scene's replicas are all marked down; the pool drops
      the dead connection, reconnects, and retries.
    * **429** — admission control said back off; the pool sleeps a
      *jittered* exponential backoff (``backoff`` doubling per
      consecutive attempt up to ``backoff_cap``, scaled by a random
      factor in [0.5, 1.5)) and retries on the same connection.  When
      the 429 carried a ``retry_after_ms`` hint the sleep is floored by
      it — a fleet of pools rejected together does not come back
      together and re-overload a shedding gateway.

    :meth:`stream_trajectory` resumes an interrupted stream from the
    first undelivered frame — frames already yielded are never repeated,
    and a retry re-requests only the remaining cameras (the same suffix
    shape the cluster router uses for backend failover).  Any delivered
    frame resets the retry budget, so a long stream may survive several
    markdowns while a hard-down endpoint still fails after ``retries``
    consecutive fruitless attempts.

    The request surface mirrors :class:`AsyncGatewayClient`, so a pool
    drops into :func:`run_clients` unchanged.
    """

    #: Error codes worth retrying (everything else is the caller's bug).
    _RETRYABLE = (int(ErrorCode.SHUTTING_DOWN), int(ErrorCode.REJECTED))

    def __init__(
        self,
        host: str,
        port: int,
        *,
        size: int = 2,
        auth_token: "str | None" = None,
        retries: int = 3,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
        connect_timeout: float = 5.0,
    ) -> None:
        if size < 1:
            raise ValueError("size must be positive")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if backoff <= 0 or backoff_cap < backoff:
            raise ValueError("require 0 < backoff <= backoff_cap")
        self.host = host
        self.port = port
        self.size = size
        self.auth_token = resolve_auth_token(auth_token)
        self.retries = retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.connect_timeout = connect_timeout
        # Seedable in tests; shared across requests (no per-call state).
        self._rng = random.Random()
        self._slots: "list[AsyncGatewayClient | None]" = [None] * size
        self._next = 0
        # One lock per slot: reconnecting a dead slot (which can take
        # up to connect_timeout against a black-holed host) must not
        # stall requests leasing the other, healthy slots.
        self._locks = [asyncio.Lock() for _ in range(size)]
        self._closed = False

    @staticmethod
    def _dead(client: "AsyncGatewayClient | None") -> bool:
        """A slot needing (re)connection: never opened, closed, or EOF."""
        return (
            client is None
            or client._closed
            or (client._read_task is not None and client._read_task.done())
        )

    async def _lease(
        self, deadline: "float | None" = None
    ) -> AsyncGatewayClient:
        """The next connection, round-robin; reconnects dead slots.

        A connection failure surfaces as a 503 :class:`GatewayError` so
        the per-request retry loops treat "could not connect" exactly
        like "connection died mid-request".  A spent budget ends the
        wait in a 504; the reconnect runs on and fills the slot.
        """
        if self._closed:
            raise GatewayError(int(ErrorCode.SHUTTING_DOWN), "pool is closed")
        index = self._next % self.size
        self._next += 1
        try:
            return await protocol.within(
                deadline, self._connected(index), "connecting", shield=True
            )
        except ProtocolError as exc:
            raise _gateway_error(exc) from None

    async def _connected(self, index: int) -> AsyncGatewayClient:
        """Slot ``index``'s connection, reconnected when dead."""
        async with self._locks[index]:
            client = self._slots[index]
            if self._dead(client):
                try:
                    client = await asyncio.wait_for(
                        AsyncGatewayClient.connect(
                            self.host, self.port, auth_token=self.auth_token
                        ),
                        self.connect_timeout,
                    )
                except (
                    ConnectionError,
                    OSError,
                    asyncio.TimeoutError,
                ) as exc:
                    raise GatewayError(
                        int(ErrorCode.SHUTTING_DOWN),
                        f"cannot connect to {self.host}:{self.port}: {exc}",
                    ) from exc
                if self._closed:  # closed while this connect ran on
                    await client.close()
                    raise GatewayError(
                        int(ErrorCode.SHUTTING_DOWN), "pool is closed"
                    )
                self._slots[index] = client
        return client

    async def _retire(self, client: AsyncGatewayClient) -> None:
        """Drop a (probably dead) connection; its slot reconnects lazily."""
        for index, slot in enumerate(self._slots):
            if slot is client:
                self._slots[index] = None
        try:
            await client.close()
        except (ConnectionError, OSError):
            pass

    async def _handle_failure(
        self, exc, client, attempt: int, deadline: "float | None" = None
    ) -> None:
        """Shared retry bookkeeping: re-raise or back off and continue.

        Raw transport errors (a write on a connection that died before
        the read loop noticed) are normalised to 503 and always retire
        the connection.  A 503 *ERROR frame*, by contrast, arrived
        over a live socket — e.g. the router saying one scene has no
        replica — so the shared connection is retired only when it is
        actually dead; closing a healthy multiplexed connection would
        torpedo every other request on it.

        A request's ``deadline`` caps the *total* retry budget: a
        backoff sleep that would land past it is never taken — the pool
        raises 504 ``DEADLINE_EXCEEDED`` instead of delivering a late
        success.  The server's ``retry_after_ms`` floor still applies
        below the cap: whichever bites first wins.
        """
        if self._closed:
            # Permanent: never burn the retry budget on a closed pool.
            raise GatewayError(int(ErrorCode.SHUTTING_DOWN), "pool is closed")
        transport = not isinstance(exc, GatewayError)
        if transport:
            exc = GatewayError(
                int(ErrorCode.SHUTTING_DOWN), f"connection failed: {exc}"
            )
        if exc.code not in self._RETRYABLE or attempt >= self.retries:
            raise exc
        if client is not None and (transport or self._dead(client)):
            await self._retire(client)
        delay = self._retry_delay(attempt, exc.retry_after_ms)
        left_ms = protocol.deadline_remaining_ms(deadline)
        if left_ms is not None and delay * 1e3 >= left_ms:
            raise GatewayError(
                int(ErrorCode.DEADLINE_EXCEEDED),
                "deadline exceeded: retry backoff "
                f"({delay * 1e3:.0f}ms) would outlive the request deadline",
            ) from exc
        await asyncio.sleep(delay)

    def _retry_delay(
        self, attempt: int, retry_after_ms: "int | None"
    ) -> float:
        """Jittered exponential backoff floored by the server's hint.

        The exponential term is capped at ``backoff_cap`` and scaled by
        a uniform factor in [0.5, 1.5) so simultaneous rejects spread
        out; a ``retry_after_ms`` hint (a shedding gateway's explicit
        "stay away this long") only ever *lengthens* the sleep.
        """
        delay = min(self.backoff * (2**attempt), self.backoff_cap)
        delay *= 0.5 + self._rng.random()
        if retry_after_ms is not None:
            delay = max(delay, retry_after_ms / 1000.0)
        return delay

    async def render_frame(
        self,
        cloud: GaussianCloud,
        camera: Camera,
        *,
        request_class: "str | None" = None,
        deadline_ms: "float | None" = None,
        trace: "str | None" = None,
        with_meta: bool = False,
    ):
        """One-shot render with markdown/backpressure retries.

        ``deadline_ms`` caps the *total* wall clock across every attempt
        and backoff sleep; each attempt ships only the remaining budget.
        ``with_meta=True`` returns ``(result, meta)`` where ``meta``
        names the backend that actually served the frame — after a
        retry that may differ from the first backend tried.
        """
        deadline = protocol.deadline_from_ms(deadline_ms)
        return await self._retried(
            lambda client: client.render_frame(
                cloud,
                camera,
                request_class=request_class,
                deadline_ms=protocol.deadline_remaining_ms(deadline),
                trace=trace,
                with_meta=with_meta,
            ),
            deadline,
        )

    async def _retried(self, call, deadline: "float | None" = None):
        """``await call(client)`` on a leased connection, retried."""
        attempt = 0
        while True:
            client = None
            try:
                client = await self._lease(deadline)
                return await call(client)
            except (GatewayError, ConnectionError, OSError) as exc:
                await self._handle_failure(exc, client, attempt, deadline)
                attempt += 1

    async def stream_trajectory(
        self,
        cloud: GaussianCloud,
        cameras: "list[Camera] | tuple[Camera, ...]",
        *,
        prefetch: "int | None" = None,
        request_class: "str | None" = None,
        deadline_ms: "float | None" = None,
        trace: "str | None" = None,
        with_meta: bool = False,
    ):
        """Ordered stream with resume-from-first-undelivered on retry.

        ``deadline_ms`` spans the whole stream — retries and resumed
        suffixes share one budget, pinned when the call starts.
        ``with_meta=True`` yields ``(index, result, meta)``; across a
        mid-stream failover the ``backend`` meta value changes between
        consecutive frames, which is how callers observe who served
        what.
        """
        deadline = protocol.deadline_from_ms(deadline_ms)
        cameras = list(cameras)
        delivered = 0
        attempt = 0
        while delivered < len(cameras):
            client = None
            base = delivered
            try:
                client = await self._lease(deadline)
                async for item in client.stream_trajectory(
                    cloud,
                    cameras[base:],
                    prefetch=prefetch,
                    request_class=request_class,
                    deadline_ms=protocol.deadline_remaining_ms(deadline),
                    trace=trace,
                    with_meta=with_meta,
                ):
                    index = item[0]
                    delivered = base + index + 1
                    if with_meta:
                        yield base + index, item[1], item[2]
                    else:
                        yield base + index, item[1]
                return
            except (GatewayError, ConnectionError, OSError) as exc:
                if delivered > base:
                    attempt = 0  # progress restores the retry budget
                await self._handle_failure(exc, client, attempt, deadline)
                attempt += 1

    async def stats_dict(self) -> "dict":
        """The endpoint's counters (one retried control round trip)."""
        return await self._retried(lambda client: client.stats_dict())

    async def close(self) -> None:
        """Close every pooled connection."""
        self._closed = True
        clients = [c for c in self._slots if c is not None]
        self._slots = [None] * self.size
        for client in clients:
            await client.close()

    async def __aenter__(self) -> "GatewayClientPool":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


@dataclass
class LoadReport:
    """Outcome of one load-generation run.

    Attributes
    ----------
    num_clients:
        Concurrent streaming clients.
    frames:
        Frames streamed across all clients.
    wall_s:
        Wall time of the whole run.
    service:
        ``RenderService.stats_dict()`` snapshot after the run.
    images:
        Per-client streamed frames (``images[client][index]``), kept
        only when requested — verification needs them, benchmarks don't.
    """

    num_clients: int
    frames: int
    wall_s: float
    service: "dict[str, float]"
    images: "list[list[np.ndarray]] | None" = field(default=None, repr=False)

    @property
    def frames_per_s(self) -> float:
        """Aggregate streamed-frame throughput."""
        return self.frames / self.wall_s if self.wall_s > 0 else 0.0


async def _stream_client(
    service,
    cloud: GaussianCloud,
    cameras: "list[Camera]",
    keep_images: bool,
    request_class: "str | None" = None,
) -> "list[np.ndarray]":
    """One viewer session: stream a trajectory, optionally keep frames."""
    images: "list[np.ndarray]" = []
    kwargs = {} if request_class is None else {"request_class": request_class}
    async for index, result in service.stream_trajectory(
        cloud, cameras, **kwargs
    ):
        assert isinstance(result, RenderResult)
        if keep_images:
            images.append(result.image)
    return images


async def run_clients(
    service,
    cloud: GaussianCloud,
    trajectories: "list[list[Camera]]",
    *,
    keep_images: bool = False,
    request_class: "str | None" = None,
) -> LoadReport:
    """Stream every trajectory concurrently; one client per trajectory.

    ``service`` is anything with the streaming request surface — an
    in-process :class:`RenderService`, one :class:`AsyncGatewayClient`
    (all trajectories multiplexed over its single connection), or a
    *list* with one such object per trajectory (e.g. one gateway
    connection per client — the realistic network-load shape).  The
    report's counters come from the first service's ``stats_dict``,
    awaited when it is a wire round trip.  ``request_class`` tags every
    stream with one admission class (``None`` keeps the pre-class
    request shape for services that predate the knob).
    """
    services = (
        list(service) if isinstance(service, (list, tuple)) else [service]
    )
    if len(services) not in (1, len(trajectories)):
        raise ValueError(
            f"need one service or one per trajectory, got {len(services)} "
            f"for {len(trajectories)} trajectories"
        )
    if len(services) == 1:
        services = services * len(trajectories)
    start = time.perf_counter()
    images = await asyncio.gather(
        *(
            _stream_client(svc, cloud, cameras, keep_images, request_class)
            for svc, cameras in zip(services, trajectories)
        )
    )
    wall_s = time.perf_counter() - start
    stats = services[0].stats_dict()
    if inspect.isawaitable(stats):
        stats = await stats
    return LoadReport(
        num_clients=len(trajectories),
        frames=sum(len(cameras) for cameras in trajectories),
        wall_s=wall_s,
        service=stats,
        images=list(images) if keep_images else None,
    )


def naive_render_seconds(
    renderer,
    cloud: GaussianCloud,
    trajectories: "list[list[Camera]]",
    *,
    vectorized: bool = True,
) -> float:
    """Wall seconds to serve the same load one request at a time.

    Every client request goes through its own ``RenderEngine.render``
    call — no batching, no coalescing, no shared render cache — which is
    exactly what each request costs without a serving layer in front.
    """
    engine = RenderEngine(renderer, vectorized=vectorized)
    start = time.perf_counter()
    for cameras in trajectories:
        for camera in cameras:
            engine.render(cloud, camera)
    return time.perf_counter() - start
