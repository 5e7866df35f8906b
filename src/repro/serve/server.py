"""The wire server core: one connection path under both front ends.

:class:`WireServer` is everything the render gateway
(:class:`repro.serve.gateway.RenderGateway`) and the shard router
(:class:`repro.cluster.router.ShardRouter`) do the same way:

* **listeners** — the TCP protocol server and the HTTP/1.1 adapter
  (:meth:`~WireServer.start`, :meth:`~WireServer.start_http`);
* **the connection path** — HELLO, the optional shared-secret AUTH
  handshake, framed dispatch, CANCEL / STATS / METRICS, ERROR frames
  for malformed-but-framed messages (only a corrupt frame *boundary*
  closes a connection);
* **admission** — the one entry point to the JPAC-style
  :class:`~repro.serve.admission.AdmissionController` (request-id
  checks, class resolution, trace ids, the ``admission`` span, the
  deadline pinned on arrival, one ticket released when the serving task
  ends, the latency fed to the slow timescale);
* **deadline-bounded writes** — every frame write is bounded by
  ``write_timeout`` and the request's remaining budget, so a peer that
  stops reading costs a connection, never a wedged task;
* **drain and close** — the SIGTERM path: listeners close, new
  requests get a 503 carrying ``retry_after_ms`` and ``draining: true``,
  admitted work gets ``grace`` seconds, then a BYE and :meth:`close`.
  No frame is written after the BYE (:meth:`~WireServer._send` checks
  per frame), a BYE never queues behind a stalled peer's write, and
  ``close`` never waits on a peer that stopped reading;
* **the HTTP adapter's shared routes** — ``/healthz``, ``/stats``,
  ``/metrics``, ``/traces`` and the 404.

A subclass supplies what differs: its HELLO extras, its STATS and
healthz payloads and :meth:`metrics_dict`, SCENE handling, the
coroutine that fulfils an admitted request (render locally, or relay
to a backend) and its ``/render`` + ``/stream`` handling.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import json
import time
from urllib.parse import parse_qsl, urlsplit

from repro.serve import protocol
from repro.serve.admission import (
    AdmissionController,
    AdmissionRejected,
    AdmissionTicket,
)
from repro.serve.auth import resolve_auth_token, token_matches
from repro.serve.protocol import (
    ErrorCode,
    Frame,
    MessageType,
    ProtocolError,
    drain_within,
)
from repro.trace.tracer import NULL_TRACER

#: HTTP reason phrases for every status the serving stack emits.
HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


async def http_reply(
    writer: asyncio.StreamWriter,
    status: int,
    body,
    *,
    content_type: str = "application/json",
    timeout: "float | None" = None,
) -> None:
    """Write one full fixed-length HTTP/1.1 response and flush.

    ``timeout`` bounds the flush against a peer that stopped reading
    (:func:`~repro.serve.protocol.drain_within`).
    """
    if isinstance(body, (dict, list)):
        payload = (json.dumps(body, indent=2) + "\n").encode("utf-8")
    else:
        payload = body
    writer.write(
        (
            f"HTTP/1.1 {status} {HTTP_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
    )
    writer.write(payload)
    await drain_within(writer, timeout, "HTTP reply")


async def read_http_get(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> "str | None":
    """Read one HTTP/1.1 request head and return its GET target.

    Anything else — malformed head, timeout, non-GET method — is
    answered (400/405) here and reported as ``None``.
    """
    try:
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=10.0
        )
    except (
        asyncio.IncompleteReadError,
        asyncio.LimitOverrunError,
        asyncio.TimeoutError,
    ):
        await http_reply(writer, 400, {"error": "malformed HTTP request"})
        return None
    request_line = head.split(b"\r\n", 1)[0].decode("latin-1")
    parts = request_line.split()
    if len(parts) != 3 or parts[0] != "GET":
        await http_reply(writer, 405, {"error": "only GET is supported"})
        return None
    return parts[1]


async def authenticate_reader(
    reader: asyncio.StreamReader, auth_token: "str | None", role: str
) -> "tuple[bool, tuple | None]":
    """The server side of the AUTH handshake, transport-agnostic.

    Returns ``(ok, refusal)``: ``(True, None)`` to proceed,
    ``(False, None)`` for a clean pre-AUTH disconnect (no refusal to
    send), and ``(False, (code, message))`` when an ERROR should be
    sent before closing — a 401 for a wrong/missing token, or the
    underlying :class:`ProtocolError`'s code for a corrupt first
    frame.  Token comparison is constant-time (:func:`token_matches`).
    """
    if auth_token is None:
        return True, None
    try:
        frame = await protocol.read_frame(reader)
    except ProtocolError as exc:
        return False, (exc.code, str(exc))
    if frame is None:
        return False, None  # clean pre-AUTH disconnect: not a refusal
    if frame.type is not MessageType.AUTH or not token_matches(
        auth_token, frame.header.get("token")
    ):
        return False, (
            ErrorCode.UNAUTHORIZED,
            f"this {role} requires a shared-secret AUTH frame before "
            "any other message",
        )
    return True, None


class OldestFirstLock:
    """A write lock handed to the oldest waiting request first.

    ``acquire(order)`` takes a request's arrival number on its
    connection (``-1`` for replies that belong to no request).  The
    lowest waiting number gets the lock next, and a lower number may
    take a free lock ahead of a woken higher one.  So a stream whose
    next frame is ready keeps the connection, and younger streams on it
    follow in arrival order instead of taking turns frame by frame.  It
    is work-conserving: a stream that is waiting for a render holds
    nothing, and the streams behind it write meanwhile.
    """

    def __init__(self) -> None:
        self._held = False
        self._waiters: "list[tuple[int, int, asyncio.Future]]" = []
        self._tickets = itertools.count()
        self._woken: "int | None" = None  # a woken waiter's order

    def locked(self) -> bool:
        return self._held

    def _first_in_line(self, order: int) -> bool:
        waiters = self._waiters
        while waiters and waiters[0][2].done():
            heapq.heappop(waiters)
        return (not waiters or waiters[0][0] >= order) and (
            self._woken is None or self._woken >= order
        )

    async def acquire(self, order: int) -> None:
        while True:
            if not self._held and self._first_in_line(order):
                self._held = True
                return
            woken = asyncio.get_running_loop().create_future()
            heapq.heappush(self._waiters, (order, next(self._tickets), woken))
            if not self._held and self._woken is None:
                self._wake()  # free, but an older waiter goes first
            try:
                await woken
            except asyncio.CancelledError:
                if woken.done() and not woken.cancelled():
                    self._woken = None
                    if not self._held:
                        self._wake()  # pass the wake-up on
                raise
            self._woken = None

    def release(self) -> None:
        self._held = False
        self._wake()

    def _wake(self) -> None:
        """Wake the oldest waiter; it takes the lock if still first."""
        while self._waiters:
            order, _, woken = heapq.heappop(self._waiters)
            if not woken.done():
                woken.set_result(None)
                self._woken = order
                return


class _Connection:
    """Per-connection state: writer serialisation + live request tasks."""

    __slots__ = ("writer", "wlock", "tasks", "arrivals", "_arrival")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.wlock = OldestFirstLock()
        self.tasks: "dict[int, asyncio.Task]" = {}
        # request_id -> arrival number, the request's place in wlock.
        self.arrivals: "dict[int, int]" = {}
        self._arrival = itertools.count()

    def arrived(self, request_id: int) -> None:
        self.arrivals[request_id] = next(self._arrival)


class WireServer:
    """The protocol server both front ends share (see the module doc).

    ``stats`` is the subclass's counters dataclass; the core counts
    ``connections``, ``requests``, ``streams``, ``rejected``,
    ``errors``, ``cancelled_requests``, ``http_requests`` and
    ``auth_failures`` in it.  The keyword arguments mean what the
    subclasses document.
    """

    #: The server's name in refusals, drain messages and handshakes.
    role = "server"

    def __init__(
        self,
        stats,
        *,
        host: str,
        max_pending: int,
        admission: "AdmissionController | None",
        max_scenes: int,
        auth_token: "str | None",
        write_timeout: "float | None",
        tracer,
        node_id: str,
    ) -> None:
        if admission is None:
            if max_pending < 1:
                raise ValueError("max_pending must be positive")
            admission = AdmissionController(max_pending)
        if max_scenes < 1:
            raise ValueError("max_scenes must be positive")
        if write_timeout is not None and write_timeout <= 0:
            raise ValueError("write_timeout must be positive or None")
        self.host = host
        self.admission = admission
        self.max_pending = admission.capacity
        self.max_scenes = max_scenes
        self.auth_token = resolve_auth_token(auth_token)
        self.write_timeout = write_timeout
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.node_id = node_id
        self.stats = stats
        self._server: "asyncio.base_events.Server | None" = None
        self._http_server: "asyncio.base_events.Server | None" = None
        self._conn_tasks: "set[asyncio.Task]" = set()
        self._conns: "set[_Connection]" = set()
        self._closing = False
        self._draining = False
        self._drain_hint_ms: "int | None" = None

    # -- what a subclass supplies ----------------------------------------
    def _hello_extras(self) -> dict:
        """HELLO fields after ``version`` and ``max_pending``, in order."""
        raise NotImplementedError

    async def _stats_payload(self) -> dict:
        """The STATS_OK / ``/stats`` document."""
        raise NotImplementedError

    def _healthz(self) -> "tuple[int, dict]":
        """The ``/healthz`` status and body."""
        raise NotImplementedError

    def metrics_dict(self) -> dict:
        """The METRICS_OK / ``/metrics`` document."""
        raise NotImplementedError

    async def _on_scene(self, conn: _Connection, frame: Frame) -> None:
        """Handle SCENE; answer SCENE_OK or raise :class:`ProtocolError`."""
        raise NotImplementedError

    def _fulfil(
        self,
        conn: _Connection,
        request_id: int,
        frame: Frame,
        request_class: str,
        deadline: "float | None",
        trace: "str | None",
        client_trace: "str | None",
    ):
        """Validate an admitted RENDER/STREAM; return its serving coroutine.

        Called synchronously with the dispatch: a :class:`ProtocolError`
        raised here answers the request inline and returns the ticket.
        """
        raise NotImplementedError

    async def _http_fulfil(
        self,
        writer: asyncio.StreamWriter,
        path: str,
        target: str,
        query: "dict[str, str]",
    ) -> None:
        """Answer ``/render`` or ``/stream``."""
        raise NotImplementedError

    # -- admission -------------------------------------------------------
    @property
    def _pending(self) -> int:
        """Admitted-but-unanswered requests (the admission invariant).

        Delegates to the controller so the soak tests' invariant —
        pending returns to zero after any storm of rejects, cancels and
        disconnects — checks the same counter every admission path
        uses.
        """
        return self.admission.total_pending

    def _admit(
        self, request_class: "str | None", *, stream: bool
    ) -> AdmissionTicket:
        """The one admission guard for TCP and HTTP requests.

        Raises :class:`AdmissionRejected` (counted in
        ``stats.rejected``) or a 503 :class:`ProtocolError` during
        shutdown; on success counts the request and returns the ticket
        whose release returns the slot.  While *draining*, the 503
        carries a ``retry_after_ms`` hint (roughly the drain grace —
        the process restarts within it) and ``draining: true``, so
        client pools back off and routers re-place the work instead of
        treating it as dead.
        """
        if self._draining and not self._closing:
            raise ProtocolError(
                f"{self.role} is draining",
                code=ErrorCode.SHUTTING_DOWN,
                retry_after_ms=self._drain_hint_ms,
                draining=True,
            )
        if self._closing:
            raise ProtocolError(
                f"{self.role} is shutting down", code=ErrorCode.SHUTTING_DOWN
            )
        try:
            ticket = self.admission.admit(request_class)
        except AdmissionRejected:
            self.stats.rejected += 1
            raise
        self.stats.requests += 1
        if stream:
            self.stats.streams += 1
        return ticket

    def _observe(self, request_class: str, latency_s: float) -> None:
        """Feed the slow timescale; adapt when a window completes."""
        if self.admission.observe(request_class, latency_s):
            self.admission.adapt()

    def traces_dict(
        self, *, trace: "str | None" = None, limit: "int | None" = None
    ) -> dict:
        """The ``/traces`` snapshot: the collector ring grouped by id."""
        spans = self.tracer.spans(trace=trace, limit=limit)
        grouped: "dict[str, list[dict]]" = {}
        for span in spans:
            grouped.setdefault(span["trace"], []).append(span)
        return {"node": self.node_id, "traces": grouped}

    # -- lifecycle -------------------------------------------------------
    async def start(self, port: int = 0) -> None:
        """Start the TCP protocol listener (``port=0`` picks a free one)."""
        self._server = await asyncio.start_server(
            self._handle_conn, host=self.host, port=port
        )

    async def start_http(self, port: int = 0) -> None:
        """Start the HTTP/1.1 adapter (``port=0`` picks a free one)."""
        self._http_server = await asyncio.start_server(
            self._handle_http, host=self.host, port=port
        )

    @property
    def tcp_port(self) -> int:
        """The TCP listener's bound port (after :meth:`start`)."""
        assert self._server is not None, f"{self.role} not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def http_port(self) -> int:
        """The HTTP listener's bound port (after :meth:`start_http`)."""
        assert self._http_server is not None, "HTTP adapter not started"
        return self._http_server.sockets[0].getsockname()[1]

    def _listeners(self) -> "list[asyncio.base_events.Server]":
        return [s for s in (self._server, self._http_server) if s is not None]

    async def drain(
        self, grace: float = 30.0, *, retry_after_ms: "int | None" = None
    ) -> bool:
        """Graceful shutdown: finish in-flight work, then close.

        Drain mode (the SIGTERM path — see :mod:`repro.cluster.backend`
        and ``docs/robustness.md``):

        1. stop accepting — both listeners close, so restarts/load
           balancers route new connections elsewhere;
        2. refuse new requests on live connections with a 503 carrying
           ``retry_after_ms`` (default: the grace, rounded up — the
           replacement process is up within it) and ``draining: true``;
        3. wait up to ``grace`` seconds (``0`` is valid: no wait) for
           every admitted request — TCP and HTTP — to finish at its own
           pace;
        4. stop writing frames, send a best-effort BYE to surviving
           connections — skipping any whose peer has stopped reading,
           so the grace bounds the exit — and :meth:`close`.

        Returns ``True`` when all in-flight work finished within the
        grace (the clean-exit signal for process wrappers), ``False``
        when the grace expired and the remainder was cancelled.
        Idempotent with :meth:`close`: draining an already-closing
        server just closes it.
        """
        if grace < 0:
            raise ValueError("grace must be non-negative")
        self._draining = True
        if self._drain_hint_ms is None:
            self._drain_hint_ms = (
                int(retry_after_ms)
                if retry_after_ms is not None
                else max(1, int(grace * 1e3))
            )
        for server in self._listeners():
            server.close()
        deadline = time.monotonic() + grace
        while (
            not self._closing
            and self.admission.total_pending > 0
            and time.monotonic() < deadline
        ):
            await asyncio.sleep(0.02)
        drained = self.admission.total_pending == 0
        # From here on _send refuses every frame, so nothing follows
        # the BYE.  A held write lock is a flush waiting on a peer that
        # is not reading: a BYE queued behind it would wait out
        # write_timeout, not the grace.
        self._closing = True
        bye = protocol.encode_frame(MessageType.BYE, {"draining": True})
        for conn in self._conns:
            if not conn.wlock.locked() and not conn.writer.is_closing():
                conn.writer.write(bye)
        await self.close()
        return drained

    async def close(self) -> None:
        """Stop accepting, cancel in-flight connections, release ports.

        Abrupt by design: outstanding requests are cancelled (counted in
        ``stats.cancelled_requests``).  Clients wanting a clean shutdown
        finish their streams and send BYE first (or call :meth:`drain`
        server-side).
        """
        self._closing = True
        for server in self._listeners():
            server.close()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        for server in self._listeners():
            await server.wait_closed()

    async def __aenter__(self):
        if self._server is None:
            await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def _close_writer(self, writer: asyncio.StreamWriter) -> None:
        """Close one peer's socket; at shutdown, never wait on the peer.

        A peer that stopped reading leaves bytes in the transport, and
        a plain close waits for them to flush — forever, if it never
        reads again.  Once the server is closing those bytes are
        dropped instead.
        """
        writer.close()
        if self._closing and writer.transport.get_write_buffer_size():
            writer.transport.abort()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    # -- TCP protocol ----------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One protocol connection: dispatch frames until EOF or BYE."""
        self.stats.connections += 1
        conn = _Connection(writer)
        self._conns.add(conn)
        handler = asyncio.current_task()
        self._conn_tasks.add(handler)
        try:
            await self._send(
                conn,
                protocol.encode_frame(
                    MessageType.HELLO,
                    {
                        "version": protocol.PROTOCOL_VERSION,
                        "max_pending": self.max_pending,
                        **self._hello_extras(),
                    },
                ),
            )
            if not await self._authenticate(conn, reader):
                return
            while True:
                try:
                    frame = await protocol.read_frame(reader)
                except ProtocolError as exc:
                    self.stats.errors += 1
                    await self._send_error(conn, None, exc.code, str(exc))
                    if exc.fatal:
                        break
                    continue
                if frame is None or frame.type is MessageType.BYE:
                    break
                await self._dispatch(conn, frame)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass  # client went away; the finally block cleans up
        except asyncio.CancelledError:
            # Shutdown cancels connection handlers; finish the cleanup
            # below instead of propagating out of the server's
            # connection callback (asyncio would log it as unhandled).
            pass
        finally:
            self._conns.discard(conn)
            self._conn_tasks.discard(handler)
            for task in conn.tasks.values():
                if not task.done():
                    task.cancel()
                    self.stats.cancelled_requests += 1
            if conn.tasks:
                await asyncio.gather(
                    *conn.tasks.values(), return_exceptions=True
                )
            await self._close_writer(writer)

    async def _authenticate(
        self, conn: _Connection, reader: asyncio.StreamReader
    ) -> bool:
        """Enforce the AUTH handshake; True means proceed to dispatch.

        With no token configured this is a no-op (an unsolicited AUTH
        frame from a keyed client is accepted and ignored by
        :meth:`_dispatch`).  With a token, the first frame must be a
        matching AUTH: anything else answers an ERROR and closes the
        connection (:func:`authenticate_reader`).
        """
        ok, refusal = await authenticate_reader(
            reader, self.auth_token, self.role
        )
        if refusal is not None:
            code, message = refusal
            if code is ErrorCode.UNAUTHORIZED:
                self.stats.auth_failures += 1
            else:
                self.stats.errors += 1
            await self._send_error(conn, None, code, message)
        return ok

    async def _dispatch(self, conn: _Connection, frame: Frame) -> None:
        """Route one well-framed message; answer errors inline."""
        try:
            if frame.type is MessageType.SCENE:
                await self._on_scene(conn, frame)
            elif frame.type in (MessageType.RENDER, MessageType.STREAM):
                self._on_request(conn, frame)
            elif frame.type is MessageType.CANCEL:
                task = conn.tasks.get(frame.header.get("request_id"))
                if task is not None and not task.done():
                    task.cancel()
                    self.stats.cancelled_requests += 1
            elif frame.type is MessageType.AUTH:
                pass  # unsolicited token on an unkeyed server: ignore
            elif frame.type is MessageType.STATS:
                await self._send(
                    conn,
                    protocol.encode_frame(
                        MessageType.STATS_OK, await self._stats_payload()
                    ),
                )
            elif frame.type is MessageType.METRICS:
                await self._send(
                    conn,
                    protocol.encode_frame(
                        MessageType.METRICS_OK, self.metrics_dict()
                    ),
                )
            else:
                raise ProtocolError(
                    f"unexpected message type {frame.type.name} from a client"
                )
        except ProtocolError as exc:
            if exc.code is not ErrorCode.REJECTED:
                # 429s are accounted in stats.rejected, not as errors.
                self.stats.errors += 1
            await self._send_error(
                conn,
                frame.header.get("request_id"),
                exc.code,
                str(exc),
                retry_after_ms=exc.retry_after_ms,
                draining=exc.draining,
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # Defense in depth: an unexpected decode/dispatch failure is
            # this request's problem, not the connection's.
            self.stats.errors += 1
            await self._send_error(
                conn,
                frame.header.get("request_id"),
                ErrorCode.INTERNAL,
                f"internal dispatch failure: {exc}",
            )

    def _on_request(self, conn: _Connection, frame: Frame) -> None:
        """RENDER / STREAM: admit (or 429) and spawn the serving task."""
        header = frame.header
        request_id = header.get("request_id")
        if not isinstance(request_id, int):
            raise ProtocolError("request_id must be an integer")
        if request_id in conn.tasks:
            raise ProtocolError(f"request_id {request_id} is already in flight")
        request_class = self.admission.resolve(header.get("class"))
        # The requester's trace id (validated; None when absent).  Only
        # this id is ever echoed on the wire or forwarded downstream —
        # locally-minted ids stay local, so tracing cannot change
        # served bytes.
        client_trace = protocol.trace_from_header(header)
        tracer = self.tracer
        trace = client_trace
        if tracer.enabled and trace is None:
            trace = tracer.new_trace_id()
        admit_start = tracer.now() if tracer.enabled else 0.0
        # Admit *synchronously* with the dispatch — the very next frame
        # on any connection sees the updated pending count — and before
        # any decoding, so the reject path stays cheap under overload.
        admitted = False
        try:
            ticket = self._admit(
                request_class, stream=frame.type is MessageType.STREAM
            )
            admitted = True
        finally:
            if tracer.enabled:
                tracer.record(
                    "admission",
                    trace=trace,
                    start=admit_start,
                    end=tracer.now(),
                    attrs={"admitted": admitted, "class": request_class},
                )
        try:
            # Pin the deadline before any decoding: the budget is
            # relative to the request's *arrival*.
            deadline = protocol.deadline_from_header(header)
            task = asyncio.ensure_future(
                self._fulfil(
                    conn, request_id, frame, request_class, deadline,
                    trace, client_trace,
                )
            )
        except BaseException:
            ticket.release()
            raise
        conn.tasks[request_id] = task
        conn.arrived(request_id)
        task.add_done_callback(
            lambda _task: self._request_done(conn, request_id, ticket)
        )

    def _request_done(
        self, conn: _Connection, request_id: int, ticket: AdmissionTicket
    ) -> None:
        """Release one admission slot and drop the task bookkeeping."""
        ticket.release()
        conn.tasks.pop(request_id, None)
        conn.arrivals.pop(request_id, None)

    async def _send(
        self,
        conn: _Connection,
        *parts: "bytes | memoryview",
        deadline: "float | None" = None,
        request_id: "int | None" = None,
    ) -> None:
        """Write one frame atomically (streams interleave on one socket).

        ``parts`` are the frame's bytes in order: one buffer, or a head
        and a blob (:func:`~repro.serve.protocol.result_frame_parts`),
        which go to the transport without being joined.

        Frames of ``request_id`` wait for the connection's write lock in
        the request's arrival order (:class:`OldestFirstLock`); a frame
        of no request goes first.

        The flush is bounded by ``write_timeout`` (and, tighter, by the
        request's remaining ``deadline`` budget when given): a stalled
        reader becomes a :class:`ConnectionError` on *this* connection
        instead of a task wedged holding the write lock — and with it
        an admission slot — forever.  Once the server is closing no
        frame is written at all, whatever task was parked behind the
        lock when the BYE went out.
        """
        timeout = self.write_timeout
        if deadline is not None:
            left = protocol.deadline_remaining_ms(deadline) / 1e3
            timeout = left if timeout is None else min(timeout, left)
        await conn.wlock.acquire(conn.arrivals.get(request_id, -1))
        try:
            if self._closing:
                raise ConnectionError(f"{self.role} is closing")
            for part in parts:
                conn.writer.write(part)
            await drain_within(conn.writer, timeout, "frame write")
        finally:
            conn.wlock.release()

    async def _send_error(
        self,
        conn: _Connection,
        request_id: "int | None",
        code: ErrorCode,
        message: str,
        *,
        retry_after_ms: "int | None" = None,
        draining: bool = False,
    ) -> None:
        """Best-effort ERROR frame (the peer may already be gone)."""
        header = {
            "request_id": request_id,
            "code": int(code),
            "message": message,
        }
        if retry_after_ms is not None:
            header["retry_after_ms"] = int(retry_after_ms)
        if draining:
            header["draining"] = True
        try:
            await self._send(
                conn, protocol.encode_frame(MessageType.ERROR, header)
            )
        except (ConnectionError, OSError):
            pass

    # -- HTTP adapter ----------------------------------------------------
    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One HTTP/1.1 exchange (``Connection: close`` semantics).

        The handler registers itself with the server's task set so
        :meth:`close` cancels in-flight HTTP work too — otherwise a
        shutdown would leave detached renders or proxied streams
        running, and their admission slots held, until they happened
        to finish.
        """
        self.stats.http_requests += 1
        handler = asyncio.current_task()
        self._conn_tasks.add(handler)
        try:
            target = await read_http_get(reader, writer)
            if target is not None:
                await self._http_route(writer, target)
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            # Shutdown; admission tickets are context-managed and
            # already released by the time this propagates here.
            pass
        finally:
            self._conn_tasks.discard(handler)
            await self._close_writer(writer)

    async def _http_route(self, writer: asyncio.StreamWriter, target: str) -> None:
        """Dispatch one GET target to /healthz, /stats, /metrics,
        /traces, /render or /stream."""
        url = urlsplit(target)
        query = dict(parse_qsl(url.query))
        if url.path == "/healthz":
            await http_reply(writer, *self._healthz())
        elif url.path == "/stats":
            await http_reply(writer, 200, await self._stats_payload())
        elif url.path == "/metrics":
            await http_reply(writer, 200, self.metrics_dict())
        elif url.path == "/traces":
            try:
                limit = int(query["limit"]) if "limit" in query else None
            except ValueError:
                await http_reply(
                    writer, 400, {"error": "limit must be an integer"}
                )
                return
            await http_reply(
                writer,
                200,
                self.traces_dict(trace=query.get("trace"), limit=limit),
            )
        elif url.path in ("/render", "/stream"):
            await self._http_fulfil(writer, url.path, target, query)
        else:
            await http_reply(writer, 404, {"error": f"no route {url.path}"})
