"""The network render gateway: TCP + HTTP front ends over the service.

PR 3's :class:`repro.serve.service.RenderService` is in-process asyncio;
this module puts a socket in front of it:

* :class:`RenderGateway` — an ``asyncio.start_server`` TCP server
  speaking the :mod:`repro.serve.protocol` frame protocol: clients
  register scenes (or use pre-registered named ones), request one-shot
  frames or ordered trajectory streams, and receive bit-identical
  rendered frames back.  Frame payloads cross the wire as raw bytes, so
  the paper's losslessness guarantee survives the network hop
  (test-asserted).
* a thin **HTTP/1.1 adapter** (:meth:`RenderGateway.start_http`) for
  requests against named scenes, so ``curl`` works without a protocol
  client: ``GET /render?scene=NAME&view=I`` returns one frame as a PPM
  image (or JSON with a SHA-256 of the raw float image for bit-identity
  checks), ``GET /stream?scene=NAME&frames=K`` streams a multi-frame
  chunked response (NDJSON frame records or concatenated PPMs) as the
  frames complete, plus ``/healthz`` and ``/stats``.

With ``auth_token`` set (or :data:`repro.serve.auth.AUTH_TOKEN_ENV` in
the environment) the TCP protocol requires every connection's first
frame after HELLO to be an AUTH message carrying the shared token
(constant-time compare; wrong or missing token gets a 401 ERROR and the
connection closes).  The HTTP adapter stays unauthenticated — bind it
to loopback or keep it behind the cluster router.

Load behaviour (the JPAC-shaped split — fast admission decisions, slow
feedback):

* **Class-based admission control** — every RENDER/STREAM request
  carries an optional ``class`` field (``interactive`` | ``bulk`` |
  ``prefetch``; absent means ``bulk``) and passes through one
  :class:`repro.serve.admission.AdmissionController`: weighted quotas
  keep bulk load out of the headroom reserved for interactive bursts,
  and under overload the controller sheds lowest-priority classes
  first.  Refusals are *immediate* — a 429 ERROR frame (HTTP: a 429
  response) with a ``retry_after_ms`` hint instead of queueing — so
  the queue stays bounded and clients get an explicit back-off signal.
  (The service's own ``max_pending`` below it still bounds what
  admitted work may queue.)
* **Adaptive batching** — attach an
  :class:`repro.serve.policy.AdaptiveBatchPolicy` to the *service* and
  the measured latency of every gateway-admitted request feeds the
  fast timescale that retunes ``max_batch_size`` / ``max_wait``; the
  admission controller's per-class p95 windows are the slow timescale
  above it.

Failure semantics (all test-asserted):

* a client disconnecting mid-stream cancels its outstanding service
  requests (the last-waiter cancellation machinery drops unshared
  pending work);
* a malformed-but-framed message gets a 400 ERROR frame and the
  connection lives on; only a corrupt frame *boundary* closes it;
* a render failure answers that request with a 500 ERROR frame and
  leaves every other request untouched;
* a request carrying ``deadline_ms`` is answered within its budget or
  gets a 504 ERROR — the deadline bounds the service wait and the
  socket write both;
* a peer that stops reading trips the per-connection write deadline
  (``write_timeout``) instead of wedging a serving task forever;
* :meth:`RenderGateway.drain` (the SIGTERM path) finishes in-flight
  work within a grace period while refusing new requests with
  503 + ``retry_after_ms``.

See ``docs/serving.md`` for the wire-protocol spec and worked
examples, and ``docs/robustness.md`` for the failure model.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import asdict, dataclass
from urllib.parse import parse_qsl, urlsplit

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.cloud import GaussianCloud
from repro.experiments.shm_cache import cloud_fingerprint
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
from repro.serve.service import RenderService
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

    Shared by the gateway's HTTP adapter and the cluster router's HTTP
    front end, so error shapes stay identical across both.  ``timeout``
    bounds the flush against a peer that stopped reading
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


async def http_stream_head(
    writer: asyncio.StreamWriter,
    content_type: str,
    *,
    timeout: "float | None" = None,
) -> None:
    """Start a 200 chunked response (no Content-Length; chunks follow)."""
    writer.write(
        (
            "HTTP/1.1 200 OK\r\n"
            f"Content-Type: {content_type}\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
    )
    await drain_within(writer, timeout, "HTTP stream head")


async def http_stream_chunk(
    writer: asyncio.StreamWriter,
    data: bytes,
    *,
    timeout: "float | None" = None,
) -> None:
    """Write one HTTP/1.1 chunk and flush (flow control for the stream)."""
    writer.write(b"%x\r\n" % len(data) + data + b"\r\n")
    await drain_within(writer, timeout, "HTTP stream chunk")


async def http_stream_end(
    writer: asyncio.StreamWriter, *, timeout: "float | None" = None
) -> None:
    """Terminate a chunked response (the zero-length chunk)."""
    writer.write(b"0\r\n\r\n")
    await drain_within(writer, timeout, "HTTP stream end")


async def read_http_get(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> "str | None":
    """Read one HTTP/1.1 request head and return its GET target.

    Anything else — malformed head, timeout, non-GET method — is
    answered (400/405) here and reported as ``None``.  Shared by the
    gateway's HTTP adapter and the cluster router's HTTP front end.
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
    Shared by the gateway and the cluster router so the handshake
    cannot drift between them.
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


@dataclass
class GatewayStats:
    """Gateway-level counters (service counters live in the service).

    Attributes
    ----------
    connections:
        TCP protocol connections accepted.
    requests:
        RENDER + STREAM requests admitted (admission happens before
        request decoding, so this includes admitted requests that later
        fail validation or rendering).
    streams:
        STREAM requests admitted (subset of ``requests``).
    frames_sent:
        FRAME messages written to sockets.
    rejected:
        Requests refused with a 429 ERROR (admission control).
    errors:
        ERROR frames sent for malformed or failed requests (429s not
        included — rejects are accounted separately).
    cancelled_requests:
        Admitted requests abandoned before completion (client
        disconnect, CANCEL frames, gateway shutdown).
    scenes_registered:
        Scenes accepted over the wire (named scenes not included).
    http_requests:
        HTTP requests handled (any status).
    auth_failures:
        Connections refused for a missing or wrong shared-secret token.
    """

    connections: int = 0
    requests: int = 0
    streams: int = 0
    frames_sent: int = 0
    rejected: int = 0
    errors: int = 0
    cancelled_requests: int = 0
    scenes_registered: int = 0
    http_requests: int = 0
    auth_failures: int = 0


class _Connection:
    """Per-connection state: writer serialisation + live request tasks."""

    __slots__ = ("writer", "wlock", "tasks")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.wlock = asyncio.Lock()
        self.tasks: "dict[int, asyncio.Task]" = {}


class RenderGateway:
    """TCP (+ optional HTTP) front end over a :class:`RenderService`.

    Parameters
    ----------
    service:
        The render service this gateway exposes.  The gateway does not
        own it — callers close the service after the gateway.
    host:
        Bind address for both listeners (default loopback).
    max_pending:
        Admission bound: requests admitted but unanswered across all
        connections.  At the bound, new requests are rejected with a
        429 ERROR frame instead of queueing.  Ignored when an explicit
        ``admission`` controller is passed (its capacity wins).
    admission:
        A pre-configured
        :class:`repro.serve.admission.AdmissionController` (class
        roster, quota weights, SLO targets).  ``None`` builds a stock
        controller of capacity ``max_pending`` with no SLO targets —
        quota behaviour only, no shedding.
    max_scenes:
        Bound on scenes registered over the wire (each pins its cloud
        in gateway memory); exceeding it rejects the SCENE message.
    auth_token:
        Shared-secret token for the TCP protocol.  ``None`` (default)
        falls back to :data:`repro.serve.auth.AUTH_TOKEN_ENV`; an empty
        string disables auth explicitly.  When set, every connection's
        first frame after HELLO must be a matching AUTH message.
    write_timeout:
        Per-connection write deadline (seconds): any frame or HTTP
        chunk whose socket flush stalls longer than this — a peer that
        stopped reading — aborts that connection instead of wedging the
        serving task forever.  ``None`` disables the bound.
    tracer:
        Optional :class:`repro.trace.Tracer`.  When given (and enabled)
        the gateway emits ``admission`` and ``wire`` spans per request
        and serves ``/metrics`` + ``/traces`` from the tracer's
        registry and ring; the default :data:`NULL_TRACER` keeps the
        hot path at one branch per would-be span.  Tracing never
        changes served bytes (test-asserted): a trace id appears on a
        response only when the *requester* sent one.
    node_id:
        Stable id stamped as ``backend`` on every FRAME this gateway
        serves (cluster backends pass their backend id), and reported
        by ``/metrics``.  Stamped whether or not tracing is on.
    """

    def __init__(
        self,
        service: RenderService,
        *,
        host: str = "127.0.0.1",
        max_pending: int = 64,
        admission: "AdmissionController | None" = None,
        max_scenes: int = 8,
        auth_token: "str | None" = None,
        write_timeout: "float | None" = 30.0,
        tracer=None,
        node_id: str = "gateway",
    ) -> None:
        if admission is None:
            if max_pending < 1:
                raise ValueError("max_pending must be positive")
            admission = AdmissionController(max_pending)
        if max_scenes < 1:
            raise ValueError("max_scenes must be positive")
        self.service = service
        self.host = host
        self.admission = admission
        self.max_pending = admission.capacity
        self.max_scenes = max_scenes
        if write_timeout is not None and write_timeout <= 0:
            raise ValueError("write_timeout must be positive or None")
        self.auth_token = resolve_auth_token(auth_token)
        self.write_timeout = write_timeout
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.node_id = node_id
        self.stats = GatewayStats()
        self._scenes: "dict[str, GaussianCloud]" = {}
        self._orbits: "dict[str, list[Camera]]" = {}
        self._wire_scenes = 0
        self._server: "asyncio.base_events.Server | None" = None
        self._http_server: "asyncio.base_events.Server | None" = None
        self._conn_tasks: "set[asyncio.Task]" = set()
        self._conns: "set[_Connection]" = set()
        self._closing = False
        self._draining = False
        self._drain_hint_ms: "int | None" = None

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
        """The one admission guard for TCP and both HTTP handlers.

        Raises :class:`AdmissionRejected` (counted in
        ``stats.rejected`` — identically for TCP and HTTP 429s) or a
        503 :class:`ProtocolError` during shutdown; on success counts
        the request and returns the ticket whose release returns the
        slot.  While *draining*, the 503 carries a ``retry_after_ms``
        hint (roughly the drain grace — the process restarts within
        it) and ``draining: true``, so client pools back off and
        routers re-place the work instead of treating it as dead.
        """
        if self._draining and not self._closing:
            raise ProtocolError(
                "gateway is draining",
                code=ErrorCode.SHUTTING_DOWN,
                retry_after_ms=self._drain_hint_ms,
                draining=True,
            )
        if self._closing:
            raise ProtocolError(
                "gateway is shutting down", code=ErrorCode.SHUTTING_DOWN
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

    def metrics_dict(self) -> dict:
        """The METRICS / ``/metrics`` snapshot: one flat JSON document.

        Combines the live queue/admission gauges (sampled now — they
        exist whether or not tracing is on) with the tracer registry's
        counters and per-stage latency histograms (empty until spans
        flow).  The same document answers the METRICS wire message, so
        a protocol client and a curl see identical numbers.
        """
        return {
            "node": self.node_id,
            "queue_depth": self.service.queue_depth,
            "pending": self.admission.total_pending,
            "admission": self.admission.stats_dict(),
            **self.tracer.metrics.snapshot(),
        }

    def traces_dict(
        self, *, trace: "str | None" = None, limit: "int | None" = None
    ) -> dict:
        """The ``/traces`` snapshot: the collector ring grouped by id."""
        spans = self.tracer.spans(trace=trace, limit=limit)
        grouped: "dict[str, list[dict]]" = {}
        for span in spans:
            grouped.setdefault(span["trace"], []).append(span)
        return {"node": self.node_id, "traces": grouped}

    # -- scene registry --------------------------------------------------
    def register_scene(
        self,
        name: str,
        cloud: GaussianCloud,
        cameras: "list[Camera] | tuple[Camera, ...] | None" = None,
    ) -> str:
        """Pre-register a named scene (and optional camera trajectory).

        TCP clients may then reference it by ``name`` (or by its content
        fingerprint) without pushing the cloud over the wire, and the
        HTTP adapter's ``/render?scene=name&view=i`` resolves camera
        ``i`` of ``cameras``.  Returns the cloud's fingerprint.
        """
        fingerprint = cloud_fingerprint(cloud)
        self._scenes[name] = cloud
        self._scenes[fingerprint] = cloud
        if cameras is not None:
            self._orbits[name] = list(cameras)
        return fingerprint

    def _resolve_scene(self, scene_id) -> GaussianCloud:
        """Look a scene id (name or fingerprint) up, or raise 404."""
        cloud = self._scenes.get(scene_id) if isinstance(scene_id, str) else None
        if cloud is None:
            raise ProtocolError(
                f"unknown scene {scene_id!r}", code=ErrorCode.UNKNOWN_SCENE
            )
        return cloud

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
        assert self._server is not None, "gateway not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def http_port(self) -> int:
        """The HTTP listener's bound port (after :meth:`start_http`)."""
        assert self._http_server is not None, "HTTP adapter not started"
        return self._http_server.sockets[0].getsockname()[1]

    async def drain(
        self, grace: float = 30.0, *, retry_after_ms: "int | None" = None
    ) -> bool:
        """Graceful shutdown: finish in-flight work, then close.

        Drain mode (the SIGTERM path — see
        :mod:`repro.cluster.backend` and ``docs/robustness.md``):

        1. stop accepting — both listeners close, so restarts/load
           balancers route new connections elsewhere;
        2. refuse new requests on live connections with a 503 carrying
           ``retry_after_ms`` (default: the grace, rounded up — the
           replacement process is up within it) and ``draining: true``;
        3. wait up to ``grace`` seconds for every admitted request —
           TCP and HTTP, renders and streams — to finish at its own
           pace;
        4. send a best-effort BYE to surviving connections and
           :meth:`close`.

        Returns ``True`` when all in-flight work finished within the
        grace (the clean-exit signal for process wrappers), ``False``
        when the grace expired and the remainder was cancelled.
        Idempotent with :meth:`close`: draining an already-closing
        gateway just closes it.
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
        for server in (self._server, self._http_server):
            if server is not None:
                server.close()
        deadline = time.monotonic() + grace
        while (
            not self._closing
            and self.admission.total_pending > 0
            and time.monotonic() < deadline
        ):
            await asyncio.sleep(0.02)
        drained = self.admission.total_pending == 0
        for conn in list(self._conns):
            try:
                await self._send(
                    conn,
                    protocol.encode_frame(MessageType.BYE, {"draining": True}),
                )
            except (ConnectionError, OSError):
                pass
        await self.close()
        return drained

    async def close(self) -> None:
        """Stop accepting, cancel in-flight connections, release ports.

        Abrupt by design: outstanding requests are cancelled (counted in
        ``stats.cancelled_requests``).  Clients wanting a clean shutdown
        finish their streams and send BYE first (or call :meth:`drain`
        server-side).  The wrapped service is left running — close it
        separately.
        """
        self._closing = True
        for server in (self._server, self._http_server):
            if server is not None:
                server.close()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        for server in (self._server, self._http_server):
            if server is not None:
                await server.wait_closed()

    async def __aenter__(self) -> "RenderGateway":
        if self._server is None:
            await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- TCP protocol ----------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One protocol connection: dispatch frames until EOF or BYE."""
        self.stats.connections += 1
        conn = _Connection(writer)
        self._conns.add(conn)
        handler = asyncio.current_task()
        if handler is not None:
            self._conn_tasks.add(handler)
        try:
            await self._send(
                conn,
                protocol.encode_frame(
                    MessageType.HELLO,
                    {
                        "version": protocol.PROTOCOL_VERSION,
                        "max_pending": self.max_pending,
                        "scenes": sorted(self._orbits),
                        "auth_required": self.auth_token is not None,
                        "classes": list(self.admission.classes()),
                        "default_class": self.admission.default_class,
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
            # Gateway shutdown cancels connection handlers; finish the
            # cleanup below instead of propagating out of the server's
            # connection callback (asyncio would log it as unhandled).
            pass
        finally:
            self._conns.discard(conn)
            if handler is not None:
                self._conn_tasks.discard(handler)
            for task in conn.tasks.values():
                if not task.done():
                    task.cancel()
                    self.stats.cancelled_requests += 1
            if conn.tasks:
                await asyncio.gather(
                    *conn.tasks.values(), return_exceptions=True
                )
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _authenticate(
        self, conn: _Connection, reader: asyncio.StreamReader
    ) -> bool:
        """Enforce the AUTH handshake; True means proceed to dispatch.

        With no token configured this is a no-op (an unsolicited AUTH
        frame from a keyed client is accepted and ignored by
        :meth:`_dispatch`).  With a token, the first frame must be a
        matching AUTH: anything else — wrong token, a request before
        AUTH, garbage — answers a 401 ERROR and closes the connection
        (:func:`authenticate_reader`).
        """
        ok, refusal = await authenticate_reader(
            reader, self.auth_token, "gateway"
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
                pass  # unsolicited token on an unkeyed gateway: ignore
            elif frame.type is MessageType.STATS:
                await self._send(
                    conn,
                    protocol.encode_frame(
                        MessageType.STATS_OK,
                        {
                            "service": self.service.stats_dict(),
                            "gateway": {
                                **asdict(self.stats),
                                "admission": self.admission.stats_dict(),
                            },
                        },
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

    async def _on_scene(self, conn: _Connection, frame: Frame) -> None:
        """SCENE: decode + register the cloud, answer SCENE_OK."""
        if self._wire_scenes >= self.max_scenes:
            raise ProtocolError(
                f"scene registry full ({self.max_scenes} wire scenes)"
            )
        cloud = protocol.decode_cloud(frame.header, frame.blob)
        scene_id = cloud_fingerprint(cloud)
        if scene_id not in self._scenes:
            self._scenes[scene_id] = cloud
            self._wire_scenes += 1
            self.stats.scenes_registered += 1
        await self._send(
            conn,
            protocol.encode_frame(MessageType.SCENE_OK, {"scene_id": scene_id}),
        )

    def _on_request(self, conn: _Connection, frame: Frame) -> None:
        """RENDER / STREAM: admit (or 429) and spawn the serving task."""
        header = frame.header
        request_id = header.get("request_id")
        if not isinstance(request_id, int):
            raise ProtocolError("request_id must be an integer")
        if request_id in conn.tasks:
            raise ProtocolError(f"request_id {request_id} is already in flight")
        # The requester's trace id (validated; None when absent).  Only
        # this id is ever echoed on the wire — locally-minted ids stay
        # local, so tracing cannot change served bytes.
        client_trace = protocol.trace_from_header(header)
        tracer = self.tracer
        trace = client_trace
        if tracer.enabled and trace is None:
            trace = tracer.new_trace_id()
        admit_start = tracer.now() if tracer.enabled else 0.0
        # Admit *synchronously* with the dispatch — the very next frame
        # on any connection sees the updated pending count — and before
        # any decoding, so the reject path stays cheap under overload.
        try:
            ticket = self._admit(
                header.get("class"),
                stream=frame.type is MessageType.STREAM,
            )
        except BaseException:
            if tracer.enabled:
                tracer.record(
                    "admission",
                    trace=trace,
                    start=admit_start,
                    end=tracer.now(),
                    attrs={"admitted": False, "class": header.get("class")},
                )
            raise
        if tracer.enabled:
            tracer.record(
                "admission",
                trace=trace,
                start=admit_start,
                end=tracer.now(),
                attrs={"admitted": True, "class": ticket.request_class},
            )
        try:
            # Pin the deadline before any decoding: the budget is
            # relative to the request's *arrival*.
            deadline = protocol.deadline_from_header(header)
            cloud = self._resolve_scene(header.get("scene_id"))
            if frame.type is MessageType.RENDER:
                camera = protocol.decode_camera(header.get("camera") or {})
                coroutine = self._serve_render(
                    conn, request_id, cloud, camera, ticket.request_class,
                    deadline, trace=trace, client_trace=client_trace,
                )
            else:
                specs = header.get("cameras")
                if not isinstance(specs, list) or not specs:
                    raise ProtocolError("STREAM needs a non-empty camera list")
                cameras = [protocol.decode_camera(spec) for spec in specs]
                coroutine = self._serve_stream(
                    conn, request_id, cloud, cameras, ticket.request_class,
                    deadline, trace=trace, client_trace=client_trace,
                )
        except BaseException:
            ticket.release()
            raise
        task = asyncio.ensure_future(coroutine)
        conn.tasks[request_id] = task
        task.add_done_callback(
            lambda _t, _conn=conn, _rid=request_id, _ticket=ticket: (
                self._request_done(_conn, _rid, _ticket)
            )
        )

    def _request_done(
        self, conn: _Connection, request_id: int, ticket: AdmissionTicket
    ) -> None:
        """Release one admission slot and drop the task bookkeeping."""
        ticket.release()
        conn.tasks.pop(request_id, None)

    async def _serve_render(
        self,
        conn: _Connection,
        request_id: int,
        cloud: GaussianCloud,
        camera: Camera,
        request_class: str,
        deadline: "float | None" = None,
        trace: "str | None" = None,
        client_trace: "str | None" = None,
    ) -> None:
        """Serve one RENDER: a single FRAME answer (or a 500/504 ERROR).

        ``deadline`` (absolute monotonic) bounds the service wait *and*
        the answer write; past it the client gets a 504 ERROR — an
        answer it can still act on, unlike a late frame.
        """
        try:
            loop = asyncio.get_running_loop()
            started = loop.time()
            result = await self.service.render_frame(
                cloud, camera, request_class=request_class, deadline=deadline,
                trace=trace,
            )
            self._observe(request_class, loop.time() - started)
            payload = protocol.encode_result_frame(
                request_id, 0, result,
                backend=self.node_id, trace=client_trace,
            )
            wire_start = self.tracer.now() if self.tracer.enabled else 0.0
            await self._send(conn, payload, deadline=deadline)
            if self.tracer.enabled:
                self.tracer.record(
                    "wire",
                    trace=trace,
                    start=wire_start,
                    end=self.tracer.now(),
                    attrs={"bytes": len(payload), "index": 0},
                )
            self.stats.frames_sent += 1
        except asyncio.CancelledError:
            raise
        except asyncio.TimeoutError:
            self.stats.errors += 1
            await self._send_error(
                conn,
                request_id,
                ErrorCode.DEADLINE_EXCEEDED,
                "deadline exceeded before the frame was ready",
            )
        except (ConnectionError, OSError):
            self.stats.cancelled_requests += 1
        except Exception as exc:
            self.stats.errors += 1
            await self._send_error(
                conn, request_id, ErrorCode.INTERNAL, f"render failed: {exc}"
            )

    async def _serve_stream(
        self,
        conn: _Connection,
        request_id: int,
        cloud: GaussianCloud,
        cameras: "list[Camera]",
        request_class: str,
        deadline: "float | None" = None,
        trace: "str | None" = None,
        client_trace: "str | None" = None,
    ) -> None:
        """Serve one STREAM: ordered FRAMEs, then END.

        Closing the connection cancels this task (and with it the
        service-side stream, whose pending unshared frames are dropped);
        a socket-level write failure counts as a client cancellation.
        ``writer.drain()`` is the flow control: a slow reader stalls the
        stream, and the service's ``prefetch`` bound caps what can pile
        up behind it.  The admission controller observes
        time-to-first-frame only — later inter-frame gaps include the
        client's own drain stalls, which are not service latency.
        ``deadline`` covers the whole stream: when it passes, frames
        stop and the client gets a 504 ERROR instead of END.
        """
        sent = 0
        try:
            loop = asyncio.get_running_loop()
            started = loop.time()
            async for index, result in self.service.stream_trajectory(
                cloud, cameras, request_class=request_class, deadline=deadline,
                trace=trace,
            ):
                if sent == 0:
                    self._observe(request_class, loop.time() - started)
                payload = protocol.encode_result_frame(
                    request_id, index, result,
                    backend=self.node_id, trace=client_trace,
                )
                wire_start = self.tracer.now() if self.tracer.enabled else 0.0
                await self._send(conn, payload, deadline=deadline)
                if self.tracer.enabled:
                    self.tracer.record(
                        "wire",
                        trace=trace,
                        start=wire_start,
                        end=self.tracer.now(),
                        attrs={"bytes": len(payload), "index": index},
                    )
                sent += 1
                self.stats.frames_sent += 1
            await self._send(
                conn,
                protocol.encode_frame(
                    MessageType.END, {"request_id": request_id, "frames": sent}
                ),
            )
        except asyncio.CancelledError:
            raise
        except asyncio.TimeoutError:
            self.stats.errors += 1
            await self._send_error(
                conn,
                request_id,
                ErrorCode.DEADLINE_EXCEEDED,
                f"stream deadline exceeded after {sent} frames",
            )
        except (ConnectionError, OSError):
            self.stats.cancelled_requests += 1
        except Exception as exc:
            self.stats.errors += 1
            await self._send_error(
                conn, request_id, ErrorCode.INTERNAL, f"stream failed: {exc}"
            )

    async def _send(
        self,
        conn: _Connection,
        payload: bytes,
        *,
        deadline: "float | None" = None,
    ) -> None:
        """Write one frame atomically (streams interleave on one socket).

        The flush is bounded by ``write_timeout`` (and, tighter, by the
        request's remaining ``deadline`` budget when given): a stalled
        reader becomes a :class:`ConnectionError` on *this* connection
        instead of a task wedged holding the write lock — and with it
        an admission slot — forever.
        """
        timeout = self.write_timeout
        if deadline is not None:
            remaining = max(0.001, deadline - time.monotonic())
            timeout = remaining if timeout is None else min(timeout, remaining)
        async with conn.wlock:
            conn.writer.write(payload)
            await drain_within(conn.writer, timeout, "frame write")

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

        The handler registers itself with the gateway's task set so
        :meth:`close` cancels in-flight HTTP work too — otherwise a
        shutdown would leave detached renders running and their
        admission slots held until they happened to finish.
        """
        self.stats.http_requests += 1
        handler = asyncio.current_task()
        if handler is not None:
            self._conn_tasks.add(handler)
        try:
            target = await read_http_get(reader, writer)
            if target is not None:
                await self._http_route(writer, target)
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            # Gateway shutdown; admission tickets are context-managed
            # and already released by the time this propagates here.
            pass
        finally:
            if handler is not None:
                self._conn_tasks.discard(handler)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _http_route(self, writer: asyncio.StreamWriter, target: str) -> None:
        """Dispatch one GET target to /healthz, /stats, /metrics,
        /traces, /render or /stream."""
        url = urlsplit(target)
        query = dict(parse_qsl(url.query))
        if url.path == "/healthz":
            await http_reply(writer, 200, {"status": "ok"})
        elif url.path == "/stats":
            await http_reply(
                writer,
                200,
                {
                    "service": self.service.stats_dict(),
                    "gateway": {
                        **asdict(self.stats),
                        "admission": self.admission.stats_dict(),
                    },
                },
            )
        elif url.path == "/metrics":
            await http_reply(writer, 200, self.metrics_dict())
        elif url.path == "/traces":
            try:
                limit = (
                    int(query["limit"]) if "limit" in query else None
                )
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
        elif url.path == "/render":
            await self._http_render(writer, query)
        elif url.path == "/stream":
            await self._http_stream(writer, query)
        else:
            await http_reply(
                writer, 404, {"error": f"no route {url.path}"}
            )

    async def _http_render(
        self, writer: asyncio.StreamWriter, query: "dict[str, str]"
    ) -> None:
        """``/render?scene=NAME&view=I[&format=ppm|json]``."""
        name = query.get("scene")
        cameras = self._orbits.get(name or "")
        if cameras is None:
            await http_reply(
                writer,
                404,
                {
                    "error": f"unknown scene {name!r}",
                    "scenes": sorted(self._orbits),
                },
            )
            return
        try:
            view = int(query.get("view", "0"))
        except ValueError:
            view = -1
        if not 0 <= view < len(cameras):
            await http_reply(
                writer,
                400,
                {"error": f"view must be an index in [0, {len(cameras)})"},
            )
            return
        fmt = query.get("format", "ppm")
        if fmt not in ("ppm", "json"):
            await http_reply(
                writer, 400, {"error": "format must be 'ppm' or 'json'"}
            )
            return
        try:
            ticket = self._admit(query.get("class"), stream=False)
        except AdmissionRejected as exc:
            await http_reply(
                writer,
                429,
                {"error": str(exc), "retry_after_ms": exc.retry_after_ms},
            )
            return
        except ProtocolError as exc:
            # Unknown request class (400) or shutting down (503).
            await http_reply(writer, int(exc.code), {"error": str(exc)})
            return
        with ticket:
            try:
                loop = asyncio.get_running_loop()
                started = loop.time()
                result = await self.service.render_frame(
                    self._scenes[name],
                    cameras[view],
                    request_class=ticket.request_class,
                )
                self._observe(ticket.request_class, loop.time() - started)
            except Exception as exc:
                self.stats.errors += 1
                await http_reply(writer, 500, {"error": str(exc)})
                return
        if fmt == "ppm":
            await http_reply(
                writer,
                200,
                _ppm_bytes(result.image),
                content_type="image/x-portable-pixmap",
                timeout=self.write_timeout,
            )
        else:
            await http_reply(
                writer,
                200,
                _frame_record(name, view, result),
                timeout=self.write_timeout,
            )

    async def _http_stream(
        self, writer: asyncio.StreamWriter, query: "dict[str, str]"
    ) -> None:
        """``/stream?scene=NAME[&frames=K][&start=I][&format=json|ppm]``.

        A chunked multi-frame response streamed as the frames complete:
        ``format=json`` (default) emits one NDJSON record per frame —
        the same fields as ``/render?format=json``, SHA-256 included,
        so a shell can bit-verify a whole trajectory from one request —
        followed by a terminal ``{"type": "eos", "frames": N}`` record,
        and ``format=ppm`` emits the concatenated binary PPM images.
        One admission slot covers the whole stream (parity with TCP
        STREAM requests); ``writer.drain`` per chunk is the flow
        control.  A failure after the 200 header cannot change the
        status — the chunked body just ends without the ``eos`` record
        and its terminating zero chunk, so NDJSON consumers distinguish
        a complete stream (``eos`` present, ``frames`` matching) from a
        mid-body truncation without trusting chunk framing alone.
        """
        name = query.get("scene")
        cameras = self._orbits.get(name or "")
        if cameras is None:
            await http_reply(
                writer,
                404,
                {
                    "error": f"unknown scene {name!r}",
                    "scenes": sorted(self._orbits),
                },
            )
            return
        try:
            start = int(query.get("start", "0"))
            frames = int(query.get("frames", str(len(cameras) - start)))
        except ValueError:
            await http_reply(
                writer, 400, {"error": "start and frames must be integers"}
            )
            return
        if not (0 <= start < len(cameras)) or not (
            1 <= frames <= len(cameras) - start
        ):
            await http_reply(
                writer,
                400,
                {
                    "error": f"need 0 <= start < {len(cameras)} and "
                    f"1 <= frames <= {len(cameras)} - start"
                },
            )
            return
        fmt = query.get("format", "json")
        if fmt not in ("ppm", "json"):
            await http_reply(
                writer, 400, {"error": "format must be 'ppm' or 'json'"}
            )
            return
        try:
            ticket = self._admit(query.get("class"), stream=True)
        except AdmissionRejected as exc:
            await http_reply(
                writer,
                429,
                {"error": str(exc), "retry_after_ms": exc.retry_after_ms},
            )
            return
        except ProtocolError as exc:
            # Unknown request class (400) or shutting down (503).
            await http_reply(writer, int(exc.code), {"error": str(exc)})
            return
        with ticket:
            try:
                loop = asyncio.get_running_loop()
                started = loop.time()
                sent = 0
                stream = self.service.stream_trajectory(
                    self._scenes[name],
                    cameras[start : start + frames],
                    request_class=ticket.request_class,
                )
                await http_stream_head(
                    writer,
                    "image/x-portable-pixmap"
                    if fmt == "ppm"
                    else "application/x-ndjson",
                    timeout=self.write_timeout,
                )
                async for index, result in stream:
                    if sent == 0:
                        self._observe(
                            ticket.request_class, loop.time() - started
                        )
                    if fmt == "ppm":
                        data = _ppm_bytes(result.image)
                    else:
                        record = _frame_record(name, start + index, result)
                        data = (
                            json.dumps(record, separators=(",", ":")) + "\n"
                        ).encode("utf-8")
                    await http_stream_chunk(
                        writer, data, timeout=self.write_timeout
                    )
                    sent += 1
                    self.stats.frames_sent += 1
                if fmt == "json":
                    await http_stream_chunk(
                        writer,
                        json.dumps(
                            {"type": "eos", "frames": sent},
                            separators=(",", ":"),
                        ).encode("utf-8")
                        + b"\n",
                        timeout=self.write_timeout,
                    )
                await http_stream_end(writer, timeout=self.write_timeout)
            except (ConnectionError, OSError):
                self.stats.cancelled_requests += 1
            except Exception:
                # Mid-body failure: the truncated chunk stream is the
                # signal.
                self.stats.errors += 1


def _frame_record(name: str, view: int, result) -> dict:
    """The JSON shape of one served frame (``/render`` and ``/stream``)."""
    image = result.image
    return {
        "scene": name,
        "view": view,
        "width": int(image.shape[1]),
        "height": int(image.shape[0]),
        "dtype": image.dtype.str,
        # Raw float bytes, not the 8-bit PPM: equal to the sha256 of a
        # direct RenderEngine.render — the bit-identity check from a
        # shell.  The service's results carry it; nothing is re-hashed.
        "image_sha256": protocol.wire_result(result).digest,
        "num_pairs": int(result.stats.preprocess.num_pairs),
        "alpha_ops": int(result.stats.raster.num_alpha_computations),
    }


def _ppm_bytes(image: np.ndarray) -> bytes:
    """Encode a float image as binary PPM bytes (P6).

    Peak-normalised exactly like the CLI's ``render`` output
    (``repro.io.ppm.write_ppm`` quantisation), so a fetched frame matches
    a CLI-written one byte for byte.
    """
    peak = max(float(image.max()), 1e-9)
    data = np.rint(np.clip(image / peak, 0.0, 1.0) * 255.0).astype(np.uint8)
    height, width = data.shape[:2]
    return b"P6\n%d %d\n255\n" % (width, height) + data.tobytes()
