"""The shard router: one endpoint, N gateway backends, zero hot state.

:class:`ShardRouter` is an ``asyncio`` TCP server that speaks the
existing :mod:`repro.serve.protocol` wire format on *both* sides — to
clients it looks exactly like a :class:`repro.serve.gateway.RenderGateway`
(HELLO, SCENE, RENDER, STREAM, CANCEL, STATS, BYE, the optional AUTH
handshake), and to each backend it is just another protocol client.
Between the two sits the routing decision:

* **Sharding** — every request carries a scene id (a content
  fingerprint or a registered name); the router ranks the backends with
  rendezvous hashing (:class:`repro.cluster.topology.ClusterMap`) and
  sends the request to the scene's *owner*.  All of one scene's traffic
  lands on one backend, so that backend's projection cache, render
  cache and per-scene worker pools stay hot — the cluster-level version
  of the paper's "group work to keep it local" argument.
* **Replication** — SCENE payloads are forwarded to the whole replica
  set (``replication`` backends), so a failover target already holds
  the scene when it is suddenly asked to serve it.
* **Health-aware selection** — replica choice consults the
  :class:`repro.cluster.health.HealthMonitor`; marked-down backends are
  skipped, live connect failures and mid-stream disconnects are
  reported back into the monitor, and when *no* replica is up the
  router answers a 503 ERROR immediately (never hangs).
* **Failover** — the in-flight-safe requests resume on the next
  replica: a one-shot RENDER is simply retried, and an interrupted
  STREAM is re-issued for the *remaining* cameras only, with frame
  indices rebased, so the client sees one ordered stream with no
  duplicates and no gaps (test-asserted; the CI smoke job kills a
  backend mid-stream and bit-verifies the result).

Relayed frames are **bit-identical end to end**: the router reads a
frame's JSON header to route it, and forwards the frame with only
``request_id``/``index`` given new values in that header, re-encoded
in the wire's JSON dialect (:func:`repro.serve.protocol.relay_parts`),
so every other header byte comes out as it arrived.  A FRAME's blob
is received into a buffer of its own by the link's
:class:`~repro.serve.protocol.FrameReader` and written to the client
from there, never copied or re-encoded.  What the client receives is
byte-for-byte what a single gateway would have sent.  The invariant is
*checked*, not assumed: FRAMEs carry a ``sha256`` of their blob and
the router verifies it before relaying — a backend (or the path to
it) corrupting bytes is severed and failed over exactly like one that
died, so a corrupt frame is never served.  The hash runs on the digest
thread from the moment the frame arrives (see
:func:`repro.serve.protocol.start_digest`).

Requests that share a backend link are relayed **oldest first**: a
younger request's frame waits while an older request on the link has
more than :data:`RELAY_SLACK` frames queued (see
:meth:`BackendLink.turn`).  Without it the relay splits the loop
between every stream whose frames are in hand and all of them slow
down together; with it the older stream finishes at full rate and the
younger one starts right behind it.  An older request whose client
write has blocked for :data:`RELAY_STALL_S` holds nothing back.

Three more robustness behaviours ride the same relay machinery:

* **End-to-end deadlines** — a ``deadline_ms`` on RENDER/STREAM is
  pinned on arrival and the *remaining* budget is forwarded to each
  backend attempt; every backend wait and failover retry is bounded by
  it, and expiry answers a 504 ``DEADLINE_EXCEEDED`` rather than a
  late success.  Requests without the field behave exactly as before.
* **Write deadlines** — no client or backend write may block the
  router forever: drains are bounded by ``write_timeout`` (and the
  request deadline when one is set); a stalled peer is aborted.
* **Graceful drain** — :meth:`ShardRouter.drain` stops accepting,
  answers new requests 503 + ``retry_after_ms`` + ``draining: true``,
  finishes in-flight relays within the grace period, and says BYE.
  Symmetrically, a *backend's* draining 503 routes around it at once:
  :meth:`HealthMonitor.set_draining` gates it for new placements with
  no hysteresis while in-flight streams keep relaying.

The router holds no render state: no engine, no caches, no scene
clouds (just the raw SCENE frames it may need to re-push).  Losing a
router loses connections, never work — clients reconnect (see
:class:`repro.serve.client.GatewayClientPool`) and the backends still
hold everything warm.

An optional HTTP front end (:meth:`ShardRouter.start_http`) proxies
``/render`` and ``/stream`` to the owner backend's HTTP adapter —
chunked multi-frame responses stream straight through — and serves
cluster-level ``/healthz`` and ``/stats``.

The client-facing half — connections, HELLO/AUTH, admission, drain,
the shared HTTP routes — is :class:`repro.serve.server.WireServer`,
the same core the gateway runs on; this module is the routing half.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import asdict, dataclass

from repro.gaussians.cloud import cloud_fingerprint
from repro.serve import protocol
from repro.serve.admission import AdmissionController
from repro.serve.auth import resolve_auth_token
from repro.serve.protocol import ErrorCode, Frame, MessageType, ProtocolError
from repro.serve.server import WireServer, _Connection, http_reply

from repro.cluster.health import HealthMonitor
from repro.cluster.topology import BackendSpec, ClusterMap


def _add_numbers(totals: dict, counts: dict, keys=None) -> None:
    """Add each number in ``counts`` (of ``keys``, absent ones as 0; by
    default all of them) into ``totals``; bools and non-numbers are
    skipped."""
    for key in counts if keys is None else keys:
        value = counts.get(key, 0)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            totals[key] = totals.get(key, 0) + value


class LinkLostError(ConnectionError):
    """A backend connection died under an in-flight request."""


@dataclass
class RouterStats:
    """Router-level counters (backend counters live on the backends).

    Attributes
    ----------
    connections:
        Client protocol connections accepted.
    requests:
        RENDER + STREAM requests admitted.
    streams:
        STREAM requests admitted (subset of ``requests``).
    frames_relayed:
        FRAME messages relayed to clients.
    rejected:
        Requests refused with a 429 ERROR (admission control).
    errors:
        ERROR frames sent to clients (429s accounted separately).
    cancelled_requests:
        Admitted requests abandoned before completion.
    failovers:
        Requests (re)routed to another replica after a backend failure.
    no_replica:
        Requests answered 503 because no replica was up.
    scenes_cached:
        SCENE payloads held for re-push to failover targets.
    http_requests:
        HTTP front-end requests handled (any status).
    auth_failures:
        Client connections refused by the AUTH handshake.
    """

    connections: int = 0
    requests: int = 0
    streams: int = 0
    frames_relayed: int = 0
    rejected: int = 0
    errors: int = 0
    cancelled_requests: int = 0
    failovers: int = 0
    no_replica: int = 0
    scenes_cached: int = 0
    http_requests: int = 0
    auth_failures: int = 0


#: Messages (frames, and its END) an older request on a backend link may
#: have queued before the younger requests on that link wait for it (see
#: :meth:`BackendLink.turn`).
RELAY_SLACK = 2

#: Seconds a relay's write to its client may block before that request
#: stops holding back the younger ones on its link.
RELAY_STALL_S = 0.25


class BackendLink:
    """The router's multiplexed protocol connection to one backend.

    Frame-level, deliberately blind to payloads: incoming frames are
    routed to per-request queues by ``request_id`` (blobs untouched),
    control replies (SCENE_OK / STATS_OK / id-less ERRORs) go to a
    serialised control queue.  Reconnects lazily; a connection loss
    wakes every waiter with ``None``, clears ``pushed_scenes`` (the
    peer may be a *restarted* process with an empty scene registry, so
    everything must be re-pushable), and the next :meth:`connect`
    starts from a fresh control queue (stale wake-up sentinels from
    the dead connection must not poison the new one).
    """

    def __init__(
        self,
        spec: BackendSpec,
        *,
        auth_token: "str | None" = None,
        connect_timeout: float = 5.0,
        control_timeout: float = 30.0,
        write_timeout: "float | None" = 30.0,
    ) -> None:
        self.spec = spec
        self.auth_token = auth_token
        self.connect_timeout = connect_timeout
        self.control_timeout = control_timeout
        self.write_timeout = write_timeout
        self.pushed_scenes: "set[str]" = set()
        self._reader: "protocol.FrameReader | None" = None
        self._writer: "asyncio.StreamWriter | None" = None
        self._read_task: "asyncio.Task | None" = None
        self._wlock = asyncio.Lock()
        self._connect_lock = asyncio.Lock()
        self._control_lock = asyncio.Lock()
        self._control: "asyncio.Queue" = asyncio.Queue()
        self._queues: "dict[int, asyncio.Queue]" = {}
        # Requests whose client write has blocked RELAY_STALL_S or more.
        self._stalled: "set[int]" = set()
        self._moved = asyncio.Event()
        self._turn_waiters = 0
        self._ids = itertools.count(1)
        self._closed = False

    @property
    def connected(self) -> bool:
        """True while the connection is usable.

        Requires a live read loop *and* a writable transport: after
        :meth:`abort` the writer is closing immediately but the
        cancelled read task only finishes on a later loop step, and a
        link in that window must not be handed out.
        """
        return (
            self._read_task is not None
            and not self._read_task.done()
            and self._writer is not None
            and not self._writer.is_closing()
        )

    async def connect(self) -> None:
        """Ensure a live connection (HELLO consumed, AUTH sent).

        Raises :class:`LinkLostError` when the backend is unreachable
        or fails the handshake within ``connect_timeout``.
        """
        if self._closed:
            raise LinkLostError(f"link to {self.spec.backend_id} is closed")
        async with self._connect_lock:
            if self.connected:
                return
            # Let the previous connection's read loop finish first: its
            # finally block wakes stale waiters and clears
            # pushed_scenes, and none of that may interleave with (or
            # run after) the new connection's first pushes.
            old_task = self._read_task
            if old_task is not None and not old_task.done():
                old_task.cancel()
                await asyncio.gather(old_task, return_exceptions=True)
            try:
                reader, writer = await asyncio.wait_for(
                    protocol.open_frame_connection(
                        self.spec.host, self.spec.port
                    ),
                    self.connect_timeout,
                )
            except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                raise LinkLostError(
                    f"cannot connect to backend {self.spec.backend_id} at "
                    f"{self.spec.host}:{self.spec.port}: {exc}"
                ) from exc
            try:
                await asyncio.wait_for(
                    protocol.client_hello(reader, writer, self.auth_token),
                    self.connect_timeout,
                )
            except (
                ConnectionError,
                OSError,
                asyncio.TimeoutError,
                ProtocolError,
            ) as exc:
                writer.close()
                raise LinkLostError(
                    f"handshake with backend {self.spec.backend_id} failed: "
                    f"{exc}"
                ) from exc
            self._reader, self._writer = reader, writer
            # A fresh connection gets a fresh control queue: the old
            # one may hold the previous read loop's None sentinel (or
            # stale late replies), which would make the first control
            # round trip here fail spuriously and desynchronise every
            # one after it.
            self._control = asyncio.Queue()
            self._read_task = asyncio.ensure_future(
                self._read_loop(self._reader, self._control)
            )

    async def _read_loop(self, reader, control: asyncio.Queue) -> None:
        """Route backend frames to their waiters until EOF/corruption.

        ``reader``/``control`` are bound per connection: a loop only
        ever feeds the control queue of the connection it belongs to.
        """
        try:
            while True:
                frame = await protocol.read_frame(reader)
                if frame is None:
                    break
                request_id = frame.header.get("request_id")
                queue = self._queues.get(request_id) if type(request_id) is int else None
                if queue is not None:
                    if frame.type is MessageType.FRAME:
                        # Hashed on the digest thread while the relay
                        # forwards the frames queued before this one.
                        protocol.start_digest(frame)
                    queue.put_nowait(frame)
                elif request_id is None and frame.type in protocol.CONTROL_REPLIES:
                    control.put_nowait(frame)
                # Frames for abandoned requests, or with an id that is
                # not an integer (it names no request): drop.
        except (ProtocolError, ConnectionError, OSError):
            pass
        finally:
            for queue in self._queues.values():
                queue.put_nowait(None)
            control.put_nowait(None)
            # The next connection may reach a *restarted* process whose
            # scene registry is empty: everything must be re-pushable.
            self.pushed_scenes.clear()

    async def send(self, payload: bytes) -> None:
        """Write one frame; a dead socket raises :class:`LinkLostError`.

        The drain is bounded by ``write_timeout``: a backend that stops
        reading (wedged process, full socket buffers behind a stalled
        host) is indistinguishable from a dead one to the router, so
        the transport is aborted and the caller fails over.
        """
        if self._writer is None or not self.connected:
            raise LinkLostError(f"link to {self.spec.backend_id} is down")
        try:
            async with self._wlock:
                self._writer.write(payload)
                await protocol.drain_within(
                    self._writer,
                    self.write_timeout,
                    f"write to backend {self.spec.backend_id}",
                )
        except (ConnectionError, OSError) as exc:
            raise LinkLostError(
                f"write to backend {self.spec.backend_id} failed: {exc}"
            ) from exc

    def open_channel(self) -> "tuple[int, asyncio.Queue]":
        """A fresh backend request id + its incoming-frame queue."""
        request_id = next(self._ids)
        queue: "asyncio.Queue" = asyncio.Queue()
        self._queues[request_id] = queue
        return request_id, queue

    def close_channel(self, request_id: int) -> None:
        """Drop a request's queue (late frames are discarded).

        Digests started for frames still queued are withdrawn: nobody
        will relay those frames, and the digest thread is shared.
        """
        queue = self._queues.pop(request_id, None)
        while queue is not None and not queue.empty():
            frame = queue.get_nowait()
            if frame is not None and frame.digest is not None:
                frame.digest.cancel()
        self._stalled.discard(request_id)
        self.moved()

    def holds_back(self, request_id: int) -> bool:
        """True while an older request on this link relays first.

        Channel ids grow in the order requests were opened.  An older
        request holds this one back while it has more than
        :data:`RELAY_SLACK` messages queued (frames, and its END),
        unless its client write has blocked for :data:`RELAY_STALL_S`:
        a client that stops reading must not stall the other requests
        on the link.
        """
        return any(
            other < request_id
            and other not in self._stalled
            and queue.qsize() > RELAY_SLACK
            for other, queue in self._queues.items()
        )

    async def turn(self, request_id: int) -> None:
        """Wait until no older request on this link holds this one back.

        Work-conserving: an older request with nothing queued (its
        backend is still rendering) holds nothing back.
        """
        while self.holds_back(request_id):
            self._turn_waiters += 1
            try:
                await self._moved.wait()
            finally:
                self._turn_waiters -= 1

    def moved(self) -> None:
        """Wake the relays in :meth:`turn` to look again."""
        if self._turn_waiters:
            self._moved.set()
            self._moved = asyncio.Event()

    def stalled(self, request_id: int, stalled: bool = True) -> None:
        """Mark a request whose client write is blocked (or no longer)."""
        if stalled:
            self._stalled.add(request_id)
            self.moved()
        else:
            self._stalled.discard(request_id)

    def abort(self) -> None:
        """Sever the current connection (every waiter wakes with None).

        Used when the backend is *unresponsive* rather than gone — a
        wedged process keeps its socket open forever, so the router
        must be the one to cut it (and with it, the stale state a
        half-dead connection would leave behind).
        """
        if self._read_task is not None and not self._read_task.done():
            self._read_task.cancel()
        if self._writer is not None:
            self._writer.close()

    async def control(
        self,
        payload: bytes,
        expected: MessageType,
        *,
        timeout: "float | None" = None,
    ) -> Frame:
        """One serialised control round trip (SCENE, STATS).

        Raises :class:`LinkLostError` when the connection dies under it
        — or answers nothing within ``timeout`` (default
        ``control_timeout``), in which case the connection is severed
        (a reply arriving *after* an abandoned wait would
        desynchronise every later round trip) — and
        :class:`ProtocolError` when the backend answers an ERROR or
        the wrong frame type.  The deadline covers only the reply
        wait, never the queueing for the control lock: waiting behind
        another round trip is congestion, not backend failure.
        """
        deadline = self.control_timeout if timeout is None else timeout
        async with self._control_lock:
            await self.send(payload)
            try:
                frame = await asyncio.wait_for(self._control.get(), deadline)
            except asyncio.TimeoutError:
                self.abort()
                raise LinkLostError(
                    f"backend {self.spec.backend_id} did not answer a "
                    f"control round trip within {deadline}s"
                ) from None
        if frame is None:
            raise LinkLostError(
                f"backend {self.spec.backend_id} dropped the connection"
            )
        if frame.type is MessageType.ERROR:
            raise protocol.error_fields(frame)
        if frame.type is not expected:
            raise ProtocolError(
                f"backend {self.spec.backend_id} answered "
                f"{frame.type.name}, expected {expected.name}"
            )
        return frame

    async def push_scene(self, scene_id: str, payload: bytes) -> None:
        """Idempotently register a cached SCENE payload on this backend."""
        await self.connect()
        if scene_id in self.pushed_scenes:
            return
        frame = await self.control(payload, MessageType.SCENE_OK)
        confirmed = frame.header.get("scene_id")
        if confirmed != scene_id:
            raise ProtocolError(
                f"backend {self.spec.backend_id} registered scene "
                f"{confirmed!r}, expected {scene_id!r} — fingerprint "
                "mismatch across the wire",
                code=ErrorCode.INTERNAL,
            )
        self.pushed_scenes.add(scene_id)

    async def close(self) -> None:
        """Tear the connection down (BYE best effort, bounded by
        ``write_timeout``: a backend that stops reading cannot hold the
        close)."""
        self._closed = True
        if self._writer is not None:
            try:
                async with self._wlock:
                    self._writer.write(protocol.encode_frame(MessageType.BYE))
                    await protocol.drain_within(
                        self._writer,
                        self.write_timeout,
                        f"BYE to backend {self.spec.backend_id}",
                    )
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


class ShardRouter(WireServer):
    """Health-aware shard router over N gateway backends.

    Parameters
    ----------
    cluster_map:
        Membership + replication (:class:`ClusterMap`).  Live
        ``add``/``remove`` take effect on the next routing decision.
    host:
        Bind address for both listeners (default loopback).
    max_pending:
        Client-facing admission bound; at the bound new requests get a
        429 ERROR (each backend still applies its own bound below).
        Ignored when ``admission`` is given.
    admission:
        Optional :class:`repro.serve.admission.AdmissionController`
        governing the client-facing edge: request classes carried on
        RENDER/STREAM frames are resolved here, counted against
        per-class quotas, and — under SLO violation — shed lowest
        priority first with a ``retry_after_ms`` hint on the 429.  The
        resolved class is forwarded to the owner backend, whose own
        controller observes the actual render latency.  Defaults to a
        plain ``AdmissionController(max_pending)``.
    max_scenes:
        Bound on cached SCENE payloads (each pins the encoded cloud in
        router memory for replica re-push).
    auth_token:
        Client-facing shared secret (environment fallback); same
        semantics as the gateway's.
    backend_auth_token:
        Token presented *to* the backends; defaults to ``auth_token``
        (one secret for the whole fleet).
    monitor:
        Optional externally managed :class:`HealthMonitor`.  By default
        the router builds one and runs its probe loop between
        :meth:`start` and :meth:`close`.
    request_timeout:
        Deadline on every in-flight backend wait (seconds between
        frames of a stream, per one-shot answer, per proxied HTTP
        read).  A backend that stays *connected* but stops answering —
        wedged process, stalled host — hits this, is severed and
        reported to the monitor, and the request fails over like any
        other backend death, so a half-dead backend can never hang a
        client while healthy replicas exist.
    write_timeout:
        Stall bound on every outbound drain (client relays, backend
        sends, proxied HTTP chunks).  A peer that stops *reading* is
        aborted after this many seconds instead of parking the relay
        task forever on a full socket buffer.  ``None`` disables the
        bound (the pre-deadline behaviour).
    tracer:
        Optional :class:`repro.trace.Tracer` for the router's own
        ``admission`` and ``route`` spans and its ``/metrics`` +
        ``/traces`` endpoints.  A *client-sent* trace id is forwarded
        on every backend (re)issue — including failover re-issues — so
        the backends' spans stitch with the router's; a router-minted
        id never reaches a backend (relayed FRAME headers pass through
        verbatim, so a forwarded server-side id would leak into the
        client's bytes and break the traced-vs-untraced identity).
    node_id:
        Stable id stamped on the router's spans and ``/metrics``.
    """

    role = "router"

    def __init__(
        self,
        cluster_map: ClusterMap,
        *,
        host: str = "127.0.0.1",
        max_pending: int = 64,
        admission: "AdmissionController | None" = None,
        max_scenes: int = 8,
        auth_token: "str | None" = None,
        backend_auth_token: "str | None" = None,
        monitor: "HealthMonitor | None" = None,
        request_timeout: float = 60.0,
        write_timeout: "float | None" = 30.0,
        tracer=None,
        node_id: str = "router",
    ) -> None:
        if request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        super().__init__(
            RouterStats(),
            host=host,
            max_pending=max_pending,
            admission=admission,
            max_scenes=max_scenes,
            auth_token=auth_token,
            write_timeout=write_timeout,
            tracer=tracer,
            node_id=node_id,
        )
        self.topology = cluster_map
        self.backend_auth_token = (
            resolve_auth_token(backend_auth_token) or self.auth_token
        )
        self.request_timeout = request_timeout
        self._own_monitor = monitor is None
        self.health = monitor or HealthMonitor(
            cluster_map, auth_token=self.backend_auth_token
        )
        self._links: "dict[str, BackendLink]" = {}
        self._scene_frames: "dict[str, bytes]" = {}
        self._replicating: "set[asyncio.Task]" = set()

    def metrics_dict(self) -> dict:
        """The METRICS / ``/metrics`` snapshot for the router node.

        Router-local only (no backend fan-out — backends serve their
        own ``/metrics``): edge admission counters, pending gauge,
        health view, and the tracer registry's per-stage latency
        histograms (``stage_ms.route`` is the relay latency including
        failover retries).
        """
        return {
            "node": self.node_id,
            "role": "router",
            "pending": self.admission.total_pending,
            "admission": self.admission.stats_dict(),
            "health": self.health.snapshot(),
            **self.tracer.metrics.snapshot(),
        }

    # -- lifecycle: the health monitor and the backend links -------------
    async def start(self, port: int = 0) -> None:
        """Start the TCP listener; run the owned health monitor."""
        await super().start(port)
        if self._own_monitor:
            self.health.start()

    async def close(self) -> None:
        """Stop listeners, cancel in-flight work, close backend links."""
        await super().close()
        for task in self._replicating:
            task.cancel()
        await asyncio.gather(*self._replicating, return_exceptions=True)
        if self._own_monitor:
            await self.health.close()
        for link in self._links.values():
            await link.close()
        self._links.clear()

    # -- backend selection ----------------------------------------------
    def _link(self, spec: BackendSpec) -> BackendLink:
        link = self._links.get(spec.backend_id)
        if link is None or link.spec != spec:
            if link is not None:
                # The id was re-registered at a new address: sever the
                # superseded link or its socket + read task leak for
                # the router's lifetime.
                link.abort()
            link = self._links[spec.backend_id] = BackendLink(
                spec,
                auth_token=self.backend_auth_token,
                # One deadline policy: control round trips (scene push,
                # stats) stall on a wedged backend exactly like frames.
                control_timeout=self.request_timeout,
                write_timeout=self.write_timeout,
            )
        return link

    async def _acquire_link(
        self, scene_id: str, excluded: "set[str]", deadline: "float | None"
    ) -> "BackendLink | None":
        """The best live replica's link, ready to serve ``scene_id``; None
        when no replica is up.

        Walks the scene's replica set in rendezvous order, skipping
        backends this request already saw fail and backends the monitor
        has marked down (a markdown skip is a routing decision, not a
        failover).  A wire-pushed scene is (re)pushed from the router's
        payload cache; any other id is a name the backends were
        provisioned with (a backend that disagrees answers 404, which
        is relayed).  A connect or push *failure* is a failover: it is
        reported into the monitor, counted, and the walk continues.  A
        spent budget ends the wait in a 504, and the connect or push
        runs on (:func:`repro.serve.protocol.within`, shielded).
        """
        payload = self._scene_frames.get(scene_id)
        for spec in self.topology.replicas(scene_id):
            if spec.backend_id in excluded:
                continue
            if not self.health.is_up(spec.backend_id):
                continue
            link = self._link(spec)
            try:
                await protocol.within(
                    deadline,
                    link.connect() if payload is None
                    else link.push_scene(scene_id, payload),
                    f"reaching backend {spec.backend_id}",
                    shield=True,
                )
            except LinkLostError as exc:
                self._mark_failover(link, excluded, exc)
                continue
            return link
        return None

    def _mark_failover(self, link: BackendLink, excluded: "set[str]", error) -> None:
        """Bookkeeping shared by every failover site."""
        excluded.add(link.spec.backend_id)
        self.health.report_failure(link.spec.backend_id, error=str(error))
        self.stats.failovers += 1

    async def _backend_frame(
        self,
        link: BackendLink,
        queue: asyncio.Queue,
        deadline: "float | None" = None,
    ) -> Frame:
        """The next frame for one backend request, deadline-bounded.

        A dead connection (``None`` sentinel) and an unresponsive one
        (``request_timeout`` without a frame — the connection is then
        severed so its late output cannot leak) both raise
        :class:`LinkLostError`, which the serve loops turn into
        failover.  A *request deadline* expiring first is different in
        kind: the backend is presumed healthy (it was just asked for
        more than the budget allowed), so the link survives and the
        caller answers 504 instead of failing over.
        """
        try:
            frame = await protocol.within(
                deadline,
                asyncio.wait_for(queue.get(), self.request_timeout),
                "waiting on the backend",
            )
        except asyncio.TimeoutError:
            link.abort()
            raise LinkLostError(
                f"backend {link.spec.backend_id} stalled "
                f"(> {self.request_timeout}s without a frame)"
            ) from None
        if frame is None:
            raise LinkLostError(
                f"backend {link.spec.backend_id} dropped the connection"
            )
        return frame

    async def _relay_turn(
        self, link: BackendLink, backend_id: int, deadline: "float | None"
    ) -> None:
        """:meth:`BackendLink.turn`, bounded by the request's budget."""
        if link.holds_back(backend_id):
            await protocol.within(
                deadline, link.turn(backend_id), "while older requests relayed"
            )

    async def _checked(self, link: BackendLink, frame: Frame) -> Frame:
        """Verify a FRAME's blob checksum before it may be relayed.

        A mismatch means the bytes in hand are not the bytes the
        backend's engine produced — corruption on the backend, in the
        path, or in the backend's own send pipeline.  Serving them
        would silently break the bit-identical invariant, so the link
        is severed and the failure surfaces as :class:`LinkLostError`:
        the frame is *re-rendered on another replica*, never delivered.
        The digest is the one the link's read loop started on arrival.
        """
        try:
            await protocol.verify_frame_checksum_async(frame)
        except ProtocolError as exc:
            link.abort()
            raise LinkLostError(
                f"backend {link.spec.backend_id} relayed a corrupt "
                f"frame: {exc}"
            ) from None
        return frame

    # -- what the core asks of a router ----------------------------------
    def _hello_extras(self) -> dict:
        return {
            "classes": list(self.admission.classes()),
            "default_class": self.admission.default_class,
            "role": "router",
            "backends": len(self.topology),
            "replication": self.topology.replication,
            "scenes": [],
            "auth_required": self.auth_token is not None,
        }

    def _healthz(self) -> "tuple[int, dict]":
        up = [
            spec.backend_id
            for spec in self.topology.backends
            if self.health.is_up(spec.backend_id)
        ]
        return 200 if up else 503, {
            "status": "ok" if up else "no backend up",
            "role": "router",
            "backends_up": up,
            "backends_total": len(self.topology),
        }

    async def _on_scene(self, conn: _Connection, frame: Frame) -> None:
        """SCENE: fingerprint and cache the payload, then replicate it.

        The cloud is decoded only to learn its content fingerprint (the
        routing key); what the backends receive is the client's exact
        bytes, re-framed.  Replication runs as a task of its own that
        answers SCENE_OK (or the 503): a replica that takes the SCENE
        and never answers holds back that answer, not the requests
        behind it on the connection, which push the cached payload to
        their backend themselves (:meth:`_acquire_link`).
        """
        cloud = protocol.decode_cloud(frame.header, frame.blob)
        scene_id = cloud_fingerprint(cloud)
        del cloud  # routing needs the id, not the arrays
        if scene_id not in self._scene_frames:
            if len(self._scene_frames) >= self.max_scenes:
                raise ProtocolError(
                    f"scene registry full ({self.max_scenes} cached scenes)"
                )
            self._scene_frames[scene_id] = protocol.encode_frame(
                MessageType.SCENE, frame.header, frame.blob
            )
            self.stats.scenes_cached += 1
        task = asyncio.ensure_future(self._replicate(conn, scene_id))
        self._replicating.add(task)
        task.add_done_callback(self._replicating.discard)

    async def _replicate(self, conn: _Connection, scene_id: str) -> None:
        """Place a cached scene on every live replica, then answer.

        Eager placement keeps failover targets warm; a backend that
        cannot be reached now gets the payload lazily when it is first
        routed to.  The pushes run concurrently, so a silent replica
        delays the answer, not the other replicas' copies.  With no
        replica placed the answer is a 503.
        """

        async def place(spec: BackendSpec) -> bool:
            try:
                await self._link(spec).push_scene(
                    scene_id, self._scene_frames[scene_id]
                )
            except (LinkLostError, ProtocolError) as exc:
                self.health.report_failure(spec.backend_id, error=str(exc))
                return False
            return True

        try:
            outcomes = await asyncio.gather(
                *(
                    place(spec)
                    for spec in self.topology.replicas(scene_id)
                    if self.health.is_up(spec.backend_id)
                ),
                return_exceptions=True,
            )
            for outcome in outcomes:
                if isinstance(outcome, Exception):
                    raise outcome
            placed = sum(outcomes)
        except Exception as exc:
            # Defense in depth (the dispatch loop's rule): nobody awaits
            # this task, so a failure not answered here would leave the
            # client waiting for its SCENE's reply forever.
            self.stats.errors += 1
            await self._send_error(
                conn,
                None,
                ErrorCode.INTERNAL,
                f"internal scene replication failure: {exc}",
            )
            return
        if placed == 0:
            self.stats.errors += 1
            await self._send_error(
                conn,
                None,
                ErrorCode.SHUTTING_DOWN,
                "no replica accepted the scene (all backends down?)",
            )
            return
        try:
            await self._send(
                conn,
                protocol.encode_frame(
                    MessageType.SCENE_OK, {"scene_id": scene_id}
                ),
            )
        except (ConnectionError, OSError):
            pass  # the client went away; the scene stays placed

    def _fulfil(self, conn, request):
        """Route the request: the backend looks the scene up and decodes."""
        return self._route(conn, request)

    async def _no_replica(self, conn: _Connection, request_id: int) -> None:
        """Answer the no-replica-up condition: an immediate 503."""
        self.stats.no_replica += 1
        self.stats.errors += 1
        await self._send_error(
            conn,
            request_id,
            ErrorCode.SHUTTING_DOWN,
            "no replica is up for this scene",
        )

    async def _route(self, conn: _Connection, request: protocol.Request) -> None:
        """Relay one RENDER or STREAM inside its ``route`` span.

        The span records every backend tried and the failover count,
        whatever way the relay ends.
        """
        excluded: "set[str]" = set()
        tried: "list[str]" = []
        route_start = self.tracer.now() if self.tracer.enabled else 0.0
        try:
            await self._relay_with_failover(conn, request, excluded, tried)
        finally:
            if self.tracer.enabled:
                attrs = {
                    "scene": request.scene_id,
                    "class": request.request_class,
                    "backends": tried,
                    "failovers": len(excluded),
                }
                if request.stream:
                    attrs["stream"] = True
                self.tracer.record(
                    "route",
                    trace=request.span_trace,
                    start=route_start,
                    end=self.tracer.now(),
                    attrs=attrs,
                )

    async def _relay_with_failover(
        self,
        conn: _Connection,
        request: protocol.Request,
        excluded: "set[str]",
        tried: "list[str]",
    ) -> None:
        """The failover loop: one RENDER (a single FRAME) or one STREAM.

        The router counts the frames it has actually relayed; when a
        backend dies it re-issues the request on the next replica — a
        RENDER whole, a STREAM for the *remaining* cameras only, with
        the incoming indices rebased — so the client observes one
        gapless, duplicate-free, ordered stream regardless of how many
        backends died along the way.  A frame failing its ``sha256``
        check is treated as a backend death at that exact point: it is
        never relayed and never counted, so it is re-rendered
        elsewhere.  A backend's draining 503 is a failover too, and
        gates that backend off new placements at once.

        With a ``deadline``, each backend attempt carries only the
        *remaining* budget and the loop itself is bounded by it — a
        request that cannot finish in time answers 504, never a late
        success.  Like the gateway, the admission controller observes
        only the time to the *first* relayed frame: later inter-frame
        gaps include the client's own drain stalls, which are not
        serving latency.
        """
        request_id, stream, deadline = (
            request.request_id, request.stream, request.deadline
        )
        msg_type = MessageType.STREAM if stream else MessageType.RENDER
        sent = 0
        started = asyncio.get_running_loop().time()
        while True:
            try:
                link = await self._acquire_link(request.scene_id, excluded, deadline)
            except ProtocolError as exc:  # a spent budget, a refused push
                self.stats.errors += 1
                await self._send_error(conn, request_id, exc.code, str(exc))
                return
            if link is None:
                await self._no_replica(conn, request_id)
                return
            backend_id, queue = link.open_channel()
            tried.append(link.spec.backend_id)
            try:
                base = sent
                cameras = request.cameras[base:]
                header = protocol.header(
                    msg_type, request_id=backend_id, scene_id=request.scene_id,
                    **({"cameras": cameras} if stream else {"camera": cameras[0]}),
                    class_=request.request_class, trace=request.trace,
                    deadline_ms=protocol.deadline_remaining_ms(deadline),
                )
                await link.send(protocol.encode_frame(msg_type, header))
                while True:
                    frame = await self._backend_frame(link, queue, deadline)
                    link.moved()
                    if frame.type is MessageType.FRAME:
                        await self._relay_turn(link, backend_id, deadline)
                        await self._checked(link, frame)
                        if sent == 0:
                            self._observe(
                                request.request_class,
                                asyncio.get_running_loop().time() - started,
                            )
                        parts = protocol.relay_parts(
                            frame, request_id, base + int(frame.header["index"])
                        )
                        stall = asyncio.get_running_loop().call_later(
                            RELAY_STALL_S, link.stalled, backend_id
                        )
                        try:
                            await self._send(
                                conn,
                                *parts,
                                deadline=deadline,
                                request_id=request_id,
                            )
                        finally:
                            stall.cancel()
                            link.stalled(backend_id, False)
                        sent += 1
                        self.stats.frames_relayed += 1
                        if not stream:
                            return
                    elif frame.type is MessageType.END:
                        await self._send(
                            conn,
                            protocol.encode_frame(
                                MessageType.END,
                                {"request_id": request_id, "frames": sent},
                            ),
                            deadline=deadline,
                            request_id=request_id,
                        )
                        return
                    elif (
                        frame.type is MessageType.ERROR
                        and (error := protocol.error_fields(frame)).code
                        is ErrorCode.SHUTTING_DOWN
                    ):
                        if error.draining:
                            # An announced departure: gate the backend
                            # off new placements immediately (no
                            # hysteresis) on top of the failover.
                            self.health.set_draining(link.spec.backend_id)
                        raise LinkLostError(
                            f"backend {link.spec.backend_id} is shutting down"
                        )
                    else:
                        # Any other answer — a backend's ERROR, a 404 or a
                        # 429 with its retry_after_ms hint — crosses the
                        # hop verbatim except for the request id.
                        if frame.type is MessageType.ERROR:
                            self.stats.errors += 1
                        await self._send(conn, *protocol.relay_parts(frame, request_id))
                        return
            except LinkLostError as exc:
                self._mark_failover(link, excluded, exc)
                continue
            except ProtocolError as exc:
                # A spent budget (504): the backend may still be
                # working on it — tell it to stop.
                await self._cancel_backend(link, backend_id)
                self.stats.errors += 1
                await self._send_error(conn, request_id, exc.code, str(exc))
                return
            except (ConnectionError, OSError):
                # The *client* went away mid-relay: drop the backend work.
                await self._cancel_backend(link, backend_id)
                self.stats.cancelled_requests += 1
                return
            except asyncio.CancelledError:
                await self._cancel_backend(link, backend_id)
                raise
            except Exception as exc:
                # Defense in depth (the gateway's rule): an unexpected
                # relay failure answers *this* request — a silently
                # dead task would leave the client waiting forever.
                self.stats.errors += 1
                await self._cancel_backend(link, backend_id)
                await self._send_error(
                    conn,
                    request_id,
                    ErrorCode.INTERNAL,
                    f"internal relay failure: {exc}",
                )
                return
            finally:
                link.close_channel(backend_id)

    async def _cancel_backend(self, link: BackendLink, backend_id: int) -> None:
        """Best-effort CANCEL for an abandoned backend request."""
        try:
            await link.send(
                protocol.encode_frame(
                    MessageType.CANCEL, {"request_id": backend_id}
                )
            )
        except LinkLostError:
            pass

    # -- stats aggregation ----------------------------------------------
    #: Deadline per backend stats round trip — deliberately short (the
    #: probe timescale, not the render deadline): stats must stay cheap
    #: even when a backend is wedged, and the fan-out below runs all
    #: backends concurrently so the slowest one bounds the whole call.
    STATS_TIMEOUT = 5.0

    async def _backend_stats_entry(self, spec: BackendSpec) -> dict:
        """One backend's contribution to the cluster STATS payload."""
        entry: "dict" = {"up": self.health.is_up(spec.backend_id)}
        if not entry["up"]:
            return entry
        link = self._link(spec)
        try:
            await link.connect()
            # The short deadline bounds only the backend's *reply*
            # (control() severs the link on expiry); time spent queued
            # behind e.g. a large in-flight scene push does not count
            # against the backend.
            frame = await link.control(
                protocol.encode_frame(MessageType.STATS),
                MessageType.STATS_OK,
                timeout=self.STATS_TIMEOUT,
            )
        except (LinkLostError, ProtocolError) as exc:
            self.health.report_failure(spec.backend_id, error=str(exc))
            entry["error"] = str(exc)
        else:
            entry["service"] = frame.header.get("service", {})
            entry["gateway"] = frame.header.get("gateway", {})
        return entry

    async def _stats_payload(self) -> dict:
        """Cluster-wide STATS_OK payload.

        ``service`` sums every numeric service counter across the live
        backends (so ``engine_renders`` vs ``requests`` tells the same
        story it does for one gateway), plus a class-wise merge of the
        backends' ``class_requests`` dicts; ``gateway`` carries the
        router's own counters (including its edge ``admission``
        snapshot), per-backend breakdowns, a cluster-aggregated
        per-class admission summary, and health.
        """
        specs = self.topology.backends
        entries = await asyncio.gather(
            *(self._backend_stats_entry(spec) for spec in specs)
        )
        totals: "dict[str, float]" = {}
        class_requests: "dict[str, int]" = {}
        class_totals: "dict[str, dict[str, float]]" = {}
        backends: "dict[str, dict]" = {}
        for spec, entry in zip(specs, entries):
            backends[spec.backend_id] = entry
            service = entry.get("service", {})
            _add_numbers(totals, service)
            _add_numbers(class_requests, service.get("class_requests", {}))
            for name, cls_stats in (
                entry.get("gateway", {}).get("admission", {}).get("classes", {})
            ).items():
                _add_numbers(
                    class_totals.setdefault(name, {}),
                    cls_stats,
                    ("pending", "admitted", "rejected", "shed"),
                )
        if class_requests:
            totals["class_requests"] = class_requests  # type: ignore[assignment]
        return {
            "service": totals,
            "gateway": {
                **asdict(self.stats),
                "role": "router",
                "replication": self.topology.replication,
                "admission": self.admission.stats_dict(),
                "backend_classes": class_totals,
                "backends": backends,
                "health": self.health.snapshot(),
            },
        }

    # -- HTTP front end: /render and /stream proxied ---------------------
    async def _http_fulfil(
        self,
        writer: asyncio.StreamWriter,
        path: str,
        target: str,
        query: "dict[str, str]",
    ) -> None:
        """Proxy a request to the scene's owner backend, byte-for-byte.

        Routes by the ``scene`` query parameter (named scenes hash by
        name).  A replica that cannot be *connected* falls through to
        the next; once response bytes have started flowing a backend
        death simply truncates the chunked body — the client-visible
        signal HTTP allows — because a 200 header is already gone.
        """
        name = query.get("scene")
        if not name:
            await http_reply(writer, 400, {"error": "scene parameter required"})
            return
        tried = 0
        for spec in self.topology.replicas(name):
            if spec.http_port is None or not self.health.is_up(spec.backend_id):
                continue
            tried += 1
            try:
                b_reader, b_writer = await asyncio.open_connection(
                    spec.host, spec.http_port
                )
            except (ConnectionError, OSError) as exc:
                self.health.report_failure(spec.backend_id, error=str(exc))
                continue
            relayed = False
            try:
                b_writer.write(
                    (
                        f"GET {target} HTTP/1.1\r\n"
                        f"Host: {spec.host}\r\n"
                        "Connection: close\r\n\r\n"
                    ).encode("latin-1")
                )
                await b_writer.drain()
                while True:
                    # The deadline is per read, not per response: a
                    # healthy backend streaming a long trajectory keeps
                    # producing chunks; a wedged one goes silent.
                    chunk = await asyncio.wait_for(
                        b_reader.read(65536), self.request_timeout
                    )
                    if not chunk:
                        break
                    relayed = True
                    try:
                        writer.write(chunk)
                        await protocol.drain_within(
                            writer, self.write_timeout, "HTTP client write"
                        )
                    except (ConnectionError, OSError):
                        # The *client* stalled or vanished — stop
                        # proxying, but do not blame the backend.
                        return
                return
            except asyncio.TimeoutError:
                self.health.report_failure(
                    spec.backend_id, error="HTTP proxy read stalled"
                )
                if relayed:
                    return  # mid-body: the truncation is the signal
                continue
            except (ConnectionError, OSError) as exc:
                self.health.report_failure(spec.backend_id, error=str(exc))
                if relayed:
                    return  # mid-body: the truncation is the signal
                continue
            finally:
                b_writer.close()
                try:
                    await b_writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
        self.stats.no_replica += 1
        await http_reply(
            writer,
            503,
            {"error": f"no replica up for scene {name!r}", "tried": tried},
        )
