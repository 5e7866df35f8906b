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

The connection path, admission, drain and the shared HTTP routes are
:class:`repro.serve.server.WireServer`'s, written once for this class
and the cluster router; what is here is how a gateway fulfils a
request — render it on the service — and its own payloads.

See ``docs/serving.md`` for the wire-protocol spec and worked
examples, and ``docs/robustness.md`` for the failure model.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import asdict, dataclass

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.cloud import GaussianCloud, cloud_fingerprint
from repro.serve import protocol
from repro.serve.admission import AdmissionController, AdmissionRejected
from repro.serve.protocol import (
    ErrorCode,
    Frame,
    MessageType,
    ProtocolError,
    drain_within,
)
from repro.serve.server import (  # noqa: F401 - helpers once defined here
    HTTP_REASONS,
    WireServer,
    _Connection,
    authenticate_reader,
    http_reply,
    read_http_get,
)
from repro.serve.service import RenderService


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


class RenderGateway(WireServer):
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

    role = "gateway"

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
        super().__init__(
            GatewayStats(),
            host=host,
            max_pending=max_pending,
            admission=admission,
            max_scenes=max_scenes,
            auth_token=auth_token,
            write_timeout=write_timeout,
            tracer=tracer,
            node_id=node_id,
        )
        self.service = service
        self._scenes: "dict[str, GaussianCloud]" = {}
        self._orbits: "dict[str, list[Camera]]" = {}
        self._wire_scenes = 0

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

    # -- what the core asks of a gateway ---------------------------------
    def _hello_extras(self) -> dict:
        return {
            "scenes": sorted(self._orbits),
            "auth_required": self.auth_token is not None,
            "classes": list(self.admission.classes()),
            "default_class": self.admission.default_class,
        }

    async def _stats_payload(self) -> dict:
        return {
            "service": self.service.stats_dict(),
            "gateway": {
                **asdict(self.stats),
                "admission": self.admission.stats_dict(),
            },
        }

    def _healthz(self) -> "tuple[int, dict]":
        return 200, {"status": "ok"}

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

    def _fulfil(
        self, conn, request_id, frame, request_class, deadline, trace,
        client_trace,
    ):
        """Resolve the scene and decode the camera(s) before serving."""
        header = frame.header
        cloud = self._resolve_scene(header.get("scene_id"))
        stream = frame.type is MessageType.STREAM
        if stream:
            specs = header.get("cameras")
            if not isinstance(specs, list) or not specs:
                raise ProtocolError("STREAM needs a non-empty camera list")
        else:
            specs = [header.get("camera") or {}]
        return self._serve(
            conn, request_id, cloud,
            [protocol.decode_camera(spec) for spec in specs],
            request_class, deadline, trace, client_trace, stream=stream,
        )

    async def _serve(
        self,
        conn: _Connection,
        request_id: int,
        cloud: GaussianCloud,
        cameras: "list[Camera]",
        request_class: str,
        deadline: "float | None",
        trace: "str | None",
        client_trace: "str | None",
        *,
        stream: bool,
    ) -> None:
        """Serve one RENDER (one FRAME) or STREAM (ordered FRAMEs, END).

        A failure answers an ERROR frame instead: 504 once
        ``deadline`` (absolute monotonic, covering the service wait
        *and* every write) has passed — an answer the client can still
        act on, unlike a late frame — and 500 for a render failure.
        Closing the connection cancels this task (and with it the
        service-side work, whose pending unshared frames are dropped);
        a socket-level write failure counts as a client cancellation.
        ``writer.drain()`` is the flow control: a slow reader stalls a
        stream, and the service's ``prefetch`` bound caps what can pile
        up behind it.  The admission controller observes the time to
        the first frame only — later gaps include the client's own
        drain stalls, which are not service latency.
        """
        sent = 0
        try:
            loop = asyncio.get_running_loop()
            started = loop.time()
            if stream:
                results = self.service.stream_trajectory(
                    cloud, cameras, request_class=request_class,
                    deadline=deadline, trace=trace,
                )
            else:
                results = _one_frame(
                    self.service.render_frame(
                        cloud, cameras[0], request_class=request_class,
                        deadline=deadline, trace=trace,
                    )
                )
            async for index, result in results:
                if sent == 0:
                    self._observe(request_class, loop.time() - started)
                head, blob = protocol.result_frame_parts(
                    request_id, index, result,
                    backend=self.node_id, trace=client_trace,
                )
                wire_start = self.tracer.now() if self.tracer.enabled else 0.0
                await self._send(
                    conn, head, blob, deadline=deadline, request_id=request_id
                )
                if self.tracer.enabled:
                    self.tracer.record(
                        "wire",
                        trace=trace,
                        start=wire_start,
                        end=self.tracer.now(),
                        attrs={"bytes": len(head) + len(blob), "index": index},
                    )
                sent += 1
                self.stats.frames_sent += 1
            if stream:
                await self._send(
                    conn,
                    protocol.encode_frame(
                        MessageType.END, {"request_id": request_id, "frames": sent}
                    ),
                    request_id=request_id,
                )
        except asyncio.CancelledError:
            raise
        except asyncio.TimeoutError:
            self.stats.errors += 1
            await self._send_error(
                conn,
                request_id,
                ErrorCode.DEADLINE_EXCEEDED,
                f"stream deadline exceeded after {sent} frames"
                if stream
                else "deadline exceeded before the frame was ready",
            )
        except (ConnectionError, OSError):
            self.stats.cancelled_requests += 1
        except Exception as exc:
            self.stats.errors += 1
            await self._send_error(
                conn,
                request_id,
                ErrorCode.INTERNAL,
                f"{'stream' if stream else 'render'} failed: {exc}",
            )

    # -- HTTP adapter: /render and /stream over the named scenes ---------
    async def _http_fulfil(self, writer, path, target, query) -> None:
        """Resolve ``scene`` to a named orbit, then render or stream."""
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
        elif path == "/render":
            await self._http_render(writer, query, name, cameras)
        else:
            await self._http_stream(writer, query, name, cameras)

    async def _http_admit(self, writer, query, *, stream: bool):
        """Admit an HTTP request, or answer the refusal and return None."""
        try:
            return self._admit(query.get("class"), stream=stream)
        except AdmissionRejected as exc:
            await http_reply(
                writer,
                429,
                {"error": str(exc), "retry_after_ms": exc.retry_after_ms},
            )
        except ProtocolError as exc:
            # Unknown request class (400) or shutting down (503).
            await http_reply(writer, int(exc.code), {"error": str(exc)})
        return None

    async def _http_render(self, writer, query, name, cameras) -> None:
        """``/render?scene=NAME&view=I[&format=ppm|json]``."""
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
        ticket = await self._http_admit(writer, query, stream=False)
        if ticket is None:
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

    async def _http_stream(self, writer, query, name, cameras) -> None:
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
        ticket = await self._http_admit(writer, query, stream=True)
        if ticket is None:
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


async def _one_frame(render):
    """A one-shot render as a one-frame stream: ``(0, result)``."""
    yield 0, await render


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
