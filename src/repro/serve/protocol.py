"""The render gateway's wire protocol: length-prefixed JSON + binary.

One protocol serves both directions of a gateway connection.  Every
message is a *frame*::

    u32 payload_len | u8 msg_type | u32 header_len | header | blob
    (big-endian)      (MessageType) (big-endian)     (JSON)   (raw bytes)

``payload_len`` counts everything after the length prefix
(``1 + 4 + len(header) + len(blob)``).  The JSON ``header`` carries the
message's structured fields; the ``blob`` carries bulk binary payloads
(scene parameter arrays, rendered images) verbatim, so numeric data
crosses the wire **bit-exactly** — the serving layer's losslessness
guarantee extends through the socket.  Small float fields (camera
extrinsics, stat counters) ride in the JSON header: CPython's JSON
encoder emits the shortest round-tripping ``repr`` of a double, so they
are exact too.

Message types (:class:`MessageType`) and who sends them:

===========  =========  ====================================================
type         direction  meaning
===========  =========  ====================================================
HELLO        S -> C     greeting after connect: protocol version + limits
AUTH         C -> S     shared-secret token; required first frame when
                        HELLO carries ``auth_required``
SCENE        C -> S     register a Gaussian cloud (arrays in the blob)
SCENE_OK     S -> C     scene accepted; header carries its ``scene_id``
RENDER       C -> S     one-shot frame request for ``(scene_id, camera)``
STREAM       C -> S     trajectory request: ordered list of cameras
FRAME        S -> C     one rendered frame (image blob + stats header)
END          S -> C     a stream finished; header counts its frames
ERROR        S -> C     request-scoped or connection-scoped failure
CANCEL       C -> S     abandon a previously submitted request id
STATS        C -> S     ask for the service/gateway counters
STATS_OK     S -> C     the counters, as a JSON object
BYE          C -> S     graceful goodbye; the server closes the connection
METRICS      C -> S     ask for the observability export (counters,
                        gauges, per-stage latency histograms)
METRICS_OK   S -> C     the metrics snapshot, as a JSON object
===========  =========  ====================================================

``RENDER`` and ``STREAM`` headers may carry an optional ``class`` field
naming the request's admission class (``interactive`` | ``bulk`` |
``prefetch`` — see :mod:`repro.serve.admission`); absent means
``bulk``, so the field is backwards-compatible within protocol
version 2 and pre-class clients keep working unchanged.  They may also
carry an optional ``deadline_ms`` field: the remaining wall-clock
budget (milliseconds, relative to the message's arrival) after which
the sender no longer wants the answer.  Servers enforce it at every
await point and answer ``504 DEADLINE_EXCEEDED``; relays forward the
*remaining* budget downstream.  Absent means no deadline — exactly the
pre-deadline behaviour, so the field is also v2-compatible.

``RENDER`` and ``STREAM`` headers may also carry an optional ``trace``
field: an opaque printable trace id (≤ 120 chars) minted by the
requester.  Servers that trace stamp it on every span the request
produces and relays forward it downstream — including on failover
re-issues — so one request's spans stitch into one trace across
router, backend and replacement backend (see :mod:`repro.trace`).
Absent means untraced; servers never invent a wire-visible trace id,
so a client that sends none sees byte-identical responses whether or
not the server is tracing.  The field is v2-compatible like ``class``
and ``deadline_ms``.

``FRAME`` headers may carry an optional ``sha256`` field — the hex
digest of the frame's blob, stamped at the rendering gateway.  Relays
(the shard router) verify it before forwarding: a mismatch means the
backend or its link corrupted the image, and becomes a failover rather
than silently served bytes.  Clients verify it again on receipt.  The
router hashes on one process-wide digest thread (:func:`start_digest`),
which keeps its sha256 off the event loop; a frame that fails is still
never forwarded.  FRAME headers may also carry ``backend`` — the id of
the gateway that actually rendered the frame, stamped at the backend
and relayed verbatim, so a pooled client (and a trace) can see exactly
which replica served each frame even across a mid-stream failover —
and ``trace``, echoing the request's trace id when one was given.

Errors carry HTTP-flavoured codes (:class:`ErrorCode`): ``400`` malformed
frame or request, ``401`` missing or wrong shared-secret token, ``404``
unknown scene, ``413`` frame too large, ``429`` admission rejected (the
gateway is out of admission headroom for this class, or the class is
shed — the ERROR header carries a ``retry_after_ms`` back-off hint),
``500`` internal render failure, ``503`` shutting down / no replica up
(a draining server's 503 carries ``retry_after_ms`` and
``draining: true`` so clients and routers re-place work instead of
treating the backend as dead), ``504`` deadline exceeded.  A
malformed-but-framed message (bad JSON, unknown type, missing fields) is
*recoverable*: the server answers with a ``400`` ERROR frame and keeps
the connection; only a broken frame boundary (oversized length prefix,
EOF mid-frame) is fatal, because resynchronisation is impossible.

The full byte-level specification lives in ``docs/serving.md``.

.. warning::
    The optional shared-secret AUTH handshake (see
    :mod:`repro.serve.auth`) keys a deployment against accidental
    cross-talk, but the wire is still plain text — for untrusted
    networks the protocol still needs TLS in front of it.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import struct
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.cloud import GaussianCloud
from repro.raster.renderer import RenderResult
from repro.raster.stats import (
    RasterCounters,
    RenderStats,
    SortCounters,
    StageCounters,
)

#: Protocol version announced in HELLO; bumped on incompatible changes.
#: Version 2 added the AUTH handshake (backwards-compatible for
#: servers that do not require it).
PROTOCOL_VERSION = 2

#: Hard bound on a single frame's payload (64 MiB covers a 1080p float64
#: image ~12x over); a larger length prefix is treated as corruption.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_PREFIX = struct.Struct("!I")
_HEAD = struct.Struct("!BI")


class MessageType(IntEnum):
    """Wire message types (the ``msg_type`` byte of every frame)."""

    HELLO = 1
    SCENE = 2
    SCENE_OK = 3
    RENDER = 4
    STREAM = 5
    FRAME = 6
    END = 7
    ERROR = 8
    CANCEL = 9
    STATS = 10
    STATS_OK = 11
    BYE = 12
    AUTH = 13
    METRICS = 14
    METRICS_OK = 15


class ErrorCode(IntEnum):
    """HTTP-flavoured error codes carried by ERROR frames."""

    BAD_REQUEST = 400
    UNAUTHORIZED = 401
    UNKNOWN_SCENE = 404
    FRAME_TOO_LARGE = 413
    REJECTED = 429
    INTERNAL = 500
    SHUTTING_DOWN = 503
    DEADLINE_EXCEEDED = 504


class ProtocolError(Exception):
    """A malformed frame.

    ``fatal`` distinguishes recoverable damage (the frame was fully read
    but its contents are nonsense — the stream is still in sync) from
    unrecoverable damage (the frame *boundary* is corrupt, so nothing
    after it can be trusted and the connection must close).
    """

    def __init__(
        self,
        message: str,
        *,
        code: ErrorCode = ErrorCode.BAD_REQUEST,
        fatal: bool = False,
        retry_after_ms: "int | None" = None,
        draining: bool = False,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.fatal = fatal
        #: Optional machine-readable back-off hint; carried on 429
        #: ERROR frames so rejected clients spread their retries, and on
        #: a draining server's 503s so they come back after the restart.
        self.retry_after_ms = retry_after_ms
        #: True on a 503 from a *draining* server: the process is
        #: healthy and finishing in-flight work, so a router should
        #: re-place new requests elsewhere rather than probe it dead.
        self.draining = draining


@dataclass
class Frame:
    """One decoded wire frame: type byte, JSON header, binary blob.

    ``digest`` is the blob's sha256 hex being computed on the digest
    thread once :func:`start_digest` started it, else ``None``; it is
    not part of the frame's value.
    """

    type: MessageType
    header: dict
    blob: bytes = b""
    digest: "Future[str] | None" = field(
        default=None, repr=False, compare=False
    )


def encode_frame(
    msg_type: MessageType, header: "dict | None" = None, blob: bytes = b""
) -> bytes:
    """Serialise one frame to wire bytes (prefix + type + header + blob)."""
    return _frame_bytes(msg_type, _dumps(header or {}).encode("utf-8"), blob)


def _dumps(value) -> str:
    """The wire's JSON dialect: compact separators, NaN/inf refused."""
    return json.dumps(value, separators=(",", ":"), allow_nan=False)


def _frame_bytes(
    msg_type: MessageType, header_bytes: bytes, blob: "bytes | memoryview"
) -> bytes:
    """Frame an already-serialised JSON header and its blob."""
    payload_len = _HEAD.size + len(header_bytes) + len(blob)
    if payload_len > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {payload_len} bytes exceeds MAX_FRAME_BYTES",
            code=ErrorCode.FRAME_TOO_LARGE,
        )
    return b"".join(
        (
            _PREFIX.pack(payload_len),
            _HEAD.pack(int(msg_type), len(header_bytes)),
            header_bytes,
            blob,
        )
    )


def _parse_payload(payload: bytes) -> Frame:
    """Decode a frame's payload (everything after the length prefix)."""
    if len(payload) < _HEAD.size:
        raise ProtocolError("frame payload shorter than its fixed header")
    type_byte, header_len = _HEAD.unpack_from(payload)
    if _HEAD.size + header_len > len(payload):
        raise ProtocolError("frame header length exceeds the payload")
    try:
        msg_type = MessageType(type_byte)
    except ValueError as exc:
        raise ProtocolError(f"unknown message type {type_byte}") from exc
    header_bytes = payload[_HEAD.size : _HEAD.size + header_len]
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError("frame header must be a JSON object")
    return Frame(
        type=msg_type, header=header, blob=payload[_HEAD.size + header_len :]
    )


async def read_frame(
    reader, *, max_frame: int = MAX_FRAME_BYTES
) -> "Frame | None":
    """Read one frame from an :class:`asyncio.StreamReader`.

    Returns ``None`` on a clean EOF at a frame boundary.  Raises
    :class:`ProtocolError` with ``fatal=True`` when the frame boundary
    itself is corrupt (oversized length, EOF mid-frame) and with
    ``fatal=False`` when the frame was read whole but its contents are
    malformed — the caller may answer with an ERROR frame and continue.
    """
    try:
        prefix = await reader.readexactly(_PREFIX.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF at a frame boundary
        raise ProtocolError(
            "EOF inside a frame length prefix", fatal=True
        ) from exc
    (payload_len,) = _PREFIX.unpack(prefix)
    if payload_len > max_frame:
        raise ProtocolError(
            f"declared frame length {payload_len} exceeds the {max_frame}-byte "
            "bound",
            code=ErrorCode.FRAME_TOO_LARGE,
            fatal=True,
        )
    try:
        payload = await reader.readexactly(payload_len)
    except EOFError as exc:  # asyncio.IncompleteReadError subclasses EOFError
        raise ProtocolError("EOF inside a frame payload", fatal=True) from exc
    return _parse_payload(payload)


def read_frame_from(stream, *, max_frame: int = MAX_FRAME_BYTES) -> "Frame | None":
    """Blocking :func:`read_frame` over a file-like byte stream.

    ``stream`` is anything with a ``read(n)`` returning up to ``n`` bytes
    (e.g. ``socket.makefile("rb")``); used by the synchronous
    :class:`repro.serve.client.GatewayClient`.
    """
    prefix = _read_exact(stream, _PREFIX.size, allow_eof=True)
    if prefix is None:
        return None
    (payload_len,) = _PREFIX.unpack(prefix)
    if payload_len > max_frame:
        raise ProtocolError(
            f"declared frame length {payload_len} exceeds the {max_frame}-byte "
            "bound",
            code=ErrorCode.FRAME_TOO_LARGE,
            fatal=True,
        )
    payload = _read_exact(stream, payload_len)
    return _parse_payload(payload)


def _read_exact(stream, n: int, *, allow_eof: bool = False) -> "bytes | None":
    """Read exactly ``n`` bytes, or None on immediate EOF when allowed."""
    chunks: "list[bytes]" = []
    remaining = n
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            if allow_eof and remaining == n:
                return None
            raise ProtocolError("EOF inside a frame payload", fatal=True)
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# -- deadlines -----------------------------------------------------------
def deadline_from_header(header: dict) -> "float | None":
    """Parse a request header's optional ``deadline_ms`` field.

    Returns an **absolute** :func:`time.monotonic` instant (the budget
    is relative to arrival, so it must be pinned the moment the frame
    is decoded), or ``None`` when the field is absent.  A malformed or
    non-positive value is a recoverable ``400``: the sender asked for
    something impossible, not a corrupt stream.
    """
    raw = header.get("deadline_ms")
    if raw is None:
        return None
    try:
        budget_ms = float(raw)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid deadline_ms: {raw!r}") from exc
    if not (0 < budget_ms < float("inf")):  # also rejects NaN and inf
        raise ProtocolError(f"deadline_ms must be positive, got {raw!r}")
    return time.monotonic() + budget_ms / 1e3


def deadline_remaining_ms(deadline: "float | None") -> "int | None":
    """Remaining budget in whole milliseconds for forwarding downstream.

    Returns ``None`` for no deadline; clamps to ``>= 1`` so a nearly
    expired deadline still crosses the wire as a valid (positive)
    field — the receiver will expire it almost immediately, which is
    the honest outcome.
    """
    if deadline is None:
        return None
    return max(1, int((deadline - time.monotonic()) * 1e3))


def deadline_expired(message: str = "deadline exceeded") -> ProtocolError:
    """The canonical 504: recoverable (the connection stays usable)."""
    return ProtocolError(message, code=ErrorCode.DEADLINE_EXCEEDED)


def trace_from_header(header: dict) -> "str | None":
    """Parse a request header's optional ``trace`` field.

    Returns the validated trace id, or ``None`` when absent.  A
    non-string, empty, oversized or unprintable value is a recoverable
    ``400`` — the frame boundary is intact, the requester just sent a
    nonsense id.
    """
    raw = header.get("trace")
    if raw is None:
        return None
    from repro.trace.tracer import valid_trace_id

    if not valid_trace_id(raw):
        raise ProtocolError(f"invalid trace id: {raw!r}")
    return raw


async def drain_within(
    writer: "asyncio.StreamWriter",
    timeout: "float | None",
    what: str = "write",
) -> None:
    """``writer.drain()`` with a stall bound.

    A peer that stops reading makes a bare ``drain()`` hang forever
    once the socket buffer fills — the write-stall failure mode the
    chaos proxy injects.  Bounding it turns a wedged peer into an
    explicit :class:`ConnectionError` after ``timeout`` seconds (the
    transport is aborted: the stream is unfinishable, so there is
    nothing gentler to do).  ``timeout=None`` keeps the unbounded
    behaviour.
    """
    transport = writer.transport
    if timeout is None or (
        transport is not None and transport.get_write_buffer_size() == 0
    ):
        # Fast path: with an empty write buffer, drain() cannot block
        # (flow control only pauses above the high-water mark), so the
        # wait_for scaffolding — an extra future, a timer and at least
        # one event-loop cycle per frame — would be pure overhead on
        # the hot send path.
        await writer.drain()
        return
    try:
        # Not wait_for: on 3.11 it can swallow a cancel that lands as
        # the drain completes, and a cancelled stream writes on.  The
        # drain still runs as a task of its own, as wait_for ran it:
        # awaited inline, a stream refills its buffer a loop turn or two
        # sooner and the other connections' first frames wait behind
        # it (gateway_replay ttff_ms_p50 +25 % on a 2-core VM).
        async with asyncio.timeout(timeout):
            await asyncio.ensure_future(writer.drain())
    except TimeoutError:
        transport = writer.transport
        if transport is not None:
            transport.abort()
        raise ConnectionError(
            f"{what} stalled for {timeout:.1f}s; peer aborted"
        ) from None


# -- the client side of the connection handshake -------------------------
def _check_hello(frame: "Frame | None", auth_token: "str | None") -> dict:
    """Validate a HELLO and decide whether a token must be presented."""
    if frame is None or frame.type is not MessageType.HELLO:
        raise ProtocolError("peer did not send HELLO")
    if auth_token is None and frame.header.get("auth_required"):
        raise ProtocolError(
            "peer requires a shared-secret token and none was given",
            code=ErrorCode.UNAUTHORIZED,
        )
    return frame.header


async def client_hello(
    reader, writer: "asyncio.StreamWriter", auth_token: "str | None"
) -> dict:
    """Consume HELLO and run the client side of the AUTH handshake.

    Returns the HELLO header.  Raises :class:`ProtocolError` when the
    peer's first frame is not a HELLO, and with
    ``code=ErrorCode.UNAUTHORIZED`` when the peer requires auth and no
    token was given — failing fast client-side instead of dying on the
    first real request.  Shared by every asyncio protocol client
    (:class:`~repro.serve.client.AsyncGatewayClient`, the cluster
    router's backend links, the health prober) so the handshake cannot
    drift between them; :func:`client_hello_blocking` is the
    synchronous twin.
    """
    header = _check_hello(await read_frame(reader), auth_token)
    if auth_token is not None:
        writer.write(encode_frame(MessageType.AUTH, {"token": auth_token}))
        await writer.drain()
    return header


def client_hello_blocking(stream, send, auth_token: "str | None") -> dict:
    """Blocking :func:`client_hello` over ``(read stream, send callable)``.

    ``stream`` is a file-like byte reader (see :func:`read_frame_from`);
    ``send`` takes wire bytes (e.g. ``socket.sendall``).
    """
    header = _check_hello(read_frame_from(stream), auth_token)
    if auth_token is not None:
        send(encode_frame(MessageType.AUTH, {"token": auth_token}))
    return header


# -- payload codecs ------------------------------------------------------
#: Cloud parameter arrays, in their fixed wire order.
_CLOUD_FIELDS = ("positions", "scales", "rotations", "opacities", "sh_coeffs")


def encode_cloud(cloud: GaussianCloud) -> "tuple[dict, bytes]":
    """Encode a cloud's parameter arrays as ``(header, blob)``.

    The header lists each array's dtype and shape; the blob is their raw
    bytes concatenated in :data:`_CLOUD_FIELDS` order, so the decoded
    cloud fingerprints identically to the original.
    """
    arrays = []
    parts = []
    for name in _CLOUD_FIELDS:
        array = np.ascontiguousarray(getattr(cloud, name))
        arrays.append(
            {"name": name, "dtype": array.dtype.str, "shape": list(array.shape)}
        )
        parts.append(array.tobytes())
    return {"arrays": arrays}, b"".join(parts)


def decode_cloud(header: dict, blob: bytes) -> GaussianCloud:
    """Rebuild a :class:`GaussianCloud` from :func:`encode_cloud` output."""
    specs = header.get("arrays")
    if (
        not isinstance(specs, list)
        or not all(isinstance(spec, dict) for spec in specs)
        or [spec.get("name") for spec in specs] != list(_CLOUD_FIELDS)
    ):
        raise ProtocolError("scene header must list the five cloud arrays")
    fields = {}
    offset = 0
    for spec in specs:
        try:
            dtype = np.dtype(spec["dtype"])
            shape = tuple(int(dim) for dim in spec["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"bad scene array spec: {exc}") from exc
        if any(dim < 0 for dim in shape):
            raise ProtocolError("scene array shapes must be non-negative")
        count = int(np.prod(shape, dtype=np.int64))
        nbytes = dtype.itemsize * count
        if offset + nbytes > len(blob):
            raise ProtocolError("scene blob shorter than its array specs")
        fields[spec["name"]] = (
            np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
            .reshape(shape)
            .copy()  # GaussianCloud normalises in place; keep it writable
        )
        offset += nbytes
    if offset != len(blob):
        raise ProtocolError("scene blob longer than its array specs")
    try:
        cloud = GaussianCloud(**fields)
    except ValueError as exc:
        raise ProtocolError(f"invalid cloud parameters: {exc}") from exc
    # __post_init__ re-normalises quaternions, which is not bit-idempotent
    # (dividing by a norm of ~1.0 can flip last-ulp bits).  The sender's
    # rotations were already normalised, so restore their exact bytes —
    # required for the served-frames-bit-identical guarantee and for
    # content fingerprints to agree across the wire.  A sender that did
    # ship unnormalised rotations keeps the normalised version.
    if np.allclose(cloud.rotations, fields["rotations"], atol=1e-9):
        cloud.rotations = fields["rotations"]
    return cloud


def encode_camera(camera: Camera) -> dict:
    """Camera -> JSON-safe dict (floats round-trip exactly via repr)."""
    return {
        "width": camera.width,
        "height": camera.height,
        "fx": camera.fx,
        "fy": camera.fy,
        "near": camera.near,
        "far": camera.far,
        "rotation": np.asarray(camera.rotation, dtype=np.float64)
        .reshape(-1)
        .tolist(),
        "translation": np.asarray(camera.translation, dtype=np.float64).tolist(),
    }


def decode_camera(header: dict) -> Camera:
    """Rebuild a :class:`Camera` from :func:`encode_camera` output."""
    try:
        rotation = np.asarray(header["rotation"], dtype=np.float64).reshape(3, 3)
        translation = np.asarray(header["translation"], dtype=np.float64)
        return Camera(
            width=int(header["width"]),
            height=int(header["height"]),
            fx=float(header["fx"]),
            fy=float(header["fy"]),
            rotation=rotation,
            translation=translation,
            near=float(header["near"]),
            far=float(header["far"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid camera: {exc}") from exc


def _plain(value):
    """Coerce numpy scalars to built-ins so json can serialise them."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def encode_stats(stats: RenderStats) -> dict:
    """RenderStats -> JSON-safe dict; exact for every counter.

    Ints stay ints; floats round-trip exactly through JSON (shortest
    ``repr``); ``per_tile_alpha``'s int keys are shipped as ``[tile,
    count]`` pairs because JSON objects only key on strings.
    """
    return {
        "preprocess": {
            k: _plain(v) for k, v in vars(stats.preprocess).items()
        },
        "sort": {k: _plain(v) for k, v in vars(stats.sort).items()},
        "raster": {k: _plain(v) for k, v in vars(stats.raster).items()},
        "bitmask_tests": _plain(stats.bitmask_tests),
        "bitmask_test_cost": _plain(stats.bitmask_test_cost),
        "num_bitmasks": _plain(stats.num_bitmasks),
        "bitmask_bits": _plain(stats.bitmask_bits),
        "num_filter_checks": _plain(stats.num_filter_checks),
        "per_tile_alpha": sorted(
            (int(tile), int(alpha))
            for tile, alpha in stats.per_tile_alpha.items()
        ),
    }


def decode_stats(header: dict) -> RenderStats:
    """Rebuild a :class:`RenderStats` from :func:`encode_stats` output."""
    try:
        return RenderStats(
            preprocess=StageCounters(**header["preprocess"]),
            sort=SortCounters(**header["sort"]),
            raster=RasterCounters(**header["raster"]),
            bitmask_tests=header["bitmask_tests"],
            bitmask_test_cost=header["bitmask_test_cost"],
            num_bitmasks=header["num_bitmasks"],
            bitmask_bits=header["bitmask_bits"],
            num_filter_checks=header["num_filter_checks"],
            per_tile_alpha={
                int(tile): int(alpha)
                for tile, alpha in header["per_tile_alpha"]
            },
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid stats payload: {exc}") from exc


def blob_digest(blob: bytes) -> str:
    """The checksum stamped on FRAME headers: sha256 hex of the blob."""
    return hashlib.sha256(blob).hexdigest()


def verify_frame_checksum(frame: Frame) -> None:
    """Verify a FRAME's optional ``sha256`` header against its blob.

    A missing checksum passes (pre-checksum peers stay compatible); a
    present-but-wrong one raises a *recoverable* :class:`ProtocolError`
    — the frame boundary is intact, only the image bytes are damaged,
    so the caller (router relay, client read loop) can treat it as a
    backend failure and re-fetch instead of serving corrupt pixels.
    """
    expected = frame.header.get("sha256")
    if expected is None:
        return
    _require_checksum(expected, blob_digest(frame.blob))


def _require_checksum(expected: str, actual: str) -> None:
    if actual != expected:
        raise ProtocolError(
            f"FRAME blob checksum mismatch (header {expected[:12]}…, "
            f"blob {actual[:12]}…)",
            code=ErrorCode.INTERNAL,
        )


async def verify_frame_checksum_async(frame: Frame) -> None:
    """:func:`verify_frame_checksum`, collecting a digest already started.

    A finished digest is used as it is.  A running one is awaited: the
    event loop serves other connections while it finishes.  One still
    queued behind other frames' digests is withdrawn and the blob
    hashed inline, as is a frame with no digest started.
    """
    pending = frame.digest
    if pending is None or pending.cancel():
        verify_frame_checksum(frame)
        return
    if not pending.done():
        await asyncio.wrap_future(pending)
    _require_checksum(frame.header["sha256"], pending.result())


#: The process-wide digest thread behind :func:`start_digest`.
_DIGEST_EXECUTOR: "ThreadPoolExecutor | None" = None
_DIGEST_LOCK = threading.Lock()


def _digest_executor() -> ThreadPoolExecutor:
    """The digest thread, created on first use.

    ``hashlib`` releases the GIL while it hashes a frame-sized blob, so
    a digest runs on a core the event loop is not using.  One thread,
    shared by every link in the process: digests run in the order they
    were started.
    """
    global _DIGEST_EXECUTOR
    with _DIGEST_LOCK:
        if _DIGEST_EXECUTOR is None:
            _DIGEST_EXECUTOR = ThreadPoolExecutor(
                1, thread_name_prefix="frame-digest"
            )
        return _DIGEST_EXECUTOR


def _forget_digest_executor() -> None:
    """Fork hook: a child owns neither its parent's thread nor its lock."""
    global _DIGEST_EXECUTOR, _DIGEST_LOCK
    _DIGEST_EXECUTOR = None
    _DIGEST_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_forget_digest_executor)


def start_digest(frame: Frame) -> None:
    """Start hashing a checksummed frame's blob on the digest thread.

    A read loop calls this as the frame arrives, so the hash overlaps
    what the event loop does until :func:`verify_frame_checksum_async`
    collects it.  A frame without a ``sha256`` header starts nothing.
    """
    if frame.header.get("sha256") is not None:
        frame.digest = _digest_executor().submit(blob_digest, frame.blob)


class WireResult(RenderResult):
    """A :class:`RenderResult` that remembers its FRAME parts.

    ``blob`` (the image's raw bytes), ``digest`` (the blob's sha256 hex)
    and ``stats_json`` (the stats' wire JSON) are each computed at most
    once per result — on first use, or never when whoever built the
    result already had them (:class:`~repro.serve.render_cache.
    SharedRenderCache` stores all three at ``put`` and hands hits back
    with them filled in, ``blob`` as a view of the shared pages).
    Everything that needs a frame's digest or bytes — the FRAME
    encoder, trace spans, the HTTP JSON record — reads them here, so a
    frame is hashed once per process, not once per consumer.
    """

    @cached_property
    def blob(self) -> "bytes | memoryview":
        return np.ascontiguousarray(self.image).tobytes()

    @cached_property
    def digest(self) -> str:
        return blob_digest(self.blob)

    @cached_property
    def stats_json(self) -> str:
        return _dumps(encode_stats(self.stats))

    def __getstate__(self) -> dict:
        # A hit's blob views another process's mapping; the image
        # pickles by value and the blob is recomputed on demand.
        state = dict(self.__dict__)
        state.pop("blob", None)
        return state


def wire_result(result: RenderResult) -> WireResult:
    """``result`` as a :class:`WireResult` (itself when it already is one)."""
    if isinstance(result, WireResult):
        return result
    return WireResult(
        image=result.image,
        stats=result.stats,
        projected=result.projected,
        assignment=result.assignment,
    )


def encode_result_frame(
    request_id: int,
    index: int,
    result: RenderResult,
    *,
    checksum: bool = True,
    backend: "str | None" = None,
    trace: "str | None" = None,
) -> bytes:
    """Encode one rendered frame as a FRAME wire message.

    The image travels as raw bytes (bit-exact); the stats ride in the
    header, along with a ``sha256`` digest of the blob (unless
    ``checksum=False``) so relays and clients can detect in-flight
    corruption.  ``projected``/``assignment`` are not shipped — the
    same contract as frames returned from the render pool
    (:func:`repro.engine.render_in_pool`; per-frame O(cloud) arrays no
    serving consumer reads).

    ``backend`` stamps the serving node's id on the frame (stamped
    whether or not tracing is on, so traced and untraced responses stay
    byte-identical); ``trace`` echoes the *requester's* trace id back —
    pass it only when the request carried one, never a server-minted
    id.

    The header is assembled from the result's :class:`WireResult` parts
    — the per-frame constants (stats JSON, digest, blob) a cache hit
    already carries — around the per-request fields, in the fixed key
    order ``request_id, index, image, stats[, backend][, trace]
    [, sha256]``: the same bytes ``json.dumps`` of the whole header
    would give, without re-serialising what cannot have changed.
    """
    wire = wire_result(result)
    image = wire.image
    parts = [
        '{"request_id":', _dumps(request_id),
        ',"index":', _dumps(index),
        ',"image":', _dumps({"dtype": image.dtype.str, "shape": list(image.shape)}),
        ',"stats":', wire.stats_json,
    ]
    if backend is not None:
        parts += (',"backend":', _dumps(backend))
    if trace is not None:
        parts += (',"trace":', _dumps(trace))
    if checksum:
        parts += (',"sha256":"', wire.digest, '"')
    parts.append("}")
    return _frame_bytes(
        MessageType.FRAME, "".join(parts).encode("utf-8"), wire.blob
    )


def decode_result_frame(frame: Frame) -> "tuple[int, int, RenderResult]":
    """Decode a FRAME message to ``(request_id, index, RenderResult)``.

    The image is a read-only zero-copy view over the received bytes.
    """
    try:
        spec = frame.header["image"]
        dtype = np.dtype(spec["dtype"])
        shape = tuple(int(dim) for dim in spec["shape"])
        request_id = int(frame.header["request_id"])
        index = int(frame.header["index"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid FRAME header: {exc}") from exc
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    if count * dtype.itemsize != len(frame.blob):
        raise ProtocolError("FRAME blob size does not match its image spec")
    image = np.frombuffer(frame.blob, dtype=dtype, count=count).reshape(shape)
    stats = decode_stats(frame.header["stats"])
    return request_id, index, RenderResult(
        image=image, stats=stats, projected=None, assignment=None
    )
