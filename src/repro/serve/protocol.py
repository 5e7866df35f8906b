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

Message types (:class:`MessageType`), who sends each, and each one's
header fields in wire order are declared once, in :data:`MESSAGES`.
The table is the contract: :func:`check_request` validates RENDER,
STREAM and CANCEL headers against it for every server, :func:`header`
builds request and ERROR headers from it for every requester,
:func:`error_fields` reads ERROR headers for every receiver, and the
``docs/serving.md`` message table is checked against it.

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
import keyword
import math
import operator
import os
import re
import struct
import sys
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property
from typing import NamedTuple

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

    A received ``blob`` is a read-only view of the buffer the payload
    arrived in.  ``digest`` is the blob's sha256 hex being computed on
    the digest thread once :func:`start_digest` started it, else
    ``None``; it is not part of the frame's value.
    """

    type: MessageType
    header: dict
    blob: "bytes | memoryview" = b""
    digest: "Future[str] | None" = field(
        default=None, repr=False, compare=False
    )


# -- the message table ---------------------------------------------------
class Field(NamedTuple):
    """One header field: its wire name, its kind (a key of :data:`KINDS`)
    and whether every message of its type carries it."""

    name: str
    kind: str
    required: bool


class Message(NamedTuple):
    """One message type: who sends it, its header fields in wire order,
    what its blob carries, and what the fields do not say."""

    direction: str
    fields: "tuple[Field, ...]"
    blob: str
    note: str


def _message(direction: str, fields: str = "", blob: str = "—", note: str = ""):
    """A :class:`Message` from ``"name:kind name:kind? …"`` (a trailing
    ``?`` marks an optional field)."""
    specs = (item.split(":") for item in fields.split())
    parsed = tuple(Field(name, k.rstrip("?"), not k.endswith("?")) for name, k in specs)
    return Message(direction, parsed, blob, note)


_SURROGATE = re.compile(r"[\ud800-\udfff]")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str(value) -> bool:
    """A string UTF-8 can carry: a JSON ``\\ud800`` escape is not one."""
    return isinstance(value, str) and not _SURROGATE.search(value)


def _is_trace(value) -> bool:
    from repro.trace.tracer import valid_trace_id

    return valid_trace_id(value)


#: Field kinds: what a value must be, and the 400 a request whose field
#: is not answers (``{type}``, ``{field}`` and ``{value}`` filled in).
#: A budget is a positive number of milliseconds a float can hold.
KINDS = {
    "int": (_is_int, "{field} must be an integer"),
    "str": (_is_str, "{field} must be a string"),
    "bool": (lambda v: isinstance(v, bool), "{field} must be a bool"),
    "object": (lambda v: isinstance(v, dict), "{field} must be an object"),
    "list": (lambda v: isinstance(v, list), "{field} must be a list"),
    "camera": (lambda v: isinstance(v, dict), "{type} needs a camera object"),
    "cameras": (
        lambda v: isinstance(v, list) and v and all(isinstance(c, dict) for c in v),
        "{type} needs a non-empty camera list",
    ),
    "budget": (
        lambda v: (_is_int(v) or isinstance(v, float)) and 0 < v <= sys.float_info.max,
        "{field} must be a positive number, got {value!r}",
    ),
    "trace": (_is_trace, "invalid trace id: {value!r}"),
    "any": (lambda v: True, ""),
}

_REQUEST = "request_id:int scene_id:str {} class:str? deadline_ms:budget? trace:trace?"

#: Every message type's header, in wire order (see the module doc).
MESSAGES = {
    MessageType.HELLO: _message(
        "S→C on connect",
        "version:int max_pending:int scenes:list auth_required:bool classes:list "
        "default_class:str role:str? backends:int? replication:int?",
        note="each server keeps its own key order; only a router sends the last three",
    ),
    MessageType.SCENE: _message(
        "C→S", "arrays:list", "the five cloud arrays, concatenated",
        note="`[{name, dtype, shape}, …]`",
    ),
    MessageType.SCENE_OK: _message("S→C", "scene_id:str", note="content fingerprint"),
    MessageType.RENDER: _message("C→S", _REQUEST.format("camera:camera")),
    MessageType.STREAM: _message("C→S", _REQUEST.format("cameras:cameras")),
    MessageType.FRAME: _message(
        "S→C",
        "request_id:int index:int image:object stats:object backend:str? "
        "trace:trace? sha256:str?",
        "raw image bytes",
        note="`image` is `{dtype, shape}`",
    ),
    MessageType.END: _message("S→C", "request_id:int frames:int"),
    MessageType.ERROR: _message(
        "S→C",
        "request_id:any code:int message:str retry_after_ms:int? draining:bool?",
        note="`request_id` is the failed request's as sent, or null",
    ),
    MessageType.CANCEL: _message("C→S", "request_id:int"),
    MessageType.STATS: _message("C→S"),
    MessageType.STATS_OK: _message("S→C", "service:object gateway:object"),
    MessageType.BYE: _message("C→S (goodbye) / S→C (drain)", "draining:bool?"),
    MessageType.AUTH: _message("C→S first frame", "token:str"),
    MessageType.METRICS: _message("C→S"),
    MessageType.METRICS_OK: _message("S→C", "node:str", note="the `/metrics` document"),
}

#: Replies that carry no request id: each answers the control message
#: sent before it (SCENE, STATS, METRICS), or is a connection-scoped
#: ERROR.  Their order on the connection is their only correlation.
CONTROL_REPLIES = (
    MessageType.SCENE_OK, MessageType.STATS_OK,
    MessageType.METRICS_OK, MessageType.ERROR,
)


@dataclass
class Request:
    """A checked RENDER, STREAM or CANCEL (:func:`check_request`).

    ``cameras`` are the raw camera objects (a RENDER's one, in a list);
    ``deadline`` is the budget pinned at arrival; ``trace`` the
    requester's id, the only one ever echoed or forwarded.  A server
    resolves ``request_class`` to its roster and sets ``span_trace``,
    the id its own spans carry (``trace``, or one it minted).
    """

    request_id: int
    scene_id: "str | None" = None
    cameras: "list[dict]" = field(default_factory=list)
    stream: bool = False
    request_class: "str | None" = None
    deadline: "float | None" = None
    trace: "str | None" = None
    span_trace: "str | None" = None


def check_request(frame: Frame) -> Request:
    """Check a RENDER, STREAM or CANCEL header against :data:`MESSAGES`.

    Every field is checked and nothing is decoded: a required field
    that is missing, or any field of the wrong kind, is a recoverable
    400.  An optional field sent as ``null`` is absent.
    """
    values = {}
    for spec in MESSAGES[frame.type].fields:
        value = values[spec.name] = frame.header.get(spec.name)
        valid, message = KINDS[spec.kind]
        if (value is not None or spec.required) and not valid(value):
            raise ProtocolError(
                message.format(type=frame.type.name, field=spec.name, value=value)
            )
    if frame.type is MessageType.CANCEL:
        return Request(values["request_id"])
    return Request(
        values["request_id"], values["scene_id"],
        values.get("cameras") or [values.get("camera")],
        frame.type is MessageType.STREAM, values["class"],
        deadline_from_ms(values["deadline_ms"]), values["trace"],
    )


def header(msg_type: MessageType, **values) -> dict:
    """A ``msg_type`` header with its fields in :data:`MESSAGES` order.

    A required field is always written; an optional one given as
    ``None`` is left off.  ``class`` is passed as ``class_``.
    """
    built = {}
    for spec in MESSAGES[msg_type].fields:
        value = values.pop(
            spec.name + "_" if keyword.iskeyword(spec.name) else spec.name, None
        )
        if value is not None or spec.required:
            built[spec.name] = value
    if values:
        raise TypeError(f"{msg_type.name} has no field {next(iter(values))!r}")
    return built


def error_fields(frame: Frame) -> ProtocolError:
    """An ERROR frame's fields, as the :class:`ProtocolError` it reports.

    A ``code`` that is missing, not an integer or not an
    :class:`ErrorCode` reads as 500 INTERNAL; a ``retry_after_ms`` that
    is not an integer, as none.
    """
    code, retry_after_ms = (frame.header.get(k) for k in ("code", "retry_after_ms"))
    return ProtocolError(
        str(frame.header.get("message", "peer error")),
        code=ErrorCode(code) if code in list(ErrorCode) else ErrorCode.INTERNAL,
        retry_after_ms=retry_after_ms if _is_int(retry_after_ms) else None,
        draining=frame.header.get("draining") is True,
    )


def encode_frame(
    msg_type: MessageType, header: "dict | None" = None, blob: bytes = b""
) -> bytes:
    """Serialise one frame to wire bytes (prefix + type + header + blob)."""
    return b"".join(
        _frame_parts(msg_type, _dumps(header or {}).encode("utf-8"), blob)
    )


def _dumps(value) -> str:
    """The wire's JSON dialect: compact separators, NaN/inf refused."""
    return json.dumps(value, separators=(",", ":"), allow_nan=False)


def _frame_parts(
    msg_type: MessageType, header_bytes: bytes, blob: "bytes | memoryview"
) -> "tuple[bytes, bytes | memoryview]":
    """Frame an already-serialised JSON header and its blob as two
    buffers, ``(prefix + type + header, blob)``, so a large blob is
    written to the socket without first being copied."""
    payload_len = _HEAD.size + len(header_bytes) + len(blob)
    if payload_len > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {payload_len} bytes exceeds MAX_FRAME_BYTES",
            code=ErrorCode.FRAME_TOO_LARGE,
        )
    return (
        _PREFIX.pack(payload_len)
        + _HEAD.pack(int(msg_type), len(header_bytes))
        + header_bytes,
        blob,
    )


def _finite(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise ValueError(f"{text} is not a finite JSON number")
    return value


#: The wire's JSON dialect, read side: what the encoder refuses to
#: write — NaN, Infinity, and a literal like 1e400 that overflows a
#: double — is refused.
_HEADER_DECODER = json.JSONDecoder(parse_constant=_finite, parse_float=_finite)


def _parse_payload(payload: "bytes | bytearray") -> Frame:
    """Decode a frame's payload (everything after the length prefix).

    The blob is a read-only view of ``payload``, not a copy.
    """
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
        header = _HEADER_DECODER.decode(header_bytes.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON, a non-finite number and
        # an integer literal too long to convert; RecursionError, nesting
        # too deep to parse.
        raise ProtocolError(f"undecodable frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError("frame header must be a JSON object")
    blob = memoryview(payload).toreadonly()[_HEAD.size + header_len :]
    return Frame(type=msg_type, header=header, blob=blob)


async def read_frame(reader) -> "Frame | None":
    """Read one frame from an :class:`asyncio.StreamReader`.

    Returns ``None`` on a clean EOF at a frame boundary.  Raises
    :class:`ProtocolError` with ``fatal=True`` when the frame boundary
    itself is corrupt (oversized length, EOF mid-frame) and with
    ``fatal=False`` when the frame was read whole but its contents are
    malformed — the caller may answer with an ERROR frame and continue.
    A :class:`FrameReader` gives the same answers.
    """
    if isinstance(reader, FrameReader):
        return await reader.read()
    try:
        prefix = await reader.readexactly(_PREFIX.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF at a frame boundary
        raise ProtocolError(
            "EOF inside a frame length prefix", fatal=True
        ) from exc
    (payload_len,) = _PREFIX.unpack(prefix)
    _check_length(payload_len)
    try:
        payload = await reader.readexactly(payload_len)
    except EOFError as exc:  # asyncio.IncompleteReadError subclasses EOFError
        raise ProtocolError("EOF inside a frame payload", fatal=True) from exc
    return _parse_payload(payload)


def read_frame_from(stream) -> "Frame | None":
    """Blocking :func:`read_frame` over a file-like byte stream.

    ``stream`` is anything with a ``read(n)`` returning up to ``n`` bytes
    (e.g. ``io.BytesIO`` over bytes captured off a socket); used to
    decode recorded frames outside an event loop.
    """
    prefix = _read_exact(stream, _PREFIX.size, allow_eof=True)
    if prefix is None:
        return None
    (payload_len,) = _PREFIX.unpack(prefix)
    _check_length(payload_len)
    payload = _read_exact(stream, payload_len)
    return _parse_payload(payload)


def _check_length(payload_len: int) -> None:
    """Refuse a declared payload length above ``MAX_FRAME_BYTES`` (a
    fatal 413: the stream's framing can no longer be trusted)."""
    if payload_len > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"declared frame length {payload_len} exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound",
            code=ErrorCode.FRAME_TOO_LARGE,
            fatal=True,
        )


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


#: Bytes of whole frames a :class:`FrameReader` holds unread before it
#: stops reading its socket.  A FRAME is some 400 KB; room for a few of
#: them lets the socket drain as fast as frames arrive, so the kernel's
#: receive buffer (and with it how often the sender's writes block) grows
#: the same way every run.
READ_LIMIT = 1 << 20

#: Bytes a :class:`FrameReader` receives at once while no payload is in
#: progress: the next length prefix, and the small frames behind it.
_STAGE_BYTES = 64 * 1024


class FrameReader(asyncio.streams.FlowControlMixin, asyncio.BufferedProtocol):
    """The receiving end of a frame connection: each payload is received
    into a ``bytearray`` of exactly its size.

    Bytes arrive in a small staging buffer until a length prefix is
    whole.  The prefix is checked against ``MAX_FRAME_BYTES`` before
    anything is allocated; then the payload's buffer is allocated, the
    part of it already staged is copied in, and the socket receives the
    rest straight into it (``recv_into``).  A 400 KB FRAME is never copied
    whole, and its blob is a view of that buffer (:func:`_parse_payload`).

    :meth:`read` gives what :func:`read_frame` gives over a
    ``StreamReader``: ``None`` on EOF at a frame boundary, a fatal
    :class:`ProtocolError` on EOF inside a prefix or payload or on an
    oversized prefix, a recoverable one for a malformed payload.  Frames
    that arrived before the peer closed (or before a fatal error) are
    read first.  Past ``READ_LIMIT`` bytes of unread frames, the socket
    is no longer read until the reader catches up.

    The write side is asyncio's: pair it with a :class:`asyncio.
    StreamWriter` (:func:`open_frame_connection`), whose ``drain`` waits
    on this protocol's flow control.
    """

    def __init__(self, *, loop=None) -> None:
        super().__init__(loop=loop)
        self._stage = bytearray(_STAGE_BYTES)
        self._staged = 0  # bytes in _stage: less than one length prefix
        # The unfilled part of the payload arriving (a view of it).
        self._into: "memoryview | None" = None
        self._frames: "deque[bytearray]" = deque()
        self._unread = 0  # bytes of whole frames not yet read
        self._waiter: "asyncio.Future | None" = None
        self._eof = False
        self._error: "BaseException | None" = None
        self._transport = None
        self._reading = True
        self._closed = self._loop.create_future()

    # -- the event loop's side ---------------------------------------------
    def connection_made(self, transport) -> None:
        self._transport = transport

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._into is not None:
            return self._into
        return memoryview(self._stage)[self._staged :]

    def buffer_updated(self, nbytes: int) -> None:
        if self._error is not None:
            return  # past a fatal error nothing more is framed
        if self._into is not None:
            payload = self._into.obj
            self._into = self._into[nbytes:]
            if not self._into:
                self._into = None
                self._arrived(payload)
            return
        end = self._staged + nbytes
        stage = self._stage
        start = 0
        while end - start >= _PREFIX.size:
            (size,) = _PREFIX.unpack_from(stage, start)
            try:
                _check_length(size)
            except ProtocolError as exc:
                self._fail(exc)
                return
            start += _PREFIX.size
            staged = min(size, end - start)
            payload = bytearray(size)
            payload[:staged] = memoryview(stage)[start : start + staged]
            start += staged
            if staged < size:
                self._into = memoryview(payload)[staged:]
                break
            self._arrived(payload)
        self._staged = end - start
        if self._staged:
            stage[: self._staged] = stage[start:end]

    def eof_received(self) -> bool:
        self._eof = True
        self._wake()
        return True  # a half-close: what the peer sent stays readable

    def connection_lost(self, exc) -> None:
        super().connection_lost(exc)
        self._eof = True
        if exc is not None and self._error is None:
            self._error = exc
        if not self._closed.done():
            if exc is None:
                self._closed.set_result(None)
            else:
                self._closed.set_exception(exc)
        self._transport = None
        self._wake()

    def _get_close_waiter(self, stream) -> "asyncio.Future":
        return self._closed

    def __del__(self) -> None:
        closed = getattr(self, "_closed", None)
        if closed is not None and closed.done() and not closed.cancelled():
            closed.exception()  # retrieved: nobody else may look

    def _arrived(self, payload: bytearray) -> None:
        self._frames.append(payload)
        self._unread += len(payload)
        if self._unread > READ_LIMIT and self._reading:
            self._reading = False
            self._transport.pause_reading()
        self._wake()

    def _fail(self, error: ProtocolError) -> None:
        self._error = error
        self._into = None
        self._staged = 0
        self._wake()

    def _wake(self) -> None:
        if self._waiter is not None and not self._waiter.done():
            self._waiter.set_result(None)

    # -- the reading task's side -------------------------------------------
    async def read(self) -> "Frame | None":
        """The next frame (see the class doc for EOF and errors)."""
        while not self._frames:
            if self._error is not None:
                raise self._error
            if self._eof:
                if self._into is not None:
                    raise ProtocolError(
                        "EOF inside a frame payload", fatal=True
                    )
                if self._staged:
                    raise ProtocolError(
                        "EOF inside a frame length prefix", fatal=True
                    )
                return None
            self._waiter = self._loop.create_future()
            try:
                await self._waiter
            finally:
                self._waiter = None
        payload = self._frames.popleft()
        self._unread -= len(payload)
        if not self._reading and self._unread <= READ_LIMIT:
            self._reading = True
            if self._transport is not None:
                self._transport.resume_reading()
        return _parse_payload(payload)


async def open_frame_connection(
    host: str, port: int
) -> "tuple[FrameReader, asyncio.StreamWriter]":
    """Connect to a frame server: a :class:`FrameReader` and a writer.

    The one way the protocol's clients (:class:`~repro.serve.client.
    AsyncGatewayClient`, the router's backend links) open a connection.
    """
    loop = asyncio.get_running_loop()
    reader = FrameReader(loop=loop)
    transport, _ = await loop.create_connection(lambda: reader, host, port)
    return reader, asyncio.StreamWriter(transport, reader, None, loop)


# -- the request budget --------------------------------------------------
# A request's budget is one absolute time.monotonic() instant (or None),
# minted once where the request enters a process and passed down.  Every
# rule that reads the clock for it lives here.
def deadline_from_ms(budget_ms: "float | None") -> "float | None":
    """Mint a budget: the instant ``budget_ms`` from now."""
    if budget_ms is None:
        return None
    return time.monotonic() + budget_ms / 1e3


def wire_ms(budget_ms: float) -> int:
    """A budget as the wire carries it: whole milliseconds, at least 1,
    so a nearly spent budget still crosses as a valid field and the
    receiver expires it at once — the honest outcome."""
    return max(1, int(budget_ms))


def deadline_remaining_ms(deadline: "float | None") -> "int | None":
    """The ``deadline_ms`` a hop forwards: what is left, as :func:`wire_ms`."""
    if deadline is None:
        return None
    return wire_ms((deadline - time.monotonic()) * 1e3)


def deadline_expired(message: str = "deadline exceeded") -> ProtocolError:
    """The canonical 504: recoverable (the connection stays usable)."""
    return ProtocolError(message, code=ErrorCode.DEADLINE_EXCEEDED)


def within(deadline: "float | None", aw, what: str, *, shield: bool = False):
    """``aw``, its wait bounded by a request's budget.

    Past ``deadline`` — or at once, if it has passed — the wait ends in
    :func:`deadline_expired` ("deadline exceeded ``what``"); a timeout
    inside ``aw`` (a hang guard) that fires first propagates as itself.
    With ``shield=True`` only the wait ends: ``aw`` (a control round
    trip, a connect) runs on under its own lock and timeout, so no reply
    is left in flight for the next round trip and nothing is severed.
    With no budget this is ``aw`` itself: no timer, no task, no await.
    """
    if deadline is None:
        return aw
    return _within(deadline, aw, what, shield)


async def _within(deadline: float, aw, what: str, shield: bool):
    left = deadline - time.monotonic()
    if left <= 0:
        if asyncio.iscoroutine(aw):
            aw.close()  # never started
        raise deadline_expired(f"deadline exceeded {what}")
    if shield:
        run = asyncio.ensure_future(aw)
        # Once the waiter is gone nobody reads the run's outcome.
        run.add_done_callback(lambda run: run.cancelled() or run.exception())
        aw = asyncio.shield(run)
    bound = asyncio.timeout(left)
    try:
        async with bound:
            return await aw
    except TimeoutError:
        if not bound.expired():
            raise
        raise deadline_expired(f"deadline exceeded {what}") from None


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
async def client_hello(
    reader, writer: "asyncio.StreamWriter", auth_token: "str | None"
) -> dict:
    """Consume HELLO and run the client side of the AUTH handshake.

    Returns the HELLO header.  Raises :class:`ProtocolError` when the
    peer's first frame is not a HELLO, and with
    ``code=ErrorCode.UNAUTHORIZED`` when the peer requires auth and no
    token was given — failing fast client-side instead of dying on the
    first real request.  Shared by every protocol client
    (:class:`~repro.serve.client.AsyncGatewayClient` and the blocking
    facade over it, the cluster router's backend links, the health
    prober) so the handshake cannot drift between them.
    """
    frame = await read_frame(reader)
    if frame is None or frame.type is not MessageType.HELLO:
        raise ProtocolError("peer did not send HELLO")
    if auth_token is None and frame.header.get("auth_required"):
        raise ProtocolError(
            "peer requires a shared-secret token and none was given",
            code=ErrorCode.UNAUTHORIZED,
        )
    if auth_token is not None:
        writer.write(encode_frame(MessageType.AUTH, {"token": auth_token}))
        await writer.drain()
    return frame.header


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


#: What reading a malformed JSON value as a number or an array raises.
_BAD_VALUE = (KeyError, TypeError, ValueError, OverflowError)


def _wire_array(spec, blob, offset: int = 0) -> np.ndarray:
    """The array a wire spec ``{dtype, shape}`` places at ``offset`` in
    ``blob``, as a read-only view; a 400 unless its dtype is plain (no
    objects, no sub-arrays, not zero-size), no dimension is negative or
    larger than a frame, and ``blob`` holds its bytes."""
    try:
        dtype = np.dtype(spec["dtype"])
        shape = tuple(operator.index(dim) for dim in spec["shape"])
        if dtype.hasobject or dtype.shape or not dtype.itemsize:
            raise ValueError(f"unsupported dtype {dtype.str}")
        if not all(0 <= dim <= MAX_FRAME_BYTES for dim in shape):
            raise ValueError(f"unsupported shape {list(shape)}")
        count = math.prod(shape)
        if offset + count * dtype.itemsize > len(blob):
            raise ValueError("blob shorter than its array specs")
        return np.frombuffer(blob, dtype, count, offset).reshape(shape)
    except _BAD_VALUE as exc:
        raise ProtocolError(f"bad array spec: {exc}") from exc


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
        array = _wire_array(spec, blob, offset)
        # GaussianCloud normalises in place; keep it writable.
        fields[spec["name"]] = array.copy()
        offset += array.nbytes
    if offset != len(blob):
        raise ProtocolError("scene blob longer than its array specs")
    try:
        cloud = GaussianCloud(**fields)
    except (TypeError, ValueError) as exc:
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
    except _BAD_VALUE as exc:
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
    except _BAD_VALUE as exc:
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
    """Encode one rendered frame as a FRAME wire message: the bytes of
    :func:`result_frame_parts`, joined."""
    return b"".join(
        result_frame_parts(
            request_id, index, result,
            checksum=checksum, backend=backend, trace=trace,
        )
    )


def result_frame_parts(
    request_id: int,
    index: int,
    result: RenderResult,
    *,
    checksum: bool = True,
    backend: "str | None" = None,
    trace: "str | None" = None,
) -> "tuple[bytes, bytes | memoryview]":
    """One rendered frame as a FRAME's two buffers: the framed header,
    and the image's bytes.

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
    return _frame_parts(
        MessageType.FRAME, "".join(parts).encode("utf-8"), wire.blob
    )


def relay_parts(
    frame: Frame, request_id: int, index: "int | None" = None
) -> "tuple[bytes, bytes | memoryview]":
    """A received frame re-addressed for the next hop, as two buffers.

    ``request_id`` (and ``index``, when given) take the new values in
    their places in the decoded header, which is re-encoded: for a
    header the wire's JSON dialect wrote, everything else comes out as
    it arrived.  The blob goes on without a copy.
    """
    header = {**frame.header, "request_id": request_id}
    if index is not None:
        header["index"] = index
    return _frame_parts(frame.type, _dumps(header).encode("utf-8"), frame.blob)


def decode_result_frame(frame: Frame) -> "tuple[int, int, RenderResult]":
    """Decode a FRAME message to ``(request_id, index, RenderResult)``.

    The image is a read-only zero-copy view over the received bytes.
    """
    try:
        image = _wire_array(frame.header["image"], frame.blob)
        request_id = operator.index(frame.header["request_id"])
        index = operator.index(frame.header["index"])
        stats = decode_stats(frame.header["stats"])
    except _BAD_VALUE as exc:
        raise ProtocolError(f"invalid FRAME header: {exc}") from exc
    if image.nbytes != len(frame.blob):
        raise ProtocolError("FRAME blob size does not match its image spec")
    return request_id, index, RenderResult(
        image=image, stats=stats, projected=None, assignment=None
    )
