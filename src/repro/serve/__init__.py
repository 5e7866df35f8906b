"""``repro.serve`` — the async streaming render service layer.

The engine is the compute substrate (vectorized :class:`RenderEngine`
and its one process-wide render pool); this package turns it into a
*service*: many concurrent clients, few engine renders.

::

    clients ──> WireServer  (connections, HELLO/AUTH, admission,
                   │         drain, HTTP; RenderGateway fulfils on the
                   │         service below, the cluster's ShardRouter
                   ▼         relays to a gateway)
    requests ─> RenderService ──┬─ SharedRenderCache  (stored wire-ready:
      │            │            │   bytes + digest + stats JSON; a repeat
      │            │            │   hit is a lookup in this process's memo
      │            │            │   on the loop thread, a first hit one
      │            │            │   executor hop to the shared index)
      │            │            └─ in-flight dedup    (join the pending
      │            ▼                                    render)
      │        MicroBatcher  — coalesce a scene's misses, flush at
      │            │           max_batch_size or after max_wait
      │            ▼
      └──────  render_in_pool  (one batch per flush, on the
               process-wide render pool; bit-identical frames)

* :class:`RenderService` — asyncio front end: ``render_frame`` for one
  view, ``stream_trajectory`` to stream a trajectory's frames in order
  as they complete, with bounded-queue backpressure and cancellation;
  cache misses render on the process-wide render pool, one worker per
  CPU — the same pool ``RenderEngine.render_trajectory(workers > 1)``
  and ``run_multiview`` use.
* :class:`MicroBatcher` — the micro-batching scheduler.
* :class:`AdaptiveBatchPolicy` — fast-timescale adaptation of the
  batching knobs against a p95 latency target.
* :class:`AdmissionController` — slow-timescale class-based admission:
  ``interactive`` | ``bulk`` | ``prefetch`` request classes with
  weighted quotas and priority shedding under overload (429s carry a
  ``retry_after_ms`` hint); see :mod:`repro.serve.admission`.
* :class:`~repro.serve.server.WireServer` — the protocol server core
  both network front ends subclass: listeners, connection lifecycle,
  HELLO/AUTH, admission, deadline-bounded writes, drain and the shared
  HTTP routes, written once.
* :class:`RenderGateway` — the network front end: a TCP server speaking
  the :mod:`repro.serve.protocol` length-prefixed JSON+binary frame
  protocol (streamed trajectories, error frames, class-aware 429
  admission rejects) plus an HTTP/1.1 adapter for one-shot ``curl``
  renders.
* :class:`AsyncGatewayClient` — the protocol client, with the same
  request surface as the in-process service (it drops into
  :func:`run_clients`), speaking the optional shared-secret AUTH
  handshake (:mod:`repro.serve.auth`); :class:`GatewayClient` is a
  blocking facade over it for scripts.
* :class:`GatewayClientPool` — pooled connections with bounded
  retry-on-markdown and resume-from-first-undelivered streams, the
  client shape for talking to a :mod:`repro.cluster` router.
* :class:`SharedRenderCache` — finished frames + stats in shared
  memory, keyed on ``(cloud, camera, renderer)`` content fingerprints,
  each stored with the FRAME parts a hit needs (blob digest, stats wire
  JSON) so serving one hashes and serialises nothing; also pluggable
  into ``RenderEngine.render_trajectory`` / ``run_multiview`` / the
  figure sweeps as ``render_store``.
* :func:`run_clients` / :func:`naive_render_seconds` — the load
  generator and its no-serving-layer baseline.
* :func:`verify_streamed_images` — the single implementation of the
  bit-identical check every consumer (CLI, demo, CI, tests) shares.

Everything served is bit-identical to a direct ``RenderEngine.render``
of the same view (enforced by tests): the serving layer changes when
and where frames are rendered, never their bytes — including frames
that crossed the gateway's socket.

See ``docs/serving.md`` for the wire protocol and operational guide.
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionRejected,
    AdmissionTicket,
    ClassSpec,
    DEFAULT_CLASS,
    KNOWN_CLASSES,
    default_classes,
)
from repro.serve.auth import AUTH_TOKEN_ENV, resolve_auth_token, token_matches
from repro.serve.client import (
    AsyncGatewayClient,
    GatewayClient,
    GatewayClientPool,
    GatewayError,
    LoadReport,
    naive_render_seconds,
    run_clients,
)
from repro.serve.gateway import GatewayStats, RenderGateway
from repro.serve.policy import AdaptiveBatchPolicy
from repro.serve.protocol import ErrorCode, MessageType, ProtocolError
from repro.serve.render_cache import (
    SharedRenderCache,
    render_key,
    renderer_key,
)
from repro.serve.scheduler import BatchStats, MicroBatcher
from repro.serve.service import RenderService, ServiceStats
from repro.serve.verify import verify_streamed_images

__all__ = [
    "AUTH_TOKEN_ENV",
    "AdaptiveBatchPolicy",
    "AdmissionController",
    "AdmissionRejected",
    "AdmissionTicket",
    "AsyncGatewayClient",
    "BatchStats",
    "ClassSpec",
    "DEFAULT_CLASS",
    "ErrorCode",
    "GatewayClient",
    "GatewayClientPool",
    "GatewayError",
    "GatewayStats",
    "KNOWN_CLASSES",
    "LoadReport",
    "MessageType",
    "MicroBatcher",
    "ProtocolError",
    "RenderGateway",
    "RenderService",
    "ServiceStats",
    "SharedRenderCache",
    "default_classes",
    "naive_render_seconds",
    "render_key",
    "renderer_key",
    "resolve_auth_token",
    "run_clients",
    "token_matches",
    "verify_streamed_images",
]
