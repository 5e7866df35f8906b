"""Spawn and manage a local fleet of gateway backend subprocesses.

:class:`LocalFleet` is the process-level complement of the router: it
launches ``size`` copies of :mod:`repro.cluster.backend` (each a real
OS process with its own engine, caches and event loop — on a multicore
host they render in true parallel; everywhere they fail independently),
waits for each one's ``CLUSTER-BACKEND READY`` announcement, and hands
back the :class:`BackendSpec` list a :class:`ClusterMap` is built from.

Its second job is *controlled failure*: :meth:`kill` SIGKILLs one
backend — no goodbye, no flushing, the exact mid-stream death the
failover machinery must survive — which the tests, the demo and the CI
``cluster-smoke`` job all use.

Each backend leads a session of its own, and every way a backend ends
here ends its whole process group: the helpers it started (the render
cache's manager, the render pool's forkserver and workers) do not
outlive it.

Backends inherit the parent's interpreter and environment plus an
explicit ``PYTHONPATH`` entry for this repo's ``src`` (so fleets work
from a source checkout without installation).  The shared-secret token
rides in the child environment (:data:`AUTH_TOKEN_ENV`), never argv.
Each backend's stdout/stderr goes to a log file under a temporary
directory, which is also where READY lines are parsed from — and where
to look when a backend fails to come up.

:func:`fleet_router` and :func:`drive_fleet` are the load driver the
``repro cluster`` and ``repro trace record`` commands share: start a
fleet, put a router over it, stream every client's trajectory through
it and, optionally, kill a scene's owner mid-run.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import asynccontextmanager
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.gaussians.cloud import cloud_fingerprint
from repro.serve.auth import AUTH_TOKEN_ENV, resolve_auth_token
from repro.serve.client import AsyncGatewayClient

from repro.cluster.router import ShardRouter
from repro.cluster.topology import BackendSpec, ClusterMap

_READY_RE = re.compile(
    r"CLUSTER-BACKEND READY id=(?P<id>\S+) tcp=(?P<tcp>\d+) http=(?P<http>\S+)"
)


def _end_group(process: subprocess.Popen) -> None:
    """SIGTERM what is left of an ended backend's process group.

    The group outlives its leader while any member lives, so its id
    still names it.  multiprocessing's resource tracker ignores SIGTERM
    and exits once the last of its clients is gone, unlinking what a
    killed backend left in shared memory.
    """
    try:
        os.killpg(process.pid, signal.SIGTERM)
    except ProcessLookupError:
        pass


def _kill(process: subprocess.Popen) -> None:
    """SIGKILL a backend, reap it, then end the rest of its group."""
    process.kill()
    process.wait()
    _end_group(process)


@dataclass
class BackendProcess:
    """One spawned backend: its spec, Popen handle and log path."""

    spec: BackendSpec
    process: subprocess.Popen
    log_path: Path
    killed: bool = field(default=False)

    @property
    def alive(self) -> bool:
        """True while the OS process is running."""
        return self.process.poll() is None


class LocalFleet:
    """A fleet of local backend subprocesses (tests, demos, the CLI).

    Parameters
    ----------
    size:
        Number of backends to spawn.
    scenes, scale, seed, views:
        Named scenes each backend pre-registers (HTTP routes and named
        TCP requests need them; wire-pushed scenes don't).
    http:
        Also start each backend's HTTP adapter.
    auth_token:
        Shared secret handed to the children via the environment
        (``None`` inherits the parent's resolved token, if any).
    cache_frames:
        Per-backend render-cache capacity in frames (0 = unbounded) —
        the per-node memory bound the cluster benchmark fixes.
    render_cache:
        ``False`` disables the shared render cache entirely.
    extra_args:
        Additional argv passed verbatim to every backend.
    trace_dir:
        When set, every backend runs with ``--trace-dir`` pointed here:
        each appends its spans to ``<trace_dir>/<backend_id>.jsonl``,
        the capture layout ``repro trace replay|top`` read.
    startup_timeout:
        Seconds to wait for each READY line.
    """

    def __init__(
        self,
        size: int,
        *,
        scenes: "tuple[str, ...] | list[str]" = (),
        scale: float = 0.05,
        seed: int = 0,
        views: int = 8,
        http: bool = False,
        auth_token: "str | None" = None,
        cache_frames: int = 0,
        render_cache: bool = True,
        extra_args: "tuple[str, ...] | list[str]" = (),
        trace_dir: "str | os.PathLike | None" = None,
        startup_timeout: float = 60.0,
    ) -> None:
        if size < 1:
            raise ValueError("size must be positive")
        self.size = size
        self.scenes = tuple(scenes)
        self.scale = scale
        self.seed = seed
        self.views = views
        self.http = http
        self.auth_token = resolve_auth_token(auth_token)
        self.cache_frames = cache_frames
        self.render_cache = render_cache
        self.extra_args = tuple(extra_args)
        self.trace_dir = None if trace_dir is None else str(trace_dir)
        self.startup_timeout = startup_timeout
        self._procs: "dict[str, BackendProcess]" = {}
        self._tmpdir: "tempfile.TemporaryDirectory | None" = None

    # -- lifecycle -------------------------------------------------------
    def _child_env(self) -> "dict[str, str]":
        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else os.pathsep.join((src_root, existing))
        )
        if self.auth_token is not None:
            env[AUTH_TOKEN_ENV] = self.auth_token
        else:
            env.pop(AUTH_TOKEN_ENV, None)
        return env

    def _backend_argv(self, backend_id: str) -> "list[str]":
        argv = [
            sys.executable,
            "-m",
            "repro.cluster.backend",
            "--id", backend_id,
            "--port", "0",
            "--http-port", "0" if self.http else "-1",
            "--scale", str(self.scale),
            "--seed", str(self.seed),
            "--views", str(self.views),
        ]
        for scene in self.scenes:
            argv += ["--scene", scene]
        if not self.render_cache:
            argv.append("--no-render-cache")
        elif self.cache_frames > 0:
            argv += ["--cache-frames", str(self.cache_frames)]
        if self.trace_dir is not None:
            argv += ["--trace-dir", self.trace_dir]
        argv += list(self.extra_args)
        return argv

    def start(self) -> "list[BackendSpec]":
        """Spawn every backend and wait for the fleet to be READY."""
        assert not self._procs, "fleet already started"
        self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-fleet-")
        env = self._child_env()
        launches: "list[tuple[str, subprocess.Popen, Path]]" = []
        for index in range(self.size):
            backend_id = f"backend-{index}"
            log_path = Path(self._tmpdir.name) / f"{backend_id}.log"
            log = open(log_path, "wb")
            try:
                process = subprocess.Popen(
                    self._backend_argv(backend_id),
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    env=env,
                    start_new_session=True,
                )
            finally:
                log.close()  # the child holds its own descriptor
            launches.append((backend_id, process, log_path))
        try:
            for backend_id, process, log_path in launches:
                spec = self._await_ready(backend_id, process, log_path)
                self._procs[backend_id] = BackendProcess(
                    spec=spec, process=process, log_path=log_path
                )
        except Exception:
            for _, process, _ in launches:
                _kill(process)
            raise
        return self.specs

    def _await_ready(
        self, backend_id: str, process: subprocess.Popen, log_path: Path
    ) -> BackendSpec:
        """Poll the backend's log for its READY line."""
        deadline = time.monotonic() + self.startup_timeout
        while time.monotonic() < deadline:
            if process.poll() is not None:
                raise RuntimeError(
                    f"backend {backend_id} exited with {process.returncode} "
                    f"before READY — see {log_path}:\n"
                    + log_path.read_text(errors="replace")[-2000:]
                )
            match = _READY_RE.search(log_path.read_text(errors="replace"))
            if match:
                http = match.group("http")
                return BackendSpec(
                    backend_id=match.group("id"),
                    host="127.0.0.1",
                    port=int(match.group("tcp")),
                    http_port=None if http == "-" else int(http),
                )
            time.sleep(0.02)
        _kill(process)
        raise RuntimeError(
            f"backend {backend_id} did not announce READY within "
            f"{self.startup_timeout}s — see {log_path}"
        )

    # -- observation / control ------------------------------------------
    @property
    def specs(self) -> "list[BackendSpec]":
        """The fleet's backend specs, in id order."""
        return [
            self._procs[backend_id].spec
            for backend_id in sorted(self._procs)
        ]

    def backend(self, backend_id: str) -> BackendProcess:
        """One backend's process record."""
        return self._procs[backend_id]

    def kill(self, backend_id: str) -> None:
        """SIGKILL one backend — the ungraceful mid-stream death."""
        record = self._procs[backend_id]
        record.killed = True
        _kill(record.process)

    def terminate(self, backend_id: str, timeout: float = 30.0) -> "int | None":
        """SIGTERM one backend — the graceful departure.

        The backend enters drain mode (refuses new work with a 503 +
        ``retry_after_ms``, finishes in-flight streams within its
        ``--drain-grace``) and then exits.  Returns the exit code: 0
        means the drain completed with nothing left in flight.
        """
        record = self._procs[backend_id]
        record.killed = True
        if record.alive:
            record.process.terminate()
            record.process.wait(timeout=timeout)
        _end_group(record.process)
        return record.process.returncode

    def logs(self, backend_id: str) -> str:
        """A backend's captured stdout/stderr so far."""
        return self._procs[backend_id].log_path.read_text(errors="replace")

    def close(self) -> None:
        """Terminate every surviving backend and clean the log dir."""
        for record in self._procs.values():
            if record.alive:
                record.process.terminate()
        deadline = time.monotonic() + 10.0
        for record in self._procs.values():
            remaining = max(deadline - time.monotonic(), 0.1)
            try:
                record.process.wait(timeout=remaining)
                _end_group(record.process)
            except subprocess.TimeoutExpired:
                _kill(record.process)
        self._procs.clear()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def __enter__(self) -> "LocalFleet":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@asynccontextmanager
async def fleet_router(
    fleet: LocalFleet, *, replication: int, port: int = 0, **router_kwargs
):
    """Start ``fleet``, then a :class:`ShardRouter` over it on ``port``.

    Yields the started router and closes it on exit; the fleet stays
    its owner's to close (its processes must end even when the event
    loop does not).  ``router_kwargs`` go to :class:`ShardRouter`.
    """
    specs = await asyncio.get_running_loop().run_in_executor(None, fleet.start)
    router = ShardRouter(
        ClusterMap(specs, replication=replication), **router_kwargs
    )
    await router.start(port=port)
    try:
        yield router
    finally:
        await router.close()


@dataclass
class FleetRun:
    """What :func:`drive_fleet` streamed: per client, in client order."""

    frames: "list[int]"
    images: "list[list]"
    victim: "str | None"
    wall_s: float


async def drive_fleet(
    router: ShardRouter,
    fleet: LocalFleet,
    scenes,
    *,
    clients: int,
    passes: int = 1,
    request_class: "str | None" = None,
    kill_owner: bool = False,
    trace_ids=None,
    keep_images: bool = True,
) -> FleetRun:
    """Stream ``clients`` concurrent trajectories through ``router``.

    Client ``i`` opens its own connection and streams
    ``scenes[i % len(scenes)]`` — a ``(cloud, cameras)`` pair —
    ``passes`` times.  With ``kill_owner``, the owner of the first
    scene is SIGKILLed as soon as client 0 holds its first frame, so
    the streams finish through failover.  ``trace_ids`` (an iterator)
    stamps every stream with a client-minted trace id.  With
    ``keep_images`` the frames' images are returned for verification.
    """
    first_frame = asyncio.Event()
    loop = asyncio.get_running_loop()

    async def one_client(index: int) -> "list":
        cloud, cameras = scenes[index % len(scenes)]
        images = []
        async with AsyncGatewayClient(
            router.host, router.tcp_port, auth_token=router.auth_token
        ) as client:
            for _ in range(passes):
                async for _, result in client.stream_trajectory(
                    cloud,
                    cameras,
                    request_class=request_class,
                    trace=None if trace_ids is None else next(trace_ids),
                ):
                    images.append(result.image if keep_images else None)
                    if index == 0:
                        first_frame.set()
        return images

    async def killer() -> "str | None":
        if not kill_owner:
            return None
        await first_frame.wait()
        victim = router.topology.owner(cloud_fingerprint(scenes[0][0]))
        await loop.run_in_executor(None, fleet.kill, victim.backend_id)
        return victim.backend_id

    start = time.perf_counter()
    *images, victim = await asyncio.gather(
        *(one_client(i) for i in range(clients)), killer()
    )
    return FleetRun(
        frames=[len(client) for client in images],
        images=images if keep_images else [],
        victim=victim,
        wall_s=time.perf_counter() - start,
    )
