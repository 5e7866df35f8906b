"""Shared fixtures: small deterministic clouds, cameras and projections.

Unit tests use hand-sized synthetic inputs (tens of Gaussians, ~64x48
images) so the whole suite stays fast; integration tests build slightly
larger scenes through the public scene loader.

The run also owns every process it starts: a session fixture fails it
if any of them outlives the last test.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from multiprocessing import forkserver, resource_tracker

import numpy as np
import pytest
from hypothesis import settings

from repro.engine import engine as engine_module
from repro.engine import render_in_pool
from repro.gaussians.camera import Camera, look_at
from repro.gaussians.cloud import GaussianCloud
from repro.gaussians.culling import CullingResult
from repro.gaussians.projection import (
    SIGMA_EXTENT,
    ProjectedGaussians,
    _eigendecompose_2x2,
    project,
)
from repro.gaussians.rotation import random_unit_quaternions
from repro.raster.renderer import BaselineRenderer
from repro.tiles.boundary import BoundaryMethod

# Tier-1 is reproducible: every property test draws the same examples on
# every run, so `pytest -x` stops at a real regression, never at a draw.
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")
# Fresh examples on every run, for the CI fuzz job:
# `pytest --hypothesis-profile=fuzz --hypothesis-seed=N` (the command
# line's profile replaces tier1; rerun a failure with the same seed).
settings.register_profile("fuzz", derandomize=False, print_blob=True)

#: How long processes may take to end by themselves after the last test.
LEAK_GRACE_S = 10.0


def _live_descendants(root: int) -> "dict[int, str]":
    """pid -> command line of every running descendant of ``root``."""
    children: "dict[int, list[int]]" = {}
    ended = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as f:
                fields = f.read().rpartition(")")[2].split()
        except OSError:
            continue  # ended while we looked
        children.setdefault(int(fields[1]), []).append(int(entry))
        if fields[0] == "Z":
            ended.add(int(entry))
    found: "dict[int, str]" = {}
    stack = list(children.get(root, []))
    while stack:
        pid = stack.pop()
        stack.extend(children.get(pid, []))
        if pid in ended:
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                found[pid] = f.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
    return found


def _reap() -> None:
    """Collect every child of this process that has ended."""
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass


@pytest.fixture(scope="session", autouse=True)
def no_leaked_processes():
    """Fail the run if a process started during it outlives it.

    This process becomes a child subreaper first, so a process orphaned
    mid-run (say, the helper of a SIGKILLed backend) is re-parented here
    instead of to init and still counts as a descendant.  The render
    pool ends here as it would at exit; this process's own forkserver
    and resource tracker end with it and are not counted.
    """
    if not os.path.isdir("/proc"):
        yield
        return
    ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    yield
    engine_module._shutdown_render_pool()
    own = {forkserver._forkserver._forkserver_pid, resource_tracker._resource_tracker._pid}
    deadline = time.monotonic() + LEAK_GRACE_S
    while True:
        _reap()
        leaked = {
            pid: command
            for pid, command in _live_descendants(os.getpid()).items()
            if pid not in own
        }
        if not leaked or time.monotonic() > deadline:
            break
        time.sleep(0.1)
    for pid in leaked:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if leaked:
        pytest.fail(
            "processes outlived the test run: "
            + "; ".join(f"{pid} {command}" for pid, command in leaked.items())
        )


def make_cloud(
    n: int,
    rng: np.random.Generator,
    *,
    depth_range: "tuple[float, float]" = (3.0, 12.0),
    spread: float = 3.0,
    scale_range: "tuple[float, float]" = (0.05, 0.4),
    opacity_range: "tuple[float, float]" = (0.2, 0.95),
    sh_degree: int = 1,
) -> GaussianCloud:
    """A random cloud in front of the default camera (which looks down +z)."""
    positions = np.stack(
        [
            rng.uniform(-spread, spread, n),
            rng.uniform(-spread, spread, n),
            rng.uniform(*depth_range, n),
        ],
        axis=1,
    )
    k = (sh_degree + 1) ** 2
    return GaussianCloud(
        positions=positions,
        scales=rng.uniform(*scale_range, size=(n, 3)),
        rotations=random_unit_quaternions(n, rng),
        opacities=rng.uniform(*opacity_range, n),
        sh_coeffs=rng.normal(0.0, 0.4, size=(n, k, 3)),
    )


def make_projected(
    means2d: np.ndarray,
    sigmas: np.ndarray,
    angles: np.ndarray,
    opacities: np.ndarray,
    colors: np.ndarray,
    depths: np.ndarray,
) -> ProjectedGaussians:
    """Screen-space Gaussians placed directly, with no camera in between.

    ``sigmas`` are the (m, 2) one-sigma half-axes in pixels and
    ``angles`` the rotation of the first axis, so a test can put a
    footprint exactly where it wants it: with angle 0 and power-of-two
    sigmas every derived quantity (covariance, 3-sigma extents, bounding
    rectangles) is exact in floating point.
    """
    means2d = np.asarray(means2d, dtype=np.float64)
    m = means2d.shape[0]
    cos, sin = np.cos(angles), np.sin(angles)
    rot = np.empty((m, 2, 2))
    rot[:, 0, 0], rot[:, 0, 1], rot[:, 1, 0], rot[:, 1, 1] = cos, -sin, sin, cos
    var = np.asarray(sigmas, dtype=np.float64) ** 2
    cov2d = (rot * var[:, None, :]) @ np.transpose(rot, (0, 2, 1))
    cov2d[:, 1, 0] = cov2d[:, 0, 1]
    det = cov2d[:, 0, 0] * cov2d[:, 1, 1] - cov2d[:, 0, 1] ** 2
    conics = np.stack(
        [cov2d[:, 1, 1] / det, -cov2d[:, 0, 1] / det, cov2d[:, 0, 0] / det],
        axis=1,
    )
    eigvals, eigvecs = _eigendecompose_2x2(cov2d)
    return ProjectedGaussians(
        indices=np.arange(m),
        depths=np.asarray(depths, dtype=np.float64),
        means2d=means2d,
        cov2d=cov2d,
        conics=conics,
        colors=np.asarray(colors, dtype=np.float64),
        opacities=np.asarray(opacities, dtype=np.float64),
        eigvals=eigvals,
        eigvecs=eigvecs,
        radii=SIGMA_EXTENT * np.sqrt(eigvals[:, 0]),
        culling=CullingResult(np.ones(m, dtype=bool), m, 0, 0, 0),
    )


@pytest.fixture(scope="session")
def warm_render_pool() -> None:
    """Start every worker of the process-wide render pool.

    The pool starts on the first cache miss, and its first frames wait
    for the forkserver and its workers to start (about 0.4 s).  A test
    whose router watchdog is shorter than that requests this fixture so
    that no failover comes from the cold start.
    """
    cloud = make_cloud(8, np.random.default_rng(0))
    camera = Camera(width=16, height=16, fx=15.0, fy=15.0)
    workers = len(os.sched_getaffinity(0))
    render_in_pool(
        BaselineRenderer(16, BoundaryMethod.ELLIPSE), True, cloud, [camera] * workers
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for every test."""
    return np.random.default_rng(1234)


@pytest.fixture
def camera() -> Camera:
    """A small identity-pose camera: 64x48, looking down +z."""
    return Camera(width=64, height=48, fx=60.0, fy=60.0, near=0.1, far=100.0)


@pytest.fixture
def small_cloud(rng: np.random.Generator) -> GaussianCloud:
    """~60 random Gaussians in front of ``camera``."""
    return make_cloud(60, rng)


@pytest.fixture
def projected(small_cloud, camera):
    """Projection of ``small_cloud`` through ``camera``."""
    return project(small_cloud, camera)


@pytest.fixture
def lookat_camera() -> Camera:
    """An off-axis camera built with the look_at helper."""
    return look_at(
        eye=[4.0, 3.0, -6.0],
        target=[0.0, 0.0, 6.0],
        width=80,
        height=60,
        fov_y_degrees=50.0,
    )
