"""Shared pieces of the benchmark: seeded inputs, the span log, statistics.

Everything here is the *measuring* side.  The program under test
(``src/repro``) receives only the clouds and cameras generated here and
is timed from outside, through its public functions.
"""

from __future__ import annotations

import json
import math
import resource
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from repro.gaussians.camera import Camera, look_at
from repro.scenes import Scene, load_scene

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"

#: Which workloads exercise each layer (metric-name prefix).  A per-layer
#: metric is reported as 0.0 on every other workload: that layer's code
#: does not run there, which is exactly the "should not move" column of
#: the README's interaction table.
LAYER_WORKLOADS = {
    "gaussians.": ("engine_gstg_orbit", "engine_baseline_orbit"),
    "tiles.": ("engine_gstg_orbit", "engine_baseline_orbit"),
    "core.": ("engine_gstg_orbit",),
    "engine.": ("engine_gstg_orbit", "engine_baseline_orbit"),
    "raster.": ("engine_gstg_orbit", "engine_baseline_orbit"),
    "serve.": ("gateway_novel_views", "gateway_replay"),
    "serve.protocol.": ("gateway_novel_views", "gateway_replay", "cluster_replay"),
    "serve.cache.hit_ratio": (
        "gateway_novel_views", "gateway_replay", "cluster_replay",
    ),
    "cluster.": ("cluster_replay",),
    "hardware.": ("sim_sweep",),
    "sim_": ("sim_sweep",),
    "trace.": (
        "engine_gstg_orbit", "engine_baseline_orbit", "gateway_novel_views",
        "gateway_replay", "cluster_replay", "sim_sweep",
    ),
}


def applies(metric: str, workload: str) -> bool:
    """True when ``workload`` runs the layer ``metric`` belongs to."""
    prefix = max(
        (p for p in LAYER_WORKLOADS if metric.startswith(p)), key=len
    )
    return workload in LAYER_WORKLOADS[prefix]


def load_spec() -> dict:
    """The benchmark's contract: workloads and metric names with units."""
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# -- seeded inputs -------------------------------------------------------

#: Scene contents are fixed and the seed moves every camera.  Frame cost
#: differs by +-15 % between two seeds of one synthetic scene — more than
#: any regression bound — so a seeded scene would make runs with different
#: seeds incomparable; a seeded camera path over a fixed scene does not.
SCENE_SEED = 0

#: Steps of the 3-d Kronecker ("R3") low-discrepancy sequence: powers of
#: the inverse of the real root of x**4 = x + 1.
_R3 = 1.0 / 1.2207440846057596 ** np.arange(1, 4)


def bench_scene(name: str, scale: float, seed: int = SCENE_SEED) -> Scene:
    """One of the repo's synthetic Table II scenes at ``scale``."""
    return load_scene(name, resolution_scale=scale, seed=seed)


def orbit_view(
    scene: Scene, angle: float, elevation: float, radius_factor: float
) -> Camera:
    """One camera on the scene's orbit (geometry of ``orbit_cameras``,
    which only offers evenly spaced angles starting at 0)."""
    spec = scene.spec
    e = spec.world_extent
    if spec.scene_type == "indoor":
        radius = 0.55 * e * radius_factor
        height = -0.1 * e + elevation * e
        target = np.array([0.0, -0.15 * e, 0.0])
    else:
        radius = 1.1 * e * radius_factor
        height = 0.25 * e + elevation * e
        target = np.array([0.0, 0.1 * e, 0.0])
    eye = np.array([radius * np.sin(angle), height, radius * np.cos(angle)])
    return look_at(
        eye,
        target,
        width=scene.camera.width,
        height=scene.camera.height,
        fov_y_degrees=55.0,
        near=0.02 * e,
        far=10.0 * e,
    )


class ViewStream:
    """An endless, never-repeating sequence of seeded orbit views.

    View ``i`` is point ``i`` of a low-discrepancy sequence over (orbit
    angle, elevation in [0.12, 0.24], radius factor in [0.9, 1.1]),
    shifted by a seeded offset.  *Any* prefix of it covers that space
    evenly, so a time-boxed run sees the same mix of cheap and expensive
    views whatever its length and whatever its seed; the seed decides
    which views, not how hard they are on average.
    """

    def __init__(self, scene: Scene, seed: int, stream: int = 0) -> None:
        self.scene = scene
        self._offset = np.random.default_rng([seed, stream]).uniform(size=3)
        self._index = 0

    def next(self) -> Camera:
        u = (self._offset + self._index * _R3) % 1.0
        self._index += 1
        return orbit_view(
            self.scene,
            2.0 * math.pi * float(u[0]),
            0.12 + 0.12 * float(u[1]),
            0.9 + 0.2 * float(u[2]),
        )

    def take(self, count: int) -> "list[Camera]":
        return [self.next() for _ in range(count)]


def seeded_orbit(scene: Scene, seed: int, stream: int, views: int) -> "list[Camera]":
    """An evenly spaced ``views``-camera orbit with seeded phase,
    elevation and radius: the trajectory a playback client replays."""
    rng = np.random.default_rng([seed, stream])
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    elevation = float(rng.uniform(0.12, 0.24))
    radius = float(rng.uniform(0.9, 1.1))
    return [
        orbit_view(scene, phase + 2.0 * math.pi * i / views, elevation, radius)
        for i in range(views)
    ]


# -- the span log --------------------------------------------------------

class SpanLog:
    """The benchmark's own in-memory span log.

    One row per span: name, start, end (``time.perf_counter`` seconds),
    the index of the span that caused it (or None) and the op id shared
    by all spans of one operation.  Rows are buffered in memory and
    written by :meth:`write` when the run ends.
    """

    def __init__(self) -> None:
        self.rows: "list[tuple]" = []
        self._stack: "list[int]" = []

    @contextmanager
    def span(self, name: str, op):
        """Time a block as a child of the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.rows)
        self.rows.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.rows[index] = (name, start, end, parent, op)

    def add(self, name: str, start: float, end: float, op) -> None:
        """Record a root span from timestamps taken by the caller (the
        only form concurrent asyncio clients can use)."""
        self.rows.append((name, start, end, None, op))

    def durations_ms(self, name: str) -> "list[float]":
        return [
            (row[2] - row[1]) * 1e3 for row in self.rows if row[0] == name
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op) in enumerate(self.rows):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )


class NullLog:
    """The span log switched off: end-to-end runs pass this."""

    _off = nullcontext()

    def span(self, name: str, op):
        return self._off


NULL_LOG = NullLog()


# -- statistics ----------------------------------------------------------

def pct(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of ``values``."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (plus, with ``children``, the
    largest waited-for child) in MiB; Linux reports KiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def repeat_setup(build, teardown, budget_s: float = 4.0, most: int = 3):
    """Set up again, tearing the previous one down, while another repeat
    fits in ``budget_s`` seconds, ``most`` times at most; returns
    (last context, durations).

    Cheap set-ups are repeated so their median is steady; a set-up that
    takes most of the budget alone (dozens of renders — already an
    average over much work) runs once.
    """
    durations: "list[float]" = []
    while True:
        start = time.perf_counter()
        context = build()
        durations.append(time.perf_counter() - start)
        if len(durations) >= most or sum(durations) + durations[-1] > budget_s:
            return context, durations
        teardown(context)
