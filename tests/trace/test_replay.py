"""Tests for trace-driven hardware co-simulation.

The load-bearing property is determinism: the same capture replayed
against the same configuration yields *identical* cycle counts, which
is what makes replay results comparable across hardware configurations.
Everything feeding it — JSONL loading order, camera round-tripping,
trace→class attribution — is pinned here too.
"""

import json

import numpy as np
import pytest

from repro.gaussians.camera import Camera
from repro.gaussians.cloud import cloud_fingerprint
from repro.hardware.config import GSCORE_CONFIG, GSTG_CONFIG
from repro.serve.protocol import encode_camera
from repro.trace import build_config, load_spans, replay, stitch
from tests.conftest import make_cloud


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(77)
    cloud = make_cloud(30, rng)
    cameras = [
        Camera(width=64, height=48, fx=60.0 + i, fy=60.0 + i)
        for i in range(3)
    ]
    return cloud, cameras


def render_span(fingerprint, camera, *, trace, request_class=None):
    attrs = {"scene": fingerprint, "camera": encode_camera(camera)}
    if request_class is not None:
        attrs["class"] = request_class
    return {
        "trace": trace, "name": "render", "node": "b0",
        "t_ms": 1.0, "dur_ms": 5.0, "attrs": attrs,
    }


class TestLoading:
    def test_load_spans_file_and_directory(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text(
            json.dumps({"trace": "t-1", "name": "queue", "node": "a",
                        "t_ms": 0, "dur_ms": 1}) + "\n\n"
        )
        b.write_text(
            json.dumps({"trace": "t-1", "name": "render", "node": "b",
                        "t_ms": 0, "dur_ms": 2}) + "\n"
            + json.dumps({"not-a-span": True}) + "\n"
        )
        assert len(load_spans(a)) == 1
        spans = load_spans(tmp_path)
        # Sorted file order, blank lines and non-span records skipped.
        assert [s["node"] for s in spans] == ["a", "b"]

    def test_load_spans_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"trace": "t"}\n{broken\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            load_spans(path)

    def test_stitch_groups_by_trace_id(self):
        spans = [
            {"trace": "t-1", "name": "route", "node": "router"},
            {"trace": "t-2", "name": "queue", "node": "b0"},
            {"trace": "t-1", "name": "render", "node": "b0"},
        ]
        traces = stitch(spans)
        assert [s["name"] for s in traces["t-1"]] == ["route", "render"]
        assert len(traces["t-2"]) == 1


class TestBuildConfig:
    def test_base_configs(self):
        assert build_config("gstg") is GSTG_CONFIG
        assert build_config("gscore") is GSCORE_CONFIG

    def test_overrides(self):
        config = build_config("gstg", num_cores=8, frequency_ghz=2.0)
        assert config.num_cores == 8
        assert config.frequency_hz == pytest.approx(2e9)
        assert "8core" in config.name

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown config"):
            build_config("tpu")
        with pytest.raises(ValueError):
            build_config("gstg", num_cores=0)
        with pytest.raises(ValueError):
            build_config("gstg", frequency_ghz=-1.0)


class TestReplay:
    def test_replay_is_deterministic(self, workload):
        """The acceptance property: same trace, same config, identical
        cycles — run to run."""
        cloud, cameras = workload
        fingerprint = cloud_fingerprint(cloud)
        spans = [
            render_span(fingerprint, camera, trace=f"t-{i}",
                        request_class="interactive" if i == 0 else "bulk")
            for i, camera in enumerate(cameras)
        ]
        clouds = {fingerprint: cloud}
        first = replay(spans, clouds)
        second = replay(spans, clouds)
        assert first.requests == second.requests == 3
        for a, b in zip(first.classes, second.classes):
            assert a.request_class == b.request_class
            assert a.cycles == b.cycles  # exact, not approx
            assert a.energy_j == b.energy_j
        assert first.total_cycles > 0
        assert first.total_energy_j > 0

    def test_per_class_attribution_and_duplicate_views(self, workload):
        cloud, cameras = workload
        fingerprint = cloud_fingerprint(cloud)
        # Two requests for the SAME view under different classes: one
        # distinct render, two attributed requests.
        spans = [
            render_span(fingerprint, cameras[0], trace="t-1",
                        request_class="interactive"),
            render_span(fingerprint, cameras[0], trace="t-2",
                        request_class="bulk"),
        ]
        report = replay(spans, {fingerprint: cloud})
        assert report.distinct_renders == 1
        by_class = report.by_class()
        assert by_class["interactive"].requests == 1
        assert by_class["bulk"].requests == 1
        # Same view ⇒ same per-request cost, class labels aside.
        assert by_class["interactive"].cycles == by_class["bulk"].cycles

    def test_streamed_frames_inherit_class_from_the_stream_event(
        self, workload
    ):
        """A stream's render spans are class-less (per-class counters
        count streams once); the class rides the stream-open event
        sharing the trace id."""
        cloud, cameras = workload
        fingerprint = cloud_fingerprint(cloud)
        spans = [
            {"trace": "t-s", "name": "stream", "node": "gw", "t_ms": 0,
             "dur_ms": 0, "attrs": {"class": "prefetch", "frames": 2}},
            render_span(fingerprint, cameras[0], trace="t-s"),
            render_span(fingerprint, cameras[1], trace="t-s"),
        ]
        report = replay(spans, {fingerprint: cloud})
        assert report.by_class()["prefetch"].requests == 2

    def test_unknown_scene_and_non_render_spans_are_skipped(self, workload):
        cloud, cameras = workload
        fingerprint = cloud_fingerprint(cloud)
        spans = [
            {"trace": "t-1", "name": "queue", "node": "b0", "t_ms": 0,
             "dur_ms": 1},
            render_span("not-a-known-fingerprint", cameras[0], trace="t-2"),
            {"trace": "t-3", "name": "render", "node": "b0", "t_ms": 0,
             "dur_ms": 1, "attrs": {}},  # no camera/scene
            render_span(fingerprint, cameras[0], trace="t-4"),
        ]
        report = replay(spans, {fingerprint: cloud})
        assert report.requests == 1
        assert report.skipped == 2

    def test_configs_differ_in_simulated_cost(self, workload):
        """Replaying fixed traffic against different hardware is the
        point of the exercise — the reports must actually differ."""
        cloud, cameras = workload
        fingerprint = cloud_fingerprint(cloud)
        spans = [render_span(fingerprint, cameras[0], trace="t-1")]
        clouds = {fingerprint: cloud}
        base = replay(spans, clouds, config=build_config("gstg"))
        # A slower clock stretches DRAM latency differently through the
        # pipelined recurrence and scales the compute energy.
        slow = replay(
            spans, clouds, config=build_config("gstg", frequency_ghz=0.5)
        )
        assert slow.total_cycles != base.total_cycles
        assert slow.total_energy_j > base.total_energy_j
        # Different module/power rosters cost different energy over the
        # same traffic.
        other = replay(spans, clouds, config=build_config("gscore"))
        assert other.total_energy_j != base.total_energy_j
