"""Tests for the ``repro trace`` CLI: parser shape, replay and top.

The subprocess-heavy ``record`` path is exercised end-to-end by the
failover stitching test and the CI ``trace-smoke`` job; here its
validation (which runs *before* any process spawns) and the offline
``replay`` / ``top`` commands run against a hand-built capture.
"""

import json

import pytest

from repro.cli import build_parser, main
from repro.gaussians.cloud import cloud_fingerprint
from repro.scenes.synthetic import load_scene
from repro.serve.protocol import encode_camera


class TestParser:
    def test_trace_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_record_defaults(self):
        args = build_parser().parse_args(
            ["trace", "record", "--dir", "/tmp/cap"]
        )
        assert args.func.__name__ == "_cmd_trace_record"
        assert args.backends == 2
        assert args.replicate == 2
        assert args.clients == 2
        assert args.request_class is None
        assert not args.kill_one
        assert not args.append

    def test_record_requires_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "record"])

    def test_replay_defaults_and_choices(self):
        args = build_parser().parse_args(
            ["trace", "replay", "--dir", "/tmp/cap", "--config", "gscore",
             "--num-cores", "8", "--frequency-ghz", "2.0"]
        )
        assert args.func.__name__ == "_cmd_trace_replay"
        assert args.config == "gscore"
        assert args.num_cores == 8
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["trace", "replay", "--dir", "d", "--config", "tpu"]
            )

    def test_top_defaults(self):
        args = build_parser().parse_args(["trace", "top", "--dir", "/tmp/c"])
        assert args.func.__name__ == "_cmd_trace_top"
        assert args.limit == 5


class TestRecordValidation:
    """Record's sanity checks fire before any backend spawns."""

    def test_kill_one_needs_two_backends_and_replicas(self, tmp_path):
        with pytest.raises(SystemExit, match="kill-one"):
            main(
                ["trace", "record", "--dir", str(tmp_path), "--kill-one",
                 "--backends", "1"]
            )
        with pytest.raises(SystemExit, match="kill-one"):
            main(
                ["trace", "record", "--dir", str(tmp_path), "--kill-one",
                 "--replicate", "1"]
            )

    def test_refuses_an_existing_capture_without_append(self, tmp_path):
        (tmp_path / "old.jsonl").write_text("")
        with pytest.raises(SystemExit, match="--append"):
            main(["trace", "record", "--dir", str(tmp_path)])

    def test_positive_counts(self, tmp_path):
        for flag in ("--backends", "--clients", "--passes"):
            with pytest.raises(SystemExit):
                main(["trace", "record", "--dir", str(tmp_path), flag, "0"])


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    """A small hand-built capture for one scene at CLI-default knobs."""
    directory = tmp_path_factory.mktemp("capture")
    scene = load_scene("train", resolution_scale=0.05, seed=0)
    fingerprint = cloud_fingerprint(scene.cloud)
    camera = scene.camera
    spans = [
        {"trace": "cli-1", "name": "route", "node": "router",
         "t_ms": 0.0, "dur_ms": 30.0,
         "attrs": {"class": "interactive", "backends": ["backend-0"],
                   "failovers": 0}},
        {"trace": "cli-1", "name": "render", "node": "backend-0",
         "t_ms": 5.0, "dur_ms": 20.0,
         "attrs": {"scene": fingerprint, "camera": encode_camera(camera),
                   "class": "interactive"}},
        {"trace": "cli-1", "name": "wire", "node": "backend-0",
         "t_ms": 26.0, "dur_ms": 1.0, "attrs": {"bytes": 1000}},
    ]
    with open(directory / "backend-0.jsonl", "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return directory


class TestReplayCommand:
    def test_replay_reports_per_class_costs(self, capture, capsys):
        code = main(
            ["trace", "replay", "--dir", str(capture), "--scene", "train",
             "--scale", "0.05"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "replayed 1 rendered frames" in out
        assert "interactive" in out
        assert "GS-TG" in out

    def test_replay_is_deterministic_between_invocations(
        self, capture, capsys
    ):
        main(["trace", "replay", "--dir", str(capture), "--scene", "train",
              "--scale", "0.05"])
        first = capsys.readouterr().out
        main(["trace", "replay", "--dir", str(capture), "--scene", "train",
              "--scale", "0.05"])
        assert capsys.readouterr().out == first

    def test_replay_rejects_an_empty_capture(self, tmp_path):
        with pytest.raises(SystemExit, match="no spans"):
            main(["trace", "replay", "--dir", str(tmp_path)])


class TestTopCommand:
    def test_top_aggregates_stages_and_slowest_traces(self, capture, capsys):
        code = main(["trace", "top", "--dir", str(capture), "--limit", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "render" in out and "route" in out and "wire" in out
        assert "slowest 1 of 1 traces" in out
        assert "cli-1" in out
        assert "backend-0+router" in out  # node list, sorted

    def test_top_rejects_an_empty_capture(self, tmp_path):
        with pytest.raises(SystemExit, match="no spans"):
            main(["trace", "top", "--dir", str(tmp_path)])


class TestPlumbing:
    def test_supervisor_forwards_trace_dir(self, tmp_path):
        from repro.cluster import LocalFleet

        fleet = LocalFleet(1, trace_dir=tmp_path)
        argv = fleet._backend_argv("backend-0")
        assert "--trace-dir" in argv
        assert argv[argv.index("--trace-dir") + 1] == str(tmp_path)
        assert "--trace-dir" not in LocalFleet(1)._backend_argv("backend-0")

    def test_backend_parser_accepts_trace_dir(self):
        from repro.cluster.backend import build_parser as backend_parser

        args = backend_parser().parse_args(["--trace-dir", "/tmp/cap"])
        assert args.trace_dir == "/tmp/cap"
        assert backend_parser().parse_args([]).trace_dir is None
