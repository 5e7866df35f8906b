"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.io import read_ppm


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_render_defaults(self):
        args = build_parser().parse_args(["render"])
        assert args.pipeline == "gstg"
        assert args.tile_size == 16
        assert args.group_size == 64

    def test_unknown_scene_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["render", "--scene", "bonsai"])


class TestCommands:
    def test_render_writes_ppm(self, tmp_path, capsys):
        out = str(tmp_path / "frame.ppm")
        code = main(
            ["render", "--scene", "playroom", "--scale", "0.05", "--out", out]
        )
        assert code == 0
        image = read_ppm(out)
        assert image.shape[2] == 3
        assert image.max() > 0
        assert "rendered playroom" in capsys.readouterr().out

    def test_render_baseline_pipeline(self, tmp_path, capsys):
        out = str(tmp_path / "frame.ppm")
        code = main(
            [
                "render", "--scene", "playroom", "--scale", "0.05",
                "--pipeline", "baseline", "--method", "aabb", "--out", out,
            ]
        )
        assert code == 0
        assert read_ppm(out).shape[2] == 3

    def test_profile_prints_table(self, capsys):
        code = main(["profile", "--scene", "playroom", "--scale", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tiles/G" in out
        # All four tile sizes in the sweep.
        for ts in ("8", "16", "32", "64"):
            assert ts in out

    def test_simulate_prints_speedup(self, capsys):
        code = main(["simulate", "--scene", "playroom", "--scale", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "gs-tg speedup" in out
        assert "baseline" in out and "gscore" in out

    def test_render_deterministic_across_runs(self, tmp_path):
        a = str(tmp_path / "a.ppm")
        b = str(tmp_path / "b.ppm")
        main(["render", "--scene", "truck", "--scale", "0.05", "--out", a])
        main(["render", "--scene", "truck", "--scale", "0.05", "--out", b])
        assert np.array_equal(read_ppm(a), read_ppm(b))


class TestTrajectory:
    @staticmethod
    def _frames(out_dir) -> "list[bytes]":
        return [path.read_bytes() for path in sorted(out_dir.glob("*.ppm"))]

    def _trajectory(self, out_dir, *extra) -> int:
        return main(
            [
                "trajectory", "--views", "3", "--scale", "0.05",
                "--out-dir", str(out_dir), *extra,
            ]
        )

    def test_pooled_frames_equal_serial_frames(self, tmp_path):
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        assert self._trajectory(serial, "--workers", "1") == 0
        assert self._trajectory(pooled, "--workers", "2") == 0
        assert len(self._frames(serial)) == 3
        assert self._frames(pooled) == self._frames(serial)

    def test_ignored_options_still_accepted(self, tmp_path, capsys):
        code = self._trajectory(
            tmp_path, "--workers", "2", "--executor", "thread",
            "--shared-cache",
        )
        assert code == 0
        assert "rendered 3 views" in capsys.readouterr().out


class TestServe:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.clients == 4
        assert args.batch_size == 8
        assert args.max_wait_ms == 2.0
        assert not args.verify

    def test_serve_verified_smoke(self, capsys):
        """The CI smoke invocation: 4 clients stream an 8-frame
        trajectory; frames must be bit-identical to direct renders and
        the engine must render strictly fewer frames than it serves."""
        code = main(
            [
                "serve", "--scene", "playroom", "--scale", "0.05",
                "--views", "8", "--clients", "4", "--verify",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verified: all 32 streamed frames bit-identical" in out
        assert "engine renders:" in out

    def test_serve_tcp_verified_smoke(self, capsys):
        """The gateway smoke: the same load over a real localhost TCP
        socket, every streamed frame verified bit-identical."""
        code = main(
            [
                "serve", "--scene", "playroom", "--scale", "0.05",
                "--views", "6", "--clients", "3", "--tcp", "--verify",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TCP gateway listening" in out
        assert "verified: all 18 streamed frames bit-identical" in out

    def test_serve_without_cache(self, capsys):
        code = main(
            [
                "serve", "--scene", "playroom", "--scale", "0.05",
                "--views", "4", "--clients", "2", "--no-render-cache",
                "--verify",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verified" in out
