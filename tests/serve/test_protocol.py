"""Tests for the gateway wire protocol: framing and payload codecs.

The load-bearing property is exactness: a cloud, camera, image or
stats object pushed through ``encode_* -> bytes -> decode_*`` must come
back *equal* — bit-for-bit for arrays — because the serving layer's
bit-identical guarantee has to survive the socket.
"""

import asyncio
import hashlib
import io
import json

import numpy as np
import pytest

from repro.core.pipeline import GSTGRenderer
from repro.engine import RenderEngine
from repro.gaussians.camera import Camera, look_at
from repro.gaussians.cloud import cloud_fingerprint
from repro.raster.renderer import RenderResult
from repro.raster.stats import (
    RasterCounters,
    RenderStats,
    SortCounters,
    StageCounters,
)
from repro.serve import protocol
from repro.serve.protocol import (
    ErrorCode,
    MessageType,
    ProtocolError,
    decode_camera,
    decode_cloud,
    decode_result_frame,
    decode_stats,
    encode_camera,
    encode_cloud,
    encode_frame,
    encode_result_frame,
    encode_stats,
    read_frame,
    read_frame_from,
)
from repro.tiles.boundary import BoundaryMethod
from tests.conftest import make_cloud


def parse(payload: bytes) -> "list[protocol.Frame]":
    """Decode a byte string of concatenated frames (sync reader)."""
    stream = io.BytesIO(payload)
    frames = []
    while True:
        frame = read_frame_from(stream)
        if frame is None:
            return frames
        frames.append(frame)


def parse_async(payload: bytes) -> "list[protocol.Frame]":
    """Decode the same bytes through the asyncio reader."""

    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(payload)
        reader.feed_eof()
        frames = []
        while True:
            frame = await read_frame(reader)
            if frame is None:
                return frames
            frames.append(frame)

    return asyncio.run(main())


class TestFraming:
    def test_round_trip_both_readers(self):
        payload = encode_frame(
            MessageType.RENDER, {"request_id": 7, "x": [1, 2.5]}, b"blobby"
        ) + encode_frame(MessageType.BYE)
        for frames in (parse(payload), parse_async(payload)):
            assert [f.type for f in frames] == [
                MessageType.RENDER,
                MessageType.BYE,
            ]
            assert frames[0].header == {"request_id": 7, "x": [1, 2.5]}
            assert frames[0].blob == b"blobby"
            assert frames[1].header == {} and frames[1].blob == b""

    def test_clean_eof_returns_none(self):
        assert parse(b"") == []

    def test_eof_mid_frame_is_fatal(self):
        payload = encode_frame(MessageType.STATS)
        with pytest.raises(ProtocolError) as excinfo:
            parse(payload[:-1])
        assert excinfo.value.fatal

    def test_oversized_length_is_fatal(self):
        import struct

        with pytest.raises(ProtocolError) as excinfo:
            parse(struct.pack("!I", protocol.MAX_FRAME_BYTES + 1) + b"x" * 16)
        assert excinfo.value.fatal
        assert excinfo.value.code == ErrorCode.FRAME_TOO_LARGE

    def test_bad_json_header_is_recoverable(self):
        import struct

        header = b"{not json"
        payload = struct.pack("!BI", int(MessageType.STATS), len(header)) + header
        wire = struct.pack("!I", len(payload)) + payload
        with pytest.raises(ProtocolError) as excinfo:
            parse(wire)
        assert not excinfo.value.fatal

    def test_unknown_type_is_recoverable(self):
        import struct

        payload = struct.pack("!BI", 250, 2) + b"{}"
        wire = struct.pack("!I", len(payload)) + payload
        with pytest.raises(ProtocolError) as excinfo:
            parse(wire)
        assert not excinfo.value.fatal

    def test_nan_rejected_at_encode_time(self):
        with pytest.raises(ValueError):
            encode_frame(MessageType.STATS, {"x": float("nan")})

    def test_prefix_split_across_segments(self):
        """A length prefix arriving one byte at a time must not be
        mistaken for EOF (readexactly semantics)."""

        async def main():
            reader = asyncio.StreamReader()
            wire = encode_frame(MessageType.STATS)

            async def feed():
                for i in range(len(wire)):
                    reader.feed_data(wire[i : i + 1])
                    await asyncio.sleep(0)
                reader.feed_eof()

            feeder = asyncio.ensure_future(feed())
            frame = await read_frame(reader)
            await feeder
            return frame

        frame = asyncio.run(main())
        assert frame.type is MessageType.STATS


class TestPayloadCodecs:
    def test_cloud_round_trip_is_bit_exact(self):
        cloud = make_cloud(50, np.random.default_rng(11))
        decoded = decode_cloud(*encode_cloud(cloud))
        for name in ("positions", "scales", "rotations", "opacities", "sh_coeffs"):
            assert np.array_equal(getattr(cloud, name), getattr(decoded, name))
        assert cloud_fingerprint(cloud) == cloud_fingerprint(decoded)

    def test_cloud_blob_length_mismatch(self):
        cloud = make_cloud(10, np.random.default_rng(12))
        header, blob = encode_cloud(cloud)
        with pytest.raises(ProtocolError):
            decode_cloud(header, blob[:-8])
        with pytest.raises(ProtocolError):
            decode_cloud(header, blob + b"\x00" * 8)

    def test_cloud_malformed_specs_are_protocol_errors(self):
        """Any malformed-but-framed SCENE header must raise ProtocolError
        (never an uncaught AttributeError/ValueError that would kill the
        gateway connection without its 400 reply)."""
        cloud = make_cloud(10, np.random.default_rng(17))
        header, blob = encode_cloud(cloud)
        # Specs that are not objects.
        with pytest.raises(ProtocolError):
            decode_cloud({"arrays": ["positions"] * 5}, blob)
        # Negative shape dimensions.
        bad = {"arrays": [dict(spec) for spec in header["arrays"]]}
        bad["arrays"][0]["shape"] = [-1, 3]
        with pytest.raises(ProtocolError):
            decode_cloud(bad, blob)
        # Non-numeric shape entries.
        bad["arrays"][0]["shape"] = ["ten", 3]
        with pytest.raises(ProtocolError):
            decode_cloud(bad, blob)
        # Unknown dtype string.
        bad["arrays"][0]["shape"] = header["arrays"][0]["shape"]
        bad["arrays"][0]["dtype"] = "not-a-dtype"
        with pytest.raises(ProtocolError):
            decode_cloud(bad, blob)

    def test_cloud_invalid_parameters(self):
        cloud = make_cloud(10, np.random.default_rng(13))
        header, blob = encode_cloud(cloud)
        # Corrupt the opacities (beyond [0, 1]) in the blob.
        bad = bytearray(blob)
        offset = sum(
            np.prod(spec["shape"], dtype=np.int64) * 8
            for spec in header["arrays"][:3]
        )
        bad[offset : offset + 8] = np.float64(7.5).tobytes()
        with pytest.raises(ProtocolError):
            decode_cloud(header, bytes(bad))

    def test_camera_round_trip_is_exact(self):
        camera = look_at(
            eye=np.array([1.37, -2.11, 0.61]),
            target=np.zeros(3),
            width=123,
            height=77,
            fov_y_degrees=51.3,
            near=0.313,
            far=971.7,
        )
        decoded = decode_camera(encode_camera(camera))
        assert decoded.width == camera.width and decoded.height == camera.height
        assert decoded.fx == camera.fx and decoded.fy == camera.fy
        assert decoded.near == camera.near and decoded.far == camera.far
        assert np.array_equal(decoded.rotation, camera.rotation)
        assert np.array_equal(decoded.translation, camera.translation)

    def test_camera_missing_field(self):
        header = encode_camera(Camera(width=32, height=32, fx=30.0, fy=30.0))
        del header["fx"]
        with pytest.raises(ProtocolError):
            decode_camera(header)

    def test_stats_round_trip_equality(self):
        cloud = make_cloud(40, np.random.default_rng(14))
        camera = Camera(width=96, height=64, fx=80.0, fy=80.0)
        renderer = GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)
        stats = RenderEngine(renderer).render(cloud, camera).stats
        decoded = decode_stats(encode_stats(stats))
        assert decoded == stats  # dataclass equality: every counter exact

    def test_result_frame_round_trip(self):
        cloud = make_cloud(40, np.random.default_rng(15))
        camera = Camera(width=96, height=64, fx=80.0, fy=80.0)
        renderer = GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)
        result = RenderEngine(renderer).render(cloud, camera)
        (frame,) = parse(encode_result_frame(9, 3, result))
        request_id, index, decoded = decode_result_frame(frame)
        assert (request_id, index) == (9, 3)
        assert np.array_equal(decoded.image, result.image)
        assert decoded.stats == result.stats
        assert decoded.projected is None and decoded.assignment is None
        assert not decoded.image.flags.writeable

    def test_result_frame_blob_size_check(self):
        cloud = make_cloud(10, np.random.default_rng(16))
        camera = Camera(width=32, height=32, fx=30.0, fy=30.0)
        renderer = GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)
        result = RenderEngine(renderer).render(cloud, camera)
        (frame,) = parse(encode_result_frame(1, 0, result))
        frame.blob = frame.blob[:-4]
        with pytest.raises(ProtocolError):
            decode_result_frame(frame)

    @pytest.mark.parametrize(
        "dtype, shape",
        [("|O", None), ("V0", None), (None, [2**32, 2**32])],
        ids=["object-dtype", "zero-size-dtype", "int64-overflowing-shape"],
    )
    def test_cloud_array_specs_a_frame_cannot_hold(self, dtype, shape):
        """Once a 500 (not a ProtocolError) on the wire."""
        cloud = make_cloud(10, np.random.default_rng(18))
        header, blob = encode_cloud(cloud)
        spec = header["arrays"][0]
        if dtype is not None:
            spec["dtype"] = dtype
        if shape is not None:
            spec["shape"] = shape
        with pytest.raises(ProtocolError):
            decode_cloud(header, blob)

    @pytest.mark.parametrize(
        "field, value",
        [("width", float("inf")), ("height", float("nan")), ("fx", 10**400)],
        ids=["width-inf", "height-nan", "fx-1e400"],
    )
    def test_camera_numbers_that_do_not_fit(self, field, value):
        """inf and 10**400 were once a 500 on the wire."""
        header = encode_camera(Camera(width=32, height=32, fx=30.0, fy=30.0))
        header[field] = value
        with pytest.raises(ProtocolError):
            decode_camera(header)

    def test_deadline_too_large_for_a_float(self):
        """Once a 500 on the wire."""
        camera = encode_camera(Camera(width=32, height=32, fx=30.0, fy=30.0))
        header = {"request_id": 1, "scene_id": "s", "camera": camera}
        header["deadline_ms"] = 10**400
        with pytest.raises(ProtocolError) as info:
            protocol.check_request(protocol.Frame(MessageType.RENDER, header))
        assert info.value.code is ErrorCode.BAD_REQUEST

    def test_result_frame_object_dtype(self):
        """Once a ValueError out of the client's read."""
        cloud = make_cloud(10, np.random.default_rng(19))
        camera = Camera(width=32, height=32, fx=30.0, fy=30.0)
        renderer = GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)
        result = RenderEngine(renderer).render(cloud, camera)
        (frame,) = parse(encode_result_frame(1, 0, result))
        frame.header["image"]["dtype"] = "|O"
        with pytest.raises(ProtocolError):
            decode_result_frame(frame)

    def test_cloud_scalar_positions(self):
        """A zero-dimensional positions array once raised IndexError."""
        cloud = make_cloud(10, np.random.default_rng(20))
        header, blob = encode_cloud(cloud)
        header["arrays"][0]["shape"] = []
        with pytest.raises(ProtocolError):
            decode_cloud(header, blob[cloud.positions.nbytes - 8 :])


def golden_result() -> RenderResult:
    """A fixed, hand-written frame: every stats field set, ints and
    floats both, tile keys out of order."""
    stats = RenderStats(
        preprocess=StageCounters(
            num_input_gaussians=40, num_visible_gaussians=31,
            num_candidate_tiles=96, num_boundary_tests=57,
            boundary_test_cost=2.5, num_pairs=44,
        ),
        sort=SortCounters(
            num_sorts=6, num_keys=44, num_comparisons=118.07820003461549,
            max_sort_length=11,
        ),
        raster=RasterCounters(
            num_alpha_computations=1234, num_blend_operations=987,
            num_pixels=6, num_tile_passes=3, num_early_exit_pixels=1,
        ),
        bitmask_tests=17, bitmask_test_cost=0.1, num_bitmasks=5,
        bitmask_bits=16, num_filter_checks=9,
        per_tile_alpha={2: 700, 0: 534},
    )
    image = (np.arange(2 * 3 * 3, dtype=np.float64) / 7.0).reshape(2, 3, 3)
    return RenderResult(image=image, stats=stats, projected=None, assignment=None)


class TestGoldenFrame:
    """The FRAME wire bytes are pinned: the digests below were taken
    from ``encode_result_frame`` as it stood *before* it assembled the
    header from stored parts (commit 3d3d099, one ``json.dumps`` of the
    whole header).  Any change to key order, separators, escaping or
    float formatting moves them."""

    @pytest.mark.parametrize(
        "options, size, digest",
        [
            (
                {}, 820,
                "2ffe6f750a4f9c9212b5391f5c6f85aeeea67ca2b14417b40b40dc8902cbb27e",
            ),
            (
                {"backend": "gw-0", "trace": 't-"é"\n'}, 862,
                "4cd669aae5900900e11d888269c7cfe417cfefa53783a16e0c39abbd3ad6ad49",
            ),
            (
                {"checksum": False, "backend": "b"}, 758,
                "8c982c16f93719910e193e9fdcb6978afd487ffff1c7677b2c66fe9d8b7fa91a",
            ),
        ],
        ids=["bare", "stamped", "no-checksum"],
    )
    def test_frame_bytes_are_pinned(self, options, size, digest):
        payload = encode_result_frame(7, 3, golden_result(), **options)
        assert len(payload) == size
        assert hashlib.sha256(payload).hexdigest() == digest

    def test_header_is_one_json_dump_of_the_whole_header(self):
        """The assembled header equals the reference construction: one
        dict, one ``json.dumps``."""
        result = golden_result()
        blob = result.image.tobytes()
        reference = encode_frame(
            MessageType.FRAME,
            {
                "request_id": 7,
                "index": 3,
                "image": {"dtype": "<f8", "shape": [2, 3, 3]},
                "stats": encode_stats(result.stats),
                "backend": "gw-0",
                "trace": "t",
                "sha256": hashlib.sha256(blob).hexdigest(),
            },
            blob,
        )
        assert encode_result_frame(
            7, 3, result, backend="gw-0", trace="t"
        ) == reference

    def test_wire_result_computes_each_part_once(self):
        wire = protocol.wire_result(golden_result())
        assert protocol.wire_result(wire) is wire
        assert wire.blob is wire.blob
        assert wire.digest == hashlib.sha256(wire.blob).hexdigest()
        assert json.loads(wire.stats_json) == json.loads(
            json.dumps(encode_stats(wire.stats))
        )
