"""Tests for the wire protocol's shared-secret AUTH handshake.

The contract: a keyed server announces ``auth_required`` in HELLO and
accepts nothing before a matching AUTH frame; wrong or missing tokens
get a 401 and the connection dies; the comparison is constant-time
(``hmac.compare_digest``); the token reaches every entry point through
one environment knob.  The router applies the same handshake at the
cluster edge, with an independently keyed backend side.
"""

import asyncio

import numpy as np
import pytest

from repro.cluster import BackendSpec, ClusterMap, ShardRouter
from repro.core.pipeline import GSTGRenderer
from repro.engine import RenderEngine
from repro.gaussians.camera import Camera
from repro.serve import (
    AUTH_TOKEN_ENV,
    AsyncGatewayClient,
    GatewayClient,
    GatewayError,
    RenderGateway,
    RenderService,
    resolve_auth_token,
    token_matches,
)
from repro.serve import protocol
from repro.serve.protocol import ErrorCode, MessageType
from repro.tiles.boundary import BoundaryMethod
from tests.conftest import make_cloud

TOKEN = "correct-horse-battery-staple"


@pytest.fixture(scope="module")
def renderer():
    return GSTGRenderer(16, 64, BoundaryMethod.ELLIPSE)


@pytest.fixture(scope="module")
def scene():
    rng = np.random.default_rng(43)
    cloud = make_cloud(25, rng)
    camera = Camera(width=64, height=48, fx=60.0, fy=60.0)
    return cloud, camera


def run_with_gateway(renderer, body, **gateway_kwargs):
    async def main():
        async with RenderService(
            renderer, max_batch_size=4, max_wait=0.002
        ) as service:
            gateway = RenderGateway(service, **gateway_kwargs)
            await gateway.start()
            try:
                return await body(gateway)
            finally:
                await gateway.close()

    return asyncio.run(main())


class TestHelpers:
    def test_token_matches_is_exact(self):
        assert token_matches("abc", "abc")
        assert not token_matches("abc", "abd")
        assert not token_matches("abc", "abcd")
        assert not token_matches("abc", "")

    def test_token_matches_rejects_non_strings_without_raising(self):
        assert not token_matches("abc", None)
        assert not token_matches("abc", 42)
        assert not token_matches("abc", ["abc"])
        assert not token_matches("abc", "\ud800")  # a JSON "\ud800" escape

    def test_resolve_auth_token(self, monkeypatch):
        monkeypatch.delenv(AUTH_TOKEN_ENV, raising=False)
        assert resolve_auth_token(None) is None
        assert resolve_auth_token("x") == "x"
        monkeypatch.setenv(AUTH_TOKEN_ENV, "from-env")
        assert resolve_auth_token(None) == "from-env"
        assert resolve_auth_token("explicit") == "explicit"
        # An explicit empty string means "explicitly unauthenticated".
        assert resolve_auth_token("") is None
        monkeypatch.setenv(AUTH_TOKEN_ENV, "")
        assert resolve_auth_token(None) is None


class TestGatewayAuth:
    def test_correct_token_serves_bit_identical(self, scene, renderer):
        cloud, camera = scene

        async def body(gateway):
            assert gateway.auth_token == TOKEN
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", gateway.tcp_port, auth_token=TOKEN
            )
            try:
                assert client.hello["auth_required"] is True
                return await client.render_frame(cloud, camera)
            finally:
                await client.close()

        result = run_with_gateway(renderer, body, auth_token=TOKEN)
        direct = RenderEngine(renderer).render(cloud, camera)
        assert np.array_equal(result.image, direct.image)

    def test_wrong_token_gets_401_and_disconnect(self, scene, renderer):
        cloud, camera = scene

        async def body(gateway):
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", gateway.tcp_port, auth_token="wrong"
            )
            try:
                with pytest.raises(GatewayError) as excinfo:
                    await client.render_frame(cloud, camera)
                return excinfo.value.code, gateway.stats.auth_failures
            finally:
                await client.close()

        code, auth_failures = run_with_gateway(
            renderer, body, auth_token=TOKEN
        )
        assert code == int(ErrorCode.UNAUTHORIZED)
        assert auth_failures == 1

    def test_missing_token_fails_fast_client_side(self, scene, renderer):
        async def body(gateway):
            with pytest.raises(GatewayError) as excinfo:
                await AsyncGatewayClient.connect(
                    "127.0.0.1", gateway.tcp_port
                )
            return excinfo.value.code

        code = run_with_gateway(renderer, body, auth_token=TOKEN)
        assert code == int(ErrorCode.UNAUTHORIZED)

    def test_request_before_auth_is_refused(self, scene, renderer):
        """A keyed server treats any first frame that is not AUTH as an
        auth failure — no request smuggling past the handshake."""

        async def body(gateway):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.tcp_port
            )
            await protocol.read_frame(reader)  # HELLO
            writer.write(protocol.encode_frame(MessageType.STATS))
            await writer.drain()
            error = await protocol.read_frame(reader)
            rest = await reader.read()
            writer.close()
            await writer.wait_closed()
            return error, rest

        error, rest = run_with_gateway(renderer, body, auth_token=TOKEN)
        assert error.type is MessageType.ERROR
        assert error.header["code"] == int(ErrorCode.UNAUTHORIZED)
        assert rest == b""  # the server closed the connection

    def test_blocking_client_auth(self, scene, renderer):
        cloud, camera = scene

        async def body(gateway):
            def sync_work():
                with GatewayClient(
                    "127.0.0.1", gateway.tcp_port, auth_token=TOKEN
                ) as client:
                    good = client.render_frame(cloud, camera)
                try:
                    GatewayClient("127.0.0.1", gateway.tcp_port)
                except GatewayError as exc:
                    missing_code = exc.code
                with GatewayClient(
                    "127.0.0.1", gateway.tcp_port, auth_token="nope"
                ) as client:
                    try:
                        client.render_frame(cloud, camera)
                        wrong_code = None
                    except GatewayError as exc:
                        wrong_code = exc.code
                return good, missing_code, wrong_code

            return await asyncio.get_running_loop().run_in_executor(
                None, sync_work
            )

        good, missing_code, wrong_code = run_with_gateway(
            renderer, body, auth_token=TOKEN
        )
        direct = RenderEngine(renderer).render(cloud, camera)
        assert np.array_equal(good.image, direct.image)
        assert missing_code == int(ErrorCode.UNAUTHORIZED)
        assert wrong_code == int(ErrorCode.UNAUTHORIZED)

    def test_env_knob_keys_gateway_and_client(
        self, scene, renderer, monkeypatch
    ):
        cloud, camera = scene
        monkeypatch.setenv(AUTH_TOKEN_ENV, "env-token")

        async def body(gateway):
            assert gateway.auth_token == "env-token"
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", gateway.tcp_port  # token resolved from env
            )
            try:
                return await client.render_frame(cloud, camera)
            finally:
                await client.close()

        result = run_with_gateway(renderer, body)  # gateway keys from env
        direct = RenderEngine(renderer).render(cloud, camera)
        assert np.array_equal(result.image, direct.image)

    def test_unsolicited_auth_on_unkeyed_gateway_is_ignored(
        self, scene, renderer, monkeypatch
    ):
        monkeypatch.delenv(AUTH_TOKEN_ENV, raising=False)
        cloud, camera = scene

        async def body(gateway):
            assert gateway.auth_token is None
            client = await AsyncGatewayClient.connect(
                "127.0.0.1", gateway.tcp_port, auth_token="spurious"
            )
            try:
                return await client.render_frame(cloud, camera)
            finally:
                await client.close()

        result = run_with_gateway(renderer, body)
        direct = RenderEngine(renderer).render(cloud, camera)
        assert np.array_equal(result.image, direct.image)


class TestRouterAuth:
    def test_router_edge_and_backend_tokens_are_independent(
        self, scene, renderer
    ):
        """Clients key to the router with one secret while the router
        keys to the backends with another — the fleet secret never
        reaches clients."""
        cloud, camera = scene

        async def main():
            async with RenderService(
                renderer, max_batch_size=4, max_wait=0.002
            ) as service:
                gateway = RenderGateway(service, auth_token="backend-secret")
                await gateway.start()
                cluster_map = ClusterMap(
                    [BackendSpec("b0", "127.0.0.1", gateway.tcp_port)]
                )
                router = ShardRouter(
                    cluster_map,
                    auth_token="client-secret",
                    backend_auth_token="backend-secret",
                )
                await router.start()
                try:
                    with pytest.raises(GatewayError):
                        await AsyncGatewayClient.connect(
                            "127.0.0.1", router.tcp_port
                        )
                    client = await AsyncGatewayClient.connect(
                        "127.0.0.1", router.tcp_port,
                        auth_token="client-secret",
                    )
                    try:
                        return (
                            await client.render_frame(cloud, camera),
                            router.stats.auth_failures,
                        )
                    finally:
                        await client.close()
                finally:
                    await router.close()
                    await gateway.close()

        result, auth_failures = asyncio.run(main())
        direct = RenderEngine(renderer).render(cloud, camera)
        assert np.array_equal(result.image, direct.image)
        assert auth_failures == 0  # the tokenless connect failed client-side
