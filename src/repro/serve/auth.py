"""Shared-secret authentication for the wire protocol.

The minimal viable slice of the ROADMAP's "TLS/auth if it ever leaves
trusted networks" item: a single shared token, presented by the client
as the **first frame after HELLO** (an AUTH message, see
:mod:`repro.serve.protocol`) and checked server-side with a
constant-time comparison.  Both the gateway and the cluster router
accept a token; both protocol clients (and the router's backend links)
send one.  The token travels in clear text — this guards against
*accidental* cross-talk between environments sharing a network, not
against an attacker who can read the wire; that still needs TLS.

One environment knob, :data:`AUTH_TOKEN_ENV`, feeds every entry point
(gateway, router, backend subprocesses, CLI, clients) so a fleet can be
keyed without threading the secret through argv — tokens on a command
line leak via ``ps``.
"""

from __future__ import annotations

import hmac
import os

#: Environment variable consulted when no explicit token is given.
AUTH_TOKEN_ENV = "REPRO_AUTH_TOKEN"


def resolve_auth_token(explicit: "str | None" = None) -> "str | None":
    """The effective shared token: explicit value, else the environment.

    An explicit empty string means "explicitly unauthenticated" and
    wins over the environment; ``None`` falls through to
    :data:`AUTH_TOKEN_ENV` (itself ``None`` when unset or empty).
    """
    if explicit is not None:
        return explicit or None
    return os.environ.get(AUTH_TOKEN_ENV) or None


def token_matches(expected: str, presented) -> bool:
    """Constant-time comparison of a presented token against the secret.

    Non-string presentations (a malformed AUTH header) simply fail —
    they must not raise, and must not short-circuit faster than a wrong
    string would (``hmac.compare_digest`` still runs on a stand-in).
    """
    if not isinstance(presented, str):
        presented = "\x00"
    # "surrogatepass": a JSON "\\ud800" escape must fail the compare, not raise.
    return hmac.compare_digest(
        expected.encode("utf-8", "surrogatepass"),
        presented.encode("utf-8", "surrogatepass"),
    )
