"""Cluster membership and deterministic shard assignment.

:class:`ClusterMap` answers one question — *which backends own this
scene?* — with **rendezvous (highest-random-weight) hashing**: every
``(backend, scene)`` pair gets a deterministic pseudo-random score from
a keyed BLAKE2b digest, and a scene's preference order is its backends
sorted by descending score.  The first ``replication`` entries are the
scene's *replica set*; the very first is its *owner*.

Why rendezvous hashing (and not a mod-N table or a ring):

* **Deterministic everywhere.**  Any process that knows the backend ids
  computes the same assignment — the router, a client, a test, and the
  demo all agree without coordination, the divide-and-conquer shape of
  the networks literature (local subproblems, lightweight global
  state).
* **Minimal reshuffle.**  Removing a backend only moves the scenes it
  appeared in a replica set for (its slots fall to the next-ranked
  backend); adding one only steals the scenes it now out-scores
  everyone on, ~``1/(N+1)`` of them.  No scene ever moves *between two
  surviving backends* — the property the membership tests pin down.
* **Replication for free.**  The score order is a full permutation per
  scene, so replicas and failover targets are just the next ranks — no
  separate replica placement logic.

Scene keys are opaque strings: content fingerprints
(:func:`repro.gaussians.cloud.cloud_fingerprint`) for clouds pushed
over the wire, plain names for pre-registered scenes.  Keeping a
scene's requests on its owner is what makes the owner's projection and
render caches *hot* — the cluster-level analogue of the paper's
tile-grouping locality argument.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class BackendSpec:
    """One gateway backend's address (and optional HTTP adapter port).

    ``backend_id`` is the identity that scores into the hash — keep it
    stable across restarts of the same logical backend so assignments
    survive reconnects.
    """

    backend_id: str
    host: str = "127.0.0.1"
    port: int = 0
    http_port: "int | None" = None


def rendezvous_score(backend_id: str, scene_id: str) -> int:
    """The deterministic HRW score of one ``(backend, scene)`` pair.

    A 64-bit integer from a BLAKE2b digest of both ids (NUL-separated —
    unambiguous because ids never contain NUL).  Pure function of its
    arguments: stable across processes, machines and Python hash
    randomisation.
    """
    digest = hashlib.blake2b(
        f"{backend_id}\x00{scene_id}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class ClusterMap:
    """The backend registry + shard assignment for one cluster.

    Parameters
    ----------
    backends:
        Initial :class:`BackendSpec` members.
    replication:
        Replica-set size per scene (1 = no redundancy).  Clamped to the
        live backend count at query time, so a shrinking cluster
        degrades instead of erroring.
    """

    def __init__(
        self,
        backends: "tuple[BackendSpec, ...] | list[BackendSpec]" = (),
        *,
        replication: int = 1,
    ) -> None:
        if replication < 1:
            raise ValueError("replication must be positive")
        self.replication = replication
        self._backends: "dict[str, BackendSpec]" = {}
        for spec in backends:
            self.add(spec)

    # -- membership ------------------------------------------------------
    def add(self, spec: BackendSpec) -> None:
        """Register a backend (live add: assignments shift minimally)."""
        if not spec.backend_id:
            raise ValueError("backend_id must be non-empty")
        if "\x00" in spec.backend_id:
            raise ValueError("backend_id must not contain NUL")
        if spec.backend_id in self._backends:
            raise ValueError(f"duplicate backend_id {spec.backend_id!r}")
        self._backends[spec.backend_id] = spec

    def remove(self, backend_id: str) -> BackendSpec:
        """Deregister a backend; its scenes fall to their next ranks."""
        try:
            return self._backends.pop(backend_id)
        except KeyError:
            raise KeyError(f"unknown backend_id {backend_id!r}") from None

    def get(self, backend_id: str) -> "BackendSpec | None":
        """The spec registered under ``backend_id``, if any."""
        return self._backends.get(backend_id)

    @property
    def backends(self) -> "list[BackendSpec]":
        """All members, sorted by id (deterministic iteration order)."""
        return [self._backends[bid] for bid in sorted(self._backends)]

    def __len__(self) -> int:
        return len(self._backends)

    def __contains__(self, backend_id: str) -> bool:
        return backend_id in self._backends

    # -- assignment ------------------------------------------------------
    def rank(self, scene_id: str) -> "list[BackendSpec]":
        """Every backend, in this scene's preference order.

        Descending rendezvous score; ties (astronomically unlikely with
        64-bit scores, but determinism must not hinge on luck) break by
        backend id.
        """
        return sorted(
            self._backends.values(),
            key=lambda spec: (
                -rendezvous_score(spec.backend_id, scene_id),
                spec.backend_id,
            ),
        )

    def replicas(self, scene_id: str) -> "list[BackendSpec]":
        """The scene's replica set: the top ``replication`` ranks."""
        return self.rank(scene_id)[: self.replication]

    def owner(self, scene_id: str) -> BackendSpec:
        """The scene's primary backend (rank 0)."""
        ranked = self.rank(scene_id)
        if not ranked:
            raise LookupError("cluster has no backends")
        return ranked[0]

    def assignment(self, scene_ids) -> "dict[str, list[str]]":
        """``{scene_id: [backend ids of its replica set]}`` — for
        operator-facing displays (the demo, ``/stats``)."""
        return {
            scene_id: [spec.backend_id for spec in self.replicas(scene_id)]
            for scene_id in scene_ids
        }
