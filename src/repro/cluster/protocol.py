"""Message vocabulary of the coordinator/worker conversation.

Every frame on a cluster connection is a JSON object with a ``"type"``
key.  The full protocol (see ``docs/cluster.md`` for the lifecycle):

Worker → coordinator
    ``register``   name, capacity, pid, and the worker's execution mode.
    ``started``    a leased run began executing (arms the lease deadline).
    ``result``     lease outcome: ``ok`` + metrics payload (or a captured
                   exception), wall seconds, optional telemetry snapshot.
    ``heartbeat``  periodic liveness ping with per-lease elapsed times.
    ``revoked``    acknowledges a revoke; the lease never started here.
    ``goodbye``    orderly departure (remaining leases reclaim instantly).

Coordinator → worker
    ``welcome``    registration accepted: sweep config (timeout,
                   heartbeat interval, telemetry on/off).
    ``spec_base``  interned base spec: content id + full spec data.
                   Sent once per connection before the first lease that
                   delta-encodes against it (see
                   :mod:`repro.sweep.wire`).
    ``lease``      one cell to execute: lease id, cache key, replicate
                   width, per-run timeout, and the spec — either whole
                   (``"spec"``) or as ``"base"`` + ``"delta"``.
    ``lease_batch``  several leases in one frame (the dispatch fast
                   lane's batched grant); each entry is one ``lease``
                   body.
    ``revoke``     return an *unstarted* lease (work stealing).
    ``shutdown``   sweep over; the worker loop exits.

Specs cross the wire as their constructor data — a spec is already
plain data (that is the whole point of :class:`~repro.sweep.spec.RunSpec`),
so serialization is lossless and the remote ``spec.key()`` necessarily
equals the coordinator's.  Delta-encoded specs keep that property: the
receiver rebuilds the full constructor data before hashing anything,
and base registration is content-checked (see ``docs/cluster.md``).
"""

from __future__ import annotations

MSG_REGISTER = "register"
MSG_WELCOME = "welcome"
MSG_LEASE = "lease"
MSG_LEASE_BATCH = "lease_batch"
MSG_SPEC_BASE = "spec_base"
MSG_REVOKE = "revoke"
MSG_REVOKED = "revoked"
MSG_STARTED = "started"
MSG_RESULT = "result"
MSG_HEARTBEAT = "heartbeat"
MSG_SHUTDOWN = "shutdown"
MSG_GOODBYE = "goodbye"


__all__ = [
    "MSG_GOODBYE",
    "MSG_HEARTBEAT",
    "MSG_LEASE",
    "MSG_LEASE_BATCH",
    "MSG_REGISTER",
    "MSG_RESULT",
    "MSG_REVOKE",
    "MSG_REVOKED",
    "MSG_SHUTDOWN",
    "MSG_SPEC_BASE",
    "MSG_STARTED",
    "MSG_WELCOME",
]
