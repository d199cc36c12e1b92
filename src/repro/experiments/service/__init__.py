"""Campaign service: typed wire protocol, async dispatcher, worker fleet.

This package promotes the campaign engine from a single machine to a
long-running service:

==================  ================================================================
Module              Responsibility
==================  ================================================================
``protocol``        Small frozen, versioned message types (``JobSubmit``,
                    ``JobClaim``, ``JobDone``, ``JobFailed``, ``Heartbeat``,
                    ``WorkerHello``/``Goodbye``) with strict canonical JSON
                    round-trips and a registry that rejects unknown or future
                    versions; newline-delimited frame helpers.
``dispatcher``      Asyncio work queue with lease-based claims, heartbeat
                    tracking and dead-job requeue after lease expiry or worker
                    loss.
``worker``          Detachable worker process: attaches over a localhost TCP
                    socket, executes claims through ``execute_job`` and writes
                    results through the artifact store.  ``python -m
                    repro.experiments.service.worker`` runs one standalone.
``fleet``           ``FleetExecutor`` — the third campaign backend: dispatcher
                    plus ``jobs`` spawned (or externally attached) workers,
                    exposing the same ``run(campaign, *, registry)``
                    contract as the in-process executors.
==================  ================================================================

Determinism is inherited, not re-implemented: every job derives its seed from
its spec inside :func:`repro.experiments.campaign.execute_job`, so a fleet of
divergent workers reproduces the single-process tables byte for byte.
"""

from repro.experiments.service.dispatcher import Dispatcher, FleetJobError
from repro.experiments.service.fleet import FleetExecutor, spawn_worker_process
from repro.experiments.service.protocol import (
    Heartbeat,
    JobClaim,
    JobDone,
    JobFailed,
    JobSubmit,
    MalformedMessage,
    Message,
    ProtocolError,
    UnknownMessageType,
    UnsupportedVersion,
    WorkerGoodbye,
    WorkerHello,
    decode_frame,
    decode_message,
    encode_frame,
    message_types,
)
from repro.experiments.service.selftest import SELFTEST_KIND
from repro.experiments.service.worker import Worker, run_worker

__all__ = [
    "SELFTEST_KIND",
    "Dispatcher",
    "FleetJobError",
    "FleetExecutor",
    "spawn_worker_process",
    "Worker",
    "run_worker",
    "Message",
    "ProtocolError",
    "UnknownMessageType",
    "UnsupportedVersion",
    "MalformedMessage",
    "WorkerHello",
    "WorkerGoodbye",
    "Heartbeat",
    "JobSubmit",
    "JobClaim",
    "JobDone",
    "JobFailed",
    "decode_message",
    "decode_frame",
    "encode_frame",
    "message_types",
]
