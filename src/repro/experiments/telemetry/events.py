"""The telemetry event taxonomy: one frozen dataclass per campaign event.

Every observable state change of a campaign run — run start/finish, job
lifecycle, worker membership, dispatcher readiness, artifact writes — is one
typed event built on the same canonical frame layer as the fleet's wire
protocol (:mod:`repro.experiments.wire`): explicit ``TypeName``/``Version``,
canonical sorted-key JSON, strict decode, and coverage by the RPL004 schema
snapshot gate.  A telemetry stream is therefore replayable: a JSON-lines run
log decodes back into the exact event objects the live run published.

Event taxonomy (``TypeName`` → short name ``EVENT``):

======================== =================== ==================================
``telemetry.run.started``     ``run-started``     campaign accepted for execution
``telemetry.run.finished``    ``run-finished``    all cells resolved, stats final
``telemetry.job.queued``      ``job-submitted``   dispatcher accepted one job
``telemetry.job.started``     ``job-started``     execution began (or was leased)
``telemetry.job.finished``    ``job-done``        metrics + monotonic duration_s
``telemetry.job.cached``      ``job-cached``      artifact-store hit, not executed
``telemetry.job.requeued``    ``job-requeued``    lease lost / retryable failure
``telemetry.job.failed``      ``job-failed``      attempts exhausted, terminal
``telemetry.worker.joined``   ``worker-attached`` fleet worker said hello
``telemetry.worker.left``     ``worker-detached`` goodbye or connection lost
``telemetry.dispatcher.up``   ``dispatcher-ready`` socket bound, port known
``telemetry.artifact.saved``  ``artifact-saved``  CSV/manifest/log written
======================== =================== ==================================

The ``t`` field is a *monotonic* timestamp stamped by the publishing
:class:`~repro.experiments.telemetry.bus.TelemetryBus` (``time.monotonic``,
never the wall clock — RPL002): differences between event times are real
durations, absolute values are only meaningful within one run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.experiments.wire import Message, register_message

__all__ = [
    "TelemetryEvent",
    "RunStarted",
    "RunFinished",
    "JobQueued",
    "JobStarted",
    "JobFinished",
    "JobCached",
    "JobRequeued",
    "JobError",
    "WorkerJoined",
    "WorkerLeft",
    "DispatcherUp",
    "ArtifactSaved",
    "TELEMETRY_TYPE_PREFIX",
    "telemetry_event_types",
]

# Every telemetry TypeName starts with this; the dashboard's tail loop uses
# it to ignore non-telemetry frames on a shared socket.
TELEMETRY_TYPE_PREFIX = "telemetry."


@dataclass(frozen=True)
class TelemetryEvent(Message):
    """Behaviour-only base of every telemetry event (never on the wire).

    Adds the short event name (``EVENT``) that sinks, counters and the
    console renderer key on.
    """

    ABSTRACT_BASE: ClassVar[bool] = True
    # Short name, e.g. "job-done"; see the taxonomy table above.
    EVENT: ClassVar[str] = ""


@register_message
@dataclass(frozen=True)
class RunStarted(TelemetryEvent):
    """A campaign was accepted for execution (after dedupe, before cache scan)."""

    TYPE_NAME: ClassVar[str] = "telemetry.run.started"
    EVENT: ClassVar[str] = "run-started"

    campaign: str
    scale: str
    seed: int
    total_jobs: int
    executor: str
    jobs: int
    t: float = 0.0


@register_message
@dataclass(frozen=True)
class RunFinished(TelemetryEvent):
    """Every cell of a campaign reached a terminal state."""

    TYPE_NAME: ClassVar[str] = "telemetry.run.finished"
    EVENT: ClassVar[str] = "run-finished"

    campaign: str
    total_jobs: int
    executed: int
    cache_hits: int
    executor: str
    jobs: int
    elapsed_s: float
    t: float = 0.0


@register_message
@dataclass(frozen=True)
class JobQueued(TelemetryEvent):
    """The dispatcher accepted one job into its pending queue."""

    TYPE_NAME: ClassVar[str] = "telemetry.job.queued"
    EVENT: ClassVar[str] = "job-submitted"

    key: str
    kind: str
    t: float = 0.0


@register_message
@dataclass(frozen=True)
class JobStarted(TelemetryEvent):
    """Execution of one cell began (serial/pool) or was leased (fleet).

    ``worker`` is empty for in-process executors; ``attempt`` counts claims
    of this job, starting at 1, and only exceeds 1 after a fleet requeue.
    """

    TYPE_NAME: ClassVar[str] = "telemetry.job.started"
    EVENT: ClassVar[str] = "job-started"

    key: str
    kind: str
    worker: str = ""
    attempt: int = 1
    t: float = 0.0


@register_message
@dataclass(frozen=True)
class JobFinished(TelemetryEvent):
    """One cell completed; metrics use the null-for-NaN wire convention.

    ``duration_s`` is the cell's own monotonic execution time
    (``time.perf_counter`` around the job function), identical across
    executors for the same cell up to scheduling noise.
    """

    TYPE_NAME: ClassVar[str] = "telemetry.job.finished"
    EVENT: ClassVar[str] = "job-done"

    key: str
    kind: str
    metrics: dict
    duration_s: float
    worker: str = ""
    attempt: int = 1
    t: float = 0.0


@register_message
@dataclass(frozen=True)
class JobCached(TelemetryEvent):
    """One cell was satisfied from the artifact store without executing."""

    TYPE_NAME: ClassVar[str] = "telemetry.job.cached"
    EVENT: ClassVar[str] = "job-cached"

    key: str
    kind: str
    t: float = 0.0


@register_message
@dataclass(frozen=True)
class JobRequeued(TelemetryEvent):
    """A leased job went back to pending (lease expiry, worker loss, retry)."""

    TYPE_NAME: ClassVar[str] = "telemetry.job.requeued"
    EVENT: ClassVar[str] = "job-requeued"

    key: str
    kind: str
    reason: str
    attempt: int
    t: float = 0.0


@register_message
@dataclass(frozen=True)
class JobError(TelemetryEvent):
    """A job exhausted its attempts; the failure is terminal for the run."""

    TYPE_NAME: ClassVar[str] = "telemetry.job.failed"
    EVENT: ClassVar[str] = "job-failed"

    key: str
    kind: str
    error: str
    attempts: int
    t: float = 0.0


@register_message
@dataclass(frozen=True)
class WorkerJoined(TelemetryEvent):
    """A fleet worker attached to the dispatcher."""

    TYPE_NAME: ClassVar[str] = "telemetry.worker.joined"
    EVENT: ClassVar[str] = "worker-attached"

    worker: str
    pid: int
    t: float = 0.0


@register_message
@dataclass(frozen=True)
class WorkerLeft(TelemetryEvent):
    """A fleet worker detached (``reason``: goodbye | connection-lost)."""

    TYPE_NAME: ClassVar[str] = "telemetry.worker.left"
    EVENT: ClassVar[str] = "worker-detached"

    worker: str
    reason: str
    t: float = 0.0


@register_message
@dataclass(frozen=True)
class DispatcherUp(TelemetryEvent):
    """The fleet dispatcher bound its socket and is accepting workers."""

    TYPE_NAME: ClassVar[str] = "telemetry.dispatcher.up"
    EVENT: ClassVar[str] = "dispatcher-ready"

    host: str
    port: int
    jobs: int
    t: float = 0.0


@register_message
@dataclass(frozen=True)
class ArtifactSaved(TelemetryEvent):
    """An output file landed on disk (table CSV, manifest, telemetry log)."""

    TYPE_NAME: ClassVar[str] = "telemetry.artifact.saved"
    EVENT: ClassVar[str] = "artifact-saved"

    path: str
    kind: str
    experiment: str = ""
    t: float = 0.0


def telemetry_event_types() -> tuple[str, ...]:
    """Return the registered telemetry ``TypeName`` strings, sorted."""
    from repro.experiments.wire import message_types

    return tuple(
        name for name in message_types() if name.startswith(TELEMETRY_TYPE_PREFIX)
    )
