"""Structured telemetry for campaign runs: typed events, bus, sinks, metrics.

The package unifies what used to be three ad-hoc reporting paths (the
executors' progress dictionaries, the dispatcher's event callbacks and the
runner's inline ``[saved ...]`` printing) behind one typed event stream:

* :mod:`~repro.experiments.telemetry.events` — the frozen event dataclasses
  (same TypeName/Version frame discipline as the fleet wire protocol, gated
  by the RPL004 schema snapshot);
* :mod:`~repro.experiments.telemetry.bus` — the publish/fan-out bus and the
  standard sinks (JSON-lines file, localhost socket broadcast, counters,
  callback adapter);
* :mod:`~repro.experiments.telemetry.aggregate` — fold an event stream into
  run metrics (job states, cache-hit rate, throughput, latency percentiles,
  Monte-Carlo CI widths).

The live dashboard (``python -m repro.experiments.dashboard``) consumes this
stream over a socket or from a finished ``run.jsonl``.
"""

from repro.experiments.telemetry.aggregate import JobView, RunAggregator, percentile
from repro.experiments.telemetry.bus import (
    CallbackSink,
    ConsoleSink,
    CountingSink,
    JsonlSink,
    SocketSink,
    TelemetryBus,
    TelemetrySink,
    global_bus,
    read_events,
)
from repro.experiments.telemetry.events import (
    TELEMETRY_TYPE_PREFIX,
    ArtifactSaved,
    DispatcherUp,
    JobCached,
    JobError,
    JobFinished,
    JobQueued,
    JobRequeued,
    JobStarted,
    RunFinished,
    RunStarted,
    TelemetryEvent,
    WorkerJoined,
    WorkerLeft,
    telemetry_event_types,
)

__all__ = [
    "TELEMETRY_TYPE_PREFIX",
    "ArtifactSaved",
    "CallbackSink",
    "ConsoleSink",
    "CountingSink",
    "DispatcherUp",
    "JobCached",
    "JobError",
    "JobFinished",
    "JobQueued",
    "JobRequeued",
    "JobStarted",
    "JobView",
    "JsonlSink",
    "RunAggregator",
    "RunFinished",
    "RunStarted",
    "SocketSink",
    "TelemetryBus",
    "TelemetryEvent",
    "TelemetrySink",
    "WorkerJoined",
    "WorkerLeft",
    "global_bus",
    "percentile",
    "read_events",
    "telemetry_event_types",
]
