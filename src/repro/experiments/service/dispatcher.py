"""Asyncio campaign dispatcher: work queue, leases, heartbeats, requeue.

The dispatcher owns the pending-job queue of a campaign and serves it to
workers that attach over a localhost TCP socket speaking the newline-delimited
JSON protocol of :mod:`repro.experiments.service.protocol`:

* a worker attaches with :class:`~.protocol.WorkerHello` and is immediately
  offered a job (:class:`~.protocol.JobClaim`) under a *lease*;
* while executing, the worker's periodic :class:`~.protocol.Heartbeat`
  frames extend the lease; a worker that stops heartbeating — hung, killed,
  or partitioned — loses the lease and the job is requeued for another
  worker;
* a dropped connection requeues the worker's leased job immediately (no need
  to wait out the lease);
* :class:`~.protocol.JobFailed` requeues the job until ``max_attempts``
  claims have been burned, after which the failure is surfaced to the
  consumer;
* :class:`~.protocol.JobSubmit` frames are accepted too, so jobs can be
  enqueued remotely as well as in-process.

Completed results land on :attr:`Dispatcher.results`, an ``asyncio.Queue``
of ``("result", JobResult)`` / ``("error", FleetJobError)`` items that the
fleet executor consumes.  Job identity is the spec content hash, so a job
that is requeued and finished twice (a slow worker racing its replacement)
is counted once: the first completion wins and the duplicate is dropped —
both executions are deterministic replicas of the same cell, so which copy
wins is unobservable in the tables.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.experiments.campaign import JobResult, JobSpec
from repro.experiments.service.protocol import (
    MAX_FRAME_BYTES,
    Heartbeat,
    JobClaim,
    JobDone,
    JobFailed,
    JobSubmit,
    Message,
    ProtocolError,
    WorkerGoodbye,
    WorkerHello,
    decode_frame,
    decode_metrics,
    encode_frame,
)
from repro.experiments.telemetry.bus import TelemetryBus, global_bus
from repro.experiments.telemetry.events import (
    JobError,
    JobFinished,
    JobQueued,
    JobRequeued,
    JobStarted,
    WorkerJoined,
    WorkerLeft,
)
from repro.utils.logging import get_logger

__all__ = ["Dispatcher", "FleetJobError"]

_LOGGER = get_logger("experiments.service.dispatcher")


class FleetJobError(RuntimeError):
    """A job exhausted its claim attempts; carries the last worker error."""

    def __init__(self, job_key: str, kind: str, attempts: int, error: str):
        super().__init__(
            f"job {job_key} ({kind!r}) failed after {attempts} attempt(s): {error}"
        )
        self.job_key = job_key
        self.kind = kind
        self.attempts = attempts
        self.error = error


@dataclass
class _Job:
    """Dispatcher-side state of one submitted job."""

    spec: JobSpec
    status: str = "pending"  # pending | leased | done | failed
    attempts: int = 0  # claims granted so far
    worker_id: str = ""
    lease_deadline: float = 0.0
    last_error: str = ""


@dataclass
class _WorkerConn:
    """One attached worker connection."""

    worker_id: str
    writer: asyncio.StreamWriter
    last_seen: float
    current: str | None = None  # key of the leased job, if any
    goodbye: bool = False


class Dispatcher:
    """Serve a queue of campaign jobs to socket-attached workers.

    Parameters
    ----------
    host, port:
        Listen address; port 0 binds an ephemeral port (read it back from
        :attr:`port` after :meth:`start`).
    lease_seconds:
        How long a claim stays valid without a heartbeat.
    heartbeat_seconds:
        Expected worker heartbeat interval; the watchdog ticks at half this.
    max_attempts:
        Claims granted to one job before its failure becomes permanent.
    bus:
        Telemetry bus to publish typed events on (worker attach, job
        started/requeued/done, ...); defaults to the process-wide
        :func:`~repro.experiments.telemetry.bus.global_bus`.  Sinks are
        called on the event loop and must not block.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_seconds: float = 30.0,
        heartbeat_seconds: float = 1.0,
        max_attempts: int = 3,
        bus: TelemetryBus | None = None,
    ):
        self.host = host
        self.port = port
        self.lease_seconds = float(lease_seconds)
        self.heartbeat_seconds = float(heartbeat_seconds)
        self.max_attempts = int(max_attempts)
        self.bus = bus if bus is not None else global_bus()
        self._jobs: dict[str, _Job] = {}
        self._queue: deque[str] = deque()
        self._workers: dict[str, _WorkerConn] = {}
        self._server: asyncio.base_events.Server | None = None
        self._watchdog: asyncio.Task[None] | None = None
        self._handlers: set[asyncio.Task[Any]] = set()
        # ("result", JobResult) / ("error", FleetJobError) items.
        self.results: asyncio.Queue[tuple[str, Any]] = asyncio.Queue()

    # -- lifecycle -------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and start the lease watchdog."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_FRAME_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._watchdog = asyncio.get_running_loop().create_task(self._tick_loop())
        _LOGGER.info("dispatcher listening on %s:%d", self.host, self.port)

    async def close(self) -> None:
        """Stop serving: close the socket and every worker connection."""
        if self._watchdog is not None:
            self._watchdog.cancel()
            try:
                await self._watchdog
            except asyncio.CancelledError:
                pass
            self._watchdog = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for conn in list(self._workers.values()):
            conn.writer.close()
        self._workers.clear()
        if self._handlers:
            # Closed transports feed EOF to each handler's readline; wait for
            # them to unwind so event-loop teardown never cancels one mid-read.
            await asyncio.wait(list(self._handlers), timeout=5.0)

    # -- submission ------------------------------------------------------------------

    def submit(self, spec: JobSpec) -> bool:
        """Enqueue one job; duplicates (same content hash) are ignored."""
        if spec.key in self._jobs:
            return False
        self._jobs[spec.key] = _Job(spec=spec)
        self._queue.append(spec.key)
        self.bus.publish(JobQueued(key=spec.key, kind=spec.kind))
        self._dispatch_to_idle()
        return True

    @property
    def worker_count(self) -> int:
        """Number of currently attached workers."""
        return len(self._workers)

    @property
    def unfinished(self) -> int:
        """Jobs not yet in a terminal state."""
        return sum(1 for job in self._jobs.values() if job.status in ("pending", "leased"))

    # -- connection handling ---------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        conn: _WorkerConn | None = None
        try:
            line = await reader.readline()
            if not line:
                return
            try:
                hello = decode_frame(line)
            except ProtocolError as exc:
                _LOGGER.warning("rejecting connection: %s", exc)
                return
            if not isinstance(hello, WorkerHello):
                _LOGGER.warning(
                    "rejecting connection: first frame was %s, not WorkerHello",
                    hello.TYPE_NAME,
                )
                return
            if hello.worker_id in self._workers:
                _LOGGER.warning(
                    "rejecting duplicate worker id %r", hello.worker_id
                )
                return
            conn = _WorkerConn(
                worker_id=hello.worker_id,
                writer=writer,
                last_seen=self._now(),
            )
            self._workers[hello.worker_id] = conn
            self.bus.publish(WorkerJoined(worker=hello.worker_id, pid=hello.pid))
            self._offer(conn)
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    message = decode_frame(line)
                except ProtocolError as exc:
                    _LOGGER.warning("worker %s sent a bad frame: %s", conn.worker_id, exc)
                    break
                conn.last_seen = self._now()
                if self._handle_message(conn, message):
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if task is not None:
                self._handlers.discard(task)
            if conn is not None:
                self._workers.pop(conn.worker_id, None)
                if conn.current is not None:
                    self._requeue(conn.current, reason="worker-lost")
                self.bus.publish(
                    WorkerLeft(
                        worker=conn.worker_id,
                        reason="goodbye" if conn.goodbye else "connection-lost",
                    )
                )
            writer.close()

    def _handle_message(self, conn: _WorkerConn, message: Message) -> bool:
        """Process one frame; returns True when the connection should close."""
        if isinstance(message, Heartbeat):
            job = self._jobs.get(message.job_key) if message.job_key else None
            if job is not None and job.status == "leased" and job.worker_id == conn.worker_id:
                job.lease_deadline = self._now() + self.lease_seconds
            return False
        if isinstance(message, JobDone):
            self._finish(conn, message)
            return False
        if isinstance(message, JobFailed):
            self._fail(conn, message)
            return False
        if isinstance(message, JobSubmit):
            self.submit(JobSpec.make(message.kind, **message.params))
            return False
        if isinstance(message, WorkerGoodbye):
            conn.goodbye = True
            return True
        _LOGGER.warning(
            "worker %s sent unexpected %s frame", conn.worker_id, message.TYPE_NAME
        )
        return False

    # -- job state transitions -------------------------------------------------------

    def _offer(self, conn: _WorkerConn) -> None:
        """Grant the next pending job to an idle worker, if any."""
        if conn.current is not None:
            return
        if self._now() - conn.last_seen > self.lease_seconds:
            # Silent for a whole lease: presumed hung.  Its expired job was
            # requeued; don't hand the same worker more work until it speaks
            # again (a heartbeat or a late reply resets last_seen).
            return
        while self._queue:
            key = self._queue.popleft()
            job = self._jobs[key]
            if job.status != "pending":
                continue  # finished by a racing duplicate while queued
            job.status = "leased"
            job.attempts += 1
            job.worker_id = conn.worker_id
            job.lease_deadline = self._now() + self.lease_seconds
            conn.current = key
            claim = JobClaim(
                job_key=key,
                kind=job.spec.kind,
                params=job.spec.param_dict(),
                lease_seconds=self.lease_seconds,
                attempt=job.attempts,
            )
            conn.writer.write(encode_frame(claim))
            self.bus.publish(
                JobStarted(
                    key=key,
                    kind=job.spec.kind,
                    worker=conn.worker_id,
                    attempt=job.attempts,
                )
            )
            return

    def _dispatch_to_idle(self) -> None:
        for conn in self._workers.values():
            if not self._queue:
                return
            self._offer(conn)

    def _finish(self, conn: _WorkerConn, message: JobDone) -> None:
        job = self._jobs.get(message.job_key)
        if conn.current == message.job_key:
            conn.current = None
        if job is None or job.status in ("done", "failed"):
            # Late completion of a requeued job whose replacement already
            # finished; executions are deterministic replicas, drop it.
            self._offer(conn)
            return
        job.status = "done"
        result = JobResult(
            key=job.spec.key,
            kind=job.spec.kind,
            metrics=decode_metrics(message.metrics),
            elapsed=float(message.elapsed),
        )
        self.results.put_nowait(("result", result))
        self.bus.publish(
            JobFinished(
                key=job.spec.key,
                kind=job.spec.kind,
                metrics=dict(message.metrics),
                duration_s=float(message.elapsed),
                worker=conn.worker_id,
                attempt=job.attempts,
            )
        )
        self._offer(conn)

    def _fail(self, conn: _WorkerConn, message: JobFailed) -> None:
        job = self._jobs.get(message.job_key)
        if conn.current == message.job_key:
            conn.current = None
        if job is None or job.status in ("done", "failed"):
            self._offer(conn)
            return
        job.last_error = message.error
        if message.traceback:
            _LOGGER.warning(
                "job %s failed on worker %s:\n%s",
                message.job_key,
                conn.worker_id,
                message.traceback,
            )
        if job.attempts >= self.max_attempts:
            job.status = "failed"
            self.results.put_nowait(
                (
                    "error",
                    FleetJobError(job.spec.key, job.spec.kind, job.attempts, job.last_error),
                )
            )
            self.bus.publish(
                JobError(
                    key=job.spec.key,
                    kind=job.spec.kind,
                    error=job.last_error,
                    attempts=job.attempts,
                )
            )
        else:
            self._requeue(message.job_key, reason="job-error")
        self._offer(conn)

    def _requeue(self, key: str, *, reason: str) -> None:
        job = self._jobs.get(key)
        if job is None or job.status != "leased":
            return
        job.status = "pending"
        job.worker_id = ""
        job.lease_deadline = 0.0
        self._queue.append(key)
        self.bus.publish(
            JobRequeued(
                key=key, kind=job.spec.kind, reason=reason, attempt=job.attempts
            )
        )
        self._dispatch_to_idle()

    # -- watchdog --------------------------------------------------------------------

    async def _tick_loop(self) -> None:
        interval = max(self.heartbeat_seconds / 2.0, 0.01)
        while True:
            await asyncio.sleep(interval)
            self._expire_leases()

    def _expire_leases(self) -> None:
        now = self._now()
        for key, job in self._jobs.items():
            if job.status == "leased" and job.lease_deadline < now:
                holder = self._workers.get(job.worker_id)
                if holder is not None and holder.current == key:
                    # The worker is presumed hung: take the job away.  Its
                    # connection stays open so a late JobDone is still
                    # drained (and dropped as a duplicate).
                    holder.current = None
                self._requeue(key, reason="lease-expired")

    # -- helpers ---------------------------------------------------------------------

    @staticmethod
    def _now() -> float:
        return asyncio.get_running_loop().time()
