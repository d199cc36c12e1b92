"""Tests for the campaign dispatcher: leases, heartbeats, requeue, retries.

These drive a real :class:`Dispatcher` listening on an ephemeral localhost
port with hand-rolled fake workers (raw reader/writer pairs speaking the wire
protocol), so every lease/requeue transition is exercised over an actual
socket without spawning subprocesses.
"""

import asyncio
import math

import pytest

from repro.experiments.campaign import JobSpec
from repro.experiments.service import SELFTEST_KIND
from repro.experiments.service.dispatcher import Dispatcher, FleetJobError
from repro.experiments.service.protocol import (
    MAX_FRAME_BYTES,
    Heartbeat,
    JobClaim,
    JobDone,
    JobFailed,
    JobSubmit,
    WorkerGoodbye,
    WorkerHello,
    decode_frame,
    encode_frame,
)
from repro.experiments.telemetry import CallbackSink, TelemetryBus


def spec_for(value):
    return JobSpec.make(SELFTEST_KIND, value=value)


class FakeWorker:
    """A scripted worker: attach, read claims, reply with whatever the test says."""

    def __init__(self, dispatcher: Dispatcher, worker_id: str):
        self.dispatcher = dispatcher
        self.worker_id = worker_id
        self.reader = None
        self.writer = None

    async def connect(self, *, hello: bool = True):
        self.reader, self.writer = await asyncio.open_connection(
            self.dispatcher.host, self.dispatcher.port, limit=MAX_FRAME_BYTES
        )
        if hello:
            await self.send(WorkerHello(worker_id=self.worker_id, pid=1))
        return self

    async def send(self, message):
        self.writer.write(encode_frame(message))
        await self.writer.drain()

    async def read(self, timeout: float = 5.0):
        line = await asyncio.wait_for(self.reader.readline(), timeout)
        if not line:
            return None  # EOF: the dispatcher hung up
        return decode_frame(line)

    async def read_claim(self, timeout: float = 5.0) -> JobClaim:
        message = await self.read(timeout)
        assert isinstance(message, JobClaim), message
        return message

    async def finish(self, claim: JobClaim, **metrics):
        await self.send(
            JobDone(
                worker_id=self.worker_id,
                job_key=claim.job_key,
                metrics=metrics or {"value": 1.0},
                elapsed=0.01,
            )
        )

    async def close(self):
        if self.writer is not None:
            self.writer.close()


def recording_bus(callback) -> TelemetryBus:
    """A private bus that hands every published event to ``callback``."""
    bus = TelemetryBus()
    bus.attach(CallbackSink(callback))
    return bus


async def start_dispatcher(**kwargs) -> Dispatcher:
    kwargs.setdefault("lease_seconds", 5.0)
    kwargs.setdefault("heartbeat_seconds", 0.05)
    dispatcher = Dispatcher(**kwargs)
    await dispatcher.start()
    return dispatcher


async def next_result(dispatcher: Dispatcher, timeout: float = 5.0):
    return await asyncio.wait_for(dispatcher.results.get(), timeout)


class TestDispatcher:
    def test_claim_and_complete(self):
        async def scenario():
            events = []
            dispatcher = await start_dispatcher(bus=recording_bus(lambda e: events.append(e.EVENT)))
            try:
                specs = [spec_for(1), spec_for(2)]
                for spec in specs:
                    assert dispatcher.submit(spec)
                assert not dispatcher.submit(specs[0])  # duplicate key ignored
                worker = await FakeWorker(dispatcher, "w1").connect()
                seen = {}
                for _ in specs:
                    claim = await worker.read_claim()
                    assert claim.attempt == 1
                    await worker.finish(claim, value=float(len(seen)), gap=None)
                    kind, result = await next_result(dispatcher)
                    assert kind == "result"
                    seen[result.key] = result
                assert set(seen) == {spec.key for spec in specs}
                # The null metric sentinel decodes back to NaN.
                assert all(math.isnan(r.metrics["gap"]) for r in seen.values())
                assert dispatcher.unfinished == 0
                await worker.close()
            finally:
                await dispatcher.close()
            assert "worker-attached" in events
            assert "job-started" in events
            assert "job-done" in events

        asyncio.run(scenario())

    def test_disconnect_requeues_leased_job(self):
        async def scenario():
            dispatcher = await start_dispatcher()
            try:
                dispatcher.submit(spec_for(1))
                first = await FakeWorker(dispatcher, "w1").connect()
                claim = await first.read_claim()
                await first.close()  # dies mid-job
                second = await FakeWorker(dispatcher, "w2").connect()
                retry = await second.read_claim()
                assert retry.job_key == claim.job_key
                assert retry.attempt == 2
                await second.finish(retry)
                kind, result = await next_result(dispatcher)
                assert kind == "result"
                assert result.key == claim.job_key
                await second.close()
            finally:
                await dispatcher.close()

        asyncio.run(scenario())

    def test_lease_expiry_requeues_without_disconnect(self):
        async def scenario():
            dispatcher = await start_dispatcher(lease_seconds=0.2)
            try:
                dispatcher.submit(spec_for(1))
                hung = await FakeWorker(dispatcher, "hung").connect()
                claim = await hung.read_claim()
                # The hung worker never heartbeats; the watchdog takes the
                # job away and a later worker gets it.
                await asyncio.sleep(0.4)
                fresh = await FakeWorker(dispatcher, "fresh").connect()
                retry = await fresh.read_claim()
                assert retry.job_key == claim.job_key
                assert retry.attempt == 2
                await fresh.finish(retry)
                kind, _ = await next_result(dispatcher)
                assert kind == "result"
                await hung.close()
                await fresh.close()
            finally:
                await dispatcher.close()

        asyncio.run(scenario())

    def test_heartbeat_extends_lease(self):
        async def scenario():
            events = []
            dispatcher = await start_dispatcher(
                lease_seconds=0.3, bus=recording_bus(lambda e: events.append(e.EVENT))
            )
            try:
                dispatcher.submit(spec_for(1))
                worker = await FakeWorker(dispatcher, "w1").connect()
                claim = await worker.read_claim()
                # Keep beating for well over the lease; the job must stay ours.
                for _ in range(8):
                    await asyncio.sleep(0.1)
                    await worker.send(
                        Heartbeat(worker_id="w1", job_key=claim.job_key)
                    )
                assert "job-requeued" not in events
                await worker.finish(claim)
                kind, _ = await next_result(dispatcher)
                assert kind == "result"
                await worker.close()
            finally:
                await dispatcher.close()

        asyncio.run(scenario())

    def test_failure_retries_then_surfaces_typed_error(self):
        async def scenario():
            dispatcher = await start_dispatcher(max_attempts=2)
            try:
                spec = spec_for(1)
                dispatcher.submit(spec)
                worker = await FakeWorker(dispatcher, "w1").connect()
                for attempt in (1, 2):
                    claim = await worker.read_claim()
                    assert claim.attempt == attempt
                    await worker.send(
                        JobFailed(
                            worker_id="w1",
                            job_key=claim.job_key,
                            error="RuntimeError: boom",
                            traceback="",
                        )
                    )
                kind, error = await next_result(dispatcher)
                assert kind == "error"
                assert isinstance(error, FleetJobError)
                assert error.job_key == spec.key
                assert error.attempts == 2
                assert "boom" in error.error
                await worker.close()
            finally:
                await dispatcher.close()

        asyncio.run(scenario())

    def test_remote_submit_over_the_wire(self):
        async def scenario():
            dispatcher = await start_dispatcher()
            try:
                worker = await FakeWorker(dispatcher, "w1").connect()
                spec = spec_for(7)
                await worker.send(JobSubmit(kind=spec.kind, params=spec.param_dict()))
                claim = await worker.read_claim()
                # The dispatcher recomputed the same content hash.
                assert claim.job_key == spec.key
                await worker.finish(claim)
                kind, result = await next_result(dispatcher)
                assert kind == "result"
                assert result.key == spec.key
                await worker.close()
            finally:
                await dispatcher.close()

        asyncio.run(scenario())

    def test_duplicate_completion_dropped(self):
        async def scenario():
            dispatcher = await start_dispatcher(lease_seconds=0.2)
            try:
                dispatcher.submit(spec_for(1))
                slow = await FakeWorker(dispatcher, "slow").connect()
                claim = await slow.read_claim()
                await asyncio.sleep(0.4)  # lease expires, job requeued
                fast = await FakeWorker(dispatcher, "fast").connect()
                retry = await fast.read_claim()
                await fast.finish(retry, value=1.0)
                kind, _ = await next_result(dispatcher)
                assert kind == "result"
                # The slow worker wakes up and reports too: dropped.
                await slow.finish(claim, value=1.0)
                await asyncio.sleep(0.1)
                assert dispatcher.results.empty()
                await slow.close()
                await fast.close()
            finally:
                await dispatcher.close()

        asyncio.run(scenario())

    def test_goodbye_detaches_cleanly(self):
        async def scenario():
            events = []
            dispatcher = await start_dispatcher(bus=recording_bus(events.append))
            try:
                worker = await FakeWorker(dispatcher, "w1").connect()
                await asyncio.sleep(0.05)
                assert dispatcher.worker_count == 1
                await worker.send(WorkerGoodbye(worker_id="w1", reason="test"))
                assert await worker.read() is None  # dispatcher hangs up
                assert dispatcher.worker_count == 0
                await worker.close()
            finally:
                await dispatcher.close()
            detached = [e for e in events if e.EVENT == "worker-detached"]
            assert detached and detached[0].reason == "goodbye"

        asyncio.run(scenario())

    def test_first_frame_must_be_hello(self):
        async def scenario():
            dispatcher = await start_dispatcher()
            try:
                worker = FakeWorker(dispatcher, "w1")
                await worker.connect(hello=False)
                await worker.send(Heartbeat(worker_id="w1", job_key=""))
                assert await worker.read() is None  # rejected: EOF
                assert dispatcher.worker_count == 0
                await worker.close()
            finally:
                await dispatcher.close()

        asyncio.run(scenario())

    def test_duplicate_worker_id_rejected(self):
        async def scenario():
            dispatcher = await start_dispatcher()
            try:
                first = await FakeWorker(dispatcher, "twin").connect()
                await asyncio.sleep(0.05)
                second = await FakeWorker(dispatcher, "twin").connect()
                assert await second.read() is None  # rejected: EOF
                assert dispatcher.worker_count == 1
                await first.close()
                await second.close()
            finally:
                await dispatcher.close()

        asyncio.run(scenario())


class TestFleetJobError:
    def test_message_carries_context(self):
        error = FleetJobError("abcd", "sweep-cell", 3, "ValueError: nope")
        assert "abcd" in str(error)
        assert "sweep-cell" in str(error)
        assert "3 attempt(s)" in str(error)
        assert isinstance(error, RuntimeError)

    def test_raisable(self):
        with pytest.raises(FleetJobError, match="nope"):
            raise FleetJobError("k", "kind", 1, "nope")
