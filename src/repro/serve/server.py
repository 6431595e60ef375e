"""The ``hsis serve`` asyncio job server.

Architecture (verification-as-a-service over the existing substrate):

* an **asyncio front end** accepts newline-delimited JSON connections
  (:mod:`repro.serve.protocol`) and may pipeline many jobs per socket;
* submissions land on a **bounded queue** drained by ``jobs`` runner
  tasks; each runner executes one job at a time in its own
  single-worker :class:`~repro.parallel.pool.WorkerPool` (run in a
  thread via :func:`asyncio.to_thread`), so every job is a separate
  crash-isolated process with the pool's timeout/memory reaping;
* results are stored in the persistent content-addressed
  :class:`~repro.serve.cache.ResultCache`: a duplicate submission
  returns instantly with ``cached: true``, and **in-flight
  deduplication** coalesces concurrent identical submissions onto the
  one running worker (every waiter gets the same result line);
* ``status`` exposes the queue, the cache counters, and the
  server-level :class:`~repro.perf.EngineStats` (every job's worker
  stats are merged in); ``cancel`` removes a queued job or kills a
  running one through :meth:`WorkerPool.cancel`;
* with ``stream: true`` the worker's tracer events are relayed to the
  client as JSONL ``event`` lines (the server adds its own
  ``serve.job.*`` lifecycle instants), and ``trace_dir`` additionally
  persists one ``.jsonl`` trace file per job.

No client misbehavior — malformed JSON, oversized lines, disconnects
mid-stream — may take the server down; fault coverage lives in
``tests/test_serve_faults.py``.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.parallel.pool import WorkerPool
from repro.parallel.tasks import (
    STATUS_CANCELLED,
    STATUS_ERROR,
    STATUS_OK,
    ResultEnvelope,
)
from repro.perf import EngineStats
from repro.serve.cache import DEFAULT_CACHE_DIR, ResultCache, cache_key
from repro.serve.jobs import build_task
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    SubmitRequest,
    decode,
    encode,
    parse_submit,
)
from repro.trace.export import safe_write_trace
from repro.trace.tracer import Tracer

#: Ceiling on tracer events relayed to one streaming client; a huge
#: job's full timeline still lands in ``trace_dir``, the stream only
#: carries the head (plus a truncation notice).
MAX_STREAM_EVENTS = 2000

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_CANCELLED = "cancelled"


@dataclass
class Job:
    """Server-side state of one deduplicated submission."""

    job_id: str
    key: str
    request: SubmitRequest
    future: "asyncio.Future[Dict[str, Any]]"
    state: str = JOB_QUEUED
    pool: Optional[WorkerPool] = None
    cancel_requested: bool = False
    coalesced: int = 0
    submitted: float = field(default_factory=time.monotonic)
    started: Optional[float] = None
    finished: Optional[float] = None
    subscribers: List[asyncio.StreamWriter] = field(default_factory=list)

    def summary(self) -> Dict[str, Any]:
        return {
            "job": self.job_id,
            "kind": self.request.kind,
            "key": self.key,
            "state": self.state,
            "coalesced": self.coalesced,
            "waited_s": round(
                (self.started or time.monotonic()) - self.submitted, 4
            ),
        }


class HsisServer:
    """Accepts concurrent check/fuzz/profile jobs over TCP."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: int = 2,
        cache_dir: str = DEFAULT_CACHE_DIR,
        timeout: Optional[float] = 300.0,
        memory_limit: Optional[int] = None,
        backlog: int = 64,
        trace_dir: Optional[str] = None,
        tracer: Optional[Tracer] = None,
        cache_max_bytes: Optional[int] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.jobs = max(1, int(jobs))
        self.timeout = timeout
        self.memory_limit = memory_limit
        self.backlog = max(1, int(backlog))
        self.trace_dir = trace_dir
        self.cache = ResultCache(cache_dir, max_bytes=cache_max_bytes)
        self.stats = EngineStats()
        if tracer is not None:
            self.stats.tracer = tracer
        self._ids = itertools.count(1)
        self._registry: Dict[str, Job] = {}
        self._inflight: Dict[str, Job] = {}
        self._queue: Optional["asyncio.Queue[Job]"] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._runners: List[asyncio.Task] = []

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket (port 0 = ephemeral) and go live."""
        self._queue = asyncio.Queue(maxsize=self.backlog)
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._runners = [
            asyncio.create_task(self._runner(), name=f"hsis-serve-runner-{i}")
            for i in range(self.jobs)
        ]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Shut down: stop accepting, cancel runners and pending jobs."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for runner in self._runners:
            runner.cancel()
        await asyncio.gather(*self._runners, return_exceptions=True)
        for job in list(self._registry.values()):
            if job.pool is not None:
                job.pool.cancel()
            if not job.future.done():
                job.future.set_result(
                    self._result_message(
                        job,
                        ResultEnvelope(
                            task_id=job.job_id,
                            status=STATUS_CANCELLED,
                            error="server shut down",
                        ),
                    )
                )

    # -- connection handling --------------------------------------------

    async def _send(self, writer: asyncio.StreamWriter,
                    message: Dict[str, Any]) -> bool:
        """Serialize one line to one client; False if the client is gone."""
        # One lock per connection (responses from side tasks interleave);
        # stored on the writer so it dies with the connection.
        lock = getattr(writer, "_hsis_send_lock", None)
        if lock is None:
            lock = asyncio.Lock()
            writer._hsis_send_lock = lock
        try:
            async with lock:
                writer.write(encode(message))
                await writer.drain()
            return True
        except (ConnectionError, RuntimeError, OSError):
            return False

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        pending: List[asyncio.Task] = []
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # Framing is lost beyond an oversized line: report
                    # and close rather than misparse the remainder.
                    self.stats.bump("serve.protocol_errors")
                    await self._send(
                        writer,
                        {"ok": False, "op": "error",
                         "error": f"request line exceeds {MAX_LINE_BYTES} "
                                  "bytes; closing connection"},
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = decode(line)
                except ProtocolError as exc:
                    self.stats.bump("serve.protocol_errors")
                    await self._send(
                        writer, {"ok": False, "op": "error", "error": str(exc)}
                    )
                    continue
                op = message.get("op")
                if op == "submit":
                    # Handled on a side task so one connection can keep
                    # submitting (and receiving results) concurrently.
                    pending.append(
                        asyncio.create_task(
                            self._handle_submit(message, writer)
                        )
                    )
                elif op == "status":
                    await self._send(writer, self._status_message(message))
                elif op == "cancel":
                    await self._send(writer, self._cancel_message(message))
                elif op == "ping":
                    await self._send(
                        writer,
                        {"ok": True, "op": "pong",
                         "version": PROTOCOL_VERSION},
                    )
                else:
                    self.stats.bump("serve.protocol_errors")
                    await self._send(
                        writer,
                        {"ok": False, "op": "error",
                         "error": f"unknown op {op!r}"},
                    )
        except (ConnectionError, OSError):
            pass  # client vanished; its jobs (if any) keep running
        finally:
            for task in pending:
                if not task.done():
                    # Let in-flight submissions finish server-side; only
                    # their response writes will fail harmlessly.
                    task.add_done_callback(lambda _t: None)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- submit / dedup / cache -----------------------------------------

    async def _handle_submit(
        self, message: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = parse_submit(message)
        except ProtocolError as exc:
            self.stats.bump("serve.protocol_errors")
            await self._send(
                writer,
                {"ok": False, "op": "error", "id": message.get("id"),
                 "error": str(exc)},
            )
            return
        key = cache_key(
            request.kind, request.design_text, request.pif_text,
            request.knobs,
        )
        entry = self.cache.load(key)
        if entry is not None:
            self.stats.bump("serve.cache_hits")
            await self._send(
                writer,
                {
                    "ok": True,
                    "op": "result",
                    "id": request.client_id,
                    "job": None,
                    "key": key,
                    "cached": True,
                    "status": STATUS_OK,
                    "result": entry["result"],
                    "error": None,
                    "seconds": 0.0,
                    "cold_seconds": entry.get("seconds", 0.0),
                    "attempts": 0,
                },
            )
            return
        if self.cache.corrupt:
            # load() already classified any unverifiable entry; surface
            # the count in server stats for the integrity tests.
            self.stats.counters["serve.cache_corrupt"] = self.cache.corrupt
        job = self._inflight.get(key)
        coalesced = job is not None and job.state in (JOB_QUEUED, JOB_RUNNING)
        if not coalesced:
            job = Job(
                job_id=f"j{next(self._ids)}",
                key=key,
                request=request,
                future=asyncio.get_running_loop().create_future(),
            )
            assert self._queue is not None
            try:
                self._queue.put_nowait(job)
            except asyncio.QueueFull:
                self.stats.bump("serve.rejected")
                await self._send(
                    writer,
                    {"ok": False, "op": "error", "id": request.client_id,
                     "error": f"server busy: job queue is full "
                              f"({self.backlog} pending)"},
                )
                return
            self._registry[job.job_id] = job
            self._inflight[key] = job
            self.stats.bump("serve.submitted")
            self._emit_event(job, "serve.job.queued", kind=request.kind)
        else:
            job.coalesced += 1
            self.stats.bump("serve.coalesced")
        if request.stream:
            job.subscribers.append(writer)
        ok = await self._send(
            writer,
            {
                "ok": True,
                "op": "submitted",
                "id": request.client_id,
                "job": job.job_id,
                "key": key,
                "cached": False,
                "coalesced": coalesced,
            },
        )
        try:
            result = await asyncio.shield(job.future)
        except asyncio.CancelledError:
            return
        if ok:
            response = dict(result)
            response["id"] = request.client_id
            await self._send(writer, response)

    # -- execution ------------------------------------------------------

    async def _runner(self) -> None:
        assert self._queue is not None
        while True:
            job = await self._queue.get()
            try:
                if job.state == JOB_CANCELLED or job.cancel_requested:
                    self._complete(
                        job,
                        ResultEnvelope(
                            task_id=job.job_id,
                            status=STATUS_CANCELLED,
                            error="job cancelled while queued",
                        ),
                    )
                    continue
                job.state = JOB_RUNNING
                job.started = time.monotonic()
                self._emit_event(job, "serve.job.start", kind=job.request.kind)
                try:
                    envelope = await asyncio.to_thread(self._execute, job)
                except Exception as exc:  # server-side dispatch failure
                    envelope = ResultEnvelope(
                        task_id=job.job_id,
                        status=STATUS_ERROR,
                        error=f"server-side failure: {exc}",
                    )
                self._complete(job, envelope)
            finally:
                self._queue.task_done()

    def _execute(self, job: Job) -> ResultEnvelope:
        """Thread body: run one job in its own single-worker pool."""
        request = job.request
        timeout = self.timeout
        if request.timeout is not None:
            timeout = (
                min(timeout, request.timeout)
                if timeout is not None
                else request.timeout
            )
        trace = request.stream or self.trace_dir is not None
        pool = WorkerPool(jobs=1, timeout=timeout, retries=0)
        job.pool = pool
        if job.cancel_requested:
            pool.cancel()
        task = build_task(
            job.job_id,
            request.kind,
            request.design_kind,
            request.design_text,
            request.pif_text,
            request.knobs,
            trace,
            timeout,
            self.memory_limit,
        )
        with self.stats.phase("serve.job"):
            envelopes = pool.run([task])
        return envelopes[0]

    def _complete(self, job: Job, envelope: ResultEnvelope) -> None:
        job.finished = time.monotonic()
        job.state = (
            JOB_CANCELLED
            if envelope.status == STATUS_CANCELLED
            else JOB_DONE
        )
        if self._inflight.get(job.key) is job:
            del self._inflight[job.key]
        self.stats.bump("serve.jobs")
        self.stats.bump(f"serve.jobs.{envelope.status}")
        if envelope.stats is not None:
            self.stats.merge(envelope.stats)
        if envelope.ok:
            self.cache.store(
                job.key, job.request.kind, envelope.value, envelope.seconds
            )
        self._relay_worker_events(job, envelope)
        self._write_job_trace(job, envelope)
        self._emit_event(
            job, "serve.job.done", status=envelope.status,
            seconds=round(envelope.seconds, 4),
        )
        if not job.future.done():
            job.future.set_result(self._result_message(job, envelope))
        # Keep the registry bounded: drop the oldest finished jobs.
        if len(self._registry) > 4 * self.backlog:
            finished = [
                job_id for job_id, entry in self._registry.items()
                if entry.state in (JOB_DONE, JOB_CANCELLED)
            ]
            for job_id in finished[: len(finished) // 2]:
                del self._registry[job_id]

    def _result_message(
        self, job: Job, envelope: ResultEnvelope
    ) -> Dict[str, Any]:
        return {
            "ok": envelope.status == STATUS_OK,
            "op": "result",
            "job": job.job_id,
            "key": job.key,
            "cached": False,
            "status": envelope.status,
            "result": envelope.value,
            "error": envelope.error,
            "seconds": envelope.seconds,
            "attempts": envelope.attempts,
        }

    # -- progress streaming ---------------------------------------------

    def _emit_event(self, job: Job, name: str, **args: Any) -> None:
        """One lifecycle instant: server tracer + all stream subscribers."""
        self.stats.tracer.instant(name, cat="serve", job=job.job_id, **args)
        if job.subscribers:
            event = {"name": name, "cat": "serve", "ts": time.time(),
                     "args": dict(args, job=job.job_id)}
            self._broadcast(job, {"ok": True, "op": "event",
                                  "job": job.job_id, "event": event})

    def _broadcast(self, job: Job, message: Dict[str, Any]) -> None:
        for writer in list(job.subscribers):
            task = asyncio.ensure_future(self._send(writer, message))
            task.add_done_callback(
                lambda t, w=writer: (
                    job.subscribers.remove(w)
                    if w in job.subscribers
                    and (t.cancelled() or not t.result())
                    else None
                )
            )

    def _relay_worker_events(self, job: Job,
                             envelope: ResultEnvelope) -> None:
        """Forward the worker's tracer timeline as JSONL event lines."""
        if not job.subscribers or envelope.stats is None:
            return
        events = envelope.stats.tracer.events
        for event in events[:MAX_STREAM_EVENTS]:
            self._broadcast(
                job, {"ok": True, "op": "event", "job": job.job_id,
                      "event": event}
            )
        if len(events) > MAX_STREAM_EVENTS:
            self._broadcast(
                job,
                {"ok": True, "op": "event", "job": job.job_id,
                 "event": {"name": "serve.stream.truncated", "cat": "serve",
                           "args": {"total": len(events),
                                    "streamed": MAX_STREAM_EVENTS}}},
            )

    def _write_job_trace(self, job: Job, envelope: ResultEnvelope) -> None:
        """Persist the per-job trace file (best effort, never fatal)."""
        if self.trace_dir is None or envelope.stats is None:
            return
        if not envelope.stats.tracer.events:
            return
        import os

        os.makedirs(self.trace_dir, exist_ok=True)
        path = os.path.join(self.trace_dir, f"{job.job_id}.jsonl")
        fmt, error = safe_write_trace(envelope.stats.tracer, path)
        if error is not None:
            self.stats.bump("serve.trace_write_errors")
            self._emit_event(job, "serve.trace_error", error=error)

    # -- status / cancel -------------------------------------------------

    def _status_message(self, message: Dict[str, Any]) -> Dict[str, Any]:
        job_id = message.get("job")
        if job_id is not None:
            job = self._registry.get(job_id)
            if job is None:
                return {"ok": False, "op": "error",
                        "error": f"unknown job {job_id!r}"}
            return {"ok": True, "op": "status", "detail": job.summary()}
        states: Dict[str, int] = {}
        for job in self._registry.values():
            states[job.state] = states.get(job.state, 0) + 1
        snapshot = self.stats.snapshot()
        return {
            "ok": True,
            "op": "status",
            "jobs": states,
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "inflight": len(self._inflight),
            "cache": self.cache.snapshot(),
            "counters": dict(self.stats.counters),
            "phases": snapshot["phases"],
            "recent": [
                job.summary()
                for job in list(self._registry.values())[-8:]
            ],
        }

    def _cancel_message(self, message: Dict[str, Any]) -> Dict[str, Any]:
        job_id = message.get("job")
        job = self._registry.get(job_id) if isinstance(job_id, str) else None
        if job is None:
            return {"ok": False, "op": "error",
                    "error": f"unknown job {job_id!r}"}
        if job.state in (JOB_DONE, JOB_CANCELLED):
            return {"ok": True, "op": "cancelled", "job": job.job_id,
                    "state": job.state, "already_finished": True}
        job.cancel_requested = True
        if job.state == JOB_QUEUED:
            # The runner will see the flag when it dequeues the job; the
            # client still gets its result line (status: cancelled).
            job.state = JOB_CANCELLED
        if job.pool is not None:
            job.pool.cancel()
        self.stats.bump("serve.cancelled_requests")
        return {"ok": True, "op": "cancelled", "job": job.job_id,
                "state": job.state, "already_finished": False}
