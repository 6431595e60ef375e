"""Fault-injection coverage for the ``hsis serve`` job server.

The serving counterpart of ``test_parallel_faults.py``: hostile
*workers* (hard exits, deadline overruns, memory hogs — injected by
monkeypatching the :data:`repro.serve.jobs.WORKERS` dispatch table,
which fork-started workers inherit) and hostile *clients* (malformed
JSON, oversized lines, disconnecting mid-stream).  The guarantees under
test: every fault surfaces as a clean ERROR/status line, the queue
never stalls, no worker process outlives its job, and the server keeps
serving healthy traffic afterwards.
"""

import asyncio
import multiprocessing
import os
import time

import pytest

import repro.serve.jobs as serve_jobs
from repro.serve import MAX_LINE_BYTES, HsisServer, ServeClient
from repro.serve.protocol import encode

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="hostile worker bodies live in this module; workers must fork",
)

#: Every server interaction must finish well inside this, or a fault
#: the pool should have reaped has wedged the queue.
STALL_BUDGET_SECONDS = 60.0


# -- hostile worker bodies (module-level: they cross a fork boundary) --


def _hard_exit_job(*args, **kwargs):
    os._exit(3)


def _sleep_job(*args, **kwargs):
    time.sleep(600.0)


def _hungry_job(*args, **kwargs):
    hoard = []
    for _ in range(64):
        hoard.append(bytearray(16 * 1024 * 1024))  # 16 MiB a bite
    return hoard[0][0]


def serve_test(body, tmp_path, **server_kwargs):
    server_kwargs.setdefault("jobs", 2)
    server_kwargs.setdefault("timeout", 30.0)
    server_kwargs.setdefault("cache_dir", str(tmp_path / "cache"))

    async def main():
        server = HsisServer(host="127.0.0.1", port=0, **server_kwargs)
        await server.start()
        try:
            return await asyncio.wait_for(
                body(server), timeout=STALL_BUDGET_SECONDS
            )
        finally:
            await server.stop()

    return asyncio.run(main())


async def healthy_fuzz(port, seed=0):
    """A real (non-hostile) job proving the server still serves."""
    async with ServeClient(port=port) as client:
        return await client.submit("fuzz", knobs={"trials": 1, "seed": seed})


class TestHostileWorkers:
    def test_hard_exit_surfaces_as_crashed(self, tmp_path, monkeypatch):
        monkeypatch.setitem(serve_jobs.WORKERS, "check", _hard_exit_job)

        async def body(server):
            async with ServeClient(port=server.port) as client:
                doomed = await client.submit(
                    "check", design={"gallery": "traffic"}
                )
            alive = await healthy_fuzz(server.port)
            return doomed, alive

        doomed, alive = serve_test(body, tmp_path)
        assert not doomed["ok"]
        assert doomed["status"] == "crashed"
        assert "exit code 3" in doomed["error"]
        assert doomed["result"] is None
        assert alive["ok"], "server stopped serving after a worker crash"
        assert not multiprocessing.active_children(), "worker leaked"

    def test_sleep_past_deadline_is_reaped(self, tmp_path, monkeypatch):
        monkeypatch.setitem(serve_jobs.WORKERS, "check", _sleep_job)

        async def body(server):
            start = time.monotonic()
            async with ServeClient(port=server.port) as client:
                doomed = await client.submit(
                    "check", design={"gallery": "traffic"}
                )
            elapsed = time.monotonic() - start
            alive = await healthy_fuzz(server.port)
            return doomed, elapsed, alive

        doomed, elapsed, alive = serve_test(body, tmp_path, timeout=0.5)
        assert doomed["status"] == "timeout"
        assert "deadline" in doomed["error"]
        assert elapsed < STALL_BUDGET_SECONDS
        assert alive["ok"]
        assert not multiprocessing.active_children(), "worker leaked"

    def test_crashed_and_hung_jobs_never_poison_the_cache(
        self, tmp_path, monkeypatch
    ):
        """A failed job must not be cached: fixing the worker (here,
        un-patching it) makes the same submission succeed cold."""
        monkeypatch.setitem(serve_jobs.WORKERS, "fuzz", _hard_exit_job)

        async def crash(server):
            return await healthy_fuzz(server.port)

        doomed = serve_test(crash, tmp_path)
        assert doomed["status"] == "crashed"

        monkeypatch.setitem(
            serve_jobs.WORKERS, "fuzz", serve_jobs.run_fuzz_job
        )

        async def retry(server):
            return await healthy_fuzz(server.port)

        recovered = serve_test(retry, tmp_path)
        assert recovered["ok"]
        assert not recovered["cached"], "a crashed result was cached"

    def test_memory_quota_is_enforced(self, tmp_path, monkeypatch):
        monkeypatch.setitem(serve_jobs.WORKERS, "fuzz", _hungry_job)

        async def body(server):
            doomed = await healthy_fuzz(server.port)
            return doomed

        doomed = serve_test(
            body, tmp_path, memory_limit=128 * 1024 * 1024
        )
        # RLIMIT_AS makes the allocation fail: MemoryError (ERROR) on
        # most platforms, or an outright abort (CRASHED) — either way
        # the quota held and the failure is explicit.
        assert not doomed["ok"]
        assert doomed["status"] in ("error", "crashed")
        if doomed["status"] == "error":
            assert "MemoryError" in doomed["error"]
        assert not multiprocessing.active_children(), "worker leaked"


class TestCancellation:
    def test_cancel_running_job_reaps_its_worker(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setitem(serve_jobs.WORKERS, "check", _sleep_job)

        async def body(server):
            async with ServeClient(port=server.port) as client:
                ack = await client.submit_nowait(
                    "check", design={"gallery": "traffic"}
                )
                job_id = ack["job"]
                deadline = asyncio.get_running_loop().time() + 30.0
                while True:
                    async with ServeClient(port=server.port) as probe:
                        detail = await probe.status(job_id)
                    if detail["detail"]["state"] == "running":
                        break
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.02)
                async with ServeClient(port=server.port) as probe:
                    cancelled = await probe.cancel(job_id)
                result = await client.wait_result()
            return cancelled, result

        cancelled, result = serve_test(body, tmp_path, timeout=300.0)
        assert cancelled["ok"] and not cancelled["already_finished"]
        assert result["status"] == "cancelled"
        assert "cancelled" in result["error"]
        assert not multiprocessing.active_children(), "worker leaked"

    def test_cancel_queued_job_never_runs(self, tmp_path, monkeypatch):
        monkeypatch.setitem(serve_jobs.WORKERS, "check", _sleep_job)

        async def body(server):
            async with ServeClient(port=server.port) as blocker, \
                    ServeClient(port=server.port) as victim:
                await blocker.submit_nowait(
                    "check", design={"gallery": "traffic"}
                )
                ack = await victim.submit_nowait(
                    "check", design={"gallery": "elevator"}
                )
                async with ServeClient(port=server.port) as probe:
                    cancelled = await probe.cancel(ack["job"])
                    # Unblock the runner so the queued cancel drains.
                    first = await probe.cancel(
                        (await probe.status())["recent"][0]["job"]
                    )
                result = await victim.wait_result()
            return cancelled, first, result

        cancelled, first, result = serve_test(
            body, tmp_path, jobs=1, timeout=300.0
        )
        assert cancelled["ok"]
        assert result["status"] == "cancelled"
        assert "queued" in result["error"]
        assert not multiprocessing.active_children(), "worker leaked"


class TestHostileClients:
    def test_malformed_payload_gets_clean_error(self, tmp_path):
        async def body(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port, limit=MAX_LINE_BYTES
            )
            try:
                writer.write(b"this is not json\n")
                await writer.drain()
                import json

                error = json.loads(await reader.readline())
                # The connection survives a bad line: pipelining resumes.
                writer.write(encode({"op": "ping"}))
                await writer.drain()
                pong = json.loads(await reader.readline())
            finally:
                writer.close()
                await writer.wait_closed()
            alive = await healthy_fuzz(server.port)
            return error, pong, alive, dict(server.stats.counters)

        error, pong, alive, counters = serve_test(body, tmp_path)
        assert error["ok"] is False and error["op"] == "error"
        assert pong["op"] == "pong"
        assert alive["ok"]
        assert counters["serve.protocol_errors"] >= 1

    def test_unknown_op_and_bad_submission_get_errors(self, tmp_path):
        async def body(server):
            async with ServeClient(port=server.port) as client:
                unknown = await client.request({"op": "frobnicate"})
                bad_kind = await client.request(
                    {"op": "submit", "kind": "divine"}
                )
                no_design = await client.request(
                    {"op": "submit", "kind": "check"}
                )
                bad_knob = await client.request(
                    {"op": "submit", "kind": "fuzz",
                     "knobs": {"no_such_knob": False}}
                )
            return unknown, bad_kind, no_design, bad_knob

        unknown, bad_kind, no_design, bad_knob = serve_test(body, tmp_path)
        for reply in (unknown, bad_kind, no_design, bad_knob):
            assert reply["ok"] is False
            assert reply["op"] == "error"
            assert reply["error"]
        assert "unknown knob(s)" in bad_knob["error"]

    def test_oversized_line_is_refused_not_fatal(self, tmp_path):
        async def body(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            closed_on_us = False
            error_line = b""
            try:
                writer.write(b"x" * (MAX_LINE_BYTES + 16) + b"\n")
                try:
                    await asyncio.wait_for(writer.drain(), timeout=10.0)
                except (ConnectionError, OSError, asyncio.TimeoutError):
                    closed_on_us = True
                try:
                    error_line = await asyncio.wait_for(
                        reader.readline(), timeout=10.0
                    )
                except (ConnectionError, OSError, asyncio.TimeoutError):
                    closed_on_us = True
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
            alive = await healthy_fuzz(server.port)
            return error_line, closed_on_us, alive

        error_line, closed_on_us, alive = serve_test(body, tmp_path)
        # Either the clean refusal arrived, or the kernel reset the
        # connection under the flood — but never a wedged server.
        if error_line:
            assert b"exceeds" in error_line
        else:
            assert closed_on_us
        assert alive["ok"], "server died on an oversized line"

    def test_client_disconnect_mid_stream_leaves_server_healthy(
        self, tmp_path
    ):
        async def body(server):
            client = ServeClient(port=server.port)
            await client.connect()
            ack = await client.submit_nowait(
                "check", design={"gallery": "traffic"}, stream=True
            )
            await client.close()  # walk away while the job runs
            deadline = asyncio.get_running_loop().time() + 30.0
            while True:
                async with ServeClient(port=server.port) as probe:
                    detail = await probe.status(ack["job"])
                if detail["detail"]["state"] == "done":
                    break
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.05)
            # The abandoned job completed and cached; a new client reaps
            # the benefit without recomputing.
            rerun = await healthy_fuzz(server.port, seed=5)
            async with ServeClient(port=server.port) as again:
                repeat = await again.submit(
                    "check", design={"gallery": "traffic"}
                )
            return rerun, repeat

        rerun, repeat = serve_test(body, tmp_path)
        assert rerun["ok"]
        assert repeat["ok"] and repeat["cached"]
        assert not multiprocessing.active_children(), "worker leaked"

    def test_full_backlog_is_refused_explicitly(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setitem(serve_jobs.WORKERS, "check", _sleep_job)

        async def body(server):
            clients = []
            refused = None
            try:
                # One running + one queued fills a backlog of 1; the
                # third distinct submission must be refused, not queued.
                for name in ("traffic", "elevator", "vending"):
                    client = ServeClient(port=server.port)
                    await client.connect()
                    clients.append(client)
                    try:
                        ack = await client.submit_nowait(
                            "check", design={"gallery": name}
                        )
                    except Exception as exc:
                        refused = str(exc)
                        break
                    if name == "traffic":
                        deadline = asyncio.get_running_loop().time() + 30.0
                        while True:
                            async with ServeClient(
                                port=server.port
                            ) as probe:
                                detail = await probe.status(ack["job"])
                            if detail["detail"]["state"] == "running":
                                break
                            assert (
                                asyncio.get_running_loop().time() < deadline
                            )
                            await asyncio.sleep(0.02)
            finally:
                for client in clients:
                    await client.close()
            return refused, dict(server.stats.counters)

        refused, counters = serve_test(
            body, tmp_path, jobs=1, backlog=1, timeout=300.0
        )
        assert refused is not None
        assert "busy" in refused
        assert counters["serve.rejected"] == 1
