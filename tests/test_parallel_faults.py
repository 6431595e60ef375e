"""Fault-injection coverage for the worker pool.

Deliberately hostile tasks — one that sleeps past its deadline, one
that calls ``os._exit`` mid-task, one that raises — prove the pool's
three guarantees: the worker is reaped, the failure is retried up to
the bound, and the final :class:`ResultEnvelope` surfaces it explicitly
while sibling tasks keep running.  No injected fault may ever stall the
run or silently drop a task.
"""

import multiprocessing
import os
import time

import pytest

from repro.parallel import (
    STATUS_CRASHED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    Task,
    WorkerPool,
    run_sweep_parallel,
)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="hostile task functions live in this module; workers must fork",
)

#: Generous stall detector: every test's pool run must finish well
#: within this, or the pool wedged on a fault it should have reaped.
STALL_BUDGET_SECONDS = 30.0


# -- hostile task bodies (module-level: they cross a process boundary) --


def _sleep_forever(seconds: float = 600.0) -> str:
    time.sleep(seconds)
    return "overslept"


def _hard_exit(code: int = 1) -> None:
    os._exit(code)


def _raise_injected() -> None:
    raise ValueError("injected failure")


def _quick(value: str = "sibling") -> str:
    return value


def _fail_once_then_succeed(marker_path: str) -> str:
    """Crashes on its first attempt; the retry finds the marker."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w") as handle:
            handle.write("first attempt\n")
        os._exit(1)
    return "recovered"


def _return_unpicklable():
    return lambda: None


def run_pool(tasks, **kwargs):
    kwargs.setdefault("backoff", 0.01)
    pool = WorkerPool(**kwargs)
    start = time.monotonic()
    envelopes = pool.run(tasks)
    elapsed = time.monotonic() - start
    assert elapsed < STALL_BUDGET_SECONDS, "pool wedged on a hostile task"
    return envelopes


class TestTimeout:
    def test_hung_worker_is_reaped_and_reported(self):
        envelopes = run_pool(
            [
                Task("hang", _sleep_forever),
                Task("s1", _quick, ("a",)),
                Task("s2", _quick, ("b",)),
            ],
            jobs=2, timeout=0.3, retries=1,
        )
        hang, s1, s2 = envelopes
        assert hang.status == STATUS_TIMEOUT
        assert hang.attempts == 2  # first attempt + one retry, both reaped
        assert "deadline" in hang.error
        assert (s1.status, s1.value) == (STATUS_OK, "a")
        assert (s2.status, s2.value) == (STATUS_OK, "b")
        assert not multiprocessing.active_children(), "worker leaked"

    def test_per_task_timeout_overrides_pool_default(self):
        envelopes = run_pool(
            [
                Task("patient", _sleep_forever, (0.2,), timeout=5.0),
                Task("strict", _sleep_forever, (600.0,),
                     timeout=0.2, retries=0),
            ],
            jobs=2, timeout=None, retries=0,
        )
        patient, strict = envelopes
        assert (patient.status, patient.value) == (STATUS_OK, "overslept")
        assert strict.status == STATUS_TIMEOUT
        assert strict.attempts == 1


class TestCrash:
    def test_dead_worker_is_detected_not_hung(self):
        envelopes = run_pool(
            [
                Task("dead", _hard_exit, (3,)),
                Task("alive", _quick),
            ],
            jobs=2, timeout=10.0, retries=1,
        )
        dead, alive = envelopes
        assert dead.status == STATUS_CRASHED
        assert dead.attempts == 2
        assert "exit code 3" in dead.error
        assert (alive.status, alive.value) == (STATUS_OK, "sibling")

    def test_crash_then_recovery_via_retry(self, tmp_path):
        marker = str(tmp_path / "marker")
        envelopes = run_pool(
            [Task("flaky", _fail_once_then_succeed, (marker,))],
            jobs=1, timeout=10.0, retries=2,
        )
        (flaky,) = envelopes
        assert flaky.status == STATUS_OK
        assert flaky.value == "recovered"
        assert flaky.attempts == 2

    def test_retry_bound_is_respected(self):
        envelopes = run_pool(
            [Task("dead", _hard_exit, retries=0)],
            jobs=1, timeout=10.0, retries=5,
        )
        assert envelopes[0].status == STATUS_CRASHED
        assert envelopes[0].attempts == 1  # task override beats pool default


class TestError:
    def test_exception_carries_traceback(self):
        envelopes = run_pool(
            [Task("boom", _raise_injected), Task("calm", _quick)],
            jobs=2, timeout=10.0, retries=1,
        )
        boom, calm = envelopes
        assert boom.status == STATUS_ERROR
        assert boom.attempts == 2
        assert "ValueError: injected failure" in boom.error
        assert calm.status == STATUS_OK

    def test_unpicklable_result_degrades_to_error(self):
        envelopes = run_pool(
            [Task("lambda", _return_unpicklable)],
            jobs=1, timeout=10.0, retries=0,
        )
        assert envelopes[0].status == STATUS_ERROR
        assert "pickle" in envelopes[0].error.lower()


class TestSweepFaultSurface:
    def test_failed_chunk_reports_every_seed_explicitly(self):
        """A sweep whose workers all die still accounts for every seed:
        each one appears as a ``crash`` divergence, none are lost."""
        hostile_pool = WorkerPool(
            jobs=2, timeout=0.001, retries=0, backoff=0.0
        )
        sweep = run_sweep_parallel(8, seed0=0, jobs=2, pool=hostile_pool)
        assert not sweep.ok
        assert [r.seed for r in sweep.reports] == list(range(8))
        for report in sweep.reports:
            assert len(report.divergences) == 1
            divergence = report.divergences[0]
            assert divergence.area == "crash"
            assert "worker" in divergence.detail

    def test_looping_trial_costs_only_its_chunk(self, monkeypatch, capsys):
        """``hsis fuzz --jobs`` gives each chunk a per-trial budget times
        its trial count: a trial that never returns turns its own chunk's
        seeds into ``crash`` divergences and the sweep still reports."""
        from repro import cli
        from repro.oracle import diff

        def trial(seed, **kwargs):
            while seed == 5:
                time.sleep(0.01)
            return diff.TrialReport(seed=seed, divergences=[], seconds=0.0)

        monkeypatch.setattr(diff, "run_trial", trial)
        monkeypatch.setattr(cli, "FUZZ_TRIAL_SECONDS", 0.5)
        start = time.monotonic()
        # 16 trials over 2 jobs run as 8 chunks of two seeds each.
        code = cli._fuzz_main(["--trials", "16", "--seed", "0", "--jobs", "2"])
        assert time.monotonic() - start < STALL_BUDGET_SECONDS
        assert code == 1
        out, err = capsys.readouterr()
        assert "2 divergence(s) in 2 trial(s)" in out
        crashed = [line for line in err.splitlines() if line.startswith("[crash]")]
        assert [line.split(":")[0] for line in crashed] == [
            "[crash] seed=4", "[crash] seed=5",
        ]
        assert all("1s deadline" in line for line in crashed)

    def test_mixed_outcome_ordering_is_stable(self):
        """Envelopes come back in submission order even when completion
        order is scrambled by failures and retries."""
        envelopes = run_pool(
            [
                Task("t0", _quick, ("0",)),
                Task("t1", _hard_exit),
                Task("t2", _quick, ("2",)),
                Task("t3", _sleep_forever),
                Task("t4", _quick, ("4",)),
            ],
            jobs=3, timeout=0.3, retries=1,
        )
        assert [e.task_id for e in envelopes] == ["t0", "t1", "t2", "t3", "t4"]
        assert [e.status for e in envelopes] == [
            STATUS_OK, STATUS_CRASHED, STATUS_OK, STATUS_TIMEOUT, STATUS_OK,
        ]
