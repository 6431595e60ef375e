"""Sharded differential fuzzing: ``hsis fuzz --jobs N``.

The seed range is split into contiguous chunks, each chunk runs as one
pool task executing the ordinary serial :func:`repro.oracle.run_sweep`
inside a worker process, and the parent stitches the chunk reports back
together **in seed order**.  Because trial ``i`` depends only on seed
``seed0 + i`` (see ``docs/testing.md``), the merged report is
verdict-for-verdict identical to a serial sweep over the same range:
same divergences, same shrunk corpus files (filenames are per-seed, so
workers never collide), same merged stat totals.

A chunk whose worker fails outright (crash, timeout after retries) is
*not* dropped: every seed in it is reported as an explicit ``crash``
divergence, so the sweep verdict stays honest.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.oracle.diff import (
    Divergence,
    ORACLE_MAX_SPACE,
    SweepReport,
    TrialReport,
    run_sweep,
)
from repro.parallel.pool import WorkerPool
from repro.parallel.tasks import Task, TaskResult, shard_range
from repro.perf import EngineStats
from repro.trace.tracer import Tracer

#: Shards per worker slot — small chunks keep the pool load-balanced
#: without paying per-process overhead for every single seed.
CHUNKS_PER_JOB = 4


def _sweep_chunk_worker(
    count: int,
    seed0: int,
    corpus_dir: Optional[str],
    shrink: bool,
    max_space: int,
    trace: bool = False,
    config: EngineConfig = DEFAULT_CONFIG,
) -> TaskResult:
    """Worker body: one contiguous sub-sweep, exactly the serial code.

    With ``trace`` the worker records its own event timeline; the events
    ride back to the parent inside the pickled :class:`EngineStats` and
    are merged onto a per-worker tid lane.
    """
    stats = EngineStats()
    if trace:
        stats.tracer = Tracer()
    report = run_sweep(
        count,
        seed0=seed0,
        stats=stats,
        corpus_dir=corpus_dir,
        shrink=shrink,
        max_space=max_space,
        config=config,
    )
    for trial in report.reports:
        trial.case = None  # cases are large and the parent never reads them
    return TaskResult(report, stats)


def run_sweep_parallel(
    trials: int,
    seed0: int = 0,
    jobs: int = 2,
    stats: Optional[EngineStats] = None,
    corpus_dir: Optional[str] = None,
    shrink: bool = True,
    max_space: int = ORACLE_MAX_SPACE,
    progress=None,
    trial_timeout: Optional[float] = None,
    retries: int = 1,
    pool: Optional[WorkerPool] = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> SweepReport:
    """Fan a seeded sweep across ``jobs`` workers; merge in seed order.

    Mirrors :func:`repro.oracle.run_sweep`'s signature and report
    semantics.  ``trial_timeout`` is a per-trial budget in seconds: a
    chunk of ``k`` trials must finish within ``k * trial_timeout``, so
    one looping trial costs its chunk's seeds (reported as ``crash``
    divergences) instead of stalling the sweep.  ``pool`` may inject a
    preconfigured :class:`WorkerPool` (tests use this to tighten
    timeouts).
    """
    stats = stats if stats is not None else EngineStats()
    trace = stats.tracer.enabled
    sweep = SweepReport(trials=trials, seed0=seed0)
    start = time.perf_counter()
    chunks = shard_range(seed0, trials, max(1, jobs) * CHUNKS_PER_JOB)
    job_tasks = [
        Task(
            task_id=f"fuzz[{chunk_seed0}+{chunk_count}]",
            fn=_sweep_chunk_worker,
            args=(chunk_count, chunk_seed0, corpus_dir, shrink, max_space,
                  trace, config),
            timeout=None if trial_timeout is None else trial_timeout * chunk_count,
        )
        for chunk_seed0, chunk_count in chunks
    ]
    if pool is None:
        pool = WorkerPool(jobs, retries=retries, tracer=stats.tracer)
    envelopes = pool.run(job_tasks)
    for (chunk_seed0, chunk_count), envelope in zip(chunks, envelopes):
        if envelope.ok:
            chunk: SweepReport = envelope.value
            sweep.reports.extend(chunk.reports)
            sweep.corpus_written.extend(chunk.corpus_written)
            if envelope.stats is not None:
                stats.merge(envelope.stats)
            reports: List[TrialReport] = chunk.reports
        else:
            detail = (envelope.error or "no detail").strip().splitlines()[-1]
            reports = [
                TrialReport(
                    seed=seed,
                    divergences=[
                        Divergence(
                            "crash", seed,
                            f"worker {envelope.status} "
                            f"(after {envelope.attempts} attempt(s)): {detail}",
                        )
                    ],
                    seconds=0.0,
                )
                for seed in range(chunk_seed0, chunk_seed0 + chunk_count)
            ]
            sweep.reports.extend(reports)
        if progress is not None:
            for report in reports:
                progress(report)
    sweep.seconds = time.perf_counter() - start
    return sweep
