"""Job kinds the server dispatches, as picklable worker bodies.

Each verb of the protocol maps to one module-level function executed in
a :class:`~repro.parallel.pool.WorkerPool` worker process — the same
crash isolation the CLI's ``--jobs`` fan-out uses, so a job that
segfaults, overruns its deadline, or blows its memory quota is reaped
by the pool and surfaced as an explicit envelope, never a wedged
server.  Each body keeps only its argument handling and payload: it
reads the submission through the one design reader (:mod:`repro.models`)
and runs the function the one-shot CLI runs (``check_properties``,
``run_portfolio_check``, ``profile_model``, ``run_sweep``), which is
what makes the served-vs-serial parity tests meaningful.  A property
that errors fails its job, so no failure reaches the result cache.

Workers report a :class:`~repro.parallel.tasks.TaskResult` whose value
is a plain JSON-serializable dict (it goes straight onto the wire and
into the result cache) and whose stats are a detached
:class:`~repro.perf.EngineStats` — carrying the worker's tracer events
back to the server for per-job relay and server-level aggregation.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.config import EngineConfig
from repro.parallel.tasks import Task, TaskResult
from repro.perf import EngineStats
from repro.trace.tracer import Tracer


def _read_submission(design_kind: str, design_text: str,
                     pif_text: Optional[str], config: EngineConfig,
                     check: bool = False):
    """The submitted design as the engine's input and its PIF (None
    without text; a ``check`` needs CTL properties)."""
    from repro.models import engine_input, read_design
    from repro.pif import parse_pif

    _, design, _ = read_design((design_kind, design_text))
    pif = parse_pif(pif_text, source="<submission>") if pif_text else None
    if check and (pif is None or not pif.ctl_props):
        raise ValueError("no CTL properties in the submitted PIF text")
    return engine_input(design, config), pif


def _job_stats(trace: bool) -> EngineStats:
    stats = EngineStats()
    if trace:
        stats.tracer = Tracer()
    return stats


def _detach(stats: EngineStats) -> EngineStats:
    """Picklable snapshot: drops the kernel handle, keeps the events."""
    detached = EngineStats()
    detached.merge(stats)
    return detached


def _check_result(verdicts, stats: EngineStats, **extra: Any) -> TaskResult:
    """A check job's payload.  A property that errored fails the whole
    job instead, so no failure reaches the result cache."""
    from repro.parallel.check import require_ok

    require_ok(verdicts)
    stats.bump("serve.properties", len(verdicts))
    return TaskResult(
        {
            "verdicts": [v.to_wire() for v in verdicts],
            "properties": len(verdicts),
            "passed": sum(1 for v in verdicts if v.holds),
            **extra,
        },
        stats,
    )


def run_check_job(
    design_kind: str,
    design_text: str,
    pif_text: Optional[str],
    knobs: Dict[str, Any],
    trace: bool = False,
) -> TaskResult:
    """Model check every CTL property of the submission on one machine."""
    from repro.parallel.check import check_properties

    config = EngineConfig.of(knobs)
    model, pif = _read_submission(
        design_kind, design_text, pif_text, config, check=True)
    stats = _job_stats(trace)
    verdicts = check_properties(
        model, pif.ctl_props, pif.fairness, stats=stats, config=config,
    )
    return _check_result(verdicts, stats)


def run_portfolio_job(
    design_kind: str,
    design_text: str,
    pif_text: Optional[str],
    knobs: Dict[str, Any],
    trace: bool = False,
    orders_dir: Optional[str] = None,
    timeout: Optional[float] = None,
    on_pool=None,
) -> TaskResult:
    """A check job run as an ordering-portfolio race.

    Unlike the other job bodies this does NOT run inside a pool worker:
    pool workers are daemonic processes and may not spawn children, but
    the race *is* a pool of K candidate workers.  The server calls this
    directly on its job-runner thread (``HsisServer._execute``), passing
    ``on_pool`` so the race's pool is registered for job cancellation.
    The race workers give the job the same crash isolation a plain
    check job gets from its single worker.
    """
    from repro.ordering_portfolio import DEFAULT_ORDERS_DIR, run_portfolio_check

    config = EngineConfig.of(knobs)
    model, pif = _read_submission(
        design_kind, design_text, pif_text, config, check=True)
    stats = _job_stats(trace)
    verdicts, provenance = run_portfolio_check(
        model,
        pif.ctl_props,
        pif.fairness,
        k=config.portfolio,
        orders_dir=orders_dir or DEFAULT_ORDERS_DIR,
        stats=stats,
        timeout=timeout,
        on_pool=on_pool,
        config=config,
    )
    return _check_result(verdicts, stats, portfolio=provenance)


def run_fuzz_job(knobs: Dict[str, Any], trace: bool = False) -> TaskResult:
    """One differential sweep (serial; the job itself is the shard)."""
    from repro.oracle import run_sweep

    stats = _job_stats(trace)
    sweep = run_sweep(
        knobs["trials"],
        seed0=knobs["seed"],
        stats=stats,
        config=EngineConfig.of(knobs),
    )
    stats.bump("serve.fuzz_trials", sweep.trials)
    return TaskResult(
        {
            "ok": sweep.ok,
            "trials": sweep.trials,
            "seed0": knobs["seed"],
            "divergences": [
                str(d) for r in sweep.reports for d in r.divergences
            ],
            "summary": sweep.summary(),
        },
        _detach(stats),
    )


def run_profile_job(
    design_kind: str,
    design_text: str,
    pif_text: Optional[str],
    knobs: Dict[str, Any],
    trace: bool = False,
) -> TaskResult:
    """Encode -> build_tr -> reach (-> mc) with phase timings reported."""
    from repro.parallel.check import profile_model, require_ok

    config = EngineConfig.of(knobs)
    model, pif = _read_submission(design_kind, design_text, pif_text, config)
    fsm, reach, verdicts = profile_model(
        model, pif, method=knobs["method"], partitioned=knobs["partitioned"],
        config=config, tracer=Tracer() if trace else None,
    )
    require_ok(verdicts)
    return TaskResult(
        {
            "states": int(fsm.count_states(reach.reached)),
            "iterations": reach.iterations,
            "seconds": reach.seconds,
            "verdicts": [
                v.to_wire(("name", "holds", "seconds")) for v in verdicts
            ],
            "phases": {
                name: round(stat.seconds, 6)
                for name, stat in fsm.stats.phases.items()
            },
        },
        _detach(fsm.stats),
    )


#: Dispatch table; tests monkeypatch entries to inject hostile workers
#: (the table is consulted at dispatch time, and fork-started workers
#: inherit the patched module state).
WORKERS = {
    "check": run_check_job,
    "fuzz": run_fuzz_job,
    "profile": run_profile_job,
}


def build_task(
    job_id: str,
    kind: str,
    design_kind: Optional[str],
    design_text: Optional[str],
    pif_text: Optional[str],
    knobs: Dict[str, Any],
    trace: bool,
    timeout: Optional[float],
    memory_limit: Optional[int],
) -> Task:
    """Wrap one submission as a pool task with its quotas attached."""
    fn = WORKERS[kind]
    if kind == "fuzz":
        args = (knobs, trace)
    else:
        args = (design_kind, design_text, pif_text, knobs, trace)
    return Task(
        task_id=job_id,
        fn=fn,
        args=args,
        timeout=timeout,
        retries=0,
        memory_limit=memory_limit,
    )
