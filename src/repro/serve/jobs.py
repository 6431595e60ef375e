"""Job kinds the server dispatches, as picklable worker bodies.

Each verb of the protocol maps to one module-level function executed in
a :class:`~repro.parallel.pool.WorkerPool` worker process — the same
crash isolation the CLI's ``--jobs`` fan-out uses, so a job that
segfaults, overruns its deadline, or blows its memory quota is reaped
by the pool and surfaced as an explicit envelope, never a wedged
server.  The bodies run exactly the serial engine code the one-shot
CLI runs (``hsis check`` / ``hsis fuzz`` / ``hsis profile``), which is
what makes the served-vs-serial verdict parity tests meaningful.

Workers report a :class:`~repro.parallel.tasks.TaskResult` whose value
is a plain JSON-serializable dict (it goes straight onto the wire and
into the result cache) and whose stats are a detached
:class:`~repro.perf.EngineStats` — carrying the worker's tracer events
back to the server for per-job relay and server-level aggregation.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.parallel.tasks import Task, TaskResult
from repro.perf import EngineStats
from repro.trace.tracer import Tracer


def _parse_design(design_kind: str, design_text: str,
                  shared_shapes: bool = False):
    """Resolved design text -> flat model (verilog via vl2mv, or mv).

    With ``shared_shapes`` the result is an
    :class:`~repro.blifmv.Elaboration` (shape-aware encoding; the
    engine accepts either form).
    """
    from repro.blifmv import elaborate, flatten, parse as parse_blifmv
    from repro.verilog import compile_verilog

    if design_kind == "verilog":
        design = compile_verilog(design_text)
    else:
        design = parse_blifmv(design_text)
    if shared_shapes:
        return elaborate(design)
    return flatten(design)


def _detach(stats: EngineStats) -> EngineStats:
    """Picklable snapshot: drops the kernel handle, keeps the events."""
    detached = EngineStats()
    detached.merge(stats)
    return detached


def run_check_job(
    design_kind: str,
    design_text: str,
    pif_text: Optional[str],
    knobs: Dict[str, Any],
    trace: bool = False,
) -> TaskResult:
    """Model check every CTL property of the submission, serially."""
    from repro.ctl import ModelChecker
    from repro.network import SymbolicFsm
    from repro.pif import parse_pif

    flat = _parse_design(
        design_kind, design_text,
        shared_shapes=bool(knobs.get("shared_shapes")),
    )
    pif = parse_pif(pif_text or "", source="<submission>")
    if not pif.ctl_props:
        raise ValueError("no CTL properties in the submitted PIF text")
    fsm = SymbolicFsm(
        flat,
        auto_gc=knobs.get("auto_gc"),
        cache_limit=knobs.get("cache_limit"),
        auto_reorder=knobs.get("auto_reorder"),
        tracer=Tracer() if trace else None,
    )
    checker = ModelChecker(fsm, fairness=pif.bind_fairness(fsm))
    verdicts = []
    for name, formula in pif.ctl_props:
        result = checker.check(formula)
        verdicts.append(
            {
                "name": name,
                "formula": str(formula),
                "holds": result.holds,
                "seconds": result.seconds,
            }
        )
    fsm.stats.bump("serve.properties", len(verdicts))
    return TaskResult(
        {
            "verdicts": verdicts,
            "properties": len(verdicts),
            "passed": sum(1 for v in verdicts if v["holds"]),
        },
        _detach(fsm.stats),
    )


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
    from repro.pif import parse_pif

    flat = _parse_design(design_kind, design_text)
    pif = parse_pif(pif_text or "", source="<submission>")
    if not pif.ctl_props:
        raise ValueError("no CTL properties in the submitted PIF text")
    stats = EngineStats()
    if trace:
        stats.tracer = Tracer()
    verdicts, provenance = run_portfolio_check(
        flat,
        pif.ctl_props,
        pif.fairness,
        k=knobs["portfolio"],
        orders_dir=orders_dir or DEFAULT_ORDERS_DIR,
        stats=stats,
        timeout=timeout,
        on_pool=on_pool,
    )
    payload = [
        {
            "name": v.name,
            "formula": v.formula,
            "holds": v.holds,
            "seconds": v.seconds,
        }
        for v in verdicts
    ]
    stats.bump("serve.properties", len(payload))
    return TaskResult(
        {
            "verdicts": payload,
            "properties": len(payload),
            "passed": sum(1 for v in payload if v["holds"]),
            "portfolio": provenance,
        },
        _detach(stats),
    )


def run_fuzz_job(knobs: Dict[str, Any], trace: bool = False) -> TaskResult:
    """One differential sweep (serial; the job itself is the shard)."""
    from repro.oracle import run_sweep

    stats = EngineStats()
    if trace:
        stats.tracer = Tracer()
    sweep = run_sweep(
        knobs["trials"],
        seed0=knobs["seed"],
        stats=stats,
        auto_reorder=knobs.get("auto_reorder"),
        shared_shapes=bool(knobs.get("shared_shapes")),
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
    from repro.ctl import ModelChecker
    from repro.network import SymbolicFsm
    from repro.pif import parse_pif

    flat = _parse_design(
        design_kind, design_text,
        shared_shapes=bool(knobs.get("shared_shapes")),
    )
    fsm = SymbolicFsm(
        flat,
        auto_reorder=knobs.get("auto_reorder"),
        tracer=Tracer() if trace else None,
    )
    if not knobs["partitioned"]:
        fsm.build_transition(method=knobs["method"])
    reach = fsm.reachable(partitioned=knobs["partitioned"])
    verdicts = []
    if pif_text:
        pif = parse_pif(pif_text, source="<submission>")
        if pif.ctl_props:
            checker = ModelChecker(
                fsm, fairness=pif.bind_fairness(fsm), reached=reach.reached
            )
            for name, formula in pif.ctl_props:
                result = checker.check(formula)
                verdicts.append(
                    {"name": name, "holds": result.holds,
                     "seconds": result.seconds}
                )
    return TaskResult(
        {
            "states": int(fsm.count_states(reach.reached)),
            "iterations": reach.iterations,
            "seconds": reach.seconds,
            "verdicts": verdicts,
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
