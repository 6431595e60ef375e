"""Checking CTL properties: the one loop behind every front end.

:func:`check_properties` gives ``hsis check``, the shell's ``mc --jobs``,
the job server's check job and the ordering portfolio their verdicts.
In this process it builds one machine under the caller's
:class:`~repro.config.EngineConfig`, binds the picklable fairness
declarations once and runs :func:`check_each`, the loop itself, over
every property.  With ``jobs > 1`` (and several properties) or a
per-property ``timeout``, each property is instead a
:class:`~repro.parallel.pool.WorkerPool` task that runs the same code on
a machine of its own: verdicts are exactly the in-process ones, and a
property past its deadline is reaped and reported as ``timeout``.  A
property that raises, or whose worker fails, gets an explicit ``ERROR``
verdict (``holds=None``); none is silently dropped.  :func:`check_within`
(the portfolio's warm and fallback checks) puts one deadline on the list.

:func:`profile_model` is the encode -> build_tr -> reach -> MC body of
``hsis profile`` and the server's profile job; it and the shell's serial
``mc`` run :func:`check_each` on a checker that holds the reached states.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.ctl.ast import Formula
from repro.ctl.modelcheck import ModelChecker
from repro.network.fsm import ReachResult, SymbolicFsm
from repro.parallel.pool import WorkerPool
from repro.parallel.tasks import STATUS_ERROR, STATUS_OK, Task, TaskResult
from repro.perf import EngineStats
from repro.pif.parser import PifFile
from repro.trace.tracer import Tracer


@dataclass
class PropertyVerdict:
    """Outcome of one property check, worker failures included."""

    name: str
    formula: str
    holds: Optional[bool]  # None when the check or its worker failed
    seconds: float
    status: str  # an envelope status: ok | error | timeout | crashed
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def format(self) -> str:
        if self.holds is None:
            return f"mc {self.name}: ERROR ({self.status})  [{self.formula}]"
        verdict = "passed" if self.holds else "FAILED"
        return (
            f"mc {self.name}: {verdict} ({self.seconds:.2f}s)  "
            f"[{self.formula}]"
        )

    @property
    def reason(self) -> str:
        """The last line of ``error`` (the exception), or ``""``."""
        return self.error.strip().splitlines()[-1] if self.error else ""

    def to_wire(
        self, fields: Sequence[str] = ("name", "formula", "holds", "seconds")
    ) -> Dict[str, Any]:
        """This verdict as a JSON record of ``fields``: by default a
        served check verdict (a ``--results`` file records ``status``
        instead of ``seconds``)."""
        return {name: getattr(self, name) for name in fields}


def require_ok(verdicts: Sequence[PropertyVerdict]) -> None:
    """Raise on the first failed verdict, for callers that publish all
    verdicts or none (portfolio candidates, the server's jobs)."""
    for verdict in verdicts:
        if not verdict.ok:
            raise RuntimeError(
                f"property {verdict.name} failed: "
                f"{verdict.error or verdict.status}"
            )


def _failed(name: str, formula, status: str, error: Optional[str],
            seconds: float = 0.0) -> PropertyVerdict:
    return PropertyVerdict(
        name=name, formula=str(formula), holds=None, seconds=seconds,
        status=status, error=error,
    )


def check_each(
    checker: ModelChecker, properties: Sequence[Tuple[str, Formula]]
) -> List[PropertyVerdict]:
    """Check every ``(name, formula)`` pair on one checker, in order; a
    property that raises gets its own ``ERROR`` verdict."""
    verdicts = []
    for name, formula in properties:
        try:
            result = checker.check(formula)
        except Exception:
            verdicts.append(
                _failed(name, formula, STATUS_ERROR, traceback.format_exc()))
        else:
            verdicts.append(PropertyVerdict(
                name, str(formula), result.holds, result.seconds, STATUS_OK))
    return verdicts


def _check_here(model, properties, fairness_decls, order,
                config: EngineConfig, trace: bool) -> TaskResult:
    """One machine built here checks every property.  Also the pool's
    task body: the verdicts and the machine's stats (without its kernel
    handle) are picklable."""
    stats = EngineStats()
    if trace:
        stats.tracer = Tracer()
    try:
        fsm = SymbolicFsm(model, config=config, tracer=stats.tracer, order=order)
        fairness = None
        if fairness_decls:
            fairness = PifFile(fairness=list(fairness_decls)).bind_fairness(fsm)
        checker = ModelChecker(fsm, fairness=fairness)
    except Exception:
        error = traceback.format_exc()
        return TaskResult(
            [_failed(name, formula, STATUS_ERROR, error)
             for name, formula in properties],
            stats,
        )
    verdicts = check_each(checker, properties)
    stats.merge(fsm.stats)
    return TaskResult(verdicts, stats)


def check_properties(
    model,
    properties: Sequence[Tuple[str, Formula]],
    fairness_decls=(),
    jobs: int = 1,
    stats: Optional[EngineStats] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    order=None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> List[PropertyVerdict]:
    """Check every ``(name, formula)`` pair; results in property order.

    With no ``timeout`` and ``jobs <= 1`` (or a single property), one
    machine built here checks them all; otherwise each property is a
    task of a ``jobs``-worker pool (one worker at ``jobs=1``) with
    ``timeout`` as its deadline.  Every machine is built under
    ``config``, and under the variable ``order`` if one is given.
    """
    properties = list(properties)
    if timeout is None and (jobs <= 1 or len(properties) < 2):
        return check_within(model, properties, fairness_decls, stats=stats,
                            order=order, config=config)
    return _check_in_pool(model, [[prop] for prop in properties],
                          fairness_decls, order, config, stats, jobs,
                          timeout, retries)


def check_within(model, properties: Sequence[Tuple[str, Formula]],
                 fairness_decls=(), deadline: Optional[float] = None,
                 stats: Optional[EngineStats] = None, order=None,
                 config: EngineConfig = DEFAULT_CONFIG,
                 ) -> List[PropertyVerdict]:
    """One machine checks every property: here, or, with ``deadline``
    (seconds) bounding the whole list, in one pool task with no retry,
    where an overrun marks every property ``timeout``.  Either way a
    property that errors gets its own verdict."""
    properties = list(properties)
    if deadline is not None:
        return _check_in_pool(model, [properties], fairness_decls, order,
                              config, stats, 1, deadline, 0)
    result = _check_here(model, properties, fairness_decls, order, config,
                         stats is not None and stats.tracer.enabled)
    if stats is not None:
        stats.merge(result.stats)
    return result.value


def _check_in_pool(model, groups, fairness_decls, order, config: EngineConfig,
                   stats: Optional[EngineStats], jobs: int,
                   timeout: Optional[float], retries: int,
                   ) -> List[PropertyVerdict]:
    """Each group of properties as one pool task under ``timeout``, in
    order; a task that fails gives each of its properties its status."""
    order = list(order) if order is not None else None
    trace = stats is not None and stats.tracer.enabled
    tasks = [
        Task(
            task_id=f"mc[{','.join(name for name, _formula in group)}]",
            fn=_check_here,
            args=(model, group, tuple(fairness_decls), order, config, trace),
            timeout=timeout,
        )
        for group in groups
    ]
    pool = WorkerPool(
        jobs, timeout=timeout, retries=retries,
        tracer=stats.tracer if stats is not None else None,
    )
    verdicts = []
    for group, envelope in zip(groups, pool.run(tasks)):
        if stats is not None and envelope.stats is not None:
            stats.merge(envelope.stats)
        if envelope.ok:
            verdicts.extend(envelope.value)
        else:
            verdicts.extend(
                _failed(name, formula, envelope.status, envelope.error,
                        envelope.seconds)
                for name, formula in group
            )
    return verdicts


def profile_model(
    model,
    pif: Optional[PifFile] = None,
    method: str = "greedy",
    partitioned: bool = False,
    config: EngineConfig = DEFAULT_CONFIG,
    tracer: Optional[Tracer] = None,
) -> Tuple[SymbolicFsm, ReachResult, List[PropertyVerdict]]:
    """Encode, build the relation (unless ``partitioned``), reach, and
    check ``pif``'s CTL properties within the reached states."""
    fsm = SymbolicFsm(model, config=config, tracer=tracer)
    if not partitioned:
        fsm.build_transition(method=method)
    reach = fsm.reachable(partitioned=partitioned)
    verdicts: List[PropertyVerdict] = []
    if pif is not None and pif.ctl_props:
        checker = ModelChecker(
            fsm, fairness=pif.bind_fairness(fsm), reached=reach.reached
        )
        verdicts = check_each(checker, pif.ctl_props)
    return fsm, reach, verdicts
