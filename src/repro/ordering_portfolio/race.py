"""Race K candidate orders on one check job; first finisher wins.

Each candidate order becomes a single task in a ``WorkerPool`` with one
worker slot per candidate: every worker runs the *same* properties on
the *same* model, differing only in the variable order installed at
encode time.  The pool's ``progress`` callback fires on the first
successful envelope and calls :meth:`WorkerPool.cancel`, which reaps
every still-running loser (SIGTERM, then SIGKILL) — losers leak no
processes, and their envelopes come back ``cancelled``.

Verdicts are order-independent, so the winner's verdicts *are* the
serial verdicts (asserted by the parity tests); the race only buys
wall-clock time.  The winning order is persisted per design digest in
the :class:`~repro.ordering_portfolio.cache.OrderCache`, so the next
check of the same design skips the race entirely.

Race workers are plain pool workers (daemonic processes); the race must
therefore be driven from a process that may spawn children — the CLI
process or the serve server thread, never from inside another pool
worker.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.blifmv.ast import Model
from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.ordering_portfolio.cache import DEFAULT_ORDERS_DIR, OrderCache
from repro.ordering_portfolio.features import design_digest
from repro.ordering_portfolio.heuristics import candidate_orders
from repro.parallel.check import (PropertyVerdict, check_properties,
                                  check_within, require_ok)
from repro.parallel.pool import WorkerPool
from repro.parallel.tasks import STATUS_OK, ResultEnvelope, Task, TaskResult
from repro.perf import EngineStats


class PortfolioCancelled(Exception):
    """The race was cancelled from outside before any candidate won.

    Internal cancellation (the winner cancelling the losers) never
    raises this — only an external :meth:`WorkerPool.cancel`, e.g. the
    job server killing a running job, with no winner recorded yet.
    """


def portfolio_order_for(
    model: Model, k: int, seed: int
) -> Tuple[str, List[str]]:
    """Deterministic round-robin pick from the first ``k`` heuristics.

    The differential fuzzer uses this instead of racing: fuzz trials are
    tiny (a race would cost more than it saves) but sweeping the seed
    across heuristics exercises every candidate order against the
    explicit-state oracle.  Pure function of (model, k, seed), so the
    parallel sweep stays bit-identical to the serial one.
    """
    candidates = candidate_orders(model, k)
    name, order = candidates[seed % len(candidates)]
    return name, order


def _race_worker(model, properties, fairness_decls, order, **settings) -> TaskResult:
    """Pool task body: the whole property list under one candidate order.

    ``settings`` are the caller's engine settings that differ from the
    defaults (:meth:`EngineConfig.overrides`).  Raises when any property
    errors, so a candidate that cannot finish cleanly loses the race
    instead of publishing partial verdicts.
    """
    stats = EngineStats()
    verdicts = check_properties(
        model, properties, fairness_decls, stats=stats, order=order,
        config=EngineConfig(**settings),
    )
    require_ok(verdicts)
    return TaskResult(verdicts, stats)


def _provenance(stats: EngineStats, source: str, heuristic: str,
                candidates: int = 0, margin: Optional[float] = None):
    """Record where a portfolio check's verdicts came from, in ``stats``
    and as the returned provenance dict."""
    stats.meta["portfolio_source"] = source
    stats.meta["portfolio_heuristic"] = heuristic
    return {
        "source": source,
        "heuristic": heuristic,
        "cache_hit": source == "cache",
        "candidates": candidates,
        "margin_seconds": margin,
    }


def run_portfolio_check(
    model: Model,
    properties: Sequence[Tuple[str, object]],
    fairness_decls=(),
    k: int = 4,
    orders_dir: str = DEFAULT_ORDERS_DIR,
    cache: Optional[OrderCache] = None,
    stats: Optional[EngineStats] = None,
    timeout: Optional[float] = None,
    on_pool: Optional[Callable[[WorkerPool], None]] = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> Tuple[List[PropertyVerdict], Dict[str, object]]:
    """Check ``properties`` with a portfolio of ``k`` candidate orders.

    Warm path: the order cache holds a verified winner for this design
    digest — check under that order, no race.  Cold path: race the
    candidates, cancel losers on the first success, persist the winner.
    Either way the verdicts are exactly the serial ones, and every
    machine is built under ``config``; ``timeout`` bounds the whole
    property list: each candidate's, and the one checking task's on the
    warm and fallback paths.  Returns
    ``(verdicts, provenance)`` where provenance records the source
    (``cache`` / ``race`` / ``fallback``), winning heuristic, candidate
    count and race margin; the same facts land in ``stats``
    counters/meta and as tracer instants.

    ``on_pool`` (if given) receives the race's :class:`WorkerPool`
    before it runs, so a caller (the job server) can cancel the whole
    race from another thread.
    """
    stats = stats if stats is not None else EngineStats()
    cache = cache if cache is not None else OrderCache(orders_dir)
    properties = list(properties)
    digest = design_digest(model)
    declared = model.declared_variables()

    entry = cache.load(digest, declared)
    if entry is not None:
        stats.bump("portfolio_cache_hits")
        stats.tracer.instant(
            "portfolio.cache_hit", cat="portfolio",
            design=digest[:12], heuristic=entry["heuristic"],
        )
        verdicts = check_within(model, properties, fairness_decls,
                                deadline=timeout, stats=stats,
                                order=entry["order"], config=config)
        return verdicts, _provenance(stats, "cache", entry["heuristic"])

    stats.bump("portfolio_cache_misses")
    candidates = candidate_orders(model, k)
    stats.tracer.instant(
        "portfolio.race", cat="portfolio",
        design=digest[:12], candidates=len(candidates),
        heuristics=[name for name, _ in candidates],
    )
    tasks = [
        Task(
            task_id=f"order[{name}]",
            fn=_race_worker,
            args=(model, tuple(properties), tuple(fairness_decls), order),
            kwargs=config.overrides(),
            timeout=timeout,
        )
        for name, order in candidates
    ]
    pool = WorkerPool(
        jobs=len(tasks), timeout=timeout, retries=0,
        tracer=stats.tracer,
    )
    if on_pool is not None:
        on_pool(pool)
    winner_ids: List[str] = []

    def first_success(envelope: ResultEnvelope) -> None:
        if envelope.status == STATUS_OK and not winner_ids:
            winner_ids.append(envelope.task_id)
            pool.cancel()

    envelopes = pool.run(tasks, progress=first_success)
    stats.bump("portfolio_races")

    task_ids = [task.task_id for task in tasks]
    winner_index = task_ids.index(winner_ids[0]) if winner_ids else None

    if winner_index is None and pool.cancelled:
        # No winner *and* a cancelled pool means someone outside killed
        # the race (we only cancel after recording a winner): abort
        # instead of burning the caller's thread on a serial fallback.
        raise PortfolioCancelled("portfolio race cancelled")

    if winner_index is None:
        # Every candidate errored / timed out: fall back to a plain
        # serial check under the seed order so a broken race can never
        # change availability, only speed.
        stats.bump("portfolio_race_failures")
        stats.tracer.instant(
            "portfolio.fallback", cat="portfolio", design=digest[:12],
        )
        verdicts = check_within(model, properties, fairness_decls,
                                deadline=timeout, stats=stats,
                                order=candidates[0][1], config=config)
        return verdicts, _provenance(
            stats, "fallback", candidates[0][0], len(candidates))

    winner_name, winner_order = candidates[winner_index]
    winner = envelopes[winner_index]
    if winner.stats is not None:
        stats.merge(winner.stats)
    loser_seconds = [e.seconds for i, e in enumerate(envelopes)
                     if i != winner_index and e.seconds > 0.0]
    margin = max(0.0, min(loser_seconds, default=winner.seconds) - winner.seconds)
    cache.store(digest, winner_name, winner_order, margin_seconds=margin)
    stats.tracer.instant(
        "portfolio.winner", cat="portfolio",
        design=digest[:12], heuristic=winner_name,
        margin_seconds=round(margin, 6), candidates=len(candidates),
    )
    return winner.value, _provenance(
        stats, "race", winner_name, len(candidates), margin)
