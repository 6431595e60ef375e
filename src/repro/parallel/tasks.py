"""Picklable task descriptors and result envelopes for the worker pool.

A :class:`Task` names a module-level callable plus its arguments; the
pool ships it to a worker process, so everything here must survive a
round trip through ``pickle``.  A worker that wants to report engine
telemetry returns a :class:`TaskResult` wrapping its value and an
:class:`~repro.perf.EngineStats` (with ``bdd=None`` — kernel handles
never cross process boundaries); the pool splits it into the
:class:`ResultEnvelope`, and the parent folds the stats into its own
collector with the existing :meth:`EngineStats.merge`.

Every submitted task produces exactly one envelope — success, Python
error, timeout, or worker crash — so no failure mode is ever silent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.perf import EngineStats

#: Envelope statuses, from best to worst.
STATUS_OK = "ok"              # task returned a value
STATUS_ERROR = "error"        # task raised; traceback tail in ``error``
STATUS_TIMEOUT = "timeout"    # task exceeded its deadline and was reaped
STATUS_CRASHED = "crashed"    # worker process died without reporting
STATUS_CANCELLED = "cancelled"  # pool was cancelled before the task finished


@dataclass
class Task:
    """One unit of work: a picklable callable plus its arguments.

    ``fn`` must be addressable by qualified name from a worker process
    (a module-level function — not a lambda or a closure).  ``timeout``
    and ``retries`` override the pool defaults for this task only.
    ``memory_limit`` (bytes) caps the worker's address space via
    ``RLIMIT_AS`` on platforms that support it; an allocation past the
    quota raises in the worker and surfaces as an ``error`` (or, for a
    hard native death, a ``crashed``) envelope.
    """

    task_id: str
    fn: Callable[..., Any]
    args: Tuple = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    timeout: Optional[float] = None
    retries: Optional[int] = None
    memory_limit: Optional[int] = None


@dataclass
class TaskResult:
    """Optional rich return: a value plus per-worker engine telemetry."""

    value: Any
    stats: Optional[EngineStats] = None


@dataclass
class ResultEnvelope:
    """What the pool reports back for one task, whatever happened.

    ``attempts`` counts every launch including retries; ``seconds`` is
    wall time of the attempt that produced this envelope (for failures,
    the last attempt).  ``stats`` is the worker's own ``EngineStats``
    snapshot, mergeable into a sweep-level collector.
    """

    task_id: str
    status: str = STATUS_OK
    value: Any = None
    error: Optional[str] = None
    attempts: int = 0
    seconds: float = 0.0
    stats: Optional[EngineStats] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


def worker_stats(**counters: int) -> EngineStats:
    """A fresh, picklable per-worker stats collector (no BDD attached)."""
    stats = EngineStats()
    for name, amount in counters.items():
        stats.bump(name, amount)
    return stats


def shard_range(start: int, count: int, shards: int) -> List[Tuple[int, int]]:
    """Split ``range(start, start + count)`` into ``shards`` contiguous
    ``(start, count)`` chunks, sizes as even as possible, order
    preserved.  Used to turn a seed range into pool tasks; contiguity
    keeps a worker's chunk replayable as a plain serial sub-sweep."""
    shards = max(1, min(shards, count)) if count > 0 else 0
    chunks: List[Tuple[int, int]] = []
    base, extra = divmod(count, shards) if shards else (0, 0)
    offset = start
    for i in range(shards):
        size = base + (1 if i < extra else 0)
        chunks.append((offset, size))
        offset += size
    return chunks
