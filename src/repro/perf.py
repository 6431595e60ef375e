"""Unified engine telemetry.

:class:`EngineStats` is the single aggregation point for everything the
verification engines want to report: per-phase wall time (encode, build
of the transition relation, reachability, model checking, language
containment), named event counters, and — when attached to a
:class:`~repro.bdd.manager.BDD` — the kernel's own numbers (live/peak
nodes, GC runs, computed-cache hit rates per operator).

Engines create one ``EngineStats`` per :class:`SymbolicFsm` and share it
down the stack, replacing the scattered ``time.perf_counter()`` calls
that used to live in ``network/fsm.py``, ``ctl/modelcheck.py``,
``lc/containment.py`` and ``cli.py``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, TYPE_CHECKING

from repro.trace.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.bdd.manager import BDD


@dataclass
class PhaseTimer:
    """Handle yielded by :meth:`EngineStats.phase`.

    ``seconds`` is filled in when the ``with`` block exits, so callers
    can read the elapsed time of the phase they just ran.
    """

    name: str
    seconds: float = 0.0


@dataclass
class PhaseStat:
    """Accumulated wall time and invocation count for one phase."""

    seconds: float = 0.0
    calls: int = 0


@dataclass
class EngineStats:
    """Aggregator for engine-level and kernel-level statistics."""

    bdd: Optional["BDD"] = None
    phases: Dict[str, PhaseStat] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    #: Structured event sink shared down the engine stack.  Disabled by
    #: default (near-zero overhead); ``hsis --trace`` swaps in a live
    #: :class:`~repro.trace.tracer.Tracer`.
    tracer: Tracer = field(default_factory=Tracer.disabled)
    #: String-valued provenance facts (e.g. which ordering-portfolio
    #: heuristic won, whether the order cache hit).  Last writer wins on
    #: merge; numeric facts belong in ``counters``.
    meta: Dict[str, str] = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str) -> Iterator[PhaseTimer]:
        """Time a named phase; accumulates across repeated invocations.

        Every phase is also a trace span, so the encode / build_tr /
        reach / mc / lc intervals appear in exported timelines for free.
        """
        timer = PhaseTimer(name)
        span = self.tracer.span(name, cat="phase")
        span.__enter__()
        start = time.perf_counter()
        try:
            yield timer
        finally:
            timer.seconds = time.perf_counter() - start
            span.__exit__(None, None, None)
            stat = self.phases.setdefault(name, PhaseStat())
            stat.seconds += timer.seconds
            stat.calls += 1

    def phase_seconds(self, name: str) -> float:
        """Total accumulated wall time for ``name`` (0.0 if never run)."""
        stat = self.phases.get(name)
        return stat.seconds if stat else 0.0

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment a named event counter."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        """Current value of a named counter (0 if never bumped)."""
        return self.counters.get(name, 0)

    def rate(self, counter: str, phase: str) -> float:
        """Events per second: ``counter`` over ``phase`` wall time.

        The serve layer aggregates every job's worker ``EngineStats``
        into one server-level collector via :meth:`merge`; this derives
        throughput numbers (jobs/s, trials/s) from the merged totals.
        Returns 0.0 when the phase never ran.
        """
        seconds = self.phase_seconds(phase)
        return self.counter(counter) / seconds if seconds > 0 else 0.0

    def merge(self, other: "EngineStats") -> None:
        """Fold another collector's phases and counters into this one.

        The fuzz harness creates a short-lived :class:`SymbolicFsm` (and
        hence a fresh ``EngineStats``) per trial; merging lets the sweep
        report aggregate timing across all of them.  Kernel-level numbers
        are not merged — they belong to each trial's own manager.
        """
        for name, stat in other.phases.items():
            mine = self.phases.setdefault(name, PhaseStat())
            mine.seconds += stat.seconds
            mine.calls += stat.calls
        for name, amount in other.counters.items():
            self.bump(name, amount)
        self.meta.update(other.meta)
        # Fold worker trace events in on their own tid lane.  This works
        # even when this collector's tracer is disabled, so traces
        # survive the worker -> detached stats -> parent relay.  Engines
        # that *share* a tracer (fsm created with tracer=stats.tracer)
        # must not absorb it into itself.
        if other.tracer is not self.tracer and other.tracer.events:
            self.tracer.absorb(other.tracer)

    def snapshot(self) -> Dict[str, object]:
        """Flat dictionary of everything known right now."""
        out: Dict[str, object] = {}
        if self.bdd is not None:
            out.update(self.bdd.stats())
            out["cache_hit_rate"] = round(self.bdd.cache_hit_rate(), 4)
            out["op_cache"] = self.bdd.cache_stats()
        out["phases"] = {
            name: {"seconds": round(stat.seconds, 6), "calls": stat.calls}
            for name, stat in self.phases.items()
        }
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.meta:
            out["meta"] = dict(self.meta)
        return out

    def format(self) -> str:
        """Human-readable multi-line report (used by ``--stats``)."""
        lines = ["engine statistics:"]
        if self.bdd is not None:
            s = self.bdd.stats()
            live = s["live_nodes"]
            lines.append(
                f"  nodes: {live} live / "
                f"{s['peak_live_nodes']} peak / {s['allocated_nodes']} allocated"
            )
            ce = s["complement_edges"]
            lines.append(
                f"  complement edges: {ce} live"
                + (f" ({ce / live:.1%} of nodes)" if live else "")
                + f"   not_ calls: {s['not_calls']} (zero-allocation)"
                + f"   ite std rewrites: {s['std_rewrites']}"
            )
            lines.append(
                f"  gc runs: {s['gc_runs']}   cache: {s['cache_entries']} entries, "
                f"{s['cache_evictions']} evictions, "
                f"{self.bdd.cache_hit_rate():.1%} hit rate"
            )
            lines.append(
                "  store: "
                f"{s['node_capacity']} node slots "
                f"({s['allocated_nodes'] / s['node_capacity']:.1%} allocated)   "
                f"unique table: {s['unique_used']}/{s['unique_slots']} "
                f"({s['unique_used'] / s['unique_slots']:.1%} load)   "
                f"cache occupancy: {s['cache_entries']}/{s['cache_capacity']} "
                f"({s['cache_entries'] / s['cache_capacity']:.1%})"
            )
            if s["compact_runs"]:
                lines.append(f"  compactions: {s['compact_runs']} run(s)")
            if s["reorder_runs"]:
                lines.append(
                    f"  reorder: {s['reorder_runs']} run(s), "
                    f"{s['reorder_swaps']} full + "
                    f"{s['reorder_fast_swaps']} fast swaps"
                )
            ops = [
                (op, d) for op, d in self.bdd.cache_stats().items() if d["lookups"]
            ]
            if ops:
                lines.append(
                    f"  {'op':<10} {'lookups':>10} {'hits':>10} {'hit rate':>9}"
                )
                for op, d in sorted(
                    ops, key=lambda kv: kv[1]["lookups"], reverse=True
                ):
                    lines.append(
                        f"  {op:<10} {int(d['lookups']):>10} "
                        f"{int(d['hits']):>10} {d['hit_rate']:>9.1%}"
                    )
        if self.phases:
            for name, stat in self.phases.items():
                lines.append(
                    f"  phase {name}: {stat.seconds:.3f}s over {stat.calls} call(s)"
                )
        for name, value in sorted(self.counters.items()):
            lines.append(f"  {name}: {value}")
        for name, value in sorted(self.meta.items()):
            lines.append(f"  {name}: {value}")
        return "\n".join(lines)
