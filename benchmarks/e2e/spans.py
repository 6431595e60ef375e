"""Span recording for the traced benchmark run.

A :class:`SpanRecorder` keeps a stack of open spans and computes each
span's *self time* (its duration minus the time its child spans cover)
when the span closes.  Spans come from two places, both in this
directory: the benchmark's own ``with spans.span(name)`` blocks around
calls into a layer, and the wrappers :func:`install` puts on the
library's public entry points (the program itself is not instrumented).

Layer spans are stored as events -- name, start, end, parent span and
the id of the check they belong to -- and written as Chrome trace JSON.
Kernel spans (``bdd.*``) only add to per-name totals and to their
parent's covered time: a 2mdlc pass makes 10^5-10^6 kernel calls, which
would make a per-call event log larger than the run it describes.

The untraced run never calls :func:`install`, so it executes the
original functions; :func:`assert_unwrapped` checks that.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Span name prefix of kernel operations (aggregated, never stored).
KERNEL = "bdd."

#: Name of the root span opened around one whole pass.
ROOT = "pass"

# (module, owner class or None for a module global, attribute, span name).
# Each name is patched in the module where its caller looks it up.
TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.network.fsm", "SymbolicFsm", "__init__", "network.encode"),
    ("repro.network.fsm", "SymbolicFsm", "build_transition", "network.build_tr"),
    ("repro.network.fsm", "SymbolicFsm", "reachable", "network.reach"),
    ("repro.ctl.modelcheck", "ModelChecker", "check", "ctl.check"),
    ("repro.ctl.modelcheck", None, "all_fair_states", "lc.all_fair_states"),
    ("repro.lc.containment", None, "find_fair_scc", "lc.find_fair_scc"),
    ("repro.lc.earlyfail", None, "find_fair_scc", "lc.find_fair_scc"),
    ("repro.lc.faircycle", None, "fair_hull", "lc.fair_hull"),
    ("repro.lc.faircycle", "FairGraph", "pre", "lc.pre"),
    ("repro.lc.faircycle", "FairGraph", "post", "lc.post"),
    ("repro.lc.faircycle", "FairGraph", "forward_within", "lc.forward_within"),
    ("repro.lc.faircycle", "FairGraph", "backward_within", "lc.backward_within"),
    ("repro.lc.faircycle", "FairGraph", "invariant_core", "lc.invariant_core"),
    ("repro.lc.faircycle", "FairGraph", "pick_state", "lc.pick_state"),
    ("repro.bdd.manager", "BDD", "and_exists", "bdd.and_exists"),
    ("repro.bdd.manager", "BDD", "and_", "bdd.and"),
    ("repro.bdd.manager", "BDD", "or_", "bdd.or"),
    ("repro.bdd.manager", "BDD", "diff", "bdd.diff"),
    ("repro.bdd.manager", "BDD", "ite", "bdd.ite"),
    ("repro.bdd.manager", "BDD", "exist", "bdd.exist"),
    ("repro.bdd.manager", "BDD", "rename", "bdd.rename"),
    ("repro.bdd.manager", "BDD", "vector_compose", "bdd.vector_compose"),
)

# Marker attribute carried by every installed wrapper.
_MARK = "_e2e_span"


class SpanTotals:
    """Accumulated self time, call count and inclusive time of one name.

    ``inclusive`` counts only outermost spans of the name, so a span
    nested in another of the same name is not counted twice.
    """

    __slots__ = ("self_s", "calls", "inclusive")

    def __init__(self) -> None:
        self.self_s = 0.0
        self.calls = 0
        self.inclusive = 0.0


class SpanRecorder:
    """Stack-based span recorder with online self-time accounting."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Id of the check the spans opened now belong to.
        self.check = -1
        #: Stored layer spans: (id, name, start, end, parent id, check, self).
        self.events: List[Tuple[int, str, float, float, int, int, float]] = []
        self.totals: Dict[str, SpanTotals] = {}
        #: Exact counts taken at span boundaries (e.g. reach iterations).
        self.counts: Dict[str, int] = {}
        # Open spans: [name, start, covered-by-children, id].
        self._stack: List[list] = []
        self._open: Dict[str, int] = {}
        self._next_id = 0

    def enter(self, name: str) -> None:
        self._open[name] = self._open.get(name, 0) + 1
        span_id = -1
        if not name.startswith(KERNEL):
            span_id = self._next_id
            self._next_id += 1
        self._stack.append([name, self.clock(), 0.0, span_id])

    def leave(self) -> None:
        end = self.clock()
        name, start, covered, span_id = self._stack.pop()
        duration = end - start
        own = duration - covered
        if self._stack:
            self._stack[-1][2] += duration
        totals = self.totals.get(name)
        if totals is None:
            totals = self.totals[name] = SpanTotals()
        totals.self_s += own
        totals.calls += 1
        depth = self._open[name] - 1
        self._open[name] = depth
        if depth == 0:
            totals.inclusive += duration
        if span_id >= 0:
            parent = -1
            for frame in reversed(self._stack):
                if frame[3] >= 0:
                    parent = frame[3]
                    break
            self.events.append(
                (span_id, name, start, end, parent, self.check, own)
            )

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.enter(name)
        try:
            yield
        finally:
            self.leave()

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def chrome_events(self) -> List[dict]:
        """Stored spans in the event schema ``repro.trace`` exports."""
        return [
            {
                "ph": "X",
                "name": name,
                "cat": name.split(".", 1)[0],
                "ts": start,
                "dur": end - start,
                "tid": 0,
                "args": {"id": span_id, "parent": parent, "check": check,
                         "self_s": own},
            }
            for span_id, name, start, end, parent, check, own in self.events
        ]


class NullSpans:
    """Recorder stand-in for the untraced run: every span is a no-op."""

    check = -1

    def span(self, name: str):
        return nullcontext()


def _wrap(fn: Callable, name: str, recorder: SpanRecorder) -> Callable:
    enter, leave = recorder.enter, recorder.leave
    if name == "network.reach":
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            recorder.count("network.reach_iters", result.iterations)
            return result
    else:
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()
    functools.update_wrapper(wrapper, fn)
    setattr(wrapper, _MARK, name)
    return wrapper


def _owner(module: str, cls: Optional[str]):
    mod = importlib.import_module(module)
    return mod if cls is None else getattr(mod, cls)


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every target; returns a function that restores the originals."""
    saved = []
    for module, cls, attr, name in TARGETS:
        owner = _owner(module, cls)
        original = owner.__dict__[attr] if cls is not None else getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(original, name, recorder))

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


def wrapped_targets() -> List[str]:
    """Dotted names of the targets that currently carry a wrapper."""
    found = []
    for module, cls, attr, _name in TARGETS:
        if hasattr(getattr(_owner(module, cls), attr), _MARK):
            found.append(".".join(p for p in (module, cls, attr) if p))
    return found


def assert_unwrapped() -> None:
    """Raise if any timing wrapper is installed in this process."""
    found = wrapped_targets()
    if found:
        raise RuntimeError(f"timing wrappers installed in an untraced run: {found}")
