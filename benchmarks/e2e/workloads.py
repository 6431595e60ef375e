"""The four workloads of the end-to-end benchmark.

Each workload has a *setup*, which builds its inputs (design text, fuzz
cases) from the seed, and a *pass*, which takes those inputs through the
verification pipeline and checks every verdict.  A pass is a closed loop
of checks: the next check starts only after the previous verdict
returned.  A check is one property verdict, one reached-state count or
one fuzz trial.

Only the work of the checks is timed, one segment per
:meth:`PassLog.timed` block (a check's pipeline stages are separate
segments); the verdict bookkeeping and the reads of each manager's
counters between checks are not.  Every pass of a workload times the
same sequence of segments, so run.py can compare a segment with itself
across passes.  Spans go through ``spans``: a :class:`~spans.NullSpans`
in the untraced run, a :class:`~spans.SpanRecorder` in the traced one.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Tuple

from repro.blifmv import flatten
from repro.ctl.modelcheck import ModelChecker
from repro.lc.containment import check_containment
from repro.models import dcnew, gigamax, mdlc, philos, pingpong, scheduler
from repro.network.fsm import SymbolicFsm
from repro.oracle.diff import ORACLE_MAX_SPACE, bddops_trial, run_case
from repro.oracle.fuzz import gen_case
from repro.perf import EngineStats
from repro.pif import parse_pif
from repro.verilog import compile_verilog

#: Reached-state counts of the Table-1 designs at their Table-1 sizes.
TABLE1_STATES = {
    "philos": 28,
    "ping pong": 3,
    "gigamax": 228,
    "scheduler": 4_718_592,
    "dcnew": 132_096,
    "2mdlc": 27_140,
}

_TABLE1_MODULES = (
    ("philos", philos),
    ("ping pong", pingpong),
    ("gigamax", gigamax),
    ("scheduler", scheduler),
    ("dcnew", dcnew),
    ("2mdlc", mdlc),
)

#: Payload widths of the two 2mdlc workloads (Table 1 uses width 5).
LC_WIDTH = 3
FAIRMC_WIDTH = 1

#: The fuzz population: ``run_sweep(FUZZ_CASES, seed0=0)``'s trial seeds.
FUZZ_CASES = 200

# run_case's phase names -> the benchmark's oracle layer spans.
_ORACLE_SPANS = {
    "fuzz.oracle": "oracle.explicit",
    "fuzz.reach": "oracle.reach",
    "fuzz.mc": "oracle.mc",
    "fuzz.lc": "oracle.lc",
}


@dataclass(frozen=True)
class DesignText:
    """One design as the pipeline receives it: Verilog and PIF text."""

    name: str
    verilog: str
    pif: str


@dataclass
class PassLog:
    """Timing, verdicts and exact kernel counters of one pass."""

    segments: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    peak_live_nodes: int = 0
    counters: Dict[str, int] = field(default_factory=dict)

    @contextmanager
    def timed(self) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.segments.append(time.perf_counter() - start)

    @property
    def seconds(self) -> float:
        return sum(self.segments)

    def verdict(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    @contextmanager
    def guard(self, what: str) -> Iterator[None]:
        """An engine exception inside fails one check and ends the block;
        the pass goes on."""
        try:
            yield
        except Exception as exc:
            self.verdict(False, f"{what}: crashed: {exc!r}")

    def fold(self, bdd) -> None:
        """Add one finished manager's counters to the pass totals."""
        stats = bdd.stats()
        self.peak_live_nodes = max(self.peak_live_nodes, stats["peak_live_nodes"])
        for key, name in (("allocated_nodes", "bdd.allocated_nodes"),
                          ("gc_runs", "bdd.gc_runs"),
                          ("cache_evictions", "bdd.cache_evictions")):
            self.counters[name] = self.counters.get(name, 0) + stats[key]
        for op, entry in bdd.cache_stats().items():
            for kind in ("lookups", "hits"):
                name = f"bdd.{kind}.{op}"
                self.counters[name] = self.counters.get(name, 0) + int(entry[kind])


# ----------------------------------------------------------------------
# Shared pipeline steps
# ----------------------------------------------------------------------


def _front_end(design: DesignText, spans):
    """Design text -> (compiled design, PIF file)."""
    with spans.span("verilog.compile"):
        compiled = compile_verilog(design.verilog)
    with spans.span("pif.parse"):
        pif = parse_pif(design.pif, source=f"{design.name}.pif")
    return compiled, pif


def _machine(compiled, spans) -> SymbolicFsm:
    with spans.span("blifmv.flatten"):
        flat = flatten(compiled)
    return SymbolicFsm(flat)


def _containment(compiled, pif, automaton, spans, log: PassLog):
    """Fresh machine + one LC check -> (verdict, the machine's manager)."""
    with log.timed():
        fsm = _machine(compiled, spans)
        with spans.span("pif.bind"):
            fairness = pif.bind_fairness(fsm)
    with log.timed():
        with spans.span("lc.check"):
            result = check_containment(fsm, automaton, system_fairness=fairness)
    return result.holds, fsm.bdd


def _model_checker(fsm, pif, reached, spans) -> ModelChecker:
    with spans.span("pif.bind"):
        fairness = pif.bind_fairness(fsm)
    with spans.span("ctl.prepare"):
        return ModelChecker(fsm, fairness=fairness, reached=reached)


# ----------------------------------------------------------------------
# table1-light
# ----------------------------------------------------------------------


def setup_table1(seed: int) -> List[DesignText]:
    return [DesignText(name, module.verilog(), module.pif())
            for name, module in _TABLE1_MODULES]


def pass_table1(designs: List[DesignText], spans, log: PassLog) -> None:
    """Read + reach on all six designs; every CTL and LC property of the
    five designs other than 2mdlc (its LC and MC have their own
    workloads)."""
    for design in designs:
        with log.guard(design.name):
            _table1_row(design, spans, log)


def _table1_row(design: DesignText, spans, log: PassLog) -> None:
    spans.check += 1
    with log.timed():
        compiled, pif = _front_end(design, spans)
        fsm = _machine(compiled, spans)
    with log.timed():
        fsm.build_transition(method="greedy")
    with log.timed():
        reach = fsm.reachable()
        with spans.span("network.count"):
            states = fsm.count_states(reach.reached)
    expected = TABLE1_STATES[design.name]
    log.verdict(states == expected,
                f"{design.name}: {states} reached states, expected {expected}")
    if design.name == "2mdlc":
        log.fold(fsm.bdd)
        return
    with log.timed():
        checker = _model_checker(fsm, pif, reach.reached, spans)
    for prop, formula in pif.ctl_props:
        spans.check += 1
        with log.timed():
            holds = checker.check(formula).holds
        log.verdict(holds, f"{design.name}: CTL {prop} failed")
    log.fold(fsm.bdd)
    del checker, fsm
    for automaton in pif.automata:
        spans.check += 1
        holds, bdd = _containment(compiled, pif, automaton, spans, log)
        log.verdict(holds, f"{design.name}: LC {automaton.name} failed")
        log.fold(bdd)


# ----------------------------------------------------------------------
# lc-2mdlc and fairmc-2mdlc
# ----------------------------------------------------------------------


def setup_lc(seed: int) -> DesignText:
    return DesignText("2mdlc", mdlc.verilog(LC_WIDTH), mdlc.pif(LC_WIDTH))


def pass_lc(design: DesignText, spans, log: PassLog) -> None:
    """The ``lc_progress`` fair language-containment check."""
    spans.check += 1
    with log.guard(f"2mdlc w{LC_WIDTH} LC"):
        with log.timed():
            compiled, pif = _front_end(design, spans)
        (automaton,) = pif.automata
        holds, bdd = _containment(compiled, pif, automaton, spans, log)
        log.verdict(holds, f"2mdlc w{LC_WIDTH}: LC {automaton.name} failed")
        log.fold(bdd)


def setup_fairmc(seed: int) -> DesignText:
    return DesignText("2mdlc", mdlc.verilog(FAIRMC_WIDTH), mdlc.pif(FAIRMC_WIDTH))


def pass_fairmc(design: DesignText, spans, log: PassLog) -> None:
    """``data_integrity`` under the Streett channel fairness."""
    spans.check += 1
    with log.guard(f"2mdlc w{FAIRMC_WIDTH} CTL"):
        with log.timed():
            compiled, pif = _front_end(design, spans)
            fsm = _machine(compiled, spans)
        with log.timed():
            fsm.build_transition(method="greedy")
            reach = fsm.reachable()
        with log.timed():
            checker = _model_checker(fsm, pif, reach.reached, spans)
            ((prop, formula),) = pif.ctl_props
            holds = checker.check(formula).holds
        log.verdict(holds, f"2mdlc w{FAIRMC_WIDTH}: CTL {prop} failed")
        log.fold(fsm.bdd)


# ----------------------------------------------------------------------
# fuzz-sweep
# ----------------------------------------------------------------------


class _TrialStats(EngineStats):
    """Stats sink for one ``run_case``: keeps every machine it merges,
    so the benchmark can read their managers' counters afterwards, and
    opens an oracle span around each of its phases."""

    def __init__(self, spans) -> None:
        super().__init__()
        self.spans = spans
        self.managers: List[object] = []

    @contextmanager
    def phase(self, name: str):
        with self.spans.span(_ORACLE_SPANS.get(name, name)):
            with super().phase(name) as timer:
                yield timer

    def merge(self, other: EngineStats) -> None:
        super().merge(other)
        if other.bdd is not None:
            self.managers.append(other.bdd)


def setup_fuzz(seed: int) -> List[Tuple[int, dict]]:
    """The canonical sweep's cases, in an order drawn from ``seed``.

    Case ``s`` is ``gen_case(Random(s << 1))`` and its operator trial
    uses ``Random((s << 1) | 1)``, as in ``run_sweep``.  The population
    is fixed so that every seed measures the same work; the seed only
    permutes the order.
    """
    cases = [(s, gen_case(random.Random(s << 1), max_space=ORACLE_MAX_SPACE))
             for s in range(FUZZ_CASES)]
    random.Random(seed).shuffle(cases)
    return cases


def pass_fuzz(cases: List[Tuple[int, dict]], spans, log: PassLog) -> None:
    """One differential trial per case: operator fuzz + oracle cross-check."""
    for seed, case in cases:
        spans.check += 1
        stats = _TrialStats(spans)
        with log.guard(f"fuzz seed {seed}"):
            with log.timed():
                with spans.span("oracle.bddops"):
                    divergences = bddops_trial(random.Random((seed << 1) | 1), seed)
                divergences += run_case(case, seed, stats)
            log.verdict(not divergences, f"fuzz seed {seed}: "
                        + "; ".join(map(str, divergences[:2])))
        for bdd in stats.managers:
            log.fold(bdd)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], object]
    run_pass: Callable[[object, object, PassLog], None]
    #: Passes of a default (untimed) run.
    passes: int
    #: Checks per pass; checks a crash skipped count as failed.
    checks: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("table1-light", setup_table1, pass_table1, 3, 43),
        Workload("lc-2mdlc", setup_lc, pass_lc, 4, 1),
        Workload("fairmc-2mdlc", setup_fairmc, pass_fairmc, 8, 1),
        Workload("fuzz-sweep", setup_fuzz, pass_fuzz, 5, FUZZ_CASES),
    )
}
