"""Language containment checking (paper §5.2-5.4).

``L(system) ⊆ L(property)`` is decided as language emptiness of the
product machine: attach the (deterministic, completed) property automaton
as a monitor, complement its edge-Rabin acceptance into Streett
constraints, and search for a reachable cycle that is fair for the system
fairness constraints *and* the complemented acceptance.  A fair cycle is
a counterexample; none means containment holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.automata.automaton import AttachedMonitor, Automaton, attach
from repro.automata.fairness import (
    FairnessSpec,
    NormalizedFairness,
    complement_rabin,
)
from repro.blifmv.ast import Model
from repro.lc.earlyfail import doomed_states, early_violation
from repro.lc.faircycle import FairGraph, FairScc, find_fair_scc
from repro.network.fsm import ReachResult, SymbolicFsm


@dataclass
class LcResult:
    """Outcome of one language-containment check."""

    automaton: Automaton
    holds: bool
    fair_scc: Optional[FairScc]
    monitor: AttachedMonitor
    fsm: SymbolicFsm
    graph: FairGraph
    reach: ReachResult
    fairness: NormalizedFairness
    seconds: float
    early_failure: bool = False

    @property
    def failed(self) -> bool:
        return not self.holds


class _EarlyStop(Exception):
    def __init__(self, scc: FairScc, depth: int):
        self.scc = scc
        self.depth = depth


def check_containment(
    system: Union[Model, SymbolicFsm],
    automaton: Automaton,
    system_fairness: Optional[FairnessSpec] = None,
    quantify_method: str = "greedy",
    early_fail: bool = True,
    early_fail_interval: int = 4,
) -> LcResult:
    """Check that every fair behaviour of ``system`` is accepted by
    ``automaton``.

    ``system`` is a flat model (a fresh machine is encoded) or an
    un-built :class:`SymbolicFsm` (so several monitors could share one
    machine).  With ``early_fail`` the doomed-region check of
    :mod:`repro.lc.earlyfail` runs every ``early_fail_interval``
    reachability steps.
    """
    fsm = system if isinstance(system, SymbolicFsm) else SymbolicFsm(system)
    with fsm.stats.phase("lc") as timer:
        result = _check_containment(
            fsm, automaton, system_fairness, quantify_method,
            early_fail, early_fail_interval,
        )
    result.seconds = timer.seconds
    return result


def _check_containment(
    fsm: SymbolicFsm,
    automaton: Automaton,
    system_fairness: Optional[FairnessSpec],
    quantify_method: str,
    early_fail: bool,
    early_fail_interval: int,
) -> LcResult:
    bdd = fsm.bdd
    spec = system_fairness if system_fairness is not None else FairnessSpec()
    # The caller's constraint handles must survive the GC/reorder safe
    # points inside build_transition.
    with bdd.hold(spec.nodes):
        monitor = attach(fsm, automaton)
        fsm.build_transition(method=quantify_method)
    graph = FairGraph(fsm)

    sys_norm = spec.normalize(bdd, bdd.true)
    property_streett = complement_rabin(monitor.rabin_pairs_bdd())
    combined = FairnessSpec(list(spec) + list(property_streett)).normalize(
        bdd, bdd.true
    )

    doomed = doomed_states(monitor.automaton)
    doomed_bdd = monitor.state_bdd(doomed) if doomed else bdd.false
    reached_acc = [fsm.init]
    doomed_hit = [False]

    def observer(depth: int, frontier: int) -> None:
        reached_acc[0] = bdd.or_(reached_acc[0], frontier)
        if not early_fail or doomed_bdd == bdd.false:
            return
        if bdd.and_(frontier, doomed_bdd) == bdd.false:
            return
        first_hit = not doomed_hit[0]
        doomed_hit[0] = True
        # Check immediately when the doomed region is first entered, then
        # periodically (most bugs surface within the first few steps, §5.4).
        if not first_hit and depth % early_fail_interval != 0:
            return
        if fsm.stats.tracer.enabled:
            fsm.stats.tracer.instant(
                "lc.early_check", cat="lc", depth=depth, first_hit=first_hit
            )
        scc = early_violation(graph, sys_norm, reached_acc[0], doomed_bdd)
        if scc is not None:
            if fsm.stats.tracer.enabled:
                fsm.stats.tracer.instant("lc.early_stop", cat="lc", depth=depth)
            raise _EarlyStop(scc, depth)

    # Reachability, the early checks and the search hold the combined
    # fairness (which covers the caller's), the doomed region and the
    # reached set.
    with bdd.hold(lambda: [*combined.nodes(), doomed_bdd, reached_acc[0]]):
        try:
            reach = fsm.reachable(observer=observer)
        except _EarlyStop as stop:
            # Rebuild the onion rings up to the stop depth for the
            # debugger; the witness SCC is held across that second pass.
            scc, early = stop.scc, True
            with bdd.hold(lambda: [scc.states, scc.trans,
                                   *(e for e, _label in scc.required_edges)]):
                reach = fsm.reachable(max_iterations=stop.depth + 1)
        else:
            scc, early = find_fair_scc(graph, combined, reach.reached), False
    return LcResult(
        automaton=automaton,
        holds=scc is None,
        fair_scc=scc,
        monitor=monitor,
        fsm=fsm,
        graph=graph,
        reach=reach,
        fairness=combined,
        seconds=0.0,
        early_failure=early,
    )


def language_empty(
    fsm: SymbolicFsm,
    fairness: Optional[FairnessSpec] = None,
) -> bool:
    """True iff the machine has no reachable fair run (no monitor involved).

    Useful on its own: an abstraction whose language is empty is trivial
    and hence useless (paper §5 on why fairness constraints are needed).
    """
    bdd = fsm.bdd
    spec = fairness if fairness is not None else FairnessSpec()
    with bdd.hold(spec.nodes):
        graph = FairGraph(fsm)
        normalized = spec.normalize(bdd, bdd.true)
        reached = fsm.reachable().reached
        return find_fair_scc(graph, normalized, reached) is None
