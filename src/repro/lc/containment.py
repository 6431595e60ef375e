"""Language containment checking (paper §5.2-5.4).

``L(system) ⊆ L(property)`` is decided as language emptiness of the
product machine: attach the (deterministic, completed) property automaton
as a monitor, complement its edge-Rabin acceptance into Streett
constraints, and search for a reachable cycle that is fair for the system
fairness constraints *and* the complemented acceptance.  A fair cycle is
a counterexample; none means containment holds.  The product is a view
that shares the system machine's encoding and leaves the machine as it is.
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
    """Outcome of one language-containment check on the product ``fsm``
    (``reach`` ends at the early-failure depth if ``early_failure``)."""

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

    ``system`` is a flat model (a machine is encoded for it) or any
    :class:`SymbolicFsm`, built or reached or not; the check runs on the
    product of the machine and the monitor, reported as ``fsm`` of the
    result, and leaves the machine unchanged.  With ``early_fail`` the
    doomed-region check of :mod:`repro.lc.earlyfail` runs every
    ``early_fail_interval`` reachability steps, and a violation it finds
    ends reachability there.
    """
    fsm = system if isinstance(system, SymbolicFsm) else SymbolicFsm(system)
    bdd = fsm.bdd
    tracer = fsm.stats.tracer
    spec = system_fairness if system_fairness is not None else FairnessSpec()
    with fsm.stats.phase("lc") as timer:
        # The caller's constraint handles must survive the GC/reorder
        # safe points inside build_transition.
        with bdd.hold(spec.nodes):
            monitor = attach(fsm, automaton)
            product = monitor.fsm
            product.build_transition(method=quantify_method)
        graph = FairGraph(product)

        sys_norm = spec.normalize(bdd, bdd.true)
        property_streett = complement_rabin(monitor.rabin_pairs_bdd())
        combined = FairnessSpec(list(spec) + list(property_streett)).normalize(
            bdd, bdd.true
        )

        doomed = doomed_states(monitor.automaton)
        doomed_bdd = monitor.state_bdd(doomed) if doomed else bdd.false
        early_scc: Optional[FairScc] = None
        doomed_hit = False

        def early_stop(depth: int, frontier: int, reached: int) -> bool:
            nonlocal doomed_hit, early_scc
            if bdd.and_(frontier, doomed_bdd) == bdd.false:
                return False
            first_hit, doomed_hit = not doomed_hit, True
            # Check immediately when the doomed region is first entered,
            # then periodically (most bugs surface within the first few
            # steps, §5.4).
            if not first_hit and depth % early_fail_interval != 0:
                return False
            if tracer.enabled:
                tracer.instant("lc.early_check", cat="lc", depth=depth,
                               first_hit=first_hit)
            early_scc = early_violation(graph, sys_norm, reached, doomed_bdd)
            if early_scc is not None and tracer.enabled:
                tracer.instant("lc.early_stop", cat="lc", depth=depth)
            return early_scc is not None

        observer = early_stop if early_fail and doomed_bdd != bdd.false else None
        # Reachability, the early checks and the search hold the combined
        # fairness (which covers the caller's) and the doomed region.
        with bdd.hold(lambda: [*combined.nodes(), doomed_bdd]):
            reach = product.reachable(observer=observer)
            scc = early_scc or find_fair_scc(graph, combined, reach.reached)
    return LcResult(
        automaton=automaton,
        holds=scc is None,
        fair_scc=scc,
        monitor=monitor,
        fsm=product,
        graph=graph,
        reach=reach,
        fairness=combined,
        seconds=timer.seconds,
        early_failure=early_scc is not None,
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
