"""Early failure detection (paper §5.4).

Verification is mostly run on properties that *fail*, so HSIS spends
effort detecting failures before the full fair-path computation:

1. **Frontier checking** — take a few reachability steps and check the
   property on the subset of states reached so far.  If it fails on a
   subset, it fails on the whole reachable set.  (For model checking this
   lives in the ``AG`` fast path of :mod:`repro.ctl.modelcheck`.)
2. **Fairness-graph structure** — for language containment, inspect the
   structure of the graph induced by the acceptance conditions: once the
   monitor enters a *doomed* automaton state (one from which no accepting
   run can continue, e.g. the trap of a safety monitor), any system-fair
   infinite continuation is a counterexample, and a fair cycle can be
   searched in the small already-reached region only.

``doomed_states`` is computed on the (small) automaton digraph: state *s*
is hopeful for Rabin pair (fin, inf) iff it can reach — without using fin
edges for the cyclic part — a strongly connected subgraph containing an
inf edge and no fin edge.  Doomed = hopeful for no pair.  This is
structural (guards are ignored), hence a sound under-approximation of the
truly doomed states.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from repro.automata.automaton import Automaton
from repro.automata.fairness import NormalizedFairness
from repro.lc.faircycle import FairGraph, FairScc, find_fair_scc


def _closure(step: Dict[str, Set[str]], sources: Iterable[str]) -> Set[str]:
    """States reachable from ``sources`` (included) along ``step``."""
    seen = set(sources)
    todo = list(seen)
    while todo:
        for nxt in step.get(todo.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def doomed_states(automaton: Automaton) -> Set[str]:
    """Automaton states from which no accepting run can possibly continue.

    For each pair, an inf edge ``(u, v)`` of the fin-pruned graph lies on
    a cycle iff ``v`` reaches ``u``; its good core is the SCC of ``u``
    (the states ``u`` reaches that also reach ``u``).  The prefix may use
    any edge, so doomed states are the states that reach no good core.
    """
    preds: Dict[str, Set[str]] = {}
    for e in automaton.edges:
        preds.setdefault(e.dst, set()).add(e.src)
    good: Set[str] = set()
    for fin, inf in automaton.rabin_pairs:
        # The cyclic part may not use fin edges.
        succ: Dict[str, Set[str]] = {}
        pred: Dict[str, Set[str]] = {}
        for e in automaton.edges:
            if (e.src, e.dst) not in fin:
                succ.setdefault(e.src, set()).add(e.dst)
                pred.setdefault(e.dst, set()).add(e.src)
        for u, v in inf:
            if v in succ.get(u, ()) and u in _closure(succ, [v]):
                good |= _closure(succ, [u]) & _closure(pred, [u])
    return set(automaton.states) - _closure(preds, good)


def early_violation(
    graph: FairGraph,
    system_fairness: NormalizedFairness,
    reached_so_far: int,
    doomed_bdd: int,
) -> Optional[FairScc]:
    """Look for a system-fair cycle inside the doomed, already-reached region.

    Doomed monitor states are closed under transitions, so any system-fair
    cycle whose states are doomed witnesses a containment failure — no
    property acceptance complement is needed, which makes this check much
    cheaper than the full fair-path computation.
    """
    bdd = graph.bdd
    region = bdd.and_(reached_so_far, doomed_bdd)
    if region == bdd.false:
        return None
    return find_fair_scc(graph, system_fairness, region)
