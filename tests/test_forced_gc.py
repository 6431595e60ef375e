"""Rooting discipline under a collection at every safe point.

``auto_gc=1`` makes every engine safe point run a full mark-and-sweep, so
any handle an engine holds without rooting it is freed and its slot
recycled.  Every gallery property is checked with such a manager and with
a default one: the verdicts and the satisfying-set sizes must agree, and
the fair-cycle search itself must have collected.
"""

import pytest

import repro.ctl.modelcheck as modelcheck
import repro.lc.containment as containment
from repro.automata.fairness import FairnessSpec, StreettPair
from repro.bdd import BDD
from repro.bdd.mdd import MddManager
from repro.blifmv import flatten, parse
from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.ctl import ModelChecker
from repro.lc import check_containment
from repro.lc.faircycle import FairGraph, all_fair_states, nontrivial_sccs
from repro.models import GALLERY
from repro.network import SymbolicFsm

# Extra formulas beyond the PIF files: the A[f U g] pair once freed the
# E[..U..] half of their rewrite during the EG half's safe points.
EXTRA_CTL = {
    "traffic": [
        "A[main_l=green U cross_l=yellow]",
        "A[cross_l=green U main_l=green]",
        "EG !(cross_l=green)",
        "AF cross_l=green",
    ],
    "rrarbiter": ["EG !(turn=0)", "A[!(turn=1) U turn=0]"],
}


@pytest.fixture
def search_gc_runs(monkeypatch):
    """Collections that ran inside fair-cycle searches, by entry point."""
    runs = {"find_fair_scc": 0, "all_fair_states": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(graph, *args, **kwargs):
            before = graph.bdd.gc_count
            try:
                return original(graph, *args, **kwargs)
            finally:
                runs[name] += graph.bdd.gc_count - before

        monkeypatch.setattr(module, name, wrapper)

    counting(containment, "find_fair_scc")
    counting(modelcheck, "all_fair_states")
    return runs


def _ctl_results(spec, config):
    fsm = SymbolicFsm(spec.flat(), config=config)
    fsm.build_transition()
    reached = fsm.reachable().reached
    checker = ModelChecker(fsm, fairness=spec.pif.bind_fairness(fsm),
                           reached=reached)
    formulas = [f for _name, f in spec.pif.ctl_props]
    formulas += EXTRA_CTL.get(spec.name, [])
    out = []
    for formula in formulas:
        result = checker.check(formula)
        out.append((str(formula), result.holds,
                    fsm.count_states(result.satisfying)))
    return out


def _lc_results(spec, config):
    out = []
    for automaton in spec.pif.automata:
        fsm = SymbolicFsm(spec.flat(), config=config)
        result = check_containment(
            fsm, automaton, system_fairness=spec.pif.bind_fairness(fsm))
        out.append((automaton.name, result.holds))
    return out


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_gallery_verdicts_survive_forced_gc(name, search_gc_runs):
    spec = GALLERY[name]()
    forced = EngineConfig(auto_gc=1)
    assert _ctl_results(spec, forced) == _ctl_results(spec, DEFAULT_CONFIG)
    assert _lc_results(spec, forced) == _lc_results(spec, DEFAULT_CONFIG)
    assert search_gc_runs["find_fair_scc"] > 0
    if spec.pif.fairness:
        assert search_gc_runs["all_fair_states"] > 0


def test_au_rewrite_keeps_its_until_part():
    spec = GALLERY["traffic"]()
    forced = SymbolicFsm(spec.flat(), config=EngineConfig(auto_gc=1))
    forced.build_transition()
    plain = SymbolicFsm(spec.flat())
    plain.build_transition()
    for formula in EXTRA_CTL["traffic"][:2]:
        a = ModelChecker(forced).check(formula)
        b = ModelChecker(plain).check(formula)
        assert a.holds == b.holds
        assert forced.count_states(a.satisfying) == plain.count_states(b.satisfying)


# -- SCC enumeration across several parts ---------------------------------

# Three SCCs in a chain, 0<->1 -> 2<->3 -> 4 (self-loop), so the
# enumerator splits the region and all_fair_states accumulates its union
# across several pops.
CHAIN = """
.model chain
.mv s,n 5
.table s -> n
0 1
1 (0,2)
2 3
3 (2,4)
4 4
.latch n s
.reset s
0
"""


@pytest.mark.parametrize("auto_gc", [None, 1])
def test_scc_chain_under_forced_gc(auto_gc):
    fsm = SymbolicFsm(
        flatten(parse(CHAIN)), config=EngineConfig(auto_gc=auto_gc)
    )
    fsm.build_transition()
    graph = FairGraph(fsm)

    def decode(states):
        return {s["s"] for s in fsm.states_iter(states)}

    found = [decode(scc) for scc in nontrivial_sccs(graph, graph.space, graph.trans)]
    assert sorted(map(sorted, found)) == [["0", "1"], ["2", "3"], ["4"]]
    s = fsm.var("s")
    # Every SCC is fair once it avoids its 1/3-edges or sees a 0/2/4-edge.
    fairness = FairnessSpec(
        [StreettPair(e=s.literal(["1", "3"]), f=s.literal(["0", "2", "4"]))]
    ).normalize(fsm.bdd, fsm.bdd.true)
    fair = all_fair_states(graph, fairness, graph.space)
    assert decode(fair) == {"0", "1", "2", "3", "4"}
    if auto_gc:
        assert fsm.bdd.gc_count > 0


# -- MvVar.literal memo --------------------------------------------------


VALUES = ["a", "b", "c", "d", "e"]


def _assert_literal(bdd, var, members):
    f = var.literal(members)
    for code, value in enumerate(VALUES):
        bits = {bit: bool(code >> i & 1) for i, bit in enumerate(var.bits)}
        assert bdd.eval(f, bits) == (value in members), (members, value)


@pytest.mark.parametrize("event", ["gc", "compact", "reorder"])
def test_literal_memo_never_returns_a_stale_handle(event):
    bdd = BDD()
    mdd = MddManager(bdd)
    v = mdd.declare("v", VALUES)
    w = mdd.declare("w", VALUES)
    for members in (["a", "c"], ["e"]):
        _assert_literal(bdd, v, members)
    _assert_literal(bdd, v, "b")
    # The memoized literals are not roots: the event frees or moves them,
    # and new nodes then take their slots.
    if event == "gc":
        assert bdd.gc() > 0
    elif event == "compact":
        bdd.compact()
    else:
        bdd.reorder_now()
    bdd.and_(w.literal(["b", "d"]), bdd.or_(bdd.var(v.bits[2]), w.literal("e")))
    for members in (["a", "c"], ["e"]):
        _assert_literal(bdd, v, members)
    _assert_literal(bdd, v, "b")
