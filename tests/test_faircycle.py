"""Tests for the fair-cycle engine on hand-built graphs.

Graphs are encoded as tiny BLIF-MV machines so the engine is exercised
through exactly the same interface the checkers use.
"""

import pytest

from repro.automata.fairness import (
    BuchiEdge,
    BuchiState,
    FairnessSpec,
    NegativeStateSet,
    StreettPair,
)
from repro.blifmv import flatten, parse
from repro.ctl import ModelChecker
from repro.lc.faircycle import (
    FairGraph,
    all_fair_states,
    effective_cycle_relation,
    fair_core,
    fair_hull,
    find_fair_scc,
)
from repro.lc import check_containment
from repro.models import get_spec
from repro.network import SymbolicFsm
from repro.trace import Tracer


def machine(rows, nvalues, reset="0"):
    """A one-latch machine with the given transition rows."""
    body = "\n".join(rows)
    text = f"""
.model g
.mv s,n {nvalues}
.table s -> n
{body}
.latch n s
.reset s
{reset}
"""
    fsm = SymbolicFsm(flatten(parse(text)))
    fsm.build_transition()
    return fsm


def states_of(fsm, bdd_set):
    return {s["s"] for s in fsm.states_iter(bdd_set)}


class TestNoFairness:
    def test_hull_is_infinite_path_closure(self):
        # 0 -> 1 -> 2 -> 1 (cycle {1,2}); 3 deadlocks.  The hull
        # (nu Z . EX Z) keeps exactly the states with an infinite path:
        # the cycle plus the transient state 0 leading into it.
        fsm = machine(["0 1", "1 2", "2 1"], 4)
        graph = FairGraph(fsm)
        spec = FairnessSpec().normalize(fsm.bdd, fsm.bdd.true)
        hull = fair_hull(graph, spec, fsm.bdd.true)
        assert states_of(fsm, hull) == {"0", "1", "2"}

    def test_find_fair_scc_plain_cycle(self):
        fsm = machine(["0 1", "1 2", "2 1"], 3)
        graph = FairGraph(fsm)
        spec = FairnessSpec().normalize(fsm.bdd, fsm.bdd.true)
        scc = find_fair_scc(graph, spec, fsm.reachable().reached)
        assert scc is not None
        assert states_of(fsm, scc.states) == {"1", "2"}

    def test_self_loop_counts_as_cycle(self):
        fsm = machine(["0 0"], 2)
        graph = FairGraph(fsm)
        spec = FairnessSpec().normalize(fsm.bdd, fsm.bdd.true)
        scc = find_fair_scc(graph, spec, fsm.reachable().reached)
        assert scc is not None


class TestBuchi:
    def test_buchi_state_satisfiable(self):
        # cycle {1,2}; Büchi on state 2 is satisfiable
        fsm = machine(["0 1", "1 2", "2 1"], 3)
        graph = FairGraph(fsm)
        spec = FairnessSpec([BuchiState(fsm.var("s").literal("2"))])
        norm = spec.normalize(fsm.bdd, fsm.bdd.true)
        assert find_fair_scc(graph, norm, fsm.reachable().reached) is not None

    def test_buchi_state_unsatisfiable(self):
        # cycle {1,2}; Büchi on unreachable-in-cycle state 0
        fsm = machine(["0 1", "1 2", "2 1"], 3)
        graph = FairGraph(fsm)
        spec = FairnessSpec([BuchiState(fsm.var("s").literal("0"))])
        norm = spec.normalize(fsm.bdd, fsm.bdd.true)
        assert find_fair_scc(graph, norm, fsm.reachable().reached) is None

    def test_generalized_buchi_needs_all(self):
        # two disjoint cycles {1} and {2}; Büchi on 1 AND on 2 unsatisfiable
        fsm = machine(["0 (1,2)", "1 1", "2 2"], 3)
        graph = FairGraph(fsm)
        spec = FairnessSpec([
            BuchiState(fsm.var("s").literal("1")),
            BuchiState(fsm.var("s").literal("2")),
        ])
        norm = spec.normalize(fsm.bdd, fsm.bdd.true)
        assert find_fair_scc(graph, norm, fsm.reachable().reached) is None
        # each alone is satisfiable
        for value in ("1", "2"):
            single = FairnessSpec([BuchiState(fsm.var("s").literal(value))])
            assert find_fair_scc(
                graph, single.normalize(fsm.bdd, fsm.bdd.true),
                fsm.reachable().reached
            ) is not None

    def test_negative_state_set(self):
        # self-loops on 1 and 2; negative constraint on {1} kills cycle at 1
        fsm = machine(["0 (1,2)", "1 1", "2 2"], 3)
        graph = FairGraph(fsm)
        spec = FairnessSpec([NegativeStateSet(fsm.var("s").literal("1"))])
        norm = spec.normalize(fsm.bdd, fsm.bdd.true)
        scc = find_fair_scc(graph, norm, fsm.reachable().reached)
        assert scc is not None
        assert states_of(fsm, scc.states) == {"2"}

    def test_buchi_edge(self):
        # Büchi on the 1->2 edge: satisfied by the {1,2} cycle
        fsm = machine(["0 1", "1 2", "2 1", "2 2"], 3)
        graph = FairGraph(fsm)
        s, sn = fsm.var("s"), fsm.var("s#n")
        edge = fsm.bdd.and_(s.literal("1"), sn.literal("2"))
        spec = FairnessSpec([BuchiEdge(edge)])
        norm = spec.normalize(fsm.bdd, fsm.bdd.true)
        scc = find_fair_scc(graph, norm, fsm.reachable().reached)
        assert scc is not None
        assert states_of(fsm, scc.states) == {"1", "2"}


class TestStreett:
    def _edge(self, fsm, src, dst):
        return fsm.bdd.and_(fsm.var("s").literal(src),
                            fsm.var("s#n").literal(dst))

    def test_streett_satisfied_by_avoidance(self):
        # cycle {1,2}; pair (E=1->2 edge, F=unsat): cycle must avoid 1->2.
        # Alternative self loop on 2 avoids it.
        fsm = machine(["0 1", "1 2", "2 1", "2 2"], 3)
        graph = FairGraph(fsm)
        spec = FairnessSpec([
            StreettPair(e=self._edge(fsm, "1", "2"), f=fsm.bdd.false)
        ])
        norm = spec.normalize(fsm.bdd, fsm.bdd.true)
        scc = find_fair_scc(graph, norm, fsm.reachable().reached)
        assert scc is not None
        assert states_of(fsm, scc.states) == {"2"}

    def test_streett_unsatisfiable(self):
        # only cycle is 1->2->1; E = 1->2 unavoidable, F unsatisfiable
        fsm = machine(["0 1", "1 2", "2 1"], 3)
        graph = FairGraph(fsm)
        spec = FairnessSpec([
            StreettPair(e=self._edge(fsm, "1", "2"), f=fsm.bdd.false)
        ])
        norm = spec.normalize(fsm.bdd, fsm.bdd.true)
        assert find_fair_scc(graph, norm, fsm.reachable().reached) is None

    def test_streett_satisfied_by_f(self):
        # E = 1->2 unavoidable but F = 2->1 also taken: pair satisfied
        fsm = machine(["0 1", "1 2", "2 1"], 3)
        graph = FairGraph(fsm)
        spec = FairnessSpec([
            StreettPair(e=self._edge(fsm, "1", "2"), f=self._edge(fsm, "2", "1"))
        ])
        norm = spec.normalize(fsm.bdd, fsm.bdd.true)
        scc = find_fair_scc(graph, norm, fsm.reachable().reached)
        assert scc is not None
        # F must be listed as a required edge for the witness
        assert any(e != fsm.bdd.false for e, _l in scc.required_edges)

    def test_effective_relation_deletes_unsat_pairs(self):
        fsm = machine(["0 1", "1 2", "2 1", "2 2"], 3)
        graph = FairGraph(fsm)
        spec = FairnessSpec([
            StreettPair(e=self._edge(fsm, "1", "2"), f=fsm.bdd.false)
        ])
        norm = spec.normalize(fsm.bdd, fsm.bdd.true)
        t_eff, residual = effective_cycle_relation(graph, norm)
        assert not residual.streett
        assert fsm.bdd.and_(t_eff, self._edge(fsm, "1", "2")) == fsm.bdd.false

    def test_streett_edge_removal_recursion(self):
        # SCC {1,2,3}: 1->2->3->1, plus a 2->2 self loop; 0 -> 4 -> 1.
        # Pair (E = 3->1, F = 4->1): F has an edge, so the effective
        # relation keeps 3->1, and the hull keeps the whole SCC.  No SCC
        # state reaches the F-edge, so 3->1 is deleted; the surviving
        # subgraph has the 2->2 cycle.
        fsm = machine(["0 4", "4 1", "1 2", "2 3", "2 2", "3 1"], 5)
        graph = FairGraph(fsm)
        spec = FairnessSpec([
            StreettPair(e=self._edge(fsm, "3", "1"), f=self._edge(fsm, "4", "1"))
        ])
        norm = spec.normalize(fsm.bdd, fsm.bdd.true)
        reached = fsm.reachable().reached
        t_eff, residual = effective_cycle_relation(graph, norm)
        assert fsm.bdd.and_(t_eff, self._edge(fsm, "3", "1")) != fsm.bdd.false
        hull = fair_hull(graph, residual, reached, trans=t_eff)
        assert {"1", "2", "3"} <= states_of(fsm, hull)
        region, trans = fair_core(graph, norm, reached)
        assert states_of(fsm, region) == {"0", "1", "2", "4"}
        assert fsm.bdd.and_(trans, self._edge(fsm, "3", "1")) == fsm.bdd.false
        scc = find_fair_scc(graph, norm, reached)
        assert scc is not None
        assert states_of(fsm, scc.states) == {"2"}
        # the witness cycle cannot contain the deleted edge
        assert fsm.bdd.and_(scc.trans, self._edge(fsm, "3", "1")) == fsm.bdd.false

    def test_pruning_rounds_are_traced(self):
        # The graph above with a second pair on the 2->2 loop: one round
        # deletes 3->1 and 2->2, after which the hull is empty.
        tracer = Tracer()
        fsm = machine(["0 4", "4 1", "1 2", "2 3", "2 2", "3 1"], 5)
        fsm.stats.tracer = tracer
        graph = FairGraph(fsm)
        f_edge = self._edge(fsm, "4", "1")
        spec = FairnessSpec([
            StreettPair(e=self._edge(fsm, "3", "1"), f=f_edge, label="one"),
            StreettPair(e=self._edge(fsm, "2", "2"), f=f_edge, label="two"),
        ])
        norm = spec.normalize(fsm.bdd, fsm.bdd.true)
        assert find_fair_scc(graph, norm, fsm.reachable().reached) is None
        prunes = [e["args"] for e in tracer.events
                  if e["name"] == "lc.streett_prune"]
        assert len(prunes) == 1
        assert prunes[0]["round"] == 1
        assert prunes[0]["pairs"] == ["one", "two"]
        assert prunes[0]["hull_nodes"] > 0


class TestFairStates:
    def test_all_fair_states_buchi(self):
        # 0 -> 1 -> 2 -> 1 and 0 -> 3 -> 3; Büchi on 2.
        fsm = machine(["0 (1,3)", "1 2", "2 1", "3 3"], 4)
        graph = FairGraph(fsm)
        spec = FairnessSpec([BuchiState(fsm.var("s").literal("2"))])
        norm = spec.normalize(fsm.bdd, fsm.bdd.true)
        fair = all_fair_states(graph, norm, fsm.bdd.true)
        assert states_of(fsm, fair) == {"0", "1", "2"}

    def test_all_fair_states_streett_exact(self):
        # state 3 self-loop uses E without F: not fair; {1,2} cycle is.
        fsm = machine(["0 (1,3)", "1 2", "2 1", "3 3"], 4)
        graph = FairGraph(fsm)
        e33 = fsm.bdd.and_(fsm.var("s").literal("3"), fsm.var("s#n").literal("3"))
        e12 = fsm.bdd.and_(fsm.var("s").literal("1"), fsm.var("s#n").literal("2"))
        spec = FairnessSpec([StreettPair(e=e33, f=e12)])
        norm = spec.normalize(fsm.bdd, fsm.bdd.true)
        fair = all_fair_states(graph, norm, fsm.bdd.true)
        assert states_of(fsm, fair) == {"0", "1", "2"}


class TestFairCycleCost:
    """Peak live nodes of 2mdlc's fair checks.  The counts are
    deterministic; each bound is the measured figure."""

    @staticmethod
    def _fair_ctl(spec):
        fsm = SymbolicFsm(spec.flat())
        fsm.build_transition(method="greedy")
        reached = fsm.reachable().reached
        checker = ModelChecker(
            fsm, fairness=spec.pif.bind_fairness(fsm), reached=reached)
        ((_name, formula),) = spec.pif.ctl_props
        assert checker.check(formula).holds
        return fsm.bdd.stats()["peak_live_nodes"]

    def test_2mdlc_fair_ctl_peak_live_nodes(self):
        """2mdlc width 1, data_integrity under the PIF's Streett fairness.

        Enumerating every fair SCC of the untrimmed hull, one seed at a
        time, peaked at 96,053 live nodes and the split-aware SCC
        enumerator at 26,874; the edge-deleting Streett fixpoint peaks
        at 2,345."""
        assert self._fair_ctl(get_spec("2mdlc", width=1)) <= 2_345

    def test_table1_2mdlc_lc_and_fair_ctl(self):
        """2mdlc at its Table-1 width (5): lc_progress and data_integrity.

        The SCC enumerator needed 7,362 seeds and 1.39M peak live nodes
        for the LC check, and the fair-CTL check did not finish; the
        edge-deleting fixpoint peaks at 43,287 (LC) and 15,749 (fair
        CTL, reachability included)."""
        spec = get_spec("2mdlc")
        (automaton,) = spec.pif.automata
        fsm = SymbolicFsm(spec.flat())
        result = check_containment(
            fsm, automaton, system_fairness=spec.pif.bind_fairness(fsm))
        assert result.holds
        assert fsm.bdd.stats()["peak_live_nodes"] <= 43_287
        assert self._fair_ctl(spec) <= 15_749
