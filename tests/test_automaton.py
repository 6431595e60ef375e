"""Tests for property automata: guards, determinism, completion, attach."""

import pytest

from repro.automata import (
    Automaton,
    AutomatonError,
    TRUE_GUARD,
    atom,
    attach,
    complement_rabin,
    BuchiEdge,
    BuchiState,
    FairnessSpec,
    NegativeStateSet,
    RabinPair,
    StreettPair,
)
from repro.blifmv import flatten, parse
from repro.network import SymbolicFsm

TOGGLE = """
.model toggle
.mv s,n 2
.table s -> n
0 1
1 0
.table s -> out
- =s
.mv out 2
.latch n s
.reset s
0
.end
"""


def fresh_fsm():
    return SymbolicFsm(flatten(parse(TOGGLE)))


class TestGuards:
    def test_atom_single(self):
        fsm = fresh_fsm()
        g = atom("out", "1")
        node = g.to_bdd(fsm)
        assert node == fsm.var("out").literal("1")

    def test_atom_set(self):
        fsm = fresh_fsm()
        g = atom("s", ["0", "1"])
        assert g.to_bdd(fsm) == fsm.var("s").domain_constraint

    def test_boolean_algebra(self):
        fsm = fresh_fsm()
        a = atom("out", "1")
        b = atom("s", "0")
        assert (a & b).to_bdd(fsm) == fsm.bdd.and_(a.to_bdd(fsm), b.to_bdd(fsm))
        assert (a | b).to_bdd(fsm) == fsm.bdd.or_(a.to_bdd(fsm), b.to_bdd(fsm))
        assert (~a).to_bdd(fsm) == fsm.bdd.not_(a.to_bdd(fsm))

    def test_true_guard(self):
        fsm = fresh_fsm()
        assert TRUE_GUARD.to_bdd(fsm) == fsm.bdd.true


class TestAutomatonStructure:
    def test_unknown_state_rejected(self):
        with pytest.raises(AutomatonError):
            Automaton(name="a", states=["A"], initial=["B"])
        aut = Automaton(name="a", states=["A"], initial=["A"])
        with pytest.raises(AutomatonError):
            aut.add_edge("A", "Z")

    def test_duplicate_states_rejected(self):
        with pytest.raises(AutomatonError):
            Automaton(name="a", states=["A", "A"], initial=["A"])

    def test_edges_within_and_leaving(self):
        aut = Automaton(name="a", states=["A", "B"], initial=["A"])
        aut.add_edge("A", "A").add_edge("A", "B").add_edge("B", "B")
        assert aut.edges_within(["A"]) == frozenset({("A", "A")})
        assert aut.edges_leaving(["A"]) == frozenset({("A", "B"), ("B", "B")})

    def test_invariance_acceptance(self):
        aut = Automaton(name="a", states=["A", "B"], initial=["A"])
        aut.add_edge("A", "A").add_edge("A", "B").add_edge("B", "B")
        aut.accept_invariance(["A"])
        fin, inf = aut.rabin_pairs[0]
        assert fin == frozenset({("A", "B"), ("B", "B")})
        assert inf == frozenset({("A", "A")})


class TestDeterminismAndCompletion:
    def test_overlapping_guards_detected(self):
        fsm = fresh_fsm()
        aut = Automaton(name="a", states=["A", "B", "C"], initial=["A"])
        aut.add_edge("A", "B", atom("out", "1"))
        aut.add_edge("A", "C", TRUE_GUARD)  # overlaps with out=1
        problems = aut.check_deterministic(fsm)
        assert problems and "overlap" in problems[0]

    def test_disjoint_guards_ok(self):
        fsm = fresh_fsm()
        aut = Automaton(name="a", states=["A", "B"], initial=["A"])
        aut.add_edge("A", "B", atom("out", "1"))
        aut.add_edge("A", "A", ~atom("out", "1"))
        aut.add_edge("B", "B")
        assert aut.check_deterministic(fsm) == []

    def test_incomplete_state_detected(self):
        fsm = fresh_fsm()
        aut = Automaton(name="a", states=["A"], initial=["A"])
        aut.add_edge("A", "A", atom("out", "1"))
        problems = aut.check_complete(fsm)
        assert problems and "incomplete" in problems[0]

    def test_completion_adds_trap(self):
        aut = Automaton(name="a", states=["A"], initial=["A"])
        aut.add_edge("A", "A", atom("out", "1"))
        done = aut.completed()
        assert "_trap" in done.states
        # trap self-loops and catches the complement
        assert any(e.src == "_trap" and e.dst == "_trap" for e in done.edges)

    def test_completion_name_clash(self):
        aut = Automaton(name="a", states=["_trap"], initial=["_trap"])
        with pytest.raises(AutomatonError):
            aut.completed()


class TestAttach:
    def _mutex_automaton(self):
        aut = Automaton(name="watch", states=["A", "B"], initial=["A"])
        aut.add_edge("A", "A", ~atom("out", "1"))
        aut.add_edge("A", "B", atom("out", "1"))
        aut.add_edge("B", "B")
        aut.accept_invariance(["A"])
        return aut

    def test_attach_adds_state_variable(self):
        fsm = fresh_fsm()
        product = attach(fsm, self._mutex_automaton()).fsm
        product.build_transition()
        state = product.pick_state(product.init)
        assert state["watch.state"] == "A"

    def test_monitor_tracks_system(self):
        fsm = fresh_fsm()
        product = attach(fsm, self._mutex_automaton()).fsm
        product.build_transition()
        # after one step out=1 (s toggles to 1), monitor must be in B after two
        img1 = product.image(product.init)
        img2 = product.image(img1)
        states = {s["watch.state"] for s in product.states_iter(img2)}
        assert states == {"B"}

    def test_attach_rejects_nondeterministic(self):
        fsm = fresh_fsm()
        aut = Automaton(name="bad", states=["A", "B"], initial=["A"])
        aut.add_edge("A", "A")
        aut.add_edge("A", "B")
        with pytest.raises(AutomatonError):
            attach(fsm, aut)

    def test_edge_bdd_and_rabin_pairs(self):
        fsm = fresh_fsm()
        aut = self._mutex_automaton()
        monitor = attach(fsm, aut)
        monitor.fsm.build_transition()
        pairs = monitor.rabin_pairs_bdd()
        assert len(pairs) == 1
        assert pairs[0].inf != fsm.bdd.false


class TestFairnessNormalization:
    def test_negative_becomes_complement_buchi(self):
        fsm = fresh_fsm()
        states = fsm.var("s").literal("0")
        spec = FairnessSpec([NegativeStateSet(states)])
        norm = spec.normalize(fsm.bdd, fsm.bdd.true)
        assert len(norm.buchi) == 1
        assert norm.buchi[0][0] == fsm.bdd.not_(states)

    def test_buchi_passthrough(self):
        fsm = fresh_fsm()
        spec = FairnessSpec([
            BuchiState(fsm.var("s").literal("1")),
            BuchiEdge(fsm.bdd.true),
        ])
        norm = spec.normalize(fsm.bdd, fsm.bdd.true)
        assert len(norm.buchi) == 2
        assert not norm.streett

    def test_streett_passthrough(self):
        fsm = fresh_fsm()
        spec = FairnessSpec([StreettPair(e=fsm.bdd.true, f=fsm.bdd.false)])
        norm = spec.normalize(fsm.bdd, fsm.bdd.true)
        assert len(norm.streett) == 1

    def test_rabin_rejected_as_system_fairness(self):
        fsm = fresh_fsm()
        spec = FairnessSpec([RabinPair(fin=fsm.bdd.false, inf=fsm.bdd.true)])
        with pytest.raises(TypeError):
            spec.normalize(fsm.bdd, fsm.bdd.true)

    def test_complement_rabin(self):
        fsm = fresh_fsm()
        pairs = [RabinPair(fin=fsm.var("s").literal("0"),
                           inf=fsm.var("s").literal("1"), label="p")]
        streett = complement_rabin(pairs)
        assert len(streett) == 1
        assert streett[0].e == pairs[0].inf
        assert streett[0].f == pairs[0].fin

    def test_trivial_property(self):
        spec = FairnessSpec()
        fsm = fresh_fsm()
        assert spec.normalize(fsm.bdd, fsm.bdd.true).trivial
