"""Tests for language containment: pass/fail, early failure, emptiness."""

import os
import subprocess
import sys

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.automata import (
    Automaton,
    AutomatonError,
    FairnessSpec,
    NegativeStateSet,
    atom,
)
from repro.blifmv import flatten, parse
from repro.ctl import ModelChecker
from repro.lc import check_containment, doomed_states, language_empty
from repro.models import get_spec
from repro.network import SymbolicFsm

TOGGLE = """
.model toggle
.mv s,n 2
.table s -> n
- (0,1)
.table s -> out
- =s
.mv out 2
.latch n s
.reset s
0
.end
"""

STUCK = """
.model stuck
.mv s,n 2
.table s -> n
0 0
1 1
.latch n s
.reset s
0
.end
"""


def model(text):
    return flatten(parse(text))


def invariance(name, bad_guard):
    aut = Automaton(name=name, states=["A", "B"], initial=["A"])
    aut.add_edge("A", "A", ~bad_guard)
    aut.add_edge("A", "B", bad_guard)
    aut.add_edge("B", "B")
    aut.accept_invariance(["A"])
    return aut


class TestSafety:
    def test_holding_invariant(self):
        # out never equals 2 — vacuously true on a binary net
        aut = invariance("never2", atom("s", "1") & atom("s", "0"))
        result = check_containment(model(TOGGLE), aut)
        assert result.holds
        assert result.fair_scc is None

    def test_violated_invariant(self):
        aut = invariance("never1", atom("out", "1"))
        result = check_containment(model(TOGGLE), aut)
        assert not result.holds
        assert result.fair_scc is not None

    def test_early_failure_detection_fires(self):
        aut = invariance("never1", atom("out", "1"))
        result = check_containment(model(TOGGLE), aut, early_fail=True)
        assert not result.holds
        assert result.early_failure

    def test_early_fail_disabled_same_verdict(self):
        aut = invariance("never1", atom("out", "1"))
        with_ef = check_containment(model(TOGGLE), aut, early_fail=True)
        without = check_containment(model(TOGGLE), aut, early_fail=False)
        assert with_ef.holds == without.holds is False
        assert not without.early_failure

    def test_quantify_methods_same_verdict(self):
        for method in ("greedy", "linear", "monolithic"):
            aut = invariance("never1", atom("out", "1"))
            result = check_containment(
                model(TOGGLE), aut, quantify_method=method)
            assert not result.holds


class TestLiveness:
    def recurrence(self):
        aut = Automaton(name="recur1", states=["Z", "O"], initial=["Z"])
        aut.add_edge("Z", "O", atom("s", "1"))
        aut.add_edge("Z", "Z", ~atom("s", "1"))
        aut.add_edge("O", "O", atom("s", "1"))
        aut.add_edge("O", "Z", ~atom("s", "1"))
        aut.accept_recurrence([("Z", "O"), ("O", "O")])
        return aut

    def test_liveness_fails_without_fairness(self):
        result = check_containment(model(TOGGLE), self.recurrence())
        assert not result.holds  # system may stay at s=0 forever

    def test_liveness_holds_with_fairness(self):
        fsm = SymbolicFsm(model(TOGGLE))
        spec = FairnessSpec([NegativeStateSet(fsm.var("s").literal("0"))])
        result = check_containment(fsm, self.recurrence(), system_fairness=spec)
        assert result.holds

    def test_empty_acceptance_rejects_everything(self):
        # an automaton with no accepting pair accepts nothing: containment
        # fails iff the system has any fair run at all
        aut = Automaton(name="nothing", states=["A"], initial=["A"])
        aut.add_edge("A", "A")
        result = check_containment(model(TOGGLE), aut)
        assert not result.holds


class TestLanguageEmpty:
    def test_nonempty_without_fairness(self):
        fsm = SymbolicFsm(model(STUCK))
        fsm.build_transition()
        assert not language_empty(fsm)

    def test_empty_under_contradictory_fairness(self):
        fsm = SymbolicFsm(model(STUCK))
        fsm.build_transition()
        spec = FairnessSpec([
            NegativeStateSet(fsm.var("s").literal("0")),
        ])
        # from reset the only run parks at s=0, which is unfair
        assert language_empty(fsm, spec)


class TestDoomedStates:
    def test_safety_trap_is_doomed(self):
        aut = invariance("inv", atom("out", "1"))
        doomed = doomed_states(aut)
        assert doomed == {"B"}

    def test_recurrence_has_no_doomed(self):
        aut = Automaton(name="r", states=["Z", "O"], initial=["Z"])
        aut.add_edge("Z", "O").add_edge("O", "Z")
        aut.accept_recurrence([("Z", "O")])
        assert doomed_states(aut) == set()

    def test_unreachable_accepting_core(self):
        # B cannot reach the accepting self-loop on A
        aut = Automaton(name="x", states=["A", "B"], initial=["A"])
        aut.add_edge("A", "A").add_edge("A", "B").add_edge("B", "B")
        aut.accept_recurrence([("A", "A")])
        assert doomed_states(aut) == {"B"}

    def test_all_doomed_when_no_pairs(self):
        aut = Automaton(name="none", states=["A"], initial=["A"])
        aut.add_edge("A", "A")
        assert doomed_states(aut) == {"A"}


def doomed_states_reference(automaton):
    """The networkx formulation ``doomed_states`` is checked against."""
    graph = nx.DiGraph()
    graph.add_nodes_from(automaton.states)
    graph.add_edges_from((e.src, e.dst) for e in automaton.edges)
    good_core = set()
    for fin, inf in automaton.rabin_pairs:
        pruned = nx.DiGraph()
        pruned.add_nodes_from(automaton.states)
        pruned.add_edges_from((e.src, e.dst) for e in automaton.edges
                              if (e.src, e.dst) not in fin)
        for component in nx.strongly_connected_components(pruned):
            inside = {(u, v) for u, v in pruned.edges(component)
                      if v in component}
            if inside & set(inf):
                good_core |= component
    hopeful = {s for s in automaton.states
               if any(s == t or nx.has_path(graph, s, t) for t in good_core)}
    return set(automaton.states) - hopeful


STATES = ["A", "B", "C", "D", "E"]
EDGE_KEYS = st.tuples(st.sampled_from(STATES), st.sampled_from(STATES))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(EDGE_KEYS, max_size=12),
    st.lists(st.tuples(st.frozensets(EDGE_KEYS, max_size=4),
                       st.frozensets(EDGE_KEYS, max_size=4)), max_size=3),
)
def test_doomed_states_matches_networkx(edges, pairs):
    aut = Automaton(name="r", states=list(STATES), initial=["A"])
    for src, dst in edges:
        aut.add_edge(src, dst)
    for fin, inf in pairs:
        aut.accept_rabin(fin, inf)
    assert doomed_states(aut) == doomed_states_reference(aut)


def test_import_leaves_networkx_out():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = ("import sys, repro, repro.cli, repro.lc; "
            "assert 'networkx' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestResultShape:
    def test_result_fields(self):
        aut = invariance("never1", atom("out", "1"))
        result = check_containment(model(TOGGLE), aut)
        assert result.failed
        assert result.reach.iterations >= 0
        assert result.seconds >= 0
        assert result.monitor.automaton.name == "never1"


class TestOneMachine:
    """Every property of a design is checked on one machine: LC runs on a
    product view and leaves the machine as it was."""

    def test_check_leaves_built_machine_unchanged(self):
        spec = get_spec("rrarbiter")
        fsm = SymbolicFsm(spec.flat())
        fsm.build_transition()
        plan = fsm.partition_schedule()
        reached = fsm.reachable().reached
        before = (list(fsm.latches), list(fsm.conjuncts), fsm.init, fsm.trans)
        fairness = spec.pif.bind_fairness(fsm)
        for automaton in spec.pif.automata:
            result = check_containment(fsm, automaton, system_fairness=fairness)
            assert result.fsm is not fsm
            assert len(result.fsm.latches) == len(fsm.latches) + 1
        violated = check_containment(fsm, invariance("two", atom("turn", "2")))
        assert violated.failed
        assert (fsm.latches, fsm.conjuncts, fsm.init, fsm.trans) == before
        assert fsm.partition_schedule() is plan
        assert fsm.reachable().reached == reached

    @pytest.mark.parametrize("name, automata, constraints",
                             [("ping pong", 6, 0), ("scheduler", 2, 36)])
    def test_one_machine_matches_fresh_machines(self, name, automata,
                                                constraints):
        spec = get_spec(name)
        assert (len(spec.pif.automata), len(spec.pif.fairness)) == (
            automata, constraints)

        def lc(fsm, automaton, fairness):
            result = check_containment(fsm, automaton, system_fairness=fairness)
            return (result.holds, result.early_failure,
                    result.fsm.count_states(result.reach.reached))

        def ctl(fsm, fairness):
            checker = ModelChecker(fsm, fairness=fairness)
            return [checker.check(f).holds for _name, f in spec.pif.ctl_props]

        fsm = SymbolicFsm(spec.flat())
        fairness = spec.pif.bind_fairness(fsm)
        shared = [lc(fsm, a, fairness) for a in spec.pif.automata]
        # Attaching each automaton again reuses its declared state pair.
        again = [lc(fsm, a, fairness) for a in spec.pif.automata]
        shared_ctl = ctl(fsm, fairness)

        fresh = []
        for automaton in spec.pif.automata:
            machine = SymbolicFsm(spec.flat())
            fresh.append(lc(machine, automaton, spec.pif.bind_fairness(machine)))
        machine = SymbolicFsm(spec.flat())
        assert shared == again == fresh
        assert shared_ctl == ctl(machine, spec.pif.bind_fairness(machine))

    def test_same_name_other_states_is_a_clash(self):
        fsm = SymbolicFsm(model(TOGGLE))
        assert check_containment(fsm, invariance("watch", atom("out", "1"))).failed
        other = Automaton(name="watch", states=["A", "B", "C"], initial=["A"])
        for state in other.states:
            other.add_edge(state, state)
        other.accept_invariance(["A"])
        with pytest.raises(AutomatonError, match="'watch.state'"):
            check_containment(fsm, other)


def test_engine_counters_independent_of_hash_seed():
    """Monitor edge sets and guard domains are built in sorted order, so
    an LC run's and a fuzz case's kernel counters are the same under any
    ``PYTHONHASHSEED``."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = (
        "import json\n"
        "from repro.lc import check_containment\n"
        "from repro.models import get_spec\n"
        "from repro.network import SymbolicFsm\n"
        "from repro.oracle.diff import _case_rng, run_case\n"
        "from repro.oracle.fuzz import gen_case\n"
        "from repro.perf import EngineStats\n"
        "class Keep(EngineStats):\n"
        "    managers = []\n"
        "    def merge(self, other):\n"
        "        super().merge(other)\n"
        "        self.managers.append(other.bdd)\n"
        "spec = get_spec('ping pong')\n"
        "fsm = SymbolicFsm(spec.flat())\n"
        "check_containment(fsm, spec.pif.automaton('lc_alternation'),\n"
        "                  system_fairness=spec.pif.bind_fairness(fsm))\n"
        "Keep.managers.append(fsm.bdd)\n"
        "for seed in (2, 5, 6):\n"
        "    run_case(gen_case(_case_rng(seed)), seed, Keep())\n"
        "print(json.dumps([[b.stats(), b.cache_stats()]\n"
        "                  for b in Keep.managers], sort_keys=True))\n"
    )
    outputs = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
                   PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True,
        )
        outputs.add(done.stdout)
    assert len(outputs) == 1
