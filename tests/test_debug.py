"""Tests for the debugging environment: traces are real executions."""

import pytest

from repro.automata import Automaton, FairnessSpec, NegativeStateSet, atom
from repro.blifmv import flatten, parse
from repro.ctl import ModelChecker, parse_ctl
from repro.debug import (
    CtlDebugger,
    Trace,
    TraceStep,
    format_lc_report,
    lc_counterexample,
)
from repro.lc import check_containment
from repro.network import SymbolicFsm
from repro.trace import Tracer

CHAIN = """
.model chain
.mv s,n 4
.table s -> n
0 (0,1)
1 2
2 3
3 3
.table s -> bad
3 1
- 0
.mv bad 2
.latch n s
.reset s
0
.end
"""


# Two sinks that cannot reach each other: 0 -> 1|3, 3 -> 2, loops on 1, 2.
FORK = """
.model fork
.mv s,n 4
.table s -> n
0 (1,3)
1 1
2 2
3 2
.latch n s
.reset s
0
.end
"""


def chain_model():
    return flatten(parse(CHAIN))


def bad_automaton():
    aut = Automaton(name="nobad", states=["A", "B"], initial=["A"])
    aut.add_edge("A", "A", ~atom("bad", "1"))
    aut.add_edge("A", "B", atom("bad", "1"))
    aut.add_edge("B", "B")
    aut.accept_invariance(["A"])
    return aut


def step_is_transition(fsm, a: TraceStep, b: TraceStep) -> bool:
    cube = fsm.state_cube(a.state)
    image = fsm.image(cube)
    return fsm.bdd.and_(image, fsm.state_cube(b.state)) != fsm.bdd.false


class TestLcCounterexample:
    def test_trace_is_an_execution(self):
        result = check_containment(chain_model(), bad_automaton(),
                                   early_fail=False)
        assert not result.holds
        trace = lc_counterexample(result)
        fsm = result.fsm
        steps = trace.prefix + trace.cycle
        for a, b in zip(steps, steps[1:]):
            assert step_is_transition(fsm, a, b)
        # the cycle closes back to its start
        assert step_is_transition(fsm, steps[-1], trace.cycle[0])

    def test_prefix_starts_at_initial_state(self):
        result = check_containment(chain_model(), bad_automaton(),
                                   early_fail=False)
        trace = lc_counterexample(result)
        first = (trace.prefix + trace.cycle)[0]
        fsm = result.fsm
        assert fsm.bdd.and_(fsm.init, fsm.state_cube(first.state)) != fsm.bdd.false

    def test_prefix_is_shortest(self):
        # bad=1 requires s=3, which is 3 steps from reset; monitor trap
        # one step later.  The minimal prefix to the fair cycle region is
        # bounded by the BFS depth of the SCC.
        result = check_containment(chain_model(), bad_automaton(),
                                   early_fail=False)
        trace = lc_counterexample(result)
        bdd = result.fsm.bdd
        depth = None
        for k, ring in enumerate(result.reach.rings):
            if bdd.and_(ring, result.fair_scc.states) != bdd.false:
                depth = k
                break
        assert depth is not None
        assert len(trace.prefix) == depth

    def test_early_failure_reaches_once(self, monkeypatch):
        """The early stop ends the one reachability run at its depth, and
        the lasso replays against the rings that run kept."""
        runs = []
        reachable = SymbolicFsm.reachable

        def counting(fsm, *args, **kwargs):
            runs.append(fsm)
            return reachable(fsm, *args, **kwargs)

        monkeypatch.setattr(SymbolicFsm, "reachable", counting)
        tracer = Tracer()
        result = check_containment(SymbolicFsm(chain_model(), tracer=tracer),
                                   bad_automaton())
        assert result.early_failure and runs == [result.fsm]
        (stop,) = [e for e in tracer.events if e["name"] == "lc.early_stop"]
        depth = stop["args"]["depth"]
        assert result.reach.iterations == depth
        assert len(result.reach.rings) == depth + 1
        assert not result.reach.converged
        trace = lc_counterexample(result)
        fsm = result.fsm
        steps = trace.prefix + trace.cycle
        assert fsm.bdd.and_(fsm.init, fsm.state_cube(steps[0].state)) != fsm.bdd.false
        for a, b in zip(steps, steps[1:]):
            assert step_is_transition(fsm, a, b)
        assert step_is_transition(fsm, steps[-1], trace.cycle[0])

    def test_error_on_passing_property(self):
        aut = Automaton(name="trivial", states=["A"], initial=["A"])
        aut.add_edge("A", "A")
        aut.accept_invariance(["A"])
        result = check_containment(chain_model(), aut)
        assert result.holds
        with pytest.raises(ValueError):
            lc_counterexample(result)

    def test_report_formats(self):
        result = check_containment(chain_model(), bad_automaton())
        report = format_lc_report(result)
        assert "FAIL" in report
        assert "cycle" in report
        passing = check_containment(chain_model(), Automaton(
            name="trivial", states=["A"], initial=["A"],
        ).add_edge("A", "A").accept_invariance(["A"]))
        assert "PASS" in format_lc_report(passing)

    def test_trace_format_contains_states(self):
        result = check_containment(chain_model(), bad_automaton())
        trace = lc_counterexample(result)
        text = trace.format()
        assert "s=" in text
        assert "cycle" in text


class TestCtlDebugger:
    def _checker(self):
        fsm = SymbolicFsm(chain_model())
        fsm.build_transition()
        return ModelChecker(fsm)

    def test_ag_failure_has_path_and_child(self):
        dbg = CtlDebugger(self._checker())
        node = dbg.explain("AG !(bad=1)")
        assert not node.holds
        assert node.path  # shortest path to the violation
        assert node.children
        assert not node.children[0].holds

    def test_ag_path_is_execution(self):
        checker = self._checker()
        dbg = CtlDebugger(checker)
        node = dbg.explain("AG !(s=3)")
        fsm = checker.fsm
        for a, b in zip(node.path, node.path[1:]):
            assert step_is_transition(fsm, a, b)
        assert node.path[-1].state["s"] == "3"

    def test_failing_invariant_on_known_reached_states(self):
        """A checker that holds the reached states still searches for a
        failing ``AG p``'s depth, and the debugger's path replays."""
        fsm = SymbolicFsm(chain_model())
        checker = ModelChecker(fsm, reached=fsm.reachable().reached)
        result = checker.check("AG !(s=3)")
        fresh = self._checker().check("AG !(s=3)")
        assert not result.holds and result.used_fast_path
        assert result.counterexample_depth == fresh.counterexample_depth == 3
        assert result.failing_init == fsm.init
        assert result.satisfying == fsm.bdd.false
        path = CtlDebugger(checker).explain("AG !(s=3)").path
        assert [step.state["s"] for step in path] == ["0", "1", "2", "3"]
        for a, b in zip(path, path[1:]):
            assert step_is_transition(fsm, a, b)

    def test_and_failure_points_at_failing_conjunct(self):
        dbg = CtlDebugger(self._checker())
        node = dbg.explain("s=0 & s=1")
        assert not node.holds
        assert any(not c.holds for c in node.children)

    def test_or_failure_explains_both(self):
        dbg = CtlDebugger(self._checker())
        node = dbg.explain("s=1 | s=2")
        assert not node.holds
        assert len(node.children) == 2

    def test_ex_witness(self):
        dbg = CtlDebugger(self._checker())
        node = dbg.explain("EX s=1")
        assert node.holds
        assert node.children
        assert node.children[0].state["s"] == "1"

    def test_ef_witness_path(self):
        dbg = CtlDebugger(self._checker())
        node = dbg.explain("EF s=3")
        assert node.holds
        assert node.path
        assert node.path[-1].state["s"] == "3"

    def test_af_failure_lasso(self):
        dbg = CtlDebugger(self._checker())
        node = dbg.explain("AF s=1")   # can loop at 0 forever
        assert not node.holds
        assert node.path

    def test_eg_witness_lasso(self):
        dbg = CtlDebugger(self._checker())
        node = dbg.explain("EG s=0")
        assert node.holds
        assert node.path

    def test_au_failure(self):
        dbg = CtlDebugger(self._checker())
        node = dbg.explain("A[ s=0 U s=1 ]")
        assert not node.holds
        assert node.note

    def test_explain_at_specific_state(self):
        dbg = CtlDebugger(self._checker())
        node = dbg.explain("EX s=3", state={"s": "2"})
        assert node.holds

    def test_depth_limit(self):
        dbg = CtlDebugger(self._checker(), max_depth=0)
        node = dbg.explain("!(s=0)")
        assert node.note.startswith("(depth limit")

    def test_format_output(self):
        dbg = CtlDebugger(self._checker())
        text = dbg.explain("AG !(bad=1)").format()
        assert "FAILS" in text
        assert "note:" in text

    def test_fair_lasso_respects_fairness(self):
        fsm = SymbolicFsm(chain_model())
        fsm.build_transition()
        spec = FairnessSpec([NegativeStateSet(fsm.var("s").literal("0"))])
        checker = ModelChecker(fsm, fairness=spec)
        dbg = CtlDebugger(checker)
        # under the constraint, parking at 0 is unfair; EG s{0,3} is
        # witnessed only via the s=3 sink
        node = dbg.explain("EG s{0,3}", state={"s": "3"})
        assert node.holds
        cycle_states = {step.state["s"] for step in node.path}
        assert "3" in cycle_states

    def test_lasso_cycle_is_reachable_from_the_state(self):
        fsm = SymbolicFsm(flatten(parse(FORK)))
        fsm.build_transition()
        dbg = CtlDebugger(ModelChecker(fsm))
        # Both loops stay outside {0, 3}; each state's lasso is its own.
        for sink in ("1", "2"):
            node = dbg.explain("AF (s=0 | s=3)", state={"s": sink})
            assert not node.holds
            assert [step.state["s"] for step in node.path] == [sink]
        node = dbg.explain("AG AF (s=0 | s=3)")
        assert [step.state["s"] for step in node.path] == ["0", "1"]
        assert [step.state["s"] for step in node.children[0].path] == ["1"]
