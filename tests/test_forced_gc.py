"""Rooting discipline under a collection at every safe point.

``auto_gc=1`` makes every engine safe point run a full mark-and-sweep, so
any handle an engine holds without rooting it is freed and its slot
recycled.  Every gallery property is checked with such a manager and with
a default one: the verdicts and the satisfying-set sizes must agree, and
the fair-cycle search itself must have collected.  A shell session runs
every stateful command both ways and must print the same answers.
"""

import re

import pytest

import repro.ctl.modelcheck as modelcheck
import repro.debug.mcdebug as mcdebug
import repro.lc.containment as containment
from repro.automata.fairness import BuchiState, FairnessSpec, StreettPair
from repro.bdd import BDD
from repro.bdd.mdd import MddManager
from repro.blifmv import flatten, parse
from repro.cli import HsisShell
from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.ctl import ModelChecker
from repro.debug import CtlDebugger
from repro.lc import check_containment
from repro.lc.faircycle import FairGraph, all_fair_states, find_fair_scc
from repro.models import GALLERY, get_spec
from repro.network import SymbolicFsm
from repro.oracle.diff import run_trial
from repro.sim import Simulator

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


def _one_machine_results(spec, config):
    """Every automaton, twice, then every CTL property, all on one
    machine whose bound fairness is rooted for as long as it is used."""
    fsm = SymbolicFsm(spec.flat(), config=config)
    fairness = spec.pif.bind_fairness(fsm)
    fsm.bdd.keep(fairness.nodes)
    out = []
    for automaton in spec.pif.automata * 2:
        result = check_containment(fsm, automaton, system_fairness=fairness)
        out.append((automaton.name, result.holds,
                    result.fsm.count_states(result.reach.reached)))
    checker = ModelChecker(fsm, fairness=fairness)
    for _name, formula in spec.pif.ctl_props:
        result = checker.check(formula)
        out.append((str(formula), result.holds,
                    fsm.count_states(result.satisfying)))
    return out


@pytest.mark.parametrize("name", ["rrarbiter", "traffic"])
def test_one_machine_survives_forced_gc(name):
    """LC products and the CTL checker share one machine and its manager
    under a collection at every safe point, and answer as fresh machines
    do."""
    spec = GALLERY[name]()
    forced = _one_machine_results(spec, EngineConfig(auto_gc=1))
    fresh = []
    for automaton in spec.pif.automata:
        fsm = SymbolicFsm(spec.flat())
        result = check_containment(
            fsm, automaton, system_fairness=spec.pif.bind_fairness(fsm))
        fresh.append((automaton.name, result.holds,
                      result.fsm.count_states(result.reach.reached)))
    assert forced == fresh * 2 + _ctl_results(spec, DEFAULT_CONFIG)[
        :len(spec.pif.ctl_props)]


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_gallery_verdicts_survive_forced_gc(name, search_gc_runs):
    spec = GALLERY[name]()
    forced = EngineConfig(auto_gc=1)
    assert _ctl_results(spec, forced) == _ctl_results(spec, DEFAULT_CONFIG)
    assert _lc_results(spec, forced) == _lc_results(spec, DEFAULT_CONFIG)
    assert search_gc_runs["find_fair_scc"] > 0
    if spec.pif.fairness:
        assert search_gc_runs["all_fair_states"] > 0


@pytest.mark.parametrize("name", ["traffic", "elevator"])
def test_reach_rings_survive_forced_gc(name):
    """Every BFS ring stays a root while later iterations collect (each
    iteration ends at a safe point)."""
    spec = GALLERY[name]()
    rings = []
    for config in (EngineConfig(auto_gc=1), DEFAULT_CONFIG):
        fsm = SymbolicFsm(spec.flat(), config=config)
        reach = fsm.reachable()
        rings.append([fsm.count_states(ring) for ring in reach.rings])
    assert len(rings[0]) > 2
    assert rings[0] == rings[1]


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


def test_au_rewrite_keeps_its_left_operand():
    """The fuzz case of seed 1152 checks EG A[s0=1 U A[s1=0 U ...]]: the
    inner A[..U..] collects, so the outer rewrite must not build !f before
    evaluating g (its slot was recycled and the EU fixpoint never ended)."""
    report = run_trial(1152, config=EngineConfig(auto_gc=1))
    assert report.divergences == []


# -- Streett edge deletion across several SCCs ----------------------------

# Three SCCs in a chain, 0<->1 -> 2<->3 -> 4 (self-loop), so the edge
# deletion prunes one part of the hull while the fixpoint holds the rest.
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

    s, sn = fsm.var("s"), fsm.var("s#n")
    # Every SCC is fair once it avoids its 1/3-edges or sees a 0/2/4-edge.
    fairness = FairnessSpec(
        [StreettPair(e=s.literal(["1", "3"]), f=s.literal(["0", "2", "4"]))]
    ).normalize(fsm.bdd, fsm.bdd.true)
    fair = all_fair_states(graph, fairness, graph.space)
    assert decode(fair) == {"0", "1", "2", "3", "4"}
    # Neither the 4->4 loop nor the 2->3 edge reaches an F-edge, so both
    # are deleted and the hull shrinks to the 0<->1 cycle.
    f_edge = fsm.bdd.and_(s.literal("0"), sn.literal("1"))
    fairness = FairnessSpec([
        StreettPair(e=s.literal("4"), f=f_edge),
        StreettPair(e=s.literal("2"), f=f_edge),
    ]).normalize(fsm.bdd, fsm.bdd.true)
    scc = find_fair_scc(graph, fairness, graph.space)
    assert scc is not None
    assert decode(scc.states) == {"0", "1"}
    assert decode(all_fair_states(graph, fairness, graph.space)) == {"0", "1"}
    if auto_gc:
        assert fsm.bdd.gc_count > 0


# -- debugger lassos ------------------------------------------------------


@pytest.fixture
def lasso_gc_runs(monkeypatch):
    """Collections that ran inside the debugger's fair-cycle searches."""
    runs = []
    original = mcdebug.find_fair_scc

    def wrapper(graph, *args):
        before = graph.bdd.gc_count
        try:
            return original(graph, *args)
        finally:
            runs.append(graph.bdd.gc_count - before)

    monkeypatch.setattr(mcdebug, "find_fair_scc", wrapper)
    return runs


def _lassos(flat, fairness_of, cases, config):
    """Verdict and path states of each explained ``(formula, state)``."""
    fsm = SymbolicFsm(flat, config=config)
    fsm.build_transition()
    reached = fsm.reachable().reached  # before the unrooted fairness terms
    checker = ModelChecker(fsm, fairness=fairness_of(fsm), reached=reached)
    debugger = CtlDebugger(checker)
    out = []
    for formula, state in cases:
        node = debugger.explain(formula, state=state)
        out.append((formula, node.holds, [step.state for step in node.path]))
    return out


def test_rrarbiter_lassos_survive_forced_gc(lasso_gc_runs):
    """Failing AF and AU properties of the fair gallery design get the same
    lasso under a collection at every safe point."""
    spec = GALLERY["rrarbiter"]()
    cases = [("AF (turn=0 & turn=1)", None),
             ("A[!(turn=2 & turn=3) U (turn=0 & turn=1)]", None)]
    forced = _lassos(spec.flat(), spec.pif.bind_fairness, cases,
                     EngineConfig(auto_gc=1))
    assert len(lasso_gc_runs) == 2 and all(runs > 0 for runs in lasso_gc_runs)
    plain = _lassos(spec.flat(), spec.pif.bind_fairness, cases, DEFAULT_CONFIG)
    assert forced == plain
    assert all(not holds and len(path) >= 4 for _f, holds, path in forced)


# CHAIN with a free bit t, so that no state cube is also a literal or a
# reach ring that happens to be rooted.
FREE_BIT_CHAIN = CHAIN.replace(".latch n s", """.table t -> u
- (0,1)
.latch n s
.latch u t
.reset t
0""")


def test_chain_lassos_survive_forced_gc(lasso_gc_runs):
    """The EG region of !(s=0) is no root, and the explained state is in
    no root either.  s=1 sees no F-edge inside that region, so the edge
    deletion cuts its E-edges to s=2 and the witness search runs on the
    {2, 3} loop: both must stay held while it does."""
    def fairness_of(fsm):
        s, sn = fsm.var("s"), fsm.var("s#n")
        e_edges = fsm.bdd.and_(s.literal("1"), sn.literal("2"))
        f_edges = fsm.bdd.and_(s.literal("0"), sn.literal("1"))
        return FairnessSpec([BuchiState(s.literal("2")),
                             StreettPair(e=e_edges, f=f_edges)])

    at_1 = {"s": "1", "t": "1"}
    cases = [("AF s=0", at_1), ("A[!(s=0) U s=0]", at_1), ("EG !(s=0)", at_1)]
    flat = flatten(parse(FREE_BIT_CHAIN))
    forced = _lassos(flat, fairness_of, cases, EngineConfig(auto_gc=1))
    assert len(lasso_gc_runs) == 3 and all(runs > 0 for runs in lasso_gc_runs)
    assert forced == _lassos(flat, fairness_of, cases, DEFAULT_CONFIG)
    for formula, holds, path in forced:
        assert holds == formula.startswith("EG")
        assert [state["s"] for state in path] == ["1", "2", "3"]


# -- MvVar.literal memo --------------------------------------------------


VALUES = ["a", "b", "c", "d", "e"]


def _assert_literal(bdd, var, members):
    f = var.literal(members)
    for code, value in enumerate(VALUES):
        bits = {bit: bool(code >> i & 1) for i, bit in enumerate(var.bits)}
        assert bdd.eval(f, bits) == (value in members), (members, value)


@pytest.mark.parametrize("event", ["gc", "reorder"])
def test_literal_memo_never_returns_a_stale_handle(event):
    bdd = BDD()
    mdd = MddManager(bdd)
    v = mdd.declare("v", VALUES)
    w = mdd.declare("w", VALUES)
    for members in (["a", "c"], ["e"]):
        _assert_literal(bdd, v, members)
    _assert_literal(bdd, v, "b")
    # The memoized literals are not roots: the event frees them, and new
    # nodes then take their slots.
    if event == "gc":
        assert bdd.gc() > 0
    else:
        bdd.reorder_now()
    bdd.and_(w.literal(["b", "d"]), bdd.or_(bdd.var(v.bits[2]), w.literal("e")))
    for members in (["a", "c"], ["e"]):
        _assert_literal(bdd, v, members)
    _assert_literal(bdd, v, "b")


# -- owners and holds ------------------------------------------------------


def test_two_checkers_on_one_machine_keep_their_own_sets():
    """Each checker roots its own cached sets, so a second checker on the
    same machine leaves the first one's intact across a collection."""
    spec = GALLERY["traffic"]()
    fsm = SymbolicFsm(spec.flat())
    fsm.build_transition()
    first = ModelChecker(fsm)
    sats = [first.eval(f) for _name, f in spec.pif.ctl_props]
    counts = [fsm.count_states(sat) for sat in sats]
    second = ModelChecker(fsm)
    for formula in ["EX cross_l=yellow", "EF main_l=yellow", "timer=1"]:
        second.eval(formula)
    fsm.bdd.gc()
    x_bits = set(fsm.x_bits())
    for sat, count in zip(sats, counts):
        assert set(fsm.bdd.support(sat)) <= x_bits  # not a freed slot
        assert fsm.count_states(sat) == count


def test_simulator_walk_survives_forced_gc():
    """A simulator on a machine with no relation yet builds it on its
    first step, and that build's safe points must leave the walk's state
    cube and visited set alone."""
    spec = GALLERY["traffic"]()
    walks = []
    for config in (EngineConfig(auto_gc=1), DEFAULT_CONFIG):
        fsm = SymbolicFsm(spec.flat(), config=config)
        assert fsm.trans is None
        sim = Simulator(fsm, seed=3)
        walks.append((sim.run(30).states, sim.visited_count()))
    assert len(walks[0][0]) == 31
    assert walks[0] == walks[1]


def _normalized(text):
    """Shell output without timings and node and cache counts (the engine
    statistics block is nothing else)."""
    text = text.split("engine statistics:")[0]
    text = re.sub(r"\d+\.\d+s\b", "<s>", text)
    return re.sub(r"\d+ (live nodes|cache entries)", r"<n> \1", text)


def _shell_session(name, config, tmp_path):
    spec = get_spec(name)
    (tmp_path / f"{name}.v").write_text(spec.verilog)
    (tmp_path / f"{name}.pif").write_text(spec.pif_text)
    shell = HsisShell(config=config)
    out = [shell.execute(f"read_verilog {tmp_path / name}.v"),
           shell.execute(f"read_pif {tmp_path / name}.pif")]
    commands = ["build_tr", "comp_reach", "mc"]
    commands += [f"debug_mc {prop}" for prop, _formula in shell.pif.ctl_props]
    commands += ["bisim", "lc", "sim_init", "sim_step"]
    out += [shell.execute(command) for command in commands]
    # The visited set must still be allocated after a collection: a freed
    # slot reads as variable -1, outside every state bit.
    bdd = shell.fsm.bdd
    bdd.gc()
    visited = shell.simulator._visited
    assert set(bdd.support(visited)) <= set(shell.fsm.x_bits())
    out += [shell.execute("sim_random 30"), shell.execute("print_stats")]
    return [_normalized(text) for text in out]


@pytest.mark.parametrize("name", ["traffic", "railroad"])
def test_shell_session_survives_forced_gc(name, tmp_path):
    """Every stateful shell command answers the same under a collection at
    every safe point."""
    forced = _shell_session(name, EngineConfig(auto_gc=1), tmp_path)
    assert forced == _shell_session(name, DEFAULT_CONFIG, tmp_path)


def test_shell_roots_its_bound_fairness(tmp_path):
    """The shell binds the PIF fairness once and roots it itself: lc
    holds it only while it runs, so the collections of the later
    build_tr and comp_reach must keep it for mc and the second lc."""
    commands = ["lc", "build_tr", "comp_reach", "mc", "mc EG turn=2", "lc",
                "mc"]
    spec = get_spec("rrarbiter")
    (tmp_path / "rr.v").write_text(spec.verilog)
    (tmp_path / "rr.pif").write_text(spec.pif_text)
    outputs = []
    for config in (EngineConfig(auto_gc=1), DEFAULT_CONFIG):
        shell = HsisShell(config=config)
        shell.execute(f"read_verilog {tmp_path / 'rr.v'}")
        shell.execute(f"read_pif {tmp_path / 'rr.pif'}")
        out = [shell.execute(commands[0])]
        bdd = shell.fsm.bdd
        bdd.gc()
        x_bits = set(shell.fsm.x_bits())
        assert all(set(bdd.support(node)) <= x_bits
                   for node in shell.fairness.nodes())  # no freed slot
        out += [shell.execute(command) for command in commands[1:]]
        outputs.append([_normalized(text) for text in out])
    assert outputs[0] == outputs[1]


def test_shell_reach_survives_a_stopped_invariant_search(tmp_path):
    """A failing ``AG p`` stops its search at the first bad frontier; the
    shell's completed comp_reach must stay rooted past it, even when the
    cached checker was built before comp_reach and so does not hold it."""
    commands = ["mc EF cross_l=green", "comp_reach", "mc AG main_l=green",
                "mc EF main_l=yellow"]
    spec = get_spec("traffic")
    (tmp_path / "t.v").write_text(spec.verilog)
    (tmp_path / "t.pif").write_text(spec.pif_text)
    outputs = []
    for config in (EngineConfig(auto_gc=1), DEFAULT_CONFIG):
        shell = HsisShell(config=config)
        shell.execute(f"read_verilog {tmp_path / 't.v'}")
        shell.execute(f"read_pif {tmp_path / 't.pif'}")
        out = [shell.execute(command) for command in commands]
        assert "FAILED" in out[2]
        bdd = shell.fsm.bdd
        bdd.gc()
        reached = shell.reach.reached
        assert set(bdd.support(reached)) <= set(shell.fsm.x_bits())
        out.append(shell.execute("print_stats"))
        outputs.append([_normalized(text) for text in out])
    assert outputs[0] == outputs[1]
    assert "reached states:" in outputs[0][-1]
